//! X17 — the buffer-aware adaptation scorecard: squeeze intensity ×
//! mid-stream controller.
//!
//! Sweeps an open-loop stream of long-lived sessions over the strict
//! 12 fps mesh while a deterministic schedule of bandwidth squeezes
//! chokes the receiver's access link. The generated mesh is a star —
//! every route terminates on that one link — so re-composition cannot
//! route around a squeeze; the only way to keep a stream alive is down
//! the degradation ladder. Each cell runs through the session engine
//! with a playout-buffer model attached, under three controllers:
//!
//! * **static** — the rung chosen at open is requested forever;
//!   bandwidth squeezes drain the buffer and the rebuffer column shows
//!   what riding a too-high rung costs,
//! * **reactive** — PR 6 semantics: a squeeze kills the plan and a
//!   reactive re-composition descends the ladder (never climbing
//!   back), with the buffer absorbing the dark gap,
//! * **bola** — the BOLA-style Lyapunov controller scores every rung by
//!   `(utility + gamma_b · headroom) / cost` per progress tick,
//!   down-switching before the buffer runs dry and up-switching when
//!   headroom returns (make-before-break).
//!
//! Emits `BENCH_abr.json` (first CLI argument overrides the path); the
//! file is deterministic, and CI `cmp`s a fresh one against the
//! checked-in copy. Every cell runs at 1/2/4/8 workers and the digests
//! must agree byte for byte.
//!
//! The bin asserts the PR's acceptance shape directly: at storm
//! intensity BOLA strictly cuts the rebuffer ratio versus the static
//! ladder while holding a mean rung no worse than reactive
//! re-composition, and every session's switch count respects the
//! dwell-window bound `switches ≤ 1 + active/dwell`.

use qosc_bench::scorecard::{
    self, list, Line, Scorecard, Windows, BUFFERED_ARRIVAL_SEED as ARRIVAL_SEED,
    BUFFERED_HORIZON_US as HORIZON_US, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS,
};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, ResilientEngineConfig, SessionEngineConfig, SessionsReport,
};
use qosc_pipeline::FailureEvent;
use qosc_workload::arrivals::session_arrivals;

const INTENSITIES: [&str; 3] = ["calm", "gusty", "storm"];
const CONTROLLERS: [(&str, AbrMode); 3] = [
    ("static", AbrMode::StaticLadder),
    ("reactive", AbrMode::Reactive),
    ("bola", AbrMode::Bola),
];

/// Deterministic squeeze windows `(start_us, end_us, permille)` applied
/// to the receiver's access link. Windows outlast the 4 s playout
/// buffer at storm so a static ladder *must* stall, while the residual
/// capacity still carries the lower rungs.
fn squeeze_windows(intensity: &str) -> Windows {
    match intensity {
        "calm" => &[],
        "gusty" => &[(6_000_000, 9_000_000, 700), (18_000_000, 21_000_000, 700)],
        "storm" => &[
            (3_000_000, 9_000_000, 900),
            (13_000_000, 19_000_000, 900),
            (23_000_000, 29_000_000, 900),
        ],
        other => panic!("unknown intensity {other}"),
    }
}

fn abr_config(mode: AbrMode) -> AbrConfig {
    AbrConfig::with_mode(mode)
}

fn engine_config(mode: AbrMode, workers: usize) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        // No admission queue: the sweep isolates the mid-stream
        // controllers; X16 already covers admission interplay.
        admission: None,
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(HORIZON_US),
        session_spans: true,
        abr: Some(abr_config(mode)),
        sla: None,
    }
}

fn run_once(mode: AbrMode, intensity: &str, workers: usize) -> SessionsReport {
    // The world is stateful (faults, discovery), so every run gets a
    // fresh copy of the *same* seeded scenario.
    let scenario = scorecard::strict_scenario();
    // The star topology gives the receiver exactly one access link;
    // every plan's final hop crosses it, so squeezing it cannot be
    // routed around.
    let access_link = {
        let neighbors = scenario
            .network
            .topology()
            .neighbors(scenario.receiver_host);
        assert_eq!(
            neighbors.len(),
            1,
            "generated star meshes attach the receiver by one access link"
        );
        neighbors[0].1
    };
    let requests = scorecard::session_requests(
        &scenario,
        session_arrivals(&scorecard::buffered_stream(), ARRIVAL_SEED),
    );
    let mut world = scorecard::chaos_world(&scenario.formats, &scenario.services, scenario.network);
    for &(start, end, permille) in squeeze_windows(intensity) {
        world.schedule_fault(
            start,
            FailureEvent::Squeeze {
                link: access_link,
                permille,
            },
        );
        world.schedule_fault(end, FailureEvent::Unsqueeze(access_link));
    }

    run_sessions(
        &mut world,
        &requests,
        &engine_config(mode, workers),
        &qosc_telemetry::NoopSink,
    )
}

/// One cell: its scorecard line and its table row, from the workers=1
/// report, after the per-session switch-rate check.
fn run_cell(
    chaos: &'static str,
    (controller, mode): (&'static str, AbrMode),
    card: &mut Scorecard,
    table: &mut TextTable,
) -> SessionsReport {
    let cell = format!("{chaos} × {controller}");
    let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
        let report = run_once(mode, chaos, workers);
        (scorecard::sessions_digest(&report), report)
    });

    // The TLA+ switch-rate bound: at most one committed switch per
    // dwell window, plus the window in flight.
    let dwell = abr_config(mode).switch_dwell_us.max(1);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let bound = 1 + outcome.active_us() / dwell;
        assert!(
            (outcome.switches as u64) <= bound,
            "{chaos} × {controller}: session {i} made {} switches over {}us active \
             (bound {bound})",
            outcome.switches,
            outcome.active_us()
        );
    }

    let counters = &report.counters;
    table.row([
        chaos.to_string(),
        controller.to_string(),
        counters.offered.to_string(),
        counters.completed.to_string(),
        counters.starved.to_string(),
        report.recompositions().to_string(),
        report.switches().to_string(),
        (report.rebuffer_us() / 1_000).to_string(),
        format!("{:.4}", report.rebuffer_ratio()),
        format!("{:.3}", report.mean_rung_index()),
        format!("{:.4}", report.availability()),
    ]);
    card.push(
        Line::new()
            .str("chaos", chaos)
            .num(
                "intensity",
                scorecard::window_share(squeeze_windows(chaos)),
                2,
            )
            .str("controller", controller)
            .raw("offered", counters.offered)
            .raw("completed", counters.completed)
            .raw("starved", counters.starved)
            .raw("gave_up", counters.gave_up)
            .raw("failed_open", counters.failed_open)
            .raw("recompositions", report.recompositions())
            .raw("switches", report.switches())
            .raw("rebuffer_us", report.rebuffer_us())
            .raw(
                "rebuffer_events",
                report
                    .outcomes
                    .iter()
                    .map(|o| o.rebuffer_events as u64)
                    .sum::<u64>(),
            )
            .num("rebuffer_ratio", report.rebuffer_ratio(), 6)
            .num("mean_rung", report.mean_rung_index(), 6)
            .num("availability", report.availability(), 6)
            .raw(
                "buffer_peak_us",
                report
                    .outcomes
                    .iter()
                    .map(|o| o.buffer_peak_us)
                    .max()
                    .unwrap_or(0),
            )
            .digest("digest", digest),
    );
    report
}

fn main() {
    let mut card = Scorecard::from_args("abr_controller", "BENCH_abr.json");

    println!(
        "X17 — buffer-aware adaptation scorecard (topology seed {TOPOLOGY_SEED}, arrival seed \
         {ARRIVAL_SEED}, horizon {}s, access-link squeeze schedule, workers {WORKER_COUNTS:?})",
        HORIZON_US / 1_000_000
    );
    println!();

    let mut table = TextTable::new([
        "chaos",
        "controller",
        "offered",
        "completed",
        "starved",
        "recomp",
        "switches",
        "rebuf ms",
        "rebuf ratio",
        "mean rung",
        "avail",
    ]);
    let mut storm = Vec::new();
    for chaos in INTENSITIES {
        for controller in CONTROLLERS {
            let report = run_cell(chaos, controller, &mut card, &mut table);
            if chaos == "storm" {
                storm.push((report.rebuffer_ratio(), report.mean_rung_index()));
            }
        }
    }
    println!("{}", table.render());

    // The robustness headline, asserted where it matters: storm.
    let [(static_rebuffer, _), (_, reactive_rung), (bola_rebuffer, bola_rung)] = storm[..] else {
        panic!("one storm cell per controller");
    };
    assert!(
        static_rebuffer > 0.0,
        "storm squeeze must starve the static ladder's buffer at least once"
    );
    assert!(
        bola_rebuffer < static_rebuffer,
        "BOLA must strictly cut the rebuffer ratio vs the static ladder at storm: \
         bola {bola_rebuffer:.6} vs static {static_rebuffer:.6}"
    );
    assert!(
        bola_rung <= reactive_rung,
        "BOLA's mean rung must be no worse than reactive at storm: bola {bola_rung:.4} vs \
         reactive {reactive_rung:.4}"
    );
    println!(
        "storm check: rebuffer bola {bola_rebuffer:.4} < static {static_rebuffer:.4}; mean rung \
         bola {bola_rung:.3} <= reactive {reactive_rung:.3}"
    );

    let config = engine_config(AbrMode::Bola, 1);
    let abr = config.abr.expect("every X17 cell runs a controller");
    card.write(
        &Line::new()
            .raw("scenario", scorecard::strict_scenario_line())
            .raw("run", scorecard::buffered_run_line(&config))
            .raw(
                "squeeze_windows",
                scorecard::windows_line(&INTENSITIES, squeeze_windows),
            )
            .raw(
                "abr",
                Line::new()
                    .raw("buffer_capacity_us", abr.buffer_capacity_us)
                    .raw("startup_buffer_us", abr.startup_buffer_us)
                    .raw("gamma_b_ppm", abr.gamma_b_ppm)
                    .raw("switch_dwell_us", abr.switch_dwell_us)
                    .raw("rung_utility", list(abr.rung_utility))
                    .raw("rung_cost_pct", list(abr.rung_cost_pct)),
            )
            .raw("workers_verified", list(WORKER_COUNTS)),
    );
}
