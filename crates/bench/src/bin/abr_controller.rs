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

use qosc_bench::scorecard::{self, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, ResilientEngineConfig, SessionEngineConfig, SessionsReport,
};
use qosc_pipeline::FailureEvent;
use qosc_workload::arrivals::{session_arrivals, ArrivalPattern, SessionPattern};

const ARRIVAL_SEED: u64 = 42;
/// Virtual run length.
const HORIZON_US: u64 = 30_000_000;
/// Arrivals stop 5 virtual seconds before the horizon so the tail can
/// drain.
const ARRIVAL_HORIZON_US: u64 = 25_000_000;
/// Long holds — 6–12 s against a 4 s buffer — so squeeze windows land
/// mid-stream, outlast the startup credit, and leave post-window time
/// for BOLA to climb back up the ladder.
const HOLD_RANGE_US: (u64, u64) = (6_000_000, 12_000_000);
/// Per-session full-quality bitrate demand, bits per second; floors
/// the final-hop requirement inside the delivery model. Kept well
/// below the generated access capacities (15–60 kbit/s) so a healthy
/// plan sustains real time and the floor only documents the plumbing.
const DEMAND_RANGE_BPS: (u64, u64) = (1_000, 4_000);
/// Session opens per virtual second (mean concurrency ≈ rate × 9 s).
const ARRIVAL_RATE_PER_SEC: u64 = 2;
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
fn squeeze_windows(intensity: &str) -> &'static [(u64, u64, u16)] {
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

/// The squeeze share of the horizon — the scalar the JSON reports as
/// the cell's intensity.
fn squeeze_fraction(intensity: &str) -> f64 {
    let busy: u64 = squeeze_windows(intensity)
        .iter()
        .map(|(s, e, _)| e - s)
        .sum();
    busy as f64 / HORIZON_US as f64
}

fn session_pattern() -> SessionPattern {
    SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: ARRIVAL_HORIZON_US,
            rate_per_sec: ARRIVAL_RATE_PER_SEC,
            ..ArrivalPattern::default()
        },
        hold_range_us: HOLD_RANGE_US,
        demand_range_bps: DEMAND_RANGE_BPS,
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
        session_arrivals(&session_pattern(), ARRIVAL_SEED),
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

struct Cell {
    intensity_label: &'static str,
    intensity: f64,
    controller: &'static str,
    offered: usize,
    completed: usize,
    starved: usize,
    gave_up: usize,
    failed_open: usize,
    recompositions: u64,
    switches: u64,
    rebuffer_us: u64,
    rebuffer_events: u64,
    rebuffer_ratio: f64,
    mean_rung: f64,
    availability: f64,
    buffer_peak_us: u64,
    digest: u64,
}

fn run_cell(intensity_label: &'static str, controller: &'static str) -> Cell {
    let mode = CONTROLLERS
        .iter()
        .find(|(name, _)| *name == controller)
        .expect("known controller")
        .1;
    let cell = format!("{intensity_label} × {controller}");
    let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
        let report = run_once(mode, intensity_label, workers);
        (scorecard::sessions_digest(&report), report)
    });

    // The TLA+ switch-rate bound: at most one committed switch per
    // dwell window, plus the window in flight.
    let dwell = abr_config(mode).switch_dwell_us.max(1);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let bound = 1 + outcome.active_us() / dwell;
        assert!(
            (outcome.switches as u64) <= bound,
            "{intensity_label} × {controller}: session {i} made {} switches over {}us active \
             (bound {bound})",
            outcome.switches,
            outcome.active_us()
        );
    }

    Cell {
        intensity_label,
        intensity: squeeze_fraction(intensity_label),
        controller,
        offered: report.counters.offered,
        completed: report.counters.completed,
        starved: report.counters.starved,
        gave_up: report.counters.gave_up,
        failed_open: report.counters.failed_open,
        recompositions: report.recompositions(),
        switches: report.switches(),
        rebuffer_us: report.rebuffer_us(),
        rebuffer_events: report
            .outcomes
            .iter()
            .map(|o| o.rebuffer_events as u64)
            .sum(),
        rebuffer_ratio: report.rebuffer_ratio(),
        mean_rung: report.mean_rung_index(),
        availability: report.availability(),
        buffer_peak_us: report
            .outcomes
            .iter()
            .map(|o| o.buffer_peak_us)
            .max()
            .unwrap_or(0),
        digest,
    }
}

fn cell<'a>(cells: &'a [Cell], intensity: &str, controller: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.intensity_label == intensity && c.controller == controller)
        .expect("swept cell")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_abr.json".to_string());

    println!(
        "X17 — buffer-aware adaptation scorecard (topology seed {TOPOLOGY_SEED}, arrival seed \
         {ARRIVAL_SEED}, horizon {}s, access-link squeeze schedule, workers {WORKER_COUNTS:?})",
        HORIZON_US / 1_000_000
    );
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &intensity_label in &INTENSITIES {
        for &(controller, _) in &CONTROLLERS {
            cells.push(run_cell(intensity_label, controller));
        }
    }

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
    for c in &cells {
        table.row([
            c.intensity_label.to_string(),
            c.controller.to_string(),
            c.offered.to_string(),
            c.completed.to_string(),
            c.starved.to_string(),
            c.recompositions.to_string(),
            c.switches.to_string(),
            (c.rebuffer_us / 1_000).to_string(),
            format!("{:.4}", c.rebuffer_ratio),
            format!("{:.3}", c.mean_rung),
            format!("{:.4}", c.availability),
        ]);
    }
    println!("{}", table.render());

    // The robustness headline, asserted where it matters: storm.
    let storm_static = cell(&cells, "storm", "static");
    let storm_reactive = cell(&cells, "storm", "reactive");
    let storm_bola = cell(&cells, "storm", "bola");
    assert!(
        storm_static.rebuffer_ratio > 0.0,
        "storm squeeze must starve the static ladder's buffer at least once"
    );
    assert!(
        storm_bola.rebuffer_ratio < storm_static.rebuffer_ratio,
        "BOLA must strictly cut the rebuffer ratio vs the static ladder at storm: \
         bola {:.6} vs static {:.6}",
        storm_bola.rebuffer_ratio,
        storm_static.rebuffer_ratio
    );
    assert!(
        storm_bola.mean_rung <= storm_reactive.mean_rung,
        "BOLA's mean rung must be no worse than reactive at storm: bola {:.4} vs reactive {:.4}",
        storm_bola.mean_rung,
        storm_reactive.mean_rung
    );
    println!(
        "storm check: rebuffer bola {:.4} < static {:.4}; mean rung bola {:.3} <= reactive {:.3}",
        storm_bola.rebuffer_ratio,
        storm_static.rebuffer_ratio,
        storm_bola.mean_rung,
        storm_reactive.mean_rung
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"abr_controller\",\n");
    json.push_str(&scorecard::strict_scenario_json());
    json.push_str(&format!(
        "  \"run\": {{\"arrival_seed\": {ARRIVAL_SEED}, \"horizon_us\": {HORIZON_US}, \"hold_range_us\": [{}, {}], \"demand_range_bps\": [{}, {}], \"rate_per_sec\": {ARRIVAL_RATE_PER_SEC}, \"tick_us\": 250000, \"max_recompositions\": 8}},\n",
        HOLD_RANGE_US.0, HOLD_RANGE_US.1, DEMAND_RANGE_BPS.0, DEMAND_RANGE_BPS.1
    ));
    json.push_str("  \"squeeze_windows\": {");
    for (i, intensity) in INTENSITIES.iter().enumerate() {
        let windows = squeeze_windows(intensity)
            .iter()
            .map(|(s, e, p)| format!("[{s}, {e}, {p}]"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "\"{intensity}\": [{windows}]{}",
            if i + 1 == INTENSITIES.len() { "" } else { ", " }
        ));
    }
    json.push_str("},\n");
    let abr = AbrConfig::default();
    json.push_str(&format!(
        "  \"abr\": {{\"buffer_capacity_us\": {}, \"startup_buffer_us\": {}, \"gamma_b_ppm\": {}, \"switch_dwell_us\": {}, \"rung_utility\": {:?}, \"rung_cost_pct\": {:?}}},\n",
        abr.buffer_capacity_us,
        abr.startup_buffer_us,
        abr.gamma_b_ppm,
        abr.switch_dwell_us,
        abr.rung_utility,
        abr.rung_cost_pct
    ));
    json.push_str(&format!(
        "  \"workers_verified\": [{}],\n",
        WORKER_COUNTS
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"chaos\": \"{}\", \"intensity\": {:.2}, \"controller\": \"{}\", \"offered\": {}, \"completed\": {}, \"starved\": {}, \"gave_up\": {}, \"failed_open\": {}, \"recompositions\": {}, \"switches\": {}, \"rebuffer_us\": {}, \"rebuffer_events\": {}, \"rebuffer_ratio\": {:.6}, \"mean_rung\": {:.6}, \"availability\": {:.6}, \"buffer_peak_us\": {}, \"digest\": \"{:016x}\"}}{}\n",
            c.intensity_label,
            c.intensity,
            c.controller,
            c.offered,
            c.completed,
            c.starved,
            c.gave_up,
            c.failed_open,
            c.recompositions,
            c.switches,
            c.rebuffer_us,
            c.rebuffer_events,
            c.rebuffer_ratio,
            c.mean_rung,
            c.availability,
            c.buffer_peak_us,
            c.digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
