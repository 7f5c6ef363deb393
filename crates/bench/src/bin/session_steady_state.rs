//! X16 — the steady-state session scorecard: offered session load ×
//! chaos intensity.
//!
//! Sweeps an open-loop stream of long-lived sessions
//! ([`session_arrivals`]) over the strict 12 fps mesh at three target
//! concurrencies, under the deterministic chaos generator
//! ([`ChaosPlan`](qosc_pipeline::ChaosPlan)) at three intensities,
//! serving each cell through the continuous session engine
//! ([`run_sessions`]) on a [`ChaosWorld`](qosc_pipeline::ChaosWorld):
//! admission decides every session open and re-composition, progress
//! ticks detect plans broken by mid-session faults or lease expiry,
//! and each break re-composes on the surviving graph.
//!
//! Emits `BENCH_session.json` (first CLI argument overrides the path);
//! the file is deterministic, and CI `cmp`s a fresh one against the
//! checked-in copy. Every cell runs at 1/2/4/8 workers and the run
//! digests must agree byte for byte; the digest of the workers=1 run
//! is what the file records.
//!
//! Expected shape: at calm intensity availability is ~1 and nothing
//! re-composes. As intensity rises, recompositions per session-hour
//! climb and availability dips by the (virtual) dark time between a
//! break and its repair; heavier offered load adds admission shedding
//! on top. Satisfaction degrades gracefully — the p5 session tracks
//! the brown-out ladder, not zero.

use qosc_bench::scorecard::{
    self, list, Line, Scorecard, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS,
};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AdmissionConfig, ResilientEngineConfig, SessionEngineConfig, SessionsReport,
};
use qosc_workload::arrivals::{session_arrivals, ArrivalPattern, SessionPattern};

const ARRIVAL_SEED: u64 = 42;
const CHAOS_SEED: u64 = 11;
/// Virtual run length; matches the chaos model's default horizon.
const HORIZON_US: u64 = 30_000_000;
/// Arrivals stop 5 virtual seconds before the horizon so the tail can
/// drain; sessions still open then are censored as `active_at_end`.
const ARRIVAL_HORIZON_US: u64 = 25_000_000;
/// Session holding times: 0.5–1.5 s, mean 1 s, so the target mean
/// concurrency equals the arrival rate (Little's law).
const HOLD_RANGE_US: (u64, u64) = (500_000, 1_500_000);
/// Offered load as target mean concurrent sessions.
const LOADS: [(&str, u64); 3] = [("light", 2), ("busy", 6), ("heavy", 16)];
const INTENSITIES: [(&str, f64); 3] = [("calm", 0.0), ("gusty", 0.5), ("storm", 1.0)];
const VIRTUAL_CORES: u32 = 4;

fn session_pattern(concurrency: u64) -> SessionPattern {
    SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: ARRIVAL_HORIZON_US,
            rate_per_sec: concurrency,
            ..ArrivalPattern::default()
        },
        hold_range_us: HOLD_RANGE_US,
        demand_range_bps: (0, 0),
    }
}

fn engine_config(workers: usize) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        admission: Some(AdmissionConfig {
            virtual_cores: VIRTUAL_CORES,
            initial_limit: VIRTUAL_CORES,
            max_limit: 8,
            ..AdmissionConfig::protected()
        }),
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(HORIZON_US),
        session_spans: true,
        abr: None,
        sla: None,
    }
}

fn run_once(concurrency: u64, intensity: f64, workers: usize) -> SessionsReport {
    // The world is stateful (faults, lease churn), so every run gets a
    // fresh copy of the *same* seeded scenario.
    let scenario = scorecard::strict_scenario();
    let chaos = scorecard::chaos_plan(
        &scenario,
        scenario.services.live_count(),
        CHAOS_SEED,
        intensity,
    );
    let requests = scorecard::session_requests(
        &scenario,
        session_arrivals(&session_pattern(concurrency), ARRIVAL_SEED),
    );
    let mut world = scorecard::chaos_world(&scenario.formats, &scenario.services, scenario.network);
    world.load_plan(&chaos);

    run_sessions(
        &mut world,
        &requests,
        &engine_config(workers),
        &qosc_telemetry::NoopSink,
    )
}

/// One cell: its scorecard line and its table row, from the workers=1
/// report.
fn run_cell(
    (load, concurrency): (&str, u64),
    (chaos, intensity): (&str, f64),
    card: &mut Scorecard,
    table: &mut TextTable,
) {
    let cell = format!("load {load} × {chaos}");
    let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
        let report = run_once(concurrency, intensity, workers);
        (scorecard::sessions_digest_with_admission(&report), report)
    });

    // Per-session mean satisfaction over sessions that streamed at all.
    let mut sats: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| o.active_us() > 0)
        .map(|o| o.mean_satisfaction())
        .collect();
    // Summed in ascending order, as the scorecard has always summed.
    sats.sort_by(f64::total_cmp);
    let mean_satisfaction = if sats.is_empty() {
        0.0
    } else {
        sats.iter().sum::<f64>() / sats.len() as f64
    };
    let p5_satisfaction = scorecard::p5(sats);

    let counters = &report.counters;
    table.row([
        load.to_string(),
        chaos.to_string(),
        counters.offered.to_string(),
        counters.opened.to_string(),
        counters.completed.to_string(),
        counters.shed.to_string(),
        report.recompositions().to_string(),
        format!("{:.4}", report.availability()),
        format!("{mean_satisfaction:.3}"),
        format!("{p5_satisfaction:.3}"),
        format!("{:.1}", report.recompositions_per_session_hour()),
    ]);
    card.push(
        Line::new()
            .str("load", load)
            .raw("concurrency", concurrency)
            .str("chaos", chaos)
            .num("intensity", intensity, 2)
            .raw("offered", counters.offered)
            .raw("opened", counters.opened)
            .raw("completed", counters.completed)
            .raw("shed", counters.shed)
            .raw("starved", counters.starved)
            .raw("gave_up", counters.gave_up)
            .raw("failed_open", counters.failed_open)
            .raw("active_at_end", counters.active_at_end)
            .raw("recompositions", report.recompositions())
            .num("availability", report.availability(), 6)
            .num("mean_satisfaction", mean_satisfaction, 6)
            .num("p5_satisfaction", p5_satisfaction, 6)
            .num(
                "recompositions_per_session_hour",
                report.recompositions_per_session_hour(),
                6,
            )
            .digest("digest", digest),
    );
}

fn main() {
    let mut card = Scorecard::from_args("session_steady_state", "BENCH_session.json");

    println!(
        "X16 — steady-state session scorecard (topology seed {TOPOLOGY_SEED}, arrival seed \
         {ARRIVAL_SEED}, chaos seed {CHAOS_SEED}, horizon {}s, workers {WORKER_COUNTS:?})",
        HORIZON_US / 1_000_000
    );
    println!();

    let mut table = TextTable::new([
        "load",
        "chaos",
        "offered",
        "opened",
        "completed",
        "shed",
        "recomp",
        "avail",
        "sat mean",
        "sat p5",
        "recomp/h",
    ]);
    for load in LOADS {
        for intensity in INTENSITIES {
            run_cell(load, intensity, &mut card, &mut table);
        }
    }
    println!("{}", table.render());

    let config = engine_config(1);
    let admission = config.admission.expect("X16 runs with admission");
    card.write(
        &Line::new()
            .raw("scenario", scorecard::strict_scenario_line())
            .raw(
                "run",
                Line::new()
                    .raw("arrival_seed", ARRIVAL_SEED)
                    .raw("chaos_seed", CHAOS_SEED)
                    .raw("horizon_us", HORIZON_US)
                    .raw("hold_range_us", list([HOLD_RANGE_US.0, HOLD_RANGE_US.1]))
                    .raw("tick_us", config.tick_us)
                    .raw("max_recompositions", config.max_recompositions)
                    .raw("virtual_cores", admission.virtual_cores),
            )
            .raw("workers_verified", list(WORKER_COUNTS)),
    );
}
