//! X16 — the steady-state session scorecard: offered session load ×
//! chaos intensity.
//!
//! Sweeps an open-loop stream of long-lived sessions
//! ([`session_arrivals`]) over the strict 12 fps mesh at three target
//! concurrencies, under the deterministic chaos generator
//! ([`ChaosPlan`]) at three intensities, serving each cell through the
//! continuous session engine ([`run_sessions`]) on a [`ChaosWorld`](qosc_pipeline::ChaosWorld):
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

use qosc_bench::scorecard::{self, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AdmissionConfig, ResilientEngineConfig, SessionEngineConfig, SessionsReport,
};
use qosc_pipeline::{ChaosModel, ChaosPlan};
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
    let chaos = {
        let topology = scenario.network.topology();
        let backbone = topology
            .node_by_name("backbone")
            .expect("generated meshes have a backbone");
        let model = ChaosModel {
            protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
            ..ChaosModel::default()
        };
        ChaosPlan::generate(
            topology,
            scenario.services.live_count(),
            &model,
            CHAOS_SEED,
            intensity,
        )
    };
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

struct Cell {
    load: &'static str,
    concurrency: u64,
    intensity_label: &'static str,
    intensity: f64,
    offered: usize,
    opened: usize,
    completed: usize,
    shed: usize,
    starved: usize,
    gave_up: usize,
    failed_open: usize,
    active_at_end: usize,
    recompositions: u64,
    availability: f64,
    mean_satisfaction: f64,
    p5_satisfaction: f64,
    recompositions_per_session_hour: f64,
    digest: u64,
}

fn run_cell(
    load: &'static str,
    concurrency: u64,
    intensity_label: &'static str,
    intensity: f64,
) -> Cell {
    let cell = format!("load {load} × {intensity_label}");
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
    sats.sort_by(|a, b| a.partial_cmp(b).expect("satisfaction is finite"));
    let mean_satisfaction = if sats.is_empty() {
        0.0
    } else {
        sats.iter().sum::<f64>() / sats.len() as f64
    };
    let p5_satisfaction = if sats.is_empty() {
        0.0
    } else {
        sats[(sats.len() * 5) / 100]
    };

    Cell {
        load,
        concurrency,
        intensity_label,
        intensity,
        offered: report.counters.offered,
        opened: report.counters.opened,
        completed: report.counters.completed,
        shed: report.counters.shed,
        starved: report.counters.starved,
        gave_up: report.counters.gave_up,
        failed_open: report.counters.failed_open,
        active_at_end: report.counters.active_at_end,
        recompositions: report.recompositions(),
        availability: report.availability(),
        mean_satisfaction,
        p5_satisfaction,
        recompositions_per_session_hour: report.recompositions_per_session_hour(),
        digest,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_session.json".to_string());

    println!(
        "X16 — steady-state session scorecard (topology seed {TOPOLOGY_SEED}, arrival seed \
         {ARRIVAL_SEED}, chaos seed {CHAOS_SEED}, horizon {}s, workers {WORKER_COUNTS:?})",
        HORIZON_US / 1_000_000
    );
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &(load, concurrency) in &LOADS {
        for &(intensity_label, intensity) in &INTENSITIES {
            cells.push(run_cell(load, concurrency, intensity_label, intensity));
        }
    }

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
    for c in &cells {
        table.row([
            c.load.to_string(),
            c.intensity_label.to_string(),
            c.offered.to_string(),
            c.opened.to_string(),
            c.completed.to_string(),
            c.shed.to_string(),
            c.recompositions.to_string(),
            format!("{:.4}", c.availability),
            format!("{:.3}", c.mean_satisfaction),
            format!("{:.3}", c.p5_satisfaction),
            format!("{:.1}", c.recompositions_per_session_hour),
        ]);
    }
    println!("{}", table.render());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"session_steady_state\",\n");
    json.push_str(&scorecard::strict_scenario_json());
    json.push_str(&format!(
        "  \"run\": {{\"arrival_seed\": {ARRIVAL_SEED}, \"chaos_seed\": {CHAOS_SEED}, \"horizon_us\": {HORIZON_US}, \"hold_range_us\": [{}, {}], \"tick_us\": 250000, \"max_recompositions\": 8, \"virtual_cores\": {VIRTUAL_CORES}}},\n",
        HOLD_RANGE_US.0, HOLD_RANGE_US.1
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
            "    {{\"load\": \"{}\", \"concurrency\": {}, \"chaos\": \"{}\", \"intensity\": {:.2}, \"offered\": {}, \"opened\": {}, \"completed\": {}, \"shed\": {}, \"starved\": {}, \"gave_up\": {}, \"failed_open\": {}, \"active_at_end\": {}, \"recompositions\": {}, \"availability\": {:.6}, \"mean_satisfaction\": {:.6}, \"p5_satisfaction\": {:.6}, \"recompositions_per_session_hour\": {:.6}, \"digest\": \"{:016x}\"}}{}\n",
            c.load,
            c.concurrency,
            c.intensity_label,
            c.intensity,
            c.offered,
            c.opened,
            c.completed,
            c.shed,
            c.starved,
            c.gave_up,
            c.failed_open,
            c.active_at_end,
            c.recompositions,
            c.availability,
            c.mean_satisfaction,
            c.p5_satisfaction,
            c.recompositions_per_session_hour,
            c.digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
