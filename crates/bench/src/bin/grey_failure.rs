//! X18 — the grey-failure detection scorecard: grey-fault chaos ×
//! detection mode.
//!
//! Replays the X17 strict mesh and open-loop session stream, but
//! instead of squeezing a link it *sags* the members serving the
//! nominal chain: deterministic windows cut their delivered throughput
//! to 10% of advertised while every liveness signal stays green —
//! `plan_alive` and `plan_routable` keep saying yes, no lease expires,
//! no breaker trips. Each cell runs the session engine with the BOLA
//! buffer model attached, under three detection modes:
//!
//! * **off** — `sla: None`, the PR 7 code path: sessions ride the sick
//!   chain, the buffer drains at 4× real time, and the rebuffer column
//!   shows what undetected grey failure costs,
//! * **binary** — the circuit-breaker baseline: hard failures (plan
//!   death) feed the registry's quarantine, but a grey fault never
//!   kills a plan, so the breaker is provably blind — this cell's
//!   digest must equal `off`'s byte for byte,
//! * **drift** — the estimator/watchdog loop: per-tick observed-QoS
//!   samples flag the sagging service, probation penalizes it in
//!   selection, and a make-before-break evasion moves each session to
//!   a healthy alternative before the buffer runs dry.
//!
//! "p5 satisfaction" is the 5th-percentile per-session *delivered*
//! satisfaction: mean plan satisfaction over active time, discounted
//! by the stalled share of playback — a session that spends half its
//! life rebuffering delivers half its composed satisfaction no matter
//! what the selection scored.
//!
//! Emits `BENCH_grey.json` (first CLI argument overrides the path);
//! the file is deterministic, and CI `cmp`s a fresh one against the
//! checked-in copy. Every cell runs at 1/2/4/8 workers and the digests
//! must agree byte for byte.
//!
//! The bin asserts the PR's acceptance shape directly: under grey
//! chaos the binary breaker never reacts (availability stays ≈ 1.0
//! while p5 satisfaction and the rebuffer ratio collapse, digest equal
//! to detection-off), and the drift-aware engine strictly improves
//! both — while at calm all three modes are bit-identical, the
//! estimators' do-no-harm bound.

use qosc_bench::scorecard::{self, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, ResilientEngineConfig, SelectOptions, SessionEngineConfig,
    SessionsReport, SlaConfig, SlaMode,
};
use qosc_pipeline::ChaosAction;
use qosc_services::QosEstimatorConfig;
use qosc_workload::arrivals::{session_arrivals, ArrivalPattern, SessionPattern};

const ARRIVAL_SEED: u64 = 42;
/// Virtual run length.
const HORIZON_US: u64 = 30_000_000;
/// Arrivals stop 5 virtual seconds before the horizon so the tail can
/// drain.
const ARRIVAL_HORIZON_US: u64 = 25_000_000;
/// Long holds — 6–12 s against a 4 s buffer — so sag windows land
/// mid-stream and outlast the startup credit.
const HOLD_RANGE_US: (u64, u64) = (6_000_000, 12_000_000);
/// Per-session full-quality bitrate demand, bits per second (see X17).
const DEMAND_RANGE_BPS: (u64, u64) = (1_000, 4_000);
/// Session opens per virtual second (mean concurrency ≈ rate × 9 s).
const ARRIVAL_RATE_PER_SEC: u64 = 2;
const CHAOS: [&str; 2] = ["calm", "grey"];
const DETECTORS: [&str; 3] = ["off", "binary", "drift"];

/// Deterministic sag windows `(start_us, end_us, throughput_permille)`
/// applied to every member serving the nominal chain. 100‰ means the
/// sick members deliver a tenth of advertised — the buffer drains at
/// 0.9× real time, far faster than BOLA's ladder can absorb, while
/// every liveness check stays green.
fn sag_windows(chaos: &str) -> &'static [(u64, u64, u16)] {
    match chaos {
        "calm" => &[],
        "grey" => &[(3_000_000, 11_000_000, 100), (16_000_000, 24_000_000, 100)],
        other => panic!("unknown chaos {other}"),
    }
}

/// The sagging share of the horizon — the scalar the JSON reports as
/// the cell's intensity.
fn sag_fraction(chaos: &str) -> f64 {
    let busy: u64 = sag_windows(chaos).iter().map(|(s, e, _)| e - s).sum();
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

fn sla_config(detector: &str) -> Option<SlaConfig> {
    match detector {
        "off" => None,
        "binary" => Some(SlaConfig {
            mode: SlaMode::Binary,
            ..SlaConfig::default()
        }),
        "drift" => Some(SlaConfig::default()),
        other => panic!("unknown detector {other}"),
    }
}

fn engine_config(detector: &str, workers: usize) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        // No admission queue: the sweep isolates detection; X16 already
        // covers admission interplay.
        admission: None,
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(HORIZON_US),
        session_spans: true,
        // Every cell streams through the BOLA buffer model so rebuffer
        // time is the common currency the detectors are judged in.
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: sla_config(detector),
    }
}

fn run_once(detector: &str, chaos: &str, workers: usize) -> SessionsReport {
    // The world is stateful (grey windows, discovery, probation), so
    // every run gets a fresh copy of the *same* seeded scenario.
    let scenario = scorecard::strict_scenario();
    // Compose the nominal chain once to learn which members serve it:
    // those are the ones the grey windows make sick. Member index =
    // position in `live_services()` order, which is join order below.
    let nominal = scenario
        .compose(&SelectOptions::default())
        .expect("the seeded scenario composes")
        .plan
        .expect("the strict mesh has a feasible chain");
    let sick_members: Vec<usize> = nominal
        .steps
        .iter()
        .filter_map(|s| s.service)
        .map(|id| {
            scenario
                .services
                .live_services()
                .position(|(live, _)| live == id)
                .expect("a composed service is live")
        })
        .collect();
    assert!(
        !sick_members.is_empty(),
        "the nominal chain rides at least one transcoder"
    );
    let requests = scorecard::session_requests(
        &scenario,
        session_arrivals(&session_pattern(), ARRIVAL_SEED),
    );
    let mut world = scorecard::chaos_world(&scenario.formats, &scenario.services, scenario.network);
    for &(start, end, permille) in sag_windows(chaos) {
        for &index in &sick_members {
            world.schedule_action(
                start,
                ChaosAction::SagMember {
                    index,
                    throughput_permille: permille,
                },
            );
            world.schedule_action(end, ChaosAction::UnsagMember(index));
        }
    }

    run_sessions(
        &mut world,
        &requests,
        &engine_config(detector, workers),
        &qosc_telemetry::NoopSink,
    )
}

struct Cell {
    chaos: &'static str,
    intensity: f64,
    detector: &'static str,
    offered: usize,
    completed: usize,
    starved: usize,
    recompositions: u64,
    switches: u64,
    evasions: u64,
    sla_violations: u64,
    rebuffer_us: u64,
    rebuffer_ratio: f64,
    p5_satisfaction: f64,
    availability: f64,
    digest: u64,
}

fn run_cell(chaos: &'static str, detector: &'static str) -> Cell {
    let cell = format!("{chaos} × {detector}");
    let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
        let report = run_once(detector, chaos, workers);
        (scorecard::sessions_digest(&report), report)
    });
    Cell {
        chaos,
        intensity: sag_fraction(chaos),
        detector,
        offered: report.counters.offered,
        completed: report.counters.completed,
        starved: report.counters.starved,
        recompositions: report.recompositions(),
        switches: report.switches(),
        evasions: report.evasions(),
        sla_violations: report.sla_violations(),
        rebuffer_us: report.rebuffer_us(),
        rebuffer_ratio: report.rebuffer_ratio(),
        p5_satisfaction: scorecard::p5(scorecard::delivered_ratios(&report)),
        availability: report.availability(),
        digest,
    }
}

fn cell<'a>(cells: &'a [Cell], chaos: &str, detector: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.chaos == chaos && c.detector == detector)
        .expect("swept cell")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_grey.json".to_string());

    println!(
        "X18 — grey-failure detection scorecard (topology seed {TOPOLOGY_SEED}, arrival seed \
         {ARRIVAL_SEED}, horizon {}s, chain-member sag schedule, workers {WORKER_COUNTS:?})",
        HORIZON_US / 1_000_000
    );
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &chaos in &CHAOS {
        for &detector in &DETECTORS {
            cells.push(run_cell(chaos, detector));
        }
    }

    let mut table = TextTable::new([
        "chaos",
        "detector",
        "offered",
        "completed",
        "violations",
        "evasions",
        "switches",
        "rebuf ms",
        "rebuf ratio",
        "p5 satisf",
        "avail",
    ]);
    for c in &cells {
        table.row([
            c.chaos.to_string(),
            c.detector.to_string(),
            c.offered.to_string(),
            c.completed.to_string(),
            c.sla_violations.to_string(),
            c.evasions.to_string(),
            c.switches.to_string(),
            (c.rebuffer_us / 1_000).to_string(),
            format!("{:.4}", c.rebuffer_ratio),
            format!("{:.4}", c.p5_satisfaction),
            format!("{:.4}", c.availability),
        ]);
    }
    println!("{}", table.render());

    // Do-no-harm at calm: with nothing to detect, all three modes are
    // bit-identical — the estimators observe nominal QoS, never flag,
    // and touch nothing.
    let calm_off = cell(&cells, "calm", "off");
    for detector in ["binary", "drift"] {
        let c = cell(&cells, "calm", detector);
        assert_eq!(
            c.digest, calm_off.digest,
            "calm × {detector} must be bit-identical to detection-off"
        );
    }

    // The grey-failure headline.
    let grey_off = cell(&cells, "grey", "off");
    let grey_binary = cell(&cells, "grey", "binary");
    let grey_drift = cell(&cells, "grey", "drift");
    assert!(
        grey_off.rebuffer_ratio > calm_off.rebuffer_ratio,
        "the sag windows must starve undetected sessions: grey {:.6} vs calm {:.6}",
        grey_off.rebuffer_ratio,
        calm_off.rebuffer_ratio
    );
    // A grey fault never kills a plan, so the binary breaker has
    // nothing to see: its run is bit-identical to no detection at all.
    assert_eq!(
        grey_binary.digest, grey_off.digest,
        "the binary breaker must be provably blind to grey faults"
    );
    assert_eq!(grey_binary.sla_violations, 0);
    assert_eq!(grey_binary.evasions, 0);
    // Availability stays green everywhere — grey failure is invisible
    // to liveness, and drift's evasions are make-before-break.
    for c in [grey_off, grey_binary, grey_drift] {
        assert!(
            c.availability > 0.999,
            "{} × {}: grey faults must not dent availability, got {:.6}",
            c.chaos,
            c.detector,
            c.availability
        );
    }
    // The drift-aware engine detects, probates, evades — and both
    // QoE columns recover.
    assert!(
        grey_drift.sla_violations > 0 && grey_drift.evasions > 0,
        "drift must flag the sagging chain and evade: {} violations, {} evasions",
        grey_drift.sla_violations,
        grey_drift.evasions
    );
    assert!(
        grey_drift.rebuffer_ratio < grey_off.rebuffer_ratio,
        "drift must strictly cut the rebuffer ratio vs no detection: {:.6} vs {:.6}",
        grey_drift.rebuffer_ratio,
        grey_off.rebuffer_ratio
    );
    assert!(
        grey_drift.p5_satisfaction > grey_off.p5_satisfaction
            && grey_drift.p5_satisfaction > grey_binary.p5_satisfaction,
        "drift must lift p5 delivered satisfaction: drift {:.6} vs off {:.6} / binary {:.6}",
        grey_drift.p5_satisfaction,
        grey_off.p5_satisfaction,
        grey_binary.p5_satisfaction
    );
    println!(
        "grey check: rebuffer drift {:.4} < off {:.4}; p5 satisfaction drift {:.4} > off {:.4}; \
         binary digest == off digest (blind breaker)",
        grey_drift.rebuffer_ratio,
        grey_off.rebuffer_ratio,
        grey_drift.p5_satisfaction,
        grey_off.p5_satisfaction
    );

    let estimator = QosEstimatorConfig::default();
    let sla = SlaConfig::default();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"grey_failure\",\n");
    json.push_str(&scorecard::strict_scenario_json());
    json.push_str(&format!(
        "  \"run\": {{\"arrival_seed\": {ARRIVAL_SEED}, \"horizon_us\": {HORIZON_US}, \"hold_range_us\": [{}, {}], \"demand_range_bps\": [{}, {}], \"rate_per_sec\": {ARRIVAL_RATE_PER_SEC}, \"tick_us\": 250000, \"max_recompositions\": 8}},\n",
        HOLD_RANGE_US.0, HOLD_RANGE_US.1, DEMAND_RANGE_BPS.0, DEMAND_RANGE_BPS.1
    ));
    json.push_str("  \"sag_windows\": {");
    for (i, chaos) in CHAOS.iter().enumerate() {
        let windows = sag_windows(chaos)
            .iter()
            .map(|(s, e, p)| format!("[{s}, {e}, {p}]"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "\"{chaos}\": [{windows}]{}",
            if i + 1 == CHAOS.len() { "" } else { ", " }
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "  \"sla\": {{\"ewma_shift\": {}, \"window\": {}, \"quantile_permille\": {}, \"throughput_tolerance_ppm\": {}, \"latency_tolerance_ppm\": {}, \"dwell_us\": {}, \"min_samples\": {}, \"evade_dwell_us\": {}}},\n",
        estimator.ewma_shift,
        estimator.window,
        estimator.quantile_permille,
        estimator.throughput_tolerance_ppm,
        estimator.latency_tolerance_ppm,
        estimator.dwell_us,
        estimator.min_samples,
        sla.evade_dwell_us
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
            "    {{\"chaos\": \"{}\", \"intensity\": {:.2}, \"detector\": \"{}\", \"offered\": {}, \"completed\": {}, \"starved\": {}, \"recompositions\": {}, \"switches\": {}, \"evasions\": {}, \"sla_violations\": {}, \"rebuffer_us\": {}, \"rebuffer_ratio\": {:.6}, \"p5_satisfaction\": {:.6}, \"availability\": {:.6}, \"digest\": \"{:016x}\"}}{}\n",
            c.chaos,
            c.intensity,
            c.detector,
            c.offered,
            c.completed,
            c.starved,
            c.recompositions,
            c.switches,
            c.evasions,
            c.sla_violations,
            c.rebuffer_us,
            c.rebuffer_ratio,
            c.p5_satisfaction,
            c.availability,
            c.digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
