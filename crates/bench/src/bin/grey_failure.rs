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

use qosc_bench::scorecard::{
    self, list, Line, Scorecard, Windows, BUFFERED_ARRIVAL_SEED as ARRIVAL_SEED,
    BUFFERED_HORIZON_US as HORIZON_US, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS,
};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, ResilientEngineConfig, SelectOptions, SessionEngineConfig,
    SessionsReport, SlaConfig, SlaMode,
};
use qosc_pipeline::ChaosAction;
use qosc_workload::arrivals::session_arrivals;

const CHAOS: [&str; 2] = ["calm", "grey"];
const DETECTORS: [&str; 3] = ["off", "binary", "drift"];

/// Deterministic sag windows `(start_us, end_us, throughput_permille)`
/// applied to every member serving the nominal chain. 100‰ means the
/// sick members deliver a tenth of advertised — the buffer drains at
/// 0.9× real time, far faster than BOLA's ladder can absorb, while
/// every liveness check stays green.
fn sag_windows(chaos: &str) -> Windows {
    match chaos {
        "calm" => &[],
        "grey" => &[(3_000_000, 11_000_000, 100), (16_000_000, 24_000_000, 100)],
        other => panic!("unknown chaos {other}"),
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
        session_arrivals(&scorecard::buffered_stream(), ARRIVAL_SEED),
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

/// One cell: its scorecard line and its table row, from the workers=1
/// report.
fn run_cell(
    chaos: &'static str,
    detector: &'static str,
    card: &mut Scorecard,
    table: &mut TextTable,
) -> (u64, SessionsReport) {
    let cell = format!("{chaos} × {detector}");
    let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
        let report = run_once(detector, chaos, workers);
        (scorecard::sessions_digest(&report), report)
    });
    let counters = &report.counters;
    let p5_satisfaction = scorecard::p5(scorecard::delivered_ratios(&report));
    table.row([
        chaos.to_string(),
        detector.to_string(),
        counters.offered.to_string(),
        counters.completed.to_string(),
        report.sla_violations().to_string(),
        report.evasions().to_string(),
        report.switches().to_string(),
        (report.rebuffer_us() / 1_000).to_string(),
        format!("{:.4}", report.rebuffer_ratio()),
        format!("{p5_satisfaction:.4}"),
        format!("{:.4}", report.availability()),
    ]);
    card.push(
        Line::new()
            .str("chaos", chaos)
            .num("intensity", scorecard::window_share(sag_windows(chaos)), 2)
            .str("detector", detector)
            .raw("offered", counters.offered)
            .raw("completed", counters.completed)
            .raw("starved", counters.starved)
            .raw("recompositions", report.recompositions())
            .raw("switches", report.switches())
            .raw("evasions", report.evasions())
            .raw("sla_violations", report.sla_violations())
            .raw("rebuffer_us", report.rebuffer_us())
            .num("rebuffer_ratio", report.rebuffer_ratio(), 6)
            .num("p5_satisfaction", p5_satisfaction, 6)
            .num("availability", report.availability(), 6)
            .digest("digest", digest),
    );
    (digest, report)
}

fn main() {
    let mut card = Scorecard::from_args("grey_failure", "BENCH_grey.json");

    println!(
        "X18 — grey-failure detection scorecard (topology seed {TOPOLOGY_SEED}, arrival seed \
         {ARRIVAL_SEED}, horizon {}s, chain-member sag schedule, workers {WORKER_COUNTS:?})",
        HORIZON_US / 1_000_000
    );
    println!();

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
    let mut cells = Vec::new();
    for chaos in CHAOS {
        for detector in DETECTORS {
            cells.push((
                (chaos, detector),
                run_cell(chaos, detector, &mut card, &mut table),
            ));
        }
    }
    println!("{}", table.render());
    let cell = |chaos: &str, detector: &str| {
        &cells
            .iter()
            .find(|(key, _)| *key == (chaos, detector))
            .expect("swept cell")
            .1
    };

    // Do-no-harm at calm: with nothing to detect, all three modes are
    // bit-identical — the estimators observe nominal QoS, never flag,
    // and touch nothing.
    let (calm_digest, calm_off) = cell("calm", "off");
    for detector in ["binary", "drift"] {
        assert_eq!(
            cell("calm", detector).0,
            *calm_digest,
            "calm × {detector} must be bit-identical to detection-off"
        );
    }

    // The grey-failure headline.
    let (off_digest, off) = cell("grey", "off");
    let (binary_digest, binary) = cell("grey", "binary");
    let (_, drift) = cell("grey", "drift");
    let p5 = |report: &SessionsReport| scorecard::p5(scorecard::delivered_ratios(report));
    assert!(
        off.rebuffer_ratio() > calm_off.rebuffer_ratio(),
        "the sag windows must starve undetected sessions: grey {:.6} vs calm {:.6}",
        off.rebuffer_ratio(),
        calm_off.rebuffer_ratio()
    );
    // A grey fault never kills a plan, so the binary breaker has
    // nothing to see: its run is bit-identical to no detection at all.
    assert_eq!(
        binary_digest, off_digest,
        "the binary breaker must be provably blind to grey faults"
    );
    assert_eq!(binary.sla_violations(), 0);
    assert_eq!(binary.evasions(), 0);
    // Availability stays green everywhere — grey failure is invisible
    // to liveness, and drift's evasions are make-before-break.
    for detector in DETECTORS {
        let availability = cell("grey", detector).1.availability();
        assert!(
            availability > 0.999,
            "grey × {detector}: grey faults must not dent availability, got {availability:.6}"
        );
    }
    // The drift-aware engine detects, probates, evades — and both
    // QoE columns recover.
    assert!(
        drift.sla_violations() > 0 && drift.evasions() > 0,
        "drift must flag the sagging chain and evade: {} violations, {} evasions",
        drift.sla_violations(),
        drift.evasions()
    );
    assert!(
        drift.rebuffer_ratio() < off.rebuffer_ratio(),
        "drift must strictly cut the rebuffer ratio vs no detection: {:.6} vs {:.6}",
        drift.rebuffer_ratio(),
        off.rebuffer_ratio()
    );
    assert!(
        p5(drift) > p5(off) && p5(drift) > p5(binary),
        "drift must lift p5 delivered satisfaction: drift {:.6} vs off {:.6} / binary {:.6}",
        p5(drift),
        p5(off),
        p5(binary)
    );
    println!(
        "grey check: rebuffer drift {:.4} < off {:.4}; p5 satisfaction drift {:.4} > off {:.4}; \
         binary digest == off digest (blind breaker)",
        drift.rebuffer_ratio(),
        off.rebuffer_ratio(),
        p5(drift),
        p5(off)
    );

    let config = engine_config("drift", 1);
    let sla = config.sla.expect("the drift detector runs an SLA policy");
    let estimator = &sla.estimator;
    card.write(
        &Line::new()
            .raw("scenario", scorecard::strict_scenario_line())
            .raw("run", scorecard::buffered_run_line(&config))
            .raw("sag_windows", scorecard::windows_line(&CHAOS, sag_windows))
            .raw(
                "sla",
                Line::new()
                    .raw("ewma_shift", estimator.ewma_shift)
                    .raw("window", estimator.window)
                    .raw("quantile_permille", estimator.quantile_permille)
                    .raw(
                        "throughput_tolerance_ppm",
                        estimator.throughput_tolerance_ppm,
                    )
                    .raw("latency_tolerance_ppm", estimator.latency_tolerance_ppm)
                    .raw("dwell_us", estimator.dwell_us)
                    .raw("min_samples", estimator.min_samples)
                    .raw("evade_dwell_us", sla.evade_dwell_us),
            )
            .raw("workers_verified", list(WORKER_COUNTS)),
    );
}
