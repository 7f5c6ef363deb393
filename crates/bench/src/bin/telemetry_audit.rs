//! X14 — the telemetry audit: the flight recorder must not perturb the
//! engine and must not depend on the machine.
//!
//! Replays a canned slice of the chaos + overload scorecards with a
//! [`FlightRecorder`] attached and checks the two properties the
//! telemetry layer promises:
//!
//! * **Determinism** — the merged event log (ordered by
//!   `(virtual_time, request_id, seq)`) and the Prometheus metrics
//!   snapshot are byte-identical across 1/2/4/8 composition workers and
//!   across repeated runs. Telemetry carries only virtual time, so the
//!   transcript is a function of the seeds, not of the scheduler.
//! * **Zero perturbation** — an uninstrumented ([`NoopSink`]) run of
//!   the same scenario produces bitwise-identical outcomes (counters,
//!   shed verdicts, satisfaction sums): recording is observation, not
//!   intervention.
//!
//! The replay covers four event sources: the admission front-end at 2×
//! offered load (admitted/shed chains with brown-out rung changes), a
//! cold + warm pass through the sharded composition cache (miss then
//! hit probes on per-request keys), one chaos-schedule session on the
//! serving loop (re-composition events on the virtual clock), and a
//! scripted registry lease storm (register / renew / expire /
//! quarantine / release / deregister). The overload phase and the
//! ladder-descent phase are batches of zero-hold sessions on the
//! serving loop ([`run_sessions`]); a [`ServedWorld`] keeps what each
//! was served, and [`plan_admission`] — the offline twin of the loop's
//! admission queue — supplies the queue waits.
//!
//! Emits `BENCH_telemetry.json` (first CLI argument overrides the
//! path): per-kind event counts, histogram snapshots (queue wait,
//! explain-chain depth), and explain-depth statistics. The file is
//! byte-identical across runs and machines, and CI snapshots it.

use qosc_bench::scorecard::{
    chaos_plan, list, one_session, serve_zero_hold, strict_scenario, strict_scenario_line, Line,
    Scorecard, ServedWorld, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS,
};
use qosc_bench::TextTable;
use qosc_core::{
    plan_admission, run_sessions, serve_batch_traced, AdmissionConfig, ArrivalMeta,
    CompositionRequest, DegradationRung, EngineConfig, PriorityClass, SessionsReport,
    ShardedCompositionCache,
};
use qosc_media::{Axis, FormatRegistry};
use qosc_netsim::{Node, SimTime, Topology};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{catalog, QuarantineConfig, ServiceRegistry, TranscoderDescriptor};
use qosc_telemetry::{EventKind, FlightRecorder, MetricsRegistry, NoopSink};
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern};

const ARRIVAL_SEED: u64 = 42;
const CHAOS_SEED: u64 = 101;
const CHAOS_INTENSITY: f64 = 0.75;
const VIRTUAL_CORES: u32 = 4;
const MEAN_COST_US: u64 = 20_000;
/// Distinct requests in the cache cold/warm passes.
const CACHE_REQUESTS: usize = 16;

/// X13's `full` policy: shedding + priorities + brown-out coupling.
fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        virtual_cores: VIRTUAL_CORES,
        initial_limit: VIRTUAL_CORES,
        max_limit: 8,
        ..AdmissionConfig::protected()
    }
}

/// 2× virtual capacity — past saturation, so the transcript contains
/// both admitted chains and shed verdicts.
fn overload_pattern() -> ArrivalPattern {
    let capacity_per_sec = VIRTUAL_CORES as u64 * 1_000_000 / MEAN_COST_US;
    let target_mean = capacity_per_sec * 2;
    ArrivalPattern {
        rate_per_sec: target_mean * 100 / 120,
        ..ArrivalPattern::default()
    }
}

/// Outcome fingerprint used for the no-perturbation check: everything
/// the engine decides, reduced to exactly comparable integers.
#[derive(Debug, PartialEq, Eq)]
struct OutcomeDigest {
    served: usize,
    degraded: usize,
    failed: usize,
    shed: usize,
    satisfaction_bits: Vec<u64>,
}

impl OutcomeDigest {
    /// A batch of zero-hold sessions, each scored by what `world` saw it
    /// adopt (0.0 unserved).
    fn of(report: &SessionsReport, world: &ServedWorld<'_>) -> OutcomeDigest {
        let full = report
            .outcomes
            .iter()
            .filter(|o| o.final_rung == Some(DegradationRung::Full))
            .count();
        OutcomeDigest {
            served: full,
            degraded: report.counters.completed - full,
            failed: report.counters.failed_open,
            shed: report.counters.shed,
            satisfaction_bits: (0..report.outcomes.len())
                .map(|i| world.satisfaction(i).to_bits())
                .collect(),
        }
    }
}

/// One full instrumented replay at `workers` composition workers.
/// Returns the merged transcript (all four phases), the Prometheus
/// snapshot, the overload recorder (for explain/depth stats), the
/// whole-replay per-kind event totals, and the outcome digest of the
/// overload phase.
fn replay(
    workers: usize,
) -> (
    String,
    String,
    FlightRecorder,
    std::collections::BTreeMap<&'static str, u64>,
    OutcomeDigest,
) {
    let recorder = FlightRecorder::new(16);
    let registry = MetricsRegistry::new();

    // Phase 1 — overload: admission front-end at 2× capacity.
    let scenario = strict_scenario();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), ARRIVAL_SEED);
    let admission = Some(admission_config());
    let (report, world) = serve_zero_hold(&scenario, &arrivals, workers, admission, &recorder);
    report.record_metrics(&registry);
    let plan = plan_admission(&arrivals, &admission_config());
    assert_eq!(report.admission, plan.stats, "the loop admits as the plan");
    let queue_wait = registry.histogram(
        "qosc_admission_queue_wait_us",
        &[0, 1_000, 5_000, 20_000, 100_000, 500_000],
    );
    for decision in plan.decisions.iter().filter(|d| d.admitted) {
        queue_wait.observe(decision.queue_wait_us);
    }
    let digest = OutcomeDigest::of(&report, &world);
    let overload_log = recorder.render_log();
    let overload_recorder = recorder;

    // Phase 2 — cache: a cold pass over per-request keys (every probe a
    // miss), a warm pass over the same keys (every probe a hit), then a
    // service death and a third pass (entries whose chain used the dead
    // service revalidate as stale). Keys are distinct per request, so
    // the outcome of each probe is independent of how workers
    // interleave.
    let cold = FlightRecorder::new(16);
    let warm = FlightRecorder::new(16);
    let stale = FlightRecorder::new(16);
    let mut cache_scenario = strict_scenario();
    let cache = ShardedCompositionCache::new(8);
    let mut cache_requests = Vec::with_capacity(CACHE_REQUESTS);
    for i in 0..CACHE_REQUESTS {
        let mut profiles = cache_scenario.profiles.clone();
        profiles.user.name = format!("viewer-{i}");
        cache_requests.push(CompositionRequest {
            profiles,
            sender_host: cache_scenario.sender_host,
            receiver_host: cache_scenario.receiver_host,
        });
    }
    let engine_config = EngineConfig {
        workers,
        ..EngineConfig::default()
    };
    let dead_service = {
        let cache_composer = cache_scenario.composer();
        let cold_plans = serve_batch_traced(
            &cache_composer,
            &cache,
            &cache_requests,
            &engine_config,
            &cold,
        );
        serve_batch_traced(
            &cache_composer,
            &cache,
            &cache_requests,
            &engine_config,
            &warm,
        );
        cold_plans
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .filter_map(|p| p.as_ref())
            .flat_map(|plan| plan.steps.iter().filter_map(|step| step.service))
            .min_by_key(|id| id.index())
    };
    if let Some(id) = dead_service {
        cache_scenario
            .services
            .deregister(id)
            .expect("chain service is live");
    }
    {
        let cache_composer = cache_scenario.composer();
        serve_batch_traced(
            &cache_composer,
            &cache,
            &cache_requests,
            &engine_config,
            &stale,
        );
    }
    cache.stats().record_metrics(&registry);
    cache.export_gauges(&registry);

    // Phase 2b — ladder descent: a floor no plan can meet (120 fps)
    // forces every request down the degradation ladder, emitting
    // per-rung spans and rung-change events.
    let ladder = FlightRecorder::new(16);
    let mut ladder_scenario = strict_scenario();
    ladder_scenario.profiles.user.satisfaction =
        SatisfactionProfile::new().with(AxisPreference::weighted(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 120.0,
                ideal: 240.0,
            },
            1.0,
        ));
    let at_zero = ArrivalMeta {
        arrival_us: 0,
        priority: PriorityClass::Standard,
        service_cost_us: 0,
        deadline_budget_us: None,
    };
    serve_zero_hold(&ladder_scenario, &[at_zero; 4], workers, None, &ladder);

    // Phase 3 — chaos: one 30 s session under the canned fault
    // schedule; its re-compositions and ladder descents land on the
    // virtual clock.
    let chaos = FlightRecorder::new(16);
    let plan = chaos_plan(&scenario, 0, CHAOS_SEED, CHAOS_INTENSITY);
    let (mut world, request, mut session_config) = one_session(&scenario, plan.schedule());
    session_config.resilient.workers = workers;
    run_sessions(&mut world, &[request], &session_config, &chaos);

    // Phase 4 — registry: a scripted lease storm over the real catalog,
    // replayed into the recorder off the registry's timed event log.
    let churn = FlightRecorder::new(16);
    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let edge = topo.add_node(Node::unconstrained("edge"));
    let mut services = ServiceRegistry::new();
    services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 3,
        cooldown_us: 2_000_000,
    });
    let specs = catalog::full_catalog();
    let ids: Vec<_> = specs
        .iter()
        .take(6)
        .map(|spec| {
            let descriptor =
                TranscoderDescriptor::resolve(spec, &formats, edge).expect("catalog resolves");
            services.register(descriptor, SimTime::ZERO, 1_000_000)
        })
        .collect();
    for &id in ids.iter().step_by(2) {
        services
            .renew(id, SimTime(500_000), 1_000_000)
            .expect("renew live lease");
    }
    services.expire_leases(SimTime(1_200_000));
    for step in 0..3 {
        services
            .report_failure(ids[0], SimTime(1_300_000 + step * 100_000))
            .expect("failing service is live");
    }
    services.release_quarantines(SimTime(4_000_000));
    services.deregister(ids[2]).expect("deregister live lease");
    services.record_telemetry(&churn);

    // The combined transcript: the four phases in a fixed order, each a
    // merged `(virtual_time, request_id, seq)`-ordered log.
    let transcript = format!(
        "== overload ==\n{overload_log}== cache cold ==\n{}== cache warm ==\n{}== cache stale ==\n{}== ladder ==\n{}== chaos ==\n{}== registry ==\n{}",
        cold.render_log(),
        warm.render_log(),
        stale.render_log(),
        ladder.render_log(),
        chaos.render_log(),
        churn.render_log(),
    );

    // Metrics: whole-replay per-kind event totals (the recorders share
    // request-id spaces, so sum their counts rather than merging logs),
    // plus the explain-depth histogram over the overload phase.
    let mut event_totals: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for source in [
        &overload_recorder,
        &cold,
        &warm,
        &stale,
        &ladder,
        &chaos,
        &churn,
    ] {
        for (label, count) in source.event_counts() {
            *event_totals.entry(label).or_insert(0) += count;
        }
    }
    for (label, count) in &event_totals {
        registry
            .counter(&format!("qosc_events_total{{kind=\"{label}\"}}"))
            .store(*count);
    }
    let depth_histogram = registry.histogram("qosc_explain_depth", &[1, 2, 3, 4, 6, 8]);
    for id in overload_recorder.request_ids() {
        depth_histogram.observe(overload_recorder.explain_depth(id) as u64);
    }
    let prometheus = registry.to_prometheus_text();

    (
        transcript,
        prometheus,
        overload_recorder,
        event_totals,
        digest,
    )
}

fn main() {
    let mut card =
        Scorecard::from_args("telemetry_audit", "BENCH_telemetry.json").cells_named("histograms");
    println!(
        "X14 — telemetry audit (topology seed {TOPOLOGY_SEED}, arrival seed {ARRIVAL_SEED}, \
         chaos seed {CHAOS_SEED}, workers {WORKER_COUNTS:?})"
    );
    println!();

    // Reference replay at 4 workers, then the determinism sweep.
    let (reference_log, reference_metrics, recorder, event_totals, reference_digest) = replay(4);
    let mut rows: Vec<(usize, usize, bool, bool)> = Vec::new();
    for &workers in &WORKER_COUNTS {
        let (log, metrics, _, _, digest) = replay(workers);
        let log_identical = log == reference_log;
        let metrics_identical = metrics == reference_metrics;
        assert!(
            log_identical,
            "merged event log differs at {workers} workers"
        );
        assert!(
            metrics_identical,
            "metrics snapshot differs at {workers} workers"
        );
        assert_eq!(
            digest, reference_digest,
            "engine outcomes differ at {workers} workers"
        );
        rows.push((
            workers,
            log.lines().count(),
            log_identical,
            metrics_identical,
        ));
    }

    // Repeated run at the reference worker count: same process, fresh
    // state, byte-identical transcript.
    let (repeat_log, repeat_metrics, _, _, _) = replay(4);
    assert_eq!(repeat_log, reference_log, "repeated run diverged");
    assert_eq!(
        repeat_metrics, reference_metrics,
        "repeated metrics diverged"
    );

    // No-perturbation: the uninstrumented engine decides exactly the
    // same things the instrumented one did.
    let scenario = strict_scenario();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), ARRIVAL_SEED);
    let admission = Some(admission_config());
    let (noop, noop_world) = serve_zero_hold(&scenario, &arrivals, 4, admission, &NoopSink);
    let noop_digest = OutcomeDigest::of(&noop, &noop_world);
    assert_eq!(
        noop_digest, reference_digest,
        "NoopSink run diverged from instrumented run"
    );

    let mut table = TextTable::new(["workers", "log lines", "log", "metrics"]);
    for (workers, lines, log_ok, metrics_ok) in &rows {
        table.row([
            workers.to_string(),
            lines.to_string(),
            if *log_ok { "identical" } else { "DIFFERS" }.to_string(),
            if *metrics_ok { "identical" } else { "DIFFERS" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Explain-chain depth statistics over every request in the replay.
    let ids = recorder.request_ids();
    let depths: Vec<usize> = ids.iter().map(|&id| recorder.explain_depth(id)).collect();
    let depth_min = depths.iter().copied().min().unwrap_or(0);
    let depth_max = depths.iter().copied().max().unwrap_or(0);
    let depth_mean = if depths.is_empty() {
        0.0
    } else {
        depths.iter().sum::<usize>() as f64 / depths.len() as f64
    };
    println!(
        "explain chains: {} requests, depth min {depth_min} mean {depth_mean:.3} max {depth_max}",
        ids.len()
    );

    // Two worked explain chains: the first shed request and the first
    // brown-out (admitted below the full rung) request.
    let merged = recorder.merged();
    let shed_id = merged
        .iter()
        .find(|e| matches!(e.kind, EventKind::RequestShed { .. }))
        .map(|e| e.request_id);
    let brownout_id = merged
        .iter()
        .find(|e| matches!(&e.kind, EventKind::RequestAdmitted { rung, .. } if *rung != "full"))
        .map(|e| e.request_id);
    if let Some(id) = shed_id {
        println!("\nexplain({id}) — shed:\n{}", recorder.explain(id));
    }
    if let Some(id) = brownout_id {
        println!("explain({id}) — brown-out:\n{}", recorder.explain(id));
    }

    let mut events = Line::new();
    for (&kind, &count) in &event_totals {
        events = events.raw(kind, count);
    }
    for name in ["qosc_admission_queue_wait_us", "qosc_explain_depth"] {
        card.push(histogram_line(&reference_metrics, name));
    }
    let admission = admission_config();
    card.write(
        &Line::new()
            .raw("scenario", strict_scenario_line())
            .raw(
                "replay",
                Line::new()
                    .raw("arrival_seed", ARRIVAL_SEED)
                    .raw("chaos_seed", CHAOS_SEED)
                    .num("chaos_intensity", CHAOS_INTENSITY, 2)
                    .raw("cache_requests", CACHE_REQUESTS)
                    .raw("virtual_cores", admission.virtual_cores)
                    .raw("mean_cost_us", MEAN_COST_US),
            )
            .raw(
                "determinism",
                Line::new()
                    .raw("worker_counts", list(WORKER_COUNTS))
                    .raw("log_identical", rows.iter().all(|row| row.2))
                    .raw("metrics_identical", rows.iter().all(|row| row.3))
                    .raw("repeated_run_identical", true)
                    .raw("noop_outcomes_identical", true)
                    .raw("log_lines", reference_log.lines().count()),
            )
            .raw("events", events.block())
            .raw(
                "explain",
                Line::new()
                    .raw("requests", ids.len())
                    .raw("depth_min", depth_min)
                    .num("depth_mean", depth_mean, 6)
                    .raw("depth_max", depth_max),
            ),
    );
}

/// Re-derive a histogram snapshot from the Prometheus text so the
/// emitted file reflects exactly the snapshot that was compared across
/// worker counts.
fn histogram_line(prometheus: &str, name: &str) -> Line {
    let mut buckets = Vec::new();
    let mut sum = 0u64;
    let mut count = 0u64;
    for line in prometheus.lines() {
        if let Some(rest) = line.strip_prefix(&format!("{name}_bucket{{le=\"")) {
            let (le, value) = rest.split_once("\"} ").expect("bucket line");
            let value: u64 = value.parse().expect("bucket count");
            buckets.push(Line::new().str("le", le).raw("count", value));
        } else if let Some(value) = line.strip_prefix(&format!("{name}_sum ")) {
            sum = value.parse().expect("sum");
        } else if let Some(value) = line.strip_prefix(&format!("{name}_count ")) {
            count = value.parse().expect("count");
        }
    }
    Line::new()
        .str("name", name)
        .raw("buckets", list(buckets))
        .raw("sum", sum)
        .raw("count", count)
}
