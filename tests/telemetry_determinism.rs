//! Telemetry determinism: the flight recorder's merged log and the
//! metrics snapshot are pure functions of the seeds — independent of
//! worker count and of repetition — and attaching a recorder never
//! changes what the engine decides.

use qosc_bench::scorecard::{session_requests, ServedWorld};
use qosc_core::{
    run_sessions, serve_batch_traced, AdmissionConfig, CompositionRequest, EngineConfig,
    ResilientEngineConfig, SessionEngineConfig, SessionsReport, ShardedCompositionCache,
    StaticWorld,
};
use qosc_telemetry::{FlightRecorder, MetricsRegistry, NoopSink, TelemetrySink};
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern, SessionArrival};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

const TOPOLOGY_SEED: u64 = 5;
const ARRIVAL_SEED: u64 = 42;

fn scenario() -> Scenario {
    random_scenario(
        &GeneratorConfig {
            services_per_layer: 5,
            multi_axis: true,
            ..GeneratorConfig::default()
        },
        TOPOLOGY_SEED,
    )
}

/// ~4× a 4-core virtual capacity for 300ms: admitted and shed chains.
fn overload_pattern() -> ArrivalPattern {
    ArrivalPattern {
        horizon_us: 300_000,
        rate_per_sec: 660,
        ..ArrivalPattern::default()
    }
}

/// The overload batch — one zero-hold session per arrival, opened
/// through the protected admission queue — served at `workers` into
/// `sink`.
fn overload<'a, S: TelemetrySink>(
    scenario: &'a Scenario,
    workers: usize,
    sink: &S,
) -> (SessionsReport, ServedWorld<'a>) {
    let arrivals = poisson_burst_arrivals(&overload_pattern(), ARRIVAL_SEED);
    let sessions = session_requests(
        scenario,
        arrivals
            .iter()
            .map(|&meta| SessionArrival {
                meta,
                hold_us: 0,
                demand_bps: 0,
            })
            .collect(),
    );
    let config = SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        admission: Some(AdmissionConfig {
            virtual_cores: 4,
            initial_limit: 4,
            max_limit: 8,
            ..AdmissionConfig::protected()
        }),
        tick_us: 0,
        session_spans: false,
        ..SessionEngineConfig::default()
    };
    let mut world = ServedWorld::new(StaticWorld {
        formats: &scenario.formats,
        services: &scenario.services,
        network: &scenario.network,
    });
    let report = run_sessions(&mut world, &sessions, &config, sink);
    (report, world)
}

/// One instrumented overload + cache replay at `workers`. Returns the
/// merged overload log, the cache log (cold pass over per-request keys
/// then warm pass), and the Prometheus snapshot.
fn replay(workers: usize) -> (String, String, String) {
    let scenario = scenario();
    let composer = scenario.composer();
    let recorder = FlightRecorder::new(16);
    let (report, _) = overload(&scenario, workers, &recorder);

    let cache_recorder = FlightRecorder::new(16);
    let cache = ShardedCompositionCache::new(8);
    let cache_requests: Vec<CompositionRequest> = (0..12)
        .map(|i| {
            let mut profiles = scenario.profiles.clone();
            profiles.user.name = format!("viewer-{i}");
            CompositionRequest {
                profiles,
                sender_host: scenario.sender_host,
                receiver_host: scenario.receiver_host,
            }
        })
        .collect();
    let config = EngineConfig {
        workers,
        ..EngineConfig::default()
    };
    serve_batch_traced(&composer, &cache, &cache_requests, &config, &cache_recorder);
    serve_batch_traced(&composer, &cache, &cache_requests, &config, &cache_recorder);

    let registry = MetricsRegistry::new();
    report.record_metrics(&registry);
    cache.stats().record_metrics(&registry);
    cache.export_gauges(&registry);
    recorder.export_metrics(&registry);

    (
        recorder.render_log(),
        cache_recorder.render_log(),
        registry.to_prometheus_text(),
    )
}

#[test]
fn merged_log_and_metrics_identical_across_worker_counts() {
    let (log_1, cache_1, metrics_1) = replay(1);
    for workers in [2, 4, 8] {
        let (log_w, cache_w, metrics_w) = replay(workers);
        assert_eq!(log_1, log_w, "overload log differs at {workers} workers");
        assert_eq!(cache_1, cache_w, "cache log differs at {workers} workers");
        assert_eq!(
            metrics_1, metrics_w,
            "metrics snapshot differs at {workers} workers"
        );
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (log_a, cache_a, metrics_a) = replay(4);
    let (log_b, cache_b, metrics_b) = replay(4);
    assert_eq!(log_a, log_b);
    assert_eq!(cache_a, cache_b);
    assert_eq!(metrics_a, metrics_b);
}

/// Both passes of the warmed cache replay serve the same 12 keys, so
/// the second pass's probes are all hits — the merged log separates
/// them by `(virtual_time, request_id, seq)` even though both passes
/// share request ids.
#[test]
fn cache_log_counts_cold_and_warm_probes() {
    let (_, cache_log, _) = replay(2);
    let misses = cache_log.matches("cache_miss").count();
    let hits = cache_log.matches("cache_hit").count();
    assert_eq!(misses, 12, "first pass: one miss per distinct key");
    assert_eq!(hits, 12, "second pass: one hit per distinct key");
}

/// Attaching the recorder is observation, not intervention: the
/// uninstrumented run decides exactly the same admissions, plans and
/// scores, bit for bit.
#[test]
fn noop_run_is_bitwise_identical_to_instrumented_run() {
    let scenario = scenario();
    let recorder = FlightRecorder::new(16);
    let (traced, traced_world) = overload(&scenario, 4, &recorder);
    let (noop, noop_world) = overload(&scenario, 4, &NoopSink);
    assert!(!recorder.is_empty(), "instrumented run recorded events");

    assert_eq!(traced.counters, noop.counters);
    assert_eq!(traced.admission, noop.admission);
    assert_eq!(traced.outcomes, noop.outcomes);
    for i in 0..traced.outcomes.len() {
        assert_eq!(
            traced_world.satisfaction(i).to_bits(),
            noop_world.satisfaction(i).to_bits()
        );
        assert_eq!(traced_world.plan(i), noop_world.plan(i));
    }
}

/// Every span referenced by an event was opened: the log is a closed
/// causal graph, so `explain` can always re-build the tree.
#[test]
fn every_event_span_was_opened() {
    let scenario = scenario();
    let recorder = FlightRecorder::new(16);
    overload(&scenario, 4, &recorder);

    use std::collections::HashSet;
    let mut opened: HashSet<(u64, u32)> = HashSet::new();
    for event in recorder.merged() {
        if let qosc_telemetry::EventKind::SpanOpen { .. } = event.kind {
            opened.insert((event.request_id, event.span));
        } else {
            assert!(
                opened.contains(&(event.request_id, event.span)),
                "event {} references unopened span {} of request {}",
                event.kind.label(),
                event.span,
                event.request_id
            );
        }
    }
}
