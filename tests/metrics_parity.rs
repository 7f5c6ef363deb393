//! Metrics parity: the unified registry is a *view* over the engine's
//! legacy counters, not a second source of truth — registry totals
//! equal `CacheStats` / `BatchCounters` exactly, the batch counters
//! partition the batch, and the per-shard occupancy gauges stay
//! consistent under concurrent churn.

use qosc_core::{
    serve_batch, serve_batch_with_admission, AdmissionConfig, CompositionRequest, EngineConfig,
    ResilientEngineConfig, ShardedCompositionCache,
};
use qosc_telemetry::MetricsRegistry;
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

const TOPOLOGY_SEED: u64 = 5;

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

fn keyed_requests(scenario: &Scenario, n: usize) -> Vec<CompositionRequest> {
    (0..n)
        .map(|i| {
            let mut profiles = scenario.profiles.clone();
            profiles.user.name = format!("viewer-{i}");
            CompositionRequest {
                profiles,
                sender_host: scenario.sender_host,
                receiver_host: scenario.receiver_host,
            }
        })
        .collect()
}

/// `qosc_batch_*_total` counters mirror `BatchCounters` field for
/// field, and the fields partition the batch.
#[test]
fn batch_counter_registry_totals_equal_legacy_counters() {
    let scenario = scenario();
    let composer = scenario.composer();
    let arrivals = poisson_burst_arrivals(
        &ArrivalPattern {
            horizon_us: 300_000,
            rate_per_sec: 660,
            ..ArrivalPattern::default()
        },
        42,
    );
    let requests: Vec<CompositionRequest> = arrivals
        .iter()
        .map(|_| CompositionRequest {
            profiles: scenario.profiles.clone(),
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
        })
        .collect();
    let result = serve_batch_with_admission(
        &composer,
        &requests,
        &arrivals,
        &ResilientEngineConfig {
            workers: 4,
            admission: AdmissionConfig {
                virtual_cores: 4,
                initial_limit: 4,
                max_limit: 8,
                ..AdmissionConfig::protected()
            },
            ..ResilientEngineConfig::default()
        },
    );
    let counters = result.batch.counters();

    let registry = MetricsRegistry::new();
    counters.record_metrics(&registry);
    for (name, legacy) in [
        ("qosc_batch_served_total", counters.served),
        ("qosc_batch_degraded_total", counters.degraded),
        ("qosc_batch_failed_total", counters.failed),
        ("qosc_batch_shed_total", counters.shed),
    ] {
        assert_eq!(
            registry.counter_value(name),
            Some(legacy as u64),
            "{name} diverged from the legacy counter"
        );
    }
    assert_eq!(
        counters.served + counters.degraded + counters.failed + counters.shed,
        requests.len(),
        "the four counters partition the batch"
    );
}

/// `qosc_cache_*_total` counters mirror `CacheStats`, and
/// `hits + misses + stale` accounts for every probe.
#[test]
fn cache_stats_registry_totals_equal_legacy_counters() {
    let scenario = scenario();
    let composer = scenario.composer();
    let cache = ShardedCompositionCache::new(8);
    let requests = keyed_requests(&scenario, 12);
    let config = EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    };
    serve_batch(&composer, &cache, &requests, &config);
    serve_batch(&composer, &cache, &requests, &config);
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses + stats.stale,
        2 * requests.len(),
        "every probe lands in exactly one bucket"
    );

    let registry = MetricsRegistry::new();
    stats.record_metrics(&registry);
    assert_eq!(
        registry.counter_value("qosc_cache_hits_total"),
        Some(stats.hits as u64)
    );
    assert_eq!(
        registry.counter_value("qosc_cache_misses_total"),
        Some(stats.misses as u64)
    );
    assert_eq!(
        registry.counter_value("qosc_cache_stale_total"),
        Some(stats.stale as u64)
    );
}

/// Per-shard occupancy: `shard_len` sums to the entry count, the gauge
/// export mirrors it, and reading occupancy mid-churn (8 composing
/// threads) never deadlocks or tears below zero.
#[test]
fn shard_occupancy_gauges_stay_consistent_under_churn() {
    let scenario = scenario();
    let composer = scenario.composer();
    let cache = ShardedCompositionCache::new(8);
    let options = qosc_core::SelectOptions::default();

    std::thread::scope(|scope| {
        for thread in 0..8usize {
            let cache = &cache;
            let composer = &composer;
            let scenario = &scenario;
            let options = &options;
            scope.spawn(move || {
                for i in 0..6 {
                    let mut profiles = scenario.profiles.clone();
                    profiles.user.name = format!("churn-{thread}-{i}");
                    cache
                        .compose(
                            composer,
                            &profiles,
                            scenario.sender_host,
                            scenario.receiver_host,
                            options,
                        )
                        .expect("compose succeeds");
                }
            });
        }
        // Reader thread: export gauges while writers churn. Each
        // export locks one shard at a time, so this must make
        // progress, and every observed occupancy is a valid
        // intermediate state (bounded by the final total).
        let cache = &cache;
        scope.spawn(move || {
            for _ in 0..50 {
                let registry = MetricsRegistry::new();
                cache.export_gauges(&registry);
                let total = registry.gauge_value("qosc_cache_entries").unwrap_or(0);
                assert!((0..=48).contains(&total), "torn total {total}");
                let per_shard: i64 = (0..8)
                    .map(|i| {
                        registry
                            .gauge_value(&format!("qosc_cache_shard_entries{{shard=\"{i}\"}}"))
                            .unwrap_or(0)
                    })
                    .sum();
                assert!(
                    (0..=48).contains(&per_shard),
                    "torn per-shard sum {per_shard}"
                );
                std::thread::yield_now();
            }
        });
    });

    // Settled state: accessors, gauge export and stats all agree.
    let lens = cache.shard_lens();
    assert_eq!(lens.len(), 8);
    assert_eq!(lens.iter().sum::<usize>(), cache.len());
    for (index, &len) in lens.iter().enumerate() {
        assert_eq!(cache.shard_len(index), len);
    }
    let registry = MetricsRegistry::new();
    cache.export_gauges(&registry);
    assert_eq!(
        registry.gauge_value("qosc_cache_entries"),
        Some(cache.len() as i64)
    );
    let per_shard: i64 = (0..8)
        .map(|i| {
            registry
                .gauge_value(&format!("qosc_cache_shard_entries{{shard=\"{i}\"}}"))
                .unwrap()
        })
        .sum();
    assert_eq!(per_shard, cache.len() as i64);
    // 48 distinct keys (solvable or not, a solvable mesh stores all).
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses + stats.stale, 48);
}

/// Per-kind event counters exported from the recorder equal the
/// recorder's own counts, and their sum equals the log length.
#[test]
fn event_counters_partition_the_log() {
    use qosc_core::serve_batch_traced;
    use qosc_telemetry::FlightRecorder;

    let scenario = scenario();
    let composer = scenario.composer();
    let cache = ShardedCompositionCache::new(8);
    let requests = keyed_requests(&scenario, 12);
    let recorder = FlightRecorder::new(16);
    let config = EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    };
    serve_batch_traced(&composer, &cache, &requests, &config, &recorder);

    let registry = MetricsRegistry::new();
    recorder.export_metrics(&registry);
    let counts = recorder.event_counts();
    let mut total = 0;
    for (label, count) in &counts {
        assert_eq!(
            registry.counter_value(&format!("qosc_events_total{{kind=\"{label}\"}}")),
            Some(*count),
            "exported counter for {label} diverged"
        );
        total += count;
    }
    assert_eq!(total as usize, recorder.len(), "counters partition the log");
}

/// The buffer-era events join the same accounting: a BOLA run under a
/// squeeze emits `rebuffered` and `rung_switch` events into the
/// flight-recorder log, and the per-kind counters still partition it
/// exactly.
#[test]
fn session_event_counters_partition_the_log_with_abr_events() {
    use qosc_core::{
        run_sessions, AbrConfig, AbrMode, ArrivalMeta, PriorityClass, SessionEngineConfig,
        SessionRequest,
    };
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Network, Node, Topology};
    use qosc_pipeline::{ChaosWorld, FailureEvent};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
    };
    use qosc_services::{catalog, DiscoveryConfig, TranscoderDescriptor};
    use qosc_telemetry::FlightRecorder;

    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let client = topo.add_node(Node::unconstrained("client"));
    topo.connect_simple(server, proxy, 100e6).unwrap();
    let last_hop = topo.connect_simple(proxy, client, 1e6).unwrap();
    let mut world = ChaosWorld::new(&formats, Network::new(topo), DiscoveryConfig::default());
    for spec in catalog::full_catalog() {
        world.join(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
    }
    // A long hard squeeze: BOLA down-switches (rung_switch) and, while
    // the dwell window delays it, stalls at least once (rebuffered).
    world.schedule_fault(
        1_000_000,
        FailureEvent::Squeeze {
            link: last_hop,
            permille: 990,
        },
    );
    world.schedule_fault(11_000_000, FailureEvent::Unsqueeze(last_hop));

    let profiles = ProfileSet {
        user: UserProfile::demo("user"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    };
    let requests: Vec<SessionRequest> = (0..3)
        .map(|_| SessionRequest {
            request: qosc_core::CompositionRequest {
                profiles: profiles.clone(),
                sender_host: server,
                receiver_host: client,
            },
            arrival: ArrivalMeta {
                arrival_us: 0,
                priority: PriorityClass::Standard,
                service_cost_us: 1_000,
                deadline_budget_us: None,
            },
            hold_us: 13_000_000,
            demand_bps: 0,
        })
        .collect();
    let config = SessionEngineConfig {
        admission: None,
        tick_us: 250_000,
        max_recompositions: 8,
        session_spans: true,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        ..SessionEngineConfig::default()
    };
    let recorder = FlightRecorder::new(16);
    let report = run_sessions(&mut world, &requests, &config, &recorder);
    assert!(report.switches() > 0, "the squeeze must force switches");

    let counts = recorder.event_counts();
    let by_kind = |label: &str| counts.get(label).copied().unwrap_or(0);
    assert_eq!(
        by_kind("rung_switch"),
        report.switches(),
        "one rung_switch event per committed switch"
    );
    assert_eq!(
        by_kind("rebuffered"),
        report
            .outcomes
            .iter()
            .map(|o| o.rebuffer_events as u64)
            .sum::<u64>(),
        "one rebuffered event per stall entry"
    );

    let registry = MetricsRegistry::new();
    recorder.export_metrics(&registry);
    let mut total = 0;
    for (label, count) in &counts {
        assert_eq!(
            registry.counter_value(&format!("qosc_events_total{{kind=\"{label}\"}}")),
            Some(*count),
            "exported counter for {label} diverged"
        );
        total += count;
    }
    assert_eq!(total as usize, recorder.len(), "counters partition the log");
}
