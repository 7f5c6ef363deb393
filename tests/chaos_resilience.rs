//! Chaos-harness integration: the full loop from deterministic fault
//! generation through one session on the serving loop, the degradation
//! ladder, and the service quarantine — the workspace-level
//! counterparts of the `chaos.rs` / `session_world.rs` / `registry.rs`
//! unit tests.

use qosc_bench::scorecard::{one_session, sessions_digest, strict_scenario};
use qosc_core::{
    run_sessions, Composer, DegradationRung, SelectOptions, SessionsReport, ShardedCompositionCache,
};
use qosc_media::Axis;
use qosc_netsim::SimTime;
use qosc_pipeline::{ChaosModel, ChaosPlan};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::QuarantineConfig;
use qosc_telemetry::NoopSink;
use qosc_workload::Scenario;

fn chaos_plan(scenario: &Scenario, chaos_seed: u64, intensity: f64) -> ChaosPlan {
    let topology = scenario.network.topology();
    let backbone = topology.node_by_name("backbone").unwrap();
    let model = ChaosModel {
        protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
        ..ChaosModel::default()
    };
    ChaosPlan::generate(topology, 0, &model, chaos_seed, intensity)
}

/// One 30 s strict-mesh session under the chaos plan's faults,
/// re-composing down the degradation ladder when `ladder`.
fn chaos_run(chaos_seed: u64, intensity: f64, ladder: bool) -> SessionsReport {
    let scenario = strict_scenario();
    let plan = chaos_plan(&scenario, chaos_seed, intensity);
    let (mut world, request, mut config) = one_session(&scenario, plan.schedule());
    config.resilient.ladder = ladder;
    run_sessions(&mut world, &[request], &config, &NoopSink)
}

/// Share of the run with a live plan.
fn availability(report: &SessionsReport) -> f64 {
    report.outcomes[0].lit_us as f64 / report.end_us as f64
}

#[test]
fn identical_seeds_reproduce_the_run_and_a_new_chaos_seed_changes_the_faults() {
    let a = chaos_run(101, 0.75, true);
    let b = chaos_run(101, 0.75, true);
    assert_eq!(sessions_digest(&a), sessions_digest(&b));
    assert_eq!(a.outcomes, b.outcomes);

    let scenario = strict_scenario();
    let p1 = chaos_plan(&scenario, 101, 0.75);
    let p2 = chaos_plan(&scenario, 102, 0.75);
    assert_ne!(
        p1.schedule().events(),
        p2.schedule().events(),
        "a different chaos seed draws a different fault sequence"
    );
}

#[test]
fn degradation_ladder_dominates_recompose_only_availability() {
    let seeds = [101u64, 202, 303];
    for &intensity in &[0.25f64, 1.0] {
        let recompose: f64 = seeds
            .iter()
            .map(|&s| availability(&chaos_run(s, intensity, false)))
            .sum::<f64>()
            / seeds.len() as f64;
        let ladder: f64 = seeds
            .iter()
            .map(|&s| availability(&chaos_run(s, intensity, true)))
            .sum::<f64>()
            / seeds.len() as f64;
        assert!(
            ladder >= recompose,
            "intensity {intensity}: ladder {ladder:.3} < recompose {recompose:.3}"
        );
        if intensity == 1.0 {
            assert!(
                ladder > recompose,
                "at the highest intensity the ladder must win outright \
                 (ladder {ladder:.3}, recompose {recompose:.3})"
            );
        }
    }
}

#[test]
fn ladder_runs_report_the_serving_rung() {
    // At full intensity the ladder serves part of the run degraded; the
    // outcome says which rungs carried it and for how long.
    let run = chaos_run(202, 1.0, true);
    let outcome = &run.outcomes[0];
    assert!(
        outcome.rung_us[1..].iter().sum::<u64>() > 0,
        "chaos seed 202 at intensity 1.0 pushes the stream below the floor"
    );
    assert!(outcome
        .rung_history
        .iter()
        .any(|&(_, rung)| rung > DegradationRung::Full));
    // Every re-composition happens at a fault instant, off the 250 ms
    // tick grid too, and the ladder always finds a rung there.
    let faults = chaos_plan(&strict_scenario(), 202, 1.0);
    let fault_us: Vec<u64> = faults
        .schedule()
        .events()
        .iter()
        .map(|&(t, _)| t.as_micros())
        .collect();
    assert!(
        outcome.rung_history[1..]
            .iter()
            .all(|(t, _)| fault_us.contains(t)),
        "{:?}",
        outcome.rung_history
    );
    assert_eq!(outcome.dark_us, 0);
    // Degraded time is lit time, and the degraded stream is exactly what
    // the recompose-only run loses: same seed without the ladder has
    // strictly less lit time.
    assert_eq!(outcome.rung_us.iter().sum::<u64>(), outcome.lit_us);
    let strict = chaos_run(202, 1.0, false);
    assert!(availability(&run) > availability(&strict));
}

#[test]
fn quarantine_reroutes_composition_and_lifts_after_cooldown() {
    // Two parallel proxies; the better one gets quarantined after
    // repeated failure reports, composition falls back to the other,
    // and the breaker re-admits the service after its cool-down.
    use qosc_media::{AxisDomain, DomainVector, FormatRegistry, MediaKind, VariantSpec};
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, ConversionSpec, DeviceProfile, HardwareCaps,
        NetworkProfile, ProfileSet, ServiceSpec, UserProfile,
    };
    use qosc_services::{ServiceRegistry, TranscoderDescriptor};

    let mut formats = FormatRegistry::new();
    let linear = qosc_media::BitrateModel::LinearOnAxis {
        axis: Axis::FrameRate,
        slope: 1000.0,
    };
    formats.register(qosc_media::FormatSpec::new("A", MediaKind::Video, linear));
    formats.register(qosc_media::FormatSpec::new("B", MediaKind::Video, linear));

    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let fast = topo.add_node(Node::unconstrained("fast-proxy"));
    let slow = topo.add_node(Node::unconstrained("slow-proxy"));
    let client = topo.add_node(Node::unconstrained("client"));
    topo.connect_simple(server, fast, 100e6).unwrap();
    topo.connect_simple(fast, client, 30_000.0).unwrap();
    topo.connect_simple(server, slow, 100e6).unwrap();
    topo.connect_simple(slow, client, 18_000.0).unwrap();
    let network = Network::new(topo);

    let domain = DomainVector::new().with(
        Axis::FrameRate,
        AxisDomain::Continuous {
            min: 0.0,
            max: 30.0,
        },
    );
    let mut services = ServiceRegistry::new();
    services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 3,
        cooldown_us: 5_000_000,
    });
    let t_fast = services.register_static(
        TranscoderDescriptor::resolve(
            &ServiceSpec::new(
                "T-fast",
                vec![ConversionSpec::new("A", "B", domain.clone())],
            ),
            &formats,
            fast,
        )
        .unwrap(),
    );
    services.register_static(
        TranscoderDescriptor::resolve(
            &ServiceSpec::new(
                "T-slow",
                vec![ConversionSpec::new("A", "B", domain.clone())],
            ),
            &formats,
            slow,
        )
        .unwrap(),
    );

    let profiles = ProfileSet {
        user: UserProfile::new(
            "viewer",
            SatisfactionProfile::new().with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            )),
        ),
        content: ContentProfile::new(
            "clip",
            vec![VariantSpec {
                format: "A".to_string(),
                offered: domain.clone(),
            }],
        ),
        device: DeviceProfile::new("dev", vec!["B".to_string()], HardwareCaps::desktop()),
        context: ContextProfile::default(),
        network: NetworkProfile::lan(),
    };
    let options = SelectOptions::default();
    let cache = ShardedCompositionCache::default();

    let chain_of = |services: &ServiceRegistry| -> Vec<String> {
        let composer = Composer {
            formats: &formats,
            services,
            network: &network,
        };
        cache
            .compose(&composer, &profiles, server, client, &options)
            .unwrap()
            .map(|plan| plan.steps.iter().map(|s| s.name.clone()).collect())
            .unwrap_or_default()
    };

    // Healthy: the 30 kbit/s fast proxy wins.
    assert!(chain_of(&services).contains(&"T-fast".to_string()));

    // Three failure reports open the breaker; the cached plan fails
    // revalidation (its service is no longer available) and the next
    // composition routes around the quarantined proxy.
    let now = SimTime::from_secs(10);
    for _ in 0..2 {
        assert!(!services.report_failure(t_fast, now).unwrap());
    }
    assert!(services.report_failure(t_fast, now).unwrap());
    assert!(services.is_quarantined(t_fast));
    assert!(chain_of(&services).contains(&"T-slow".to_string()));

    // Cool-down elapses: the breaker re-admits the service. The cached
    // T-slow plan is *valid* (its own service never left), so the cache
    // correctly keeps serving it — but a fresh composition sees the
    // reinstated fast proxy again.
    let released = services.release_quarantines(SimTime::from_secs(16));
    assert_eq!(released, vec![t_fast]);
    assert!(chain_of(&services).contains(&"T-slow".to_string()));
    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let fresh = composer
        .compose(&profiles, server, client, &options)
        .unwrap()
        .plan
        .unwrap();
    assert!(fresh.steps.iter().any(|s| s.name == "T-fast"));
}
