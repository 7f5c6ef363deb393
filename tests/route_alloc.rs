//! Work gate for the network's route memo: a session run asks the
//! network for routes on every tick, and the network builds a
//! shortest-path tree only when a source is first queried under a new
//! routing state (topology + failure sets) — `Network::route_tree_builds`
//! counts them.
//!
//! Two runs: the strict mesh under a full chaos storm (node crashes and
//! link faults move the routing state; squeezes and lease storms must
//! not), and a fault-free brokered fat-tree (every queried source builds
//! exactly once).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qosc_bench::scorecard;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, AdaptationPlan, AdmissionConfig, Composer,
    CompositionRequest, ResilientEngineConfig, SessionEngineConfig, SessionRequest, SessionWorld,
    SlaConfig,
};
use qosc_media::FormatRegistry;
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::{Network, Node, NodeId};
use qosc_pipeline::{ChaosModel, ChaosPlan, ChaosWorld, FailureEvent, SharingPolicy};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_services::{catalog, DiscoveryConfig, QosObservation, ServiceId, TranscoderDescriptor};
use qosc_workload::arrivals::{
    session_arrivals, session_arrivals_with_mix, ArrivalPattern, DemandMix, SessionPattern,
};

/// A `SessionWorld` that forwards every method to a [`ChaosWorld`] and
/// records the loop's route-asking calls: how many, and from which plan
/// hosts.
struct RouteAskingWorld<'a> {
    inner: ChaosWorld<'a>,
    route_asking_calls: AtomicU64,
    plan_hosts: Mutex<BTreeSet<NodeId>>,
}

impl<'a> RouteAskingWorld<'a> {
    fn new(inner: ChaosWorld<'a>) -> RouteAskingWorld<'a> {
        RouteAskingWorld {
            inner,
            route_asking_calls: AtomicU64::new(0),
            plan_hosts: Mutex::new(BTreeSet::new()),
        }
    }

    fn asked(&self, plan: &AdaptationPlan) {
        self.route_asking_calls.fetch_add(1, Ordering::Relaxed);
        let mut hosts = self.plan_hosts.lock().expect("no panic under the lock");
        hosts.extend(plan.steps.iter().map(|step| step.host));
    }

    fn calls(&self) -> u64 {
        self.route_asking_calls.load(Ordering::Relaxed)
    }

    fn distinct_plan_hosts(&self) -> usize {
        self.plan_hosts
            .lock()
            .expect("no panic under the lock")
            .len()
    }
}

impl SessionWorld for RouteAskingWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        self.inner.composer()
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        self.inner.plan_alive(plan)
    }

    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        self.asked(plan);
        self.inner.plan_routable(plan)
    }

    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
        self.asked(plan);
        self.inner.delivery_ppm(plan, demand_bps)
    }

    fn observe_service(&self, service: ServiceId) -> Option<QosObservation> {
        self.inner.observe_service(service)
    }

    fn observed_latency_us(&self, plan: &AdaptationPlan) -> u64 {
        self.inner.observed_latency_us(plan)
    }

    fn probate_service(&mut self, service: ServiceId, observed_ppm: u64, now_us: u64) -> bool {
        self.inner.probate_service(service, observed_ppm, now_us)
    }

    fn probe_service(&mut self, service: ServiceId, now_us: u64) -> bool {
        self.inner.probe_service(service, now_us)
    }

    fn report_service_failure(&mut self, service: ServiceId, now_us: u64) {
        self.inner.report_service_failure(service, now_us)
    }

    fn world_event_times(&self) -> &[u64] {
        self.inner.world_event_times()
    }

    fn apply_world_event(&mut self, index: usize) {
        self.inner.apply_world_event(index)
    }

    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        demand_bps: u64,
        weight: u32,
    ) {
        self.inner
            .register_session_flow(session, plan, demand_bps, weight)
    }

    fn deregister_session_flow(&mut self, session: u64) {
        self.inner.deregister_session_flow(session)
    }

    fn grant_epoch(&self) -> u64 {
        self.inner.grant_epoch()
    }

    /// The loop's per-tick delivery sample; `ChaosWorld` answers it
    /// through its own `delivery_ppm` / `plan_routable`.
    fn session_delivery_ppm(
        &self,
        session: u64,
        plan_gen: u32,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> u64 {
        self.asked(plan);
        self.inner
            .session_delivery_ppm(session, plan_gen, plan, demand_bps)
    }
}

fn engine_config(horizon_us: u64, storm: bool) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers: 1,
            ..ResilientEngineConfig::default()
        },
        admission: storm.then(|| AdmissionConfig {
            virtual_cores: 64,
            initial_limit: 64,
            max_limit: 128,
            ..AdmissionConfig::protected()
        }),
        tick_us: if storm { 250_000 } else { 500_000 },
        max_recompositions: 8,
        horizon_us: Some(horizon_us),
        session_spans: storm,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: storm.then(SlaConfig::default),
    }
}

/// `sessions_chaos` in small: the strict mesh, a full-intensity storm,
/// 128 concurrent sessions, BOLA, the SLA watchdog and admission on.
#[test]
fn a_chaos_run_builds_trees_per_routing_state_not_per_tick() {
    let scenario = scorecard::strict_scenario();
    let topology = scenario.network.topology();
    let nodes = topology.node_count() as u64;
    let backbone = topology
        .node_by_name("backbone")
        .expect("generated meshes have a backbone");
    let model = ChaosModel {
        protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
        flap_rate_per_min: 0.0,
        ..ChaosModel::default()
    };
    let plan = ChaosPlan::generate(topology, scenario.services.live_count(), &model, 1, 1.0);
    // Every fault that can move the routing state; a repeated crash or
    // restoration moves nothing, so this is an upper bound.
    let routing_changes = plan
        .schedule()
        .events()
        .iter()
        .filter(|(_, event)| {
            !matches!(
                event,
                FailureEvent::Squeeze { .. } | FailureEvent::Unsqueeze(_)
            )
        })
        .count() as u64;
    assert!(routing_changes > 0, "the storm crashes nodes");
    assert!(plan.summary().squeezes > 0 && plan.summary().lease_storms > 0);

    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: 25_000_000,
            rate_per_sec: 128,
            ..ArrivalPattern::default()
        },
        hold_range_us: (500_000, 1_500_000),
        demand_range_bps: (0, 0),
    };
    let requests = scorecard::session_requests(&scenario, session_arrivals(&pattern, 42));
    let mut inner = scorecard::chaos_world(&scenario.formats, &scenario.services, scenario.network);
    inner.load_plan(&plan);
    let mut world = RouteAskingWorld::new(inner);
    let report = run_sessions(
        &mut world,
        &requests,
        &engine_config(30_000_000, true),
        &qosc_telemetry::NoopSink,
    );
    assert!(
        report.outcomes.iter().any(|o| o.recompositions > 0),
        "the storm broke plans"
    );

    let builds = world.inner.network().route_tree_builds();
    let plan_hosts = world.distinct_plan_hosts() as u64;
    println!(
        "chaos: {builds} trees, {} route-asking calls, {routing_changes} routing faults, \
         {plan_hosts} plan hosts, {nodes} nodes",
        world.calls()
    );
    // Composes annotate edges from every host that runs a service, so
    // the sources are the topology's nodes, not the plans' hosts alone.
    assert!(builds <= (routing_changes + 1) * nodes);
    assert!(
        builds * 100 < world.calls(),
        "{builds} trees for {} route-asking calls",
        world.calls()
    );
    assert_eq!(builds, CHAOS_TREES, "the run is deterministic");
}

/// What the chaos run above builds: 8 routing faults, 18 nodes, 34 655
/// route-asking calls.
const CHAOS_TREES: u64 = 62;

/// `sessions_shared` in small: a k = 4 fat-tree, one sender, receivers
/// in the other pods, the catalog on a proxy, weighted max-min sharing,
/// no faults — one routing state for the whole run.
#[test]
fn a_fault_free_brokered_run_builds_each_queried_source_once() {
    const SESSIONS: u64 = 120;
    let formats = FormatRegistry::with_builtins();
    let access_bps = (SESSIONS * 1_100_000) as f64;
    let (mut topology, hosts, _cores) = fat_tree(
        4,
        LinkTemplate::fixed(access_bps, 500),
        LinkTemplate::fixed(access_bps * 4.0, 1_000),
        19,
    );
    let proxy = topology.add_node(Node::unconstrained("proxy"));
    let edge = topology
        .neighbors(hosts[0])
        .first()
        .expect("a fat-tree host has its edge switch")
        .0;
    topology
        .connect_simple(proxy, edge, access_bps * 400.0)
        .expect("proxy uplink");
    let nodes = topology.node_count() as u64;
    let (sender, receivers) = (hosts[0], &hosts[4..]);
    let mut inner = ChaosWorld::new(&formats, Network::new(topology), DiscoveryConfig::default());
    for spec in catalog::full_catalog() {
        inner
            .join(TranscoderDescriptor::resolve(&spec, &formats, proxy).expect("catalog resolves"));
    }
    inner.set_sharing(Some(SharingPolicy::WeightedMaxMin));

    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: 4_000_000,
            rate_per_sec: SESSIONS / 4,
            burst_period_us: 0,
            ..ArrivalPattern::default()
        },
        hold_range_us: (8_000_000, 12_000_000),
        demand_range_bps: (0, 0),
    };
    let mix = DemandMix {
        interactive_bps: (1_500_000, 3_000_000),
        standard_bps: (400_000, 800_000),
        background_bps: (0, 0),
    };
    let profiles = ProfileSet {
        user: UserProfile::demo("user-0"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    };
    let requests: Vec<SessionRequest> = session_arrivals_with_mix(&pattern, &mix, 42)
        .into_iter()
        .enumerate()
        .map(|(i, sa)| SessionRequest {
            request: CompositionRequest {
                profiles: profiles.clone(),
                sender_host: sender,
                receiver_host: receivers[i % receivers.len()],
            },
            arrival: sa.meta,
            hold_us: sa.hold_us,
            demand_bps: sa.demand_bps,
        })
        .collect();
    let mut world = RouteAskingWorld::new(inner);
    let report = run_sessions(
        &mut world,
        &requests,
        &engine_config(16_000_000, false),
        &qosc_telemetry::NoopSink,
    );
    assert!(
        report.outcomes.iter().any(|o| o.grant_updates > 0),
        "the flows contend"
    );

    let builds = world.inner.network().route_tree_builds();
    println!(
        "shared: {builds} trees, {} route-asking calls, {} plan hosts, {nodes} nodes",
        world.calls(),
        world.distinct_plan_hosts()
    );
    // The sources: the sender and the proxy (every plan's two hops, and
    // the only hosts a compose annotates edges from).
    assert_eq!(world.distinct_plan_hosts(), 2 + receivers.len());
    assert_eq!(builds, 2, "sender and proxy, once each");
    assert!(world.calls() > 1_000 * builds);
}
