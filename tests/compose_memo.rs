//! Work gate for the session loop's compose memo: one
//! `benchmark/`-shaped `sessions_chaos` unit (the X16 strict mesh under
//! a full storm, 256 concurrent sessions, BOLA, the SLA watchdog and
//! admission on) runs the Figure-4 kernel once per distinct input it
//! composes — (degraded profiles, network version, registry selection
//! view) — not once per composition attempt, nor once per distinct
//! (request, rung, world stamp), and hashes its requests once per run,
//! not once per attempt.
//!
//! The kernel, hash and graph-fetch counts are the process-wide
//! `arena_reuse_total()`, `request_hashes_total()` and
//! `graph_fetch_totals()` deltas, so this binary holds a single
//! `#[test]`: no other selection or hash may land in the counters while
//! it runs.

use std::collections::BTreeSet;
use std::sync::Mutex;

use qosc_bench::scorecard;
use qosc_core::{
    arena_reuse_total, degrade_profiles, graph_fetch_totals, request_hashes_total, run_sessions,
    AbrConfig, AbrMode, AdaptationPlan, AdmissionConfig, Composer, CompositionRequest,
    DegradationRung, ResilientEngineConfig, SelectOptions, SessionEngineConfig, SessionWorld,
    SlaConfig, WorldStamp,
};
use qosc_netsim::SimTime;
use qosc_pipeline::{ChaosModel, ChaosPlan, ChaosWorld};
use qosc_profiles::ProfileSet;
use qosc_services::{QosObservation, ServiceId};
use qosc_telemetry::{Event, EventKind, TelemetrySink};
use qosc_workload::arrivals::{session_arrivals, ArrivalPattern, SessionPattern};

/// What a compose reads of the world besides its request: the network
/// version, and an owned copy of the registry's selection view
/// (membership count, quarantined ids, probation penalties).
type Content = (u64, u64, Vec<ServiceId>, Vec<(ServiceId, u64)>);

/// A `SessionWorld` that forwards every method to a [`ChaosWorld`] and
/// publishes the stamp and the content of each composer it hands out.
/// The loop asks for one composer per virtual instant with jobs, and the
/// world cannot move while that instant's jobs compose.
struct StampingWorld<'a> {
    inner: ChaosWorld<'a>,
    world: &'a Mutex<(WorldStamp, Content)>,
}

impl SessionWorld for StampingWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        let composer = self.inner.composer();
        let view = composer.services.selection_view();
        *self.world.lock().expect("no panic under the lock") = (
            WorldStamp::of(composer.services, composer.network),
            (
                composer.network.version(),
                view.membership,
                view.quarantined.to_vec(),
                view.penalties.to_vec(),
            ),
        );
        composer
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        self.inner.plan_alive(plan)
    }

    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        self.inner.plan_routable(plan)
    }

    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
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

    fn session_delivery_ppm(
        &self,
        session: u64,
        plan_gen: u32,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> u64 {
        self.inner
            .session_delivery_ppm(session, plan_gen, plan, demand_bps)
    }
}

/// Collects, for every `composition_started` event, the (distinct
/// request, rung, stamp) it names, and the distinct input it composes:
/// its degraded profiles with the world's content. Deduplicated, these
/// are what a memo-less loop would have run the kernel on, and what a
/// memo that shares answers across rungs and returning worlds runs it
/// on. Every other event is dropped.
struct TripleSink<'a> {
    /// Session index → index of its request among the distinct ones.
    request_of: &'a [usize],
    /// Distinct request, then rung → index of its degraded profiles
    /// among the distinct ones.
    degraded_of: &'a [Vec<usize>],
    world: &'a Mutex<(WorldStamp, Content)>,
    triples: Mutex<BTreeSet<(usize, &'static str, WorldStamp)>>,
    inputs: Mutex<BTreeSet<(usize, Content)>>,
}

impl TelemetrySink for TripleSink<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        if let EventKind::CompositionStarted { rung } = event.kind {
            let request = self.request_of[event.request_id as usize];
            let position = DegradationRung::LADDER
                .iter()
                .position(|r| r.label() == rung)
                .expect("a ladder rung");
            let (stamp, content) = self.world.lock().expect("no panic under the lock").clone();
            self.triples
                .lock()
                .expect("no panic under the lock")
                .insert((request, rung, stamp));
            self.inputs
                .lock()
                .expect("no panic under the lock")
                .insert((self.degraded_of[request][position], content));
        }
    }
}

#[test]
fn a_chaos_unit_runs_the_kernel_once_per_distinct_input() {
    // `benchmark/`'s `sessions_chaos` unit 0 at `--seed 1`: storm plan 1,
    // arrival seed 1 000.
    let scenario = scorecard::strict_scenario();
    // Warm this thread's selection arena: from here on every kernel run
    // counts as a reuse.
    scenario
        .compose(&SelectOptions::default())
        .expect("the mesh composes");
    let topology = scenario.network.topology();
    let backbone = topology
        .node_by_name("backbone")
        .expect("generated meshes have a backbone");
    let model = ChaosModel {
        total_duration: SimTime::from_secs(30),
        flap_rate_per_min: 0.0,
        protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
        ..ChaosModel::default()
    };
    let plan = ChaosPlan::generate(topology, scenario.services.live_count(), &model, 1, 1.0);
    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: 25_000_000,
            rate_per_sec: 256,
            ..ArrivalPattern::default()
        },
        hold_range_us: (500_000, 1_500_000),
        demand_range_bps: (0, 0),
    };
    let requests = scorecard::session_requests(&scenario, session_arrivals(&pattern, 1_000));
    let config = SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers: 1,
            ..ResilientEngineConfig::default()
        },
        admission: Some(AdmissionConfig {
            virtual_cores: 512,
            initial_limit: 512,
            max_limit: 1024,
            ..AdmissionConfig::protected()
        }),
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(30_000_000),
        session_spans: true,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: Some(SlaConfig::default()),
    };

    let mut distinct: Vec<&CompositionRequest> = Vec::new();
    let request_of: Vec<usize> = requests
        .iter()
        .map(|r| match distinct.iter().position(|d| **d == r.request) {
            Some(index) => index,
            None => {
                distinct.push(&r.request);
                distinct.len() - 1
            }
        })
        .collect();

    let mut degraded: Vec<ProfileSet> = Vec::new();
    let degraded_of: Vec<Vec<usize>> = distinct
        .iter()
        .map(|request| {
            DegradationRung::LADDER
                .iter()
                .map(|&rung| {
                    let profiles = degrade_profiles(&request.profiles, rung);
                    match degraded.iter().position(|d| *d == profiles) {
                        Some(index) => index,
                        None => {
                            degraded.push(profiles);
                            degraded.len() - 1
                        }
                    }
                })
                .collect()
        })
        .collect();

    let world = Mutex::new((
        WorldStamp::of(&scenario.services, &scenario.network),
        Content::default(),
    ));
    let sink = TripleSink {
        request_of: &request_of,
        degraded_of: &degraded_of,
        world: &world,
        triples: Mutex::new(BTreeSet::new()),
        inputs: Mutex::new(BTreeSet::new()),
    };
    let mut inner = scorecard::chaos_world(&scenario.formats, &scenario.services, scenario.network);
    inner.load_plan(&plan);
    let mut world = StampingWorld {
        inner,
        world: &world,
    };

    let kernel_before = arena_reuse_total();
    let hashes_before = request_hashes_total();
    let graphs_before = graph_fetch_totals();
    let report = run_sessions(&mut world, &requests, &config, &sink);
    let kernel_runs = arena_reuse_total() - kernel_before;
    let hashes = request_hashes_total() - hashes_before;
    let graphs = graph_fetch_totals();
    let (rebuilds, reuses) = (
        graphs.rebuilds - graphs_before.rebuilds,
        graphs.reuses - graphs_before.reuses,
    );
    println!("graph store of the run's memo: {rebuilds} rebuilds, {reuses} reuses");

    let attempts: u64 = report.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
    let triples = sink.triples.lock().expect("no panic under the lock").len() as u64;
    let inputs = sink.inputs.lock().expect("no panic under the lock").len() as u64;
    println!(
        "{} sessions, {} distinct requests, {attempts} compose attempts, \
         {triples} distinct (request, rung, stamp), {inputs} distinct (degraded profiles, \
         world content), {kernel_runs} kernel runs, {hashes} request hashes",
        requests.len(),
        distinct.len()
    );
    assert!(
        report.outcomes.iter().any(|o| o.recompositions > 0),
        "the storm broke plans"
    );
    assert_eq!(
        attempts, COMPOSE_ATTEMPTS,
        "the memo must not change what the loop asks for"
    );
    assert_eq!(kernel_runs, inputs, "one kernel run per distinct input");
    assert!(inputs <= triples, "an input is never split by its stamp");
    assert_eq!(kernel_runs, KERNEL_RUNS, "the run is deterministic");
    assert_eq!(hashes, REQUEST_HASHES, "requests are interned once per run");
    assert_eq!(
        rebuilds + reuses,
        kernel_runs,
        "each kernel run fetches one graph"
    );
    assert_eq!(
        (rebuilds, reuses),
        GRAPH_FETCHES,
        "the run's graph store is deterministic"
    );
}

/// What the unit asks for: 7 589 sessions, one distinct request. The
/// loop before the memo made the same 7 832 composition attempts and
/// ran the kernel on every one of them.
const COMPOSE_ATTEMPTS: u64 = 7_832;
/// What the unit runs: its 14 distinct (degraded profiles, world
/// content) inputs. A memo with one answer per (request, rung, world
/// stamp) ran 15, one per distinct triple: two rungs or two stamps that
/// read the same input each ran the kernel.
const KERNEL_RUNS: u64 = 14;
/// What the unit hashes: its one distinct request, once. Each session's
/// request equals the one before it, so interning compares and does not
/// hash; no attempt hashes. Before interning every attempt hashed: 7 832.
const REQUEST_HASHES: u64 = 1;
/// How the memo's graph store answers those 14 kernel runs: 13 builds
/// and 1 reuse, where two inputs met at one world content read the same
/// graph. The graph fetch totals are process-wide too.
const GRAPH_FETCHES: (u64, u64) = (13, 1);
