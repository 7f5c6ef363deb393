//! The two session workloads.
//!
//! * `sessions_chaos` — the X16 strict mesh in a [`ChaosWorld`] under a
//!   storm of node crashes, bandwidth squeezes and lease-expiry storms,
//!   256 concurrent sessions, BOLA and the SLA watchdog on, protected
//!   admission. The serving loop itself: event loop, admission, world
//!   events, liveness checks, re-composition waves.
//! * `sessions_shared` — the X19 fat-tree at 1 000 offered sessions
//!   under weighted max-min sharing: the same loop, but every arrival
//!   and departure re-runs the broker's water-filling and the delivery
//!   memo is refreshed for every flow.
//!
//! A run is a fixed number of *units*; each unit builds a fresh world
//! and calls `run_sessions` once (closed loop, `workers = 1`). The
//! traced pass serves the same units through [`TimedWorld`], which
//! delegates every [`SessionWorld`] method to the [`ChaosWorld`] and
//! accumulates per-method time and call counts.

use crate::report::{Digest, Layers, Pass, Segment};
use crate::stats::Samples;
use crate::Scale;
use qosc_broker::BandwidthBroker;
use qosc_core::{
    arena_reuse_total, plan_admission, run_sessions, AbrConfig, AbrMode, AdaptationPlan,
    AdmissionConfig, ArrivalMeta, Composer, CompositionRequest, GraphStore, ResilientEngineConfig,
    SelectOptions, SessionEngineConfig, SessionRequest, SessionWorld, SessionsReport, SlaConfig,
};
use qosc_media::{Axis, FormatRegistry};
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::{Network, Node, SimTime};
use qosc_pipeline::{ChaosModel, ChaosPlan, ChaosWorld, SharingPolicy};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{catalog, DiscoveryConfig, QosObservation, ServiceId, TranscoderDescriptor};
use qosc_telemetry::{FlightRecorder, NoopSink};
use qosc_workload::arrivals::{
    session_arrivals, session_arrivals_with_mix, ArrivalPattern, DemandMix, SessionArrival,
    SessionPattern,
};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The two workloads this module serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionWorkload {
    /// `sessions_chaos`.
    Chaos,
    /// `sessions_shared`.
    Shared,
}

impl SessionWorkload {
    /// The session workload called `name`, if it is one.
    pub fn named(name: &str) -> Option<SessionWorkload> {
        match name {
            "sessions_chaos" => Some(SessionWorkload::Chaos),
            "sessions_shared" => Some(SessionWorkload::Shared),
            _ => None,
        }
    }

    /// Units of a full run (≈ 12–15 s on a quiet reference host).
    fn units(self) -> usize {
        match self {
            SessionWorkload::Chaos => CHAOS_PLANS * 4,
            SessionWorkload::Shared => 6,
        }
    }

    /// Units of one group do the same kind of work: the units of
    /// `sessions_chaos` that share a storm plan, every unit of
    /// `sessions_shared`.
    fn group(self, unit: usize) -> usize {
        match self {
            SessionWorkload::Chaos => unit % CHAOS_PLANS,
            SessionWorkload::Shared => 0,
        }
    }
}

// ---------------------------------------------------------------------
// TimedWorld
// ---------------------------------------------------------------------

/// The `SessionWorld` methods the wrapper times.
#[derive(Debug, Clone, Copy)]
enum Method {
    Composer,
    PlanAlive,
    PlanRoutable,
    DeliveryPpm,
    ObserveService,
    ObservedLatency,
    ProbateService,
    ProbeService,
    ReportServiceFailure,
    ApplyWorldEvent,
    RegisterFlow,
    DeregisterFlow,
    SessionDeliveryPpm,
}

const METHOD_COUNT: usize = Method::SessionDeliveryPpm as usize + 1;

/// Per-method accumulated time and call counts. Atomics because the
/// engine may call the `&self` methods from its workers; `Relaxed`
/// because each cell is a statistic that publishes nothing else.
#[derive(Debug, Default)]
pub struct MethodTimers {
    ns: [AtomicU64; METHOD_COUNT],
    calls: [AtomicU64; METHOD_COUNT],
}

impl MethodTimers {
    fn add(&self, method: Method, start: Instant) {
        self.ns[method as usize].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[method as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulated nanoseconds inside the world, all methods.
    fn total_ns(&self) -> u64 {
        self.ns.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn absorb(&self, other: &MethodTimers) {
        for i in 0..METHOD_COUNT {
            self.ns[i].fetch_add(other.ns[i].load(Ordering::Relaxed), Ordering::Relaxed);
            self.calls[i].fetch_add(other.calls[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Mean nanoseconds per call over `methods` together.
    fn mean_ns(&self, methods: &[Method]) -> f64 {
        let sum = |cells: &[AtomicU64; METHOD_COUNT]| -> u64 {
            methods
                .iter()
                .map(|&m| cells[m as usize].load(Ordering::Relaxed))
                .sum()
        };
        sum(&self.ns) as f64 / sum(&self.calls).max(1) as f64
    }
}

/// A [`ChaosWorld`] that times every call the session engine makes
/// into it. Also keeps a copy of the broker at its peak flow count, so
/// the water-filling kernel can be replayed standalone afterwards.
pub struct TimedWorld<'a> {
    inner: ChaosWorld<'a>,
    timers: MethodTimers,
    flows_peak: usize,
    peak_broker: Option<BandwidthBroker>,
}

impl<'a> TimedWorld<'a> {
    fn new(inner: ChaosWorld<'a>) -> TimedWorld<'a> {
        TimedWorld {
            inner,
            timers: MethodTimers::default(),
            flows_peak: 0,
            peak_broker: None,
        }
    }
}

macro_rules! timed {
    ($self:ident, $method:ident, $call:expr) => {{
        let start = Instant::now();
        let out = $call;
        $self.timers.add(Method::$method, start);
        out
    }};
}

impl SessionWorld for TimedWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        timed!(self, Composer, self.inner.composer())
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        timed!(self, PlanAlive, self.inner.plan_alive(plan))
    }

    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        timed!(self, PlanRoutable, self.inner.plan_routable(plan))
    }

    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
        timed!(self, DeliveryPpm, self.inner.delivery_ppm(plan, demand_bps))
    }

    fn observe_service(&self, service: ServiceId) -> Option<QosObservation> {
        timed!(self, ObserveService, self.inner.observe_service(service))
    }

    fn observed_latency_us(&self, plan: &AdaptationPlan) -> u64 {
        timed!(self, ObservedLatency, self.inner.observed_latency_us(plan))
    }

    fn probate_service(&mut self, service: ServiceId, observed_ppm: u64, now_us: u64) -> bool {
        timed!(
            self,
            ProbateService,
            self.inner.probate_service(service, observed_ppm, now_us)
        )
    }

    fn probe_service(&mut self, service: ServiceId, now_us: u64) -> bool {
        timed!(
            self,
            ProbeService,
            self.inner.probe_service(service, now_us)
        )
    }

    fn report_service_failure(&mut self, service: ServiceId, now_us: u64) {
        timed!(
            self,
            ReportServiceFailure,
            self.inner.report_service_failure(service, now_us)
        )
    }

    // Returns a borrowed slice: nothing to time.
    fn world_event_times(&self) -> &[u64] {
        self.inner.world_event_times()
    }

    fn apply_world_event(&mut self, index: usize) {
        timed!(self, ApplyWorldEvent, self.inner.apply_world_event(index))
    }

    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        demand_bps: u64,
        weight: u32,
    ) {
        timed!(
            self,
            RegisterFlow,
            self.inner
                .register_session_flow(session, plan, demand_bps, weight)
        );
        let flows = self.inner.broker().map_or(0, BandwidthBroker::flow_count);
        if flows > self.flows_peak {
            self.flows_peak = flows;
            self.peak_broker = None;
        }
    }

    fn deregister_session_flow(&mut self, session: u64) {
        // A departure from the peak: the flow set is final, keep it.
        if self.peak_broker.is_none() {
            if let Some(broker) = self.inner.broker() {
                if broker.flow_count() == self.flows_peak && self.flows_peak > 0 {
                    self.peak_broker = Some(broker.clone());
                }
            }
        }
        timed!(
            self,
            DeregisterFlow,
            self.inner.deregister_session_flow(session)
        )
    }

    // One integer read: timing it would cost more than the call.
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
        timed!(
            self,
            SessionDeliveryPpm,
            self.inner
                .session_delivery_ppm(session, plan_gen, plan, demand_bps)
        )
    }
}

// ---------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------

/// Everything `run_sessions` needs for one unit.
struct Unit<'a> {
    world: ChaosWorld<'a>,
    requests: Vec<SessionRequest>,
    config: SessionEngineConfig,
}

fn session_requests(
    arrivals: Vec<SessionArrival>,
    request_for: impl Fn(usize) -> CompositionRequest,
) -> Vec<SessionRequest> {
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| SessionRequest {
            request: request_for(i),
            arrival: arrival.meta,
            hold_us: arrival.hold_us,
            demand_bps: arrival.demand_bps,
        })
        .collect()
}

/// Seed of the X16 mesh; `--seed` draws arrivals, holds and classes.
const CHAOS_TOPOLOGY_SEED: u64 = 5;
/// Storm plans: chaos seeds `1..=CHAOS_PLANS`, the same in every run;
/// unit `i` serves plan `i % CHAOS_PLANS` under its own arrival
/// schedule. What a storm plan costs to serve is heavy-tailed (a
/// squeeze on the serving chain triples a unit's wall time, a crash
/// elsewhere changes nothing), so plans drawn from `--seed` would put
/// ±10 % of luck on `ops_per_s`; with fixed plans only the arrival
/// process differs between seeds, and units that share a plan are
/// comparable. Seed 1 crashes the serving chain (a re-composition
/// wave), seed 2's storm misses the chain in use (plain serving while
/// the world changes), seed 3 squeezes it (BOLA switching) and expires
/// its leases.
const CHAOS_PLANS: usize = 3;
const CHAOS_HORIZON_US: u64 = 30_000_000;
const CHAOS_ARRIVAL_HORIZON_US: u64 = 25_000_000;
/// Target mean concurrent sessions (holds average 1 s).
const CHAOS_CONCURRENCY: u64 = 256;

/// The storm: the default model at intensity 1.0 minus link flaps. A
/// flap on an access link cuts the sender from the receiver, and every
/// session open in that window fails by construction; the benchmark
/// wants a workload on which every offered session can be served.
fn chaos_model(protect: Vec<qosc_netsim::NodeId>) -> ChaosModel {
    ChaosModel {
        total_duration: SimTime::from_secs(CHAOS_HORIZON_US / 1_000_000),
        flap_rate_per_min: 0.0,
        protect,
        ..ChaosModel::default()
    }
}

fn chaos_engine_config(workers: usize) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        // Dimensioned for the population: a crash invalidates the chain
        // under all ≈256 live sessions at one instant, and a queue
        // sized below that refuses part of the re-composition wave.
        admission: Some(AdmissionConfig {
            virtual_cores: 512,
            initial_limit: 512,
            max_limit: 1024,
            ..AdmissionConfig::protected()
        }),
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(CHAOS_HORIZON_US),
        session_spans: true,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: Some(SlaConfig::default()),
    }
}

/// Build unit `index` of `sessions_chaos` and hand it to `body`.
/// Returns `body`'s result and the time `ChaosPlan::generate` took.
fn with_chaos_unit<R>(
    index: usize,
    seed: u64,
    scale: &Scale,
    workers: usize,
    body: impl FnOnce(Unit<'_>) -> R,
) -> (R, u64) {
    let config = GeneratorConfig {
        services_per_layer: 5,
        multi_axis: true,
        ..GeneratorConfig::default()
    };
    let mut scenario = random_scenario(&config, CHAOS_TOPOLOGY_SEED);
    // The strict user of X16: a 12 fps floor, so degradation rescores.
    scenario.profiles.user.satisfaction = SatisfactionProfile::new()
        .with(AxisPreference::weighted(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 12.0,
                ideal: 30.0,
            },
            3.0,
        ))
        .with(AxisPreference::weighted(
            Axis::PixelCount,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 307_200.0,
            },
            1.0,
        ));
    let topology = scenario.network.topology();
    let backbone = topology
        .node_by_name("backbone")
        .expect("generated meshes have a backbone");
    let model = chaos_model(vec![scenario.sender_host, scenario.receiver_host, backbone]);
    let start = Instant::now();
    let plan = ChaosPlan::generate(
        topology,
        scenario.services.live_count(),
        &model,
        1 + (index % CHAOS_PLANS) as u64,
        1.0,
    );
    let generate_ns = start.elapsed().as_nanos() as u64;

    let descriptors: Vec<TranscoderDescriptor> = scenario
        .services
        .live_services()
        .map(|(_, d)| d.clone())
        .collect();
    let mut world = ChaosWorld::new(
        &scenario.formats,
        scenario.network,
        DiscoveryConfig::default(),
    );
    for descriptor in descriptors {
        world.join(descriptor);
    }
    world.load_plan(&plan);

    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: CHAOS_ARRIVAL_HORIZON_US,
            rate_per_sec: scale.unit_sessions(CHAOS_CONCURRENCY as usize) as u64,
            ..ArrivalPattern::default()
        },
        hold_range_us: (500_000, 1_500_000),
        demand_range_bps: (0, 0),
    };
    let requests = session_requests(session_arrivals(&pattern, unit_seed(seed, index)), |_| {
        CompositionRequest {
            profiles: scenario.profiles.clone(),
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
        }
    });
    let unit = Unit {
        world,
        requests,
        config: chaos_engine_config(workers),
    };
    (body(unit), generate_ns)
}

const SHARED_TOPOLOGY_SEED: u64 = 19;
const SHARED_HORIZON_US: u64 = 16_000_000;
const SHARED_ARRIVAL_HORIZON_US: u64 = 4_000_000;
/// Sessions offered per unit, exactly. The seeded schedule is drawn
/// 10 % denser and cut to its first `SHARED_SESSIONS` arrivals:
/// water-filling cost grows with the square of the concurrent flows,
/// so a Poisson count (±3 %) would put ±6 % of noise on a unit.
const SHARED_SESSIONS: usize = 1_000;
/// Shared access capacity per offered session, bits per second (X19).
const SHARED_ACCESS_PER_SESSION_BPS: u64 = 1_100_000;
const SHARED_FABRIC_MULT: u64 = 4;
const SHARED_MIX: DemandMix = DemandMix {
    interactive_bps: (1_500_000, 3_000_000),
    standard_bps: (400_000, 800_000),
    background_bps: (0, 0),
};

fn shared_engine_config(workers: usize) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        admission: None,
        tick_us: 500_000,
        max_recompositions: 8,
        horizon_us: Some(SHARED_HORIZON_US),
        session_spans: false,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: None,
    }
}

/// Build unit `index` of `sessions_shared` (the `broker_fairness`
/// world: a k = 4 fat-tree whose sender-side access link every flow
/// crosses, plus an unconstrained transcoding proxy) and hand it to
/// `body`.
fn with_shared_unit<R>(
    index: usize,
    seed: u64,
    scale: &Scale,
    workers: usize,
    body: impl FnOnce(Unit<'_>) -> R,
) -> R {
    let sessions = scale.unit_sessions(SHARED_SESSIONS);
    let formats = FormatRegistry::with_builtins();
    let access_bps = sessions as u64 * SHARED_ACCESS_PER_SESSION_BPS;
    let fabric_bps = access_bps * SHARED_FABRIC_MULT;
    let (mut topology, hosts, _cores) = fat_tree(
        4,
        LinkTemplate::fixed(access_bps as f64, 500),
        LinkTemplate::fixed(fabric_bps as f64, 1_000),
        SHARED_TOPOLOGY_SEED,
    );
    let proxy = topology.add_node(Node::unconstrained("proxy"));
    let edge = topology
        .neighbors(hosts[0])
        .first()
        .expect("a fat-tree host has its edge switch")
        .0;
    topology
        .connect_simple(proxy, edge, fabric_bps as f64 * 100.0)
        .expect("proxy uplink");
    let sender = hosts[0];
    let receivers = &hosts[4..];
    let mut world = ChaosWorld::new(&formats, Network::new(topology), DiscoveryConfig::default());
    for spec in catalog::full_catalog() {
        world
            .join(TranscoderDescriptor::resolve(&spec, &formats, proxy).expect("catalog resolves"));
    }
    world.set_sharing(Some(SharingPolicy::WeightedMaxMin));

    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: SHARED_ARRIVAL_HORIZON_US,
            rate_per_sec: (sessions as u64 * 11 / 10) * 1_000_000 / SHARED_ARRIVAL_HORIZON_US,
            burst_period_us: 0,
            ..ArrivalPattern::default()
        },
        hold_range_us: (8_000_000, 12_000_000),
        demand_range_bps: (0, 0),
    };
    let mut arrivals = session_arrivals_with_mix(&pattern, &SHARED_MIX, unit_seed(seed, index));
    arrivals.truncate(sessions);
    let profiles = ProfileSet {
        user: UserProfile::demo("user-0"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    };
    let requests = session_requests(arrivals, |i| CompositionRequest {
        profiles: profiles.clone(),
        sender_host: sender,
        receiver_host: receivers[i % receivers.len()],
    });
    body(Unit {
        world,
        requests,
        config: shared_engine_config(workers),
    })
}

/// Arrival seed of unit `index`: distinct per unit and per `--seed`.
fn unit_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(index as u64)
}

fn with_unit<R>(
    workload: SessionWorkload,
    index: usize,
    seed: u64,
    scale: &Scale,
    workers: usize,
    body: impl FnOnce(Unit<'_>) -> R,
) -> (R, u64) {
    match workload {
        SessionWorkload::Chaos => with_chaos_unit(index, seed, scale, workers, body),
        SessionWorkload::Shared => (with_shared_unit(index, seed, scale, workers, body), 0),
    }
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

fn report_digest(digest: &mut Digest, report: &SessionsReport) {
    for outcome in &report.outcomes {
        digest.update(&format!("{outcome:?}"));
    }
    digest.update(&format!("{:?}", report.counters));
    digest.update(&format!("{:?}", report.admission));
    digest.update(&format!("end={}", report.end_us));
}

/// Per-session delivered satisfaction: composed satisfaction per
/// active microsecond, discounted by the stalled share of playback
/// (the currency of X19).
fn delivered(report: &SessionsReport) -> impl Iterator<Item = f64> + '_ {
    report.outcomes.iter().filter_map(|o| {
        let active = o.active_us();
        (active > 0).then(|| {
            let playing = active.saturating_sub(o.rebuffer_us) as f64 / active as f64;
            (o.satisfaction_us / active as f64) * playing
        })
    })
}

/// Sums over the reports of a pass that the layer metrics need.
#[derive(Debug, Default)]
struct ReportTotals {
    ticks: u64,
    attempts: u64,
    recompositions: u64,
    switches: u64,
    sla_violations: u64,
    evasions: u64,
    grant_updates: u64,
    shed: u64,
    stalled_us: u64,
    active_us: u64,
}

impl ReportTotals {
    fn add(&mut self, report: &SessionsReport) {
        for o in &report.outcomes {
            self.ticks += u64::from(o.epochs);
            self.attempts += u64::from(o.attempts);
            self.grant_updates += u64::from(o.grant_updates);
            self.active_us += o.active_us();
        }
        self.recompositions += report.recompositions();
        self.switches += report.switches();
        self.sla_violations += report.sla_violations();
        self.evasions += report.evasions();
        self.shed += report.counters.shed as u64;
        self.stalled_us += report.rebuffer_us();
    }
}

/// Counters read off the worlds of a pass.
#[derive(Debug, Default)]
struct WorldTotals {
    world_events: u64,
    version_moves: u64,
    cache_hits: u64,
    cache_refreshes: u64,
    cache_misses: u64,
    reallocations: u64,
}

impl WorldTotals {
    fn add(&mut self, world: &ChaosWorld<'_>, version_before: u64) {
        self.world_events += world.world_event_times().len() as u64;
        self.version_moves += world.network().version() - version_before;
        let cache = world.delivery_cache_stats();
        self.cache_hits += cache.hits;
        self.cache_refreshes += cache.refreshes;
        self.cache_misses += cache.misses;
        self.reallocations += world.broker().map_or(0, BandwidthBroker::reallocations);
    }
}

fn fold_report(pass: &mut Pass, report: &SessionsReport, wall_ns: u64, unit: usize, group: usize) {
    let c = &report.counters;
    if !c.partitions_exactly() {
        pass.problems.push(format!(
            "unit {unit}: lifecycle counters do not partition: {c:?}"
        ));
    }
    pass.attempted += c.offered as u64;
    pass.timed_ops += c.offered as u64;
    pass.failed += (c.shed + c.failed_open + c.gave_up + c.starved) as u64;
    pass.wall_s += wall_ns as f64 / 1e9;
    pass.segments.push(Segment {
        group,
        ops: c.offered as u64,
        wall_s: wall_ns as f64 / 1e9,
        typical_op_us: wall_ns as f64 / 1e3 / c.offered.max(1) as f64,
    });
    pass.satisfaction.extend(delivered(report));
    report_digest(&mut pass.digest, report);
}

/// Composes timed by [`compose_cost_ns`].
const COMPOSE_PROBES: usize = 32;

/// What one composition costs in this world before anything has
/// happened to it: the unit's first request composed
/// [`COMPOSE_PROBES`] times over one warm [`GraphStore`], as the
/// engine's `serve_one` composes every session open. The engine's
/// composes cannot be timed from outside `run_sessions`; attempts ×
/// this is the part of `core.session.self_ns_per_tick` that is
/// composition.
fn compose_cost_ns(world: &ChaosWorld<'_>, requests: &[SessionRequest]) -> Vec<f64> {
    let Some(first) = requests.first() else {
        return Vec::new();
    };
    let store = GraphStore::new();
    let options = SelectOptions::default();
    let composer = world.composer();
    (0..=COMPOSE_PROBES)
        .map(|_| {
            let start = Instant::now();
            let composed = composer.compose_with_store(
                &store,
                &first.request.profiles,
                first.request.sender_host,
                first.request.receiver_host,
                &options,
            );
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(composed.is_ok());
            ns
        })
        // The first compose builds the graph; the engine pays that once
        // per run, not per session.
        .skip(1)
        .collect()
}

/// One `run_sessions` call and its wall time, nanoseconds.
fn timed_run<W: SessionWorld + Sync>(
    world: &mut W,
    requests: &[SessionRequest],
    config: &SessionEngineConfig,
) -> (SessionsReport, u64) {
    let start = Instant::now();
    let report = run_sessions(world, requests, config, &NoopSink);
    (report, start.elapsed().as_nanos() as u64)
}

/// Serve the units of `workload` and, in the traced pass, fill the
/// per-layer metrics from [`TimedWorld`] and the standalone replays.
pub fn session_pass(
    workload: SessionWorkload,
    seed: u64,
    scale: &Scale,
    traced: bool,
    layers: &mut Layers,
) -> Pass {
    let units = scale.count(workload.units());
    let mut pass = Pass::default();
    let mut reports = ReportTotals::default();
    let mut worlds = WorldTotals::default();
    let timers = MethodTimers::default();
    let mut generate_ns = 0u64;
    let mut flows_peak = 0usize;
    let mut peak_broker = None;
    let mut admission_ns_per_arrival = Vec::new();
    let mut compose_ns = Vec::new();
    let arena_before = arena_reuse_total();

    for index in 0..units {
        let build = Instant::now();
        let ((), unit_generate_ns) = with_unit(workload, index, seed, scale, 1, |unit| {
            pass.setup_s.push(build.elapsed().as_secs_f64());
            let Unit {
                world,
                requests,
                config,
            } = unit;
            let version_before = world.network().version();
            let (report, wall_ns, world) = if traced {
                if let Some(admission) = &config.admission {
                    let arrivals: Vec<ArrivalMeta> = requests.iter().map(|r| r.arrival).collect();
                    let start = Instant::now();
                    std::hint::black_box(plan_admission(&arrivals, admission));
                    admission_ns_per_arrival
                        .push(start.elapsed().as_nanos() as f64 / arrivals.len().max(1) as f64);
                }
                compose_ns.extend(compose_cost_ns(&world, &requests));
                let mut world = TimedWorld::new(world);
                let (report, wall_ns) = timed_run(&mut world, &requests, &config);
                timers.absorb(&world.timers);
                if world.flows_peak > flows_peak {
                    flows_peak = world.flows_peak;
                    peak_broker = world.peak_broker.take();
                }
                (report, wall_ns, world.inner)
            } else {
                let mut world = world;
                let (report, wall_ns) = timed_run(&mut world, &requests, &config);
                (report, wall_ns, world)
            };
            fold_report(&mut pass, &report, wall_ns, index, workload.group(index));
            reports.add(&report);
            worlds.add(&world, version_before);
        });
        generate_ns += unit_generate_ns;
    }

    layers.set(
        "rebuffer_ratio",
        reports.stalled_us as f64 / (reports.stalled_us + reports.active_us).max(1) as f64,
    );
    layers.set("core.session.session_ticks", reports.ticks as f64);
    layers.set("core.session.compose_attempts", reports.attempts as f64);
    layers.set("core.session.recompositions", reports.recompositions as f64);
    layers.set("core.session.switches", reports.switches as f64);
    layers.set("core.session.sla_violations", reports.sla_violations as f64);
    layers.set("core.session.evasions", reports.evasions as f64);
    layers.set("core.admission.shed", reports.shed as f64);
    // The engine composes on a scoped thread it spawns per batch of
    // jobs, even at `workers = 1`, so the selection arena (a
    // thread-local) is rarely reused: compare with `compose_attempts`.
    layers.set(
        "core.select.arena_reuses",
        (arena_reuse_total() - arena_before) as f64,
    );
    layers.set("broker.grant_updates", reports.grant_updates as f64);
    layers.set("broker.reallocations", worlds.reallocations as f64);
    layers.set("pipeline.world_events", worlds.world_events as f64);
    layers.set("netsim.version_moves", worlds.version_moves as f64);
    layers.set("pipeline.delivery_cache_hits", worlds.cache_hits as f64);
    layers.set(
        "pipeline.delivery_cache_refreshes",
        worlds.cache_refreshes as f64,
    );
    layers.set("pipeline.delivery_cache_misses", worlds.cache_misses as f64);
    layers.set(
        "pipeline.chaos_plan_generate_ns",
        generate_ns as f64 / units as f64,
    );

    if traced {
        let ticks = reports.ticks.max(1) as f64;
        let wall_ns = pass.wall_s * 1e9;
        let world_ns = timers.total_ns() as f64;
        layers.set("pipeline.world_ns_per_tick", world_ns / ticks);
        layers.set(
            "core.session.self_ns_per_tick",
            (wall_ns - world_ns).max(0.0) / ticks,
        );
        layers.set(
            "pipeline.delivery_ppm_ns",
            timers.mean_ns(&[Method::DeliveryPpm, Method::SessionDeliveryPpm]),
        );
        layers.set(
            "pipeline.plan_routable_ns",
            timers.mean_ns(&[Method::PlanRoutable, Method::PlanAlive]),
        );
        layers.set(
            "pipeline.apply_world_event_ns",
            timers.mean_ns(&[Method::ApplyWorldEvent]),
        );
        layers.set(
            "pipeline.register_flow_ns",
            timers.mean_ns(&[Method::RegisterFlow, Method::DeregisterFlow]),
        );
        layers.set(
            "core.admission.plan_ns_per_arrival",
            Samples::new(admission_ns_per_arrival)
                .median()
                .unwrap_or(0.0),
        );
        layers.set(
            "core.session.compose_ns",
            Samples::new(compose_ns).median().unwrap_or(0.0),
        );
        layers.set("broker.flows_peak", flows_peak as f64);
        if let Some(broker) = peak_broker {
            layers.set("broker.rebalance_ns", rebalance_ns(&broker));
        }
        if workload == SessionWorkload::Chaos {
            recorder_overhead(seed, scale, layers);
        }
    }
    pass
}

/// Median time of a full `rebalance()` over the peak flow set, each on
/// a fresh copy of the broker.
fn rebalance_ns(peak: &BandwidthBroker) -> f64 {
    let samples = (0..9)
        .map(|_| {
            let mut broker = peak.clone();
            let start = Instant::now();
            broker.rebalance();
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(broker.epoch());
            ns
        })
        .collect();
    Samples::new(samples).median().unwrap_or(0.0)
}

/// Serve unit 0 of `sessions_chaos` once into a [`NoopSink`] and once
/// into a [`FlightRecorder`]: the share of wall time recording costs.
fn recorder_overhead(seed: u64, scale: &Scale, layers: &mut Layers) {
    let serve_unit_zero = |record: bool| {
        with_chaos_unit(0, seed, scale, 1, |unit| {
            let Unit {
                mut world,
                requests,
                config,
            } = unit;
            let recorder = FlightRecorder::new(16);
            let start = Instant::now();
            let report = if record {
                run_sessions(&mut world, &requests, &config, &recorder)
            } else {
                run_sessions(&mut world, &requests, &config, &NoopSink)
            };
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(report.end_us);
            (ns, recorder.len())
        })
        .0
    };
    // Alternate and keep the faster of two each: a single pair differs
    // by more than the recorder costs when a neighbour wakes up.
    let (mut noop_ns, mut recorded_ns, mut events) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..2 {
        noop_ns = noop_ns.min(serve_unit_zero(false).0);
        let (ns, recorded) = serve_unit_zero(true);
        recorded_ns = recorded_ns.min(ns);
        events = recorded;
    }
    layers.set(
        "telemetry.recorder_overhead_share",
        (recorded_ns - noop_ns) / noop_ns.max(1.0),
    );
    layers.set("telemetry.events_recorded", events as f64);
}

/// One small unit served at `workers = 1` and at `workers = 2`: the
/// reports must render to the same digest.
pub fn worker_invariance(workload: SessionWorkload, seed: u64) -> Result<(), String> {
    let scale = Scale::smoke();
    let digest_at = |workers: usize| {
        with_unit(workload, 0, seed, &scale, workers, |unit| {
            let Unit {
                mut world,
                requests,
                config,
            } = unit;
            let report = run_sessions(&mut world, &requests, &config, &NoopSink);
            let mut digest = Digest::default();
            report_digest(&mut digest, &report);
            digest.0
        })
        .0
    };
    let (one, two) = (digest_at(1), digest_at(2));
    if one == two {
        Ok(())
    } else {
        Err(format!(
            "{workload:?}: workers=2 digest {two:016x} differs from workers=1 digest {one:016x}"
        ))
    }
}
