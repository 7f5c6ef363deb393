//! Steady-state session serving on the virtual clock.
//!
//! The paper composes one adaptation chain per request; the repo's
//! north star — sustained streaming traffic — is *overlapping
//! long-lived sessions* whose chains must survive mid-stream churn.
//! This module turns the batch-shaped engine into a continuous
//! discrete-event serving loop:
//!
//! * a session **opens** at its virtual arrival, flows through the
//!   [`AdmissionQueue`](crate::admission::AdmissionQueue) (same
//!   decisions as [`plan_admission`](crate::plan_admission), made
//!   incrementally), and composes its chain through the shared
//!   [`GraphStore`](crate::GraphStore) at the rung brown-out assigned,
//! * while **active** it accrues session-time on its current
//!   [`DegradationRung`], ticking a progress epoch every
//!   [`tick_us`](SessionEngineConfig::tick_us),
//! * **world events** (chaos faults, lease expiry — anything the
//!   [`SessionWorld`] applies) that invalidate a live plan trigger a
//!   **re-composition**: one more pass through admission and the
//!   composer, continuing from the session's current rung,
//! * the session **closes** when its holding time elapses
//!   (`completed`), when its open never produced a plan
//!   (`failed_open`), when a re-composition finds nothing (`starved`),
//!   or when it exhausts
//!   [`max_recompositions`](SessionEngineConfig::max_recompositions)
//!   (`gave_up`).
//!
//! Everything runs on the deterministic
//! [`EventQueue`](qosc_netsim::EventQueue): same inputs → bitwise
//! identical outcomes on any machine at any worker count (compositions
//! of one virtual instant fan out across workers, but every result is
//! a pure function of the request and the world snapshot).
//!
//! Naming note: `qosc_pipeline::session` replays one *frame-level*
//! streaming session through an already-composed chain; this module is
//! the *serving* loop that owns many concurrent session lifecycles and
//! decides when chains are (re-)composed.

pub mod abr;
pub mod event_loop;
mod sla;

use crate::admission::{AdmissionConfig, AdmissionStats, ArrivalMeta, ShedReason};
use crate::composer::Composer;
use crate::engine::{CompositionRequest, DegradationRung, ResilientEngineConfig};
use crate::plan::AdaptationPlan;
use qosc_media::FormatRegistry;
use qosc_netsim::Network;
use qosc_services::{QosObservation, ServiceId, ServiceRegistry};
use qosc_telemetry::MetricsRegistry;

pub use abr::{AbrConfig, AbrMode, BolaController, BufferAdvance, PlayoutBuffer};
pub use event_loop::run_sessions;
pub use sla::{SlaConfig, SlaMode};

/// One long-lived session offered to the engine.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// What to compose when the session opens (and re-compose
    /// mid-stream).
    pub request: CompositionRequest,
    /// Virtual arrival metadata — arrival time, priority class,
    /// composition cost and deadline budget for the admission queue.
    pub arrival: ArrivalMeta,
    /// Holding time: virtual microseconds the session stays active
    /// after its chain is first served. `0` closes the session at open:
    /// a batch of requests is a run of zero-hold sessions.
    pub hold_us: u64,
    /// Bitrate the session demands at full quality, bits per second.
    /// Feeds [`SessionWorld::delivery_ppm`] as a floor on the final-hop
    /// required rate; `0` derives the demand from the plan alone.
    pub demand_bps: u64,
}

/// Why a session closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CloseReason {
    /// The holding time elapsed.
    Completed,
    /// The opening composition produced no plan at any rung.
    FailedOpen,
    /// The session exhausted
    /// [`max_recompositions`](SessionEngineConfig::max_recompositions).
    GaveUp,
    /// A mid-stream re-composition found no plan (or the admission
    /// queue refused the re-composition offer).
    Starved,
}

impl CloseReason {
    /// Stable machine-readable name.
    pub fn label(self) -> &'static str {
        match self {
            CloseReason::Completed => "completed",
            CloseReason::FailedOpen => "failed_open",
            CloseReason::GaveUp => "gave_up",
            CloseReason::Starved => "starved",
        }
    }
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The world a session engine runs against: where compositions come
/// from, which scheduled events mutate it, and whether a served plan is
/// still viable after a mutation.
///
/// The engine never names concrete fault types — `qosc-pipeline`'s
/// `ChaosWorld` adapts chaos schedules and discovery churn onto this
/// trait without `qosc-core` depending on the pipeline crate.
pub trait SessionWorld {
    /// A composer over the world's current state.
    fn composer(&self) -> Composer<'_>;

    /// Whether `plan` still works in the current world (hosts up, links
    /// carrying the plan's rates, services still advertised). The
    /// default world never breaks a plan.
    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        let _ = plan;
        true
    }

    /// Hard liveness: whether `plan`'s hosts are up, its services still
    /// advertised and a route still exists — ignoring *bandwidth*.
    /// Buffer-aware modes use this instead of [`plan_alive`](Self::plan_alive):
    /// a squeezed link degrades delivery (the buffer drains) rather
    /// than killing the plan outright. Defaults to `plan_alive`.
    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        self.plan_alive(plan)
    }

    /// Achieved delivery rate for `plan` under current network
    /// conditions, parts-per-million of the plan's required rate
    /// ([`abr::PPM`] = keeping up exactly; above = surplus headroom
    /// that can refill a playout buffer; below = the buffer drains).
    /// `demand_bps` floors the final-hop required rate (0 = use the
    /// plan's own edge rates). The default world always keeps up.
    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
        let _ = (plan, demand_bps);
        abr::PPM
    }

    /// Observed per-service QoS for a *currently advertised* service,
    /// normalised against what the service advertises
    /// ([`qosc_services::QOS_PPM`] on both axes = delivering exactly as
    /// advertised). Grey faults — a service that is alive, advertised
    /// and routable but quietly under-delivering — surface here and
    /// nowhere else. The default world has no observation channel.
    fn observe_service(&self, service: ServiceId) -> Option<QosObservation> {
        let _ = service;
        None
    }

    /// End-to-end observed processing latency for `plan`'s service
    /// stages, virtual microseconds. Lag-style grey faults inflate this
    /// while [`delivery_ppm`](Self::delivery_ppm) stays nominal. The
    /// default world processes instantly.
    fn observed_latency_us(&self, plan: &AdaptationPlan) -> u64 {
        let _ = plan;
        0
    }

    /// Soft-demote `service`: keep it advertised but penalise it in
    /// selection with the observed throughput ratio (`observed_ppm`,
    /// [`qosc_services::QOS_PPM`] = as advertised). Returns whether the
    /// demotion took effect. The default world has no registry to
    /// demote in.
    fn probate_service(&mut self, service: ServiceId, observed_ppm: u64, now_us: u64) -> bool {
        let _ = (service, observed_ppm, now_us);
        false
    }

    /// Report a healthy observation for a probated `service` (half-open
    /// probing). Returns `true` when this probe *cleared* the
    /// probation. The default world never probates, so never clears.
    fn probe_service(&mut self, service: ServiceId, now_us: u64) -> bool {
        let _ = (service, now_us);
        false
    }

    /// Report a hard failure against `service` (plan died with this
    /// service in it) so the world's circuit breaker can count it.
    /// No-op on worlds without a breaker.
    fn report_service_failure(&mut self, service: ServiceId, now_us: u64) {
        let _ = (service, now_us);
    }

    /// Virtual times of the world's scheduled mutations, indexed by
    /// event id. At equal timestamps world events apply before any
    /// session event (the engine schedules them first).
    fn world_event_times(&self) -> &[u64] {
        &[]
    }

    /// Apply world event `index` (same indexing as
    /// [`world_event_times`](Self::world_event_times)).
    fn apply_world_event(&mut self, index: usize) {
        let _ = index;
    }

    /// Register (or re-pin, after a rung switch or re-composition) the
    /// session's bandwidth demand with the world's broker, pinned to
    /// `plan`'s route. `weight` is the priority-class weight. Worlds
    /// without a broker ignore this.
    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        demand_bps: u64,
        weight: u32,
    ) {
        let _ = (session, plan, demand_bps, weight);
    }

    /// Remove the session's flow on close; the broker redistributes the
    /// released bandwidth preemption-free. No-op without a broker.
    fn deregister_session_flow(&mut self, session: u64) {
        let _ = session;
    }

    /// Bumps whenever the broker's published grants change. The event
    /// loop watches this to re-evaluate ladder rungs (not re-compose)
    /// after a reallocation. Brokerless worlds stay at 0.
    fn grant_epoch(&self) -> u64 {
        0
    }

    /// Per-session delivery rate: like
    /// [`delivery_ppm`](Self::delivery_ppm) but allowed to consult the
    /// session's brokered grant instead of raw worst-hop headroom.
    /// `plan_gen` identifies the adopted plan instance for memoization.
    /// Defaults to the shared-fate `delivery_ppm`: a brokerless world
    /// has no per-session answer.
    fn session_delivery_ppm(
        &self,
        session: u64,
        plan_gen: u32,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> u64 {
        let _ = (session, plan_gen);
        self.delivery_ppm(plan, demand_bps)
    }
}

/// A world that never changes: composition state borrowed from a
/// scenario, no scheduled events, plans never break.
#[derive(Debug, Clone, Copy)]
pub struct StaticWorld<'a> {
    /// Format registry.
    pub formats: &'a FormatRegistry,
    /// Service registry.
    pub services: &'a ServiceRegistry,
    /// Network.
    pub network: &'a Network,
}

impl SessionWorld for StaticWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        Composer {
            formats: self.formats,
            services: self.services,
            network: self.network,
        }
    }
}

/// Tuning for the session engine.
#[derive(Debug, Clone, Copy)]
pub struct SessionEngineConfig {
    /// Composition tuning: workers, options, retry, ladder, seed.
    pub resilient: ResilientEngineConfig,
    /// Admission policy for session opens and re-compositions. `None`
    /// admits everything at its arrival instant.
    pub admission: Option<AdmissionConfig>,
    /// Progress-epoch period, virtual microseconds (`0` disables
    /// ticks). Each tick re-checks plan liveness and, with session
    /// spans on, opens an `epoch` child span.
    pub tick_us: u64,
    /// Re-compositions a session may consume before it closes as
    /// [`CloseReason::GaveUp`].
    pub max_recompositions: u32,
    /// Stop processing events after this virtual time; sessions still
    /// open are counted as
    /// [`active_at_end`](SessionCounters::active_at_end). `None` runs
    /// to quiescence.
    pub horizon_us: Option<u64>,
    /// Emit session-scoped telemetry (`session_opened`/`session_closed`
    /// events, `epoch` child spans, rebuffer/switch/SLA/grant events).
    /// Off, a session logs only its compositions — admission verdict,
    /// ladder rungs, retries, mid-stream repairs.
    pub session_spans: bool,
    /// Buffer-aware mid-stream adaptation ([`AbrConfig`]). `None`:
    /// sessions carry no buffer model — a bandwidth squeeze is plan
    /// death ([`SessionWorld::plan_alive`]), the delivery rate is never
    /// sampled, session-time accrues only at lifecycle events, and the
    /// buffer fields of [`SessionOutcome`] stay 0.
    pub abr: Option<AbrConfig>,
    /// Grey-failure detection ([`SlaConfig`]). `None`: a dying plan is
    /// not reported to the world's breaker, no service is observed, no
    /// estimator runs, nothing is probated or evaded.
    pub sla: Option<SlaConfig>,
}

impl Default for SessionEngineConfig {
    fn default() -> SessionEngineConfig {
        SessionEngineConfig {
            resilient: ResilientEngineConfig::default(),
            admission: Some(AdmissionConfig::default()),
            tick_us: 250_000,
            max_recompositions: 8,
            horizon_us: None,
            session_spans: true,
            abr: None,
            sla: None,
        }
    }
}

/// What happened to one session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionOutcome {
    /// The open event was processed (false only when the arrival lay
    /// beyond the horizon).
    pub opened: bool,
    /// Virtual open (arrival) time.
    pub opened_us: u64,
    /// Virtual time the first plan was served (`None` when the session
    /// never started streaming).
    pub started_us: Option<u64>,
    /// Virtual close time (`None` while shed, pending, or active at
    /// the end of the run).
    pub closed_us: Option<u64>,
    /// Why it closed (`None` when shed or still open at the end).
    pub close: Option<CloseReason>,
    /// The admission queue refused the session's open.
    pub shed: Option<ShedReason>,
    /// Mid-stream re-compositions consumed (triggers, whether or not
    /// the re-composition then served).
    pub recompositions: u32,
    /// Progress epochs ticked while active.
    pub epochs: u32,
    /// Composition attempts across open and all re-compositions.
    pub attempts: u32,
    /// Rung serving the session when it ended (`None` when it never
    /// served).
    pub final_rung: Option<DegradationRung>,
    /// `(virtual_time_us, rung)` at open and at every re-composition
    /// that served, in order.
    pub rung_history: Vec<(u64, DegradationRung)>,
    /// Active microseconds with a live plan.
    pub lit_us: u64,
    /// Active microseconds dark (plan invalidated, re-composition not
    /// yet served).
    pub dark_us: u64,
    /// Time-weighted satisfaction integral, `∫ satisfaction dt` in
    /// microsecond units (dark time integrates 0).
    pub satisfaction_us: f64,
    /// Active microseconds by serving rung, indexed by
    /// [`DegradationRung::LADDER`].
    pub rung_us: [u64; 4],
    /// Playback time stalled on an empty buffer, microseconds (0
    /// without a buffer model).
    pub rebuffer_us: u64,
    /// Distinct stall entries (transitions from playing to stalled).
    pub rebuffer_events: u32,
    /// Controller-committed mid-stream rung switches (BOLA mode only;
    /// reactive re-compositions and intra-composition ladder descents
    /// are counted by `recompositions`/`rung_history` as before).
    pub switches: u32,
    /// Highest buffer level observed, microseconds of playout (0
    /// without a buffer model).
    pub buffer_peak_us: u64,
    /// SLA violations the watchdog flagged against this session's plan
    /// services (0 without SLA detection).
    pub sla_violations: u32,
    /// Proactive make-before-break re-compositions committed to evade
    /// an SLA-violating chain (0 without SLA detection).
    pub evasions: u32,
    /// Broker reallocations that changed this session's observed fill
    /// rate mid-stream (0 without a bandwidth broker).
    pub grant_updates: u32,
}

impl SessionOutcome {
    /// Total active (streaming) time, microseconds.
    pub fn active_us(&self) -> u64 {
        self.lit_us.saturating_add(self.dark_us)
    }

    /// Fraction of active time with a live plan (1.0 for a session that
    /// never went dark; 0.0 for one that never streamed).
    pub fn availability(&self) -> f64 {
        let total = self.active_us();
        if total == 0 {
            return 0.0;
        }
        self.lit_us as f64 / total as f64
    }

    /// Time-weighted mean satisfaction over active time (dark time
    /// counts as zero).
    pub fn mean_satisfaction(&self) -> f64 {
        let total = self.active_us();
        if total == 0 {
            return 0.0;
        }
        self.satisfaction_us / total as f64
    }
}

/// Partition of every session the engine processed. `opened` splits
/// exactly into closes + sheds + still-active:
/// `opened == completed + failed_open + gave_up + starved + shed +
/// active_at_end` (the `session_lifecycle` property suite pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCounters {
    /// Sessions handed to the engine.
    pub offered: usize,
    /// Open events processed (arrival within the horizon).
    pub opened: usize,
    /// Closed: holding time elapsed.
    pub completed: usize,
    /// Closed: open composed nothing.
    pub failed_open: usize,
    /// Closed: re-composition budget exhausted.
    pub gave_up: usize,
    /// Closed: a re-composition found nothing.
    pub starved: usize,
    /// Refused by admission at open.
    pub shed: usize,
    /// Open (active, re-composing, or still queued in admission) when
    /// the run ended.
    pub active_at_end: usize,
}

impl SessionCounters {
    /// All closes together.
    pub fn closed(&self) -> usize {
        self.completed + self.failed_open + self.gave_up + self.starved
    }

    /// Whether the partition is exact.
    pub fn partitions_exactly(&self) -> bool {
        self.opened == self.closed() + self.shed + self.active_at_end
    }
}

/// The result of one session-engine run.
#[derive(Debug, Clone)]
pub struct SessionsReport {
    /// One outcome per offered session, in offer order.
    pub outcomes: Vec<SessionOutcome>,
    /// The lifecycle partition.
    pub counters: SessionCounters,
    /// Admission aggregates (zeros when admission was `None`).
    pub admission: AdmissionStats,
    /// Virtual end of the run: the horizon, or the last event time.
    pub end_us: u64,
}

impl SessionsReport {
    /// Total re-compositions triggered across all sessions.
    pub fn recompositions(&self) -> u64 {
        self.outcomes.iter().map(|o| o.recompositions as u64).sum()
    }

    /// Active microseconds by serving rung, summed over sessions.
    pub fn session_us_by_rung(&self) -> [u64; 4] {
        let mut sums = [0u64; 4];
        for outcome in &self.outcomes {
            for (sum, us) in sums.iter_mut().zip(outcome.rung_us) {
                *sum = sum.saturating_add(us);
            }
        }
        sums
    }

    /// Steady-state availability: lit session-time over total active
    /// session-time.
    pub fn availability(&self) -> f64 {
        let lit: u64 = self.outcomes.iter().map(|o| o.lit_us).sum();
        let total: u64 = self.outcomes.iter().map(|o| o.active_us()).sum();
        if total == 0 {
            return 1.0;
        }
        lit as f64 / total as f64
    }

    /// Total stalled playback time across sessions, microseconds.
    pub fn rebuffer_us(&self) -> u64 {
        self.outcomes.iter().map(|o| o.rebuffer_us).sum()
    }

    /// Total controller-committed rung switches across sessions.
    pub fn switches(&self) -> u64 {
        self.outcomes.iter().map(|o| o.switches as u64).sum()
    }

    /// Total SLA violations flagged across sessions.
    pub fn sla_violations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.sla_violations as u64).sum()
    }

    /// Total SLA-triggered evasions committed across sessions.
    pub fn evasions(&self) -> u64 {
        self.outcomes.iter().map(|o| o.evasions as u64).sum()
    }

    /// Stalled time over total playback time (stalled + active), the
    /// X17 headline. 0.0 when nothing streamed.
    pub fn rebuffer_ratio(&self) -> f64 {
        let stalled = self.rebuffer_us();
        let active: u64 = self.outcomes.iter().map(|o| o.active_us()).sum();
        let total = stalled + active;
        if total == 0 {
            return 0.0;
        }
        stalled as f64 / total as f64
    }

    /// Time-weighted mean ladder index over served session-time
    /// (0.0 = everything on `Full`, 3.0 = everything on
    /// `DropSecondary`); 0.0 when nothing served.
    pub fn mean_rung_index(&self) -> f64 {
        let by_rung = self.session_us_by_rung();
        let total: u64 = by_rung.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = by_rung
            .iter()
            .enumerate()
            .map(|(i, us)| i as u64 * us)
            .sum();
        weighted as f64 / total as f64
    }

    /// Re-compositions per active session-hour (0 when nothing
    /// streamed).
    pub fn recompositions_per_session_hour(&self) -> f64 {
        let active_us: u64 = self.outcomes.iter().map(|o| o.active_us()).sum();
        if active_us == 0 {
            return 0.0;
        }
        self.recompositions() as f64 * 3.6e9 / active_us as f64
    }

    /// Mirror the session gauges into `registry`:
    /// `qosc_sessions_*_total` counters for the lifecycle partition,
    /// the `qosc_active_sessions` gauge, the
    /// `qosc_session_recompositions_total` counter and
    /// `qosc_session_seconds_total{rung="…"}` per-rung serving time.
    pub fn record_metrics(&self, registry: &MetricsRegistry) {
        let c = &self.counters;
        for (name, value) in [
            ("qosc_sessions_offered_total", c.offered),
            ("qosc_sessions_opened_total", c.opened),
            ("qosc_sessions_completed_total", c.completed),
            ("qosc_sessions_failed_open_total", c.failed_open),
            ("qosc_sessions_gave_up_total", c.gave_up),
            ("qosc_sessions_starved_total", c.starved),
            ("qosc_sessions_shed_total", c.shed),
        ] {
            registry.counter(name).store(value as u64);
        }
        registry
            .gauge("qosc_active_sessions")
            .set(c.active_at_end as i64);
        registry
            .counter("qosc_session_recompositions_total")
            .store(self.recompositions());
        registry
            .counter("qosc_session_rebuffer_seconds_total")
            .store(self.rebuffer_us() / 1_000_000);
        registry
            .counter("qosc_session_rung_switches_total")
            .store(self.switches());
        for (rung, us) in DegradationRung::LADDER
            .iter()
            .zip(self.session_us_by_rung())
        {
            registry
                .counter(&format!(
                    "qosc_session_seconds_total{{rung=\"{}\"}}",
                    rung.label()
                ))
                .store(us / 1_000_000);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::PriorityClass;
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Network, Node, NodeId, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
    };
    use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};

    struct Fixture {
        formats: FormatRegistry,
        services: ServiceRegistry,
        network: Network,
        server: NodeId,
        client: NodeId,
    }

    fn fixture() -> Fixture {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let server = topo.add_node(Node::unconstrained("server"));
        let proxy = topo.add_node(Node::unconstrained("proxy"));
        let client = topo.add_node(Node::unconstrained("client"));
        topo.connect_simple(server, proxy, 100e6).unwrap();
        topo.connect_simple(proxy, client, 1e6).unwrap();
        let network = Network::new(topo);
        let mut services = ServiceRegistry::new();
        for spec in catalog::full_catalog() {
            services
                .register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
        }
        Fixture {
            formats,
            services,
            network,
            server,
            client,
        }
    }

    impl Fixture {
        fn world(&self) -> StaticWorld<'_> {
            StaticWorld {
                formats: &self.formats,
                services: &self.services,
                network: &self.network,
            }
        }
    }

    fn request(f: &Fixture, i: usize) -> CompositionRequest {
        CompositionRequest {
            profiles: ProfileSet {
                user: UserProfile::demo(&format!("user-{}", i % 3)),
                content: ContentProfile::demo_video("clip"),
                device: DeviceProfile::demo_pda(),
                context: ContextProfile::default(),
                network: NetworkProfile::broadband(),
            },
            sender_host: f.server,
            receiver_host: f.client,
        }
    }

    fn sessions(f: &Fixture, n: usize, hold_us: u64, spacing_us: u64) -> Vec<SessionRequest> {
        (0..n)
            .map(|i| SessionRequest {
                request: request(f, i),
                arrival: ArrivalMeta {
                    arrival_us: i as u64 * spacing_us,
                    priority: PriorityClass::Standard,
                    service_cost_us: 1_000,
                    deadline_budget_us: None,
                },
                hold_us,
                demand_bps: 0,
            })
            .collect()
    }

    #[test]
    fn static_world_sessions_complete_with_full_availability() {
        let f = fixture();
        let mut world = f.world();
        let reqs = sessions(&f, 6, 2_000_000, 100_000);
        let config = SessionEngineConfig {
            admission: None,
            tick_us: 500_000,
            ..SessionEngineConfig::default()
        };
        let report = run_sessions(&mut world, &reqs, &config, &qosc_telemetry::NoopSink);
        assert_eq!(report.counters.opened, 6);
        assert_eq!(report.counters.completed, 6);
        assert!(report.counters.partitions_exactly());
        assert_eq!(report.recompositions(), 0);
        for outcome in &report.outcomes {
            assert_eq!(outcome.close, Some(CloseReason::Completed));
            assert_eq!(outcome.lit_us, 2_000_000, "holds accrue fully lit");
            assert_eq!(outcome.dark_us, 0);
            assert_eq!(outcome.epochs, 3, "ticks at +500ms, +1s, +1.5s");
            assert!(outcome.mean_satisfaction() > 0.0);
        }
        assert!((report.availability() - 1.0).abs() < 1e-12);
        // Rung accounting partitions lit time exactly.
        let by_rung: u64 = report.session_us_by_rung().iter().sum();
        assert_eq!(by_rung, 6 * 2_000_000);
    }

    #[test]
    fn sessions_through_admission_carry_decisions_and_partition() {
        let f = fixture();
        let mut world = f.world();
        let reqs = sessions(&f, 8, 1_000_000, 10_000);
        let config = SessionEngineConfig {
            tick_us: 0,
            ..SessionEngineConfig::default()
        };
        let report = run_sessions(&mut world, &reqs, &config, &qosc_telemetry::NoopSink);
        assert_eq!(report.admission.offered, 8);
        assert!(report.counters.partitions_exactly());
        assert_eq!(
            report.counters.completed + report.counters.shed,
            8,
            "static world: every session either completes or is shed"
        );
    }

    #[test]
    fn horizon_censors_and_counts_active_sessions() {
        let f = fixture();
        let mut world = f.world();
        // Sessions hold for 10s; the horizon cuts at 1s.
        let reqs = sessions(&f, 3, 10_000_000, 1_000);
        let config = SessionEngineConfig {
            admission: None,
            tick_us: 0,
            horizon_us: Some(1_000_000),
            ..SessionEngineConfig::default()
        };
        let report = run_sessions(&mut world, &reqs, &config, &qosc_telemetry::NoopSink);
        assert_eq!(report.counters.active_at_end, 3);
        assert!(report.counters.partitions_exactly());
        assert_eq!(report.end_us, 1_000_000);
        for outcome in &report.outcomes {
            assert!(outcome.close.is_none());
            assert_eq!(
                outcome.lit_us,
                1_000_000 - outcome.opened_us,
                "accrues exactly to the horizon"
            );
        }
    }

    /// Counted-work gate: the agenda's queue holds what the run schedules
    /// — at most a tick and a close per session that opened and whose
    /// last event is still pending, plus one pump per running admission —
    /// so it grows with the live sessions. One queue for everything
    /// started at the offered count, 2 000 here.
    #[test]
    fn the_agenda_queue_grows_with_live_sessions_not_offered_ones() {
        let f = fixture();
        let mut world = f.world();
        let reqs = sessions(&f, 2_000, 100_000, 10_000);
        let config = SessionEngineConfig {
            tick_us: 25_000,
            ..SessionEngineConfig::default()
        };
        assert!(config.admission.is_some(), "pumps are counted too");
        let mut report = None;
        let peak = event_loop::tests::queue_peak_in(|| {
            report = Some(run_sessions(
                &mut world,
                &reqs,
                &config,
                &qosc_telemetry::NoopSink,
            ));
        });
        let report = report.expect("ran");
        assert_eq!(report.counters.completed, reqs.len());
        // Sessions between their open and one tick past their close, at
        // the busiest instant (an open before a close at equal times).
        let mut edges: Vec<(u64, i64)> = report
            .outcomes
            .iter()
            .flat_map(|o| {
                let gone = o.closed_us.expect("completed") + config.tick_us;
                [(o.opened_us, 1), (gone, -1)]
            })
            .collect();
        edges.sort_by_key(|&(t, delta)| (t, -delta));
        let live = edges
            .iter()
            .scan(0i64, |open, &(_, delta)| {
                *open += delta;
                Some(*open)
            })
            .max()
            .unwrap_or(0) as usize;
        assert!(live <= 14, "13 sessions overlap, got {live}");
        assert!(peak >= 2, "ticks and closes were queued");
        assert!(peak <= 3 * live, "peak {peak} for {live} live sessions");
    }

    #[test]
    fn zero_hold_sessions_are_degenerate_batches() {
        let f = fixture();
        let mut world = f.world();
        let reqs = sessions(&f, 4, 0, 0);
        let config = SessionEngineConfig {
            admission: None,
            tick_us: 0,
            session_spans: false,
            ..SessionEngineConfig::default()
        };
        let report = run_sessions(&mut world, &reqs, &config, &qosc_telemetry::NoopSink);
        assert_eq!(report.counters.completed, 4);
        for outcome in &report.outcomes {
            assert_eq!(outcome.closed_us, Some(0));
            assert_eq!(outcome.active_us(), 0);
            assert_eq!(outcome.epochs, 0);
        }
    }
}
