//! The chaos-driven [`SessionWorld`] for the steady-state session
//! engine.
//!
//! `qosc-core`'s session engine is world-agnostic: it asks its world
//! for a composer, for scheduled mutation times, and whether a served
//! plan is still alive. [`ChaosWorld`] is the pipeline's answer — it
//! owns a [`Network`] and a soft-state [`ServiceRegistry`] behind a
//! [`DiscoveryDriver`], and replays
//!
//! * network faults ([`FailureEvent`] — node crashes with correlated
//!   link failures, flaps, bandwidth squeezes),
//! * discovery churn ([`ChaosAction`] — lease-expiry storms), and
//! * bare settle points ([`WorldOp::Settle`] — a discovery tick with no
//!   fault, so lease expiry itself can break a chain mid-session)
//!
//! as the engine's world events. Every application first ticks the
//! discovery driver to the event's virtual time (renewing survivors,
//! expiring the dead — the exact order
//! [`ChaosPlan::drive_discovery`](crate::ChaosPlan::drive_discovery)
//! uses), then applies the operation. A plan is alive while every
//! service it references is still advertised and the network still
//! carries it at the plan's rates.

use crate::chaos::{ChaosAction, ChaosPlan};
use crate::failure::{FailureEvent, FailureSchedule};
use parking_lot::Mutex;
use qosc_broker::{BandwidthBroker, FlowSpec, SessionMap, SharingPolicy};
use qosc_core::{AdaptationPlan, Composer, SessionWorld, WorldStamp};
use qosc_media::FormatRegistry;
use qosc_netsim::{memo::memos_off, LinkId, NetError, Network, NodeId, SimTime};
use qosc_profiles::ServiceSpec;
use qosc_services::{
    DiscoveryConfig, DiscoveryDriver, MemberId, QosObservation, ServiceError, ServiceId,
    ServiceRegistry, TranscoderDescriptor, QOS_PPM,
};

/// Typed construction failure for chaos-world topologies and fleets —
/// what a scorecard bin reports instead of an `unwrap` panic when a
/// link declaration or a service spec is invalid.
#[derive(Debug)]
pub enum WorldBuildError {
    /// Topology or routing construction failed (bad link parameters,
    /// unknown nodes, no route).
    Net(NetError),
    /// A service spec did not resolve against the format registry.
    Service(ServiceError),
}

impl std::fmt::Display for WorldBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldBuildError::Net(e) => write!(f, "world topology construction failed: {e}"),
            WorldBuildError::Service(e) => write!(f, "service fleet construction failed: {e}"),
        }
    }
}

impl std::error::Error for WorldBuildError {}

impl From<NetError> for WorldBuildError {
    fn from(e: NetError) -> WorldBuildError {
        WorldBuildError::Net(e)
    }
}

impl From<ServiceError> for WorldBuildError {
    fn from(e: ServiceError) -> WorldBuildError {
        WorldBuildError::Service(e)
    }
}

/// One scheduled world mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldOp {
    /// Apply a network fault.
    Fault(FailureEvent),
    /// Apply a discovery-plane action (member crash/revive).
    Action(ChaosAction),
    /// Tick the discovery driver only: renew survivors, expire stale
    /// leases. Scheduling one just past `crash time + TTL` makes lease
    /// expiry itself a mid-session chain killer.
    Settle,
}

/// Per-member grey-fault state: 1000 permille means "as advertised".
/// Grey faults degrade *behaviour* while leaving every liveness signal
/// intact, so this state is invisible to `plan_alive`/`plan_routable`
/// by design — only `delivery_ppm`, `observed_latency_us`, and
/// `observe_service` see it.
#[derive(Debug, Clone, Copy)]
struct GreyState {
    /// Latency multiplier, permille of advertised (≥ 1000).
    lag_factor_permille: u16,
    /// Delivered throughput, permille of advertised (≤ 1000).
    sag_throughput_permille: u16,
}

impl Default for GreyState {
    fn default() -> GreyState {
        GreyState {
            lag_factor_permille: 1_000,
            sag_throughput_permille: 1_000,
        }
    }
}

/// How a flow's peak crossing rate maps to its registered demand window:
/// `max_bps = required × REFILL_HEADROOM` lets an uncontended session be
/// granted surplus above real time so its playout buffer can refill
/// (capped downstream by the ABR `max_fill_ppm`), and
/// `min_bps = required / MIN_SHARE_DIV` is the guaranteed floor.
const REFILL_HEADROOM: u64 = 2;
const MIN_SHARE_DIV: u64 = 4;

/// Hit/miss/refresh counters of the per-session delivery memo's
/// *brokered* answers — scorecards use `hits > 0` as proof the cache is
/// actually exercised. Brokerless answers go through the same memo but
/// are not counted, so a brokerless world reads all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryCacheStats {
    /// Full memo hits (plan shape and grant both unchanged).
    pub hits: u64,
    /// Grant-only refreshes: the broker reallocated, the memoized plan
    /// shape (routes, required rate, sag cap) was reused and only the
    /// cheap grant division re-ran.
    pub refreshes: u64,
    /// Full recomputes (new plan generation, world event, registry write
    /// or demand change).
    pub misses: u64,
}

/// Everything a session's delivery answer reads besides the broker's
/// grant: which plan (`plan_gen`; with the session it names one plan
/// within one run), the world it is read in (the whole [`WorldStamp`]:
/// grey state and membership move with world events, and a quarantine
/// or probation between them moves the registry epoch) and the demand
/// floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DeliveryKey {
    plan_gen: u32,
    stamp: WorldStamp,
    demand_bps: u64,
}

/// One session's memoized delivery answer, valid while its key holds.
#[derive(Debug, Clone, Copy)]
struct DeliveryCacheEntry {
    key: DeliveryKey,
    ppm: u64,
    /// Brokered entries only: the shape part of the answer and the grant
    /// epoch `ppm` was divided at, so a reallocation redoes only the
    /// division.
    shape: Option<GrantShape>,
}

/// The grant-independent part of a brokered answer (the route walk),
/// and the broker epoch its entry's `ppm` was divided at.
#[derive(Debug, Clone, Copy)]
struct GrantShape {
    epoch: u64,
    routable: bool,
    required_bps: u64,
    sag_cap_ppm: u64,
}

#[derive(Debug, Default)]
struct DeliveryCache {
    entries: SessionMap<DeliveryCacheEntry>,
    stats: DeliveryCacheStats,
}

/// Meter one memoized sample of `session` at `key` (test builds only).
#[inline(always)]
fn meter_sample(session: u64, key: DeliveryKey) {
    #[cfg(test)]
    delivery_oracle::SAMPLED.with(|sampled| sampled.borrow_mut().push((session, key)));
    #[cfg(not(test))]
    let _ = (session, key);
}

/// Meter one full delivery recompute (test builds only).
#[inline(always)]
fn meter_recompute() {
    #[cfg(test)]
    delivery_oracle::RECOMPUTES.with(|n| n.set(n.get() + 1));
}

/// A mutable world under a chaos schedule, implementing
/// [`SessionWorld`] for [`run_sessions`](qosc_core::run_sessions).
///
/// Construction order matters for determinism the same way it does for
/// the chaos generator: join members first, then schedule events. At
/// equal virtual times events apply in scheduling order (the engine
/// orders world events by `(time, index)`), which is how a node crash
/// keeps its correlated link faults adjacent.
#[derive(Debug)]
pub struct ChaosWorld<'a> {
    formats: &'a FormatRegistry,
    services: ServiceRegistry,
    network: Network,
    driver: DiscoveryDriver,
    members: Vec<MemberId>,
    /// Parallel to `members`: the grey-fault state of each instance.
    grey: Vec<GreyState>,
    /// Advertised per-stage processing latency, virtual µs — the base
    /// a lag window multiplies.
    nominal_latency_us: u64,
    events: Vec<(u64, WorldOp)>,
    times: Vec<u64>,
    /// Cross-session bandwidth broker. `None` (the default) leaves
    /// every delivery answer on the per-plan worst-hop path —
    /// bit-identical to the pre-broker engine.
    broker: Option<BandwidthBroker>,
    /// Bumps on every applied world event (and on sharing-mode
    /// changes): the world-event part of [`ChaosWorld::stamp`].
    world_mutations: u64,
    /// Per-session delivery memo behind `session_delivery_ppm`, with or
    /// without a broker: an answer is reused only at the exact
    /// [`DeliveryKey`] it was computed at (never under [`memos_off`]),
    /// and an entry dies with its session's flow. `(session, plan_gen)`
    /// names a plan only within one `run_sessions`, which is all a
    /// `ChaosWorld` serves (its world events replay from index 0). Only
    /// the serving loop's thread calls `session_delivery_ppm`, so the
    /// lock is never contended; it exists because the trait method takes
    /// `&self` (`parking_lot::Mutex` keeps `ChaosWorld: Sync`).
    delivery_cache: Mutex<DeliveryCache>,
}

impl<'a> ChaosWorld<'a> {
    /// A world over `network` with an empty service fleet.
    pub fn new(
        formats: &'a FormatRegistry,
        network: Network,
        discovery: DiscoveryConfig,
    ) -> ChaosWorld<'a> {
        ChaosWorld {
            formats,
            services: ServiceRegistry::new(),
            network,
            driver: DiscoveryDriver::new(discovery),
            members: Vec::new(),
            grey: Vec::new(),
            nominal_latency_us: 20_000,
            events: Vec::new(),
            times: Vec::new(),
            broker: None,
            world_mutations: 0,
            delivery_cache: Mutex::new(DeliveryCache::default()),
        }
    }

    /// Attach (or detach) the cross-session bandwidth broker. With
    /// `Some(policy)` the session engine's flows are arbitrated by that
    /// policy and delivery answers come from per-session grants; with
    /// `None` the world behaves exactly as it did before brokering
    /// existed. Call before the run starts.
    pub fn set_sharing(&mut self, policy: Option<SharingPolicy>) {
        self.broker = policy.map(BandwidthBroker::new);
        self.world_mutations += 1;
        self.delivery_cache.lock().entries.clear();
        if self.broker.is_some() {
            self.refresh_broker_capacities();
        }
    }

    /// The attached broker, if any.
    pub fn broker(&self) -> Option<&BandwidthBroker> {
        self.broker.as_ref()
    }

    /// Counters of the per-session delivery memo.
    pub fn delivery_cache_stats(&self) -> DeliveryCacheStats {
        self.delivery_cache.lock().stats
    }

    /// Re-read every directed link's current headroom (capacity minus
    /// background utilization minus frame-replay reservations) into the
    /// broker and rebalance. Runs at attach time and after every world
    /// event — a Squeeze lands here as shrunken effective capacity.
    fn refresh_broker_capacities(&mut self) {
        let caps: Vec<(LinkId, bool, u64)> = self
            .network
            .topology()
            .link_ids()
            .flat_map(|link| [true, false].into_iter().map(move |dir| (link, dir)))
            .map(|(link, dir)| {
                let headroom = self.network.link_headroom(link, dir).unwrap_or(0.0);
                (link, dir, headroom.max(0.0).floor() as u64)
            })
            .collect();
        let Some(broker) = self.broker.as_mut() else {
            return;
        };
        for (link, dir, cap) in caps {
            broker.set_capacity(link, dir, cap);
        }
        broker.rebalance();
    }

    /// The directed links a plan crosses and its peak crossing rate in
    /// bps (final hop floored by the session's own demand). A flow is
    /// registered at its peak rate on every hop — conservative for the
    /// lower-rate crossings, but one rate per flow keeps the
    /// water-filling kernel exact and integer.
    fn flow_shape(
        network: &Network,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> (Vec<(LinkId, bool)>, u64) {
        let hop_count = plan.steps.len().saturating_sub(1);
        let mut hops = Vec::new();
        let mut required = 0f64;
        for (k, pair) in plan.steps.windows(2).enumerate() {
            if pair[0].host == pair[1].host {
                continue;
            }
            let Ok(route_hops) = network
                .route_between(pair[0].host, pair[1].host)
                .and_then(|route| route.directed_hops(network.topology()))
            else {
                continue;
            };
            hops.extend(route_hops);
            let mut rate = pair[1].input_bps;
            if k + 1 == hop_count {
                rate = rate.max(demand_bps as f64);
            }
            required = required.max(rate);
        }
        (hops, required.max(1.0).round() as u64)
    }

    /// Worst grey throughput sag across the plan's services, as a ppm
    /// delivery cap (`u64::MAX` when every member is healthy).
    fn plan_sag_cap(&self, plan: &AdaptationPlan) -> u64 {
        let mut cap = u64::MAX;
        for step in &plan.steps {
            if let Some(id) = step.service {
                if let Some(index) = self.grey_index(id) {
                    let sag = u64::from(self.grey[index].sag_throughput_permille);
                    if sag < 1_000 {
                        cap = cap.min(sag * 1_000);
                    }
                }
            }
        }
        cap
    }

    /// Join a service instance at virtual time 0. Returns its member
    /// id; the member's *index* (join order) is what
    /// [`ChaosAction`] addresses.
    pub fn join(&mut self, descriptor: TranscoderDescriptor) -> MemberId {
        let member = self
            .driver
            .join(&mut self.services, descriptor, SimTime::ZERO);
        self.members.push(member);
        self.grey.push(GreyState::default());
        member
    }

    /// Resolve `spec` against the world's format registry and join the
    /// resulting instance on `host`, surfacing resolution failures as
    /// a typed [`WorldBuildError`] instead of panicking — the
    /// construction path scorecard bins should use.
    pub fn try_join_spec(
        &mut self,
        spec: &ServiceSpec,
        host: NodeId,
    ) -> Result<MemberId, WorldBuildError> {
        let descriptor = TranscoderDescriptor::resolve(spec, self.formats, host)?;
        Ok(self.join(descriptor))
    }

    /// Members in join order.
    pub fn members(&self) -> &[MemberId] {
        &self.members
    }

    /// Schedule one operation at `at_us`.
    pub fn schedule(&mut self, at_us: u64, op: WorldOp) {
        self.events.push((at_us, op));
        self.times.push(at_us);
    }

    /// Schedule a network fault.
    pub fn schedule_fault(&mut self, at_us: u64, event: FailureEvent) {
        self.schedule(at_us, WorldOp::Fault(event));
    }

    /// Schedule a discovery action.
    pub fn schedule_action(&mut self, at_us: u64, action: ChaosAction) {
        self.schedule(at_us, WorldOp::Action(action));
    }

    /// Schedule a bare discovery tick (lease-expiry checkpoint).
    pub fn schedule_settle(&mut self, at_us: u64) {
        self.schedule(at_us, WorldOp::Settle);
    }

    /// Load a compiled [`ChaosPlan`]: its network faults and discovery
    /// actions merge into one time-ordered schedule (stable — faults
    /// keep their node-then-links adjacency, and at equal instants
    /// faults apply before discovery actions: network fault first,
    /// discovery churn second).
    pub fn load_plan(&mut self, plan: &ChaosPlan) {
        let mut merged: Vec<(u64, WorldOp)> = plan
            .schedule()
            .events()
            .iter()
            .map(|&(t, e)| (t.as_micros(), WorldOp::Fault(e)))
            .chain(
                plan.actions()
                    .iter()
                    .map(|&(t, a)| (t.as_micros(), WorldOp::Action(a))),
            )
            .collect();
        merged.sort_by_key(|&(t, _)| t);
        for (t, op) in merged {
            self.schedule(t, op);
        }
    }

    /// The current network state.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The current registry state.
    pub fn services(&self) -> &ServiceRegistry {
        &self.services
    }

    /// Replace the advertised per-stage processing latency that
    /// [`observed_latency_us`](SessionWorld::observed_latency_us)
    /// multiplies under lag windows (defaults to 20 ms).
    pub fn set_nominal_latency_us(&mut self, nominal_us: u64) {
        self.nominal_latency_us = nominal_us;
    }

    /// The member index holding service id `id` *right now*. Ids are
    /// per-incarnation: after a crash/revive cycle the old id resolves
    /// to nothing, which keeps observations from leaking across
    /// incarnations.
    fn grey_index(&self, id: ServiceId) -> Option<usize> {
        let member = self.driver.member_of(id)?;
        // `ChaosWorld::join` is `driver.join`'s only caller, and the driver
        // numbers members in join order: `members` is sorted, and a
        // member's position in it is its position in the driver.
        let index = self.members.binary_search(&member).ok();
        debug_assert_eq!(index, self.members.iter().position(|&m| m == member));
        index
    }

    /// The world this instant reads, applied world events included.
    fn stamp(&self) -> WorldStamp {
        WorldStamp::of(&self.services, &self.network).with_world_events(self.world_mutations)
    }
}

impl SessionWorld for ChaosWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        Composer {
            formats: self.formats,
            services: &self.services,
            network: &self.network,
        }
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        for step in &plan.steps {
            if let Some(id) = step.service {
                if !self.services.is_available(id) {
                    return false;
                }
            }
        }
        !plan_affected(&self.network, plan)
    }

    /// Hard liveness only: hosts up, services advertised, routes
    /// intact. A bandwidth squeeze does *not* fail this — buffer-aware
    /// sessions observe it through [`delivery_ppm`](Self::delivery_ppm)
    /// as a draining buffer instead.
    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        for step in &plan.steps {
            if let Some(id) = step.service {
                if !self.services.is_available(id) {
                    return false;
                }
            }
            if self.network.node_failed(step.host) {
                return false;
            }
        }
        for pair in plan.steps.windows(2) {
            if pair[0].host == pair[1].host {
                continue;
            }
            if !self.network.routable(pair[0].host, pair[1].host) {
                return false;
            }
        }
        true
    }

    /// Achieved delivery rate: the worst hop's `available / required`
    /// ratio in parts-per-million. `required` is each hop's planned
    /// crossing rate; the final hop is floored by the session's own
    /// bitrate demand so an under-provisioned plan cannot hide behind
    /// a tiny last edge. An unroutable hop delivers nothing, and an
    /// unroutable *plan* delivers nothing even when every hop is
    /// same-host (the dead-host edge case that used to report
    /// `u64::MAX`): `delivery_ppm == 0 ⇔ !plan_routable` for hard
    /// faults, so the ABR fill model can never divide by a
    /// routable-but-zero plan. The one legitimate asymmetry left is a
    /// full bandwidth squeeze — delivery 0 while routable — which is a
    /// soft fault by definition.
    ///
    /// Grey throughput sags scale the result too: a step served by a
    /// sagging member caps the whole plan at its delivered fraction,
    /// whatever the network says — a sick transcoder on a fat link is
    /// still sick.
    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
        if !self.plan_routable(plan) {
            return 0;
        }
        let hops = plan.steps.len().saturating_sub(1);
        let mut worst = u64::MAX;
        for (k, pair) in plan.steps.windows(2).enumerate() {
            if pair[0].host == pair[1].host {
                continue;
            }
            let mut required = pair[1].input_bps;
            if k + 1 == hops {
                required = required.max(demand_bps as f64);
            }
            if required <= 0.0 {
                continue;
            }
            match self.network.available_between(pair[0].host, pair[1].host) {
                Ok(available) => {
                    let ratio = (available / required) * 1e6;
                    let ppm = if ratio.is_finite() && ratio > 0.0 {
                        ratio.min(u64::MAX as f64) as u64
                    } else {
                        0
                    };
                    worst = worst.min(ppm);
                }
                Err(_) => return 0,
            }
        }
        for step in &plan.steps {
            if let Some(id) = step.service {
                if let Some(index) = self.grey_index(id) {
                    let sag = u64::from(self.grey[index].sag_throughput_permille);
                    if sag < 1_000 {
                        worst = worst.min(sag * 1_000);
                    }
                }
            }
        }
        worst
    }

    /// Observed end-to-end processing latency of the plan's service
    /// stages: advertised nominal latency per stage, multiplied by any
    /// active lag window. Grey lag shows up here (and in
    /// [`observe_service`](SessionWorld::observe_service)) while every
    /// liveness answer stays green.
    fn observed_latency_us(&self, plan: &AdaptationPlan) -> u64 {
        let mut total = 0u64;
        for step in &plan.steps {
            if let Some(id) = step.service {
                let factor = self
                    .grey_index(id)
                    .map(|i| u64::from(self.grey[i].lag_factor_permille))
                    .unwrap_or(1_000);
                total = total.saturating_add(self.nominal_latency_us * factor / 1_000);
            }
        }
        total
    }

    /// One normalized QoS sample for a live service: its delivered
    /// throughput and latency as ratios of advertised. Healthy members
    /// report exactly [`QosObservation::nominal`]; ids from dead
    /// incarnations report nothing.
    fn observe_service(&self, service: ServiceId) -> Option<QosObservation> {
        let index = self.grey_index(service)?;
        let state = self.grey[index];
        Some(QosObservation {
            throughput_ppm: u64::from(state.sag_throughput_permille) * 1_000,
            latency_factor_ppm: (u64::from(state.lag_factor_permille) * 1_000).max(QOS_PPM),
        })
    }

    fn probate_service(&mut self, service: ServiceId, observed_ppm: u64, now_us: u64) -> bool {
        self.services
            .probate(service, observed_ppm, SimTime(now_us))
    }

    fn probe_service(&mut self, service: ServiceId, now_us: u64) -> bool {
        self.services.probe_success(service, SimTime(now_us))
    }

    fn report_service_failure(&mut self, service: ServiceId, now_us: u64) {
        // Dead or already-quarantined ids are documented no-ops — many
        // sessions can report the same member in one instant.
        let _ = self.services.report_failure(service, SimTime(now_us));
    }

    fn world_event_times(&self) -> &[u64] {
        &self.times
    }

    fn apply_world_event(&mut self, index: usize) {
        self.world_mutations += 1;
        let (t, op) = self.events[index];
        // Discovery time advances to every event, fault or not — the
        // same tick-then-act order as ChaosPlan::drive_discovery. A
        // quarantine whose cooldown has passed releases on the same
        // cadence; without failure reports this is a silent no-op, so
        // detection-off runs are bit-identical to the pre-SLA engine.
        self.driver.tick(&mut self.services, SimTime(t));
        self.services.release_quarantines(SimTime(t));
        match op {
            WorldOp::Fault(event) => FailureSchedule::apply(event, &mut self.network),
            WorldOp::Action(ChaosAction::CrashMember(i)) => {
                if let Some(&member) = self.members.get(i) {
                    self.driver.crash(member);
                }
            }
            WorldOp::Action(ChaosAction::ReviveMember(i)) => {
                if let Some(&member) = self.members.get(i) {
                    let _ = self.driver.revive(&mut self.services, member, SimTime(t));
                }
            }
            WorldOp::Action(ChaosAction::LagMember {
                index,
                factor_permille,
            }) => {
                if let Some(state) = self.grey.get_mut(index) {
                    state.lag_factor_permille = factor_permille.max(1_000);
                }
            }
            WorldOp::Action(ChaosAction::UnlagMember(i)) => {
                if let Some(state) = self.grey.get_mut(i) {
                    state.lag_factor_permille = 1_000;
                }
            }
            WorldOp::Action(ChaosAction::SagMember {
                index,
                throughput_permille,
            }) => {
                if let Some(state) = self.grey.get_mut(index) {
                    state.sag_throughput_permille = throughput_permille.min(1_000);
                }
            }
            WorldOp::Action(ChaosAction::UnsagMember(i)) => {
                if let Some(state) = self.grey.get_mut(i) {
                    state.sag_throughput_permille = 1_000;
                }
            }
            WorldOp::Settle => {}
        }
        // Whatever the event did to effective capacity (Squeeze,
        // Unsqueeze, node/link failures and restores), the broker sees
        // it on the same instant and reallocates before any session
        // reacts.
        if self.broker.is_some() {
            self.refresh_broker_capacities();
        }
    }

    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        demand_bps: u64,
        weight: u32,
    ) {
        let Some(broker) = self.broker.as_mut() else {
            return;
        };
        let (hops, required) = Self::flow_shape(&self.network, plan, demand_bps);
        let max_bps = required.saturating_mul(REFILL_HEADROOM);
        let min_bps = required / MIN_SHARE_DIV;
        broker.register(FlowSpec {
            session,
            min_bps,
            max_bps,
            weight,
            hops,
        });
    }

    fn deregister_session_flow(&mut self, session: u64) {
        if let Some(broker) = self.broker.as_mut() {
            broker.deregister(session);
        }
        // A departed flow is either closed for good or comes back under a
        // new plan generation: its memo entry can never hit again, so the
        // memo tracks live sessions, not offered ones.
        self.delivery_cache.get_mut().entries.remove(&session);
    }

    fn grant_epoch(&self) -> u64 {
        self.broker.as_ref().map_or(0, |b| b.epoch())
    }

    /// Per-session delivery, memoized per session at its
    /// `DeliveryKey`. Without a broker it is the shared-fate
    /// [`delivery_ppm`](Self::delivery_ppm). With one it is the
    /// session's granted rate over its plan's peak required rate, in ppm,
    /// in place of the worst-hop division; hard-unroutable plans still
    /// deliver 0 and grey sags still cap the result, so every invariant
    /// of `delivery_ppm` carries over.
    fn session_delivery_ppm(
        &self,
        session: u64,
        plan_gen: u32,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> u64 {
        let grant = match self.broker.as_ref() {
            None => None,
            Some(broker) => match broker.grant(session) {
                Some(grant) => Some((grant, broker.epoch())),
                // Not yet registered (e.g. a probe before adoption):
                // answer shared-fate rather than starving the session.
                None => return self.delivery_ppm(plan, demand_bps),
            },
        };
        let key = DeliveryKey {
            plan_gen,
            stamp: self.stamp(),
            demand_bps,
        };
        meter_sample(session, key);
        if !memos_off() {
            let mut cache = self.delivery_cache.lock();
            let DeliveryCache { entries, stats } = &mut *cache;
            if let Some(entry) = entries.get_mut(&session).filter(|e| e.key == key) {
                match (grant, entry.shape.as_mut()) {
                    (None, None) => return entry.ppm,
                    (Some((_, epoch)), Some(shape)) if shape.epoch == epoch => {
                        stats.hits += 1;
                        return entry.ppm;
                    }
                    // Broker reallocation: redo only the grant division.
                    (Some((grant, epoch)), Some(shape)) => {
                        shape.epoch = epoch;
                        entry.ppm = shape.granted_ppm(grant);
                        stats.refreshes += 1;
                        return entry.ppm;
                    }
                    // `set_sharing` empties the memo, so an entry always
                    // matches the world's mode; recompute if it does not.
                    _ => {}
                }
            }
        }
        // Full recompute outside the lock: routability and the route
        // walk dominate.
        meter_recompute();
        let (ppm, shape) = match grant {
            None => (self.delivery_ppm(plan, demand_bps), None),
            Some((grant, epoch)) => {
                let shape = GrantShape {
                    epoch,
                    routable: self.plan_routable(plan),
                    required_bps: Self::flow_shape(&self.network, plan, demand_bps).1,
                    sag_cap_ppm: self.plan_sag_cap(plan),
                };
                (shape.granted_ppm(grant), Some(shape))
            }
        };
        let mut cache = self.delivery_cache.lock();
        cache
            .entries
            .insert(session, DeliveryCacheEntry { key, ppm, shape });
        if shape.is_some() {
            cache.stats.misses += 1;
        }
        ppm
    }
}

/// Whether a fault set on `network` breaks the plan: a stage host is
/// failed, or some hop no longer has a route / its reserved rate.
/// [`ChaosWorld::plan_alive`]'s network half.
fn plan_affected(network: &Network, plan: &qosc_core::AdaptationPlan) -> bool {
    for step in &plan.steps {
        if network.node_failed(step.host) {
            return true;
        }
    }
    for pair in plan.steps.windows(2) {
        match network.available_between(pair[0].host, pair[1].host) {
            Ok(available) => {
                // Small relative slack: the optimizer works to the same
                // boundary within bisection tolerance.
                if available * (1.0 + 1e-6) + 1e-6 < pair[1].input_bps {
                    return true;
                }
            }
            Err(_) => return true,
        }
    }
    false
}

impl GrantShape {
    /// The grant-dependent half of a brokered delivery answer: granted
    /// rate over required rate in ppm, zeroed for unroutable plans,
    /// capped by the worst grey sag.
    fn granted_ppm(&self, grant: u64) -> u64 {
        if !self.routable {
            return 0;
        }
        let ppm = grant.saturating_mul(1_000_000) / self.required_bps.max(1);
        ppm.min(self.sag_cap_ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosModel;
    use qosc_core::{
        run_sessions, ArrivalMeta, CompositionRequest, PriorityClass, SelectOptions,
        SessionEngineConfig, SessionRequest,
    };
    use qosc_netsim::{LinkId, Node, NodeId, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
    };
    use qosc_services::catalog;

    pub(super) struct Fixture {
        pub(super) formats: FormatRegistry,
    }

    pub(super) struct Hosts {
        pub(super) server: NodeId,
        pub(super) proxy: NodeId,
        pub(super) client: NodeId,
        pub(super) last_hop: LinkId,
    }

    pub(super) fn fixture() -> Fixture {
        Fixture {
            formats: FormatRegistry::with_builtins(),
        }
    }

    /// server —100M— proxy —1M— client, with the full transcoder
    /// catalog joined on the proxy through the discovery driver.
    pub(super) fn world(f: &Fixture) -> (ChaosWorld<'_>, Hosts) {
        let mut topo = Topology::new();
        let server = topo.add_node(Node::unconstrained("server"));
        let proxy = topo.add_node(Node::unconstrained("proxy"));
        let client = topo.add_node(Node::unconstrained("client"));
        topo.connect_simple(server, proxy, 100e6).unwrap();
        let last_hop = topo.connect_simple(proxy, client, 1e6).unwrap();
        let mut world = ChaosWorld::new(&f.formats, Network::new(topo), DiscoveryConfig::default());
        for spec in catalog::full_catalog() {
            world.join(TranscoderDescriptor::resolve(&spec, &f.formats, proxy).unwrap());
        }
        (
            world,
            Hosts {
                server,
                proxy,
                client,
                last_hop,
            },
        )
    }

    pub(super) fn profiles() -> ProfileSet {
        ProfileSet {
            user: UserProfile::demo("user-0"),
            content: ContentProfile::demo_video("clip"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::broadband(),
        }
    }

    fn session(h: &Hosts, arrival_us: u64, hold_us: u64) -> SessionRequest {
        SessionRequest {
            request: CompositionRequest {
                profiles: profiles(),
                sender_host: h.server,
                receiver_host: h.client,
            },
            arrival: ArrivalMeta {
                arrival_us,
                priority: PriorityClass::Standard,
                service_cost_us: 1_000,
                deadline_budget_us: None,
            },
            hold_us,
            demand_bps: 0,
        }
    }

    #[test]
    fn lease_expiry_after_crash_kills_plan_liveness() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let composition = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap();
        let plan = composition.plan.expect("demo scenario composes a chain");
        assert!(
            plan.steps.iter().any(|s| s.service.is_some()),
            "the PDA chain rides a transcoder"
        );
        assert!(w.plan_alive(&plan));

        let crash_us = 1_000_000;
        let member_count = w.members().len();
        for i in 0..member_count {
            w.schedule_action(crash_us, ChaosAction::CrashMember(i));
        }
        let ttl = DiscoveryConfig::default().ttl.as_micros();
        w.schedule_settle(crash_us + ttl + 1);

        // Crashes alone stop renewal; the leases are still live.
        for i in 0..member_count {
            w.apply_world_event(i);
        }
        assert!(w.plan_alive(&plan), "leases outlive the crash until TTL");
        // The settle tick past the TTL expires them.
        w.apply_world_event(member_count);
        assert!(!w.plan_alive(&plan));
        assert_eq!(w.services().live_count(), 0);
    }

    #[test]
    fn network_fault_kills_plan_liveness_without_touching_leases() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        assert!(w.plan_alive(&plan));
        w.schedule_fault(500_000, FailureEvent::NodeDown(h.proxy));
        w.apply_world_event(0);
        assert!(!w.plan_alive(&plan), "the proxy hosts every stage");
        assert_ne!(w.services().live_count(), 0, "leases are untouched");
    }

    #[test]
    fn load_plan_yields_a_time_sorted_schedule() {
        let f = fixture();
        let mut topo = Topology::new();
        let a = topo.add_node(Node::unconstrained("a"));
        let b = topo.add_node(Node::unconstrained("b"));
        topo.connect_simple(a, b, 1e6).unwrap();
        let chaos = ChaosPlan::generate(&topo, 4, &ChaosModel::default(), 7, 1.0);
        let (mut w, _) = world(&f);
        w.load_plan(&chaos);
        let times = w.world_event_times();
        assert_eq!(
            times.len(),
            chaos.schedule().events().len() + chaos.actions().len()
        );
        assert!(times.windows(2).all(|t| t[0] <= t[1]));
    }

    #[test]
    fn squeeze_degrades_delivery_without_failing_routability() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        assert!(w.plan_alive(&plan));
        assert!(w.plan_routable(&plan));
        let healthy = w.delivery_ppm(&plan, 0);
        assert!(
            healthy >= 1_000_000,
            "a freshly composed plan keeps up: {healthy} ppm"
        );
        // Choke the last hop to 95% background load: the plan dies
        // under the bandwidth check but stays routable, and delivery
        // drops below real time.
        w.schedule_fault(
            1_000_000,
            FailureEvent::Squeeze {
                link: h.last_hop,
                permille: 950,
            },
        );
        w.apply_world_event(0);
        assert!(!w.plan_alive(&plan), "squeeze breaks the soft liveness");
        assert!(w.plan_routable(&plan), "squeeze keeps hard liveness");
        let squeezed = w.delivery_ppm(&plan, 0);
        assert!(
            squeezed < healthy && squeezed < 1_000_000,
            "squeezed delivery falls behind playback: {squeezed} ppm"
        );
        // A demand floor above the squeezed edge lowers the ratio
        // further.
        assert!(w.delivery_ppm(&plan, 10_000_000) < squeezed.max(1));
    }

    #[test]
    fn hard_faults_fail_routability_too() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        w.schedule_fault(500_000, FailureEvent::NodeDown(h.proxy));
        w.apply_world_event(0);
        assert!(!w.plan_routable(&plan), "a dead host is a hard fault");
        assert_eq!(w.delivery_ppm(&plan, 0), 0, "nothing is delivered");
    }

    #[test]
    fn delivery_and_routability_agree_on_dead_hosts_even_same_host_plans() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let mut plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        // Collapse every stage onto the proxy: no cross-host hop is
        // left, the shape that used to slip past the hop loop and
        // report u64::MAX delivery from a dead host.
        for step in &mut plan.steps {
            step.host = h.proxy;
        }
        assert!(w.plan_routable(&plan));
        assert!(w.delivery_ppm(&plan, 0) > 0);
        w.schedule_fault(500_000, FailureEvent::NodeDown(h.proxy));
        w.apply_world_event(0);
        assert!(!w.plan_routable(&plan));
        assert_eq!(
            w.delivery_ppm(&plan, 0),
            0,
            "delivery_ppm == 0 must hold whenever a hard fault kills routability"
        );
    }

    #[test]
    fn sag_degrades_delivery_while_every_liveness_signal_stays_green() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        let sick = plan.steps.iter().find_map(|s| s.service).unwrap();
        let index = w
            .members()
            .iter()
            .position(|&m| w.driver.member_of(sick) == Some(m))
            .unwrap();
        assert_eq!(
            w.observe_service(sick),
            Some(QosObservation::nominal()),
            "healthy members observe as advertised"
        );

        w.schedule_action(
            1_000_000,
            ChaosAction::SagMember {
                index,
                throughput_permille: 300,
            },
        );
        w.apply_world_event(0);
        // The whole point of a grey failure: liveness stays green…
        assert!(w.plan_alive(&plan), "sag is invisible to soft liveness");
        assert!(w.plan_routable(&plan), "and to hard liveness");
        // …while behaviour collapses.
        assert_eq!(w.delivery_ppm(&plan, 0), 300_000, "30% of advertised");
        let obs = w.observe_service(sick).unwrap();
        assert_eq!(obs.throughput_ppm, 300_000);
        assert_eq!(obs.latency_factor_ppm, 1_000_000);
        // Recovery restores full delivery.
        w.schedule_action(2_000_000, ChaosAction::UnsagMember(index));
        w.apply_world_event(1);
        assert!(w.delivery_ppm(&plan, 0) >= 1_000_000);
        assert_eq!(w.observe_service(sick), Some(QosObservation::nominal()));
    }

    #[test]
    fn lag_inflates_observed_latency_without_touching_delivery() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        let sick = plan.steps.iter().find_map(|s| s.service).unwrap();
        let index = w
            .members()
            .iter()
            .position(|&m| w.driver.member_of(sick) == Some(m))
            .unwrap();
        let stages = plan.steps.iter().filter(|s| s.service.is_some()).count() as u64;
        w.set_nominal_latency_us(10_000);
        assert_eq!(w.observed_latency_us(&plan), stages * 10_000);
        let healthy_delivery = w.delivery_ppm(&plan, 0);

        w.schedule_action(
            1_000_000,
            ChaosAction::LagMember {
                index,
                factor_permille: 3_000,
            },
        );
        w.apply_world_event(0);
        assert!(w.plan_alive(&plan) && w.plan_routable(&plan));
        assert_eq!(
            w.observed_latency_us(&plan),
            (stages - 1) * 10_000 + 30_000,
            "the lagged stage runs 3x slow"
        );
        assert_eq!(w.delivery_ppm(&plan, 0), healthy_delivery);
        let obs = w.observe_service(sick).unwrap();
        assert_eq!(obs.latency_factor_ppm, 3_000_000);
        assert_eq!(obs.throughput_ppm, 1_000_000);
    }

    #[test]
    fn world_probation_hooks_route_to_the_registry() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        let sick = plan.steps.iter().find_map(|s| s.service).unwrap();
        assert!(w.probate_service(sick, 300_000, 1_000_000));
        assert!(w.services().is_probated(sick));
        assert!(w.plan_alive(&plan), "probation never kills liveness");
        assert!(!w.services().selection_penalties().is_empty());
        // Half-open probes clear it after the configured count of
        // distinct instants.
        let needed = w.services().probation_config().probe_successes;
        for k in 0..needed as u64 {
            w.probe_service(sick, 2_000_000 + k);
        }
        assert!(!w.services().is_probated(sick));
    }

    #[test]
    fn try_join_spec_surfaces_resolution_errors() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let joined_before = w.members().len();
        let mut bogus = catalog::full_catalog().remove(0);
        bogus.conversions[0].input = "no-such-format".to_string();
        let err = w.try_join_spec(&bogus, h.proxy).unwrap_err();
        assert!(
            matches!(err, WorldBuildError::Service(_)),
            "resolution failures are typed, got {err}"
        );
        assert!(!err.to_string().is_empty());
        assert_eq!(w.members().len(), joined_before, "nothing joined");
        // A valid spec joins through the same path.
        let spec = catalog::full_catalog().remove(0);
        let member = w.try_join_spec(&spec, h.proxy).unwrap();
        assert_eq!(w.members().len(), joined_before + 1);
        assert_eq!(w.members()[joined_before], member);
    }

    #[test]
    fn broker_splits_a_bottleneck_and_squeeze_shrinks_grants() {
        let f = fixture();
        let (mut w, h) = world(&f);
        w.set_sharing(Some(SharingPolicy::WeightedMaxMin));
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        // Two equal-weight sessions pinned to the same plan shape share
        // the 1 Mbps last hop.
        w.register_session_flow(0, &plan, 0, 2);
        w.register_session_flow(1, &plan, 0, 2);
        let broker = w.broker().expect("sharing is on");
        let (g0, g1) = (broker.grant(0).unwrap(), broker.grant(1).unwrap());
        assert_eq!(g0, g1, "equal weights over one bottleneck split evenly");
        assert!(g0 + g1 <= 1_000_000, "grants fit the 1 Mbps edge");
        assert!(g0 > 0);
        let epoch_before = broker.epoch();

        // Squeeze the last hop to 95% background load: the same-instant
        // capacity refresh must shrink both grants and bump the epoch.
        w.schedule_fault(
            1_000_000,
            FailureEvent::Squeeze {
                link: h.last_hop,
                permille: 950,
            },
        );
        w.apply_world_event(0);
        let broker = w.broker().unwrap();
        assert!(broker.epoch() > epoch_before, "reallocation is visible");
        let squeezed = broker.grant(0).unwrap();
        assert!(squeezed < g0, "grants shrink under the squeeze");
        // The 5% residual is below the two sessions' guaranteed floors,
        // so each collapses to exactly its min (floors are never
        // preempted, even oversubscribed — admission's job to prevent).
        assert_eq!(squeezed, broker.flow(0).unwrap().min_bps);
        // Departure frees the share without touching the survivor's
        // floor (preemption-free reallocation).
        w.deregister_session_flow(1);
        let broker = w.broker().unwrap();
        assert!(broker.grant(1).is_none());
        assert!(broker.grant(0).unwrap() >= squeezed);
    }

    #[test]
    fn brokered_delivery_memo_hits_and_refreshes() {
        let f = fixture();
        let (mut w, h) = world(&f);
        w.set_sharing(Some(SharingPolicy::WeightedMaxMin));
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        w.register_session_flow(0, &plan, 0, 2);
        let first = w.session_delivery_ppm(0, 0, &plan, 0);
        assert!(first > 0, "an uncontended brokered session delivers");
        let second = w.session_delivery_ppm(0, 0, &plan, 0);
        assert_eq!(first, second);
        let stats = w.delivery_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));

        // A reallocation (new flow on the shared edge) invalidates only
        // the grant-dependent half: the next answer is a refresh, not a
        // route re-walk, and reflects the halved grant.
        w.register_session_flow(1, &plan, 0, 2);
        let contended = w.session_delivery_ppm(0, 0, &plan, 0);
        assert!(contended < first, "contention halves the grant");
        let stats = w.delivery_cache_stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.refreshes),
            (1, 1, 1),
            "epoch-only change takes the refresh path"
        );
    }

    #[test]
    fn delivery_memo_forgets_departed_sessions() {
        let f = fixture();
        let (mut w, h) = world(&f);
        w.set_sharing(Some(SharingPolicy::WeightedMaxMin));
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        let memo_size = |w: &ChaosWorld| w.delivery_cache.lock().entries.len();
        for session in 0..5 {
            w.register_session_flow(session, &plan, 0, 2);
            w.session_delivery_ppm(session, 0, &plan, 0);
            assert_eq!(memo_size(&w), w.broker().unwrap().flow_count());
        }
        for session in [3, 0, 4] {
            w.deregister_session_flow(session);
            assert_eq!(memo_size(&w), w.broker().unwrap().flow_count());
        }
        // A stale sample of a departed session answers shared-fate and
        // leaves the memo alone.
        let stats = w.delivery_cache_stats();
        w.session_delivery_ppm(3, 0, &plan, 0);
        assert_eq!(memo_size(&w), 2);
        assert_eq!(w.delivery_cache_stats(), stats);
    }

    #[test]
    fn without_sharing_the_broker_paths_stay_cold() {
        let f = fixture();
        let (mut w, h) = world(&f);
        let plan = w
            .composer()
            .compose(&profiles(), h.server, h.client, &SelectOptions::default())
            .unwrap()
            .plan
            .unwrap();
        assert_eq!(w.grant_epoch(), 0, "no broker, no epochs");
        w.register_session_flow(0, &plan, 0, 2);
        assert!(w.broker().is_none(), "registration is a no-op");
        assert_eq!(
            w.session_delivery_ppm(0, 0, &plan, 0),
            w.delivery_ppm(&plan, 0),
            "per-session delivery falls back to shared-fate"
        );
        let stats = w.delivery_cache_stats();
        assert_eq!(stats, DeliveryCacheStats::default(), "memo never touched");
        // Turning sharing on and off again restores the cold path.
        w.set_sharing(Some(SharingPolicy::Fcfs));
        assert!(w.broker().is_some());
        w.set_sharing(None);
        assert_eq!(w.grant_epoch(), 0);
        assert_eq!(
            w.session_delivery_ppm(0, 0, &plan, 0),
            w.delivery_ppm(&plan, 0)
        );
    }

    #[test]
    fn squeeze_mid_session_forces_recomposition() {
        let f = fixture();
        let (mut w, h) = world(&f);
        // Choke the last hop to 95% background load at 1s, release at
        // 2s; sessions hold for 3s and must re-compose through it.
        w.schedule_fault(
            1_000_000,
            FailureEvent::Squeeze {
                link: h.last_hop,
                permille: 950,
            },
        );
        w.schedule_fault(2_000_000, FailureEvent::Unsqueeze(h.last_hop));
        let reqs: Vec<SessionRequest> = (0..2).map(|_| session(&h, 0, 3_000_000)).collect();
        let config = SessionEngineConfig {
            admission: None,
            tick_us: 250_000,
            ..SessionEngineConfig::default()
        };
        let report = run_sessions(&mut w, &reqs, &config, &qosc_telemetry::NoopSink);
        assert!(report.counters.partitions_exactly());
        assert!(
            report.recompositions() >= 1,
            "the squeeze must break at least one live plan"
        );
        for outcome in &report.outcomes {
            // Every re-composition adopts a plan (or closes), so the
            // rung history has one entry per adoption.
            assert_eq!(
                outcome.rung_history.len() as u32,
                1 + outcome.recompositions,
            );
        }
    }
}

#[cfg(test)]
mod delivery_oracle;
