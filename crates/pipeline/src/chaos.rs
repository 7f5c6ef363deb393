//! Deterministic chaos generation.
//!
//! A resilience claim is only as good as the fault workload behind it,
//! and a fault workload is only *useful* if a failing run can be
//! replayed bit-for-bit. [`ChaosPlan::generate`] compiles a declarative
//! [`ChaosModel`] into two artifacts from a single `(chaos_seed,
//! intensity)` pair:
//!
//! * a [`FailureSchedule`] of network faults — node crash/revive with
//!   the link failures *correlated* to the crashed host (its access
//!   links go down at the same instant, the realistic shape of a host
//!   loss), link flap bursts, and background-bandwidth squeeze windows
//!   ([`FailureEvent::Squeeze`]) — the world events of a
//!   [`ChaosWorld`](crate::ChaosWorld);
//! * a time-ordered list of [`ChaosAction`]s — lease-expiry storms
//!   (service processes crashing and reviving) — replayed against a
//!   [`DiscoveryDriver`]/[`ServiceRegistry`] pair via
//!   [`ChaosPlan::drive_discovery`].
//!
//! The same `(topology, member_count, model, chaos_seed, intensity)`
//! always yields the same plan; changing the chaos seed changes the
//! fault sequence; raising the intensity knob scales every event count.

use crate::failure::{FailureEvent, FailureSchedule};
use qosc_netsim::{LinkId, NodeId, SimTime, Topology};
use qosc_services::{DiscoveryDriver, MemberId, ServiceRegistry};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Declarative fault model: event rates over the chaos horizon, fault
/// shapes, and the nodes the generator must never crash (the content
/// sender and the receiving client — the paper's composition problem is
/// undefined without its endpoints).
#[derive(Debug, Clone)]
pub struct ChaosModel {
    /// Horizon the plan covers; every event lands inside it.
    pub total_duration: SimTime,
    /// Node crashes per minute at intensity 1.0.
    pub crash_rate_per_min: f64,
    /// Crash downtime range, microseconds (node and its links revive
    /// together after a draw from this range).
    pub crash_downtime_us: (u64, u64),
    /// Link flap bursts per minute at intensity 1.0.
    pub flap_rate_per_min: f64,
    /// Down/up cycles per burst.
    pub flap_cycles: (u32, u32),
    /// One flap cycle's period range, microseconds (down for half of
    /// it, up for the other half).
    pub flap_period_us: (u64, u64),
    /// Bandwidth squeeze windows per minute at intensity 1.0.
    pub squeeze_rate_per_min: f64,
    /// Background-utilization range of a squeeze, thousandths.
    pub squeeze_permille: (u16, u16),
    /// Squeeze window length range, microseconds.
    pub squeeze_window_us: (u64, u64),
    /// Lease-expiry storms per minute at intensity 1.0.
    pub storm_rate_per_min: f64,
    /// Members crashed per storm.
    pub storm_size: (u32, u32),
    /// Member downtime range, microseconds, before the process revives
    /// and re-registers.
    pub storm_downtime_us: (u64, u64),
    /// *Grey* latency-sag windows per minute at intensity 1.0: the
    /// member stays alive and keeps renewing its lease, but serves at a
    /// multiple of its advertised latency. Defaults to 0.0 so plans
    /// generated before grey faults existed replay bit-identically.
    pub lag_rate_per_min: f64,
    /// Latency multiplication range during a lag window, permille
    /// (1500 = 1.5× advertised latency).
    pub lag_factor_permille: (u16, u16),
    /// Lag window length range, microseconds.
    pub lag_window_us: (u64, u64),
    /// *Grey* throughput-sag windows per minute at intensity 1.0: the
    /// member stays alive but delivers a fraction of its advertised
    /// throughput — the fault that is invisible to liveness checks.
    /// Defaults to 0.0 (see `lag_rate_per_min`).
    pub sag_rate_per_min: f64,
    /// Delivered-throughput range during a sag window, permille of
    /// advertised (300 = the service delivers 30%).
    pub sag_throughput_permille: (u16, u16),
    /// Sag window length range, microseconds.
    pub sag_window_us: (u64, u64),
    /// Nodes that must never crash (endpoints). Their links can still
    /// flap or be squeezed — a degraded path is a composition problem,
    /// a missing endpoint is not.
    pub protect: Vec<NodeId>,
}

impl Default for ChaosModel {
    fn default() -> ChaosModel {
        ChaosModel {
            total_duration: SimTime::from_secs(30),
            crash_rate_per_min: 4.0,
            crash_downtime_us: (2_000_000, 8_000_000),
            flap_rate_per_min: 4.0,
            flap_cycles: (1, 3),
            flap_period_us: (400_000, 1_600_000),
            squeeze_rate_per_min: 6.0,
            squeeze_permille: (500, 950),
            squeeze_window_us: (2_000_000, 6_000_000),
            storm_rate_per_min: 2.0,
            storm_size: (1, 3),
            storm_downtime_us: (3_000_000, 9_000_000),
            lag_rate_per_min: 0.0,
            lag_factor_permille: (1_500, 4_000),
            lag_window_us: (3_000_000, 8_000_000),
            sag_rate_per_min: 0.0,
            sag_throughput_permille: (200, 600),
            sag_window_us: (3_000_000, 8_000_000),
            protect: Vec::new(),
        }
    }
}

/// A discovery-plane fault: service processes crashing and reviving,
/// exercising lease expiry. Indices address the caller's member list
/// (see [`ChaosPlan::drive_discovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Member `member_index` silently stops renewing its lease.
    CrashMember(usize),
    /// Member `member_index` comes back and re-registers.
    ReviveMember(usize),
    /// Grey fault: the member starts serving at `factor_permille` of
    /// its advertised latency (1500 = 1.5× slower) while staying alive
    /// and routable.
    LagMember {
        /// Index into the caller's member list.
        index: usize,
        /// Latency multiplier, permille of advertised.
        factor_permille: u16,
    },
    /// The lag window ends; the member serves at advertised latency.
    UnlagMember(usize),
    /// Grey fault: the member delivers only `throughput_permille` of
    /// its advertised throughput while staying alive and routable —
    /// `plan_alive`/`plan_routable` keep answering `true`.
    SagMember {
        /// Index into the caller's member list.
        index: usize,
        /// Delivered throughput, permille of advertised.
        throughput_permille: u16,
    },
    /// The sag window ends; the member delivers full throughput.
    UnsagMember(usize),
}

/// Event counts of a generated plan, for scorecards and logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Node crashes (each also revives within the horizon).
    pub node_crashes: usize,
    /// Link faults emitted *because* their host crashed.
    pub correlated_link_faults: usize,
    /// Link flap down/up cycles.
    pub link_flaps: usize,
    /// Bandwidth squeeze windows.
    pub squeezes: usize,
    /// Lease-expiry storms.
    pub lease_storms: usize,
    /// Grey latency-sag windows.
    pub lag_windows: usize,
    /// Grey throughput-sag windows.
    pub sag_windows: usize,
    /// Total network fault events in the schedule.
    pub fault_events: usize,
    /// Total discovery actions.
    pub discovery_actions: usize,
}

/// A compiled chaos plan: the reproducible product of `(topology,
/// member_count, model, chaos_seed, intensity)`.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    faults: FailureSchedule,
    actions: Vec<(SimTime, ChaosAction)>,
    summary: ChaosSummary,
}

fn scaled_count(rate_per_min: f64, minutes: f64, intensity: f64) -> usize {
    (rate_per_min * minutes * intensity.max(0.0)).round() as usize
}

fn draw_range_u64(rng: &mut SmallRng, range: (u64, u64)) -> u64 {
    let (lo, hi) = (range.0.min(range.1), range.0.max(range.1));
    if lo == hi {
        lo
    } else {
        rng.random_range(lo..=hi)
    }
}

impl ChaosPlan {
    /// Compile `model` into a concrete plan. Same inputs, same plan —
    /// the generator draws every value from one `SmallRng` seeded with
    /// `chaos_seed`, in a fixed phase order (crashes, flaps, squeezes,
    /// storms). `intensity` scales the event count of every phase;
    /// `member_count` bounds the member indices storms may address
    /// (`0` disables storms).
    pub fn generate(
        topology: &Topology,
        member_count: usize,
        model: &ChaosModel,
        chaos_seed: u64,
        intensity: f64,
    ) -> ChaosPlan {
        let mut rng = SmallRng::seed_from_u64(chaos_seed);
        let horizon = model.total_duration.as_micros();
        let minutes = model.total_duration.as_secs_f64() / 60.0;
        let mut faults = FailureSchedule::new();
        let mut actions: Vec<(SimTime, ChaosAction)> = Vec::new();
        let mut summary = ChaosSummary::default();

        let crashable: Vec<NodeId> = topology
            .node_ids()
            .filter(|n| !model.protect.contains(n))
            .collect();
        let links: Vec<LinkId> = topology.link_ids().collect();
        let at = |micros: u64| SimTime(micros.min(horizon));

        // Phase 1: node crashes with correlated link failures. The
        // crashed host's access links drop at the same instant (the
        // schedule preserves insertion order across equal times: node
        // first, then its links) and everything revives together.
        if !crashable.is_empty() {
            for _ in 0..scaled_count(model.crash_rate_per_min, minutes, intensity) {
                let node = crashable[rng.random_range(0..crashable.len())];
                let start = rng.random_range(0..horizon.max(1));
                let end = start.saturating_add(draw_range_u64(&mut rng, model.crash_downtime_us));
                faults = faults.at(at(start), FailureEvent::NodeDown(node));
                for &(_, link) in topology.neighbors(node) {
                    faults = faults.at(at(start), FailureEvent::LinkDown(link));
                    summary.correlated_link_faults += 1;
                }
                faults = faults.at(at(end), FailureEvent::NodeUp(node));
                for &(_, link) in topology.neighbors(node) {
                    faults = faults.at(at(end), FailureEvent::LinkUp(link));
                }
                summary.node_crashes += 1;
            }
        }

        // Phase 2: link flap bursts — short down/up cycles on one link.
        if !links.is_empty() {
            for _ in 0..scaled_count(model.flap_rate_per_min, minutes, intensity) {
                let link = links[rng.random_range(0..links.len())];
                let cycles = rng.random_range(model.flap_cycles.0..=model.flap_cycles.1.max(1));
                let mut t = rng.random_range(0..horizon.max(1));
                for _ in 0..cycles {
                    let period = draw_range_u64(&mut rng, model.flap_period_us);
                    faults = faults.at(at(t), FailureEvent::LinkDown(link));
                    faults = faults.at(at(t + period / 2), FailureEvent::LinkUp(link));
                    t = t.saturating_add(period);
                    summary.link_flaps += 1;
                }
            }
        }

        // Phase 3: background-bandwidth squeeze windows.
        if !links.is_empty() {
            for _ in 0..scaled_count(model.squeeze_rate_per_min, minutes, intensity) {
                let link = links[rng.random_range(0..links.len())];
                let start = rng.random_range(0..horizon.max(1));
                let window = draw_range_u64(&mut rng, model.squeeze_window_us);
                let permille = rng
                    .random_range(model.squeeze_permille.0..=model.squeeze_permille.1.max(1))
                    .min(1000);
                faults = faults.at(at(start), FailureEvent::Squeeze { link, permille });
                faults = faults.at(at(start + window), FailureEvent::Unsqueeze(link));
                summary.squeezes += 1;
            }
        }

        // Phase 4: lease-expiry storms. Each storm crashes a handful of
        // members at one instant; every crash pairs with a later revive,
        // so the plan's net effect on membership is zero — what it
        // exercises is the staleness window and re-registration churn.
        if member_count > 0 {
            for _ in 0..scaled_count(model.storm_rate_per_min, minutes, intensity) {
                let start = rng.random_range(0..horizon.max(1));
                let size = rng.random_range(model.storm_size.0..=model.storm_size.1.max(1));
                for _ in 0..size {
                    let member = rng.random_range(0..member_count);
                    let end =
                        start.saturating_add(draw_range_u64(&mut rng, model.storm_downtime_us));
                    actions.push((at(start), ChaosAction::CrashMember(member)));
                    actions.push((at(end), ChaosAction::ReviveMember(member)));
                }
                summary.lease_storms += 1;
            }
        }

        // Phase 5: grey latency sags. A member keeps renewing its lease
        // and answering liveness, but serves at a multiple of its
        // advertised latency for a window — paired Lag/Unlag, the
        // Squeeze/Unsqueeze pattern on the discovery plane. Both grey
        // phases sit *after* the original four with default rate 0.0,
        // so a pre-grey `(seed, intensity)` pair draws the exact same
        // value sequence it always did.
        if member_count > 0 {
            for _ in 0..scaled_count(model.lag_rate_per_min, minutes, intensity) {
                let index = rng.random_range(0..member_count);
                let start = rng.random_range(0..horizon.max(1));
                let window = draw_range_u64(&mut rng, model.lag_window_us);
                let factor_permille = rng
                    .random_range(model.lag_factor_permille.0..=model.lag_factor_permille.1.max(1))
                    .max(1_000);
                actions.push((
                    at(start),
                    ChaosAction::LagMember {
                        index,
                        factor_permille,
                    },
                ));
                actions.push((at(start + window), ChaosAction::UnlagMember(index)));
                summary.lag_windows += 1;
            }
        }

        // Phase 6: grey throughput sags — the headline grey failure.
        // The member delivers a fraction of its advertised throughput
        // while `plan_alive`/`plan_routable` keep saying yes.
        if member_count > 0 {
            for _ in 0..scaled_count(model.sag_rate_per_min, minutes, intensity) {
                let index = rng.random_range(0..member_count);
                let start = rng.random_range(0..horizon.max(1));
                let window = draw_range_u64(&mut rng, model.sag_window_us);
                let throughput_permille = rng
                    .random_range(
                        model.sag_throughput_permille.0..=model.sag_throughput_permille.1.max(1),
                    )
                    .min(1_000);
                actions.push((
                    at(start),
                    ChaosAction::SagMember {
                        index,
                        throughput_permille,
                    },
                ));
                actions.push((at(start + window), ChaosAction::UnsagMember(index)));
                summary.sag_windows += 1;
            }
        }
        actions.sort_by_key(|&(t, _)| t);

        summary.fault_events = faults.events().len();
        summary.discovery_actions = actions.len();
        ChaosPlan {
            faults,
            actions,
            summary,
        }
    }

    /// The network-fault schedule, ready for
    /// [`ChaosWorld::schedule_fault`](crate::ChaosWorld::schedule_fault).
    pub fn schedule(&self) -> &FailureSchedule {
        &self.faults
    }

    /// The discovery-plane actions in time order.
    pub fn actions(&self) -> &[(SimTime, ChaosAction)] {
        &self.actions
    }

    /// Event counts.
    pub fn summary(&self) -> ChaosSummary {
        self.summary
    }

    /// Replay the discovery-plane actions against a live driver and
    /// registry: the driver ticks at each action time (renewing
    /// survivors, expiring the dead), then the action applies. Member
    /// indices address `members`; out-of-range indices are skipped.
    /// Returns the number of actions applied.
    pub fn drive_discovery(
        &self,
        driver: &mut DiscoveryDriver,
        registry: &mut ServiceRegistry,
        members: &[MemberId],
    ) -> usize {
        let mut applied = 0usize;
        for &(time, action) in &self.actions {
            driver.tick(registry, time);
            match action {
                ChaosAction::CrashMember(index) => {
                    if let Some(&member) = members.get(index) {
                        driver.crash(member);
                        applied += 1;
                    }
                }
                ChaosAction::ReviveMember(index) => {
                    if let Some(&member) = members.get(index) {
                        if driver.revive(registry, member, time).is_ok() {
                            applied += 1;
                        }
                    }
                }
                // Grey faults never touch the discovery plane — the
                // whole point is that leases keep renewing. They are
                // interpreted by `ChaosWorld` (delivery/latency models)
                // and skipped in this registry-only replay.
                ChaosAction::LagMember { .. }
                | ChaosAction::UnlagMember(_)
                | ChaosAction::SagMember { .. }
                | ChaosAction::UnsagMember(_) => {}
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{DomainVector, FormatRegistry, MediaKind};
    use qosc_netsim::Node;
    use qosc_profiles::{ConversionSpec, ServiceSpec};
    use qosc_services::{DiscoveryConfig, TranscoderDescriptor};

    fn star_topology() -> (Topology, NodeId, Vec<NodeId>) {
        let mut topo = Topology::new();
        let hub = topo.add_node(Node::unconstrained("hub"));
        let leaves: Vec<NodeId> = (0..5)
            .map(|i| {
                let leaf = topo.add_node(Node::unconstrained(format!("leaf-{i}")));
                topo.connect_simple(hub, leaf, 1e6).unwrap();
                leaf
            })
            .collect();
        (topo, hub, leaves)
    }

    #[test]
    fn same_seed_reproduces_the_plan_and_a_new_seed_changes_it() {
        let (topo, _, _) = star_topology();
        let model = ChaosModel::default();
        let a = ChaosPlan::generate(&topo, 4, &model, 42, 0.75);
        let b = ChaosPlan::generate(&topo, 4, &model, 42, 0.75);
        assert_eq!(a.schedule().events(), b.schedule().events());
        assert_eq!(a.actions(), b.actions());
        assert_eq!(a.summary(), b.summary());

        let c = ChaosPlan::generate(&topo, 4, &model, 43, 0.75);
        assert_ne!(
            a.schedule().events(),
            c.schedule().events(),
            "a different chaos seed draws a different fault sequence"
        );
    }

    #[test]
    fn intensity_scales_the_event_counts() {
        let (topo, _, _) = star_topology();
        let model = ChaosModel::default();
        let low = ChaosPlan::generate(&topo, 4, &model, 7, 0.25).summary();
        let high = ChaosPlan::generate(&topo, 4, &model, 7, 1.0).summary();
        assert!(high.fault_events > low.fault_events);
        assert!(high.node_crashes >= low.node_crashes);
        assert!(high.squeezes >= low.squeezes);
        let zero = ChaosPlan::generate(&topo, 4, &model, 7, 0.0).summary();
        assert_eq!(zero.fault_events, 0);
        assert_eq!(zero.discovery_actions, 0);
    }

    #[test]
    fn node_crashes_correlate_their_host_links() {
        let (topo, _, _) = star_topology();
        let plan = ChaosPlan::generate(&topo, 0, &ChaosModel::default(), 11, 1.0);
        let events = plan.schedule().events();
        let mut saw_crash = false;
        for (i, &(t, event)) in events.iter().enumerate() {
            if let FailureEvent::NodeDown(node) = event {
                saw_crash = true;
                // Every incident link of the crashed host goes down at
                // the same instant, right after the node event.
                for (k, &(_, link)) in topo.neighbors(node).iter().enumerate() {
                    assert_eq!(
                        events[i + 1 + k],
                        (t, FailureEvent::LinkDown(link)),
                        "correlated link fault rides the crash instant"
                    );
                }
            }
        }
        assert!(saw_crash, "intensity 1.0 over 30 s produces crashes");
    }

    #[test]
    fn protected_nodes_never_crash_and_events_stay_in_horizon() {
        let (topo, hub, leaves) = star_topology();
        let model = ChaosModel {
            protect: vec![hub, leaves[0]],
            ..ChaosModel::default()
        };
        let plan = ChaosPlan::generate(&topo, 4, &model, 3, 1.0);
        for &(t, event) in plan.schedule().events() {
            assert!(t <= model.total_duration, "event inside the horizon");
            if let FailureEvent::NodeDown(node) = event {
                assert_ne!(node, hub, "protected hub never crashes");
                assert_ne!(node, leaves[0], "protected leaf never crashes");
            }
        }
        for &(t, _) in plan.actions() {
            assert!(t <= model.total_duration);
        }
    }

    #[test]
    fn grey_phases_default_off_and_leave_existing_plans_bit_identical() {
        let (topo, _, _) = star_topology();
        let baseline = ChaosModel::default();
        assert_eq!(baseline.lag_rate_per_min, 0.0);
        assert_eq!(baseline.sag_rate_per_min, 0.0);
        let grey = ChaosModel {
            lag_rate_per_min: 3.0,
            sag_rate_per_min: 3.0,
            ..ChaosModel::default()
        };
        let a = ChaosPlan::generate(&topo, 4, &baseline, 42, 1.0);
        let b = ChaosPlan::generate(&topo, 4, &grey, 42, 1.0);
        // Grey phases draw strictly after the original four, so the
        // fault schedule — and every pre-grey action — is untouched.
        assert_eq!(a.schedule().events(), b.schedule().events());
        assert!(a.summary().lag_windows == 0 && a.summary().sag_windows == 0);
        assert!(b.summary().lag_windows > 0 && b.summary().sag_windows > 0);
        let pre_grey = |plan: &ChaosPlan| {
            let mut v: Vec<(SimTime, ChaosAction)> = plan
                .actions()
                .iter()
                .copied()
                .filter(|(_, act)| {
                    matches!(
                        act,
                        ChaosAction::CrashMember(_) | ChaosAction::ReviveMember(_)
                    )
                })
                .collect();
            v.sort_by_key(|&(t, _)| t);
            v
        };
        assert_eq!(pre_grey(&a), pre_grey(&b));
    }

    #[test]
    fn grey_windows_are_seeded_and_intensity_scaled() {
        let (topo, _, _) = star_topology();
        let model = ChaosModel {
            sag_rate_per_min: 6.0,
            lag_rate_per_min: 4.0,
            ..ChaosModel::default()
        };
        let a = ChaosPlan::generate(&topo, 6, &model, 9, 1.0);
        let b = ChaosPlan::generate(&topo, 6, &model, 9, 1.0);
        assert_eq!(a.actions(), b.actions(), "same seed, same grey windows");
        let low = ChaosPlan::generate(&topo, 6, &model, 9, 0.25).summary();
        let high = a.summary();
        assert!(high.sag_windows > low.sag_windows);
        assert!(high.lag_windows >= low.lag_windows);
        // Every window is paired and bounded.
        let mut open_sags = 0i64;
        for &(t, action) in a.actions() {
            assert!(t <= model.total_duration);
            match action {
                ChaosAction::SagMember {
                    throughput_permille,
                    ..
                } => {
                    assert!((1..=1_000).contains(&throughput_permille));
                    open_sags += 1;
                }
                ChaosAction::UnsagMember(_) => open_sags -= 1,
                ChaosAction::LagMember {
                    factor_permille, ..
                } => assert!(factor_permille >= 1_000, "lag means slower, never faster"),
                _ => {}
            }
        }
        assert_eq!(open_sags, 0, "every sag window closes inside the horizon");
    }

    #[test]
    fn grey_actions_are_discovery_noops() {
        let mut topo = Topology::new();
        let host = topo.add_node(Node::unconstrained("host"));
        let mut formats = FormatRegistry::new();
        formats.register_abstract("in", MediaKind::Video);
        formats.register_abstract("out", MediaKind::Video);
        let mut registry = ServiceRegistry::new();
        let mut driver = DiscoveryDriver::new(DiscoveryConfig::default());
        let spec = ServiceSpec::new(
            "svc",
            vec![ConversionSpec::new("in", "out", DomainVector::new())],
        );
        let descriptor = TranscoderDescriptor::resolve(&spec, &formats, host).unwrap();
        let member = driver.join(&mut registry, descriptor, SimTime::ZERO);
        let model = ChaosModel {
            crash_rate_per_min: 0.0,
            flap_rate_per_min: 0.0,
            squeeze_rate_per_min: 0.0,
            storm_rate_per_min: 0.0,
            sag_rate_per_min: 10.0,
            lag_rate_per_min: 10.0,
            ..ChaosModel::default()
        };
        let plan = ChaosPlan::generate(&topo, 1, &model, 17, 1.0);
        assert!(plan.summary().sag_windows > 0);
        let applied = plan.drive_discovery(&mut driver, &mut registry, &[member]);
        assert_eq!(applied, 0, "grey faults never touch the registry");
        assert!(driver.is_advertised(&registry, member));
    }

    #[test]
    fn lease_storms_round_trip_through_discovery() {
        let (topo, host, _) = {
            let mut topo = Topology::new();
            let host = topo.add_node(Node::unconstrained("host"));
            (topo, host, ())
        };
        let mut formats = FormatRegistry::new();
        formats.register_abstract("in", MediaKind::Video);
        formats.register_abstract("out", MediaKind::Video);
        let mut registry = ServiceRegistry::new();
        let mut driver = DiscoveryDriver::new(DiscoveryConfig {
            ttl: SimTime::from_secs(2),
        });
        let members: Vec<MemberId> = (0..4)
            .map(|i| {
                let spec = ServiceSpec::new(
                    format!("svc-{i}"),
                    vec![ConversionSpec::new("in", "out", DomainVector::new())],
                );
                let descriptor = TranscoderDescriptor::resolve(&spec, &formats, host).unwrap();
                driver.join(&mut registry, descriptor, SimTime::ZERO)
            })
            .collect();

        let model = ChaosModel {
            storm_rate_per_min: 8.0,
            ..ChaosModel::default()
        };
        let plan = ChaosPlan::generate(&topo, members.len(), &model, 21, 1.0);
        assert!(plan.summary().lease_storms > 0);
        let applied = plan.drive_discovery(&mut driver, &mut registry, &members);
        assert!(applied > 0);

        // Every crash pairs with a revive inside the horizon, so after
        // settling the whole fleet is advertised again. A revive inside
        // the staleness window leaves the *old* advertisement live as an
        // orphan until its lease runs out, so settle one TTL past the
        // horizon: orphans expire, live members renew.
        driver.tick(
            &mut registry,
            model
                .total_duration
                .plus_micros(SimTime::from_secs(2).as_micros() + 1),
        );
        for &member in &members {
            assert!(driver.is_advertised(&registry, member));
        }
        assert_eq!(registry.live_count(), members.len());
    }
}
