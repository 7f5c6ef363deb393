//! The sharded registry: per-shard epochs and summary frontiers for
//! two-level composition.
//!
//! Klein et al. decompose QoS-aware composition into per-partition
//! sub-problems stitched together through aggregated QoS summaries.
//! [`ShardedServiceRegistry`] is the in-process version of that
//! partitioning: it wraps a single flat [`ServiceRegistry`] (which
//! remains the ground truth for service ids, registration order, and
//! availability — so flat consumers like the session engine keep
//! working unchanged through [`flat`](ShardedServiceRegistry::flat)),
//! and overlays:
//!
//! * a **shard assignment** per service, fixed at registration by a
//!   [`ShardRouter`] keyed on the service's primary input format — so
//!   a format cluster's services co-locate in one shard,
//! * a **per-shard epoch**, a monotone count of the life-cycle events
//!   recorded against the shard's services: it moves exactly when a
//!   mutation touches a service of that shard, which is what lets a
//!   scoped graph stay current under churn elsewhere and revalidate in
//!   O(expanded shards) instead of O(registry),
//! * a **summary frontier** per shard: for every
//!   `(input format, output format, axis set)` a shard's available
//!   services can convert between, the per-axis maximum ("hull top")
//!   of the advertised output domains, maintained incrementally on
//!   every mutation. Scoring a hull top with the requesting user's
//!   satisfaction profile yields an *admissible* upper bound on the
//!   satisfaction any service of the shard can contribute on that hop:
//!   satisfaction functions are monotone per axis, upstream capping
//!   only shrinks domains, and probation penalties only multiply
//!   satisfaction down — so the bound can only overestimate, never
//!   underestimate. Axis sets are kept apart because the profile
//!   combiners skip absent axes: merging a single-axis hull into a
//!   wider one could *lower* its score and break admissibility.
//!
//! Every mutation funnels through the wrapper, which forwards to the
//! flat registry and then distributes the newly recorded events to the
//! owning shards, so `sum(shard epochs) == flat epoch` always holds.
//! The flat registry keeps the one event log.

use crate::descriptor::{ServiceId, TranscoderDescriptor};
use crate::registry::{ProbationConfig, QuarantineConfig, RegistryEvent, ServiceRegistry};
use crate::Result;
use qosc_media::{DomainVector, FormatId, ParamVector};
use qosc_netsim::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Deterministic shard assignment for a service descriptor.
///
/// Routes by the service's *primary* (first advertised) input format,
/// FNV-1a hashed modulo the shard count: services of one format
/// cluster land in one shard, which is what makes shard summaries
/// discriminating and shard expansion selective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shard_count: u32,
}

impl ShardRouter {
    /// A router over `shard_count` shards (minimum 1).
    pub fn new(shard_count: u32) -> ShardRouter {
        ShardRouter {
            shard_count: shard_count.max(1),
        }
    }

    /// Number of shards routed across.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// The shard `descriptor` belongs to. Pure in the descriptor, so
    /// the assignment is identical however and whenever the service
    /// registers.
    pub fn route(&self, descriptor: &TranscoderDescriptor) -> u32 {
        let primary = descriptor
            .conversions
            .first()
            .map(|c| c.input.index() as u64)
            .unwrap_or(0);
        (fnv1a_u64(primary) % u64::from(self.shard_count)) as u32
    }
}

/// FNV-1a over the little-endian bytes of `x` — the same hash family
/// the scorecards use for digests, chosen here for determinism, not
/// speed.
fn fnv1a_u64(x: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in x.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Frontier key: one `(input format, output format, axis set)` class
/// of conversions. The axis set is a bitmask over [`qosc_media::Axis`]
/// indices; see the module docs for why heterogeneous axis sets are
/// never merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PairKey {
    /// Accepted input format.
    pub input: FormatId,
    /// Produced output format.
    pub output: FormatId,
    /// Bitmask of [`qosc_media::Axis::index`] values the output
    /// domains of this class cover.
    pub axes: u8,
}

/// The axis-set bitmask of a domain vector.
fn axis_mask(domain: &DomainVector) -> u8 {
    domain
        .axes()
        .fold(0u8, |mask, axis| mask | (1 << axis.index()))
}

/// One frontier group: the available services contributing conversions
/// under a [`PairKey`], each with its own per-axis top, plus the
/// cached hull top (per-axis maximum over members).
#[derive(Debug, Clone, Default)]
struct GroupState {
    members: Vec<(ServiceId, ParamVector)>,
    top: ParamVector,
}

impl GroupState {
    fn recompute_top(&mut self) {
        let mut top = ParamVector::new();
        for (_, member_top) in &self.members {
            merge_max(&mut top, member_top);
        }
        self.top = top;
    }
}

/// Per-axis maximum merge: `into[a] = max(into[a], from[a])` for every
/// axis present in `from`.
fn merge_max(into: &mut ParamVector, from: &ParamVector) {
    for (axis, value) in from.iter() {
        match into.get(axis) {
            Some(existing) if existing >= value => {}
            _ => {
                into.set(axis, value);
            }
        }
    }
}

/// One shard's overlay state: its epoch and its summary frontier.
#[derive(Debug, Clone, Default)]
struct ShardState {
    /// Life-cycle events recorded against the shard's services.
    epoch: u64,
    /// `(pair, axis set) → hull` summary frontier over *available*
    /// members.
    frontier: BTreeMap<PairKey, GroupState>,
    /// Reverse index: which frontier keys each available service
    /// currently contributes to — makes removal O(own keys), not
    /// O(frontier).
    contributions: HashMap<ServiceId, Vec<PairKey>>,
}

/// A flat [`ServiceRegistry`] partitioned into N shards with per-shard
/// epochs and summary frontiers. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardedServiceRegistry {
    flat: ServiceRegistry,
    router: ShardRouter,
    /// Shard of each service, indexed by `ServiceId::index` — fixed at
    /// registration, valid for dead services too (their life-cycle
    /// events still belong to their shard).
    shard_of: Vec<u32>,
    shards: Vec<ShardState>,
}

impl ShardedServiceRegistry {
    /// An empty sharded registry over `shard_count` shards.
    pub fn new(shard_count: u32) -> ShardedServiceRegistry {
        let router = ShardRouter::new(shard_count);
        ShardedServiceRegistry {
            flat: ServiceRegistry::new(),
            router,
            shard_of: Vec::new(),
            shards: (0..router.shard_count())
                .map(|_| ShardState::default())
                .collect(),
        }
    }

    /// The flat ground-truth view: ids, registration order,
    /// availability, penalties — everything flat consumers (graph
    /// build, selection, the session engine) already read. Immutable:
    /// mutations must go through the wrapper so shard epochs and
    /// frontiers stay coherent.
    pub fn flat(&self) -> &ServiceRegistry {
        &self.flat
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.router.shard_count()
    }

    /// The shard `id` was routed to at registration — `None` for an id
    /// this registry never issued.
    pub fn shard_of(&self, id: ServiceId) -> Option<u32> {
        self.shard_of.get(id.index()).copied()
    }

    /// The router in use.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    // ----- mutations (forward to flat, then distribute) -----

    /// See [`ServiceRegistry::register`].
    pub fn register(
        &mut self,
        descriptor: TranscoderDescriptor,
        now: SimTime,
        ttl_us: u64,
    ) -> ServiceId {
        let shard = self.router.route(&descriptor);
        let pre = self.flat.epoch();
        let id = self.flat.register(descriptor, now, ttl_us);
        debug_assert_eq!(id.index(), self.shard_of.len());
        self.shard_of.push(shard);
        self.distribute(pre);
        id
    }

    /// See [`ServiceRegistry::register_static`].
    pub fn register_static(&mut self, descriptor: TranscoderDescriptor) -> ServiceId {
        self.register(descriptor, SimTime::ZERO, u64::MAX / 2)
    }

    /// See [`ServiceRegistry::renew`].
    pub fn renew(&mut self, id: ServiceId, now: SimTime, ttl_us: u64) -> Result<()> {
        let pre = self.flat.epoch();
        let out = self.flat.renew(id, now, ttl_us);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::deregister`].
    pub fn deregister(&mut self, id: ServiceId) -> Result<()> {
        let pre = self.flat.epoch();
        let out = self.flat.deregister(id);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::expire_leases`].
    pub fn expire_leases(&mut self, now: SimTime) -> Vec<ServiceId> {
        let pre = self.flat.epoch();
        let out = self.flat.expire_leases(now);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::report_failure`].
    pub fn report_failure(&mut self, id: ServiceId, now: SimTime) -> Result<bool> {
        let pre = self.flat.epoch();
        let out = self.flat.report_failure(id, now);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::report_success`]. Never records events.
    pub fn report_success(&mut self, id: ServiceId) -> Result<()> {
        self.flat.report_success(id)
    }

    /// See [`ServiceRegistry::release_quarantines`].
    pub fn release_quarantines(&mut self, now: SimTime) -> Vec<ServiceId> {
        let pre = self.flat.epoch();
        let out = self.flat.release_quarantines(now);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::probate`].
    pub fn probate(&mut self, id: ServiceId, observed_ppm: u64, now: SimTime) -> bool {
        let pre = self.flat.epoch();
        let out = self.flat.probate(id, observed_ppm, now);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::probe_success`].
    pub fn probe_success(&mut self, id: ServiceId, now: SimTime) -> bool {
        let pre = self.flat.epoch();
        let out = self.flat.probe_success(id, now);
        self.distribute(pre);
        out
    }

    /// See [`ServiceRegistry::set_quarantine_config`].
    pub fn set_quarantine_config(&mut self, config: QuarantineConfig) {
        self.flat.set_quarantine_config(config);
    }

    /// See [`ServiceRegistry::set_probation_config`].
    pub fn set_probation_config(&mut self, config: ProbationConfig) {
        self.flat.set_probation_config(config);
    }

    // ----- per-shard epochs, compaction -----

    /// The shard's monotone epoch: life-cycle events recorded against
    /// services of shard `shard`. Mutations
    /// in other shards never move it — the property per-shard cache
    /// stamps rely on. A shard this registry does not have never
    /// recorded anything: epoch 0.
    pub fn shard_epoch(&self, shard: u32) -> u64 {
        self.shards.get(shard as usize).map_or(0, |s| s.epoch)
    }

    /// `(shard, epoch)` for every shard, in shard order.
    pub fn shard_epochs(&self) -> Vec<(u32, u64)> {
        (0..self.shard_count())
            .map(|s| (s, self.shard_epoch(s)))
            .collect()
    }

    /// Compact the underlying flat log (see
    /// [`ServiceRegistry::compact_events_below`]). Shard epochs are
    /// unaffected.
    pub fn compact_flat_events_below(&mut self, epoch: u64) -> usize {
        self.flat.compact_events_below(epoch)
    }

    // ----- summary frontier -----

    /// The shard's summary frontier, in [`PairKey`] order: for each
    /// `(input, output, axis set)` class its hull top — the per-axis
    /// maximum of the advertised output domains over the shard's
    /// *available* services. Scoring a hull top with a satisfaction
    /// profile upper-bounds the satisfaction any hop through this
    /// shard and pair can contribute. A shard this registry does not
    /// have summarises nothing.
    pub fn summaries(&self, shard: u32) -> impl Iterator<Item = (PairKey, ParamVector)> + '_ {
        self.shards
            .get(shard as usize)
            .into_iter()
            .flat_map(|s| s.frontier.iter().map(|(key, group)| (*key, group.top)))
    }

    /// The incrementally maintained frontier as a vector — test
    /// support for comparing against [`Self::frontier_from_scratch`].
    pub fn frontier(&self, shard: u32) -> Vec<(PairKey, ParamVector)> {
        self.summaries(shard).collect()
    }

    /// Recompute the shard's frontier from current registry state,
    /// ignoring the incremental bookkeeping — the oracle the proptest
    /// compares the incremental path against.
    pub fn frontier_from_scratch(&self, shard: u32) -> Vec<(PairKey, ParamVector)> {
        let mut frontier: BTreeMap<PairKey, ParamVector> = BTreeMap::new();
        for (id, descriptor) in self.flat.live_services() {
            if self.shard_of(id) != Some(shard) || !self.flat.is_available(id) {
                continue;
            }
            for conversion in &descriptor.conversions {
                let key = PairKey {
                    input: conversion.input,
                    output: conversion.output,
                    axes: axis_mask(&conversion.output_domain),
                };
                let top = conversion.output_domain.top();
                merge_max(frontier.entry(key).or_default(), &top);
            }
        }
        frontier.into_iter().collect()
    }

    /// Per-service include flags for scoped graph construction:
    /// `filter[id] == true` iff the service's shard is marked in
    /// `expanded` (indexed by shard). Ids beyond the flag vector are
    /// excluded.
    pub fn scope_filter(&self, expanded: &[bool]) -> Vec<bool> {
        self.shard_of
            .iter()
            .map(|&s| expanded.get(s as usize).copied().unwrap_or(false))
            .collect()
    }

    // ----- internals -----

    /// Distribute every flat event recorded since `pre_epoch` to its
    /// owning shard: advance the shard's epoch and update its
    /// frontier.
    ///
    /// # Panics
    ///
    /// Only if a mutation reached the flat registry or its log without
    /// going through this wrapper; the two sites below say why none can.
    fn distribute(&mut self, pre_epoch: u64) {
        // The flat log, the assignment and the shard overlays are
        // disjoint fields: the tail and the descriptors are read in
        // place while the shards are written.
        let ShardedServiceRegistry {
            flat,
            shard_of,
            shards,
            ..
        } = self;
        // `pre_epoch` was read from `flat.epoch()` inside the same
        // `&mut self` mutation, and only `compact_flat_events_below`
        // — another `&mut self` call — moves the flat watermark, so the
        // tail since `pre_epoch` is still in the log.
        let tail = flat
            .events_since(pre_epoch)
            .expect("no compaction runs between reading the epoch and distributing");
        for event in tail {
            let id = event.service();
            // Every id in the flat log was issued by `register`, which
            // records the assignment before distributing, and every
            // assignment is `router.route(..) < shards.len()`.
            let shard = &mut shards[shard_of[id.index()] as usize];
            match event {
                RegistryEvent::Registered(_) | RegistryEvent::Reinstated(_) => {
                    // `release_quarantines` can reinstate a service
                    // whose lease already expired; the availability
                    // guard keeps such ghosts out of the frontier.
                    match flat.get(id) {
                        Ok(descriptor) if flat.is_available(id) => {
                            add_contributions(shard, id, descriptor);
                        }
                        _ => {}
                    }
                }
                RegistryEvent::Expired(_)
                | RegistryEvent::Deregistered(_)
                | RegistryEvent::Quarantined(_) => {
                    remove_contributions(shard, id);
                }
                RegistryEvent::Renewed(_)
                | RegistryEvent::Probated(_)
                | RegistryEvent::ProbationCleared(_) => {
                    // Renewal changes no advertised capability.
                    // Probation multiplies satisfaction by a factor
                    // ≤ 1, so the unpenalized hull top stays an upper
                    // bound — the frontier is unchanged.
                }
            }
            shard.epoch += 1;
        }
    }
}

/// Add `id`'s conversions to the shard frontier. Idempotent: an
/// already-contributing service is left untouched.
fn add_contributions(shard: &mut ShardState, id: ServiceId, descriptor: &TranscoderDescriptor) {
    if shard.contributions.contains_key(&id) {
        return;
    }
    // One member entry per class, however many conversions the service
    // advertises in it (almost always one conversion, one class).
    let mut keys: Vec<PairKey> = Vec::with_capacity(descriptor.conversions.len());
    for conversion in &descriptor.conversions {
        let key = PairKey {
            input: conversion.input,
            output: conversion.output,
            axes: axis_mask(&conversion.output_domain),
        };
        let top = conversion.output_domain.top();
        let group = shard.frontier.entry(key).or_default();
        merge_max(&mut group.top, &top);
        match group.members.last_mut() {
            // A further conversion of a class already entered above:
            // `id` is the member pushed last.
            Some((member, own)) if *member == id => merge_max(own, &top),
            _ => {
                group.members.push((id, top));
                keys.push(key);
            }
        }
    }
    shard.contributions.insert(id, keys);
}

/// Remove `id`'s contributions from the shard frontier, recomputing
/// each affected group's hull top from the remaining members.
/// Idempotent: removing a non-contributor is a no-op.
fn remove_contributions(shard: &mut ShardState, id: ServiceId) {
    let Some(keys) = shard.contributions.remove(&id) else {
        return;
    };
    for key in keys {
        // Only `add_contributions` writes either index, and it enters
        // a key in both; a missing group leaves nothing to remove.
        let Some(group) = shard.frontier.get_mut(&key) else {
            continue;
        };
        group.members.retain(|&(member, _)| member != id);
        if group.members.is_empty() {
            shard.frontier.remove(&key);
        } else {
            group.recompute_top();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{Axis, AxisDomain, DomainVector, FormatRegistry, MediaKind};
    use qosc_netsim::{Node, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};

    struct Fixture {
        formats: FormatRegistry,
        node: qosc_netsim::NodeId,
    }

    fn fixture() -> Fixture {
        let mut formats = FormatRegistry::new();
        for name in ["a", "b", "c", "d"] {
            formats.register_abstract(name, MediaKind::Video);
        }
        let mut topo = Topology::new();
        let node = topo.add_node(Node::unconstrained("host"));
        Fixture { formats, node }
    }

    fn descriptor(
        f: &Fixture,
        name: &str,
        input: &str,
        output: &str,
        fps: f64,
    ) -> TranscoderDescriptor {
        let mut domain = DomainVector::new();
        domain.set(
            Axis::FrameRate,
            AxisDomain::Continuous { min: 1.0, max: fps },
        );
        let spec = ServiceSpec::new(name, vec![ConversionSpec::new(input, output, domain)]);
        TranscoderDescriptor::resolve(&spec, &f.formats, f.node).unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_format_clustered() {
        let f = fixture();
        let router = ShardRouter::new(4);
        let d1 = descriptor(&f, "s1", "a", "b", 30.0);
        let d2 = descriptor(&f, "s2", "a", "c", 25.0);
        assert_eq!(
            router.route(&d1),
            router.route(&d2),
            "same primary input format co-locates"
        );
        assert_eq!(router.route(&d1), router.route(&d1));
        assert!(router.route(&d1) < 4);
        assert_eq!(ShardRouter::new(0).shard_count(), 1, "clamped to one shard");
    }

    #[test]
    fn shard_epochs_sum_to_the_flat_epoch() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(4);
        let a = reg.register(descriptor(&f, "s1", "a", "b", 30.0), SimTime::ZERO, 1_000);
        let b = reg.register_static(descriptor(&f, "s2", "b", "c", 30.0));
        reg.renew(a, SimTime(500), 1_000).unwrap();
        reg.expire_leases(SimTime(5_000));
        reg.deregister(b).unwrap();
        assert!(!reg.flat().is_live(a));
        let sum: u64 = reg.shard_epochs().iter().map(|&(_, e)| e).sum();
        assert_eq!(sum, reg.flat().epoch());
        // Registered, renewed, expired: every event counted in the
        // owner's epoch.
        let (sa, sb) = (reg.shard_of(a).unwrap(), reg.shard_of(b).unwrap());
        assert_ne!(sa, sb, "fixture formats land in distinct shards");
        assert_eq!((reg.shard_epoch(sa), reg.shard_epoch(sb)), (3, 2));
    }

    #[test]
    fn mutations_in_one_shard_leave_other_shard_epochs_alone() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(8);
        let a = reg.register_static(descriptor(&f, "s1", "a", "b", 30.0));
        let b = reg.register_static(descriptor(&f, "s2", "b", "c", 30.0));
        let (sa, sb) = (reg.shard_of(a).unwrap(), reg.shard_of(b).unwrap());
        assert_ne!(sa, sb, "fixture formats land in distinct shards");
        let before = reg.shard_epoch(sb);
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 1_000,
        });
        assert!(reg.report_failure(a, SimTime(10)).unwrap());
        reg.release_quarantines(SimTime(2_000));
        assert_eq!(
            reg.shard_epoch(sb),
            before,
            "churn in shard {sa} must not move shard {sb}'s epoch"
        );
        assert!(reg.shard_epoch(sa) > 0);
    }

    #[test]
    fn frontier_tracks_availability_incrementally() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(1);
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 1_000,
        });
        let a = reg.register_static(descriptor(&f, "s1", "a", "b", 30.0));
        let _b = reg.register_static(descriptor(&f, "s2", "a", "b", 25.0));

        let hull = |reg: &ShardedServiceRegistry| -> f64 {
            let frontier = reg.frontier(0);
            assert_eq!(frontier.len(), 1, "one (a, b, {{frame_rate}}) class");
            frontier[0].1.get(Axis::FrameRate).unwrap()
        };
        assert_eq!(hull(&reg), 30.0, "hull top is the best member");
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));

        // Quarantining the best member drops the hull to the runner-up.
        assert!(reg.report_failure(a, SimTime(10)).unwrap());
        assert_eq!(hull(&reg), 25.0);
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));

        // Reinstatement restores it.
        reg.release_quarantines(SimTime(2_000));
        assert_eq!(hull(&reg), 30.0);
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));

        // Probation leaves the frontier untouched (penalties only
        // shrink satisfaction, the hull stays admissible).
        assert!(reg.probate(a, 100_000, SimTime(3_000)));
        assert_eq!(hull(&reg), 30.0);
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));

        // Deregistering both empties the frontier.
        reg.deregister(a).unwrap();
        reg.deregister(_b).unwrap();
        assert!(reg.frontier(0).is_empty());
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));
    }

    #[test]
    fn heterogeneous_axis_sets_stay_in_separate_groups() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(1);
        // Same (input, output) pair, different axis sets.
        let narrow = descriptor(&f, "narrow", "a", "b", 30.0);
        let mut wide_domain = DomainVector::new();
        wide_domain.set(
            Axis::FrameRate,
            AxisDomain::Continuous {
                min: 1.0,
                max: 20.0,
            },
        );
        wide_domain.set(Axis::ColorDepth, AxisDomain::Discrete(vec![8.0, 24.0]));
        let wide = TranscoderDescriptor::resolve(
            &ServiceSpec::new("wide", vec![ConversionSpec::new("a", "b", wide_domain)]),
            &f.formats,
            f.node,
        )
        .unwrap();
        reg.register_static(narrow);
        reg.register_static(wide);
        let frontier = reg.frontier(0);
        assert_eq!(
            frontier.len(),
            2,
            "merging axis sets could lower a member's score: {frontier:?}"
        );
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));
    }

    #[test]
    fn flat_log_compaction_never_moves_shard_epochs() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(2);
        let a = reg.register_static(descriptor(&f, "s1", "a", "b", 30.0));
        reg.renew(a, SimTime(10), 1_000).unwrap();
        reg.renew(a, SimTime(20), 1_000).unwrap();
        let s = reg.shard_of(a).unwrap();
        assert_eq!(reg.shard_epoch(s), 3);

        assert_eq!(reg.flat().events_since(0).unwrap().len(), 3);
        assert_eq!(reg.compact_flat_events_below(2), 2);
        assert_eq!(reg.flat().events_since(0), None);
        assert_eq!(reg.shard_epoch(s), 3, "compaction never moves an epoch");
        // Writes after compaction still distribute.
        reg.renew(a, SimTime(30), 1_000).unwrap();
        assert_eq!(reg.shard_epoch(s), 4);
        assert_eq!(reg.flat().epoch(), 4);
    }

    #[test]
    fn scope_filter_follows_assignment() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(8);
        let a = reg.register_static(descriptor(&f, "s1", "a", "b", 30.0));
        let b = reg.register_static(descriptor(&f, "s2", "b", "c", 30.0));
        let mut expanded = vec![false; 8];
        expanded[reg.shard_of(a).unwrap() as usize] = true;
        let filter = reg.scope_filter(&expanded);
        assert!(filter[a.index()]);
        assert!(!filter[b.index()]);
    }

    #[test]
    fn several_conversions_of_one_class_make_one_member() {
        let f = fixture();
        let fps = |max: f64| {
            DomainVector::new().with(Axis::FrameRate, AxisDomain::Continuous { min: 1.0, max })
        };
        // Two (a, b, {frame_rate}) conversions around an (a, c) one.
        let spec = ServiceSpec::new(
            "twice",
            vec![
                ConversionSpec::new("a", "b", fps(20.0)),
                ConversionSpec::new("a", "c", fps(10.0)),
                ConversionSpec::new("a", "b", fps(30.0)),
            ],
        );
        let mut reg = ShardedServiceRegistry::new(1);
        let twice =
            reg.register_static(TranscoderDescriptor::resolve(&spec, &f.formats, f.node).unwrap());
        let other = reg.register_static(descriptor(&f, "other", "a", "b", 25.0));
        let frontier = reg.frontier(0);
        assert_eq!(frontier.len(), 2, "{frontier:?}");
        assert_eq!(frontier[0].1.get(Axis::FrameRate), Some(30.0));
        assert_eq!(frontier, reg.frontier_from_scratch(0));

        // Removing the other member leaves the service's own class top;
        // removing the service leaves no trace of either conversion.
        reg.deregister(other).unwrap();
        assert_eq!(reg.frontier(0)[0].1.get(Axis::FrameRate), Some(30.0));
        assert_eq!(reg.frontier(0), reg.frontier_from_scratch(0));
        reg.deregister(twice).unwrap();
        assert!(reg.frontier(0).is_empty());
    }

    #[test]
    fn unknown_shards_and_foreign_ids_read_as_empty() {
        let f = fixture();
        let mut reg = ShardedServiceRegistry::new(2);
        let a = reg.register_static(descriptor(&f, "s1", "a", "b", 30.0));

        for shard in [2, u32::MAX] {
            assert_eq!(reg.summaries(shard).count(), 0);
            assert!(reg.frontier(shard).is_empty());
            assert!(reg.frontier_from_scratch(shard).is_empty());
            assert_eq!(reg.shard_epoch(shard), 0);
        }

        // An id issued by a larger registry.
        let mut other = ShardedServiceRegistry::new(2);
        other.register_static(descriptor(&f, "o1", "a", "b", 30.0));
        let foreign = other.register_static(descriptor(&f, "o2", "b", "c", 30.0));
        assert_eq!(reg.shard_of(foreign), None);
        assert!(reg.shard_of(a).is_some());
        // Flags shorter than the shard count exclude, never panic.
        assert_eq!(reg.scope_filter(&[]), vec![false]);
        assert!(reg.deregister(foreign).is_err());
        assert!(reg.renew(foreign, SimTime(1), 1_000).is_err());
        assert_eq!(reg.report_failure(foreign, SimTime(1)).ok(), Some(false));
        assert!(reg.report_success(foreign).is_err());
        assert!(!reg.probate(foreign, 100_000, SimTime(1)));
        assert!(!reg.probe_success(foreign, SimTime(1)));
        let sum: u64 = reg.shard_epochs().iter().map(|&(_, e)| e).sum();
        assert_eq!(
            sum,
            reg.flat().epoch(),
            "nothing was recorded for the foreign id"
        );
    }
}
