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
//!   of the advertised output domains. Only the tops are kept, no
//!   member lists: a service that becomes available merges its tops
//!   into their classes, and one that leaves re-derives each class
//!   whose hull it reached from the flat registry's index of the
//!   class's input format.
//!   Scoring a hull top with the requesting user's
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

use crate::descriptor::{Conversion, ServiceId, TranscoderDescriptor};
use crate::registry::{ProbationConfig, QuarantineConfig, RegistryEvent, ServiceRegistry};
use crate::Result;
use qosc_media::{DomainVector, FormatId, ParamVector};
use qosc_netsim::SimTime;
use std::collections::BTreeMap;

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

/// The frontier class a conversion falls in.
fn pair_key(conversion: &Conversion) -> PairKey {
    PairKey {
        input: conversion.input,
        output: conversion.output,
        axes: axis_mask(&conversion.output_domain),
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
    /// Hull top of every class with an *available* member, sorted by
    /// [`PairKey`]. A shard holds a few dozen classes at most: at 10^4
    /// services this vector takes half the heap of a `BTreeMap`'s
    /// mostly empty nodes.
    frontier: Vec<(PairKey, ParamVector)>,
}

impl ShardState {
    /// Where class `key` sits in the sorted frontier, or would.
    fn slot(&self, key: PairKey) -> std::result::Result<usize, usize> {
        self.frontier.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Raise class `key`'s hull top to cover `top`. Idempotent.
    fn merge(&mut self, key: PairKey, top: &ParamVector) {
        match self.slot(key) {
            Ok(at) => merge_max(&mut self.frontier[at].1, top),
            Err(at) => self.frontier.insert(at, (key, *top)),
        }
    }

    /// Whether `top` is strictly below class `key`'s hull top on every
    /// axis it sets: then other members reach the hull on each axis.
    fn below_hull(&self, key: PairKey, top: &ParamVector) -> bool {
        self.slot(key).is_ok_and(|at| {
            let hull = &self.frontier[at].1;
            top.iter()
                .all(|(axis, value)| hull.get(axis).is_some_and(|h| value < h))
        })
    }

    /// Set class `key`'s hull top to `top`, or drop the class on `None`.
    fn replace(&mut self, key: PairKey, top: Option<ParamVector>) {
        match (self.slot(key), top) {
            (Ok(at), Some(top)) => self.frontier[at].1 = top,
            (Ok(at), None) => {
                self.frontier.remove(at);
            }
            (Err(at), Some(top)) => self.frontier.insert(at, (key, top)),
            (Err(_), None) => {}
        }
    }
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
            .flat_map(|s| s.frontier.iter().copied())
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
                merge_max(
                    frontier.entry(pair_key(conversion)).or_default(),
                    &conversion.output_domain.top(),
                );
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
            let owner = shard_of[id.index()];
            let shard = &mut shards[owner as usize];
            let conversions = flat.descriptor(id).map_or(&[][..], |d| &d.conversions);
            match event {
                RegistryEvent::Registered(_) | RegistryEvent::Reinstated(_) => {
                    // `release_quarantines` can reinstate a service
                    // whose lease already expired; the availability
                    // guard keeps such ghosts out of the frontier.
                    if flat.is_available(id) {
                        for conversion in conversions {
                            shard.merge(pair_key(conversion), &conversion.output_domain.top());
                        }
                    }
                }
                RegistryEvent::Expired(_)
                | RegistryEvent::Deregistered(_)
                | RegistryEvent::Quarantined(_) => {
                    // A leaving top strictly below its class's hull
                    // never reached it, so the hull stands; any other
                    // re-derives the class. Within one write's tail the
                    // hull is the pre-write one, which every leaving
                    // member reaching it re-derives, or one derived from
                    // the post-write registry: either way the skip holds.
                    for conversion in conversions {
                        let key = pair_key(conversion);
                        if !shard.below_hull(key, &conversion.output_domain.top()) {
                            shard.replace(key, class_top(flat, shard_of, owner, key));
                        }
                    }
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

/// Class `key`'s hull top over shard `owner`'s available services, read
/// from the flat registry — `None` when the class has no member left.
/// A leaving member that reached its class's hull re-derives the class
/// this way, since a hull top cannot tell which other members reach it.
///
/// Cost: one pass over the flat index list of `key.input` — every
/// service ever registered with that input format, in any shard, live
/// or dead. At 10^5 a tail class's list is ≈ 158 ids; a 10^6 head
/// class's is ≤ 31 250, and no workload churns heads.
fn class_top(
    flat: &ServiceRegistry,
    shard_of: &[u32],
    owner: u32,
    key: PairKey,
) -> Option<ParamVector> {
    let mut top: Option<ParamVector> = None;
    for id in flat.accepting_iter(key.input) {
        if shard_of[id.index()] != owner {
            continue;
        }
        let conversions = flat.descriptor(id).map_or(&[][..], |d| &d.conversions);
        for conversion in conversions.iter().filter(|c| pair_key(c) == key) {
            merge_max(top.get_or_insert_default(), &conversion.output_domain.top());
        }
    }
    top
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

    /// A random service of [`frontier_equals_a_recompute_after_every_write`]:
    /// a primary conversion out of cluster `cluster`'s format (which
    /// fixes its shard), and maybe a second one.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        cluster: usize,
        output: usize,
        cap: usize,
        /// Adds a colour-depth axis: same pair, another class.
        wide: bool,
        /// `(cluster, cap)` of a second conversion to the same output:
        /// the primary's class again when `cluster` is the primary's,
        /// else one reading another cluster's format, whose index then
        /// lists services of other shards.
        second: Option<(usize, usize)>,
        ttl_us: u64,
    }

    /// One write of [`frontier_equals_a_recompute_after_every_write`];
    /// `pick` chooses among the ids registered so far, dead ones too.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Register(Shape),
        Deregister { pick: usize },
        Quarantine { pick: usize },
        Release,
        Expire,
        Probate { pick: usize },
        Probe { pick: usize },
    }

    /// Members of one class differ in cap, so a leaving top member
    /// lowers its hull.
    const CAPS: [f64; 3] = [30.0, 25.0, 20.0];

    fn arb_shape() -> impl proptest::prelude::Strategy<Value = Shape> {
        use proptest::prelude::*;
        (
            (0usize..4, 0usize..4, 0usize..CAPS.len(), 0u8..4),
            (0u8..3, 0usize..4, 0usize..CAPS.len()),
            1u64..6,
        )
            .prop_map(
                |((cluster, output, cap, wide), (second, other, cap2), span)| Shape {
                    cluster,
                    output,
                    cap,
                    wide: wide == 0,
                    second: match second {
                        0 => None,
                        1 => Some((cluster, cap2)),
                        _ => Some((other, cap2)),
                    },
                    ttl_us: span * 1_000,
                },
            )
    }

    fn arb_op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        (0u8..9, 0usize..64, arb_shape()).prop_map(|(kind, pick, shape)| match kind {
            0..=2 => Op::Register(shape),
            3 => Op::Deregister { pick },
            4 => Op::Quarantine { pick },
            5 => Op::Release,
            6 => Op::Expire,
            7 => Op::Probate { pick },
            _ => Op::Probe { pick },
        })
    }

    fn shaped(f: &Fixture, shape: Shape) -> TranscoderDescriptor {
        let format = |i: usize| f.formats.lookup(["a", "b", "c", "d"][i]).unwrap();
        let domain = |cap: usize| {
            let fps = DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 1.0,
                    max: CAPS[cap],
                },
            );
            if shape.wide {
                fps.with(Axis::ColorDepth, AxisDomain::Discrete(vec![8.0, 24.0]))
            } else {
                fps
            }
        };
        let conversion = |input: usize, cap: usize| Conversion {
            input: format(input),
            output: format(shape.output),
            output_domain: domain(cap),
        };
        let primary = conversion(shape.cluster, shape.cap);
        let second = shape.second.map(|(cluster, cap)| conversion(cluster, cap));
        TranscoderDescriptor {
            name: "shaped".into(),
            host: f.node,
            conversions: std::iter::once(primary).chain(second).collect(),
            cpu_mips_per_mbps: 0.0,
            memory_bytes: 0.0,
            price: qosc_profiles::PriceModel::free(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 1_024,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// After every write, every shard's incrementally kept frontier
        /// equals one recomputed from the flat registry. The shapes
        /// cover what the bookkeeping can get wrong: a leaving top
        /// member must lower its class's hull, a class shared with
        /// another shard's services must not take their tops, and a
        /// service with two conversions in one class must leave it once.
        #[test]
        fn frontier_equals_a_recompute_after_every_write(
            shards in 2u32..5,
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let f = fixture();
            let mut reg = ShardedServiceRegistry::new(shards);
            reg.set_quarantine_config(QuarantineConfig {
                failure_threshold: 1,
                cooldown_us: 1_500,
            });
            let mut ids: Vec<ServiceId> = Vec::new();
            let mut now = 0u64;
            for op in ops {
                now += 250;
                let at = SimTime(now);
                let id = |pick: usize| ids.get(pick % ids.len().max(1)).copied();
                match op {
                    Op::Register(shape) => ids.push(reg.register(shaped(&f, shape), at, shape.ttl_us)),
                    Op::Deregister { pick } => {
                        if let Some(id) = id(pick) {
                            let _ = reg.deregister(id);
                        }
                    }
                    Op::Quarantine { pick } => {
                        if let Some(id) = id(pick) {
                            let _ = reg.report_failure(id, at);
                        }
                    }
                    Op::Release => {
                        reg.release_quarantines(at);
                    }
                    Op::Expire => {
                        reg.expire_leases(at);
                    }
                    Op::Probate { pick } => {
                        if let Some(id) = id(pick) {
                            reg.probate(id, 500_000, at);
                        }
                    }
                    Op::Probe { pick } => {
                        if let Some(id) = id(pick) {
                            reg.probe_success(id, at);
                        }
                    }
                }
                for shard in 0..shards {
                    proptest::prop_assert_eq!(
                        format!("{:?}", reg.frontier(shard)),
                        format!("{:?}", reg.frontier_from_scratch(shard)),
                        "shard {} after {:?}", shard, op
                    );
                }
            }
        }
    }
}
