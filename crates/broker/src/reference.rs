//! The pre-dense allocation kernel, kept as the differential oracle.
//!
//! This is the broker as it stood before the dense tables: five `BTreeMap`s
//! and a `BTreeSet` rebuilt on every recompute, the grants compared as whole
//! maps. `waterfill` and `compute_fcfs` are that code line for line, with one
//! deliberate exception marked `DEVIATION` in `waterfill`: the level scan
//! used to start from `u64::MAX` and accept only strictly lower levels, so a
//! lone weight-1 flow on a link of capacity `u64::MAX` found no bottleneck
//! and kept its floor. Both kernels now accept the first weighted link
//! whatever its level (`u64_max_capacity_is_not_mistaken_for_no_link` below).
//!
//! The proptests drive both brokers through the same random op sequence and
//! compare grants, `epoch` and `reallocations` after every step, and check
//! that every departed session id answers nothing. One family draws
//! arbitrary hops over 14 links; the hub family routes most flows through
//! one link, some of them twice, so recomputes take several rounds and a
//! round can freeze fewer flows than its bottleneck has crossers.

use crate::{BandwidthBroker, Bottleneck, DirectedLink, Floors, FlowSpec, SharingPolicy};
use proptest::prelude::*;
use qosc_netsim::LinkId;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
struct ReferenceBroker {
    policy: SharingPolicy,
    /// Effective capacity per directed link (bps). Links absent from this
    /// map are unconstrained.
    capacity: BTreeMap<DirectedLink, u64>,
    /// Flows keyed by session id; `seq` preserves registration order for
    /// the FCFS policy (re-pins keep the original sequence number).
    flows: BTreeMap<u64, (u64, FlowSpec)>,
    next_seq: u64,
    grants: BTreeMap<u64, u64>,
    epoch: u64,
    reallocations: u64,
}

impl ReferenceBroker {
    pub fn new(policy: SharingPolicy) -> ReferenceBroker {
        ReferenceBroker {
            policy,
            capacity: BTreeMap::new(),
            flows: BTreeMap::new(),
            next_seq: 0,
            grants: BTreeMap::new(),
            epoch: 0,
            reallocations: 0,
        }
    }

    /// Stage an effective-capacity update for one directed link. Does not
    /// recompute: callers batch capacity changes (e.g. one chaos event can
    /// squeeze many links) and then call `rebalance`.
    pub fn set_capacity(&mut self, link: LinkId, forward: bool, capacity_bps: u64) {
        self.capacity.insert((link, forward), capacity_bps);
    }

    /// Register (or re-pin) a session's flow, then rebalance from scratch.
    /// A re-pin replaces the previous spec but keeps the original FCFS
    /// sequence number, so rung switches don't launder queue position.
    pub fn register(&mut self, flow: FlowSpec) {
        let seq = match self.flows.get(&flow.session) {
            Some((seq, _)) => *seq,
            None => {
                let s = self.next_seq;
                self.next_seq += 1;
                s
            }
        };
        self.flows.insert(flow.session, (seq, flow));
        self.recompute(Floors::None);
    }

    /// Remove a departing session's flow. The released bandwidth is
    /// redistributed preemption-free: survivors are water-filled upward
    /// from their current grants, so no survivor's grant decreases.
    pub fn deregister(&mut self, session: u64) -> bool {
        if self.flows.remove(&session).is_none() {
            return false;
        }
        self.recompute(Floors::PreviousGrants);
        true
    }

    /// Full rebalance against the current capacities (arrivals and
    /// capacity changes rebalance from the registered floors only).
    pub fn rebalance(&mut self) {
        self.recompute(Floors::None);
    }

    /// Bumps every time the published grants map changes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of recomputes that actually changed at least one grant.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// All current grants (session → bps), in session-id order.
    pub fn grants(&self) -> &BTreeMap<u64, u64> {
        &self.grants
    }

    fn recompute(&mut self, floors: Floors) {
        let next = match self.policy {
            SharingPolicy::Fcfs => self.compute_fcfs(),
            SharingPolicy::WeightedMaxMin => {
                let flows: Vec<&FlowSpec> = self.flows.values().map(|(_, f)| f).collect();
                let floor_of = |f: &FlowSpec| match floors {
                    Floors::None => f.min_bps.min(f.max_bps),
                    Floors::PreviousGrants => self
                        .grants
                        .get(&f.session)
                        .copied()
                        .unwrap_or(0)
                        .max(f.min_bps)
                        .min(f.max_bps),
                };
                waterfill(&flows, &self.capacity, floor_of)
            }
        };
        if next != self.grants {
            self.grants = next;
            self.epoch += 1;
            self.reallocations += 1;
        }
    }

    fn compute_fcfs(&self) -> BTreeMap<u64, u64> {
        let mut order: Vec<(&u64, &(u64, FlowSpec))> = self.flows.iter().collect();
        order.sort_by_key(|(_, (seq, _))| *seq);
        let mut residual = self.capacity.clone();
        let mut grants = BTreeMap::new();
        for (session, (_, flow)) in order {
            // Multiplicity-aware bottleneck: crossing a link c times caps
            // the rate at residual / c there.
            let mut crossings: BTreeMap<DirectedLink, u64> = BTreeMap::new();
            for hop in &flow.hops {
                *crossings.entry(*hop).or_insert(0) += 1;
            }
            let mut avail = flow.max_bps;
            for (hop, count) in &crossings {
                if let Some(r) = residual.get(hop) {
                    avail = avail.min(r / count);
                }
            }
            grants.insert(*session, avail);
            for hop in &flow.hops {
                if let Some(r) = residual.get_mut(hop) {
                    *r = r.saturating_sub(avail);
                }
            }
        }
        grants
    }
}

/// Integer weighted max-min water-filling.
///
/// Tier 1 grants every flow its floor (saturating the residuals — admission
/// keeps floors feasible, the kernel stays total regardless). Tier 2 then
/// raises all unfrozen flows in lock-step proportional to weight: each round
/// computes the per-link level `floor(residual / Σ weights crossing)`, takes
/// the global minimum `λ`, freezes cap-limited flows (remaining headroom
/// `≤ λ·w`) at their cap, otherwise freezes every flow crossing the
/// bottleneck link (lowest `(LinkId, direction)` on ties) at exactly `λ·w`.
/// No sub-weight remainder is distributed, so the result is independent of
/// flow order; the waste per saturated link is below the link's weight sum.
fn waterfill(
    flows: &[&FlowSpec],
    capacity: &BTreeMap<DirectedLink, u64>,
    floor_of: impl Fn(&FlowSpec) -> u64,
) -> BTreeMap<u64, u64> {
    let mut grants: BTreeMap<u64, u64> = BTreeMap::new();
    let mut residual = capacity.clone();
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].session);

    // Tier 1: floors.
    for &i in &order {
        let flow = flows[i];
        let floor = floor_of(flow).min(flow.max_bps);
        grants.insert(flow.session, floor);
        for hop in &flow.hops {
            if let Some(r) = residual.get_mut(hop) {
                *r = r.saturating_sub(floor);
            }
        }
    }

    // Tier 2: water-fill the headroom above the floors. Per-link state is
    // maintained incrementally (each flow is frozen exactly once), keeping a
    // recompute at O(flows·hops + rounds·links).
    let mut active: Vec<usize> = Vec::new();
    let mut weight_sum: BTreeMap<DirectedLink, u64> = BTreeMap::new();
    for &i in &order {
        let flow = flows[i];
        if grants[&flow.session] >= flow.max_bps {
            continue;
        }
        let constrained = flow.hops.iter().any(|h| residual.contains_key(h));
        if !constrained {
            // No shared link on the path: grant the full demand.
            grants.insert(flow.session, flow.max_bps);
            continue;
        }
        for hop in &flow.hops {
            if residual.contains_key(hop) {
                *weight_sum.entry(*hop).or_insert(0) += flow.weight_u64();
            }
        }
        active.push(i);
    }

    while !active.is_empty() {
        // Global water level and bottleneck link (first achiever in
        // ascending (LinkId, direction) order wins ties).
        let mut level = u64::MAX;
        let mut bottleneck: Option<DirectedLink> = None;
        for (link, w) in &weight_sum {
            if *w == 0 {
                continue;
            }
            let l = residual.get(link).copied().unwrap_or(0) / w;
            // DEVIATION: was `if l < level`, which never accepted a link
            // whose level is exactly u64::MAX (see the module comment).
            if bottleneck.is_none() || l < level {
                level = l;
                bottleneck = Some(*link);
            }
        }
        let Some(bottleneck) = bottleneck else { break };

        // Cap-limited flows freeze first (at their cap, which is at or
        // below the level share); only if none exist does the bottleneck
        // link freeze its crossers at exactly λ·w.
        let mut frozen: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| {
                let f = flows[i];
                f.max_bps - grants[&f.session] <= level.saturating_mul(f.weight_u64())
            })
            .collect();
        if frozen.is_empty() {
            frozen = active
                .iter()
                .copied()
                .filter(|&i| flows[i].hops.contains(&bottleneck))
                .collect();
        }
        debug_assert!(!frozen.is_empty());

        let frozen_set: BTreeSet<usize> = frozen.iter().copied().collect();
        for &i in &frozen {
            let flow = flows[i];
            let headroom = flow.max_bps - grants[&flow.session];
            let extra = headroom.min(level.saturating_mul(flow.weight_u64()));
            *grants.get_mut(&flow.session).expect("granted in tier 1") += extra;
            for hop in &flow.hops {
                if let Some(r) = residual.get_mut(hop) {
                    *r = r.saturating_sub(extra);
                }
                if let Some(w) = weight_sum.get_mut(hop) {
                    *w = w.saturating_sub(flow.weight_u64());
                }
            }
        }
        active.retain(|i| !frozen_set.contains(i));
    }

    grants
}

/// Directed links the generated flows may name: 14 links × 2 directions.
const LINKS: usize = 14;

fn link_ids() -> Vec<LinkId> {
    crate::tests::line_topology(LINKS).1
}

/// Session ids are sparse and unordered in `k`; the first few sit at the
/// top of the `u64` range.
fn session_id(k: u16) -> u64 {
    if k < 4 {
        u64::MAX - u64::from(k)
    } else {
        u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Rates and capacities: zero and tiny values, a contended mid range, the
/// `u64::MAX / 2` neighbourhood (sums of two overflow) and the very top.
fn arb_bps() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..=3,
        1_000u64..=1_000_000,
        1_000u64..=1_000_000,
        (u64::MAX / 2 - 2)..=(u64::MAX / 2 + 2),
        (u64::MAX - 2)..=u64::MAX,
    ]
    .boxed()
}

fn arb_weight() -> BoxedStrategy<u32> {
    prop_oneof![Just(0u32), 1u32..=5, 1u32..=5, Just(u32::MAX)].boxed()
}

#[derive(Debug, Clone)]
struct GenOp {
    kind: u8,
    session: u16,
    min_bps: u64,
    max_bps: u64,
    weight: u32,
    /// Arbitrary picks, not a path: shared prefixes, branches, repeated
    /// links and links nobody gave a capacity all occur.
    hops: Vec<(usize, bool)>,
    capacity_bps: u64,
}

fn arb_op(sessions: u16) -> impl Strategy<Value = GenOp> {
    (
        (0u8..12, 0..sessions),
        (arb_bps(), arb_bps(), arb_weight()),
        proptest::collection::vec((0..LINKS, proptest::bool::ANY), 0..=6),
        arb_bps(),
    )
        .prop_map(
            |((kind, session), (min_bps, max_bps, weight), hops, capacity_bps)| GenOp {
                kind,
                session,
                min_bps,
                max_bps,
                weight,
                hops,
                capacity_bps,
            },
        )
}

/// Hops around one hub link (link 0, forward) that most flows share:
/// crossed twice, once, or not at all beside one of three side links. A
/// flow crossing the hub twice is one flow but two of its crossers.
fn arb_hub_hops() -> BoxedStrategy<Vec<(usize, bool)>> {
    const HUB: (usize, bool) = (0, true);
    prop_oneof![
        Just(vec![HUB, HUB]),
        Just(vec![HUB]),
        (1..4usize).prop_map(|side| vec![HUB, (side, true)]),
        (1..4usize).prop_map(|side| vec![HUB, (side, true), HUB]),
        (1..4usize).prop_map(|side| vec![(side, true)]),
    ]
    .boxed()
}

/// Ops for the hub family: modest rates so the hub and the side links
/// saturate at different levels (several rounds per recompute), small caps
/// so cap-limited rounds come first, and `min ≥ max` often enough that
/// flows sit at their cap from the floors on. A capacity op names one
/// link, which gets `capacity_bps` itself.
fn arb_hub_op(sessions: u16) -> impl Strategy<Value = GenOp> {
    (
        (0u8..12, 0..sessions),
        (
            0u64..=4_000,
            prop_oneof![1u64..=4_000, 4_000u64..=60_000],
            1u32..=4,
        ),
        arb_hub_hops(),
        1_000u64..=60_000,
    )
        .prop_map(
            |((kind, session), (min_bps, max_bps, weight), mut hops, capacity_bps)| {
                if kind >= 10 {
                    hops.truncate(1);
                }
                GenOp {
                    kind,
                    session,
                    min_bps,
                    max_bps,
                    weight,
                    hops,
                    capacity_bps,
                }
            },
        )
}

/// Both brokers under one op stream, compared after every step.
struct Pair {
    links: Vec<LinkId>,
    dense: BandwidthBroker,
    reference: ReferenceBroker,
    live: BTreeSet<u64>,
    /// Every session id an op has registered, live or departed.
    seen: BTreeSet<u64>,
}

impl Pair {
    fn new(policy: SharingPolicy) -> Pair {
        Pair {
            links: link_ids(),
            dense: BandwidthBroker::new(policy),
            reference: ReferenceBroker::new(policy),
            live: BTreeSet::new(),
            seen: BTreeSet::new(),
        }
    }

    fn set_capacity(&mut self, link: usize, forward: bool, capacity_bps: u64) {
        self.dense
            .set_capacity(self.links[link], forward, capacity_bps);
        self.reference
            .set_capacity(self.links[link], forward, capacity_bps);
    }

    fn spec(&self, op: &GenOp) -> FlowSpec {
        FlowSpec {
            session: session_id(op.session),
            min_bps: op.min_bps,
            max_bps: op.max_bps,
            weight: op.weight,
            hops: op
                .hops
                .iter()
                .map(|&(l, dir)| (self.links[l], dir))
                .collect(),
        }
    }

    fn register(&mut self, spec: FlowSpec) {
        self.live.insert(spec.session);
        self.seen.insert(spec.session);
        self.dense.register(spec.clone());
        self.reference.register(spec);
    }

    fn apply(&mut self, op: &GenOp) {
        // An existing session picked by the op, if any is live.
        let incumbent = self
            .live
            .iter()
            .nth(usize::from(op.session) % self.live.len().max(1))
            .copied();
        match op.kind {
            // Arrival, or a changed re-pin when the id is already live.
            0..=3 => self.register(self.spec(op)),
            // Changed re-pin of a live session.
            4 => {
                if let Some(session) = incumbent {
                    let spec = FlowSpec {
                        session,
                        ..self.spec(op)
                    };
                    self.register(spec);
                }
            }
            // Identical re-pin.
            5 => {
                if let Some(session) = incumbent {
                    let spec = self.dense.flow(session).expect("live").clone();
                    self.register(spec);
                }
            }
            // Departure of a live session.
            6..=8 => {
                if let Some(session) = incumbent {
                    self.live.remove(&session);
                    assert!(self.dense.deregister(session));
                    assert!(self.reference.deregister(session));
                }
            }
            // Departure of whatever id the op names, usually absent.
            9 => {
                let session = session_id(op.session);
                self.live.remove(&session);
                assert_eq!(
                    self.dense.deregister(session),
                    self.reference.deregister(session)
                );
            }
            // Capacity changes (new links included), then one rebalance.
            _ => {
                for (i, &(l, dir)) in op.hops.iter().enumerate() {
                    let cap = op.capacity_bps.rotate_left(i as u32 * 7) >> (i % 3 * 20);
                    self.set_capacity(l, dir, cap);
                }
                self.dense.rebalance();
                self.reference.rebalance();
            }
        }
    }

    fn check(&self, step: usize) {
        assert_eq!(
            &self.dense.grants(),
            self.reference.grants(),
            "grants diverged at step {step}"
        );
        assert_eq!(
            self.dense.epoch(),
            self.reference.epoch(),
            "epoch, step {step}"
        );
        assert_eq!(
            self.dense.reallocations(),
            self.reference.reallocations(),
            "reallocations, step {step}"
        );
        assert_eq!(self.dense.flow_count(), self.live.len());
        for &session in &self.live {
            let flow = self.dense.flow(session).expect("live");
            let grant = self.dense.grant(session).expect("live");
            match self.dense.bottleneck(session).expect("live") {
                Bottleneck::Cap => assert_eq!(grant, flow.max_bps, "step {step}"),
                Bottleneck::Floor { link } | Bottleneck::Link { link, .. } => {
                    assert!(grant < flow.max_bps, "step {step}");
                    assert!(flow.hops.contains(&link), "step {step}");
                }
            }
        }
        // A departed session's slot may hold another tenant by now; the
        // departed id must answer nothing.
        for &session in self.seen.difference(&self.live) {
            assert_eq!(self.dense.grant(session), None, "step {step}");
            assert_eq!(self.dense.bottleneck(session), None, "step {step}");
            assert!(self.dense.flow(session).is_none(), "step {step}");
        }
    }

    fn run(&mut self, ops: &[GenOp]) {
        for (step, op) in ops.iter().enumerate() {
            self.apply(op);
            self.check(step);
        }
    }
}

const POLICIES: [SharingPolicy; 2] = [SharingPolicy::WeightedMaxMin, SharingPolicy::Fcfs];

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// A few sessions churning hard: every op kind lands on a small
    /// population, so re-pins, absent departures and slot reuse dominate.
    #[test]
    fn dense_broker_equals_reference_under_churn(
        ops in proptest::collection::vec(arb_op(24), 40..=120)
    ) {
        for policy in POLICIES {
            Pair::new(policy).run(&ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// ≥ 200 concurrent flows: 400 arrivals over 320 ids, then mixed churn.
    #[test]
    fn dense_broker_equals_reference_at_200_flows(
        arrivals in proptest::collection::vec(arb_op(320), 400),
        churn in proptest::collection::vec(arb_op(320), 60),
    ) {
        for policy in POLICIES {
            let mut pair = Pair::new(policy);
            for (step, op) in arrivals.iter().enumerate() {
                pair.apply(&GenOp { kind: 0, ..op.clone() });
                pair.check(step);
            }
            prop_assert!(pair.live.len() >= 200, "only {} flows", pair.live.len());
            pair.run(&churn);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Multi-round recomputes around a hub some flows cross twice: cap
    /// rounds, then the hub or a side link, then the rest. A round on the
    /// hub that freezes a double-crossing flow freezes fewer flows than
    /// the hub has crossers, so it must not pass for the last round while
    /// side-link flows are still rising.
    #[test]
    fn double_crossings_of_the_bottleneck_match_reference(
        capacities in proptest::collection::vec(1_000u64..=60_000, 4),
        ops in proptest::collection::vec(arb_hub_op(10), 20..=60),
    ) {
        for policy in POLICIES {
            let mut pair = Pair::new(policy);
            for (link, &capacity) in capacities.iter().enumerate() {
                pair.set_capacity(link, true, capacity);
            }
            pair.run(&ops);
        }
    }
}

#[test]
fn u64_max_capacity_is_not_mistaken_for_no_link() {
    for weight in [1, 2] {
        let mut pair = Pair::new(SharingPolicy::WeightedMaxMin);
        pair.set_capacity(0, true, u64::MAX);
        let link = pair.links[0];
        pair.register(FlowSpec {
            session: 0,
            min_bps: 0,
            max_bps: 5_000,
            weight,
            hops: vec![(link, true)],
        });
        pair.check(0);
        assert_eq!(pair.dense.grant(0), Some(5_000));
    }
}
