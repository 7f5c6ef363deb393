//! Cross-session bandwidth broker.
//!
//! The paper's `Bandwidth_AvailableBetween` (Equa. 2) reasoning is strictly
//! per-request: each chain grabs link capacity first-come first-served, so a
//! thousand concurrent sessions through one backbone link collapse the
//! satisfaction tail. This crate adds the missing cross-session arbiter: a
//! deterministic, preemption-free broker that knows every live session's
//! demand window `(min_bps, max_bps)`, its priority-class weight, and the
//! directed links its plan is pinned to, and computes a weighted max-min
//! fair allocation by integer water-filling over the link-flow incidence.
//!
//! Design points:
//!
//! - **All arithmetic is integer `u64` bps** with saturating operations and
//!   deterministic tie-breaks (links by `(LinkId, direction)`; nothing
//!   depends on flow order), so allocations are bit-identical across runs,
//!   worker counts and flow-registration orders.
//! - **Preemption-free departures.** When a flow leaves, its released
//!   bandwidth is redistributed by water-filling *upward from the surviving
//!   grants*: no survivor's grant ever decreases. Arrivals and capacity
//!   changes trigger a full rebalance (a newcomer must be able to squeeze
//!   incumbents down to their fair share — that is fairness, not
//!   preemption).
//! - **Epoch counter.** `epoch()` bumps iff a grant value or the set of
//!   granted sessions changed, so consumers (the session event loop) can
//!   cheaply detect reallocations and re-evaluate ladder rungs without
//!   re-composing.
//!
//! The greedy first-come first-served baseline lives behind the same API
//! ([`SharingPolicy::Fcfs`]) and runs over the same tables, so benchmarks
//! compare both under identical event sequences.
//!
//! # Data layout
//!
//! Every arrival, re-pin and departure re-solves the whole allocation, so
//! the solver's cost is the ceiling on sessions per second. Everything it
//! touches is therefore a dense table the broker owns and reuses; a
//! steady-state `register` / `deregister` / `rebalance` allocates nothing
//! (`tests/broker_alloc.rs` gates that).
//!
//! - **Links** are interned to dense ids whose order is ascending
//!   `(LinkId, direction)`, so "first link reaching the minimum level" in id
//!   order is the documented tie-break. A link enters the table at its first
//!   `set_capacity` or when a flow first names it as a hop (without a
//!   capacity it stays unconstrained) and never leaves. Interning is a
//!   binary search plus one ordered insert; only an insert *below* an
//!   existing id renumbers the hops of registered flows, which happens while
//!   a topology is still being announced, not per recompute.
//! - **Flows** live in slots (a free list recycles them, keeping each
//!   slot's hop buffer). A flow's hops are translated to link ids once, at
//!   `register`, and kept sorted so duplicates are adjacent. Each link keeps
//!   the list of slots crossing it. A [`SessionMap`] from session to slot
//!   answers [`BandwidthBroker::grant`], [`BandwidthBroker::flow`] and
//!   [`BandwidthBroker::bottleneck`] in O(1); `deregister` removes the
//!   entry before the slot is recycled.
//! - **Per-recompute state** (`residual` and `weight_sum` per link; working
//!   level, `active` bit and freeze reason per slot; the cap-limited order;
//!   the flows a round froze) is overwritten in place. Whether any grant
//!   changed is decided as each final grant is written.
//!
//! A recompute walks each flow's hops once to lay the floors and the weight
//! sums together, and once more only if the flow freezes in a round that is
//! not the last: a round writes its flows' grants first and replays their
//! residual / weight bookkeeping only when flows remain after it. That
//! costs `O(flows·hops + a·log a + (rounds−1)·flows·hops + rounds·links)`
//! where `a` is the number of flows still below their cap after the floors;
//! see [`BandwidthBroker::bottleneck`] for what each flow's outcome records.

use qosc_netsim::LinkId;
use qosc_telemetry::MetricsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

#[cfg(test)]
mod reference;
#[cfg(test)]
mod work_gate;

/// A map keyed by session id, hashed by [`SessionHasher`].
pub type SessionMap<V> = HashMap<u64, V, BuildHasherDefault<SessionHasher>>;

/// Hasher for session-id keys: one folded 64 × 64 → 128-bit multiply per
/// `u64`. Session ids are chosen by the serving loop, not by remote
/// parties, so the map needs a well-spread hash (hashbrown reads both the
/// top and the bottom bits), not a keyed one. Total on every input.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionHasher(u64);

impl Hasher for SessionHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        const MIX: u128 = 0xA076_1D64_78BD_642F;
        let product = u128::from(self.0 ^ n) * MIX;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

#[cfg(test)]
thread_local! {
    /// Hop visits made by water-filling recomputes on this thread — the
    /// meter of the counted-work gate in `work_gate.rs`.
    static HOP_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Meter a walk over `hops` of one flow's hops (test builds only).
#[inline(always)]
fn visit_hops(hops: usize) {
    #[cfg(test)]
    HOP_VISITS.with(|visits| visits.set(visits.get() + hops as u64));
    #[cfg(not(test))]
    let _ = hops;
}

/// A directed traversal of one link: `(link, forward?)` — the same encoding
/// `Route::directed_hops` produces.
pub type DirectedLink = (LinkId, bool);

/// One session's registered demand, pinned to its plan's route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Session identifier (index into the session table).
    pub session: u64,
    /// Guaranteed floor in bps (granted before any water-filling; callers
    /// must keep admission honest so floors stay feasible).
    pub min_bps: u64,
    /// Demand ceiling in bps — the flow is frozen at this cap once reached.
    pub max_bps: u64,
    /// Priority-class weight (e.g. interactive 4, standard 2, background 1).
    /// Zero is treated as one.
    pub weight: u32,
    /// Directed links the flow crosses; duplicates count multiply (a flow
    /// crossing a link twice consumes twice its rate there).
    pub hops: Vec<DirectedLink>,
}

impl FlowSpec {
    fn weight_u64(&self) -> u64 {
        u64::from(self.weight.max(1))
    }
}

/// Allocation discipline used on every recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Greedy first-come first-served: replay registration order, grant each
    /// flow `min(max_bps, bottleneck residual)`. The paper's implicit
    /// baseline.
    Fcfs,
    /// Weighted max-min fairness via integer water-filling with iterative
    /// bottleneck-link freezing.
    WeightedMaxMin,
}

/// Why a flow holds the grant it holds — what the last recompute recorded
/// when it fixed the flow's rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The flow holds its full demand (`max_bps`): its floor already
    /// reached the cap, no hop is capacity-constrained, or the water level
    /// reached its headroom before any of its links saturated.
    Cap,
    /// The flow holds exactly its floor (`min_bps`, or its previous grant
    /// after a departure): `link` had nothing left above the floors of the
    /// flows crossing it (it froze them at level 0).
    Floor { link: DirectedLink },
    /// `link` saturated at water level `level`: the flow holds
    /// `floor + level × weight`. Under [`SharingPolicy::Fcfs`] there is no
    /// water level; `level` is the per-crossing rate `link` had left when
    /// the flow's turn came, which is the grant.
    Link { link: DirectedLink, level: u64 },
}

/// One interned directed link.
#[derive(Debug, Clone)]
struct Link {
    key: DirectedLink,
    /// Effective capacity in bps; `None` = unconstrained.
    capacity: Option<u64>,
    /// Slots of the registered flows crossing this link, once per crossing,
    /// in no particular order.
    crossers: Vec<u32>,
    /// Recompute scratch: capacity not yet granted. Meaningless on
    /// unconstrained links (written, never read).
    residual: u64,
    /// Recompute scratch: Σ weight over the still-active crossings. Stays 0
    /// on unconstrained links.
    weight_sum: u64,
}

/// One flow slot. Vacant slots (`spec == None`) sit on the free list and
/// keep `links`' buffer for the next tenant.
#[derive(Debug, Clone)]
struct FlowSlot {
    spec: Option<FlowSpec>,
    /// Registration sequence number — the FCFS order (a re-pin keeps it).
    seq: u64,
    /// `spec.hops` as link ids, ascending (duplicates adjacent).
    links: Vec<u32>,
    /// Published grant.
    grant: u64,
    limit: Bottleneck,
    /// Recompute scratch: the floor the flow water-fills upward from.
    floor: u64,
    /// Recompute scratch: still rising with the water level.
    active: bool,
}

impl FlowSlot {
    /// The tenant's spec, for slots the caller knows are occupied (it found
    /// them through `sessions`, or marked them active in this recompute).
    fn flow(&self) -> &FlowSpec {
        self.spec.as_ref().expect("occupied slot")
    }
}

/// The broker: capacities + registered flows + published grants.
#[derive(Debug, Clone)]
pub struct BandwidthBroker {
    policy: SharingPolicy,
    /// Interned links; index = dense id, ascending `key`.
    links: Vec<Link>,
    slots: Vec<FlowSlot>,
    /// Vacant slots.
    free: Vec<u32>,
    /// The slot of every registered flow.
    sessions: SessionMap<u32>,
    next_seq: u64,
    epoch: u64,
    reallocations: u64,
    /// Recompute scratch: `(⌈headroom / weight⌉, slot)` of the active flows
    /// under water-filling, `(seq, slot)` of every flow under FCFS.
    order: Vec<(u64, u32)>,
    /// Recompute scratch: the slots one water-filling round froze.
    frozen: Vec<u32>,
}

impl BandwidthBroker {
    pub fn new(policy: SharingPolicy) -> BandwidthBroker {
        BandwidthBroker {
            policy,
            links: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            sessions: SessionMap::default(),
            next_seq: 0,
            epoch: 0,
            reallocations: 0,
            order: Vec::new(),
            frozen: Vec::new(),
        }
    }

    pub fn policy(&self) -> SharingPolicy {
        self.policy
    }

    /// Stage an effective-capacity update for one directed link. Does not
    /// recompute: callers batch capacity changes (e.g. one chaos event can
    /// squeeze many links) and then call [`BandwidthBroker::rebalance`].
    pub fn set_capacity(&mut self, link: LinkId, forward: bool, capacity_bps: u64) {
        let id = self.intern((link, forward));
        self.links[id as usize].capacity = Some(capacity_bps);
    }

    /// Register (or re-pin) a session's flow, then rebalance from scratch.
    /// A re-pin replaces the previous spec but keeps the original FCFS
    /// sequence number, so rung switches don't launder queue position.
    pub fn register(&mut self, flow: FlowSpec) {
        for &hop in &flow.hops {
            self.intern(hop);
        }
        let (slot, arrived) = match self.sessions.get(&flow.session) {
            Some(&slot) => {
                self.unlink(slot);
                (slot, false)
            }
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 flows");
                    self.slots.push(FlowSlot {
                        spec: None,
                        seq: 0,
                        links: Vec::new(),
                        grant: 0,
                        limit: Bottleneck::Cap,
                        floor: 0,
                        active: false,
                    });
                    slot
                });
                self.sessions.insert(flow.session, slot);
                self.slots[slot as usize].seq = self.next_seq;
                self.next_seq += 1;
                (slot, true)
            }
        };
        let entry = &mut self.slots[slot as usize];
        entry.links.clear();
        for hop in &flow.hops {
            let id = self
                .links
                .binary_search_by_key(hop, |l| l.key)
                .expect("interned above");
            entry.links.push(id as u32);
        }
        entry.links.sort_unstable();
        for &id in &entry.links {
            self.links[id as usize].crossers.push(slot);
        }
        entry.spec = Some(flow);
        self.recompute(Floors::None, arrived);
    }

    /// Remove a departing session's flow. The released bandwidth is
    /// redistributed preemption-free: survivors are water-filled upward
    /// from their current grants, so no survivor's grant decreases.
    pub fn deregister(&mut self, session: u64) -> bool {
        let Some(slot) = self.sessions.remove(&session) else {
            return false;
        };
        self.unlink(slot);
        self.slots[slot as usize].spec = None;
        self.free.push(slot);
        self.recompute(Floors::PreviousGrants, true);
        true
    }

    /// Full rebalance against the current capacities (arrivals and
    /// capacity changes rebalance from the registered floors only).
    pub fn rebalance(&mut self) {
        self.recompute(Floors::None, false);
    }

    /// Granted rate in bps for a session, if it has a registered flow.
    pub fn grant(&self, session: u64) -> Option<u64> {
        self.slot_of(session).map(|slot| slot.grant)
    }

    /// The registered spec for a session, if any.
    pub fn flow(&self, session: u64) -> Option<&FlowSpec> {
        self.slot_of(session).map(FlowSlot::flow)
    }

    /// What fixed the session's grant in the last recompute: its own cap,
    /// its floor, or a saturated link and the water level it froze at.
    pub fn bottleneck(&self, session: u64) -> Option<Bottleneck> {
        self.slot_of(session).map(|slot| slot.limit)
    }

    /// Bumps every time a grant value or the set of granted sessions
    /// changes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of recomputes that actually changed at least one grant.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    pub fn flow_count(&self) -> usize {
        self.sessions.len()
    }

    /// All current grants (session → bps), in session-id order,
    /// materialised on demand.
    pub fn grants(&self) -> BTreeMap<u64, u64> {
        self.sessions
            .iter()
            .map(|(&session, &slot)| (session, self.slots[slot as usize].grant))
            .collect()
    }

    /// Publish per-class gauges and the reallocation counter.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry
            .counter("qosc_broker_reallocations_total")
            .store(self.reallocations);
        registry
            .gauge("qosc_broker_flows")
            .set(self.flow_count() as i64);
        let mut by_weight: BTreeMap<u64, u64> = BTreeMap::new();
        for slot in &self.slots {
            if let Some(flow) = &slot.spec {
                *by_weight.entry(flow.weight_u64()).or_insert(0) += slot.grant;
            }
        }
        for (weight, total) in by_weight {
            registry
                .gauge(&format!("qosc_broker_granted_bps_weight_{weight}"))
                .set(total.min(i64::MAX as u64) as i64);
        }
    }

    fn slot_of(&self, session: u64) -> Option<&FlowSlot> {
        let &slot = self.sessions.get(&session)?;
        Some(&self.slots[slot as usize])
    }

    /// Dense id of `key`, interning it (unconstrained) if it is new. Ids
    /// stay in ascending key order: an insert below existing ids shifts
    /// them, and the registered flows' translated hops with them.
    fn intern(&mut self, key: DirectedLink) -> u32 {
        let at = match self.links.binary_search_by_key(&key, |l| l.key) {
            Ok(at) => at,
            Err(at) => {
                self.links.insert(
                    at,
                    Link {
                        key,
                        capacity: None,
                        crossers: Vec::new(),
                        residual: 0,
                        weight_sum: 0,
                    },
                );
                if at + 1 < self.links.len() {
                    for id in self.slots.iter_mut().flat_map(|slot| &mut slot.links) {
                        if *id as usize >= at {
                            *id += 1;
                        }
                    }
                }
                at
            }
        };
        u32::try_from(at).expect("fewer than 2^32 directed links")
    }

    /// Take `slot` off the crosser list of every link it crosses (once per
    /// crossing).
    fn unlink(&mut self, slot: u32) {
        for &id in &self.slots[slot as usize].links {
            let crossers = &mut self.links[id as usize].crossers;
            if let Some(at) = crossers.iter().position(|&s| s == slot) {
                crossers.swap_remove(at);
            }
        }
    }

    /// Re-solve the allocation. The epoch bumps iff a grant value changed
    /// or `membership_changed` (a session arrived or left).
    fn recompute(&mut self, floors: Floors, membership_changed: bool) {
        let grant_changed = match self.policy {
            SharingPolicy::Fcfs => self.fill_fcfs(),
            SharingPolicy::WeightedMaxMin => self.waterfill(floors),
        };
        if grant_changed || membership_changed {
            self.epoch += 1;
            self.reallocations += 1;
        }
    }

    /// First-come first-served over the dense tables: replay registration
    /// order, grant each flow `min(max_bps, residual / crossings)` over its
    /// constrained links. Returns whether any grant changed.
    fn fill_fcfs(&mut self) -> bool {
        let BandwidthBroker {
            links,
            slots,
            order,
            ..
        } = self;
        for link in links.iter_mut() {
            link.residual = link.capacity.unwrap_or(0);
        }
        order.clear();
        for (s, slot) in slots.iter().enumerate() {
            if slot.spec.is_some() {
                order.push((slot.seq, s as u32));
            }
        }
        order.sort_unstable();
        let mut changed = false;
        for &(_, s) in order.iter() {
            let slot = &mut slots[s as usize];
            // Multiplicity-aware bottleneck: crossing a link c times caps
            // the rate at residual / c there. `links` is sorted, so the c
            // crossings of one link are adjacent.
            let mut avail = slot.flow().max_bps;
            let mut limit = Bottleneck::Cap;
            let mut run = 0;
            while run < slot.links.len() {
                let id = slot.links[run];
                let crossings = slot.links[run..].iter().take_while(|&&l| l == id).count();
                run += crossings;
                let link = &links[id as usize];
                let share = link.residual / crossings as u64;
                if link.capacity.is_some() && share < avail {
                    avail = share;
                    limit = Bottleneck::Link {
                        link: link.key,
                        level: avail,
                    };
                }
            }
            for &id in &slot.links {
                let link = &mut links[id as usize];
                link.residual = link.residual.saturating_sub(avail);
            }
            changed |= slot.grant != avail;
            slot.grant = avail;
            slot.limit = limit;
        }
        changed
    }

    /// Integer weighted max-min water-filling. Returns whether any grant
    /// changed.
    ///
    /// Tier 1 grants every flow its floor (saturating the residuals —
    /// admission keeps floors feasible, the kernel stays total regardless).
    /// Tier 2 then raises all unfrozen flows in lock-step proportional to
    /// weight: each round computes the per-link level
    /// `floor(residual / Σ weights crossing)`, takes the global minimum `λ`,
    /// freezes cap-limited flows (remaining headroom `≤ λ·w`) at their cap,
    /// otherwise freezes every flow crossing the bottleneck link (lowest
    /// `(LinkId, direction)` on ties) at exactly `floor + λ·w`. No
    /// sub-weight remainder is distributed and every per-link update is a
    /// commutative saturating add/subtract, so the result is independent of
    /// flow order; the waste per saturated link is below the link's weight
    /// sum.
    ///
    /// # Finding the cap-limited flows
    ///
    /// An unfrozen flow holds only its floor — `residual` is reduced by
    /// frozen flows alone — so `λ` is an absolute level, each flow's
    /// headroom `h = max_bps − floor` is fixed for the whole recompute, and
    /// `λ` never falls from one round to the next: freezing a flow on link
    /// `l` takes at most `λ·w` from a residual that was at least
    /// `λ·weight_sum(l)` and takes `w` from `weight_sum(l)`, so what is left
    /// is still at least `λ` per remaining weight unit. With integer `λ` and
    /// `w ≥ 1`, `h ≤ λ·w ⇔ ⌈h/w⌉ ≤ λ`; the kernel's test is
    /// `h ≤ λ.saturating_mul(w)`, and at the saturation edge
    /// (`λ·w > u64::MAX`) that is `h ≤ u64::MAX`, always true, exactly like
    /// `h ≤ λ·w` over the integers — the two agree for every `u64` input.
    /// So the active flows are sorted once by `⌈h/w⌉`, and each round's
    /// cap-limited set is the next run of that order up to `λ` (skipping
    /// flows a bottleneck link froze meanwhile): a round costs
    /// `O(links + flows it freezes)`, and the crossers of a link are walked
    /// only in the one round that freezes it. The sort itself waits for the
    /// first round whose `λ` reaches the smallest `⌈h/w⌉`: until then no
    /// flow can be cap-limited, and when floors nearly fill the shared
    /// links — one bottleneck freezing everybody at a low level — it never
    /// runs.
    ///
    /// # Walking the hops once per flow
    ///
    /// The floors (tier 1) and the weight sums tier 2 starts from are laid
    /// in one walk over each flow's hops: they touch different fields with
    /// commutative updates, so interleaving them changes nothing. A round
    /// then fixes its flows' grants first and records them in `frozen`;
    /// their residual and weight bookkeeping only matters to later rounds,
    /// so it is replayed from `frozen` only when flows remain. The last
    /// round — usually the only one — walks no hops at all. "Flows remain"
    /// is counted in distinct flows frozen, never in a link's crossers: a
    /// flow crossing the bottleneck twice appears there twice.
    fn waterfill(&mut self, floors: Floors) -> bool {
        let BandwidthBroker {
            links,
            slots,
            order,
            frozen,
            ..
        } = self;
        for link in links.iter_mut() {
            link.residual = link.capacity.unwrap_or(0);
            link.weight_sum = 0;
        }

        // Tier 1 and tier 2's setup in one walk: every flow's floor comes
        // off the residuals of the links it crosses; a flow below its cap
        // adds its weight to the constrained ones and goes active. Flows
        // already at their cap, or crossing no constrained link, are
        // settled here.
        let mut changed = false;
        let mut lowest_cap = u64::MAX;
        order.clear();
        for (s, slot) in slots.iter_mut().enumerate() {
            let Some(flow) = &slot.spec else { continue };
            let floor = match floors {
                Floors::None => flow.min_bps,
                Floors::PreviousGrants => slot.grant.max(flow.min_bps),
            }
            .min(flow.max_bps);
            slot.floor = floor;
            let weight = if floor < flow.max_bps {
                flow.weight_u64()
            } else {
                0
            };
            let mut constrained = false;
            visit_hops(slot.links.len());
            for &id in &slot.links {
                let link = &mut links[id as usize];
                link.residual = link.residual.saturating_sub(floor);
                if link.capacity.is_some() {
                    link.weight_sum += weight;
                    constrained = true;
                }
            }
            slot.active = weight > 0 && constrained;
            if !slot.active {
                changed |= slot.grant != flow.max_bps;
                slot.grant = flow.max_bps;
                slot.limit = Bottleneck::Cap;
                continue;
            }
            let capped_at = (flow.max_bps - slot.floor).div_ceil(weight);
            lowest_cap = lowest_cap.min(capped_at);
            order.push((capped_at, s as u32));
        }

        let mut remaining = order.len();
        let mut sorted = false;
        let mut next_capped = 0;
        // A round freezes at most every active flow; reserving that once
        // keeps steady-state recomputes allocation-free.
        frozen.clear();
        frozen.reserve(remaining);
        while remaining > 0 {
            // Global water level and bottleneck link (first achiever in
            // ascending id = (LinkId, direction) order wins ties).
            let mut bottleneck: Option<(u64, usize)> = None;
            for (id, link) in links.iter().enumerate() {
                if link.weight_sum == 0 {
                    continue;
                }
                let level = link.residual / link.weight_sum;
                if bottleneck.is_none_or(|(lowest, _)| level < lowest) {
                    bottleneck = Some((level, id));
                }
            }
            // Every active flow crosses a constrained link and holds its
            // weight in that link's sum until it freezes.
            let Some((level, bottleneck)) = bottleneck else {
                debug_assert!(false, "active flows without a weighted link");
                break;
            };

            // Cap-limited flows freeze first (at their cap, which is at or
            // below the level share); only if none exist does the
            // bottleneck link freeze its crossers at exactly λ·w.
            frozen.clear();
            if level >= lowest_cap {
                if !sorted {
                    order.sort_unstable();
                    sorted = true;
                }
                while let Some(&(capped_at, s)) = order.get(next_capped) {
                    let slot = &mut slots[s as usize];
                    if slot.active {
                        if capped_at > level {
                            break;
                        }
                        let headroom = slot.flow().max_bps - slot.floor;
                        changed |= freeze(slot, headroom, Bottleneck::Cap);
                        frozen.push(s);
                    }
                    next_capped += 1;
                }
            }
            if frozen.is_empty() {
                let key = links[bottleneck].key;
                let limit = if level == 0 {
                    Bottleneck::Floor { link: key }
                } else {
                    Bottleneck::Link { link: key, level }
                };
                for &s in &links[bottleneck].crossers {
                    let slot = &mut slots[s as usize];
                    if slot.active {
                        // Not cap-limited, so λ·w is below the headroom
                        // and cannot have saturated.
                        let extra = level * slot.flow().weight_u64();
                        changed |= freeze(slot, extra, limit);
                        frozen.push(s);
                    }
                }
                if frozen.is_empty() {
                    debug_assert!(false, "a round must freeze a flow");
                    break;
                }
            }
            remaining -= frozen.len();
            if remaining == 0 {
                break;
            }
            // Flows remain: take what this round granted from the links
            // the next rounds level.
            for &s in frozen.iter() {
                let slot = &slots[s as usize];
                let extra = slot.grant - slot.floor;
                let weight = slot.flow().weight_u64();
                visit_hops(slot.links.len());
                for &id in &slot.links {
                    // Unconstrained links carry no weight (their sum stays
                    // 0) and nobody reads their residual.
                    let link = &mut links[id as usize];
                    link.residual = link.residual.saturating_sub(extra);
                    link.weight_sum = link.weight_sum.saturating_sub(weight);
                }
            }
        }
        changed
    }
}

/// Fix an active flow's grant at `floor + extra` and report whether the
/// published grant moved. The links it crosses are left to the caller.
fn freeze(slot: &mut FlowSlot, extra: u64, limit: Bottleneck) -> bool {
    let grant = slot.floor + extra;
    let changed = slot.grant != grant;
    slot.grant = grant;
    slot.limit = limit;
    slot.active = false;
    changed
}

/// Which floor each flow water-fills upward from.
#[derive(Debug, Clone, Copy)]
enum Floors {
    /// Registered `min_bps` — full rebalance (arrival / capacity change).
    None,
    /// `max(previous grant, min_bps)` — preemption-free departure.
    PreviousGrants,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_netsim::{Node, Topology};

    pub(crate) fn line_topology(links: usize) -> (Topology, Vec<LinkId>) {
        let mut topo = Topology::new();
        let mut prev = topo.add_node(Node::unconstrained("n0"));
        let mut ids = Vec::new();
        for i in 0..links {
            let next = topo.add_node(Node::unconstrained(format!("n{}", i + 1)));
            ids.push(topo.connect_simple(prev, next, 1e9).expect("connect"));
            prev = next;
        }
        (topo, ids)
    }

    fn flow(session: u64, min: u64, max: u64, weight: u32, hops: Vec<DirectedLink>) -> FlowSpec {
        FlowSpec {
            session,
            min_bps: min,
            max_bps: max,
            weight,
            hops,
        }
    }

    #[test]
    fn equal_weights_split_a_single_bottleneck_evenly() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 9_000);
        for s in 0..3 {
            broker.register(flow(s, 0, 100_000, 1, vec![(l, true)]));
        }
        for s in 0..3 {
            assert_eq!(broker.grant(s), Some(3_000));
        }
    }

    #[test]
    fn weights_shape_the_split() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 7_000);
        broker.register(flow(0, 0, 100_000, 4, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 2, vec![(l, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(0), Some(4_000));
        assert_eq!(broker.grant(1), Some(2_000));
        assert_eq!(broker.grant(2), Some(1_000));
    }

    #[test]
    fn capped_flow_releases_its_share_to_the_rest() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 12_000);
        broker.register(flow(0, 0, 2_000, 1, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(0), Some(2_000));
        assert_eq!(broker.grant(1), Some(5_000));
        assert_eq!(broker.grant(2), Some(5_000));
    }

    #[test]
    fn mins_are_granted_before_water_filling() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 10_000);
        broker.register(flow(0, 8_000, 100_000, 1, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l, true)]));
        // Session 0 keeps its floor; the 2k headroom splits 1k/1k.
        assert_eq!(broker.grant(0), Some(9_000));
        assert_eq!(broker.grant(1), Some(1_000));
    }

    #[test]
    fn multi_link_bottleneck_freezing_redistributes() {
        // L1 cap 10k carries {A, B}; L2 cap 6k carries {B, C}. Max-min:
        // B and C freeze at 3k on L2, then A takes the 7k left on L1.
        let (_topo, ids) = line_topology(2);
        let (l1, l2) = (ids[0], ids[1]);
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l1, true, 10_000);
        broker.set_capacity(l2, true, 6_000);
        broker.register(flow(0, 0, 100_000, 1, vec![(l1, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l1, true), (l2, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l2, true)]));
        assert_eq!(broker.grant(1), Some(3_000));
        assert_eq!(broker.grant(2), Some(3_000));
        assert_eq!(broker.grant(0), Some(7_000));
    }

    #[test]
    fn bottleneck_names_what_fixed_each_grant() {
        // The two-link example above, plus D whose 1k demand is met before
        // any link saturates: D freezes at its cap (round 1, level 1k ≤
        // L2's 2k), B and C on L2 at level (6k − 1k) / 2, A on L1 with the
        // 6.5k nobody else could use.
        let (_topo, ids) = line_topology(2);
        let (l1, l2) = (ids[0], ids[1]);
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l1, true, 10_000);
        broker.set_capacity(l2, true, 6_000);
        broker.register(flow(0, 0, 100_000, 1, vec![(l1, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l1, true), (l2, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l2, true)]));
        broker.register(flow(3, 0, 1_000, 1, vec![(l1, true), (l2, true)]));
        let on = |link, level| Some(Bottleneck::Link { link, level });
        assert_eq!(broker.bottleneck(3), Some(Bottleneck::Cap));
        assert_eq!(broker.bottleneck(1), on((l2, true), 2_500));
        assert_eq!(broker.bottleneck(2), on((l2, true), 2_500));
        assert_eq!(broker.bottleneck(0), on((l1, true), 6_500));
        assert_eq!(broker.grant(0), Some(6_500));
        assert_eq!(broker.bottleneck(9), None);
        // Floors that fill L2 leave nothing to share: its crossers hold
        // exactly their floors.
        broker.register(flow(2, 5_000, 100_000, 1, vec![(l2, true)]));
        broker.register(flow(3, 1_000, 1_000, 1, vec![(l1, true), (l2, true)]));
        assert_eq!(broker.grant(2), Some(5_000));
        assert_eq!(
            broker.bottleneck(2),
            Some(Bottleneck::Floor { link: (l2, true) })
        );
        assert_eq!(broker.bottleneck(3), Some(Bottleneck::Cap));
        // FCFS reports the link that ran short and what it had left.
        let mut fcfs = BandwidthBroker::new(SharingPolicy::Fcfs);
        fcfs.set_capacity(l1, true, 10_000);
        fcfs.register(flow(0, 0, 8_000, 1, vec![(l1, true)]));
        fcfs.register(flow(1, 0, 8_000, 1, vec![(l1, true)]));
        assert_eq!(fcfs.bottleneck(0), Some(Bottleneck::Cap));
        assert_eq!(fcfs.bottleneck(1), on((l1, true), 2_000));
    }

    #[test]
    fn departure_is_preemption_free() {
        // Same shape as above; when C leaves, a from-scratch max-min would
        // cut A from 7k to 5k (B rises to 5k on L1). The broker instead
        // water-fills upward from the surviving grants: A keeps 7k, B rises
        // only into capacity nobody holds.
        let (_topo, ids) = line_topology(2);
        let (l1, l2) = (ids[0], ids[1]);
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l1, true, 10_000);
        broker.set_capacity(l2, true, 6_000);
        broker.register(flow(0, 0, 100_000, 1, vec![(l1, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l1, true), (l2, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l2, true)]));
        assert!(broker.deregister(2));
        assert_eq!(broker.grant(0), Some(7_000));
        assert_eq!(broker.grant(1), Some(3_000));
        // The next arrival rebalances from scratch.
        broker.register(flow(3, 0, 100_000, 1, vec![(l2, true)]));
        assert_eq!(broker.grant(0), Some(7_000));
        assert_eq!(broker.grant(1), Some(3_000));
        assert_eq!(broker.grant(3), Some(3_000));
    }

    #[test]
    fn fcfs_is_registration_ordered() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::Fcfs);
        broker.set_capacity(l, true, 10_000);
        broker.register(flow(7, 0, 8_000, 1, vec![(l, true)]));
        broker.register(flow(1, 0, 8_000, 1, vec![(l, true)]));
        broker.register(flow(3, 0, 8_000, 1, vec![(l, true)]));
        // First registrant wins regardless of session id.
        assert_eq!(broker.grant(7), Some(8_000));
        assert_eq!(broker.grant(1), Some(2_000));
        assert_eq!(broker.grant(3), Some(0));
        // A re-pin keeps queue position: session 7 lowering its demand
        // frees capacity for session 1, not for itself.
        broker.register(flow(7, 0, 4_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(7), Some(4_000));
        assert_eq!(broker.grant(1), Some(6_000));
        assert_eq!(broker.grant(3), Some(0));
    }

    #[test]
    fn epoch_bumps_only_on_actual_grant_changes() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 10_000);
        broker.register(flow(0, 0, 4_000, 1, vec![(l, true)]));
        let e = broker.epoch();
        // Uncontended second flow: its arrival changes the grants map (new
        // entry) but must not disturb session 0.
        broker.register(flow(1, 0, 4_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(0), Some(4_000));
        assert!(broker.epoch() > e);
        let e = broker.epoch();
        // Identical re-pin: no grant changes, no epoch bump.
        broker.register(flow(1, 0, 4_000, 1, vec![(l, true)]));
        assert_eq!(broker.epoch(), e);
        // Squeeze then rebalance: grants drop, epoch bumps.
        broker.set_capacity(l, true, 6_000);
        broker.rebalance();
        assert!(broker.epoch() > e);
        assert_eq!(broker.grant(0), Some(3_000));
        assert_eq!(broker.grant(1), Some(3_000));
    }

    #[test]
    fn duplicate_hops_count_multiply() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 12_000);
        // Session 0 crosses the link twice: rate g consumes 2g there.
        broker.register(flow(0, 0, 100_000, 1, vec![(l, true), (l, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l, true)]));
        // Weight sum on the link is 2+1 = 3 → level 4k; both freeze there:
        // session 0 at 4k (consuming 8k), session 1 at 4k.
        assert_eq!(broker.grant(0), Some(4_000));
        assert_eq!(broker.grant(1), Some(4_000));
    }

    #[test]
    fn metrics_export_publishes_class_gauges() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 6_000);
        broker.register(flow(0, 0, 100_000, 4, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 2, vec![(l, true)]));
        let registry = MetricsRegistry::new();
        broker.export_metrics(&registry);
        assert_eq!(registry.gauge_value("qosc_broker_flows"), Some(2));
        assert_eq!(
            registry.gauge_value("qosc_broker_granted_bps_weight_4"),
            Some(4_000)
        );
        assert_eq!(
            registry.gauge_value("qosc_broker_granted_bps_weight_2"),
            Some(2_000)
        );
        assert!(registry.counter_value("qosc_broker_reallocations_total") >= Some(1));
    }
}
