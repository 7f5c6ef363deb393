//! The network facade.
//!
//! [`Network`] combines the static [`Topology`], the reservation ledger,
//! the background-traffic process and a failure set into the two queries
//! the rest of the framework needs:
//!
//! * [`Network::available_between`] — `Bandwidth_AvailableBetween(a, b)`
//!   of Equa. 2: ∞ on the same host, otherwise the bottleneck headroom
//!   along the current minimum-delay route, avoiding failed elements;
//! * [`Network::reserve_between`] — admit a session at a rate, consuming
//!   headroom for subsequent queries.

use crate::bandwidth::{BandwidthLedger, ReservationId};
use crate::dynamics::{BackgroundTraffic, TrafficConfig};
use crate::memo::memos_off;
use crate::routing::{shortest_path_tree, Route, RouteTree};
use crate::topology::{Link, LinkId, NodeId, Topology};
use crate::{NetError, Result};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Everything the composer needs to know about the min-delay path from
/// one node to another, computed in bulk by
/// [`Network::path_annotations_from`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathAnnotation {
    /// Bottleneck available bandwidth along the path, bits per second.
    pub available_bps: f64,
    /// Total one-way delay, microseconds.
    pub delay_us: u64,
    /// Sum of flat per-session link prices.
    pub price_flat: f64,
    /// Sum of per-megabit link prices.
    pub price_per_mbit: f64,
}

/// Live network state: topology + reservations + background traffic +
/// failures.
///
/// Routes depend on the topology and the failure sets only — the
/// *routing state* — so every route query is answered from a per-source
/// shortest-path tree built on first use and kept until a routing
/// mutation (`fail_*`, `restore_*`, [`Network::topology_mut`]).
/// Reservations, releases and background traffic change headroom along
/// a route, never the route, and leave the trees alone.
///
/// ```
/// use qosc_netsim::{Network, Node, Topology};
///
/// let mut topo = Topology::new();
/// let a = topo.add_node(Node::unconstrained("a"));
/// let b = topo.add_node(Node::unconstrained("b"));
/// topo.connect_simple(a, b, 1_000_000.0).unwrap();
/// let mut net = Network::new(topo);
///
/// assert_eq!(net.available_between(a, b).unwrap(), 1_000_000.0);
/// assert_eq!(net.available_between(a, a).unwrap(), f64::INFINITY); // same host
/// let session = net.reserve_between(a, b, 600_000.0).unwrap();
/// assert_eq!(net.available_between(a, b).unwrap(), 400_000.0);
/// net.release(session).unwrap();
/// ```
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    ledger: BandwidthLedger,
    background: BackgroundTraffic,
    /// Failure flags by node / link index; an index past the end reads
    /// as not failed.
    failed_nodes: Vec<bool>,
    failed_links: Vec<bool>,
    /// Bumped by every mutation that can change routing, headroom or
    /// failure answers (see [`Network::version`]).
    version: u64,
    /// `route_trees[source]`: the shortest-path tree of the current
    /// routing state, built by the first query from `source`. Emptied
    /// and re-sized to the node count by [`Network::drop_route_trees`];
    /// a node added since then has no slot and gets a tree per query.
    route_trees: Vec<OnceLock<RouteTree>>,
    route_tree_builds: AtomicU64,
}

/// `flags[index]`, `false` past the end.
fn flag(flags: &[bool], index: usize) -> bool {
    flags.get(index).copied().unwrap_or(false)
}

/// Set `flags[index]`, growing the vector for an index past the end;
/// whether the flag changed.
fn set_flag(flags: &mut Vec<bool>, index: usize, value: bool) -> bool {
    if flag(flags, index) == value {
        return false;
    }
    if index >= flags.len() {
        flags.resize(index + 1, false);
    }
    flags[index] = value;
    true
}

impl Network {
    /// A network over `topology` with no background traffic (static
    /// bandwidth, like the paper's worked example).
    pub fn new(topology: Topology) -> Network {
        let background = BackgroundTraffic::quiescent(topology.link_count());
        Network::assemble(topology, background)
    }

    /// A network with seeded background-traffic fluctuation.
    pub fn with_background(topology: Topology, config: TrafficConfig, seed: u64) -> Network {
        let background = BackgroundTraffic::new(topology.link_count(), config, seed);
        Network::assemble(topology, background)
    }

    fn assemble(topology: Topology, background: BackgroundTraffic) -> Network {
        let mut network = Network {
            topology,
            ledger: BandwidthLedger::new(),
            background,
            failed_nodes: Vec::new(),
            failed_links: Vec::new(),
            version: 0,
            route_trees: Vec::new(),
            route_tree_builds: AtomicU64::new(0),
        };
        network.drop_route_trees();
        network
    }

    /// Monotone state version: bumped by every mutation that can change
    /// what [`Network::available_between`], [`Network::route_between`],
    /// [`Network::path_annotations_from`] or [`Network::node_failed`]
    /// would answer — reservations and releases, background-traffic
    /// steps, node/link failures and restorations, and any handout of
    /// mutable topology or background access (which is assumed used).
    /// Two equal versions on the same instance therefore guarantee
    /// identical edge annotations, so graph stores and plan caches can
    /// revalidate with one integer compare instead of a rescan.
    ///
    /// The converse does not hold, and for routes it is far from
    /// holding: most bumps (reservations, releases, background steps and
    /// squeezes) move headroom only. Routes change with the topology and
    /// the failure sets alone, and the network keeps its own
    /// shortest-path trees across every other bump.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many shortest-path trees route queries have built so far: one
    /// per queried source and routing state (plus one per query from a
    /// node added through [`Network::topology_mut`] since the last
    /// routing mutation). A work counter for gates and tests.
    pub fn route_tree_builds(&self) -> u64 {
        self.route_tree_builds.load(Ordering::Relaxed)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access, for experiments that degrade links in
    /// place (loss injection, capacity changes). Reservations and
    /// failure state are unaffected.
    pub fn topology_mut(&mut self) -> &mut Topology {
        // Handing out `&mut Topology` is assumed to mutate: bumping on
        // access keeps `version()` conservative (a spurious bump costs
        // one revalidation; a missed one would serve stale answers).
        // The borrow ends before the next query can run, so trees built
        // after it see whatever the caller changed.
        self.routing_changed();
        &mut self.topology
    }

    /// Forget every memoized tree: called by exactly the mutations
    /// routing depends on.
    fn drop_route_trees(&mut self) {
        self.route_trees.clear();
        self.route_trees
            .resize_with(self.topology.node_count(), OnceLock::new);
    }

    /// The shortest-path tree from `from` under the current failure
    /// sets, or `None` when `from` itself has failed (nothing is
    /// reachable from a failed node). Warm reads take no lock.
    fn route_tree(&self, from: NodeId) -> Option<Cow<'_, RouteTree>> {
        if self.node_failed(from) {
            return None;
        }
        let build = || {
            self.route_tree_builds.fetch_add(1, Ordering::Relaxed);
            shortest_path_tree(
                &self.topology,
                from,
                |link| !flag(&self.failed_links, link.index()),
                |node| !self.node_failed(node),
            )
        };
        Some(match self.route_trees.get(from.index()) {
            Some(slot) if !memos_off() => Cow::Borrowed(slot.get_or_init(build)),
            _ => Cow::Owned(build()),
        })
    }

    /// The tree from `a`, once it is known to reach `b`: the checks of
    /// every pair query, in `min_delay_route_filtered`'s order (unknown
    /// `a`, unknown `b`, then no route — a failed endpoint included).
    fn route_tree_reaching(&self, a: NodeId, b: NodeId) -> Result<Cow<'_, RouteTree>> {
        self.topology.node(a)?;
        self.topology.node(b)?;
        self.route_tree(a)
            .filter(|tree| tree.dist.get(b.index()).is_some_and(|&d| d != u64::MAX))
            .ok_or(NetError::NoRoute { from: a, to: b })
    }

    fn headroom(&self, link: LinkId, spec: &Link, direction: bool) -> f64 {
        if flag(&self.failed_links, link.index())
            || self.node_failed(spec.a)
            || self.node_failed(spec.b)
        {
            return 0.0;
        }
        let usable = spec.capacity_bps * (1.0 - self.background.utilization(link));
        (usable - self.ledger.reserved_on(link, direction)).max(0.0)
    }

    /// Headroom of one link direction right now: `capacity × (1 −
    /// background) − reserved`, floored at zero; zero if the link (or an
    /// endpoint) has failed. Links are full duplex: each direction has
    /// its own capacity pool.
    pub fn link_headroom(&self, link: LinkId, direction: bool) -> Result<f64> {
        Ok(self.headroom(link, self.topology.link(link)?, direction))
    }

    /// The current minimum-delay route between two nodes, avoiding failed
    /// nodes and links.
    pub fn route_between(&self, a: NodeId, b: NodeId) -> Result<Route> {
        if a == b {
            self.topology.node(a)?;
            return Ok(Route {
                from: a,
                to: b,
                links: Vec::new(),
                nodes: vec![a],
                delay_us: 0,
            });
        }
        let tree = self.route_tree_reaching(a, b)?;
        let mut links = Vec::new();
        let mut nodes = vec![b];
        for (from, link) in tree.hops_back(b) {
            links.push(link);
            nodes.push(from);
        }
        links.reverse();
        nodes.reverse();
        Ok(Route {
            from: a,
            to: b,
            links,
            nodes,
            delay_us: tree.dist[b.index()],
        })
    }

    /// Whether a route from `a` to `b` survives the failure set:
    /// [`Network::route_between`]`.is_ok()` without building the route.
    pub fn routable(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return self.topology.node(a).is_ok();
        }
        self.route_tree_reaching(a, b).is_ok()
    }

    /// `Bandwidth_AvailableBetween(a, b)`: infinite on the same host
    /// (Section 4.3), otherwise the bottleneck headroom along the
    /// current route. Errors when no route survives the failure set.
    pub fn available_between(&self, a: NodeId, b: NodeId) -> Result<f64> {
        if a == b {
            self.topology.node(a)?;
            return Ok(f64::INFINITY);
        }
        let tree = self.route_tree_reaching(a, b)?;
        // Folded destination-first, which a minimum does not notice:
        // headroom is never NaN (`max(0.0)` absorbs one).
        let mut bottleneck = f64::INFINITY;
        for (from, link) in tree.hops_back(b) {
            let spec = self.topology.link(link)?;
            bottleneck = bottleneck.min(self.headroom(link, spec, spec.a == from));
        }
        Ok(bottleneck)
    }

    /// One-way delay between two nodes along the current route, in
    /// microseconds. Zero on the same host.
    pub fn delay_between_us(&self, a: NodeId, b: NodeId) -> Result<u64> {
        if a == b {
            self.topology.node(a)?;
            return Ok(0);
        }
        Ok(self.route_tree_reaching(a, b)?.dist[b.index()])
    }

    /// The link specs of the current route from `a` to `b` with the
    /// direction each is crossed in, source first (`a != b`).
    fn route_hops(&self, a: NodeId, b: NodeId) -> Result<Vec<(LinkId, &Link, bool)>> {
        let tree = self.route_tree_reaching(a, b)?;
        let mut hops = Vec::new();
        for (from, link) in tree.hops_back(b) {
            let spec = self.topology.link(link)?;
            hops.push((link, spec, spec.a == from));
        }
        hops.reverse();
        Ok(hops)
    }

    /// Transmission price between two nodes: the sum of per-link prices
    /// along the route, in monetary units per megabit. Zero on the same
    /// host.
    pub fn price_per_mbit_between(&self, a: NodeId, b: NodeId) -> Result<f64> {
        Ok(self.transmission_price_between(a, b)?.1)
    }

    /// Transmission price between two nodes as `(flat, per_mbit)`: the
    /// session crossing the route pays `flat + per_mbit × rate/10⁶` per
    /// second. `(0, 0)` on the same host.
    pub fn transmission_price_between(&self, a: NodeId, b: NodeId) -> Result<(f64, f64)> {
        if a == b {
            self.topology.node(a)?;
            return Ok((0.0, 0.0));
        }
        let mut flat = 0.0;
        let mut per_mbit = 0.0;
        for (_, spec, _) in self.route_hops(a, b)? {
            flat += spec.price_flat;
            per_mbit += spec.price_per_mbit;
        }
        Ok((flat, per_mbit))
    }

    /// Single-source path annotations: for every reachable node, the
    /// bottleneck available bandwidth, delay and transmission prices of
    /// the minimum-delay route from `from` — one pass over the source's
    /// shortest-path tree.
    ///
    /// Produces exactly the values the per-pair queries
    /// ([`Network::available_between`] etc.) would return (same
    /// tie-breaking), but amortized: graph construction annotates all
    /// edges out of one host with a single call instead of one walk
    /// per edge. Unreachable nodes are `None`; the `from` entry is
    /// `(∞, 0, 0, 0)` (same host, Section 4.3).
    pub fn path_annotations_from(&self, from: NodeId) -> Result<Vec<Option<PathAnnotation>>> {
        self.topology.node(from)?;
        let mut out: Vec<Option<PathAnnotation>> = vec![None; self.topology.node_count()];
        let Some(tree) = self.route_tree(from) else {
            return Ok(out);
        };
        out[from.index()] = Some(PathAnnotation {
            available_bps: f64::INFINITY,
            delay_us: 0,
            price_flat: 0.0,
            price_per_mbit: 0.0,
        });
        // Settle order puts a node's parent before it, so each node
        // extends its parent's finished annotation by one link: sums
        // accumulate source-to-destination, as the pair queries add them.
        for &node in &tree.settled {
            let Some((parent, link)) = tree.parent[node.index()] else {
                continue;
            };
            let Some(base) = out[parent.index()] else {
                continue;
            };
            let spec = self.topology.link(link)?;
            out[node.index()] = Some(PathAnnotation {
                available_bps: base
                    .available_bps
                    .min(self.headroom(link, spec, spec.a == parent)),
                delay_us: tree.dist[node.index()],
                price_flat: base.price_flat + spec.price_flat,
                price_per_mbit: base.price_per_mbit + spec.price_per_mbit,
            });
        }
        Ok(out)
    }

    /// Admit a session of `rate_bps` between `a` and `b` along the
    /// current route. Errors (without side effects) if any route link
    /// lacks headroom. Same-host sessions reserve nothing and succeed.
    pub fn reserve_between(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate_bps: f64,
    ) -> Result<ReservationId> {
        if a == b {
            self.topology.node(a)?;
            return self.ledger.reserve(Vec::new(), rate_bps);
        }
        let mut hops = Vec::new();
        for (link, spec, direction) in self.route_hops(a, b)? {
            let headroom = self.headroom(link, spec, direction);
            if rate_bps > headroom * (1.0 + 1e-9) + 1e-9 {
                return Err(NetError::InsufficientBandwidth {
                    link,
                    requested: rate_bps,
                    available: headroom,
                });
            }
            hops.push((link, direction));
        }
        self.version += 1;
        self.ledger.reserve(hops, rate_bps)
    }

    /// Release an admitted session.
    pub fn release(&mut self, id: ReservationId) -> Result<()> {
        self.ledger.release(id).map(|_| ())?;
        self.version += 1;
        Ok(())
    }

    /// Number of admitted sessions.
    pub fn active_reservations(&self) -> usize {
        self.ledger.active_count()
    }

    /// Advance the background-traffic process one step.
    pub fn advance_background(&mut self) {
        self.version += 1;
        self.background.advance();
    }

    /// Mark a node failed: all its links report zero headroom and routing
    /// avoids it.
    pub fn fail_node(&mut self, node: NodeId) -> Result<()> {
        self.topology.node(node)?;
        if set_flag(&mut self.failed_nodes, node.index(), true) {
            self.routing_changed();
        }
        Ok(())
    }

    /// Mark a link failed.
    pub fn fail_link(&mut self, link: LinkId) -> Result<()> {
        self.topology.link(link)?;
        if set_flag(&mut self.failed_links, link.index(), true) {
            self.routing_changed();
        }
        Ok(())
    }

    /// Restore a failed node.
    pub fn restore_node(&mut self, node: NodeId) {
        if set_flag(&mut self.failed_nodes, node.index(), false) {
            self.routing_changed();
        }
    }

    /// Restore a failed link.
    pub fn restore_link(&mut self, link: LinkId) {
        if set_flag(&mut self.failed_links, link.index(), false) {
            self.routing_changed();
        }
    }

    /// The topology or a failure set changed: new version, new routes.
    fn routing_changed(&mut self) {
        self.version += 1;
        self.drop_route_trees();
    }

    /// Whether `node` is currently failed.
    pub fn node_failed(&self, node: NodeId) -> bool {
        flag(&self.failed_nodes, node.index())
    }

    /// Direct access to the background process (tests, experiments).
    /// Background traffic moves headroom, never a route, so the
    /// shortest-path trees stay.
    pub fn background_mut(&mut self) -> &mut BackgroundTraffic {
        // Same conservatism as `topology_mut`.
        self.version += 1;
        &mut self.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Link, Node};

    fn two_hop() -> (Network, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(Node::unconstrained("a"));
        let b = t.add_node(Node::unconstrained("b"));
        let c = t.add_node(Node::unconstrained("c"));
        let l1 = t
            .connect(Link {
                a,
                b,
                capacity_bps: 1000.0,
                delay_us: 100,
                loss: 0.0,
                price_per_mbit: 2.0,
                price_flat: 0.0,
            })
            .unwrap();
        let l2 = t
            .connect(Link {
                a: b,
                b: c,
                capacity_bps: 500.0,
                delay_us: 200,
                loss: 0.0,
                price_per_mbit: 3.0,
                price_flat: 0.0,
            })
            .unwrap();
        (Network::new(t), a, b, c, l1, l2)
    }

    /// `path_annotations_from` as it was before the route memo — its own
    /// heap search, annotations carried along the relaxations — kept as
    /// the bitwise reference for the fold over the memoized tree.
    fn path_annotations_reference(
        net: &Network,
        from: NodeId,
    ) -> Result<Vec<Option<PathAnnotation>>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        net.topology.node(from)?;
        let n = net.topology.node_count();
        let mut out: Vec<Option<PathAnnotation>> = vec![None; n];
        if net.node_failed(from) {
            return Ok(out);
        }
        let mut dist = vec![u64::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        dist[from.index()] = 0;
        out[from.index()] = Some(PathAnnotation {
            available_bps: f64::INFINITY,
            delay_us: 0,
            price_flat: 0.0,
            price_per_mbit: 0.0,
        });
        heap.push(Reverse((0, from.index() as u32)));
        while let Some(Reverse((d, node_raw))) = heap.pop() {
            let node_index = node_raw as usize;
            if d > dist[node_index] {
                continue;
            }
            let annotation = out[node_index].expect("settled nodes are annotated");
            let node = NodeId(node_raw);
            for &(neighbor, link) in net.topology.neighbors(node) {
                if flag(&net.failed_links, link.index()) || net.node_failed(neighbor) {
                    continue;
                }
                let spec = net.topology.link(link)?;
                let next = d.saturating_add(spec.delay_us);
                if next < dist[neighbor.index()] {
                    dist[neighbor.index()] = next;
                    let direction = spec.a == node;
                    out[neighbor.index()] = Some(PathAnnotation {
                        available_bps: annotation
                            .available_bps
                            .min(net.link_headroom(link, direction)?),
                        delay_us: next,
                        price_flat: annotation.price_flat + spec.price_flat,
                        price_per_mbit: annotation.price_per_mbit + spec.price_per_mbit,
                    });
                    heap.push(Reverse((next, neighbor.index() as u32)));
                }
            }
        }
        Ok(out)
    }

    proptest::proptest! {
        /// The fold over the memoized tree returns what the dedicated
        /// search returned, bit for bit, on meshes with few distinct
        /// delays (ties), failures, reservations and squeezed links.
        #[test]
        fn path_annotations_match_the_reference(
            n in 3usize..24,
            seed in 0u64..10_000,
            faults in proptest::collection::vec((0usize..4, 0usize..64, 0u32..11), 0..12),
        ) {
            use crate::generators::{random_waxman, LinkTemplate};
            let template = LinkTemplate {
                delay_us: (0, 3),
                price_per_mbit: (0.0, 1.0),
                ..LinkTemplate::default()
            };
            let (topology, nodes) = random_waxman(n, 0.5, 0.4, template, seed);
            let links: Vec<LinkId> = topology.link_ids().collect();
            let mut net = Network::new(topology);
            for (kind, pick, level) in faults {
                let (node, link) = (nodes[pick % n], links[pick % links.len()]);
                match kind {
                    0 => net.fail_node(node).unwrap(),
                    1 => net.fail_link(link).unwrap(),
                    2 => net.background_mut().set_utilization(link, level as f64 / 10.0),
                    _ => {
                        let _ = net.reserve_between(nodes[0], node, 1_000.0 * level as f64);
                    }
                }
            }
            for &from in &nodes {
                let bits = |table: Vec<Option<PathAnnotation>>| -> Vec<Option<[u64; 4]>> {
                    table
                        .into_iter()
                        .map(|entry| {
                            entry.map(|e| {
                                [
                                    e.available_bps.to_bits(),
                                    e.delay_us,
                                    e.price_flat.to_bits(),
                                    e.price_per_mbit.to_bits(),
                                ]
                            })
                        })
                        .collect()
                };
                proptest::prop_assert_eq!(
                    net.path_annotations_from(from).map(bits),
                    path_annotations_reference(&net, from).map(bits)
                );
            }
        }
    }

    #[test]
    fn route_trees_outlive_everything_but_routing_mutations() {
        let (mut net, a, b, c, l1, _) = two_hop();
        assert_eq!(net.route_tree_builds(), 0);
        net.available_between(a, c).unwrap();
        assert!(net.routable(a, b));
        net.route_between(a, c).unwrap();
        net.path_annotations_from(a).unwrap();
        assert_eq!(net.route_tree_builds(), 1, "one tree serves every query");

        // Headroom mutations keep it...
        let id = net.reserve_between(a, c, 100.0).unwrap();
        net.release(id).unwrap();
        net.advance_background();
        net.background_mut().set_utilization(l1, 0.5);
        assert_eq!(net.available_between(a, c).unwrap(), 500.0);
        assert_eq!(net.route_tree_builds(), 1);
        // ...and so do failure calls that change nothing.
        net.restore_link(l1);
        net.restore_node(b);
        assert!(net.routable(a, c));
        assert_eq!(net.route_tree_builds(), 1);

        // Routing mutations drop it.
        net.fail_link(l1).unwrap();
        assert!(!net.routable(a, c));
        assert_eq!(net.route_tree_builds(), 2);
        net.restore_link(l1);
        assert!(net.routable(a, c));
        assert_eq!(net.route_tree_builds(), 3);
        let _ = net.topology_mut();
        assert!(net.routable(a, c));
        assert_eq!(net.route_tree_builds(), 4);

        // A failed source needs no tree to know it reaches nothing.
        net.fail_node(a).unwrap();
        assert!(!net.routable(a, c));
        assert!(net.routable(a, a), "same host answers before failures");
        assert_eq!(net.route_tree_builds(), 4);
    }

    #[test]
    fn a_node_added_through_topology_mut_is_routed_at_once() {
        let (mut net, a, _, c, ..) = two_hop();
        assert!(net.routable(a, c));
        let topology = net.topology_mut();
        let d = topology.add_node(Node::unconstrained("d"));
        let l3 = topology.connect_simple(c, d, 250.0).unwrap();
        // `d` has no memo slot until the next routing mutation, as a
        // destination and as a source alike.
        assert_eq!(net.available_between(a, d).unwrap(), 250.0);
        assert_eq!(net.route_between(d, a).unwrap().hop_count(), 3);
        assert_eq!(net.delay_between_us(d, a).unwrap(), 1_300);
        assert!(net.path_annotations_from(d).unwrap()[a.index()].is_some());
        net.fail_link(l3).unwrap();
        assert!(!net.routable(a, d) && !net.routable(d, a));
        net.fail_node(d).unwrap();
        net.restore_link(l3);
        assert!(net.node_failed(d));
        assert_eq!(net.link_headroom(l3, true).unwrap(), 0.0);
        net.restore_node(d);
        assert_eq!(net.available_between(d, a).unwrap(), 250.0);
    }

    #[test]
    fn network_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Network>();
    }

    #[test]
    fn same_host_is_unlimited() {
        let (net, a, ..) = two_hop();
        assert_eq!(net.available_between(a, a).unwrap(), f64::INFINITY);
        assert_eq!(net.delay_between_us(a, a).unwrap(), 0);
        assert_eq!(net.price_per_mbit_between(a, a).unwrap(), 0.0);
    }

    #[test]
    fn bottleneck_is_min_headroom() {
        let (net, a, _, c, ..) = two_hop();
        assert_eq!(net.available_between(a, c).unwrap(), 500.0);
    }

    #[test]
    fn delay_and_price_accumulate() {
        let (net, a, _, c, ..) = two_hop();
        assert_eq!(net.delay_between_us(a, c).unwrap(), 300);
        assert_eq!(net.price_per_mbit_between(a, c).unwrap(), 5.0);
    }

    #[test]
    fn version_bumps_on_every_mutation_and_only_then() {
        let (mut net, a, _, c, l1, _) = two_hop();
        assert_eq!(net.version(), 0);

        // Reads never bump.
        net.available_between(a, c).unwrap();
        net.route_between(a, c).unwrap();
        net.path_annotations_from(a).unwrap();
        assert_eq!(net.version(), 0);

        let id = net.reserve_between(a, c, 300.0).unwrap();
        assert_eq!(net.version(), 1);
        net.release(id).unwrap();
        assert_eq!(net.version(), 2);

        net.advance_background();
        assert_eq!(net.version(), 3);

        net.fail_node(a).unwrap();
        assert_eq!(net.version(), 4);
        net.restore_node(a);
        assert_eq!(net.version(), 5);
        net.restore_node(a); // already restored: no observable change
        assert_eq!(net.version(), 5);

        net.fail_link(l1).unwrap();
        assert_eq!(net.version(), 6);
        net.fail_link(l1).unwrap(); // already failed
        assert_eq!(net.version(), 6);
        net.restore_link(l1);
        assert_eq!(net.version(), 7);

        // Mutable handouts bump conservatively on access.
        let _ = net.topology_mut();
        assert_eq!(net.version(), 8);
        let _ = net.background_mut();
        assert_eq!(net.version(), 9);
    }

    #[test]
    fn reservation_consumes_headroom() {
        let (mut net, a, _, c, ..) = two_hop();
        let id = net.reserve_between(a, c, 300.0).unwrap();
        assert_eq!(net.available_between(a, c).unwrap(), 200.0);
        net.release(id).unwrap();
        assert_eq!(net.available_between(a, c).unwrap(), 500.0);
    }

    #[test]
    fn over_reservation_fails_atomically() {
        let (mut net, a, _, c, _, l2) = two_hop();
        let err = net.reserve_between(a, c, 700.0).unwrap_err();
        assert!(matches!(err, NetError::InsufficientBandwidth { link, .. } if link == l2));
        // Nothing was reserved on the first link either.
        assert_eq!(net.available_between(a, c).unwrap(), 500.0);
        assert_eq!(net.active_reservations(), 0);
    }

    #[test]
    fn failed_node_blocks_routing() {
        let (mut net, a, b, c, ..) = two_hop();
        net.fail_node(b).unwrap();
        assert!(matches!(
            net.available_between(a, c),
            Err(NetError::NoRoute { .. })
        ));
        net.restore_node(b);
        assert_eq!(net.available_between(a, c).unwrap(), 500.0);
    }

    #[test]
    fn failed_link_reroutes_or_blocks() {
        let (mut net, a, _, c, l1, _) = two_hop();
        net.fail_link(l1).unwrap();
        assert!(net.available_between(a, c).is_err());
        net.restore_link(l1);
        assert!(net.available_between(a, c).is_ok());
    }

    #[test]
    fn background_reduces_headroom() {
        let (mut net, a, _, c, _, l2) = two_hop();
        net.background_mut().set_utilization(l2, 0.5);
        assert_eq!(net.available_between(a, c).unwrap(), 250.0);
    }

    #[test]
    fn same_host_reservation_succeeds() {
        let (mut net, a, ..) = two_hop();
        let id = net.reserve_between(a, a, 1e9).unwrap();
        assert_eq!(net.available_between(a, a).unwrap(), f64::INFINITY);
        net.release(id).unwrap();
    }
}
