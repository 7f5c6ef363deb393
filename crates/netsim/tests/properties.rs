//! Property tests for the network substrate: routing optimality,
//! reservation conservation, and failure semantics on random topologies.

use proptest::prelude::*;
use qosc_netsim::dynamics::TrafficConfig;
use qosc_netsim::generators::{random_waxman, LinkTemplate};
use qosc_netsim::routing::{min_delay_route, min_delay_route_filtered, Route};
use qosc_netsim::{
    Link, LinkId, NetError, Network, Node, NodeId, PathAnnotation, ReservationId, Topology,
};
use std::collections::HashSet;

fn arb_topo_params() -> impl Strategy<Value = (usize, u64)> {
    (4usize..20, 0u64..500)
}

proptest! {
    /// Dijkstra's output is consistent: the route's delay equals the sum
    /// of its link delays, endpoints line up, and the node list walks the
    /// links.
    #[test]
    fn routes_are_self_consistent((n, seed) in arb_topo_params()) {
        let (topo, nodes) = random_waxman(n, 0.5, 0.4, LinkTemplate::default(), seed);
        let (from, to) = (nodes[0], nodes[n - 1]);
        let route = min_delay_route(&topo, from, to).expect("backbone keeps it connected");
        prop_assert_eq!(route.from, from);
        prop_assert_eq!(route.to, to);
        prop_assert_eq!(route.nodes.len(), route.links.len() + 1);
        prop_assert_eq!(*route.nodes.first().unwrap(), from);
        prop_assert_eq!(*route.nodes.last().unwrap(), to);
        let mut delay = 0u64;
        for (i, &link) in route.links.iter().enumerate() {
            let spec = topo.link(link).unwrap();
            let (a, b) = (route.nodes[i], route.nodes[i + 1]);
            prop_assert!(
                (spec.a == a && spec.b == b) || (spec.a == b && spec.b == a),
                "link {i} does not connect its route nodes"
            );
            delay += spec.delay_us;
        }
        prop_assert_eq!(delay, route.delay_us);
    }

    /// Triangle-ish optimality: no single detour node gives a strictly
    /// shorter delay than the Dijkstra result.
    #[test]
    fn no_one_stop_shortcut((n, seed) in arb_topo_params()) {
        let (topo, nodes) = random_waxman(n, 0.5, 0.4, LinkTemplate::default(), seed);
        let (from, to) = (nodes[0], nodes[n - 1]);
        let direct = min_delay_route(&topo, from, to).unwrap().delay_us;
        for &via in nodes.iter().take(6) {
            let a = min_delay_route(&topo, from, via).unwrap().delay_us;
            let b = min_delay_route(&topo, via, to).unwrap().delay_us;
            prop_assert!(direct <= a + b, "detour via {via:?} beats Dijkstra");
        }
    }

    /// Reservation conservation: reserve then release restores the exact
    /// available bandwidth on every queried pair.
    #[test]
    fn reserve_release_conserves((n, seed) in arb_topo_params(), rate in 1.0f64..1e6) {
        let (topo, nodes) = random_waxman(n, 0.5, 0.4, LinkTemplate::default(), seed);
        let mut network = Network::new(topo);
        let (from, to) = (nodes[0], nodes[n - 1]);
        let before = network.available_between(from, to).unwrap();
        prop_assume!(rate <= before);
        let id = network.reserve_between(from, to, rate).unwrap();
        let during = network.available_between(from, to).unwrap();
        prop_assert!(during <= before - rate + 1e-6);
        network.release(id).unwrap();
        let after = network.available_between(from, to).unwrap();
        prop_assert!((after - before).abs() < 1e-6);
        prop_assert_eq!(network.active_reservations(), 0);
    }

    /// Failing and restoring a node is an exact involution for
    /// availability queries.
    #[test]
    fn fail_restore_is_involution((n, seed) in arb_topo_params()) {
        let (topo, nodes) = random_waxman(n, 0.5, 0.4, LinkTemplate::default(), seed);
        let mut network = Network::new(topo);
        let (from, to) = (nodes[0], nodes[n - 1]);
        let victim = nodes[n / 2];
        prop_assume!(victim != from && victim != to);
        let before = network.available_between(from, to).unwrap();
        network.fail_node(victim).unwrap();
        // The route may degrade or vanish, but never report the failed
        // node as usable.
        if let Ok(route) = network.route_between(from, to) {
            prop_assert!(!route.nodes.contains(&victim));
        }
        network.restore_node(victim);
        let after = network.available_between(from, to).unwrap();
        prop_assert!((after - before).abs() < 1e-9);
    }

    /// Bulk path annotations agree with the per-pair queries for every
    /// reachable destination.
    #[test]
    fn bulk_annotations_match_pairwise((n, seed) in arb_topo_params()) {
        let (topo, nodes) = random_waxman(n, 0.5, 0.4, LinkTemplate::default(), seed);
        let network = Network::new(topo);
        let from = nodes[0];
        let table = network.path_annotations_from(from).unwrap();
        for &to in &nodes {
            let annotation = table[to.index()].expect("connected topology");
            let available = network.available_between(from, to).unwrap();
            let delay = network.delay_between_us(from, to).unwrap();
            let (flat, per_mbit) = network.transmission_price_between(from, to).unwrap();
            prop_assert!(
                (annotation.available_bps - available).abs() < 1e-6
                    || (annotation.available_bps.is_infinite() && available.is_infinite()),
                "bandwidth mismatch to {to:?}: bulk {} vs pairwise {available}",
                annotation.available_bps
            );
            prop_assert_eq!(annotation.delay_us, delay);
            prop_assert!((annotation.price_flat - flat).abs() < 1e-9);
            prop_assert!((annotation.price_per_mbit - per_mbit).abs() < 1e-9);
        }
    }
}

#[test]
fn node_id_index_is_stable() {
    // NodeId indices match insertion order — the annotations table
    // depends on it.
    let (topo, nodes) = random_waxman(5, 0.5, 0.4, LinkTemplate::default(), 1);
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.index(), i);
    }
    assert_eq!(topo.node_count(), 5);
    let _ = NodeId::index; // silence "unused import" pedantry if any
}

// ---------------------------------------------------------------------
// Differential oracle for the route memo: `Network` answers every route
// query from memoized shortest-path trees; `min_delay_route_filtered`,
// run fresh on the test's own copy of the failure sets, says what each
// answer must be — after every step of a random mutation sequence.
// ---------------------------------------------------------------------

/// Few distinct delays, two of them zero: equal-delay ties and zero-delay
/// links are the rule, not the exception.
const DELAYS_US: [u64; 6] = [0, 0, 3, 3, 7, 10];
/// Prices whose sums depend on the order of addition.
const PRICES: [f64; 4] = [0.0, 0.1, 0.3, 0.7];

fn link(a: NodeId, b: NodeId, class: usize) -> Link {
    Link {
        a,
        b,
        capacity_bps: 1_000.0 * (1 + class % 5) as f64,
        delay_us: DELAYS_US[class % DELAYS_US.len()],
        loss: 0.0,
        price_per_mbit: PRICES[class % PRICES.len()],
        price_flat: PRICES[(class / 2) % PRICES.len()],
    }
}

/// The test's own record of what has failed, fed to the oracle.
#[derive(Default)]
struct Failures {
    nodes: HashSet<NodeId>,
    links: HashSet<LinkId>,
}

impl Failures {
    fn oracle(&self, topology: &Topology, a: NodeId, b: NodeId) -> Result<Route, NetError> {
        min_delay_route_filtered(topology, a, b, &|l| !self.links.contains(&l), &|n| {
            !self.nodes.contains(&n)
        })
    }
}

/// What the pair queries must answer along `route`: bottleneck headroom
/// and price sums, both folded source to destination.
fn fold_route(net: &Network, route: &Route) -> PathAnnotation {
    let mut expected = PathAnnotation {
        available_bps: f64::INFINITY,
        delay_us: route.delay_us,
        price_flat: 0.0,
        price_per_mbit: 0.0,
    };
    for (link, direction) in route.directed_hops(net.topology()).unwrap() {
        let spec = net.topology().link(link).unwrap();
        expected.available_bps = expected
            .available_bps
            .min(net.link_headroom(link, direction).unwrap());
        expected.price_flat += spec.price_flat;
        expected.price_per_mbit += spec.price_per_mbit;
    }
    expected
}

fn bits(annotation: &PathAnnotation) -> (u64, u64, u64, u64) {
    (
        annotation.available_bps.to_bits(),
        annotation.delay_us,
        annotation.price_flat.to_bits(),
        annotation.price_per_mbit.to_bits(),
    )
}

/// Every query from `a` against the oracle: `a` to each of `targets`,
/// then the bulk annotations.
fn check_source(net: &Network, failures: &Failures, a: NodeId, targets: &[NodeId]) {
    let topology = net.topology();
    for &b in targets {
        let oracle = failures.oracle(topology, a, b);
        assert_eq!(net.route_between(a, b), oracle, "route {a:?} -> {b:?}");
        assert_eq!(
            net.routable(a, b),
            oracle.is_ok(),
            "routable {a:?} -> {b:?}"
        );
        let expected = oracle.map(|route| fold_route(net, &route));
        assert_eq!(
            net.delay_between_us(a, b),
            expected.clone().map(|e| e.delay_us),
            "delay {a:?} -> {b:?}"
        );
        assert_eq!(
            net.available_between(a, b).map(f64::to_bits),
            expected.clone().map(|e| e.available_bps.to_bits()),
            "available {a:?} -> {b:?}"
        );
        assert_eq!(
            net.transmission_price_between(a, b)
                .map(|(flat, per_mbit)| (flat.to_bits(), per_mbit.to_bits())),
            expected
                .clone()
                .map(|e| (e.price_flat.to_bits(), e.price_per_mbit.to_bits())),
            "prices {a:?} -> {b:?}"
        );
        assert_eq!(
            net.price_per_mbit_between(a, b).map(f64::to_bits),
            expected.map(|e| e.price_per_mbit.to_bits()),
            "per-mbit price {a:?} -> {b:?}"
        );
    }

    let table = net.path_annotations_from(a);
    if topology.node(a).is_err() {
        assert_eq!(table, Err(NetError::UnknownNode(a)));
        return;
    }
    let table = table.unwrap();
    assert_eq!(table.len(), topology.node_count());
    for b in topology.node_ids() {
        // A failed source reaches nothing, itself included.
        let expected = (!failures.nodes.contains(&a))
            .then(|| failures.oracle(topology, a, b).ok())
            .flatten()
            .map(|route| bits(&fold_route(net, &route)));
        assert_eq!(
            table[b.index()].as_ref().map(bits),
            expected,
            "annotation {a:?} -> {b:?}"
        );
    }
}

/// The state of one oracle case.
struct Case {
    net: Network,
    failures: Failures,
    reservations: Vec<ReservationId>,
    /// A node id no topology of the case ever holds.
    stranger: NodeId,
    /// The node count when routing state last changed: the sources the
    /// memo has a slot for.
    slotted: usize,
}

impl Case {
    fn node(&self, pick: u16) -> NodeId {
        let nodes: Vec<NodeId> = self.net.topology().node_ids().collect();
        nodes[pick as usize % nodes.len()]
    }

    fn link(&self, pick: u16) -> Option<LinkId> {
        let links: Vec<LinkId> = self.net.topology().link_ids().collect();
        (!links.is_empty()).then(|| links[pick as usize % links.len()])
    }

    fn routing_changed(&mut self) {
        self.slotted = self.net.topology().node_count();
    }

    /// `reserve_between` against the oracle: the same error, or a
    /// reservation on exactly the oracle route's directed hops.
    fn reserve(&mut self, a: NodeId, b: NodeId, rate: f64) {
        let topology = self.net.topology().clone();
        let headroom = |net: &Network| -> Vec<((LinkId, bool), u64)> {
            topology
                .link_ids()
                .flat_map(|l| [true, false].map(|d| (l, d)))
                .map(|(l, d)| ((l, d), net.link_headroom(l, d).unwrap().to_bits()))
                .collect()
        };
        let before = headroom(&self.net);
        let hops = self
            .failures
            .oracle(&topology, a, b)
            .map(|route| route.directed_hops(&topology).unwrap());
        let expected = hops.clone().and_then(|hops| {
            for (link, direction) in hops {
                let available = self.net.link_headroom(link, direction).unwrap();
                if rate > available * (1.0 + 1e-9) + 1e-9 {
                    return Err(NetError::InsufficientBandwidth {
                        link,
                        requested: rate,
                        available,
                    });
                }
            }
            Ok(())
        });
        let version = self.net.version();
        match self.net.reserve_between(a, b, rate) {
            Ok(id) => {
                assert_eq!(expected, Ok(()), "reserve {a:?} -> {b:?} admitted");
                self.reservations.push(id);
                let after = headroom(&self.net);
                let reserved: HashSet<(LinkId, bool)> = hops.unwrap().into_iter().collect();
                for (&(hop, was), &(_, is)) in before.iter().zip(&after) {
                    let (was, is) = (f64::from_bits(was), f64::from_bits(is));
                    assert_eq!(
                        is < was,
                        reserved.contains(&hop) && was > 0.0,
                        "reserve {a:?} -> {b:?} at {hop:?}: {was} -> {is}"
                    );
                    assert!(is <= was);
                }
            }
            Err(error) => {
                assert_eq!(Err(error), expected, "reserve {a:?} -> {b:?} refused");
                assert_eq!(headroom(&self.net), before, "a refusal reserves nothing");
                assert_eq!(self.net.version(), version);
            }
        }
    }

    /// One mutation of the script.
    fn apply(&mut self, (kind, x, y, z): (u8, u16, u16, u16)) {
        match kind % 13 {
            0 => {
                let node = self.node(x);
                self.net.fail_node(node).unwrap();
                if self.failures.nodes.insert(node) {
                    self.routing_changed();
                }
            }
            1 => {
                if let Some(link) = self.link(x) {
                    self.net.fail_link(link).unwrap();
                    if self.failures.links.insert(link) {
                        self.routing_changed();
                    }
                }
            }
            2 => {
                let node = self.node(x);
                self.net.restore_node(node);
                if self.failures.nodes.remove(&node) {
                    self.routing_changed();
                }
            }
            3 => {
                if let Some(link) = self.link(x) {
                    self.net.restore_link(link);
                    if self.failures.links.remove(&link) {
                        self.routing_changed();
                    }
                }
            }
            4 => {
                // The memo is sized before the caller adds the node.
                self.routing_changed();
                self.net
                    .topology_mut()
                    .add_node(Node::unconstrained("late"));
            }
            5 => {
                let (a, b) = (self.node(x), self.node(y));
                if a != b {
                    self.routing_changed();
                    self.net
                        .topology_mut()
                        .connect(link(a, b, z as usize))
                        .unwrap();
                }
            }
            6 => {
                if let Some(target) = self.link(x) {
                    self.routing_changed();
                    let spec = self.net.topology_mut().link_mut(target).unwrap();
                    spec.delay_us = DELAYS_US[z as usize % DELAYS_US.len()];
                }
            }
            7 | 8 => {
                let (a, b) = (self.node(x), self.node(y));
                self.reserve(a, b, 40.0 * (1 + z % 60) as f64);
            }
            9 => {
                if !self.reservations.is_empty() {
                    let id = self
                        .reservations
                        .swap_remove(x as usize % self.reservations.len());
                    self.net.release(id).unwrap();
                }
            }
            10 => self.net.advance_background(),
            11 => {
                // A squeeze: headroom moves, routes must not.
                if let Some(target) = self.link(x) {
                    self.net
                        .background_mut()
                        .set_utilization(target, (z % 11) as f64 / 10.0);
                }
            }
            _ => {
                // Stale failure restorations and unknown ids change nothing.
                self.net.restore_node(self.stranger);
                assert_eq!(
                    self.net.fail_node(self.stranger),
                    Err(NetError::UnknownNode(self.stranger))
                );
            }
        }
    }

    /// Every answer the network gives now, against the oracle; then the
    /// memo itself: a source with a slot, once queried, builds no second
    /// tree under the same routing state.
    fn check(&self, rotate: u16) {
        let topology = self.net.topology();
        let mut nodes: Vec<NodeId> = topology.node_ids().collect();
        for node in &nodes {
            assert_eq!(
                self.net.node_failed(*node),
                self.failures.nodes.contains(node)
            );
        }
        for id in topology.link_ids() {
            let spec = topology.link(id).unwrap();
            let down = self.failures.links.contains(&id)
                || self.failures.nodes.contains(&spec.a)
                || self.failures.nodes.contains(&spec.b);
            if down {
                assert_eq!(self.net.link_headroom(id, true), Ok(0.0));
                assert_eq!(self.net.link_headroom(id, false), Ok(0.0));
            }
        }
        nodes.push(self.stranger);
        // All pairs on small topologies, three rotating targets per
        // source on larger ones.
        let targets: Vec<NodeId> = if nodes.len() <= 6 {
            nodes.clone()
        } else {
            (0..3)
                .map(|k| nodes[(rotate as usize + k * 2) % nodes.len()])
                .collect()
        };
        for &a in &nodes {
            check_source(&self.net, &self.failures, a, &targets);
        }
        let built = self.net.route_tree_builds();
        for &a in nodes.iter().filter(|a| a.index() < self.slotted) {
            for &b in &targets {
                self.net.routable(a, b);
            }
        }
        assert_eq!(
            self.net.route_tree_builds(),
            built,
            "a memoized source built a second tree"
        );
    }
}

type Script = (
    usize,
    bool,
    Vec<(u16, u16, u16)>,
    u64,
    Vec<(u8, u16, u16, u16)>,
);

/// Nodes, whether the initial links stay inside two islands, the initial
/// links, the background seed, and the mutation script.
fn arb_script() -> impl Strategy<Value = Script> {
    (
        2usize..9,
        proptest::bool::ANY,
        proptest::collection::vec((0u16..64, 0u16..64, 0u16..64), 0..12),
        0u64..1_000,
        proptest::collection::vec((0u8..13, 0u16..64, 0u16..64, 0u16..64), 1..16),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_048, ..ProptestConfig::default() })]

    /// The route memo is invisible: under any sequence of failures,
    /// restorations, topology edits, reservations, releases, background
    /// steps and squeezes, every `Network` route query equals a fresh
    /// `min_delay_route_filtered` — routes whole, floats by bit pattern,
    /// errors by value — and a memoized source never builds twice.
    #[test]
    fn route_memo_matches_fresh_dijkstra((n, islands, links, seed, script) in arb_script()) {
        let mut topology = Topology::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| topology.add_node(Node::unconstrained(format!("n{i}"))))
            .collect();
        for (x, y, class) in links {
            let (a, b) = (nodes[x as usize % n], nodes[y as usize % n]);
            // Same parity keeps a link inside its island.
            if a != b && (!islands || a.index() % 2 == b.index() % 2) {
                topology.connect(link(a, b, class as usize)).unwrap();
            }
        }
        let stranger = {
            let mut other = Topology::new();
            (0..64).map(|_| other.add_node(Node::unconstrained("x"))).last().unwrap()
        };
        let mut case = Case {
            net: Network::with_background(topology, TrafficConfig::default(), seed),
            failures: Failures::default(),
            reservations: Vec::new(),
            stranger,
            slotted: n,
        };
        case.check(0);
        for step in script {
            case.apply(step);
            case.check(step.3);
        }
    }
}
