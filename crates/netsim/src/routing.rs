//! Minimum-delay routing.
//!
//! Content between two trans-coding services crosses the network along a
//! route; the bandwidth available between the two services is the
//! bottleneck headroom along that route. We route by minimum accumulated
//! propagation delay (Dijkstra), which matches how the paper treats the
//! network as a given delivery path rather than something the composition
//! algorithm chooses.

use crate::topology::{LinkId, NodeId, Topology};
use crate::{NetError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A route between two nodes: the links crossed, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Origin node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Links crossed in order from `from` to `to`; empty iff `from == to`.
    pub links: Vec<LinkId>,
    /// Nodes visited, `from` first and `to` last (`links.len() + 1`
    /// entries, or a single entry when `from == to`).
    pub nodes: Vec<NodeId>,
    /// Total propagation delay in microseconds.
    pub delay_us: u64,
}

impl Route {
    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// The directed link crossings of this route: for each link, `true`
    /// when crossed from its `a` endpoint towards its `b` endpoint.
    /// Links are full duplex, so bandwidth accounting is per direction.
    /// Errors with [`NetError::UnknownLink`] when the route was computed
    /// on a different topology.
    pub fn directed_hops(&self, topology: &Topology) -> Result<Vec<(LinkId, bool)>> {
        // `nodes[i]` is the node link `i` is entered from (`nodes` has
        // `links.len() + 1` entries).
        self.links
            .iter()
            .zip(&self.nodes)
            .map(|(&link, &from)| Ok((link, topology.link(link)?.a == from)))
            .collect()
    }
}

/// Compute the minimum-delay route between two nodes, or
/// [`NetError::NoRoute`] if the topology is partitioned between them.
///
/// Deterministic: ties are broken by node index via the heap's secondary
/// key.
pub fn min_delay_route(topology: &Topology, from: NodeId, to: NodeId) -> Result<Route> {
    min_delay_route_filtered(topology, from, to, &|_| true, &|_| true)
}

/// [`min_delay_route`] restricted to links and nodes the predicates admit.
/// Used by the failure-aware [`crate::network::Network`] facade: a failed
/// node or link is simply filtered out of the search.
pub fn min_delay_route_filtered(
    topology: &Topology,
    from: NodeId,
    to: NodeId,
    link_ok: &dyn Fn(LinkId) -> bool,
    node_ok: &dyn Fn(NodeId) -> bool,
) -> Result<Route> {
    topology.node(from)?;
    topology.node(to)?;
    if from == to {
        return Ok(Route {
            from,
            to,
            links: Vec::new(),
            nodes: vec![from],
            delay_us: 0,
        });
    }
    if !node_ok(from) || !node_ok(to) {
        return Err(NetError::NoRoute { from, to });
    }

    let n = topology.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[from.index()] = 0;
    heap.push(Reverse((0, from.0)));

    while let Some(Reverse((d, node_raw))) = heap.pop() {
        let node = NodeId(node_raw);
        if d > dist[node.index()] {
            continue;
        }
        if node == to {
            break;
        }
        for &(neighbor, link) in topology.neighbors(node) {
            if !link_ok(link) || !node_ok(neighbor) {
                continue;
            }
            let next = d.saturating_add(topology.link(link)?.delay_us);
            if next < dist[neighbor.index()] {
                dist[neighbor.index()] = next;
                prev[neighbor.index()] = Some((node, link));
                heap.push(Reverse((next, neighbor.0)));
            }
        }
    }

    if dist[to.index()] == u64::MAX {
        return Err(NetError::NoRoute { from, to });
    }

    let mut links = Vec::new();
    let mut nodes = vec![to];
    let mut cursor = to;
    while cursor != from {
        // Every node with a finite distance other than `from` got it
        // from a relaxation, which also set its parent.
        let Some((parent, link)) = prev[cursor.index()] else {
            return Err(NetError::NoRoute { from, to });
        };
        links.push(link);
        nodes.push(parent);
        cursor = parent;
    }
    links.reverse();
    nodes.reverse();
    Ok(Route {
        from,
        to,
        links,
        nodes,
        delay_us: dist[to.index()],
    })
}

/// The minimum-delay routes from one source to every node, as a parent
/// table: what [`crate::network::Network`] memoizes per source and per
/// routing state.
#[derive(Debug, Clone)]
pub(crate) struct RouteTree {
    /// Minimum delay from the source in microseconds; `u64::MAX` for an
    /// unreachable node.
    pub(crate) dist: Vec<u64>,
    /// The node a reachable node is entered from and the link crossed;
    /// `None` for the source and for unreachable nodes.
    pub(crate) parent: Vec<Option<(NodeId, LinkId)>>,
    /// Reachable nodes in the order the search settled them, source
    /// first: a node's parent always precedes it.
    pub(crate) settled: Vec<NodeId>,
}

impl RouteTree {
    /// The route to `to`, walked backwards: `(entered from, link)` for
    /// each hop, last hop first. Empty for the source and for
    /// unreachable or unknown nodes.
    pub(crate) fn hops_back(&self, to: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        let mut cursor = to;
        std::iter::from_fn(move || {
            let hop = (*self.parent.get(cursor.index())?)?;
            cursor = hop.0;
            Some(hop)
        })
    }
}

/// One full Dijkstra run from `from` over the links and nodes the
/// predicates admit (`from` itself is not checked; from an unknown
/// `from` nothing is reachable).
///
/// Same relaxation rule as [`min_delay_route_filtered`] — strict `<`,
/// heap key `(delay, node index)`, neighbors in insertion order — minus
/// the early exit. The two searches pop the same sequence up to the
/// point the early exit leaves, and a strict-`<` search fixes
/// `parent[v]` before `v` settles (only a strictly smaller distance
/// rewrites it, and a settled distance is final), so the chain of
/// parents from any `to` is exactly the route the early-exit search
/// returns for `(from, to)`.
pub(crate) fn shortest_path_tree(
    topology: &Topology,
    from: NodeId,
    link_ok: impl Fn(LinkId) -> bool,
    node_ok: impl Fn(NodeId) -> bool,
) -> RouteTree {
    let n = topology.node_count();
    let mut tree = RouteTree {
        dist: vec![u64::MAX; n],
        parent: vec![None; n],
        settled: Vec::with_capacity(n),
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    if let Some(origin) = tree.dist.get_mut(from.index()) {
        *origin = 0;
        heap.push(Reverse((0, from.0)));
    }
    while let Some(Reverse((d, node_raw))) = heap.pop() {
        let node = NodeId(node_raw);
        // Indexing: only `from` (checked above) and adjacency entries are
        // ever pushed, and `Topology::connect` admits a link only between
        // nodes it holds and files it under both.
        if d > tree.dist[node.index()] {
            continue;
        }
        tree.settled.push(node);
        for &(neighbor, link) in topology.neighbors(node) {
            if !link_ok(link) || !node_ok(neighbor) {
                continue;
            }
            let Ok(spec) = topology.link(link) else {
                continue;
            };
            let next = d.saturating_add(spec.delay_us);
            if next < tree.dist[neighbor.index()] {
                tree.dist[neighbor.index()] = next;
                tree.parent[neighbor.index()] = Some((node, link));
                heap.push(Reverse((next, neighbor.0)));
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Link, Node};

    fn line(n: usize, delay_us: u64) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(Node::unconstrained(format!("n{i}"))))
            .collect();
        for w in nodes.windows(2) {
            t.connect(Link {
                a: w[0],
                b: w[1],
                capacity_bps: 1e6,
                delay_us,
                loss: 0.0,
                price_per_mbit: 0.0,
                price_flat: 0.0,
            })
            .unwrap();
        }
        (t, nodes)
    }

    #[test]
    fn trivial_route_to_self() {
        let (t, nodes) = line(2, 100);
        let r = min_delay_route(&t, nodes[0], nodes[0]).unwrap();
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.delay_us, 0);
    }

    #[test]
    fn line_route_accumulates_delay() {
        let (t, nodes) = line(4, 250);
        let r = min_delay_route(&t, nodes[0], nodes[3]).unwrap();
        assert_eq!(r.hop_count(), 3);
        assert_eq!(r.delay_us, 750);
    }

    #[test]
    fn prefers_lower_delay_over_fewer_hops() {
        let mut t = Topology::new();
        let a = t.add_node(Node::unconstrained("a"));
        let b = t.add_node(Node::unconstrained("b"));
        let c = t.add_node(Node::unconstrained("c"));
        // Direct a-c link is slow; a-b-c is faster in total.
        t.connect(Link {
            a,
            b: c,
            capacity_bps: 1e6,
            delay_us: 10_000,
            loss: 0.0,
            price_per_mbit: 0.0,
            price_flat: 0.0,
        })
        .unwrap();
        t.connect(Link {
            a,
            b,
            capacity_bps: 1e6,
            delay_us: 2_000,
            loss: 0.0,
            price_per_mbit: 0.0,
            price_flat: 0.0,
        })
        .unwrap();
        t.connect(Link {
            a: b,
            b: c,
            capacity_bps: 1e6,
            delay_us: 2_000,
            loss: 0.0,
            price_per_mbit: 0.0,
            price_flat: 0.0,
        })
        .unwrap();
        let r = min_delay_route(&t, a, c).unwrap();
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.delay_us, 4_000);
    }

    #[test]
    fn partition_is_no_route() {
        let mut t = Topology::new();
        let a = t.add_node(Node::unconstrained("a"));
        let b = t.add_node(Node::unconstrained("b"));
        assert_eq!(
            min_delay_route(&t, a, b),
            Err(NetError::NoRoute { from: a, to: b })
        );
    }

    #[test]
    fn route_table_matches_single_route() {
        let (t, nodes) = line(5, 100);
        let tree = shortest_path_tree(&t, nodes[0], |_| true, |_| true);
        assert_eq!(tree.settled, nodes);
        assert_eq!(tree.dist, vec![0, 100, 200, 300, 400]);
        for &to in &nodes {
            let route = min_delay_route(&t, nodes[0], to).unwrap();
            let mut links: Vec<LinkId> = tree.hops_back(to).map(|(_, link)| link).collect();
            links.reverse();
            assert_eq!(links, route.links);
            assert_eq!(tree.dist[to.index()], route.delay_us);
        }
    }
}
