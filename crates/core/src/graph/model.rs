//! Graph data model.
//!
//! "Vertices in the graph represent trans-coding services. … The sender
//! node is a special case vertex, with only output links, while the
//! receiver node is another special vertex with only input links. …
//! Edges in the graph represent the network connecting two vertices,
//! where the input link of one vertex matches the output link of another
//! vertex." — Section 4.2.

use crate::{CoreError, Result};
use qosc_media::{DomainVector, FormatId, ParamVector};
use qosc_netsim::NodeId;
use qosc_services::ServiceId;

/// Dense identifier of a vertex within one [`AdaptationGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// Construct from a dense vertex index (crate-internal: the graph
    /// store computes canonical vertex positions).
    pub(crate) fn from_index(index: usize) -> VertexId {
        VertexId(u32::try_from(index).expect("fewer than 2^32 vertices"))
    }

    /// Raw index (valid only for the graph that produced it).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense identifier of an edge within one [`AdaptationGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Raw index (valid only for the graph that produced it).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a vertex stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexKind {
    /// The content source ("a special case vertex, with only output
    /// links").
    Sender,
    /// A trans-coding service, backed by a registry entry.
    Transcoder(ServiceId),
    /// The content sink ("another special vertex with only input links").
    Receiver,
}

/// One conversion capability attached to a vertex: accepting `input`,
/// producing `output` over `output_domain`.
///
/// * Sender: one pseudo-conversion per content variant (`input` equals
///   `output`; the domain is what the sender offers).
/// * Transcoder: the resolved service conversions.
/// * Receiver: one identity pseudo-conversion per decoder (empty domain —
///   the receiver renders what arrives, capped by its hardware).
#[derive(Debug, Clone, PartialEq)]
pub struct VertexConversion {
    /// Accepted input format.
    pub input: FormatId,
    /// Produced output format.
    pub output: FormatId,
    /// Producible output configurations (before upstream capping).
    pub output_domain: DomainVector,
}

/// A graph vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    /// What the vertex stands for.
    pub kind: VertexKind,
    /// Display name (`"sender"`, `"T7"`, `"receiver"`).
    pub name: String,
    /// The network node the vertex runs on.
    pub host: NodeId,
    /// Conversion capabilities, in advertised listing order.
    pub conversions: Vec<VertexConversion>,
    /// Flat price per second of using this vertex's service.
    pub price_per_second: f64,
    /// Price per megabit of output produced by this vertex's service.
    pub price_per_mbit: f64,
}

impl Vertex {
    /// Conversions accepting `input`, in listing order.
    pub fn conversions_from(&self, input: FormatId) -> impl Iterator<Item = &VertexConversion> {
        self.conversions.iter().filter(move |c| c.input == input)
    }

    /// Whether the vertex accepts `format` on some conversion.
    pub fn accepts(&self, format: FormatId) -> bool {
        self.conversions.iter().any(|c| c.input == format)
    }

    /// Distinct output formats, in first-appearance order.
    pub fn output_formats(&self) -> Vec<FormatId> {
        let mut seen = Vec::new();
        self.output_formats_into(&mut seen);
        seen
    }

    /// [`output_formats`](Vertex::output_formats) into `seen`, cleared
    /// first: the graph store's delta reuses one buffer per delta.
    pub(crate) fn output_formats_into(&self, seen: &mut Vec<FormatId>) {
        seen.clear();
        for c in &self.conversions {
            if !seen.contains(&c.output) {
                seen.push(c.output);
            }
        }
    }
}

/// A graph edge: the network path carrying content in `format` from the
/// output of `from` to the input of `to`, annotated with the constraint
/// data of Section 4.3 (a snapshot taken at build time).
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producing vertex.
    pub from: VertexId,
    /// Consuming vertex.
    pub to: VertexId,
    /// The format carried.
    pub format: FormatId,
    /// `Bandwidth_AvailableBetween(from, to)` at build time; `+∞` when
    /// the two vertices share a host (Section 4.3).
    pub available_bps: f64,
    /// One-way network delay, microseconds.
    pub delay_us: u64,
    /// Flat transmission price of a session crossing this edge.
    pub price_flat: f64,
    /// Transmission price per megabit carried.
    pub price_per_mbit: f64,
}

/// The directed adaptation graph.
#[derive(Debug, Clone, Default)]
pub struct AdaptationGraph {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    /// out[vertex] = outgoing edge ids in insertion (listing) order.
    out: Vec<Vec<EdgeId>>,
    /// in_[vertex] = incoming edge ids in insertion order.
    in_: Vec<Vec<EdgeId>>,
    sender: Option<VertexId>,
    receiver: Option<VertexId>,
    /// Parameter caps the receiver's hardware imposes (device profile).
    receiver_caps: ParamVector,
}

impl AdaptationGraph {
    /// An empty graph.
    pub fn new() -> AdaptationGraph {
        AdaptationGraph::default()
    }

    /// Add a vertex. The first `Sender`/`Receiver` added become *the*
    /// sender/receiver of the graph.
    pub fn add_vertex(&mut self, vertex: Vertex) -> VertexId {
        let id = VertexId(u32::try_from(self.vertices.len()).expect("fewer than 2^32 vertices"));
        match vertex.kind {
            VertexKind::Sender if self.sender.is_none() => self.sender = Some(id),
            VertexKind::Receiver if self.receiver.is_none() => self.receiver = Some(id),
            _ => {}
        }
        self.vertices.push(vertex);
        self.out.push(Vec::new());
        self.in_.push(Vec::new());
        id
    }

    /// Add an edge. Endpoints must exist; duplicate `(from, to, format)`
    /// edges are coalesced (first wins).
    pub fn add_edge(&mut self, edge: Edge) -> Result<EdgeId> {
        self.vertex(edge.from)?;
        self.vertex(edge.to)?;
        if let Some(&existing) = self.out[edge.from.index()].iter().find(|&&e| {
            let known = &self.edges[e.index()];
            known.to == edge.to && known.format == edge.format
        }) {
            return Ok(existing);
        }
        let id = EdgeId(u32::try_from(self.edges.len()).expect("fewer than 2^32 edges"));
        self.out[edge.from.index()].push(id);
        self.in_[edge.to.index()].push(id);
        self.edges.push(edge);
        Ok(id)
    }

    /// The vertex for `id`.
    pub fn vertex(&self, id: VertexId) -> Result<&Vertex> {
        self.vertices
            .get(id.index())
            .ok_or_else(|| CoreError::StaleId(format!("vertex {id:?}")))
    }

    /// The edge for `id`.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge> {
        self.edges
            .get(id.index())
            .ok_or_else(|| CoreError::StaleId(format!("edge {id:?}")))
    }

    /// Outgoing edges of `vertex`, in listing order.
    pub fn out_edges(&self, vertex: VertexId) -> &[EdgeId] {
        self.out
            .get(vertex.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Incoming edges of `vertex`, in listing order.
    pub fn in_edges(&self, vertex: VertexId) -> &[EdgeId] {
        self.in_
            .get(vertex.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The sender vertex.
    pub fn sender(&self) -> Option<VertexId> {
        self.sender
    }

    /// The receiver vertex.
    pub fn receiver(&self) -> Option<VertexId> {
        self.receiver
    }

    /// Hardware caps of the receiver's device.
    pub fn receiver_caps(&self) -> &ParamVector {
        &self.receiver_caps
    }

    /// Set the receiver's hardware caps (done by the builder).
    pub fn set_receiver_caps(&mut self, caps: ParamVector) {
        self.receiver_caps = caps;
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All vertex ids in index order.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// All edge ids in index order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Find a vertex by display name (linear scan).
    pub fn vertex_by_name(&self, name: &str) -> Option<VertexId> {
        self.vertices
            .iter()
            .position(|v| v.name == name)
            .map(|i| VertexId(i as u32))
    }

    // -----------------------------------------------------------------
    // Canonical in-place mutation, used by the incremental graph store
    // (`graph::store`). These operations preserve the structural
    // invariants a fresh `build()` establishes: vertex indices are
    // sender, receiver, then live services in registration order, and
    // every per-vertex adjacency list keeps the builder's listing
    // order. Edge *ids* are renumbered freely — nothing outside the
    // graph stores an `EdgeId`, and selection only ever walks the
    // adjacency lists.
    // -----------------------------------------------------------------

    /// Insert `edge` at position `out_pos` of `from`'s out-list and
    /// `in_pos` of `to`'s in-list (panics if either position is out of
    /// bounds — the store computes both canonically).
    pub(crate) fn insert_edge_at(&mut self, edge: Edge, out_pos: usize, in_pos: usize) -> EdgeId {
        let id = EdgeId(u32::try_from(self.edges.len()).expect("fewer than 2^32 edges"));
        self.out[edge.from.index()].insert(out_pos, id);
        self.in_[edge.to.index()].insert(in_pos, id);
        self.edges.push(edge);
        id
    }

    /// Compact away every vertex failing `keep_vertex` and every edge
    /// failing `keep_edge` (edges incident to a dropped vertex go with
    /// it). Surviving vertices and edges keep their relative order and
    /// are renumbered densely; adjacency lists keep their relative
    /// per-vertex order. Matches what a fresh build over the reduced
    /// input would produce, modulo global edge numbering. Compacts in
    /// place: the only allocations are the two renumbering tables.
    pub(crate) fn retain_canonical(
        &mut self,
        keep_vertex: impl Fn(VertexId) -> bool,
        keep_edge: impl Fn(&Edge) -> bool,
    ) {
        let mut vertex_map: Vec<Option<u32>> = Vec::with_capacity(self.vertices.len());
        let mut next_vertex = 0u32;
        for index in 0..self.vertices.len() {
            if keep_vertex(VertexId(index as u32)) {
                vertex_map.push(Some(next_vertex));
                next_vertex += 1;
            } else {
                vertex_map.push(None);
            }
        }

        let mut edge_map: Vec<Option<u32>> = Vec::with_capacity(self.edges.len());
        let mut next_edge = 0u32;
        for edge in &self.edges {
            let kept = vertex_map[edge.from.index()].is_some()
                && vertex_map[edge.to.index()].is_some()
                && keep_edge(edge);
            if kept {
                edge_map.push(Some(next_edge));
                next_edge += 1;
            } else {
                edge_map.push(None);
            }
        }

        let mut index = 0;
        self.edges.retain_mut(|edge| {
            index += 1;
            let kept = edge_map[index - 1].is_some();
            if kept {
                edge.from = VertexId(vertex_map[edge.from.index()].expect("endpoint kept"));
                edge.to = VertexId(vertex_map[edge.to.index()].expect("endpoint kept"));
            }
            kept
        });
        // Keep each kept vertex's list, its kept edges renumbered.
        let compact = |lists: &mut Vec<Vec<EdgeId>>| {
            let mut index = 0;
            lists.retain_mut(|list| {
                index += 1;
                list.retain_mut(|e| match edge_map[e.index()] {
                    Some(renumbered) => {
                        *e = EdgeId(renumbered);
                        true
                    }
                    None => false,
                });
                vertex_map[index - 1].is_some()
            });
        };
        compact(&mut self.out);
        compact(&mut self.in_);
        let mut index = 0;
        self.vertices.retain(|_| {
            index += 1;
            vertex_map[index - 1].is_some()
        });

        self.sender = self
            .sender
            .and_then(|v| vertex_map[v.index()].map(VertexId));
        self.receiver = self
            .receiver
            .and_then(|v| vertex_map[v.index()].map(VertexId));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_netsim::{Node, Topology};

    fn node() -> NodeId {
        let mut t = Topology::new();
        t.add_node(Node::unconstrained("n"))
    }

    fn plain_vertex(kind: VertexKind, name: &str) -> Vertex {
        Vertex {
            kind,
            name: name.to_string(),
            host: node(),
            conversions: Vec::new(),
            price_per_second: 0.0,
            price_per_mbit: 0.0,
        }
    }

    fn plain_edge(from: VertexId, to: VertexId, format: FormatId) -> Edge {
        Edge {
            from,
            to,
            format,
            available_bps: f64::INFINITY,
            delay_us: 0,
            price_flat: 0.0,
            price_per_mbit: 0.0,
        }
    }

    fn format(n: u32) -> FormatId {
        // FormatId construction is private; intern through a registry.
        let mut reg = qosc_media::FormatRegistry::new();
        let mut id = None;
        for i in 0..=n {
            id = Some(reg.register_abstract(format!("F{i}"), qosc_media::MediaKind::Video));
        }
        id.unwrap()
    }

    #[test]
    fn sender_and_receiver_are_first_of_kind() {
        let mut g = AdaptationGraph::new();
        let s = g.add_vertex(plain_vertex(VertexKind::Sender, "sender"));
        let r = g.add_vertex(plain_vertex(VertexKind::Receiver, "receiver"));
        let s2 = g.add_vertex(plain_vertex(VertexKind::Sender, "impostor"));
        assert_eq!(g.sender(), Some(s));
        assert_eq!(g.receiver(), Some(r));
        assert_ne!(g.sender(), Some(s2));
    }

    #[test]
    fn edges_index_both_directions() {
        let mut g = AdaptationGraph::new();
        let a = g.add_vertex(plain_vertex(VertexKind::Sender, "a"));
        let b = g.add_vertex(plain_vertex(VertexKind::Receiver, "b"));
        let f = format(0);
        let e = g.add_edge(plain_edge(a, b, f)).unwrap();
        assert_eq!(g.out_edges(a), &[e]);
        assert_eq!(g.in_edges(b), &[e]);
        assert!(g.out_edges(b).is_empty());
        assert_eq!(g.edge(e).unwrap().format, f);
    }

    #[test]
    fn duplicate_edges_coalesce() {
        let mut g = AdaptationGraph::new();
        let a = g.add_vertex(plain_vertex(VertexKind::Sender, "a"));
        let b = g.add_vertex(plain_vertex(VertexKind::Receiver, "b"));
        let f = format(0);
        let e1 = g.add_edge(plain_edge(a, b, f)).unwrap();
        let e2 = g.add_edge(plain_edge(a, b, f)).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        // Different format → distinct edge.
        let f2 = format(1);
        let e3 = g.add_edge(plain_edge(a, b, f2)).unwrap();
        assert_ne!(e1, e3);
    }

    #[test]
    fn stale_ids_error() {
        let g = AdaptationGraph::new();
        assert!(g.vertex(VertexId(0)).is_err());
        assert!(g.edge(EdgeId(0)).is_err());
    }

    #[test]
    fn vertex_by_name() {
        let mut g = AdaptationGraph::new();
        let a = g.add_vertex(plain_vertex(VertexKind::Sender, "sender"));
        assert_eq!(g.vertex_by_name("sender"), Some(a));
        assert_eq!(g.vertex_by_name("T99"), None);
    }
}
