//! The directed adaptation graph (Sections 4.2–4.3).

pub mod acyclic;
pub mod build;
pub mod dot;
pub mod model;
pub mod prune;
pub mod store;

pub use build::{build_filtered, BuildInput};
pub use model::{AdaptationGraph, Edge, EdgeId, Vertex, VertexId, VertexKind};
pub use prune::PruneStats;
pub use store::{graph_fetch_totals, graphs_equivalent, GraphScope, GraphStore, GraphStoreStats};
