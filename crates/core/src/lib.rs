//! # qosc-core
//!
//! The primary contribution of *"A QoS-based Service Composition for
//! Content Adaptation"* (El-Khatib, Bochmann & El-Saddik, ICDE 2007):
//!
//! * [`graph`] — construction of the directed adaptation graph from the
//!   content profile (sender outputs), device profile (receiver
//!   decoders), the service registry (intermediary services) and the
//!   network (edge bandwidth/price) — Sections 4.2 and 4.3 — plus
//!   reachability pruning and Graphviz export,
//! * [`select`] — the QoS selection algorithm of Section 4.4 / Figure 4:
//!   a greedy label-setting search that grows a set `VT` of considered
//!   services, keeps a candidate set `CS`, and at each round settles the
//!   candidate whose constrained-optimal configuration yields the highest
//!   user satisfaction. It emits a full round-by-round
//!   [`SelectionTrace`] whose rows are exactly
//!   the columns of the paper's Table 1,
//! * [`baseline`] — comparison algorithms: the exhaustive exact optimum
//!   (ground truth for the Figure-5 optimality argument), fewest-hops,
//!   widest-path, cheapest-path and a random walk,
//! * [`Composer`] — the facade that takes profiles + registry + network
//!   and returns an executable [`AdaptationPlan`].
//!
//! ## Semantics pinned down
//!
//! The paper leaves a few operational details open; we fix them as
//! follows (and the Table-1 reproduction validates the fixes):
//!
//! * **States, not bare vertices.** A trans-coding service with several
//!   output formats is searched as one state per `(vertex, output
//!   format)` pair, so committing to one output format for the chain
//!   cannot hide a better chain through another output format of the
//!   same service. For single-output services (the paper's example) this
//!   coincides with the paper's per-service sets.
//! * **Equa. 2.** When a candidate is evaluated via an edge carrying
//!   format `f`, the optimizer maximizes satisfaction over the
//!   candidate's output domain capped by the parent's delivered
//!   parameters, subject to `bitrate_f(x) ≤ available(edge)` and the
//!   remaining budget.
//! * **Quality monotonicity.** A child's satisfaction label is clamped
//!   to its parent's ("each trans-coding service can only reduce the
//!   quality", Section 4.4) — automatic when media axes persist, enforced
//!   explicitly across kind-changing conversions. This is what makes the
//!   greedy search exact (Figure 5); the property is verified against
//!   the exhaustive baseline by property test.

pub mod admission;
pub mod baseline;
pub mod bundle;
pub mod cache;
pub mod composer;
pub mod engine;
pub mod graph;
mod key_hash;
pub mod plan;
pub mod select;
pub mod session;
pub mod sharded_compose;
pub mod stamp;

pub use admission::{
    plan_admission, AdmissionConfig, AdmissionDecision, AdmissionPlan, AdmissionQueue,
    AdmissionStats, ArrivalMeta, PriorityClass, ShedReason,
};
pub use bundle::{compose_bundle, BundleComposition, BundleStream};
pub use cache::{request_hashes_total, CacheStats, ShardedCompositionCache};
pub use composer::{Composer, Composition, StoredComposition};
pub use engine::{
    degrade_profiles, serve_batch, serve_batch_traced, CompositionRequest, DegradationRung,
    EngineConfig, ResilientEngineConfig, RetryPolicy,
};
pub use graph::{
    build_filtered, graphs_equivalent, AdaptationGraph, BuildInput, Edge, EdgeId, GraphScope,
    GraphStore, GraphStoreStats, Vertex, VertexId, VertexKind,
};
pub use plan::{AdaptationPlan, PlanStep};
pub use select::{
    arena_reuse_total, arena_slots, select_chain, select_chain_with_penalties, SelectOptions,
    SelectedChain, SelectionOutcome, SelectionTrace, TieBreak,
};
pub use session::{
    run_sessions, AbrConfig, AbrMode, BolaController, BufferAdvance, CloseReason, PlayoutBuffer,
    SessionCounters, SessionEngineConfig, SessionOutcome, SessionRequest, SessionWorld,
    SessionsReport, SlaConfig, SlaMode, StaticWorld,
};
pub use sharded_compose::{ShardedComposer, TwoLevelComposition};
pub use stamp::WorldStamp;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum CoreError {
    /// Propagated media/format error.
    Media(qosc_media::MediaError),
    /// Propagated profile error.
    Profile(qosc_profiles::ProfileError),
    /// Propagated network error.
    Net(qosc_netsim::NetError),
    /// Propagated service error.
    Service(qosc_services::ServiceError),
    /// A vertex or edge id was used with the wrong graph.
    StaleId(String),
    /// The sender offers no variants or the receiver no decoders.
    DegenerateEndpoints(String),
    /// The exhaustive baseline exceeded its exploration budget.
    SearchBudgetExceeded {
        /// Paths explored before giving up.
        explored: usize,
    },
    /// A composition worker panicked while serving one request; the
    /// payload is the rendered panic message. Only that request fails.
    WorkerPanic(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Media(e) => write!(f, "media error: {e}"),
            CoreError::Profile(e) => write!(f, "profile error: {e}"),
            CoreError::Net(e) => write!(f, "network error: {e}"),
            CoreError::Service(e) => write!(f, "service error: {e}"),
            CoreError::StaleId(detail) => write!(f, "stale id: {detail}"),
            CoreError::DegenerateEndpoints(detail) => {
                write!(f, "degenerate endpoints: {detail}")
            }
            CoreError::SearchBudgetExceeded { explored } => {
                write!(
                    f,
                    "exhaustive search budget exceeded after {explored} paths"
                )
            }
            CoreError::WorkerPanic(msg) => write!(f, "worker panic: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Media(e) => Some(e),
            CoreError::Profile(e) => Some(e),
            CoreError::Net(e) => Some(e),
            CoreError::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qosc_media::MediaError> for CoreError {
    fn from(e: qosc_media::MediaError) -> CoreError {
        CoreError::Media(e)
    }
}
impl From<qosc_profiles::ProfileError> for CoreError {
    fn from(e: qosc_profiles::ProfileError) -> CoreError {
        CoreError::Profile(e)
    }
}
impl From<qosc_netsim::NetError> for CoreError {
    fn from(e: qosc_netsim::NetError) -> CoreError {
        CoreError::Net(e)
    }
}
impl From<qosc_services::ServiceError> for CoreError {
    fn from(e: qosc_services::ServiceError) -> CoreError {
        CoreError::Service(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
