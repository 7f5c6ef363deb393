//! # qosc-pipeline
//!
//! Executes the plans produced by `qosc-core` as simulated streaming
//! sessions, closing the loop the paper's abstract promises: "a framework
//! for trans-coding multimedia streams \[using\] self-organizing, resilient
//! data distribution".
//!
//! * [`session`] — an event-driven, per-frame simulation of one
//!   [`AdaptationPlan`](qosc_core::AdaptationPlan): the sender emits
//!   frames at the configured rate, each trans-coding stage adds
//!   processing delay proportional to its CPU demand, each network hop
//!   adds serialization + propagation delay and seeded loss, and the
//!   receiver measures what actually arrived,
//! * [`report`] — delivery metrics and the *measured* satisfaction,
//!   comparable against the algorithm's *predicted* satisfaction,
//! * [`failure`] — a schedule of node/link failures, the network half
//!   of a chaos world's events,
//! * [`chaos`] — the deterministic chaos generator: a declarative
//!   [`ChaosModel`] compiled into correlated network faults and
//!   lease-expiry storms, bitwise reproducible from `(chaos_seed,
//!   intensity)`,
//! * [`session_world`] — the self-organizing part: the chaos-driven
//!   world for `qosc-core`'s serving loop. Network faults, discovery
//!   churn and lease expiry fire as the loop's world events and break
//!   live plans mid-session; the loop re-composes on the surviving
//!   graph at the fault instant.
//!
//! The frame-level [`session`] simulation measures per-frame loss,
//! latency and jitter on a fault-free chain; resilience under faults is
//! the serving loop's (X4, X12, X14–X19).

pub mod chaos;
pub mod failure;
pub mod report;
pub mod session;
pub mod session_world;

pub use chaos::{ChaosAction, ChaosModel, ChaosPlan, ChaosSummary};
pub use failure::{FailureEvent, FailureSchedule};
pub use qosc_broker::{BandwidthBroker, FlowSpec, SharingPolicy};
pub use report::SessionReport;
pub use session::{run_session, SessionConfig};
pub use session_world::{ChaosWorld, DeliveryCacheStats, WorldBuildError, WorldOp};

/// Errors produced by this crate.
#[derive(Debug)]
pub enum PipelineError {
    /// Propagated composition error.
    Core(qosc_core::CoreError),
    /// Propagated network error.
    Net(qosc_netsim::NetError),
    /// The plan has fewer than two steps (no sender→receiver pair).
    DegeneratePlan,
    /// Session admission failed (bandwidth reservation rejected).
    AdmissionRejected(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Core(e) => write!(f, "composition error: {e}"),
            PipelineError::Net(e) => write!(f, "network error: {e}"),
            PipelineError::DegeneratePlan => write!(f, "plan has no stages to execute"),
            PipelineError::AdmissionRejected(detail) => {
                write!(f, "session admission rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Core(e) => Some(e),
            PipelineError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qosc_core::CoreError> for PipelineError {
    fn from(e: qosc_core::CoreError) -> PipelineError {
        PipelineError::Core(e)
    }
}

impl From<qosc_netsim::NetError> for PipelineError {
    fn from(e: qosc_netsim::NetError) -> PipelineError {
        PipelineError::Net(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;
