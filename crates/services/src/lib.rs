//! # qosc-services
//!
//! Trans-coding services for the `qosc` reproduction of *"A QoS-based
//! Service Composition for Content Adaptation"* (ICDE 2007).
//!
//! * [`TranscoderDescriptor`] — the runtime form of a service: resolved
//!   format ids, an output-quality domain per conversion, resource
//!   requirements, a price model, and the network node it runs on,
//! * [`ServiceRegistry`] — the discovery substrate. The paper points at
//!   JINI / SLP / WSDL; we implement the semantics composition needs:
//!   registration with SLP-style leases (TTL), renewal, expiry, and
//!   format-indexed lookup ("which services accept format F?"),
//! * [`catalog`] — a library of realistic service specs (JPEG→GIF colour
//!   reduction, HTML→WML, MPEG-2→H.263 down-coding, PCM→MP3, video→key
//!   frames, …) matching the adaptations the paper's introduction lists,
//! * [`host`] — CPU/memory admission against the intermediary's node
//!   resources (Section 3, intermediary profile).

pub mod catalog;
pub mod descriptor;
pub mod discovery;
pub mod host;
pub mod qos;
pub mod registry;
pub mod sharded;

pub use descriptor::{Conversion, ServiceId, TranscoderDescriptor};
pub use discovery::{DiscoveryConfig, DiscoveryDriver, MemberId};
pub use host::{AdmissionId, HostResources};
pub use qos::{QosEstimator, QosEstimatorConfig, QosObservation, SlaVerdict, SlaWatchdog, QOS_PPM};
pub use registry::{
    ProbationConfig, QuarantineConfig, RegistryEvent, SelectionView, ServiceRegistry,
};
pub use sharded::{PairKey, ShardRouter, ShardedServiceRegistry};

use qosc_netsim::NodeId;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum ServiceError {
    /// A service spec referenced an unknown format name.
    Media(qosc_media::MediaError),
    /// A profile-level validation error surfaced during resolution.
    Profile(qosc_profiles::ProfileError),
    /// A service id was used after deregistration/expiry.
    UnknownService(ServiceId),
    /// Admission would exceed a node's CPU or memory capacity.
    InsufficientResources {
        /// The node that could not host the work.
        node: NodeId,
        /// Human-readable description of the shortfall.
        detail: String,
    },
    /// An admission id was released twice or never existed.
    UnknownAdmission(AdmissionId),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Media(e) => write!(f, "media error: {e}"),
            ServiceError::Profile(e) => write!(f, "profile error: {e}"),
            ServiceError::UnknownService(id) => write!(f, "unknown service {id:?}"),
            ServiceError::InsufficientResources { node, detail } => {
                write!(f, "node {node:?} lacks resources: {detail}")
            }
            ServiceError::UnknownAdmission(id) => write!(f, "unknown admission {id:?}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Media(e) => Some(e),
            ServiceError::Profile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qosc_media::MediaError> for ServiceError {
    fn from(e: qosc_media::MediaError) -> ServiceError {
        ServiceError::Media(e)
    }
}

impl From<qosc_profiles::ProfileError> for ServiceError {
    fn from(e: qosc_profiles::ProfileError) -> ServiceError {
        ServiceError::Profile(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;
