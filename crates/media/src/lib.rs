//! # qosc-media
//!
//! Media format algebra and QoS parameter model for the `qosc`
//! content-adaptation framework (a reproduction of *"A QoS-based Service
//! Composition for Content Adaptation"*, El-Khatib, Bochmann & El-Saddik,
//! ICDE 2007).
//!
//! This crate is the vocabulary every other crate speaks:
//!
//! * [`MediaKind`] — coarse media classes (video, audio, image, text),
//! * [`FormatRegistry`] / [`FormatId`] — interned media formats (the `F5`,
//!   `F10`, … labels on the edges of the paper's adaptation graph, or real
//!   codec names such as `video/mpeg2`),
//! * [`Axis`] / [`ParamVector`] / [`DomainVector`] — the application-level
//!   QoS parameters of Section 4.1 (frame rate, resolution, colour depth,
//!   audio quality, …), their values and their feasible ranges,
//! * [`BitrateModel`] — the `bandwidth_requirement(x1..xn)` function of
//!   Equa. 2: how many bits per second a parameter configuration costs,
//! * [`ContentVariant`] — one concrete variant of a piece of content
//!   (a format plus a parameter vector), as listed in a content profile.
//!
//! Everything here is deterministic, `Send + Sync`, and free of global
//! state: a [`FormatRegistry`] is an explicit value that the caller threads
//! through profile resolution and graph construction.

pub mod bitrate;
pub mod format;
pub mod kind;
pub mod params;
pub mod variant;

pub use bitrate::BitrateModel;
pub use format::{FormatId, FormatRegistry, FormatSpec};
pub use kind::MediaKind;
pub use params::{hash_f64, Axis, AxisDomain, DomainVector, ParamVector};
pub use variant::{ContentVariant, VariantSpec};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MediaError {
    /// A format name was looked up in a [`FormatRegistry`] that does not
    /// contain it.
    UnknownFormat(String),
    /// A [`FormatId`] was used with a registry it does not belong to.
    StaleFormatId(FormatId),
    /// A domain was constructed with an empty or inverted range.
    EmptyDomain {
        /// Axis on which the invalid domain was declared.
        axis: Axis,
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A parameter value was not finite or was negative where a physical
    /// quantity was expected.
    InvalidValue {
        /// Axis on which the invalid value appeared.
        axis: Axis,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::UnknownFormat(name) => write!(f, "unknown media format `{name}`"),
            MediaError::StaleFormatId(id) => {
                write!(f, "format id {id:?} does not belong to this registry")
            }
            MediaError::EmptyDomain { axis, detail } => {
                write!(f, "empty domain on axis {axis}: {detail}")
            }
            MediaError::InvalidValue { axis, value } => {
                write!(f, "invalid value {value} on axis {axis}")
            }
        }
    }
}

impl std::error::Error for MediaError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MediaError>;
