//! # qosc-satisfaction
//!
//! The user-satisfaction model of Section 4.1 of *"A QoS-based Service
//! Composition for Content Adaptation"* (ICDE 2007), after Richards et al.,
//! plus the constrained parameter optimizer the selection algorithm calls
//! in Step 2 / Step 8 of Figure 4.
//!
//! * [`SatisfactionFn`] — a monotone non-decreasing mapping from one QoS
//!   parameter value to a satisfaction in `[0, 1]` (Figure 1),
//! * [`Combiner`] — the combination function `fcomb`; the paper's Equa. 1
//!   is the harmonic mean ([`Combiner::HarmonicMean`]), and the extension
//!   of \[29\] is the weighted harmonic mean,
//! * [`SatisfactionProfile`] — per-axis satisfaction functions and weights
//!   (the user's application-layer QoS preferences),
//! * [`optimize`](mod@optimize) — maximize combined satisfaction over a feasible domain
//!   subject to bandwidth (Equa. 2) and budget constraints,
//! * [`quality_level`] — the single-dial mapping of the paper's
//!   reference \[28\]: one user-facing quality level ↔ a full parameter
//!   vector.

pub mod combine;
pub mod function;
pub mod optimize;
pub mod profile;
pub mod quality_level;

pub use combine::Combiner;
pub use function::SatisfactionFn;
pub use optimize::{optimize, OptimizeOptions, Optimum, Problem};
pub use profile::{AxisPreference, SatisfactionProfile};
pub use quality_level::{level_of, params_for_level, presets};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum SatisfactionError {
    /// A satisfaction function was declared with a non-monotone or
    /// out-of-range shape.
    InvalidFunction(String),
    /// A combiner was given an empty slice of satisfactions.
    EmptyCombination,
    /// Weighted combination with mismatched weight count.
    WeightMismatch {
        /// Number of satisfaction values supplied.
        values: usize,
        /// Number of weights supplied.
        weights: usize,
    },
}

impl std::fmt::Display for SatisfactionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatisfactionError::InvalidFunction(detail) => {
                write!(f, "invalid satisfaction function: {detail}")
            }
            SatisfactionError::EmptyCombination => {
                write!(f, "cannot combine an empty set of satisfactions")
            }
            SatisfactionError::WeightMismatch { values, weights } => {
                write!(f, "{values} satisfaction values but {weights} weights")
            }
        }
    }
}

impl std::error::Error for SatisfactionError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SatisfactionError>;
