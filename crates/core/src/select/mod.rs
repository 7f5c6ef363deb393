//! The QoS selection algorithm (Section 4.4, Figure 4).

pub mod greedy;
pub mod label;
#[cfg(test)]
mod reference;
pub mod trace;

pub use greedy::{
    arena_reuse_total, arena_slots, select_chain, select_chain_with_penalties, SelectFailure,
    SelectOptions, SelectionOutcome, TieBreak,
};
pub use label::{ExtendContext, Label, StateKey};
pub use trace::{SelectionTrace, TraceRow};

use crate::graph::VertexId;
use qosc_media::{FormatId, ParamVector};

/// One settled step of a selected chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStep {
    /// The vertex (sender, transcoder or receiver).
    pub vertex: VertexId,
    /// Display name of the vertex.
    pub name: String,
    /// Output format the vertex emits on this chain.
    pub output_format: FormatId,
    /// Configured output parameters.
    pub params: ParamVector,
    /// Satisfaction label at this step.
    pub satisfaction: f64,
    /// Accumulated cost up to and including this step.
    pub accumulated_cost: f64,
}

/// The chain returned by a successful selection: sender, zero or more
/// trans-coding services, receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedChain {
    /// Steps from sender to receiver.
    pub steps: Vec<ChainStep>,
    /// Final user satisfaction ("the user's satisfaction value computed
    /// on the last edge to the receiver node", Section 4.4).
    pub satisfaction: f64,
    /// Total accumulated cost of the chain.
    pub total_cost: f64,
}

impl SelectedChain {
    /// Number of trans-coding services on the chain (excludes the sender
    /// and receiver endpoints).
    pub fn transcoder_count(&self) -> usize {
        self.steps.len().saturating_sub(2)
    }

    /// Display names from sender to receiver.
    pub fn names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.name.as_str()).collect()
    }
}
