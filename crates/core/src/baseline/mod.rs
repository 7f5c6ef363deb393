//! Baseline path-selection algorithms.
//!
//! The paper argues that composing by *user satisfaction* beats composing
//! by classic network metrics. These baselines make that claim
//! measurable:
//!
//! * [`exhaustive`] — the exact optimum by enumerating every simple,
//!   format-distinct chain (ground truth for the Figure-5 optimality
//!   argument; exponential, test/bench sized graphs only),
//! * [`structural::fewest_hops`] — shortest chain by hop count,
//! * [`structural::widest_path`] — maximize the bottleneck bandwidth,
//! * [`structural::cheapest_path`] — minimize a structural price proxy,
//! * [`random_walk`] — a seeded random feasible chain.
//!
//! Every baseline *labels* its chosen chain with the same
//! [`ExtendContext`] the greedy
//! algorithm uses, so satisfactions are directly comparable.

pub mod exhaustive;
pub mod random_walk;
pub mod structural;

use crate::graph::{AdaptationGraph, EdgeId};
use crate::select::label::{ExtendContext, Label};
use crate::select::{ChainStep, SelectedChain};
use crate::Result;

/// The result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The labelled chain.
    pub chain: SelectedChain,
    /// Edges of the chain, in order.
    pub edges: Vec<EdgeId>,
    /// How many states/paths the algorithm explored.
    pub explored: usize,
}

/// Label a concrete chain of edges from the sender, returning the chain
/// of labels, or `None` if some step is infeasible (bandwidth/budget) or
/// the edges do not connect.
pub fn label_edge_path(ctx: &ExtendContext<'_>, edges: &[EdgeId]) -> Result<Option<Vec<Label>>> {
    let first = match edges.first() {
        Some(&e) => ctx.graph.edge(e)?,
        None => return Ok(None),
    };
    let sender_labels = ctx.sender_labels()?;
    let mut current = match sender_labels
        .into_iter()
        .find(|l| l.state.output_format == first.format)
    {
        Some(l) => l,
        None => return Ok(None),
    };
    let mut labels = vec![current];
    for (i, &edge_id) in edges.iter().enumerate() {
        let edge = ctx.graph.edge(edge_id)?;
        if edge.from != current.state.vertex || edge.format != current.state.output_format {
            return Ok(None); // disconnected chain
        }
        let extensions = ctx.extend(&current, edge_id)?;
        // Pick the extension whose output format matches the next edge,
        // or (at the last step) the best extension into the target.
        let next_format = edges.get(i + 1).map(|&e| ctx.graph.edge(e)).transpose()?;
        let chosen = match next_format {
            Some(next_edge) => extensions
                .into_iter()
                .find(|l| l.state.output_format == next_edge.format),
            None => extensions.into_iter().max_by(|a, b| {
                a.satisfaction
                    .partial_cmp(&b.satisfaction)
                    .expect("satisfactions are finite")
            }),
        };
        current = match chosen {
            Some(l) => l,
            None => return Ok(None),
        };
        labels.push(current);
    }
    Ok(Some(labels))
}

/// Materialize a [`SelectedChain`] from a chain of labels.
pub fn chain_from_labels(graph: &AdaptationGraph, labels: &[Label]) -> Result<SelectedChain> {
    let mut steps = Vec::with_capacity(labels.len());
    for label in labels {
        steps.push(ChainStep {
            vertex: label.state.vertex,
            name: graph.vertex(label.state.vertex)?.name.clone(),
            output_format: label.state.output_format,
            params: label.params,
            satisfaction: label.satisfaction,
            accumulated_cost: label.accumulated_cost,
        });
    }
    let last = labels.last().expect("labelled chains are non-empty");
    Ok(SelectedChain {
        satisfaction: last.satisfaction,
        total_cost: last.accumulated_cost,
        steps,
    })
}
