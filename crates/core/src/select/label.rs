//! Labels and the extension (relaxation) step shared by the greedy
//! algorithm and every baseline.
//!
//! Keeping [`extend`](ExtendContext::extend) in one place guarantees that the greedy search and
//! the exhaustive ground truth evaluate candidate services with *exactly*
//! the same semantics — which is what makes the Figure-5 optimality
//! property testable.

use crate::graph::{AdaptationGraph, EdgeId, VertexId, VertexKind};
use crate::Result;
use qosc_media::{DomainVector, FormatId, FormatRegistry, ParamVector};
use qosc_satisfaction::{optimize, OptimizeOptions, Problem, SatisfactionProfile};
use qosc_services::ServiceId;

/// A search state: a vertex committed to one output format.
///
/// The paper's sets contain bare services; splitting by output format
/// keeps the greedy search exact for multi-output services (committing
/// to one output format cannot hide a chain through another) and
/// coincides with the paper's model when every service has one output.
///
/// The states of a graph are the pairs its vertices *advertise* — a
/// vertex and the `output` of one of its conversions — so there are
/// Σ_v |distinct outputs(v)| of them, whatever the size of the format
/// registry. The derived `Ord` (vertex, then format) is load-bearing:
/// the greedy kernel numbers states in exactly this order, and where a
/// tie-break policy leaves two candidates tied, the first in this order
/// wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey {
    /// The vertex.
    pub vertex: VertexId,
    /// The output format the vertex emits in this state.
    pub output_format: FormatId,
}

/// The label of a settled or candidate state.
///
/// All fields are plain values (`ParamVector` is a fixed-size axis
/// array), so labels are `Copy` and the greedy search can hold them in
/// slot arrays without indirection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Label {
    /// The labelled state.
    pub state: StateKey,
    /// Configured output parameters of the vertex in this state.
    pub params: ParamVector,
    /// User satisfaction of this state's configuration, clamped to the
    /// parent's satisfaction (quality monotonicity, Section 4.4).
    pub satisfaction: f64,
    /// Accumulated cost from the sender up to and including this vertex
    /// (Figure 4, Step 6).
    pub accumulated_cost: f64,
    /// The edge this label arrived through (`None` for sender states).
    pub via_edge: Option<EdgeId>,
    /// The parent state (`None` for sender states).
    pub parent: Option<StateKey>,
}

/// Shared context for label extension.
pub struct ExtendContext<'a> {
    /// The adaptation graph.
    pub graph: &'a AdaptationGraph,
    /// The format registry (bitrate models live on the format specs).
    pub formats: &'a FormatRegistry,
    /// The user's (context-adjusted) satisfaction preferences.
    pub profile: &'a SatisfactionProfile,
    /// The user's total budget (`+∞` when unconstrained).
    pub budget: f64,
    /// Optimizer tuning.
    pub optimizer: OptimizeOptions,
    /// Probation penalties, sorted by [`ServiceId`]: effective-QoS
    /// ratios (PPM, 1_000_000 = unpenalized) that scale a probated
    /// service's satisfaction score. Deprioritizes grey-failing
    /// services in selection without de-advertising them; an empty
    /// slice (the healthy path) leaves every score bit-identical to
    /// the penalty-free algorithm.
    pub penalties: &'a [(ServiceId, u64)],
}

impl ExtendContext<'_> {
    /// Initial labels for the sender: one state per content variant, in
    /// listing order. The sender's configuration is the variant's best
    /// offer; its cost is zero.
    pub fn sender_labels(&self) -> Result<Vec<Label>> {
        let mut labels = Vec::new();
        self.sender_labels_into(&mut labels)?;
        Ok(labels)
    }

    /// Allocation-free form of
    /// [`sender_labels`](ExtendContext::sender_labels): clears `labels`
    /// and fills it (empty when the graph has no sender).
    pub fn sender_labels_into(&self, labels: &mut Vec<Label>) -> Result<()> {
        labels.clear();
        let Some(sender) = self.graph.sender() else {
            return Ok(());
        };
        for conversion in &self.graph.vertex(sender)?.conversions {
            labels.push(Label {
                state: StateKey {
                    vertex: sender,
                    output_format: conversion.output,
                },
                // The master content is the reference: downstream labels
                // are capped by the variant's *parameters* (and by their
                // own scores), so scoring the master here would only
                // matter through the monotonicity clamp — where it would
                // wrongly zero kind-changing chains (a video master has
                // no text axes to score).
                satisfaction: 1.0,
                params: conversion.output_domain.top(),
                accumulated_cost: 0.0,
                via_edge: None,
                parent: None,
            });
        }
        Ok(())
    }

    /// Extend `parent` across `edge`: evaluate every conversion of the
    /// target vertex that accepts the edge's format, and return the best
    /// candidate label per output format (Step 2 / Step 8 of Figure 4).
    ///
    /// An empty result means the target cannot be used from this parent:
    /// no conversion matches, the upstream quality is below everything
    /// the target can produce, or no configuration fits the bandwidth and
    /// budget constraints.
    pub fn extend(&self, parent: &Label, edge_id: EdgeId) -> Result<Vec<Label>> {
        let mut best = Vec::new();
        self.extend_into(parent, edge_id, &mut best)?;
        Ok(best)
    }

    /// [`extend`](ExtendContext::extend) into a caller's buffer: clears
    /// `best` and fills it with the best candidate label per output
    /// format of the target, allocating nothing for one-axis domains. The
    /// greedy hot path passes one reusable scratch buffer for every edge
    /// expansion instead of allocating a fresh `Vec` per edge, and one
    /// reusable domain as well (`extend_into_reusing`).
    pub fn extend_into(
        &self,
        parent: &Label,
        edge_id: EdgeId,
        best: &mut Vec<Label>,
    ) -> Result<()> {
        self.extend_into_reusing(parent, edge_id, best, &mut DomainVector::new())
    }

    /// [`extend_into`](ExtendContext::extend_into) that writes each
    /// candidate's capped output domain into `domain`, whose storage a
    /// caller keeping it across calls reuses: multi-axis domains then
    /// cost no allocation per extension.
    pub(crate) fn extend_into_reusing(
        &self,
        parent: &Label,
        edge_id: EdgeId,
        best: &mut Vec<Label>,
        domain: &mut DomainVector,
    ) -> Result<()> {
        best.clear();
        let edge = self.graph.edge(edge_id)?;
        debug_assert_eq!(edge.format, parent.state.output_format);
        let target = self.graph.vertex(edge.to)?;
        let edge_bitrate = &self.formats.spec(edge.format)?.bitrate;
        let remaining_budget = self.budget - parent.accumulated_cost;
        if remaining_budget < -1e-12 {
            return Ok(());
        }
        for conversion in target.conversions_from(edge.format) {
            match target.kind {
                // The receiver renders what arrives: its feasible
                // "output" is anything up to the delivered quality,
                // capped by its hardware (device profile).
                VertexKind::Receiver => {
                    domain.set_downward_closure(&parent.params.meet(self.graph.receiver_caps()))
                }
                _ => {
                    if !conversion
                        .output_domain
                        .capped_by_into(&parent.params, domain)
                    {
                        continue; // upstream already below this service's floor
                    }
                }
            }

            let price_per_second = target.price_per_second + edge.price_flat;
            let price_per_mbit = target.price_per_mbit + edge.price_per_mbit;
            let cost = move |p: &ParamVector| {
                let rate = edge_bitrate.bits_per_second(p);
                price_per_second + price_per_mbit * rate / 1e6
            };
            let problem = Problem {
                profile: self.profile,
                domain,
                bitrate: edge_bitrate,
                bandwidth_limit: edge.available_bps,
                cost: &cost,
                budget: remaining_budget,
            };
            let optimum = match optimize(&problem, &self.optimizer) {
                Some(o) => o,
                None => continue, // infeasible under Equa. 2 / budget
            };

            // Probation penalty: a probated service's score shrinks by
            // its observed effective-QoS ratio, so selection routes
            // around grey failures whenever an alternative chain
            // exists — but can still use the probated service when it
            // is the only path (soft demotion, not exclusion).
            let mut scored = optimum.satisfaction;
            if !self.penalties.is_empty() {
                if let VertexKind::Transcoder(id) = target.kind {
                    if let Ok(slot) = self.penalties.binary_search_by_key(&id, |&(s, _)| s) {
                        scored *= self.penalties[slot].1 as f64 / 1e6;
                    }
                }
            }
            // Quality monotonicity: a trans-coding service can only
            // reduce the quality (Section 4.4).
            let satisfaction = scored.min(parent.satisfaction);
            let candidate = Label {
                state: StateKey {
                    vertex: edge.to,
                    output_format: conversion.output,
                },
                params: optimum.params,
                satisfaction,
                accumulated_cost: parent.accumulated_cost + optimum.cost,
                via_edge: Some(edge_id),
                parent: Some(parent.state),
            };
            match best
                .iter_mut()
                .find(|l| l.state.output_format == conversion.output)
            {
                Some(existing) => {
                    if candidate.satisfaction > existing.satisfaction
                        || (candidate.satisfaction == existing.satisfaction
                            && candidate.accumulated_cost < existing.accumulated_cost)
                    {
                        *existing = candidate;
                    }
                }
                None => best.push(candidate),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build::build;
    use crate::graph::BuildInput;
    use qosc_media::Axis;
    use qosc_media::{AxisDomain, ContentVariant, FormatSpec, MediaKind};
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};
    use qosc_satisfaction::SatisfactionProfile;
    use qosc_services::{ServiceRegistry, TranscoderDescriptor};

    /// sender --A--> T --B--> receiver, frame-rate axis, linear bitrates.
    struct Fixture {
        formats: FormatRegistry,
        graph: AdaptationGraph,
        profile: SatisfactionProfile,
    }

    fn fixture(t_cap: f64, last_link_bps: f64) -> Fixture {
        let mut formats = FormatRegistry::new();
        let linear = qosc_media::BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let fa = formats.register(FormatSpec::new("A", MediaKind::Video, linear));
        let fb = formats.register(FormatSpec::new("B", MediaKind::Video, linear));

        let mut topo = Topology::new();
        let s = topo.add_node(Node::unconstrained("s"));
        let m = topo.add_node(Node::unconstrained("m"));
        let r = topo.add_node(Node::unconstrained("r"));
        topo.connect_simple(s, m, 1e9).unwrap();
        topo.connect_simple(m, r, last_link_bps).unwrap();
        let network = Network::new(topo);

        let mut services = ServiceRegistry::new();
        let spec = ServiceSpec::new(
            "T",
            vec![ConversionSpec::new(
                "A",
                "B",
                DomainVector::new().with(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 0.0,
                        max: t_cap,
                    },
                ),
            )],
        );
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, m).unwrap());

        let variants = vec![ContentVariant::new(
            fa,
            DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 0.0,
                    max: 30.0,
                },
            ),
        )];
        let graph = build(&BuildInput {
            formats: &formats,
            services: &services,
            network: &network,
            variants: &variants,
            sender_host: s,
            receiver_host: r,
            decoders: &[fb],
            receiver_caps: ParamVector::new(),
        })
        .unwrap();

        Fixture {
            formats,
            graph,
            profile: SatisfactionProfile::paper_table1(),
        }
    }

    fn ctx(f: &Fixture) -> ExtendContext<'_> {
        ExtendContext {
            graph: &f.graph,
            formats: &f.formats,
            profile: &f.profile,
            budget: f64::INFINITY,
            optimizer: OptimizeOptions::default(),
            penalties: &[],
        }
    }

    #[test]
    fn sender_labels_use_variant_tops() {
        let f = fixture(30.0, 1e9);
        let labels = ctx(&f).sender_labels().unwrap();
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].params.get(Axis::FrameRate), Some(30.0));
        assert_eq!(labels[0].satisfaction, 1.0);
        assert_eq!(labels[0].accumulated_cost, 0.0);
    }

    #[test]
    fn extend_caps_by_service_domain() {
        let f = fixture(23.0, 1e9);
        let context = ctx(&f);
        let sender_label = &context.sender_labels().unwrap()[0];
        let e = f.graph.out_edges(f.graph.sender().unwrap())[0];
        let labels = context.extend(sender_label, e).unwrap();
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].params.get(Axis::FrameRate), Some(23.0));
        assert!((labels[0].satisfaction - 23.0 / 30.0).abs() < 1e-12);
        assert_eq!(labels[0].parent, Some(sender_label.state));
    }

    #[test]
    fn extend_to_receiver_respects_last_edge_bandwidth() {
        // 18 kbit/s on the last link caps the receiver at 18 fps even
        // though the service delivered 30.
        let f = fixture(30.0, 18_000.0);
        let context = ctx(&f);
        let sender_label = &context.sender_labels().unwrap()[0];
        let e_in = f.graph.out_edges(f.graph.sender().unwrap())[0];
        let t_label = context.extend(sender_label, e_in).unwrap().remove(0);
        assert_eq!(t_label.params.get(Axis::FrameRate), Some(30.0));

        let t_vertex = t_label.state.vertex;
        let e_out = f.graph.out_edges(t_vertex)[0];
        let r_labels = context.extend(&t_label, e_out).unwrap();
        assert_eq!(r_labels.len(), 1);
        let fps = r_labels[0].params.get(Axis::FrameRate).unwrap();
        assert!((fps - 18.0).abs() < 1e-4, "got {fps}");
        assert!((r_labels[0].satisfaction - 0.6).abs() < 1e-4);
    }

    #[test]
    fn receiver_hardware_caps_apply() {
        let mut f = fixture(30.0, 1e9);
        f.graph
            .set_receiver_caps(ParamVector::from_pairs([(Axis::FrameRate, 12.0)]));
        let context = ctx(&f);
        let sender_label = &context.sender_labels().unwrap()[0];
        let e_in = f.graph.out_edges(f.graph.sender().unwrap())[0];
        let t_label = context.extend(sender_label, e_in).unwrap().remove(0);
        let e_out = f.graph.out_edges(t_label.state.vertex)[0];
        let r_label = context.extend(&t_label, e_out).unwrap().remove(0);
        assert_eq!(r_label.params.get(Axis::FrameRate), Some(12.0));
    }

    #[test]
    fn budget_exhaustion_prunes_extension() {
        let f = fixture(30.0, 1e9);
        let mut context = ctx(&f);
        context.budget = 0.0;
        // Free services and links: still extendable at zero cost.
        let sender_label = &context.sender_labels().unwrap()[0];
        let e = f.graph.out_edges(f.graph.sender().unwrap())[0];
        assert_eq!(context.extend(sender_label, e).unwrap().len(), 1);

        // A parent that already overspent cannot extend.
        let broke = Label {
            accumulated_cost: 5.0,
            ..*sender_label
        };
        assert!(context.extend(&broke, e).unwrap().is_empty());
    }

    #[test]
    fn satisfaction_clamped_to_parent() {
        let f = fixture(30.0, 1e9);
        let context = ctx(&f);
        let sender_label = &context.sender_labels().unwrap()[0];
        let mut degraded = *sender_label;
        degraded.satisfaction = 0.5;
        let e = f.graph.out_edges(f.graph.sender().unwrap())[0];
        let labels = context.extend(&degraded, e).unwrap();
        assert_eq!(labels[0].satisfaction, 0.5, "clamped to parent");
    }
}
