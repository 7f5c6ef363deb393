//! Executable adaptation plans.
//!
//! A plan is the output of the composer: the selected chain rendered as a
//! sequence of concrete stages (which service, on which node, converting
//! what to what, at which configuration) that the streaming pipeline in
//! `qosc-pipeline` can execute.

use crate::graph::{AdaptationGraph, VertexKind};
use crate::select::SelectedChain;
use crate::Result;
use qosc_media::{FormatId, FormatRegistry, ParamVector};
use qosc_netsim::NodeId;
use qosc_services::ServiceId;
use std::sync::Arc;

/// One stage of an adaptation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Display name of the stage (`"sender"`, `"T7"`, `"receiver"`),
    /// shared by every copy of the plan.
    pub name: Arc<str>,
    /// Registry id of the service (`None` for the endpoints).
    pub service: Option<ServiceId>,
    /// Node the stage runs on.
    pub host: NodeId,
    /// Format the stage emits.
    pub output_format: FormatId,
    /// Configured output parameters.
    pub params: ParamVector,
    /// Bits per second the stage's output requires (its format's bitrate
    /// model evaluated at `params`).
    pub output_bps: f64,
    /// Bits per second crossing the hop *into* this stage: the upstream
    /// stage's output format evaluated at this stage's configuration
    /// (Equa. 2 constrains the edge into a service by the service's own
    /// chosen parameters). Zero for the sender.
    pub input_bps: f64,
    /// Satisfaction label at this stage.
    pub satisfaction: f64,
    /// Accumulated cost up to and including this stage.
    pub accumulated_cost: f64,
}

/// The executable plan for one composition.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationPlan {
    /// Stages from sender to receiver.
    pub steps: Vec<PlanStep>,
    /// Predicted end-to-end user satisfaction.
    pub predicted_satisfaction: f64,
    /// Total predicted cost per second of streaming.
    pub total_cost: f64,
}

impl AdaptationPlan {
    /// Materialize a plan from a selected chain.
    pub fn from_chain(
        graph: &AdaptationGraph,
        formats: &FormatRegistry,
        chain: &SelectedChain,
    ) -> Result<AdaptationPlan> {
        let mut steps = Vec::with_capacity(chain.steps.len());
        for (i, step) in chain.steps.iter().enumerate() {
            let vertex = graph.vertex(step.vertex)?;
            let service = match vertex.kind {
                VertexKind::Transcoder(id) => Some(id),
                _ => None,
            };
            let output_bps = formats
                .spec(step.output_format)?
                .bitrate
                .bits_per_second(&step.params);
            let input_bps = match i {
                0 => 0.0,
                _ => formats
                    .spec(chain.steps[i - 1].output_format)?
                    .bitrate
                    .bits_per_second(&step.params),
            };
            steps.push(PlanStep {
                name: Arc::from(step.name.as_str()),
                service,
                host: vertex.host,
                output_format: step.output_format,
                params: step.params,
                output_bps,
                input_bps,
                satisfaction: step.satisfaction,
                accumulated_cost: step.accumulated_cost,
            });
        }
        Ok(AdaptationPlan {
            predicted_satisfaction: chain.satisfaction,
            total_cost: chain.total_cost,
            steps,
        })
    }

    /// Number of trans-coding stages (excludes sender and receiver).
    pub fn transcoder_count(&self) -> usize {
        self.steps.iter().filter(|s| s.service.is_some()).count()
    }

    /// Render the plan as a human-readable multi-line summary.
    pub fn describe(&self, formats: &FormatRegistry) -> String {
        let mut out = format!(
            "adaptation plan: {} stage(s), predicted satisfaction {:.3}, cost {:.4}/s\n",
            self.steps.len(),
            self.predicted_satisfaction,
            self.total_cost
        );
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "  {i}. {} → {} {} @ {:.0} bit/s (sat {:.3})\n",
                step.name,
                formats.name(step.output_format),
                step.params,
                step.output_bps,
                step.satisfaction,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build::build;
    use crate::graph::BuildInput;
    use crate::select::{select_chain, SelectOptions};
    use qosc_media::{
        Axis, AxisDomain, BitrateModel, ContentVariant, DomainVector, FormatSpec, MediaKind,
    };
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};
    use qosc_satisfaction::SatisfactionProfile;
    use qosc_services::{ServiceRegistry, TranscoderDescriptor};

    #[test]
    fn plan_reflects_chain() {
        let mut formats = FormatRegistry::new();
        let linear = BitrateModel::LinearOnAxis {
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
        topo.connect_simple(m, r, 1e9).unwrap();
        let network = Network::new(topo);
        let mut services = ServiceRegistry::new();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::Continuous {
                min: 0.0,
                max: 25.0,
            },
        );
        let spec = ServiceSpec::new("T", vec![ConversionSpec::new("A", "B", domain.clone())]);
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, m).unwrap());
        let variants = vec![ContentVariant::new(fa, domain)];
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
        let profile = SatisfactionProfile::paper_table1();
        let chain = select_chain(
            &graph,
            &formats,
            &profile,
            f64::INFINITY,
            &SelectOptions::default(),
        )
        .unwrap()
        .chain
        .unwrap();
        let plan = AdaptationPlan::from_chain(&graph, &formats, &chain).unwrap();
        assert_eq!(plan.steps.len(), 3);
        assert_eq!(plan.transcoder_count(), 1);
        assert!(plan.steps[0].service.is_none());
        assert!(plan.steps[1].service.is_some());
        assert_eq!(plan.steps[1].output_bps, 25_000.0);
        assert_eq!(plan.steps[0].input_bps, 0.0);
        assert_eq!(plan.steps[1].input_bps, 25_000.0);
        assert_eq!(plan.steps[2].input_bps, 25_000.0);
        assert_eq!(plan.predicted_satisfaction, chain.satisfaction);
        let text = plan.describe(&formats);
        assert!(text.contains("T"));
        assert!(text.contains("adaptation plan"));
    }
}
