//! The composition facade.
//!
//! [`Composer`] is the front door of the framework: give it the profile
//! set of a request (user, content, device, context, network), the
//! scenario's format registry, service registry and network, and it runs
//! the full pipeline of the paper — resolve profiles → build the
//! adaptation graph (4.2–4.3) → run the QoS selection algorithm (4.4) →
//! return an executable plan.

use crate::compose_memo::Class;
use crate::graph::{build, AdaptationGraph, GraphStore};
use crate::plan::AdaptationPlan;
use crate::select::{SelectOptions, SelectionOutcome};
use crate::Result;
use qosc_media::FormatRegistry;
use qosc_netsim::{Network, NodeId};
use qosc_profiles::ProfileSet;
use qosc_services::ServiceRegistry;
use std::sync::Arc;

/// The composition facade.
pub struct Composer<'a> {
    /// The scenario's format registry.
    pub formats: &'a FormatRegistry,
    /// The live service registry.
    pub services: &'a ServiceRegistry,
    /// The network.
    pub network: &'a Network,
}

/// The outcome of one composition request.
#[derive(Debug)]
pub struct Composition {
    /// The constructed adaptation graph.
    pub graph: AdaptationGraph,
    /// The raw selection outcome, including the Table-1 trace.
    pub selection: SelectionOutcome,
    /// The executable plan (when selection succeeded).
    pub plan: Option<AdaptationPlan>,
}

/// The outcome of one composition request served through a
/// [`GraphStore`]: the graph is shared rather than owned, so hot-path
/// callers skip the per-request graph construction entirely.
#[derive(Debug)]
pub struct StoredComposition {
    /// The (possibly shared) adaptation graph the selection ran on.
    pub graph: Arc<AdaptationGraph>,
    /// The raw selection outcome, including the Table-1 trace.
    pub selection: SelectionOutcome,
    /// The executable plan (when selection succeeded).
    pub plan: Option<AdaptationPlan>,
}

impl Composer<'_> {
    /// Compose an adaptation chain for one request.
    ///
    /// `sender_host` / `receiver_host` locate the endpoints in the
    /// network. The user's satisfaction profile is adjusted by the
    /// context profile before optimization, and the budget comes from
    /// the user profile (Figure 4, Step 1).
    pub fn compose(
        &self,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
    ) -> Result<Composition> {
        let class = Class::of(self.formats, profiles, sender_host, receiver_host, options)?;
        let graph = build::build(&class.build_input(self))?;
        let (selection, plan) = class.select(self, &graph)?;
        Ok(Composition {
            graph,
            selection,
            plan,
        })
    }

    /// [`Composer::compose`], but sourcing the adaptation graph from a
    /// [`GraphStore`]: the stored graph is reused while the registry
    /// epoch and network version hold still, and rebuilt when either
    /// moved. Selection sees exactly the graph a fresh build would
    /// produce, so plans, traces and tie-breaks are bitwise identical
    /// to [`Composer::compose`].
    pub fn compose_with_store(
        &self,
        store: &GraphStore,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
    ) -> Result<StoredComposition> {
        Class::of(self.formats, profiles, sender_host, receiver_host, options)?.compose(self, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{Axis, AxisDomain, DomainVector, VariantSpec};
    use qosc_netsim::{Node, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, HardwareCaps, NetworkProfile, UserProfile,
    };
    use qosc_services::{catalog, TranscoderDescriptor};

    /// End-to-end: a PDA requests an MPEG-2 video through a proxy running
    /// the realistic catalog.
    #[test]
    fn composes_mpeg2_to_h263_for_pda() {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let server = topo.add_node(Node::unconstrained("content-server"));
        let proxy = topo.add_node(Node::unconstrained("proxy"));
        let pda = topo.add_node(Node::unconstrained("pda"));
        topo.connect_simple(server, proxy, 100e6).unwrap();
        topo.connect_simple(proxy, pda, 500e3).unwrap();
        let network = Network::new(topo);

        let mut services = qosc_services::ServiceRegistry::new();
        for spec in catalog::full_catalog() {
            services
                .register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
        }

        let profiles = ProfileSet {
            user: UserProfile::demo("alice"),
            content: ContentProfile::demo_video("news"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::cellular(),
        };

        let composer = Composer {
            formats: &formats,
            services: &services,
            network: &network,
        };
        let composition = composer
            .compose(&profiles, server, pda, &SelectOptions::default())
            .unwrap();

        let plan = composition.plan.expect("chain exists via mpeg2-to-h263");
        let names: Vec<&str> = plan.steps.iter().map(|s| &*s.name).collect();
        assert_eq!(names.first().copied(), Some("sender"));
        assert_eq!(names.last().copied(), Some("receiver"));
        assert!(
            names.contains(&"mpeg2-to-h263"),
            "expected the H.263 down-coder on the chain, got {names:?}"
        );
        assert!(plan.predicted_satisfaction > 0.0);
        // The PDA's 500 kbit/s last hop must be respected.
        assert!(plan.steps.last().unwrap().input_bps <= 500e3);
        assert!(!composition.selection.trace.rows.is_empty());
    }

    #[test]
    fn impossible_request_terminates_failure() {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let server = topo.add_node(Node::unconstrained("server"));
        let client = topo.add_node(Node::unconstrained("client"));
        topo.connect_simple(server, client, 1e6).unwrap();
        let network = Network::new(topo);
        let services = qosc_services::ServiceRegistry::new(); // no services at all

        // Device decodes only AMR audio; content is MPEG-2 video.
        let device = DeviceProfile::new(
            "odd-device",
            vec!["audio/amr".to_string()],
            HardwareCaps::pda(),
        );
        let profiles = ProfileSet {
            user: UserProfile::demo("bob"),
            content: ContentProfile::demo_video("news"),
            device,
            context: ContextProfile::default(),
            network: NetworkProfile::cellular(),
        };
        let composer = Composer {
            formats: &formats,
            services: &services,
            network: &network,
        };
        let composition = composer
            .compose(&profiles, server, client, &SelectOptions::default())
            .unwrap();
        assert!(composition.plan.is_none());
        assert!(composition.selection.failure.is_some());
    }

    #[test]
    fn context_adjustment_flows_through() {
        // Pure smoke: a noisy context must not break composition.
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let a = topo.add_node(Node::unconstrained("a"));
        let b = topo.add_node(Node::unconstrained("b"));
        topo.connect_simple(a, b, 10e6).unwrap();
        let network = Network::new(topo);
        let mut services = qosc_services::ServiceRegistry::new();
        for spec in catalog::full_catalog() {
            services.register_static(TranscoderDescriptor::resolve(&spec, &formats, a).unwrap());
        }
        let content = ContentProfile::new(
            "page",
            vec![VariantSpec {
                format: "text/html".to_string(),
                offered: DomainVector::new().with(
                    Axis::Fidelity,
                    AxisDomain::Continuous {
                        min: 5.0,
                        max: 100.0,
                    },
                ),
            }],
        );
        let device = DeviceProfile::new(
            "wap-phone",
            vec!["text/wml".to_string()],
            HardwareCaps::pda(),
        );
        let mut user = UserProfile::demo("carol");
        user.satisfaction = qosc_satisfaction::SatisfactionProfile::new().with(
            qosc_satisfaction::AxisPreference::new(
                Axis::Fidelity,
                qosc_satisfaction::SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 60.0,
                },
            ),
        );
        let profiles = ProfileSet {
            user,
            content,
            device,
            context: ContextProfile::noisy_commute(),
            network: NetworkProfile::cellular(),
        };
        let composer = Composer {
            formats: &formats,
            services: &services,
            network: &network,
        };
        let composition = composer
            .compose(&profiles, a, b, &SelectOptions::default())
            .unwrap();
        let plan = composition.plan.expect("html-to-wml reaches the phone");
        assert!(plan.steps.iter().any(|s| &*s.name == "html-to-wml"));
    }
}
