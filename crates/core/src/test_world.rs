//! The world the crate's serving tests share: server —100M— proxy —1M—
//! client, the full catalog on the proxy, and a quarantine after one
//! reported failure, released a second later.

use crate::composer::Composer;
use crate::stamp::WorldStamp;
use qosc_media::FormatRegistry;
use qosc_netsim::{Network, Node, NodeId, Topology};
use qosc_services::{catalog, QuarantineConfig, ServiceRegistry, TranscoderDescriptor};

pub(crate) struct World {
    pub(crate) formats: FormatRegistry,
    pub(crate) services: ServiceRegistry,
    pub(crate) network: Network,
    pub(crate) server: NodeId,
    pub(crate) proxy: NodeId,
    pub(crate) client: NodeId,
}

impl World {
    pub(crate) fn new() -> World {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let [server, proxy, client] =
            ["server", "proxy", "client"].map(|name| topo.add_node(Node::unconstrained(name)));
        topo.connect_simple(server, proxy, 100e6)
            .expect("valid link");
        topo.connect_simple(proxy, client, 1e6).expect("valid link");
        let mut services = ServiceRegistry::new();
        services.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 1_000_000,
        });
        for spec in catalog::full_catalog() {
            let descriptor =
                TranscoderDescriptor::resolve(&spec, &formats, proxy).expect("resolves");
            services.register_static(descriptor);
        }
        World {
            formats,
            services,
            network: Network::new(topo),
            server,
            proxy,
            client,
        }
    }

    pub(crate) fn composer(&self) -> Composer<'_> {
        Composer {
            formats: &self.formats,
            services: &self.services,
            network: &self.network,
        }
    }

    pub(crate) fn stamp(&self) -> WorldStamp {
        WorldStamp::of(&self.services, &self.network)
    }
}
