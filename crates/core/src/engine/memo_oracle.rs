//! White-box tests of [`ComposeMemo`] for what no run shows. That every
//! answer equals a fresh compose is the whole-run memo-off property of
//! `tests/session_policy_matrix.rs`; but a natural run never collides
//! two requests' hashes and never composes an error at a stamp it
//! composes again, so the `==` confirmation and the Ok-only rule are
//! pinned here.

use super::{ComposeMemo, CompositionRequest, DegradationRung, MemoEntry};
use crate::composer::Composer;
use crate::plan::AdaptationPlan;
use crate::select::SelectOptions;
use qosc_media::FormatRegistry;
use qosc_netsim::{Network, Node, Topology};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};

/// server —100M— proxy —1M— client, the full catalog on the proxy, and
/// two viewers who compose differently: the demo user and Table 1's.
struct World {
    formats: FormatRegistry,
    services: ServiceRegistry,
    network: Network,
    requests: [CompositionRequest; 2],
}

impl World {
    fn new() -> World {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let [server, proxy, client] =
            ["server", "proxy", "client"].map(|name| topo.add_node(Node::unconstrained(name)));
        topo.connect_simple(server, proxy, 100e6)
            .expect("valid link");
        topo.connect_simple(proxy, client, 1e6).expect("valid link");
        let mut services = ServiceRegistry::new();
        for spec in catalog::full_catalog() {
            let descriptor =
                TranscoderDescriptor::resolve(&spec, &formats, proxy).expect("resolves");
            services.register_static(descriptor);
        }
        let request = |user| CompositionRequest {
            profiles: ProfileSet {
                user,
                content: ContentProfile::demo_video("clip"),
                device: DeviceProfile::demo_pda(),
                context: ContextProfile::default(),
                network: NetworkProfile::broadband(),
            },
            sender_host: server,
            receiver_host: client,
        };
        World {
            formats,
            services,
            network: Network::new(topo),
            requests: [
                request(UserProfile::demo("demo")),
                request(UserProfile::paper_table1()),
            ],
        }
    }

    fn composer(&self) -> Composer<'_> {
        Composer {
            formats: &self.formats,
            services: &self.services,
            network: &self.network,
        }
    }
}

/// The plan `memo` answers for `request` at the full rung.
fn plan(
    memo: &ComposeMemo,
    composer: &Composer<'_>,
    request: &CompositionRequest,
) -> Option<AdaptationPlan> {
    let key = ComposeMemo::key(request);
    memo.compose(composer, request, key, DegradationRung::Full)
        .expect("the world composes")
        .plan
}

/// The map key is only a hash: an entry forged under another request's
/// key — right rung, current stamp — must not be returned for it.
#[test]
fn a_forged_entry_under_another_requests_key_is_never_returned() {
    let world = World::new();
    let composer = world.composer();
    let [demo, table1] = &world.requests;
    let rung = DegradationRung::Full;
    let memo = ComposeMemo::new(&SelectOptions::default());
    let (demo_key, table1_key) = (ComposeMemo::key(demo), ComposeMemo::key(table1));
    assert_ne!(demo_key, table1_key);
    let demo_plan = plan(&memo, &composer, demo);
    let table1_plan = plan(
        &ComposeMemo::new(&SelectOptions::default()),
        &composer,
        table1,
    );
    assert_ne!(
        demo_plan, table1_plan,
        "the two requests compose differently"
    );

    let forged = {
        let entries = memo.entries.read();
        let entry = &entries[&(demo_key, rung)];
        MemoEntry {
            request: entry.request.clone(),
            stamp: entry.stamp,
            composed: entry.composed.clone(),
        }
    };
    memo.entries.write().insert((table1_key, rung), forged);
    assert_eq!(plan(&memo, &composer, table1), table1_plan);
    assert!(
        memo.entries.read()[&(table1_key, rung)].request == *table1,
        "the fresh answer replaced the forgery"
    );
}

/// Errors are not stored: every attempt recomposes, so the retry loop
/// sees what it would see without the memo.
#[test]
fn only_successful_compositions_are_stored() {
    let world = World::new();
    let composer = world.composer();
    let mut undecodable = world.requests[0].clone();
    undecodable.profiles.device.decoders = vec!["no-such-format".to_string()];
    let memo = ComposeMemo::new(&SelectOptions::default());
    let key = ComposeMemo::key(&undecodable);
    for _ in 0..2 {
        assert!(memo
            .compose(&composer, &undecodable, key, DegradationRung::Full)
            .is_err());
    }
    assert!(memo.entries.read().is_empty());
}
