//! White-box tests of [`ComposeMemo`] and [`intern`] for what no run
//! shows. That every answer equals a fresh compose is the whole-run
//! memo-off property of `tests/session_policy_matrix.rs`; but a natural
//! run never collides two requests' hashes, rarely serves two distinct
//! requests from one memo, and never composes an error at a stamp it
//! composes again, so the ids' exactness, the slot per (id, rung) and
//! the Ok-only rule are pinned here.

use super::{intern, request_hash, ComposeMemo, CompositionRequest, DegradationRung};
use crate::composer::Composer;
use crate::select::SelectOptions;
use proptest::{run_cases, ProptestConfig};
use qosc_media::{FormatRegistry, MediaKind};
use qosc_netsim::{Network, Node, NodeId, Topology};
use qosc_profiles::{
    AdaptationPolicy, ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet,
    UserProfile,
};
use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};
use rand::RngExt;

/// server —100M— proxy —1M— client, the full catalog on the proxy, and
/// two viewers who compose differently: the demo user and Table 1's.
struct World {
    formats: FormatRegistry,
    services: ServiceRegistry,
    network: Network,
    proxy: NodeId,
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
            proxy,
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

/// The demo request and near-duplicates of it, each differing in one
/// field — the two hosts among them — plus one twin that differs only
/// in the sign of a zero, which `==` (and so interning) treats as equal.
fn near_duplicates(world: &World) -> Vec<CompositionRequest> {
    let base = world.requests[0].clone();
    let proxy = world.proxy;
    let variant = |change: &dyn Fn(&mut CompositionRequest)| {
        let mut request = base.clone();
        change(&mut request);
        request
    };
    vec![
        base.clone(),
        variant(&|r| r.sender_host = proxy),
        variant(&|r| r.receiver_host = proxy),
        variant(&|r| std::mem::swap(&mut r.sender_host, &mut r.receiver_host)),
        variant(&|r| r.profiles.user.name.push('2')),
        variant(&|r| r.profiles.user.satisfaction.use_weighted_combination()),
        variant(&|r| r.profiles.user.budget = Some(1.0)),
        variant(&|r| {
            r.profiles.user.policy = AdaptationPolicy {
                degrade_first: vec![MediaKind::Audio],
            }
        }),
        variant(&|r| r.profiles.content = ContentProfile::demo_video("clip2")),
        variant(&|r| r.profiles.device.decoders.push("video/h261".to_string())),
        variant(&|r| r.profiles.device.hardware.cpu_mips += 1.0),
        variant(&|r| r.profiles.context.mobile = !r.profiles.context.mobile),
        variant(&|r| r.profiles.context.ambient_noise += 0.25),
        variant(&|r| r.profiles.network.delay_us += 1),
        variant(&|r| r.profiles.network.downlink_bps *= 2.0),
        // Equal under `==`, not bitwise: 0.0 and -0.0.
        variant(&|r| r.profiles.context.ambient_noise = -r.profiles.context.ambient_noise),
    ]
}

/// Ids are equal exactly when requests are `==`, and number the distinct
/// requests densely in order of first appearance — whatever the bucket
/// hash, down to one that sends every request to the same bucket, so
/// only `==` tells them apart.
#[test]
fn interned_ids_are_equal_exactly_when_requests_are() {
    let world = World::new();
    let pool = near_duplicates(&world);
    assert_eq!(world.requests[0].profiles.context.ambient_noise, 0.0);
    for (i, a) in pool.iter().enumerate() {
        for (j, b) in pool.iter().enumerate().skip(i + 1) {
            let twins = i == 0 && j == pool.len() - 1;
            assert_eq!(a == b, twins, "pool members {i} and {j}");
        }
    }
    let config = ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    };
    run_cases(config, "intern_exact", |rng| {
        // Runs of one member exercise the previous-request shortcut;
        // returns to an earlier member exercise the buckets.
        let mut sequence: Vec<&CompositionRequest> = Vec::new();
        for _ in 0..rng.random_range(0..=12usize) {
            let member = &pool[rng.random_range(0..pool.len())];
            for _ in 0..rng.random_range(1..=3usize) {
                sequence.push(member);
            }
        }
        let hashes: [&dyn Fn(&CompositionRequest) -> u64; 2] = [&request_hash, &|_| 7];
        for hash in hashes {
            let (ids, distinct) = intern(sequence.iter().copied(), hash);
            assert_eq!(ids.len(), sequence.len());
            let mut next = 0;
            for (k, request) in sequence.iter().enumerate() {
                let first = sequence.iter().position(|r| r == request).expect("present");
                if first == k {
                    assert_eq!(ids[k], next, "a new request takes the next id");
                    next += 1;
                } else {
                    assert_eq!(ids[k], ids[first], "an equal request takes its id");
                }
            }
            assert_eq!(distinct, next as usize);
        }
    });
}

/// Two requests at every rung in one memo: each (id, rung) answers its
/// own composition, both fresh and from the memo.
#[test]
fn every_request_and_rung_has_its_own_slot() {
    let world = World::new();
    let composer = world.composer();
    let options = SelectOptions::default();
    let plan = |memo: &ComposeMemo, id: u32, rung| {
        memo.compose(&composer, &world.requests[id as usize], id, rung)
            .expect("the world composes")
            .plan
    };
    let fresh = |id: u32, rung| plan(&ComposeMemo::new(&options, 2), id, rung);
    assert_ne!(
        fresh(0, DegradationRung::Full),
        fresh(1, DegradationRung::Full),
        "the two requests compose differently"
    );
    let memo = ComposeMemo::new(&options, 2);
    for _ in 0..2 {
        for id in [0, 1] {
            for rung in DegradationRung::LADDER {
                assert_eq!(plan(&memo, id, rung), fresh(id, rung), "id {id} at {rung}");
            }
        }
    }
    assert!(memo.entries.read().iter().all(Option::is_some));
}

/// Errors are not stored: every attempt recomposes, so the retry loop
/// sees what it would see without the memo.
#[test]
fn only_successful_compositions_are_stored() {
    let world = World::new();
    let composer = world.composer();
    let mut undecodable = world.requests[0].clone();
    undecodable.profiles.device.decoders = vec!["no-such-format".to_string()];
    let memo = ComposeMemo::new(&SelectOptions::default(), 1);
    for _ in 0..2 {
        assert!(memo
            .compose(&composer, &undecodable, 0, DegradationRung::Full)
            .is_err());
    }
    assert!(memo.entries.read().iter().all(Option::is_none));
}
