//! Allocation gate for the bandwidth broker's dense kernel and the
//! brokered delivery memo in front of it: on a warmed broker, the
//! operations a session's life consists of — departure, arrival, re-pin,
//! rebalance, grant and bottleneck lookups — allocate nothing, and neither
//! does a `ChaosWorld` delivery sample that only refreshes after a grant
//! move. The caller's `FlowSpec` (and its `hops` vector) is built outside
//! the counted region and moved in. Session ids at both ends of the `u64`
//! range cost what any other id costs.
//!
//! The counter is per thread, so the tests of this binary can run side by
//! side.

use qosc_broker::{BandwidthBroker, Bottleneck, FlowSpec, SharingPolicy};
use qosc_core::{AdaptationPlan, SelectOptions, SessionWorld};
use qosc_media::FormatRegistry;
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::routing::min_delay_route;
use qosc_netsim::{Network, Node, Topology};
use qosc_pipeline::ChaosWorld;
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_services::{catalog, DiscoveryConfig, TranscoderDescriptor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some((allocations, bytes))` while this thread is counting;
    /// const-initialised and without a destructor, so touching it never
    /// allocates.
    static ALLOCATIONS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct Counting;

fn count_one(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get().map(|(n, b)| (n + 1, b + bytes as u64))));
}

// SAFETY: defers every request to `System` unchanged; the counter is a
// plain thread-local `Cell` that never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (fresh, zeroed or resized) `work` performs on this
/// thread, and the bytes they asked for.
fn allocations_and_bytes_in(work: impl FnOnce()) -> (u64, u64) {
    ALLOCATIONS.with(|n| n.set(Some((0, 0))));
    work();
    ALLOCATIONS.with(|n| n.replace(None)).expect("counting")
}

fn allocations_in(work: impl FnOnce()) -> u64 {
    allocations_and_bytes_in(work).0
}

const FLOWS: u64 = 1_000;

/// The X19 shape: a k = 4 fat-tree, one sender, receivers in the other three
/// pods, so every flow crosses the sender's access link and then fans out.
fn fat_tree_flows() -> (Vec<(qosc_netsim::LinkId, bool, u64)>, Vec<FlowSpec>) {
    let (topo, hosts, _cores) = fat_tree(
        4,
        LinkTemplate::fixed(1.1e9, 500),
        LinkTemplate::fixed(4.4e9, 1_000),
        19,
    );
    let capacities = topo
        .link_ids()
        .flat_map(|link| [true, false].map(|forward| (link, forward)))
        .map(|(link, forward)| {
            let bps = topo.link(link).expect("listed link").capacity_bps;
            (link, forward, bps as u64)
        })
        .collect();
    let receivers = &hosts[4..];
    let flows = (0..FLOWS)
        .map(|session| {
            let to = receivers[session as usize % receivers.len()];
            let route = min_delay_route(&topo, hosts[0], to).expect("fat-trees are connected");
            let required = 600_000 + 150_000 * (session % 5);
            FlowSpec {
                session,
                min_bps: required / 4,
                max_bps: required * 2,
                weight: [4, 2, 1][session as usize % 3],
                hops: route.directed_hops(&topo).expect("routed on this topology"),
            }
        })
        .collect();
    (capacities, flows)
}

/// A broker holding the X19 flows, warmed: the first departure creates the
/// free list.
fn warmed_broker(
    policy: SharingPolicy,
    capacities: &[(qosc_netsim::LinkId, bool, u64)],
    flows: &[FlowSpec],
) -> BandwidthBroker {
    let mut broker = BandwidthBroker::new(policy);
    for &(link, forward, bps) in capacities {
        broker.set_capacity(link, forward, bps);
    }
    for flow in flows {
        broker.register(flow.clone());
    }
    assert_eq!(broker.flow_count(), FLOWS as usize);
    assert!(broker.deregister(0));
    broker.register(flows[0].clone());
    broker
}

#[test]
fn steady_state_broker_operations_do_not_allocate() {
    let (capacities, flows) = fat_tree_flows();
    for policy in [SharingPolicy::WeightedMaxMin, SharingPolicy::Fcfs] {
        let mut broker = warmed_broker(policy, &capacities, &flows);
        assert!(
            flows
                .iter()
                .any(|f| broker.grant(f.session) < Some(f.max_bps)),
            "{policy:?}: the access link must be contended, or no round runs"
        );

        // Specs are the caller's: cloned before counting starts.
        let mut comeback: Vec<FlowSpec> = flows.iter().step_by(7).cloned().collect();
        let mut repins: Vec<FlowSpec> = flows.iter().step_by(11).cloned().collect();
        let epoch = broker.epoch();
        let mut granted = 0u64;
        let mut on_a_link = 0;
        let allocations = allocations_in(|| {
            while let Some(flow) = comeback.pop() {
                assert!(broker.deregister(flow.session));
                broker.register(flow);
            }
            while let Some(flow) = repins.pop() {
                broker.register(flow);
            }
            for &(link, forward, bps) in &capacities {
                broker.set_capacity(link, forward, bps - bps / 8);
            }
            broker.rebalance();
            assert!(!broker.deregister(FLOWS + 1));
            for session in 0..=FLOWS {
                granted += broker.grant(session).unwrap_or(0);
                if let Some(Bottleneck::Link { .. }) = broker.bottleneck(session) {
                    on_a_link += 1;
                }
            }
        });
        assert!(broker.epoch() > epoch, "{policy:?}: the cycles reallocated");
        assert_eq!(broker.flow_count(), FLOWS as usize);
        assert!(granted > 0 && on_a_link > 0, "{policy:?}: lookups answered");
        assert_eq!(
            allocations, 0,
            "{policy:?}: steady-state broker operations allocated"
        );
    }
}

/// server —100M— proxy —10M— client, the full transcoder catalog on the
/// proxy, weighted max-min sharing; and the plan the demo request composes
/// to there.
fn brokered_world(formats: &FormatRegistry) -> (ChaosWorld<'_>, AdaptationPlan) {
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let client = topo.add_node(Node::unconstrained("client"));
    topo.connect_simple(server, proxy, 100e6)
        .expect("server link");
    topo.connect_simple(proxy, client, 10e6).expect("last hop");
    let mut world = ChaosWorld::new(formats, Network::new(topo), DiscoveryConfig::default());
    for spec in catalog::full_catalog() {
        world.join(TranscoderDescriptor::resolve(&spec, formats, proxy).expect("catalog resolves"));
    }
    world.set_sharing(Some(SharingPolicy::WeightedMaxMin));
    let profiles = ProfileSet {
        user: UserProfile::demo("user-0"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    };
    let plan = world
        .composer()
        .compose(&profiles, server, client, &SelectOptions::default())
        .expect("the demo request composes")
        .plan
        .expect("a chain exists");
    (world, plan)
}

/// Each flow asks for 1–2 Mbps, so eight of them contend for the 10 Mbps
/// last hop and a ninth moves every grant.
const DEMAND_BPS: u64 = 1_000_000;

#[test]
fn a_delivery_refresh_after_a_grant_move_does_not_allocate() {
    const SESSIONS: u64 = 8;
    let formats = FormatRegistry::with_builtins();
    let (mut world, plan) = brokered_world(&formats);
    for session in 0..SESSIONS {
        world.register_session_flow(session, &plan, DEMAND_BPS, 2);
    }
    let before: Vec<u64> = (0..SESSIONS)
        .map(|session| world.session_delivery_ppm(session, 0, &plan, DEMAND_BPS))
        .collect();
    let grant = world.broker().and_then(|b| b.grant(0));
    world.register_session_flow(SESSIONS, &plan, DEMAND_BPS, 2);
    assert_ne!(
        world.broker().and_then(|b| b.grant(0)),
        grant,
        "grants moved"
    );

    let stats = world.delivery_cache_stats();
    let mut after = Vec::with_capacity(SESSIONS as usize);
    let allocations = allocations_in(|| {
        for session in 0..SESSIONS {
            after.push(world.session_delivery_ppm(session, 0, &plan, DEMAND_BPS));
        }
    });
    let refreshed = world.delivery_cache_stats();
    assert_eq!(refreshed.refreshes - stats.refreshes, SESSIONS);
    assert_eq!(
        (refreshed.hits, refreshed.misses),
        (stats.hits, stats.misses)
    );
    assert!(
        after.iter().zip(&before).all(|(a, b)| a < b),
        "{before:?} -> {after:?}"
    );
    assert_eq!(allocations, 0, "a grant-only refresh allocated");
}

/// Ids at the bottom and the top of the `u64` range: no panic, and no
/// allocation that grows with the id.
#[test]
fn hostile_session_ids_cost_what_any_id_costs() {
    const HOSTILE: [u64; 3] = [0, u64::MAX - 1, u64::MAX];

    // The broker: arrivals and departures of the hostile ids, in the slots
    // of three departed flows of a warmed broker, allocate nothing at all.
    let (capacities, flows) = fat_tree_flows();
    let mut broker = warmed_broker(SharingPolicy::WeightedMaxMin, &capacities, &flows);
    let mut arrivals: Vec<FlowSpec> = HOSTILE
        .iter()
        .zip(&flows)
        .map(|(&session, flow)| {
            assert!(broker.deregister(flow.session));
            FlowSpec {
                session,
                ..flow.clone()
            }
        })
        .collect();
    let allocations = allocations_in(|| {
        for flow in arrivals.drain(..) {
            broker.register(flow);
        }
        for &session in &HOSTILE {
            assert!(broker.grant(session).is_some_and(|g| g > 0));
            assert!(broker.bottleneck(session).is_some());
            assert!(broker.deregister(session));
            assert_eq!(broker.grant(session), None);
        }
    });
    assert_eq!(allocations, 0, "hostile ids allocated in the broker");

    // The world: one arrival, sample and departure costs the same
    // allocations and bytes for a hostile id as for an ordinary one.
    let formats = FormatRegistry::with_builtins();
    let (mut world, plan) = brokered_world(&formats);
    let mut cycle = |session: u64| {
        allocations_and_bytes_in(|| {
            world.register_session_flow(session, &plan, DEMAND_BPS, 2);
            assert!(world.session_delivery_ppm(session, 0, &plan, DEMAND_BPS) > 0);
            world.deregister_session_flow(session);
        })
    };
    cycle(5);
    let ordinary = cycle(7);
    for session in HOSTILE {
        assert_eq!(cycle(session), ordinary, "session {session}");
    }
}
