//! Allocation gate for the bandwidth broker's dense kernel: on a warmed
//! broker, the operations a session's life consists of — departure, arrival,
//! re-pin, rebalance — allocate nothing. The caller's `FlowSpec` (and its
//! `hops` vector) is built outside the counted region and moved in.
//!
//! One test only: the counter is per thread, but keeping the binary to a
//! single test also keeps the harness quiet while it runs.

use qosc_broker::{BandwidthBroker, FlowSpec, SharingPolicy};
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::routing::min_delay_route;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is counting; const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: defers every request to `System` unchanged; the counter is a
// plain thread-local `Cell` that never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (fresh, zeroed or resized) `work` performs on this
/// thread.
fn allocations_in(work: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    work();
    ALLOCATIONS.with(|n| n.replace(None)).expect("counting")
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

#[test]
fn steady_state_broker_operations_do_not_allocate() {
    let (capacities, flows) = fat_tree_flows();
    for policy in [SharingPolicy::WeightedMaxMin, SharingPolicy::Fcfs] {
        let mut broker = BandwidthBroker::new(policy);
        for &(link, forward, bps) in &capacities {
            broker.set_capacity(link, forward, bps);
        }
        for flow in &flows {
            broker.register(flow.clone());
        }
        assert_eq!(broker.flow_count(), FLOWS as usize);
        assert!(
            flows
                .iter()
                .any(|f| broker.grant(f.session) < Some(f.max_bps)),
            "{policy:?}: the access link must be contended, or no round runs"
        );

        // Warm-up: the first departure creates the free list.
        assert!(broker.deregister(0));
        broker.register(flows[0].clone());

        // Specs are the caller's: cloned before counting starts.
        let mut comeback: Vec<FlowSpec> = flows.iter().step_by(7).cloned().collect();
        let mut repins: Vec<FlowSpec> = flows.iter().step_by(11).cloned().collect();
        let epoch = broker.epoch();
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
        });
        assert!(broker.epoch() > epoch, "{policy:?}: the cycles reallocated");
        assert_eq!(broker.flow_count(), FLOWS as usize);
        assert_eq!(
            allocations, 0,
            "{policy:?}: steady-state broker operations allocated"
        );
    }
}
