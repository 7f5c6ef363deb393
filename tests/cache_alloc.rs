//! Allocation gate for the composition cache's probe: a request that
//! hits — even after the registry epoch moved, so that the registry
//! half of the revalidation runs and the entry is re-stamped —
//! allocates exactly what cloning the cached plan allocates. The key is
//! hashed straight out of the profile set (no JSON text, no value
//! tree), and with the network version unchanged no hop is re-routed
//! (no `Route`). A stale probe whose class the compose memo already
//! answered at this world stamp allocates the one plan it returns: the
//! entry names its class, so nothing is resolved, and there is no
//! graph, no selection and no copy of the dead entry's plan. The stale
//! probe that composes after a registry write — the graph store
//! replays the write onto its graph in place, then selection runs —
//! stays under [`WRITE_FOLLOWING_BOUND`] allocations.
//!
//! One test only, on one thread: the counter is per thread. The
//! counting allocator is the one of `tests/broker_alloc.rs`.

use qosc_core::graph::build::build;
use qosc_core::{BuildInput, SelectOptions, ShardedCompositionCache};
use qosc_netsim::SimTime;
use qosc_services::QuarantineConfig;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
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

/// Allocations of the stale probe that composes after a registry write,
/// the debug-build graph check taken off.
const WRITE_FOLLOWING_BOUND: u64 = 60;

#[test]
fn a_hit_allocates_only_the_plan_it_returns() {
    // The X15 mesh of the `compose_hot` benchmark workload.
    let config = GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };
    let mut scenario = random_scenario(&config, 7);
    scenario.services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 1,
        cooldown_us: 1_000_000,
    });
    let cache = ShardedCompositionCache::new(1);
    let options = SelectOptions::default();
    let probe_as = |scenario: &qosc_workload::Scenario, profiles: &qosc_profiles::ProfileSet| {
        cache
            .compose(
                &scenario.composer(),
                profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("compose")
    };
    let probe = |scenario: &qosc_workload::Scenario| {
        probe_as(scenario, &scenario.profiles).expect("the mesh solves")
    };
    let first = probe(&scenario);
    let plan_cost = allocations_in(|| {
        std::hint::black_box(first.clone());
    });
    assert!(plan_cost > first.steps.len() as u64);

    // Same stamps: a lookup and a clone.
    let mut hit = None;
    let allocations = allocations_in(|| hit = Some(probe(&scenario)));
    assert_eq!(hit.as_ref(), Some(&first));
    assert_eq!(allocations, plan_cost, "same-stamp hit");

    // Quarantine a service the chain does not use: the epoch moves, the
    // registry half runs and passes, the entry is re-stamped.
    let bystander = scenario
        .services
        .live_services()
        .map(|(id, _)| id)
        .find(|id| first.steps.iter().all(|s| s.service != Some(*id)))
        .expect("the mesh has services off the chain");
    let epoch = scenario.services.epoch();
    assert!(scenario
        .services
        .report_failure(bystander, SimTime(10))
        .unwrap());
    assert_ne!(scenario.services.epoch(), epoch);
    let allocations = allocations_in(|| hit = Some(probe(&scenario)));
    assert_eq!(hit.as_ref(), Some(&first));
    assert_eq!(allocations, plan_cost, "hit after the registry epoch moved");

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.stale), (2, 1, 0));

    // A second user of the same class, cached too; then a failure on
    // the chain both entries hold makes both stale.
    let mut twin = scenario.profiles.clone();
    twin.user.name.push_str("-twin");
    assert_eq!(probe_as(&scenario, &twin).as_ref(), Some(&first));
    let on_chain = first
        .steps
        .iter()
        .find_map(|s| s.service)
        .expect("a transcoder");
    assert!(scenario
        .services
        .report_failure(on_chain, SimTime(20))
        .unwrap());
    // The first stale probe of the class composes, over the graph the
    // store edits in place…
    let mut composed = None;
    let allocations = allocations_in(|| composed = Some(probe(&scenario)));
    let replacement = composed.expect("probed");
    assert_ne!(replacement, first);
    let graph_check = if cfg!(debug_assertions) {
        let profiles = &scenario.profiles;
        let variants = profiles
            .content
            .resolve(&scenario.formats)
            .expect("resolves");
        let decoders = profiles
            .device
            .resolve_decoders(&scenario.formats)
            .expect("resolves");
        let input = BuildInput {
            formats: &scenario.formats,
            services: &scenario.services,
            network: &scenario.network,
            variants: &variants,
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
            decoders: &decoders,
            receiver_caps: profiles.device.hardware.quality_caps(),
        };
        allocations_in(|| drop(build(&input).expect("builds")))
    } else {
        0
    };
    assert!(
        allocations - graph_check <= WRITE_FOLLOWING_BOUND,
        "write-following stale probe: {} allocations",
        allocations - graph_check
    );
    let plan_cost = allocations_in(|| {
        std::hint::black_box(replacement.clone());
    });
    // …and the second is answered by the memo.
    let mut stale = None;
    let allocations = allocations_in(|| stale = Some(probe_as(&scenario, &twin)));
    assert_eq!(stale, Some(Some(replacement)));
    assert_eq!(allocations, plan_cost, "memo-answered stale probe");

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.stale), (2, 2, 2));
}
