//! Allocation gates for the two-level composer and the sharded
//! registry under it.
//!
//! * On a thread whose scratch is warm,
//!   `ShardedComposer::compose_with_store` allocates at most once more
//!   than the same compose replayed through its public expansion-level
//!   pieces — profile resolution, the scoped graph fetch, Figure-4
//!   selection, plan assembly. The one is the `expanded_shards` vector
//!   it returns; scoring the frontier, the max-min relaxation, decoder
//!   reachability, the shard bounds and the seed expansion all run in
//!   per-thread tables that keep their capacity.
//! * The shard overlay of a `ShardedServiceRegistry` — shard
//!   assignments, epochs and hull tops — costs at most 16 heap bytes
//!   per service over the flat `ServiceRegistry` it wraps.
//!
//! Both counters are per thread, and each test runs on its own thread.
//! The counting allocator is the one of `tests/select_alloc.rs`,
//! extended here to keep a thread's live heap bytes as well.

use qosc_core::{
    select_chain_with_penalties, AdaptationPlan, BuildInput, GraphScope, GraphStore, SelectOptions,
};
use qosc_services::{ServiceRegistry, ShardedServiceRegistry, TranscoderDescriptor};
use qosc_workload::scale::{scale_scenario, ScaleConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is counting; const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
    /// Heap bytes allocated on this thread minus those freed on it,
    /// wrapping: only differences are read.
    static LIVE_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

fn count_bytes(grown: usize, shrunk: usize) {
    LIVE_BYTES.with(|n| {
        n.set(
            n.get()
                .wrapping_add(grown as u64)
                .wrapping_sub(shrunk as u64),
        )
    });
}

// SAFETY: defers every request to `System` unchanged; the counters are
// plain thread-local `Cell`s that never allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(0, layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size(), 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size, layout.size());
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

/// What `build` returns, with the heap bytes it still holds: the bytes
/// allocated on this thread while building, net of those freed.
fn live_bytes_of<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.with(Cell::get);
    let built = build();
    (built, LIVE_BYTES.with(Cell::get).wrapping_sub(before))
}

#[test]
fn a_warm_summary_level_allocates_only_the_expanded_shards_it_returns() {
    // 10^3 services over 64 shards: 2 of them expanded, one round.
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(1_000));
    let composer = scenario.composer();
    let store = GraphStore::new();
    let options = SelectOptions::default();
    let compose = || {
        composer
            .compose_with_store(
                &store,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("two-level compose")
    };

    // Cold graph build, then a compose that finds everything warm.
    let first = compose();
    compose();
    let mut counted = None;
    let composing = allocations_in(|| counted = Some(compose()));
    let counted = counted.expect("ran");
    assert_eq!(counted.composition.plan, first.composition.plan);
    assert!(counted.composition.plan.is_some(), "the scenario solves");
    assert_eq!(
        (counted.rounds, counted.full_expansion),
        (1, false),
        "one scoped fetch and one selection, so the replay below is the whole expansion level"
    );
    assert!(
        counted.hops_scored > 50 && counted.relaxation_passes >= 2,
        "the summary level did real work: {} hops, {} passes",
        counted.hops_scored,
        counted.relaxation_passes
    );

    // The same compose through the public pieces of the expansion
    // level, in `compose_with_store`'s order, against the same store.
    let mut expanded = vec![false; scenario.services.shard_count() as usize];
    for &shard in &counted.expanded_shards {
        expanded[shard as usize] = true;
    }
    let mut replayed = None;
    let replaying = allocations_in(|| {
        let profiles = &scenario.profiles;
        profiles.validate().expect("valid profiles");
        let variants = profiles
            .content
            .resolve(&scenario.formats)
            .expect("variants");
        let decoders = profiles
            .device
            .resolve_decoders(&scenario.formats)
            .expect("decoders");
        let satisfaction = profiles.effective_satisfaction();
        let input = BuildInput {
            formats: &scenario.formats,
            services: scenario.services.flat(),
            network: &scenario.network,
            variants: &variants,
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
            decoders: &decoders,
            receiver_caps: profiles.device.hardware.quality_caps(),
        };
        let scope = GraphScope::new(&scenario.services, &expanded);
        let graph = store.scoped_graph_for(&input, &scope).expect("graph");
        let selection = select_chain_with_penalties(
            &graph,
            &scenario.formats,
            &satisfaction,
            profiles.user.budget_or_infinite(),
            &options,
            scenario.services.flat().selection_penalties(),
        )
        .expect("selection");
        let chain = selection.chain.as_ref().expect("the scenario solves");
        replayed =
            Some(AdaptationPlan::from_chain(&graph, &scenario.formats, chain).expect("plan"));
    });
    assert_eq!(replayed, counted.composition.plan);

    assert!(
        composing <= replaying + 1,
        "a warm two-level compose allocated {composing} times, its expansion level alone \
         {replaying}: the summary level may add only the expanded_shards it returns"
    );
}

#[test]
fn the_shard_overlay_costs_at_most_16_bytes_per_service() {
    // The 10^4-service scenario over 64 shards, registered twice more:
    // once into a flat registry, once into a sharded one.
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(10_000));
    let descriptors: Vec<TranscoderDescriptor> = scenario
        .services
        .flat()
        .live_services()
        .map(|(_, descriptor)| descriptor.clone())
        .collect();
    let services = descriptors.len() as u64;
    let (flat, flat_bytes) = live_bytes_of(|| {
        let mut flat = ServiceRegistry::new();
        for descriptor in &descriptors {
            flat.register_static(descriptor.clone());
        }
        flat
    });
    let (sharded, sharded_bytes) = live_bytes_of(|| {
        let mut sharded = ShardedServiceRegistry::new(scenario.services.shard_count());
        for descriptor in &descriptors {
            sharded.register_static(descriptor.clone());
        }
        sharded
    });
    assert_eq!(services, 10_000);
    assert_eq!(sharded.flat().epoch(), flat.epoch());
    for shard in 0..sharded.shard_count() {
        assert_eq!(
            sharded.frontier(shard),
            scenario.services.frontier(shard),
            "the same registrations summarise the same"
        );
    }

    let overlay = sharded_bytes - flat_bytes;
    assert!(
        overlay <= 16 * services,
        "the shard overlay holds {overlay} bytes for {services} services ({} B each; \
         the flat registry {} B each): the budget is 16 B each",
        overlay / services,
        flat_bytes / services
    );
}

#[test]
fn the_flat_registry_holds_at_most_260_bytes_per_service() {
    // The 10^5-service scenario `compose_scale` runs, registered once
    // more into a fresh flat registry: the entries, each descriptor's
    // name and conversion list, the format index and the event log.
    // 409 B each while every conversion kept seven domain slots and
    // every entry its probation state inline.
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(100_000));
    let descriptors: Vec<TranscoderDescriptor> = scenario
        .services
        .flat()
        .live_services()
        .map(|(_, descriptor)| descriptor.clone())
        .collect();
    drop(scenario);
    let services = descriptors.len() as u64;
    let (flat, bytes) = live_bytes_of(|| {
        let mut flat = ServiceRegistry::new();
        for descriptor in &descriptors {
            flat.register_static(descriptor.clone());
        }
        flat
    });
    assert_eq!(services, 100_000);
    assert_eq!(flat.live_count() as u64, services);
    let per_service = bytes as f64 / services as f64;
    println!("flat registry: {per_service:.1} heap bytes per service at 10^5");
    assert!(
        per_service <= 260.0,
        "the flat registry holds {per_service:.1} heap bytes per service at 10^5: \
         the budget is 260"
    );
}

#[test]
fn registry_and_label_values_fit_their_size_budgets() {
    use qosc_core::select::{ChainStep, Label};
    use qosc_media::{DomainVector, ParamVector};
    use qosc_services::Conversion;
    use std::mem::size_of;

    // Seven `Option<f64>` slots took 112 B, seven `Option<AxisDomain>`
    // slots 168 B, and the types holding them 176 B and 160 B.
    assert!(
        size_of::<ParamVector>() <= 64,
        "{}",
        size_of::<ParamVector>()
    );
    assert!(
        size_of::<DomainVector>() <= 48,
        "{}",
        size_of::<DomainVector>()
    );
    assert!(size_of::<Conversion>() <= 56, "{}", size_of::<Conversion>());
    assert!(size_of::<Label>() <= 112, "{}", size_of::<Label>());
    assert!(size_of::<ChainStep>() <= 112, "{}", size_of::<ChainStep>());
}
