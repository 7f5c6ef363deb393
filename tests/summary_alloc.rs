//! Allocation gate for the summary level of the two-level composer: on
//! a thread whose scratch is warm, `ShardedComposer::compose_with_store`
//! allocates at most once more than the same compose replayed through
//! its public expansion-level pieces — profile resolution, the scoped
//! graph fetch, Figure-4 selection, plan assembly. The one is the
//! `expanded_shards` vector it returns; scoring the frontier, the
//! max-min relaxation, decoder reachability, the shard bounds and the
//! seed expansion all run in per-thread tables that keep their capacity.
//!
//! One test only, on one thread: the counter and the scratch are both
//! per thread. The counting allocator is the one of
//! `tests/select_alloc.rs`.

use qosc_core::{
    select_chain_with_penalties, AdaptationPlan, BuildInput, GraphScope, GraphStore, SelectOptions,
};
use qosc_workload::scale::{scale_scenario, ScaleConfig};
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

#[test]
fn a_warm_summary_level_allocates_only_the_expanded_shards_it_returns() {
    // 10^3 services over 16 shards: 2 of them expanded, one round.
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
