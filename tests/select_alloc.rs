//! Allocation gate for the Figure-4 kernel: on a thread whose scratch
//! arena is warm, a selection run with `record_trace: false` allocates
//! only the chain it returns. In particular the per-request state table
//! (the `(vertex, advertised output)` → slot index) is rebuilt into
//! buffers the arena keeps, and `Optimize()` — `SatisfactionProfile::score`
//! per candidate point, under the scenario's own profile — allocates
//! nothing.
//!
//! One test only, on one thread: the counter and the arena are both per
//! thread. The counting allocator is the one of `tests/broker_alloc.rs`.

use qosc_core::{select_chain, GraphStore, SelectOptions};
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
fn a_warm_selection_allocates_only_the_chain_it_returns() {
    // The scoped graph of the 10^3 scale scenario: 62 vertices, 77
    // states.
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(1_000));
    let graph = scenario
        .composer()
        .compose_with_store(
            &GraphStore::new(),
            &scenario.profiles,
            scenario.sender_host,
            scenario.receiver_host,
            &SelectOptions::default(),
        )
        .expect("two-level compose")
        .composition
        .graph;
    let profile = scenario.profiles.effective_satisfaction();
    let budget = scenario.profiles.user.budget_or_infinite();
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let select =
        || select_chain(&graph, &scenario.formats, &profile, budget, &options).expect("selection");

    let warm_up = select();
    let mut second = None;
    let allocations = allocations_in(|| second = Some(select()));
    let second = second.expect("ran");
    assert_eq!(second.chain, warm_up.chain);
    assert!(
        second.rounds > 20 && second.optimizations > 100,
        "the search did real work: {} rounds, {} Optimize() calls",
        second.rounds,
        second.optimizations
    );
    assert!(second.trace.rows.is_empty());

    // What the chain itself costs: its steps pushed one by one onto a
    // new `Vec`, the way Step 10 walks them, each with its name cloned.
    let chain = second.chain.expect("the scenario solves");
    let chain_cost = allocations_in(|| {
        let mut steps = Vec::new();
        for step in &chain.steps {
            steps.push(step.clone());
        }
        std::hint::black_box(steps);
    });
    assert!(chain_cost > chain.steps.len() as u64);
    assert_eq!(
        allocations, chain_cost,
        "a warm selection allocated beyond the chain it returned"
    );
}
