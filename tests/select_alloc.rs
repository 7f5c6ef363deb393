//! Allocation gate for the Figure-4 kernel: on a thread whose scratch
//! arena is warm, a selection run with `record_trace: false` allocates
//! only the chain it returns. In particular the per-request state table
//! (the `(vertex, advertised output)` → slot index) is rebuilt into
//! buffers the arena keeps, and `Optimize()` — `SatisfactionProfile::score`
//! per candidate point, under the scenario's own profile — allocates
//! nothing: on the scale scenario, where all but one of its calls take
//! the fast path (the domain's top is feasible), and on the two meshes
//! whose links bind, where a sixth to a fifth of them run the grid and
//! the per-axis refinement.
//!
//! One thread per test: the counter and the arena are both per thread,
//! so each test warms its own arena. The counting allocator is the one
//! of `tests/broker_alloc.rs`.

use qosc_bench::scorecard::strict_scenario;
use qosc_core::{select_chain, AdaptationGraph, GraphStore, SelectOptions, SelectedChain};
use qosc_media::{Axis, FormatRegistry};
use qosc_satisfaction::SatisfactionProfile;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
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

/// Select on `graph` twice and hold the second, warm run — more than
/// `work.0` rounds and `work.1` `Optimize()` calls — to the allocations
/// of the chain it returns. Returns that chain.
fn warm_selection_allocates_only_its_chain(
    graph: &AdaptationGraph,
    formats: &FormatRegistry,
    profile: &SatisfactionProfile,
    budget: f64,
    work: (usize, usize),
) -> SelectedChain {
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let select = || select_chain(graph, formats, profile, budget, &options).expect("selection");

    let warm_up = select();
    let mut second = None;
    let allocations = allocations_in(|| second = Some(select()));
    let second = second.expect("ran");
    assert_eq!(second.chain, warm_up.chain);
    assert!(
        second.rounds > work.0 && second.optimizations > work.1,
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
    chain
}

/// Whether the frame rate `chain` delivers is what one of `graph`'s
/// links carries at 1 000 bit per frame: the constrained branch of
/// `Optimize()` found that boundary.
fn bound_by_a_link(graph: &AdaptationGraph, chain: &SelectedChain) -> bool {
    let delivered = chain.steps.last().expect("a chain has steps").params;
    let rate = 1_000.0 * delivered.get(Axis::FrameRate).expect("video");
    graph.edge_ids().any(|id| {
        let link = graph.edge(id).expect("own id").available_bps;
        (rate - link).abs() <= 1e-6 * link
    })
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
    let work = (20, 100);
    warm_selection_allocates_only_its_chain(&graph, &scenario.formats, &profile, budget, work);
}

#[test]
fn a_bandwidth_bound_mesh_selection_allocates_only_the_chain_it_returns() {
    // The mesh `compose_hot` serves: 5 layers of 12 services over 3
    // formats, caps of 10–30 fps behind links of 15–60 kbit/s.
    let config = GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };
    let scenario = random_scenario(&config, 7);
    let graph = scenario
        .compose(&SelectOptions::default())
        .expect("compose")
        .graph;
    let profile = scenario.profiles.effective_satisfaction();
    let budget = scenario.profiles.user.budget_or_infinite();
    let work = (10, 40);
    let chain =
        warm_selection_allocates_only_its_chain(&graph, &scenario.formats, &profile, budget, work);
    assert!(bound_by_a_link(&graph, &chain), "no link binds {chain:?}");
}

#[test]
fn a_strict_two_axis_mesh_selection_allocates_only_the_chain_it_returns() {
    // The mesh `sessions_chaos` opens its sessions on: frame rate ×
    // pixel count, the rate set by the frames alone, under the strict
    // user of X16 (a 12 fps floor, weights 3 : 1).
    let scenario = strict_scenario();
    let graph = scenario
        .compose(&SelectOptions::default())
        .expect("compose")
        .graph;
    let profile = scenario.profiles.effective_satisfaction();
    let budget = scenario.profiles.user.budget_or_infinite();
    let work = (3, 15);
    let chain =
        warm_selection_allocates_only_its_chain(&graph, &scenario.formats, &profile, budget, work);
    assert!(bound_by_a_link(&graph, &chain), "no link binds {chain:?}");
}
