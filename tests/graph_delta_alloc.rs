//! Allocation and sharing gates for the graph store's delta path.
//!
//! A registry write that quarantines one service and releases another
//! is the write `compose_hot` makes every twentieth request. The store
//! replays it onto the graph it holds, in place when no caller still
//! holds that graph: the delta then allocates a fixed count — its
//! bookkeeping, never a copy of the graph — and the count is the same
//! on the X15 mesh and on a mesh four times its size. A caller that
//! does hold the graph keeps it unchanged (copy-on-write).
//!
//! Debug builds check every delta against a fresh build inside the
//! store; that build's allocations are measured on their own at the
//! same world state and taken off, so the gate counts the delta alone
//! under both profiles.
//!
//! One test per concern, each on its own thread: the counter is per
//! thread. The counting allocator is the one of `tests/broker_alloc.rs`.

use qosc_core::graph::build::build;
use qosc_core::{graphs_equivalent, AdaptationGraph, BuildInput, GraphStore};
use qosc_media::{ContentVariant, FormatId};
use qosc_netsim::SimTime;
use qosc_services::{QuarantineConfig, ServiceId};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// What one replayed quarantine-plus-release write allocates, exactly:
/// the event tail, the changed-service list and the unwire and rewire
/// lists; the compaction's two flag vectors and two renumbering tables;
/// the rewired-vertex list and flags; the per-delta host-table index
/// and output-format buffer; and the `Arc` the new graph is shared by.
const DELTA_ALLOCATIONS: u64 = 13;

/// The X15 mesh of the `compose_hot` benchmark workload, with
/// `services_per_layer` services per layer and one-strike quarantine.
fn mesh(services_per_layer: usize) -> Scenario {
    let config = GeneratorConfig {
        layers: 5,
        services_per_layer,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };
    let mut scenario = random_scenario(&config, 7);
    scenario.services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 1,
        cooldown_us: 1_000_000,
    });
    scenario
}

/// The scenario's profiles, resolved once.
struct Resolved {
    variants: Vec<ContentVariant>,
    decoders: Vec<FormatId>,
}

impl Resolved {
    fn of(scenario: &Scenario) -> Resolved {
        let profiles = &scenario.profiles;
        Resolved {
            variants: profiles
                .content
                .resolve(&scenario.formats)
                .expect("resolves"),
            decoders: profiles
                .device
                .resolve_decoders(&scenario.formats)
                .expect("resolves"),
        }
    }

    fn input<'a>(&'a self, scenario: &'a Scenario) -> BuildInput<'a> {
        BuildInput {
            formats: &scenario.formats,
            services: &scenario.services,
            network: &scenario.network,
            variants: &self.variants,
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
            decoders: &self.decoders,
            receiver_caps: scenario.profiles.device.hardware.quality_caps(),
        }
    }
}

/// `compose_hot`'s write: release every quarantine that has cooled
/// down, then quarantine `victim`. Time moves 2 s per write, past the
/// 1 s cooldown.
fn rotate(scenario: &mut Scenario, victim: ServiceId, write: u64) {
    let now = SimTime(1_000 + write * 2_000_000);
    scenario.services.release_quarantines(now);
    assert!(scenario
        .services
        .report_failure(victim, now)
        .expect("live service"));
}

/// Services of the scenario, in registration order.
fn services(scenario: &Scenario) -> Vec<ServiceId> {
    scenario
        .services
        .live_services()
        .map(|(id, _)| id)
        .collect()
}

/// A store holding the scenario's graph after three writes. Their
/// deltas load the annotation table of every host into the store: the
/// first write quarantines only (an unwire alone), and the first
/// rewire, in the second, skips its own vertex's host.
fn warmed_store(scenario: &mut Scenario, resolved: &Resolved, ids: &[ServiceId]) -> GraphStore {
    let store = GraphStore::new();
    drop(store.graph_for(&resolved.input(scenario)).expect("builds"));
    for (write, &victim) in ids[..3].iter().enumerate() {
        rotate(scenario, victim, write as u64);
        drop(store.graph_for(&resolved.input(scenario)).expect("delta"));
    }
    store
}

/// Allocations of one quarantine-plus-release delta on a graph only the
/// store holds, the debug-build check's fresh build taken off.
fn delta_allocations(services_per_layer: usize) -> u64 {
    let mut scenario = mesh(services_per_layer);
    let resolved = Resolved::of(&scenario);
    let ids = services(&scenario);
    let store = warmed_store(&mut scenario, &resolved, &ids);
    rotate(&mut scenario, ids[3], 3);
    let input = resolved.input(&scenario);
    let before = store.stats();
    let mut graph = None;
    let total = allocations_in(|| graph = Some(store.graph_for(&input).expect("delta")));
    let after = store.stats();
    assert_eq!(
        (
            after.deltas - before.deltas,
            after.delta_ops - before.delta_ops
        ),
        (1, 2),
        "one delta of two ops: an unwire and a rewire"
    );
    let fresh = build(&input).expect("builds");
    assert!(graphs_equivalent(&graph.expect("fetched"), &fresh));
    let check = if cfg!(debug_assertions) {
        allocations_in(|| drop(build(&input).expect("builds")))
    } else {
        0
    };
    total - check
}

#[test]
fn an_unshared_delta_allocates_a_fixed_count_at_any_mesh_size() {
    let x15 = delta_allocations(12);
    let larger = delta_allocations(48);
    assert_eq!(
        (x15, larger),
        (DELTA_ALLOCATIONS, DELTA_ALLOCATIONS),
        "X15 mesh and a mesh four times larger"
    );
}

/// A caller holding the graph across a write keeps the graph of the
/// old world; the store's new graph is the new world's. The delta then
/// edits a copy, and pays for it.
#[test]
fn a_held_graph_survives_the_write_unchanged() {
    let mut scenario = mesh(12);
    let resolved = Resolved::of(&scenario);
    let ids = services(&scenario);
    let store = warmed_store(&mut scenario, &resolved, &ids);

    let held: Arc<AdaptationGraph> = store.graph_for(&resolved.input(&scenario)).expect("reuse");
    let old_world = build(&resolved.input(&scenario)).expect("builds");
    assert!(graphs_equivalent(&held, &old_world));

    rotate(&mut scenario, ids[3], 3);
    let input = resolved.input(&scenario);
    let mut updated = None;
    let shared = allocations_in(|| updated = Some(store.graph_for(&input).expect("delta")));
    let updated = updated.expect("fetched");
    let new_world = build(&input).expect("builds");
    assert!(!Arc::ptr_eq(&held, &updated));
    assert!(graphs_equivalent(&held, &old_world), "the held graph moved");
    assert!(graphs_equivalent(&updated, &new_world));
    assert!(
        !graphs_equivalent(&old_world, &new_world),
        "the write changed the graph"
    );
    let check = if cfg!(debug_assertions) {
        allocations_in(|| drop(build(&input).expect("builds")))
    } else {
        0
    };
    // The copy allocates at least a name per vertex.
    assert!(
        shared - check >= DELTA_ALLOCATIONS + held.vertex_count() as u64,
        "a shared graph is copied before the edit: {} allocations",
        shared - check
    );

    // The next write finds the store the only holder again.
    drop(updated);
    rotate(&mut scenario, ids[4], 4);
    let input = resolved.input(&scenario);
    let total = allocations_in(|| drop(store.graph_for(&input).expect("delta")));
    let check = if cfg!(debug_assertions) {
        allocations_in(|| drop(build(&input).expect("builds")))
    } else {
        0
    };
    assert_eq!(total - check, DELTA_ALLOCATIONS);
}
