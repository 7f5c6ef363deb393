//! The selection arena holds one label slot per state the search can
//! label — a `(vertex, output format)` pair the vertex advertises — not
//! one per vertex per registered format. Checked on the scale scenario,
//! whose format registry is the widest in the repository, and then with
//! 10 000 more formats registered that nothing converts to or from.
//!
//! Slot capacity is per thread and only grows, so every measured compose
//! runs on a thread of its own.

use qosc_core::{arena_slots, AdaptationGraph, GraphStore, SelectOptions, SelectionOutcome};
use qosc_media::MediaKind;
use qosc_workload::scale::{scale_scenario, ScaleConfig, ScaleScenario};
use std::sync::Arc;

/// One cold two-level compose on a fresh thread: the scoped graph it
/// selected on, the selection, and the thread's slot capacity after it.
fn compose(scenario: &ScaleScenario) -> (Arc<AdaptationGraph>, SelectionOutcome, usize) {
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let two_level = scenario
                .composer()
                .compose_with_store(
                    &GraphStore::new(),
                    &scenario.profiles,
                    scenario.sender_host,
                    scenario.receiver_host,
                    &SelectOptions::default(),
                )
                .expect("two-level compose");
            assert_eq!(two_level.rounds, 1, "one scoped graph, one selection");
            let composition = two_level.composition;
            (composition.graph, composition.selection, arena_slots())
        });
        worker.join().expect("compose thread")
    })
}

/// Σ over vertices of distinct conversion outputs, counted without the
/// kernel's table.
fn advertised_states(graph: &AdaptationGraph) -> usize {
    graph
        .vertex_ids()
        .map(|id| {
            graph
                .vertex(id)
                .expect("listed vertex")
                .output_formats()
                .len()
        })
        .sum()
}

#[test]
fn slots_follow_advertised_outputs_not_the_format_registry() {
    // How far below `vertices × formats` the slots sit is bounded by the
    // registry's width: 77 slots against 62 × 48 at 10^3 services (39×),
    // 487 against 472 × 117 at 10^4 (113×).
    for (total_services, at_least) in [(1_000, 30), (10_000, 50)] {
        let mut scenario =
            scale_scenario(&ScaleConfig::default().with_total_services(total_services));
        let (graph, selection, slots) = compose(&scenario);
        assert!(selection.chain.is_some(), "the scenario solves");
        assert_eq!(
            slots,
            advertised_states(&graph),
            "{total_services}: one slot per advertised (vertex, output)"
        );
        let dense = graph.vertex_count() * scenario.formats.len();
        assert!(
            slots * at_least <= dense,
            "{total_services}: {slots} slots against {dense} vertex × format pairs"
        );

        // Formats nobody converts to or from cost the arena nothing and
        // change nothing the search reports.
        for unused in 0..10_000 {
            scenario
                .formats
                .register_abstract(format!("unused{unused}"), MediaKind::Video);
        }
        let (wide_graph, wide, wide_slots) = compose(&scenario);
        assert_eq!(wide_slots, slots, "{total_services}: slot count");
        assert_eq!(wide_graph.vertex_count(), graph.vertex_count());
        assert_eq!(wide.chain, selection.chain, "{total_services}: chain");
        assert_eq!(wide.rounds, selection.rounds, "{total_services}: rounds");
        assert_eq!(
            wide.optimizations, selection.optimizations,
            "{total_services}: optimizations"
        );
        assert_eq!(
            wide.trace.rows.to_vec(),
            selection.trace.rows.to_vec(),
            "{total_services}: materialised trace rows"
        );
    }
}
