//! Property: a [`GraphStore`] kept across arbitrary seeded registry
//! churn — quarantines, breaker releases, deregistrations and
//! re-registrations — always hands out a graph structurally identical
//! to a fresh `graph::build()`, and compositions through the store are
//! bitwise equal (chain, trace, plan) to store-free compositions.
//!
//! The store is created once per case and kept across the whole op
//! sequence, so each write's epoch or network-version move must turn
//! the next fetch into a rebuild, and the fetch after it into a reuse of that rebuild:
//! every op is followed by two checks. A graph a caller holds across a
//! write must stay the old world's graph.

use proptest::prelude::*;
use qosc_core::{graphs_equivalent, AdaptationGraph, GraphStore, SelectOptions};
use qosc_netsim::{LinkId, SimTime};
use qosc_services::{QuarantineConfig, ServiceId, TranscoderDescriptor};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;
use std::sync::Arc;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        2usize..=3, // layers
        2usize..=4, // services per layer
        2usize..=3, // formats per layer
        1usize..=2, // conversions per service
        proptest::bool::ANY,
    )
        .prop_map(|(layers, spl, fpl, cps, multi_axis)| GeneratorConfig {
            layers,
            services_per_layer: spl,
            formats_per_layer: fpl,
            conversions_per_service: cps,
            multi_axis,
            ..GeneratorConfig::default()
        })
}

/// One churn operation against the scenario's registry; the `u8`
/// payload picks the target service (mod the initial population).
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    /// `report_failure` with a threshold-1 breaker: quarantines at once.
    Quarantine(u8),
    /// `release_quarantines` far enough in the future to reopen all.
    Release,
    /// Permanent `deregister`.
    Deregister(u8),
    /// Re-register a clone of one of the original descriptors.
    Reinstate(u8),
    /// `report_success` — resets the failure streak, records no event:
    /// the epoch stays and the store must reuse.
    Success(u8),
    /// Fail one link, or restore it if it is down: the network version
    /// moves and routes change, the registry does not.
    LinkFlip(u8),
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    (0u8..6, 0u8..=255).prop_map(|(kind, pick)| match kind {
        0 => ChurnOp::Quarantine(pick),
        1 => ChurnOp::Release,
        2 => ChurnOp::Deregister(pick),
        3 => ChurnOp::Reinstate(pick),
        4 => ChurnOp::Success(pick),
        _ => ChurnOp::LinkFlip(pick),
    })
}

/// A stored graph and the fresh build of the same world.
type Fetched = Option<(Arc<AdaptationGraph>, AdaptationGraph)>;

/// Compose the scenario with and without the store and require bitwise
/// agreement. `Debug` for `f64` renders the shortest round-trip
/// representation, so string equality here is bit equality.
fn check_equivalence(scenario: &Scenario, store: &GraphStore, options: &SelectOptions) -> Fetched {
    let fresh = scenario.compose(options);
    let stored = scenario.composer().compose_with_store(
        store,
        &scenario.profiles,
        scenario.sender_host,
        scenario.receiver_host,
        options,
    );
    match (fresh, stored) {
        (Ok(fresh), Ok(stored)) => {
            prop_assert!(
                graphs_equivalent(&fresh.graph, &stored.graph),
                "stored graph diverged from fresh build"
            );
            prop_assert_eq!(
                format!("{:?}", fresh.selection.chain),
                format!("{:?}", stored.selection.chain)
            );
            prop_assert_eq!(
                format!("{:?}", fresh.selection.trace.rows),
                format!("{:?}", stored.selection.trace.rows)
            );
            prop_assert_eq!(format!("{:?}", fresh.plan), format!("{:?}", stored.plan));
            Some((stored.graph, fresh.graph))
        }
        (fresh, stored) => {
            prop_assert_eq!(format!("{:?}", fresh.err()), format!("{:?}", stored.err()));
            None
        }
    }
}

fn run_churn(mut scenario: Scenario, store: &GraphStore, ops: &[ChurnOp]) {
    scenario.services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 1,
        cooldown_us: 1_000_000,
    });
    let initial: Vec<(ServiceId, TranscoderDescriptor)> = scenario
        .services
        .live_services()
        .map(|(id, descriptor)| (id, descriptor.clone()))
        .collect();
    let options = SelectOptions {
        record_trace: true,
        ..SelectOptions::default()
    };
    let mut now_us: u64 = 1_000;
    let mut down = std::collections::HashSet::new();

    // Initial build through the store.
    let mut held = check_equivalence(&scenario, store, &options);

    for &op in ops {
        now_us += 1_000;
        let pick = |payload: u8| initial[payload as usize % initial.len()].0;
        match op {
            ChurnOp::Quarantine(payload) => {
                let _ = scenario
                    .services
                    .report_failure(pick(payload), SimTime(now_us));
            }
            ChurnOp::Release => {
                // Jump past every possible cooldown so the release is
                // not a no-op (no-ops are legal, just less interesting).
                now_us += 2_000_000;
                scenario.services.release_quarantines(SimTime(now_us));
            }
            ChurnOp::Deregister(payload) => {
                let _ = scenario.services.deregister(pick(payload));
            }
            ChurnOp::Reinstate(payload) => {
                let descriptor = initial[payload as usize % initial.len()].1.clone();
                scenario
                    .services
                    .register(descriptor, SimTime(now_us), 3_600_000_000);
            }
            ChurnOp::Success(payload) => {
                let _ = scenario.services.report_success(pick(payload));
            }
            ChurnOp::LinkFlip(payload) => {
                let links: Vec<LinkId> = scenario.network.topology().link_ids().collect();
                let link = links[payload as usize % links.len()];
                if !down.insert(link) {
                    down.remove(&link);
                    scenario.network.restore_link(link);
                } else {
                    scenario.network.fail_link(link).expect("known link");
                }
            }
        }
        // The first check rebuilds at the new epoch; the second must
        // reuse that graph untouched.
        let rebuilt = check_equivalence(&scenario, store, &options);
        let reused = check_equivalence(&scenario, store, &options);
        if let (Some((rebuilt, _)), Some((reused, _))) = (&rebuilt, &reused) {
            assert!(Arc::ptr_eq(rebuilt, reused), "same world, same graph");
        }
        // The graph held across the write is still the old world's.
        if let Some((graph, old_world)) = held {
            assert!(
                graphs_equivalent(&graph, &old_world),
                "the held graph moved"
            );
        }
        held = reused;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Graphs the store keeps across arbitrary churn match fresh builds,
    /// and every write's fetch is a rebuild, every repeat a reuse.
    #[test]
    fn delta_maintained_graph_matches_fresh_build(
        (config, seed) in (arb_config(), 0u64..1_000),
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let scenario = random_scenario(&config, seed);
        let store = GraphStore::new();
        run_churn(scenario, &store, &ops);
        let stats = store.stats();
        // A write that records an event or moves the network rebuilds;
        // one that changes neither (a success report, a no-op release
        // or a failed op) reuses. Either way the repeat fetch reuses.
        prop_assert!(stats.rebuilds >= 1);
        prop_assert!(stats.rebuilds as usize <= 1 + ops.len());
        prop_assert!(stats.reuses as usize >= ops.len());
        prop_assert_eq!(
            (stats.rebuilds + stats.reuses) as usize,
            1 + 2 * ops.len()
        );
        prop_assert_eq!((stats.deltas, stats.delta_ops), (0, 0));
    }
}
