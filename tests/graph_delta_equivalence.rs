//! Property: a [`GraphStore`] that survives arbitrary seeded registry
//! churn — quarantines, breaker releases, deregistrations and
//! re-registrations — always hands out a graph structurally identical
//! to a fresh `graph::build()`, and compositions through the store are
//! bitwise equal (chain, trace, plan) to store-free compositions.
//!
//! The store is created once per case and kept across the whole op
//! sequence so `graph_for` really exercises the delta path: each churn
//! op moves the registry epoch and the store must catch the cached
//! graph up in place (or rebuild past the threshold). Every op is
//! followed by two checks so the zero-delta reuse path runs too.

use proptest::prelude::*;
use qosc_core::{graphs_equivalent, GraphStore, SelectOptions};
use qosc_netsim::SimTime;
use qosc_services::{QuarantineConfig, ServiceId, TranscoderDescriptor};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

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
    /// `report_success` — resets the failure streak, no availability
    /// change; the epoch must still move and the store must keep up.
    Success(u8),
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    (0u8..5, 0u8..=255).prop_map(|(kind, pick)| match kind {
        0 => ChurnOp::Quarantine(pick),
        1 => ChurnOp::Release,
        2 => ChurnOp::Deregister(pick),
        3 => ChurnOp::Reinstate(pick),
        _ => ChurnOp::Success(pick),
    })
}

/// Compose the scenario with and without the store and require bitwise
/// agreement. `Debug` for `f64` renders the shortest round-trip
/// representation, so string equality here is bit equality.
fn check_equivalence(scenario: &Scenario, store: &GraphStore, options: &SelectOptions) {
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
                "delta-maintained graph diverged from fresh build"
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
        }
        (fresh, stored) => {
            prop_assert_eq!(format!("{:?}", fresh.err()), format!("{:?}", stored.err()));
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

    // Initial build through the store.
    check_equivalence(&scenario, store, &options);

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
        }
        // First check applies the delta; the second must see zero
        // pending events and reuse the graph untouched.
        check_equivalence(&scenario, store, &options);
        check_equivalence(&scenario, store, &options);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Delta-maintained graphs match fresh builds under arbitrary churn,
    /// with the store's own debug-build verification as a second,
    /// structural witness.
    #[test]
    fn delta_maintained_graph_matches_fresh_build(
        (config, seed) in (arb_config(), 0u64..1_000),
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let scenario = random_scenario(&config, seed);
        let store = GraphStore::new();
        run_churn(scenario, &store, &ops);
        let stats = store.stats();
        prop_assert!(stats.rebuilds >= 1);
        // Every op is followed by two composes: the second sees an
        // unmoved epoch and must be a same-graph reuse, so the test is
        // guaranteed to exercise the reuse path, and the first must be
        // served by delta replay (small per-op tails) or a rebuild.
        prop_assert!(stats.reuses as usize >= ops.len());
        prop_assert_eq!(
            (stats.deltas + stats.rebuilds + stats.reuses) as usize,
            1 + 2 * ops.len()
        );
    }

    /// Same property with a delta threshold of zero, forcing the
    /// rebuild fallback on every mutation: both maintenance strategies
    /// must be externally indistinguishable.
    #[test]
    fn rebuild_fallback_matches_fresh_build(
        (config, seed) in (arb_config(), 0u64..1_000),
        ops in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let scenario = random_scenario(&config, seed);
        let store = GraphStore::new().with_delta_threshold(0);
        run_churn(scenario, &store, &ops);
    }
}
