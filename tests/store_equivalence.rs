//! Property: the lazy-deletion `BinaryHeap` candidate store is an exact
//! drop-in for the reference `LinearScan` — same selection sequence,
//! same trace, same chain — for every tie-break policy, over generated
//! scenarios.

use proptest::prelude::*;
use qosc_core::select::CandidateStore;
use qosc_core::{SelectOptions, TieBreak};
use qosc_workload::generator::{random_scenario, GeneratorConfig};

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        2usize..=3, // layers
        2usize..=5, // services per layer
        2usize..=3, // formats per layer
        1usize..=3, // conversions per service
        10_000f64..=80_000f64,
        proptest::bool::ANY,
    )
        .prop_map(|(layers, spl, fpl, cps, bw, multi_axis)| GeneratorConfig {
            layers,
            services_per_layer: spl,
            formats_per_layer: fpl,
            conversions_per_service: cps,
            bandwidth_range: (bw * 0.5, bw),
            multi_axis,
            ..GeneratorConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// For all generated scenarios and all tie-break policies, both
    /// candidate stores settle the same states in the same order with
    /// the same labels.
    #[test]
    fn heap_and_scan_select_identically((config, seed) in (arb_config(), 0u64..1_000)) {
        let tie_breaks = [TieBreak::PaperOrder, TieBreak::Fifo, TieBreak::ByVertexIndex];
        for tie_break in tie_breaks {
            let scan = random_scenario(&config, seed)
                .compose(&SelectOptions {
                    tie_break,
                    candidate_store: CandidateStore::LinearScan,
                    ..SelectOptions::default()
                })
                .unwrap();
            let heap = random_scenario(&config, seed)
                .compose(&SelectOptions {
                    tie_break,
                    candidate_store: CandidateStore::BinaryHeap,
                    ..SelectOptions::default()
                })
                .unwrap();

            let s = &scan.selection;
            let h = &heap.selection;
            prop_assert_eq!(s.rounds, h.rounds, "rounds under {:?}", tie_break);
            prop_assert_eq!(s.failure.clone(), h.failure.clone(), "failure under {:?}", tie_break);
            // The selection *sequence* — which state settles in which
            // round — is the heart of the equivalence.
            let scan_sequence: Vec<String> = s.trace.rows.iter().map(|r| r.selected).collect();
            let heap_sequence: Vec<String> = h.trace.rows.iter().map(|r| r.selected).collect();
            prop_assert_eq!(scan_sequence, heap_sequence, "selection sequence under {:?}", tie_break);
            // And the full traces agree row-for-row (paths, params,
            // satisfaction, costs — exact float equality).
            prop_assert_eq!(&s.trace, &h.trace, "trace under {:?}", tie_break);
            match (&s.chain, &h.chain) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.names(), b.names(), "chain under {:?}", tie_break);
                    prop_assert_eq!(
                        a.satisfaction.to_bits(),
                        b.satisfaction.to_bits(),
                        "chain satisfaction under {:?}",
                        tie_break
                    );
                }
                (None, None) => {}
                _ => prop_assert!(false, "stores disagree on solvability under {:?}", tie_break),
            }
        }
    }
}
