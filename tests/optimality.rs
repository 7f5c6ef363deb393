//! E6 integration test: the Figure-5 optimality argument — the greedy
//! selection against the exhaustive optimum — plus
//! pruning-preserves-the-optimum.
//!
//! On single-axis requests the greedy equals the exhaustive optimum on
//! every solvable scenario sampled. On multi-axis requests it does not:
//! `counterexample_counts_per_shape_are_pinned` gates, per generator
//! shape and seed range, exactly how many scenarios the greedy ends
//! below the optimum, and `tiny_multi_axis_seed_63_is_a_counterexample`
//! pins the smallest one found. A rise in any count fails; a drop must
//! be explained before the count is lowered.

use qosc_core::baseline::exhaustive::{exhaustive_optimum, ExhaustiveOptions};
use qosc_core::graph::prune::prune;
use qosc_core::select::label::ExtendContext;
use qosc_core::{select_chain, SelectOptions};
use qosc_satisfaction::OptimizeOptions;
use qosc_workload::generator::{random_scenario, GeneratorConfig};

/// Greedy against exhaustive over a seed range.
struct Sweep {
    /// Scenarios both searches solve.
    solvable: usize,
    /// Seeds where the greedy's satisfaction is below the optimum's.
    below: Vec<u64>,
    /// Largest optimum-minus-greedy satisfaction gap seen.
    max_gap: f64,
}

/// The greedy's and the exhaustive search's satisfaction on `seed`,
/// `None` when neither reaches the receiver. Panics when only one does,
/// or when the greedy beats the "optimum".
fn greedy_and_optimum(config: &GeneratorConfig, seed: u64) -> Option<(f64, f64)> {
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let scenario = random_scenario(config, seed);
    let composition = scenario.compose(&options).unwrap();
    let profile = scenario.profiles.effective_satisfaction();
    let ctx = ExtendContext {
        graph: &composition.graph,
        formats: &scenario.formats,
        profile: &profile,
        budget: scenario.profiles.user.budget_or_infinite(),
        optimizer: OptimizeOptions::default(),
        penalties: &[],
    };
    let exact = exhaustive_optimum(&ctx, ExhaustiveOptions::default()).unwrap();
    match (&composition.selection.chain, &exact) {
        (Some(greedy), Some(exact)) => {
            assert!(
                greedy.satisfaction <= exact.chain.satisfaction + 1e-9,
                "seed {seed}: greedy {} above exhaustive {}",
                greedy.satisfaction,
                exact.chain.satisfaction
            );
            Some((greedy.satisfaction, exact.chain.satisfaction))
        }
        (None, None) => None,
        (g, e) => panic!(
            "seed {seed}: reachability mismatch greedy={} exact={}",
            g.is_some(),
            e.is_some()
        ),
    }
}

fn compare_on(config: &GeneratorConfig, seeds: std::ops::Range<u64>) -> Sweep {
    let mut sweep = Sweep {
        solvable: 0,
        below: Vec::new(),
        max_gap: 0.0,
    };
    for seed in seeds {
        if let Some((greedy, exact)) = greedy_and_optimum(config, seed) {
            sweep.solvable += 1;
            if exact - greedy >= 1e-9 {
                sweep.below.push(seed);
                sweep.max_gap = sweep.max_gap.max(exact - greedy);
            }
        }
    }
    sweep
}

#[test]
fn greedy_equals_exhaustive_tiny() {
    let sweep = compare_on(&GeneratorConfig::tiny(), 0..40);
    assert!(
        sweep.solvable >= 20,
        "want a meaningful sample, got {}",
        sweep.solvable
    );
    assert_eq!(sweep.below, Vec::<u64>::new());
}

#[test]
fn greedy_equals_exhaustive_default() {
    let sweep = compare_on(&GeneratorConfig::default(), 0..25);
    assert!(
        sweep.solvable >= 15,
        "want a meaningful sample, got {}",
        sweep.solvable
    );
    assert_eq!(sweep.below, Vec::<u64>::new());
}

#[test]
fn greedy_equals_exhaustive_with_budget() {
    let config = GeneratorConfig {
        budget: Some(3.0),
        ..GeneratorConfig::tiny()
    };
    assert_eq!(compare_on(&config, 0..30).below, Vec::<u64>::new());
}

/// The multi-axis shape of E6 at 50–200 kb/s.
fn tiny_multi_axis() -> GeneratorConfig {
    GeneratorConfig {
        multi_axis: true,
        bandwidth_range: (50_000.0, 200_000.0),
        ..GeneratorConfig::tiny()
    }
}

/// Seeds 0..15 hold no counterexample; the first is seed 63.
#[test]
fn greedy_equals_exhaustive_multi_axis() {
    assert_eq!(
        compare_on(&tiny_multi_axis(), 0..15).below,
        Vec::<u64>::new()
    );
}

/// The smallest multi-axis counterexample found: six services, eight
/// vertices, seventeen edges. Both searches pick the services S2 then
/// S4, and the greedy's chain through them scores 0.006 8 below the
/// optimum's.
#[test]
fn tiny_multi_axis_seed_63_is_a_counterexample() {
    let (greedy, exact) = greedy_and_optimum(&tiny_multi_axis(), 63).expect("solvable");
    assert!((greedy - 0.697_652_060_914_054_7).abs() < 1e-12, "{greedy}");
    assert!((exact - 0.704_489_118_945_525_7).abs() < 1e-12, "{exact}");
}

/// Greedy-below-exhaustive counts per generator shape, gated exactly
/// for each seed range. Ranges are cut so the whole sweep stays under
/// 5 s in a debug build.
#[test]
fn counterexample_counts_per_shape_are_pinned() {
    let four_by_eight = GeneratorConfig {
        layers: 4,
        services_per_layer: 8,
        ..GeneratorConfig::default()
    };
    // The X15 mesh of `compose_hot` and `tests/cache_memo.rs`.
    let x15 = GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };
    let multi = |config: GeneratorConfig| GeneratorConfig {
        multi_axis: true,
        ..config
    };
    let shapes: [(&str, GeneratorConfig, std::ops::Range<u64>, usize); 8] = [
        (
            "tiny + multi_axis, 50-200 kb/s",
            tiny_multi_axis(),
            0..1_000,
            9,
        ),
        (
            "tiny + multi_axis",
            multi(GeneratorConfig::tiny()),
            0..1_000,
            15,
        ),
        (
            "default + multi_axis",
            multi(GeneratorConfig::default()),
            0..500,
            21,
        ),
        ("default", GeneratorConfig::default(), 0..500, 0),
        ("4x8 + multi_axis", multi(four_by_eight), 0..50, 2),
        (
            "4x8, budget 14, service price 0.2",
            GeneratorConfig {
                budget: Some(14.0),
                service_price: 0.2,
                ..four_by_eight
            },
            0..50,
            0,
        ),
        ("X15 mesh + multi_axis", multi(x15), 0..30, 6),
        ("X15 mesh", x15, 0..30, 0),
    ];
    let mut found = Vec::new();
    let mut report = String::new();
    for (name, config, seeds, _) in &shapes {
        let sweep = compare_on(config, seeds.clone());
        assert!(sweep.solvable * 10 >= seeds.clone().count() * 9, "{name}");
        report += &format!(
            "\n{name} {seeds:?}: {} of {} (max gap {:.3}, seeds {:?})",
            sweep.below.len(),
            sweep.solvable,
            sweep.max_gap,
            sweep.below
        );
        found.push(sweep.below.len());
    }
    let pinned: Vec<usize> = shapes.iter().map(|shape| shape.3).collect();
    assert_eq!(found, pinned, "{report}");
}

#[test]
fn pruning_preserves_the_optimum() {
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    for seed in 0..20u64 {
        let scenario = random_scenario(&GeneratorConfig::default(), seed);
        let composition = scenario.compose(&options).unwrap();
        let (pruned, stats) = prune(&composition.graph).unwrap();
        assert!(pruned.vertex_count() <= composition.graph.vertex_count());
        let profile = scenario.profiles.effective_satisfaction();
        let after = select_chain(
            &pruned,
            &scenario.formats,
            &profile,
            scenario.profiles.user.budget_or_infinite(),
            &options,
        )
        .unwrap();
        match (&composition.selection.chain, &after.chain) {
            (Some(a), Some(b)) => assert!(
                (a.satisfaction - b.satisfaction).abs() < 1e-9,
                "seed {seed}: pruning changed the optimum ({} removed vertices)",
                stats.vertices_removed
            ),
            (None, None) => {}
            _ => panic!("seed {seed}: pruning changed solvability"),
        }
    }
}

#[test]
fn pruning_shrinks_the_paper_graph() {
    // T4, T9, T11..T20's dead branches disappear; the outcome does not
    // change.
    let scenario = qosc_workload::paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let (pruned, stats) = prune(&composition.graph).unwrap();
    assert!(
        stats.vertices_removed >= 10,
        "the Figure-6 graph is mostly dead ends, removed {}",
        stats.vertices_removed
    );
    let profile = scenario.profiles.effective_satisfaction();
    let after = select_chain(
        &pruned,
        &scenario.formats,
        &profile,
        f64::INFINITY,
        &SelectOptions::default(),
    )
    .unwrap();
    let chain = after.chain.unwrap();
    assert_eq!(chain.names(), vec!["sender", "T7", "receiver"]);
}
