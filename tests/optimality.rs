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
//!
//! Where the exhaustive search cannot run — its expansion valve trips
//! on every seed of an 8 × 24 mesh — two metamorphic relations check the
//! greedy against itself: its satisfaction does not depend on the order
//! services were registered in, and on single-axis requests doubling one
//! link's capacity never lowers it. Multi-axis monotonicity is left out:
//! it fails on 10 of 23 592 trials, each a multi-axis counterexample to
//! optimality.

use qosc_core::baseline::exhaustive::{exhaustive_optimum, ExhaustiveOptions};
use qosc_core::graph::prune::prune;
use qosc_core::graph::{AdaptationGraph, VertexId};
use qosc_core::select::label::{ExtendContext, Label};
use qosc_core::{select_chain, SelectOptions};
use qosc_media::{Axis, FormatId};
use qosc_satisfaction::{OptimizeOptions, SatisfactionProfile};
use qosc_services::ServiceRegistry;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

/// Greedy against exhaustive over a seed range.
struct Sweep {
    /// Scenarios both searches solve.
    solvable: usize,
    /// Seeds where the greedy's satisfaction is below the optimum's.
    below: Vec<u64>,
    /// Largest optimum-minus-greedy satisfaction gap seen.
    max_gap: f64,
}

/// The label-extension context both searches run on.
fn extend_context<'a>(
    scenario: &'a Scenario,
    graph: &'a AdaptationGraph,
    profile: &'a SatisfactionProfile,
) -> ExtendContext<'a> {
    ExtendContext {
        graph,
        formats: &scenario.formats,
        profile,
        budget: scenario.profiles.user.budget_or_infinite(),
        optimizer: OptimizeOptions::default(),
        penalties: &[],
    }
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
    let ctx = extend_context(&scenario, &composition.graph, &profile);
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
///
/// The cause, pinned label by label: the sender's two variants each
/// reach state (S2, `L1_0`). The greedy keeps the label with the higher
/// satisfaction, which has more pixels but fewer frames per second, and
/// drops the other; neither dominates the other axis by axis. S4 then
/// caps both chains' pixels at the same value, a per-axis `min` that
/// erases the kept label's pixel lead and keeps its frame-rate deficit,
/// so the dropped label's chain ends higher. Figure 5's premise — the
/// best label of a state stays best under every continuation — holds
/// for one axis, where `min` preserves the order of labels, and fails
/// for two.
#[test]
fn tiny_multi_axis_seed_63_is_a_counterexample() {
    let (greedy, exact) = greedy_and_optimum(&tiny_multi_axis(), 63).expect("solvable");
    assert!((greedy - 0.697_652_060_914_054_7).abs() < 1e-12, "{greedy}");
    assert!((exact - 0.704_489_118_945_525_7).abs() < 1e-12, "{exact}");

    let scenario = random_scenario(&tiny_multi_axis(), 63);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let graph = &composition.graph;
    let profile = scenario.profiles.effective_satisfaction();
    let ctx = extend_context(&scenario, graph, &profile);
    let vertex = |name| graph.vertex_by_name(name).expect("vertex");
    let format = |name| scenario.formats.lookup(name).expect("format");
    // `parent`'s label at `to`, emitting `output`, over their one edge.
    let step = |parent: &Label, to: VertexId, output: FormatId| -> Label {
        let edge = graph
            .out_edges(parent.state.vertex)
            .iter()
            .copied()
            .find(|&e| {
                let edge = graph.edge(e).unwrap();
                edge.to == to && edge.format == parent.state.output_format
            })
            .expect("edge");
        ctx.extend(parent, edge)
            .unwrap()
            .into_iter()
            .find(|label| label.state.output_format == output)
            .expect("candidate label")
    };
    let at_s2: Vec<Label> = ctx
        .sender_labels()
        .unwrap()
        .iter()
        .map(|sender| step(sender, vertex("S2"), format("L1_0")))
        .collect();
    let [a, b] = at_s2[..] else {
        panic!("two labels compete for (S2, L1_0)")
    };
    let (kept, dropped) = if a.satisfaction >= b.satisfaction {
        (a, b)
    } else {
        (b, a)
    };
    let near = |value: f64, expected: f64, tolerance: f64| (value - expected).abs() < tolerance;
    let fps = |label: &Label| label.params.get(Axis::FrameRate).unwrap();
    let px = |label: &Label| label.params.get(Axis::PixelCount).unwrap();
    assert!(near(fps(&kept), 21.106, 5e-4), "{kept:?}");
    assert!(near(px(&kept), 234_717.0, 0.5), "{kept:?}");
    assert!(near(kept.satisfaction, 0.7325, 5e-5), "{kept:?}");
    assert!(near(fps(&dropped), 21.527, 5e-4), "{dropped:?}");
    assert!(near(px(&dropped), 217_164.0, 0.5), "{dropped:?}");
    assert!(near(dropped.satisfaction, 0.7122, 5e-5), "{dropped:?}");

    let kept_at_s4 = step(&kept, vertex("S4"), format("L2_0"));
    let dropped_at_s4 = step(&dropped, vertex("S4"), format("L2_0"));
    for label in [&kept_at_s4, &dropped_at_s4] {
        assert!(near(px(label), 212_542.0, 0.5), "S4's pixel cap: {label:?}");
    }
    assert!(near(kept_at_s4.satisfaction, 0.6977, 5e-5));
    assert!(near(dropped_at_s4.satisfaction, 0.7045, 5e-5));
    assert_eq!(kept_at_s4.satisfaction, greedy);
    assert_eq!(dropped_at_s4.satisfaction, exact);
}

/// The X15 mesh of `compose_hot` and `tests/cache_memo.rs`.
fn x15() -> GeneratorConfig {
    GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    }
}

/// An 8-layer mesh of 24 services per layer, 4 formats per layer and 2
/// conversions per service: the exhaustive search trips its expansion
/// valve on every seed tried.
fn eight_by_24() -> GeneratorConfig {
    GeneratorConfig {
        layers: 8,
        services_per_layer: 24,
        formats_per_layer: 4,
        conversions_per_service: 2,
        ..GeneratorConfig::default()
    }
}

/// `config` with the pixel-count axis added.
fn multi(config: GeneratorConfig) -> GeneratorConfig {
    GeneratorConfig {
        multi_axis: true,
        ..config
    }
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
    let x15 = x15();
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

/// The greedy's satisfaction on `scenario`, as bits; `None` when it
/// reaches no receiver.
fn greedy_bits(scenario: &Scenario) -> Option<u64> {
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let composition = scenario.compose(&options).unwrap();
    composition
        .selection
        .chain
        .map(|chain| chain.satisfaction.to_bits())
}

/// Registration order is the listing order the greedy breaks ties by,
/// so it may change the chain among equals, never the satisfaction
/// reached: with the services re-registered in reversed order, and
/// rotated by a seed-dependent step, the greedy's satisfaction is
/// bit-identical. Seeds: 0..40 of `default()` and of `default()` +
/// `multi_axis`, 0..10 of the X15 mesh + `multi_axis`, 0..3 of the 8 × 24
/// mesh + `multi_axis`.
#[test]
fn greedy_satisfaction_ignores_registration_order() {
    let shapes = [
        ("default", GeneratorConfig::default(), 0..40),
        (
            "default + multi_axis",
            multi(GeneratorConfig::default()),
            0..40,
        ),
        ("X15 mesh + multi_axis", multi(x15()), 0..10),
        ("8x24 + multi_axis", multi(eight_by_24()), 0..3),
    ];
    let mut trials = 0;
    for (name, config, seeds) in shapes {
        for seed in seeds {
            let mut scenario = random_scenario(&config, seed);
            let want = greedy_bits(&scenario);
            let descriptors: Vec<_> = scenario
                .services
                .live_services()
                .map(|(_, descriptor)| descriptor.clone())
                .collect();
            let step = 1 + seed as usize % (descriptors.len() - 1);
            let reversed = descriptors.iter().rev().cloned().collect::<Vec<_>>();
            let mut rotated = descriptors.clone();
            rotated.rotate_left(step);
            for (order, descriptors) in [("reversed", reversed), ("rotated", rotated)] {
                let mut services = ServiceRegistry::new();
                for descriptor in descriptors {
                    services.register_static(descriptor);
                }
                scenario.services = services;
                assert_eq!(greedy_bits(&scenario), want, "{name} seed {seed}, {order}");
                trials += 1;
            }
        }
    }
    assert_eq!(trials, 186);
}

/// On single-axis requests more capacity never hurts: doubling the
/// capacity of any one link the greedy's chain runs over (the links of
/// the sender's, each chain service's and the receiver's host) never
/// lowers the greedy's satisfaction, nor makes the request unsolvable.
/// Seeds: 0..120 of `default()` and of `default()` at 5–35 kb/s, where
/// more links bind; 0..30 of the X15 mesh; 0..6 of the 8 × 24 mesh.
#[test]
fn doubling_a_link_never_lowers_single_axis_satisfaction() {
    let tight = GeneratorConfig {
        bandwidth_range: (5_000.0, 35_000.0),
        ..GeneratorConfig::default()
    };
    let shapes = [
        ("default", GeneratorConfig::default(), 0..120),
        ("default at 5-35 kb/s", tight, 0..120),
        ("X15 mesh", x15(), 0..30),
        ("8x24", eight_by_24(), 0..6),
    ];
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let mut trials = 0;
    for (name, config, seeds) in shapes {
        for seed in seeds {
            let mut scenario = random_scenario(&config, seed);
            let composition = scenario.compose(&options).unwrap();
            let (Some(chain), Some(plan)) = (composition.selection.chain, composition.plan) else {
                continue;
            };
            let before = Some(chain.satisfaction);
            let topology = scenario.network.topology();
            let links: Vec<_> = plan
                .steps
                .iter()
                .flat_map(|step| topology.neighbors(step.host).iter().map(|&(_, link)| link))
                .collect();
            for link in links {
                let capacity = |scenario: &mut Scenario, factor: f64| {
                    let link = scenario.network.topology_mut().link_mut(link).unwrap();
                    link.capacity_bps *= factor;
                };
                capacity(&mut scenario, 2.0);
                let after = greedy_bits(&scenario).map(f64::from_bits);
                capacity(&mut scenario, 0.5);
                assert!(
                    after >= before,
                    "{name} seed {seed}, {link:?} doubled: {before:?} -> {after:?}"
                );
                trials += 1;
            }
        }
    }
    assert_eq!(trials, 1_470);
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
