//! E5 integration test: the implementation conforms to Figure 4's
//! pseudo-code, step by step.

use qosc_core::select::SelectFailure;
use qosc_core::{SelectOptions, TieBreak};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::paper;

/// Step 1: VT starts as {sender}; CS starts as neighbor(sender).
#[test]
fn step1_initial_sets() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let first = &composition.selection.trace.rows.to_vec()[0];
    assert_eq!(first.considered, vec!["sender"]);
    // Figure-6 sender neighbors are exactly T1..T10.
    assert_eq!(
        first.candidates,
        (1..=10).map(|k| format!("T{k}")).collect::<Vec<_>>()
    );
}

/// Step 3: empty CS terminates with FAILURE.
#[test]
fn step3_terminate_failure() {
    // A scenario whose receiver decodes a format nobody produces.
    let mut scenario = paper::figure6_scenario(true);
    scenario.profiles.device.decoders = vec!["X16".to_string()];
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    assert!(composition.selection.chain.is_none());
    assert_eq!(
        composition.selection.failure,
        Some(SelectFailure::CandidatesExhausted)
    );
    // The algorithm still explored the graph before giving up.
    assert!(composition.selection.rounds > 0);
}

/// Step 4: every round selects the highest-satisfaction candidate —
/// no later round may select something that had strictly higher
/// satisfaction available earlier (non-increasing selection sequence).
#[test]
fn step4_greedy_selection_order() {
    for seed in 0..10u64 {
        let scenario = random_scenario(&GeneratorConfig::default(), seed);
        let composition = scenario.compose(&SelectOptions::default()).unwrap();
        let sats: Vec<f64> = composition
            .selection
            .trace
            .rows
            .iter()
            .map(|r| r.satisfaction)
            .collect();
        for pair in sats.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-9,
                "seed {seed}: selection satisfaction increased {pair:?}"
            );
        }
    }
}

/// Step 6: accumulated cost along the final chain is non-decreasing and
/// the receiver's accumulated cost equals the chain total.
#[test]
fn step6_cost_accumulation() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let chain = composition.selection.chain.unwrap();
    let costs: Vec<f64> = chain.steps.iter().map(|s| s.accumulated_cost).collect();
    for pair in costs.windows(2) {
        assert!(pair[1] >= pair[0] - 1e-12);
    }
    assert_eq!(*costs.last().unwrap(), chain.total_cost);
    // Figure-6 costs are hop counts: sender 0, T7 1, receiver 2.
    assert_eq!(costs, vec![0.0, 1.0, 2.0]);
}

/// Step 7: the algorithm stops the moment the receiver is selected —
/// the receiver appears exactly once, as the last selection.
#[test]
fn step7_stops_at_receiver() {
    for seed in 0..10u64 {
        let scenario = random_scenario(&GeneratorConfig::default(), seed);
        let composition = scenario.compose(&SelectOptions::default()).unwrap();
        if composition.selection.chain.is_none() {
            continue;
        }
        let rows = &composition.selection.trace.rows;
        let receiver_rounds: Vec<usize> = rows
            .iter()
            .filter(|r| r.selected == "receiver")
            .map(|r| r.round)
            .collect();
        assert_eq!(receiver_rounds, vec![rows.len()], "seed {seed}");
    }
}

/// Step 8: after selecting Ti, newly discovered candidates are exactly
/// Ti's format-compatible neighbors (checked on the paper scenario where
/// the wiring is known).
#[test]
fn step8_neighbor_discovery() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let rows = composition.selection.trace.rows.to_vec();
    let discovered_after = |round: usize| -> Vec<String> {
        let before: &Vec<String> = &rows[round - 1].candidates;
        let after: &Vec<String> = &rows[round].candidates;
        after
            .iter()
            .filter(|n| !before.contains(n))
            .cloned()
            .collect()
    };
    // Round 1 selects T10 → discovers T19, T20 and the receiver.
    assert_eq!(discovered_after(1), vec!["T19", "T20", "receiver"]);
    // Round 6 selects T2 → discovers T12 and T13.
    assert_eq!(discovered_after(6), vec!["T12", "T13"]);
    // Round 3 selects T5 → discovers T15.
    assert_eq!(discovered_after(3), vec!["T15"]);
}

/// Step 10: the reported path follows the `previous` links back from the
/// receiver, and every consecutive pair is connected in the graph.
#[test]
fn step10_path_reconstruction() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let chain = composition.selection.chain.unwrap();
    let graph = &composition.graph;
    for pair in chain.steps.windows(2) {
        let from = pair[0].vertex;
        let to = pair[1].vertex;
        assert!(
            graph
                .out_edges(from)
                .iter()
                .any(|&e| graph.edge(e).unwrap().to == to),
            "no edge between consecutive chain steps"
        );
    }
}

/// The round safety valve reports RoundLimit, not an infinite loop.
#[test]
fn round_limit_is_detected() {
    let scenario = paper::figure6_scenario(true);
    let options = SelectOptions {
        max_rounds: 3,
        ..SelectOptions::default()
    };
    let composition = scenario.compose(&options).unwrap();
    assert_eq!(
        composition.selection.failure,
        Some(SelectFailure::RoundLimit)
    );
    assert_eq!(composition.selection.rounds, 3);
}

/// Tie-break policies are all deterministic.
#[test]
fn tie_breaks_are_deterministic() {
    for tie_break in [
        TieBreak::PaperOrder,
        TieBreak::Fifo,
        TieBreak::ByVertexIndex,
    ] {
        let options = SelectOptions {
            tie_break,
            ..SelectOptions::default()
        };
        let a = paper::figure6_scenario(true).compose(&options).unwrap();
        let b = paper::figure6_scenario(true).compose(&options).unwrap();
        let rows_a: Vec<String> = a
            .selection
            .trace
            .rows
            .iter()
            .map(|r| r.selected.clone())
            .collect();
        let rows_b: Vec<String> = b
            .selection
            .trace
            .rows
            .iter()
            .map(|r| r.selected.clone())
            .collect();
        assert_eq!(rows_a, rows_b, "{tie_break:?}");
    }
}

/// In-format reducers (JPEG→JPEG, MPEG-2→MPEG-2) on multiple proxies
/// create genuine cycles in the adaptation graph; the paper handles this
/// with the formats-distinct rule, and the state-based search must
/// terminate and return a format-distinct chain regardless.
#[test]
fn cyclic_graphs_terminate_with_distinct_formats() {
    use qosc_core::graph::acyclic;
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
    };
    use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};

    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy_a = topo.add_node(Node::unconstrained("proxy-a"));
    let proxy_b = topo.add_node(Node::unconstrained("proxy-b"));
    let client = topo.add_node(Node::unconstrained("client"));
    topo.connect_simple(server, proxy_a, 100e6).unwrap();
    topo.connect_simple(proxy_a, proxy_b, 100e6).unwrap();
    topo.connect_simple(proxy_b, client, 1e6).unwrap();
    let network = Network::new(topo);
    // Two copies of the full catalog → the two video-reducer instances
    // (mpeg2→mpeg2) form a 2-cycle, plus reducer↔re-coder cycles.
    let mut services = ServiceRegistry::new();
    for &p in &[proxy_a, proxy_b] {
        for spec in catalog::full_catalog() {
            services.register_static(TranscoderDescriptor::resolve(&spec, &formats, p).unwrap());
        }
    }
    let profiles = ProfileSet {
        user: UserProfile::demo("cyclist"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    };
    let composer = qosc_core::Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let composition = composer
        .compose(&profiles, server, client, &SelectOptions::default())
        .unwrap();
    assert!(
        acyclic::has_cycle(&composition.graph),
        "the duplicated catalog must create cycles for this test to bite"
    );
    let chain = composition.selection.chain.expect("still solvable");
    // The chain's carried formats are pairwise distinct (Section 4.2).
    let mut carried: Vec<_> = chain.steps[..chain.steps.len() - 1]
        .iter()
        .map(|s| s.output_format)
        .collect();
    let before = carried.len();
    carried.sort();
    carried.dedup();
    assert_eq!(carried.len(), before, "repeated format along the chain");
}
