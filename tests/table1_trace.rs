//! E1 integration test: the QoS selection algorithm reproduces the
//! paper's Table 1 row-for-row on the reconstructed Figure-6 scenario.

use qosc_core::{SelectOptions, SelectionTrace, TieBreak};
use qosc_workload::paper;

#[test]
fn table1_rows_match_exactly() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    if let Some(mismatch) = paper::verify_table1(&composition.selection.trace) {
        panic!(
            "Table 1 mismatch: {mismatch}\n\n{}",
            composition.selection.trace.to_table1_string()
        );
    }
}

#[test]
fn final_chain_matches_paper() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let chain = composition.selection.chain.expect("receiver reached");
    assert_eq!(chain.names(), vec!["sender", "T7", "receiver"]);
    assert_eq!(SelectionTrace::truncate2(chain.satisfaction), 0.66);
    assert_eq!(
        chain
            .steps
            .last()
            .unwrap()
            .params
            .get(qosc_media::Axis::FrameRate),
        Some(20.0)
    );
    assert_eq!(
        composition.selection.rounds, 15,
        "fifteen rounds, like the paper"
    );
}

#[test]
fn considered_set_grows_in_selection_order() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    let rows = composition.selection.trace.rows.to_vec();
    // VT starts as {sender} and gains exactly the previously selected
    // service each round.
    assert_eq!(rows[0].considered, vec!["sender"]);
    for i in 1..rows.len() {
        let mut expected = rows[i - 1].considered.clone();
        expected.push(rows[i - 1].selected.clone());
        assert_eq!(rows[i].considered, expected, "round {}", i + 1);
    }
}

#[test]
fn t16_to_t18_never_enter_the_candidate_set() {
    let scenario = paper::figure6_scenario(true);
    let composition = scenario.compose(&SelectOptions::default()).unwrap();
    for row in &composition.selection.trace.rows {
        for name in ["T16", "T17", "T18"] {
            assert!(
                !row.candidates.contains(&name.to_string()),
                "{name} must stay unreachable (round {})",
                row.round
            );
        }
    }
}

#[test]
fn satisfaction_is_non_increasing_over_rounds() {
    // The label-setting invariant behind the Figure-5 argument.
    let scenario = paper::figure6_scenario(true);
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
            pair[1] <= pair[0] + 1e-12,
            "satisfaction increased: {pair:?}"
        );
    }
}

#[test]
fn alternative_tie_breaks_still_find_the_same_final_chain() {
    // Tie-breaking changes the exploration order, not the result.
    for tie_break in [
        TieBreak::PaperOrder,
        TieBreak::Fifo,
        TieBreak::ByVertexIndex,
    ] {
        let scenario = paper::figure6_scenario(true);
        let options = SelectOptions {
            tie_break,
            ..SelectOptions::default()
        };
        let composition = scenario.compose(&options).unwrap();
        let chain = composition.selection.chain.expect("receiver reached");
        assert_eq!(
            chain.names(),
            vec!["sender", "T7", "receiver"],
            "{tie_break:?}"
        );
        assert_eq!(SelectionTrace::truncate2(chain.satisfaction), 0.66);
    }
}
