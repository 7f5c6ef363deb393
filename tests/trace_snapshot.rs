//! Snapshot regression for the Table-1 selection trace: pins the full
//! round-by-round `SelectionTrace` of the Figure-6 scenario — rendered
//! table, selection sequence, selected paths, and the exact (bitwise)
//! satisfaction and cost labels — so any drift in graph construction,
//! optimization or tie-breaking fails loudly with a diff.

use qosc_core::SelectOptions;
use qosc_media::Axis;
use qosc_workload::paper;

/// The rendered Table 1, exactly as `to_table1_string` prints it today.
const TABLE1_RENDERED: &str = "\
Round | Considered Set (VT) | Candidate set (CS) | Selected | Selected Path | Delivered Frame Rate | User satisfaction
1 | { sender } | { T1, T2, T3, T4, T5, T6, T7, T8, T9, T10 } | T10 | sender,T10 | 30 | 1.00
2 | { sender, T10 } | { T1, T2, T3, T4, T5, T6, T7, T8, T9, T19, T20, receiver } | T20 | sender,T10,T20 | 30 | 1.00
3 | { sender, T10, T20 } | { T1, T2, T3, T4, T5, T6, T7, T8, T9, T19, receiver } | T5 | sender,T5 | 27 | 0.90
4 | { sender, T10, T20, T5 } | { T1, T2, T3, T4, T6, T7, T8, T9, T19, T15, receiver } | T4 | sender,T4 | 27 | 0.90
5 | { sender, T10, T20, T5, T4 } | { T1, T2, T3, T6, T7, T8, T9, T19, T15, receiver } | T3 | sender,T3 | 23 | 0.76
6 | { sender, T10, T20, T5, T4, T3 } | { T1, T2, T6, T7, T8, T9, T19, T15, T14, receiver } | T2 | sender,T2 | 23 | 0.76
7 | { sender, T10, T20, T5, T4, T3, T2 } | { T1, T6, T7, T8, T9, T19, T15, T14, T12, T13, receiver } | T1 | sender,T1 | 23 | 0.76
8 | { sender, T10, T20, T5, T4, T3, T2, T1 } | { T6, T7, T8, T9, T19, T15, T14, T12, T13, T11, receiver } | T11 | sender,T1,T11 | 23 | 0.76
9 | { sender, T10, T20, T5, T4, T3, T2, T1, T11 } | { T6, T7, T8, T9, T19, T15, T14, T12, T13, receiver } | T13 | sender,T2,T13 | 23 | 0.76
10 | { sender, T10, T20, T5, T4, T3, T2, T1, T11, T13 } | { T6, T7, T8, T9, T19, T15, T14, T12, receiver } | T12 | sender,T2,T12 | 23 | 0.76
11 | { sender, T10, T20, T5, T4, T3, T2, T1, T11, T13, T12 } | { T6, T7, T8, T9, T19, T15, T14, receiver } | T14 | sender,T3,T14 | 23 | 0.76
12 | { sender, T10, T20, T5, T4, T3, T2, T1, T11, T13, T12, T14 } | { T6, T7, T8, T9, T19, T15, receiver } | T8 | sender,T8 | 20 | 0.66
13 | { sender, T10, T20, T5, T4, T3, T2, T1, T11, T13, T12, T14, T8 } | { T6, T7, T9, T19, T15, receiver } | T7 | sender,T7 | 20 | 0.66
14 | { sender, T10, T20, T5, T4, T3, T2, T1, T11, T13, T12, T14, T8, T7 } | { T6, T9, T19, T15, receiver } | T6 | sender,T6 | 20 | 0.66
15 | { sender, T10, T20, T5, T4, T3, T2, T1, T11, T13, T12, T14, T8, T7, T6 } | { T9, T19, T15, receiver } | receiver | sender,T7,receiver | 20 | 0.66
";

/// Per-round (selected, path, frame rate, satisfaction, accumulated
/// cost) with floats pinned to the exact values the algorithm produces.
#[rustfmt::skip]
const ROWS: &[(&str, &str, f64, f64, f64)] = &[
    ("T10",      "sender,T10",          30.0, 1.0,                 1.0),
    ("T20",      "sender,T10,T20",      30.0, 1.0,                 2.0),
    ("T5",       "sender,T5",           27.0, 0.9,                 1.0),
    ("T4",       "sender,T4",           27.0, 0.9,                 1.0),
    ("T3",       "sender,T3",           23.0, 0.766_666_666_666_666_7, 1.0),
    ("T2",       "sender,T2",           23.0, 0.766_666_666_666_666_7, 1.0),
    ("T1",       "sender,T1",           23.0, 0.766_666_666_666_666_7, 1.0),
    ("T11",      "sender,T1,T11",       23.0, 0.766_666_666_666_666_7, 2.0),
    ("T13",      "sender,T2,T13",       23.0, 0.766_666_666_666_666_7, 2.0),
    ("T12",      "sender,T2,T12",       23.0, 0.766_666_666_666_666_7, 2.0),
    ("T14",      "sender,T3,T14",       23.0, 0.766_666_666_666_666_7, 2.0),
    ("T8",       "sender,T8",           20.0, 0.666_666_666_666_666_6, 1.0),
    ("T7",       "sender,T7",           20.0, 0.666_666_666_666_666_6, 1.0),
    ("T6",       "sender,T6",           20.0, 0.666_666_666_666_666_6, 1.0),
    ("receiver", "sender,T7,receiver",  20.0, 0.666_666_666_666_666_6, 2.0),
];

#[test]
fn rendered_table_matches_snapshot() {
    let composition = paper::figure6_scenario(true)
        .compose(&SelectOptions::default())
        .unwrap();
    let rendered = composition.selection.trace.to_table1_string();
    assert_eq!(
        rendered, TABLE1_RENDERED,
        "rendered Table 1 drifted:\n--- got ---\n{rendered}\n--- want ---\n{TABLE1_RENDERED}"
    );
}

#[test]
fn rows_match_snapshot_bitwise() {
    let composition = paper::figure6_scenario(true)
        .compose(&SelectOptions::default())
        .unwrap();
    let rows = &composition.selection.trace.rows;
    assert_eq!(rows.len(), ROWS.len(), "round count drifted");
    for (i, (row, &(selected, path, fps, satisfaction, cost))) in rows.iter().zip(ROWS).enumerate()
    {
        let round = i + 1;
        assert_eq!(row.round, round, "round numbering");
        assert_eq!(row.selected, selected, "selection at round {round}");
        assert_eq!(row.selected_path.join(","), path, "path at round {round}");
        assert_eq!(
            row.params.get(Axis::FrameRate),
            Some(fps),
            "frame rate at round {round}"
        );
        assert_eq!(
            row.satisfaction.to_bits(),
            satisfaction.to_bits(),
            "satisfaction bits at round {round}: got {:?}, want {satisfaction:?}",
            row.satisfaction
        );
        assert_eq!(
            row.accumulated_cost.to_bits(),
            cost.to_bits(),
            "cost bits at round {round}: got {:?}, want {cost:?}",
            row.accumulated_cost
        );
        // Only the frame-rate axis carries a value in this scenario.
        assert_eq!(row.params.axes().count(), 1, "axis count at round {round}");
    }
}

#[test]
fn considered_and_candidate_sets_match_snapshot() {
    // The VT/CS columns are pinned through the rendered snapshot above;
    // this cross-checks the structural invariants the snapshot implies.
    let composition = paper::figure6_scenario(true)
        .compose(&SelectOptions::default())
        .unwrap();
    let rows = composition.selection.trace.rows.to_vec();
    assert_eq!(rows[0].considered, vec!["sender"]);
    assert_eq!(
        rows[0].candidates,
        vec!["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10"]
    );
    let last = rows.last().unwrap();
    assert_eq!(last.candidates, vec!["T9", "T19", "T15", "receiver"]);
    assert_eq!(last.considered.len(), 15);
}
