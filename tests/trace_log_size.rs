//! The Table-1 trace is recorded as an event log — one entry per state
//! that entered CS and one per round — not as a VT/CS snapshot per
//! round. Checked on the scale scenario, where CS is hundreds to
//! thousands of names wide and a snapshot per round is what made
//! recording dominate a compose.

use qosc_core::{GraphStore, SelectOptions, SelectionOutcome};
use qosc_workload::scale::{scale_scenario, ScaleConfig};

fn compose(total_services: usize, options: &SelectOptions) -> SelectionOutcome {
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(total_services));
    let two_level = scenario
        .composer()
        .compose_with_store(
            &GraphStore::new(),
            &scenario.profiles,
            scenario.sender_host,
            scenario.receiver_host,
            options,
        )
        .expect("two-level compose");
    assert!(two_level.composition.plan.is_some(), "the scenario solves");
    two_level.composition.selection
}

#[test]
fn log_holds_discovered_states_plus_rounds() {
    for total_services in [1_000, 10_000] {
        let selection = compose(total_services, &SelectOptions::default());
        let log = &selection.trace.rows;
        assert_eq!(
            log.len(),
            selection.rounds,
            "{total_services}: one entry per round"
        );

        // The other entries are the states that entered CS, each once.
        // Names are unique here and services emit one format, so count
        // them from the rows: every state was either selected in some
        // round or is still in the CS the last round (which selects the
        // receiver, and expands nothing) started with.
        let rows = log.to_vec();
        let last = rows.last().expect("the scenario solves");
        assert_eq!(last.selected, "receiver");
        assert_eq!(
            log.discovered_states(),
            selection.rounds - 1 + last.candidates.len(),
            "{total_services}: one entry per discovered state"
        );
        // A snapshot per round would have held every row's CS.
        let entries = log.discovered_states() + log.len();
        let snapshot: usize = rows.iter().map(|row| row.candidates.len()).sum();
        assert!(
            entries * 4 < snapshot,
            "{total_services}: {entries} log entries against {snapshot} CS names over {} rounds",
            selection.rounds
        );

        assert_eq!(rows, log.to_vec(), "{total_services}: materialising twice");
        assert_eq!(selection.trace.last().as_ref(), rows.last());
    }
}

#[test]
fn an_unrecorded_run_has_an_empty_trace_and_the_same_chain() {
    let recorded = compose(1_000, &SelectOptions::default());
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let unrecorded = compose(1_000, &options);
    assert!(unrecorded.trace.rows.is_empty());
    assert_eq!(unrecorded.trace.rows.discovered_states(), 0);
    assert_eq!(unrecorded.trace.rows.to_vec(), Vec::new());
    assert_eq!(unrecorded.rounds, recorded.rounds);
    assert_eq!(unrecorded.optimizations, recorded.optimizations);
    assert_eq!(unrecorded.chain, recorded.chain);
}
