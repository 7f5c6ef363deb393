//! The correctness phase: runs before any timing, and any failure
//! makes the run report `correct: false` and exit non-zero.

use qosc_core::{GraphStore, SelectOptions};
use qosc_workload::paper::{figure6_scenario, verify_table1};
use qosc_workload::scale::{scale_scenario, ScaleConfig};

/// Requests compared between the two-level and the flat composer.
const EQUIVALENCE_REQUESTS: usize = 16;

/// The paper's own artifact: the selection trace on the Figure-6
/// scenario must match Table 1 row for row.
fn table1() -> Result<(), String> {
    let composition = figure6_scenario(true)
        .compose(&SelectOptions::default())
        .map_err(|e| format!("figure-6 scenario does not compose: {e}"))?;
    match verify_table1(&composition.selection.trace) {
        None => Ok(()),
        Some(mismatch) => Err(format!("Table 1 mismatch: {mismatch}")),
    }
}

/// At 10^3 services the two-level composer must return exactly the
/// flat composer's plan (the flat path is affordable there).
fn two_level_equals_flat() -> Result<(), String> {
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(1_000));
    let options = SelectOptions::default();
    let (two_store, flat_store) = (GraphStore::new(), GraphStore::new());
    for tag in 0..EQUIVALENCE_REQUESTS {
        let profiles = scenario.request_profiles(tag);
        let two = scenario
            .composer()
            .compose_with_store(
                &two_store,
                &profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .map_err(|e| format!("two-level compose {tag} failed: {e}"))?;
        let flat = scenario
            .flat_composer()
            .compose_with_store(
                &flat_store,
                &profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .map_err(|e| format!("flat compose {tag} failed: {e}"))?;
        if two.composition.plan != flat.plan || flat.plan.is_none() {
            return Err(format!(
                "request {tag}: two-level plan differs from the flat plan at 10^3 services"
            ));
        }
    }
    Ok(())
}

/// Run the checks every process runs; returns the failures.
pub fn library_checks() -> Vec<String> {
    [table1(), two_level_equals_flat()]
        .into_iter()
        .filter_map(Result::err)
        .collect()
}
