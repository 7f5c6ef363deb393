//! Resilient streaming on the paper's Figure-6 scenario: T7's host dies
//! mid-session; the serving loop notices at the fault instant, re-runs
//! the selection algorithm on the surviving graph and resumes over the
//! fallback chain.
//!
//! ```text
//! cargo run -p qosc-bench --example resilient_streaming
//! ```

use qosc_bench::scorecard;
use qosc_core::run_sessions;
use qosc_netsim::SimTime;
use qosc_pipeline::{FailureEvent, FailureSchedule};
use qosc_telemetry::FlightRecorder;
use qosc_workload::paper;

fn main() {
    let scenario = paper::figure6_scenario(true);
    let t7_host = scenario
        .network
        .topology()
        .node_by_name("host-T7")
        .expect("figure-6 names its hosts");
    let faults = FailureSchedule::new().at(SimTime::from_secs(12), FailureEvent::NodeDown(t7_host));

    let (mut world, request, config) = scorecard::one_session(&scenario, &faults);
    let recorder = FlightRecorder::default();
    let report = run_sessions(&mut world, &[request], &config, &recorder);
    let outcome = &report.outcomes[0];

    println!("timeline (T7's host dies at t = 12 s):");
    for line in recorder.explain(0).lines().filter(|l| l.trim() != "epoch") {
        println!("  {line}");
    }
    println!();
    println!(
        "re-compositions: {}   dark time: {:.2} s   time-weighted satisfaction: {:.3}",
        outcome.recompositions,
        outcome.dark_us as f64 / 1e6,
        outcome.satisfaction_us / report.end_us as f64
    );
}
