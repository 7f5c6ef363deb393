//! X4 — resilient data distribution: stream the Figure-6 content while
//! T7's host dies mid-session, with and without re-composition.
//!
//! Each run is one 30 s session on the serving loop
//! ([`scorecard::one_session`]). The fault is a world event: the loop
//! re-checks the live plan at that instant and, when recovery is on,
//! re-composes on the surviving graph then and there.
//!
//! ```text
//! cargo run -p qosc-bench --bin resilience
//! ```

use qosc_bench::scorecard;
use qosc_core::run_sessions;
use qosc_netsim::SimTime;
use qosc_pipeline::{FailureEvent, FailureSchedule};
use qosc_telemetry::FlightRecorder;
use qosc_workload::paper;

fn main() {
    println!("X4 — resilience: T7's host fails at t = 10 s of a 30 s stream");
    println!();

    let scenario = paper::figure6_scenario(true);
    let t7_host = scenario
        .network
        .topology()
        .node_by_name("host-T7")
        .expect("figure-6 hosts are named");
    let faults = FailureSchedule::new().at(SimTime::from_secs(10), FailureEvent::NodeDown(t7_host));

    for (label, recover) in [("REACTIVE RE-COMPOSITION", true), ("NO RECOVERY", false)] {
        let (mut world, request, mut config) = scorecard::one_session(&scenario, &faults);
        if !recover {
            config.max_recompositions = 0;
        }
        let recorder = FlightRecorder::default();
        let report = run_sessions(&mut world, &[request], &config, &recorder);
        let outcome = &report.outcomes[0];
        println!("=== {label} ===");
        // The session's own timeline, without the per-tick epoch spans.
        for line in recorder.explain(0).lines().filter(|l| l.trim() != "epoch") {
            println!("{line}");
        }
        println!(
            "re-compositions: {}  lit: {:.1} s  dark: {:.1} s  time-weighted satisfaction: {:.3}",
            outcome.recompositions,
            outcome.lit_us as f64 / 1e6,
            outcome.dark_us as f64 / 1e6,
            outcome.satisfaction_us / report.end_us as f64
        );
        println!();
    }
    println!(
        "Expected shape: re-composition moves the stream onto the \
         sender,T10,receiver fallback at the fault instant, so it never goes \
         dark; without recovery the session gives up at t = 10 s and \
         everything after it is lost."
    );
}
