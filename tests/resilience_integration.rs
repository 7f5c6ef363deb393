//! X4 integration: self-organizing recovery on the serving loop, on the
//! paper scenario and on random scenarios. Each run is one 30 s session
//! ([`scorecard::one_session`]) whose faults are world events.

use qosc_bench::scorecard;
use qosc_core::{
    run_sessions, AdaptationPlan, CloseReason, Composer, SessionOutcome, SessionWorld,
};
use qosc_netsim::{NodeId, SimTime};
use qosc_pipeline::{ChaosWorld, FailureEvent, FailureSchedule};
use qosc_telemetry::NoopSink;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::{paper, Scenario};
use std::sync::Mutex;

const HORIZON_US: u64 = 30_000_000;

/// A chaos world that records the chain of every plan the loop checks
/// for liveness, in order, without repeats: the chains a session
/// streamed on. Forwards what `ChaosWorld` answers for a brokerless,
/// buffer-less, SLA-less run.
struct Recording<'a> {
    inner: ChaosWorld<'a>,
    chains: Mutex<Vec<Vec<String>>>,
}

impl SessionWorld for Recording<'_> {
    fn composer(&self) -> Composer<'_> {
        self.inner.composer()
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        let chain: Vec<String> = plan.steps.iter().map(|s| s.name.clone()).collect();
        let mut chains = self.chains.lock().unwrap();
        if chains.last() != Some(&chain) {
            chains.push(chain);
        }
        self.inner.plan_alive(plan)
    }

    fn world_event_times(&self) -> &[u64] {
        self.inner.world_event_times()
    }

    fn apply_world_event(&mut self, index: usize) {
        self.inner.apply_world_event(index);
    }
}

/// One session of `scenario` under `faults`, re-composing around dead
/// plans when `recover`: its outcome and the chains it streamed on.
fn session(
    scenario: &Scenario,
    faults: &FailureSchedule,
    recover: bool,
) -> (SessionOutcome, Vec<Vec<String>>) {
    let (inner, request, mut config) = scorecard::one_session(scenario, faults);
    if !recover {
        config.max_recompositions = 0;
    }
    let mut world = Recording {
        inner,
        chains: Mutex::default(),
    };
    let mut report = run_sessions(&mut world, &[request], &config, &NoopSink);
    assert_eq!(report.end_us, HORIZON_US);
    (
        report.outcomes.remove(0),
        world.chains.into_inner().unwrap(),
    )
}

/// Time-weighted satisfaction over the whole run (dark time and time
/// after a close count as zero).
fn satisfaction(outcome: &SessionOutcome) -> f64 {
    outcome.satisfaction_us / HORIZON_US as f64
}

fn t7_host(scenario: &Scenario) -> NodeId {
    scenario
        .network
        .topology()
        .node_by_name("host-T7")
        .expect("figure-6 names its hosts")
}

#[test]
fn recovery_beats_no_recovery_on_the_paper_scenario() {
    let scenario = paper::figure6_scenario(true);
    let faults = FailureSchedule::new().at(
        SimTime::from_secs(10),
        FailureEvent::NodeDown(t7_host(&scenario)),
    );
    let (with, chains) = session(&scenario, &faults, true);
    let (without, _) = session(&scenario, &faults, false);
    assert!(
        satisfaction(&with) > satisfaction(&without) + 0.2,
        "recovery should be worth a lot: {} vs {}",
        satisfaction(&with),
        satisfaction(&without)
    );
    assert_eq!(with.recompositions, 1);
    assert_eq!(with.dark_us, 0, "re-composed at the fault instant");
    assert_eq!(with.close, Some(CloseReason::Completed));
    // The stream rides T7 until it dies, then the T10 fallback at 18 fps.
    assert_eq!(chains.len(), 2, "{chains:?}");
    assert!(chains[0].contains(&"T7".to_string()), "{chains:?}");
    assert!(chains[1].contains(&"T10".to_string()), "{chains:?}");
}

#[test]
fn no_recovery_gives_up_at_the_fault_instant() {
    let scenario = paper::figure6_scenario(true);
    let faults = FailureSchedule::new().at(
        SimTime::from_secs(10),
        FailureEvent::NodeDown(t7_host(&scenario)),
    );
    let (outcome, _) = session(&scenario, &faults, false);
    assert_eq!(outcome.lit_us, 10_000_000);
    assert_eq!(outcome.close, Some(CloseReason::GaveUp));
    assert_eq!(outcome.closed_us, Some(10_000_000));
    // 10 s of T7's 0.667 out of 30 s.
    assert!(
        (satisfaction(&outcome) - 0.222).abs() < 1e-3,
        "{}",
        satisfaction(&outcome)
    );
}

#[test]
fn node_restoration_allows_recomposition_back() {
    // Fail T7 at 5 s, restore it at 15 s: the restore does not kill the
    // active (fallback) chain, so one re-composition happens in total
    // and the stream stays lit to the end.
    let scenario = paper::figure6_scenario(true);
    let t7 = t7_host(&scenario);
    let faults = FailureSchedule::new()
        .at(SimTime::from_secs(5), FailureEvent::NodeDown(t7))
        .at(SimTime::from_secs(15), FailureEvent::NodeUp(t7));
    let (outcome, chains) = session(&scenario, &faults, true);
    assert_eq!(outcome.recompositions, 1);
    assert_eq!(outcome.lit_us, HORIZON_US);
    assert_eq!(outcome.close, Some(CloseReason::Completed));
    assert_eq!(chains.len(), 2, "{chains:?}");
}

#[test]
fn random_scenarios_recover_when_possible() {
    let config = GeneratorConfig {
        layers: 2,
        services_per_layer: 4,
        formats_per_layer: 2,
        bandwidth_range: (40_000.0, 80_000.0),
        ..GeneratorConfig::default()
    };
    let fault_us = 5_000_000;
    let mut recovered = 0usize;
    let mut attempted = 0usize;
    for seed in 0..10u64 {
        let scenario = random_scenario(&config, seed);
        let composition = scenario
            .compose(&qosc_core::SelectOptions::default())
            .unwrap();
        let plan = match composition.plan {
            Some(p) => p,
            None => continue,
        };
        // Kill the first trans-coding host on the chain.
        let victim = match plan.steps.iter().find(|s| s.service.is_some()) {
            Some(step) => step.host,
            None => continue,
        };
        attempted += 1;
        let faults = FailureSchedule::new().at(SimTime(fault_us), FailureEvent::NodeDown(victim));
        let (outcome, _) = session(&scenario, &faults, true);
        if outcome.lit_us > fault_us {
            recovered += 1;
        }
    }
    assert!(attempted >= 5, "want a meaningful sample");
    assert!(
        recovered * 2 >= attempted,
        "at least half the scenarios should have an alternate chain: {recovered}/{attempted}"
    );
}
