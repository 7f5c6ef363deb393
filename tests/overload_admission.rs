//! Admission-control integration: the overload front-end end to end —
//! worker-count invariance, the front-end (not scoring) guarantee at
//! sub-saturation, priority protection under overload, brown-out rung
//! reporting, and shedding invariants.

use qosc_core::{
    plan_admission, run_sessions, serve_batch_resilient, serve_batch_with_admission,
    AdmissionConfig, CompositionRequest, DegradationRung, PriorityClass, ResilientEngineConfig,
    SessionEngineConfig, SessionRequest, StaticWorld,
};
use qosc_telemetry::NoopSink;
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

const TOPOLOGY_SEED: u64 = 5;

fn scenario() -> Scenario {
    random_scenario(
        &GeneratorConfig {
            services_per_layer: 5,
            multi_axis: true,
            ..GeneratorConfig::default()
        },
        TOPOLOGY_SEED,
    )
}

fn requests_for(scenario: &Scenario, n: usize) -> Vec<CompositionRequest> {
    (0..n)
        .map(|_| CompositionRequest {
            profiles: scenario.profiles.clone(),
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
        })
        .collect()
}

/// An overloaded schedule: ~4× a 4-core virtual capacity for 300ms.
fn overload_pattern() -> ArrivalPattern {
    ArrivalPattern {
        horizon_us: 300_000,
        rate_per_sec: 660,
        ..ArrivalPattern::default()
    }
}

/// A calm schedule: ~0.3× capacity, no queueing to speak of.
fn calm_pattern() -> ArrivalPattern {
    ArrivalPattern {
        horizon_us: 300_000,
        rate_per_sec: 50,
        ..ArrivalPattern::default()
    }
}

#[test]
fn outcomes_identical_across_worker_counts() {
    let scenario = scenario();
    let composer = scenario.composer();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 42);
    let requests = requests_for(&scenario, arrivals.len());

    let reference = serve_batch_with_admission(
        &composer,
        &requests,
        &arrivals,
        &ResilientEngineConfig {
            workers: 1,
            seed: 9,
            ..ResilientEngineConfig::default()
        },
    );
    for workers in [2usize, 4, 8] {
        let got = serve_batch_with_admission(
            &composer,
            &requests,
            &arrivals,
            &ResilientEngineConfig {
                workers,
                seed: 9,
                ..ResilientEngineConfig::default()
            },
        );
        assert_eq!(
            got.admission.decisions, reference.admission.decisions,
            "admission is a virtual-clock plan, independent of workers"
        );
        assert_eq!(got.admission.stats, reference.admission.stats);
        for (index, (a, b)) in got
            .batch
            .outcomes
            .iter()
            .zip(&reference.batch.outcomes)
            .enumerate()
        {
            assert_eq!(a.rung, b.rung, "request {index} (workers={workers})");
            assert_eq!(a.shed, b.shed);
            assert_eq!(a.brownout_rung, b.brownout_rung);
            assert_eq!(a.attempts, b.attempts);
            assert_eq!(a.satisfaction, b.satisfaction);
            assert_eq!(
                a.plan.as_ref().map(|p| &p.steps),
                b.plan.as_ref().map(|p| &p.steps)
            );
        }
        assert_eq!(got.batch.counters(), reference.batch.counters());
    }
}

#[test]
fn sub_saturation_plans_are_bitwise_identical_to_no_admission() {
    let scenario = scenario();
    let composer = scenario.composer();
    let arrivals = poisson_burst_arrivals(&calm_pattern(), 7);
    let requests = requests_for(&scenario, arrivals.len());
    let config = ResilientEngineConfig {
        workers: 4,
        ..ResilientEngineConfig::default()
    };

    let admitted = serve_batch_with_admission(&composer, &requests, &arrivals, &config);
    let unguarded = serve_batch_resilient(&composer, &requests, &config);

    assert_eq!(
        admitted.admission.stats.admitted,
        requests.len(),
        "sub-saturation load sheds nothing"
    );
    assert_eq!(admitted.admission.stats.brownout_steps, 0);
    for (index, (a, b)) in admitted
        .batch
        .outcomes
        .iter()
        .zip(&unguarded.outcomes)
        .enumerate()
    {
        assert_eq!(
            a.brownout_rung,
            Some(DegradationRung::Full),
            "request {index} starts at Full"
        );
        // Admission is a front-end, not a scoring change: the plan is
        // the plan the unprotected engine would have produced, bitwise.
        let plan_a = a.plan.as_ref().expect("admitted request served");
        let plan_b = b.plan.as_ref().expect("unguarded request served");
        assert_eq!(plan_a.steps, plan_b.steps, "request {index}");
        assert!(plan_a.predicted_satisfaction == plan_b.predicted_satisfaction);
        assert_eq!(a.rung, b.rung);
    }
}

#[test]
fn priority_protects_interactive_goodput_under_overload() {
    let scenario = scenario();
    let composer = scenario.composer();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 41);
    let requests = requests_for(&scenario, arrivals.len());

    let goodput_of = |admission: AdmissionConfig, class: PriorityClass| {
        let config = ResilientEngineConfig {
            workers: 4,
            admission,
            ..ResilientEngineConfig::default()
        };
        let result = serve_batch_with_admission(&composer, &requests, &arrivals, &config);
        let of_class: Vec<usize> = (0..arrivals.len())
            .filter(|&i| arrivals[i].priority == class)
            .collect();
        let good = of_class
            .iter()
            .filter(|&&i| {
                result.admission.decisions[i].deadline_met
                    && result.batch.outcomes[i].plan.is_some()
            })
            .count();
        good as f64 / of_class.len().max(1) as f64
    };

    let unprotected = goodput_of(AdmissionConfig::unprotected(), PriorityClass::Interactive);
    let prioritized = goodput_of(AdmissionConfig::shed_priority(), PriorityClass::Interactive);
    assert!(
        prioritized > 0.85,
        "strict priority holds interactive goodput under 4× overload, got {prioritized}"
    );
    assert!(
        unprotected < 0.5,
        "the unprotected queue collapses interactive goodput, got {unprotected}"
    );
    // …and the protection is not free for the background class.
    let background = goodput_of(AdmissionConfig::shed_priority(), PriorityClass::Background);
    assert!(
        background <= prioritized,
        "background never beats interactive under strict priority"
    );
}

#[test]
fn brownout_serves_admitted_overload_degraded_and_reports_the_rung() {
    let scenario = scenario();
    let composer = scenario.composer();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 43);
    let requests = requests_for(&scenario, arrivals.len());
    let config = ResilientEngineConfig {
        workers: 4,
        admission: AdmissionConfig::protected(),
        ..ResilientEngineConfig::default()
    };
    let result = serve_batch_with_admission(&composer, &requests, &arrivals, &config);

    assert!(
        result.admission.stats.brownout_steps > 0,
        "4× overload arms brown-out"
    );
    assert!(result.admission.stats.peak_rung > DegradationRung::Full);
    let browned: Vec<&qosc_core::RequestOutcome> = result
        .batch
        .outcomes
        .iter()
        .filter(|o| o.brownout_rung.map(|r| r > DegradationRung::Full) == Some(true))
        .collect();
    assert!(!browned.is_empty(), "some requests start below Full");
    for outcome in &browned {
        if let Some(rung) = outcome.rung {
            assert!(
                rung >= outcome.brownout_rung.unwrap(),
                "a browned-out request never serves above its starting rung"
            );
        }
    }
    // Brown-out turns would-be losses into degraded service: the batch
    // counts them as degraded, not failed.
    let counters = result.batch.counters();
    assert!(counters.degraded > 0);

    // The same schedule without brown-out sheds more than the
    // brown-out run (degraded capacity is capacity).
    let without = serve_batch_with_admission(
        &composer,
        &requests,
        &arrivals,
        &ResilientEngineConfig {
            workers: 4,
            admission: AdmissionConfig::shed_priority(),
            ..ResilientEngineConfig::default()
        },
    );
    assert!(
        result.admission.stats.shed_total() < without.admission.stats.shed_total(),
        "brown-out admits more: {} sheds vs {}",
        result.admission.stats.shed_total(),
        without.admission.stats.shed_total()
    );
}

#[test]
fn shed_outcomes_never_touch_a_worker() {
    let scenario = scenario();
    let composer = scenario.composer();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 42);
    let requests = requests_for(&scenario, arrivals.len());
    let config = ResilientEngineConfig {
        workers: 4,
        admission: AdmissionConfig::protected(),
        ..ResilientEngineConfig::default()
    };
    let result = serve_batch_with_admission(&composer, &requests, &arrivals, &config);
    let counters = result.batch.counters();
    assert!(counters.shed > 0, "4× overload sheds");
    assert_eq!(counters.shed, result.admission.stats.shed_total());
    for (outcome, decision) in result
        .batch
        .outcomes
        .iter()
        .zip(&result.admission.decisions)
    {
        assert_eq!(outcome.shed, !decision.admitted);
        if outcome.shed {
            assert_eq!(outcome.attempts, 0, "shed before any composition attempt");
            assert!(outcome.plan.is_none());
            assert!(outcome.error.as_deref().unwrap_or("").starts_with("shed:"));
        }
    }
}

/// The serving loop decides admission incrementally, one pump event at
/// a time; the decisions it acts on are the offline plan's.
#[test]
fn pumped_admission_equals_the_offline_plan() {
    let scenario = scenario();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 42);
    let admission = AdmissionConfig::protected();
    let plan = plan_admission(&arrivals, &admission);
    assert!(plan.stats.admitted > 0 && plan.stats.shed_total() > 0);

    let sessions: Vec<SessionRequest> = requests_for(&scenario, arrivals.len())
        .into_iter()
        .zip(&arrivals)
        .map(|(request, &arrival)| SessionRequest {
            request,
            arrival,
            hold_us: 0,
            demand_bps: 0,
        })
        .collect();
    for workers in [1usize, 4] {
        let mut world = StaticWorld {
            formats: &scenario.formats,
            services: &scenario.services,
            network: &scenario.network,
        };
        let config = SessionEngineConfig {
            resilient: ResilientEngineConfig {
                workers,
                ..ResilientEngineConfig::default()
            },
            admission: Some(admission),
            ..SessionEngineConfig::default()
        };
        let report = run_sessions(&mut world, &sessions, &config, &NoopSink);
        assert_eq!(report.admission, plan.stats, "workers={workers}");
        for (outcome, decision) in report.outcomes.iter().zip(&plan.decisions) {
            assert_eq!(outcome.shed, decision.shed);
            if decision.admitted {
                assert_eq!(outcome.started_us, Some(decision.start_us));
                assert!(outcome.final_rung >= Some(decision.start_rung));
            }
        }
    }
}
