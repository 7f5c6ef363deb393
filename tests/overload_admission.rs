//! Admission-control integration: the overload front-end end to end —
//! worker-count invariance, the front-end (not scoring) guarantee at
//! sub-saturation, priority protection under overload, brown-out rung
//! reporting, and shedding invariants. Every batch is a run of
//! zero-hold sessions on the serving loop; the offline
//! [`plan_admission`] supplies per-request deadline verdicts, and is
//! shown to make the loop's decisions.

use qosc_bench::scorecard::{session_requests, ServedWorld};
use qosc_core::{
    plan_admission, run_sessions, AdmissionConfig, ArrivalMeta, CompositionRequest,
    DegradationRung, PriorityClass, ResilientEngineConfig, SessionEngineConfig, SessionRequest,
    SessionsReport, StaticWorld,
};
use qosc_telemetry::NoopSink;
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern, SessionArrival};
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

/// One zero-hold session per arrival on the serving loop, opened
/// through `admission` when given: the report, and the world that kept
/// each session's plan.
fn serve<'a>(
    scenario: &'a Scenario,
    arrivals: &[ArrivalMeta],
    resilient: ResilientEngineConfig,
    admission: Option<AdmissionConfig>,
) -> (SessionsReport, ServedWorld<'a>) {
    let sessions = session_requests(
        scenario,
        arrivals
            .iter()
            .map(|&meta| SessionArrival {
                meta,
                hold_us: 0,
                demand_bps: 0,
            })
            .collect(),
    );
    let mut world = ServedWorld::new(StaticWorld {
        formats: &scenario.formats,
        services: &scenario.services,
        network: &scenario.network,
    });
    let config = SessionEngineConfig {
        resilient,
        admission,
        tick_us: 0,
        session_spans: false,
        ..SessionEngineConfig::default()
    };
    let report = run_sessions(&mut world, &sessions, &config, &NoopSink);
    (report, world)
}

fn workers(workers: usize) -> ResilientEngineConfig {
    ResilientEngineConfig {
        workers,
        ..ResilientEngineConfig::default()
    }
}

#[test]
fn outcomes_identical_across_worker_counts() {
    let scenario = scenario();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 42);
    let seeded = |count| ResilientEngineConfig {
        seed: 9,
        ..workers(count)
    };
    let admission = Some(AdmissionConfig::default());

    let (reference, reference_world) = serve(&scenario, &arrivals, seeded(1), admission);
    assert_eq!(
        reference.admission,
        plan_admission(&arrivals, &AdmissionConfig::default()).stats,
        "admission is a virtual-clock plan, independent of workers"
    );
    for count in [2usize, 4, 8] {
        let (got, world) = serve(&scenario, &arrivals, seeded(count), admission);
        assert_eq!(got.admission, reference.admission);
        assert_eq!(got.counters, reference.counters);
        for (index, (a, b)) in got.outcomes.iter().zip(&reference.outcomes).enumerate() {
            assert_eq!(a, b, "request {index} (workers={count})");
            assert_eq!(
                world.plan(index).map(|p| &p.steps),
                reference_world.plan(index).map(|p| &p.steps)
            );
            assert_eq!(
                world.satisfaction(index).to_bits(),
                reference_world.satisfaction(index).to_bits()
            );
        }
    }
}

#[test]
fn sub_saturation_plans_are_bitwise_identical_to_no_admission() {
    let scenario = scenario();
    let arrivals = poisson_burst_arrivals(&calm_pattern(), 7);
    let admission = AdmissionConfig::default();
    let (admitted, admitted_world) = serve(&scenario, &arrivals, workers(4), Some(admission));
    let (unguarded, unguarded_world) = serve(&scenario, &arrivals, workers(4), None);

    assert_eq!(
        admitted.admission.admitted,
        arrivals.len(),
        "sub-saturation load sheds nothing"
    );
    assert_eq!(admitted.admission.brownout_steps, 0);
    let plan = plan_admission(&arrivals, &admission);
    for (index, (a, b)) in admitted
        .outcomes
        .iter()
        .zip(&unguarded.outcomes)
        .enumerate()
    {
        assert_eq!(
            plan.decisions[index].start_rung,
            DegradationRung::Full,
            "request {index} starts at Full"
        );
        // Admission is a front-end, not a scoring change: the plan is
        // the plan the unprotected engine would have produced, bitwise.
        let plan_a = admitted_world.plan(index).expect("admitted request served");
        let plan_b = unguarded_world
            .plan(index)
            .expect("unguarded request served");
        assert_eq!(plan_a.steps, plan_b.steps, "request {index}");
        assert!(plan_a.predicted_satisfaction == plan_b.predicted_satisfaction);
        assert_eq!(a.final_rung, b.final_rung);
    }
}

#[test]
fn priority_protects_interactive_goodput_under_overload() {
    let scenario = scenario();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 41);

    let goodput_of = |admission: AdmissionConfig, class: PriorityClass| {
        let (_, world) = serve(&scenario, &arrivals, workers(4), Some(admission));
        let plan = plan_admission(&arrivals, &admission);
        let of_class: Vec<usize> = (0..arrivals.len())
            .filter(|&i| arrivals[i].priority == class)
            .collect();
        let good = of_class
            .iter()
            .filter(|&&i| plan.decisions[i].deadline_met && world.plan(i).is_some())
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
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 43);
    let admission = AdmissionConfig::protected();
    let (report, _) = serve(&scenario, &arrivals, workers(4), Some(admission));
    let plan = plan_admission(&arrivals, &admission);
    assert_eq!(report.admission, plan.stats);

    assert!(
        report.admission.brownout_steps > 0,
        "4× overload arms brown-out"
    );
    assert!(report.admission.peak_rung > DegradationRung::Full);
    let mut browned = 0;
    for (outcome, decision) in report.outcomes.iter().zip(&plan.decisions) {
        if decision.admitted && decision.start_rung > DegradationRung::Full {
            browned += 1;
            if let Some(rung) = outcome.final_rung {
                assert!(
                    rung >= decision.start_rung,
                    "a browned-out request never serves above its starting rung"
                );
            }
        }
    }
    assert!(browned > 0, "some requests start below Full");
    // Brown-out turns would-be losses into degraded service: served,
    // below Full.
    assert!(report
        .outcomes
        .iter()
        .any(|o| o.final_rung > Some(DegradationRung::Full)));

    // The same schedule without brown-out sheds more than the
    // brown-out run (degraded capacity is capacity).
    let (without, _) = serve(
        &scenario,
        &arrivals,
        workers(4),
        Some(AdmissionConfig::shed_priority()),
    );
    assert!(
        report.admission.shed_total() < without.admission.shed_total(),
        "brown-out admits more: {} sheds vs {}",
        report.admission.shed_total(),
        without.admission.shed_total()
    );
}

#[test]
fn shed_outcomes_never_touch_a_worker() {
    let scenario = scenario();
    let arrivals = poisson_burst_arrivals(&overload_pattern(), 42);
    let admission = AdmissionConfig::protected();
    let (report, world) = serve(&scenario, &arrivals, workers(4), Some(admission));
    let plan = plan_admission(&arrivals, &admission);
    assert!(report.counters.shed > 0, "4× overload sheds");
    assert_eq!(report.counters.shed, report.admission.shed_total());
    for (index, (outcome, decision)) in report.outcomes.iter().zip(&plan.decisions).enumerate() {
        assert_eq!(outcome.shed.is_some(), !decision.admitted);
        if outcome.shed.is_some() {
            assert_eq!(outcome.attempts, 0, "shed before any composition attempt");
            assert_eq!(outcome.started_us, None);
            assert_eq!(outcome.final_rung, None);
            assert!(world.plan(index).is_none());
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
