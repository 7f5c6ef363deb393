//! Batch accounting invariants: every request lands in exactly one
//! [`BatchCounters`] bucket, each outcome is internally consistent
//! (shed ⇒ untouched, served ⇒ no error, degraded ⇒ below Full), and
//! none of it depends on the worker count.

use qosc_core::{
    serve_batch_resilient, serve_batch_with_admission, AdmissionConfig, CompositionRequest,
    DegradationRung, RequestOutcome, ResilientEngineConfig,
};
use qosc_media::{AxisDomain, DomainVector, VariantSpec};
use qosc_profiles::ContentProfile;
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

fn scenario() -> Scenario {
    random_scenario(
        &GeneratorConfig {
            services_per_layer: 5,
            multi_axis: true,
            ..GeneratorConfig::default()
        },
        5,
    )
}

fn healthy_requests(scenario: &Scenario, n: usize) -> Vec<CompositionRequest> {
    (0..n)
        .map(|_| CompositionRequest {
            profiles: scenario.profiles.clone(),
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
        })
        .collect()
}

/// A content profile violating the non-empty-domain invariant: the
/// optimizer panics on it, so the engine's catch_unwind path records a
/// failed outcome.
fn poison(request: &mut CompositionRequest) {
    request.profiles.content = ContentProfile::new(
        "poison",
        vec![VariantSpec {
            format: "video/mpeg2".to_string(),
            offered: DomainVector::new()
                .with(qosc_media::Axis::FrameRate, AxisDomain::Discrete(vec![])),
        }],
    );
}

fn assert_outcome_consistent(index: usize, outcome: &RequestOutcome) {
    let buckets = [
        outcome.shed,
        outcome.is_served_full(),
        outcome.is_degraded(),
        !outcome.shed && outcome.plan.is_none(),
    ];
    assert_eq!(
        buckets.iter().filter(|&&b| b).count(),
        1,
        "request {index} lands in exactly one bucket: {outcome:?}"
    );
    if outcome.shed {
        assert_eq!(outcome.attempts, 0, "request {index}: shed means untouched");
        assert!(outcome.plan.is_none());
        assert_eq!(outcome.backoff_us, 0);
    }
    if outcome.plan.is_some() {
        assert!(
            outcome.error.is_none(),
            "request {index}: a served request carries no error"
        );
        assert!(outcome.attempts >= 1);
        let rung = outcome.rung.expect("served request records its rung");
        if outcome.is_degraded() {
            assert!(rung > DegradationRung::Full);
        }
    } else if !outcome.shed {
        assert!(
            outcome.error.is_some(),
            "request {index}: an unserved request says why"
        );
    }
}

#[test]
fn counters_partition_the_batch_without_admission() {
    let scenario = scenario();
    let composer = scenario.composer();
    let mut batch = healthy_requests(&scenario, 12);
    poison(&mut batch[3]);
    poison(&mut batch[9]);

    let mut reference: Option<Vec<RequestOutcome>> = None;
    for workers in [1usize, 2, 4, 8] {
        let config = ResilientEngineConfig {
            workers,
            seed: 77,
            ..ResilientEngineConfig::default()
        };
        let result = serve_batch_resilient(&composer, &batch, &config);
        assert_eq!(result.outcomes.len(), batch.len());
        let counters = result.counters();
        assert_eq!(
            counters.total(),
            batch.len(),
            "every request counted exactly once (workers={workers})"
        );
        assert_eq!(counters.shed, 0, "serve_batch_resilient never sheds");
        assert_eq!(counters.failed, 2, "both poisoned requests fail");
        for (index, outcome) in result.outcomes.iter().enumerate() {
            assert_outcome_consistent(index, outcome);
            assert!(
                outcome.brownout_rung.is_none(),
                "no admission, no brown-out"
            );
        }
        match &reference {
            None => reference = Some(result.outcomes),
            Some(want) => {
                for (index, (got, want)) in result.outcomes.iter().zip(want).enumerate() {
                    assert_eq!(got.rung, want.rung, "request {index} (workers={workers})");
                    assert_eq!(got.attempts, want.attempts);
                    assert_eq!(got.satisfaction, want.satisfaction);
                    assert_eq!(got.backoff_us, want.backoff_us);
                    assert_eq!(got.error, want.error);
                }
            }
        }
    }
}

#[test]
fn counters_partition_the_batch_under_admission_overload() {
    let scenario = scenario();
    let composer = scenario.composer();
    let pattern = ArrivalPattern {
        horizon_us: 300_000,
        rate_per_sec: 660,
        ..ArrivalPattern::default()
    };
    let arrivals = poisson_burst_arrivals(&pattern, 42);
    let mut batch = healthy_requests(&scenario, arrivals.len());
    poison(&mut batch[arrivals.len() / 2]);

    let mut reference = None;
    for workers in [1usize, 2, 4, 8] {
        let config = ResilientEngineConfig {
            workers,
            seed: 77,
            admission: AdmissionConfig::protected(),
            ..ResilientEngineConfig::default()
        };
        let result = serve_batch_with_admission(&composer, &batch, &arrivals, &config);
        assert_eq!(result.batch.outcomes.len(), batch.len());
        let counters = result.batch.counters();
        assert_eq!(counters.total(), batch.len(), "workers={workers}");
        assert!(counters.shed > 0, "4× overload sheds");
        assert_eq!(counters.shed, result.admission.stats.shed_total());
        for (index, outcome) in result.batch.outcomes.iter().enumerate() {
            assert_outcome_consistent(index, outcome);
            if !outcome.shed {
                assert!(
                    outcome.brownout_rung.is_some(),
                    "admitted outcomes report their starting rung"
                );
            }
        }
        match &reference {
            None => reference = Some(counters),
            Some(want) => assert_eq!(&counters, want, "workers={workers}"),
        }
    }
}
