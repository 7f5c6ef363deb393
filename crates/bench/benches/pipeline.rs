//! Streaming-pipeline throughput: frames simulated per second of a
//! clean session. Runs under faults are the serving loop's, which
//! `benchmark/` times.

use criterion::{criterion_group, criterion_main, Criterion};
use qosc_core::SelectOptions;
use qosc_pipeline::{run_session, SessionConfig};
use qosc_workload::paper;

fn bench_session(c: &mut Criterion) {
    c.bench_function("pipeline/session_10s", |b| {
        let scenario = paper::figure6_scenario(true);
        let composition = scenario
            .compose(&SelectOptions::default())
            .expect("composes");
        let plan = composition.plan.expect("chain");
        let profile = scenario.profiles.effective_satisfaction();
        b.iter(|| {
            let mut scenario = paper::figure6_scenario(true);
            run_session(
                &mut scenario.network,
                &scenario.services,
                &plan,
                &profile,
                &SessionConfig::default(),
            )
            .expect("session runs")
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_session
}
criterion_main!(benches);
