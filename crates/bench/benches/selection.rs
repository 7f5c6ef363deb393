//! Selection-algorithm runtime vs service count (backs experiment X1 and
//! the Table-1 scenario, E1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qosc_core::{Composer, SelectOptions, ShardedCompositionCache};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::paper;

fn bench_paper_scenario(c: &mut Criterion) {
    let scenario = paper::figure6_scenario(true);
    let options = SelectOptions::default();
    c.bench_function("selection/table1_trace", |b| {
        b.iter(|| {
            let composition = scenario.compose(&options).expect("composes");
            assert!(composition.selection.chain.is_some());
            composition
        })
    });
}

fn bench_random_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection/services");
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    for &size in &[20usize, 50, 100, 200] {
        let config = GeneratorConfig {
            layers: 4,
            formats_per_layer: 4,
            ..GeneratorConfig::default()
        }
        .with_total_services(size);
        let scenario = random_scenario(&config, 7);
        group.bench_with_input(BenchmarkId::from_parameter(size), &scenario, |b, s| {
            b.iter(|| s.compose(&options).expect("composes"))
        });
    }
    group.finish();
}

fn bench_composition_cache(c: &mut Criterion) {
    let scenario = paper::figure6_scenario(true);
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let composer = Composer {
        formats: &scenario.formats,
        services: &scenario.services,
        network: &scenario.network,
    };
    c.bench_function("selection/cache_cold", |b| {
        b.iter(|| {
            let cache = ShardedCompositionCache::new(1);
            cache
                .compose(
                    &composer,
                    &scenario.profiles,
                    scenario.sender_host,
                    scenario.receiver_host,
                    &options,
                )
                .expect("composes")
        })
    });
    let warm = ShardedCompositionCache::new(1);
    warm.compose(
        &composer,
        &scenario.profiles,
        scenario.sender_host,
        scenario.receiver_host,
        &options,
    )
    .expect("composes");
    c.bench_function("selection/cache_warm_hit", |b| {
        b.iter(|| {
            warm.compose(
                &composer,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("composes")
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
    targets = bench_paper_scenario, bench_random_scaling, bench_composition_cache
}
criterion_main!(benches);
