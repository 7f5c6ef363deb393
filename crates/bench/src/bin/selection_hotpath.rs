//! X15: the selection hot path — graph store and compose memo vs
//! rebuild-per-request.
//!
//! Sweeps registry churn rate × request repeat rate and serves every
//! request twice in the same run: once through a store-backed
//! [`ShardedCompositionCache`] (graph reuse while the world holds
//! still, and one kernel run per request class per world state) and once through
//! a store-free cache (the historical rebuild-per-compose path, no
//! memo). Every cell's requests are one class under 96 or 10 user
//! names, so the store path mostly measures memo answers. Reports
//! per-request compose p50/p99 for both paths, the store's
//! rebuild/reuse counters, the kernel runs behind the store path,
//! the arena-reuse count of the zero-allocation selection kernel, and —
//! the point of the exercise —
//! asserts the two paths produce **bitwise-identical plans** and
//! identical hit/miss/stale classification, then repeats the identity
//! assertion across 1/2/4/8 workers.
//!
//! Output goes to `BENCH_hotpath.json` (the first argument not starting
//! with `--` overrides the path). `--deterministic` omits every
//! timing-derived field, so a run's file equals the checked-in one up
//! to its timings — the CI scorecard step compares the two.

use qosc_bench::scorecard::{self, list, percentile, Digest, Line, Scorecard, WORKER_COUNTS};
use qosc_bench::TextTable;
use qosc_core::{
    arena_reuse_total, serve_batch, AdaptationPlan, Composer, CompositionRequest, EngineConfig,
    SelectOptions, ShardedCompositionCache,
};
use qosc_netsim::SimTime;
use qosc_profiles::ProfileSet;
use qosc_services::QuarantineConfig;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;
use std::time::Instant;

const CHURN_RATES: [f64; 3] = [0.0, 0.05, 0.25];
const REPEAT_RATES: [f64; 2] = [0.0, 0.9];
const REQUESTS_PER_CELL: usize = 96;
const SEED: u64 = 7;

/// `n` profile sets with `repeat_rate` of them re-using an earlier
/// cache key (same construction as the throughput sweep).
fn profile_mix(scenario: &Scenario, n: usize, repeat_rate: f64) -> Vec<ProfileSet> {
    let distinct = ((n as f64) * (1.0 - repeat_rate)).ceil().max(1.0) as usize;
    (0..n)
        .map(|i| {
            let mut profiles = scenario.profiles.clone();
            profiles.user.name = format!("hotpath-user-{}", i % distinct);
            profiles
        })
        .collect()
}

struct PathStats {
    seconds: f64,
    p50_us: f64,
    p99_us: f64,
}

impl PathStats {
    fn line(&self) -> Line {
        Line::new()
            .num("seconds", self.seconds, 6)
            .num("p50_us", self.p50_us, 1)
            .num("p99_us", self.p99_us, 1)
    }
}

fn path_stats(latencies_us: &mut [f64]) -> PathStats {
    let seconds = latencies_us.iter().sum::<f64>() / 1e6;
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PathStats {
        seconds,
        p50_us: percentile(latencies_us, 0.50),
        p99_us: percentile(latencies_us, 0.99),
    }
}

/// Serve one cell sequentially, composing every request through both
/// caches and checking the plans agree bitwise. Returns the cell's
/// scorecard line, its table row, and its compose speedup.
fn run_cell(
    config: &GeneratorConfig,
    churn_rate: f64,
    repeat_rate: f64,
) -> (Line, Vec<String>, f64) {
    let mut scenario = random_scenario(config, SEED);
    scenario.services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 1,
        cooldown_us: 1_000_000,
    });
    let ids: Vec<_> = scenario
        .services
        .live_services()
        .map(|(id, _)| id)
        .collect();
    let profiles = profile_mix(&scenario, REQUESTS_PER_CELL, repeat_rate);
    let options = SelectOptions::default();

    let store_cache = ShardedCompositionCache::new(16);
    let base_cache = ShardedCompositionCache::new_without_graph_store(16);
    let mut store_latencies = Vec::with_capacity(profiles.len());
    let mut base_latencies = Vec::with_capacity(profiles.len());
    let mut digest = Digest::new();
    let mut solved = 0usize;
    let mut churn_ops = 0usize;
    let mut churn_due = 0.0f64;
    let mut now_us = 1_000u64;
    let mut kernel_runs = 0u64;

    for profiles in &profiles {
        // Deterministic churn pacing: `churn_rate` ops per request on
        // average, alternating a threshold-1 quarantine with a release
        // far enough ahead that the breaker reopens.
        churn_due += churn_rate;
        while churn_due >= 1.0 {
            churn_due -= 1.0;
            now_us += 2_000_000;
            if churn_ops.is_multiple_of(2) {
                let id = ids[(churn_ops / 2) % ids.len()];
                let _ = scenario.services.report_failure(id, SimTime(now_us));
            } else {
                scenario.services.release_quarantines(SimTime(now_us));
            }
            churn_ops += 1;
        }
        let composer = Composer {
            formats: &scenario.formats,
            services: &scenario.services,
            network: &scenario.network,
        };

        let kernel_before = arena_reuse_total();
        let start = Instant::now();
        let via_store = store_cache
            .compose(
                &composer,
                profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("compose");
        store_latencies.push(start.elapsed().as_secs_f64() * 1e6);
        kernel_runs += arena_reuse_total() - kernel_before;

        let start = Instant::now();
        let via_rebuild = base_cache
            .compose(
                &composer,
                profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("compose");
        base_latencies.push(start.elapsed().as_secs_f64() * 1e6);

        let rendered = format!("{via_store:?}");
        assert_eq!(
            rendered,
            format!("{via_rebuild:?}"),
            "store-backed and rebuild-per-request plans diverged"
        );
        digest.update(&rendered);
        if via_store.is_some() {
            solved += 1;
        }
    }

    let store_stats = store_cache.stats();
    assert_eq!(
        store_stats,
        base_cache.stats(),
        "epoch revalidation must not alter hit/miss/stale classification"
    );
    let graph = store_cache.graph_stats();
    let store = path_stats(&mut store_latencies);
    let rebuild = path_stats(&mut base_latencies);
    let speedup = rebuild.seconds / store.seconds;
    let row = vec![
        format!("{churn_rate:.2}"),
        format!("{repeat_rate:.1}"),
        profiles.len().to_string(),
        store_stats.hits.to_string(),
        store_stats.stale.to_string(),
        graph.rebuilds.to_string(),
        graph.reuses.to_string(),
        kernel_runs.to_string(),
        format!("{:.1}", store.p50_us),
        format!("{:.1}", rebuild.p50_us),
        format!("{speedup:.2}x"),
    ];
    let line = Line::new()
        .num("churn_rate", churn_rate, 2)
        .num("repeat_rate", repeat_rate, 1)
        .raw("requests", profiles.len())
        .raw("solved", solved)
        .raw("churn_ops", churn_ops)
        .raw("hits", store_stats.hits)
        .raw("misses", store_stats.misses)
        .raw("stale", store_stats.stale)
        .raw("rebuilds", graph.rebuilds)
        .raw("reuses", graph.reuses)
        .raw("kernel_runs", kernel_runs)
        .digest("plan_digest", digest.finish())
        .timing()
        .raw("store", store.line())
        .raw("rebuild", rebuild.line())
        .num("speedup", speedup, 2);
    (line, row, speedup)
}

/// The cross-worker identity check: one repeat-heavy mix served by
/// `serve_batch` at each worker count, plans digested in request order.
fn worker_digests(config: &GeneratorConfig) -> u64 {
    let scenario = random_scenario(config, SEED);
    let profiles = profile_mix(&scenario, 64, 0.5);
    let requests: Vec<CompositionRequest> = profiles
        .into_iter()
        .map(|profiles| CompositionRequest {
            profiles,
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
        })
        .collect();
    let composer = scenario.composer();
    let digest_of = |plans: &[qosc_core::Result<Option<AdaptationPlan>>]| {
        let mut digest = Digest::new();
        for plan in plans {
            digest.update(&format!("{:?}", plan.as_ref().expect("compose")));
        }
        digest.finish()
    };

    let (reference, ()) = scorecard::worker_sweep("batch plans", &WORKER_COUNTS, |workers| {
        let cache = ShardedCompositionCache::new(16);
        let engine = EngineConfig {
            workers,
            options: SelectOptions::default(),
        };
        let served = serve_batch(&composer, &cache, &requests, &engine);
        (digest_of(&served), ())
    });
    // The rebuild-per-request path must land on the same bytes too.
    let cache = ShardedCompositionCache::new_without_graph_store(16);
    let engine = EngineConfig {
        workers: 1,
        options: SelectOptions::default(),
    };
    let served = serve_batch(&composer, &cache, &requests, &engine);
    assert_eq!(
        digest_of(&served),
        reference,
        "rebuild-per-request batch diverged from store-backed batch"
    );
    reference
}

fn main() {
    let mut card = Scorecard::from_args("selection_hotpath", "BENCH_hotpath.json");
    // Single-conversion services keep the per-edge `Optimize()` cost
    // low, so graph construction — the work the store amortizes — is
    // the dominant share of a cold compose, as in a deep CDN-style
    // deployment with many single-purpose transcoders.
    let config = GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };

    // Warm-up so code pages and allocator state don't bill to the
    // first timed cell.
    let _ = run_cell(&config, 0.0, 0.0);

    let mut table = TextTable::new(vec![
        "churn",
        "repeat",
        "requests",
        "hits",
        "stale",
        "rebuilds",
        "reuses",
        "kernels",
        "store p50 us",
        "rebuild p50 us",
        "speedup",
    ]);
    let arena_before = arena_reuse_total();
    // The headline acceptance number: at zero churn, all-distinct
    // requests (every compose a miss), graph reuse must at least halve
    // the compose cost relative to rebuild-per-request.
    let mut low_churn_speedup = 0.0;
    for churn_rate in CHURN_RATES {
        for repeat_rate in REPEAT_RATES {
            let (line, row, speedup) = run_cell(&config, churn_rate, repeat_rate);
            if churn_rate == 0.0 && repeat_rate == 0.0 {
                low_churn_speedup = speedup;
            }
            card.push(line);
            table.row(row);
        }
    }
    let arena_reuses = arena_reuse_total() - arena_before;
    let batch_digest = worker_digests(&config);

    println!("{}", table.render());
    println!(
        "arena reuses: {arena_reuses}, batch digest: {batch_digest:016x}, \
         all plans bitwise identical across paths and 1/2/4/8 workers"
    );
    if !card.deterministic() {
        assert!(
            low_churn_speedup >= 2.0,
            "expected >= 2x compose speedup at low churn, measured {low_churn_speedup:.2}x"
        );
    }

    card.write(
        &Line::new()
            .raw(
                "scenario",
                Line::new()
                    .raw("seed", SEED)
                    .raw("layers", config.layers)
                    .raw("services_per_layer", config.services_per_layer)
                    .raw("formats_per_layer", config.formats_per_layer),
            )
            .raw("deterministic", card.deterministic())
            .raw("arena_reuses", arena_reuses)
            .digest("batch_digest", batch_digest)
            .raw("workers_checked", list(WORKER_COUNTS))
            .timing()
            .num("low_churn_speedup", low_churn_speedup, 2),
    );
}
