//! X20: registry scale — two-level sharded composition vs the flat
//! Figure-4 path, from 10^3 to 10^6 registered services.
//!
//! Sweeps registry size × churn rate on the clustered scale scenario
//! ([`qosc_workload::scale`]). For every cell it measures
//!
//! * **cold** composes (fresh [`GraphStore`] each time — the full
//!   summary-prune + scoped-build cost vs the full flat build cost),
//! * **warm** composes (one shared store, churn applied between
//!   requests at the cell's rate — the steady-state path),
//! * shards-expanded counts and coordinator rounds for the two-level
//!   path, and
//! * **plan deviation vs the flat path, which must be exactly zero**
//!   wherever the flat baseline runs (sizes ≤ 10^5; at 10^6 the flat
//!   build is the very cost being engineered away).
//!
//! A separate pass re-composes one request mix across 1/2/4/8 worker
//! threads sharing a store and digests the plans in request order: the
//! digest must not depend on the worker count.
//!
//! Each size tier also reports its **peak resident set** (`VmHWM`, the
//! high-water mark restarted when the tier begins): everything the tier
//! held at once — the scenario's registry, both graph stores, and every
//! thread's selection arena — flat baseline included wherever it runs.
//!
//! Output goes to `BENCH_scale.json` (the first argument not starting
//! with `--` overrides the path). `--deterministic` omits every measured
//! field (timings, peak RSS) so two runs produce byte-identical files —
//! the CI scorecard step runs the bin twice with `--max=10000`, `cmp`s
//! the outputs and compares their cells with the checked-in ones.
//! Stdout carries one `peak_rss_mb services=N X` line per tier in either
//! mode; the same CI step holds the 10^4 line under a fixed ceiling.

use qosc_bench::scorecard::{self, list, percentile, Digest, Line, Scorecard, WORKER_COUNTS};
use qosc_bench::TextTable;
use qosc_core::{GraphStore, SelectOptions};
use qosc_netsim::SimTime;
use qosc_workload::scale::{scale_scenario, ScaleConfig, ScaleScenario};
use std::time::Instant;

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
const CHURN_RATES: [f64; 3] = [0.0, 0.25, 1.0];
const FLAT_MAX_SERVICES: usize = 100_000;
const WORKER_REQUESTS: usize = 32;

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the high-water mark at the current resident set, so the next
/// reading is the peak since now. Best effort: where the kernel refuses,
/// readings stay cumulative (sizes ascend, so still each tier's own).
fn restart_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[derive(Clone, Copy, Default)]
struct PathStats {
    p50_us: f64,
    p99_us: f64,
}

fn path_stats(latencies_us: &mut [f64]) -> PathStats {
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    PathStats {
        p50_us: percentile(latencies_us, 0.50),
        p99_us: percentile(latencies_us, 0.99),
    }
}

fn cold_iters(size: usize) -> usize {
    match size {
        0..=1_000 => 9,
        1_001..=10_000 => 7,
        10_001..=100_000 => 3,
        _ => 2,
    }
}

fn warm_iters(size: usize) -> usize {
    match size {
        0..=1_000 => 32,
        1_001..=10_000 => 16,
        10_001..=100_000 => 8,
        _ => 4,
    }
}

/// The flat baseline is the cost being engineered away — at 10^5 one
/// flat compose runs for tens of seconds, so it gets fewer samples.
fn flat_cold_iters(size: usize) -> usize {
    if size > 10_000 {
        2
    } else {
        cold_iters(size)
    }
}

fn flat_warm_iters(size: usize) -> usize {
    if size > 10_000 {
        3
    } else {
        warm_iters(size)
    }
}

/// What the plan-deviation and headline checks read off a cell.
struct Compared {
    deviations: usize,
    compared: usize,
    /// Flat over two-level cold p50; `None` where the flat path did not
    /// run.
    cold_speedup: Option<f64>,
}

/// Cold + warm sweep of one (size, churn) cell through both paths.
/// Returns the cell's scorecard line, its table row, and what its
/// checks compare.
fn run_cell(size: usize, churn_rate: f64) -> (Line, Vec<String>, Compared) {
    let config = ScaleConfig::default().with_total_services(size);
    let mut scenario = scale_scenario(&config);
    let options = SelectOptions::default();
    let flat_ran = size <= FLAT_MAX_SERVICES;
    let mut digest = Digest::new();
    let mut deviations = 0usize;
    let mut compared = 0usize;

    // --- cold: a fresh store per compose, both paths.
    let mut two_cold = Vec::new();
    let mut flat_cold = Vec::new();
    let mut expanded_shards = 0usize;
    let mut rounds = 0u32;
    let mut full_expansion = false;
    for iter in 0..cold_iters(size) {
        let store = GraphStore::new();
        let start = Instant::now();
        let two = scenario
            .composer()
            .compose_with_store(
                &store,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("two-level compose");
        two_cold.push(start.elapsed().as_secs_f64() * 1e6);
        expanded_shards = two.expanded_shards.len();
        rounds = two.rounds;
        full_expansion = two.full_expansion;
        let rendered = format!("{:?}", two.composition.plan);
        digest.update(&rendered);

        if flat_ran && iter < flat_cold_iters(size) {
            let store = GraphStore::new();
            let start = Instant::now();
            let flat = scenario
                .flat_composer()
                .compose_with_store(
                    &store,
                    &scenario.profiles,
                    scenario.sender_host,
                    scenario.receiver_host,
                    &options,
                )
                .expect("flat compose");
            flat_cold.push(start.elapsed().as_secs_f64() * 1e6);
            compared += 1;
            if rendered != format!("{:?}", flat.plan) {
                deviations += 1;
            }
        }
    }

    // --- warm: one shared store per path, churn between requests.
    // Churn cycles through the losing clusters, so the two-level scoped
    // graph stays reusable while the flat epoch keeps moving.
    let two_store = GraphStore::new();
    let flat_store = GraphStore::new();
    let mut two_warm = Vec::new();
    let mut flat_warm = Vec::new();
    let mut churn_due = 0.0f64;
    let mut churn_seq = 0usize;
    let mut now_us = 1_000u64;
    for iter in 0..warm_iters(size) {
        churn_due += churn_rate;
        while churn_due >= 1.0 {
            churn_due -= 1.0;
            now_us += 1_000;
            let cluster = 1 + churn_seq % (scenario.clusters.max(2) - 1);
            scenario.churn_cycle(cluster, SimTime(now_us));
            churn_seq += 1;
        }
        let start = Instant::now();
        let two = scenario
            .composer()
            .compose_with_store(
                &two_store,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("two-level compose");
        two_warm.push(start.elapsed().as_secs_f64() * 1e6);
        let rendered = format!("{:?}", two.composition.plan);
        digest.update(&rendered);

        if flat_ran && iter < flat_warm_iters(size) {
            let start = Instant::now();
            let flat = scenario
                .flat_composer()
                .compose_with_store(
                    &flat_store,
                    &scenario.profiles,
                    scenario.sender_host,
                    scenario.receiver_host,
                    &options,
                )
                .expect("flat compose");
            flat_warm.push(start.elapsed().as_secs_f64() * 1e6);
            compared += 1;
            if rendered != format!("{:?}", flat.plan) {
                deviations += 1;
            }
        }
    }

    let two_cold = path_stats(&mut two_cold);
    let two_warm = path_stats(&mut two_warm);
    let flat = flat_ran.then(|| (path_stats(&mut flat_cold), path_stats(&mut flat_warm)));
    let cold_speedup = flat.map(|(flat_cold, _)| flat_cold.p50_us / two_cold.p50_us);
    let shards = scenario.services.shard_count();
    let row = vec![
        config.total().to_string(),
        format!("{churn_rate:.2}"),
        format!("{expanded_shards}/{shards}"),
        rounds.to_string(),
        format!("{:.1}", two_cold.p50_us),
        flat.map_or("-".into(), |(cold, _)| format!("{:.1}", cold.p50_us)),
        cold_speedup.map_or("-".into(), |speedup| format!("{speedup:.2}x")),
        format!("{:.1}", two_warm.p50_us),
        flat.map_or("-".into(), |(_, warm)| format!("{:.1}", warm.p50_us)),
    ];
    let mut line = Line::new()
        .raw("services", config.total())
        .num("churn_rate", churn_rate, 2)
        .raw("clusters", scenario.clusters)
        .raw("shards", shards)
        .raw("expanded_shards", expanded_shards)
        .raw("rounds", rounds)
        .raw("full_expansion", full_expansion)
        .raw("flat_ran", flat_ran)
        .raw("deviations", deviations)
        .digest("plan_digest", digest.finish())
        .timing()
        .raw("two_level", timing_line(two_cold, two_warm));
    if let (Some((flat_cold, flat_warm)), Some(speedup)) = (flat, cold_speedup) {
        line = line
            .raw("flat", timing_line(flat_cold, flat_warm))
            .num("cold_speedup", speedup, 2);
    }
    let checked = Compared {
        deviations,
        compared,
        cold_speedup,
    };
    (line, row, checked)
}

/// A path's cold and warm latency percentiles.
fn timing_line(cold: PathStats, warm: PathStats) -> Line {
    Line::new()
        .num("cold_p50_us", cold.p50_us, 1)
        .num("cold_p99_us", cold.p99_us, 1)
        .num("warm_p50_us", warm.p50_us, 1)
        .num("warm_p99_us", warm.p99_us, 1)
}

/// One request mix composed at each worker count over a shared store;
/// plans digested in request order must agree byte for byte.
fn worker_digests(size: usize) -> u64 {
    let config = ScaleConfig::default().with_total_services(size);
    let scenario = scale_scenario(&config);
    let options = SelectOptions::default();
    let digest_for = |workers: usize| -> u64 {
        let store = GraphStore::new();
        let mut plans: Vec<Option<String>> = vec![None; WORKER_REQUESTS];
        std::thread::scope(|scope| {
            let chunks: Vec<_> = plans
                .chunks_mut(WORKER_REQUESTS.div_ceil(workers))
                .collect();
            for (w, chunk) in chunks.into_iter().enumerate() {
                let scenario: &ScaleScenario = &scenario;
                let store = &store;
                let options = &options;
                scope.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let profiles = scenario.request_profiles(w * 1_000 + i);
                        let two = scenario
                            .composer()
                            .compose_with_store(
                                store,
                                &profiles,
                                scenario.sender_host,
                                scenario.receiver_host,
                                options,
                            )
                            .expect("two-level compose");
                        *slot = Some(format!("{:?}", two.composition.plan));
                    }
                });
            }
        });
        let mut digest = Digest::new();
        for plan in &plans {
            digest.update(plan.as_deref().expect("every request served"));
        }
        digest.finish()
    };
    scorecard::worker_sweep("two-level plans", &WORKER_COUNTS, |workers| {
        (digest_for(workers), ())
    })
    .0
}

fn main() {
    let mut card = Scorecard::from_args("registry_scale", "BENCH_scale.json");
    let max_services = std::env::args()
        .find_map(|arg| {
            arg.strip_prefix("--max=")
                .map(|cap| cap.parse().expect("--max=N takes an integer"))
        })
        .unwrap_or(usize::MAX);
    let sizes: Vec<usize> = SIZES
        .iter()
        .copied()
        .filter(|&s| s <= max_services)
        .collect();

    // Warm-up so code pages and allocator state don't bill to the
    // first timed cell.
    let _ = run_cell(1_000, 0.0);

    let mut table = TextTable::new(vec![
        "services",
        "churn",
        "expanded",
        "rounds",
        "2L cold p50 us",
        "flat cold p50 us",
        "cold speedup",
        "2L warm p50 us",
        "flat warm p50 us",
    ]);
    let (mut total_deviations, mut total_compared) = (0, 0);
    // The headline acceptance number: at 10^5 services / low churn, the
    // two-level cold compose must be at least 5x faster than flat.
    let mut headline_speedup = None;
    let mut tiers = Vec::new();
    for &size in &sizes {
        restart_peak_rss();
        for churn_rate in CHURN_RATES {
            let (line, row, checked) = run_cell(size, churn_rate);
            total_deviations += checked.deviations;
            total_compared += checked.compared;
            if size == 100_000 && churn_rate == 0.25 {
                headline_speedup = checked.cold_speedup;
            }
            card.push(line);
            table.row(row);
        }
        tiers.push((size, peak_rss_mb()));
    }
    let worker_size = if sizes.contains(&10_000) {
        10_000
    } else {
        sizes.first().copied().unwrap_or(1_000)
    };
    let batch_digest = worker_digests(worker_size);

    println!("{}", table.render());
    for (size, peak) in &tiers {
        println!("peak_rss_mb services={size} {peak:.1}");
    }

    assert_eq!(
        total_deviations, 0,
        "two-level plans deviated from the flat path in {total_deviations}/{total_compared} composes"
    );
    println!(
        "plan deviation: 0/{total_compared} compared composes, \
         worker digest {batch_digest:016x} invariant across 1/2/4/8 workers"
    );

    if let Some(speedup) = headline_speedup.filter(|_| !card.deterministic()) {
        assert!(
            speedup >= 5.0,
            "expected >= 5x cold-compose speedup at 10^5 / low churn, measured {speedup:.2}x"
        );
        println!("cold-compose speedup at 10^5 / low churn: {speedup:.2}x");
    }

    let tiers = tiers.iter().map(|&(size, peak)| {
        Line::new()
            .raw("services", size)
            .num("peak_rss_mb", peak, 1)
    });
    card.write(
        &Line::new()
            .raw("sizes", list(&sizes))
            .raw("deterministic", card.deterministic())
            .raw("flat_max_services", FLAT_MAX_SERVICES)
            .raw("workers_checked", list(WORKER_COUNTS))
            .digest("worker_digest", batch_digest)
            .raw("plan_deviations", total_deviations)
            .raw("plans_compared", total_compared)
            .timing()
            .raw("tiers", list(tiers)),
    );
}
