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
//! Output goes to `BENCH_scale.json` (first CLI argument overrides the
//! path). `--deterministic` omits every measured field (timings, peak
//! RSS) so two runs produce byte-identical files — the CI `scale-smoke`
//! step runs the bin twice with `--max=10000` and `cmp`s the outputs.
//! Stdout carries one `peak_rss_mb services=N X` line per tier in either
//! mode; the same CI step holds the 10^4 line under a fixed ceiling.

use qosc_bench::scorecard::{self, percentile, Digest, WORKER_COUNTS};
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

struct Cell {
    services: usize,
    churn_rate: f64,
    clusters: usize,
    shards: u32,
    expanded_shards: usize,
    rounds: u32,
    full_expansion: bool,
    deviations: usize,
    compared: usize,
    flat_ran: bool,
    digest: u64,
    two_cold: PathStats,
    two_warm: PathStats,
    flat_cold: PathStats,
    flat_warm: PathStats,
}

/// Cold + warm sweep of one (size, churn) cell through both paths.
fn run_cell(size: usize, churn_rate: f64) -> Cell {
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

    Cell {
        services: config.total(),
        churn_rate,
        clusters: scenario.clusters,
        shards: scenario.services.shard_count(),
        expanded_shards,
        rounds,
        full_expansion,
        deviations,
        compared,
        flat_ran,
        digest: digest.finish(),
        two_cold: path_stats(&mut two_cold),
        two_warm: path_stats(&mut two_warm),
        flat_cold: if flat_ran {
            path_stats(&mut flat_cold)
        } else {
            PathStats::default()
        },
        flat_warm: if flat_ran {
            path_stats(&mut flat_warm)
        } else {
            PathStats::default()
        },
    }
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
    let mut out_path = "BENCH_scale.json".to_string();
    let mut deterministic = false;
    let mut max_services = usize::MAX;
    for arg in std::env::args().skip(1) {
        if arg == "--deterministic" {
            deterministic = true;
        } else if let Some(cap) = arg.strip_prefix("--max=") {
            max_services = cap.parse().expect("--max=N takes an integer");
        } else {
            out_path = arg;
        }
    }
    let sizes: Vec<usize> = SIZES
        .iter()
        .copied()
        .filter(|&s| s <= max_services)
        .collect();

    // Warm-up so code pages and allocator state don't bill to the
    // first timed cell.
    let _ = run_cell(1_000, 0.0);

    let mut cells = Vec::new();
    let mut tier_peak_rss_mb = Vec::new();
    for &size in &sizes {
        restart_peak_rss();
        for &churn_rate in &CHURN_RATES {
            cells.push(run_cell(size, churn_rate));
        }
        tier_peak_rss_mb.push(peak_rss_mb());
    }
    let worker_size = if sizes.contains(&10_000) {
        10_000
    } else {
        sizes.first().copied().unwrap_or(1_000)
    };
    let batch_digest = worker_digests(worker_size);

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
    for cell in &cells {
        table.row(vec![
            cell.services.to_string(),
            format!("{:.2}", cell.churn_rate),
            format!("{}/{}", cell.expanded_shards, cell.shards),
            cell.rounds.to_string(),
            format!("{:.1}", cell.two_cold.p50_us),
            if cell.flat_ran {
                format!("{:.1}", cell.flat_cold.p50_us)
            } else {
                "-".to_string()
            },
            if cell.flat_ran {
                format!("{:.2}x", cell.flat_cold.p50_us / cell.two_cold.p50_us)
            } else {
                "-".to_string()
            },
            format!("{:.1}", cell.two_warm.p50_us),
            if cell.flat_ran {
                format!("{:.1}", cell.flat_warm.p50_us)
            } else {
                "-".to_string()
            },
        ]);
    }
    println!("{}", table.render());
    for (size, peak) in sizes.iter().zip(&tier_peak_rss_mb) {
        println!("peak_rss_mb services={size} {peak:.1}");
    }

    let total_deviations: usize = cells.iter().map(|c| c.deviations).sum();
    let total_compared: usize = cells.iter().map(|c| c.compared).sum();
    assert_eq!(
        total_deviations, 0,
        "two-level plans deviated from the flat path in {total_deviations}/{total_compared} composes"
    );
    println!(
        "plan deviation: 0/{total_compared} compared composes, \
         worker digest {batch_digest:016x} invariant across 1/2/4/8 workers"
    );

    // The headline acceptance number: at 10^5 services / low churn, the
    // two-level cold compose must be at least 5x faster than flat.
    if !deterministic {
        if let Some(headline) = cells
            .iter()
            .find(|c| c.services == 100_000 && c.churn_rate == 0.25)
        {
            let speedup = headline.flat_cold.p50_us / headline.two_cold.p50_us;
            assert!(
                speedup >= 5.0,
                "expected >= 5x cold-compose speedup at 10^5 / low churn, measured {speedup:.2}x"
            );
            println!("cold-compose speedup at 10^5 / low churn: {speedup:.2}x");
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"registry_scale\",\n");
    json.push_str(&format!(
        "  \"sizes\": [{}],\n",
        sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    json.push_str(&format!("  \"flat_max_services\": {FLAT_MAX_SERVICES},\n"));
    json.push_str("  \"workers_checked\": [1, 2, 4, 8],\n");
    json.push_str(&format!("  \"worker_digest\": \"{batch_digest:016x}\",\n"));
    json.push_str(&format!("  \"plan_deviations\": {total_deviations},\n"));
    json.push_str(&format!("  \"plans_compared\": {total_compared},\n"));
    if !deterministic {
        json.push_str(&format!(
            "  \"tiers\": [{}],\n",
            sizes
                .iter()
                .zip(&tier_peak_rss_mb)
                .map(|(size, peak)| format!("{{\"services\": {size}, \"peak_rss_mb\": {peak:.1}}}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    json.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"services\": {}, \"churn_rate\": {:.2}, \"clusters\": {}, \"shards\": {}, \"expanded_shards\": {}, \"rounds\": {}, \"full_expansion\": {}, \"flat_ran\": {}, \"deviations\": {}, \"plan_digest\": \"{:016x}\"",
            cell.services,
            cell.churn_rate,
            cell.clusters,
            cell.shards,
            cell.expanded_shards,
            cell.rounds,
            cell.full_expansion,
            cell.flat_ran,
            cell.deviations,
            cell.digest,
        ));
        if !deterministic {
            json.push_str(&format!(
                ", \"two_level\": {{\"cold_p50_us\": {:.1}, \"cold_p99_us\": {:.1}, \"warm_p50_us\": {:.1}, \"warm_p99_us\": {:.1}}}",
                cell.two_cold.p50_us, cell.two_cold.p99_us, cell.two_warm.p50_us, cell.two_warm.p99_us,
            ));
            if cell.flat_ran {
                json.push_str(&format!(
                    ", \"flat\": {{\"cold_p50_us\": {:.1}, \"cold_p99_us\": {:.1}, \"warm_p50_us\": {:.1}, \"warm_p99_us\": {:.1}}}, \"cold_speedup\": {:.2}",
                    cell.flat_cold.p50_us, cell.flat_cold.p99_us, cell.flat_warm.p50_us, cell.flat_warm.p99_us,
                    cell.flat_cold.p50_us / cell.two_cold.p50_us,
                ));
            }
        }
        json.push_str(&format!(
            "}}{}\n",
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write summary");
    println!("wrote {out_path}");
}
