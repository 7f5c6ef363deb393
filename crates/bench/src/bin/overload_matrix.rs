//! X13 — the overload scorecard: offered load × admission policy.
//!
//! Sweeps a seeded open-loop Poisson-burst arrival schedule
//! ([`poisson_burst_arrivals`]) over the strict 12 fps mesh at
//! 0.5×/1×/2×/4× of virtual capacity. Each arrival is a zero-hold
//! session on the serving loop ([`serve_zero_hold`]), opened through the
//! admission queue under one of four policies:
//!
//! * `none`          — unbounded FIFO, fixed concurrency: the
//!   unprotected engine,
//! * `shed`          — deadline-aware shedding + bounded queue + AIMD
//!   adaptive concurrency, one class,
//! * `shed_priority` — plus strict-priority Interactive/Standard/
//!   Background queues,
//! * `full`          — plus brown-out coupling into the degradation
//!   ladder (sustained pressure lowers the starting rung; degraded
//!   compositions are cheaper and drain the queue).
//!
//! The loop decides admission one pump at a time; the offline
//! [`plan_admission`] makes the same decisions (the bin asserts equal
//! aggregates and per-request verdicts) and supplies each request's
//! virtual latency and deadline verdict. What each session was served
//! comes from a [`ServedWorld`](qosc_bench::scorecard::ServedWorld).
//!
//! Emits `BENCH_overload.json` (first CLI argument overrides the
//! path). Admission runs on a virtual clock and composition is
//! deterministic, so the file is byte-identical across runs and worker
//! counts, and CI snapshots it.
//!
//! Expected shape: at sub-saturation every policy is equivalent (and
//! plans are bitwise identical to the unprotected run — admission is a
//! front-end). Past saturation the unprotected queue grows without
//! bound and interactive goodput collapses; shed keeps goodput near
//! capacity; priority protects the interactive class specifically; and
//! brown-out holds interactive goodput ≥ 0.9 at 4× offered load.

use qosc_bench::scorecard::{
    list, serve_zero_hold, strict_scenario, strict_scenario_line, Line, Scorecard,
    STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED,
};
use qosc_bench::TextTable;
use qosc_core::{plan_admission, AdmissionConfig, DegradationRung, PriorityClass};
use qosc_telemetry::NoopSink;
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern};

const ARRIVAL_SEEDS: [u64; 3] = [41, 42, 43];
/// Offered load as a percentage of virtual capacity.
const LOADS: [(&str, u64); 4] = [("0.5x", 50), ("1x", 100), ("2x", 200), ("4x", 400)];
const POLICIES: [&str; 4] = ["none", "shed", "shed_priority", "full"];
const VIRTUAL_CORES: u32 = 4;
const MEAN_COST_US: u64 = 20_000;

fn policy_config(policy: &str) -> AdmissionConfig {
    let base = match policy {
        "none" => AdmissionConfig::unprotected(),
        "shed" => AdmissionConfig::shed_only(),
        "shed_priority" => AdmissionConfig::shed_priority(),
        "full" => AdmissionConfig::protected(),
        other => panic!("unknown policy {other}"),
    };
    AdmissionConfig {
        virtual_cores: VIRTUAL_CORES,
        initial_limit: VIRTUAL_CORES,
        max_limit: 8,
        ..base
    }
}

fn pattern_for(load_pct: u64) -> ArrivalPattern {
    // Virtual capacity in requests per second, de-rated for the burst
    // multiplier (mean rate = base rate × 1.2 with the default bursts).
    let capacity_per_sec = VIRTUAL_CORES as u64 * 1_000_000 / MEAN_COST_US;
    let target_mean = capacity_per_sec * load_pct / 100;
    ArrivalPattern {
        rate_per_sec: target_mean * 100 / 120,
        ..ArrivalPattern::default()
    }
}

/// One (load, policy) group: a scorecard line per arrival seed, and one
/// table row of means (sums for the counts) over the seeds.
fn run_group(
    (load, load_pct): (&str, u64),
    policy: &str,
    card: &mut Scorecard,
    table: &mut TextTable,
) {
    let (mut goodput_sum, mut interactive_sum, mut p99_ms_sum) = (0.0, 0.0, 0.0);
    let (mut offered, mut shed, mut degraded_sum) = (0, 0, 0);
    let mut limits = Vec::new();
    for arrival_seed in ARRIVAL_SEEDS {
        let scenario = strict_scenario();
        let arrivals = poisson_burst_arrivals(&pattern_for(load_pct), arrival_seed);
        let admission = policy_config(policy);
        let (report, world) = serve_zero_hold(&scenario, &arrivals, 4, Some(admission), &NoopSink);
        let plan = plan_admission(&arrivals, &admission);
        let stats = report.admission;
        assert_eq!(stats, plan.stats, "the loop admits as the offline plan");

        for (outcome, decision) in report.outcomes.iter().zip(&plan.decisions) {
            assert_eq!(outcome.shed, decision.shed, "the loop sheds as the plan");
        }
        // Every session is served (completed, at its final rung), failed
        // at open, or shed.
        let served_full = report
            .outcomes
            .iter()
            .filter(|o| o.final_rung == Some(DegradationRung::Full))
            .count();
        let degraded = report.counters.completed - served_full;

        // A request is *good* when it was admitted, produced a plan, and
        // its virtual finish landed within its deadline budget.
        let good = |i: usize| plan.decisions[i].deadline_met && world.plan(i).is_some();
        let goodput =
            (0..arrivals.len()).filter(|&i| good(i)).count() as f64 / arrivals.len().max(1) as f64;

        let interactive: Vec<usize> = (0..arrivals.len())
            .filter(|&i| arrivals[i].priority == PriorityClass::Interactive)
            .collect();
        let interactive_good = interactive.iter().filter(|&&i| good(i)).count();
        let interactive_goodput = interactive_good as f64 / interactive.len().max(1) as f64;
        let mut interactive_latencies: Vec<u64> = interactive
            .iter()
            .filter(|&&i| plan.decisions[i].admitted)
            .map(|&i| plan.decisions[i].latency_us)
            .collect();
        interactive_latencies.sort_unstable();
        let interactive_p99_latency_us = if interactive_latencies.is_empty() {
            0
        } else {
            interactive_latencies[(interactive_latencies.len() * 99).div_ceil(100).max(1) - 1]
        };

        let served: Vec<usize> = (0..arrivals.len())
            .filter(|&i| world.plan(i).is_some())
            .collect();
        let mean_satisfaction = if served.is_empty() {
            0.0
        } else {
            served.iter().map(|&i| world.satisfaction(i)).sum::<f64>() / served.len() as f64
        };

        goodput_sum += goodput;
        interactive_sum += interactive_goodput;
        p99_ms_sum += interactive_p99_latency_us as f64 / 1_000.0;
        offered += arrivals.len();
        shed += stats.shed_queue_full + stats.shed_predicted_late + stats.shed_queue_timeout;
        degraded_sum += degraded;
        limits.push(stats.final_limit.to_string());
        card.push(
            Line::new()
                .str("load", load)
                .str("policy", policy)
                .raw("arrival_seed", arrival_seed)
                .raw("offered", arrivals.len())
                .raw("offered_interactive", interactive.len())
                .raw("admitted", stats.admitted)
                .raw("shed_queue_full", stats.shed_queue_full)
                .raw("shed_predicted_late", stats.shed_predicted_late)
                .raw("shed_queue_timeout", stats.shed_queue_timeout)
                .raw("served_full", served_full)
                .raw("degraded", degraded)
                .raw("failed", report.counters.failed_open)
                .raw("deadline_misses", stats.deadline_misses)
                .num("goodput", goodput, 6)
                .num("interactive_goodput", interactive_goodput, 6)
                .raw("interactive_p99_latency_us", interactive_p99_latency_us)
                .raw("brownout_steps", stats.brownout_steps)
                .str("peak_rung", stats.peak_rung.label())
                .raw("final_limit", stats.final_limit)
                .raw("limit_decreases", stats.limit_decreases)
                .num("mean_satisfaction", mean_satisfaction, 6),
        );
    }
    let seeds = ARRIVAL_SEEDS.len() as f64;
    table.row([
        load.to_string(),
        policy.to_string(),
        format!("{:.3}", goodput_sum / seeds),
        format!("{:.3}", interactive_sum / seeds),
        format!("{:.1}", p99_ms_sum / seeds),
        format!("{:.0}%", shed as f64 * 100.0 / offered.max(1) as f64),
        degraded_sum.to_string(),
        limits.join("/"),
    ]);
}

fn main() {
    let mut card = Scorecard::from_args("overload_matrix", "BENCH_overload.json");

    println!(
        "X13 — overload scorecard (topology seed {TOPOLOGY_SEED}, arrival seeds {ARRIVAL_SEEDS:?}, \
         capacity {} req/s)",
        VIRTUAL_CORES as u64 * 1_000_000 / MEAN_COST_US
    );
    println!();

    let mut table = TextTable::new([
        "load",
        "policy",
        "goodput",
        "interactive",
        "i p99 (ms)",
        "shed",
        "degraded",
        "limit",
    ]);
    for load in LOADS {
        for policy in POLICIES {
            run_group(load, policy, &mut card, &mut table);
        }
    }
    println!("{}", table.render());

    let admission = policy_config("full");
    card.write(
        &Line::new()
            .raw("scenario", strict_scenario_line())
            .raw(
                "capacity",
                Line::new()
                    .raw("virtual_cores", admission.virtual_cores)
                    .raw("mean_cost_us", MEAN_COST_US),
            )
            .raw("arrival_seeds", list(ARRIVAL_SEEDS)),
    );
}
