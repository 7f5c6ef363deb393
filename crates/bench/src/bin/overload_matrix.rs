//! X13 — the overload scorecard: offered load × admission policy.
//!
//! Sweeps a seeded open-loop Poisson-burst arrival schedule
//! ([`poisson_burst_arrivals`]) over the strict 12 fps mesh at
//! 0.5×/1×/2×/4× of virtual capacity. Each arrival is a zero-hold
//! session on the serving loop ([`run_sessions`]), opened through the
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
//! comes from a [`ServedWorld`].
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
    session_requests, strict_scenario, strict_scenario_json, ServedWorld,
    STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED,
};
use qosc_bench::TextTable;
use qosc_core::{
    plan_admission, run_sessions, AdmissionConfig, DegradationRung, PriorityClass,
    ResilientEngineConfig, SessionEngineConfig, StaticWorld,
};
use qosc_telemetry::NoopSink;
use qosc_workload::arrivals::{poisson_burst_arrivals, ArrivalPattern, SessionArrival};

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

struct Cell {
    load: &'static str,
    policy: &'static str,
    arrival_seed: u64,
    offered: usize,
    offered_interactive: usize,
    admitted: usize,
    shed_queue_full: usize,
    shed_predicted_late: usize,
    shed_queue_timeout: usize,
    served_full: usize,
    degraded: usize,
    failed: usize,
    deadline_misses: usize,
    goodput: f64,
    interactive_goodput: f64,
    interactive_p99_latency_us: u64,
    brownout_steps: u32,
    peak_rung: &'static str,
    final_limit: u32,
    limit_decreases: u32,
    mean_satisfaction: f64,
}

fn run_cell(load: &'static str, load_pct: u64, policy: &'static str, arrival_seed: u64) -> Cell {
    let scenario = strict_scenario();
    let arrivals = poisson_burst_arrivals(&pattern_for(load_pct), arrival_seed);
    let sessions = session_requests(
        &scenario,
        arrivals
            .iter()
            .map(|&meta| SessionArrival {
                meta,
                hold_us: 0,
                demand_bps: 0,
            })
            .collect(),
    );
    let admission = policy_config(policy);
    let config = SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers: 4,
            ..ResilientEngineConfig::default()
        },
        admission: Some(admission),
        tick_us: 0,
        session_spans: false,
        abr: None,
        sla: None,
        ..SessionEngineConfig::default()
    };
    let mut world = ServedWorld::new(StaticWorld {
        formats: &scenario.formats,
        services: &scenario.services,
        network: &scenario.network,
    });
    let report = run_sessions(&mut world, &sessions, &config, &NoopSink);
    let plan = plan_admission(&arrivals, &admission);
    let stats = report.admission;
    assert_eq!(stats, plan.stats, "the loop admits as the offline plan");

    for (outcome, decision) in report.outcomes.iter().zip(&plan.decisions) {
        assert_eq!(outcome.shed, decision.shed, "the loop sheds as the plan");
    }
    // Every session is served (completed, at its final rung), failed at
    // open, or shed.
    let served_full = report
        .outcomes
        .iter()
        .filter(|o| o.final_rung == Some(DegradationRung::Full))
        .count();
    let degraded = report.counters.completed - served_full;
    let failed = report.counters.failed_open;

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

    Cell {
        load,
        policy,
        arrival_seed,
        offered: arrivals.len(),
        offered_interactive: interactive.len(),
        admitted: stats.admitted,
        shed_queue_full: stats.shed_queue_full,
        shed_predicted_late: stats.shed_predicted_late,
        shed_queue_timeout: stats.shed_queue_timeout,
        served_full,
        degraded,
        failed,
        deadline_misses: stats.deadline_misses,
        goodput,
        interactive_goodput,
        interactive_p99_latency_us,
        brownout_steps: stats.brownout_steps,
        peak_rung: stats.peak_rung.label(),
        final_limit: stats.final_limit,
        limit_decreases: stats.limit_decreases,
        mean_satisfaction,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_overload.json".to_string());

    println!(
        "X13 — overload scorecard (topology seed {TOPOLOGY_SEED}, arrival seeds {ARRIVAL_SEEDS:?}, \
         capacity {} req/s)",
        VIRTUAL_CORES as u64 * 1_000_000 / MEAN_COST_US
    );
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &(load, load_pct) in &LOADS {
        for &policy in &POLICIES {
            for &arrival_seed in &ARRIVAL_SEEDS {
                cells.push(run_cell(load, load_pct, policy, arrival_seed));
            }
        }
    }

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
    let seeds = ARRIVAL_SEEDS.len() as f64;
    for &(load, _) in &LOADS {
        for &policy in &POLICIES {
            let group: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.load == load && c.policy == policy)
                .collect();
            let shed: usize = group
                .iter()
                .map(|c| c.shed_queue_full + c.shed_predicted_late + c.shed_queue_timeout)
                .sum();
            let offered: usize = group.iter().map(|c| c.offered).sum();
            table.row([
                load.to_string(),
                policy.to_string(),
                format!(
                    "{:.3}",
                    group.iter().map(|c| c.goodput).sum::<f64>() / seeds
                ),
                format!(
                    "{:.3}",
                    group.iter().map(|c| c.interactive_goodput).sum::<f64>() / seeds
                ),
                format!(
                    "{:.1}",
                    group
                        .iter()
                        .map(|c| c.interactive_p99_latency_us as f64 / 1_000.0)
                        .sum::<f64>()
                        / seeds
                ),
                format!("{:.0}%", shed as f64 * 100.0 / offered.max(1) as f64),
                group.iter().map(|c| c.degraded).sum::<usize>().to_string(),
                group
                    .iter()
                    .map(|c| c.final_limit.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
            ]);
        }
    }
    println!("{}", table.render());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"overload_matrix\",\n");
    json.push_str(&strict_scenario_json());
    json.push_str(&format!(
        "  \"capacity\": {{\"virtual_cores\": {VIRTUAL_CORES}, \"mean_cost_us\": {MEAN_COST_US}}},\n"
    ));
    json.push_str(&format!(
        "  \"arrival_seeds\": [{}],\n",
        ARRIVAL_SEEDS
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"load\": \"{}\", \"policy\": \"{}\", \"arrival_seed\": {}, \"offered\": {}, \"offered_interactive\": {}, \"admitted\": {}, \"shed_queue_full\": {}, \"shed_predicted_late\": {}, \"shed_queue_timeout\": {}, \"served_full\": {}, \"degraded\": {}, \"failed\": {}, \"deadline_misses\": {}, \"goodput\": {:.6}, \"interactive_goodput\": {:.6}, \"interactive_p99_latency_us\": {}, \"brownout_steps\": {}, \"peak_rung\": \"{}\", \"final_limit\": {}, \"limit_decreases\": {}, \"mean_satisfaction\": {:.6}}}{}\n",
            c.load,
            c.policy,
            c.arrival_seed,
            c.offered,
            c.offered_interactive,
            c.admitted,
            c.shed_queue_full,
            c.shed_predicted_late,
            c.shed_queue_timeout,
            c.served_full,
            c.degraded,
            c.failed,
            c.deadline_misses,
            c.goodput,
            c.interactive_goodput,
            c.interactive_p99_latency_us,
            c.brownout_steps,
            c.peak_rung,
            c.final_limit,
            c.limit_decreases,
            c.mean_satisfaction,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
