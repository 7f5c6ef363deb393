//! X12 — the resilience scorecard: chaos intensity × recovery policy.
//!
//! Sweeps the deterministic chaos generator ([`ChaosPlan`]) over a
//! seeded random mesh and measures how each recovery policy holds up:
//!
//! * `none`       — keep the dead chain (the X4 ablation),
//! * `recompose`  — detect and re-run selection on the surviving graph,
//! * `preplan`    — re-compose plus pre-planned backup chains,
//! * `ladder`     — re-compose plus the degradation ladder (relaxed
//!   floors → weighted combiner → drop secondary axes) when composition
//!   at the user's own floors comes back empty or below the floor.
//!
//! Emits `BENCH_resilience.json` (first CLI argument overrides the
//! path). Every value is derived from seeds and simulated time — no
//! wall clock — so the file is byte-identical across runs with the same
//! seeds, and CI snapshots it.
//!
//! Expected shape: availability falls with intensity for every policy;
//! `recompose` beats `none`; the `ladder` dominates `recompose` because
//! a squeezed path that no longer clears the user's 12 fps floor still
//! carries a degraded stream instead of going dark.

use qosc_bench::scorecard::{
    strict_scenario, strict_scenario_json, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED,
};
use qosc_bench::TextTable;
use qosc_pipeline::{run_resilient, ChaosModel, ChaosPlan, ResilienceConfig, ResilientRun};

const CHAOS_SEEDS: [u64; 3] = [101, 202, 303];
const INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const POLICIES: [&str; 4] = ["none", "recompose", "preplan", "ladder"];

fn policy_config(policy: &str, seed: u64) -> ResilienceConfig {
    ResilienceConfig {
        recompose: policy != "none",
        preplan_backups: policy == "preplan",
        ladder: policy == "ladder",
        seed,
        ..ResilienceConfig::default()
    }
}

struct Cell {
    intensity: f64,
    policy: &'static str,
    chaos_seed: u64,
    fault_events: usize,
    availability: f64,
    mean_satisfaction: f64,
    predicted_mean: f64,
    degraded_fraction: f64,
    recompositions: usize,
    failovers: usize,
    gave_up: bool,
    recovery_gap_us: Option<u64>,
}

/// Time-weighted mean of the *predicted* satisfaction over the run.
fn predicted_mean(run: &ResilientRun) -> f64 {
    let total: f64 = run.segments.iter().map(|s| s.duration.as_secs_f64()).sum();
    if total <= 0.0 {
        return 0.0;
    }
    // +0.0 renormalizes the -0.0 an empty `Sum for f64` starts from.
    (run.segments
        .iter()
        .map(|s| s.predicted * s.duration.as_secs_f64())
        .sum::<f64>()
        + 0.0)
        / total
}

/// Fraction of the run served on a rung below `Full`.
fn degraded_fraction(run: &ResilientRun) -> f64 {
    let total: f64 = run.segments.iter().map(|s| s.duration.as_secs_f64()).sum();
    if total <= 0.0 {
        return 0.0;
    }
    (run.segments
        .iter()
        .filter(|s| {
            s.rung
                .map(|r| r > qosc_core::DegradationRung::Full)
                .unwrap_or(false)
        })
        .map(|s| s.duration.as_secs_f64())
        .sum::<f64>()
        + 0.0)
        / total
}

fn run_cell(intensity: f64, policy: &'static str, chaos_seed: u64) -> Cell {
    // Network is stateful (faults, reservations), so each cell gets a
    // fresh copy of the *same* seeded scenario.
    let mut scenario = strict_scenario();
    let plan = {
        let topology = scenario.network.topology();
        let backbone = topology
            .node_by_name("backbone")
            .expect("generated meshes have a backbone");
        let model = ChaosModel {
            protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
            ..ChaosModel::default()
        };
        ChaosPlan::generate(topology, 0, &model, chaos_seed, intensity)
    };
    let config = policy_config(policy, chaos_seed);
    let run = run_resilient(
        &scenario.formats,
        &scenario.services,
        &mut scenario.network,
        &scenario.profiles,
        scenario.sender_host,
        scenario.receiver_host,
        plan.schedule(),
        &config,
    )
    .expect("resilient run completes");
    Cell {
        intensity,
        policy,
        chaos_seed,
        fault_events: plan.summary().fault_events,
        availability: run.availability(),
        mean_satisfaction: run.mean_satisfaction,
        predicted_mean: predicted_mean(&run),
        degraded_fraction: degraded_fraction(&run),
        recompositions: run.recompositions,
        failovers: run.failovers,
        gave_up: run.gave_up,
        recovery_gap_us: run.recovery_gap.map(|g| g.as_micros()),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_resilience.json".to_string());

    println!(
        "X12 — resilience scorecard (topology seed {TOPOLOGY_SEED}, chaos seeds {CHAOS_SEEDS:?})"
    );
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &intensity in &INTENSITIES {
        for &policy in &POLICIES {
            for &chaos_seed in &CHAOS_SEEDS {
                cells.push(run_cell(intensity, policy, chaos_seed));
            }
        }
    }

    // Per-(intensity, policy) means over the chaos seeds.
    let mut table = TextTable::new([
        "intensity",
        "policy",
        "availability",
        "measured sat",
        "predicted sat",
        "degraded time",
        "recomps",
        "failovers",
        "gave up",
    ]);
    let seeds = CHAOS_SEEDS.len() as f64;
    for &intensity in &INTENSITIES {
        for &policy in &POLICIES {
            let group: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.intensity == intensity && c.policy == policy)
                .collect();
            table.row([
                format!("{intensity:.2}"),
                policy.to_string(),
                format!(
                    "{:.3}",
                    group.iter().map(|c| c.availability).sum::<f64>() / seeds
                ),
                format!(
                    "{:.3}",
                    group.iter().map(|c| c.mean_satisfaction).sum::<f64>() / seeds
                ),
                format!(
                    "{:.3}",
                    group.iter().map(|c| c.predicted_mean).sum::<f64>() / seeds
                ),
                format!(
                    "{:.3}",
                    group.iter().map(|c| c.degraded_fraction).sum::<f64>() / seeds
                ),
                group
                    .iter()
                    .map(|c| c.recompositions)
                    .sum::<usize>()
                    .to_string(),
                group.iter().map(|c| c.failovers).sum::<usize>().to_string(),
                group.iter().filter(|c| c.gave_up).count().to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"resilience_matrix\",\n");
    json.push_str(&strict_scenario_json());
    json.push_str(&format!(
        "  \"chaos_seeds\": [{}],\n",
        CHAOS_SEEDS
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"intensity\": {:.2}, \"policy\": \"{}\", \"chaos_seed\": {}, \"fault_events\": {}, \"availability\": {:.6}, \"mean_satisfaction\": {:.6}, \"predicted_mean\": {:.6}, \"degraded_fraction\": {:.6}, \"recompositions\": {}, \"failovers\": {}, \"gave_up\": {}, \"recovery_gap_us\": {}}}{}\n",
            cell.intensity,
            cell.policy,
            cell.chaos_seed,
            cell.fault_events,
            cell.availability,
            cell.mean_satisfaction,
            cell.predicted_mean,
            cell.degraded_fraction,
            cell.recompositions,
            cell.failovers,
            cell.gave_up,
            cell.recovery_gap_us
                .map(|g| g.to_string())
                .unwrap_or_else(|| "null".to_string()),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
