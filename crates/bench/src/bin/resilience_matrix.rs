//! X12 — the resilience scorecard: chaos intensity × recovery policy.
//!
//! Sweeps the deterministic chaos generator ([`ChaosPlan`]) over a
//! seeded random mesh and measures how each recovery policy holds up.
//! Every cell is one 30 s session on the serving loop
//! ([`scorecard::one_session`]) with the chaos plan's network faults as
//! world events:
//!
//! * `none`       — `max_recompositions: 0`: the first fault that kills
//!   the chain closes the session (the X4 ablation),
//! * `recompose`  — re-run selection on the surviving graph at the fault
//!   instant, at the user's own floors only (`ladder: false`),
//! * `ladder`     — re-compose down the degradation ladder (relaxed
//!   floors → weighted combiner → drop secondary axes) when composition
//!   at the user's own floors comes back empty or below the floor.
//!
//! Emits `BENCH_resilience.json` (first CLI argument overrides the
//! path). Every value is derived from seeds and simulated time — no
//! wall clock — so the file is byte-identical across runs with the same
//! seeds, and CI `cmp`s a fresh one against the checked-in copy. Every
//! cell runs at 1/2/4/8 workers and the run digests must agree; the
//! file records the digest.
//!
//! Expected shape: availability falls with intensity for `none` and
//! `recompose`; `recompose` beats `none`; the `ladder` dominates
//! `recompose` because
//! a squeezed path that no longer clears the user's 12 fps floor still
//! carries a degraded stream, where `recompose` finds no plan and the
//! session closes as `starved`.

use qosc_bench::scorecard::{
    self, strict_scenario, strict_scenario_json, STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED,
    WORKER_COUNTS,
};
use qosc_bench::TextTable;
use qosc_core::{run_sessions, CloseReason, SessionEngineConfig};
use qosc_pipeline::{ChaosModel, ChaosPlan};
use qosc_workload::Scenario;

const CHAOS_SEEDS: [u64; 3] = [101, 202, 303];
const INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const POLICIES: [&str; 3] = ["none", "recompose", "ladder"];

fn policy_config(
    policy: &str,
    mut config: SessionEngineConfig,
    workers: usize,
) -> SessionEngineConfig {
    config.resilient.workers = workers;
    match policy {
        "none" => config.max_recompositions = 0,
        "recompose" => config.resilient.ladder = false,
        _ => config.resilient.ladder = true,
    }
    config
}

struct Cell {
    intensity: f64,
    policy: &'static str,
    chaos_seed: u64,
    fault_events: usize,
    availability: f64,
    mean_satisfaction: f64,
    degraded_fraction: f64,
    recompositions: u32,
    close: Option<CloseReason>,
    digest: u64,
}

fn run_cell(scenario: &Scenario, intensity: f64, policy: &'static str, chaos_seed: u64) -> Cell {
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
    let cell = format!("intensity {intensity:.2} × {policy} × chaos seed {chaos_seed}");
    let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
        let (mut world, request, config) = scorecard::one_session(scenario, plan.schedule());
        let config = policy_config(policy, config, workers);
        let report = run_sessions(&mut world, &[request], &config, &qosc_telemetry::NoopSink);
        (scorecard::sessions_digest(&report), report)
    });
    let outcome = &report.outcomes[0];
    let horizon = report.end_us as f64;
    Cell {
        intensity,
        policy,
        chaos_seed,
        fault_events: plan.summary().fault_events,
        availability: outcome.lit_us as f64 / horizon,
        mean_satisfaction: outcome.satisfaction_us / horizon,
        degraded_fraction: outcome.rung_us[1..].iter().sum::<u64>() as f64 / horizon,
        recompositions: outcome.recompositions,
        close: outcome.close,
        digest,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_resilience.json".to_string());

    println!(
        "X12 — resilience scorecard (topology seed {TOPOLOGY_SEED}, chaos seeds {CHAOS_SEEDS:?}, \
         workers {WORKER_COUNTS:?})"
    );
    println!();

    let scenario = strict_scenario();
    let mut cells: Vec<Cell> = Vec::new();
    for &intensity in &INTENSITIES {
        for &policy in &POLICIES {
            for &chaos_seed in &CHAOS_SEEDS {
                cells.push(run_cell(&scenario, intensity, policy, chaos_seed));
            }
        }
    }

    // Per-(intensity, policy) means over the chaos seeds.
    let mut table = TextTable::new([
        "intensity",
        "policy",
        "availability",
        "satisfaction",
        "degraded time",
        "recomps",
        "gave up",
        "starved",
    ]);
    let seeds = CHAOS_SEEDS.len() as f64;
    for &intensity in &INTENSITIES {
        for &policy in &POLICIES {
            let group: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.intensity == intensity && c.policy == policy)
                .collect();
            let closed = |reason: CloseReason| {
                group
                    .iter()
                    .filter(|c| c.close == Some(reason))
                    .count()
                    .to_string()
            };
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
                    group.iter().map(|c| c.degraded_fraction).sum::<f64>() / seeds
                ),
                group
                    .iter()
                    .map(|c| c.recompositions)
                    .sum::<u32>()
                    .to_string(),
                closed(CloseReason::GaveUp),
                closed(CloseReason::Starved),
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
    json.push_str(&format!(
        "  \"workers_verified\": [{}],\n",
        WORKER_COUNTS
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"intensity\": {:.2}, \"policy\": \"{}\", \"chaos_seed\": {}, \"fault_events\": {}, \"availability\": {:.6}, \"mean_satisfaction\": {:.6}, \"degraded_fraction\": {:.6}, \"recompositions\": {}, \"close\": \"{}\", \"digest\": \"{:016x}\"}}{}\n",
            cell.intensity,
            cell.policy,
            cell.chaos_seed,
            cell.fault_events,
            cell.availability,
            cell.mean_satisfaction,
            cell.degraded_fraction,
            cell.recompositions,
            cell.close.map_or("active_at_end", CloseReason::label),
            cell.digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
