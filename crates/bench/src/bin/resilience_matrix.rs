//! X12 — the resilience scorecard: chaos intensity × recovery policy.
//!
//! Sweeps the deterministic chaos generator
//! ([`ChaosPlan`](qosc_pipeline::ChaosPlan)) over a
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
    self, list, strict_scenario, strict_scenario_line, Line, Scorecard,
    STRICT_TOPOLOGY_SEED as TOPOLOGY_SEED, WORKER_COUNTS,
};
use qosc_bench::TextTable;
use qosc_core::{run_sessions, CloseReason, SessionEngineConfig};
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

/// One (intensity, policy) group: a scorecard line per chaos seed, and
/// one table row of means over the seeds.
fn run_group(
    scenario: &Scenario,
    intensity: f64,
    policy: &str,
    card: &mut Scorecard,
    table: &mut TextTable,
) {
    let (mut availability, mut satisfaction, mut degraded) = (0.0, 0.0, 0.0);
    let (mut recompositions, mut gave_up, mut starved) = (0, 0, 0);
    for chaos_seed in CHAOS_SEEDS {
        let plan = scorecard::chaos_plan(scenario, 0, chaos_seed, intensity);
        let cell = format!("intensity {intensity:.2} × {policy} × chaos seed {chaos_seed}");
        let (digest, report) = scorecard::worker_sweep(&cell, &WORKER_COUNTS, |workers| {
            let (mut world, request, config) = scorecard::one_session(scenario, plan.schedule());
            let config = policy_config(policy, config, workers);
            let report = run_sessions(&mut world, &[request], &config, &qosc_telemetry::NoopSink);
            (scorecard::sessions_digest(&report), report)
        });
        let outcome = &report.outcomes[0];
        let horizon = report.end_us as f64;
        let lit = outcome.lit_us as f64 / horizon;
        let mean_satisfaction = outcome.satisfaction_us / horizon;
        let degraded_fraction = outcome.rung_us[1..].iter().sum::<u64>() as f64 / horizon;
        availability += lit;
        satisfaction += mean_satisfaction;
        degraded += degraded_fraction;
        recompositions += outcome.recompositions;
        gave_up += usize::from(outcome.close == Some(CloseReason::GaveUp));
        starved += usize::from(outcome.close == Some(CloseReason::Starved));
        card.push(
            Line::new()
                .num("intensity", intensity, 2)
                .str("policy", policy)
                .raw("chaos_seed", chaos_seed)
                .raw("fault_events", plan.summary().fault_events)
                .num("availability", lit, 6)
                .num("mean_satisfaction", mean_satisfaction, 6)
                .num("degraded_fraction", degraded_fraction, 6)
                .raw("recompositions", outcome.recompositions)
                .str(
                    "close",
                    outcome.close.map_or("active_at_end", CloseReason::label),
                )
                .digest("digest", digest),
        );
    }
    let seeds = CHAOS_SEEDS.len() as f64;
    table.row([
        format!("{intensity:.2}"),
        policy.to_string(),
        format!("{:.3}", availability / seeds),
        format!("{:.3}", satisfaction / seeds),
        format!("{:.3}", degraded / seeds),
        recompositions.to_string(),
        gave_up.to_string(),
        starved.to_string(),
    ]);
}

fn main() {
    let mut card = Scorecard::from_args("resilience_matrix", "BENCH_resilience.json");

    println!(
        "X12 — resilience scorecard (topology seed {TOPOLOGY_SEED}, chaos seeds {CHAOS_SEEDS:?}, \
         workers {WORKER_COUNTS:?})"
    );
    println!();

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
    let scenario = strict_scenario();
    for intensity in INTENSITIES {
        for policy in POLICIES {
            run_group(&scenario, intensity, policy, &mut card, &mut table);
        }
    }
    println!("{}", table.render());

    card.write(
        &Line::new()
            .raw("scenario", strict_scenario_line())
            .raw("chaos_seeds", list(CHAOS_SEEDS))
            .raw("workers_verified", list(WORKER_COUNTS)),
    );
}
