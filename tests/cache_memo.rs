//! Work gate for the composition cache's compose memo: on a
//! `compose_hot`-shaped stream (the X15 mesh, a pool of users behind
//! the cache, the client reporting a failure against the chain it was
//! just served every twentieth request), the Figure-4 kernel runs once
//! per distinct (request class, world stamp) that a miss or a stale
//! probe meets — not once per miss or stale probe.
//!
//! The kernel count is the process-wide `arena_reuse_total()` delta, so
//! this binary holds a single `#[test]`: no other selection may land in
//! the counter while it runs.

use std::collections::BTreeSet;

use qosc_core::{arena_reuse_total, SelectOptions, ShardedCompositionCache, WorldStamp};
use qosc_netsim::SimTime;
use qosc_services::{QuarantineConfig, ServiceId};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const REQUESTS: usize = 2_000;
/// Users per class.
const USERS: usize = 32;
/// Failure reports per request, and virtual time between two, as in
/// `compose_hot`.
const CHURN_PER_REQUEST: f64 = 0.05;
const CHURN_ADVANCE_US: u64 = 400_000;

#[test]
fn the_kernel_runs_once_per_class_and_world_stamp() {
    let config = GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };
    let mut scenario = random_scenario(&config, 7);
    scenario.services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 1,
        cooldown_us: 1_000_000,
    });
    // Three classes, by budget; user names never split one.
    let classes = [None, Some(7.0), Some(10.0)];
    let pool: Vec<_> = classes
        .iter()
        .enumerate()
        .flat_map(|(class, &budget)| {
            let base = &scenario.profiles;
            (0..USERS).map(move |user| {
                let mut profiles = base.clone();
                profiles.user.name = format!("user-{class}-{user}");
                profiles.user.budget = budget;
                (class, profiles)
            })
        })
        .collect();
    let cache = ShardedCompositionCache::new(16);
    let options = SelectOptions::default();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut last_chain: Vec<ServiceId> = Vec::new();
    let mut churn_due = 0.0f64;
    let mut churn_ops = 0usize;
    let mut now_us = 1_000u64;
    let mut met = BTreeSet::new();
    let mut composing_probes = 0usize;

    // The test thread's first selection starts a cold arena and counts
    // no reuse; run it before counting.
    let _ = scenario.compose(&options).expect("the mesh composes");
    let kernel_before = arena_reuse_total();
    for _ in 0..REQUESTS {
        churn_due += CHURN_PER_REQUEST;
        while churn_due >= 1.0 && !last_chain.is_empty() {
            churn_due -= 1.0;
            now_us += CHURN_ADVANCE_US;
            let victim = last_chain[churn_ops % last_chain.len()];
            scenario.services.release_quarantines(SimTime(now_us));
            let _ = scenario.services.report_failure(victim, SimTime(now_us));
            churn_ops += 1;
        }
        let (class, profiles) = &pool[rng.random_range(0..pool.len())];
        let hits = cache.stats().hits;
        let plan = cache
            .compose(
                &scenario.composer(),
                profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("valid request");
        if cache.stats().hits == hits {
            composing_probes += 1;
            met.insert((
                *class,
                WorldStamp::of(&scenario.services, &scenario.network),
            ));
        }
        if let Some(plan) = plan {
            last_chain = plan.steps.iter().filter_map(|s| s.service).collect();
        }
    }
    let kernel_runs = arena_reuse_total() - kernel_before;

    let stats = cache.stats();
    assert!(stats.stale > 0 && churn_ops > 0, "{stats:?}");
    assert_eq!(composing_probes, stats.misses + stats.stale);
    assert_eq!(
        kernel_runs,
        met.len() as u64,
        "{composing_probes} misses and stale probes met {} (class, stamp) pairs",
        met.len()
    );
    assert!(kernel_runs * 4 < composing_probes as u64);
}
