//! Work gate for the composition cache's compose memo: on a
//! `compose_hot`-shaped stream (the X15 mesh, a pool of users behind
//! the cache, the client reporting a failure against the chain it was
//! just served every twentieth request), the Figure-4 kernel runs once
//! per distinct (request class, world content) that a miss or a stale
//! probe meets — the world content being the network version and the
//! registry's selection view — not once per miss or stale probe, and
//! not once per world stamp: a world that returns to an earlier state
//! is answered from the class's history.
//!
//! The first test also counts the graph fetches of the memo's
//! `GraphStore`: the reuses a memo miss gets from it.
//!
//! The kernel count is the process-wide `arena_reuse_total()` delta, so
//! every test of this binary holds [`KERNEL_COUNTER`] while it runs: no
//! other selection may land in the counter meanwhile.

use std::collections::BTreeSet;
use std::sync::Mutex;

use qosc_core::{arena_reuse_total, SelectOptions, ShardedCompositionCache};
use qosc_netsim::SimTime;
use qosc_services::{QuarantineConfig, ServiceId};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Held by each test for as long as it reads the kernel counter.
static KERNEL_COUNTER: Mutex<()> = Mutex::new(());

const REQUESTS: usize = 2_000;
/// Users per class.
const USERS: usize = 32;
/// Failure reports per request, and virtual time between two, as in
/// `compose_hot`.
const CHURN_PER_REQUEST: f64 = 0.05;
const CHURN_ADVANCE_US: u64 = 400_000;

/// The X15 mesh of `compose_hot`, with one-strike quarantines.
fn mesh() -> Scenario {
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
    scenario
}

/// What a compose reads of the world that can move, owned: the network
/// version and the registry's selection view.
type Content = (u64, u64, Vec<ServiceId>, Vec<(ServiceId, u64)>);

fn content(scenario: &Scenario) -> Content {
    let view = scenario.services.selection_view();
    (
        scenario.network.version(),
        view.membership,
        view.quarantined.to_vec(),
        view.penalties.to_vec(),
    )
}

#[test]
fn the_kernel_runs_once_per_class_and_world_content() {
    let _counter = KERNEL_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let mut scenario = mesh();
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
            met.insert((*class, content(&scenario)));
        }
        if let Some(plan) = plan {
            last_chain = plan.steps.iter().filter_map(|s| s.service).collect();
        }
    }
    let kernel_runs = arena_reuse_total() - kernel_before;
    let graphs = cache.graph_stats();
    println!(
        "{composing_probes} composing probes, {kernel_runs} kernel runs, graph store: \
         {} rebuilds, {} reuses",
        graphs.rebuilds, graphs.reuses
    );

    let stats = cache.stats();
    assert!(stats.stale > 0 && churn_ops > 0, "{stats:?}");
    assert_eq!(composing_probes, stats.misses + stats.stale);
    assert_eq!(
        kernel_runs,
        met.len() as u64,
        "{composing_probes} misses and stale probes met {} (class, content) pairs",
        met.len()
    );
    assert!(kernel_runs * 4 < composing_probes as u64);
    // Each kernel run fetches its graph from the memo's store. The three
    // classes differ in budget only, so they read one graph per world
    // content: two of every three fetches reuse it.
    assert_eq!(graphs.rebuilds + graphs.reuses, kernel_runs);
    assert_eq!((graphs.rebuilds, graphs.reuses), (19, 38));
}

/// Quarantine a service of the served chain, probe, release it, probe:
/// the second visit to each world state runs no kernel and serves the
/// first visit's plan, though every visit has its own stamp.
#[test]
fn a_world_that_returns_to_a_state_is_answered_without_a_kernel_run() {
    let _counter = KERNEL_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let mut scenario = mesh();
    let cache = ShardedCompositionCache::new(16);
    let options = SelectOptions::default();
    let _ = scenario.compose(&options).expect("the mesh composes");
    // A new user name per probe: each probe misses, so only the memo
    // can spare its kernel run.
    let mut users = 0;
    let mut probe = |scenario: &Scenario| {
        let mut profiles = scenario.profiles.clone();
        users += 1;
        profiles.user.name = format!("user-{users}");
        let before = arena_reuse_total();
        let plan = cache
            .compose(
                &scenario.composer(),
                &profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("valid request")
            .expect("the mesh solves");
        (plan, arena_reuse_total() - before)
    };

    let (healthy, runs) = probe(&scenario);
    assert_eq!(runs, 1);
    let victim = healthy
        .steps
        .iter()
        .find_map(|step| step.service)
        .expect("a transcoder");
    let healthy_content = content(&scenario);
    let mut now = 10;
    let mut stamps = BTreeSet::new();
    let mut degraded = None;
    for visit in 0..3 {
        assert!(scenario
            .services
            .report_failure(victim, SimTime(now))
            .unwrap());
        stamps.insert(scenario.services.epoch());
        let (plan, runs) = probe(&scenario);
        assert!(plan.steps.iter().all(|step| step.service != Some(victim)));
        match &degraded {
            None => {
                assert_eq!(runs, 1, "first visit to the quarantined state");
                degraded = Some(plan);
            }
            Some(first) => {
                assert_eq!(runs, 0, "visit {visit} to the quarantined state");
                assert_eq!(&plan, first);
            }
        }
        now += 2_000_000;
        assert_eq!(
            scenario.services.release_quarantines(SimTime(now)),
            [victim]
        );
        assert_eq!(content(&scenario), healthy_content);
        stamps.insert(scenario.services.epoch());
        let (plan, runs) = probe(&scenario);
        assert_eq!(runs, 0, "visit {} to the healthy state", visit + 1);
        assert_eq!(plan, healthy);
    }
    assert_eq!(stamps.len(), 6, "every visit had a stamp of its own");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.stale), (0, 7, 0));
}
