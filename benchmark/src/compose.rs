//! The two compose workloads.
//!
//! * `compose_hot` — the X15 mesh (5 layers × 12 services, 3 formats
//!   per layer) behind a [`ShardedCompositionCache`]: a small graph on
//!   which almost every request runs the full Figure-4 kernel, because
//!   the client keeps reporting failures against services of the chain
//!   it was just served.
//! * `compose_scale` — the X20 clustered registry at 10^5 services
//!   behind the two-level [`ShardedComposer`]: frontier scoring over 64
//!   shards, a scoped-graph fetch and a large label arena per request,
//!   with registry writes (`churn_cycle`) beside the reads.
//!
//! Both run closed loop on one client thread. The traced pass replays
//! the same inputs, times the un-decomposed call, and then calls the
//! public functions `compose_with_store` is made of — in its order, on
//! a shadow [`GraphStore`] that sees the same fetch sequence — each in
//! its own span, and checks the decomposed plan equals the returned one.

use crate::report::{Digest, Layers, Pass, Segment};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Scale;
use qosc_core::select::label::{ExtendContext, Label, StateKey};
use qosc_core::{
    arena_reuse_total, select_chain_with_penalties, AdaptationGraph, AdaptationPlan, BuildInput,
    GraphScope, GraphStore, SelectOptions, ShardedCompositionCache,
};
use qosc_media::FormatRegistry;
use qosc_netsim::{Network, NodeId, SimTime};
use qosc_profiles::ProfileSet;
use qosc_services::{QuarantineConfig, ServiceId, ServiceRegistry};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::scale::{scale_scenario, ScaleConfig, ScaleScenario};
use qosc_workload::Scenario;
use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Fold the fields of `plan` that identify it into `digest`. Rendering
/// every plan with `{:?}` would cost a few microseconds per request
/// inside the timed phase; the chain, its rates and its scores are
/// what a wrong plan would change.
fn fold_plan(digest: &mut Digest, plan: &AdaptationPlan) {
    digest.update_u64(plan.predicted_satisfaction.to_bits());
    digest.update_u64(plan.total_cost.to_bits());
    for step in &plan.steps {
        digest.update(&step.name);
        digest.update_u64(step.output_bps.to_bits());
        digest.update_u64(step.input_bps.to_bits());
        digest.update_u64(step.satisfaction.to_bits());
        digest.update_u64(step.accumulated_cost.to_bits());
    }
}

/// Cut a compose phase into segments of `len` composes. `marks[k]` is
/// the phase clock, seconds, when compose `(k + 1) * len` returned; a
/// tail shorter than `len` belongs to no segment.
fn segments(op_us: &[f64], len: usize, marks: &[f64]) -> Vec<Segment> {
    let starts = std::iter::once(0.0).chain(marks.iter().copied());
    op_us
        .chunks_exact(len)
        .zip(starts.zip(marks))
        .map(|(ops, (start, end))| Segment {
            group: 0,
            ops: len as u64,
            wall_s: end - start,
            typical_op_us: Samples::new(ops.to_vec()).median().unwrap_or(0.0),
        })
        .collect()
}

/// Every this-many decomposed composes the traced pass also replays
/// the standalone layer probes (path annotations, label extension).
const PROBE_EVERY: u64 = 64;
/// Label extensions one probe replays at most.
const PROBE_EXTENSIONS: usize = 256;

/// The request-independent inputs of a compose.
struct ComposeInputs<'a> {
    formats: &'a FormatRegistry,
    services: &'a ServiceRegistry,
    network: &'a Network,
    sender_host: NodeId,
    receiver_host: NodeId,
    options: &'a SelectOptions,
}

/// What a decomposed compose returns beside its spans.
struct Decomposed {
    plan: Option<AdaptationPlan>,
    graph: Arc<AdaptationGraph>,
    rounds: usize,
    optimizations: usize,
}

/// One compose as `Composer::compose_with_store` (and the expansion
/// level of `ShardedComposer::compose_with_store`) performs it: the
/// same public functions in the same order, each in its own span.
fn decomposed_compose(
    tracer: &mut Tracer,
    inputs: &ComposeInputs<'_>,
    store: &GraphStore,
    scope: Option<&GraphScope<'_>>,
    profiles: &ProfileSet,
) -> qosc_core::Result<Decomposed> {
    let span = tracer.open("profiles.resolve");
    profiles.validate()?;
    let variants = profiles.content.resolve(inputs.formats)?;
    let decoders = profiles.device.resolve_decoders(inputs.formats)?;
    let receiver_caps = profiles.device.hardware.quality_caps();
    let satisfaction = profiles.effective_satisfaction();
    let budget = profiles.user.budget_or_infinite();
    tracer.close(span);

    let build = BuildInput {
        formats: inputs.formats,
        services: inputs.services,
        network: inputs.network,
        variants: &variants,
        sender_host: inputs.sender_host,
        receiver_host: inputs.receiver_host,
        decoders: &decoders,
        receiver_caps,
    };
    let rebuilds_before = store.stats().rebuilds;
    let span = tracer.open("core.graph.fetch");
    let graph = match scope {
        Some(scope) => store.scoped_graph_for(&build, scope)?,
        None => store.graph_for(&build)?,
    };
    tracer.close(span);
    if store.stats().rebuilds > rebuilds_before {
        tracer.rename(span, "core.graph.cold_build");
    }

    let span = tracer.open("core.select.select");
    let selection = select_chain_with_penalties(
        &graph,
        inputs.formats,
        &satisfaction,
        budget,
        inputs.options,
        inputs.services.selection_penalties(),
    )?;
    tracer.close(span);

    let span = tracer.open("core.plan.from_chain");
    let plan = match &selection.chain {
        Some(chain) => Some(AdaptationPlan::from_chain(&graph, inputs.formats, chain)?),
        None => None,
    };
    tracer.close(span);

    // With `record_trace` on (the default) the outcome owns the whole
    // Table-1 trace; freeing it is part of what a selection costs, and
    // the un-decomposed call pays it too.
    let (rounds, optimizations) = (selection.rounds, selection.optimizations);
    let span = tracer.open("core.select.drop");
    drop(selection);
    tracer.close(span);

    Ok(Decomposed {
        plan,
        graph,
        rounds,
        optimizations,
    })
}

/// Standalone probes of two layers the compose spans cannot separate:
/// `Network::path_annotations_from` (what graph construction asks the
/// network per host) and label extension (one `Optimize()` call per
/// matching edge, through `ExtendContext::extend_into`).
fn probe_layers(
    tracer: &mut Tracer,
    inputs: &ComposeInputs<'_>,
    graph: &AdaptationGraph,
    profiles: &ProfileSet,
) -> qosc_core::Result<()> {
    let span = tracer.open("netsim.path_annotations");
    let annotations = inputs.network.path_annotations_from(inputs.sender_host)?;
    tracer.close(span);
    std::hint::black_box(annotations);

    let satisfaction = profiles.effective_satisfaction();
    let ctx = ExtendContext {
        graph,
        formats: inputs.formats,
        profile: &satisfaction,
        budget: profiles.user.budget_or_infinite(),
        optimizer: inputs.options.optimizer,
        penalties: inputs.services.selection_penalties(),
    };
    // The label-setting search without its priority order: every
    // reachable state is extended across its matching out-edges once,
    // which is the set of `Optimize()` calls a selection makes.
    let mut frontier: VecDeque<Label> = ctx.sender_labels()?.into();
    let mut seen: HashSet<StateKey> = frontier.iter().map(|l| l.state).collect();
    let mut best = Vec::new();
    let mut calls = 0;
    while let Some(label) = frontier.pop_front() {
        for &edge_id in graph.out_edges(label.state.vertex) {
            if graph.edge(edge_id)?.format != label.state.output_format {
                continue;
            }
            if calls == PROBE_EXTENSIONS {
                return Ok(());
            }
            calls += 1;
            let span = tracer.open("satisfaction.optimize");
            ctx.extend_into(&label, edge_id, &mut best)?;
            tracer.close(span);
            for candidate in &best {
                if seen.insert(candidate.state) {
                    frontier.push_back(*candidate);
                }
            }
        }
    }
    Ok(())
}

/// Counts a traced pass accumulates over its decomposed composes.
#[derive(Debug, Default)]
struct DecomposedTotals {
    composes: u64,
    rounds: u64,
    optimizations: u64,
    undecomposed_ns: u64,
    decomposed_ns: u64,
    vertices: usize,
    edges: usize,
}

impl DecomposedTotals {
    fn add(&mut self, d: &Decomposed, undecomposed_ns: u64, decomposed_ns: u64) {
        self.composes += 1;
        self.rounds += d.rounds as u64;
        self.optimizations += d.optimizations as u64;
        self.undecomposed_ns += undecomposed_ns;
        self.decomposed_ns += decomposed_ns;
        self.vertices = d.graph.vertex_count();
        self.edges = d.graph.edge_count();
    }

    /// Per-compose layer times and counts shared by both workloads.
    fn record(&self, tracer: &Tracer, layers: &mut Layers) {
        let composes = self.composes.max(1) as f64;
        let totals = tracer.totals();
        let per_compose =
            |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64) / composes;
        let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
        layers.set("profiles.resolve_ns", per_compose("profiles.resolve"));
        layers.set("core.graph.fetch_ns", mean("core.graph.fetch"));
        layers.set("core.graph.cold_build_ns", mean("core.graph.cold_build"));
        layers.set(
            "core.select.select_ns",
            per_compose("core.select.select") + per_compose("core.select.drop"),
        );
        layers.set(
            "core.plan.from_chain_ns",
            per_compose("core.plan.from_chain"),
        );
        layers.set("satisfaction.optimize_ns", mean("satisfaction.optimize"));
        layers.set(
            "netsim.path_annotations_ns",
            mean("netsim.path_annotations"),
        );
        layers.set(
            "satisfaction.optimize_calls_per_compose",
            self.optimizations as f64 / composes,
        );
        layers.set(
            "core.select.rounds_per_compose",
            self.rounds as f64 / composes,
        );
        layers.set("core.graph.vertices", self.vertices as f64);
        layers.set("core.graph.edges", self.edges as f64);
        layers.set(
            "trace.decomposed_share",
            self.decomposed_ns as f64 / self.undecomposed_ns.max(1) as f64,
        );
        layers.set("trace.spans", tracer.len() as f64);
    }
}

/// The spans under the `compose` roots must account for the roots: a
/// root whose children cover less than nine tenths of it means the
/// decomposition lost track of where the time goes.
fn check_coverage(tracer: &Tracer, pass: &mut Pass) {
    let root = tracer.total_of("compose");
    if root.self_ns * 10 > root.total_ns {
        pass.problems.push(format!(
            "children cover only {} of {} ns under the compose roots",
            root.total_ns - root.self_ns,
            root.total_ns
        ));
    }
}

fn record_graph_stats(layers: &mut Layers, stats: qosc_core::GraphStoreStats) {
    layers.set("core.graph.rebuilds", stats.rebuilds as f64);
    layers.set("core.graph.deltas", stats.deltas as f64);
    layers.set("core.graph.delta_ops", stats.delta_ops as f64);
    layers.set("core.graph.reuses", stats.reuses as f64);
}

// ---------------------------------------------------------------------
// compose_hot
// ---------------------------------------------------------------------

/// Distinct request keys.
const HOT_POOL: usize = 2048;
/// Requests of a full run (≈ 10 s at ≈ 80 µs each on a quiet reference
/// host; the set-ups around it take the rest of the 12 s).
const HOT_REQUESTS: usize = 130_000;
/// Segments the timed phase is cut into.
const HOT_SEGMENTS: usize = 40;
/// Failure reports per request.
const HOT_CHURN_PER_REQUEST: f64 = 0.05;
/// Virtual time between failure reports. The quarantine cooldown is
/// 1 s, so three reported services are out at any instant — enough
/// that three requests in four find their cached chain stale.
const HOT_CHURN_ADVANCE_US: u64 = 400_000;
/// Seed of the mesh itself (X15's); `--seed` draws the request stream.
const HOT_TOPOLOGY_SEED: u64 = 7;

/// The X15 mesh, its request pool and the cache in front of it.
pub struct HotWorld {
    scenario: Scenario,
    pool: Vec<ProfileSet>,
    cache: ShardedCompositionCache,
    options: SelectOptions,
}

/// Build the mesh, draw the pool and fill the cache with one compose
/// per key, so the timed phase never pays a first-sight miss.
pub fn hot_setup(seed: u64) -> HotWorld {
    let config = GeneratorConfig {
        layers: 5,
        services_per_layer: 12,
        formats_per_layer: 3,
        conversions_per_service: 1,
        ..GeneratorConfig::default()
    };
    let mut scenario = random_scenario(&config, HOT_TOPOLOGY_SEED);
    scenario.services.set_quarantine_config(QuarantineConfig {
        failure_threshold: 1,
        cooldown_us: 1_000_000,
    });
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool: Vec<ProfileSet> = (0..HOT_POOL)
        .map(|_| {
            let mut profiles = scenario.profiles.clone();
            profiles.user.name = format!("user-{:016x}", rng.next_u64());
            profiles
        })
        .collect();
    let world = HotWorld {
        scenario,
        pool,
        cache: ShardedCompositionCache::new(16),
        options: SelectOptions::default(),
    };
    for profiles in &world.pool {
        let plan = world.cache.compose(
            &world.scenario.composer(),
            profiles,
            world.scenario.sender_host,
            world.scenario.receiver_host,
            &world.options,
        );
        std::hint::black_box(plan.is_ok());
    }
    world
}

/// Serve `scale.count(HOT_REQUESTS)` requests drawn uniformly from the
/// pool. Every twentieth request the client reports a failure against
/// one service of the chain it was last served (rotating through the
/// chain) and the registry releases the quarantines whose cooldown has
/// passed — what `selection_hotpath` does, aimed at the chains in use.
pub fn hot_pass(
    seed: u64,
    scale: &Scale,
    mut tracer: Option<&mut Tracer>,
    layers: &mut Layers,
) -> Pass {
    let mut world = hot_setup(seed);
    let requests = scale.count(HOT_REQUESTS);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut pass = Pass {
        op_us: Vec::with_capacity(requests),
        satisfaction: Vec::with_capacity(requests),
        ..Pass::default()
    };
    let shadow = GraphStore::new();
    let mut totals = DecomposedTotals::default();
    let mut hit_ns = 0u64;
    let mut churn_us: Vec<f64> = Vec::new();
    let mut last_chain: Vec<ServiceId> = Vec::new();
    let mut churn_due = 0.0f64;
    let mut churn_ops = 0usize;
    let mut now_us = 1_000u64;
    let version_before = world.scenario.network.version();
    let stats_before = world.cache.stats();
    let graph_before = world.cache.graph_stats();
    let arena_before = arena_reuse_total();

    let segment_len = (requests / HOT_SEGMENTS).max(1);
    let mut marks = Vec::with_capacity(HOT_SEGMENTS);
    let phase = Instant::now();
    for i in 0..requests {
        churn_due += HOT_CHURN_PER_REQUEST;
        while churn_due >= 1.0 && !last_chain.is_empty() {
            churn_due -= 1.0;
            now_us += HOT_CHURN_ADVANCE_US;
            let victim = last_chain[churn_ops % last_chain.len()];
            let start = Instant::now();
            world.scenario.services.release_quarantines(SimTime(now_us));
            let _ = world
                .scenario
                .services
                .report_failure(victim, SimTime(now_us));
            churn_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            churn_ops += 1;
        }
        let profiles = &world.pool[rng.random_range(0..HOT_POOL)];
        let composer = world.scenario.composer();
        let (sender, receiver) = (world.scenario.sender_host, world.scenario.receiver_host);

        let hits_before = tracer.as_ref().map(|_| world.cache.stats().hits);
        let start = Instant::now();
        let result = world
            .cache
            .compose(&composer, profiles, sender, receiver, &world.options);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        pass.op_us.push(elapsed_ns as f64 / 1e3);
        pass.attempted += 1;

        if let (Some(tracer), Some(hits_before)) = (tracer.as_deref_mut(), hits_before) {
            if world.cache.stats().hits > hits_before {
                hit_ns += elapsed_ns;
            } else {
                let replay = Instant::now();
                tracer.next_op();
                let inputs = ComposeInputs {
                    formats: composer.formats,
                    services: composer.services,
                    network: composer.network,
                    sender_host: sender,
                    receiver_host: receiver,
                    options: &world.options,
                };
                let root = tracer.open("compose");
                let decomposed = decomposed_compose(tracer, &inputs, &shadow, None, profiles);
                tracer.close(root);
                match (&decomposed, &result) {
                    (Ok(d), Ok(plan)) if d.plan == *plan => {
                        totals.add(d, elapsed_ns, tracer.duration_ns(root));
                        if totals.composes % PROBE_EVERY == 1 {
                            if let Err(e) = probe_layers(tracer, &inputs, &d.graph, profiles) {
                                pass.problems.push(format!("layer probe failed: {e}"));
                            }
                        }
                    }
                    _ => pass.problems.push(format!(
                        "request {}: decomposed compose differs from the cache's",
                        pass.attempted
                    )),
                }
                pass.replay_s += replay.elapsed().as_secs_f64();
            }
        }

        match result {
            Ok(Some(plan)) => {
                pass.satisfaction.push(plan.predicted_satisfaction);
                fold_plan(&mut pass.digest, &plan);
                last_chain.clear();
                last_chain.extend(plan.steps.iter().filter_map(|s| s.service));
            }
            _ => pass.failed += 1,
        }
        if (i + 1) % segment_len == 0 {
            marks.push(phase.elapsed().as_secs_f64());
        }
    }
    pass.wall_s = phase.elapsed().as_secs_f64();
    pass.timed_ops = pass.attempted;
    pass.segments = segments(&pass.op_us, segment_len, &marks);

    let stats = world.cache.stats();
    let (hits, misses, stale) = (
        stats.hits - stats_before.hits,
        stats.misses - stats_before.misses,
        stats.stale - stats_before.stale,
    );
    layers.set("core.cache.hits", hits as f64);
    layers.set("core.cache.misses", misses as f64);
    layers.set("core.cache.stale", stale as f64);
    layers.set("core.cache.hit_share", hits as f64 / requests as f64);
    let graph = world.cache.graph_stats();
    record_graph_stats(
        layers,
        qosc_core::GraphStoreStats {
            rebuilds: graph.rebuilds - graph_before.rebuilds,
            deltas: graph.deltas - graph_before.deltas,
            delta_ops: graph.delta_ops - graph_before.delta_ops,
            reuses: graph.reuses - graph_before.reuses,
        },
    );
    layers.set(
        "core.select.arena_reuses",
        (arena_reuse_total() - arena_before) as f64,
    );
    layers.set(
        "netsim.version_moves",
        (world.scenario.network.version() - version_before) as f64,
    );
    let churn = Samples::new(churn_us);
    layers.set("services.churn_op_ns", churn.mean().unwrap_or(0.0) * 1e3);
    layers.set("churn_op_p50_us", churn.median().unwrap_or(0.0));
    if let Some(tracer) = tracer {
        totals.record(tracer, layers);
        check_coverage(tracer, &mut pass);
        layers.set("core.cache.hit_ns", hit_ns as f64 / hits.max(1) as f64);
    }
    pass
}

// ---------------------------------------------------------------------
// compose_scale
// ---------------------------------------------------------------------

/// Registered services of a full run; 10^6 needs ~23 GB and is excluded.
const SCALE_SERVICES: usize = 100_000;
/// Registered services of a smoke run.
const SCALE_SERVICES_SMOKE: usize = 10_000;
/// Cold composes (fresh store each) of a full run.
const SCALE_COLD: usize = 6;
/// Warm composes (one shared store) of a full run.
const SCALE_WARM: usize = 36;
/// A `churn_cycle` is timed before every this-many warm composes,
/// which is also the length of a segment.
const SCALE_CHURN_EVERY: usize = 4;

/// Build the clustered registry and run one compose, so the process's
/// label arena is sized before anything is timed (its first touch costs
/// about as much as two composes).
pub fn scale_setup(scale: &Scale) -> ScaleScenario {
    let services = if scale.smoke {
        SCALE_SERVICES_SMOKE
    } else {
        SCALE_SERVICES
    };
    let scenario = scale_scenario(&ScaleConfig::default().with_total_services(services));
    let warmup = scenario.composer().compose_with_store(
        &GraphStore::new(),
        &scenario.profiles,
        scenario.sender_host,
        scenario.receiver_host,
        &SelectOptions::default(),
    );
    std::hint::black_box(warmup.is_ok());
    scenario
}

/// One two-level compose, timed as a whole and — in the traced pass —
/// decomposed afterwards on the shadow store.
fn scale_compose(
    scenario: &ScaleScenario,
    (store, shadow): (&GraphStore, &GraphStore),
    profiles: &ProfileSet,
    options: &SelectOptions,
    tracer: Option<&mut Tracer>,
    shape: &mut ScaleShape,
    pass: &mut Pass,
) -> f64 {
    let composer = scenario.composer();
    let start = Instant::now();
    let result = composer.compose_with_store(
        store,
        profiles,
        scenario.sender_host,
        scenario.receiver_host,
        options,
    );
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    pass.attempted += 1;

    match &result {
        Ok(two) => {
            shape.expanded_shards += two.expanded_shards.len() as u64;
            shape.rounds += u64::from(two.rounds);
            shape.full_expansions += u64::from(two.full_expansion);
            match &two.composition.plan {
                Some(plan) => {
                    pass.satisfaction.push(plan.predicted_satisfaction);
                    fold_plan(&mut pass.digest, plan);
                }
                None => pass.failed += 1,
            }
        }
        Err(_) => pass.failed += 1,
    }

    if let (Some(tracer), Ok(two)) = (tracer, &result) {
        let replay = Instant::now();
        tracer.next_op();
        let shard_count = scenario.services.shard_count() as usize;
        let mut expanded = vec![false; shard_count];
        for &shard in &two.expanded_shards {
            expanded[shard as usize] = true;
        }
        let inputs = ComposeInputs {
            formats: &scenario.formats,
            services: scenario.services.flat(),
            network: &scenario.network,
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
            options,
        };
        let root = tracer.open("compose");
        // The summary level is private to `compose_with_store`; its one
        // public ingredient is the frontier iteration, timed here. The
        // rest (scoring, relaxation) is what remains of the whole call
        // once the expansion level below is subtracted.
        let span = tracer.open("services.summaries_scan");
        let mut keys = 0u64;
        for shard in 0..shard_count as u32 {
            for summary in scenario.services.summaries(shard) {
                std::hint::black_box(summary);
                keys += 1;
            }
        }
        tracer.close(span);
        let scan_ns = tracer.duration_ns(span);
        shape.summary_keys = keys;
        let scope = GraphScope::new(&scenario.services, &expanded);
        let scope = (!two.full_expansion).then_some(&scope);
        let decomposed = decomposed_compose(tracer, &inputs, shadow, scope, profiles);
        tracer.close(root);
        match decomposed {
            Ok(d) if d.plan == two.composition.plan => {
                let expansion_ns = tracer.duration_ns(root) - scan_ns;
                shape.self_ns.push(elapsed_ns as f64 - expansion_ns as f64);
                shape.totals.add(&d, elapsed_ns, tracer.duration_ns(root));
                if shape.totals.composes % PROBE_EVERY == 1 {
                    if let Err(e) = probe_layers(tracer, &inputs, &d.graph, profiles) {
                        pass.problems.push(format!("layer probe failed: {e}"));
                    }
                }
            }
            _ => pass.problems.push(format!(
                "compose {}: decomposed compose differs from the two-level composer's",
                pass.attempted
            )),
        }
        pass.replay_s += replay.elapsed().as_secs_f64();
    }
    elapsed_ns as f64 / 1e3
}

/// Two-level search shape and decomposition totals, summed over a pass.
#[derive(Debug, Default)]
struct ScaleShape {
    totals: DecomposedTotals,
    expanded_shards: u64,
    rounds: u64,
    full_expansions: u64,
    summary_keys: u64,
    /// Per compose: the whole two-level call minus its replayed
    /// expansion level, nanoseconds (negative when the replay, taken a
    /// moment later on a noisy host, ran slower than the call).
    self_ns: Vec<f64>,
}

/// Cold composes on a fresh store each, then warm composes over one
/// store with a timed `churn_cycle` before every fourth. Churn cycles
/// through the non-winning clusters in an order drawn from `seed`, so
/// the registry epoch moves while the winner's scoped graph stays
/// reusable — the steady state of X20.
pub fn scale_pass(
    seed: u64,
    scale: &Scale,
    mut tracer: Option<&mut Tracer>,
    layers: &mut Layers,
) -> Pass {
    let mut scenario = scale_setup(scale);
    let options = SelectOptions::default();
    let cold = scale.count(SCALE_COLD);
    let warm = scale.count(SCALE_WARM);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pass = Pass::default();
    let mut shape = ScaleShape::default();
    let arena_before = arena_reuse_total();
    let version_before = scenario.network.version();

    let mut cold_us = Vec::with_capacity(cold);
    for _ in 0..cold {
        let profiles = scenario.request_profiles(rng.random_range(0..1_000_000));
        cold_us.push(scale_compose(
            &scenario,
            (&GraphStore::new(), &GraphStore::new()),
            &profiles,
            &options,
            tracer.as_deref_mut(),
            &mut shape,
            &mut pass,
        ));
    }

    let store = GraphStore::new();
    let shadow = GraphStore::new();
    let mut churn_us = Vec::new();
    let mut now_us = 1_000u64;
    let cold_attempted = pass.attempted;
    pass.replay_s = 0.0;
    let segment_len = SCALE_CHURN_EVERY.min(warm);
    let mut marks = Vec::with_capacity(warm / segment_len);
    let phase = Instant::now();
    for i in 0..warm {
        if i % SCALE_CHURN_EVERY == 0 {
            now_us += 1_000;
            let cluster = 1 + rng.random_range(0..scenario.clusters.max(2) - 1);
            let start = Instant::now();
            scenario.churn_cycle(cluster, SimTime(now_us));
            churn_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        let profiles = scenario.request_profiles(rng.random_range(0..1_000_000));
        let us = scale_compose(
            &scenario,
            (&store, &shadow),
            &profiles,
            &options,
            tracer.as_deref_mut(),
            &mut shape,
            &mut pass,
        );
        pass.op_us.push(us);
        if (i + 1) % segment_len == 0 {
            marks.push(phase.elapsed().as_secs_f64());
        }
    }
    pass.wall_s = phase.elapsed().as_secs_f64();
    pass.segments = segments(&pass.op_us, segment_len, &marks);
    // Throughput is over the warm phase; cold composes still count as
    // attempted operations whose plans are checked.
    pass.timed_ops = pass.attempted - cold_attempted;

    let composes = pass.attempted.max(1) as f64;
    layers.set(
        "compose_cold_p50_us",
        Samples::new(cold_us).median().unwrap_or(0.0),
    );
    let churn = Samples::new(churn_us);
    layers.set("churn_op_p50_us", churn.median().unwrap_or(0.0));
    layers.set(
        "services.sharded_churn_cycle_ns",
        churn.mean().unwrap_or(0.0) * 1e3,
    );
    layers.set(
        "core.sharded_compose.expanded_shards",
        shape.expanded_shards as f64 / composes,
    );
    layers.set(
        "core.sharded_compose.rounds",
        shape.rounds as f64 / composes,
    );
    layers.set(
        "core.sharded_compose.full_expansions",
        shape.full_expansions as f64,
    );
    record_graph_stats(layers, store.stats());
    layers.set(
        "core.select.arena_reuses",
        (arena_reuse_total() - arena_before) as f64,
    );
    layers.set(
        "netsim.version_moves",
        (scenario.network.version() - version_before) as f64,
    );
    if let Some(tracer) = tracer {
        shape.totals.record(tracer, layers);
        check_coverage(tracer, &mut pass);
        layers.set("services.summary_keys", shape.summary_keys as f64);
        let per_compose = |name: &str| {
            tracer.total_of(name).total_ns as f64 / shape.totals.composes.max(1) as f64
        };
        layers.set(
            "services.summaries_scan_ns",
            per_compose("services.summaries_scan"),
        );
        // Self time of the two-level call (frontier scoring and
        // relaxation): the whole call minus the expansion level replayed
        // right after it, paired per compose so both halves of a pair
        // see the same host conditions; the median pair stands.
        layers.set(
            "core.sharded_compose.self_ns",
            Samples::new(std::mem::take(&mut shape.self_ns))
                .median()
                .unwrap_or(0.0)
                .max(0.0),
        );
    }
    pass
}
