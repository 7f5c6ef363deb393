//! Incremental adaptation-graph store.
//!
//! Every compose used to rebuild the Section 4.2 graph from a fresh
//! registry snapshot. Under steady traffic the registry barely changes
//! between requests, so the rebuild is almost always reproducing the
//! graph it produced last time. The store keeps built graphs keyed by
//! their resolved build inputs (sender, receiver class, offered
//! variants, decoders, hardware caps) and stamps each with the
//! `ServiceRegistry::epoch()` and `Network::version()` it was built
//! against:
//!
//! * same epoch + version → return the shared graph as-is (`reuses`);
//! * registry moved a little → replay the event tail as **delta
//!   updates** (add/remove service vertices, unwire/rewire quarantined
//!   ones) against a clone of the stored graph (`deltas`);
//! * registry moved a lot, or the network changed → fall back to a
//!   fresh `build()` (`rebuilds`).
//!
//! Deltas must be *indistinguishable* from a fresh build: selection
//! walks adjacency lists in listing order and its tie-breaks are part
//! of the committed scorecards, so every insertion computes the
//! canonical position a fresh build would have produced (sources in
//! vertex order, formats in first-appearance order, targets in
//! registration order with the receiver last). Edge *ids* may differ —
//! nothing outside the graph stores one. Debug builds assert structural
//! equivalence against a fresh build after every delta;
//! `graphs_equivalent` is also exported for the property tests.

use crate::graph::build::{self, BuildInput};
use crate::graph::model::{
    AdaptationGraph, Edge, EdgeId, Vertex, VertexConversion, VertexId, VertexKind,
};
use crate::{CoreError, Result};
use parking_lot::RwLock;
use qosc_media::{AxisDomain, DomainVector, FormatId};
use qosc_netsim::{memo::memos_off, Network, NodeId, PathAnnotation};
use qosc_services::{RegistryEvent, ServiceId, ServiceRegistry, ShardedServiceRegistry};
use qosc_telemetry::{
    Event as TelemetryEvent, EventKind as TelemetryEventKind, MetricsRegistry, TelemetrySink,
    REQUEST_NONE,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Above this many net vertex/edge-set changes the delta path gives up
/// and rebuilds — replaying a large tail costs more than one build.
pub const DEFAULT_DELTA_THRESHOLD: usize = 16;

/// The registry state a stored graph was synchronized against.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RegistryStamp {
    /// Flat path: one registry-wide epoch.
    Flat(u64),
    /// Scoped path: one epoch per expanded shard, in shard order —
    /// mutations confined to non-expanded shards leave every listed
    /// epoch (and therefore the stored graph) untouched.
    Sharded(Vec<(u32, u64)>),
}

/// A stored graph plus the world state it reflects.
struct StoreEntry {
    graph: Arc<AdaptationGraph>,
    stamp: RegistryStamp,
    network_version: u64,
    /// In-scope live services in vertex order (vertex index = 2 +
    /// position); the flag records whether the service was *available*
    /// (wired with in-edges) when the graph was last synchronized.
    services: Vec<(ServiceId, bool)>,
}

/// Scope context for the sharded two-level path: which shards are
/// expanded and the per-service include flags derived from them.
pub struct GraphScope<'a> {
    sharded: &'a ShardedServiceRegistry,
    expanded: &'a [bool],
    /// O(registered services) to derive, and read only when a graph is
    /// rebuilt or delta-updated — so derived on first use, not per
    /// compose.
    filter: OnceLock<Vec<bool>>,
}

impl<'a> GraphScope<'a> {
    /// Scope covering the shards flagged in `expanded` (indexed by
    /// shard id).
    pub fn new(sharded: &'a ShardedServiceRegistry, expanded: &'a [bool]) -> GraphScope<'a> {
        GraphScope {
            sharded,
            expanded,
            filter: OnceLock::new(),
        }
    }

    /// Per-service include flags.
    pub fn filter(&self) -> &[bool] {
        self.filter
            .get_or_init(|| self.sharded.scope_filter(self.expanded))
    }

    /// Epochs of the expanded shards, in shard order.
    fn stamp(&self) -> RegistryStamp {
        RegistryStamp::Sharded(
            (0..self.sharded.shard_count())
                .filter(|&s| self.expanded.get(s as usize).copied().unwrap_or(false))
                .map(|s| (s, self.sharded.shard_epoch(s)))
                .collect(),
        )
    }

    /// A non-zero key perturbation separating this scope's entries
    /// from the flat entry (and from other scopes) under the same
    /// build inputs.
    fn key_salt(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (index, &flag) in self.expanded.iter().enumerate() {
            if flag {
                for byte in (index as u64).to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        hash | 1
    }
}

/// Bulk single-source Dijkstra tables shared across delta applications,
/// valid for exactly one `Network::version()`.
struct AnnotationCache {
    network_version: u64,
    tables: HashMap<usize, Arc<Vec<Option<PathAnnotation>>>>,
}

/// Counters describing how the store served graph requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStoreStats {
    /// Full `build()` runs (cold keys, stale network, oversized tails).
    pub rebuilds: u64,
    /// Event-tail replays against a stored graph.
    pub deltas: u64,
    /// Net vertex/edge-set changes applied across all delta replays.
    pub delta_ops: u64,
    /// Same-epoch, same-version hits returning the shared graph.
    pub reuses: u64,
}

/// Net effect of the event tail on one stored graph.
#[derive(Default)]
struct DeltaPlan {
    /// Present in the stored graph, no longer live: drop the vertex.
    removals: Vec<ServiceId>,
    /// Live, not yet in the stored graph: append the vertex and wire it.
    additions: Vec<ServiceId>,
    /// Wired but now quarantined: drop the in-edges, keep the vertex.
    unwires: Vec<ServiceId>,
    /// Unwired but available again: rebuild the in-edges.
    rewires: Vec<ServiceId>,
}

impl DeltaPlan {
    fn op_count(&self) -> usize {
        self.removals.len() + self.additions.len() + self.unwires.len() + self.rewires.len()
    }
}

/// A delta-updated graph plus its refreshed `(service, available)`
/// roster; `None` when a stored invariant no longer holds and the
/// caller must rebuild from scratch.
type DeltaOutcome = Option<(AdaptationGraph, Vec<(ServiceId, bool)>)>;

/// Epoch-stamped incremental graph store. Shared by reference across
/// engine workers; all interior mutability is lock- or atomic-based.
/// Under [`memos_off`] every request rebuilds (and so reads no
/// annotation table either).
pub struct GraphStore {
    entries: RwLock<HashMap<u64, StoreEntry>>,
    annotations: RwLock<AnnotationCache>,
    delta_threshold: usize,
    rebuilds: AtomicU64,
    deltas: AtomicU64,
    delta_ops: AtomicU64,
    reuses: AtomicU64,
}

impl Default for GraphStore {
    fn default() -> GraphStore {
        GraphStore::new()
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("graphs", &self.entries.read().len())
            .field("delta_threshold", &self.delta_threshold)
            .field("stats", &self.stats())
            .finish()
    }
}

impl GraphStore {
    /// A store with the default delta threshold.
    pub fn new() -> GraphStore {
        GraphStore {
            entries: RwLock::new(HashMap::new()),
            annotations: RwLock::new(AnnotationCache {
                network_version: 0,
                tables: HashMap::new(),
            }),
            delta_threshold: DEFAULT_DELTA_THRESHOLD,
            rebuilds: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            delta_ops: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Override the rebuild fallback threshold.
    pub fn with_delta_threshold(mut self, threshold: usize) -> GraphStore {
        self.delta_threshold = threshold;
        self
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GraphStoreStats {
        GraphStoreStats {
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
            delta_ops: self.delta_ops.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
        }
    }

    /// Mirror the counters into a metrics registry.
    pub fn record_metrics(&self, registry: &MetricsRegistry) {
        let stats = self.stats();
        registry
            .counter("qosc_graph_rebuilds_total")
            .store(stats.rebuilds);
        registry
            .counter("qosc_graph_deltas_total")
            .store(stats.deltas);
        registry
            .counter("qosc_graph_delta_ops_total")
            .store(stats.delta_ops);
        registry
            .counter("qosc_graph_reuses_total")
            .store(stats.reuses);
    }

    /// Emit a deterministic summary of the store's work into a
    /// telemetry sink: one `graph_rebuilt` and one `graph_delta` event
    /// carrying the final counters, at virtual time 0 with
    /// [`REQUEST_NONE`]. Deliberately *not* called from traced request
    /// paths — which request triggers a build is a worker race, and
    /// the flight-recorder log must stay byte-identical across worker
    /// counts — so callers (scorecard bins, audits) record the summary
    /// once after the fact, like `ServiceRegistry::record_telemetry`.
    ///
    /// [`REQUEST_NONE`]: qosc_telemetry::REQUEST_NONE
    pub fn record_telemetry<S: TelemetrySink>(&self, sink: &S) {
        if !sink.enabled() {
            return;
        }
        let stats = self.stats();
        let events = [
            TelemetryEventKind::GraphRebuilt {
                total: stats.rebuilds,
            },
            TelemetryEventKind::GraphDelta {
                ops: stats.delta_ops,
                total: stats.deltas,
            },
        ];
        for (index, kind) in events.into_iter().enumerate() {
            sink.record(TelemetryEvent {
                virtual_time_us: 0,
                request_id: REQUEST_NONE,
                span: 0,
                seq: index as u32,
                kind,
            });
        }
    }

    /// Number of distinct graphs currently stored.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the store holds no graphs yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The graph for `input`, reused, delta-updated, or rebuilt.
    pub fn graph_for(&self, input: &BuildInput<'_>) -> Result<Arc<AdaptationGraph>> {
        self.graph_for_inner(input, None)
    }

    /// The graph for `input` restricted to `scope`'s expanded shards —
    /// the two-level composer's workhorse. Entries are keyed per scope
    /// and stamped with the expanded shards' epochs only, so churn in a
    /// non-expanded shard neither invalidates the entry nor costs a
    /// replay: revalidation is O(expanded shards), not O(registry).
    pub fn scoped_graph_for(
        &self,
        input: &BuildInput<'_>,
        scope: &GraphScope<'_>,
    ) -> Result<Arc<AdaptationGraph>> {
        self.graph_for_inner(input, Some(scope))
    }

    fn graph_for_inner(
        &self,
        input: &BuildInput<'_>,
        scope: Option<&GraphScope<'_>>,
    ) -> Result<Arc<AdaptationGraph>> {
        let key = graph_key(input) ^ scope.map_or(0, GraphScope::key_salt);
        let stamp = match scope {
            None => RegistryStamp::Flat(input.services.epoch()),
            Some(scope) => scope.stamp(),
        };
        let version = input.network.version();
        let reads_stored = !memos_off();

        // Fast path: the stored graph is current.
        if reads_stored {
            let guard = self.entries.read();
            if let Some(entry) = guard.get(&key) {
                if entry.stamp == stamp && entry.network_version == version {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    return Ok(entry.graph.clone());
                }
            }
        }
        let filter = scope.map(GraphScope::filter);

        // Snapshot the stale entry (if any) outside the lock.
        let snapshot = {
            let guard = self.entries.read();
            guard.get(&key).filter(|_| reads_stored).map(|entry| {
                (
                    entry.graph.clone(),
                    entry.stamp.clone(),
                    entry.network_version,
                    entry.services.clone(),
                )
            })
        };

        if let Some((graph, stored_stamp, stored_version, services)) = snapshot {
            // Epochs only advance (they count events); a changed
            // network invalidates every edge annotation, so only
            // registry movement is delta-eligible. A compacted tail
            // (`None`) means the events this entry missed are gone —
            // fall through to the rebuild path.
            let tail = if stored_version == version {
                stamped_tail(&stored_stamp, input, scope)
            } else {
                None
            };
            if let Some(tail) = tail {
                let plan = plan_delta(&services, &tail, input.services);
                if plan.op_count() <= self.delta_threshold {
                    if let Some((updated, updated_services)) =
                        self.apply_delta(&graph, &services, &plan, input, filter)?
                    {
                        if cfg!(debug_assertions) {
                            let fresh = build::build_filtered(input, filter)?;
                            assert!(
                                graphs_equivalent(&updated, &fresh),
                                "graph delta diverged from fresh build \
                                 ({stored_stamp:?} -> {stamp:?}, {} ops)",
                                plan.op_count()
                            );
                        }
                        let arc = Arc::new(updated);
                        self.entries.write().insert(
                            key,
                            StoreEntry {
                                graph: arc.clone(),
                                stamp,
                                network_version: version,
                                services: updated_services,
                            },
                        );
                        self.deltas.fetch_add(1, Ordering::Relaxed);
                        self.delta_ops
                            .fetch_add(plan.op_count() as u64, Ordering::Relaxed);
                        return Ok(arc);
                    }
                }
            }
        }

        // Cold key, compacted tail, or delta not applicable: rebuild.
        let graph = build::build_filtered(input, filter)?;
        let services: Vec<(ServiceId, bool)> = input
            .services
            .live_services()
            .filter(|&(id, _)| filter.is_none_or(|f| f.get(id.index()).copied().unwrap_or(false)))
            .map(|(id, _)| (id, input.services.is_available(id)))
            .collect();
        let arc = Arc::new(graph);
        self.entries.write().insert(
            key,
            StoreEntry {
                graph: arc.clone(),
                stamp,
                network_version: version,
                services,
            },
        );
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Ok(arc)
    }

    /// The bulk annotation table for paths out of `from`, shared across
    /// delta applications while the network version holds still.
    fn annotation_table(
        &self,
        network: &Network,
        from: NodeId,
    ) -> Arc<Vec<Option<PathAnnotation>>> {
        let version = network.version();
        {
            let guard = self.annotations.read();
            if guard.network_version == version {
                if let Some(table) = guard.tables.get(&from.index()) {
                    return table.clone();
                }
            }
        }
        let mut guard = self.annotations.write();
        if guard.network_version != version {
            guard.tables.clear();
            guard.network_version = version;
        }
        if let Some(table) = guard.tables.get(&from.index()) {
            return table.clone();
        }
        // Mirrors build(): an unroutable source host yields an empty
        // table, which simply produces no edges.
        let table = Arc::new(network.path_annotations_from(from).unwrap_or_default());
        guard.tables.insert(from.index(), table.clone());
        table
    }

    /// Apply `plan` to a clone of `graph`. Returns `None` when a stored
    /// invariant does not hold (the caller then rebuilds). With a
    /// `scope`, out-of-scope services looked up through the registry's
    /// format index are expected absences and are skipped rather than
    /// treated as broken invariants.
    fn apply_delta(
        &self,
        graph: &AdaptationGraph,
        services: &[(ServiceId, bool)],
        plan: &DeltaPlan,
        input: &BuildInput<'_>,
        scope: Option<&[bool]>,
    ) -> Result<DeltaOutcome> {
        // Invariants a fresh build establishes and deltas preserve.
        if graph.vertex_count() != 2 + services.len()
            || graph.sender() != Some(VertexId::from_index(0))
            || graph.receiver() != Some(VertexId::from_index(1))
        {
            return Ok(None);
        }

        let mut graph = graph.clone();
        let mut services: Vec<(ServiceId, bool)> = services.to_vec();

        // Phase A: one compaction pass removes dead vertices (and their
        // incident edges) and the in-edges of every vertex whose
        // in-list must be emptied (quarantined, or about to be rewired
        // from scratch).
        if !plan.removals.is_empty() || !plan.unwires.is_empty() || !plan.rewires.is_empty() {
            let mut kill = vec![false; graph.vertex_count()];
            let mut drop_in = vec![false; graph.vertex_count()];
            for id in &plan.removals {
                match vertex_of(&services, *id) {
                    Some(v) => kill[v.index()] = true,
                    None => return Ok(None),
                }
            }
            for id in plan.unwires.iter().chain(&plan.rewires) {
                match vertex_of(&services, *id) {
                    Some(v) => drop_in[v.index()] = true,
                    None => return Ok(None),
                }
            }
            graph.retain_canonical(|v| !kill[v.index()], |e: &Edge| !drop_in[e.to.index()]);
            services.retain(|(id, _)| !plan.removals.contains(id));
        }

        // Phase B: append new service vertices, ascending id — new ids
        // are larger than every stored one, so appending lands them in
        // registration order, exactly where a fresh build puts them.
        let mut additions = plan.additions.clone();
        additions.sort_by_key(|id| id.index());
        for &id in &additions {
            let descriptor = input.services.get(id)?;
            let vertex = graph.add_vertex(Vertex {
                kind: VertexKind::Transcoder(id),
                name: descriptor.name.clone(),
                host: descriptor.host,
                conversions: descriptor
                    .conversions
                    .iter()
                    .map(|c| VertexConversion {
                        input: c.input,
                        output: c.output,
                        output_domain: c.output_domain.clone(),
                    })
                    .collect(),
                price_per_second: descriptor.price.per_second,
                price_per_mbit: descriptor.price.per_mbit,
            });
            services.push((id, input.services.is_available(id)));
            if vertex.index() != 1 + services.len() {
                return Ok(None);
            }
        }
        if services
            .windows(2)
            .any(|pair| pair[0].0.index() >= pair[1].0.index())
        {
            return Ok(None);
        }

        // Vertices whose in-lists are rebuilt from scratch: reinstated
        // services plus new vertices that are available. (A new vertex
        // that is already quarantined gets out-edges only, exactly as a
        // fresh build would give it.)
        let mut rebuild_in: Vec<VertexId> = Vec::new();
        for id in &plan.rewires {
            match vertex_of(&services, *id) {
                Some(v) => rebuild_in.push(v),
                None => return Ok(None),
            }
        }
        for &id in &additions {
            if input.services.is_available(id) {
                match vertex_of(&services, id) {
                    Some(v) => rebuild_in.push(v),
                    None => return Ok(None),
                }
            }
        }
        rebuild_in.sort_by_key(|v| v.index());
        let mut in_rebuild_set = vec![false; graph.vertex_count()];
        for v in &rebuild_in {
            in_rebuild_set[v.index()] = true;
        }

        let receiver = VertexId::from_index(1);

        // Phase C1: out-edges of new vertices, skipping targets whose
        // in-lists are rebuilt below (those edges are generated there).
        // Generation follows builder order — formats in
        // first-appearance order, accepting services in registration
        // order, receiver last — so appending to the new vertex's empty
        // out-list is canonical.
        for &id in &additions {
            let source = match vertex_of(&services, id) {
                Some(v) => v,
                None => return Ok(None),
            };
            let from_host = graph.vertex(source)?.host;
            let annotations = self.annotation_table(input.network, from_host);
            let outputs = graph.vertex(source)?.output_formats();
            for format in outputs {
                for target_id in input.services.accepting(format) {
                    if let Some(filter) = scope {
                        if !filter.get(target_id.index()).copied().unwrap_or(false) {
                            continue;
                        }
                    }
                    let target = match vertex_of(&services, target_id) {
                        Some(v) => v,
                        None => return Ok(None),
                    };
                    if target == source || in_rebuild_set[target.index()] {
                        continue;
                    }
                    let to_host = graph.vertex(target)?.host;
                    if let Some(a) = annotations.get(to_host.index()).copied().flatten() {
                        let out_pos = graph.out_edges(source).len();
                        let in_pos = canonical_in_pos(&graph, target, source, out_pos)?;
                        graph.insert_edge_at(
                            Edge {
                                from: source,
                                to: target,
                                format,
                                available_bps: a.available_bps,
                                delay_us: a.delay_us,
                                price_flat: a.price_flat,
                                price_per_mbit: a.price_per_mbit,
                            },
                            out_pos,
                            in_pos,
                        );
                    }
                }
                if input.decoders.contains(&format) {
                    if let Some(a) = annotations
                        .get(input.receiver_host.index())
                        .copied()
                        .flatten()
                    {
                        let out_pos = graph.out_edges(source).len();
                        let in_pos = canonical_in_pos(&graph, receiver, source, out_pos)?;
                        graph.insert_edge_at(
                            Edge {
                                from: source,
                                to: receiver,
                                format,
                                available_bps: a.available_bps,
                                delay_us: a.delay_us,
                                price_flat: a.price_flat,
                                price_per_mbit: a.price_per_mbit,
                            },
                            out_pos,
                            in_pos,
                        );
                    }
                }
            }
        }

        // Phase C2: rebuild emptied in-lists. Sources are walked in
        // vertex order and formats in each source's first-appearance
        // order, which is exactly the builder's generation order for
        // this target — so the in-list fills back up by appending,
        // while each edge is spliced into its source's out-list at the
        // canonical position.
        for &target in &rebuild_in {
            if !graph.in_edges(target).is_empty() {
                return Ok(None);
            }
            let to_host = graph.vertex(target)?.host;
            let source_count = graph.vertex_count();
            for source_index in 0..source_count {
                if source_index == 1 || source_index == target.index() {
                    continue; // the receiver has no out-edges
                }
                let source = VertexId::from_index(source_index);
                let outputs = graph.vertex(source)?.output_formats();
                let from_host = graph.vertex(source)?.host;
                let annotations = self.annotation_table(input.network, from_host);
                let annotation = annotations.get(to_host.index()).copied().flatten();
                for (rank, &format) in outputs.iter().enumerate() {
                    if !graph.vertex(target)?.accepts(format) {
                        continue;
                    }
                    if let Some(a) = annotation {
                        let out_pos = canonical_out_pos(&graph, source, &outputs, rank, target)?;
                        let in_pos = graph.in_edges(target).len();
                        graph.insert_edge_at(
                            Edge {
                                from: source,
                                to: target,
                                format,
                                available_bps: a.available_bps,
                                delay_us: a.delay_us,
                                price_flat: a.price_flat,
                                price_per_mbit: a.price_per_mbit,
                            },
                            out_pos,
                            in_pos,
                        );
                    }
                }
            }
        }

        // Re-stamp availability for the surviving services.
        for (id, wired) in services.iter_mut() {
            *wired = input.services.is_available(*id);
        }

        Ok(Some((graph, services)))
    }
}

/// Vertex index of service `id` given the live-service list (vertex
/// index = 2 + list position; sender is 0, receiver is 1).
fn vertex_of(services: &[(ServiceId, bool)], id: ServiceId) -> Option<VertexId> {
    services
        .iter()
        .position(|&(s, _)| s == id)
        .map(|p| VertexId::from_index(2 + p))
}

/// The concatenated event tail a stored stamp misses, or `None` when
/// any needed tail was compacted away (the registry's or a shard's log
/// no longer reaches back to the stamp) or the stamp shape does not
/// match the request — both force the rebuild fallback.
fn stamped_tail(
    stored: &RegistryStamp,
    input: &BuildInput<'_>,
    scope: Option<&GraphScope<'_>>,
) -> Option<Vec<RegistryEvent>> {
    match (stored, scope) {
        (RegistryStamp::Flat(epoch), None) => {
            input.services.events_since(*epoch).map(<[_]>::to_vec)
        }
        (RegistryStamp::Sharded(stamps), Some(scope)) => {
            // `plan_delta` classifies net effects off current registry
            // state, so cross-shard concatenation order is irrelevant.
            let mut tail = Vec::new();
            for &(shard, epoch) in stamps {
                tail.extend_from_slice(scope.sharded.shard_events_since(shard, epoch)?);
            }
            Some(tail)
        }
        _ => None,
    }
}

/// Classify the event tail into net vertex/edge-set changes against the
/// stored state. Events only tell us *which* services moved; the net
/// effect is read off the registry's current state, so a service that
/// (say) was quarantined and reinstated within the tail is a no-op.
fn plan_delta(
    services: &[(ServiceId, bool)],
    tail: &[RegistryEvent],
    registry: &ServiceRegistry,
) -> DeltaPlan {
    let mut changed: Vec<ServiceId> = Vec::new();
    for event in tail {
        let id = match event {
            RegistryEvent::Registered(id)
            | RegistryEvent::Renewed(id)
            | RegistryEvent::Expired(id)
            | RegistryEvent::Deregistered(id)
            | RegistryEvent::Quarantined(id)
            | RegistryEvent::Reinstated(id)
            // Probation moves selection *penalties*, not graph
            // structure: the availability re-stamp below confirms the
            // vertex set is unchanged, while the epoch bump that
            // carried this event already forces cached selections to
            // recompute against the new penalty view.
            | RegistryEvent::Probated(id)
            | RegistryEvent::ProbationCleared(id) => *id,
        };
        if !changed.contains(&id) {
            changed.push(id);
        }
    }

    let mut plan = DeltaPlan::default();
    for id in changed {
        let stored = services.iter().find(|&&(s, _)| s == id);
        let live = registry.is_live(id);
        let available = registry.is_available(id);
        match stored {
            Some(&(_, wired)) => {
                if !live {
                    plan.removals.push(id);
                } else if wired && !available {
                    plan.unwires.push(id);
                } else if !wired && available {
                    plan.rewires.push(id);
                }
            }
            None => {
                if live {
                    plan.additions.push(id);
                }
            }
        }
    }
    plan
}

/// Canonical position for a new edge `source -> target` carrying the
/// `rank`-th output format of `source`, within `source`'s out-list.
///
/// Builder listing order per source: format segments in
/// first-appearance order; within a segment, service targets ascending
/// by vertex index (= registration order), then the receiver.
fn canonical_out_pos(
    graph: &AdaptationGraph,
    source: VertexId,
    outputs: &[FormatId],
    rank: usize,
    target: VertexId,
) -> Result<usize> {
    let receiver = graph.receiver();
    let key_of = |edge: &Edge| -> (usize, bool, usize) {
        let edge_rank = outputs
            .iter()
            .position(|&f| f == edge.format)
            .unwrap_or(usize::MAX);
        (edge_rank, Some(edge.to) == receiver, edge.to.index())
    };
    let new_key = (rank, Some(target) == receiver, target.index());
    let list = graph.out_edges(source);
    for (pos, &edge_id) in list.iter().enumerate() {
        if key_of(graph.edge(edge_id)?) > new_key {
            return Ok(pos);
        }
    }
    Ok(list.len())
}

/// Canonical position for a new edge `source -> target` within
/// `target`'s in-list, where the edge will sit at `new_out_pos` of
/// `source`'s out-list.
///
/// Builder listing order per target: sources ascending by vertex index;
/// edges from the same source in that source's out-list order.
fn canonical_in_pos(
    graph: &AdaptationGraph,
    target: VertexId,
    source: VertexId,
    new_out_pos: usize,
) -> Result<usize> {
    let new_key = (source.index(), new_out_pos);
    let list = graph.in_edges(target);
    for (pos, &edge_id) in list.iter().enumerate() {
        let edge = graph.edge(edge_id)?;
        let Some(out_pos) = graph
            .out_edges(edge.from)
            .iter()
            .position(|&e| e == edge_id)
        else {
            return Err(CoreError::StaleId(format!(
                "edge {edge_id:?} not listed by its source"
            )));
        };
        // Same-source edges at or past the insertion point shift by
        // one once the new edge goes in.
        let effective = if edge.from == source && out_pos >= new_out_pos {
            out_pos + 1
        } else {
            out_pos
        };
        if (edge.from.index(), effective) > new_key {
            return Ok(pos);
        }
    }
    Ok(list.len())
}

/// Structural equivalence: identical vertices (kind, name, host,
/// conversions, prices), endpoints, receiver caps, and per-vertex
/// adjacency lists resolved to edge payloads. Edge *numbering* is
/// deliberately not compared — selection never observes it.
pub fn graphs_equivalent(a: &AdaptationGraph, b: &AdaptationGraph) -> bool {
    if a.vertex_count() != b.vertex_count()
        || a.edge_count() != b.edge_count()
        || a.sender() != b.sender()
        || a.receiver() != b.receiver()
        || a.receiver_caps() != b.receiver_caps()
    {
        return false;
    }
    // Lists compare by edge payload, position for position; a dangling
    // id resolves to `None` and still takes part.
    let same_edges = |in_a: &[EdgeId], in_b: &[EdgeId]| {
        let resolved_a = in_a.iter().map(|&e| a.edge(e).ok());
        resolved_a.eq(in_b.iter().map(|&e| b.edge(e).ok()))
    };
    for vertex in a.vertex_ids() {
        let (va, vb) = match (a.vertex(vertex), b.vertex(vertex)) {
            (Ok(va), Ok(vb)) => (va, vb),
            _ => return false,
        };
        if va != vb {
            return false;
        }
        if !same_edges(a.out_edges(vertex), b.out_edges(vertex))
            || !same_edges(a.in_edges(vertex), b.in_edges(vertex))
        {
            return false;
        }
    }
    true
}

/// Hash the resolved build inputs a graph depends on. Two requests with
/// the same sender host, receiver host, offered variants, decoders and
/// hardware caps share a graph — notably every degradation rung that
/// only rewrites the *user* profile maps to the same key.
fn graph_key(input: &BuildInput<'_>) -> u64 {
    let mut hasher = DefaultHasher::new();
    input.sender_host.index().hash(&mut hasher);
    input.receiver_host.index().hash(&mut hasher);
    input.variants.len().hash(&mut hasher);
    for variant in input.variants {
        variant.format.index().hash(&mut hasher);
        hash_domain_vector(&variant.offered, &mut hasher);
    }
    input.decoders.len().hash(&mut hasher);
    for decoder in input.decoders {
        decoder.index().hash(&mut hasher);
    }
    for (axis, value) in input.receiver_caps.iter() {
        axis.index().hash(&mut hasher);
        value.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

fn hash_domain_vector(domain: &DomainVector, hasher: &mut DefaultHasher) {
    for (axis, axis_domain) in domain.iter() {
        axis.index().hash(hasher);
        match axis_domain {
            AxisDomain::Continuous { min, max } => {
                0u8.hash(hasher);
                min.to_bits().hash(hasher);
                max.to_bits().hash(hasher);
            }
            AxisDomain::Discrete(values) => {
                1u8.hash(hasher);
                values.len().hash(hasher);
                for value in values {
                    value.to_bits().hash(hasher);
                }
            }
            AxisDomain::Fixed(value) => {
                2u8.hash(hasher);
                value.to_bits().hash(hasher);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{ContentVariant, FormatRegistry, MediaKind, ParamVector};
    use qosc_netsim::{Node, SimTime, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};
    use qosc_services::{QuarantineConfig, TranscoderDescriptor};

    struct Scenario {
        formats: FormatRegistry,
        services: ServiceRegistry,
        network: Network,
        variants: Vec<ContentVariant>,
        sender: NodeId,
        middle: NodeId,
        receiver: NodeId,
        decoders: Vec<FormatId>,
    }

    impl Scenario {
        fn input(&self) -> BuildInput<'_> {
            BuildInput {
                formats: &self.formats,
                services: &self.services,
                network: &self.network,
                variants: &self.variants,
                sender_host: self.sender,
                receiver_host: self.receiver,
                decoders: &self.decoders,
                receiver_caps: ParamVector::new(),
            }
        }
    }

    /// `sender -> {A->B transcoders on m} -> receiver`, with a chain
    /// `A->C->B` pair so multi-hop paths and multiple formats exist.
    fn scenario(transcoders: usize) -> Scenario {
        let mut formats = FormatRegistry::new();
        let fa = formats.register_abstract("A", MediaKind::Video);
        let fb = formats.register_abstract("B", MediaKind::Video);
        let _fc = formats.register_abstract("C", MediaKind::Video);

        let mut topo = Topology::new();
        let s = topo.add_node(Node::unconstrained("s"));
        let m = topo.add_node(Node::unconstrained("m"));
        let r = topo.add_node(Node::unconstrained("r"));
        topo.connect_simple(s, m, 1e9).unwrap();
        topo.connect_simple(m, r, 1e9).unwrap();
        let network = Network::new(topo);

        let mut services = ServiceRegistry::new();
        services.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 1_000_000,
        });
        for i in 0..transcoders {
            let spec = ServiceSpec::new(
                format!("T{i}"),
                vec![
                    ConversionSpec::new("A", "B", DomainVector::new()),
                    ConversionSpec::new("A", "C", DomainVector::new()),
                    ConversionSpec::new("C", "B", DomainVector::new()),
                ],
            );
            let descriptor = TranscoderDescriptor::resolve(&spec, &formats, m).unwrap();
            services.register(descriptor, SimTime::ZERO, 10_000_000);
        }

        let variants = vec![ContentVariant::new(fa, DomainVector::new())];
        Scenario {
            formats,
            services,
            network,
            variants,
            sender: s,
            middle: m,
            receiver: r,
            decoders: vec![fb],
        }
    }

    fn register_one(sc: &mut Scenario, name: &str, now: SimTime) -> ServiceId {
        let m = sc.middle;
        let spec = ServiceSpec::new(
            name,
            vec![
                ConversionSpec::new("A", "B", DomainVector::new()),
                ConversionSpec::new("C", "B", DomainVector::new()),
            ],
        );
        let descriptor = TranscoderDescriptor::resolve(&spec, &sc.formats, m).unwrap();
        sc.services.register(descriptor, now, 10_000_000)
    }

    #[test]
    fn same_epoch_requests_share_the_graph() {
        let sc = scenario(4);
        let store = GraphStore::new();
        let a = store.graph_for(&sc.input()).unwrap();
        let b = store.graph_for(&sc.input()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = store.stats();
        assert_eq!(
            (stats.rebuilds, stats.deltas, stats.reuses),
            (1, 0, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn registration_churn_is_served_by_deltas() {
        let mut sc = scenario(4);
        let store = GraphStore::new();
        store.graph_for(&sc.input()).unwrap();

        // Register two more services: delta, not rebuild (the internal
        // verification asserts equivalence with a fresh build).
        register_one(&mut sc, "N0", SimTime::ZERO.plus_micros(10));
        register_one(&mut sc, "N1", SimTime::ZERO.plus_micros(20));
        let updated = store.graph_for(&sc.input()).unwrap();
        let fresh = build::build(&sc.input()).unwrap();
        assert!(graphs_equivalent(&updated, &fresh));

        // Renewals move the epoch but change nothing: zero-op delta.
        let renew_id = sc.services.live_services().next().unwrap().0;
        sc.services
            .renew(renew_id, SimTime::ZERO.plus_micros(30), 10_000_000)
            .unwrap();
        let renewed = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(&renewed, &fresh));

        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.deltas), (1, 2), "{stats:?}");
        assert_eq!(stats.delta_ops, 2, "two additions, zero-op renewal");
    }

    #[test]
    fn quarantine_reinstate_and_expiry_deltas_match_fresh_builds() {
        let mut sc = scenario(5);
        let store = GraphStore::new();
        store.graph_for(&sc.input()).unwrap();

        let ids: Vec<ServiceId> = sc.services.live_services().map(|(id, _)| id).collect();

        // Quarantine one service: its in-edges disappear.
        let t = SimTime::ZERO.plus_micros(100);
        assert!(sc.services.report_failure(ids[1], t).unwrap());
        let quarantined = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &quarantined,
            &build::build(&sc.input()).unwrap()
        ));

        // Reinstate it: the in-edges come back, canonically placed.
        let t2 = t.plus_micros(2_000_000);
        assert_eq!(sc.services.release_quarantines(t2), vec![ids[1]]);
        let reinstated = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &reinstated,
            &build::build(&sc.input()).unwrap()
        ));

        // Let every lease lapse except one: vertices are compacted.
        for &id in &ids[..4] {
            sc.services.deregister(id).unwrap();
        }
        let shrunk = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &shrunk,
            &build::build(&sc.input()).unwrap()
        ));
        assert_eq!(shrunk.vertex_count(), 3, "sender, receiver, one service");

        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.deltas), (1, 3), "{stats:?}");
    }

    #[test]
    fn network_changes_force_a_rebuild() {
        let mut sc = scenario(3);
        let store = GraphStore::new();
        store.graph_for(&sc.input()).unwrap();
        sc.network.advance_background();
        store.graph_for(&sc.input()).unwrap();
        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.deltas), (2, 0), "{stats:?}");
    }

    #[test]
    fn compacted_event_tails_fall_back_to_rebuild() {
        let mut sc = scenario(3);
        let store = GraphStore::new();
        store.graph_for(&sc.input()).unwrap();

        // Registry moves, then the log the store would replay is
        // compacted away: the store must notice the missing tail and
        // rebuild instead of replaying a hole.
        register_one(&mut sc, "N0", SimTime::ZERO.plus_micros(10));
        sc.services.compact_events_below(sc.services.epoch());
        assert_eq!(sc.services.events_since(0), None, "tail really is gone");

        let updated = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &updated,
            &build::build(&sc.input()).unwrap()
        ));
        let stats = store.stats();
        assert_eq!(
            (stats.rebuilds, stats.deltas),
            (2, 0),
            "a compacted tail is a rebuild, never a delta: {stats:?}"
        );

        // Epochs recorded after compaction replay as deltas again.
        register_one(&mut sc, "N1", SimTime::ZERO.plus_micros(20));
        let after = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &after,
            &build::build(&sc.input()).unwrap()
        ));
        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.deltas), (2, 1), "{stats:?}");
    }

    #[test]
    fn scoped_graphs_restamp_only_on_expanded_shard_churn() {
        use qosc_services::ShardedServiceRegistry;

        let mut formats = FormatRegistry::new();
        let fa = formats.register_abstract("A", MediaKind::Video);
        let fb = formats.register_abstract("B", MediaKind::Video);
        formats.register_abstract("C", MediaKind::Video);

        let mut topo = Topology::new();
        let s = topo.add_node(Node::unconstrained("s"));
        let m = topo.add_node(Node::unconstrained("m"));
        let r = topo.add_node(Node::unconstrained("r"));
        topo.connect_simple(s, m, 1e9).unwrap();
        topo.connect_simple(m, r, 1e9).unwrap();
        let network = Network::new(topo);

        let mut sharded = ShardedServiceRegistry::new(4);
        let make = |formats: &FormatRegistry, name: &str, input: &str| {
            let spec = ServiceSpec::new(
                name,
                vec![ConversionSpec::new(input, "B", DomainVector::new())],
            );
            TranscoderDescriptor::resolve(&spec, formats, m).unwrap()
        };
        let a = sharded.register_static(make(&formats, "TA", "A"));
        let c = sharded.register_static(make(&formats, "TC", "C"));
        let (sa, sc_shard) = (sharded.shard_of(a).unwrap(), sharded.shard_of(c).unwrap());
        assert_ne!(sa, sc_shard, "fixture formats land in distinct shards");

        let variants = vec![ContentVariant::new(fa, DomainVector::new())];
        let decoders = vec![fb];
        macro_rules! input {
            () => {
                BuildInput {
                    formats: &formats,
                    services: sharded.flat(),
                    network: &network,
                    variants: &variants,
                    sender_host: s,
                    receiver_host: r,
                    decoders: &decoders,
                    receiver_caps: ParamVector::new(),
                }
            };
        }

        let store = GraphStore::new();
        let mut expanded = vec![false; 4];
        expanded[sa as usize] = true;

        // The scoped graph contains only shard `sa`'s service, and is
        // bitwise the filtered fresh build.
        {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            let scoped = store.scoped_graph_for(&bi, &scope).unwrap();
            assert_eq!(scoped.vertex_count(), 3, "sender, receiver, TA only");
            let fresh = build::build_filtered(&bi, Some(scope.filter())).unwrap();
            assert!(graphs_equivalent(&scoped, &fresh));
        }

        // Churn confined to the *other* shard: the scoped entry's
        // stamps are untouched, so the store serves a zero-cost reuse.
        sharded
            .renew(c, SimTime::ZERO.plus_micros(10), 10_000_000)
            .unwrap();
        {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            store.scoped_graph_for(&bi, &scope).unwrap();
        }
        let stats = store.stats();
        assert_eq!(
            (stats.rebuilds, stats.deltas, stats.reuses),
            (1, 0, 1),
            "other-shard churn must be a reuse: {stats:?}"
        );

        // Churn in the expanded shard replays as a delta.
        sharded
            .renew(a, SimTime::ZERO.plus_micros(20), 10_000_000)
            .unwrap();
        {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            store.scoped_graph_for(&bi, &scope).unwrap();
        }
        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.deltas), (1, 1), "{stats:?}");

        // Compacting the expanded shard's log forces the fallback.
        sharded
            .renew(a, SimTime::ZERO.plus_micros(30), 10_000_000)
            .unwrap();
        sharded.compact_shard_events_below(sa, sharded.shard_epoch(sa));
        {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            store.scoped_graph_for(&bi, &scope).unwrap();
        }
        let stats = store.stats();
        assert_eq!(
            (stats.rebuilds, stats.deltas),
            (2, 1),
            "compacted shard tail is a rebuild: {stats:?}"
        );
    }

    #[test]
    fn oversized_event_tails_fall_back_to_rebuild() {
        let mut sc = scenario(2);
        let store = GraphStore::new().with_delta_threshold(1);
        store.graph_for(&sc.input()).unwrap();
        register_one(&mut sc, "N0", SimTime::ZERO.plus_micros(10));
        register_one(&mut sc, "N1", SimTime::ZERO.plus_micros(20));
        let updated = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &updated,
            &build::build(&sc.input()).unwrap()
        ));
        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.deltas), (2, 0), "{stats:?}");
    }
}
