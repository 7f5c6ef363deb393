//! Adaptation-graph store.
//!
//! The Section 4.2 graph depends on the request's resolved build inputs
//! (sender, receiver class, offered variants, decoders, hardware caps),
//! on the registry and on the network. The store keeps one built graph
//! per build-input key, stamped with the registry state and the
//! `Network::version()` it was built against, and follows one rule:
//!
//! * key, registry stamp and network version all match → return the
//!   stored graph, shared by `Arc` (`reuses`);
//! * anything else → run `build_filtered` and store the result
//!   (`rebuilds`).
//!
//! A caller holding a graph across a write keeps the old world's graph;
//! the store simply stops handing it out. The compose memos in front of
//! the store answer almost every compose that follows a write without
//! fetching a graph at all, so a write costs one build per key the
//! next kernel run needs. `graphs_equivalent` is exported for the
//! store-vs-fresh-build property tests.

use crate::graph::build::{self, BuildInput};
use crate::graph::model::{AdaptationGraph, EdgeId};
use crate::key_hash::KeyHasher;
use crate::Result;
use parking_lot::RwLock;
use qosc_media::{AxisDomain, DomainVector};
use qosc_netsim::memo::memos_off;
use qosc_services::ShardedServiceRegistry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The registry state a stored graph was built against.
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
}

/// Scope context for the sharded two-level path: which shards are
/// expanded and the per-service include flags derived from them.
pub struct GraphScope<'a> {
    sharded: &'a ShardedServiceRegistry,
    expanded: &'a [bool],
    /// O(registered services) to derive, and read only when a graph is
    /// built — so derived on first use, not per compose.
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

/// Counters describing how the store served graph requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStoreStats {
    /// `build_filtered` runs: a cold key, or a stored graph whose
    /// registry stamp or network version moved.
    pub rebuilds: u64,
    /// Always 0: the store has no replay path. Kept because the
    /// benchmark package builds this struct field by field.
    pub deltas: u64,
    /// Always 0, for the same reason as `deltas`.
    pub delta_ops: u64,
    /// Fetches answered by the stored graph as-is.
    pub reuses: u64,
}

/// [`GraphStoreStats::rebuilds`] and [`GraphStoreStats::reuses`] summed
/// over every store in the process, those a compose memo keeps to itself
/// included: the cache's, and the one of each `run_sessions` run.
static REBUILDS_TOTAL: AtomicU64 = AtomicU64::new(0);
static REUSES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Rebuilds and reuses of every [`GraphStore`] since process start
/// (tests and scorecards only; a delta is exact when no other thread
/// fetches meanwhile).
pub fn graph_fetch_totals() -> GraphStoreStats {
    GraphStoreStats {
        rebuilds: REBUILDS_TOTAL.load(Ordering::Relaxed),
        deltas: 0,
        delta_ops: 0,
        reuses: REUSES_TOTAL.load(Ordering::Relaxed),
    }
}

/// Stamped graph store. Shared by reference across engine workers; all
/// interior mutability is lock- or atomic-based. Under [`memos_off`]
/// every request rebuilds.
pub struct GraphStore {
    entries: RwLock<HashMap<u64, StoreEntry>>,
    rebuilds: AtomicU64,
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
            .field("stats", &self.stats())
            .finish()
    }
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> GraphStore {
        GraphStore {
            entries: RwLock::new(HashMap::new()),
            rebuilds: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GraphStoreStats {
        GraphStoreStats {
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            deltas: 0,
            delta_ops: 0,
            reuses: self.reuses.load(Ordering::Relaxed),
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

    /// The graph for `input`, reused or rebuilt.
    pub fn graph_for(&self, input: &BuildInput<'_>) -> Result<Arc<AdaptationGraph>> {
        self.graph_for_inner(input, None)
    }

    /// The graph for `input` restricted to `scope`'s expanded shards —
    /// the two-level composer's workhorse. Entries are keyed per scope
    /// and stamped with the expanded shards' epochs only, so churn in a
    /// non-expanded shard leaves the entry current: revalidation is
    /// O(expanded shards), not O(registry).
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

        if !memos_off() {
            let guard = self.entries.read();
            if let Some(entry) = guard
                .get(&key)
                .filter(|entry| entry.stamp == stamp && entry.network_version == version)
            {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                REUSES_TOTAL.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.graph.clone());
            }
        }

        // Release the stale graph, outside the lock, before building its
        // successor: the store never holds two generations of one key.
        let stale = self.entries.write().remove(&key);
        drop(stale);
        let graph = Arc::new(build::build_filtered(input, scope.map(GraphScope::filter))?);
        self.entries.write().insert(
            key,
            StoreEntry {
                graph: graph.clone(),
                stamp,
                network_version: version,
            },
        );
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        REBUILDS_TOTAL.fetch_add(1, Ordering::Relaxed);
        Ok(graph)
    }
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
    let mut hasher = KeyHasher::default();
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

fn hash_domain_vector(domain: &DomainVector, hasher: &mut KeyHasher) {
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
    use qosc_media::{ContentVariant, FormatId, FormatRegistry, MediaKind, ParamVector};
    use qosc_netsim::{Network, Node, NodeId, SimTime, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};
    use qosc_services::{QuarantineConfig, ServiceId, ServiceRegistry, TranscoderDescriptor};

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

    fn fetch_is_fresh(store: &GraphStore, sc: &Scenario) -> Arc<AdaptationGraph> {
        let fetched = store.graph_for(&sc.input()).unwrap();
        assert!(graphs_equivalent(
            &fetched,
            &build::build(&sc.input()).unwrap()
        ));
        fetched
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
            (stats.rebuilds, stats.reuses, stats.deltas, stats.delta_ops),
            (1, 1, 0, 0),
            "{stats:?}"
        );
    }

    /// Every registry write — registrations, a renewal, a quarantine,
    /// its release, deregistrations — moves the epoch, so the next
    /// fetch rebuilds to exactly the fresh graph; the fetch after that
    /// reuses it. A graph held across a write keeps the old world.
    #[test]
    fn registry_writes_rebuild_to_the_fresh_graph() {
        let mut sc = scenario(5);
        let store = GraphStore::new();
        let mut held = fetch_is_fresh(&store, &sc);
        let ids: Vec<ServiceId> = sc.services.live_services().map(|(id, _)| id).collect();
        let t = SimTime::ZERO.plus_micros(100);

        let writes: [&dyn Fn(&mut Scenario); 5] = [
            &|sc| {
                register_one(sc, "N0", SimTime::ZERO.plus_micros(10));
                register_one(sc, "N1", SimTime::ZERO.plus_micros(20));
            },
            &|sc| sc.services.renew(ids[0], t, 10_000_000).unwrap(),
            &|sc| assert!(sc.services.report_failure(ids[1], t).unwrap()),
            &|sc| {
                let released = sc.services.release_quarantines(t.plus_micros(2_000_000));
                assert_eq!(released, vec![ids[1]]);
            },
            &|sc| {
                for &id in &ids[..4] {
                    sc.services.deregister(id).unwrap();
                }
            },
        ];
        for write in writes {
            let old_world = build::build(&sc.input()).unwrap();
            write(&mut sc);
            let fetched = fetch_is_fresh(&store, &sc);
            assert!(!Arc::ptr_eq(&held, &fetched));
            assert!(graphs_equivalent(&held, &old_world), "the held graph moved");
            assert!(Arc::ptr_eq(
                &fetched,
                &store.graph_for(&sc.input()).unwrap()
            ));
            held = fetched;
        }
        assert_eq!(held.vertex_count(), 5, "sender, receiver, T4, N0, N1");
        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.reuses), (6, 5), "{stats:?}");
        assert_eq!(store.len(), 1, "one key, rebuilt in place");
    }

    #[test]
    fn network_changes_force_a_rebuild() {
        let mut sc = scenario(3);
        let store = GraphStore::new();
        let before = fetch_is_fresh(&store, &sc);
        sc.network.advance_background();
        let after = fetch_is_fresh(&store, &sc);
        assert!(!Arc::ptr_eq(&before, &after));
        let stats = store.stats();
        assert_eq!((stats.rebuilds, stats.reuses), (2, 0), "{stats:?}");
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
        // the filtered fresh build.
        let first = {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            let scoped = store.scoped_graph_for(&bi, &scope).unwrap();
            assert_eq!(scoped.vertex_count(), 3, "sender, receiver, TA only");
            let fresh = build::build_filtered(&bi, Some(scope.filter())).unwrap();
            assert!(graphs_equivalent(&scoped, &fresh));
            scoped
        };

        // Churn confined to the *other* shard: the scoped entry's
        // stamps are untouched, so the store serves a zero-cost reuse.
        sharded
            .renew(c, SimTime::ZERO.plus_micros(10), 10_000_000)
            .unwrap();
        {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            let reused = store.scoped_graph_for(&bi, &scope).unwrap();
            assert!(Arc::ptr_eq(&first, &reused));
        }
        let stats = store.stats();
        assert_eq!(
            (stats.rebuilds, stats.reuses),
            (1, 1),
            "other-shard churn must be a reuse: {stats:?}"
        );

        // Churn in the expanded shard restamps: a rebuild, still the
        // filtered fresh build.
        sharded
            .renew(a, SimTime::ZERO.plus_micros(20), 10_000_000)
            .unwrap();
        {
            let bi = input!();
            let scope = GraphScope::new(&sharded, &expanded);
            let rebuilt = store.scoped_graph_for(&bi, &scope).unwrap();
            assert!(!Arc::ptr_eq(&first, &rebuilt));
            let fresh = build::build_filtered(&bi, Some(scope.filter())).unwrap();
            assert!(graphs_equivalent(&rebuilt, &fresh));
        }
        let stats = store.stats();
        assert_eq!(
            (stats.rebuilds, stats.reuses),
            (2, 1),
            "expanded-shard churn is a rebuild: {stats:?}"
        );

        // The flat entry for the same inputs is a key of its own.
        store.graph_for(&input!()).unwrap();
        assert_eq!((store.len(), store.stats().rebuilds), (2, 3));
    }
}
