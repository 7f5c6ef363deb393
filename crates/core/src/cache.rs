//! Composition caching.
//!
//! The paper's related work (its reference \[7\], Chang & Chen, ICDE 2002)
//! studies caching in trans-coding proxies; a composition front-end
//! naturally wants the same: most requests repeat a (content, device
//! class, preference) combination, and re-running graph construction +
//! selection for each is wasted work while nothing changed.
//!
//! [`ShardedCompositionCache`] memoizes [`AdaptationPlan`]s keyed by
//! the request's observable inputs — a structural 64-bit hash of the
//! profile set and the endpoints. A hit is *revalidated* before reuse:
//! every service on the cached chain must still be live in the registry
//! and every hop must still have the bandwidth the plan needs — the
//! same liveness condition the resilience monitor checks — each half
//! re-checked only when its own stamp (registry epoch, network version)
//! moved. Stale entries are recomposed transparently.
//!
//! The key covers the whole profile set, user name included, so one
//! (content, device, preference) class spans many entries. A miss or a
//! stale probe therefore asks the compose memo first (`class_memo`): it
//! interns each request class — what selection reads, the name not
//! among it — to a dense id with one answer slot at the current
//! [`WorldStamp`], so after a world write the kernel runs once per
//! class, not once per stale entry; on a stamp miss it also looks the
//! world's content up among the class's recent answers, so a world that
//! returns to an earlier state runs no kernel. Each entry keeps its
//! class id, and a stale probe under the class's options hands it back,
//! so it resolves, hashes and compares no class. Entries and the memo
//! share each plan by `Arc`; a probe copies it out once, on return. Keys
//! are hashed by the crate's deterministic folded-multiply `KeyHasher`.
//! The
//! store-free cache
//! ([`new_without_graph_store`](ShardedCompositionCache::new_without_graph_store))
//! has no memo and is the reference X15 compares both against.
//!
//! The store is split into power-of-two **shards**, each guarded by its
//! own `RwLock`, selected by the low bits of the request key (lock
//! shards — nothing to do with the shards of a
//! `ShardedServiceRegistry`). Requests
//! for different shards never contend; requests for the same shard
//! contend only on the short map lookup/insert, not on composition
//! itself (which always runs outside any lock). Counters are per-shard
//! atomics, so [`stats`](ShardedCompositionCache::stats) aggregates
//! exactly: every `compose` call increments exactly one of
//! hits/misses/stale, and `hits + misses + stale` equals the number of
//! requests served no matter how the requests interleave.

mod class_memo;

use crate::composer::Composer;
use crate::graph::{GraphStore, GraphStoreStats};
use crate::key_hash::KeyHasher;
use crate::plan::AdaptationPlan;
use crate::select::SelectOptions;
use crate::stamp::WorldStamp;
use crate::Result;
use class_memo::{class_hash, ClassMemo};
use parking_lot::RwLock;
use qosc_netsim::{Network, NodeId};
use qosc_profiles::ProfileSet;
use qosc_services::ServiceRegistry;
use qosc_telemetry::{
    CacheOutcome, EventKind, MetricsRegistry, RequestTrace, TelemetrySink, ROOT_SPAN,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from cache after successful revalidation.
    pub hits: usize,
    /// Requests with no usable cache entry (first sight or key miss).
    pub misses: usize,
    /// Cached entries that failed revalidation and were recomposed.
    pub stale: usize,
}

impl CacheStats {
    /// Hit rate over all requests, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mirror this snapshot into `registry` as the
    /// `qosc_cache_{hits,misses,stale}_total` counters. The struct stays
    /// the cheap view; the registry is the unified export surface.
    pub fn record_metrics(&self, registry: &MetricsRegistry) {
        registry
            .counter("qosc_cache_hits_total")
            .store(self.hits as u64);
        registry
            .counter("qosc_cache_misses_total")
            .store(self.misses as u64);
        registry
            .counter("qosc_cache_stale_total")
            .store(self.stale as u64);
    }
}

/// A cached plan stamped with the world state it was validated
/// against. While the registry epoch holds still nothing the registry
/// half of a revalidation reads can have changed, and likewise the
/// network version for the network half, so each part of the stamp
/// certifies its half of the plan with one integer compare. The half
/// whose part moved is re-checked — and on success the entry is
/// re-stamped, so the classification is exactly what a
/// scan-everything-every-time cache produces.
#[derive(Debug, Clone)]
struct CachedPlan {
    /// Shared with the compose memo; a hit copies it out once.
    plan: Arc<AdaptationPlan>,
    stamp: WorldStamp,
    /// The request's class id in the compose memo, which a stale probe
    /// hands back to it; `None` in the store-free cache, which has no
    /// memo.
    class: Option<u32>,
}

/// One lock-guarded slice of the cache, with its own exact counters.
#[derive(Debug, Default)]
struct Shard {
    entries: RwLock<HashMap<u64, CachedPlan>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stale: AtomicUsize,
}

/// A concurrent memoizing front-end over [`Composer::compose`].
///
/// Shared by reference across worker threads: `compose` takes `&self`.
/// The entry map is split across power-of-two shards selected by the
/// low bits of the request key; statistics are per-shard atomics that
/// aggregate exactly (see the module docs).
#[derive(Debug)]
pub struct ShardedCompositionCache {
    shards: Vec<Shard>,
    mask: usize,
    /// Incremental graph store feeding misses and stale recomposes.
    /// `None` runs the historical rebuild-per-compose path (kept for
    /// baseline measurement).
    graph_store: Option<GraphStore>,
    /// Request classes by dense id, each with one answer slot at the
    /// world stamp it was filled at and its recent answers by world
    /// content, consulted by misses and stale probes on the store-backed
    /// path.
    memo: ClassMemo,
}

impl Default for ShardedCompositionCache {
    fn default() -> ShardedCompositionCache {
        ShardedCompositionCache::new(ShardedCompositionCache::DEFAULT_SHARDS)
    }
}

impl ShardedCompositionCache {
    /// Shard count used by [`default`](ShardedCompositionCache::default):
    /// comfortably above any worker count the engine runs with, so
    /// same-shard collisions stay rare.
    pub const DEFAULT_SHARDS: usize = 16;

    /// An empty cache with `shards` shards (rounded up to the next
    /// power of two, minimum 1), backed by an incremental
    /// [`GraphStore`].
    pub fn new(shards: usize) -> ShardedCompositionCache {
        let count = shards.max(1).next_power_of_two();
        ShardedCompositionCache {
            shards: (0..count).map(|_| Shard::default()).collect(),
            mask: count - 1,
            graph_store: Some(GraphStore::new()),
            memo: ClassMemo::default(),
        }
    }

    /// An empty cache that rebuilds the adaptation graph and runs the
    /// selection kernel on every miss and stale probe (the pre-store
    /// behaviour): no graph store, no compose memo. Plans, traces and
    /// counters are identical to the store-backed cache; only the work
    /// done per miss differs. X15 (`selection_hotpath`) serves every
    /// request through both and compares them request by request, so
    /// this cache is the reference for both memos.
    pub fn new_without_graph_store(shards: usize) -> ShardedCompositionCache {
        let mut cache = ShardedCompositionCache::new(shards);
        cache.graph_store = None;
        cache
    }

    /// The backing graph store, when one is attached.
    pub fn graph_store(&self) -> Option<&GraphStore> {
        self.graph_store.as_ref()
    }

    /// Graph-store counters (zeros when no store is attached).
    pub fn graph_stats(&self) -> GraphStoreStats {
        self.graph_store
            .as_ref()
            .map(GraphStore::stats)
            .unwrap_or_default()
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: u64) -> &Shard {
        // The low bits pick the shard; the full key stays the map key,
        // which is fine for HashMap (it re-hashes anyway).
        &self.shards[(key as usize) & self.mask]
    }

    /// Compose through the cache: return a revalidated cached plan when
    /// one exists for this request, otherwise compose, store and return.
    /// `None` means the request is currently unsolvable (negative
    /// results are *not* cached — the graph may heal).
    ///
    /// Only the plan comes back, so the selection behind a miss or a
    /// stale entry never records the Table-1 trace, whatever
    /// `options.record_trace` says.
    ///
    /// Composition and revalidation both run outside the shard lock, so
    /// concurrent requests only contend on the map lookup/insert. Two
    /// threads racing on the same cold key may both compose; both count
    /// as misses and the insert is idempotent (composition is
    /// deterministic for a given snapshot).
    pub fn compose(
        &self,
        composer: &Composer<'_>,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
    ) -> Result<Option<AdaptationPlan>> {
        self.compose_traced(
            composer,
            profiles,
            sender_host,
            receiver_host,
            options,
            &mut RequestTrace::noop(),
        )
    }

    /// [`compose`](ShardedCompositionCache::compose) with the probe
    /// outcome (hit / miss / stale) recorded into `trace` under a
    /// `cache` span. With a [`qosc_telemetry::NoopSink`] trace this is
    /// exactly `compose`.
    pub fn compose_traced<S: TelemetrySink>(
        &self,
        composer: &Composer<'_>,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
        trace: &mut RequestTrace<'_, S>,
    ) -> Result<Option<AdaptationPlan>> {
        // Only the plan is kept: the Table-1 trace would be built and
        // thrown away.
        let options = SelectOptions {
            record_trace: false,
            ..*options
        };
        let key = request_key(profiles, sender_host, receiver_host);
        self.probe(
            key,
            composer.services,
            composer.network,
            trace,
            |stamp, known| match &self.graph_store {
                Some(store) => {
                    let (class, plan) = self.memo.compose(
                        composer,
                        store,
                        profiles,
                        sender_host,
                        receiver_host,
                        &options,
                        stamp,
                        known,
                        class_hash,
                    )?;
                    Ok((Some(class), plan))
                }
                None => Ok((
                    None,
                    composer
                        .compose(profiles, sender_host, receiver_host, &options)?
                        .plan
                        .map(Arc::new),
                )),
            },
        )
    }

    /// Look `key` up, revalidate a found entry by halves against
    /// `services` and `network`, and on a miss or a stale entry run
    /// `compose` at the world's stamp — with the stale entry's class
    /// id — and store its plan under the class id it returns.
    ///
    /// Each half of the world is re-checked only when its own stamp
    /// moved. The registry half ([`ServiceRegistry::is_available`] per
    /// stage) reads nothing but the registry, which cannot have changed
    /// while its epoch stands still; the network half
    /// ([`Network::node_failed`] per host, [`Network::available_between`]
    /// per hop) reads nothing but the network, whose answers are
    /// identical at equal [`Network::version`]s. An entry is stamped
    /// only when both halves hold (composed against this world, or
    /// re-checked), so a half whose stamp is fresh would pass again:
    /// skipping it classifies exactly as re-running it.
    fn probe<S: TelemetrySink>(
        &self,
        key: u64,
        services: &ServiceRegistry,
        network: &Network,
        trace: &mut RequestTrace<'_, S>,
        compose: impl FnOnce(
            WorldStamp,
            Option<u32>,
        ) -> Result<(Option<u32>, Option<Arc<AdaptationPlan>>)>,
    ) -> Result<Option<AdaptationPlan>> {
        let shard = self.shard_for(key);
        let mut record = |outcome: CacheOutcome| {
            let span = trace.open_span(ROOT_SPAN, "cache");
            trace.emit(span, EventKind::CacheProbe { outcome });
        };
        let stamp = WorldStamp::of(services, network);
        let cached = shard.entries.read().get(&key).cloned();
        let mut known = None;
        match cached {
            Some(entry) => {
                let registry_fresh = entry.stamp.registry_epoch == stamp.registry_epoch;
                let network_fresh = entry.stamp.network_version == stamp.network_version;
                if (registry_fresh || services_still_available(services, &entry.plan))
                    && (network_fresh || hops_still_routable(network, &entry.plan))
                {
                    if !(registry_fresh && network_fresh) {
                        // The world moved but the plan survived the
                        // half that moved: re-stamp so the next probe
                        // is a stamp compare again.
                        if let Some(entry) = shard.entries.write().get_mut(&key) {
                            entry.stamp = stamp;
                        }
                    }
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    record(CacheOutcome::Hit);
                    return Ok(Some(AdaptationPlan::clone(&entry.plan)));
                }
                shard.entries.write().remove(&key);
                known = entry.class;
                shard.stale.fetch_add(1, Ordering::Relaxed);
                record(CacheOutcome::Stale);
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                record(CacheOutcome::Miss);
            }
        }
        let (class, plan) = compose(stamp, known)?;
        if let Some(plan) = &plan {
            shard.entries.write().insert(
                key,
                CachedPlan {
                    plan: Arc::clone(plan),
                    stamp,
                    class,
                },
            );
        }
        Ok(plan.map(|plan| AdaptationPlan::clone(&plan)))
    }

    /// Drop every cached entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.entries.write().clear();
        }
    }

    /// Number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.read().len()).sum()
    }

    /// Number of cached plans in shard `index` (one short read-lock on
    /// that shard only — the gauge exporter polls shard by shard
    /// instead of freezing the whole cache).
    ///
    /// # Panics
    ///
    /// Panics when `index >= shard_count()`.
    pub fn shard_len(&self, index: usize) -> usize {
        self.shards[index].entries.read().len()
    }

    /// Per-shard entry counts, locking one shard at a time. The vector
    /// is a statistical snapshot: entries inserted while walking may or
    /// may not be counted, but each shard's own count is exact at the
    /// instant it was read.
    pub fn shard_lens(&self) -> Vec<usize> {
        (0..self.shards.len()).map(|i| self.shard_len(i)).collect()
    }

    /// Export per-shard occupancy into `registry`:
    /// `qosc_cache_shard_entries{shard="i"}` gauges plus the
    /// `qosc_cache_entries` total, using [`shard_len`] so no two shard
    /// locks are ever held at once.
    ///
    /// [`shard_len`]: ShardedCompositionCache::shard_len
    pub fn export_gauges(&self, registry: &MetricsRegistry) {
        let mut total = 0usize;
        for index in 0..self.shard_count() {
            let len = self.shard_len(index);
            total += len;
            registry
                .gauge(&format!("qosc_cache_shard_entries{{shard=\"{index}\"}}"))
                .set(len as i64);
        }
        registry.gauge("qosc_cache_entries").set(total as i64);
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/stale counters since construction, summed over shards.
    /// Exact: each `compose` call increments exactly one counter, so
    /// `hits + misses + stale` equals the number of requests served.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.stale += shard.stale.load(Ordering::Relaxed);
        }
        stats
    }
}

/// Process-wide count of [`request_key`] calls.
static REQUEST_HASHES: AtomicU64 = AtomicU64::new(0);

/// Requests hashed into a key across all threads since process start:
/// one per cache probe, and one per request the batch engines and the
/// session loop intern that differs from the request before it. A
/// compose-memo hit hashes none (counted-work gates only).
pub fn request_hashes_total() -> u64 {
    REQUEST_HASHES.load(Ordering::Relaxed)
}

/// Key a request by hashing its profile set structurally, plus the
/// endpoints: every field of every profile goes straight into the
/// hasher (see `impl Hash for ProfileSet`), so equal requests collide
/// and different requests do not (modulo 64-bit hashing), without
/// rendering or allocating anything.
pub(crate) fn request_key(profiles: &ProfileSet, sender: NodeId, receiver: NodeId) -> u64 {
    REQUEST_HASHES.fetch_add(1, Ordering::Relaxed);
    let mut hasher = KeyHasher::default();
    profiles.hash(&mut hasher);
    sender.index().hash(&mut hasher);
    receiver.index().hash(&mut hasher);
    hasher.finish()
}

/// The registry half of revalidation: every trans-coding stage still
/// advertised (live lease, not quarantined).
fn services_still_available(services: &ServiceRegistry, plan: &AdaptationPlan) -> bool {
    plan.steps
        .iter()
        .filter_map(|step| step.service)
        .all(|service| services.is_available(service))
}

/// The network half of revalidation: every host up, every hop still
/// routable with the plan's rate.
fn hops_still_routable(network: &Network, plan: &AdaptationPlan) -> bool {
    if plan.steps.iter().any(|step| network.node_failed(step.host)) {
        return false;
    }
    for pair in plan.steps.windows(2) {
        match network.available_between(pair[0].host, pair[1].host) {
            Ok(available) => {
                if available * (1.0 + 1e-6) + 1e-6 < pair[1].input_bps {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, UserProfile,
    };
    use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};
    use std::collections::hash_map::DefaultHasher;

    struct Fixture {
        formats: FormatRegistry,
        services: ServiceRegistry,
        network: Network,
        profiles: ProfileSet,
        server: NodeId,
        client: NodeId,
    }

    fn fixture() -> Fixture {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let server = topo.add_node(Node::unconstrained("server"));
        let proxy = topo.add_node(Node::unconstrained("proxy"));
        let client = topo.add_node(Node::unconstrained("client"));
        topo.connect_simple(server, proxy, 100e6).unwrap();
        topo.connect_simple(proxy, client, 1e6).unwrap();
        let network = Network::new(topo);
        let mut services = ServiceRegistry::new();
        for spec in catalog::full_catalog() {
            services
                .register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
        }
        let profiles = ProfileSet {
            user: UserProfile::demo("cache-user"),
            content: ContentProfile::demo_video("clip"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::broadband(),
        };
        Fixture {
            formats,
            services,
            network,
            profiles,
            server,
            client,
        }
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedCompositionCache::new(0).shard_count(), 1);
        assert_eq!(ShardedCompositionCache::new(3).shard_count(), 4);
        assert_eq!(ShardedCompositionCache::new(16).shard_count(), 16);
        assert_eq!(ShardedCompositionCache::default().shard_count(), 16);
    }

    #[test]
    fn sharded_cache_serves_through_shared_reference() {
        let f = fixture();
        let composer = Composer {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let cache = ShardedCompositionCache::default();
        let options = SelectOptions::default();
        let a = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap()
            .expect("solvable");
        let b = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap()
            .expect("solvable");
        assert_eq!(a, b);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stale: 0
            }
        );
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        // Counters survive a clear.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn second_identical_request_hits() {
        let f = fixture();
        let composer = Composer {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let cache = ShardedCompositionCache::new(1);
        let options = SelectOptions::default();
        let a = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap()
            .expect("solvable");
        let b = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap()
            .expect("solvable");
        assert_eq!(a, b);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stale: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_user_preferences_miss() {
        let f = fixture();
        let composer = Composer {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let cache = ShardedCompositionCache::new(1);
        let options = SelectOptions::default();
        cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap();
        let mut other = f.profiles.clone();
        other.user = UserProfile::paper_table1();
        cache
            .compose(&composer, &other, f.server, f.client, &options)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn dead_service_invalidates_entry() {
        let mut f = fixture();
        let options = SelectOptions::default();
        let first = {
            let composer = Composer {
                formats: &f.formats,
                services: &f.services,
                network: &f.network,
            };
            let cache = ShardedCompositionCache::new(1);
            cache
                .compose(&composer, &f.profiles, f.server, f.client, &options)
                .unwrap()
                .expect("solvable")
        };
        // Kill every service on the cached chain, then re-request.
        let cache = ShardedCompositionCache::new(1);
        {
            let composer = Composer {
                formats: &f.formats,
                services: &f.services,
                network: &f.network,
            };
            cache
                .compose(&composer, &f.profiles, f.server, f.client, &options)
                .unwrap();
        }
        for step in &first.steps {
            if let Some(id) = step.service {
                f.services.deregister(id).unwrap();
            }
        }
        let composer = Composer {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let replacement = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap();
        assert_eq!(cache.stats().stale, 1);
        if let Some(plan) = replacement {
            for step in &plan.steps {
                if let Some(id) = step.service {
                    assert!(f.services.is_live(id), "cached-through dead service");
                }
            }
        }
    }

    /// White-box proof that a stamp match answers in O(1) *without*
    /// running the revalidation scan: poison a cached entry so the scan
    /// would reject it, but stamp it with the current epoch/version.
    /// The probe must hit (scan skipped); once the stamps move, the
    /// very same entry must be classified stale by the scan.
    #[test]
    fn same_stamp_hit_skips_revalidation_scan() {
        let mut f = fixture();
        let options = SelectOptions::default();
        let cache = ShardedCompositionCache::new(1);
        let first = {
            let composer = Composer {
                formats: &f.formats,
                services: &f.services,
                network: &f.network,
            };
            cache
                .compose(&composer, &f.profiles, f.server, f.client, &options)
                .unwrap()
                .expect("solvable")
        };
        let proxy_host = first
            .steps
            .iter()
            .find(|s| s.service.is_some())
            .expect("has a transcoder")
            .host;
        // Invalidate the plan for the scan (proxy down bumps the
        // network version), then forge fresh stamps on the entry.
        f.network.fail_node(proxy_host).unwrap();
        let key = request_key(&f.profiles, f.server, f.client);
        {
            let shard = cache.shard_for(key);
            let mut entries = shard.entries.write();
            let entry = entries.get_mut(&key).expect("entry cached");
            entry.stamp = WorldStamp::of(&f.services, &f.network);
        }
        let again = {
            let composer = Composer {
                formats: &f.formats,
                services: &f.services,
                network: &f.network,
            };
            cache
                .compose(&composer, &f.profiles, f.server, f.client, &options)
                .unwrap()
                .expect("stamped entry must hit")
        };
        // The scan would have rejected this plan (its proxy is down);
        // getting it back verbatim proves the stamp path skipped the
        // scan entirely.
        assert_eq!(again, first);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stale: 0
            }
        );
        // Move the stamps: now the full scan runs and must classify the
        // same poisoned entry as stale.
        f.network.fail_node(f.client).unwrap();
        let composer = Composer {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let after = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap();
        assert!(after.is_none(), "proxy and client dead → unsolvable");
        assert_eq!(cache.stats().stale, 1);
    }

    /// A registry mutation that does not touch the cached chain moves
    /// the epoch, forcing one full scan — which passes and re-stamps
    /// the entry, so the *next* probe is an O(1) stamp hit again.
    #[test]
    fn unrelated_churn_restamps_after_full_scan() {
        let mut f = fixture();
        let options = SelectOptions::default();
        let cache = ShardedCompositionCache::new(1);
        let compose = |f: &Fixture| {
            let composer = Composer {
                formats: &f.formats,
                services: &f.services,
                network: &f.network,
            };
            cache
                .compose(&composer, &f.profiles, f.server, f.client, &options)
                .unwrap()
                .expect("solvable")
        };
        compose(&f);
        let key = request_key(&f.profiles, f.server, f.client);
        let stamps = |cache: &ShardedCompositionCache| {
            let shard = cache.shard_for(key);
            let entries = shard.entries.read();
            entries.get(&key).expect("entry cached").stamp
        };
        let stamped_at_insert = stamps(&cache);
        assert_eq!(stamped_at_insert, WorldStamp::of(&f.services, &f.network));
        // Unrelated churn: duplicate one catalog service on the proxy.
        // The cached chain stays valid but the epoch moves.
        let spec = &catalog::full_catalog()[0];
        let proxy_host = f.services.live_services().next().unwrap().1.host;
        f.services
            .register_static(TranscoderDescriptor::resolve(spec, &f.formats, proxy_host).unwrap());
        assert_ne!(f.services.epoch(), stamped_at_insert.registry_epoch);
        compose(&f);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stale: 0
            }
        );
        // The surviving entry was re-stamped to the post-churn world…
        assert_eq!(stamps(&cache), WorldStamp::of(&f.services, &f.network));
        // …so the next probe is a same-stamp hit without another scan.
        compose(&f);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                stale: 0
            }
        );
    }

    #[test]
    fn failed_node_invalidates_entry() {
        let mut f = fixture();
        let options = SelectOptions::default();
        let cache = ShardedCompositionCache::new(1);
        let first = {
            let composer = Composer {
                formats: &f.formats,
                services: &f.services,
                network: &f.network,
            };
            cache
                .compose(&composer, &f.profiles, f.server, f.client, &options)
                .unwrap()
                .expect("solvable")
        };
        let proxy_host = first
            .steps
            .iter()
            .find(|s| s.service.is_some())
            .expect("has a transcoder")
            .host;
        f.network.fail_node(proxy_host).unwrap();
        let composer = Composer {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let after = cache
            .compose(&composer, &f.profiles, f.server, f.client, &options)
            .unwrap();
        assert_eq!(cache.stats().stale, 1);
        assert!(after.is_none(), "single proxy dead → unsolvable");
    }

    // -----------------------------------------------------------------
    // Revalidation by halves
    // -----------------------------------------------------------------

    /// [`fixture`] with a one-strike quarantine and a one-shard cache.
    struct HalvesFixture {
        world: Fixture,
        cache: ShardedCompositionCache,
    }

    impl HalvesFixture {
        fn new() -> HalvesFixture {
            let mut world = fixture();
            world
                .services
                .set_quarantine_config(qosc_services::QuarantineConfig {
                    failure_threshold: 1,
                    cooldown_us: 1_000_000,
                });
            HalvesFixture {
                world,
                cache: ShardedCompositionCache::new(1),
            }
        }

        fn compose(&self) -> Option<AdaptationPlan> {
            let w = &self.world;
            self.cache
                .compose(
                    &Composer {
                        formats: &w.formats,
                        services: &w.services,
                        network: &w.network,
                    },
                    &w.profiles,
                    w.server,
                    w.client,
                    &SelectOptions::default(),
                )
                .unwrap()
        }

        /// Run `edit` on the one cached entry.
        fn with_entry<T>(&self, edit: impl FnOnce(&mut CachedPlan) -> T) -> T {
            let w = &self.world;
            let key = request_key(&w.profiles, w.server, w.client);
            let mut entries = self.cache.shard_for(key).entries.write();
            edit(entries.get_mut(&key).expect("entry cached"))
        }

        fn stamps(&self) -> WorldStamp {
            self.with_entry(|entry| entry.stamp)
        }

        fn world_stamps(&self) -> WorldStamp {
            WorldStamp::of(&self.world.services, &self.world.network)
        }

        /// A registry mutation that leaves `service` available but moves
        /// the epoch, so the registry half cannot be called fresh.
        fn churn_around(&mut self, service: qosc_services::ServiceId) {
            use qosc_netsim::SimTime;
            self.world
                .services
                .renew(service, SimTime(20), u64::MAX / 2)
                .unwrap();
        }
    }

    fn first_service(plan: &AdaptationPlan) -> (qosc_services::ServiceId, NodeId) {
        let step = plan
            .steps
            .iter()
            .find(|s| s.service.is_some())
            .expect("has a transcoder");
        (step.service.unwrap(), step.host)
    }

    /// (a) Network stamp fresh, registry epoch moved: only the registry
    /// half runs. The entry's network half is poisoned (its proxy is
    /// down) under a forged-fresh network stamp; the probe must hit and
    /// re-stamp, and the same entry must go stale as soon as the
    /// network version moves.
    #[test]
    fn fresh_network_stamp_skips_the_network_half() {
        let mut f = HalvesFixture::new();
        let first = f.compose().expect("solvable");
        let (service, proxy) = first_service(&first);
        f.world.network.fail_node(proxy).unwrap();
        let version = f.world.network.version();
        f.with_entry(|entry| entry.stamp.network_version = version);
        f.churn_around(service);
        assert_ne!(f.stamps().registry_epoch, f.world_stamps().registry_epoch);

        let again = f.compose().expect("network half must be skipped");
        assert_eq!(again, first);
        assert_eq!(
            f.cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stale: 0
            }
        );
        assert_eq!(f.stamps(), f.world_stamps(), "re-stamped");

        // Any network mutation, even one that changes no answer,
        // sends the probe through the network half.
        let _ = f.world.network.background_mut();
        assert!(f.compose().is_none(), "the one proxy is down");
        assert_eq!(f.cache.stats().stale, 1);
    }

    /// (b) A chain service quarantined with the network untouched: the
    /// registry half runs on its own and rejects the entry.
    #[test]
    fn quarantined_chain_service_is_stale_with_the_network_untouched() {
        use qosc_netsim::SimTime;
        let mut f = HalvesFixture::new();
        let first = f.compose().expect("solvable");
        let (service, _) = first_service(&first);
        let version = f.world.network.version();
        assert!(f
            .world
            .services
            .report_failure(service, SimTime(10))
            .unwrap());
        assert_eq!(f.world.network.version(), version);

        let replacement = f.compose();
        assert_eq!(
            f.cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                stale: 1
            }
        );
        let replacement = replacement.expect("the catalog has another chain");
        assert!(
            replacement.steps.iter().all(|s| s.service != Some(service)),
            "recomposed around the quarantined service"
        );
        // The stale entry made way for the recompose's.
        assert_eq!(f.cache.len(), 1);
        assert_eq!(*f.with_entry(|entry| Arc::clone(&entry.plan)), replacement);
        assert_eq!(f.stamps(), f.world_stamps());
    }

    /// (c) Registry stamp fresh, network version moved: only the
    /// network half runs. The entry's registry half is poisoned (a
    /// chain service is quarantined) under a forged-fresh registry
    /// stamp; the probe must hit and re-stamp, and the same entry must
    /// go stale as soon as the registry moves.
    #[test]
    fn fresh_registry_stamps_skip_the_registry_half() {
        use qosc_netsim::SimTime;
        let mut f = HalvesFixture::new();
        let first = f.compose().expect("solvable");
        let (service, _) = first_service(&first);
        assert!(f
            .world
            .services
            .report_failure(service, SimTime(10))
            .unwrap());
        let epoch = f.world.services.epoch();
        f.with_entry(|entry| entry.stamp.registry_epoch = epoch);
        let _ = f.world.network.background_mut();
        assert_ne!(f.stamps().network_version, f.world_stamps().network_version);

        let again = f.compose().expect("registry half must be skipped");
        assert_eq!(again, first);
        assert_eq!(
            f.cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stale: 0
            }
        );
        assert_eq!(f.stamps(), f.world_stamps(), "re-stamped");

        // Registry movement sends the probe through the registry half,
        // which sees the quarantine.
        f.world.services.release_quarantines(SimTime(11));
        f.churn_around(service);
        assert!(!f.world.services.is_available(service));
        f.compose();
        assert_eq!(f.cache.stats().stale, 1);
    }

    // -----------------------------------------------------------------
    // The entry's class id
    // -----------------------------------------------------------------

    /// An entry keeps the class id its options named. A stale probe of
    /// the same request under other options must not reuse it: it
    /// resolves its own class and gets what a fresh compose under its
    /// options gets, although the entry's class was answered at this
    /// very stamp.
    #[test]
    fn a_stale_probe_under_other_options_resolves_afresh() {
        use qosc_netsim::SimTime;
        let mut f = HalvesFixture::new();
        let compose_as = |f: &HalvesFixture, profiles: &ProfileSet, options: &SelectOptions| {
            let w = &f.world;
            let composer = Composer {
                formats: &w.formats,
                services: &w.services,
                network: &w.network,
            };
            let cached = f
                .cache
                .compose(&composer, profiles, w.server, w.client, options)
                .unwrap();
            let fresh = composer
                .compose(profiles, w.server, w.client, options)
                .unwrap()
                .plan;
            (cached, fresh)
        };
        let stored_under = SelectOptions::default();
        let probed_under = SelectOptions {
            max_rounds: 1,
            ..SelectOptions::default()
        };
        let profiles = f.world.profiles.clone();
        let mut twin = profiles.clone();
        twin.user.name.push_str("-twin");
        let (first, _) = compose_as(&f, &profiles, &stored_under);
        let (service, _) = first_service(&first.expect("solvable"));
        compose_as(&f, &twin, &stored_under);
        assert!(f
            .world
            .services
            .report_failure(service, SimTime(10))
            .unwrap());

        // The twin's stale probe answers the class at the new stamp…
        let (class_answer, fresh) = compose_as(&f, &twin, &stored_under);
        assert_eq!(class_answer, fresh);
        // …and the other options' probe of the first request does not
        // take that answer.
        let (answer, fresh) = compose_as(&f, &profiles, &probed_under);
        assert_ne!(fresh, class_answer, "the options change the plan");
        assert_eq!(answer, fresh);
        assert_eq!(
            f.cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                stale: 2
            }
        );
    }

    // -----------------------------------------------------------------
    // The request key
    // -----------------------------------------------------------------

    /// The key this cache used to compute — a hash of the canonical
    /// profile-set JSON — kept as the oracle for the structural one.
    fn json_key(profiles: &ProfileSet, sender: NodeId, receiver: NodeId) -> u64 {
        let json = profiles.to_json().expect("profiles render");
        let mut hasher = DefaultHasher::new();
        json.hash(&mut hasher);
        sender.index().hash(&mut hasher);
        receiver.index().hash(&mut hasher);
        hasher.finish()
    }

    mod key {
        use super::*;
        use proptest::prelude::*;
        use qosc_media::{Axis, AxisDomain, DomainVector, MediaKind, VariantSpec};
        use qosc_profiles::{AdaptationPolicy, HardwareCaps};
        use qosc_satisfaction::{AxisPreference, Combiner, SatisfactionFn, SatisfactionProfile};

        /// One of two endpoints.
        fn node(index: usize) -> NodeId {
            let mut topo = Topology::new();
            [
                topo.add_node(Node::unconstrained("a")),
                topo.add_node(Node::unconstrained("b")),
            ][index]
        }

        fn key_of(profiles: &ProfileSet) -> u64 {
            request_key(profiles, node(0), node(1))
        }

        /// Every optional part present, every `Vec` non-empty, one
        /// preference per [`SatisfactionFn`] variant with fields.
        fn base() -> ProfileSet {
            let satisfaction = SatisfactionProfile::new()
                .with(AxisPreference::weighted(
                    Axis::FrameRate,
                    SatisfactionFn::Linear {
                        min_acceptable: 1.0,
                        ideal: 30.0,
                    },
                    2.0,
                ))
                .with(AxisPreference::new(
                    Axis::PixelCount,
                    SatisfactionFn::Piecewise {
                        knots: vec![(100.0, 0.25), (1000.0, 0.75)],
                    },
                ))
                .with(AxisPreference::new(
                    Axis::Channels,
                    SatisfactionFn::Step { threshold: 2.0 },
                ))
                .with(AxisPreference::new(
                    Axis::SampleRate,
                    SatisfactionFn::Saturating {
                        min_acceptable: 8_000.0,
                        ideal: 44_100.0,
                        scale: 9_000.0,
                    },
                ))
                .with_combiner(Combiner::WeightedHarmonic {
                    weights: vec![2.0, 1.0, 1.0, 1.0],
                });
            let mut content = ContentProfile::demo_video("clip")
                .with_author("someone")
                .with_duration(90.0);
            content.keywords = vec!["news".to_string()];
            content.variants.push(VariantSpec {
                format: "image/gif".to_string(),
                offered: DomainVector::new()
                    .with(Axis::ColorDepth, AxisDomain::Discrete(vec![8.0, 16.0]))
                    .with(Axis::Fidelity, AxisDomain::Fixed(50.0)),
            });
            ProfileSet {
                user: UserProfile::new("someone", satisfaction)
                    .with_budget(3.0)
                    .with_policy(AdaptationPolicy {
                        degrade_first: vec![MediaKind::Audio],
                    }),
                content,
                device: DeviceProfile::demo_pda(),
                context: ContextProfile::noisy_commute(),
                network: NetworkProfile::cellular(),
            }
        }

        /// The last variant's offered domains, one of which is
        /// `Discrete` and one `Fixed` (the first variant's are
        /// `Continuous`).
        fn last_offered(p: &mut ProfileSet) -> &mut DomainVector {
            &mut p.content.variants.last_mut().unwrap().offered
        }

        fn reprefer(p: &mut ProfileSet, axis: Axis, edit: impl FnOnce(&mut AxisPreference)) {
            let mut pref = p.user.satisfaction.get(axis).expect("base has it").clone();
            edit(&mut pref);
            p.user.satisfaction.insert(pref);
        }

        type Mutation = (&'static str, fn(&mut ProfileSet));

        /// One entry per leaf field under [`ProfileSet`].
        const MUTATIONS: &[Mutation] = &[
            ("user.name", |p| p.user.name.push('x')),
            ("user.budget value", |p| p.user.budget = Some(4.0)),
            ("user.budget presence", |p| p.user.budget = None),
            ("user.policy.degrade_first", |p| {
                p.user.policy.degrade_first.push(MediaKind::Video)
            }),
            ("preference.axis", |p| {
                reprefer(p, Axis::Channels, |pref| pref.axis = Axis::SampleDepth)
            }),
            ("preference.weight", |p| {
                reprefer(p, Axis::FrameRate, |pref| pref.weight = 3.0)
            }),
            ("preference.function variant", |p| {
                reprefer(p, Axis::Channels, |pref| {
                    pref.function = SatisfactionFn::Indifferent
                })
            }),
            ("Linear.min_acceptable", |p| {
                reprefer(p, Axis::FrameRate, |pref| {
                    pref.function = SatisfactionFn::Linear {
                        min_acceptable: 2.0,
                        ideal: 30.0,
                    }
                })
            }),
            ("Linear.ideal", |p| {
                reprefer(p, Axis::FrameRate, |pref| {
                    pref.function = SatisfactionFn::Linear {
                        min_acceptable: 1.0,
                        ideal: 25.0,
                    }
                })
            }),
            ("Piecewise knot value", |p| {
                reprefer(p, Axis::PixelCount, |pref| {
                    pref.function = SatisfactionFn::Piecewise {
                        knots: vec![(200.0, 0.25), (1000.0, 0.75)],
                    }
                })
            }),
            ("Piecewise knot satisfaction", |p| {
                reprefer(p, Axis::PixelCount, |pref| {
                    pref.function = SatisfactionFn::Piecewise {
                        knots: vec![(100.0, 0.25), (1000.0, 1.0)],
                    }
                })
            }),
            ("Piecewise knot count", |p| {
                reprefer(p, Axis::PixelCount, |pref| {
                    pref.function = SatisfactionFn::Piecewise {
                        knots: vec![(100.0, 0.25)],
                    }
                })
            }),
            ("Step.threshold", |p| {
                reprefer(p, Axis::Channels, |pref| {
                    pref.function = SatisfactionFn::Step { threshold: 1.0 }
                })
            }),
            ("Saturating.min_acceptable", |p| {
                reprefer(p, Axis::SampleRate, |pref| {
                    pref.function = SatisfactionFn::Saturating {
                        min_acceptable: 11_025.0,
                        ideal: 44_100.0,
                        scale: 9_000.0,
                    }
                })
            }),
            ("Saturating.ideal", |p| {
                reprefer(p, Axis::SampleRate, |pref| {
                    pref.function = SatisfactionFn::Saturating {
                        min_acceptable: 8_000.0,
                        ideal: 48_000.0,
                        scale: 9_000.0,
                    }
                })
            }),
            ("Saturating.scale", |p| {
                reprefer(p, Axis::SampleRate, |pref| {
                    pref.function = SatisfactionFn::Saturating {
                        min_acceptable: 8_000.0,
                        ideal: 44_100.0,
                        scale: 10_000.0,
                    }
                })
            }),
            ("combiner variant", |p| {
                p.user.satisfaction.combiner = Combiner::Min
            }),
            ("combiner weights", |p| {
                p.user.satisfaction.combiner = Combiner::WeightedHarmonic {
                    weights: vec![2.0, 1.0, 1.0, 2.0],
                }
            }),
            ("content.title", |p| p.content.title.push('x')),
            ("content.author", |p| p.content.author.push('x')),
            ("content.duration_secs", |p| p.content.duration_secs = 91.0),
            ("content.keywords", |p| p.content.keywords[0].push('x')),
            ("content.variants order", |p| p.content.variants.reverse()),
            ("variant.format", |p| p.content.variants[0].format.push('x')),
            ("variant.offered axis", |p| {
                let domain = last_offered(p).get(Axis::Fidelity).unwrap().clone();
                *last_offered(p) = DomainVector::new()
                    .with(Axis::ColorDepth, AxisDomain::Discrete(vec![8.0, 16.0]))
                    .with(Axis::SampleDepth, domain);
            }),
            ("Continuous.min", |p| {
                p.content.variants[0].offered.set(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 2.0,
                        max: 30.0,
                    },
                );
            }),
            ("Continuous.max", |p| {
                p.content.variants[0].offered.set(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 1.0,
                        max: 29.0,
                    },
                );
            }),
            ("Discrete value", |p| {
                last_offered(p).set(Axis::ColorDepth, AxisDomain::Discrete(vec![8.0, 24.0]));
            }),
            ("Discrete count", |p| {
                last_offered(p).set(Axis::ColorDepth, AxisDomain::Discrete(vec![8.0]));
            }),
            ("Fixed value", |p| {
                last_offered(p).set(Axis::Fidelity, AxisDomain::Fixed(60.0));
            }),
            ("domain variant", |p| {
                last_offered(p).set(Axis::Fidelity, AxisDomain::Discrete(vec![50.0]));
            }),
            ("device.name", |p| p.device.name.push('x')),
            ("device.os", |p| p.device.os.push('x')),
            ("device.decoders", |p| p.device.decoders.reverse()),
            ("hardware.screen_width", |p| {
                p.device.hardware.screen_width += 1
            }),
            ("hardware.screen_height", |p| {
                p.device.hardware.screen_height += 1
            }),
            ("hardware.color_depth", |p| {
                p.device.hardware.color_depth += 1
            }),
            ("hardware.audio_channels", |p| {
                p.device.hardware.audio_channels += 1
            }),
            ("hardware.max_sample_rate", |p| {
                p.device.hardware.max_sample_rate += 1
            }),
            ("hardware.cpu_mips", |p| p.device.hardware.cpu_mips += 1.0),
            ("hardware.memory_bytes", |p| {
                p.device.hardware.memory_bytes += 1.0
            }),
            ("context.location", |p| p.context.location.push('x')),
            ("context.activity", |p| p.context.activity.push('x')),
            ("context.ambient_noise", |p| p.context.ambient_noise = 0.7),
            ("context.illumination", |p| p.context.illumination = 0.5),
            ("context.mobile", |p| p.context.mobile = false),
            ("network.technology", |p| p.network.technology.push('x')),
            ("network.downlink_bps", |p| p.network.downlink_bps += 1.0),
            ("network.uplink_bps", |p| p.network.uplink_bps += 1.0),
            ("network.delay_us", |p| p.network.delay_us += 1),
            ("network.error_rate", |p| p.network.error_rate = 0.03),
            ("network.price_per_mbit", |p| {
                p.network.price_per_mbit = 0.06
            }),
        ];

        #[test]
        fn every_leaf_field_reaches_the_key() {
            let base = base();
            assert_eq!(key_of(&base), key_of(&base.clone()));
            let mut seen = vec![("base", key_of(&base))];
            for (field, mutate) in MUTATIONS {
                let mut mutated = base.clone();
                mutate(&mut mutated);
                assert_ne!(mutated, base, "{field}: the mutation changed nothing");
                let key = key_of(&mutated);
                if let Some((other, _)) = seen.iter().find(|&&(_, k)| k == key) {
                    panic!("{field} keys like {other}");
                }
                seen.push((field, key));
            }
            // The endpoints are part of the request, in order.
            let (a, b) = (node(0), node(1));
            assert_ne!(request_key(&base, a, b), request_key(&base, b, a));
            assert_ne!(request_key(&base, a, b), request_key(&base, a, a));
        }

        #[test]
        fn signed_zeros_key_alike() {
            let mut plus = base();
            let mut minus = base();
            plus.context.ambient_noise = 0.0;
            minus.context.ambient_noise = -0.0;
            assert_eq!(plus, minus);
            assert_eq!(key_of(&plus), key_of(&minus));
        }

        /// Two things the JSON key conflated, because JSON renders both
        /// a non-finite number and an absent value as `null`, and every
        /// integer as an `f64`.
        #[test]
        fn the_structural_key_separates_what_json_conflated() {
            let a = node(0);
            let mut unbounded = base();
            let mut absent = base();
            unbounded.user.budget = Some(f64::INFINITY);
            absent.user.budget = None;
            assert_eq!(json_key(&unbounded, a, a), json_key(&absent, a, a));
            assert_ne!(key_of(&unbounded), key_of(&absent));

            let mut low = base();
            let mut high = base();
            low.network.delay_us = 1 << 53;
            high.network.delay_us = (1 << 53) + 1;
            assert_eq!(json_key(&low, a, a), json_key(&high, a, a));
            assert_ne!(key_of(&low), key_of(&high));
        }

        // Small pools, so that two independently drawn values are equal
        // often enough for the `⇔` below to be exercised in both
        // directions on sub-structures.
        fn real() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), Just(1.0), Just(24.0), 0.0f64..1e6]
        }

        fn word() -> impl Strategy<Value = String> {
            prop_oneof![Just(""), Just("a"), Just("video/mpeg2"), Just("x\"y\n")]
                .prop_map(str::to_string)
        }

        fn axis() -> impl Strategy<Value = Axis> {
            (0..Axis::COUNT).prop_map(|i| Axis::from_index(i).expect("in range"))
        }

        fn satisfaction_fn() -> impl Strategy<Value = SatisfactionFn> {
            prop_oneof![
                (real(), real()).prop_map(|(min_acceptable, ideal)| SatisfactionFn::Linear {
                    min_acceptable,
                    ideal
                }),
                proptest::collection::vec((real(), real()), 0..3)
                    .prop_map(|knots| SatisfactionFn::Piecewise { knots }),
                real().prop_map(|threshold| SatisfactionFn::Step { threshold }),
                (real(), real(), real()).prop_map(|(min_acceptable, ideal, scale)| {
                    SatisfactionFn::Saturating {
                        min_acceptable,
                        ideal,
                        scale,
                    }
                }),
                Just(SatisfactionFn::Indifferent),
            ]
        }

        fn combiner() -> impl Strategy<Value = Combiner> {
            prop_oneof![
                Just(Combiner::HarmonicMean),
                proptest::collection::vec(real(), 0..3)
                    .prop_map(|weights| Combiner::WeightedHarmonic { weights }),
                Just(Combiner::Min),
                Just(Combiner::Product),
                Just(Combiner::GeometricMean),
                Just(Combiner::ArithmeticMean),
            ]
        }

        fn satisfaction_profile() -> impl Strategy<Value = SatisfactionProfile> {
            (
                proptest::collection::vec((axis(), satisfaction_fn(), real()), 0..3),
                combiner(),
            )
                .prop_map(|(preferences, combiner)| {
                    preferences
                        .into_iter()
                        .fold(SatisfactionProfile::new(), |profile, (axis, f, weight)| {
                            profile.with(AxisPreference::weighted(axis, f, weight))
                        })
                        .with_combiner(combiner)
                })
        }

        fn domain_vector() -> impl Strategy<Value = DomainVector> {
            let domain = prop_oneof![
                (real(), real()).prop_map(|(min, max)| AxisDomain::Continuous { min, max }),
                proptest::collection::vec(real(), 0..3).prop_map(AxisDomain::Discrete),
                real().prop_map(AxisDomain::Fixed),
            ];
            proptest::collection::vec((axis(), domain), 0..3).prop_map(|domains| {
                domains
                    .into_iter()
                    .fold(DomainVector::new(), |vector, (axis, domain)| {
                        vector.with(axis, domain)
                    })
            })
        }

        fn profile_set() -> impl Strategy<Value = ProfileSet> {
            let kind = (0..MediaKind::ALL.len()).prop_map(|i| MediaKind::ALL[i]);
            let user = (
                word(),
                satisfaction_profile(),
                proptest::option::of(real()),
                proptest::collection::vec(kind, 0..3),
            )
                .prop_map(|(name, satisfaction, budget, degrade_first)| UserProfile {
                    name,
                    satisfaction,
                    budget,
                    policy: AdaptationPolicy { degrade_first },
                });
            let variant = (word(), domain_vector())
                .prop_map(|(format, offered)| VariantSpec { format, offered });
            let content = (
                word(),
                word(),
                real(),
                proptest::collection::vec(word(), 0..3),
                proptest::collection::vec(variant, 0..3),
            )
                .prop_map(
                    |(title, author, duration_secs, keywords, variants)| ContentProfile {
                        title,
                        author,
                        duration_secs,
                        keywords,
                        variants,
                    },
                );
            let hardware = (
                (0u32..3, 0u32..3, 0u32..3, 0u32..3, 0u32..3),
                real(),
                real(),
            )
                .prop_map(|(ints, cpu_mips, memory_bytes)| HardwareCaps {
                    screen_width: ints.0,
                    screen_height: ints.1,
                    color_depth: ints.2,
                    audio_channels: ints.3,
                    max_sample_rate: ints.4,
                    cpu_mips,
                    memory_bytes,
                });
            let device = (
                word(),
                word(),
                proptest::collection::vec(word(), 0..3),
                hardware,
            )
                .prop_map(|(name, os, decoders, hardware)| DeviceProfile {
                    name,
                    os,
                    decoders,
                    hardware,
                });
            let context = (word(), word(), real(), real(), proptest::bool::ANY).prop_map(
                |(location, activity, ambient_noise, illumination, mobile)| ContextProfile {
                    location,
                    activity,
                    ambient_noise,
                    illumination,
                    mobile,
                },
            );
            let network = (word(), real(), real(), 0u64..1 << 53, real(), real()).prop_map(
                |(technology, downlink_bps, uplink_bps, delay_us, error_rate, price_per_mbit)| {
                    NetworkProfile {
                        technology,
                        downlink_bps,
                        uplink_bps,
                        delay_us,
                        error_rate,
                        price_per_mbit,
                    }
                },
            );
            (user, content, device, context, network).prop_map(
                |(user, content, device, context, network)| ProfileSet {
                    user,
                    content,
                    device,
                    context,
                    network,
                },
            )
        }

        /// A second profile set that differs from `a` in at most one
        /// member profile (and, one time in six, in none).
        fn near(a: &ProfileSet, other: ProfileSet, member: usize) -> ProfileSet {
            let mut b = a.clone();
            match member {
                0 => b.user = other.user,
                1 => b.content = other.content,
                2 => b.device = other.device,
                3 => b.context = other.context,
                4 => b.network = other.network,
                _ => {}
            }
            b
        }

        /// The profile set of the generated X15 mesh (`compose_hot`'s
        /// request): frame rate only, no budget, three variants, three
        /// decoders, a desktop on a LAN.
        fn x15() -> ProfileSet {
            let offered = DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 0.0,
                    max: 30.0,
                },
            );
            let satisfaction = SatisfactionProfile::new().with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            ));
            ProfileSet {
                user: UserProfile::new("generated-user", satisfaction),
                content: ContentProfile::new(
                    "generated-content",
                    (0..3)
                        .map(|i| VariantSpec {
                            format: format!("L0_{i}"),
                            offered: offered.clone(),
                        })
                        .collect(),
                ),
                device: DeviceProfile::new(
                    "generated-device",
                    (0..3).map(|i| format!("L5_{i}")).collect(),
                    HardwareCaps::desktop(),
                ),
                context: ContextProfile::default(),
                network: NetworkProfile::lan(),
            }
        }

        /// Values of the perturbed fields: far from every base value,
        /// and with integers in one shared range, so that a hash that
        /// loses positions keys two fields' perturbations alike.
        const PERTURBED: u64 = 1 << 20;
        /// Perturbations per field and base.
        const PER_FIELD: u64 = 6_250;

        type Perturbation = fn(&mut ProfileSet, u64);

        /// One field each: names, floats, integers, a domain bound.
        const PERTURBATIONS: &[Perturbation] = &[
            |p, i| p.user.name = format!("user-{i:016x}"),
            |p, i| p.user.budget = Some((PERTURBED + i) as f64),
            |p, i| p.network.delay_us = PERTURBED + i,
            |p, i| p.device.hardware.screen_width = (PERTURBED + i) as u32,
            |p, i| p.network.downlink_bps = (PERTURBED + i) as f64,
            |p, i| p.context.ambient_noise = i as f64 / PER_FIELD as f64 + 1.0,
            |p, i| p.content.title = format!("clip {i}"),
            |p, i| {
                p.content.variants[0].offered.set(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 0.0,
                        max: (PERTURBED + i) as f64,
                    },
                );
            },
        ];

        /// χ² over 16 equally likely cells: 15 degrees of freedom, and
        /// 40 is exceeded with probability below 0.001.
        const CHI_SQUARED_BOUND: f64 = 40.0;

        /// Key every single-field perturbation of the X15 and the
        /// catalog-fixture request with `key`: no two may collide in 64
        /// bits, and the low 4 bits — a 16-shard cache's shard — must
        /// pass the χ² bound.
        fn check_spread(key: impl Fn(&ProfileSet) -> u64) -> std::result::Result<(), String> {
            let mut seen = std::collections::HashSet::new();
            let mut shards = [0u64; 16];
            for base in [x15(), fixture().profiles] {
                for perturb in PERTURBATIONS {
                    for i in 0..PER_FIELD {
                        let mut profiles = base.clone();
                        perturb(&mut profiles, i);
                        let k = key(&profiles);
                        if !seen.insert(k) {
                            return Err(format!("64-bit collision at {profiles:?}"));
                        }
                        shards[(k & 15) as usize] += 1;
                    }
                }
            }
            let expected = seen.len() as f64 / 16.0;
            let chi_squared: f64 = shards
                .iter()
                .map(|&n| (n as f64 - expected).powi(2) / expected)
                .sum();
            if chi_squared > CHI_SQUARED_BOUND {
                return Err(format!("χ² {chi_squared:.1} over shards {shards:?}"));
            }
            Ok(())
        }

        #[test]
        fn perturbed_requests_never_collide_and_spread_over_shards() {
            assert_eq!(
                2 * PERTURBATIONS.len() as u64 * PER_FIELD,
                100_000,
                "the sample size"
            );
            check_spread(key_of).expect("request_key");
        }

        /// The check bites: with the multiply dropped, the hasher only
        /// xors words together, and fails it.
        #[test]
        fn a_hasher_without_the_multiply_fails_the_spread_check() {
            #[derive(Default)]
            struct XorHasher(u64);
            impl Hasher for XorHasher {
                fn write(&mut self, bytes: &[u8]) {
                    for chunk in bytes.chunks(8) {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        self.write_u64(u64::from_le_bytes(word));
                    }
                }
                fn write_u64(&mut self, word: u64) {
                    self.0 ^= word;
                }
                fn finish(&self) -> u64 {
                    self.0
                }
            }
            let weak = |profiles: &ProfileSet| {
                let mut hasher = XorHasher::default();
                profiles.hash(&mut hasher);
                node(0).index().hash(&mut hasher);
                node(1).index().hash(&mut hasher);
                hasher.finish()
            };
            assert!(check_spread(weak).is_err());
        }

        proptest! {
            /// On finite floats and integers below 2^53 — where the
            /// JSON rendering is injective — the structural key
            /// separates exactly what the JSON key separated.
            #[test]
            fn structural_key_agrees_with_the_json_oracle(
                a in profile_set(),
                other in profile_set(),
                member in 0usize..6,
                endpoints in (0usize..2, 0usize..2),
                swapped in proptest::bool::ANY,
            ) {
                let b = near(&a, other, member);
                let (sa, ra) = (node(endpoints.0), node(endpoints.1));
                let (sb, rb) = if swapped { (ra, sa) } else { (sa, ra) };
                let same_key = request_key(&a, sa, ra) == request_key(&b, sb, rb);
                if a == b && (sa, ra) == (sb, rb) {
                    prop_assert!(same_key, "equal requests must key alike");
                }
                prop_assert_eq!(
                    same_key,
                    json_key(&a, sa, ra) == json_key(&b, sb, rb),
                    "{:?} vs {:?}", a, b
                );
            }
        }
    }
}
