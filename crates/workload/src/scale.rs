//! Sharded scale scenarios for the registry-scale experiment (X20).
//!
//! The layered meshes of [`generator`](crate::generator) top out around
//! 10^4 services because every compose builds (or delta-replays) the
//! whole graph. The scale scenario is built for the opposite regime —
//! 10^5..10^6 registered services of which only a tiny, provably
//! sufficient fraction matters to any one request:
//!
//! * services come in **clusters** of format chains `src{g} → mid{m} →
//!   dst`: cluster `c` has "head" transcoders reading the shared entry
//!   format `src{c % G}` and "tail" transcoders producing the receiver
//!   format `dst`. Relay formats are shared (`m = c % M`, `M ≈ √N`
//!   capped at 512): `M` trades the width of the format registry
//!   against head→tail edge fan-out (`N²/4M` edges). The selector's
//!   label arena holds a slot per *advertised* (vertex, output) and does
//!   not grow with the registry, so `M` bounds edge fan-out only; the
//!   X20 scorecard and the `compose_scale` benchmark workload are
//!   defined on this value,
//! * every service of cluster `c` caps its output frame rate at a
//!   **strictly decreasing** per-cluster ceiling, so cluster 0 dominates
//!   and the per-shard summary frontier can prove every other cluster's
//!   shards irrelevant without expanding them,
//! * all services live on one proxy node — host topology is not the
//!   variable under test; registry size is.
//!
//! Registration goes through a [`ShardedServiceRegistry`], so the
//! two-level composer ([`ShardedComposer`]) sees per-shard frontiers and
//! epochs while the flat baseline reads the identical ground-truth
//! [`ServiceRegistry`](qosc_services::ServiceRegistry) via
//! [`ShardedServiceRegistry::flat`].

use qosc_core::{Composer, ShardedComposer};
use qosc_media::{
    Axis, AxisDomain, BitrateModel, DomainVector, FormatId, FormatRegistry, FormatSpec, MediaKind,
    VariantSpec,
};
use qosc_netsim::{Link, Network, Node, NodeId, SimTime, Topology};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, HardwareCaps, NetworkProfile, PriceModel,
    ProfileSet, UserProfile,
};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{Conversion, ServiceId, ShardedServiceRegistry, TranscoderDescriptor};

/// Shape of a scale scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Target total registered services (rounded down to a whole number
    /// of clusters).
    pub total_services: usize,
    /// Services per cluster, split evenly into heads and tails.
    pub services_per_cluster: usize,
    /// Distinct entry formats; cluster `c` reads `src{c % entry}`.
    /// Clamped to the cluster count.
    pub entry_formats: usize,
    /// Shard count of the [`ShardedServiceRegistry`].
    pub shards: u32,
    /// Frame rate the content offers and the user ideally wants.
    pub fps_ideal: f64,
    /// Cap of the worst cluster; caps interpolate linearly down to it.
    pub fps_floor: f64,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            total_services: 1_000,
            services_per_cluster: 20,
            entry_formats: 16,
            shards: 64,
            fps_ideal: 30.0,
            fps_floor: 10.0,
        }
    }
}

impl ScaleConfig {
    /// Scale to roughly `n` services.
    pub fn with_total_services(mut self, n: usize) -> ScaleConfig {
        self.total_services = n;
        self
    }

    /// Number of clusters actually generated.
    pub fn clusters(&self) -> usize {
        (self.total_services / self.services_per_cluster.max(1)).max(1)
    }

    /// Services actually registered (clusters × services per cluster).
    pub fn total(&self) -> usize {
        self.clusters() * self.services_per_cluster.max(1)
    }
}

/// A self-contained sharded composition scenario at registry scale.
pub struct ScaleScenario {
    /// The scenario's format registry.
    pub formats: FormatRegistry,
    /// The sharded registry; the flat ground truth is `services.flat()`.
    pub services: ShardedServiceRegistry,
    /// The (deliberately trivial) network.
    pub network: Network,
    /// The request's profile set.
    pub profiles: ProfileSet,
    /// Node the sender runs on.
    pub sender_host: NodeId,
    /// Node the receiver runs on.
    pub receiver_host: NodeId,
    /// Node every service runs on.
    pub proxy_host: NodeId,
    /// Number of clusters generated.
    pub clusters: usize,
    mid: Vec<FormatId>,
    dst: FormatId,
    fps_ideal: f64,
    fps_floor: f64,
    churn_seq: u64,
    churn_prev: Option<ServiceId>,
}

impl ScaleScenario {
    /// The two-level composer borrowing this scenario's state.
    pub fn composer(&self) -> ShardedComposer<'_> {
        ShardedComposer {
            formats: &self.formats,
            services: &self.services,
            network: &self.network,
        }
    }

    /// The flat baseline composer over the identical ground truth.
    pub fn flat_composer(&self) -> Composer<'_> {
        Composer {
            formats: &self.formats,
            services: self.services.flat(),
            network: &self.network,
        }
    }

    /// The frame-rate cap shared by every service of `cluster`.
    ///
    /// Strictly decreasing in the cluster index: cluster 0 runs at the
    /// content's full rate, so its chain is the unique optimum and the
    /// admissible bound prunes every other cluster's shards.
    pub fn cluster_cap(&self, cluster: usize) -> f64 {
        self.fps_ideal
            - (self.fps_ideal - self.fps_floor) * cluster as f64 / self.clusters.max(1) as f64
    }

    /// A profile set whose cache key differs per `tag` (distinct user
    /// name) while resolving to the same request semantics.
    pub fn request_profiles(&self, tag: usize) -> ProfileSet {
        let mut profiles = self.profiles.clone();
        profiles.user.name = format!("scale-user-{tag}");
        profiles
    }

    /// A fresh tail descriptor (`mid{cluster % M} → dst`) for churn.
    fn tail_descriptor(&self, cluster: usize, name: String) -> TranscoderDescriptor {
        TranscoderDescriptor {
            name,
            host: self.proxy_host,
            conversions: vec![Conversion {
                input: self.mid[cluster % self.mid.len()],
                output: self.dst,
                output_domain: fps_domain(self.cluster_cap(cluster)),
            }],
            cpu_mips_per_mbps: 0.0,
            memory_bytes: 0.0,
            price: PriceModel {
                per_second: 0.0,
                per_mbit: 0.0,
            },
        }
    }

    /// One churn op: register a fresh tail in `cluster` and deregister
    /// the tail the previous call registered, keeping the live count
    /// stable while both the flat epoch and the touched shard's epoch
    /// advance. Deterministic — no randomness involved.
    pub fn churn_cycle(&mut self, cluster: usize, now: SimTime) -> ServiceId {
        if let Some(prev) = self.churn_prev.take() {
            let _ = self.services.deregister(prev);
        }
        let name = format!("x{cluster}.{}", self.churn_seq);
        self.churn_seq += 1;
        let descriptor = self.tail_descriptor(cluster % self.clusters.max(1), name);
        let id = self.services.register(descriptor, now, u64::MAX / 2);
        self.churn_prev = Some(id);
        id
    }
}

fn fps_domain(cap: f64) -> DomainVector {
    DomainVector::new().with(
        Axis::FrameRate,
        AxisDomain::Continuous { min: 0.0, max: cap },
    )
}

/// Build a scale scenario. Construction is fully structural — the same
/// config always yields the same registry, byte for byte.
pub fn scale_scenario(config: &ScaleConfig) -> ScaleScenario {
    let clusters = config.clusters();
    let per_cluster = config.services_per_cluster.max(1);
    let heads = (per_cluster / 2).max(1);
    let tails = (per_cluster - heads).max(1);
    let entry_count = config.entry_formats.clamp(1, clusters);

    let mut formats = FormatRegistry::new();
    let bitrate = BitrateModel::LinearOnAxis {
        axis: Axis::FrameRate,
        slope: 1000.0,
    };
    let entry: Vec<FormatId> = (0..entry_count)
        .map(|g| {
            formats.register(FormatSpec::new(
                format!("src{g}"),
                MediaKind::Video,
                bitrate,
            ))
        })
        .collect();
    // Relay formats are shared across clusters: `M ≈ √N` of them. `M`
    // bounds head→tail edge fan-out (`N²/4M` edges: 6.77 M in the scoped
    // graph at 10^6, where the cap of 512 binds) and nothing else — the
    // selector's label arena is sized by advertised outputs, not by the
    // registry. X20 and `compose_scale` are defined on this value.
    let mid_count = (config.total() as f64).sqrt().floor().clamp(16.0, 512.0) as usize;
    let mid_count = mid_count.min(clusters).max(1);
    let mid: Vec<FormatId> = (0..mid_count)
        .map(|m| {
            formats.register(FormatSpec::new(
                format!("mid{m}"),
                MediaKind::Video,
                bitrate,
            ))
        })
        .collect();
    let dst = formats.register(FormatSpec::new("dst", MediaKind::Video, bitrate));

    // Topology: sender — proxy — receiver, links far wider than any
    // stream so bandwidth never binds.
    let mut topo = Topology::new();
    let sender_host = topo.add_node(Node::unconstrained("host-sender"));
    let proxy_host = topo.add_node(Node::unconstrained("host-proxy"));
    let receiver_host = topo.add_node(Node::unconstrained("host-receiver"));
    for (a, b) in [(sender_host, proxy_host), (proxy_host, receiver_host)] {
        topo.connect(Link {
            a,
            b,
            capacity_bps: 1e9,
            delay_us: 1_000,
            loss: 0.0,
            price_per_mbit: 0.0,
            price_flat: 1.0,
        })
        .expect("static scale links are valid");
    }
    let network = Network::new(topo);

    let mut services = ShardedServiceRegistry::new(config.shards);
    let price = PriceModel {
        per_second: 0.0,
        per_mbit: 0.0,
    };
    for c in 0..clusters {
        let cap = config.fps_ideal
            - (config.fps_ideal - config.fps_floor) * c as f64 / clusters.max(1) as f64;
        for k in 0..heads {
            services.register_static(TranscoderDescriptor {
                name: format!("h{c}.{k}"),
                host: proxy_host,
                conversions: vec![Conversion {
                    input: entry[c % entry_count],
                    output: mid[c % mid_count],
                    output_domain: fps_domain(cap),
                }],
                cpu_mips_per_mbps: 0.0,
                memory_bytes: 0.0,
                price,
            });
        }
        for k in 0..tails {
            services.register_static(TranscoderDescriptor {
                name: format!("t{c}.{k}"),
                host: proxy_host,
                conversions: vec![Conversion {
                    input: mid[c % mid_count],
                    output: dst,
                    output_domain: fps_domain(cap),
                }],
                cpu_mips_per_mbps: 0.0,
                memory_bytes: 0.0,
                price,
            });
        }
    }

    let offered = fps_domain(config.fps_ideal);
    let content = ContentProfile::new(
        "scale-clip",
        entry
            .iter()
            .map(|&f| VariantSpec {
                format: formats.name(f).to_string(),
                offered: offered.clone(),
            })
            .collect(),
    );
    let device = DeviceProfile::new(
        "scale-screen",
        vec![formats.name(dst).to_string()],
        HardwareCaps::desktop(),
    );
    let satisfaction = SatisfactionProfile::new().with(AxisPreference::new(
        Axis::FrameRate,
        SatisfactionFn::Linear {
            min_acceptable: 0.0,
            ideal: config.fps_ideal,
        },
    ));
    let user = UserProfile::new("scale-user", satisfaction);

    ScaleScenario {
        formats,
        services,
        network,
        profiles: ProfileSet {
            user,
            content,
            device,
            context: ContextProfile::default(),
            network: NetworkProfile::lan(),
        },
        sender_host,
        receiver_host,
        proxy_host,
        clusters,
        mid,
        dst,
        fps_ideal: config.fps_ideal,
        fps_floor: config.fps_floor,
        churn_seq: 0,
        churn_prev: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_core::{GraphStore, SelectOptions};

    #[test]
    fn two_level_matches_flat_at_small_scale() {
        let config = ScaleConfig::default();
        let scenario = scale_scenario(&config);
        assert_eq!(scenario.services.flat().live_count(), config.total());

        let options = SelectOptions::default();
        let flat_store = GraphStore::new();
        let flat = scenario
            .flat_composer()
            .compose_with_store(
                &flat_store,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("flat compose");
        let store = GraphStore::new();
        let two_level = scenario
            .composer()
            .compose_with_store(
                &store,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
                &options,
            )
            .expect("two-level compose");

        let flat_plan = flat.plan.expect("flat solves");
        let sharded_plan = two_level.composition.plan.expect("two-level solves");
        assert_eq!(
            format!("{flat_plan:?}"),
            format!("{sharded_plan:?}"),
            "plans must be bitwise identical"
        );
        // Cluster 0 runs at the full content rate.
        assert!((sharded_plan.predicted_satisfaction - 1.0).abs() < 1e-9);
        assert!(
            !two_level.full_expansion,
            "dominant cluster must be provable from summaries"
        );
        assert!(
            (two_level.expanded_shards.len() as u32) < config.shards / 4,
            "expected few expanded shards, got {:?}",
            two_level.expanded_shards
        );
    }

    #[test]
    fn churn_keeps_live_count_stable_and_moves_epochs() {
        let config = ScaleConfig {
            total_services: 200,
            ..ScaleConfig::default()
        };
        let mut scenario = scale_scenario(&config);
        let live = scenario.services.flat().live_count();
        let epoch = scenario.services.flat().epoch();
        // First cycle adds one extra; every later cycle swaps it out.
        scenario.churn_cycle(3, SimTime(1_000));
        for i in 0..8 {
            scenario.churn_cycle(3 + i % 2, SimTime(2_000 + i as u64));
        }
        assert_eq!(scenario.services.flat().live_count(), live + 1);
        assert!(scenario.services.flat().epoch() > epoch);
        let summed: u64 = scenario
            .services
            .shard_epochs()
            .iter()
            .map(|&(_, e)| e)
            .sum();
        assert_eq!(summed, scenario.services.flat().epoch());
    }
}
