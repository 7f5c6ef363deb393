//! The cache's compose memo: one kernel run per request class per world
//! state.
//!
//! [`ShardedCompositionCache`](super::ShardedCompositionCache) keys its
//! entries per request, user name included, so when the world moves
//! every stale entry of one (content, device, preference) class would
//! recompose the same inputs. A compose reads only what [`Class`] holds
//! and the world [`WorldStamp`] certifies, so at a fixed stamp equal
//! classes get equal answers: the first miss or stale probe of a class
//! composes, and the rest of the class's probes at that stamp are
//! answered from here.

use crate::composer::Composer;
use crate::graph::GraphStore;
use crate::plan::AdaptationPlan;
use crate::select::SelectOptions;
use crate::stamp::WorldStamp;
use crate::Result;
use parking_lot::RwLock;
use qosc_media::{hash_f64, ContentVariant, FormatId, FormatRegistry, ParamVector};
use qosc_netsim::{memo::memos_off, NodeId};
use qosc_profiles::ProfileSet;
use qosc_satisfaction::SatisfactionProfile;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What a compose reads of one request, resolved: the build inputs the
/// graph store keys graphs by (endpoints, variants, decoders, receiver
/// caps), then what selection scores with (the context-adjusted
/// satisfaction profile, the budget, the options). The user's name, the
/// content's title, the device's OS and every other field the kernel
/// never sees are gone, so they cannot split a class.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Class {
    sender_host: NodeId,
    receiver_host: NodeId,
    variants: Vec<ContentVariant>,
    decoders: Vec<FormatId>,
    receiver_caps: ParamVector,
    satisfaction: SatisfactionProfile,
    budget: f64,
    options: SelectOptions,
}

impl Class {
    /// Resolve `profiles` as [`Composer::compose_with_store`] does, in
    /// its order, so an invalid request fails here with the error the
    /// compose would return.
    pub(crate) fn of(
        formats: &FormatRegistry,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
    ) -> Result<Class> {
        profiles.validate()?;
        Ok(Class {
            sender_host,
            receiver_host,
            variants: profiles.content.resolve(formats)?,
            decoders: profiles.device.resolve_decoders(formats)?,
            receiver_caps: profiles.device.hardware.quality_caps(),
            satisfaction: profiles.effective_satisfaction(),
            budget: profiles.user.budget_or_infinite(),
            options: *options,
        })
    }
}

/// The bucket hash the cache gives [`ClassMemo::compose`] outside
/// tests. `a == b` implies equal hashes (floats go through
/// [`hash_f64`]); the options are left to the `==` confirmation, as a
/// cache serves them all alike.
pub(crate) fn class_hash(class: &Class) -> u64 {
    let mut hasher = DefaultHasher::new();
    class.sender_host.index().hash(&mut hasher);
    class.receiver_host.index().hash(&mut hasher);
    class.variants.len().hash(&mut hasher);
    for variant in &class.variants {
        variant.format.hash(&mut hasher);
        variant.offered.hash(&mut hasher);
    }
    class.decoders.hash(&mut hasher);
    for (axis, value) in class.receiver_caps.iter() {
        axis.hash(&mut hasher);
        hash_f64(value, &mut hasher);
    }
    class.satisfaction.hash(&mut hasher);
    hash_f64(class.budget, &mut hasher);
    hasher.finish()
}

/// A class's fresh answer: the plan, shared with the cache entries that
/// serve it, or `None` for a class that is unsolvable at the stamp.
type Answer = Option<Arc<AdaptationPlan>>;

/// The classes composed at one stamp, bucketed by hash.
#[derive(Debug, Default)]
struct Generation {
    /// `None` until the first answer is stored.
    stamp: Option<WorldStamp>,
    buckets: HashMap<u64, Vec<(Class, Answer)>>,
}

/// The exact memo behind the cache's misses and stale probes.
///
/// It holds only answers composed at one [`WorldStamp`], and drops them
/// all when an answer arrives from another: it keeps the classes seen
/// since the last world write and needs no eviction. `Ok(Some)` and
/// `Ok(None)` are stored; an error recomposes. A hit is confirmed with
/// `==` on the whole [`Class`], so a bucket collision costs a
/// comparison, never a wrong answer, and under
/// [`memos_off`](qosc_netsim::memo::memos_off) nothing is answered.
/// Lookup and insert take a short lock; composition runs outside it,
/// and threads racing on a cold class store one answer.
#[derive(Debug, Default)]
pub(crate) struct ClassMemo {
    generation: RwLock<Generation>,
}

impl ClassMemo {
    /// What [`Composer::compose_with_store`] returns for this request's
    /// plan at `stamp`, `composer`'s world: the stored answer of the
    /// request's class at `stamp`, or a fresh compose through `store`
    /// (then stored). `hash` buckets classes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compose(
        &self,
        composer: &Composer<'_>,
        store: &GraphStore,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
        stamp: WorldStamp,
        hash: impl Fn(&Class) -> u64,
    ) -> Result<Answer> {
        let class = Class::of(
            composer.formats,
            profiles,
            sender_host,
            receiver_host,
            options,
        )?;
        let bucket = hash(&class);
        if !memos_off() {
            let generation = self.generation.read();
            if generation.stamp == Some(stamp) {
                let stored = generation
                    .buckets
                    .get(&bucket)
                    .and_then(|entries| entries.iter().find(|(other, _)| *other == class));
                if let Some((_, answer)) = stored {
                    return Ok(answer.clone());
                }
            }
        }
        let answer = composer
            .compose_with_store(store, profiles, sender_host, receiver_host, options)?
            .plan
            .map(Arc::new);
        let mut generation = self.generation.write();
        if generation.stamp != Some(stamp) {
            generation.buckets.clear();
            generation.stamp = Some(stamp);
        }
        let entries = generation.buckets.entry(bucket).or_default();
        if !entries.iter().any(|(other, _)| *other == class) {
            entries.push((class, answer.clone()));
        }
        Ok(answer)
    }

    /// Classes stored at the current generation's stamp.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.generation.read().buckets.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{Axis, AxisDomain};
    use qosc_netsim::memo::with_memos_off;
    use qosc_netsim::{Network, Node, SimTime, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, UserProfile,
    };
    use qosc_services::{catalog, QuarantineConfig, ServiceRegistry, TranscoderDescriptor};

    /// server —100M— proxy —1M— client, the full catalog on the proxy.
    struct World {
        formats: FormatRegistry,
        services: ServiceRegistry,
        network: Network,
        server: NodeId,
        client: NodeId,
    }

    impl World {
        fn new() -> World {
            let formats = FormatRegistry::with_builtins();
            let mut topo = Topology::new();
            let [server, proxy, client] =
                ["server", "proxy", "client"].map(|name| topo.add_node(Node::unconstrained(name)));
            topo.connect_simple(server, proxy, 100e6)
                .expect("valid link");
            topo.connect_simple(proxy, client, 1e6).expect("valid link");
            let mut services = ServiceRegistry::new();
            services.set_quarantine_config(QuarantineConfig {
                failure_threshold: 1,
                cooldown_us: 1_000_000,
            });
            for spec in catalog::full_catalog() {
                let descriptor =
                    TranscoderDescriptor::resolve(&spec, &formats, proxy).expect("resolves");
                services.register_static(descriptor);
            }
            World {
                formats,
                services,
                network: Network::new(topo),
                server,
                client,
            }
        }

        fn composer(&self) -> Composer<'_> {
            Composer {
                formats: &self.formats,
                services: &self.services,
                network: &self.network,
            }
        }

        fn stamp(&self) -> WorldStamp {
            WorldStamp::of(&self.services, &self.network)
        }

        /// `profiles` through `memo`, bucketed by `hash`.
        fn compose(
            &self,
            memo: &ClassMemo,
            store: &GraphStore,
            profiles: &ProfileSet,
            hash: impl Fn(&Class) -> u64,
        ) -> Answer {
            memo.compose(
                &self.composer(),
                store,
                profiles,
                self.server,
                self.client,
                &SelectOptions::default(),
                self.stamp(),
                hash,
            )
            .expect("valid request")
        }

        /// `profiles` composed from scratch, memo-less.
        fn fresh(&self, profiles: &ProfileSet) -> Option<AdaptationPlan> {
            self.composer()
                .compose(
                    profiles,
                    self.server,
                    self.client,
                    &SelectOptions::default(),
                )
                .expect("valid request")
                .plan
        }
    }

    fn profiles(user: UserProfile) -> ProfileSet {
        ProfileSet {
            user,
            content: ContentProfile::demo_video("clip"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::broadband(),
        }
    }

    /// Requests that differ in one field selection reads (each its own
    /// class, and most of them composing to another plan or to none),
    /// then requests that differ from the first only in fields it never
    /// reads.
    fn classes_and_aliases() -> (Vec<ProfileSet>, Vec<ProfileSet>) {
        let base = profiles(UserProfile::demo("demo"));
        let variant = |change: &dyn Fn(&mut ProfileSet)| {
            let mut profiles = base.clone();
            change(&mut profiles);
            profiles
        };
        let classes = vec![
            base.clone(),
            profiles(UserProfile::paper_table1()),
            variant(&|p| p.user.budget = Some(0.0)),
            variant(&|p| p.user.budget = Some(1.0)),
            variant(&|p| p.user.satisfaction.use_weighted_combination()),
            variant(&|p| {
                p.content.variants[0].offered.set(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 1.0,
                        max: 15.0,
                    },
                );
            }),
            variant(&|p| p.device.decoders.push("video/h261".to_string())),
            variant(&|p| p.device.hardware.screen_width /= 2),
            variant(&|p| p.context = ContextProfile::noisy_commute()),
        ];
        let aliases = vec![
            variant(&|p| p.user.name.push('2')),
            variant(&|p| p.content.title.push('2')),
            variant(&|p| p.device.os.push('2')),
            variant(&|p| p.context.location.push('2')),
            variant(&|p| p.network = NetworkProfile::cellular()),
        ];
        (classes, aliases)
    }

    /// Under a hash that sends every class to one bucket, only `==`
    /// tells classes apart: each class composes once, gets its own
    /// answer (the memo-less one), and requests that differ only in
    /// what no compose reads share their class's answer.
    #[test]
    fn distinct_classes_never_share_an_answer_under_an_all_colliding_hash() {
        let world = World::new();
        let (classes, aliases) = classes_and_aliases();
        for hash in [class_hash as fn(&Class) -> u64, |_: &Class| 0] {
            let memo = ClassMemo::default();
            let store = GraphStore::new();
            let mut answers = Vec::new();
            for profiles in &classes {
                let answer = world.compose(&memo, &store, profiles, hash);
                assert_eq!(answer.as_deref(), world.fresh(profiles).as_ref());
                answers.push(answer);
            }
            assert_eq!(memo.len(), classes.len(), "one entry per class");
            for (profiles, answer) in classes.iter().zip(&answers) {
                let again = world.compose(&memo, &store, profiles, hash);
                match (&again, answer) {
                    (Some(again), Some(answer)) => assert!(Arc::ptr_eq(again, answer)),
                    (None, None) => {}
                    _ => panic!("a stored answer changed"),
                }
            }
            for profiles in &aliases {
                let answer = world.compose(&memo, &store, profiles, hash);
                assert!(Arc::ptr_eq(
                    answer.as_ref().expect("solvable"),
                    answers[0].as_ref().expect("solvable")
                ));
            }
            assert_eq!(memo.len(), classes.len(), "aliases add no class");
        }
    }

    /// One compose per class per stamp: repeats at a stamp run none, a
    /// registry or a network write drops every class, and under
    /// `memos_off` every
    /// request composes and still gets the memo-less plan. Composes are
    /// counted as the store's graph fetches, one per compose (the
    /// process-wide kernel counter would count other tests' runs).
    #[test]
    fn a_class_composes_once_per_stamp() {
        let mut world = World::new();
        let (classes, aliases) = classes_and_aliases();
        let memo = ClassMemo::default();
        let store = GraphStore::new();
        let fetches = |store: &GraphStore| {
            let stats = store.stats();
            stats.rebuilds + stats.deltas + stats.reuses
        };
        let composes = |world: &World, requests: &[ProfileSet]| {
            let before = fetches(&store);
            for profiles in requests {
                world.compose(&memo, &store, profiles, class_hash);
            }
            fetches(&store) - before
        };
        let all: Vec<ProfileSet> = classes.iter().chain(&aliases).cloned().collect();
        assert_eq!(composes(&world, &all), classes.len() as u64);
        assert_eq!(composes(&world, &all), 0);

        let chain = world
            .fresh(&classes[0])
            .expect("solvable")
            .steps
            .iter()
            .find_map(|step| step.service)
            .expect("has a transcoder");
        assert!(world.services.report_failure(chain, SimTime(10)).unwrap());
        assert_eq!(composes(&world, &all), classes.len() as u64);
        assert_eq!(memo.len(), classes.len(), "the old stamp's classes dropped");
        for profiles in &all {
            let answer = world.compose(&memo, &store, profiles, class_hash);
            assert_eq!(answer.as_deref(), world.fresh(profiles).as_ref());
        }

        // A network write alone (the registry epoch stands still): the
        // client goes down, and every class becomes unsolvable.
        let epoch = world.services.epoch();
        world.network.fail_node(world.client).unwrap();
        assert_eq!(world.services.epoch(), epoch);
        assert_eq!(composes(&world, &all), classes.len() as u64);
        for profiles in &all {
            assert_eq!(world.compose(&memo, &store, profiles, class_hash), None);
        }

        let off = with_memos_off(|| composes(&world, &all));
        assert_eq!(off, all.len() as u64, "memos off: every compose is fresh");
    }

    /// An invalid request fails as the compose would, and stores nothing.
    #[test]
    fn errors_are_returned_and_not_stored() {
        let world = World::new();
        let memo = ClassMemo::default();
        let store = GraphStore::new();
        let mut invalid = profiles(UserProfile::demo("demo"));
        invalid.device.decoders.push("no/such-format".to_string());
        let via_memo = memo
            .compose(
                &world.composer(),
                &store,
                &invalid,
                world.server,
                world.client,
                &SelectOptions::default(),
                world.stamp(),
                class_hash,
            )
            .expect_err("unknown decoder");
        let fresh = world
            .composer()
            .compose(
                &invalid,
                world.server,
                world.client,
                &SelectOptions::default(),
            )
            .expect_err("unknown decoder");
        assert_eq!(via_memo.to_string(), fresh.to_string());
        assert_eq!(memo.len(), 0);
    }
}
