//! The compose memo: one kernel run per request class per world state,
//! for the composition cache and the serving loop alike.
//!
//! Section 4 makes a composition a pure function of the request and the
//! world it reads. A compose reads only what [`Class`] holds — the
//! request resolved, with every field the kernel never sees, the user's
//! name first, gone — and what the world [`WorldStamp`] certifies, so at
//! a fixed stamp equal classes get equal answers. Each class is interned
//! once to a dense id, and id `i` owns one answer slot, valid at the
//! stamp stored beside it. A miss composes the interned class through
//! the memo's own [`GraphStore`]. Two owners hold a memo:
//!
//! * [`ShardedCompositionCache`](crate::ShardedCompositionCache) keys its
//!   entries per request, user name included, so after a world write
//!   every stale entry of one class would recompose the same inputs. The
//!   first miss or stale probe of a class composes, and the rest of the
//!   class's probes at that stamp are answered here. Each entry keeps its
//!   class id, so a stale probe of a known request resolves, hashes and
//!   compares no class — see [`ComposeMemo::compose`] for when an id may
//!   be reused.
//! * [`run_sessions`](crate::run_sessions) holds one memo per run. The run
//!   keeps one class id per (interned request, ladder rung), resolved at
//!   that pair's first compose, so every later compose of the pair goes
//!   straight to [`ComposeMemo::compose_class`].
//!
//! The stamp's registry epoch counts every write, so a world that
//! returns to an earlier state — a service quarantined, then released —
//! gets a new stamp. Beside its slot, each id therefore keeps its last
//! [`HISTORY`] answers keyed by what the world *is*: the network version
//! and the registry's [`SelectionView`] (membership count, live
//! quarantined ids, probation penalties). A stamp miss looks the current
//! content up there before it composes; a match fills the slot and runs
//! no graph build and no kernel. Equal (network version, membership,
//! quarantined ids, penalties) mean equal compose inputs, because:
//!
//! * liveness changes only through `Registered`, `Deregistered` and
//!   `Expired`, which the membership count counts — `renew` needs a live
//!   entry and an id never comes back — so equal counts on one registry
//!   mean equal live sets;
//! * availability is live and not quarantined, and the quarantined ids
//!   are compared whole;
//! * the penalties, the one other registry value selection reads, are
//!   compared whole;
//! * an id's descriptor and its `by_input` rows never change after
//!   registration;
//! * `Network` answers are equal at equal versions;
//! * `FormatRegistry` is append-only, so a resolved format id keeps its
//!   spec;
//! * the class covers the request and the options.
//!
//! The network version and the membership count only grow, so an entry
//! that differs from the current world in either can never match again:
//! each insert first drops those.

use crate::composer::{Composer, StoredComposition};
use crate::graph::{AdaptationGraph, BuildInput, GraphStore};
use crate::key_hash::KeyHasher;
use crate::plan::AdaptationPlan;
use crate::select::{select_chain_with_penalties, SelectOptions, SelectionOutcome};
use crate::stamp::WorldStamp;
use crate::Result;
use parking_lot::RwLock;
use qosc_media::{hash_f64, ContentVariant, FormatId, FormatRegistry, ParamVector};
use qosc_netsim::{memo::memos_off, NodeId};
use qosc_profiles::ProfileSet;
use qosc_satisfaction::SatisfactionProfile;
use qosc_services::{SelectionView, ServiceId};
use std::collections::{HashMap, VecDeque};
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
    /// Resolve `profiles`, failing with the error a compose of them
    /// would return.
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

    /// The class composed in `composer`'s world over `store`'s graph:
    /// [`Composer::compose_with_store`] after its resolve.
    pub(crate) fn compose(
        &self,
        composer: &Composer<'_>,
        store: &GraphStore,
    ) -> Result<StoredComposition> {
        let graph = store.graph_for(&self.build_input(composer))?;
        let (selection, plan) = self.select(composer, &graph)?;
        Ok(StoredComposition {
            graph,
            selection,
            plan,
        })
    }

    /// What a graph build reads: the class's endpoints, variants,
    /// decoders and receiver caps in `composer`'s world.
    pub(crate) fn build_input<'a>(&'a self, composer: &Composer<'a>) -> BuildInput<'a> {
        BuildInput {
            formats: composer.formats,
            services: composer.services,
            network: composer.network,
            variants: &self.variants,
            sender_host: self.sender_host,
            receiver_host: self.receiver_host,
            decoders: &self.decoders,
            receiver_caps: self.receiver_caps,
        }
    }

    /// Selection over `graph` (Figure 4), and the plan of its chain.
    /// Probation penalties ride in from the registry: empty, and
    /// bit-identical to the penalty-free path, unless grey-failure
    /// detection has probated a service.
    pub(crate) fn select(
        &self,
        composer: &Composer<'_>,
        graph: &AdaptationGraph,
    ) -> Result<(SelectionOutcome, Option<AdaptationPlan>)> {
        let selection = select_chain_with_penalties(
            graph,
            composer.formats,
            &self.satisfaction,
            self.budget,
            &self.options,
            composer.services.selection_penalties(),
        )?;
        let plan = match &selection.chain {
            Some(chain) => Some(AdaptationPlan::from_chain(graph, composer.formats, chain)?),
            None => None,
        };
        Ok((selection, plan))
    }
}

/// The bucket hash both owners give [`ComposeMemo::intern`] outside
/// tests. `a == b` implies equal hashes (floats go through
/// [`hash_f64`]); the options are left to the `==` confirmation, as an
/// owner serves them all alike.
pub(crate) fn class_hash(class: &Class) -> u64 {
    let mut hasher = KeyHasher::default();
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

/// Values by dense id, numbered in order of first sight. An id is found
/// by its bucket hash and confirmed with `==`, so a bucket collision
/// costs a comparison, never a wrong id. The compose memo's class table
/// and the serving loop's request ids are both one.
#[derive(Debug)]
pub(crate) struct Interner<T> {
    /// Value `id` is `values[id]`.
    values: Vec<T>,
    /// Ids by bucket hash.
    buckets: HashMap<u64, Vec<u32>>,
}

impl<T> Default for Interner<T> {
    fn default() -> Interner<T> {
        Interner {
            values: Vec::new(),
            buckets: HashMap::new(),
        }
    }
}

impl<T> Interner<T> {
    /// The id of the value in `bucket` that `is` accepts, if any.
    pub(crate) fn find(&self, bucket: u64, is: impl Fn(&T) -> bool) -> Option<u32> {
        self.buckets
            .get(&bucket)?
            .iter()
            .copied()
            .find(|&id| is(&self.values[id as usize]))
    }

    /// Number `value`, which [`find`](Interner::find) did not, in
    /// `bucket`.
    pub(crate) fn push(&mut self, bucket: u64, value: T) -> u32 {
        let id = u32::try_from(self.values.len()).expect("fewer than 2^32 values");
        self.values.push(value);
        self.buckets.entry(bucket).or_default().push(id);
        id
    }

    /// Values interned so far.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// A class's fresh answer: the plan, shared with the cache entries and
/// sessions that serve it, or `None` for a class that is unsolvable at
/// the stamp.
pub(crate) type Answer = Option<Arc<AdaptationPlan>>;

/// Answers each class keeps by world content. The compose-hot traffic
/// meets 27–36 distinct world states per class in a full run.
const HISTORY: usize = 64;

/// One answer of a class's history and the world content it was
/// composed in: an owned copy of the registry's [`SelectionView`]
/// beside the network version.
#[derive(Debug)]
struct Recent {
    network_version: u64,
    membership: u64,
    quarantined: Box<[ServiceId]>,
    penalties: Box<[(ServiceId, u64)]>,
    answer: Answer,
}

impl Recent {
    /// Whether this answer was composed in a world with this content.
    fn is_at(&self, network_version: u64, view: &SelectionView<'_>) -> bool {
        self.network_version == network_version
            && self.membership == view.membership
            && *self.quarantined == *view.quarantined
            && *self.penalties == *view.penalties
    }
}

/// What the memo knows of one class id.
#[derive(Debug, Default)]
struct Slot {
    /// The last answer composed or recalled for the class, and the
    /// stamp it is valid at.
    last: Option<(WorldStamp, Answer)>,
    /// Fresh answers by world content, oldest first, at most
    /// [`HISTORY`].
    recent: VecDeque<Recent>,
}

impl Slot {
    /// Make `answer` the slot's answer at `stamp`, unless a racing
    /// compose already did.
    fn fill(&mut self, stamp: WorldStamp, answer: &Answer) {
        if !matches!(&self.last, Some((at, _)) if *at == stamp) {
            self.last = Some((stamp, answer.clone()));
        }
    }

    /// The answer composed in a world with this content, if kept.
    fn recall(&self, network_version: u64, view: &SelectionView<'_>) -> Option<&Answer> {
        self.recent
            .iter()
            .rev()
            .find(|recent| recent.is_at(network_version, view))
            .map(|recent| &recent.answer)
    }

    /// Keep `answer`, composed in a world with this content. Entries of
    /// another network version or membership go first: both only grow.
    fn remember(&mut self, network_version: u64, view: &SelectionView<'_>, answer: &Answer) {
        self.recent.retain(|recent| {
            recent.network_version == network_version && recent.membership == view.membership
        });
        if self.recall(network_version, view).is_some() {
            return;
        }
        if self.recent.len() == HISTORY {
            self.recent.pop_front();
        }
        self.recent.push_back(Recent {
            network_version,
            membership: view.membership,
            quarantined: view.quarantined.into(),
            penalties: view.penalties.into(),
            answer: answer.clone(),
        });
    }
}

/// Every class met so far, by dense id, and each id's slot.
#[derive(Debug, Default)]
struct Interned {
    /// Class `id`, shared so that a miss composes it outside the lock.
    classes: Interner<Arc<Class>>,
    /// Slot `id`: what the memo knows of class `id`.
    slots: Vec<Slot>,
}

/// The exact memo behind the cache's misses and stale probes and the
/// serving loop's composes.
///
/// A slot answers at the [`WorldStamp`] it was filled at, its history
/// at the world content each answer was composed in. `Ok(Some)` and
/// `Ok(None)` are stored; an error is returned and stores no answer, so
/// a retry recomposes. Ids carry no world state, so they are kept across
/// stamps (and under [`memos_off`]) and never evicted: the table grows
/// with the distinct classes the owner has met. Lookup and insert take a
/// short lock; composition runs outside it, and threads racing on a cold
/// class intern one id and store one answer. Under [`memos_off`] an
/// owner composes its request fresh and reads no answer.
#[derive(Debug, Default)]
pub(crate) struct ComposeMemo {
    /// Where misses get their adaptation graphs.
    store: GraphStore,
    interned: RwLock<Interned>,
}

impl ComposeMemo {
    /// The graph store the memo's composes build from.
    pub(crate) fn store(&self) -> &GraphStore {
        &self.store
    }

    /// What [`Composer::compose_with_store`] returns for this request's
    /// plan in `composer`'s world at `stamp`, and the request's class id:
    /// the class's answer from [`compose_class`](ComposeMemo::compose_class).
    /// `hash` buckets classes.
    ///
    /// `known` is the class id the memo returned for this request
    /// before, which the cache keeps on the request's entry. It is
    /// reused only when `options` equal the class's, and then the
    /// request is not resolved at all. That is exact because the entry
    /// is keyed by the whole request, and the class reads only the
    /// request, the options and `composer.formats`, whose names keep
    /// their ids once registered (`FormatRegistry::register`: the first
    /// registration wins). Under [`memos_off`] the id is found the same
    /// way, and the request is composed fresh.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compose(
        &self,
        composer: &Composer<'_>,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
        stamp: WorldStamp,
        known: Option<u32>,
        hash: impl Fn(&Class) -> u64,
    ) -> Result<(u32, Answer)> {
        let known = known
            .filter(|&id| self.interned.read().classes.values[id as usize].options == *options);
        let id = match known {
            Some(id) => id,
            None => self.intern(
                Class::of(
                    composer.formats,
                    profiles,
                    sender_host,
                    receiver_host,
                    options,
                )?,
                hash,
            ),
        };
        let answer = if memos_off() {
            composer
                .compose_with_store(&self.store, profiles, sender_host, receiver_host, options)?
                .plan
                .map(Arc::new)
        } else {
            self.compose_class(composer, id, stamp)?
        };
        Ok((id, answer))
    }

    /// Class `id` composed in `composer`'s world, whose stamp is `stamp`:
    /// the slot's answer at `stamp`, else the one the history holds for
    /// the world's content, else a fresh compose through the memo's
    /// store (then stored).
    pub(crate) fn compose_class(
        &self,
        composer: &Composer<'_>,
        id: u32,
        stamp: WorldStamp,
    ) -> Result<Answer> {
        let interned = self.interned.read();
        let slot = &interned.slots[id as usize];
        if let Some((at, answer)) = &slot.last {
            if *at == stamp {
                return Ok(answer.clone());
            }
        }
        let network_version = stamp.network_version;
        let view = composer.services.selection_view();
        if let Some(answer) = slot.recall(network_version, &view).cloned() {
            drop(interned);
            self.interned.write().slots[id as usize].fill(stamp, &answer);
            return Ok(answer);
        }
        let class = Arc::clone(&interned.classes.values[id as usize]);
        drop(interned);
        let answer = class.compose(composer, &self.store)?.plan.map(Arc::new);
        let slot = &mut self.interned.write().slots[id as usize];
        slot.fill(stamp, &answer);
        slot.remember(network_version, &view, &answer);
        Ok(answer)
    }

    /// `class`'s id, interning it on first sight.
    pub(crate) fn intern(&self, class: Class, hash: impl Fn(&Class) -> u64) -> u32 {
        let bucket = hash(&class);
        let is = |known: &Arc<Class>| **known == class;
        if let Some(id) = self.interned.read().classes.find(bucket, is) {
            return id;
        }
        let mut interned = self.interned.write();
        if let Some(id) = interned.classes.find(bucket, is) {
            return id;
        }
        interned.slots.push(Slot::default());
        interned.classes.push(bucket, Arc::new(class))
    }

    /// Classes interned so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.interned.read().classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_world::World;
    use qosc_media::{Axis, AxisDomain};
    #[cfg(debug_assertions)]
    use qosc_netsim::memo::with_memos_off;
    use qosc_netsim::SimTime;
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, UserProfile,
    };
    use qosc_services::ProbationConfig;

    impl World {
        /// `profiles` through `memo`, bucketed by `hash`.
        fn compose(
            &self,
            memo: &ComposeMemo,
            profiles: &ProfileSet,
            hash: impl Fn(&Class) -> u64,
        ) -> Answer {
            memo.compose(
                &self.composer(),
                profiles,
                self.server,
                self.client,
                &SelectOptions::default(),
                self.stamp(),
                None,
                hash,
            )
            .expect("valid request")
            .1
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
            let memo = ComposeMemo::default();
            let mut answers = Vec::new();
            for profiles in &classes {
                let answer = world.compose(&memo, profiles, hash);
                assert_eq!(answer.as_deref(), world.fresh(profiles).as_ref());
                answers.push(answer);
            }
            assert_eq!(memo.len(), classes.len(), "one entry per class");
            for (profiles, answer) in classes.iter().zip(&answers) {
                let again = world.compose(&memo, profiles, hash);
                match (&again, answer) {
                    (Some(again), Some(answer)) => assert!(Arc::ptr_eq(again, answer)),
                    (None, None) => {}
                    _ => panic!("a stored answer changed"),
                }
            }
            for profiles in &aliases {
                let answer = world.compose(&memo, profiles, hash);
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
        let memo = ComposeMemo::default();
        let composes = |world: &World, requests: &[ProfileSet]| {
            let before = fetches(memo.store());
            for profiles in requests {
                world.compose(&memo, profiles, class_hash);
            }
            fetches(memo.store()) - before
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
        assert_eq!(memo.len(), classes.len(), "ids outlive the stamp");
        for profiles in &all {
            let answer = world.compose(&memo, profiles, class_hash);
            assert_eq!(answer.as_deref(), world.fresh(profiles).as_ref());
        }

        // A network write alone (the registry epoch stands still): the
        // client goes down, and every class becomes unsolvable.
        let epoch = world.services.epoch();
        world.network.fail_node(world.client).unwrap();
        assert_eq!(world.services.epoch(), epoch);
        assert_eq!(composes(&world, &all), classes.len() as u64);
        for profiles in &all {
            assert_eq!(world.compose(&memo, profiles, class_hash), None);
        }

        // The switch exists in debug builds only.
        #[cfg(debug_assertions)]
        {
            let off = with_memos_off(|| composes(&world, &all));
            assert_eq!(off, all.len() as u64, "memos off: every compose is fresh");
        }
    }

    /// The store's graph fetches: one per compose, none per answer the
    /// memo serves (the process-wide kernel counter would count other
    /// tests' runs).
    fn fetches(store: &GraphStore) -> u64 {
        let stats = store.stats();
        stats.rebuilds + stats.reuses
    }

    /// A world that returns to a state it was in answers from the
    /// class's history, though its stamp is new: the same `Arc` back and
    /// no compose, whichever part of the registry view made the round
    /// trip. A network write or a membership move does not return, so
    /// it composes; under `memos_off` every visit composes.
    #[test]
    fn a_world_that_returns_to_a_state_recalls_its_answer() {
        let mut world = World::new();
        let memo = ComposeMemo::default();
        let request = profiles(UserProfile::demo("demo"));
        let compose = |world: &World| {
            let before = fetches(memo.store());
            let answer = world.compose(&memo, &request, class_hash);
            (answer, fetches(memo.store()) - before)
        };
        let same = |a: &Answer, b: &Answer| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        let (healthy, runs) = compose(&world);
        assert_eq!(runs, 1);
        let victim = healthy
            .as_ref()
            .expect("solvable")
            .steps
            .iter()
            .find_map(|step| step.service)
            .expect("has a transcoder");

        // Quarantine and release.
        assert!(world.services.report_failure(victim, SimTime(10)).unwrap());
        let (quarantined, runs) = compose(&world);
        assert_eq!(runs, 1);
        assert_eq!(quarantined.as_deref(), world.fresh(&request).as_ref());
        assert_eq!(
            world.services.release_quarantines(SimTime(2_000_000)),
            [victim]
        );
        let (back, runs) = compose(&world);
        assert_eq!(runs, 0, "the healthy state again");
        assert!(same(&back, &healthy));

        // Probation and its clear.
        world.services.set_probation_config(ProbationConfig {
            probe_successes: 1,
            ..ProbationConfig::default()
        });
        assert!(world.services.probate(victim, 0, SimTime(3_000_000)));
        let (probated, runs) = compose(&world);
        assert_eq!(runs, 1);
        assert_eq!(probated.as_deref(), world.fresh(&request).as_ref());
        assert!(world.services.probe_success(victim, SimTime(3_000_001)));
        let (back, runs) = compose(&world);
        assert_eq!(runs, 0, "the healthy state again");
        assert!(same(&back, &healthy));
        assert!(world
            .services
            .report_failure(victim, SimTime(3_000_002))
            .unwrap());
        let (again, runs) = compose(&world);
        assert_eq!(runs, 0, "the quarantined state again");
        assert!(same(&again, &quarantined));
        assert_eq!(
            world.services.release_quarantines(SimTime(5_000_000)),
            [victim]
        );

        #[cfg(debug_assertions)]
        {
            let (off, runs) = with_memos_off(|| compose(&world));
            assert_eq!(runs, 1, "memos off: no answer from the history either");
            assert_eq!(off.as_deref(), healthy.as_deref());
        }

        // A network write and its undo: the version only grows.
        world.network.fail_node(world.client).unwrap();
        assert_eq!(compose(&world), (None, 1));
        world.network.restore_node(world.client);
        let (restored, runs) = compose(&world);
        assert_eq!(runs, 1, "a new network version");
        assert_eq!(restored.as_deref(), healthy.as_deref());

        // A membership move: the live set never comes back.
        let bystander = world
            .services
            .live_services()
            .map(|(id, _)| id)
            .find(|&id| id != victim)
            .expect("the catalog has more than one service");
        world.services.deregister(bystander).unwrap();
        let (_, runs) = compose(&world);
        assert_eq!(runs, 1, "a new membership");
    }

    /// Each class keeps its last [`HISTORY`] world states: after one
    /// more distinct state, the oldest composes again and the rest are
    /// still answered.
    #[test]
    fn the_history_keeps_the_last_states_of_a_class() {
        let mut world = World::new();
        world.services.set_probation_config(ProbationConfig {
            probe_successes: 1,
            ..ProbationConfig::default()
        });
        let memo = ComposeMemo::default();
        let request = profiles(UserProfile::demo("demo"));
        let victim = world
            .fresh(&request)
            .expect("solvable")
            .steps
            .iter()
            .find_map(|step| step.service)
            .expect("has a transcoder");
        let mut now = 0;
        // State `k` probates the victim at its own factor; state
        // `HISTORY` is the unprobated world.
        let mut visit = |world: &mut World, k: usize| {
            now += 10;
            for &(id, _) in world.services.selection_penalties().to_vec().iter() {
                assert!(world.services.probe_success(id, SimTime(now)));
            }
            if k < HISTORY {
                assert!(world
                    .services
                    .probate(victim, 10_000 * k as u64, SimTime(now)));
            }
            let before = fetches(memo.store());
            world.compose(&memo, &request, class_hash);
            fetches(memo.store()) - before
        };
        for k in 0..=HISTORY {
            assert_eq!(visit(&mut world, k), 1, "first visit to state {k}");
        }
        assert_eq!(visit(&mut world, 1), 0, "state 1 is kept");
        assert_eq!(visit(&mut world, HISTORY), 0, "the last state is kept");
        assert_eq!(visit(&mut world, 0), 1, "state 0 went first");
    }

    /// The id a cache entry keeps stands for its class while the options
    /// are the class's: the request is then not resolved at all, so a
    /// request that would no longer resolve is still answered from the
    /// slot. Under other options it is resolved, and is a class of its
    /// own. Under `memos_off` the id is reused and the slot never read.
    #[test]
    fn a_known_id_skips_the_resolve_only_under_its_own_options() {
        use crate::select::TieBreak;
        let world = World::new();
        let memo = ComposeMemo::default();
        let compose = |profiles: &ProfileSet, options: &SelectOptions, known| {
            memo.compose(
                &world.composer(),
                profiles,
                world.server,
                world.client,
                options,
                world.stamp(),
                known,
                class_hash,
            )
        };
        let valid = profiles(UserProfile::demo("demo"));
        let mut unresolvable = valid.clone();
        unresolvable
            .device
            .decoders
            .push("no/such-format".to_string());
        let options = SelectOptions::default();
        let other = SelectOptions {
            tie_break: TieBreak::Fifo,
            ..options
        };

        let (id, answer) = compose(&valid, &options, None).expect("valid request");
        let (again, stored) = compose(&unresolvable, &options, Some(id)).expect("not resolved");
        assert_eq!(again, id);
        assert!(Arc::ptr_eq(
            stored.as_ref().expect("solvable"),
            answer.as_ref().expect("solvable")
        ));

        compose(&unresolvable, &other, Some(id)).expect_err("resolved: unknown decoder");
        let (other_id, _) = compose(&valid, &other, Some(id)).expect("valid request");
        assert_ne!(other_id, id);
        assert_eq!(memo.len(), 2);

        #[cfg(debug_assertions)]
        {
            let (off_id, _) =
                with_memos_off(|| compose(&valid, &options, Some(id))).expect("valid request");
            assert_eq!(off_id, id);
            with_memos_off(|| compose(&unresolvable, &options, Some(id)))
                .expect_err("memos off: composed, so resolved");
            assert_eq!(memo.len(), 2);
        }
    }

    /// An invalid request fails as the compose would, and stores nothing.
    #[test]
    fn errors_are_returned_and_not_stored() {
        let world = World::new();
        let memo = ComposeMemo::default();
        let mut invalid = profiles(UserProfile::demo("demo"));
        invalid.device.decoders.push("no/such-format".to_string());
        let via_memo = memo
            .compose(
                &world.composer(),
                &invalid,
                world.server,
                world.client,
                &SelectOptions::default(),
                world.stamp(),
                None,
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
