//! Two-level composition against a sharded registry.
//!
//! Flat composition builds one graph over every live service and runs
//! Figure-4 selection on it — fine at 10^3 services, hopeless at 10^6.
//! [`ShardedComposer`] splits the problem the way Klein-style
//! partitioned QoS brokers do:
//!
//! 1. **Summary level.** Each shard of the
//!    [`ShardedServiceRegistry`]
//!    exports a frontier of `(input format, output format, axis set)`
//!    hull tops (see `qosc_services::sharded`). Scoring a hull top with
//!    the request's satisfaction profile gives an *admissible* bound on
//!    the satisfaction any hop through that shard and pair can
//!    contribute: every satisfaction function is monotone per axis,
//!    upstream capping only shrinks the reachable configurations, and
//!    probation penalties only multiply satisfaction down. A
//!    deterministic max-min relaxation over these bounds (a Dijkstra on
//!    formats rather than services) yields, per format, an upper bound
//!    on the satisfaction of any chain delivering that format — and per
//!    shard, an upper bound `U_s` on any *complete* chain that uses at
//!    least one of its services.
//! 2. **Expansion level.** Only the shards on the provisional winning
//!    path are expanded into a real scoped adaptation graph (served
//!    incrementally by [`GraphStore::scoped_graph_for`]), and Figure-4
//!    selection runs on that subgraph. If the returned chain's
//!    satisfaction `W` strictly beats every non-expanded shard's bound
//!    (`U_s < W`), no chain through those shards can match the winner —
//!    not even on a tie-break, which is why the comparison is strict —
//!    so the subgraph winner *is* the flat winner. Otherwise the
//!    offending shards are expanded and selection re-runs; in the worst
//!    case this degenerates to the flat composition (and when selection
//!    fails outright, the full graph is consulted so failures, traces
//!    and tie-breaks are bitwise those of the flat path).
//!
//! Plans are bitwise identical to [`Composer`](crate::Composer):
//! [`AdaptationPlan`] references services by registry id (never by
//! vertex id), the filtered build preserves registration order among
//! surviving vertices, and the strict-bound check rules out every chain
//! the subgraph cannot see. The equivalence is enforced by property
//! test across shard counts and churn schedules.
//!
//! # The summary level's state
//!
//! `FormatId` is a dense index, so everything the summary level keeps
//! per format — bound, parent hop, "reaches a decoder" — is a flat
//! table in a per-thread `SummaryScratch` (the `SelectScratch`
//! pattern of `select/greedy.rs`): a warm compose's summary level
//! descends no tree and allocates nothing. The *sweep order* is part of
//! the contract, not an implementation detail: hops are visited in
//! `(shard, PairKey)` order in whole passes until nothing moves. The
//! per-format values are the same under any order, but the parent
//! pointers — which hop first reached a format at its final value —
//! are not, and they choose the seed shards, hence `expanded_shards`,
//! `rounds` and every scoped-graph cache key. A `#[cfg(test)]`
//! tree-map reference of the same algorithm is the oracle.

use crate::composer::StoredComposition;
use crate::graph::{BuildInput, GraphScope, GraphStore};
use crate::plan::AdaptationPlan;
use crate::select::{select_chain_with_penalties, SelectOptions};
use crate::Result;
use qosc_media::{FormatId, FormatRegistry};
use qosc_netsim::{Network, NodeId};
use qosc_profiles::ProfileSet;
use qosc_services::ShardedServiceRegistry;
use std::cell::RefCell;

/// The two-level composition facade. The sharded sibling of
/// [`Composer`](crate::Composer): same inputs, same outputs, but the
/// service registry is consulted shard-by-shard.
pub struct ShardedComposer<'a> {
    /// The scenario's format registry.
    pub formats: &'a FormatRegistry,
    /// The sharded service registry.
    pub services: &'a ShardedServiceRegistry,
    /// The network.
    pub network: &'a Network,
}

/// The outcome of one two-level composition, plus how much of the
/// registry it had to look at.
#[derive(Debug)]
pub struct TwoLevelComposition {
    /// The composition itself — graph, selection, plan — exactly as the
    /// flat [`Composer`](crate::Composer) would have produced it.
    pub composition: StoredComposition,
    /// Shards expanded into the graph, ascending.
    pub expanded_shards: Vec<u32>,
    /// Selection rounds run (1 = the seed expansion sufficed).
    pub rounds: u32,
    /// Whether the search fell back to expanding every shard (selection
    /// failure, or a winner that could not be proven optimal earlier).
    pub full_expansion: bool,
    /// Frontier classes scored under this request's satisfaction
    /// profile: one per `(shard, input, output, axis set)`.
    pub hops_scored: usize,
    /// Whole passes the max-min relaxation swept over those hops,
    /// the last one — which moved nothing — included.
    pub relaxation_passes: u32,
    /// `max U_s` over the shards left unexpanded: the best satisfaction
    /// any complete chain through a pruned shard could reach
    /// (`-inf` when none of them lies on a complete chain). A plan
    /// stands because its `W` —
    /// `composition.selection.chain`'s satisfaction — is strictly
    /// above this; `W - max U_s` is the margin of that proof. `None`
    /// when every shard was expanded, so nothing was pruned.
    pub max_pruned_bound: Option<f64>,
}

/// One summary-level hop: shard `shard` converts `input` to `output`
/// with satisfaction bounded by `bound`.
struct SummaryHop {
    shard: u32,
    input: FormatId,
    output: FormatId,
    bound: f64,
}

/// Marks a format no hop has reached in [`SummaryTables::parent`].
const NO_PARENT: u32 = u32::MAX;

/// The summary level's dense state: per-format tables indexed by
/// [`FormatId::index`], per-shard tables indexed by shard. Everything
/// is overwritten by [`SummaryTables::summarize`]; the buffers only
/// carry capacity from one request to the next.
#[derive(Default)]
struct SummaryTables {
    /// Upper bound on the satisfaction of any chain delivering the
    /// format; meaningful where `known`.
    value: Vec<f64>,
    /// Whether the format is offered or reached by some hop.
    known: Vec<bool>,
    /// Index (into the hop list) of the hop that last set the format's
    /// value, or [`NO_PARENT`]: the provisional winning path.
    parent: Vec<u32>,
    /// Whether some decoder is reachable from the format through the
    /// summary pairs.
    reaches_decoder: Vec<bool>,
    /// `U_s`: upper bound on any complete chain using the shard.
    shard_bound: Vec<f64>,
    /// Shards in the current expansion scope. Seeded here, widened by
    /// the expansion level.
    expanded: Vec<bool>,
}

/// What [`SummaryTables::summarize`] reports beside the tables.
struct SummaryOutcome {
    /// No decoder is reachable: every shard was marked expanded.
    full_expansion: bool,
    /// Whole passes of the max-min relaxation, the idle last included.
    relaxation_passes: u32,
}

impl SummaryTables {
    /// The summary level proper: from the scored `hops` (in
    /// `(shard, PairKey)` order, every `shard < shard_count`), the
    /// scored `offered` variants and the receiver's `decoders`, fill
    /// `shard_bound` with `U_s` and `expanded` with the seed expansion.
    ///
    /// Both fixpoints sweep `hops` front to back in whole passes; see
    /// the module docs for why no other order will do. Tables are sized
    /// by the largest format index among the arguments, whatever
    /// registry they were resolved against.
    fn summarize(
        &mut self,
        hops: &[SummaryHop],
        offered: &[(FormatId, f64)],
        decoders: &[FormatId],
        shard_count: usize,
    ) -> SummaryOutcome {
        let format_count = hops
            .iter()
            .flat_map(|hop| [hop.input, hop.output])
            .chain(offered.iter().map(|&(format, _)| format))
            .chain(decoders.iter().copied())
            .map(|format| format.index() + 1)
            .max()
            .unwrap_or(0);
        let SummaryTables {
            value,
            known,
            parent,
            reaches_decoder,
            shard_bound,
            expanded,
        } = self;
        refill(value, format_count, 0.0);
        refill(known, format_count, false);
        refill(parent, format_count, NO_PARENT);
        refill(reaches_decoder, format_count, false);
        refill(shard_bound, shard_count, f64::NEG_INFINITY);
        refill(expanded, shard_count, false);

        // Max-min relaxation over formats: `value[f]` upper-bounds the
        // satisfaction of any chain delivering format `f`. Seeded from
        // the offered variants, relaxed to a fixpoint; the parent
        // pointer records the hop that set each format's value.
        for &(format, score) in offered {
            let f = format.index();
            if !(known[f] && value[f] >= score) {
                value[f] = score;
                known[f] = true;
            }
        }
        let mut relaxation_passes = 0u32;
        loop {
            relaxation_passes += 1;
            let mut moved = false;
            for (index, hop) in hops.iter().enumerate() {
                let (input, output) = (hop.input.index(), hop.output.index());
                if !known[input] {
                    continue;
                }
                let through = value[input].min(hop.bound);
                if !known[output] || through > value[output] {
                    value[output] = through;
                    known[output] = true;
                    // A frontier holds far fewer than 2^32 classes;
                    // the sentinel itself is never a hop index.
                    parent[output] = index as u32;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        // Backward reachability: formats from which some decoder is
        // reachable through the summary pairs. A pair whose output
        // cannot reach a decoder can sit on no complete chain.
        for decoder in decoders {
            reaches_decoder[decoder.index()] = true;
        }
        loop {
            let mut grew = false;
            for hop in hops {
                if reaches_decoder[hop.output.index()] && !reaches_decoder[hop.input.index()] {
                    reaches_decoder[hop.input.index()] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        // Per-shard bound: the best complete chain using the shard is
        // capped by the best min(value at the hop input, hop bound)
        // over its pairs that can still reach a decoder.
        for hop in hops {
            if !reaches_decoder[hop.output.index()] || !known[hop.input.index()] {
                continue;
            }
            let through = value[hop.input.index()].min(hop.bound);
            if through > shard_bound[hop.shard as usize] {
                shard_bound[hop.shard as usize] = through;
            }
        }

        // Seed expansion: the shards on the parent path of the
        // highest-valued decoder — among equals the last listed, and
        // never one whose value is NaN. No reachable decoder → nothing
        // to seed from; expand everything so failures replay the flat
        // search bitwise (including its trace).
        let mut best: Option<(usize, f64)> = None;
        for decoder in decoders {
            let f = decoder.index();
            if known[f] && !value[f].is_nan() && best.is_none_or(|(_, top)| value[f] >= top) {
                best = Some((f, value[f]));
            }
        }
        let full_expansion = best.is_none();
        match best {
            Some((mut format, _)) => {
                while parent[format] != NO_PARENT {
                    let hop = &hops[parent[format] as usize];
                    expanded[hop.shard as usize] = true;
                    format = hop.input.index();
                }
            }
            None => expanded.fill(true),
        }
        SummaryOutcome {
            full_expansion,
            relaxation_passes,
        }
    }
}

/// Overwrite `table` with `len` copies of `fill`, keeping its capacity.
fn refill<T: Copy>(table: &mut Vec<T>, len: usize, fill: T) {
    table.clear();
    table.resize(len, fill);
}

/// Per-thread reusable state of the summary level: on a warm thread
/// [`ShardedComposer::compose_with_store`] allocates, beyond what its
/// expansion level needs, only the `expanded_shards` it returns.
#[derive(Default)]
struct SummaryScratch {
    /// Every shard's frontier, scored, in `(shard, PairKey)` order.
    hops: Vec<SummaryHop>,
    /// The offered variants' formats and scores, in profile order.
    offered: Vec<(FormatId, f64)>,
    tables: SummaryTables,
}

thread_local! {
    static SCRATCH: RefCell<SummaryScratch> = RefCell::new(SummaryScratch::default());
}

impl ShardedComposer<'_> {
    /// Compose an adaptation chain for one request, expanding as few
    /// shards as the admissible bounds allow. Graphs are served (and
    /// cached per expansion scope) by `store`.
    pub fn compose_with_store(
        &self,
        store: &GraphStore,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
    ) -> Result<TwoLevelComposition> {
        SCRATCH.with(|cell| {
            // A re-entrant call on this thread (defensive) runs on a
            // throwaway scratch rather than aliasing the live one; an
            // empty scratch costs nothing to make.
            let mut throwaway = SummaryScratch::default();
            let mut live = cell.try_borrow_mut();
            let scratch = match &mut live {
                Ok(scratch) => &mut **scratch,
                Err(_) => &mut throwaway,
            };
            self.compose_with_scratch(
                scratch,
                store,
                profiles,
                sender_host,
                receiver_host,
                options,
            )
        })
    }

    fn compose_with_scratch(
        &self,
        scratch: &mut SummaryScratch,
        store: &GraphStore,
        profiles: &ProfileSet,
        sender_host: NodeId,
        receiver_host: NodeId,
        options: &SelectOptions,
    ) -> Result<TwoLevelComposition> {
        profiles.validate()?;
        let variants = profiles.content.resolve(self.formats)?;
        let decoders = profiles.device.resolve_decoders(self.formats)?;
        let receiver_caps = profiles.device.hardware.quality_caps();
        let satisfaction = profiles.effective_satisfaction();
        let budget = profiles.user.budget_or_infinite();
        let shard_count = self.services.shard_count() as usize;

        // ----- summary level -----

        // Score every shard's frontier once: the per-(shard, pair)
        // admissible bound under this request's satisfaction profile.
        let SummaryScratch {
            hops,
            offered,
            tables,
        } = scratch;
        hops.clear();
        for shard in 0..shard_count as u32 {
            hops.extend(self.services.summaries(shard).map(|(key, top)| SummaryHop {
                shard,
                input: key.input,
                output: key.output,
                bound: satisfaction.score(&top),
            }));
        }
        offered.clear();
        offered.extend(
            variants
                .iter()
                .map(|variant| (variant.format, satisfaction.score(&variant.offered.top()))),
        );
        let SummaryOutcome {
            mut full_expansion,
            relaxation_passes,
        } = tables.summarize(hops, offered, &decoders, shard_count);
        let hops_scored = hops.len();
        let SummaryTables {
            shard_bound,
            expanded,
            ..
        } = tables;

        // ----- expansion level -----

        let mut rounds = 0u32;
        loop {
            rounds += 1;
            let input = BuildInput {
                formats: self.formats,
                services: self.services.flat(),
                network: self.network,
                variants: &variants,
                sender_host,
                receiver_host,
                decoders: &decoders,
                receiver_caps,
            };
            // A fully expanded scope *is* the flat graph; serving it
            // through the unscoped path shares the store entry (and its
            // delta replay) with flat consumers.
            let all = expanded.iter().all(|&e| e);
            let graph = if all {
                store.graph_for(&input)?
            } else {
                let scope = GraphScope::new(self.services, expanded);
                store.scoped_graph_for(&input, &scope)?
            };
            let selection = select_chain_with_penalties(
                &graph,
                self.formats,
                &satisfaction,
                budget,
                options,
                self.services.flat().selection_penalties(),
            )?;

            let plan = match &selection.chain {
                Some(chain) => {
                    // Any chain through a non-expanded shard scores at
                    // most that shard's bound; strictly below the
                    // winner means it cannot even tie, so the winner
                    // stands as the flat optimum.
                    let mut proven = true;
                    for (e, &bound) in expanded.iter_mut().zip(shard_bound.iter()) {
                        if !*e && bound >= chain.satisfaction {
                            *e = true;
                            proven = false;
                        }
                    }
                    if !proven {
                        continue;
                    }
                    Some(AdaptationPlan::from_chain(&graph, self.formats, chain)?)
                }
                // The flat search failed too: return its outcome
                // verbatim.
                None if all => None,
                None => {
                    // The seed subgraph was too small (the summary
                    // level bounds satisfaction, not feasibility —
                    // budgets, bandwidth and capping can starve it).
                    // Fall back to the flat graph.
                    expanded.fill(true);
                    full_expansion = true;
                    continue;
                }
            };
            let max_pruned_bound = expanded
                .iter()
                .zip(shard_bound.iter())
                .filter_map(|(&e, &bound)| (!e).then_some(bound))
                .reduce(f64::max);
            return Ok(TwoLevelComposition {
                composition: StoredComposition {
                    graph,
                    plan,
                    selection,
                },
                expanded_shards: collect_expanded(expanded),
                rounds,
                full_expansion,
                hops_scored,
                relaxation_passes,
                max_pruned_bound,
            });
        }
    }
}

/// Ascending shard ids flagged in `expanded`.
fn collect_expanded(expanded: &[bool]) -> Vec<u32> {
    expanded
        .iter()
        .enumerate()
        .filter_map(|(s, &e)| e.then_some(s as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composer::Composer;
    use proptest::prelude::*;
    use qosc_media::{Axis, AxisDomain, DomainVector, MediaKind, VariantSpec};
    use qosc_netsim::{Node, Topology};
    use qosc_profiles::{
        ContentProfile, ContextProfile, ConversionSpec, DeviceProfile, HardwareCaps,
        NetworkProfile, ServiceSpec, UserProfile,
    };
    use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
    use qosc_services::TranscoderDescriptor;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    struct World {
        formats: FormatRegistry,
        services: ShardedServiceRegistry,
        network: Network,
        sender: NodeId,
        receiver: NodeId,
        profiles: ProfileSet,
    }

    /// Clustered format chains `src -> mid_c -> dst` with per-cluster
    /// quality: cluster 0's services reach 30 fps, cluster 1's only 20,
    /// so the summary level can prove cluster 1 irrelevant.
    fn world(shards: u32) -> World {
        let mut formats = FormatRegistry::new();
        formats.register_abstract("video/src", MediaKind::Video);
        formats.register_abstract("video/dst", MediaKind::Video);
        let mids: Vec<FormatId> = (0..4)
            .map(|c| formats.register_abstract(format!("video/mid{c}"), MediaKind::Video))
            .collect();

        let mut topo = Topology::new();
        let s = topo.add_node(Node::unconstrained("sender"));
        let m = topo.add_node(Node::unconstrained("proxy"));
        let r = topo.add_node(Node::unconstrained("receiver"));
        topo.connect_simple(s, m, 1e9).unwrap();
        topo.connect_simple(m, r, 1e9).unwrap();
        let network = Network::new(topo);

        let mut services = ShardedServiceRegistry::new(shards);
        let fps_domain = |fps: f64| {
            DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous { min: 1.0, max: fps },
            )
        };
        for (c, _mid) in mids.iter().enumerate() {
            // Cluster quality cap: cluster 0 best, strictly worse after.
            let fps = 30.0 - 5.0 * c as f64;
            let head = ServiceSpec::new(
                format!("head{c}"),
                vec![ConversionSpec::new(
                    "video/src",
                    format!("video/mid{c}"),
                    fps_domain(fps),
                )],
            );
            let tail = ServiceSpec::new(
                format!("tail{c}"),
                vec![ConversionSpec::new(
                    format!("video/mid{c}"),
                    "video/dst",
                    fps_domain(fps),
                )],
            );
            for spec in [head, tail] {
                services
                    .register_static(TranscoderDescriptor::resolve(&spec, &formats, m).unwrap());
            }
        }

        let mut user = UserProfile::demo("u");
        user.satisfaction = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 30.0,
            },
        ));
        let content = ContentProfile::new(
            "clip",
            vec![VariantSpec {
                format: "video/src".to_string(),
                offered: fps_domain(30.0),
            }],
        );
        let device = DeviceProfile::new(
            "screen",
            vec!["video/dst".to_string()],
            HardwareCaps::desktop(),
        );
        let profiles = ProfileSet {
            user,
            content,
            device,
            context: ContextProfile::default(),
            network: NetworkProfile::lan(),
        };
        World {
            formats,
            services,
            network,
            sender: s,
            receiver: r,
            profiles,
        }
    }

    fn flat_plan(w: &World) -> Option<AdaptationPlan> {
        let composer = Composer {
            formats: &w.formats,
            services: w.services.flat(),
            network: &w.network,
        };
        composer
            .compose(&w.profiles, w.sender, w.receiver, &SelectOptions::default())
            .unwrap()
            .plan
    }

    #[test]
    fn two_level_matches_flat_and_skips_losing_shards() {
        for shards in [1u32, 2, 4, 8] {
            let w = world(shards);
            let store = GraphStore::new();
            let composer = ShardedComposer {
                formats: &w.formats,
                services: &w.services,
                network: &w.network,
            };
            let two = composer
                .compose_with_store(
                    &store,
                    &w.profiles,
                    w.sender,
                    w.receiver,
                    &SelectOptions::default(),
                )
                .unwrap();
            let flat = flat_plan(&w).expect("cluster 0 chain exists");
            assert_eq!(
                two.composition.plan.as_ref(),
                Some(&flat),
                "{shards} shards: plans must be bitwise identical"
            );
            assert!(
                !two.full_expansion,
                "{shards} shards: bounds must prove the winner"
            );
            if shards >= 4 {
                // The losing clusters' shards must never be expanded:
                // their hull tops score strictly below the winner.
                assert!(
                    (two.expanded_shards.len() as u32) < shards,
                    "{shards} shards: expanded {:?}",
                    two.expanded_shards
                );
            }
        }
    }

    #[test]
    fn infeasible_requests_replay_the_flat_failure() {
        let mut w = world(4);
        // A device that decodes a format nobody produces.
        w.profiles.device = DeviceProfile::new(
            "odd",
            vec!["video/mid3".to_string()],
            HardwareCaps::desktop(),
        );
        // mid3 is reachable (head3 produces it), so this still
        // exercises a real search; ask for the impossible instead by
        // deregistering the only producer.
        let head3 = w
            .services
            .flat()
            .live_services()
            .find(|(_, d)| d.name == "head3")
            .map(|(id, _)| id)
            .unwrap();
        w.services.deregister(head3).unwrap();

        let store = GraphStore::new();
        let composer = ShardedComposer {
            formats: &w.formats,
            services: &w.services,
            network: &w.network,
        };
        let two = composer
            .compose_with_store(
                &store,
                &w.profiles,
                w.sender,
                w.receiver,
                &SelectOptions::default(),
            )
            .unwrap();
        assert!(two.composition.plan.is_none());

        let flat = Composer {
            formats: &w.formats,
            services: w.services.flat(),
            network: &w.network,
        }
        .compose(&w.profiles, w.sender, w.receiver, &SelectOptions::default())
        .unwrap();
        assert!(flat.plan.is_none());
        assert_eq!(
            format!("{:?}", two.composition.selection.failure),
            format!("{:?}", flat.selection.failure),
            "failures replay the flat outcome"
        );
    }

    #[test]
    fn churn_in_unexpanded_shards_keeps_the_scoped_graph_warm() {
        let w = world(8);
        let store = GraphStore::new();
        let composer = ShardedComposer {
            formats: &w.formats,
            services: &w.services,
            network: &w.network,
        };
        let opts = SelectOptions::default();
        let first = composer
            .compose_with_store(&store, &w.profiles, w.sender, w.receiver, &opts)
            .unwrap();
        assert!(!first.expanded_shards.is_empty());
        let baseline = store.stats();

        // Same request again: every scoped graph is a reuse.
        let again = composer
            .compose_with_store(&store, &w.profiles, w.sender, w.receiver, &opts)
            .unwrap();
        assert_eq!(again.composition.plan, first.composition.plan);
        let stats = store.stats();
        assert_eq!(
            stats.rebuilds, baseline.rebuilds,
            "no new builds: {stats:?}"
        );
        assert_eq!(stats.deltas, baseline.deltas, "no replays: {stats:?}");
        assert!(stats.reuses > baseline.reuses, "{stats:?}");
    }

    #[test]
    fn a_proven_prune_reports_its_margin() {
        let w = world(8);
        let composer = ShardedComposer {
            formats: &w.formats,
            services: &w.services,
            network: &w.network,
        };
        let two = composer
            .compose_with_store(
                &GraphStore::new(),
                &w.profiles,
                w.sender,
                w.receiver,
                &SelectOptions::default(),
            )
            .unwrap();
        assert!(!two.full_expansion);
        let winner = two
            .composition
            .selection
            .chain
            .as_ref()
            .expect("cluster 0 chain exists")
            .satisfaction;
        let pruned = two.max_pruned_bound.expect("some shard stayed unexpanded");
        // Cluster 1 reaches 25 of the ideal 30 fps; the winner all 30.
        assert!(pruned < winner, "max U_s {pruned} vs W {winner}");
        assert!(pruned > 0.0, "the losing clusters do complete a chain");
        assert_eq!(two.hops_scored, 8, "head and tail of four clusters");
        assert!(
            two.relaxation_passes >= 2,
            "one pass that moves, one that proves the fixpoint"
        );
    }

    // ----- the summary level on its own -----

    fn format_ids(count: usize) -> Vec<FormatId> {
        let mut formats = FormatRegistry::new();
        (0..count)
            .map(|f| formats.register_abstract(format!("f{f}"), MediaKind::Video))
            .collect()
    }

    fn seed_expansion(
        hops: &[SummaryHop],
        offered: &[(FormatId, f64)],
        decoders: &[FormatId],
        shard_count: usize,
    ) -> (Vec<bool>, bool) {
        let mut tables = SummaryTables::default();
        let outcome = tables.summarize(hops, offered, decoders, shard_count);
        (tables.expanded, outcome.full_expansion)
    }

    #[test]
    fn of_equally_valued_decoders_the_last_listed_seeds_the_expansion() {
        let f = format_ids(4);
        let (src, a, b, c) = (f[0], f[1], f[2], f[3]);
        let hop = |shard, output| SummaryHop {
            shard,
            input: src,
            output,
            bound: 0.5,
        };
        let hops = [hop(0, a), hop(1, b)];
        let offered = [(src, 1.0)];
        assert_eq!(
            seed_expansion(&hops, &offered, &[a, b], 2),
            (vec![false, true], false),
            "b is listed last"
        );
        assert_eq!(
            seed_expansion(&hops, &offered, &[b, a], 2),
            (vec![true, false], false),
            "a is listed last"
        );

        // A NaN-valued decoder is never the seed, wherever it is listed
        // — and alone it is no seed at all.
        let offered = [(src, 1.0), (c, f64::NAN)];
        for decoders in [[a, c], [c, a]] {
            assert_eq!(
                seed_expansion(&hops, &offered, &decoders, 2),
                (vec![true, false], false),
                "{decoders:?}"
            );
        }
        assert_eq!(
            seed_expansion(&hops, &offered, &[c], 2),
            (vec![true, true], true)
        );
    }

    /// What the tree-map summary level computed.
    struct ReferenceSummary {
        value: BTreeMap<FormatId, f64>,
        shard_bound: Vec<f64>,
        expanded: Vec<bool>,
        full_expansion: bool,
    }

    /// The summary level as it was before the dense tables: the same
    /// passes in the same order over `BTreeMap`/`BTreeSet` state, the
    /// parent pointer stored as `(shard, upstream format)`. The oracle
    /// of [`dense_summary_equals_the_tree_map_reference`].
    fn reference_summary(
        hops: &[SummaryHop],
        offered: &[(FormatId, f64)],
        decoders: &[FormatId],
        shard_count: usize,
    ) -> ReferenceSummary {
        let mut value: BTreeMap<FormatId, f64> = BTreeMap::new();
        for &(format, score) in offered {
            match value.get(&format) {
                Some(&existing) if existing >= score => {}
                _ => {
                    value.insert(format, score);
                }
            }
        }
        let mut parent: BTreeMap<FormatId, (u32, FormatId)> = BTreeMap::new();
        loop {
            let mut moved = false;
            for hop in hops {
                let Some(&upstream) = value.get(&hop.input) else {
                    continue;
                };
                let through = upstream.min(hop.bound);
                let improves = match value.get(&hop.output) {
                    Some(&existing) => through > existing,
                    None => true,
                };
                if improves {
                    value.insert(hop.output, through);
                    parent.insert(hop.output, (hop.shard, hop.input));
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        let mut reaches_decoder: BTreeSet<FormatId> = decoders.iter().copied().collect();
        loop {
            let before = reaches_decoder.len();
            for hop in hops {
                if reaches_decoder.contains(&hop.output) {
                    reaches_decoder.insert(hop.input);
                }
            }
            if reaches_decoder.len() == before {
                break;
            }
        }

        let mut shard_bound = vec![f64::NEG_INFINITY; shard_count];
        for hop in hops {
            if !reaches_decoder.contains(&hop.output) {
                continue;
            }
            let Some(&upstream) = value.get(&hop.input) else {
                continue;
            };
            let through = upstream.min(hop.bound);
            if through > shard_bound[hop.shard as usize] {
                shard_bound[hop.shard as usize] = through;
            }
        }

        let best_decoder = decoders
            .iter()
            .filter_map(|f| value.get(f).map(|&v| (f, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are never NaN"))
            .map(|(f, _)| *f);
        let mut expanded = vec![false; shard_count];
        let mut full_expansion = false;
        match best_decoder {
            Some(mut format) => {
                while let Some(&(shard, upstream)) = parent.get(&format) {
                    expanded[shard as usize] = true;
                    format = upstream;
                }
            }
            None => {
                expanded.iter_mut().for_each(|e| *e = true);
                full_expansion = true;
            }
        }
        ReferenceSummary {
            value,
            shard_bound,
            expanded,
            full_expansion,
        }
    }

    /// One random summary-level input.
    struct SummaryCase {
        formats: Vec<FormatId>,
        hops: Vec<SummaryHop>,
        offered: Vec<(FormatId, f64)>,
        decoders: Vec<FormatId>,
        shard_count: usize,
    }

    /// ≤ 24 formats, ≤ 8 shards, bounds and offered scores drawn from
    /// four values so that ties are the common case. Hops land anywhere
    /// — cycles, self-loops, the same pair in several shards and several
    /// times in one shard (axis sets) — and are then put in the
    /// `(shard, input, output)` order the frontier scan produces.
    /// Decoders and offered formats are drawn independently of the
    /// hops, so unreachable decoders, several decoders and formats
    /// nobody offers all occur.
    fn random_summary_case(seed: u64) -> SummaryCase {
        const LEVELS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
        let mut rng = SmallRng::seed_from_u64(seed);
        let formats = format_ids(rng.random_range(1..=24));
        let shard_count = rng.random_range(1..=8usize);
        let format = |rng: &mut SmallRng| formats[rng.random_range(0..formats.len())];
        let level = |rng: &mut SmallRng| LEVELS[rng.random_range(0..LEVELS.len())];
        let mut hops: Vec<SummaryHop> = (0..rng.random_range(0..=3 * formats.len()))
            .map(|_| SummaryHop {
                shard: rng.random_range(0..shard_count) as u32,
                input: format(&mut rng),
                output: format(&mut rng),
                bound: level(&mut rng),
            })
            .collect();
        hops.sort_by_key(|hop| (hop.shard, hop.input, hop.output));
        let offered = (0..rng.random_range(0..=3))
            .map(|_| (format(&mut rng), level(&mut rng)))
            .collect();
        let decoders = (0..rng.random_range(0..=3))
            .map(|_| format(&mut rng))
            .collect();
        SummaryCase {
            formats,
            hops,
            offered,
            decoders,
            shard_count,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Per-format values, `U_s`, the seed expansion and
        /// `full_expansion`, bit for bit. One `SummaryTables` serves
        /// every case, so stale state from a larger earlier case would
        /// show.
        #[test]
        fn dense_summary_equals_the_tree_map_reference(seed in 0u64..1 << 48) {
            thread_local! {
                static TABLES: RefCell<SummaryTables> = RefCell::new(SummaryTables::default());
            }
            let case = random_summary_case(seed);
            let want = reference_summary(&case.hops, &case.offered, &case.decoders, case.shard_count);
            TABLES.with(|tables| {
                let mut tables = tables.borrow_mut();
                let outcome =
                    tables.summarize(&case.hops, &case.offered, &case.decoders, case.shard_count);
                for &format in &case.formats {
                    let f = format.index();
                    let got = (f < tables.known.len() && tables.known[f])
                        .then(|| tables.value[f].to_bits());
                    let want = want.value.get(&format).map(|v| v.to_bits());
                    assert_eq!(got, want, "seed {seed}: value of {format:?}");
                }
                let bits = |bounds: &[f64]| bounds.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&tables.shard_bound), bits(&want.shard_bound), "seed {seed}: U_s");
                assert_eq!(tables.expanded, want.expanded, "seed {seed}: seed expansion");
                assert_eq!(outcome.full_expansion, want.full_expansion, "seed {seed}");
            });
        }
    }

    /// The generator reaches the cases the proptest is there for.
    #[test]
    fn random_summary_cases_cover_ties_cycles_and_dead_ends() {
        let (mut tied_decoders, mut full, mut multi_shard_seed, mut slow_fixpoint) = (0, 0, 0, 0);
        let (mut repeated_pair, mut unreachable_decoder) = (0, 0);
        for seed in 0..512 {
            let case = random_summary_case(seed);
            let mut tables = SummaryTables::default();
            let outcome =
                tables.summarize(&case.hops, &case.offered, &case.decoders, case.shard_count);
            let decoder_values: Vec<u64> = case
                .decoders
                .iter()
                .filter(|d| tables.known[d.index()])
                .map(|d| tables.value[d.index()].to_bits())
                .collect();
            let top = decoder_values.iter().max();
            let distinct: BTreeSet<FormatId> = case
                .decoders
                .iter()
                .copied()
                .filter(|d| {
                    tables.known[d.index()] && Some(&tables.value[d.index()].to_bits()) == top
                })
                .collect();
            tied_decoders += usize::from(distinct.len() > 1);
            unreachable_decoder +=
                usize::from(case.decoders.iter().any(|d| !tables.known[d.index()]));
            full += usize::from(outcome.full_expansion);
            multi_shard_seed += usize::from(
                !outcome.full_expansion && tables.expanded.iter().filter(|&&e| e).count() > 1,
            );
            slow_fixpoint += usize::from(outcome.relaxation_passes > 2);
            repeated_pair +=
                usize::from(case.hops.windows(2).any(|pair| {
                    (pair[0].input, pair[0].output) == (pair[1].input, pair[1].output)
                }));
        }
        for (what, count) in [
            ("distinct decoders tied at the top", tied_decoders),
            ("no reachable decoder", full),
            ("a seed path crossing shards", multi_shard_seed),
            (
                "a relaxation needing more than one moving pass",
                slow_fixpoint,
            ),
            ("one pair under several keys of one shard", repeated_pair),
            ("a decoder no chain delivers", unreachable_decoder),
        ] {
            assert!(count >= 16, "{what}: only {count} of 512 cases");
        }
    }
}
