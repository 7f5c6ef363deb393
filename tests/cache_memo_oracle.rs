//! Memo-off oracle for the composition cache's compose memo.
//!
//! A `ShardedCompositionCache` answers a miss or a stale probe from its
//! compose memo when another request of the same class (what selection
//! reads: endpoints, resolved variants, decoders, caps, effective
//! satisfaction, budget, options) was composed at the same world stamp.
//! Each of 256 seeded streams on the X15 mesh of the `compose_hot`
//! benchmark workload serves 2–6 classes, each under four user names,
//! between registry writes (failure reports, quarantine releases, lease
//! renewals and expiries) and network writes (hosts failing and coming
//! back). Every stream runs twice: memo on, and under `with_memos_off`,
//! where the memo and the graph store answer nothing stored. The plans
//! must be equal request by request, and the hit/miss/stale counters
//! equal; a failure names the stream's seed and the request.
//!
//! A further 64 streams draw each request's tie-break policy afresh, so
//! one request is probed under other `SelectOptions` than its cache
//! entry was stored under: the class id the entry keeps names the old
//! options, and the memo must resolve such a probe afresh.
//!
//! The memo also answers a stamp miss from a class's recent answers
//! when the world's content — network version, registry membership
//! count, quarantined ids, probation penalties — equals the content one
//! was composed in. A last 128 streams revisit world states while moving
//! each of those parts: services probated and cleared, quarantined and
//! released, deregistered, registered, expired and renewed, and the
//! links around a chain host squeezed and restored. Their plans and
//! counters must also equal the store-free reference cache's, which has
//! no memo, and under `with_memos_off` every miss and stale probe must
//! run the kernel.
//!
//! The switch exists in debug builds only, and so does this test. The
//! kernel-run count is the process-wide `arena_reuse_total()`, so this
//! binary holds a single `#[test]`.

#![cfg(debug_assertions)]

use qosc_core::{
    arena_reuse_total, AdaptationPlan, CacheStats, SelectOptions, ShardedCompositionCache, TieBreak,
};
use qosc_media::{Axis, AxisDomain};
use qosc_netsim::memo::with_memos_off;
use qosc_netsim::{LinkId, SimTime};
use qosc_profiles::ProfileSet;
use qosc_satisfaction::{AxisPreference, SatisfactionFn};
use qosc_services::{ProbationConfig, QuarantineConfig, ServiceId};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const STREAMS: u64 = 256;
/// Streams after the first [`STREAMS`] whose requests alternate
/// tie-break policies.
const TIE_BREAK_STREAMS: u64 = 64;
/// Streams after those that revisit world states, moving one part of
/// the memo's content key at a time.
const REVISIT_STREAMS: u64 = 128;
/// Operations per revisit stream.
const REVISIT_STEPS: usize = 48;
/// Operations per stream; four in five are requests.
const STEPS: usize = 36;
/// User names per class.
const USERS: usize = 4;
/// Leased copies of mesh services registered at the start of a stream,
/// so lease renewals and expiries change what a compose can pick.
const LEASED: usize = 4;
/// Virtual time between two operations.
const TICK_US: u64 = 400_000;

/// The X15 mesh of `compose_hot`, with one-strike quarantines and
/// one-probe probation clears.
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
    scenario.services.set_probation_config(ProbationConfig {
        probe_successes: 1,
        ..ProbationConfig::default()
    });
    scenario
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `class`'s request under user name `user`.
    Request {
        class: usize,
        user: usize,
    },
    /// Report a failure against service `index` (mod its length) of the
    /// chain served last.
    FailOnChain(usize),
    ReleaseQuarantines,
    ExpireLeases,
    /// Renew leased copy `index` for three seconds.
    Renew(usize),
    /// Fail the host of service `index` (mod its length) of the chain
    /// served last.
    FailChainHost(usize),
    RestoreHosts,
    /// Probate service `index` (mod its length) of the chain served
    /// last, observed at `ppm` of its advertised QoS.
    ProbateOnChain(usize, u64),
    /// One healthy probe for every probated service, which clears it.
    ClearProbations,
    /// Deregister service `index` (mod its length) of the chain served
    /// last.
    DeregisterOnChain(usize),
    /// Register a static copy of mesh service `index`.
    RegisterCopy(usize),
    /// Cut every link of the host of service `index` (mod its length)
    /// of the chain served last to a hundredth of its capacity.
    SqueezeChainHost(usize),
    RestoreLinks,
}

struct Stream {
    classes: Vec<ProfileSet>,
    /// (mesh service index, lease in µs) of each leased copy.
    leased: Vec<(usize, u64)>,
    ops: Vec<Op>,
    /// The tie-break policy of the request at each op.
    tie_breaks: Vec<TieBreak>,
}

impl Stream {
    /// Each class is the base request or the base changed in one thing
    /// selection reads: the budget (every chain of the mesh costs 12,
    /// so 11 leaves none and 12 leaves all), the frame-rate ideal, one
    /// decoder dropped, or one content variant dropped or capped. Two
    /// classes of a stream then often differ in one field only, which
    /// is where a key part left out would show. From seed [`STREAMS`]
    /// on, each request also draws its tie-break policy, from its own
    /// generator so that the rest of the stream is drawn as before.
    fn draw(seed: u64, base: &ProfileSet) -> Stream {
        let mut rng = SmallRng::seed_from_u64(seed);
        let classes = (0..rng.random_range(2..=6usize))
            .map(|_| {
                let mut class = base.clone();
                match rng.random_range(0..5) {
                    0 => {}
                    1 => class.user.budget = Some([11.0, 12.0][rng.random_range(0..2usize)]),
                    2 => class.user.satisfaction.insert(AxisPreference::new(
                        Axis::FrameRate,
                        SatisfactionFn::Linear {
                            min_acceptable: 0.0,
                            ideal: [20.0, 12.0][rng.random_range(0..2usize)],
                        },
                    )),
                    3 => {
                        let decoders = class.device.decoders.len();
                        class.device.decoders.remove(rng.random_range(0..decoders));
                    }
                    _ => {
                        let variants = class.content.variants.len();
                        let variant = rng.random_range(0..variants);
                        if rng.random_bool(0.5) {
                            class.content.variants.remove(variant);
                        } else {
                            class.content.variants[variant].offered.set(
                                Axis::FrameRate,
                                AxisDomain::Continuous {
                                    min: 0.0,
                                    max: 15.0,
                                },
                            );
                        }
                    }
                }
                class
            })
            .collect::<Vec<_>>();
        let leased = (0..LEASED)
            .map(|_| {
                (
                    rng.random_range(0..60usize),
                    rng.random_range(1..8u64) * 1_000_000,
                )
            })
            .collect();
        let ops = (0..STEPS)
            .map(|_| match rng.random_range(0..100) {
                0..=79 => Op::Request {
                    class: rng.random_range(0..classes.len()),
                    user: rng.random_range(0..USERS),
                },
                80..=84 => Op::FailOnChain(rng.random_range(0..8)),
                85..=87 => Op::ReleaseQuarantines,
                88..=89 => Op::ExpireLeases,
                90..=91 => Op::Renew(rng.random_range(0..LEASED)),
                92..=96 => Op::FailChainHost(rng.random_range(0..8)),
                _ => Op::RestoreHosts,
            })
            .collect();
        let mut policies = SmallRng::seed_from_u64(seed ^ 0x7469_6562_7265_616b);
        let tie_breaks = (0..STEPS)
            .map(|_| {
                if seed < STREAMS {
                    TieBreak::PaperOrder
                } else {
                    [
                        TieBreak::PaperOrder,
                        TieBreak::Fifo,
                        TieBreak::ByVertexIndex,
                    ][policies.random_range(0..3usize)]
                }
            })
            .collect();
        Stream {
            classes,
            leased,
            ops,
            tie_breaks,
        }
    }

    /// A stream whose world keeps returning to earlier states: classes
    /// and leased copies as [`Stream::draw`] draws them, eight user
    /// names per class (so misses keep asking the memo), and writes
    /// that come in undo pairs — quarantine and release, probation and
    /// clear, squeeze and restore — beside membership moves, which no
    /// later state undoes.
    fn draw_revisits(seed: u64, base: &ProfileSet) -> Stream {
        let drawn = Stream::draw(seed, base);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_7669_7369_7473);
        let ops = (0..REVISIT_STEPS)
            .map(|_| match rng.random_range(0..100) {
                0..=64 => Op::Request {
                    class: rng.random_range(0..drawn.classes.len()),
                    user: rng.random_range(0..2 * USERS),
                },
                65..=69 => Op::FailOnChain(rng.random_range(0..8)),
                70..=74 => Op::ReleaseQuarantines,
                75..=79 => {
                    Op::ProbateOnChain(rng.random_range(0..8), rng.random_range(0..1_000_000))
                }
                80..=84 => Op::ClearProbations,
                85..=86 => Op::DeregisterOnChain(rng.random_range(0..8)),
                87 => Op::RegisterCopy(rng.random_range(0..60)),
                88 => Op::ExpireLeases,
                89 => Op::Renew(rng.random_range(0..LEASED)),
                90..=94 => Op::SqueezeChainHost(rng.random_range(0..8)),
                _ => Op::RestoreLinks,
            })
            .collect();
        Stream {
            ops,
            tie_breaks: vec![TieBreak::PaperOrder; REVISIT_STEPS],
            ..drawn
        }
    }
}

/// Serve `stream` on a fresh mesh through a fresh store-backed cache:
/// the plan of every request, in order, and the cache's counters.
fn serve(stream: &Stream) -> (Vec<Option<AdaptationPlan>>, CacheStats) {
    serve_through(stream, ShardedCompositionCache::new(4))
}

/// [`serve`] through `cache`.
fn serve_through(
    stream: &Stream,
    cache: ShardedCompositionCache,
) -> (Vec<Option<AdaptationPlan>>, CacheStats) {
    let mut scenario = mesh();
    let mesh_ids: Vec<ServiceId> = scenario
        .services
        .live_services()
        .map(|(id, _)| id)
        .collect();
    let leased: Vec<ServiceId> = stream
        .leased
        .iter()
        .map(|&(index, lease_us)| {
            let descriptor = scenario
                .services
                .get(mesh_ids[index % mesh_ids.len()])
                .expect("live")
                .clone();
            scenario
                .services
                .register(descriptor, SimTime::ZERO, lease_us)
        })
        .collect();
    let mut plans = Vec::new();
    let mut last_chain: Vec<ServiceId> = Vec::new();
    let mut failed_hosts = Vec::new();
    let mut squeezed: Vec<(LinkId, f64)> = Vec::new();
    let mut now_us = 0u64;
    for (op, &tie_break) in stream.ops.iter().zip(&stream.tie_breaks) {
        now_us += TICK_US;
        let now = SimTime(now_us);
        match *op {
            Op::Request { class, user } => {
                let mut profiles = stream.classes[class].clone();
                profiles.user.name = format!("user-{class}-{user}");
                let options = SelectOptions {
                    tie_break,
                    ..SelectOptions::default()
                };
                let plan = cache
                    .compose(
                        &scenario.composer(),
                        &profiles,
                        scenario.sender_host,
                        scenario.receiver_host,
                        &options,
                    )
                    .expect("valid request");
                if let Some(plan) = &plan {
                    last_chain = plan.steps.iter().filter_map(|s| s.service).collect();
                }
                plans.push(plan);
            }
            Op::FailOnChain(index) => {
                if !last_chain.is_empty() {
                    let victim = last_chain[index % last_chain.len()];
                    let _ = scenario.services.report_failure(victim, now);
                }
            }
            Op::ReleaseQuarantines => {
                scenario.services.release_quarantines(now);
            }
            Op::ExpireLeases => {
                scenario.services.expire_leases(now);
            }
            Op::Renew(index) => {
                let _ = scenario.services.renew(leased[index], now, 3_000_000);
            }
            Op::FailChainHost(index) => {
                let host = last_chain
                    .get(index % last_chain.len().max(1))
                    .and_then(|&id| scenario.services.get(id).ok())
                    .map(|descriptor| descriptor.host);
                if let Some(host) = host {
                    scenario.network.fail_node(host).expect("a mesh host");
                    failed_hosts.push(host);
                }
            }
            Op::RestoreHosts => {
                for host in failed_hosts.drain(..) {
                    scenario.network.restore_node(host);
                }
            }
            Op::ProbateOnChain(index, ppm) => {
                if !last_chain.is_empty() {
                    let victim = last_chain[index % last_chain.len()];
                    scenario.services.probate(victim, ppm, now);
                }
            }
            Op::ClearProbations => {
                let probated: Vec<ServiceId> = scenario
                    .services
                    .selection_penalties()
                    .iter()
                    .map(|&(id, _)| id)
                    .collect();
                for id in probated {
                    scenario.services.probe_success(id, now);
                }
            }
            Op::DeregisterOnChain(index) => {
                if !last_chain.is_empty() {
                    let _ = scenario
                        .services
                        .deregister(last_chain[index % last_chain.len()]);
                }
            }
            Op::RegisterCopy(index) => {
                let descriptor = scenario
                    .services
                    .get(mesh_ids[index % mesh_ids.len()])
                    .ok()
                    .cloned();
                if let Some(descriptor) = descriptor {
                    scenario.services.register_static(descriptor);
                }
            }
            Op::SqueezeChainHost(index) => {
                let host = last_chain
                    .get(index % last_chain.len().max(1))
                    .and_then(|&id| scenario.services.get(id).ok())
                    .map(|descriptor| descriptor.host);
                if let Some(host) = host {
                    let links: Vec<LinkId> = scenario
                        .network
                        .topology()
                        .neighbors(host)
                        .iter()
                        .map(|&(_, link)| link)
                        .filter(|link| squeezed.iter().all(|(held, _)| held != link))
                        .collect();
                    let topology = scenario.network.topology_mut();
                    for link in links {
                        let spec = topology.link_mut(link).expect("a mesh link");
                        squeezed.push((link, spec.capacity_bps));
                        spec.capacity_bps /= 100.0;
                    }
                }
            }
            Op::RestoreLinks => {
                if !squeezed.is_empty() {
                    let topology = scenario.network.topology_mut();
                    for (link, capacity_bps) in squeezed.drain(..) {
                        topology.link_mut(link).expect("a mesh link").capacity_bps = capacity_bps;
                    }
                }
            }
        }
    }
    (plans, cache.stats())
}

#[test]
fn the_cache_serves_what_it_serves_with_every_memo_off() {
    let base = mesh().profiles;
    let (mut kernel_on, mut kernel_off) = (0u64, 0u64);
    let mut totals = CacheStats::default();
    for seed in 0..STREAMS + TIE_BREAK_STREAMS {
        let stream = Stream::draw(seed, &base);
        let before = arena_reuse_total();
        let (plans, stats) = serve(&stream);
        let middle = arena_reuse_total();
        let (fresh_plans, fresh_stats) = with_memos_off(|| serve(&stream));
        kernel_on += middle - before;
        kernel_off += arena_reuse_total() - middle;

        assert_eq!(plans.len(), fresh_plans.len());
        for (request, (plan, fresh)) in plans.iter().zip(&fresh_plans).enumerate() {
            assert_eq!(plan, fresh, "random seed {seed}: request {request}");
        }
        assert_eq!(stats, fresh_stats, "random seed {seed}: cache counters");
        totals.hits += stats.hits;
        totals.misses += stats.misses;
        totals.stale += stats.stale;
    }
    // Not vacuous: the streams hit, miss and go stale, and the memo
    // answers a third or more of the probes that would recompose (about
    // 55 %: the world moves every fifth operation).
    assert!(
        totals.stale > 0 && totals.misses > 0 && totals.hits > 0,
        "{totals:?}"
    );
    assert!(
        3 * kernel_on < 2 * kernel_off,
        "kernel runs memo on {kernel_on}, memo off {kernel_off}"
    );

    // Streams that revisit world states: memo on against the store-free
    // reference and against memo off, where no stored answer is served.
    let (mut kernel_on, mut composing) = (0u64, 0u64);
    let first = STREAMS + TIE_BREAK_STREAMS;
    for seed in first..first + REVISIT_STREAMS {
        let stream = Stream::draw_revisits(seed, &base);
        let before = arena_reuse_total();
        let (plans, stats) = serve(&stream);
        kernel_on += arena_reuse_total() - before;
        let (reference, reference_stats) =
            serve_through(&stream, ShardedCompositionCache::new_without_graph_store(4));
        let before = arena_reuse_total();
        let (fresh_plans, fresh_stats) = with_memos_off(|| serve(&stream));
        let kernel_off = arena_reuse_total() - before;

        assert_eq!(plans.len(), reference.len());
        for (request, ((plan, reference), fresh)) in
            plans.iter().zip(&reference).zip(&fresh_plans).enumerate()
        {
            assert_eq!(plan, reference, "revisit seed {seed}: request {request}");
            assert_eq!(
                plan, fresh,
                "revisit seed {seed}: request {request}, memos off"
            );
        }
        assert_eq!(
            stats, reference_stats,
            "revisit seed {seed}: cache counters"
        );
        assert_eq!(
            stats, fresh_stats,
            "revisit seed {seed}: counters, memos off"
        );
        let probes = (stats.misses + stats.stale) as u64;
        assert_eq!(
            kernel_off, probes,
            "revisit seed {seed}: memos off, every miss and stale probe composes"
        );
        composing += probes;
    }
    // Not vacuous: the memo answers some of the probes that compose.
    assert!(
        kernel_on < composing,
        "revisit streams: {kernel_on} kernel runs for {composing} misses and stale probes"
    );
}
