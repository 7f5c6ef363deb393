//! X19 — the cross-session bandwidth-broker scorecard: shared fat-tree
//! links × sharing policy × session scale.
//!
//! A k=4 fat-tree carries every session from one sender host through an
//! unconstrained transcoding proxy to receivers spread across the other
//! pods, so the sender-side access link is a genuine shared bottleneck.
//! Access capacity is dimensioned *per offered session*
//! ([`ACCESS_PER_SESSION_BPS`]), so every scale runs at the same
//! contention ratio and the sweep isolates how a sharing policy behaves
//! as the population grows. Each scale runs under three modes:
//!
//! * **none** — no broker attached: every session divides each link by
//!   the worst-hop shared-fate model of PR 7/8. A `baseline` shadow run
//!   that never even calls `set_sharing` must be bit-identical — the
//!   broker code path is provably cold when disabled,
//! * **fcfs** — the admission-order baseline: the broker grants each
//!   flow its guaranteed floor, then tops flows up to their caps in
//!   strict arrival order. Early sessions stream at full refill rate
//!   while the tail is pinned at its floor — p5 delivered satisfaction
//!   collapses,
//! * **maxmin** — deterministic weighted max-min water-filling:
//!   priority-weighted shares (weights 4/2/1 for interactive, standard
//!   and background) computed by iterative bottleneck freezing. The
//!   tail holds while aggregate delivery stays no worse than FCFS.
//!
//! Every cell runs at 1/2/4/8 workers and the digests must agree byte
//! for byte; grants react through the session engine's buffer model
//! (BOLA), so the scorecard's currency is *delivered* satisfaction —
//! composed satisfaction discounted by the stalled share of playback.
//!
//! Emits `BENCH_broker.json` (the first argument not starting with `--`
//! overrides the path; `--deterministic` is accepted for CI parity —
//! the file has no timing fields). `--scales=100,1000` restricts the
//! sweep for smoke runs.

use qosc_bench::scorecard::{self, list, Line, Scorecard, WORKER_COUNTS};
use qosc_bench::TextTable;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, CompositionRequest, ResilientEngineConfig,
    SessionEngineConfig, SessionRequest, SessionsReport,
};
use qosc_media::FormatRegistry;
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::{Network, Node, NodeId};
use qosc_pipeline::{ChaosWorld, DeliveryCacheStats, SharingPolicy};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_services::{catalog, DiscoveryConfig, TranscoderDescriptor};
use qosc_workload::arrivals::{
    session_arrivals_with_mix, ArrivalPattern, DemandMix, SessionPattern,
};

const TOPOLOGY_SEED: u64 = 19;
const ARRIVAL_SEED: u64 = 42;
/// Virtual run length: arrivals stop at 4 s, holds drain by ~16 s.
const HORIZON_US: u64 = 16_000_000;
const ARRIVAL_HORIZON_US: u64 = 4_000_000;
/// Long holds against the 4 s arrival window, so nearly the whole
/// offered population is concurrent at peak.
const HOLD_RANGE_US: (u64, u64) = (8_000_000, 12_000_000);
/// Shared access capacity per offered session, bits per second — the
/// knob that keeps the contention ratio constant across scales. The
/// plan's raw sender-side rate is ~0.9 Mbps, so ~1.1 Mbps per session
/// funds everyone's real-time rate but not everyone's 2× refill cap:
/// the policies must ration.
const ACCESS_PER_SESSION_BPS: u64 = 1_100_000;
/// Fabric links are 4× the access link so the access tier is the
/// bottleneck (single-path routing concentrates sender-side flows).
const FABRIC_MULT: u64 = 4;
const SCALES: [usize; 3] = [100, 1_000, 10_000];
/// Pods of the fat-tree.
const FAT_TREE_K: usize = 4;

/// The full worker sweep below 10k sessions; at 10k a run costs
/// minutes, so invariance is proven at the extremes only.
fn worker_counts(scale: usize) -> &'static [usize] {
    if scale >= 10_000 {
        &[1, 8]
    } else {
        &WORKER_COUNTS
    }
}

/// Per-class full-quality demand, bits per second: interactive sessions
/// ask for more than the plan's own edge rate (their final hop floors
/// higher), standard sits below it, background takes the plan as-is.
const MIX: DemandMix = DemandMix {
    interactive_bps: (1_500_000, 3_000_000),
    standard_bps: (400_000, 800_000),
    background_bps: (0, 0),
};

/// Sharing mode of one sweep cell. `Baseline` never touches
/// `set_sharing` at all — the shadow the `none` cell must match byte
/// for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Baseline,
    None,
    Fcfs,
    MaxMin,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::None => "none",
            Mode::Fcfs => "fcfs",
            Mode::MaxMin => "maxmin",
        }
    }
}

fn profiles() -> ProfileSet {
    ProfileSet {
        user: UserProfile::demo("user-0"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    }
}

fn session_pattern(scale: usize) -> SessionPattern {
    SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: ARRIVAL_HORIZON_US,
            rate_per_sec: (scale as u64) * 1_000_000 / ARRIVAL_HORIZON_US,
            // No burst windows: the sweep isolates sharing, not
            // admission transients.
            burst_period_us: 0,
            ..ArrivalPattern::default()
        },
        hold_range_us: HOLD_RANGE_US,
        demand_range_bps: (0, 0),
    }
}

fn engine_config(workers: usize) -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        admission: None,
        tick_us: 500_000,
        max_recompositions: 8,
        horizon_us: Some(HORIZON_US),
        session_spans: false,
        // Grants reach sessions through the buffer model: a shrunk
        // grant drains the buffer, BOLA reacts, delivered satisfaction
        // records the damage.
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: None,
    }
}

/// The shared-bottleneck world: a k=4 fat-tree whose access tier is
/// dimensioned per offered session, plus an unconstrained transcoding
/// proxy hanging off the sender's edge switch on an uncontended link.
fn build_world<'a>(
    formats: &'a FormatRegistry,
    scale: usize,
) -> (ChaosWorld<'a>, NodeId, Vec<NodeId>) {
    let access_bps = (scale as u64 * ACCESS_PER_SESSION_BPS) as f64;
    let fabric_bps = (scale as u64 * ACCESS_PER_SESSION_BPS * FABRIC_MULT) as f64;
    let (mut topo, hosts, _cores) = fat_tree(
        FAT_TREE_K,
        LinkTemplate::fixed(access_bps, 500),
        LinkTemplate::fixed(fabric_bps, 1_000),
        TOPOLOGY_SEED,
    );
    // The proxy runs the whole transcoder catalog and must never be the
    // scarce resource itself: unconstrained node, access-tier-free link
    // into the sender's edge switch (hosts[0] and hosts[1] hang off
    // edge-0-0, so `edge` below is their shared switch).
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let edge = topo
        .neighbors(hosts[0])
        .first()
        .expect("a fat-tree host has its edge switch")
        .0;
    topo.connect_simple(proxy, edge, fabric_bps * 100.0)
        .expect("proxy uplink");
    let sender = hosts[0];
    // Receivers live in the other three pods (hosts 4..16): every flow
    // crosses the sender-side access bottleneck, then fans out.
    let receivers: Vec<NodeId> = hosts[4..].to_vec();
    let mut world = ChaosWorld::new(formats, Network::new(topo), DiscoveryConfig::default());
    for spec in catalog::full_catalog() {
        world.join(TranscoderDescriptor::resolve(&spec, formats, proxy).expect("catalog resolves"));
    }
    (world, sender, receivers)
}

fn requests(scale: usize, sender: NodeId, receivers: &[NodeId]) -> Vec<SessionRequest> {
    session_arrivals_with_mix(&session_pattern(scale), &MIX, ARRIVAL_SEED)
        .into_iter()
        .enumerate()
        .map(|(i, sa)| SessionRequest {
            request: CompositionRequest {
                profiles: profiles(),
                sender_host: sender,
                receiver_host: receivers[i % receivers.len()],
            },
            arrival: sa.meta,
            hold_us: sa.hold_us,
            demand_bps: sa.demand_bps,
        })
        .collect()
}

fn mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

fn run_once(scale: usize, mode: Mode, workers: usize) -> (SessionsReport, DeliveryCacheStats, u64) {
    let formats = FormatRegistry::with_builtins();
    let (mut world, sender, receivers) = build_world(&formats, scale);
    match mode {
        Mode::Baseline => {}
        Mode::None => world.set_sharing(None),
        Mode::Fcfs => world.set_sharing(Some(SharingPolicy::Fcfs)),
        Mode::MaxMin => world.set_sharing(Some(SharingPolicy::WeightedMaxMin)),
    }
    let reqs = requests(scale, sender, &receivers);
    let report = run_sessions(
        &mut world,
        &reqs,
        &engine_config(workers),
        &qosc_telemetry::NoopSink,
    );
    let reallocations = world.broker().map_or(0, |b| b.reallocations());
    (report, world.delivery_cache_stats(), reallocations)
}

/// What the cold-path and policy checks compare.
struct Checked {
    digest: u64,
    cache: DeliveryCacheStats,
    grant_updates: u64,
    reallocations: u64,
    p5_satisfaction: f64,
    mean_satisfaction: f64,
}

/// One cell: its scorecard line and its table row, from the workers=1
/// report.
fn run_cell(scale: usize, mode: Mode, card: &mut Scorecard, table: &mut TextTable) -> Checked {
    let label = format!("{scale} × {}", mode.label());
    let (digest, (report, cache, reallocations)) =
        scorecard::worker_sweep(&label, worker_counts(scale), |workers| {
            let run = run_once(scale, mode, workers);
            (scorecard::sessions_digest(&run.0), run)
        });
    let ratios = scorecard::delivered_ratios(&report);
    let checked = Checked {
        digest,
        cache,
        grant_updates: report.outcomes.iter().map(|o| o.grant_updates as u64).sum(),
        reallocations,
        p5_satisfaction: scorecard::p5(ratios.clone()),
        mean_satisfaction: mean(&ratios),
    };
    let counters = &report.counters;
    table.row([
        scale.to_string(),
        mode.label().to_string(),
        counters.offered.to_string(),
        counters.completed.to_string(),
        report.switches().to_string(),
        checked.grant_updates.to_string(),
        reallocations.to_string(),
        format!("{}/{}/{}", cache.hits, cache.refreshes, cache.misses),
        format!("{:.4}", report.rebuffer_ratio()),
        format!("{:.4}", checked.p5_satisfaction),
        format!("{:.4}", checked.mean_satisfaction),
    ]);
    card.push(
        Line::new()
            .raw("scale", scale)
            .str("policy", mode.label())
            .raw("offered", counters.offered)
            .raw("completed", counters.completed)
            .raw("starved", counters.starved)
            .raw("recompositions", report.recompositions())
            .raw("switches", report.switches())
            .raw("grant_updates", checked.grant_updates)
            .raw("reallocations", reallocations)
            .raw(
                "cache",
                Line::new()
                    .raw("hits", cache.hits)
                    .raw("refreshes", cache.refreshes)
                    .raw("misses", cache.misses),
            )
            .num("rebuffer_ratio", report.rebuffer_ratio(), 6)
            .num("p5_satisfaction", checked.p5_satisfaction, 6)
            .num("mean_satisfaction", checked.mean_satisfaction, 6)
            .digest("digest", digest),
    );
    checked
}

fn main() {
    let mut card = Scorecard::from_args("broker_fairness", "BENCH_broker.json");
    let scales: Vec<usize> = std::env::args()
        .find_map(|a| a.strip_prefix("--scales=").map(str::to_string))
        .map(|list| {
            list.split(',')
                .map(|s| s.trim().parse().expect("numeric scale"))
                .collect()
        })
        .unwrap_or_else(|| SCALES.to_vec());

    println!(
        "X19 — cross-session bandwidth-broker scorecard (k=4 fat-tree, topology seed \
         {TOPOLOGY_SEED}, arrival seed {ARRIVAL_SEED}, horizon {}s, access \
         {ACCESS_PER_SESSION_BPS} bps/session, workers {WORKER_COUNTS:?}, scales {scales:?})",
        HORIZON_US / 1_000_000
    );
    println!();

    let mut table = TextTable::new([
        "scale",
        "policy",
        "offered",
        "completed",
        "switches",
        "grant upd",
        "reallocs",
        "cache h/r/m",
        "rebuf ratio",
        "p5 satisf",
        "mean satisf",
    ]);
    let mut cells = Vec::new();
    for &scale in &scales {
        // The none/baseline pair only needs one scale to prove the cold
        // path; the policy contrast runs everywhere.
        let modes: &[Mode] = if scale == scales[0] {
            &[Mode::Baseline, Mode::None, Mode::Fcfs, Mode::MaxMin]
        } else {
            &[Mode::Fcfs, Mode::MaxMin]
        };
        for &mode in modes {
            let checked = run_cell(scale, mode, &mut card, &mut table);
            cells.push(((scale, mode), checked));
        }
    }
    println!("{}", table.render());
    let cell = |scale: usize, mode: Mode| {
        &cells
            .iter()
            .find(|(key, _)| *key == (scale, mode))
            .expect("swept cell")
            .1
    };

    // The cold path: a world whose sharing was explicitly set to `None`
    // is bit-identical to one that never heard of the broker.
    let baseline = cell(scales[0], Mode::Baseline);
    let none = cell(scales[0], Mode::None);
    assert_eq!(
        none.digest, baseline.digest,
        "sharing=None must be bit-identical to the broker never existing"
    );
    assert_eq!(none.cache, DeliveryCacheStats::default());
    assert_eq!(none.grant_updates, 0);

    for &scale in &scales {
        let fcfs = cell(scale, Mode::Fcfs);
        let maxmin = cell(scale, Mode::MaxMin);
        // Brokered cells must actually exercise the machinery: the
        // delivery memo serves hits and grant-only refreshes, and
        // reallocation epochs reach sessions as grant updates.
        for (mode, c) in [(Mode::Fcfs, fcfs), (Mode::MaxMin, maxmin)] {
            assert!(
                c.cache.hits > 0 && c.cache.refreshes > 0,
                "scale {scale} × {}: delivery memo must be exercised, got {:?}",
                mode.label(),
                c.cache
            );
            assert!(c.reallocations > 0);
            assert!(
                c.grant_updates > 0,
                "scale {scale} × {}: reallocations must reach sessions",
                mode.label()
            );
        }
        // The headline: weighted max-min holds the tail FCFS collapses,
        // at an aggregate no worse than FCFS's.
        assert!(
            maxmin.p5_satisfaction > fcfs.p5_satisfaction,
            "scale {scale}: max-min must lift p5 delivered satisfaction over FCFS: {:.6} vs {:.6}",
            maxmin.p5_satisfaction,
            fcfs.p5_satisfaction
        );
        assert!(
            maxmin.mean_satisfaction >= fcfs.mean_satisfaction - 1e-9,
            "scale {scale}: max-min aggregate must be no worse than FCFS: {:.6} vs {:.6}",
            maxmin.mean_satisfaction,
            fcfs.mean_satisfaction
        );
        println!(
            "scale {scale}: p5 maxmin {:.4} > fcfs {:.4}; mean maxmin {:.4} >= fcfs {:.4}",
            maxmin.p5_satisfaction,
            fcfs.p5_satisfaction,
            maxmin.mean_satisfaction,
            fcfs.mean_satisfaction
        );
    }
    println!();

    let config = engine_config(1);
    let range = |(low, high): (u64, u64)| list([low, high]);
    card.write(
        &Line::new()
            .raw(
                "scenario",
                Line::new()
                    .str("topology", "fat_tree")
                    .raw("k", FAT_TREE_K)
                    .raw("topology_seed", TOPOLOGY_SEED)
                    .raw("access_per_session_bps", ACCESS_PER_SESSION_BPS)
                    .raw("fabric_mult", FABRIC_MULT),
            )
            .raw(
                "run",
                Line::new()
                    .raw("arrival_seed", ARRIVAL_SEED)
                    .raw("horizon_us", HORIZON_US)
                    .raw("arrival_horizon_us", ARRIVAL_HORIZON_US)
                    .raw("hold_range_us", range(HOLD_RANGE_US))
                    .raw("tick_us", config.tick_us)
                    .raw("max_recompositions", config.max_recompositions),
            )
            .raw(
                "demand_mix_bps",
                Line::new()
                    .raw("interactive", range(MIX.interactive_bps))
                    .raw("standard", range(MIX.standard_bps))
                    .raw("background", range(MIX.background_bps)),
            )
            .raw(
                "priority_weights",
                Line::new()
                    .raw("interactive", 4)
                    .raw("standard", 2)
                    .raw("background", 1),
            )
            .raw(
                "workers_verified",
                Line::new()
                    .raw("default", list(WORKER_COUNTS))
                    .raw("at_10000", list(worker_counts(10_000))),
            )
            .raw("deterministic", card.deterministic()),
    );
}
