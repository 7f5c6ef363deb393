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
//! Emits `BENCH_broker.json` (first CLI argument overrides the path;
//! `--deterministic` is accepted for CI parity — the file is always
//! deterministic). `--scales=100,1000` restricts the sweep for smoke
//! runs.

use qosc_bench::scorecard::{self, WORKER_COUNTS};
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
        4,
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

struct Cell {
    scale: usize,
    mode: Mode,
    offered: usize,
    completed: usize,
    starved: usize,
    recompositions: u64,
    switches: u64,
    grant_updates: u64,
    reallocations: u64,
    rebuffer_ratio: f64,
    p5_satisfaction: f64,
    mean_satisfaction: f64,
    cache: DeliveryCacheStats,
    digest: u64,
}

fn run_cell(scale: usize, mode: Mode) -> Cell {
    let label = format!("{scale} × {}", mode.label());
    let (digest, (report, cache, reallocations)) =
        scorecard::worker_sweep(&label, worker_counts(scale), |workers| {
            let run = run_once(scale, mode, workers);
            (scorecard::sessions_digest(&run.0), run)
        });
    let ratios = scorecard::delivered_ratios(&report);
    Cell {
        scale,
        mode,
        offered: report.counters.offered,
        completed: report.counters.completed,
        starved: report.counters.starved,
        recompositions: report.recompositions(),
        switches: report.switches(),
        grant_updates: report.outcomes.iter().map(|o| o.grant_updates as u64).sum(),
        reallocations,
        rebuffer_ratio: report.rebuffer_ratio(),
        p5_satisfaction: scorecard::p5(ratios.clone()),
        mean_satisfaction: mean(&ratios),
        cache,
        digest,
    }
}

fn cell(cells: &[Cell], scale: usize, mode: Mode) -> &Cell {
    cells
        .iter()
        .find(|c| c.scale == scale && c.mode == mode)
        .expect("swept cell")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_broker.json".to_string());
    let deterministic = args.iter().any(|a| a == "--deterministic");
    let scales: Vec<usize> = args
        .iter()
        .find_map(|a| a.strip_prefix("--scales="))
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

    let mut cells: Vec<Cell> = Vec::new();
    for &scale in &scales {
        // The none/baseline pair only needs one scale to prove the cold
        // path; the policy contrast runs everywhere.
        let modes: &[Mode] = if scale == scales[0] {
            &[Mode::Baseline, Mode::None, Mode::Fcfs, Mode::MaxMin]
        } else {
            &[Mode::Fcfs, Mode::MaxMin]
        };
        for &mode in modes {
            cells.push(run_cell(scale, mode));
        }
    }

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
    for c in &cells {
        table.row([
            c.scale.to_string(),
            c.mode.label().to_string(),
            c.offered.to_string(),
            c.completed.to_string(),
            c.switches.to_string(),
            c.grant_updates.to_string(),
            c.reallocations.to_string(),
            format!("{}/{}/{}", c.cache.hits, c.cache.refreshes, c.cache.misses),
            format!("{:.4}", c.rebuffer_ratio),
            format!("{:.4}", c.p5_satisfaction),
            format!("{:.4}", c.mean_satisfaction),
        ]);
    }
    println!("{}", table.render());

    // The cold path: a world whose sharing was explicitly set to `None`
    // is bit-identical to one that never heard of the broker.
    let baseline = cell(&cells, scales[0], Mode::Baseline);
    let none = cell(&cells, scales[0], Mode::None);
    assert_eq!(
        none.digest, baseline.digest,
        "sharing=None must be bit-identical to the broker never existing"
    );
    assert_eq!(none.cache, DeliveryCacheStats::default());
    assert_eq!(none.grant_updates, 0);

    for &scale in &scales {
        let fcfs = cell(&cells, scale, Mode::Fcfs);
        let maxmin = cell(&cells, scale, Mode::MaxMin);
        // Brokered cells must actually exercise the machinery: the
        // delivery memo serves hits and grant-only refreshes, and
        // reallocation epochs reach sessions as grant updates.
        for c in [fcfs, maxmin] {
            assert!(
                c.cache.hits > 0 && c.cache.refreshes > 0,
                "scale {scale} × {}: delivery memo must be exercised, got {:?}",
                c.mode.label(),
                c.cache
            );
            assert!(c.reallocations > 0);
            assert!(
                c.grant_updates > 0,
                "scale {scale} × {}: reallocations must reach sessions",
                c.mode.label()
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"broker_fairness\",\n");
    json.push_str(&format!(
        "  \"scenario\": {{\"topology\": \"fat_tree\", \"k\": 4, \"topology_seed\": {TOPOLOGY_SEED}, \"access_per_session_bps\": {ACCESS_PER_SESSION_BPS}, \"fabric_mult\": {FABRIC_MULT}}},\n"
    ));
    json.push_str(&format!(
        "  \"run\": {{\"arrival_seed\": {ARRIVAL_SEED}, \"horizon_us\": {HORIZON_US}, \"arrival_horizon_us\": {ARRIVAL_HORIZON_US}, \"hold_range_us\": [{}, {}], \"tick_us\": 500000, \"max_recompositions\": 8}},\n",
        HOLD_RANGE_US.0, HOLD_RANGE_US.1
    ));
    json.push_str(&format!(
        "  \"demand_mix_bps\": {{\"interactive\": [{}, {}], \"standard\": [{}, {}], \"background\": [{}, {}]}},\n",
        MIX.interactive_bps.0,
        MIX.interactive_bps.1,
        MIX.standard_bps.0,
        MIX.standard_bps.1,
        MIX.background_bps.0,
        MIX.background_bps.1
    ));
    json.push_str(
        "  \"priority_weights\": {\"interactive\": 4, \"standard\": 2, \"background\": 1},\n",
    );
    json.push_str("  \"workers_verified\": {\"default\": [1, 2, 4, 8], \"at_10000\": [1, 8]},\n");
    json.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scale\": {}, \"policy\": \"{}\", \"offered\": {}, \"completed\": {}, \"starved\": {}, \"recompositions\": {}, \"switches\": {}, \"grant_updates\": {}, \"reallocations\": {}, \"cache\": {{\"hits\": {}, \"refreshes\": {}, \"misses\": {}}}, \"rebuffer_ratio\": {:.6}, \"p5_satisfaction\": {:.6}, \"mean_satisfaction\": {:.6}, \"digest\": \"{:016x}\"}}{}\n",
            c.scale,
            c.mode.label(),
            c.offered,
            c.completed,
            c.starved,
            c.recompositions,
            c.switches,
            c.grant_updates,
            c.reallocations,
            c.cache.hits,
            c.cache.refreshes,
            c.cache.misses,
            c.rebuffer_ratio,
            c.p5_satisfaction,
            c.mean_satisfaction,
            c.digest,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write scorecard");
    println!("wrote {out_path}");
}
