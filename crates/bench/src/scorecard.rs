//! What the deterministic scorecard bins (X4, X12–X20) share: the run
//! digest, the strict 12 fps mesh with its chaos plan and its
//! world/request builders, X17's and X18's session stream, the
//! one-session builder, the zero-hold batch and the world that keeps
//! what each session was served, the worker-invariance sweep, the rank
//! statistics, and the emitter every `BENCH_*.json` is written through.
//!
//! Every byte a checked-in `BENCH_*.json` digest covers is decided
//! here, so a change to this module is a change to those files.
//!
//! # The emitter
//!
//! A [`Line`] is one JSON object on one line, its fields in the order
//! they are added: an integer or a value already in JSON form
//! ([`raw`](Line::raw)), a number at fixed decimals
//! ([`num`](Line::num)), a string ([`str`](Line::str)) or a 16-hex
//! digest ([`digest`](Line::digest)). Each field is named once, where
//! its value is computed. Fields added after [`timing`](Line::timing)
//! are wall-clock measurements.
//!
//! A [`Scorecard`] owns a bin's command line — the first argument not
//! starting with `--` is the output path, `--deterministic` drops every
//! timing field — and writes the file: `bench`, the header fields one
//! per line, then the `cells` array, one [`Line`] per line
//! (`emitter_golden_bytes` pins the bytes).

use qosc_core::{
    run_sessions, AdaptationPlan, AdmissionConfig, ArrivalMeta, Composer, CompositionRequest,
    PriorityClass, ResilientEngineConfig, SessionEngineConfig, SessionRequest, SessionWorld,
    SessionsReport, StaticWorld,
};
use qosc_media::{Axis, FormatRegistry};
use qosc_netsim::Network;
use qosc_pipeline::{ChaosModel, ChaosPlan, ChaosWorld, FailureSchedule};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{DiscoveryConfig, ServiceRegistry};
use qosc_telemetry::TelemetrySink;
use qosc_workload::arrivals::{ArrivalPattern, SessionArrival, SessionPattern};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;
use std::fmt::{self, Display};

/// Worker counts a scorecard cell is re-run at; the digests must agree.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Topology seed of the strict mesh.
pub const STRICT_TOPOLOGY_SEED: u64 = 5;

/// The strict user's frame-rate floor, fps.
const STRICT_FPS_FLOOR: f64 = 12.0;

/// FNV-1a over a sequence of rendered values, each closed by a `0x1e`
/// record separator — the digest two paths, two worker counts or two
/// commits must agree on byte for byte.
#[derive(Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// The empty digest (the FNV-1a offset basis).
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `text` and a record separator in.
    pub fn update(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(0x1e)) {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn fold_outcomes_and_counters(digest: &mut Digest, report: &SessionsReport) {
    for outcome in &report.outcomes {
        digest.update(&format!("{outcome:?}"));
    }
    digest.update(&format!("{:?}", report.counters));
}

/// Digest of a session run: every outcome, the lifecycle counters and
/// the virtual end time (X17–X19; these runs have no admission queue).
pub fn sessions_digest(report: &SessionsReport) -> u64 {
    let mut digest = Digest::new();
    fold_outcomes_and_counters(&mut digest, report);
    digest.update(&format!("end={}", report.end_us));
    digest.finish()
}

/// [`sessions_digest`] with the admission aggregates folded in before
/// the end time (X16, whose sessions open through the admission queue).
pub fn sessions_digest_with_admission(report: &SessionsReport) -> u64 {
    let mut digest = Digest::new();
    fold_outcomes_and_counters(&mut digest, report);
    digest.update(&format!("{:?}", report.admission));
    digest.update(&format!("end={}", report.end_us));
    digest.finish()
}

/// Generator settings of the strict mesh.
pub fn strict_generator_config() -> GeneratorConfig {
    GeneratorConfig {
        services_per_layer: 5,
        multi_axis: true,
        ..GeneratorConfig::default()
    }
}

/// The generated mesh with a *strict* user on top: a 12 fps quality
/// floor (weight 3) beside the resolution preference (weight 1).
/// Bandwidth squeezes push delivered frame rates below the floor, so
/// degradation visibly rescores what it serves.
pub fn strict_scenario() -> Scenario {
    let mut scenario = random_scenario(&strict_generator_config(), STRICT_TOPOLOGY_SEED);
    scenario.profiles.user.satisfaction = SatisfactionProfile::new()
        .with(AxisPreference::weighted(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: STRICT_FPS_FLOOR,
                ideal: 30.0,
            },
            3.0,
        ))
        .with(AxisPreference::weighted(
            Axis::PixelCount,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 307_200.0,
            },
            1.0,
        ));
    scenario
}

/// The `"scenario"` header field every strict-mesh scorecard carries.
pub fn strict_scenario_line() -> Line {
    let config = strict_generator_config();
    Line::new()
        .raw("topology_seed", STRICT_TOPOLOGY_SEED)
        .raw("layers", config.layers)
        .raw("services_per_layer", config.services_per_layer)
        .raw("formats_per_layer", config.formats_per_layer)
        .raw("multi_axis", config.multi_axis)
        .num("fps_floor", STRICT_FPS_FLOOR, 1)
}

/// Arrival seed of X17's and X18's session stream.
pub const BUFFERED_ARRIVAL_SEED: u64 = 42;

/// Virtual run length of X17 and X18.
pub const BUFFERED_HORIZON_US: u64 = 30_000_000;

/// X17's and X18's open-loop stream: two opens per virtual second
/// (mean concurrency ≈ 18) until 5 virtual seconds before the horizon,
/// so the tail can drain. Holds of 6–12 s against a 4 s playout buffer
/// put fault windows mid-stream, past the startup credit, with time
/// left to climb back up the ladder. Full-quality demands of 1–4 kbit/s
/// floor the final hop inside the delivery model, well below the
/// strict mesh's 15–60 kbit/s access links, so a healthy plan sustains
/// real time.
pub fn buffered_stream() -> SessionPattern {
    SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: 25_000_000,
            rate_per_sec: 2,
            ..ArrivalPattern::default()
        },
        hold_range_us: (6_000_000, 12_000_000),
        demand_range_bps: (1_000, 4_000),
    }
}

/// X17's and X18's `"run"` header field: the stream and the engine
/// settings of `config`.
pub fn buffered_run_line(config: &SessionEngineConfig) -> Line {
    let stream = buffered_stream();
    let range = |(low, high): (u64, u64)| list([low, high]);
    Line::new()
        .raw("arrival_seed", BUFFERED_ARRIVAL_SEED)
        .raw("horizon_us", config.horizon_us.expect("a bounded run"))
        .raw("hold_range_us", range(stream.hold_range_us))
        .raw("demand_range_bps", range(stream.demand_range_bps))
        .raw("rate_per_sec", stream.arrivals.rate_per_sec)
        .raw("tick_us", config.tick_us)
        .raw("max_recompositions", config.max_recompositions)
}

/// Fault windows `(start_us, end_us, permille)` of one chaos label.
pub type Windows = &'static [(u64, u64, u16)];

/// The share of X17's and X18's horizon that `windows` covers — the
/// scalar a cell reports as its intensity.
pub fn window_share(windows: Windows) -> f64 {
    let busy: u64 = windows.iter().map(|(start, end, _)| end - start).sum();
    busy as f64 / BUFFERED_HORIZON_US as f64
}

/// Each label's windows as `[start_us, end_us, permille]` triples.
pub fn windows_line(labels: &[&'static str], windows: fn(&str) -> Windows) -> Line {
    labels.iter().fold(Line::new(), |line, &label| {
        let triples = windows(label)
            .iter()
            .map(|&(s, e, p)| list([s, e, p.into()]));
        line.raw(label, list(triples))
    })
}

/// The chaos plan X12, X14 and X16 run on `scenario`: the default model
/// over `members` fleet members, with the sender, the receiver and the
/// backbone protected.
pub fn chaos_plan(scenario: &Scenario, members: usize, seed: u64, intensity: f64) -> ChaosPlan {
    let topology = scenario.network.topology();
    let backbone = topology
        .node_by_name("backbone")
        .expect("generated meshes have a backbone");
    let model = ChaosModel {
        protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
        ..ChaosModel::default()
    };
    ChaosPlan::generate(topology, members, &model, seed, intensity)
}

/// A chaos world over `network` whose fleet is `services`' live
/// advertisements, joined in registration order (so member index =
/// position in `live_services()`).
pub fn chaos_world<'a>(
    formats: &'a FormatRegistry,
    services: &ServiceRegistry,
    network: Network,
) -> ChaosWorld<'a> {
    let mut world = ChaosWorld::new(formats, network, DiscoveryConfig::default());
    for (_, descriptor) in services.live_services() {
        world.join(descriptor.clone());
    }
    world
}

/// X4, X12 and X14's chaos phase as one 30 s session: `scenario`'s own
/// request opens at 0 and holds to the horizon on a [`chaos_world`]
/// that applies `faults`, with admission off and the engine defaults
/// otherwise. The world runs on a fresh network over `scenario`'s
/// topology, so one scenario serves every run. Callers set the recovery
/// policy on the config — `max_recompositions: 0` never recovers,
/// `resilient.ladder` picks recompose-only or the degradation ladder —
/// and serve the request through [`run_sessions`].
pub fn one_session<'a>(
    scenario: &'a Scenario,
    faults: &FailureSchedule,
) -> (ChaosWorld<'a>, SessionRequest, SessionEngineConfig) {
    const HORIZON_US: u64 = 30_000_000;
    let network = Network::new(scenario.network.topology().clone());
    let mut world = chaos_world(&scenario.formats, &scenario.services, network);
    for &(at, fault) in faults.events() {
        world.schedule_fault(at.as_micros(), fault);
    }
    let request = SessionRequest {
        request: CompositionRequest {
            profiles: scenario.profiles.clone(),
            sender_host: scenario.sender_host,
            receiver_host: scenario.receiver_host,
        },
        arrival: ArrivalMeta {
            arrival_us: 0,
            priority: PriorityClass::Standard,
            service_cost_us: 0,
            deadline_budget_us: None,
        },
        hold_us: HORIZON_US,
        demand_bps: 0,
    };
    let config = SessionEngineConfig {
        admission: None,
        horizon_us: Some(HORIZON_US),
        ..SessionEngineConfig::default()
    };
    (world, request, config)
}

/// A [`StaticWorld`] that keeps the last plan each session adopted.
///
/// The serving loop hands every adopted plan to
/// [`SessionWorld::register_session_flow`], zero-hold sessions included,
/// on the loop's own thread; this world has no broker and keeps the plan
/// instead. A batch served as zero-hold sessions (X13, X14) reads each
/// request's served plan and satisfaction here: a zero-hold session
/// closes at open, so its outcome accrues no satisfaction-time.
#[derive(Debug, Clone)]
pub struct ServedWorld<'a> {
    world: StaticWorld<'a>,
    plans: Vec<Option<AdaptationPlan>>,
}

impl<'a> ServedWorld<'a> {
    /// `world`, with no session served yet.
    pub fn new(world: StaticWorld<'a>) -> ServedWorld<'a> {
        ServedWorld {
            world,
            plans: Vec::new(),
        }
    }

    /// The last plan session `session` adopted (`None` when it never
    /// served).
    pub fn plan(&self, session: usize) -> Option<&AdaptationPlan> {
        self.plans.get(session).and_then(Option::as_ref)
    }

    /// The predicted satisfaction of [`plan`](Self::plan), 0.0 when the
    /// session never served.
    pub fn satisfaction(&self, session: usize) -> f64 {
        self.plan(session)
            .map_or(0.0, |plan| plan.predicted_satisfaction)
    }
}

impl SessionWorld for ServedWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        self.world.composer()
    }

    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        _demand_bps: u64,
        _weight: u32,
    ) {
        let session = session as usize;
        if session >= self.plans.len() {
            self.plans.resize(session + 1, None);
        }
        self.plans[session] = Some(plan.clone());
    }
}

/// A batch as X13 and X14 serve it: one zero-hold session per arrival,
/// each asking for `scenario`'s own composition, served at `workers`
/// into `sink` through `admission` when given, on a [`ServedWorld`].
/// No ticks, no session spans, no adaptation or SLA policy: each session
/// logs only its admission verdict and its ladder.
pub fn serve_zero_hold<'a, S: TelemetrySink>(
    scenario: &'a Scenario,
    arrivals: &[ArrivalMeta],
    workers: usize,
    admission: Option<AdmissionConfig>,
    sink: &S,
) -> (SessionsReport, ServedWorld<'a>) {
    let sessions = session_requests(
        scenario,
        arrivals
            .iter()
            .map(|&meta| SessionArrival {
                meta,
                hold_us: 0,
                demand_bps: 0,
            })
            .collect(),
    );
    let config = SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers,
            ..ResilientEngineConfig::default()
        },
        admission,
        tick_us: 0,
        session_spans: false,
        abr: None,
        sla: None,
        ..SessionEngineConfig::default()
    };
    let mut world = ServedWorld::new(StaticWorld {
        formats: &scenario.formats,
        services: &scenario.services,
        network: &scenario.network,
    });
    let report = run_sessions(&mut world, &sessions, &config, sink);
    (report, world)
}

/// One session request per arrival, each asking for `scenario`'s own
/// composition.
pub fn session_requests(scenario: &Scenario, arrivals: Vec<SessionArrival>) -> Vec<SessionRequest> {
    arrivals
        .into_iter()
        .map(|sa| SessionRequest {
            request: CompositionRequest {
                profiles: scenario.profiles.clone(),
                sender_host: scenario.sender_host,
                receiver_host: scenario.receiver_host,
            },
            arrival: sa.meta,
            hold_us: sa.hold_us,
            demand_bps: sa.demand_bps,
        })
        .collect()
}

/// Run `run` once per worker count; every run's digest must equal the
/// first's. Returns the first run.
///
/// # Panics
///
/// When a later worker count's digest differs, or `workers` is empty.
pub fn worker_sweep<T>(
    cell: &str,
    workers: &[usize],
    mut run: impl FnMut(usize) -> (u64, T),
) -> (u64, T) {
    let mut reference: Option<(u64, T)> = None;
    for &count in workers {
        let (digest, value) = run(count);
        match &reference {
            None => reference = Some((digest, value)),
            Some((expected, _)) => assert_eq!(
                digest, *expected,
                "{cell}: workers={count} diverged from workers={}",
                workers[0]
            ),
        }
    }
    reference.expect("at least one worker count runs")
}

/// Per-session delivered satisfaction: composed satisfaction per
/// active µs, discounted by the stalled share of playback.
pub fn delivered_ratios(report: &SessionsReport) -> Vec<f64> {
    report
        .outcomes
        .iter()
        .filter_map(|o| {
            let active = o.active_us();
            if active == 0 {
                return None;
            }
            let playing = active.saturating_sub(o.rebuffer_us) as f64 / active as f64;
            Some((o.satisfaction_us / active as f64) * playing)
        })
        .collect()
}

/// 5th percentile by sorted rank — deterministic, no interpolation.
pub fn p5(mut ratios: Vec<f64>) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[(ratios.len() - 1) * 5 / 100]
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending,
/// non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index]
}

/// One JSON object on one line; fields are written in the order they
/// are added. Names and string values are written unescaped, so they
/// must be plain identifiers and labels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    fields: Vec<(&'static str, String)>,
    /// Index of the first timing field, once [`timing`](Line::timing)
    /// was called.
    timed_from: Option<usize>,
}

impl Line {
    /// An object with no fields yet.
    pub fn new() -> Line {
        Line::default()
    }

    /// An integer, or any value already in JSON form: a bool, a
    /// [`list`], a nested `Line`.
    pub fn raw(mut self, name: &'static str, value: impl Display) -> Line {
        self.fields.push((name, value.to_string()));
        self
    }

    /// A number with `decimals` fixed decimals.
    pub fn num(self, name: &'static str, value: f64, decimals: usize) -> Line {
        self.raw(name, format!("{value:.decimals$}"))
    }

    /// A quoted string.
    pub fn str(self, name: &'static str, value: &str) -> Line {
        self.raw(name, format!("\"{value}\""))
    }

    /// A digest as 16 quoted hex digits.
    pub fn digest(self, name: &'static str, value: u64) -> Line {
        self.raw(name, format!("\"{value:016x}\""))
    }

    /// Every field added from here on is a wall-clock measurement,
    /// which a deterministic scorecard drops.
    pub fn timing(mut self) -> Line {
        self.timed_from.get_or_insert(self.fields.len());
        self
    }

    /// `"name": value` per field, timing fields left out when
    /// `deterministic`.
    fn entries(&self, deterministic: bool) -> impl Iterator<Item = String> + '_ {
        let end = match self.timed_from {
            Some(start) if deterministic => start,
            _ => self.fields.len(),
        };
        self.fields[..end]
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
    }

    /// The object on one line, timing fields left out when
    /// `deterministic`.
    fn render(&self, deterministic: bool) -> String {
        format!(
            "{{{}}}",
            self.entries(deterministic).collect::<Vec<_>>().join(", ")
        )
    }

    /// The object one field per line, as the value of a header field
    /// (X14's event counts).
    pub fn block(&self) -> String {
        format!(
            "{{\n    {}\n  }}",
            self.entries(false).collect::<Vec<_>>().join(",\n    ")
        )
    }
}

/// A nested `Line` renders with its timing fields.
impl Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(false))
    }
}

/// `values` as a JSON array: `[a, b, c]`.
pub fn list<T: Display>(values: impl IntoIterator<Item = T>) -> String {
    let values: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", values.join(", "))
}

/// One `BENCH_*.json` file: its command line, its cells, and the
/// rendering described in the [module docs](self).
#[derive(Debug)]
pub struct Scorecard {
    bench: &'static str,
    path: String,
    deterministic: bool,
    array: &'static str,
    cells: Vec<Line>,
}

impl Scorecard {
    /// The scorecard of bin `bench`, configured from the process's
    /// command line: written to the first argument not starting with
    /// `--` (`default_path` when there is none), and deterministic when
    /// an argument is `--deterministic`. Other `--` arguments are the
    /// bin's own.
    pub fn from_args(bench: &'static str, default_path: &str) -> Scorecard {
        Scorecard::parse(bench, default_path, std::env::args().skip(1))
    }

    /// [`from_args`](Scorecard::from_args) over `args`.
    fn parse(
        bench: &'static str,
        default_path: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Scorecard {
        let mut path = None;
        let mut deterministic = false;
        for arg in args {
            if arg == "--deterministic" {
                deterministic = true;
            } else if !arg.starts_with("--") && path.is_none() {
                path = Some(arg);
            }
        }
        Scorecard {
            bench,
            path: path.unwrap_or_else(|| default_path.to_string()),
            deterministic,
            array: "cells",
            cells: Vec::new(),
        }
    }

    /// Name the cell array `name` instead of `cells` (X14 writes its
    /// histograms there).
    pub fn cells_named(mut self, name: &'static str) -> Scorecard {
        self.array = name;
        self
    }

    /// Whether timing fields are dropped.
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Append one cell.
    pub fn push(&mut self, cell: Line) {
        self.cells.push(cell);
    }

    /// The file's bytes under `header`.
    fn render(&self, header: &Line) -> String {
        let mut out = format!("{{\n  \"bench\": \"{}\",\n", self.bench);
        for field in header.entries(self.deterministic) {
            out.push_str(&format!("  {field},\n"));
        }
        out.push_str(&format!("  \"{}\": [\n", self.array));
        for (i, cell) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!("    {}{comma}\n", cell.render(self.deterministic)));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the file under `header` and say where.
    ///
    /// # Panics
    ///
    /// When the output path cannot be written.
    pub fn write(&self, header: &Line) {
        std::fs::write(&self.path, self.render(header)).expect("write scorecard");
        println!("wrote {}", self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_core::SessionOutcome;

    /// Pins FNV-1a (offset basis, prime, xor-then-multiply) and the
    /// `0x1e` separator: the value is the 64-bit FNV-1a of the bytes
    /// `ab\x1ec\x1e`, computed independently of this module.
    #[test]
    fn digest_golden_value() {
        const GOLDEN: u64 = 0x03ce_f32f_8489_d089;
        let mut digest = Digest::new();
        digest.update("ab");
        digest.update("c");
        assert_eq!(digest.finish(), GOLDEN);

        // The separator is part of the stream: moving a boundary moves
        // the digest.
        let mut shifted = Digest::new();
        shifted.update("a");
        shifted.update("bc");
        assert_ne!(shifted.finish(), GOLDEN);
    }

    /// Pins the emitter's bytes: one `Line` holding each value kind,
    /// with and without its timing field; a scorecard with zero, one
    /// and two cells; and a deterministic render that drops the header's
    /// and the cells' timing fields.
    #[test]
    fn emitter_golden_bytes() {
        let line = Line::new()
            .raw("count", 3)
            .raw("flag", true)
            .raw("nested", Line::new().raw("a", 1).str("b", "x"))
            .raw("pair", list([1, 2]))
            .num("ratio", 0.123_456_7, 6)
            .str("label", "storm")
            .digest("digest", 0xab)
            .timing()
            .num("p50_us", 12.34, 1);
        assert_eq!(
            line.render(false),
            r#"{"count": 3, "flag": true, "nested": {"a": 1, "b": "x"}, "pair": [1, 2], "ratio": 0.123457, "label": "storm", "digest": "00000000000000ab", "p50_us": 12.3}"#
        );
        assert_eq!(
            line.render(true),
            r#"{"count": 3, "flag": true, "nested": {"a": 1, "b": "x"}, "pair": [1, 2], "ratio": 0.123457, "label": "storm", "digest": "00000000000000ab"}"#
        );
        assert_eq!(
            Line::new().raw("a", 1).raw("b", 2).block(),
            "{\n    \"a\": 1,\n    \"b\": 2\n  }"
        );

        let header = Line::new().raw("seed", 7).timing().num("speedup", 2.5, 2);
        let render = |cells: usize, args: &[&str]| {
            let args = args.iter().map(|arg| arg.to_string());
            let mut card = Scorecard::parse("demo", "BENCH_demo.json", args);
            for i in 0..cells {
                card.push(Line::new().raw("i", i).timing().num("us", 1.26, 1));
            }
            card.render(&header)
        };
        assert_eq!(
            render(0, &[]),
            "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"speedup\": 2.50,\n  \"cells\": [\n  ]\n}\n"
        );
        assert_eq!(
            render(1, &[]),
            "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"speedup\": 2.50,\n  \"cells\": [\n    {\"i\": 0, \"us\": 1.3}\n  ]\n}\n"
        );
        assert_eq!(
            render(2, &[]),
            "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"speedup\": 2.50,\n  \"cells\": [\n    {\"i\": 0, \"us\": 1.3},\n    {\"i\": 1, \"us\": 1.3}\n  ]\n}\n"
        );
        assert_eq!(
            render(2, &["--scales=1", "--deterministic"]),
            "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"cells\": [\n    {\"i\": 0},\n    {\"i\": 1}\n  ]\n}\n"
        );
    }

    #[test]
    fn the_first_plain_argument_is_the_path() {
        let parse = |args: &[&str]| {
            Scorecard::parse(
                "demo",
                "BENCH_demo.json",
                args.iter().map(|a| a.to_string()),
            )
        };
        let card = parse(&[]);
        assert_eq!(
            (card.path.as_str(), card.deterministic()),
            ("BENCH_demo.json", false)
        );
        let card = parse(&["--max=10", "a.json", "--deterministic", "b.json"]);
        assert_eq!((card.path.as_str(), card.deterministic()), ("a.json", true));
    }

    fn report() -> SessionsReport {
        SessionsReport {
            outcomes: vec![SessionOutcome::default(); 2],
            counters: Default::default(),
            admission: Default::default(),
            end_us: 7,
        }
    }

    #[test]
    fn one_changed_outcome_field_moves_both_digests() {
        let base = report();
        let mut changed = report();
        changed.outcomes[1].grant_updates = 1;
        assert_ne!(sessions_digest(&base), sessions_digest(&changed));
        assert_ne!(
            sessions_digest_with_admission(&base),
            sessions_digest_with_admission(&changed)
        );
    }

    #[test]
    fn one_changed_admission_field_moves_only_the_x16_digest() {
        let base = report();
        let mut changed = report();
        changed.admission.deadline_misses = 1;
        assert_eq!(sessions_digest(&base), sessions_digest(&changed));
        assert_ne!(
            sessions_digest_with_admission(&base),
            sessions_digest_with_admission(&changed)
        );
    }
}
