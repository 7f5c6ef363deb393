//! The golden policy matrix: one small scenario run through
//! `run_sessions` under all 96 settings of (adaptation × SLA ×
//! admission × sharing) the engine's configuration can express, each
//! run's report digest and sorted flight-recorder log digest compared
//! with the checked-in table `session_policy_matrix.golden`.
//!
//! The repo's scorecards, tests and benchmark construct 11 of the 96
//! (marked `*` in the table); those rows also pin the number of calls
//! the loop makes into each `SessionWorld` method — the delivery
//! memo's hit/refresh/miss counts and the telemetry order hang on the
//! call sequence — and are re-run at 4 workers.
//!
//! On a mismatch the test prints the whole fresh table, so a deliberate
//! change is a copy into the golden file; an accidental one is a diff.
//!
//! The same world is the memo contract's oracle (debug builds): every
//! setting, and seeded random storms over it, must produce the same
//! report digest and the same rendered log with every memo of the
//! serving path switched off (`qosc_netsim::memo`) as with them on.

use std::sync::atomic::{AtomicU64, Ordering};

use qosc_bench::scorecard::{self, Digest};
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, AdaptationPlan, AdmissionConfig, ArrivalMeta, Composer,
    CompositionRequest, PriorityClass, ResilientEngineConfig, SelectOptions, SessionEngineConfig,
    SessionRequest, SessionWorld, SessionsReport, SlaConfig, SlaMode,
};
use qosc_netsim::{LinkId, SimTime};
use qosc_pipeline::{ChaosAction, ChaosPlan, ChaosWorld, FailureEvent, SharingPolicy};
use qosc_services::{DiscoveryConfig, QosObservation, ServiceId};
use qosc_telemetry::FlightRecorder;
use qosc_workload::Scenario;

const GOLDEN: &str = include_str!("session_policy_matrix.golden");

const SESSIONS: usize = 24;
const HORIZON_US: u64 = 10_000_000;
/// Short leases, so a crashed member's advertisement dies inside the
/// horizon.
const LEASE_TTL_US: u64 = 2_000_000;
/// Per-session demands, so brokered flows differ in their registered
/// windows and contend.
const DEMANDS_BPS: [u64; 4] = [0, 2_000, 4_000, 8_000];

const ABR: [(&str, Option<AbrMode>); 4] = [
    ("none", None),
    ("static", Some(AbrMode::StaticLadder)),
    ("reactive", Some(AbrMode::Reactive)),
    ("bola", Some(AbrMode::Bola)),
];
const SLA: [(&str, Option<SlaMode>); 3] = [
    ("none", None),
    ("binary", Some(SlaMode::Binary)),
    ("drift", Some(SlaMode::DriftAware)),
];
const ADMISSION: [&str; 2] = ["open", "queue"];

/// What the run does to `ChaosWorld::set_sharing`: `Unset` never calls
/// it, `Off` calls it with `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sharing {
    Unset,
    Off,
    Fcfs,
    MaxMin,
}

const SHARING: [(&str, Sharing); 4] = [
    ("unset", Sharing::Unset),
    ("off", Sharing::Off),
    ("fcfs", Sharing::Fcfs),
    ("maxmin", Sharing::MaxMin),
];

#[derive(Debug, Clone, Copy)]
struct Setting {
    abr: usize,
    sla: usize,
    admission: usize,
    sharing: usize,
}

impl Setting {
    fn all() -> Vec<Setting> {
        let mut settings = Vec::new();
        for abr in 0..ABR.len() {
            for sla in 0..SLA.len() {
                for admission in 0..ADMISSION.len() {
                    for sharing in 0..SHARING.len() {
                        settings.push(Setting {
                            abr,
                            sla,
                            admission,
                            sharing,
                        });
                    }
                }
            }
        }
        settings
    }

    /// The 11 settings some bin, test or benchmark workload constructs:
    /// X16 (nothing on, both admissions), X17 (each adaptation mode
    /// alone), X18 (BOLA × each SLA mode), `sessions_chaos` (BOLA ×
    /// drift × admission), X19 / `sessions_shared` (BOLA × each
    /// sharing).
    fn constructed(self) -> bool {
        let labels = (
            ABR[self.abr].0,
            SLA[self.sla].0,
            ADMISSION[self.admission],
            SHARING[self.sharing].0,
        );
        matches!(
            labels,
            ("none", "none", _, "unset")
                | (_, "none", "open", "unset")
                | ("bola", _, "open", "unset")
                | ("bola", "drift", "queue", "unset")
                | ("bola", "none", "open", _)
        )
    }

    fn label(self) -> String {
        format!(
            "{} {:<8} {:<6} {:<5} {:<6}",
            if self.constructed() { '*' } else { ' ' },
            ABR[self.abr].0,
            SLA[self.sla].0,
            ADMISSION[self.admission],
            SHARING[self.sharing].0,
        )
    }

    fn engine_config(self, workers: usize) -> SessionEngineConfig {
        SessionEngineConfig {
            resilient: ResilientEngineConfig {
                workers,
                ..ResilientEngineConfig::default()
            },
            // Two virtual cores against bursts of four arrivals: the
            // fourth of each burst carries a deadline the queue cannot
            // meet.
            admission: (ADMISSION[self.admission] == "queue").then(|| AdmissionConfig {
                virtual_cores: 2,
                initial_limit: 2,
                max_limit: 4,
                ..AdmissionConfig::protected()
            }),
            tick_us: 250_000,
            max_recompositions: 8,
            horizon_us: Some(HORIZON_US),
            session_spans: true,
            abr: ABR[self.abr].1.map(AbrConfig::with_mode),
            sla: SLA[self.sla].1.map(|mode| SlaConfig {
                mode,
                ..SlaConfig::default()
            }),
        }
    }
}

/// Six bursts of four sessions, one burst a second; holds of 4–6.4 s,
/// so every fault window below lands mid-stream and the last sessions
/// are still open at the horizon. Sessions `2k` and `2k + 1` ask for
/// `demands[k % 4]`.
fn requests(scenario: &Scenario, demands: [u64; 4]) -> Vec<SessionRequest> {
    (0..SESSIONS as u64)
        .map(|i| {
            let (burst, k) = (i / 4, i % 4);
            SessionRequest {
                request: CompositionRequest {
                    profiles: scenario.profiles.clone(),
                    sender_host: scenario.sender_host,
                    receiver_host: scenario.receiver_host,
                },
                arrival: ArrivalMeta {
                    arrival_us: burst * 1_000_000 + k * 1_000,
                    priority: [
                        PriorityClass::Interactive,
                        PriorityClass::Standard,
                        PriorityClass::Standard,
                        PriorityClass::Background,
                    ][k as usize],
                    service_cost_us: 40_000,
                    deadline_budget_us: (k == 3).then_some(30_000),
                },
                hold_us: 4_000_000 + (i % 5) * 600_000,
                demand_bps: demands[(i as usize / 2) % 4],
            }
        })
        .collect()
}

/// Member indices (join order) of the services the nominal chain rides.
fn nominal_members(scenario: &Scenario) -> Vec<usize> {
    let nominal = scenario
        .compose(&SelectOptions::default())
        .expect("the seeded scenario composes")
        .plan
        .expect("the strict mesh has a feasible chain");
    nominal
        .steps
        .iter()
        .filter_map(|s| s.service)
        .map(|id| {
            scenario
                .services
                .live_services()
                .position(|(live, _)| live == id)
                .expect("a composed service is live")
        })
        .collect()
}

/// The fixed chaos plan: a sag window on the nominal chain's members
/// (0.5–5.5 s, long enough to run a full playout buffer dry); a crash
/// of its first member (4 s; its lease runs out by the 6.1 s settle
/// point); a second crash wave over every even-indexed member (6.4 s,
/// leases out by 8.5 s), which also reaches the chains SLA evasions
/// moved to; everything revived at 9.2 s; and a squeeze of the
/// receiver's access link (7–9.5 s).
fn schedule_chaos(world: &mut ChaosWorld<'_>, sick: &[usize], access_link: LinkId) {
    let members = world.members().len();
    for &index in sick {
        world.schedule_action(
            500_000,
            ChaosAction::SagMember {
                index,
                throughput_permille: 100,
            },
        );
        world.schedule_action(5_500_000, ChaosAction::UnsagMember(index));
    }
    world.schedule_action(4_000_000, ChaosAction::CrashMember(sick[0]));
    world.schedule_settle(4_000_000 + LEASE_TTL_US + 100_000);
    for index in (0..members).step_by(2) {
        world.schedule_action(6_400_000, ChaosAction::CrashMember(index));
    }
    world.schedule_settle(6_400_000 + LEASE_TTL_US + 100_000);
    for index in (0..members).step_by(2).chain([sick[0]]) {
        world.schedule_action(9_200_000, ChaosAction::ReviveMember(index));
    }
    world.schedule_fault(
        7_000_000,
        FailureEvent::Squeeze {
            link: access_link,
            permille: 900,
        },
    );
    world.schedule_fault(9_500_000, FailureEvent::Unsqueeze(access_link));
}

const METHODS: [&str; 15] = [
    "composer",
    "plan_alive",
    "plan_routable",
    "delivery_ppm",
    "observe_service",
    "observed_latency_us",
    "probate_service",
    "probe_service",
    "report_service_failure",
    "world_event_times",
    "apply_world_event",
    "register_session_flow",
    "deregister_session_flow",
    "grant_epoch",
    "session_delivery_ppm",
];

/// A `SessionWorld` that forwards to a [`ChaosWorld`] and counts the
/// calls the loop makes into each method (atomics: the trait's `&self`
/// methods must stay `Sync`).
struct CountingWorld<'a> {
    inner: ChaosWorld<'a>,
    calls: [AtomicU64; METHODS.len()],
}

impl CountingWorld<'_> {
    fn count(&self, method: &str) {
        let slot = METHODS
            .iter()
            .position(|m| *m == method)
            .expect("a SessionWorld method");
        self.calls[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn render_calls(&self) -> String {
        METHODS
            .iter()
            .zip(&self.calls)
            .map(|(method, calls)| format!("{method}={}", calls.load(Ordering::Relaxed)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl SessionWorld for CountingWorld<'_> {
    fn composer(&self) -> Composer<'_> {
        self.count("composer");
        self.inner.composer()
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        self.count("plan_alive");
        self.inner.plan_alive(plan)
    }

    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        self.count("plan_routable");
        self.inner.plan_routable(plan)
    }

    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
        self.count("delivery_ppm");
        self.inner.delivery_ppm(plan, demand_bps)
    }

    fn observe_service(&self, service: ServiceId) -> Option<QosObservation> {
        self.count("observe_service");
        self.inner.observe_service(service)
    }

    fn observed_latency_us(&self, plan: &AdaptationPlan) -> u64 {
        self.count("observed_latency_us");
        self.inner.observed_latency_us(plan)
    }

    fn probate_service(&mut self, service: ServiceId, observed_ppm: u64, now_us: u64) -> bool {
        self.count("probate_service");
        self.inner.probate_service(service, observed_ppm, now_us)
    }

    fn probe_service(&mut self, service: ServiceId, now_us: u64) -> bool {
        self.count("probe_service");
        self.inner.probe_service(service, now_us)
    }

    fn report_service_failure(&mut self, service: ServiceId, now_us: u64) {
        self.count("report_service_failure");
        self.inner.report_service_failure(service, now_us)
    }

    fn world_event_times(&self) -> &[u64] {
        self.count("world_event_times");
        self.inner.world_event_times()
    }

    fn apply_world_event(&mut self, index: usize) {
        self.count("apply_world_event");
        self.inner.apply_world_event(index)
    }

    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        demand_bps: u64,
        weight: u32,
    ) {
        self.count("register_session_flow");
        self.inner
            .register_session_flow(session, plan, demand_bps, weight)
    }

    fn deregister_session_flow(&mut self, session: u64) {
        self.count("deregister_session_flow");
        self.inner.deregister_session_flow(session)
    }

    fn grant_epoch(&self) -> u64 {
        self.count("grant_epoch");
        self.inner.grant_epoch()
    }

    fn session_delivery_ppm(
        &self,
        session: u64,
        plan_gen: u32,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> u64 {
        self.count("session_delivery_ppm");
        self.inner
            .session_delivery_ppm(session, plan_gen, plan, demand_bps)
    }
}

/// Everything one run serves: a setting, the fleet's lease TTL, the
/// per-session demands, and the chaos the world replays — a generated
/// plan with host outages scheduled beside it, or (`None`) the golden
/// table's fixed schedule.
struct Case {
    setting: Setting,
    lease_ttl_us: u64,
    demands: [u64; 4],
    storm: Option<(ChaosPlan, Vec<(u64, FailureEvent)>)>,
}

impl Case {
    fn golden(setting: Setting) -> Case {
        Case {
            setting,
            lease_ttl_us: LEASE_TTL_US,
            demands: DEMANDS_BPS,
            storm: None,
        }
    }
}

/// One run's outputs.
struct Run {
    report: SessionsReport,
    /// The rendered flight-recorder log.
    log: String,
    /// The loop's calls into each `SessionWorld` method.
    calls: String,
}

impl Run {
    /// The golden-table row of `setting`.
    fn row(&self, setting: Setting) -> String {
        let mut log = Digest::new();
        log.update(&self.log);
        let mut row = format!(
            "{} {:016x} {:016x}",
            setting.label(),
            scorecard::sessions_digest_with_admission(&self.report),
            log.finish()
        );
        if setting.constructed() {
            row.push_str(" | ");
            row.push_str(&self.calls);
        }
        row
    }
}

fn run(case: &Case, workers: usize) -> Run {
    // The world is stateful (faults, discovery, probation, broker), so
    // every run gets a fresh copy of the same seeded scenario.
    let scenario = scorecard::strict_scenario();
    let sick = nominal_members(&scenario);
    assert!(!sick.is_empty(), "the nominal chain rides a transcoder");
    let access_link = {
        let neighbors = scenario
            .network
            .topology()
            .neighbors(scenario.receiver_host);
        assert_eq!(neighbors.len(), 1, "one receiver access link");
        neighbors[0].1
    };
    let requests = requests(&scenario, case.demands);
    let mut inner = ChaosWorld::new(
        &scenario.formats,
        scenario.network,
        DiscoveryConfig {
            ttl: SimTime(case.lease_ttl_us),
        },
    );
    for (_, descriptor) in scenario.services.live_services() {
        inner.join(descriptor.clone());
    }
    match &case.storm {
        None => schedule_chaos(&mut inner, &sick, access_link),
        Some((plan, outages)) => {
            inner.load_plan(plan);
            for &(at_us, fault) in outages {
                inner.schedule_fault(at_us, fault);
            }
        }
    }
    match SHARING[case.setting.sharing].1 {
        Sharing::Unset => {}
        Sharing::Off => inner.set_sharing(None),
        Sharing::Fcfs => inner.set_sharing(Some(SharingPolicy::Fcfs)),
        Sharing::MaxMin => inner.set_sharing(Some(SharingPolicy::WeightedMaxMin)),
    }
    let mut world = CountingWorld {
        inner,
        calls: Default::default(),
    };
    let recorder = FlightRecorder::new(16);
    let report = run_sessions(
        &mut world,
        &requests,
        &case.setting.engine_config(workers),
        &recorder,
    );
    Run {
        report,
        log: recorder.render_log(),
        calls: world.render_calls(),
    }
}

#[derive(Debug, Default)]
struct Totals {
    switches: u64,
    evasions: u64,
    sla_violations: u64,
    recompositions: u64,
    grant_updates: u64,
    rebuffer_us: u64,
    shed: u64,
}

impl Totals {
    fn add(&mut self, report: &SessionsReport) {
        self.switches += report.switches();
        self.evasions += report.evasions();
        self.sla_violations += report.sla_violations();
        self.recompositions += report.recompositions();
        self.grant_updates += report
            .outcomes
            .iter()
            .map(|o| o.grant_updates as u64)
            .sum::<u64>();
        self.rebuffer_us += report.rebuffer_us();
        self.shed += report.counters.shed as u64;
    }
}

#[test]
fn all_96_settings_match_the_golden_table() {
    let settings = Setting::all();
    assert_eq!(settings.len(), 96);
    assert_eq!(settings.iter().filter(|s| s.constructed()).count(), 11);

    let mut table = String::new();
    let mut totals = Totals::default();
    for &setting in &settings {
        let run = run(&Case::golden(setting), 1);
        let (row, report) = (run.row(setting), run.report);
        assert!(report.counters.partitions_exactly(), "{row}");
        totals.add(&report);
        eprintln!(
            "STAT {} sw={} ev={} viol={} rec={} gu={} rebuf={} shed={} c={:?}",
            setting.label(),
            report.switches(),
            report.evasions(),
            report.sla_violations(),
            report.recompositions(),
            report
                .outcomes
                .iter()
                .map(|o| o.grant_updates as u64)
                .sum::<u64>(),
            report.rebuffer_us(),
            report.counters.shed,
            report.counters
        );
        // The case `plan_gen` was kept for and nothing else runs: SLA
        // evasions without a buffer model.
        if ABR[setting.abr].1.is_none() && SLA[setting.sla].1 == Some(SlaMode::DriftAware) {
            assert!(report.sla_violations() >= 1, "{row}: no SLA violation");
            assert!(report.evasions() >= 1, "{row}: no evasion committed");
        }
        table.push_str(&row);
        table.push('\n');
    }

    // Not vacuous: every mechanism the policies drive fires somewhere.
    assert!(totals.switches >= 1, "{totals:?}");
    assert!(totals.evasions >= 1, "{totals:?}");
    assert!(totals.sla_violations >= 1, "{totals:?}");
    assert!(totals.recompositions >= 1, "{totals:?}");
    assert!(totals.grant_updates >= 1, "{totals:?}");
    assert!(totals.rebuffer_us >= 1, "{totals:?}");
    assert!(totals.shed >= 1, "{totals:?}");

    assert!(
        table == GOLDEN,
        "the policy matrix moved; fresh table:\n{table}\n--- first differing row ---\n{}",
        table
            .lines()
            .zip(GOLDEN.lines())
            .find(|(got, want)| got != want)
            .map(|(got, want)| format!("got  {got}\nwant {want}"))
            .unwrap_or_else(|| "row counts differ".to_string())
    );
}

#[test]
fn constructed_settings_are_worker_invariant() {
    for setting in Setting::all().into_iter().filter(|s| s.constructed()) {
        let case = Case::golden(setting);
        assert_eq!(run(&case, 1).row(setting), run(&case, 4).row(setting));
    }
}

/// The memo contract (debug builds only: release builds compile the
/// memo-off switch out).
#[cfg(debug_assertions)]
mod memo_contract {
    use super::*;
    use qosc_netsim::NodeId;
    use qosc_pipeline::ChaosModel;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::AtomicUsize;

    /// Seeded random cases the memo contract runs besides the 96 settings.
    const RANDOM_CASES: u64 = 256;

    /// Random case `seed`. Half the cases run a setting with adaptation,
    /// SLA and sharing all on — where the memos meet: a quarantine between
    /// world events, a grant epoch, a recomposition — and half any of the
    /// 96. The storm draws every kind `ChaosPlan::generate` knows (node
    /// crashes with their links, link flaps, squeezes, lease storms, grey
    /// lags and sags) plus up to two bare host outages, which it never
    /// draws. One case in four is a blackout: lease storms wide enough to
    /// crash the whole fleet, so nothing renews and only the world-event
    /// count sees the sags that follow.
    fn random_case(scenario: &Scenario, seed: u64) -> Case {
        let mut rng = SmallRng::seed_from_u64(seed);
        let settings = Setting::all();
        let mut setting = settings[rng.random_range(0..settings.len())];
        if rng.random_bool(0.5) {
            setting.abr = rng.random_range(1..ABR.len());
            setting.sla = rng.random_range(1..SLA.len());
            setting.sharing = rng.random_range(2..SHARING.len());
        }
        let fleet = scenario.services.live_count();
        let blackout = rng.random_bool(0.25);
        let mut rate = |max: u32| f64::from(rng.random_range(0..=max));
        let model = ChaosModel {
            total_duration: SimTime(HORIZON_US),
            crash_rate_per_min: rate(12),
            flap_rate_per_min: rate(12),
            squeeze_rate_per_min: rate(18),
            storm_rate_per_min: if blackout { 12.0 } else { rate(12) },
            storm_size: if blackout {
                (3 * fleet as u32, 3 * fleet as u32)
            } else {
                (1, 3)
            },
            lag_rate_per_min: rate(12),
            sag_rate_per_min: if blackout { 120.0 } else { rate(30) },
            protect: vec![scenario.sender_host, scenario.receiver_host],
            ..ChaosModel::default()
        };
        let topology = scenario.network.topology();
        let hosts: Vec<NodeId> = topology
            .node_ids()
            .filter(|node| !model.protect.contains(node))
            .collect();
        let mut outages = Vec::new();
        for _ in 0..rng.random_range(0..=2) {
            let node = hosts[rng.random_range(0..hosts.len())];
            let down_us = rng.random_range(0..HORIZON_US);
            let up_us = down_us + rng.random_range(500_000..=4_000_000u64);
            outages.push((down_us, FailureEvent::NodeDown(node)));
            outages.push((up_us, FailureEvent::NodeUp(node)));
        }
        let min_ttl_us = if blackout { 2_000_000 } else { 500_000 };
        const DEMAND_POOL: [u64; 5] = [0, 1_000, 4_000, 16_000, 64_000];
        Case {
            setting,
            lease_ttl_us: rng.random_range(min_ttl_us..=4_000_000),
            demands: [(); 4].map(|_| DEMAND_POOL[rng.random_range(0..DEMAND_POOL.len())]),
            storm: Some((
                ChaosPlan::generate(topology, fleet, &model, seed, 1.0),
                outages,
            )),
        }
    }

    /// How `case` runs differently with every memo of the serving path
    /// answering fresh, if it does: the report digests, then the first line
    /// where the rendered logs part.
    fn memos_off_difference(case: &Case) -> Option<String> {
        let on = run(case, 1);
        let off = qosc_netsim::memo::with_memos_off(|| run(case, 1));
        let (on_digest, off_digest) = (
            scorecard::sessions_digest_with_admission(&on.report),
            scorecard::sessions_digest_with_admission(&off.report),
        );
        if on_digest != off_digest {
            return Some(format!(
                "report digest {on_digest:016x} (memo on) vs {off_digest:016x} (off)"
            ));
        }
        let (mut on_lines, mut off_lines) = (on.log.lines(), off.log.lines());
        for line in 1.. {
            match (on_lines.next(), off_lines.next()) {
                (None, None) => break,
                (a, b) if a != b => {
                    return Some(format!("log line {line}:\n  on  {a:?}\n  off {b:?}"));
                }
                _ => {}
            }
        }
        None
    }

    /// The memo contract, as one whole-engine property: with every memo of
    /// the serving path answering fresh (`qosc_netsim::memo`), all 96
    /// settings of the golden world and [`RANDOM_CASES`] random storms over
    /// it produce the memoized run's report digest and rendered log. Cases
    /// are independent and the switch is per thread, so they spread over
    /// the host's cores; each run serves on one worker.
    #[test]
    fn memo_off_runs_equal_memo_on_runs() {
        let scenario = scorecard::strict_scenario();
        let golden = Setting::all()
            .into_iter()
            .map(|setting| (format!("golden{}", setting.label()), Case::golden(setting)));
        let random = (0..RANDOM_CASES)
            .map(|seed| (format!("random seed {seed}"), random_case(&scenario, seed)));
        let cases: Vec<(String, Case)> = golden.chain(random).collect();
        let next = AtomicUsize::new(0);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let mut broken: Vec<(usize, String)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut broken = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some((name, case)) = cases.get(index) else {
                                return broken;
                            };
                            if let Some(difference) = memos_off_difference(case) {
                                broken.push((index, format!("{name}: {difference}")));
                            }
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|worker| worker.join().expect("a case panicked"))
                .collect()
        });
        broken.sort();
        assert!(
            broken.is_empty(),
            "{} of {} cases run differently with memos off; the first is {}",
            broken.len(),
            cases.len(),
            broken[0].1
        );
    }
}
