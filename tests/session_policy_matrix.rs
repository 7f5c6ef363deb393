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

use std::sync::atomic::{AtomicU64, Ordering};

use qosc_bench::scorecard::{self, Digest};
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, AdaptationPlan, AdmissionConfig, ArrivalMeta, Composer,
    CompositionRequest, PriorityClass, ResilientEngineConfig, SelectOptions, SessionEngineConfig,
    SessionRequest, SessionWorld, SessionsReport, SlaConfig, SlaMode,
};
use qosc_netsim::{LinkId, SimTime};
use qosc_pipeline::{ChaosAction, ChaosWorld, FailureEvent, SharingPolicy};
use qosc_services::{DiscoveryConfig, QosObservation, ServiceId};
use qosc_telemetry::FlightRecorder;
use qosc_workload::Scenario;

const GOLDEN: &str = include_str!("session_policy_matrix.golden");

const SESSIONS: usize = 24;
const HORIZON_US: u64 = 10_000_000;
/// Short leases, so a crashed member's advertisement dies inside the
/// horizon.
const LEASE_TTL_US: u64 = 2_000_000;

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
/// are still open at the horizon.
fn requests(scenario: &Scenario) -> Vec<SessionRequest> {
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
                // Per-session demands, so brokered flows differ in
                // their registered windows and contend.
                demand_bps: [0, 2_000, 4_000, 8_000][(i as usize / 2) % 4],
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

/// One run's golden row, and the report behind it.
struct Run {
    row: String,
    report: SessionsReport,
}

fn run(setting: Setting, workers: usize) -> Run {
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
    let requests = requests(&scenario);
    let mut inner = ChaosWorld::new(
        &scenario.formats,
        scenario.network,
        DiscoveryConfig {
            ttl: SimTime(LEASE_TTL_US),
        },
    );
    for (_, descriptor) in scenario.services.live_services() {
        inner.join(descriptor.clone());
    }
    schedule_chaos(&mut inner, &sick, access_link);
    match SHARING[setting.sharing].1 {
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
        &setting.engine_config(workers),
        &recorder,
    );
    let mut log = Digest::new();
    log.update(&recorder.render_log());
    let mut row = format!(
        "{} {:016x} {:016x}",
        setting.label(),
        scorecard::sessions_digest_with_admission(&report),
        log.finish()
    );
    if setting.constructed() {
        row.push_str(" | ");
        row.push_str(&world.render_calls());
    }
    Run { row, report }
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
        let Run { row, report } = run(setting, 1);
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
        assert_eq!(run(setting, 1).row, run(setting, 4).row);
    }
}
