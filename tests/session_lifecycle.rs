//! Session-lifecycle invariants, property-tested over randomized
//! offered loads, holding times, tick periods, admission settings and
//! horizons:
//!
//! * every opened session is closed, shed, or active-at-end — exactly
//!   one of the three,
//! * per-session event times are monotone in virtual time
//!   (`opened ≤ started ≤ rung history ≤ closed`),
//! * the lifecycle counters partition exactly
//!   (`opened == closed + shed + active_at_end`),
//! * time accounting is exact (`lit + dark == active`, rung buckets sum
//!   to the lit time),
//! * a shed session never reached a worker (`attempts == 0`), a session
//!   that streamed composed at least once, and nothing sheds without an
//!   admission queue,
//! * a poisoned request — one whose composition panics — fails its own
//!   open after one attempt, and no healthy session fails,
//! * the whole report — and the merged telemetry log — is bitwise
//!   deterministic across repeated runs and across worker counts.
//!
//! Holding times include 0, so every case may carry zero-hold sessions:
//! a batch, served on the same loop.

use proptest::prelude::*;
use qosc_core::{
    run_sessions, AdmissionStats, ArrivalMeta, CloseReason, CompositionRequest, PriorityClass,
    SessionEngineConfig, SessionRequest, SessionsReport, StaticWorld,
};
use qosc_media::{AxisDomain, DomainVector, FormatRegistry, VariantSpec};
use qosc_netsim::{Network, Node, NodeId, Topology};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};
use qosc_telemetry::FlightRecorder;

struct Fixture {
    formats: FormatRegistry,
    services: ServiceRegistry,
    network: Network,
    server: NodeId,
    client: NodeId,
}

/// server —100M— proxy —1M— client with the full transcoder catalog on
/// the proxy: small enough that a proptest case composes in
/// microseconds, rich enough that every session serves a real chain.
fn fixture() -> Fixture {
    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let client = topo.add_node(Node::unconstrained("client"));
    topo.connect_simple(server, proxy, 100e6).unwrap();
    topo.connect_simple(proxy, client, 1e6).unwrap();
    let network = Network::new(topo);
    let mut services = ServiceRegistry::new();
    for spec in catalog::full_catalog() {
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
    }
    Fixture {
        formats,
        services,
        network,
        server,
        client,
    }
}

#[derive(Debug, Clone)]
struct Offered {
    arrival_us: u64,
    hold_us: u64,
    priority: PriorityClass,
    cost_us: u64,
    deadline_us: Option<u64>,
    /// The content profile violates the non-empty-domain invariant: the
    /// optimizer panics on it.
    poisoned: bool,
}

#[derive(Debug, Clone)]
struct Case {
    offered: Vec<Offered>,
    tick_us: u64,
    with_admission: bool,
    horizon_us: Option<u64>,
}

fn offered_strategy() -> impl Strategy<Value = Offered> {
    (
        0u64..2_000_000,
        prop_oneof![Just(0u64), 1u64..4_000_000],
        prop_oneof![
            Just(PriorityClass::Interactive),
            Just(PriorityClass::Standard),
            Just(PriorityClass::Background),
        ],
        1u64..50_000,
        prop_oneof![Just(None), (1u64..500_000).prop_map(Some)],
        0u8..8,
    )
        .prop_map(
            |(arrival_us, hold_us, priority, cost_us, deadline_us, poison)| Offered {
                arrival_us,
                hold_us,
                priority,
                cost_us,
                deadline_us,
                poisoned: poison == 0,
            },
        )
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(offered_strategy(), 1..12),
        prop_oneof![Just(0u64), Just(100_000u64), Just(250_000u64)],
        proptest::bool::ANY,
        prop_oneof![Just(None), (500_000u64..3_000_000).prop_map(Some)],
    )
        .prop_map(|(offered, tick_us, with_admission, horizon_us)| Case {
            offered,
            tick_us,
            with_admission,
            horizon_us,
        })
}

/// The case's offers in arrival order: the admission queue expects
/// offers in arrival order, and the engine opens sessions in offer
/// order, so sort like plan_admission does.
fn offers(case: &Case) -> Vec<Offered> {
    let mut offered = case.offered.clone();
    offered.sort_by_key(|o| o.arrival_us);
    offered
}

fn requests_for(f: &Fixture, case: &Case) -> Vec<SessionRequest> {
    offers(case)
        .iter()
        .map(|o| SessionRequest {
            request: CompositionRequest {
                profiles: ProfileSet {
                    user: UserProfile::demo("user"),
                    content: if o.poisoned {
                        ContentProfile::new(
                            "poison",
                            vec![VariantSpec {
                                format: "video/mpeg2".to_string(),
                                offered: DomainVector::new().with(
                                    qosc_media::Axis::FrameRate,
                                    AxisDomain::Discrete(vec![]),
                                ),
                            }],
                        )
                    } else {
                        ContentProfile::demo_video("clip")
                    },
                    device: DeviceProfile::demo_pda(),
                    context: ContextProfile::default(),
                    network: NetworkProfile::broadband(),
                },
                sender_host: f.server,
                receiver_host: f.client,
            },
            arrival: ArrivalMeta {
                arrival_us: o.arrival_us,
                priority: o.priority,
                service_cost_us: o.cost_us,
                deadline_budget_us: o.deadline_us,
            },
            hold_us: o.hold_us,
            demand_bps: 0,
        })
        .collect()
}

fn config_for(case: &Case, workers: usize) -> SessionEngineConfig {
    let mut config = SessionEngineConfig {
        tick_us: case.tick_us,
        horizon_us: case.horizon_us,
        ..SessionEngineConfig::default()
    };
    config.resilient.workers = workers;
    if !case.with_admission {
        config.admission = None;
    }
    config
}

fn run_case(f: &Fixture, case: &Case, workers: usize) -> (SessionsReport, String) {
    let mut world = StaticWorld {
        formats: &f.formats,
        services: &f.services,
        network: &f.network,
    };
    let requests = requests_for(f, case);
    let recorder = FlightRecorder::new(8);
    let report = run_sessions(&mut world, &requests, &config_for(case, workers), &recorder);
    (report, recorder.render_log())
}

fn assert_lifecycle_invariants(case: &Case, report: &SessionsReport) {
    let c = &report.counters;
    assert_eq!(c.offered, case.offered.len(), "one outcome slot per offer");
    assert_eq!(report.outcomes.len(), c.offered);
    assert!(
        c.partitions_exactly(),
        "opened {} != closed {} + shed {} + active {}",
        c.opened,
        c.closed(),
        c.shed,
        c.active_at_end
    );

    if case.with_admission {
        assert_eq!(
            c.shed,
            report.admission.shed_total(),
            "a static world sheds only opens"
        );
    } else {
        assert_eq!(c.shed, 0, "nothing sheds without an admission queue");
        assert_eq!(report.admission, AdmissionStats::default());
    }

    let offers = offers(case);
    let mut opened = 0usize;
    let mut closed = 0usize;
    let mut shed = 0usize;
    for (i, o) in report.outcomes.iter().enumerate() {
        if !o.opened {
            // Arrival past the horizon: nothing may have happened.
            assert!(o.close.is_none() && o.shed.is_none() && o.started_us.is_none());
            continue;
        }
        opened += 1;
        // Closed or shed — never both, at most once each.
        assert!(
            !(o.close.is_some() && o.shed.is_some()),
            "session {i} both closed and shed"
        );
        if o.shed.is_some() {
            shed += 1;
            assert!(o.started_us.is_none(), "shed session {i} streamed");
            assert_eq!(o.active_us(), 0);
            assert_eq!(o.attempts, 0, "shed session {i} reached a worker");
        }
        if o.started_us.is_some() {
            assert!(o.attempts >= 1, "session {i} streamed uncomposed");
            assert!(
                o.final_rung.is_some(),
                "session {i} streamed without a rung"
            );
        }
        if offers[i].poisoned {
            assert!(o.started_us.is_none(), "poisoned session {i} streamed");
            if let Some(reason) = o.close {
                assert_eq!(reason, CloseReason::FailedOpen, "poisoned session {i}");
                assert_eq!(
                    o.attempts, 1,
                    "poisoned session {i}: a panic is not retried"
                );
            }
        } else {
            assert_ne!(
                o.close,
                Some(CloseReason::FailedOpen),
                "healthy session {i} failed"
            );
        }
        if let Some(reason) = o.close {
            closed += 1;
            let closed_us = o
                .closed_us
                .unwrap_or_else(|| panic!("session {i} closed as {reason} without a close time"));
            assert!(closed_us >= o.opened_us, "session {i} closed before open");
        }

        // Virtual-time monotonicity through the session's events.
        if let Some(started) = o.started_us {
            assert!(started >= o.opened_us, "session {i} started before open");
            if let Some(closed_us) = o.closed_us {
                assert!(closed_us >= started, "session {i} closed before start");
            }
            assert_eq!(
                o.rung_history.first().map(|&(t, _)| t),
                Some(started),
                "session {i}: first rung adoption is the start"
            );
        } else {
            assert_eq!(o.active_us(), 0, "session {i} accrued without starting");
        }
        let mut last = o.opened_us;
        for &(t, _) in &o.rung_history {
            assert!(t >= last, "session {i} rung history out of order");
            last = t;
        }

        // Exact time accounting.
        assert_eq!(o.lit_us + o.dark_us, o.active_us());
        assert_eq!(
            o.rung_us.iter().sum::<u64>(),
            o.lit_us,
            "session {i}: rung buckets must partition lit time"
        );
        if let Some(horizon) = case.horizon_us {
            assert!(o.closed_us.unwrap_or(horizon) <= horizon);
        }
    }
    assert_eq!(opened, c.opened);
    assert_eq!(closed, c.closed());
    assert_eq!(shed, c.shed);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn lifecycle_partition_and_monotonicity(case in case_strategy()) {
        let f = fixture();
        let (report, _) = run_case(&f, &case, 1);
        assert_lifecycle_invariants(&case, &report);
    }

    #[test]
    fn bitwise_deterministic_across_runs_and_workers(case in case_strategy()) {
        let f = fixture();
        let (first, log_first) = run_case(&f, &case, 1);
        let rendered_first = format!("{first:?}");
        // Repeat at the same worker count, then across worker counts.
        for workers in [1usize, 2, 4] {
            let (report, log) = run_case(&f, &case, workers);
            prop_assert_eq!(
                &rendered_first,
                &format!("{report:?}"),
                "report diverged at {} workers",
                workers
            );
            prop_assert_eq!(
                &log_first,
                &log,
                "telemetry log diverged at {} workers",
                workers
            );
        }
    }
}
