//! Regression tests and the counted-work gate of [`ChaosWorld`]'s
//! per-session delivery memo. That every answer equals a memo-less one
//! is the whole-run memo-off property of `tests/session_policy_matrix.rs`;
//! the two regressions here name, one instant each, the writes a key
//! without the registry epoch or without the world event count would
//! miss, and the gate holds a `benchmark/`-shaped chaos unit to one full
//! recompute per distinct sampled key.

use super::tests::{fixture, world, Hosts};
use super::*;
use crate::chaos::ChaosModel;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, AdmissionConfig, CompositionRequest, ResilientEngineConfig,
    SelectOptions, SessionEngineConfig, SessionRequest, SlaConfig,
};
use qosc_workload::arrivals::{session_arrivals, ArrivalPattern, SessionPattern};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use std::cell::{Cell, RefCell};

thread_local! {
    /// Every `(session, key)` `session_delivery_ppm` looked up on this
    /// thread, in order.
    pub(super) static SAMPLED: RefCell<Vec<(u64, DeliveryKey)>> = const { RefCell::new(Vec::new()) };
    /// Full delivery recomputes on this thread.
    pub(super) static RECOMPUTES: Cell<u64> = const { Cell::new(0) };
}

/// The fixture's server → proxy → client chain.
fn compose(w: &ChaosWorld, h: &Hosts) -> Option<AdaptationPlan> {
    w.composer()
        .compose(
            &super::tests::profiles(),
            h.server,
            h.client,
            &SelectOptions::default(),
        )
        .ok()?
        .plan
}

/// Apply `op` at `now` as the next world event.
fn apply(w: &mut ChaosWorld, now: u64, op: WorldOp) {
    w.schedule(now, op);
    w.apply_world_event(w.world_event_times().len() - 1);
}

/// A quarantine between world events kills routability at once (the
/// `Binary` and `DriftAware` SLA policies report failures from inside an
/// instant): a hard-unroutable plan delivers 0, memo or not.
#[test]
fn a_quarantine_between_world_events_reaches_the_delivery_memo() {
    let f = fixture();
    for sharing in [None, Some(SharingPolicy::WeightedMaxMin)] {
        let (mut w, h) = world(&f);
        w.set_sharing(sharing);
        let plan = compose(&w, &h).expect("the fixture composes");
        w.register_session_flow(0, &plan, 0, 2);
        assert!(w.session_delivery_ppm(0, 1, &plan, 0) > 0);
        let sick = plan
            .steps
            .iter()
            .find_map(|s| s.service)
            .expect("a transcoder");
        for k in 0..3 {
            w.report_service_failure(sick, 1_000 + k);
        }
        assert!(!w.plan_routable(&plan), "three failures quarantine");
        assert_eq!(w.delivery_ppm(&plan, 0), 0);
        assert_eq!(w.session_delivery_ppm(0, 1, &plan, 0), 0, "{sharing:?}");
    }
}

/// A world event that moves neither the registry epoch nor the network
/// version — a sag once every member has crashed (nothing renews) but
/// before the leases lapse — changes delivery through the world event
/// count alone.
#[test]
fn a_sag_seen_only_by_the_world_event_count_reaches_the_delivery_memo() {
    let f = fixture();
    for sharing in [None, Some(SharingPolicy::WeightedMaxMin)] {
        let (mut w, h) = world(&f);
        w.set_sharing(sharing);
        let plan = compose(&w, &h).expect("the fixture composes");
        w.register_session_flow(0, &plan, 0, 2);
        let sick = plan
            .steps
            .iter()
            .find_map(|s| s.service)
            .expect("a transcoder");
        let index = w.grey_index(sick).expect("a live member");
        for i in 0..w.members().len() {
            apply(
                &mut w,
                1_000_000,
                WorldOp::Action(ChaosAction::CrashMember(i)),
            );
        }
        let healthy = w.session_delivery_ppm(0, 1, &plan, 0);
        let stamp = WorldStamp::of(w.services(), w.network());
        let sag = ChaosAction::SagMember {
            index,
            throughput_permille: 300,
        };
        apply(&mut w, 2_000_000, WorldOp::Action(sag));
        assert_eq!(stamp, WorldStamp::of(w.services(), w.network()));
        let sagged = w.session_delivery_ppm(0, 1, &plan, 0);
        assert!(sagged < healthy, "{sharing:?}: {sagged} vs {healthy}");
        assert!(
            sagged <= 300_000,
            "{sharing:?}: the sag caps delivery at 30 %"
        );
    }
}

/// Counted-work gate: on a `benchmark/`-shaped `sessions_chaos` unit (the
/// strict X16 mesh under a storm, BOLA, the SLA watchdog, admission on;
/// shorter and sparser), the world runs one full delivery recompute per
/// distinct `(session, key)` the loop samples. Before the brokerless memo
/// it recomputed on every sample.
#[test]
fn a_chaos_unit_recomputes_delivery_once_per_distinct_key() {
    let scenario = random_scenario(
        &GeneratorConfig {
            services_per_layer: 5,
            multi_axis: true,
            ..GeneratorConfig::default()
        },
        5,
    );
    let topology = scenario.network.topology();
    let backbone = topology
        .node_by_name("backbone")
        .expect("generated meshes have a backbone");
    let model = ChaosModel {
        total_duration: SimTime::from_secs(10),
        flap_rate_per_min: 0.0,
        protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
        ..ChaosModel::default()
    };
    let chaos = ChaosPlan::generate(topology, scenario.services.live_count(), &model, 1, 1.0);
    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: 8_000_000,
            rate_per_sec: 32,
            ..ArrivalPattern::default()
        },
        hold_range_us: (500_000, 1_500_000),
        demand_range_bps: (0, 0),
    };
    let requests: Vec<SessionRequest> = session_arrivals(&pattern, 1_000)
        .into_iter()
        .map(|arrival| SessionRequest {
            request: CompositionRequest {
                profiles: scenario.profiles.clone(),
                sender_host: scenario.sender_host,
                receiver_host: scenario.receiver_host,
            },
            arrival: arrival.meta,
            hold_us: arrival.hold_us,
            demand_bps: arrival.demand_bps,
        })
        .collect();
    let config = SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers: 1,
            ..ResilientEngineConfig::default()
        },
        admission: Some(AdmissionConfig {
            virtual_cores: 512,
            initial_limit: 512,
            max_limit: 1024,
            ..AdmissionConfig::protected()
        }),
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(10_000_000),
        session_spans: false,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: Some(SlaConfig::default()),
    };
    let mut w = ChaosWorld::new(
        &scenario.formats,
        scenario.network,
        DiscoveryConfig::default(),
    );
    for (_, descriptor) in scenario.services.live_services() {
        w.join(descriptor.clone());
    }
    w.load_plan(&chaos);

    SAMPLED.with(|sampled| sampled.borrow_mut().clear());
    let before = RECOMPUTES.with(Cell::get);
    let report = run_sessions(&mut w, &requests, &config, &qosc_telemetry::NoopSink);
    let recomputes = RECOMPUTES.with(Cell::get) - before;
    let mut sampled = SAMPLED.with(RefCell::take);
    let samples = sampled.len() as u64;
    sampled.sort_unstable();
    sampled.dedup();
    let distinct = sampled.len() as u64;
    println!(
        "{} sessions, {samples} delivery samples, {distinct} distinct keys, \
         {recomputes} recomputes",
        requests.len()
    );
    assert!(
        report.outcomes.iter().any(|o| o.recompositions > 0),
        "the storm broke plans"
    );
    assert_eq!(recomputes, distinct, "one recompute per distinct key");
    assert_eq!(
        (samples, distinct),
        (SAMPLES, DISTINCT_KEYS),
        "deterministic"
    );
    assert_eq!(w.delivery_cache_stats(), DeliveryCacheStats::default());
}

/// What the unit samples: every one of them was a full recompute before
/// the brokerless memo.
const SAMPLES: u64 = 1_351;
/// What it recomputes now.
const DISTINCT_KEYS: u64 = 409;
