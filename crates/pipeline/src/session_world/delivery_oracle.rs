//! Test-only exactness oracle for [`ChaosWorld`]'s per-session delivery
//! memo. Random sequences of world events (faults, crashes and revivals,
//! grey sags, settles), SLA writes between them (failure reports that
//! quarantine, probation and probes) and flow registrations and
//! departures run on a brokerless and a brokered world; after every step
//! each registered session's `session_delivery_ppm` must equal what a
//! memo-less world answers. Two regression tests pin the writes a key
//! without the registry epoch or without the world event count would
//! miss, and a counted-work gate holds a `benchmark/`-shaped chaos unit
//! to one full recompute per distinct sampled key.

use super::tests::{fixture, world, Hosts};
use super::*;
use crate::chaos::ChaosModel;
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, AdmissionConfig, CompositionRequest, ResilientEngineConfig,
    SelectOptions, SessionEngineConfig, SessionRequest, SlaConfig,
};
use qosc_workload::arrivals::{session_arrivals, ArrivalPattern, SessionPattern};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cell::{Cell, RefCell};

thread_local! {
    /// Every `(session, key)` `session_delivery_ppm` looked up on this
    /// thread, in order.
    pub(super) static SAMPLED: RefCell<Vec<(u64, DeliveryKey)>> = const { RefCell::new(Vec::new()) };
    /// Full delivery recomputes on this thread.
    pub(super) static RECOMPUTES: Cell<u64> = const { Cell::new(0) };
}

/// What `session_delivery_ppm` answers without a memo: shared-fate
/// without a grant, the session's grant over the plan's peak required
/// rate (0 when unroutable, capped by grey sags) with one.
fn fresh(w: &ChaosWorld, session: u64, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
    let Some(grant) = w.broker.as_ref().and_then(|b| b.grant(session)) else {
        return w.delivery_ppm(plan, demand_bps);
    };
    if !w.plan_routable(plan) {
        return 0;
    }
    let (_, required_bps) = ChaosWorld::flow_shape(&w.network, plan, demand_bps);
    let ppm = grant.saturating_mul(1_000_000) / required_bps.max(1);
    ppm.min(w.plan_sag_cap(plan))
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
        let stamp = (w.services().epoch(), w.network().version());
        let sag = ChaosAction::SagMember {
            index,
            throughput_permille: 300,
        };
        apply(&mut w, 2_000_000, WorldOp::Action(sag));
        assert_eq!(stamp, (w.services().epoch(), w.network().version()));
        let sagged = w.session_delivery_ppm(0, 1, &plan, 0);
        assert_eq!(sagged, fresh(&w, 0, &plan, 0), "{sharing:?}");
        assert!(sagged < healthy, "{sharing:?}: {sagged} vs {healthy}");
    }
}

/// One registered session in a driven sequence.
#[derive(Clone, Copy)]
struct Registered {
    plan: usize,
    gen: u32,
    demand_bps: u64,
}

/// What a driven sequence exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Samples answered from a stored entry.
    hits: u64,
    /// Answers that changed while only the registry epoch moved.
    registry_moves: u64,
    /// Answers that changed while only the world event count moved.
    mutation_moves: u64,
}

const SESSIONS: u64 = 3;
const DEMANDS: [u64; 3] = [0, 400_000, 3_000_000];

/// `(world event count, registry epoch, network version)`.
type Stamp = (u64, u64, u64);

/// Drive `steps` random writes from `seed` on the fixture world, with
/// `sharing`; after each, hold every registered session's answer (asked
/// twice) to [`fresh`].
fn drive(seed: u64, sharing: Option<SharingPolicy>, steps: usize) -> Coverage {
    let f = fixture();
    let (mut w, h) = world(&f);
    w.set_sharing(sharing);
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = compose(&w, &h).expect("the fixture composes");
    let mut collapsed = base.clone();
    for step in &mut collapsed.steps {
        step.host = h.proxy;
    }
    let mut plans = vec![base, collapsed];
    let links: Vec<LinkId> = w.network().topology().link_ids().collect();
    let members = w.members().len();
    let mut sessions: [Option<Registered>; SESSIONS as usize] = [None; SESSIONS as usize];
    let mut gens = [0u32; SESSIONS as usize];
    // Per session: the stamp and answer of its last sample.
    let mut last: [Option<(Stamp, u64)>; SESSIONS as usize] = [None; SESSIONS as usize];
    let mut coverage = Coverage::default();
    let mut now = 0u64;
    for step in 0..steps {
        now += rng.random_range(0..=2_000_000u64);
        let link = links[rng.random_range(0..links.len())];
        let member = rng.random_range(0..members);
        let plan = &plans[rng.random_range(0..plans.len())];
        let services: Vec<ServiceId> = plan.steps.iter().filter_map(|s| s.service).collect();
        let service = services[rng.random_range(0..services.len())];
        match rng.random_range(0..16u32) {
            0 => {
                let permille = rng.random_range(0..=1_000u16);
                let fault = FailureEvent::Squeeze { link, permille };
                apply(&mut w, now, WorldOp::Fault(fault));
            }
            1 => apply(&mut w, now, WorldOp::Fault(FailureEvent::Unsqueeze(link))),
            2 => apply(&mut w, now, WorldOp::Fault(FailureEvent::NodeDown(h.proxy))),
            3 => apply(&mut w, now, WorldOp::Fault(FailureEvent::NodeUp(h.proxy))),
            4 => apply(&mut w, now, WorldOp::Fault(FailureEvent::LinkDown(link))),
            5 => apply(&mut w, now, WorldOp::Fault(FailureEvent::LinkUp(link))),
            6 => apply(
                &mut w,
                now,
                WorldOp::Action(ChaosAction::CrashMember(member)),
            ),
            7 => {
                for i in 0..members {
                    apply(&mut w, now, WorldOp::Action(ChaosAction::CrashMember(i)));
                }
            }
            8 => apply(
                &mut w,
                now,
                WorldOp::Action(ChaosAction::ReviveMember(member)),
            ),
            9 => {
                // Sag a member of a plan half the time, any member else.
                let index = w.grey_index(service).filter(|_| rng.random_bool(0.5));
                let sag = ChaosAction::SagMember {
                    index: index.unwrap_or(member),
                    throughput_permille: rng.random_range(0..=1_000u16),
                };
                apply(&mut w, now, WorldOp::Action(sag));
            }
            10 => apply(
                &mut w,
                now,
                WorldOp::Action(ChaosAction::UnsagMember(member)),
            ),
            11 => apply(&mut w, now, WorldOp::Settle),
            12 => {
                for k in 0..rng.random_range(1..=3u64) {
                    w.report_service_failure(service, now + k);
                }
            }
            13 => {
                if rng.random_bool(0.5) {
                    w.probate_service(service, rng.random_range(0..=1_000_000u64), now);
                } else {
                    w.probe_service(service, now);
                }
            }
            14 => {
                // Adopt a plan: a new generation, pinned with the broker.
                if rng.random_bool(0.25) {
                    plans.extend(compose(&w, &h));
                }
                let session = rng.random_range(0..SESSIONS);
                let gen = &mut gens[session as usize];
                *gen += 1;
                let registered = Registered {
                    plan: rng.random_range(0..plans.len()),
                    gen: *gen,
                    demand_bps: DEMANDS[rng.random_range(0..DEMANDS.len())],
                };
                let plan = &plans[registered.plan];
                w.register_session_flow(session, plan, registered.demand_bps, 2);
                sessions[session as usize] = Some(registered);
                // Compare answers within one plan generation only.
                last[session as usize] = None;
            }
            _ => {
                let session = rng.random_range(0..SESSIONS);
                w.deregister_session_flow(session);
                sessions[session as usize] = None;
                last[session as usize] = None;
            }
        }
        let stamp = (
            w.world_mutations,
            w.services().epoch(),
            w.network().version(),
        );
        for session in 0..SESSIONS {
            let Some(s) = sessions[session as usize] else {
                continue;
            };
            let plan = &plans[s.plan];
            let key = DeliveryKey {
                plan_gen: s.gen,
                mutation: stamp.0,
                registry_epoch: stamp.1,
                net_version: stamp.2,
                demand_bps: s.demand_bps,
            };
            let cache = w.delivery_cache.lock();
            let stored = cache.entries.get(&session).is_some_and(|e| e.key == key);
            drop(cache);
            coverage.hits += u64::from(stored);
            let got = w.session_delivery_ppm(session, s.gen, plan, s.demand_bps);
            let again = w.session_delivery_ppm(session, s.gen, plan, s.demand_bps);
            let want = fresh(&w, session, plan, s.demand_bps);
            let context = format!("seed {seed} {sharing:?} step {step} session {session}");
            assert_eq!(got, want, "{context}: memo vs fresh");
            assert_eq!(again, want, "{context}: memo (repeated) vs fresh");
            if let Some((before, answer)) = last[session as usize].replace((stamp, want)) {
                if answer != want {
                    let moved = (
                        before.0 != stamp.0,
                        before.1 != stamp.1,
                        before.2 != stamp.2,
                    );
                    coverage.registry_moves += u64::from(moved == (false, true, false));
                    coverage.mutation_moves += u64::from(moved == (true, false, false));
                }
            }
        }
    }
    coverage
}

/// Writes per driven sequence.
const STEPS: usize = 24;

/// Every answer the memo gives equals a memo-less answer, after every
/// step of random write sequences, with and without a broker.
#[test]
fn delivery_memo_answers_equal_fresh_answers() {
    let config = proptest::ProptestConfig {
        cases: 256,
        ..proptest::ProptestConfig::default()
    };
    for sharing in [None, Some(SharingPolicy::WeightedMaxMin)] {
        proptest::run_cases(
            config.clone(),
            &format!("delivery_memo {sharing:?}"),
            |rng| {
                drive(rng.random_range(0..1u64 << 48), sharing, STEPS);
            },
        );
    }
}

/// The driven sequences reach what a key missing a part would get wrong
/// — an answer moved by the registry epoch alone, and one moved by the
/// world event count alone — and they hit, so stored answers are what
/// is checked.
#[test]
fn driven_sequences_cover_every_key_part_and_hit() {
    for sharing in [None, Some(SharingPolicy::WeightedMaxMin)] {
        let mut total = Coverage::default();
        for seed in 0..64 {
            let c = drive(seed, sharing, STEPS);
            total.hits += c.hits;
            total.registry_moves += c.registry_moves;
            total.mutation_moves += c.mutation_moves;
        }
        println!("{sharing:?}: {total:?}");
        assert!(total.hits > 0, "{sharing:?}: {total:?}");
        assert!(total.registry_moves > 0, "{sharing:?}: {total:?}");
        assert!(total.mutation_moves > 0, "{sharing:?}: {total:?}");
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
