//! The session engine's discrete-event loop.
//!
//! One [`EventQueue`] drives everything. Event ordering at equal
//! virtual times is the queue's insertion order, and the engine
//! schedules deliberately:
//!
//! 1. **world events** are scheduled before any session event, so a
//!    fault at `t` is visible to everything else happening at `t`;
//! 2. **session opens** follow, in session-index order — at equal
//!    arrival times the admission queue therefore sees offers in the
//!    exact order [`plan_admission`](crate::plan_admission) would have
//!    offered them;
//! 3. events scheduled *during* the run (admission pumps, progress
//!    ticks, closes) pop after those, in creation order.
//!
//! The admission queue is drained through **pump events**: whenever
//! work is running, a pump is scheduled at the earliest virtual
//! completion. This keeps the load-bearing invariant that the queue is
//! never drained past the next offer's arrival time — every offer
//! happens at the current event time, every drain happens at an event
//! time, so the admission simulation sees exactly the same
//! offer/completion interleaving as the batch planner and makes
//! bitwise-identical decisions.
//!
//! Compositions triggered at one virtual instant are collected and
//! fanned out across the engine's worker pool (`engine::fan_out`); each
//! job is a pure function of its request and the world snapshot (the
//! snapshot cannot change mid-instant: all world events at that time
//! were applied first), so results — applied in job-collection order —
//! are independent of worker count.

use qosc_netsim::{EventQueue, SimTime};
use qosc_services::{ServiceId, SlaVerdict, SlaWatchdog};
use qosc_telemetry::{EventKind, RequestTrace, TelemetrySink, TraceState, ROOT_SPAN};

use crate::admission::{AdmissionQueue, ArrivalMeta, ShedReason};
use crate::engine::{fan_out, serve_one, DegradationRung, RequestOutcome};
use crate::graph::GraphStore;
use crate::plan::AdaptationPlan;

use super::abr::{AbrMode, BolaController, PlayoutBuffer};
use super::{
    CloseReason, SessionCounters, SessionEngineConfig, SessionOutcome, SessionRequest,
    SessionWorld, SessionsReport, SlaMode,
};

/// One pending composition at the current virtual instant.
#[derive(Debug, Clone, Copy)]
struct Job {
    session: usize,
    start_rung: DegradationRung,
    kind: JobKind,
    /// Plan generation the job was issued against. A switch whose
    /// generation is stale by apply time (the plan changed underneath
    /// it) is discarded — the session keeps its current plan.
    gen: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// The session's opening composition.
    Open,
    /// Mid-stream repair after the plan died (goes dark first).
    Recompose,
    /// Controller-requested rung change, make-before-break: the
    /// session keeps streaming on its old plan until the new one
    /// serves; a failed or stale switch changes nothing.
    Switch,
    /// SLA-triggered proactive re-composition away from a chain with a
    /// flagged (grey-failing) service, make-before-break like `Switch`:
    /// the session keeps streaming on its sagging plan until the
    /// replacement serves; a failed, stale, or identical result changes
    /// nothing.
    Evade,
}

/// What a composition that served hands its session.
struct Served {
    plan: AdaptationPlan,
    rung: DegradationRung,
    satisfaction: f64,
}

/// Buffer-aware state attached to a streaming session when
/// [`SessionEngineConfig::abr`] is set.
struct AbrSess {
    buffer: PlayoutBuffer,
    controller: BolaController,
    /// Current fill rate, ppm of playback speed — resampled at plan
    /// adoption, at world events and at every progress tick.
    fill_ppm: u64,
    /// Bumps at every plan adoption; guards in-flight switches.
    gen: u32,
    /// A switch composition is in flight this instant.
    switching: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Open event not yet processed.
    Created,
    /// Offered (queued in admission, or composing its open this
    /// instant).
    PendingOpen,
    /// Streaming on a live plan.
    Active,
    /// Plan invalidated; a re-composition is queued or composing.
    Recomposing,
    /// Closed or shed.
    Done,
}

struct Sess {
    phase: Phase,
    trace: Option<TraceState>,
    plan: Option<AdaptationPlan>,
    rung: DegradationRung,
    satisfaction: f64,
    last_accrual_us: u64,
    outcome: SessionOutcome,
    /// Present only when the engine runs with a buffer model
    /// (`config.abr` set) and the session has started streaming; the
    /// `None` path takes exactly the pre-buffer code paths.
    abr: Option<AbrSess>,
    /// Bumps at every plan adoption; guards in-flight evasions the way
    /// `AbrSess::gen` guards switches (evasions also run without a
    /// buffer model, so they need their own generation counter).
    plan_gen: u32,
    /// An evasion composition is in flight.
    evading: bool,
    /// Virtual time of the last evasion issued; enforces
    /// [`SlaConfig::evade_dwell_us`](super::SlaConfig::evade_dwell_us).
    last_evade_us: Option<u64>,
}

enum Ev {
    /// Apply world mutation `k`.
    World(usize),
    /// Session `i` arrives.
    Open(usize),
    /// Drain the admission queue to now and surface new decisions.
    Pump,
    /// Progress epoch for session `i`.
    Tick(usize),
    /// Session `i`'s holding time elapses.
    Close(usize),
}

struct Loop<'a, 'w, W: SessionWorld, S: TelemetrySink> {
    world: &'w mut W,
    requests: &'a [SessionRequest],
    config: &'a SessionEngineConfig,
    sink: &'a S,
    queue: EventQueue<Ev>,
    admission: Option<AdmissionQueue>,
    /// Ticket → `(session, is_recompose)`; tickets are issued
    /// sequentially by the admission queue.
    tickets: Vec<(usize, bool)>,
    /// Virtual times with a pump already scheduled (dedup only — never
    /// iterated, so the hash order cannot leak into outcomes).
    pumps: std::collections::HashSet<u64>,
    sessions: Vec<Sess>,
    counters: SessionCounters,
    /// Jobs collected at the current instant.
    jobs: Vec<Job>,
    /// A world event fired at the current instant; live plans need a
    /// liveness check before time moves on.
    world_changed: bool,
    /// Grey-failure detector, present only in
    /// [`SlaMode::DriftAware`]; `None` takes the exact pre-SLA code
    /// paths.
    watchdog: Option<SlaWatchdog>,
    /// Last observed [`SessionWorld::grant_epoch`]. When the broker
    /// reallocates, streaming sessions re-sample their fill — rung
    /// reevaluation, not re-composition. Brokerless worlds never move
    /// the epoch, so this path stays cold.
    last_grant_epoch: u64,
    /// Indices of the `Phase::Active` sessions, ascending — what the
    /// per-instant scans walk instead of every offered session.
    /// Maintained by [`Loop::set_phase`], the only writer of
    /// `Sess::phase`.
    streaming: Vec<usize>,
    /// Reused copy of `streaming` for scans whose body ends streams.
    scan: Vec<usize>,
}

/// Priority-class weight fed to the broker: interactive traffic gets
/// four shares for every background share.
fn priority_weight(priority: crate::admission::PriorityClass) -> u32 {
    match priority {
        crate::admission::PriorityClass::Interactive => 4,
        crate::admission::PriorityClass::Standard => 2,
        crate::admission::PriorityClass::Background => 1,
    }
}

/// Run long-lived sessions through `world` until quiescence (or the
/// configured horizon) and report the lifecycle partition, per-session
/// accrual, and admission aggregates.
///
/// Deterministic: for fixed `(world, requests, config)` the report —
/// and, with session spans on, the merged telemetry log — is bitwise
/// identical across runs, machines, and worker counts.
pub fn run_sessions<W: SessionWorld + Sync, S: TelemetrySink>(
    world: &mut W,
    requests: &[SessionRequest],
    config: &SessionEngineConfig,
    sink: &S,
) -> SessionsReport {
    let horizon = config.horizon_us.unwrap_or(u64::MAX);
    let mut queue = EventQueue::new();
    // World events first (see module docs for the equal-time contract).
    for (k, &t) in world.world_event_times().iter().enumerate() {
        queue.schedule(SimTime(t), Ev::World(k));
    }
    for (i, request) in requests.iter().enumerate() {
        queue.schedule(SimTime(request.arrival.arrival_us), Ev::Open(i));
    }

    let n = requests.len();
    let initial_grant_epoch = world.grant_epoch();
    let mut lp = Loop {
        world,
        requests,
        config,
        sink,
        queue,
        admission: config.admission.map(AdmissionQueue::new),
        tickets: Vec::new(),
        pumps: std::collections::HashSet::new(),
        sessions: (0..n)
            .map(|_| Sess {
                phase: Phase::Created,
                trace: None,
                plan: None,
                rung: DegradationRung::Full,
                satisfaction: 0.0,
                last_accrual_us: 0,
                outcome: SessionOutcome::default(),
                abr: None,
                plan_gen: 0,
                evading: false,
                last_evade_us: None,
            })
            .collect(),
        counters: SessionCounters {
            offered: n,
            ..SessionCounters::default()
        },
        jobs: Vec::new(),
        world_changed: false,
        watchdog: config.sla.and_then(|sla| {
            (sla.mode == SlaMode::DriftAware).then(|| SlaWatchdog::new(sla.estimator))
        }),
        last_grant_epoch: initial_grant_epoch,
        streaming: Vec::new(),
        scan: Vec::new(),
    };

    // Shared per-run graph store: the world snapshot only moves at
    // world events, and the store itself revalidates against the
    // network epoch, so reuse across instants is safe and cheap.
    let graph_store = GraphStore::new();

    let mut end_us = 0u64;
    while let Some(head) = lp.queue.peek_time() {
        if head.0 > horizon {
            break;
        }
        let t = head.0;
        end_us = t;
        // Drain every event at this instant; handlers may schedule more
        // same-instant events (pumps, opens deciding immediately) and
        // collect compose jobs.
        loop {
            while lp.queue.peek_time() == Some(head) {
                let Some((_, ev)) = lp.queue.pop() else { break };
                lp.handle(t, ev);
            }
            if lp.world_changed {
                lp.world_changed = false;
                lp.check_liveness(t);
            }
            if lp.queue.peek_time() != Some(head) {
                break;
            }
        }
        // Fan the instant's compositions out across the worker pool and
        // apply results in collection order.
        if !lp.jobs.is_empty() {
            let jobs = std::mem::take(&mut lp.jobs);
            let results = lp.run_jobs(&jobs, &graph_store);
            for (job, result) in jobs.iter().zip(results) {
                lp.apply(t, *job, result);
            }
        }
        // Membership changes this instant (opens, closes, switches,
        // squeezes) may have moved the broker's grants; streaming
        // sessions react by re-evaluating their fill, never by
        // re-composing.
        lp.react_to_grants(t);
    }
    if let Some(h) = config.horizon_us {
        end_us = h;
    }

    // Sessions still open accrue to the end of the run and count as
    // active_at_end — the steady-state censoring term of the lifecycle
    // partition.
    for i in 0..n {
        match lp.sessions[i].phase {
            Phase::Active | Phase::Recomposing => {
                lp.accrue(i, end_us);
                lp.counters.active_at_end += 1;
            }
            Phase::PendingOpen => lp.counters.active_at_end += 1,
            Phase::Created | Phase::Done => {}
        }
    }

    let admission_stats = lp.admission.as_ref().map(|q| q.stats()).unwrap_or_default();
    let outcomes: Vec<SessionOutcome> = lp.sessions.into_iter().map(|s| s.outcome).collect();
    SessionsReport {
        outcomes,
        counters: lp.counters,
        admission: admission_stats,
        end_us,
    }
}

impl<W: SessionWorld + Sync, S: TelemetrySink> Loop<'_, '_, W, S> {
    /// Move session `i` to `phase`, keeping `streaming` the ascending
    /// list of `Phase::Active` sessions.
    fn set_phase(&mut self, i: usize, phase: Phase) {
        let was = self.sessions[i].phase == Phase::Active;
        let is = phase == Phase::Active;
        self.sessions[i].phase = phase;
        if was == is {
            return;
        }
        match self.streaming.binary_search(&i) {
            Err(at) if is => self.streaming.insert(at, i),
            Ok(at) if !is => {
                self.streaming.remove(at);
            }
            _ => debug_assert!(false, "streaming list out of step with phases"),
        }
    }

    fn handle(&mut self, t: u64, ev: Ev) {
        match ev {
            Ev::World(k) => {
                self.world.apply_world_event(k);
                self.world_changed = true;
            }
            Ev::Open(i) => self.open(t, i),
            Ev::Pump => {
                self.pumps.remove(&t);
                if let Some(q) = self.admission.as_mut() {
                    q.drain_until(t);
                }
                self.surface_decisions(t);
                self.schedule_pump(t);
            }
            Ev::Tick(i) => self.tick(t, i),
            Ev::Close(i) => {
                if matches!(self.sessions[i].phase, Phase::Active | Phase::Recomposing) {
                    self.close(t, i, CloseReason::Completed);
                }
            }
        }
    }

    fn open(&mut self, t: u64, i: usize) {
        let request = &self.requests[i];
        self.counters.opened += 1;
        self.set_phase(i, Phase::PendingOpen);
        let sess = &mut self.sessions[i];
        sess.outcome.opened = true;
        sess.outcome.opened_us = t;
        // The root span opens here (request id = session index) and its
        // counters persist in TraceState across every later step, so
        // the whole session is one monotone per-request sequence.
        let mut trace = RequestTrace::new(self.sink, i as u64, request.arrival.arrival_us);
        if self.config.session_spans {
            trace.emit(
                ROOT_SPAN,
                EventKind::SessionOpened {
                    hold_us: request.hold_us,
                },
            );
        }
        sess.trace = Some(trace.save());
        match self.admission.as_mut() {
            Some(q) => {
                let ticket = q.offer(request.arrival);
                debug_assert_eq!(ticket, self.tickets.len());
                self.tickets.push((i, false));
                self.surface_decisions(t);
                self.schedule_pump(t);
            }
            None => self.jobs.push(Job {
                session: i,
                start_rung: DegradationRung::Full,
                kind: JobKind::Open,
                gen: 0,
            }),
        }
    }

    /// Schedule a pump at the admission queue's next virtual
    /// completion, if none is already pending there.
    fn schedule_pump(&mut self, t: u64) {
        let Some(q) = self.admission.as_ref() else {
            return;
        };
        if let Some(finish) = q.next_finish_us() {
            debug_assert!(finish > t, "completions never land in the past");
            if finish > t && self.pumps.insert(finish) {
                self.queue.schedule(SimTime(finish), Ev::Pump);
            }
        }
    }

    /// Turn decisions the admission queue just made into compose jobs
    /// (admitted) or closes (shed).
    fn surface_decisions(&mut self, t: u64) {
        let Some(q) = self.admission.as_mut() else {
            return;
        };
        let newly = q.take_newly_decided();
        for ticket in newly {
            let (i, recompose) = self.tickets[ticket];
            if self.sessions[i].phase == Phase::Done {
                continue;
            }
            // `take_newly_decided` yields only tickets it has decided.
            let Some(decision) = self.admission.as_ref().and_then(|q| q.decision(ticket)) else {
                continue;
            };
            if recompose {
                if decision.admitted {
                    self.jobs.push(Job {
                        session: i,
                        // Never climb back above the session's current
                        // rung mid-stream; brown-out can push further
                        // down. (Controller up-switches go through
                        // `JobKind::Switch` instead, which skips this
                        // clamp deliberately.)
                        start_rung: self.sessions[i].rung.max(decision.start_rung),
                        kind: JobKind::Recompose,
                        gen: 0,
                    });
                } else {
                    // The queue refused the re-composition: the session
                    // starves.
                    if let (Some(state), Some(reason)) = (self.sessions[i].trace, decision.shed) {
                        let mut trace = RequestTrace::resume(self.sink, state);
                        trace.advance_to(t);
                        trace.emit(
                            ROOT_SPAN,
                            EventKind::RequestShed {
                                reason: reason.label(),
                            },
                        );
                        self.sessions[i].trace = Some(trace.save());
                    }
                    self.close(t, i, CloseReason::Starved);
                }
            } else {
                // A decision is admitted exactly when it carries no
                // shed reason.
                if let Some(reason) = decision.shed {
                    self.shed_open(t, i, reason, decision.queue_wait_us);
                } else {
                    // The admitted-request trace prologue of
                    // serve_batch_with_admission_traced, byte for byte.
                    if let Some(state) = self.sessions[i].trace {
                        let mut trace = RequestTrace::resume(self.sink, state);
                        let admission_span = trace.open_span(ROOT_SPAN, "admission");
                        trace.emit(
                            admission_span,
                            EventKind::RequestAdmitted {
                                queue_wait_us: decision.queue_wait_us,
                                rung: decision.start_rung.label(),
                            },
                        );
                        trace.advance_to(decision.start_us);
                        self.sessions[i].trace = Some(trace.save());
                    }
                    debug_assert_eq!(decision.start_us, t, "admissions start now");
                    self.jobs.push(Job {
                        session: i,
                        start_rung: decision.start_rung,
                        kind: JobKind::Open,
                        gen: 0,
                    });
                }
            }
        }
    }

    /// The admission queue refused a session's open.
    fn shed_open(&mut self, t: u64, i: usize, reason: ShedReason, queue_wait_us: u64) {
        let arrival_us = self.requests[i].arrival.arrival_us;
        if let Some(state) = self.sessions[i].trace {
            // Same event sequence as the shed arm of
            // serve_batch_with_admission_traced.
            let mut trace = RequestTrace::resume(self.sink, state);
            let admission_span = trace.open_span(ROOT_SPAN, "admission");
            trace.advance_to(arrival_us.saturating_add(queue_wait_us));
            trace.emit(
                admission_span,
                EventKind::RequestShed {
                    reason: reason.label(),
                },
            );
            if self.config.session_spans {
                trace.emit(ROOT_SPAN, EventKind::SessionClosed { reason: "shed" });
            }
            self.sessions[i].trace = Some(trace.save());
        }
        let sess = &mut self.sessions[i];
        sess.outcome.shed = Some(reason);
        sess.outcome.closed_us = Some(t);
        self.set_phase(i, Phase::Done);
        self.counters.shed += 1;
    }

    fn tick(&mut self, t: u64, i: usize) {
        if !matches!(self.sessions[i].phase, Phase::Active | Phase::Recomposing) {
            return; // stale tick of a closed session
        }
        self.sessions[i].outcome.epochs += 1;
        if self.config.session_spans {
            if let Some(state) = self.sessions[i].trace {
                let mut trace = RequestTrace::resume(self.sink, state);
                trace.advance_to(t);
                trace.open_span(ROOT_SPAN, "epoch");
                self.sessions[i].trace = Some(trace.save());
            }
        }
        // Buffer-aware sessions integrate up to the tick with the old
        // delivery rate, then resample it; `abr: None` keeps exactly
        // the pre-buffer accrual call pattern.
        if self.sessions[i].abr.is_some() {
            self.accrue(i, t);
            self.resample_fill(i);
        }
        // A tick re-checks liveness even without a world event: worlds
        // whose state decays between scheduled mutations (lease clocks)
        // surface breakage here at the latest.
        if self.sessions[i].phase == Phase::Active {
            if !self.plan_ok(i) {
                self.begin_recompose(t, i);
            } else {
                self.sla_tick(t, i);
                self.maybe_switch(t, i);
            }
        }
        if self.sessions[i].phase != Phase::Done {
            self.schedule_tick(t, i);
        }
    }

    fn schedule_tick(&mut self, t: u64, i: usize) {
        let tick = self.config.tick_us;
        if tick == 0 {
            return;
        }
        // Saturating guard: at the top of the u64 range the next tick
        // would not advance time, and scheduling it would spin forever.
        let next = t.saturating_add(tick);
        if next > t {
            self.queue.schedule(SimTime(next), Ev::Tick(i));
        }
    }

    /// World state changed at `t`: every streaming session re-checks
    /// its plan, in session-index order.
    fn check_liveness(&mut self, t: u64) {
        // A dead plan takes its session off `streaming` mid-scan, so walk
        // a copy. No session *starts* streaming in here (only `apply`
        // does that), so this visits exactly the sessions a scan of the
        // whole table would.
        let mut scan = std::mem::take(&mut self.scan);
        scan.clear();
        scan.extend_from_slice(&self.streaming);
        for &i in &scan {
            if self.sessions[i].phase != Phase::Active {
                continue;
            }
            // Buffer-aware sessions close the accrual interval before
            // the mutation changes their delivery rate.
            if self.sessions[i].abr.is_some() {
                self.accrue(i, t);
                self.resample_fill(i);
            }
            if !self.plan_ok(i) {
                self.begin_recompose(t, i);
            }
        }
        self.scan = scan;
    }

    /// Mode-dependent plan liveness. Reactive mode (and the no-buffer
    /// engine) treat a bandwidth squeeze as plan death
    /// ([`SessionWorld::plan_alive`]); the static-ladder and BOLA modes
    /// only die on hard faults ([`SessionWorld::plan_routable`]) — a
    /// squeeze degrades delivery and drains the buffer instead.
    fn plan_ok(&self, i: usize) -> bool {
        let Some(plan) = self.sessions[i].plan.as_ref() else {
            return false;
        };
        match self.config.abr.map(|a| a.mode) {
            Some(AbrMode::StaticLadder) | Some(AbrMode::Bola) => self.world.plan_routable(plan),
            Some(AbrMode::Reactive) | None => self.world.plan_alive(plan),
        }
    }

    /// Re-read the plan's achieved delivery rate from the world
    /// (capped at the configured maximum fill speed). Goes through the
    /// per-session channel so brokered worlds answer with the session's
    /// granted rate; the default implementation falls straight back to
    /// the shared-fate `delivery_ppm`.
    fn resample_fill(&mut self, i: usize) {
        let Some(cfg) = self.config.abr else {
            return;
        };
        let demand = self.requests[i].demand_bps;
        let plan_gen = self.sessions[i].plan_gen;
        let fill = self.sessions[i]
            .plan
            .as_ref()
            .map(|p| {
                self.world
                    .session_delivery_ppm(i as u64, plan_gen, p, demand)
                    .min(cfg.max_fill_ppm)
            })
            .unwrap_or(0);
        if let Some(abr) = self.sessions[i].abr.as_mut() {
            abr.fill_ppm = fill;
        }
    }

    /// The broker reallocated at `t`: every streaming buffer-aware
    /// session closes its accrual interval at the old fill and
    /// re-samples against its new grant. The next tick's controller
    /// decision then sees the brokered rate — grant updates trigger
    /// rung reevaluation, never re-composition.
    fn react_to_grants(&mut self, t: u64) {
        let epoch = self.world.grant_epoch();
        if epoch == self.last_grant_epoch {
            return;
        }
        self.last_grant_epoch = epoch;
        if self.config.abr.is_none() {
            return;
        }
        // Nothing in the body changes a phase, so `streaming` is stable.
        for k in 0..self.streaming.len() {
            let i = self.streaming[k];
            if self.sessions[i].abr.is_none() {
                continue;
            }
            let before = self.sessions[i].abr.as_ref().map(|a| a.fill_ppm);
            self.accrue(i, t);
            self.resample_fill(i);
            let after = self.sessions[i].abr.as_ref().map(|a| a.fill_ppm);
            if before != after {
                let sess = &mut self.sessions[i];
                sess.outcome.grant_updates = sess.outcome.grant_updates.saturating_add(1);
                let fill_ppm = after.unwrap_or(0);
                self.emit_root(i, t, EventKind::GrantUpdated { fill_ppm });
            }
        }
    }

    /// BOLA mode only: ask the controller whether to re-compose onto a
    /// different rung. Make-before-break — the session keeps streaming
    /// on its current plan while the switch composes, and the job
    /// carries the plan generation so a stale result is discarded.
    fn maybe_switch(&mut self, t: u64, i: usize) {
        let Some(cfg) = self.config.abr else {
            return;
        };
        if cfg.mode != AbrMode::Bola {
            return;
        }
        if self.sessions[i].evading {
            // An SLA evasion is already composing this session a new
            // chain; a concurrent controller switch would be stale on
            // arrival anyway.
            return;
        }
        let rung = self.sessions[i].rung;
        let Some(abr) = self.sessions[i].abr.as_mut() else {
            return;
        };
        if abr.switching {
            return;
        }
        let Some(target) = abr.controller.decide(t, rung, &cfg, &abr.buffer) else {
            return;
        };
        abr.switching = true;
        let gen = abr.gen;
        self.jobs.push(Job {
            session: i,
            start_rung: target,
            kind: JobKind::Switch,
            gen,
        });
    }

    /// Drift-aware SLA pass for one streaming session's tick: sample
    /// observed QoS for every service in its plan, feed the watchdog,
    /// probate on violation, probe probated services back to health,
    /// and evade the chain while any of its services stays flagged.
    fn sla_tick(&mut self, t: u64, i: usize) {
        let Some(watchdog) = self.watchdog.as_mut() else {
            return; // sla: None, or Binary mode — no estimators
        };
        let Some(plan) = self.sessions[i].plan.as_ref() else {
            return;
        };
        let services: Vec<ServiceId> = plan.steps.iter().filter_map(|s| s.service).collect();
        let mut violations: Vec<(ServiceId, u64)> = Vec::new();
        let mut flagged_in_plan = false;
        for id in services {
            // Worlds only report on *current* incarnations; a stale id
            // (the plan outlived a crash/revive) yields no sample.
            let Some(obs) = self.world.observe_service(id) else {
                continue;
            };
            match watchdog.observe(id, obs, t) {
                SlaVerdict::Violation { observed_ppm } => {
                    violations.push((id, observed_ppm));
                    flagged_in_plan = true;
                }
                SlaVerdict::Degraded => {
                    if watchdog.is_flagged(id) {
                        flagged_in_plan = true;
                    }
                }
                SlaVerdict::Healthy => {
                    // Half-open probing: a flagged service delivering a
                    // healthy sample earns one probe credit; enough
                    // distinct-instant credits clear its probation, and
                    // the estimator restarts cold for the next episode.
                    if watchdog.is_flagged(id) && self.world.probe_service(id, t) {
                        watchdog.clear(id);
                    }
                }
            }
        }
        for (id, observed_ppm) in violations {
            self.world.probate_service(id, observed_ppm, t);
            let sess = &mut self.sessions[i];
            sess.outcome.sla_violations = sess.outcome.sla_violations.saturating_add(1);
            let kind = EventKind::SlaViolation {
                service: id.index() as u32,
                observed_ppm,
            };
            self.emit_root(i, t, kind);
        }
        if flagged_in_plan {
            self.maybe_evade(t, i);
        }
    }

    /// Issue a make-before-break evasion off a flagged chain, rate
    /// limited by the evade dwell. The composer sees the probated
    /// service's penalty and steers the new chain around it when an
    /// alternative exists.
    fn maybe_evade(&mut self, t: u64, i: usize) {
        let Some(sla) = self.config.sla else {
            return;
        };
        let sess = &self.sessions[i];
        if sess.evading {
            return;
        }
        if sess.abr.as_ref().map(|a| a.switching).unwrap_or(false) {
            return; // let the in-flight switch land first
        }
        if let Some(last) = sess.last_evade_us {
            if t.saturating_sub(last) < sla.evade_dwell_us {
                return;
            }
        }
        // The dwell clock starts at *issuance*, not adoption: when the
        // penalized composer still picks the same chain (no
        // alternative exists) the session must not re-compose every
        // tick.
        let start_rung = sess.rung;
        let gen = sess.plan_gen;
        let sess = &mut self.sessions[i];
        sess.evading = true;
        sess.last_evade_us = Some(t);
        self.jobs.push(Job {
            session: i,
            start_rung,
            kind: JobKind::Evade,
            gen,
        });
    }

    /// An evasion composition came back: adopt it only if the plan
    /// generation still matches, the session still streams, and the
    /// new chain actually differs (different services or hosts).
    /// Anything else is discarded — the session never goes dark over
    /// an evasion.
    fn apply_evade(&mut self, t: u64, job: Job, served: Option<Served>) {
        let i = job.session;
        self.sessions[i].evading = false;
        if self.sessions[i].plan_gen != job.gen || self.sessions[i].phase != Phase::Active {
            return;
        }
        let Some(served) = served else {
            return; // composed nothing: keep streaming on the old plan
        };
        let same_chain = self.sessions[i]
            .plan
            .as_ref()
            .map(|old| {
                old.steps.len() == served.plan.steps.len()
                    && old
                        .steps
                        .iter()
                        .zip(&served.plan.steps)
                        .all(|(a, b)| a.service == b.service && a.host == b.host)
            })
            .unwrap_or(false);
        if same_chain {
            return; // no alternative chain exists yet; dwell limits retries
        }
        let (from, to) = (self.sessions[i].rung, served.rung);
        // Close the interval on the sagging chain, then go live on the
        // replacement without a dark gap (make-before-break).
        self.accrue(i, t);
        self.adopt_plan(t, i, served);
        if self.sessions[i].abr.is_some() {
            self.resample_fill(i);
        }
        let sess = &mut self.sessions[i];
        sess.outcome.evasions = sess.outcome.evasions.saturating_add(1);
        let buffer_us = sess.abr.as_ref().map(|a| a.buffer.level_us()).unwrap_or(0);
        let kind = EventKind::SlaEvaded {
            from: from.label(),
            to: to.label(),
            buffer_us,
        };
        self.emit_root(i, t, kind);
    }

    /// The session's plan died at `t`: go dark and ask for another
    /// composition (through admission when configured).
    fn begin_recompose(&mut self, t: u64, i: usize) {
        self.accrue(i, t);
        // With SLA detection on (either mode), a dying plan counts as a
        // hard failure against every service in it — the world's
        // circuit breaker attributes bluntly, which is exactly the
        // binary baseline's behaviour. The `sla: None` path reports
        // nothing, preserving the pre-SLA code paths bit for bit.
        if self.config.sla.is_some() {
            let services: Vec<ServiceId> = self.sessions[i]
                .plan
                .as_ref()
                .map(|p| p.steps.iter().filter_map(|s| s.service).collect())
                .unwrap_or_default();
            for id in services {
                self.world.report_service_failure(id, t);
            }
        }
        {
            let sess = &mut self.sessions[i];
            sess.plan = None;
            sess.satisfaction = 0.0;
        }
        // The dead plan's pinned flow no longer exists; release its
        // grant so survivors absorb it while the repair composes.
        self.world.deregister_session_flow(i as u64);
        let attempt = self.sessions[i].outcome.recompositions.saturating_add(1);
        if let Some(state) = self.sessions[i].trace {
            let mut trace = RequestTrace::resume(self.sink, state);
            trace.advance_to(t);
            let span = trace.open_span(ROOT_SPAN, "recompose");
            trace.emit(span, EventKind::Recomposed { attempt });
            self.sessions[i].trace = Some(trace.save());
        }
        if self.sessions[i].outcome.recompositions >= self.config.max_recompositions {
            self.close(t, i, CloseReason::GaveUp);
            return;
        }
        self.sessions[i].outcome.recompositions = attempt;
        self.set_phase(i, Phase::Recomposing);
        match self.admission.as_mut() {
            Some(q) => {
                // Re-compositions inherit the session's class and cost
                // but drop the deadline budget: mid-stream repair is
                // best-effort, only QueueFull can refuse it.
                let arrival = self.requests[i].arrival;
                let ticket = q.offer(ArrivalMeta {
                    arrival_us: t,
                    priority: arrival.priority,
                    service_cost_us: arrival.service_cost_us,
                    deadline_budget_us: None,
                });
                debug_assert_eq!(ticket, self.tickets.len());
                self.tickets.push((i, true));
                self.surface_decisions(t);
                self.schedule_pump(t);
            }
            None => self.jobs.push(Job {
                session: i,
                start_rung: self.sessions[i].rung,
                kind: JobKind::Recompose,
                gen: 0,
            }),
        }
    }

    /// Integrate session-time since the last accrual point: lit on the
    /// current rung while a plan is live, dark otherwise. With a buffer
    /// model attached, the same interval also fills/drains the playout
    /// buffer — at the session's sampled delivery rate while lit, dry
    /// while dark — and accounts stalled playback.
    fn accrue(&mut self, i: usize, t: u64) {
        let mut stall_entered_us = None;
        {
            let sess = &mut self.sessions[i];
            if sess.outcome.started_us.is_none() {
                return;
            }
            let dt = t.saturating_sub(sess.last_accrual_us);
            sess.last_accrual_us = t;
            if dt == 0 {
                return;
            }
            if sess.plan.is_some() {
                sess.outcome.lit_us = sess.outcome.lit_us.saturating_add(dt);
                sess.outcome.satisfaction_us += sess.satisfaction * dt as f64;
                let slot = &mut sess.outcome.rung_us[sess.rung as usize];
                *slot = slot.saturating_add(dt);
            } else {
                sess.outcome.dark_us = sess.outcome.dark_us.saturating_add(dt);
            }
            if let Some(abr) = sess.abr.as_mut() {
                let fill = if sess.plan.is_some() { abr.fill_ppm } else { 0 };
                let adv = abr.buffer.advance(dt, fill);
                if adv.stalled_us > 0 {
                    sess.outcome.rebuffer_us =
                        sess.outcome.rebuffer_us.saturating_add(adv.stalled_us);
                    if adv.entered_stall {
                        sess.outcome.rebuffer_events =
                            sess.outcome.rebuffer_events.saturating_add(1);
                        stall_entered_us = Some(adv.stalled_us);
                    }
                }
                sess.outcome.buffer_peak_us =
                    sess.outcome.buffer_peak_us.max(abr.buffer.level_us());
            }
        }
        if let Some(stalled_us) = stall_entered_us {
            self.emit_root(i, t, EventKind::Rebuffered { stalled_us });
        }
    }

    /// With `session_spans` on and a trace saved for session `i`: emit
    /// `kind` on its root span at virtual time `t`.
    fn emit_root(&mut self, i: usize, t: u64, kind: EventKind) {
        if !self.config.session_spans {
            return;
        }
        if let Some(state) = self.sessions[i].trace {
            let mut trace = RequestTrace::resume(self.sink, state);
            trace.advance_to(t);
            trace.emit(ROOT_SPAN, kind);
            self.sessions[i].trace = Some(trace.save());
        }
    }

    fn close(&mut self, t: u64, i: usize, reason: CloseReason) {
        self.accrue(i, t);
        // Departures are preemption-free: the broker redistributes the
        // released grant without lowering any survivor.
        self.world.deregister_session_flow(i as u64);
        self.set_phase(i, Phase::Done);
        let sess = &mut self.sessions[i];
        sess.outcome.closed_us = Some(t);
        sess.outcome.close = Some(reason);
        let kind = EventKind::SessionClosed {
            reason: reason.label(),
        };
        self.emit_root(i, t, kind);
        match reason {
            CloseReason::Completed => self.counters.completed += 1,
            CloseReason::FailedOpen => self.counters.failed_open += 1,
            CloseReason::GaveUp => self.counters.gave_up += 1,
            CloseReason::Starved => self.counters.starved += 1,
        }
    }

    /// Fan the instant's compositions out across the worker pool.
    /// Every job is pure in (request, world snapshot, saved trace), so
    /// the result vector — indexed like `jobs` — is identical for any
    /// worker count; a `None` is a job whose worker died outside
    /// `serve_one`'s own guard.
    fn run_jobs(
        &self,
        jobs: &[Job],
        graph_store: &GraphStore,
    ) -> Vec<Option<(RequestOutcome, TraceState)>> {
        let sessions = &self.sessions;
        let composer = self.world.composer();
        let requests = self.requests;
        let config = &self.config.resilient;
        let sink = self.sink;
        fan_out(config.workers, jobs.len(), |slot| {
            let job = jobs[slot];
            // Every job is pushed after `open` saved its session's
            // trace; one without would be applied as lost.
            let mut trace = RequestTrace::resume(sink, sessions[job.session].trace?);
            let outcome = serve_one(
                &composer,
                graph_store,
                &requests[job.session].request,
                job.session,
                config,
                job.start_rung,
                &mut trace,
            );
            Some((outcome, trace.save()))
        })
        .into_iter()
        .map(Option::flatten)
        .collect()
    }

    /// Apply one composition result back onto its session.
    fn apply(&mut self, t: u64, job: Job, result: Option<(RequestOutcome, TraceState)>) {
        let i = job.session;
        if self.sessions[i].phase == Phase::Done {
            return; // decided after the session already closed
        }
        let Some((outcome, state)) = result else {
            // The worker thread died outside composition; account for
            // the loss the way the batch paths do. A lost *switch* or
            // *evasion* changes nothing — make-before-break keeps the
            // session on its current plan.
            match job.kind {
                JobKind::Switch => {
                    if let Some(abr) = self.sessions[i].abr.as_mut() {
                        abr.switching = false;
                    }
                }
                JobKind::Evade => self.sessions[i].evading = false,
                JobKind::Recompose => {
                    self.accrue(i, t);
                    self.close(t, i, CloseReason::Starved);
                }
                JobKind::Open => self.close(t, i, CloseReason::FailedOpen),
            }
            return;
        };
        let sess = &mut self.sessions[i];
        sess.trace = Some(state);
        sess.outcome.attempts = sess.outcome.attempts.saturating_add(outcome.attempts);
        // `serve_one` sets plan and rung together; an outcome with one
        // but not the other did not serve.
        let served = match (outcome.plan, outcome.rung) {
            (Some(plan), Some(rung)) => Some(Served {
                plan,
                rung,
                satisfaction: outcome.satisfaction,
            }),
            _ => None,
        };
        match job.kind {
            JobKind::Switch => self.apply_switch(t, job, served),
            JobKind::Evade => self.apply_evade(t, job, served),
            JobKind::Recompose => {
                // Close the dark interval *before* the new plan goes
                // live, so the repair latency accrues as dark time.
                self.accrue(i, t);
                let Some(served) = served else {
                    self.close(t, i, CloseReason::Starved);
                    return;
                };
                self.adopt_plan(t, i, served);
                self.set_phase(i, Phase::Active);
                if self.sessions[i].abr.is_some() {
                    self.resample_fill(i);
                }
            }
            JobKind::Open => {
                let Some(served) = served else {
                    self.close(t, i, CloseReason::FailedOpen);
                    return;
                };
                self.adopt_plan(t, i, served);
                let sess = &mut self.sessions[i];
                sess.outcome.started_us = Some(t);
                sess.last_accrual_us = t;
                self.set_phase(i, Phase::Active);
                let hold = self.requests[i].hold_us;
                if hold == 0 {
                    self.close(t, i, CloseReason::Completed);
                    return;
                }
                // Attach the buffer model: startup latency is modeled
                // as pre-buffered media, so sessions open with credit.
                if let Some(cfg) = self.config.abr {
                    let buffer = PlayoutBuffer::new(cfg.startup_buffer_us, cfg.buffer_capacity_us);
                    let sess = &mut self.sessions[i];
                    sess.outcome.buffer_peak_us = buffer.level_us();
                    sess.abr = Some(AbrSess {
                        buffer,
                        controller: BolaController::new(),
                        fill_ppm: 0,
                        gen: 0,
                        switching: false,
                    });
                    self.resample_fill(i);
                }
                let close_at = t.saturating_add(hold);
                self.queue.schedule(SimTime(close_at), Ev::Close(i));
                self.schedule_tick(t, i);
            }
        }
    }

    /// A controller switch came back: adopt it only if it still
    /// matches the plan generation it was issued against, actually
    /// changed rung, and the session is still streaming. Anything else
    /// is discarded — the session never goes dark over a switch.
    fn apply_switch(&mut self, t: u64, job: Job, served: Option<Served>) {
        let i = job.session;
        let stale = self.sessions[i]
            .abr
            .as_ref()
            .map(|a| a.gen != job.gen)
            .unwrap_or(true);
        if let Some(abr) = self.sessions[i].abr.as_mut() {
            abr.switching = false;
        }
        if stale || self.sessions[i].phase != Phase::Active {
            return;
        }
        let Some(served) = served else {
            return; // composed nothing: stay on the current plan
        };
        let (from, to) = (self.sessions[i].rung, served.rung);
        if to == from {
            // The ladder fell back to the rung we already stream on
            // (an up-switch that was not feasible): not a switch.
            return;
        }
        // Close the interval on the old rung, then go live on the new
        // plan without a dark gap (make-before-break).
        self.accrue(i, t);
        self.adopt_plan(t, i, served);
        self.resample_fill(i);
        let mut buffer_us = 0;
        if let Some(abr) = self.sessions[i].abr.as_mut() {
            abr.controller.committed(t, from);
            buffer_us = abr.buffer.level_us();
        }
        self.sessions[i].outcome.switches = self.sessions[i].outcome.switches.saturating_add(1);
        let kind = EventKind::RungSwitch {
            from: from.label(),
            to: to.label(),
            buffer_us,
        };
        self.emit_root(i, t, kind);
    }

    /// A composition served: install the plan, record the rung
    /// transition.
    fn adopt_plan(&mut self, t: u64, i: usize, served: Served) {
        let Served {
            plan,
            rung,
            satisfaction,
        } = served;
        let sess = &mut self.sessions[i];
        sess.plan = Some(plan);
        sess.rung = rung;
        sess.satisfaction = satisfaction;
        sess.outcome.final_rung = Some(rung);
        sess.outcome.rung_history.push((t, rung));
        sess.plan_gen = sess.plan_gen.wrapping_add(1);
        if let Some(abr) = sess.abr.as_mut() {
            abr.gen = abr.gen.wrapping_add(1);
        }
        // Adoption is the admission-commit point: pin the plan's demand
        // with the world's broker (a re-pin after a rung switch lowers
        // or raises the registered window in place). No-op without a
        // broker.
        if let Some(plan) = sess.plan.as_ref() {
            let weight = priority_weight(self.requests[i].arrival.priority);
            self.world
                .register_session_flow(i as u64, plan, self.requests[i].demand_bps, weight);
        }
    }
}
