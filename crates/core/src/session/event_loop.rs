//! The session engine's discrete-event loop.
//!
//! An `Agenda` drives everything. World events and session opens are
//! known before the run starts, so each sits in a list sorted by
//! `(time, index)` behind a cursor; only what the run itself schedules
//! (admission pumps, progress ticks, closes) goes on an [`EventQueue`],
//! whose heap therefore grows with the live sessions, not the offered
//! ones. The agenda pops the earliest time, and at equal virtual times
//!
//! 1. **world events** first, in index order, so a fault at `t` is
//!    visible to everything else happening at `t`;
//! 2. **session opens** next, in session-index order — at equal arrival
//!    times the admission queue therefore sees offers in the exact order
//!    [`plan_admission`](crate::plan_admission) would have offered them;
//! 3. events scheduled *during* the run last, in creation order (the
//!    queue's own insertion-order tie-break).
//!
//! That is the `(time, insertion)` order of one queue fed every world
//! event, then every open, then the run's events as they are made —
//! the loop's order before the agenda, kept bit for bit. The run never
//! schedules before the current instant, so the queue's clamp to its
//! `now` never fires.
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
use qosc_telemetry::{EventKind, RequestTrace, TelemetrySink, TraceState, ROOT_SPAN};

use crate::admission::{AdmissionQueue, ArrivalMeta, PriorityClass, ShedReason};
use crate::compose_memo::ComposeMemo;
use crate::engine::{
    fan_out, intern, request_hash, serve_one, trace_admitted, trace_shed, DegradationRung,
    RequestOutcome, Served,
};
use crate::plan::AdaptationPlan;
use std::sync::{Arc, OnceLock};

use super::abr::{self, AbrConfig, AbrSess};
use super::sla::{same_chain, Sla};
use super::{
    CloseReason, SessionCounters, SessionEngineConfig, SessionOutcome, SessionRequest,
    SessionWorld, SessionsReport,
};

/// One pending composition at the current virtual instant.
#[derive(Debug, Clone, Copy)]
struct Job {
    session: usize,
    start_rung: DegradationRung,
    kind: JobKind,
    /// The session's plan generation at issue. A replacement that
    /// comes back to a different one (the plan changed underneath it)
    /// is discarded.
    gen: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum JobKind {
    /// The session's opening composition.
    Open,
    /// Mid-stream repair after the plan died (goes dark first).
    Recompose,
    /// Controller-requested rung change, make-before-break: the
    /// session streams on its old plan until the new one serves.
    Switch,
    /// SLA-triggered move off a chain with a flagged (grey-failing)
    /// service, make-before-break like `Switch`.
    Evade,
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

pub(super) struct Sess {
    phase: Phase,
    trace: Option<TraceState>,
    /// The adopted plan, shared with the compose memo and with every
    /// session served the same answer.
    pub(super) plan: Option<Arc<AdaptationPlan>>,
    pub(super) rung: DegradationRung,
    last_accrual_us: u64,
    pub(super) outcome: SessionOutcome,
    /// Bumps at every plan adoption: names the adopted plan instance
    /// to the world's delivery memo and guards in-flight replacements.
    pub(super) plan_gen: u32,
    /// A make-before-break replacement (switch or evasion) is in
    /// flight; at most one per session.
    pub(super) replacing: bool,
    /// The adaptation policy's state; attached at stream start.
    pub(super) abr: Option<AbrSess>,
    /// The SLA policy's state: when the last evasion was issued.
    pub(super) last_evade_us: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The loop's event order (module docs): the world events and opens known
/// at the start as two sorted lists behind cursors, and a queue of what
/// the run schedules.
struct Agenda {
    /// `(time, world event index)`, ascending.
    world: Vec<(u64, usize)>,
    next_world: usize,
    /// `(arrival, session index)`, ascending.
    opens: Vec<(u64, usize)>,
    next_open: usize,
    /// Pumps, ticks and closes.
    queue: EventQueue<Ev>,
    /// The current instant: the time of the last pop.
    now: u64,
}

impl Agenda {
    fn new(world_times: &[u64], arrivals: impl Iterator<Item = u64>) -> Agenda {
        // Indices are unique, so an unstable sort is deterministic.
        let mut world: Vec<(u64, usize)> = world_times.iter().copied().zip(0..).collect();
        world.sort_unstable();
        let mut opens: Vec<(u64, usize)> = arrivals.zip(0..).collect();
        opens.sort_unstable();
        Agenda {
            world,
            next_world: 0,
            opens,
            next_open: 0,
            queue: EventQueue::new(),
            now: 0,
        }
    }

    /// The earliest pending time.
    fn peek_time(&self) -> Option<u64> {
        let world = self.world.get(self.next_world).map(|&(t, _)| t);
        let open = self.opens.get(self.next_open).map(|&(t, _)| t);
        let queued = self.queue.peek_time().map(|t| t.0);
        [world, open, queued].into_iter().flatten().min()
    }

    /// Pop the next event if it is due at `t`, the earliest pending time:
    /// a world event before an open before a scheduled event.
    fn pop_at(&mut self, t: u64) -> Option<Ev> {
        self.now = t;
        if let Some(&(at, k)) = self.world.get(self.next_world) {
            if at == t {
                self.next_world += 1;
                return Some(Ev::World(k));
            }
        }
        if let Some(&(at, i)) = self.opens.get(self.next_open) {
            if at == t {
                self.next_open += 1;
                return Some(Ev::Open(i));
            }
        }
        if self.queue.peek_time() == Some(SimTime(t)) {
            return self.queue.pop().map(|(_, ev)| ev);
        }
        None
    }

    /// Schedule `ev` at `at`, never before the current instant.
    fn schedule(&mut self, at: u64, ev: Ev) {
        debug_assert!(at >= self.now, "the run never schedules into the past");
        self.queue.schedule(SimTime(at), ev);
        meter_queue_len(self.queue.len());
    }
}

/// Meter the agenda queue's length after a push (test builds only).
#[inline(always)]
fn meter_queue_len(len: usize) {
    #[cfg(test)]
    tests::QUEUE_PEAK.with(|peak| peak.set(peak.get().max(len)));
    #[cfg(not(test))]
    let _ = len;
}

/// The lifecycle: event queue, phases, admission, job fan-out, accrual,
/// plan adoption. What happens in between belongs to the two policies,
/// `adaptation` (`abr.rs`) and `sla` (`sla.rs`): each is resolved once
/// at entry and called unconditionally from fixed points (DESIGN.md
/// §12); "off" returns at the top of each of its own entry points.
pub(super) struct Loop<'a, 'w, W: SessionWorld, S: TelemetrySink> {
    pub(super) world: &'w mut W,
    pub(super) requests: &'a [SessionRequest],
    /// Each session's request as the run names it ([`intern`]).
    request_ids: Vec<u32>,
    /// Slot `id * LADDER.len() + rung`: the compose memo's class id of
    /// request `id` at `rung`, once a compose resolved it.
    classes: Vec<OnceLock<u32>>,
    config: &'a SessionEngineConfig,
    sink: &'a S,
    pub(super) adaptation: Option<AbrConfig>,
    pub(super) sla: Sla,
    agenda: Agenda,
    admission: Option<AdmissionQueue>,
    /// Ticket → `(session, Open | Recompose)`; tickets are issued
    /// sequentially by the admission queue.
    tickets: Vec<(usize, JobKind)>,
    /// Virtual times with a pump already scheduled (dedup only — never
    /// iterated, so the hash order cannot leak into outcomes).
    pumps: std::collections::HashSet<u64>,
    pub(super) sessions: Vec<Sess>,
    counters: SessionCounters,
    /// Jobs collected at the current instant.
    jobs: Vec<Job>,
    /// A world event fired at the current instant; live plans need a
    /// liveness check before time moves on.
    world_changed: bool,
    /// Last observed [`SessionWorld::grant_epoch`]. Brokerless worlds
    /// never move the epoch.
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
fn priority_weight(priority: PriorityClass) -> u32 {
    match priority {
        PriorityClass::Interactive => 4,
        PriorityClass::Standard => 2,
        PriorityClass::Background => 1,
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
    let agenda = Agenda::new(
        world.world_event_times(),
        requests.iter().map(|r| r.arrival.arrival_us),
    );

    // One memo per run, and the run's distinct requests, each named
    // once here: the world snapshot moves only at world events and
    // session-driven registry or network writes, and a stored answer is
    // served only at the world stamp or the world content it was
    // composed at, so reuse across instants is exact and cheap.
    let (request_ids, distinct) = intern(requests.iter().map(|r| &r.request), request_hash);
    let memo = ComposeMemo::default();

    let n = requests.len();
    let initial_grant_epoch = world.grant_epoch();
    let mut lp = Loop {
        world,
        requests,
        request_ids,
        classes: (0..distinct * DegradationRung::LADDER.len())
            .map(|_| OnceLock::new())
            .collect(),
        config,
        sink,
        adaptation: abr::resolve(config),
        sla: Sla::from_config(config),
        agenda,
        admission: config.admission.map(AdmissionQueue::new),
        tickets: Vec::new(),
        pumps: std::collections::HashSet::new(),
        sessions: (0..n)
            .map(|_| Sess {
                phase: Phase::Created,
                trace: None,
                plan: None,
                rung: DegradationRung::Full,
                last_accrual_us: 0,
                outcome: SessionOutcome::default(),
                plan_gen: 0,
                replacing: false,
                abr: None,
                last_evade_us: None,
            })
            .collect(),
        counters: SessionCounters {
            offered: n,
            ..SessionCounters::default()
        },
        jobs: Vec::new(),
        world_changed: false,
        last_grant_epoch: initial_grant_epoch,
        streaming: Vec::new(),
        scan: Vec::new(),
    };

    let mut end_us = 0u64;
    while let Some(t) = lp.agenda.peek_time() {
        if t > horizon {
            break;
        }
        end_us = t;
        // Drain every event at this instant; handlers may schedule more
        // same-instant events (pumps, opens deciding immediately) and
        // collect compose jobs.
        loop {
            while let Some(ev) = lp.agenda.pop_at(t) {
                lp.handle(t, ev);
            }
            if lp.world_changed {
                lp.world_changed = false;
                lp.check_liveness(t);
            }
            if lp.agenda.peek_time() != Some(t) {
                break;
            }
        }
        // Fan the instant's compositions out across the worker pool and
        // apply results in collection order.
        if !lp.jobs.is_empty() {
            let jobs = std::mem::take(&mut lp.jobs);
            let results = lp.run_jobs(&jobs, &memo);
            for (job, result) in jobs.iter().zip(results) {
                lp.apply(t, *job, result);
            }
        }
        // Membership changes this instant (opens, closes, switches,
        // squeezes) may have moved the broker's grants.
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
            }
            Ev::Tick(i) => self.tick(t, i),
            Ev::Close(i) => {
                if matches!(self.sessions[i].phase, Phase::Active | Phase::Recomposing) {
                    self.close(t, i, CloseReason::Completed);
                }
            }
        }
    }

    /// Resume session `i`'s saved trace, let `record` write into it,
    /// save it back. Nothing happens before `open` saved one.
    fn with_trace(&mut self, i: usize, record: impl FnOnce(&mut RequestTrace<'_, S>)) {
        if let Some(state) = self.sessions[i].trace {
            let mut trace = RequestTrace::resume(self.sink, state);
            record(&mut trace);
            self.sessions[i].trace = Some(trace.save());
        }
    }

    /// With `session_spans` on: emit `kind` on session `i`'s root span
    /// at virtual time `t`.
    pub(super) fn emit_root(&mut self, i: usize, t: u64, kind: EventKind) {
        if !self.config.session_spans {
            return;
        }
        self.with_trace(i, |trace| {
            trace.advance_to(t);
            trace.emit(ROOT_SPAN, kind);
        });
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
            let hold_us = request.hold_us;
            trace.emit(ROOT_SPAN, EventKind::SessionOpened { hold_us });
        }
        sess.trace = Some(trace.save());
        self.request_compose(t, i, JobKind::Open, request.arrival, DegradationRung::Full);
    }

    /// Ask for an `Open` or `Recompose` composition for session `i`:
    /// through the admission queue when one is configured (which then
    /// picks the start rung), straight onto this instant's jobs at
    /// `start_rung` otherwise.
    fn request_compose(
        &mut self,
        t: u64,
        i: usize,
        kind: JobKind,
        arrival: ArrivalMeta,
        start_rung: DegradationRung,
    ) {
        let Some(q) = self.admission.as_mut() else {
            self.push_job(i, kind, start_rung);
            return;
        };
        let ticket = q.offer(arrival);
        debug_assert_eq!(ticket, self.tickets.len());
        self.tickets.push((i, kind));
        self.surface_decisions(t);
    }

    /// Queue a composition for session `i` at the current instant.
    pub(super) fn push_job(&mut self, i: usize, kind: JobKind, start_rung: DegradationRung) {
        self.jobs.push(Job {
            session: i,
            start_rung,
            kind,
            gen: self.sessions[i].plan_gen,
        });
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
                self.agenda.schedule(finish, Ev::Pump);
            }
        }
    }

    /// Turn decisions the admission queue just made into compose jobs
    /// (admitted) or closes (shed) — a decision is admitted exactly when
    /// it carries no shed reason — and keep a pump pending.
    fn surface_decisions(&mut self, t: u64) {
        let Some(q) = self.admission.as_mut() else {
            return;
        };
        let newly = q.take_newly_decided();
        for ticket in newly {
            let (i, kind) = self.tickets[ticket];
            if self.sessions[i].phase == Phase::Done {
                continue;
            }
            // `take_newly_decided` yields only tickets it has decided.
            let Some(decision) = self.admission.as_ref().and_then(|q| q.decision(ticket)) else {
                continue;
            };
            match (kind, decision.shed) {
                (JobKind::Open, Some(reason)) => {
                    self.shed_open(t, i, reason, decision.queue_wait_us)
                }
                (JobKind::Open, None) => {
                    self.with_trace(i, |trace| trace_admitted(trace, &decision));
                    debug_assert_eq!(decision.start_us, t, "admissions start now");
                    self.push_job(i, kind, decision.start_rung);
                }
                // Never climb back above the session's current rung
                // mid-stream; brown-out can push further down.
                // (Controller up-switches go through `JobKind::Switch`
                // instead, which skips this clamp deliberately.)
                (_, None) => {
                    let start_rung = self.sessions[i].rung.max(decision.start_rung);
                    self.push_job(i, kind, start_rung);
                }
                // The queue refused the re-composition: the session
                // starves.
                (_, Some(reason)) => {
                    let reason = reason.label();
                    self.with_trace(i, |trace| {
                        trace.advance_to(t);
                        trace.emit(ROOT_SPAN, EventKind::RequestShed { reason });
                    });
                    self.close(t, i, CloseReason::Starved);
                }
            }
        }
        self.schedule_pump(t);
    }

    /// The admission queue refused a session's open.
    fn shed_open(&mut self, t: u64, i: usize, reason: ShedReason, queue_wait_us: u64) {
        let arrival_us = self.requests[i].arrival.arrival_us;
        let session_spans = self.config.session_spans;
        self.with_trace(i, |trace| {
            trace_shed(trace, arrival_us, queue_wait_us, reason);
            if session_spans {
                trace.emit(ROOT_SPAN, EventKind::SessionClosed { reason: "shed" });
            }
        });
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
            self.with_trace(i, |trace| {
                trace.advance_to(t);
                trace.open_span(ROOT_SPAN, "epoch");
            });
        }
        self.resync_fill(t, i);
        // A tick re-checks liveness even without a world event: worlds
        // whose state decays between scheduled mutations (lease clocks)
        // surface breakage here at the latest.
        if self.sessions[i].phase == Phase::Active {
            if !self.plan_ok(i) {
                self.begin_recompose(t, i);
            } else {
                // SLA pass before the controller: an evasion issued
                // this tick pre-empts a switch.
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
            self.agenda.schedule(next, Ev::Tick(i));
        }
    }

    /// World state changed at `t`: every streaming session re-checks
    /// its plan, in session-index order.
    fn check_liveness(&mut self, t: u64) {
        // A dead plan takes its session off `streaming` mid-scan, so walk
        // a copy. No session *starts* streaming in here (only `apply`
        // does that), so no streaming session is missed.
        let mut scan = std::mem::take(&mut self.scan);
        scan.clear();
        scan.extend_from_slice(&self.streaming);
        for &i in &scan {
            if self.sessions[i].phase != Phase::Active {
                continue;
            }
            self.resync_fill(t, i);
            if !self.plan_ok(i) {
                self.begin_recompose(t, i);
            }
        }
        self.scan = scan;
    }

    /// When the broker reallocated at `t`, every streaming session
    /// hears of it.
    fn react_to_grants(&mut self, t: u64) {
        let epoch = self.world.grant_epoch();
        if epoch == self.last_grant_epoch {
            return;
        }
        self.last_grant_epoch = epoch;
        // Nothing in the body changes a phase, so `streaming` is stable.
        for k in 0..self.streaming.len() {
            self.grant_moved(t, self.streaming[k]);
        }
    }

    /// The session's plan died at `t`: go dark and ask for another
    /// composition (through admission when configured).
    fn begin_recompose(&mut self, t: u64, i: usize) {
        self.accrue(i, t);
        self.report_plan_death(t, i);
        let sess = &mut self.sessions[i];
        sess.plan = None;
        let attempt = sess.outcome.recompositions.saturating_add(1);
        // The dead plan's pinned flow no longer exists; release its
        // grant so survivors absorb it while the repair composes.
        self.world.deregister_session_flow(i as u64);
        if self.sessions[i].outcome.recompositions >= self.config.max_recompositions {
            self.close(t, i, CloseReason::GaveUp);
            return;
        }
        self.with_trace(i, |trace| {
            trace.advance_to(t);
            let span = trace.open_span(ROOT_SPAN, "recompose");
            trace.emit(span, EventKind::Recomposed { attempt });
        });
        self.sessions[i].outcome.recompositions = attempt;
        self.set_phase(i, Phase::Recomposing);
        // Re-compositions inherit the session's class and cost but drop
        // the deadline budget: mid-stream repair is best-effort, only
        // QueueFull can refuse it.
        let arrival = ArrivalMeta {
            arrival_us: t,
            deadline_budget_us: None,
            ..self.requests[i].arrival
        };
        self.request_compose(t, i, JobKind::Recompose, arrival, self.sessions[i].rung);
    }

    /// Integrate session-time since the last accrual point: lit on the
    /// current rung while a plan is live, dark otherwise; the same
    /// interval moves the playout buffer, when there is one.
    pub(super) fn accrue(&mut self, i: usize, t: u64) {
        let sess = &mut self.sessions[i];
        if sess.outcome.started_us.is_none() {
            return;
        }
        let dt = t.saturating_sub(sess.last_accrual_us);
        sess.last_accrual_us = t;
        if dt == 0 {
            return;
        }
        if let Some(plan) = &sess.plan {
            sess.outcome.lit_us = sess.outcome.lit_us.saturating_add(dt);
            sess.outcome.satisfaction_us += plan.predicted_satisfaction * dt as f64;
            let slot = &mut sess.outcome.rung_us[sess.rung as usize];
            *slot = slot.saturating_add(dt);
        } else {
            sess.outcome.dark_us = sess.outcome.dark_us.saturating_add(dt);
        }
        if let Some(stalled_us) = sess.advance_buffer(dt) {
            self.emit_root(i, t, EventKind::Rebuffered { stalled_us });
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
        memo: &ComposeMemo,
    ) -> Vec<Option<(RequestOutcome, TraceState)>> {
        let sessions = &self.sessions;
        let composer = self.world.composer();
        let requests = self.requests;
        let request_ids = &self.request_ids;
        let classes = &self.classes;
        let config = &self.config.resilient;
        let sink = self.sink;
        fan_out(config.workers, jobs.len(), |slot| {
            let job = jobs[slot];
            // Every job is pushed after `open` saved its session's
            // trace; one without would be applied as lost.
            let mut trace = RequestTrace::resume(sink, sessions[job.session].trace?);
            let rungs = DegradationRung::LADDER.len();
            let id = request_ids[job.session] as usize;
            let outcome = serve_one(
                &composer,
                memo,
                &classes[id * rungs..(id + 1) * rungs],
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
        // A `None` result is a worker that died outside composition:
        // nothing served, and no attempt is counted.
        let served = result.and_then(|(outcome, state)| {
            let sess = &mut self.sessions[i];
            sess.trace = Some(state);
            sess.outcome.attempts = sess.outcome.attempts.saturating_add(outcome.attempts);
            outcome.served
        });
        match job.kind {
            JobKind::Switch | JobKind::Evade => self.apply_replacement(t, job, served),
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
                self.attach_buffer(i);
                let close_at = t.saturating_add(hold);
                self.agenda.schedule(close_at, Ev::Close(i));
                self.schedule_tick(t, i);
            }
        }
    }

    /// A make-before-break replacement (controller switch or SLA
    /// evasion) came back: adopt it only if the session still streams
    /// on the plan generation it was issued against, it served, and it
    /// changed something — the rung for a switch (the ladder can fall
    /// back to the rung already streamed on), the chain for an evasion
    /// (no alternative may exist yet). Anything else is discarded: the
    /// session never goes dark over a replacement.
    fn apply_replacement(&mut self, t: u64, job: Job, served: Option<Served>) {
        let i = job.session;
        let sess = &mut self.sessions[i];
        sess.replacing = false;
        if sess.plan_gen != job.gen || sess.phase != Phase::Active {
            return;
        }
        let (Some((plan, rung)), Some(old)) = (served, sess.plan.as_ref()) else {
            return;
        };
        let from = sess.rung;
        let switch = job.kind == JobKind::Switch;
        let unchanged = if switch {
            rung == from
        } else {
            same_chain(old, &plan)
        };
        if unchanged {
            return;
        }
        // Close the interval on the old plan, then go live on the new
        // one without a dark gap.
        self.accrue(i, t);
        self.adopt_plan(t, i, (plan, rung));
        if switch {
            self.switch_committed(t, i, from);
        } else {
            self.evade_committed(t, i, from);
        }
    }

    /// A composition served: install the plan, record the rung
    /// transition.
    fn adopt_plan(&mut self, t: u64, i: usize, (plan, rung): Served) {
        let sess = &mut self.sessions[i];
        sess.rung = rung;
        sess.outcome.final_rung = Some(rung);
        sess.outcome.rung_history.push((t, rung));
        sess.plan_gen = sess.plan_gen.wrapping_add(1);
        // Adoption is the admission-commit point: pin the plan's demand
        // with the world's broker (a re-pin after a rung switch lowers
        // or raises the registered window in place). No-op without a
        // broker.
        let request = &self.requests[i];
        let weight = priority_weight(request.arrival.priority);
        let plan = sess.plan.insert(plan);
        self.world
            .register_session_flow(i as u64, plan, request.demand_bps, weight);
        self.resample_fill(i);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use proptest::{run_cases, ProptestConfig};
    use rand::RngExt;
    use std::cell::Cell;

    thread_local! {
        /// The agenda queue's longest length on this thread — the meter
        /// of the counted-work gate in `session.rs`.
        pub(super) static QUEUE_PEAK: Cell<usize> = const { Cell::new(0) };
    }

    /// The agenda queue's peak length while `work` runs on this thread.
    pub(in crate::session) fn queue_peak_in(work: impl FnOnce()) -> usize {
        QUEUE_PEAK.with(|peak| peak.set(0));
        work();
        QUEUE_PEAK.with(Cell::get)
    }

    /// The agenda pops exactly what the order it replaced pops: one
    /// `EventQueue` fed every world event, then every open, then the
    /// run's events as they are made. World times and arrivals are
    /// unsorted and tie with each other and with run events, same-instant
    /// run events included.
    #[test]
    fn agenda_pops_in_the_single_queue_order() {
        let config = ProptestConfig {
            cases: 1_024,
            ..ProptestConfig::default()
        };
        run_cases(config, "agenda_order", |rng| {
            let times = |rng: &mut proptest::TestRng| -> Vec<u64> {
                let n = rng.random_range(0..=12usize);
                (0..n).map(|_| rng.random_range(0..=20u64)).collect()
            };
            let world_times = times(rng);
            let arrivals = times(rng);
            let mut agenda = Agenda::new(&world_times, arrivals.iter().copied());
            let mut single = EventQueue::new();
            for (k, &t) in world_times.iter().enumerate() {
                single.schedule(SimTime(t), Ev::World(k));
            }
            for (i, &t) in arrivals.iter().enumerate() {
                single.schedule(SimTime(t), Ev::Open(i));
            }
            let mut made = 0;
            while let Some(t) = agenda.peek_time() {
                assert_eq!(single.peek_time(), Some(SimTime(t)));
                while let Some(ev) = agenda.pop_at(t) {
                    assert_eq!(single.pop(), Some((SimTime(t), ev)));
                    for _ in 0..rng.random_range(0..=2usize) {
                        if made == 40 {
                            break;
                        }
                        let at = t + rng.random_range(0..=6u64);
                        let ev = [Ev::Pump, Ev::Tick(made), Ev::Close(made)][made % 3];
                        made += 1;
                        agenda.schedule(at, ev);
                        single.schedule(SimTime(at), ev);
                    }
                }
            }
            assert_eq!(single.pop(), None);
        });
    }
}
