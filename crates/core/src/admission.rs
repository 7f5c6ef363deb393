//! Admission control and overload protection.
//!
//! The degradation ladder survives *faults*; this module makes the
//! front-end survive *load*. Past saturation an unprotected queue
//! grows without bound, every request times out after consuming a
//! worker, and goodput collapses batch-wide. The admission queue in
//! front of the composition engine keeps goodput flat instead:
//!
//! * **Deadline-aware shedding** — a request whose *predicted* queue
//!   wait already exceeds its `deadline_budget_us` is rejected
//!   immediately (shed) instead of timing out after consuming a worker.
//!   Work we know we cannot finish in time is refused at the door.
//! * **Priority classes** — [`PriorityClass::Interactive`] /
//!   `Standard` / `Background` with strict-priority dequeue and
//!   per-class bounded queues, so background traffic can never starve
//!   interactive requests.
//! * **Adaptive concurrency** — an AIMD limiter on observed composition
//!   latency versus deadline headroom: deadline-met completions
//!   additively widen the limit, a deadline miss multiplicatively
//!   shrinks it. Clocked on recorded virtual time (like the engine's
//!   recorded-not-slept backoff), so the limit trajectory is
//!   machine-independent.
//! * **Brown-out** — sustained queue pressure lowers the starting
//!   [`DegradationRung`] for admitted requests: serve more users
//!   slightly degraded instead of fewer users at full quality. A
//!   degraded composition is also cheaper (its virtual service cost is
//!   scaled down), which is what actually drains the queue. Pressure
//!   receding steps the rung back up.
//!
//! Everything runs on a **virtual clock**: arrivals carry virtual
//! timestamps and virtual service costs (microseconds of simulated
//! composition work), and [`plan_admission`] is a sequential
//! discrete-event simulation over them — pure in `(arrivals, config)`,
//! so decisions, queue waits and the AIMD trajectory are byte-identical
//! across runs, machines, and worker counts. The *plans* of admitted
//! requests are then computed by the real composer on a worker pool;
//! admission is a front-end, not a scoring change.

use crate::engine::DegradationRung;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Scheduling class of an offered request, best first. Strict-priority
/// dequeue: a queued `Interactive` request always starts before a
/// queued `Standard` one, which always starts before `Background`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// A user is waiting on the response; tight deadline.
    Interactive,
    /// Ordinary foreground traffic.
    Standard,
    /// Prefetch/batch traffic; loose or no deadline, first to wait.
    Background,
}

impl PriorityClass {
    /// All classes, best first.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Background,
    ];

    /// Queue index (0 = highest priority).
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Standard => 1,
            PriorityClass::Background => 2,
        }
    }

    /// Stable machine-readable name (used by scorecards).
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Background => "background",
        }
    }
}

impl std::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Virtual-time metadata of one offered request: what the admission
/// queue sees of a [`SessionRequest`](crate::SessionRequest), and what
/// [`plan_admission`] plans over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalMeta {
    /// Virtual arrival time, microseconds.
    pub arrival_us: u64,
    /// Scheduling class.
    pub priority: PriorityClass,
    /// Predicted composition cost at full quality, virtual
    /// microseconds. Brown-out scales it down per rung.
    pub service_cost_us: u64,
    /// End-to-end budget: the request is *good* only if its virtual
    /// finish lands within `arrival_us + budget`. `None` = best-effort.
    pub deadline_budget_us: Option<u64>,
}

/// Why a request was refused at (or timed out inside) the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its class queue was at capacity.
    QueueFull,
    /// The predicted queue wait alone already exceeded its deadline
    /// budget — finishing in time was impossible at arrival.
    PredictedLate,
    /// Admitted, but the deadline lapsed while still queued (the
    /// prediction was optimistic); dropped at dequeue without consuming
    /// a worker.
    QueueTimeout,
}

impl ShedReason {
    /// Stable machine-readable name.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::PredictedLate => "predicted_late",
            ShedReason::QueueTimeout => "queue_timeout",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tuning for the admission front-end. All-integer so the simulation
/// is exactly reproducible; `Copy` so it rides inside
/// [`SessionEngineConfig`](crate::SessionEngineConfig).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Refuse requests whose predicted queue wait exceeds their budget.
    pub deadline_shed: bool,
    /// Strict-priority dequeue with per-class queues. When `false`
    /// every class shares one FIFO (capacity ×3).
    pub priority: bool,
    /// Lower the starting rung under sustained queue pressure.
    pub brownout: bool,
    /// Run the AIMD limiter. When `false` the limit stays at
    /// `initial_limit`.
    pub adaptive: bool,
    /// Bounded queue capacity per class (`usize::MAX` = unbounded, the
    /// unprotected baseline).
    pub queue_capacity: usize,
    /// Knee of the virtual latency curve: running more compositions
    /// than this inflates their service time (`overload_penalty_pct`).
    pub virtual_cores: u32,
    /// Concurrency limit at t=0.
    pub initial_limit: u32,
    /// AIMD floor.
    pub min_limit: u32,
    /// AIMD ceiling.
    pub max_limit: u32,
    /// Additive increase applied after `aimd_window` deadline-met
    /// completions.
    pub aimd_increase: u32,
    /// Deadline-met completions per additive increase.
    pub aimd_window: u32,
    /// Multiplicative decrease on a deadline miss: `limit := limit *
    /// pct / 100`.
    pub aimd_decrease_pct: u32,
    /// Minimum virtual time between two decreases (one burst of misses
    /// is one signal, not ten).
    pub aimd_cooldown_us: u64,
    /// Service-time inflation, percent per running composition above
    /// `virtual_cores`.
    pub overload_penalty_pct: u32,
    /// Queue occupancy (percent of total capacity) that arms a
    /// brown-out step down.
    pub brownout_enter_pct: u32,
    /// Occupancy at or below which recovery arms a step up.
    pub brownout_exit_pct: u32,
    /// Consecutive arrivals the occupancy must hold beyond a watermark
    /// before the rung steps ("sustained", not one burst).
    pub brownout_dwell: u32,
    /// Virtual service-cost multiplier per rung, percent, indexed by
    /// [`DegradationRung::LADDER`] — degraded compositions are cheaper,
    /// which is what drains the queue.
    pub rung_cost_pct: [u32; 4],
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            deadline_shed: true,
            priority: true,
            brownout: true,
            adaptive: true,
            queue_capacity: 64,
            virtual_cores: 4,
            initial_limit: 4,
            min_limit: 1,
            max_limit: 16,
            aimd_increase: 1,
            aimd_window: 8,
            aimd_decrease_pct: 50,
            aimd_cooldown_us: 50_000,
            overload_penalty_pct: 20,
            brownout_enter_pct: 50,
            brownout_exit_pct: 15,
            brownout_dwell: 8,
            rung_cost_pct: [100, 85, 70, 55],
        }
    }
}

impl AdmissionConfig {
    /// The unprotected baseline: one unbounded FIFO, fixed concurrency,
    /// no shedding, no brown-out — queueing that never refuses anyone
    /// (X13's `none` policy).
    pub fn unprotected() -> AdmissionConfig {
        AdmissionConfig {
            deadline_shed: false,
            priority: false,
            brownout: false,
            adaptive: false,
            queue_capacity: usize::MAX,
            ..AdmissionConfig::default()
        }
    }

    /// Deadline shedding + bounded queue + adaptive limit, one class.
    pub fn shed_only() -> AdmissionConfig {
        AdmissionConfig {
            priority: false,
            brownout: false,
            ..AdmissionConfig::default()
        }
    }

    /// Shedding plus strict-priority classes, no brown-out.
    pub fn shed_priority() -> AdmissionConfig {
        AdmissionConfig {
            brownout: false,
            ..AdmissionConfig::default()
        }
    }

    /// Everything on (the default).
    pub fn protected() -> AdmissionConfig {
        AdmissionConfig::default()
    }

    fn class_of(&self, priority: PriorityClass) -> usize {
        if self.priority {
            priority.index()
        } else {
            0
        }
    }

    fn per_queue_capacity(&self) -> usize {
        if self.priority {
            self.queue_capacity
        } else {
            self.queue_capacity.saturating_mul(3)
        }
    }

    fn rung_cost(&self, cost_us: u64, rung: DegradationRung) -> u64 {
        let pct = self.rung_cost_pct[rung as usize].max(1) as u64;
        cost_us.max(1).saturating_mul(pct) / 100
    }
}

/// What the admission queue decided for one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionDecision {
    /// The request reached a worker (a composition will run).
    pub admitted: bool,
    /// Why it did not, when it did not.
    pub shed: Option<ShedReason>,
    /// Virtual time spent queued before starting (or before the
    /// queue-timeout drop).
    pub queue_wait_us: u64,
    /// Virtual service start (admitted only).
    pub start_us: u64,
    /// Virtual completion (admitted only).
    pub finish_us: u64,
    /// `finish - arrival` (admitted only; 0 when shed at arrival).
    pub latency_us: u64,
    /// Degradation rung the composition starts at — `Full` unless
    /// brown-out was active when the request started.
    pub start_rung: DegradationRung,
    /// Concurrency limit in force at start.
    pub limit_at_start: u32,
    /// The virtual finish landed within the deadline budget (always
    /// `true` for best-effort requests that were admitted).
    pub deadline_met: bool,
}

impl AdmissionDecision {
    fn shed(reason: ShedReason, queue_wait_us: u64) -> AdmissionDecision {
        AdmissionDecision {
            admitted: false,
            shed: Some(reason),
            queue_wait_us,
            start_us: 0,
            finish_us: 0,
            latency_us: 0,
            start_rung: DegradationRung::Full,
            limit_at_start: 0,
            deadline_met: false,
        }
    }
}

/// Aggregates over one admission plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests offered.
    pub offered: usize,
    /// Requests that reached a worker.
    pub admitted: usize,
    /// Shed: class queue at capacity.
    pub shed_queue_full: usize,
    /// Shed: predicted wait exceeded the budget at arrival.
    pub shed_predicted_late: usize,
    /// Shed: deadline lapsed while queued.
    pub shed_queue_timeout: usize,
    /// Admitted but finished past the budget.
    pub deadline_misses: usize,
    /// Deepest total queue observed.
    pub peak_queue_depth: usize,
    /// Most compositions running at once.
    pub peak_in_flight: u32,
    /// Concurrency limit after the last event.
    pub final_limit: u32,
    /// Lowest limit the AIMD controller reached.
    pub min_limit_seen: u32,
    /// Multiplicative decreases taken.
    pub limit_decreases: u32,
    /// Brown-out steps down taken.
    pub brownout_steps: u32,
    /// Worst starting rung handed to any admitted request.
    pub peak_rung: DegradationRung,
}

impl AdmissionStats {
    /// All sheds together.
    pub fn shed_total(&self) -> usize {
        self.shed_queue_full + self.shed_predicted_late + self.shed_queue_timeout
    }
}

/// One decision per offered request (by index), plus aggregates.
#[derive(Debug, Clone)]
pub struct AdmissionPlan {
    /// Indexed like the input arrivals.
    pub decisions: Vec<AdmissionDecision>,
    /// Aggregates.
    pub stats: AdmissionStats,
}

// ---------------------------------------------------------------------
// The simulation
// ---------------------------------------------------------------------

/// The incremental admission simulator: offer arrivals one at a time
/// (in nondecreasing virtual-arrival order), drain virtual completions
/// up to any point in time, and collect decisions as they are made.
///
/// [`plan_admission`] is a thin batch wrapper over this type; the
/// session engine drives it event-by-event instead, interleaving offers
/// (session opens, mid-stream re-compositions) with the rest of its
/// event loop. Both drivers produce identical decisions for identical
/// offer sequences: the simulation's state transitions happen only at
/// offers and at virtual completion instants, so *when* `drain_until`
/// is called (one final sweep vs. many small ones) cannot change the
/// outcome.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    arrivals: Vec<ArrivalMeta>,
    decisions: Vec<Option<AdmissionDecision>>,
    /// Tickets decided since the last [`take_newly_decided`]
    /// (in decision order).
    newly_decided: Vec<usize>,
    /// Per-class FIFO of request indices (class 0 only when
    /// `!config.priority`).
    queues: [VecDeque<usize>; 3],
    /// `(finish_us, seq, index)` of running compositions, min-first.
    running: BinaryHeap<Reverse<(u64, u64, usize)>>,
    in_flight: u32,
    limit: u32,
    successes: u32,
    last_decrease_us: Option<u64>,
    /// Brown-out state: current rung index into the ladder plus dwell
    /// counters.
    rung: usize,
    above: u32,
    below: u32,
    seq: u64,
    stats: AdmissionStats,
}

impl AdmissionQueue {
    /// An empty queue. Offers are accepted incrementally; callers must
    /// offer in nondecreasing `arrival_us` order (the virtual clock
    /// never rewinds).
    pub fn new(config: AdmissionConfig) -> AdmissionQueue {
        let limit = config
            .initial_limit
            .max(config.min_limit)
            .min(config.max_limit.max(1))
            .max(1);
        AdmissionQueue {
            config,
            arrivals: Vec::new(),
            decisions: Vec::new(),
            newly_decided: Vec::new(),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            running: BinaryHeap::new(),
            in_flight: 0,
            limit,
            successes: 0,
            last_decrease_us: None,
            rung: 0,
            above: 0,
            below: 0,
            seq: 0,
            stats: AdmissionStats {
                offered: 0,
                final_limit: limit,
                min_limit_seen: limit,
                ..AdmissionStats::default()
            },
        }
    }

    /// Record a decision for `index` and remember it for
    /// [`take_newly_decided`].
    fn decide(&mut self, index: usize, decision: AdmissionDecision) {
        debug_assert!(self.decisions[index].is_none(), "one decision per offer");
        self.decisions[index] = Some(decision);
        self.newly_decided.push(index);
    }

    /// The decision for ticket `index`, once made.
    pub fn decision(&self, index: usize) -> Option<AdmissionDecision> {
        self.decisions.get(index).copied().flatten()
    }

    /// Tickets decided since the last call, in decision order. Sheds at
    /// arrival surface immediately after the `offer` that caused them;
    /// queued requests surface from the `drain_until`/`offer` call whose
    /// virtual completions started (or timed out) them.
    pub fn take_newly_decided(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.newly_decided)
    }

    /// Aggregates so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Earliest pending virtual completion, if any composition is
    /// running — the next instant at which queued work can start (the
    /// session engine schedules its admission-pump events here).
    pub fn next_finish_us(&self) -> Option<u64> {
        self.running.peek().map(|&Reverse((finish, _, _))| finish)
    }

    /// Offers still queued without a decision (a running request is
    /// already decided — its decision was made when it started).
    pub fn undecided(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_none()).count()
    }

    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn current_rung(&self) -> DegradationRung {
        DegradationRung::LADDER[self.rung]
    }

    /// Complete every running composition with `finish <= t`, freeing
    /// slots and starting queued work at each completion instant.
    pub fn drain_until(&mut self, t: u64) {
        while let Some(&Reverse((finish, _, index))) = self.running.peek() {
            if finish > t {
                return;
            }
            self.running.pop();
            self.in_flight -= 1;
            self.aimd_on_completion(index, finish);
            self.start_queued(finish);
        }
    }

    fn aimd_on_completion(&mut self, index: usize, now_us: u64) {
        if !self.config.adaptive {
            return;
        }
        let met = self.decisions[index]
            .as_ref()
            .map(|d| d.deadline_met)
            .unwrap_or(true);
        if met {
            // Probe upward only while the limit is binding (slots were
            // saturated or work is waiting) — an idle system gives no
            // evidence that more concurrency would be safe.
            let binding = self.queued_total() > 0 || self.in_flight + 1 >= self.limit;
            if binding {
                self.successes += 1;
            }
            if self.successes >= self.config.aimd_window.max(1) {
                self.successes = 0;
                self.limit = self
                    .limit
                    .saturating_add(self.config.aimd_increase)
                    .min(self.config.max_limit.max(1));
            }
        } else {
            self.successes = 0;
            let cooled = self
                .last_decrease_us
                .map(|t0| now_us.saturating_sub(t0) >= self.config.aimd_cooldown_us)
                .unwrap_or(true);
            if cooled {
                let shrunk = (self.limit as u64 * self.config.aimd_decrease_pct.min(100) as u64
                    / 100) as u32;
                self.limit = shrunk.max(self.config.min_limit.max(1));
                self.last_decrease_us = Some(now_us);
                self.stats.limit_decreases += 1;
                self.stats.min_limit_seen = self.stats.min_limit_seen.min(self.limit);
            }
        }
        self.stats.final_limit = self.limit;
    }

    /// Brown-out controller, ticked once per arrival: occupancy held
    /// beyond a watermark for `brownout_dwell` consecutive arrivals
    /// steps the rung.
    fn tick_brownout(&mut self) {
        if !self.config.brownout || self.config.queue_capacity == usize::MAX {
            return;
        }
        let capacity = self.per_capacity_total();
        let occupancy_pct = (self.queued_total().saturating_mul(100) / capacity.max(1)) as u32;
        if occupancy_pct >= self.config.brownout_enter_pct {
            self.above += 1;
            self.below = 0;
            if self.above >= self.config.brownout_dwell.max(1)
                && self.rung + 1 < DegradationRung::LADDER.len()
            {
                self.rung += 1;
                self.above = 0;
                self.stats.brownout_steps += 1;
                self.stats.peak_rung = self.stats.peak_rung.max(self.current_rung());
            }
        } else if occupancy_pct <= self.config.brownout_exit_pct {
            self.below += 1;
            self.above = 0;
            if self.below >= self.config.brownout_dwell.max(1) && self.rung > 0 {
                self.rung -= 1;
                self.below = 0;
            }
        } else {
            self.above = 0;
            self.below = 0;
        }
    }

    fn per_capacity_total(&self) -> usize {
        self.config.queue_capacity.saturating_mul(3)
    }

    /// Predicted start time for a new arrival of `class` at `now`,
    /// assuming no further arrivals and the current limit: assign every
    /// queued request ahead of it to the earliest-freeing slot, then
    /// read off the earliest remaining slot.
    ///
    /// Of the `limit` slots, the `limit − min(running, limit)` idle ones
    /// are kept as a count: `offer` drains to `now` first, so every
    /// running finish is later than `now` and an idle slot (free at
    /// `now`) always pops before a busy one. Only the kept finishes —
    /// the latest `min(running, limit)`; with the limit just shrunk the
    /// earliest completions only bring `in_flight` back down to it — and
    /// what the requests ahead push back ever sit on a heap, and with
    /// nobody ahead nothing is allocated. No path costs anything in
    /// `limit`.
    fn predict_start(&self, now: u64, class: usize) -> u64 {
        let limit = self.limit.max(1) as usize;
        let busy = self.running.len().min(limit);
        let mut idle = limit - busy;
        let mut ahead = self.queues[..=class.min(2)]
            .iter()
            .flat_map(VecDeque::iter)
            .peekable();
        if ahead.peek().is_none() {
            return if idle > 0 {
                now
            } else {
                self.earliest_kept_finish(limit).max(now)
            };
        }
        let mut finishes: Vec<u64> = self
            .running
            .iter()
            .map(|&Reverse((finish, _, _))| finish)
            .collect();
        finishes.sort_unstable();
        let excess = finishes.len() - busy;
        let mut slots: BinaryHeap<Reverse<u64>> = finishes.drain(excess..).map(Reverse).collect();
        meter_slots(slots.len());
        let rung = self.current_rung();
        for &index in ahead {
            let start = if idle > 0 {
                idle -= 1;
                now
            } else {
                // `busy == limit ≥ 1` slots are on the heap whenever
                // none is idle, and each pop is pushed back.
                let Some(Reverse(free_at)) = slots.pop() else {
                    break;
                };
                free_at.max(now)
            };
            let cost = self
                .config
                .rung_cost(self.arrivals[index].service_cost_us, rung);
            slots.push(Reverse(start.saturating_add(cost)));
            meter_slots(1);
        }
        if idle > 0 {
            return now;
        }
        slots
            .peek()
            .map_or(now, |&Reverse(free_at)| free_at.max(now))
    }

    /// The earliest of the `limit` latest running finishes: when every
    /// slot is busy, the first one to free. Callers hold `running ≥
    /// limit`.
    fn earliest_kept_finish(&self, limit: usize) -> u64 {
        match self.running.len().saturating_sub(limit) {
            0 => self.next_finish_us().unwrap_or(0),
            excess => {
                let mut finishes: Vec<u64> = self
                    .running
                    .iter()
                    .map(|&Reverse((finish, _, _))| finish)
                    .collect();
                *finishes.select_nth_unstable(excess).1
            }
        }
    }

    /// Start queued work while slots are free, highest class first,
    /// dropping requests whose deadline lapsed in the queue.
    fn start_queued(&mut self, now: u64) {
        while self.in_flight < self.limit {
            let Some(index) = self
                .queues
                .iter_mut()
                .find(|q| !q.is_empty())
                .and_then(VecDeque::pop_front)
            else {
                return;
            };
            let arrival = self.arrivals[index];
            let waited = now.saturating_sub(arrival.arrival_us);
            // Dropping a queue-lapsed request is part of deadline-aware
            // shedding; the unprotected baseline burns a worker on it
            // and finishes late.
            if self.config.deadline_shed {
                if let Some(budget) = arrival.deadline_budget_us {
                    if waited > budget {
                        self.decide(
                            index,
                            AdmissionDecision::shed(ShedReason::QueueTimeout, waited),
                        );
                        self.stats.shed_queue_timeout += 1;
                        continue;
                    }
                }
            }
            self.start(index, now);
        }
    }

    fn start(&mut self, index: usize, now: u64) {
        let arrival = self.arrivals[index];
        let rung = if self.config.brownout {
            self.current_rung()
        } else {
            DegradationRung::Full
        };
        let base = self.config.rung_cost(arrival.service_cost_us, rung);
        self.in_flight += 1;
        let excess = self
            .in_flight
            .saturating_sub(self.config.virtual_cores.max(1)) as u64;
        let penalty_pct = 100 + self.config.overload_penalty_pct as u64 * excess;
        let cost = base.saturating_mul(penalty_pct) / 100;
        let finish = now.saturating_add(cost.max(1));
        let latency = finish.saturating_sub(arrival.arrival_us);
        let met = arrival
            .deadline_budget_us
            .map(|budget| latency <= budget)
            .unwrap_or(true);
        if !met {
            self.stats.deadline_misses += 1;
        }
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
        self.stats.admitted += 1;
        self.stats.peak_rung = self.stats.peak_rung.max(rung);
        self.decide(
            index,
            AdmissionDecision {
                admitted: true,
                shed: None,
                queue_wait_us: now.saturating_sub(arrival.arrival_us),
                start_us: now,
                finish_us: finish,
                latency_us: latency,
                start_rung: rung,
                limit_at_start: self.limit,
                deadline_met: met,
            },
        );
        self.seq += 1;
        self.running.push(Reverse((finish, self.seq, index)));
    }

    /// Offer one arrival and return its ticket (offer ordinal). The
    /// decision may already be available (shed at arrival, or started
    /// on an idle slot) or may land later, at a virtual completion
    /// inside a future `offer`/`drain_until`; poll
    /// [`take_newly_decided`](Self::take_newly_decided) either way.
    pub fn offer(&mut self, meta: ArrivalMeta) -> usize {
        self.offer_with(meta, Self::predict_start)
    }

    /// [`offer`](Self::offer) with the start-time predictor passed in:
    /// the seam the test-only reference predictor plugs into.
    fn offer_with(
        &mut self,
        meta: ArrivalMeta,
        predict_start: impl Fn(&Self, u64, usize) -> u64,
    ) -> usize {
        debug_assert!(
            self.arrivals
                .last()
                .is_none_or(|prev| prev.arrival_us <= meta.arrival_us),
            "offers must arrive in nondecreasing virtual time"
        );
        let index = self.arrivals.len();
        self.arrivals.push(meta);
        self.decisions.push(None);
        self.stats.offered += 1;

        let arrival = self.arrivals[index];
        let now = arrival.arrival_us;
        self.drain_until(now);
        self.tick_brownout();
        let class = self.config.class_of(arrival.priority);
        if self.queues[class].len() >= self.config.per_queue_capacity() {
            self.decide(index, AdmissionDecision::shed(ShedReason::QueueFull, 0));
            self.stats.shed_queue_full += 1;
            return index;
        }
        if self.config.deadline_shed {
            if let Some(budget) = arrival.deadline_budget_us {
                let predicted_wait = predict_start(self, now, class).saturating_sub(now);
                if predicted_wait > budget {
                    self.decide(index, AdmissionDecision::shed(ShedReason::PredictedLate, 0));
                    self.stats.shed_predicted_late += 1;
                    return index;
                }
            }
        }
        self.queues[class].push_back(index);
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queued_total());
        self.start_queued(now);
        index
    }
}

/// Meter `count` slots materialised on `predict_start`'s heap (test
/// builds only).
#[inline(always)]
fn meter_slots(count: usize) {
    #[cfg(test)]
    tests::SLOTS.with(|slots| slots.set(slots.get() + count as u64));
    #[cfg(not(test))]
    let _ = count;
}

/// Run the admission queue over `arrivals` (any order; processed by
/// ascending `arrival_us`, ties by index) and return one decision per
/// request. Pure and integer-only: identical inputs yield identical
/// plans on any machine.
pub fn plan_admission(arrivals: &[ArrivalMeta], config: &AdmissionConfig) -> AdmissionPlan {
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by_key(|&i| (arrivals[i].arrival_us, i));

    let mut queue = AdmissionQueue::new(*config);
    let mut ticket_of = vec![usize::MAX; arrivals.len()];
    for index in order {
        ticket_of[index] = queue.offer(arrivals[index]);
    }
    queue.drain_until(u64::MAX);

    let decisions: Vec<AdmissionDecision> = ticket_of
        .iter()
        .map(|&ticket| {
            queue
                .decision(ticket)
                .expect("every offered request gets a decision")
        })
        .collect();
    let stats = queue.stats();
    debug_assert_eq!(stats.admitted + stats.shed_total(), stats.offered);
    AdmissionPlan { decisions, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{run_cases, ProptestConfig, TestRng};
    use rand::RngExt;

    thread_local! {
        /// Slots `predict_start` put on its heap on this thread — the
        /// meter of the counted-work gate below.
        pub(super) static SLOTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Slots `work` makes `predict_start` materialise on this thread.
    fn slots_in(work: impl FnOnce()) -> u64 {
        let before = SLOTS.with(|slots| slots.get());
        work();
        SLOTS.with(|slots| slots.get()) - before
    }

    impl AdmissionQueue {
        /// The predictor before idle slots were counted, verbatim: one
        /// heap entry per slot, the idle ones padded with `now`.
        fn predict_start_reference(&self, now: u64, class: usize) -> u64 {
            let limit = self.limit.max(1) as usize;
            let mut finishes: Vec<u64> = self
                .running
                .iter()
                .map(|&Reverse((finish, _, _))| finish)
                .collect();
            finishes.sort_unstable();
            // With in_flight > limit (the limit just shrank) the earliest
            // completions only bring us back down to the limit; drop them.
            let excess = finishes.len().saturating_sub(limit);
            let mut slots: BinaryHeap<Reverse<u64>> =
                finishes[excess..].iter().map(|&f| Reverse(f)).collect();
            while slots.len() < limit {
                slots.push(Reverse(now));
            }
            let rung = self.current_rung();
            let ahead = self.queues[..=class.min(2)]
                .iter()
                .flat_map(|q| q.iter())
                .copied();
            for index in ahead {
                let Some(Reverse(free_at)) = slots.pop() else {
                    break;
                };
                let start = free_at.max(now);
                let cost = self
                    .config
                    .rung_cost(self.arrivals[index].service_cost_us, rung);
                slots.push(Reverse(start.saturating_add(cost)));
            }
            slots
                .peek()
                .map(|&Reverse(free_at)| free_at.max(now))
                .unwrap_or(now)
        }
    }

    /// A small random config: limit 1–64 with AIMD on (misses shrink the
    /// limit, down below `in_flight`), priority on or off, brown-out on
    /// or off, queues of 1–6.
    fn random_config(rng: &mut TestRng) -> AdmissionConfig {
        let max_limit = rng.random_range(1..=64u32);
        let exit_pct = rng.random_range(0..=40u32);
        AdmissionConfig {
            deadline_shed: true,
            priority: rng.random_bool(0.5),
            brownout: rng.random_bool(0.5),
            adaptive: true,
            queue_capacity: rng.random_range(1..=6usize),
            virtual_cores: rng.random_range(1..=8u32),
            initial_limit: rng.random_range(1..=max_limit),
            min_limit: rng.random_range(1..=max_limit),
            max_limit,
            aimd_increase: rng.random_range(1..=4u32),
            aimd_window: rng.random_range(1..=4u32),
            aimd_decrease_pct: rng.random_range(10..=90u32),
            aimd_cooldown_us: rng.random_range(0..=2_000u64),
            overload_penalty_pct: rng.random_range(0..=50u32),
            brownout_enter_pct: rng.random_range(exit_pct..=100),
            brownout_exit_pct: exit_pct,
            brownout_dwell: rng.random_range(1..=3u32),
            rung_cost_pct: [100, 85, 70, 55],
        }
    }

    fn random_arrival(rng: &mut TestRng, arrival_us: u64) -> ArrivalMeta {
        meta(
            arrival_us,
            PriorityClass::ALL[rng.random_range(0..3usize)],
            rng.random_range(1..=5_000u64),
            if rng.random_bool(0.25) {
                None
            } else {
                Some(rng.random_range(0..=8_000u64))
            },
        )
    }

    /// Random offer/drain sequences over random configs: at every offer
    /// the counted-slot predictor answers what the padded heap answers for
    /// every class, and a queue driven by each makes the same decisions
    /// in the same order — the same ones `plan_admission` makes.
    #[test]
    fn predictions_equal_the_padded_heap_on_random_offer_sequences() {
        let config = ProptestConfig {
            cases: 1_024,
            ..ProptestConfig::default()
        };
        run_cases(config, "admission_predictions", |rng| {
            let config = random_config(rng);
            let mut now = 0u64;
            let arrivals: Vec<ArrivalMeta> = (0..rng.random_range(1..=60usize))
                .map(|_| {
                    now += rng.random_range(0..=1_500u64);
                    random_arrival(rng, now)
                })
                .collect();
            let mut fast = AdmissionQueue::new(config);
            let mut slow = AdmissionQueue::new(config);
            for (k, &arrival) in arrivals.iter().enumerate() {
                let now = arrival.arrival_us;
                // The state `offer` predicts from: drained to the arrival.
                fast.drain_until(now);
                for class in 0..3 {
                    assert_eq!(
                        fast.predict_start(now, class),
                        fast.predict_start_reference(now, class),
                        "offer {k}, class {class}, {config:?}"
                    );
                }
                fast.offer(arrival);
                slow.offer_with(arrival, AdmissionQueue::predict_start_reference);
                assert_eq!(fast.take_newly_decided(), slow.take_newly_decided());
                // Drain part of the way to the next arrival now and then.
                if rng.random_bool(0.3) {
                    let next = arrivals.get(k + 1).map_or(u64::MAX, |a| a.arrival_us);
                    if let Some(finish) = fast.next_finish_us() {
                        fast.drain_until(finish.min(next));
                        slow.drain_until(finish.min(next));
                    }
                }
            }
            fast.drain_until(u64::MAX);
            slow.drain_until(u64::MAX);
            let plan = plan_admission(&arrivals, &config);
            for (i, decision) in plan.decisions.iter().enumerate() {
                assert_eq!(fast.decision(i), Some(*decision));
                assert_eq!(slow.decision(i), Some(*decision), "arrival {i}");
            }
            assert_eq!(slow.stats(), plan.stats);
            assert_eq!(fast.stats(), plan.stats);
        });
    }

    /// The two predictors agree on any state, not only reachable ones:
    /// idle slots beside a queue ahead, finishes at or before `now`, a
    /// running set above a shrunken limit.
    #[test]
    fn predictions_equal_the_padded_heap_on_arbitrary_states() {
        let config = ProptestConfig {
            cases: 2_048,
            ..ProptestConfig::default()
        };
        run_cases(config, "admission_states", |rng| {
            let mut queue = AdmissionQueue::new(random_config(rng));
            let now = rng.random_range(0..=10_000u64);
            queue.limit = rng.random_range(1..=16u32);
            queue.rung = rng.random_range(0..DegradationRung::LADDER.len());
            for seq in 0..rng.random_range(0..=24u64) {
                let finish = now.saturating_sub(2) + rng.random_range(0..=3_000u64);
                queue.running.push(Reverse((finish, seq, 0)));
            }
            for index in 0..rng.random_range(0..=12usize) {
                queue.arrivals.push(random_arrival(rng, now));
                queue.decisions.push(None);
                queue.queues[rng.random_range(0..3usize)].push_back(index);
            }
            for class in 0..3 {
                assert_eq!(
                    queue.predict_start(now, class),
                    queue.predict_start_reference(now, class),
                    "class {class}, limit {}, {} running, queues {:?}",
                    queue.limit,
                    queue.running.len(),
                    queue.queues
                );
            }
        });
    }

    /// Counted-work gate: with nobody queued ahead a prediction puts no
    /// slot on a heap (the padded heap put `limit` there on every offer,
    /// 512 at `benchmark/`'s `sessions_chaos` limit).
    #[test]
    fn predictions_materialise_no_slot_when_nobody_is_ahead() {
        let config = AdmissionConfig {
            virtual_cores: 512,
            initial_limit: 512,
            max_limit: 1_024,
            ..AdmissionConfig::protected()
        };
        // ≈ 250 running at a time, each with a deadline budget it meets.
        let arrivals: Vec<ArrivalMeta> = (0..2_000u64)
            .map(|i| meta(i * 40, PriorityClass::Standard, 10_000, Some(20_000)))
            .collect();
        let mut plan = None;
        let slots = slots_in(|| plan = Some(plan_admission(&arrivals, &config)));
        let plan = plan.expect("planned");
        assert_eq!(plan.stats.admitted, arrivals.len());
        assert!(
            plan.stats.peak_in_flight >= 250,
            "the slots really are busy"
        );
        assert_eq!(slots, 0);

        // A queue ahead costs what it holds, not what the limit is.
        let config = AdmissionConfig {
            initial_limit: 2,
            max_limit: 2,
            adaptive: false,
            brownout: false,
            ..AdmissionConfig::default()
        };
        let arrivals: Vec<ArrivalMeta> = (0..5)
            .map(|i| meta(i, PriorityClass::Standard, 10_000, Some(1_000_000)))
            .collect();
        // Offer 3 finds both slots busy and nobody queued; offers 4 and 5
        // find the two busy finishes and one, then two requests ahead.
        let slots = slots_in(|| {
            plan_admission(&arrivals, &config);
        });
        assert_eq!(slots, (2 + 1) + (2 + 2));
    }

    /// A hostile limit costs nothing per slot: at `u32::MAX` the padded
    /// heap would ask for ≈ 34 GB on the first offer.
    #[test]
    fn a_u32_max_limit_admits_everyone_at_once() {
        let config = AdmissionConfig {
            initial_limit: u32::MAX,
            max_limit: u32::MAX,
            virtual_cores: u32::MAX,
            ..AdmissionConfig::protected()
        };
        assert!(config.deadline_shed);
        let arrivals: Vec<ArrivalMeta> = (0..1_000u64)
            .map(|i| meta(i, PriorityClass::ALL[i as usize % 3], 50_000, Some(100_000)))
            .collect();
        let start = std::time::Instant::now();
        let plan = plan_admission(&arrivals, &config);
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
        assert_eq!(plan.stats.admitted, arrivals.len());
        assert!(plan.decisions.iter().all(|d| d.queue_wait_us == 0));
        assert_eq!(plan.stats.final_limit, u32::MAX);
    }

    fn meta(
        arrival_us: u64,
        priority: PriorityClass,
        cost: u64,
        budget: Option<u64>,
    ) -> ArrivalMeta {
        ArrivalMeta {
            arrival_us,
            priority,
            service_cost_us: cost,
            deadline_budget_us: budget,
        }
    }

    #[test]
    fn empty_offer_list_is_fine() {
        let plan = plan_admission(&[], &AdmissionConfig::default());
        assert!(plan.decisions.is_empty());
        assert_eq!(plan.stats.offered, 0);
        assert_eq!(plan.stats.admitted, 0);
    }

    #[test]
    fn idle_queue_admits_immediately() {
        let arrivals = [meta(100, PriorityClass::Standard, 5_000, Some(50_000))];
        let plan = plan_admission(&arrivals, &AdmissionConfig::default());
        let d = &plan.decisions[0];
        assert!(d.admitted);
        assert_eq!(d.queue_wait_us, 0);
        assert_eq!(d.start_us, 100);
        assert_eq!(d.finish_us, 5_100);
        assert!(d.deadline_met);
        assert_eq!(d.start_rung, DegradationRung::Full);
    }

    #[test]
    fn strict_priority_dequeues_interactive_first() {
        // One slot; three arrivals land while it is busy. Background
        // arrived first but interactive starts first.
        let config = AdmissionConfig {
            initial_limit: 1,
            min_limit: 1,
            max_limit: 1,
            adaptive: false,
            brownout: false,
            deadline_shed: false,
            ..AdmissionConfig::default()
        };
        let arrivals = [
            meta(0, PriorityClass::Standard, 10_000, None),
            meta(1, PriorityClass::Background, 10_000, None),
            meta(2, PriorityClass::Interactive, 10_000, None),
        ];
        let plan = plan_admission(&arrivals, &config);
        assert!(plan.decisions.iter().all(|d| d.admitted));
        assert!(
            plan.decisions[2].start_us < plan.decisions[1].start_us,
            "interactive jumps the queued background request"
        );
    }

    #[test]
    fn fifo_without_priority_preserves_arrival_order() {
        let config = AdmissionConfig {
            initial_limit: 1,
            max_limit: 1,
            adaptive: false,
            priority: false,
            brownout: false,
            deadline_shed: false,
            ..AdmissionConfig::default()
        };
        let arrivals = [
            meta(0, PriorityClass::Background, 10_000, None),
            meta(1, PriorityClass::Interactive, 10_000, None),
        ];
        let plan = plan_admission(&arrivals, &config);
        assert!(plan.decisions[0].start_us < plan.decisions[1].start_us);
    }

    #[test]
    fn hopeless_requests_are_shed_at_arrival() {
        // One busy slot for 100ms; the second request has a 1ms budget:
        // its predicted wait alone (≈100ms) is hopeless.
        let config = AdmissionConfig {
            initial_limit: 1,
            max_limit: 1,
            adaptive: false,
            brownout: false,
            ..AdmissionConfig::default()
        };
        let arrivals = [
            meta(0, PriorityClass::Standard, 100_000, None),
            meta(10, PriorityClass::Standard, 5_000, Some(1_000)),
        ];
        let plan = plan_admission(&arrivals, &config);
        assert!(plan.decisions[0].admitted);
        assert_eq!(plan.decisions[1].shed, Some(ShedReason::PredictedLate));
        assert_eq!(plan.stats.shed_predicted_late, 1);
    }

    #[test]
    fn full_queue_sheds() {
        let config = AdmissionConfig {
            initial_limit: 1,
            max_limit: 1,
            adaptive: false,
            brownout: false,
            deadline_shed: false,
            queue_capacity: 1,
            ..AdmissionConfig::default()
        };
        // Slot busy, queue holds one, the third is refused.
        let arrivals = [
            meta(0, PriorityClass::Standard, 100_000, None),
            meta(1, PriorityClass::Standard, 100_000, None),
            meta(2, PriorityClass::Standard, 100_000, None),
        ];
        let plan = plan_admission(&arrivals, &config);
        assert_eq!(plan.decisions[2].shed, Some(ShedReason::QueueFull));
        assert_eq!(plan.stats.shed_queue_full, 1);
    }

    #[test]
    fn queue_timeout_drops_without_consuming_a_worker() {
        // The standard request is admitted on an honest prediction
        // (≈50ms wait, 60ms budget), but an interactive request then
        // jumps the queue and pushes its real wait past the budget: it
        // is dropped at dequeue time, not started late.
        let config = AdmissionConfig {
            initial_limit: 1,
            max_limit: 1,
            adaptive: false,
            brownout: false,
            ..AdmissionConfig::default()
        };
        let arrivals = [
            meta(0, PriorityClass::Standard, 50_000, None),
            meta(10, PriorityClass::Standard, 5_000, Some(60_000)),
            meta(20, PriorityClass::Interactive, 50_000, None),
        ];
        let plan = plan_admission(&arrivals, &config);
        assert!(plan.decisions[2].admitted, "interactive jumps ahead");
        assert_eq!(plan.decisions[1].shed, Some(ShedReason::QueueTimeout));
        assert!(plan.decisions[1].queue_wait_us > 60_000);

        // The unprotected baseline never sheds: everything is admitted
        // and burns a worker, however late.
        let unprotected = AdmissionConfig {
            initial_limit: 1,
            max_limit: 1,
            ..AdmissionConfig::unprotected()
        };
        let plan = plan_admission(&arrivals, &unprotected);
        assert_eq!(plan.stats.shed_total(), 0);
        assert!(plan.decisions.iter().all(|d| d.admitted));
    }

    #[test]
    fn aimd_backs_off_on_misses_and_recovers_on_hits() {
        let config = AdmissionConfig {
            initial_limit: 8,
            min_limit: 1,
            max_limit: 8,
            virtual_cores: 2,
            brownout: false,
            deadline_shed: false,
            aimd_cooldown_us: 0,
            ..AdmissionConfig::default()
        };
        // A burst of impossible deadlines: every completion is a miss.
        let misses: Vec<ArrivalMeta> = (0..16)
            .map(|i| meta(i, PriorityClass::Standard, 50_000, Some(1)))
            .collect();
        let plan = plan_admission(&misses, &config);
        assert!(plan.stats.limit_decreases > 0, "misses shrink the limit");
        assert!(plan.stats.min_limit_seen < 8);
        assert!(plan.stats.final_limit >= config.min_limit);

        // Comfortable deadlines: the limit never shrinks.
        let hits: Vec<ArrivalMeta> = (0..64)
            .map(|i| meta(i * 30_000, PriorityClass::Standard, 10_000, Some(1_000_000)))
            .collect();
        let plan = plan_admission(&hits, &config);
        assert_eq!(plan.stats.limit_decreases, 0);
        assert_eq!(
            plan.stats.final_limit, 8,
            "additive growth is capped at max"
        );
    }

    #[test]
    fn brownout_steps_down_under_pressure_and_back_up() {
        let config = AdmissionConfig {
            initial_limit: 1,
            max_limit: 1,
            adaptive: false,
            deadline_shed: false,
            queue_capacity: 4,
            brownout_dwell: 2,
            brownout_enter_pct: 25,
            brownout_exit_pct: 10,
            ..AdmissionConfig::default()
        };
        // Flood a single slot so the queue stays deep, then trickle.
        let mut arrivals: Vec<ArrivalMeta> = (0..10)
            .map(|i| meta(i, PriorityClass::Standard, 40_000, None))
            .collect();
        // Late stragglers arrive after the flood drained: enough of
        // them to walk the rung back up (each step needs `dwell`
        // consecutive low-occupancy arrivals).
        for i in 0..8u64 {
            arrivals.push(meta(
                2_000_000 + i * 100_000,
                PriorityClass::Standard,
                1_000,
                None,
            ));
        }
        let plan = plan_admission(&arrivals, &config);
        assert!(
            plan.stats.brownout_steps > 0,
            "pressure steps the rung down"
        );
        assert!(plan.stats.peak_rung > DegradationRung::Full);
        let flooded = plan.decisions[..10]
            .iter()
            .filter(|d| d.admitted && d.start_rung > DegradationRung::Full)
            .count();
        assert!(flooded > 0, "some flooded requests start degraded");
        let last = plan.decisions.last().unwrap();
        assert!(last.admitted);
        assert_eq!(
            last.start_rung,
            DegradationRung::Full,
            "pressure drained, rung recovered"
        );
    }

    #[test]
    fn plans_are_deterministic() {
        let arrivals: Vec<ArrivalMeta> = (0..200)
            .map(|i| {
                meta(
                    (i as u64 * 7_919) % 500_000,
                    PriorityClass::ALL[i % 3],
                    5_000 + (i as u64 % 11) * 3_000,
                    if i % 4 == 0 { None } else { Some(120_000) },
                )
            })
            .collect();
        let config = AdmissionConfig::default();
        let a = plan_admission(&arrivals, &config);
        let b = plan_admission(&arrivals, &config);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn incremental_queue_matches_the_batch_planner() {
        // Drive the AdmissionQueue offer-by-offer with extra drains
        // interleaved at arbitrary points: drain granularity must not
        // change a single decision or stat versus the batch wrapper.
        let arrivals: Vec<ArrivalMeta> = (0..300)
            .map(|i| {
                meta(
                    (i as u64 * 7_919) % 400_000,
                    PriorityClass::ALL[(i * 5) % 3],
                    3_000 + (i as u64 % 13) * 2_500,
                    if i % 3 == 0 { None } else { Some(90_000) },
                )
            })
            .collect();
        for config in [
            AdmissionConfig::unprotected(),
            AdmissionConfig::shed_only(),
            AdmissionConfig::protected(),
        ] {
            let batch = plan_admission(&arrivals, &config);
            let mut order: Vec<usize> = (0..arrivals.len()).collect();
            order.sort_by_key(|&i| (arrivals[i].arrival_us, i));
            let mut queue = AdmissionQueue::new(config);
            let mut tickets = vec![usize::MAX; arrivals.len()];
            let mut decided = Vec::new();
            for (k, &i) in order.iter().enumerate() {
                if k % 3 == 0 {
                    queue.drain_until(arrivals[i].arrival_us);
                }
                tickets[i] = queue.offer(arrivals[i]);
                // Extra drains are sound only up to the next offer's
                // arrival (the virtual clock of the simulation must not
                // run ahead of arrivals still to be offered) — the same
                // rule the session event loop obeys.
                if k % 5 == 0 {
                    let next_arrival = order
                        .get(k + 1)
                        .map_or(u64::MAX, |&j| arrivals[j].arrival_us);
                    if let Some(finish) = queue.next_finish_us() {
                        queue.drain_until(finish.min(next_arrival));
                    }
                }
                decided.extend(queue.take_newly_decided());
            }
            queue.drain_until(u64::MAX);
            decided.extend(queue.take_newly_decided());
            assert_eq!(queue.stats(), batch.stats);
            for (i, &ticket) in tickets.iter().enumerate() {
                assert_eq!(
                    queue.decision(ticket),
                    Some(batch.decisions[i]),
                    "decision for arrival {i} diverged"
                );
            }
            // Every ticket is reported exactly once via the
            // newly-decided channel.
            decided.sort_unstable();
            assert_eq!(decided, (0..arrivals.len()).collect::<Vec<_>>());
            assert_eq!(queue.undecided(), 0);
        }
    }

    #[test]
    fn every_request_gets_exactly_one_decision() {
        let arrivals: Vec<ArrivalMeta> = (0..500)
            .map(|i| {
                meta(
                    (i as u64 * 104_729) % 300_000,
                    PriorityClass::ALL[(i * 7) % 3],
                    2_000 + (i as u64 % 23) * 1_500,
                    Some(40_000 + (i as u64 % 5) * 20_000),
                )
            })
            .collect();
        for config in [
            AdmissionConfig::unprotected(),
            AdmissionConfig::shed_only(),
            AdmissionConfig::shed_priority(),
            AdmissionConfig::protected(),
        ] {
            let plan = plan_admission(&arrivals, &config);
            assert_eq!(plan.decisions.len(), arrivals.len());
            assert_eq!(
                plan.stats.admitted + plan.stats.shed_total(),
                arrivals.len()
            );
            for d in &plan.decisions {
                assert_eq!(d.admitted, d.shed.is_none());
                if d.admitted {
                    assert!(d.finish_us > d.start_us);
                    assert!(d.latency_us >= d.queue_wait_us);
                }
            }
        }
    }
}
