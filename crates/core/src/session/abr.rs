//! Buffer-aware mid-stream adaptation: a deterministic playout-buffer
//! model and a BOLA-style Lyapunov controller over the
//! [`DegradationRung`] ladder.
//!
//! The paper picks one quality operating point at admission; under
//! squeezed-bandwidth chaos the session engine either rides a too-high
//! rung into starvation or gets yanked down by reactive
//! re-composition. This module closes the loop the way adaptive
//! streaming players do (BOLA; the `PSMAbrAlgorithm` TLA+ spec in
//! SNIPPETS.md):
//!
//! * every session owns a [`PlayoutBuffer`] — integer microseconds of
//!   media, filled at the rung's *achieved* throughput through netsim
//!   (a parts-per-million fill rate sampled from the
//!   [`SessionWorld`]) and drained by playback at
//!   one microsecond of media per virtual microsecond;
//! * per progress tick a [`BolaController`] scores each ladder rung by
//!   `(utility + gamma_b · buffer_headroom) / rung_cost` and decides
//!   *when* to re-compose and *which* rung to request, replacing the
//!   static rung chosen at open.
//!
//! Everything is integer fixed-point on the virtual clock: no wall
//! time, no accumulating float state, so runs are bitwise identical
//! across machines and worker counts, and the TLA+ invariants — buffer
//! bounds, switch-rate bounds, no A→B→A oscillation inside the dwell
//! window — are enforced by construction and pinned by the
//! `abr_invariants` proptest suite.

use qosc_telemetry::{EventKind, TelemetrySink};

use crate::engine::DegradationRung;

use super::event_loop::{JobKind, Loop, Sess};
use super::{SessionEngineConfig, SessionWorld};

/// One million: the fixed-point unit of fill rates (`fill_ppm`) and of
/// the controller's utility scale.
pub const PPM: u64 = 1_000_000;

/// How the session engine adapts mid-stream when a buffer model is
/// attached ([`SessionEngineConfig::abr`](super::SessionEngineConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbrMode {
    /// No controller: the session keeps requesting the rung assigned
    /// at open on every (hard-fault) re-composition. Bandwidth
    /// shortfall never kills the plan — it drains the buffer, and the
    /// rebuffer time shows what riding a too-high rung costs.
    StaticLadder,
    /// The buffer model attached for observation only: a bandwidth
    /// squeeze breaks plan liveness and triggers a reactive
    /// re-composition continuing *down* from the current rung (never
    /// climbing back). The buffer absorbs the dark gap.
    Reactive,
    /// The BOLA controller: bandwidth shortfall drains the buffer, the
    /// per-tick score decides when to re-compose and which rung to
    /// request — down-switches before the buffer runs dry, up-switches
    /// when headroom returns.
    Bola,
}

impl AbrMode {
    /// Stable machine-readable name (used by the X17 scorecard).
    pub fn label(self) -> &'static str {
        match self {
            AbrMode::StaticLadder => "static",
            AbrMode::Reactive => "reactive",
            AbrMode::Bola => "bola",
        }
    }
}

/// Tuning for the buffer model and the BOLA controller. The defaults
/// put the rung-crossing thresholds at 1 s buffer spacings on a 4 s
/// buffer (see [`BolaController::target_rung`]).
#[derive(Debug, Clone, Copy)]
pub struct AbrConfig {
    /// Which adaptation policy runs on top of the buffer model.
    pub mode: AbrMode,
    /// Playout-buffer capacity, microseconds of media. Fill beyond it
    /// is discarded (the sender pauses), so the level never exceeds it.
    pub buffer_capacity_us: u64,
    /// Buffer credit granted when the opening plan is adopted —
    /// startup latency is modeled as pre-buffered media, so it does not
    /// count as a rebuffer stall.
    pub startup_buffer_us: u64,
    /// Weight of buffer headroom in the rung score, fixed-point: one
    /// unit of `gamma_b_ppm` adds `headroom_us` to the utility
    /// numerator per [`PPM`] of configured gamma.
    pub gamma_b_ppm: u64,
    /// Per-rung utility (quality value), indexed like
    /// [`DegradationRung::LADDER`]. Must make `utility/cost` strictly
    /// decreasing down the ladder so a full buffer prefers `Full`.
    pub rung_utility: [u64; 4],
    /// Per-rung relative bitrate cost (percent of the `Full` demand),
    /// indexed like [`DegradationRung::LADDER`].
    pub rung_cost_pct: [u64; 4],
    /// Minimum virtual time between controller switch *attempts* — the
    /// anti-oscillation dwell window. At most one switch can commit per
    /// dwell window, which is the TLA+ switch-rate bound.
    pub switch_dwell_us: u64,
    /// Cap on the buffer fill rate, parts-per-million of real time
    /// (how much faster than playback the source may push when the
    /// network has surplus headroom).
    pub max_fill_ppm: u64,
}

impl Default for AbrConfig {
    fn default() -> AbrConfig {
        AbrConfig {
            mode: AbrMode::Bola,
            buffer_capacity_us: 4_000_000,
            startup_buffer_us: 3_500_000,
            // gamma = 1 utility unit per microsecond of headroom; with
            // the utilities below the Full↔Relaxed↔Weighted↔Drop
            // crossings land at 1s / 2s / 3s of headroom (i.e. 3s / 2s
            // / 1s of buffer level) on the 4s capacity.
            gamma_b_ppm: PPM,
            rung_utility: [7_000_000, 4_600_000, 2_714_000, 1_000_000],
            rung_cost_pct: [100, 70, 50, 35],
            switch_dwell_us: 1_000_000,
            max_fill_ppm: 4 * PPM,
        }
    }
}

impl AbrConfig {
    /// The default tuning under a specific mode.
    pub fn with_mode(mode: AbrMode) -> AbrConfig {
        AbrConfig {
            mode,
            ..AbrConfig::default()
        }
    }
}

/// What one [`PlayoutBuffer::advance`] interval did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferAdvance {
    /// Playback time delivered, microseconds.
    pub played_us: u64,
    /// Playback time stalled (buffer dry), microseconds.
    pub stalled_us: u64,
    /// The interval crossed from playing into a stall.
    pub entered_stall: bool,
}

/// The deterministic playout buffer: integer microseconds of media on
/// the virtual clock. Invariant (TLA+ `BufferBounds`, enforced by
/// construction): `0 <= level_us <= capacity_us` after every advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayoutBuffer {
    level_us: u64,
    capacity_us: u64,
    stalled: bool,
}

impl PlayoutBuffer {
    /// A buffer at `level_us` (clamped to capacity).
    pub fn new(level_us: u64, capacity_us: u64) -> PlayoutBuffer {
        PlayoutBuffer {
            level_us: level_us.min(capacity_us),
            capacity_us,
            stalled: false,
        }
    }

    /// Current level, microseconds of media.
    pub fn level_us(&self) -> u64 {
        self.level_us
    }

    /// Capacity, microseconds of media.
    pub fn capacity_us(&self) -> u64 {
        self.capacity_us
    }

    /// Room left before the buffer is full, microseconds.
    pub fn headroom_us(&self) -> u64 {
        self.capacity_us.saturating_sub(self.level_us)
    }

    /// Advance `dt_us` of virtual time with media arriving at
    /// `fill_ppm` (parts-per-million of real time; [`PPM`] = exactly
    /// real-time). Playback consumes one microsecond of media per
    /// microsecond of virtual time while any is available; time with
    /// an empty buffer stalls. Fill beyond capacity is discarded.
    pub fn advance(&mut self, dt_us: u64, fill_ppm: u64) -> BufferAdvance {
        if dt_us == 0 {
            return BufferAdvance::default();
        }
        // u128 intermediate: dt up to the full u64 range times fill.
        let arrived = ((dt_us as u128 * fill_ppm as u128) / PPM as u128).min(u64::MAX as u128);
        let available = (self.level_us as u128 + arrived).min(u64::MAX as u128) as u64;
        let played = dt_us.min(available);
        let stalled = dt_us - played;
        let entered_stall = stalled > 0 && !self.stalled;
        self.stalled = stalled > 0;
        self.level_us = (available - played).min(self.capacity_us);
        BufferAdvance {
            played_us: played,
            stalled_us: stalled,
            entered_stall,
        }
    }
}

/// The per-session BOLA controller state: dwell bookkeeping and the
/// oscillation guard. The scoring itself is stateless
/// ([`BolaController::target_rung`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BolaController {
    /// Last switch *attempt* (commit or not); gates the dwell window.
    last_attempt_us: Option<u64>,
    /// `(rung, left_at_us)` of the last committed switch's origin: the
    /// controller never returns to it within two dwell windows (the
    /// TLA+ no-A→B→A guard).
    left: Option<(DegradationRung, u64)>,
}

impl BolaController {
    /// A fresh controller (no dwell history).
    pub fn new() -> BolaController {
        BolaController::default()
    }

    /// The rung maximizing `(utility + gamma_b · headroom) / cost` for
    /// the current buffer state — pure, no dwell gating. Ties prefer
    /// the less degraded rung.
    ///
    /// Shape: at zero headroom (full buffer) the score reduces to
    /// `utility/cost`, which the config keeps decreasing down the
    /// ladder, so `Full` wins; as headroom grows the shared
    /// `gamma_b · headroom` term is divided by smaller costs, so
    /// progressively lower rungs take over — the classic BOLA
    /// threshold structure on buffer level.
    pub fn target_rung(config: &AbrConfig, buffer: &PlayoutBuffer) -> DegradationRung {
        let headroom = buffer.headroom_us() as i128;
        let gamma = config.gamma_b_ppm as i128;
        let mut best = DegradationRung::Full;
        let mut best_num: i128 = 0;
        let mut best_cost: i128 = 1;
        for (index, rung) in DegradationRung::LADDER.iter().enumerate() {
            let cost = config.rung_cost_pct[index].max(1) as i128;
            let num = config.rung_utility[index] as i128 + (gamma * headroom) / PPM as i128;
            if index == 0 || num * best_cost > best_num * cost {
                best = *rung;
                best_num = num;
                best_cost = cost;
            }
        }
        best
    }

    /// Per-tick decision: the rung to request a re-composition for, or
    /// `None` to stay. Applies the dwell window (at most one attempt
    /// per `switch_dwell_us`) and the oscillation guard (no return to
    /// the rung a committed switch left within `2 × switch_dwell_us`).
    pub fn decide(
        &mut self,
        now_us: u64,
        current: DegradationRung,
        config: &AbrConfig,
        buffer: &PlayoutBuffer,
    ) -> Option<DegradationRung> {
        if let Some(last) = self.last_attempt_us {
            if now_us.saturating_sub(last) < config.switch_dwell_us {
                return None;
            }
        }
        let target = Self::target_rung(config, buffer);
        if target == current {
            return None;
        }
        if let Some((left_rung, left_at)) = self.left {
            if target == left_rung
                && now_us.saturating_sub(left_at) < config.switch_dwell_us.saturating_mul(2)
            {
                return None;
            }
        }
        self.last_attempt_us = Some(now_us);
        Some(target)
    }

    /// Record a committed switch away from `from` at `now_us` (feeds
    /// the oscillation guard).
    pub fn committed(&mut self, now_us: u64, from: DegradationRung) {
        self.left = Some((from, now_us));
    }
}

/// The run's adaptation policy, resolved once from
/// [`SessionEngineConfig::abr`]; the loop calls the entry points below
/// from fixed places and never asks which mode runs. `None` is "off":
/// no session ever carries a buffer, so each entry point returns at
/// its top.
pub(super) fn resolve(config: &SessionEngineConfig) -> Option<AbrConfig> {
    config.abr
}

/// Buffer-side state of one streaming session, attached at stream
/// start.
pub(super) struct AbrSess {
    buffer: PlayoutBuffer,
    controller: BolaController,
    /// Current fill rate, ppm of playback speed.
    fill_ppm: u64,
}

impl Sess {
    /// The buffer half of an accrual interval: fill at the sampled
    /// delivery rate while lit, dry while dark, and account stalled
    /// playback. Returns the stalled time when the interval *entered* a
    /// stall.
    pub(super) fn advance_buffer(&mut self, dt_us: u64) -> Option<u64> {
        let abr = self.abr.as_mut()?;
        let fill = if self.plan.is_some() { abr.fill_ppm } else { 0 };
        let adv = abr.buffer.advance(dt_us, fill);
        let outcome = &mut self.outcome;
        outcome.buffer_peak_us = outcome.buffer_peak_us.max(abr.buffer.level_us());
        outcome.rebuffer_us = outcome.rebuffer_us.saturating_add(adv.stalled_us);
        if !adv.entered_stall {
            return None;
        }
        outcome.rebuffer_events = outcome.rebuffer_events.saturating_add(1);
        Some(adv.stalled_us)
    }

    /// Playout-buffer level, microseconds (0 without a buffer).
    pub(super) fn buffer_level_us(&self) -> u64 {
        self.abr.as_ref().map_or(0, |abr| abr.buffer.level_us())
    }
}

impl<W: SessionWorld + Sync, S: TelemetrySink> Loop<'_, '_, W, S> {
    /// Stream start: attach the buffer model. Startup latency is
    /// modeled as pre-buffered media, so sessions open with credit.
    pub(super) fn attach_buffer(&mut self, i: usize) {
        let Some(cfg) = self.adaptation else {
            return;
        };
        let buffer = PlayoutBuffer::new(cfg.startup_buffer_us, cfg.buffer_capacity_us);
        let sess = &mut self.sessions[i];
        sess.outcome.buffer_peak_us = buffer.level_us();
        sess.abr = Some(AbrSess {
            buffer,
            controller: BolaController::new(),
            fill_ppm: 0,
        });
        self.resample_fill(i);
    }

    /// Plan liveness. Without a buffer, and in reactive mode, a
    /// bandwidth squeeze is plan death; the static-ladder and BOLA
    /// modes only die on hard faults — a squeeze degrades delivery and
    /// drains the buffer instead.
    pub(super) fn plan_ok(&self, i: usize) -> bool {
        let Some(plan) = self.sessions[i].plan.as_ref() else {
            return false;
        };
        match self.adaptation.map(|cfg| cfg.mode) {
            Some(AbrMode::StaticLadder | AbrMode::Bola) => self.world.plan_routable(plan),
            Some(AbrMode::Reactive) | None => self.world.plan_alive(plan),
        }
    }

    /// Plan adoption: re-read the plan's achieved delivery rate from
    /// the world (per session, so brokered worlds answer with the
    /// granted rate), capped at the configured maximum fill speed. A
    /// dark session fills at 0.
    pub(super) fn resample_fill(&mut self, i: usize) {
        let sess = &mut self.sessions[i];
        let (Some(cfg), Some(abr)) = (self.adaptation, sess.abr.as_mut()) else {
            return;
        };
        abr.fill_ppm = sess.plan.as_ref().map_or(0, |plan| {
            let demand = self.requests[i].demand_bps;
            self.world
                .session_delivery_ppm(i as u64, sess.plan_gen, plan, demand)
                .min(cfg.max_fill_ppm)
        });
    }

    /// The delivery rate may be about to change (progress tick, world
    /// event, grant epoch): integrate up to `t` at the old rate, then
    /// re-read it. Returns the new fill when it differs from the old.
    pub(super) fn resync_fill(&mut self, t: u64, i: usize) -> Option<u64> {
        let before = self.sessions[i].abr.as_ref()?.fill_ppm;
        self.accrue(i, t);
        self.resample_fill(i);
        let after = self.sessions[i].abr.as_ref()?.fill_ppm;
        (after != before).then_some(after)
    }

    /// The broker reallocated at `t`: streaming session `i` re-samples
    /// against its new grant. The next tick's controller decision sees
    /// the brokered rate — a grant update re-evaluates the rung, it
    /// never re-composes.
    pub(super) fn grant_moved(&mut self, t: u64, i: usize) {
        let Some(fill_ppm) = self.resync_fill(t, i) else {
            return;
        };
        let sess = &mut self.sessions[i];
        sess.outcome.grant_updates = sess.outcome.grant_updates.saturating_add(1);
        self.emit_root(i, t, EventKind::GrantUpdated { fill_ppm });
    }

    /// Tick while alive, BOLA mode only: ask the controller whether to
    /// re-compose onto a different rung — make-before-break, and one
    /// replacement in flight per session (a second would be stale on
    /// arrival anyway).
    pub(super) fn maybe_switch(&mut self, t: u64, i: usize) {
        let sess = &mut self.sessions[i];
        let (Some(cfg), Some(abr)) = (self.adaptation, sess.abr.as_mut()) else {
            return;
        };
        if cfg.mode != AbrMode::Bola || sess.replacing {
            return;
        }
        let Some(target) = abr.controller.decide(t, sess.rung, &cfg, &abr.buffer) else {
            return;
        };
        sess.replacing = true;
        self.push_job(i, JobKind::Switch, target);
    }

    /// A switch away from rung `from` went live at `t`: feed the
    /// oscillation guard, count, emit.
    pub(super) fn switch_committed(&mut self, t: u64, i: usize, from: DegradationRung) {
        let sess = &mut self.sessions[i];
        if let Some(abr) = sess.abr.as_mut() {
            abr.controller.committed(t, from);
        }
        sess.outcome.switches = sess.outcome.switches.saturating_add(1);
        let kind = EventKind::RungSwitch {
            from: from.label(),
            to: sess.rung.label(),
            buffer_us: sess.buffer_level_us(),
        };
        self.emit_root(i, t, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_never_exceeds_capacity_or_goes_negative() {
        let mut buffer = PlayoutBuffer::new(1_000_000, 4_000_000);
        // Massive surplus fill: level caps at capacity.
        buffer.advance(10_000_000, 8 * PPM);
        assert_eq!(buffer.level_us(), 4_000_000);
        // Starvation: level floors at zero, the shortfall stalls.
        let adv = buffer.advance(10_000_000, 0);
        assert_eq!(buffer.level_us(), 0);
        assert_eq!(adv.played_us, 4_000_000);
        assert_eq!(adv.stalled_us, 6_000_000);
        assert!(adv.entered_stall);
        // Staying dry is not a second stall entry.
        let again = buffer.advance(1_000_000, 0);
        assert!(!again.entered_stall);
        assert_eq!(again.stalled_us, 1_000_000);
    }

    #[test]
    fn realtime_fill_holds_the_level() {
        let mut buffer = PlayoutBuffer::new(2_000_000, 4_000_000);
        let adv = buffer.advance(3_000_000, PPM);
        assert_eq!(buffer.level_us(), 2_000_000, "fill == drain");
        assert_eq!(adv.played_us, 3_000_000);
        assert_eq!(adv.stalled_us, 0);
    }

    #[test]
    fn default_scoring_crossings_land_at_one_second_spacings() {
        let config = AbrConfig::default();
        let at = |level_us: u64| {
            BolaController::target_rung(&config, &PlayoutBuffer::new(level_us, 4_000_000))
        };
        assert_eq!(at(4_000_000), DegradationRung::Full);
        assert_eq!(at(3_200_000), DegradationRung::Full);
        assert_eq!(at(2_500_000), DegradationRung::RelaxedFloor);
        assert_eq!(at(1_500_000), DegradationRung::WeightedCombiner);
        assert_eq!(at(500_000), DegradationRung::DropSecondary);
        assert_eq!(at(0), DegradationRung::DropSecondary);
    }

    #[test]
    fn dwell_window_gates_attempts() {
        let config = AbrConfig::default();
        let mut controller = BolaController::new();
        let empty = PlayoutBuffer::new(0, 4_000_000);
        assert_eq!(
            controller.decide(0, DegradationRung::Full, &config, &empty),
            Some(DegradationRung::DropSecondary)
        );
        // Within the dwell window nothing is even attempted.
        assert_eq!(
            controller.decide(500_000, DegradationRung::Full, &config, &empty),
            None
        );
        assert_eq!(
            controller.decide(1_000_000, DegradationRung::Full, &config, &empty),
            Some(DegradationRung::DropSecondary)
        );
    }

    #[test]
    fn oscillation_guard_blocks_a_b_a_inside_two_dwells() {
        let config = AbrConfig::default();
        let mut controller = BolaController::new();
        let full = PlayoutBuffer::new(4_000_000, 4_000_000);
        let empty = PlayoutBuffer::new(0, 4_000_000);
        // Committed switch Full → Drop at t=0.
        assert_eq!(
            controller.decide(0, DegradationRung::Full, &config, &empty),
            Some(DegradationRung::DropSecondary)
        );
        controller.committed(0, DegradationRung::Full);
        // Buffer recovered: the score wants Full again, but returning
        // to the rung we just left is blocked for two dwell windows.
        assert_eq!(
            controller.decide(1_000_000, DegradationRung::DropSecondary, &config, &full),
            None
        );
        assert_eq!(
            controller.decide(2_000_000, DegradationRung::DropSecondary, &config, &full),
            Some(DegradationRung::Full)
        );
    }
}
