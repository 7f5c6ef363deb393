//! Grey-failure detection for streaming sessions: failure reports into
//! the world's circuit breaker when a plan dies, and — in drift-aware
//! mode — per-service observed-QoS estimators, probation on sustained
//! drift, half-open probing back to health, and proactive
//! make-before-break evasion off a flagged chain.
//!
//! The estimators and the watchdog themselves live in
//! [`qosc_services`]; this module is the session engine's side: the
//! policy resolved once per run ([`Sla`]) and the entry points the loop
//! calls from fixed places (tick while alive, plan death, evasion
//! adoption).

use qosc_services::{QosEstimatorConfig, SlaVerdict, SlaWatchdog};
use qosc_telemetry::{EventKind, TelemetrySink};

use crate::engine::DegradationRung;
use crate::plan::AdaptationPlan;

use super::event_loop::{JobKind, Loop};
use super::{SessionEngineConfig, SessionWorld};

/// How the engine reacts to service-level degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaMode {
    /// Classic binary circuit breaker: only *hard* failures (a plan
    /// dying with a service in it) are reported to the world's
    /// breaker. Grey faults — a service that never hard-fails but
    /// quietly under-delivers — are invisible in this mode; it exists
    /// as the baseline the drift-aware mode is measured against.
    Binary,
    /// Drift-aware detection: observed-QoS estimators per plan
    /// service, an SLA watchdog flagging sustained drift below
    /// `advertised × tolerance`, probation on violation, and proactive
    /// make-before-break evasion off the sick chain.
    DriftAware,
}

/// Grey-failure detection tuning
/// ([`SessionEngineConfig::sla`](super::SessionEngineConfig::sla)).
#[derive(Debug, Clone, Copy)]
pub struct SlaConfig {
    /// Detection mode.
    pub mode: SlaMode,
    /// Estimator/watchdog tuning (EWMA shift, quantile window,
    /// tolerances, dwell).
    pub estimator: QosEstimatorConfig,
    /// Minimum virtual microseconds between SLA-triggered evasions per
    /// session — a proactive re-composition dwell, mirroring the ABR
    /// switch dwell, so one sustained sag cannot thrash the composer.
    pub evade_dwell_us: u64,
}

impl Default for SlaConfig {
    fn default() -> SlaConfig {
        SlaConfig {
            mode: SlaMode::DriftAware,
            estimator: QosEstimatorConfig::default(),
            evade_dwell_us: 2_000_000,
        }
    }
}

/// The run's SLA policy, resolved once from
/// [`SessionEngineConfig::sla`]. The loop calls the entry points below
/// from fixed places and never asks which mode runs.
pub(super) enum Sla {
    /// `sla: None` — nothing is reported, observed or evaded: the
    /// world's breaker never hears of a dead plan.
    Off,
    /// A dying plan is a hard failure against every service in it; grey
    /// faults go unseen.
    Binary,
    /// `Binary`, plus the estimators: observe, probate, probe, evade
    /// (at most once per `evade_dwell_us` and session).
    DriftAware {
        watchdog: SlaWatchdog,
        evade_dwell_us: u64,
    },
}

impl Sla {
    pub(super) fn from_config(config: &SessionEngineConfig) -> Sla {
        match config.sla {
            None => Sla::Off,
            Some(sla) if sla.mode == SlaMode::Binary => Sla::Binary,
            Some(sla) => Sla::DriftAware {
                watchdog: SlaWatchdog::new(sla.estimator),
                evade_dwell_us: sla.evade_dwell_us,
            },
        }
    }
}

/// Whether two plans ride the same services on the same hosts.
pub(super) fn same_chain(a: &AdaptationPlan, b: &AdaptationPlan) -> bool {
    a.steps.len() == b.steps.len()
        && a.steps
            .iter()
            .zip(&b.steps)
            .all(|(a, b)| a.service == b.service && a.host == b.host)
}

impl<W: SessionWorld + Sync, S: TelemetrySink> Loop<'_, '_, W, S> {
    /// Plan death: the dying plan counts as a hard failure against
    /// every service in it — the world's circuit breaker attributes
    /// bluntly, which is exactly the binary baseline's behaviour.
    pub(super) fn report_plan_death(&mut self, t: u64, i: usize) {
        if matches!(self.sla, Sla::Off) {
            return;
        }
        let Some(plan) = self.sessions[i].plan.as_ref() else {
            return;
        };
        for id in plan.steps.iter().filter_map(|step| step.service) {
            self.world.report_service_failure(id, t);
        }
    }

    /// Tick while alive, drift-aware mode only: sample observed QoS for
    /// every service in the session's plan, feed the watchdog, probate
    /// on violation, probe probated services back to health, and evade
    /// the chain while any of its services stays flagged.
    pub(super) fn sla_tick(&mut self, t: u64, i: usize) {
        let steps = self.sessions[i].plan.as_ref().map_or(0, |p| p.steps.len());
        let mut flagged_in_plan = false;
        for k in 0..steps {
            // Borrowed per step: a violation's bookkeeping needs `self`.
            let Sla::DriftAware { watchdog, .. } = &mut self.sla else {
                return;
            };
            let id = self.sessions[i]
                .plan
                .as_ref()
                .and_then(|p| p.steps[k].service);
            // Worlds only report on *current* incarnations; a stale id
            // (the plan outlived a crash/revive) yields no sample.
            let Some((id, obs)) = id.and_then(|id| Some((id, self.world.observe_service(id)?)))
            else {
                continue;
            };
            match watchdog.observe(id, obs, t) {
                SlaVerdict::Violation { observed_ppm } => {
                    flagged_in_plan = true;
                    self.world.probate_service(id, observed_ppm, t);
                    let outcome = &mut self.sessions[i].outcome;
                    outcome.sla_violations = outcome.sla_violations.saturating_add(1);
                    let service = id.index() as u32;
                    let kind = EventKind::SlaViolation {
                        service,
                        observed_ppm,
                    };
                    self.emit_root(i, t, kind);
                }
                SlaVerdict::Degraded => flagged_in_plan |= watchdog.is_flagged(id),
                // Half-open probing: a flagged service delivering a
                // healthy sample earns one probe credit; enough
                // distinct-instant credits clear its probation, and the
                // estimator restarts cold for the next episode.
                SlaVerdict::Healthy => {
                    if watchdog.is_flagged(id) && self.world.probe_service(id, t) {
                        watchdog.clear(id);
                    }
                }
            }
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
        let Sla::DriftAware { evade_dwell_us, .. } = self.sla else {
            return;
        };
        let sess = &mut self.sessions[i];
        let last = sess.last_evade_us;
        let in_dwell = last.is_some_and(|last| t.saturating_sub(last) < evade_dwell_us);
        // One replacement in flight per session: let it land first.
        if sess.replacing || in_dwell {
            return;
        }
        // The dwell clock starts at *issuance*, not adoption: when the
        // penalized composer still picks the same chain (no
        // alternative exists) the session must not re-compose every
        // tick.
        sess.replacing = true;
        sess.last_evade_us = Some(t);
        let start_rung = sess.rung;
        self.push_job(i, JobKind::Evade, start_rung);
    }

    /// An evasion off rung `from` went live at `t`: count, emit.
    pub(super) fn evade_committed(&mut self, t: u64, i: usize, from: DegradationRung) {
        let sess = &mut self.sessions[i];
        sess.outcome.evasions = sess.outcome.evasions.saturating_add(1);
        let kind = EventKind::SlaEvaded {
            from: from.label(),
            to: sess.rung.label(),
            buffer_us: sess.buffer_level_us(),
        };
        self.emit_root(i, t, kind);
    }
}
