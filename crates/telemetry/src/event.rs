//! The structured event model of the flight recorder.
//!
//! Every observable action of the serving stack is one typed [`Event`]:
//! a [`kind`](Event::kind) carrying the action's own fields, stamped
//! with the request it belongs to, the span it happened inside, a
//! virtual-time timestamp, and a per-request sequence number. No wall
//! clock appears anywhere — ordering is entirely
//! `(virtual_time_us, request_id, seq)`, the same determinism
//! discipline as the X12/X13 scorecards, so a merged log is
//! byte-identical across runs, machines, and worker counts.

/// `request_id` of events that belong to no request (registry
/// life-cycle, chaos replay).
pub const REQUEST_NONE: u64 = u64::MAX;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// How a cache probe resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Revalidated cached plan returned.
    Hit,
    /// No usable entry; composed fresh.
    Miss,
    /// Entry failed revalidation; recomposed.
    Stale,
}

impl CacheOutcome {
    /// Stable machine-readable name.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Stale => "stale",
        }
    }
}

/// One typed action of the serving stack. Field types are all integers
/// or `&'static str` labels, so rendering is byte-stable: no floats, no
/// owned strings, no wall-clock times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened; every following event citing this span id nests
    /// under `parent`. The root span of a request has
    /// [`NO_PARENT`] and label `"request"`.
    SpanOpen {
        /// Enclosing span id ([`NO_PARENT`] for a root).
        parent: u32,
        /// Human/machine label ("admission", "cache", a rung name …).
        label: &'static str,
    },
    /// The admission queue let the request through.
    RequestAdmitted {
        /// Virtual time spent queued before starting.
        queue_wait_us: u64,
        /// Starting degradation rung brown-out assigned.
        rung: &'static str,
    },
    /// The admission queue refused the request.
    RequestShed {
        /// Stable shed-reason label (`queue_full`, `predicted_late`,
        /// `queue_timeout`).
        reason: &'static str,
    },
    /// A composition attempt began at a rung.
    CompositionStarted {
        /// Rung label.
        rung: &'static str,
    },
    /// A composition attempt concluded at a rung.
    CompositionFinished {
        /// Rung label.
        rung: &'static str,
        /// A plan above the satisfaction floor was produced.
        served: bool,
        /// Predicted satisfaction in millionths (0 when unserved) —
        /// integer so the rendered log is byte-stable.
        satisfaction_micros: u64,
        /// Cumulative composition attempts so far for this request.
        attempts: u32,
    },
    /// A cache probe resolved.
    CacheProbe {
        /// Hit, miss, or stale.
        outcome: CacheOutcome,
    },
    /// A transient error triggered a seeded retry.
    Retry {
        /// 1-based attempt number within the rung.
        attempt: u32,
        /// Backoff recorded for this retry, microseconds.
        backoff_us: u64,
    },
    /// The ladder stepped from one rung to the next.
    RungChange {
        /// Rung that failed to serve.
        from: &'static str,
        /// Rung tried next.
        to: &'static str,
    },
    /// The circuit breaker opened for a service.
    QuarantineOpened {
        /// Registry service id.
        service: u32,
    },
    /// A quarantine cool-down elapsed; the service is advertised again.
    QuarantineReleased {
        /// Registry service id.
        service: u32,
    },
    /// A lease ran out.
    LeaseExpired {
        /// Registry service id.
        service: u32,
    },
    /// A service registered (or re-registered after a revive).
    ServiceRegistered {
        /// Registry service id.
        service: u32,
    },
    /// A lease was renewed.
    LeaseRenewed {
        /// Registry service id.
        service: u32,
    },
    /// A service was explicitly removed.
    ServiceDeregistered {
        /// Registry service id.
        service: u32,
    },
    /// A session's plan died and it asked for a re-composition.
    Recomposed {
        /// 1-based re-composition count within the session.
        attempt: u32,
    },
    /// A selection scratch arena was reused instead of reallocated.
    ArenaReused {
        /// Total arena reuses so far on the emitting thread's arena.
        total: u64,
    },
    /// A long-lived session opened (steady-state serving loop).
    SessionOpened {
        /// Requested holding time, virtual microseconds (0 closes the
        /// session at open).
        hold_us: u64,
    },
    /// A long-lived session closed.
    SessionClosed {
        /// Stable close-reason label (`completed`, `failed_open`,
        /// `gave_up`, `starved`).
        reason: &'static str,
    },
    /// A session's playout buffer ran dry and playback stalled
    /// (buffer-aware sessions only). Emitted once per stall entry; the
    /// stalled time of the accrual interval rides along.
    Rebuffered {
        /// Playback time stalled within the interval, microseconds.
        stalled_us: u64,
    },
    /// The buffer-aware controller committed a mid-stream rung switch
    /// (distinct from `rung_change`, the intra-composition ladder
    /// descent, and from `recomposed`, the reactive repair path).
    RungSwitch {
        /// Rung the session was streaming on.
        from: &'static str,
        /// Rung the switch adopted.
        to: &'static str,
        /// Buffer level at adoption, microseconds of playout.
        buffer_us: u64,
    },
    /// An SLA watchdog flagged a service: its observed QoS sat below
    /// `advertised × tolerance` for a full dwell window while the
    /// service stayed alive and routable (a grey failure).
    SlaViolation {
        /// Registry service id.
        service: u32,
        /// Smoothed observed throughput at flagging, PPM of advertised.
        observed_ppm: u64,
    },
    /// The registry probated a service: still advertised, but selection
    /// scores it by a blended effective QoS until half-open probes
    /// clear it.
    ServiceProbated {
        /// Registry service id.
        service: u32,
    },
    /// Enough healthy half-open probes accumulated; the probation
    /// penalty is lifted.
    ProbationCleared {
        /// Registry service id.
        service: u32,
    },
    /// A session evaded an SLA-violating plan: a make-before-break
    /// re-composition away from a probated service, before the buffer
    /// drained (distinct from `rung_switch`, which changes quality
    /// rungs, and `recomposed`, the reactive repair after a dead plan).
    SlaEvaded {
        /// Rung the session was streaming on.
        from: &'static str,
        /// Rung the evading plan adopted (usually the same).
        to: &'static str,
        /// Buffer level at adoption, microseconds of playout.
        buffer_us: u64,
    },
    /// The bandwidth broker reallocated and this session's granted
    /// fill rate changed mid-stream (the controller reevaluates its
    /// rung on the next tick; no re-composition happens here).
    GrantUpdated {
        /// The new fill rate, ppm of playback speed.
        fill_ppm: u64,
    },
}

impl EventKind {
    /// Stable counting key: one label per variant (used for
    /// per-type event counts in scorecards and metrics).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::RequestAdmitted { .. } => "request_admitted",
            EventKind::RequestShed { .. } => "request_shed",
            EventKind::CompositionStarted { .. } => "composition_started",
            EventKind::CompositionFinished { .. } => "composition_finished",
            EventKind::CacheProbe {
                outcome: CacheOutcome::Hit,
            } => "cache_hit",
            EventKind::CacheProbe {
                outcome: CacheOutcome::Miss,
            } => "cache_miss",
            EventKind::CacheProbe {
                outcome: CacheOutcome::Stale,
            } => "cache_stale",
            EventKind::Retry { .. } => "retry",
            EventKind::RungChange { .. } => "rung_change",
            EventKind::QuarantineOpened { .. } => "quarantine_opened",
            EventKind::QuarantineReleased { .. } => "quarantine_released",
            EventKind::LeaseExpired { .. } => "lease_expired",
            EventKind::ServiceRegistered { .. } => "service_registered",
            EventKind::LeaseRenewed { .. } => "lease_renewed",
            EventKind::ServiceDeregistered { .. } => "service_deregistered",
            EventKind::Recomposed { .. } => "recomposed",
            EventKind::ArenaReused { .. } => "arena_reused",
            EventKind::SessionOpened { .. } => "session_opened",
            EventKind::SessionClosed { .. } => "session_closed",
            EventKind::Rebuffered { .. } => "rebuffered",
            EventKind::RungSwitch { .. } => "rung_switch",
            EventKind::SlaViolation { .. } => "sla_violation",
            EventKind::ServiceProbated { .. } => "service_probated",
            EventKind::ProbationCleared { .. } => "probation_cleared",
            EventKind::SlaEvaded { .. } => "sla_evaded",
            EventKind::GrantUpdated { .. } => "grant_updated",
        }
    }

    /// Render the kind with its fields as one stable text fragment.
    pub fn render(&self) -> String {
        match self {
            EventKind::SpanOpen { parent, label } => {
                if *parent == NO_PARENT {
                    format!("span_open label={label}")
                } else {
                    format!("span_open parent={parent} label={label}")
                }
            }
            EventKind::RequestAdmitted {
                queue_wait_us,
                rung,
            } => format!("request_admitted queue_wait_us={queue_wait_us} rung={rung}"),
            EventKind::RequestShed { reason } => format!("request_shed reason={reason}"),
            EventKind::CompositionStarted { rung } => format!("composition_started rung={rung}"),
            EventKind::CompositionFinished {
                rung,
                served,
                satisfaction_micros,
                attempts,
            } => format!(
                "composition_finished rung={rung} served={served} \
                 satisfaction_micros={satisfaction_micros} attempts={attempts}"
            ),
            EventKind::CacheProbe { outcome } => format!("cache_{}", outcome.label()),
            EventKind::Retry {
                attempt,
                backoff_us,
            } => format!("retry attempt={attempt} backoff_us={backoff_us}"),
            EventKind::RungChange { from, to } => format!("rung_change from={from} to={to}"),
            EventKind::QuarantineOpened { service } => {
                format!("quarantine_opened service={service}")
            }
            EventKind::QuarantineReleased { service } => {
                format!("quarantine_released service={service}")
            }
            EventKind::LeaseExpired { service } => format!("lease_expired service={service}"),
            EventKind::ServiceRegistered { service } => {
                format!("service_registered service={service}")
            }
            EventKind::LeaseRenewed { service } => format!("lease_renewed service={service}"),
            EventKind::ServiceDeregistered { service } => {
                format!("service_deregistered service={service}")
            }
            EventKind::Recomposed { attempt } => format!("recomposed attempt={attempt}"),
            EventKind::ArenaReused { total } => format!("arena_reused total={total}"),
            EventKind::SessionOpened { hold_us } => format!("session_opened hold_us={hold_us}"),
            EventKind::SessionClosed { reason } => format!("session_closed reason={reason}"),
            EventKind::Rebuffered { stalled_us } => format!("rebuffered stalled_us={stalled_us}"),
            EventKind::RungSwitch {
                from,
                to,
                buffer_us,
            } => format!("rung_switch from={from} to={to} buffer_us={buffer_us}"),
            EventKind::SlaViolation {
                service,
                observed_ppm,
            } => format!("sla_violation service={service} observed_ppm={observed_ppm}"),
            EventKind::ServiceProbated { service } => {
                format!("service_probated service={service}")
            }
            EventKind::ProbationCleared { service } => {
                format!("probation_cleared service={service}")
            }
            EventKind::SlaEvaded {
                from,
                to,
                buffer_us,
            } => format!("sla_evaded from={from} to={to} buffer_us={buffer_us}"),
            EventKind::GrantUpdated { fill_ppm } => format!("grant_updated fill_ppm={fill_ppm}"),
        }
    }
}

/// One recorded action: kind plus causality stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time the action happened at, microseconds (0 when the
    /// emitting layer has no virtual clock — ordering then falls back
    /// to `(request_id, seq)`).
    pub virtual_time_us: u64,
    /// Request the action belongs to ([`REQUEST_NONE`] for
    /// registry/chaos events).
    pub request_id: u64,
    /// Span the action happened inside (per-request span id).
    pub span: u32,
    /// Per-request emission sequence number; for [`REQUEST_NONE`]
    /// events, the emitting component's own monotone counter.
    pub seq: u32,
    /// The action.
    pub kind: EventKind,
}

impl Event {
    /// Total-order key of the merged log.
    pub fn sort_key(&self) -> (u64, u64, u32) {
        (self.virtual_time_us, self.request_id, self.seq)
    }

    /// One stable log line (no trailing newline).
    pub fn render(&self) -> String {
        let request = if self.request_id == REQUEST_NONE {
            "-".to_string()
        } else {
            self.request_id.to_string()
        };
        format!(
            "t={:>12} req={} span={} seq={} {}",
            self.virtual_time_us,
            request,
            self.span,
            self.seq,
            self.kind.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinguish_cache_outcomes() {
        assert_eq!(
            EventKind::CacheProbe {
                outcome: CacheOutcome::Hit
            }
            .label(),
            "cache_hit"
        );
        assert_eq!(
            EventKind::CacheProbe {
                outcome: CacheOutcome::Stale
            }
            .label(),
            "cache_stale"
        );
    }

    #[test]
    fn render_is_stable_and_integer_only() {
        let event = Event {
            virtual_time_us: 1_234,
            request_id: 7,
            span: 2,
            seq: 5,
            kind: EventKind::Retry {
                attempt: 1,
                backoff_us: 2_000,
            },
        };
        assert_eq!(
            event.render(),
            "t=        1234 req=7 span=2 seq=5 retry attempt=1 backoff_us=2000"
        );
        let registry_event = Event {
            virtual_time_us: 0,
            request_id: REQUEST_NONE,
            span: 0,
            seq: 0,
            kind: EventKind::LeaseExpired { service: 3 },
        };
        assert!(registry_event.render().contains("req=-"));
    }

    #[test]
    fn sort_key_orders_by_time_then_request_then_seq() {
        let mk = |t, r, s| Event {
            virtual_time_us: t,
            request_id: r,
            span: 0,
            seq: s,
            kind: EventKind::Recomposed { attempt: 1 },
        };
        let mut events = [mk(5, 0, 0), mk(1, 9, 0), mk(1, 2, 1), mk(1, 2, 0)];
        events.sort_by_key(Event::sort_key);
        assert_eq!(
            events.iter().map(|e| e.sort_key()).collect::<Vec<_>>(),
            vec![(1, 2, 0), (1, 2, 1), (1, 9, 0), (5, 0, 0)]
        );
    }
}
