//! The sink trait and the per-request span tracer.
//!
//! Instrumented layers are generic over [`TelemetrySink`], so the
//! disabled path monomorphizes away: with [`NoopSink`],
//! [`TelemetrySink::enabled`] is a constant `false`, every
//! [`RequestTrace`] method folds to nothing, and the hot path compiles
//! exactly as it did before telemetry existed. What recording costs
//! over that path is metered by `benchmark/`'s traced `sessions_chaos`
//! run as `telemetry.recorder_overhead_share` (one chaos unit into a
//! `FlightRecorder` against the same unit into [`NoopSink`]).

use crate::event::{Event, EventKind, NO_PARENT};

/// Span id of the root span every request opens first.
pub const ROOT_SPAN: u32 = 0;

/// Where instrumented layers send events. Implementations must be
/// `Sync`: one sink is shared by every worker of a batch.
pub trait TelemetrySink: Sync {
    /// Whether recording is on. Instrumentation checks this before
    /// building an event, so a disabled sink costs one constant branch.
    fn enabled(&self) -> bool;

    /// Record one event. Never called when [`enabled`](Self::enabled)
    /// is `false`.
    fn record(&self, event: Event);
}

/// The disabled sink: `enabled()` is a constant `false` and `record`
/// is unreachable, so generic instrumentation compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&self, _event: Event) {}
}

/// The persistable state of a [`RequestTrace`]: plain data that can be
/// stored between engine steps (and moved across worker threads) and
/// later re-attached to a sink with [`RequestTrace::resume`]. Keeping
/// the stamp/sequence/span counters here is what lets a long-lived
/// session emit one monotone per-request event sequence even though
/// each epoch's work runs as a separate job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceState {
    /// Request the trace belongs to.
    pub request_id: u64,
    /// Virtual-time stamp of the next event.
    pub virtual_time_us: u64,
    /// Next per-request sequence number.
    pub seq: u32,
    /// Next span id to allocate.
    pub next_span: u32,
}

/// Per-request emission context: owns the request id, the virtual-time
/// stamp, the monotone sequence counter, and span allocation. Created
/// once per request by the serving layer and threaded through
/// admission → composition attempts → ladder rungs → cache probes, so
/// every event of one request shares one ordered sequence no matter
/// which instrumented layer emitted it.
#[derive(Debug)]
pub struct RequestTrace<'a, S: TelemetrySink> {
    sink: &'a S,
    enabled: bool,
    request_id: u64,
    virtual_time_us: u64,
    seq: u32,
    next_span: u32,
}

impl<'a, S: TelemetrySink> RequestTrace<'a, S> {
    /// Open a trace for `request_id` at virtual time `virtual_time_us`
    /// (0 when the layer has no virtual clock). Emits the root
    /// `span_open` event.
    pub fn new(sink: &'a S, request_id: u64, virtual_time_us: u64) -> RequestTrace<'a, S> {
        let mut trace = RequestTrace {
            sink,
            enabled: sink.enabled(),
            request_id,
            virtual_time_us,
            seq: 0,
            next_span: 1,
        };
        trace.emit(
            ROOT_SPAN,
            EventKind::SpanOpen {
                parent: NO_PARENT,
                label: "request",
            },
        );
        trace
    }

    /// Re-attach a previously [saved](Self::save) trace to a sink.
    /// Unlike [`new`](Self::new) this emits nothing: the root span was
    /// already opened when the trace was first created, and the
    /// counters continue exactly where they left off.
    pub fn resume(sink: &'a S, state: TraceState) -> RequestTrace<'a, S> {
        RequestTrace {
            sink,
            enabled: sink.enabled(),
            request_id: state.request_id,
            virtual_time_us: state.virtual_time_us,
            seq: state.seq,
            next_span: state.next_span,
        }
    }

    /// Detach the trace's counters as plain data for later
    /// [`resume`](Self::resume).
    pub fn save(&self) -> TraceState {
        TraceState {
            request_id: self.request_id,
            virtual_time_us: self.virtual_time_us,
            seq: self.seq,
            next_span: self.next_span,
        }
    }

    /// The request this trace belongs to.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Advance the virtual-time stamp of subsequent events (never
    /// rewinds — the merged log must stay sorted per request).
    pub fn advance_to(&mut self, virtual_time_us: u64) {
        self.virtual_time_us = self.virtual_time_us.max(virtual_time_us);
    }

    /// Open a child span under `parent` and return its id. Span ids are
    /// allocated sequentially per request, so they are deterministic:
    /// serving one request is sequential code.
    pub fn open_span(&mut self, parent: u32, label: &'static str) -> u32 {
        let span = self.next_span;
        self.next_span += 1;
        self.emit(span, EventKind::SpanOpen { parent, label });
        span
    }

    /// Emit one event inside `span`.
    pub fn emit(&mut self, span: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let event = Event {
            virtual_time_us: self.virtual_time_us,
            request_id: self.request_id,
            span,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        self.sink.record(event);
    }
}

impl RequestTrace<'static, NoopSink> {
    /// A trace that records nothing — for untraced facade APIs that
    /// delegate to a `_traced` implementation.
    pub fn noop() -> RequestTrace<'static, NoopSink> {
        RequestTrace::new(&NoopSink, crate::event::REQUEST_NONE, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;

    #[test]
    fn noop_sink_records_nothing() {
        let mut trace = RequestTrace::noop();
        let span = trace.open_span(ROOT_SPAN, "cache");
        trace.emit(span, EventKind::Recomposed { attempt: 1 });
        // Nothing observable; the point is it compiles to nothing and
        // never panics.
    }

    #[test]
    fn spans_and_seq_are_sequential() {
        let recorder = FlightRecorder::default();
        let mut trace = RequestTrace::new(&recorder, 3, 100);
        let a = trace.open_span(ROOT_SPAN, "admission");
        let b = trace.open_span(ROOT_SPAN, "full");
        trace.emit(b, EventKind::CompositionStarted { rung: "full" });
        assert_eq!((a, b), (1, 2));
        let events = recorder.merged();
        assert_eq!(events.len(), 4, "root open + two opens + one event");
        let seqs: Vec<u32> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(events.iter().all(|e| e.request_id == 3));
        assert!(events.iter().all(|e| e.virtual_time_us == 100));
    }

    #[test]
    fn save_and_resume_continue_the_sequence() {
        let recorder = FlightRecorder::default();
        let state = {
            let mut trace = RequestTrace::new(&recorder, 9, 10);
            trace.open_span(ROOT_SPAN, "admission");
            trace.advance_to(40);
            trace.save()
        };
        let mut resumed = RequestTrace::resume(&recorder, state);
        // No second root span; counters pick up where save left off.
        let span = resumed.open_span(ROOT_SPAN, "epoch");
        assert_eq!(span, 2);
        resumed.emit(span, EventKind::Recomposed { attempt: 1 });
        let events = recorder.merged();
        assert_eq!(events.len(), 4, "root + admission + epoch + one event");
        let seqs: Vec<u32> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(events[2].virtual_time_us, 40);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(
                    e.kind,
                    EventKind::SpanOpen {
                        parent: NO_PARENT,
                        ..
                    }
                ))
                .count(),
            1,
            "resume must not re-open the root span"
        );
    }

    #[test]
    fn advance_never_rewinds() {
        let recorder = FlightRecorder::default();
        let mut trace = RequestTrace::new(&recorder, 1, 500);
        trace.advance_to(200);
        trace.emit(ROOT_SPAN, EventKind::Recomposed { attempt: 1 });
        trace.advance_to(900);
        trace.emit(ROOT_SPAN, EventKind::Recomposed { attempt: 1 });
        let times: Vec<u64> = recorder
            .merged()
            .iter()
            .map(|e| e.virtual_time_us)
            .collect();
        assert_eq!(times, vec![500, 500, 900]);
    }
}
