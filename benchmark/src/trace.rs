//! The in-memory span buffer of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions; nothing inside the library is
//! instrumented. The buffer lives in memory for the whole run and is
//! rendered only at exit. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
const NO_PARENT: u32 = u32::MAX;

/// How many raw spans the trace file keeps beside the per-name summary.
const RAW_SPANS_KEPT: usize = 4096;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `core.select.select`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// Operation the span belongs to; spans of one request share it.
    pub op_id: u32,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals over the whole buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus what direct children covered.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration per span, nanoseconds (0 when none was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The span buffer. Single-threaded: every timed run has one client
/// thread, and spans nest by a plain stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    /// A buffer with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            op_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans opened from now on share its id.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: self.op_id,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `span`, which must be the innermost open one.
    pub fn close(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Rename a span once its kind is known (a graph fetch turns out to
    /// have been a cold build only after the store's counters moved).
    pub fn rename(&mut self, span: SpanId, name: &'static str) {
        self.spans[span.0 as usize].name = name;
    }

    /// Duration of a closed span, nanoseconds.
    pub fn duration_ns(&self, span: SpanId) -> u64 {
        let s = &self.spans[span.0 as usize];
        s.end_ns - s.start_ns
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                covered[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Totals for one name (zeros when it never occurred).
    pub fn total_of(&self, name: &str) -> NameTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The trace file: per-name totals plus the first
    /// [`RAW_SPANS_KEPT`] raw spans (a full compose_hot buffer is a few
    /// hundred thousand spans; the head is enough to read the nesting).
    pub fn to_value(&self) -> Value {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("count".to_string(), Value::Num(t.count as f64)),
                        ("total_ns".to_string(), Value::Num(t.total_ns as f64)),
                        ("self_ns".to_string(), Value::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        let raw = self
            .spans
            .iter()
            .take(RAW_SPANS_KEPT)
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::Num(s.parent as f64)
                        },
                    ),
                    ("op_id".to_string(), Value::Num(s.op_id as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("spans_recorded".to_string(), Value::Num(self.len() as f64)),
            ("totals".to_string(), Value::Obj(totals)),
            ("first_spans".to_string(), Value::Arr(raw)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut t = Tracer::new(8);
        t.next_op();
        let root = t.open("root");
        let child = t.open("child");
        let leaf = t.open("leaf");
        t.close(leaf);
        t.close(child);
        t.close(root);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 70;
        t.spans[2].start_ns = 20;
        t.spans[2].end_ns = 50;
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 40);
        assert_eq!(totals["child"].self_ns, 30);
        assert_eq!(totals["leaf"].self_ns, 30);
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert!(t.spans.iter().all(|s| s.op_id == 1));
    }

    #[test]
    fn siblings_share_a_parent_and_ops_get_fresh_ids() {
        let mut t = Tracer::new(8);
        t.next_op();
        let root = t.open("compose");
        for name in ["a", "b"] {
            let span = t.open(name);
            t.close(span);
        }
        t.close(root);
        t.next_op();
        let span = t.open("compose");
        t.close(span);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 0);
        assert_eq!(t.spans[3].op_id, 2);
        assert_eq!(t.total_of("compose").count, 2);
        assert_eq!(t.total_of("missing"), NameTotals::default());
    }
}
