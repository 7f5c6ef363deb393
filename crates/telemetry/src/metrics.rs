//! The unified metrics registry: named counters, gauges, and
//! fixed-boundary integer histograms.
//!
//! Everything is integer-valued and name-sorted on export, so a
//! metrics snapshot — Prometheus text or JSON lines — is byte-identical
//! for identical workloads on any machine and any worker count. The
//! legacy per-layer counters (`CacheStats`, `SessionCounters`,
//! `AdmissionStats`) stay as cheap views; their owners mirror them in
//! here so operators read one registry.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone counter handle (cheap to clone; all clones share the
/// value).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with `value` — for mirroring a legacy counter snapshot
    /// (`CacheStats`, `SessionCounters`) into the registry.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a signed value that moves both ways.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite with `value`.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-boundary histogram over `u64` observations. Bucket `i`
/// counts observations `<= bounds[i]`; everything above the last bound
/// lands in the implicit overflow bucket. All-integer, so snapshots
/// are byte-identical.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A point-in-time copy of a histogram, for scorecards and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds, ascending (the overflow bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl Histogram {
    fn new(mut bounds: Vec<u64>) -> Histogram {
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let index = self
            .bounds
            .partition_point(|&bound| bound < value)
            .min(self.bounds.len());
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a histogram of u64 microseconds must never wrap.
        let mut current = self.sum.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(value);
            match self.sum.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// The registry: named metric handles with deterministic exporters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use. Names
    /// may embed Prometheus labels (`total{kind="retry"}`).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(cell) = self.counters.read().get(name) {
            return Counter(Arc::clone(cell));
        }
        let mut counters = self.counters.write();
        let cell = counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(cell) = self.gauges.read().get(name) {
            return Gauge(Arc::clone(cell));
        }
        let mut gauges = self.gauges.write();
        let cell = gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (later calls ignore `bounds` and return the existing one).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(histogram) = self.histograms.read().get(name) {
            return Arc::clone(histogram);
        }
        let mut histograms = self.histograms.write();
        let histogram = histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds.to_vec())));
        Arc::clone(histogram)
    }

    /// Value of a counter, if it exists.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Value of a gauge, if it exists.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges
            .read()
            .get(name)
            .map(|g| g.load(Ordering::Relaxed))
    }

    /// Snapshot of a histogram, if it exists.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms.read().get(name).map(|h| h.snapshot())
    }

    /// Prometheus text exposition: name-sorted, all-integer,
    /// byte-identical for identical state.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters.read().iter() {
            let bare = name.split('{').next().unwrap_or(name);
            out.push_str(&format!("# TYPE {bare} counter\n"));
            out.push_str(&format!("{name} {}\n", value.load(Ordering::Relaxed)));
        }
        for (name, value) in self.gauges.read().iter() {
            let bare = name.split('{').next().unwrap_or(name);
            out.push_str(&format!("# TYPE {bare} gauge\n"));
            out.push_str(&format!("{name} {}\n", value.load(Ordering::Relaxed)));
        }
        for (name, histogram) in self.histograms.read().iter() {
            let snapshot = histogram.snapshot();
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &bound) in snapshot.bounds.iter().enumerate() {
                cumulative += snapshot.counts[i];
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n",
                snapshot.count
            ));
            out.push_str(&format!("{name}_sum {}\n", snapshot.sum));
            out.push_str(&format!("{name}_count {}\n", snapshot.count));
        }
        out
    }

    /// JSON-lines exposition: one object per metric, name-sorted,
    /// all-integer, byte-identical for identical state.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters.read().iter() {
            out.push_str(&format!(
                "{{\"type\": \"counter\", \"name\": \"{name}\", \"value\": {}}}\n",
                value.load(Ordering::Relaxed)
            ));
        }
        for (name, value) in self.gauges.read().iter() {
            out.push_str(&format!(
                "{{\"type\": \"gauge\", \"name\": \"{name}\", \"value\": {}}}\n",
                value.load(Ordering::Relaxed)
            ));
        }
        for (name, histogram) in self.histograms.read().iter() {
            let snapshot = histogram.snapshot();
            let bounds: Vec<String> = snapshot.bounds.iter().map(u64::to_string).collect();
            let counts: Vec<String> = snapshot.counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{{\"type\": \"histogram\", \"name\": \"{name}\", \"bounds\": [{}], \"counts\": [{}], \"count\": {}, \"sum\": {}}}\n",
                bounds.join(", "),
                counts.join(", "),
                snapshot.count,
                snapshot.sum
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("qosc_test_total");
        let b = registry.counter("qosc_test_total");
        a.inc(2);
        b.inc(3);
        assert_eq!(a.get(), 5);
        assert_eq!(registry.counter_value("qosc_test_total"), Some(5));
        a.store(7);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn gauges_move_both_ways() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("qosc_queue_depth");
        gauge.set(10);
        gauge.add(-4);
        assert_eq!(registry.gauge_value("qosc_queue_depth"), Some(6));
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("qosc_wait_us", &[10, 100, 1_000]);
        for value in [0, 10, 11, 100, 999, 1_000, 5_000] {
            histogram.observe(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.bounds, vec![10, 100, 1_000]);
        // <=10: {0, 10}; <=100: {11, 100}; <=1000: {999, 1000}; over: {5000}.
        assert_eq!(snapshot.counts, vec![2, 2, 2, 1]);
        assert_eq!(snapshot.count, 7);
        assert_eq!(snapshot.sum, 7_120);
    }

    #[test]
    fn exports_are_sorted_and_stable() {
        let registry = MetricsRegistry::new();
        registry.counter("z_total").inc(1);
        registry.counter("a_total").inc(2);
        registry.gauge("m_gauge").set(-3);
        registry.histogram("h", &[5]).observe(7);
        let prom = registry.to_prometheus_text();
        assert!(prom.find("a_total 2").unwrap() < prom.find("z_total 1").unwrap());
        assert!(prom.contains("m_gauge -3"));
        assert!(prom.contains("h_bucket{le=\"5\"} 0"));
        assert!(prom.contains("h_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("h_sum 7"));
        let json = registry.to_json_lines();
        assert!(json.contains("\"type\": \"gauge\", \"name\": \"m_gauge\", \"value\": -3"));
        assert!(json.contains("\"bounds\": [5], \"counts\": [0, 1], \"count\": 1, \"sum\": 7"));
        // Re-export is byte-identical.
        assert_eq!(prom, registry.to_prometheus_text());
        assert_eq!(json, registry.to_json_lines());
    }

    #[test]
    fn labelled_counter_names_export_with_bare_type_line() {
        let registry = MetricsRegistry::new();
        registry.counter("qosc_events_total{kind=\"retry\"}").inc(4);
        let prom = registry.to_prometheus_text();
        assert!(prom.contains("# TYPE qosc_events_total counter"));
        assert!(prom.contains("qosc_events_total{kind=\"retry\"} 4"));
    }
}
