//! Metric tables, the per-run result, and the JSON the benchmark
//! prints and writes.
//!
//! The two tables below are the program's side of `BENCHMARK.json`; a
//! unit test checks that the file names exactly these metrics with
//! these units, directions and bounds.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "compose_hot",
    "compose_scale",
    "sessions_chaos",
    "sessions_shared",
];

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported by every workload in the untraced
/// run, with the share of the parent's median it may worsen by.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound, share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics. An *op* is one compose request on the
/// compose workloads and one offered session on the session workloads.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "served_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "mean_satisfaction",
        unit: "score",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "low5_satisfaction",
        unit: "score",
        better: Better::Higher,
        bound: 0.05,
    },
];

/// The per-layer metrics `(name, unit, better)`, reported by every
/// workload in the traced run (0 where the layer is idle). The first
/// six are end-to-end in kind but exist on some workloads only or can
/// be exactly 0, which the end-to-end list may not hold.
pub const PER_LAYER: [(&str, &str, Better); 67] = [
    ("p5_satisfaction", "score", Better::Higher),
    ("compose_p90_us", "us", Better::Lower),
    ("compose_cold_p50_us", "us", Better::Lower),
    ("churn_op_p50_us", "us", Better::Lower),
    ("failed_ops_share", "share", Better::Lower),
    ("rebuffer_ratio", "share", Better::Lower),
    ("profiles.resolve_ns", "ns", Better::Lower),
    ("satisfaction.optimize_ns", "ns", Better::Lower),
    (
        "satisfaction.optimize_calls_per_compose",
        "count",
        Better::Lower,
    ),
    ("netsim.path_annotations_ns", "ns", Better::Lower),
    ("netsim.version_moves", "count", Better::Lower),
    ("services.churn_op_ns", "ns", Better::Lower),
    ("services.sharded_churn_cycle_ns", "ns", Better::Lower),
    ("services.summaries_scan_ns", "ns", Better::Lower),
    ("services.summary_keys", "count", Better::Lower),
    ("core.graph.fetch_ns", "ns", Better::Lower),
    ("core.graph.cold_build_ns", "ns", Better::Lower),
    ("core.graph.rebuilds", "count", Better::Lower),
    ("core.graph.deltas", "count", Better::Lower),
    ("core.graph.delta_ops", "count", Better::Lower),
    ("core.graph.reuses", "count", Better::Higher),
    ("core.graph.vertices", "count", Better::Lower),
    ("core.graph.edges", "count", Better::Lower),
    ("core.select.select_ns", "ns", Better::Lower),
    ("core.select.rounds_per_compose", "count", Better::Lower),
    ("core.select.arena_reuses", "count", Better::Higher),
    ("core.sharded_compose.self_ns", "ns", Better::Lower),
    (
        "core.sharded_compose.expanded_shards",
        "count",
        Better::Lower,
    ),
    ("core.sharded_compose.rounds", "count", Better::Lower),
    (
        "core.sharded_compose.full_expansions",
        "count",
        Better::Lower,
    ),
    ("core.plan.from_chain_ns", "ns", Better::Lower),
    ("core.cache.hit_ns", "ns", Better::Lower),
    ("core.cache.hits", "count", Better::Higher),
    ("core.cache.misses", "count", Better::Lower),
    ("core.cache.stale", "count", Better::Lower),
    ("core.cache.hit_share", "share", Better::Higher),
    ("core.admission.plan_ns_per_arrival", "ns", Better::Lower),
    ("core.admission.shed", "count", Better::Lower),
    ("core.session.self_ns_per_tick", "ns", Better::Lower),
    ("core.session.session_ticks", "count", Better::Lower),
    ("core.session.compose_attempts", "count", Better::Lower),
    ("core.session.compose_ns", "ns", Better::Lower),
    ("core.session.recompositions", "count", Better::Lower),
    ("core.session.switches", "count", Better::Lower),
    ("core.session.sla_violations", "count", Better::Lower),
    ("core.session.evasions", "count", Better::Lower),
    ("pipeline.world_ns_per_tick", "ns", Better::Lower),
    ("pipeline.delivery_ppm_ns", "ns", Better::Lower),
    ("pipeline.plan_routable_ns", "ns", Better::Lower),
    ("pipeline.apply_world_event_ns", "ns", Better::Lower),
    ("pipeline.register_flow_ns", "ns", Better::Lower),
    ("pipeline.world_events", "count", Better::Lower),
    ("pipeline.delivery_cache_hits", "count", Better::Higher),
    ("pipeline.delivery_cache_refreshes", "count", Better::Lower),
    ("pipeline.delivery_cache_misses", "count", Better::Lower),
    ("pipeline.chaos_plan_generate_ns", "ns", Better::Lower),
    ("broker.rebalance_ns", "ns", Better::Lower),
    ("broker.reallocations", "count", Better::Lower),
    ("broker.grant_updates", "count", Better::Lower),
    ("broker.flows_peak", "count", Better::Lower),
    ("telemetry.recorder_overhead_share", "share", Better::Lower),
    ("telemetry.events_recorded", "count", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
    ("trace.decomposed_share", "share", Better::Higher),
    ("trace.spans", "count", Better::Lower),
    ("trace.untraced_ops_per_s", "1/s", Better::Higher),
    ("trace.traced_ops_per_s", "1/s", Better::Higher),
];

/// Per-layer values of one run, keyed by the names of [`PER_LAYER`].
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Record `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`PER_LAYER`]: a typo must not
    /// silently create a metric `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// The value recorded under `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One stretch of a timed phase: a fixed number of composes, or one
/// unit of a session workload. Segments of one group do the same kind
/// of work, so the fastest of them show what the work costs when the
/// shared host is quiet.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Segments are comparable within a group (one group per storm
    /// plan on `sessions_chaos`, a single group elsewhere).
    pub group: usize,
    /// Ops the segment served.
    pub ops: u64,
    /// Its wall time, seconds.
    pub wall_s: f64,
    /// Median compose latency inside it, or its wall time per offered
    /// session, microseconds.
    pub typical_op_us: f64,
}

/// What one pass over a workload measured, before it is reduced to
/// metrics.
#[derive(Debug, Default)]
pub struct Pass {
    /// Ops attempted: composes, or sessions offered over all units.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Ops inside the timed phase (`compose_scale` times its warm
    /// composes only; the cold ones are attempted and checked too).
    pub timed_ops: u64,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Part of `wall_s` the traced pass spent replaying ops decomposed
    /// (extra measurement work, not overhead on the measured call).
    pub replay_s: f64,
    /// Per-compose wall time, microseconds (compose workloads).
    pub op_us: Vec<f64>,
    /// The timed phase cut into comparable stretches.
    pub segments: Vec<Segment>,
    /// Per-unit world-build time, seconds (session workloads).
    pub setup_s: Vec<f64>,
    /// Predicted satisfaction of every returned plan, or delivered
    /// satisfaction of every session that streamed.
    pub satisfaction: Vec<f64>,
    /// FNV-1a over the returned plans / rendered reports, in order.
    pub digest: Digest,
    /// Correctness failures.
    pub problems: Vec<String>,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed: a compose that errored or found no plan; a
    /// session shed, failed at open, given up on or starved.
    pub failed: u64,
    /// FNV-1a over the rendered plans / session reports.
    pub digest: u64,
    /// Correctness failures; empty means every check held.
    pub problems: Vec<String>,
    /// Segments behind `ops_per_s` and `op_p50_us`.
    pub samples: usize,
    /// End-to-end values, in [`END_TO_END`] order (untraced run only).
    pub end_to_end: Vec<f64>,
    /// Per-layer values.
    pub layers: Layers,
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_string(), Value::Num(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

impl RunResult {
    /// The metrics object: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn metrics(&self, traced: bool) -> Value {
        let entries = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    (name.to_string(), metric_value(self.layers.get(name), unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(m, &v)| (m.name.to_string(), metric_value(v, m.unit)))
                .collect()
        };
        Value::Obj(entries)
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self, traced: bool) -> String {
        render(&Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.problems.is_empty())),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), self.metrics(traced)),
        ]))
    }

    /// The richer record `--all` collects from each child process.
    pub fn record(&self, workload: &str, seed: u64, traced: bool) -> Value {
        Value::Obj(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("seed".to_string(), Value::Num(seed as f64)),
            ("traced".to_string(), Value::Bool(traced)),
            ("correct".to_string(), Value::Bool(self.problems.is_empty())),
            (
                "problems".to_string(),
                Value::Arr(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("segments".to_string(), Value::Num(self.samples as f64)),
            (
                "result_digest".to_string(),
                Value::Str(format!("{:016x}", self.digest)),
            ),
            ("metrics".to_string(), self.metrics(traced)),
        ])
    }
}

/// A JSON document: the vendored `serde_json` renders and parses
/// through `Serialize`/`Deserialize`, and this is the identity
/// implementation of both over its own value tree.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Json, DeError> {
        Ok(Json(value.clone()))
    }
}

/// Compact JSON text of `value`.
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Json(value.clone())).expect("a value tree always renders")
}

/// Indented JSON text of `value`.
pub fn render_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(&Json(value.clone())).expect("a value tree always renders")
}

/// Parse JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|json| json.0)
        .map_err(|e| e.to_string())
}

/// FNV-1a over rendered text, as the existing scorecard bins digest
/// their plans and reports.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `text` (plus a record separator) into the digest.
    pub fn update(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(0x1e)) {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold the eight bytes of `word` into the digest.
    pub fn update_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(list: &Value) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(name)) => name.clone(),
                other => panic!("metric without a name: {other:?}"),
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables above must say the same thing.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");

        let workloads = names_of(doc.get("workloads").expect("workloads"));
        assert_eq!(workloads, WORKLOADS);
        // The driver's limits on the two lists.
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);

        let end_to_end = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(
            names_of(end_to_end),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (listed, ours) in end_to_end.as_arr().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(listed.get("unit"), Some(&Value::Str(ours.unit.to_string())));
            assert_eq!(
                listed.get("better"),
                Some(&Value::Str(ours.better.label().to_string()))
            );
            assert_eq!(listed.get("bound"), Some(&Value::Num(ours.bound)));
        }

        let per_layer = doc.get("per_layer").expect("per_layer");
        assert_eq!(
            names_of(per_layer),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (listed, ours) in per_layer.as_arr().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(listed.get("unit"), Some(&Value::Str(ours.1.to_string())));
            assert_eq!(
                listed.get("better"),
                Some(&Value::Str(ours.2.label().to_string()))
            );
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 3,
            failed: 0,
            end_to_end: vec![1.5; END_TO_END.len()],
            ..RunResult::default()
        };
        let line = parse(&result.driver_line(false)).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        let traced = parse(&result.driver_line(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn unknown_layer_names_are_refused() {
        let mut layers = Layers::default();
        layers.set("core.cache.hits", 4.0);
        assert_eq!(layers.get("core.cache.hits"), 4.0);
        assert!(std::panic::catch_unwind(move || layers.set("core.cache.hitz", 1.0)).is_err());
    }
}
