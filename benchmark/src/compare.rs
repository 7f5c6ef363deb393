//! `--compare A.json B.json`: two `results.json` files side by side.
//!
//! Every end-to-end metric × workload gets its own row with both
//! medians, the ratio with its base, the bound, and a verdict:
//! `regressed` when B's median is worse than A's by more than the
//! bound, `unresolved` when it is not but the run-to-run spread of
//! either side is wider than the bound (unless every run of B reads
//! better than every run of A), `ok` otherwise. Values that are
//! deterministic for a seed — digests, counts, the quality metrics —
//! are compared for equality below the table.

use crate::report::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Samples;
use serde::Value;
use std::path::Path;

/// End-to-end metrics that are a pure function of the seed.
const EXACT_END_TO_END: [&str; 3] = ["served_share", "mean_satisfaction", "low5_satisfaction"];
/// Per-layer shares that are a pure function of the seed (every
/// per-layer metric whose unit is `count` is one too).
const EXACT_SHARES: [&str; 3] = ["failed_ops_share", "rebuffer_ratio", "p5_satisfaction"];

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = report::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("runs")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{}: no \"runs\" list", path.display()))
}

fn records<'a>(runs: &'a [Value], workload: &str, traced: bool) -> Vec<&'a Value> {
    runs.iter()
        .filter(|r| {
            r.get("workload") == Some(&Value::Str(workload.to_string()))
                && r.get("traced") == Some(&Value::Bool(traced))
        })
        .collect()
}

fn metric(record: &Value, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn values(records: &[&Value], name: &str) -> Vec<f64> {
    records.iter().filter_map(|r| metric(r, name)).collect()
}

/// The median the driver would take: the middle quartile with two or
/// more runs, the value itself with one.
fn median(samples: &Samples) -> Option<f64> {
    samples
        .quartiles()
        .map(|q| q[1])
        .or_else(|| samples.median())
}

fn all_better(a: &[f64], b: &[f64], better: Better) -> bool {
    let (a_min, a_max) = (
        a.iter().copied().fold(f64::INFINITY, f64::min),
        a.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    match better {
        Better::Lower => b.iter().all(|&x| x < a_min),
        Better::Higher => b.iter().all(|&x| x > a_max),
    }
}

/// Print the comparison. `Ok(true)` when nothing regressed; with
/// `exact` the timings are printed but only the deterministic values
/// decide (two smoke runs are too short for their timings to agree).
pub fn compare(a_path: &Path, b_path: &Path, exact: bool) -> Result<bool, String> {
    let (a_runs, b_runs) = (load(a_path)?, load(b_path)?);
    let mut regressed = 0usize;
    let mut unresolved = 0usize;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>16} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "spread"
    );
    for workload in WORKLOADS {
        let (a, b) = (
            records(&a_runs, workload, false),
            records(&b_runs, workload, false),
        );
        for m in &END_TO_END {
            let (av, bv) = (values(&a, m.name), values(&b, m.name));
            let (a_samples, b_samples) = (Samples::new(av.clone()), Samples::new(bv.clone()));
            let (Some(ma), Some(mb)) = (median(&a_samples), median(&b_samples)) else {
                println!("{workload:<16} {:<18} missing on one side", m.name);
                regressed += 1;
                continue;
            };
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread = [a_samples.spread(), b_samples.spread()]
                .into_iter()
                .flatten()
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                });
            let verdict = if worse > m.bound {
                regressed += 1;
                "regressed"
            } else if spread.is_some_and(|s| s > m.bound) && !all_better(&av, &bv, m.better) {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<18} {ma:>14.4} {mb:>14.4} {:>9.4} of A {:>+7.2} {:>8}  {verdict}",
                m.name,
                mb / ma,
                m.bound,
                spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
            );
        }
    }

    let mut differing = 0usize;
    let mut differs = |what: String| {
        println!("  differs: {what}");
        differing += 1;
    };
    println!("deterministic values (must be identical for one seed):");
    for workload in WORKLOADS {
        for traced in [false, true] {
            let (a, b) = (
                records(&a_runs, workload, traced),
                records(&b_runs, workload, traced),
            );
            let mut sides = a.iter().chain(&b);
            let Some(first) = sides.next() else {
                differs(format!("{workload} traced={traced}: no record"));
                continue;
            };
            let names: Vec<&str> = if traced {
                PER_LAYER
                    .iter()
                    .filter(|m| m.1 == "count" || EXACT_SHARES.contains(&m.0))
                    .map(|m| m.0)
                    .collect()
            } else {
                EXACT_END_TO_END.to_vec()
            };
            for other in sides {
                if other.get("result_digest") != first.get("result_digest") {
                    differs(format!("{workload} traced={traced}: result_digest"));
                }
                for name in &names {
                    if metric(other, name) != metric(first, name) {
                        differs(format!(
                            "{workload} traced={traced}: {name} {:?} vs {:?}",
                            metric(first, name),
                            metric(other, name)
                        ));
                    }
                }
            }
        }
    }
    println!(
        "{regressed} regressed, {unresolved} unresolved, {differing} deterministic values differ"
    );
    Ok(if exact {
        differing == 0
    } else {
        regressed == 0
    })
}
