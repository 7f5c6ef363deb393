//! `qosc-benchmark` — the performance benchmark of the `qosc` workspace.
//!
//! Four workloads, seven end-to-end metrics with fixed regression
//! bounds, and a separate traced run that times the calls into each
//! crate's public functions from this package's own files to produce
//! per-layer numbers. See `README.md` beside this package for every
//! metric's definition and the reasons behind each workload.
//!
//! ```text
//! qosc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! qosc-benchmark --all [--seed N] [--runs R] [--smoke]
//! qosc-benchmark --compare A.json B.json [--exact]
//! ```

mod compare;
mod compose;
mod report;
mod sessions;
mod stats;
mod trace;
mod verify;

use report::{Layers, Pass, RunResult, WORKLOADS};
use serde::Value;
use sessions::SessionWorkload;
use stats::Samples;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Seconds a run is sized for when `--seconds` is not given; the
/// workload counts in `compose.rs` and `sessions.rs` fill about this
/// long on a quiet reference host (up to twice as long when its
/// neighbours are busy) and scale linearly with `--seconds`.
const REFERENCE_SECONDS: f64 = 12.0;
/// Share of a run's counts the traced run replays.
const TRACED_SHARE: f64 = 0.25;
/// Share of a run's counts a smoke run keeps.
const SMOKE_SHARE: f64 = 0.02;
/// Set-ups timed before and again after a compose run's timed phase.
const SETUP_REPEATS: usize = 3;
/// Where `--all` writes its results, relative to the repo root.
const OUT_DIR: &str = "benchmark/out";

/// How much of a workload's full-size counts a run executes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on op and unit counts.
    pub factor: f64,
    /// Smoke runs also shrink what cannot be scaled by count: the
    /// registry of `compose_scale` and the sessions of a unit.
    pub smoke: bool,
}

impl Scale {
    /// A run sized for `seconds` on the reference host.
    pub fn full(seconds: f64) -> Scale {
        Scale {
            factor: seconds / REFERENCE_SECONDS,
            smoke: false,
        }
    }

    /// A smoke run: about a fiftieth of every count.
    pub fn smoke() -> Scale {
        Scale {
            factor: SMOKE_SHARE,
            smoke: true,
        }
    }

    /// The traced replay of this run.
    pub fn traced(self) -> Scale {
        Scale {
            factor: self.factor * TRACED_SHARE,
            ..self
        }
    }

    /// `base` ops or units at this scale, at least one.
    pub fn count(&self, base: usize) -> usize {
        ((base as f64 * self.factor).round() as usize).max(1)
    }

    /// Sessions offered per unit: a tenth in a smoke run.
    pub fn unit_sessions(&self, base: usize) -> usize {
        if self.smoke {
            (base / 10).max(1)
        } else {
            base
        }
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    all: bool,
    smoke: bool,
    runs: usize,
    report: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    exact: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: REFERENCE_SECONDS,
        runs: 1,
        ..Args::default()
    };
    let mut it = raw.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} takes a value"))
    };
    let number = |text: String, flag: &str| {
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("{flag} takes a non-negative number, got {text:?}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                let text = value(&mut it, flag)?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {text:?}"))?;
            }
            "--seconds" => args.seconds = number(value(&mut it, flag)?, flag)?.max(0.1),
            "--trace" => args.traced = number(value(&mut it, flag)?, flag)? != 0.0,
            "--traced" => args.traced = true,
            "--runs" => args.runs = (number(value(&mut it, flag)?, flag)? as usize).max(1),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--exact" => args.exact = true,
            "--report" => args.report = Some(value(&mut it, flag)?.into()),
            "--trace-out" => args.trace_out = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The lowest decile (nearest rank) of `values`: what the work costs in
/// the quietest tenth of its repetitions — the fourth fastest of 40
/// segments, the fastest of up to ten. The reference host is a shared
/// VM whose neighbours slow a stretch of a run down for seconds at a
/// time and never speed one up, so the low end repeats from run to run
/// where the mean and the median do not.
fn quiet_decile(values: impl Iterator<Item = f64>) -> f64 {
    Samples::new(values.collect())
        .nearest_rank(10.0)
        .unwrap_or(0.0)
}

/// Reduce a pass to the end-to-end values, in [`END_TO_END`] order.
fn end_to_end(pass: &Pass, setup_s: f64) -> Vec<f64> {
    let groups: BTreeSet<usize> = pass.segments.iter().map(|s| s.group).collect();
    let of = |group: usize| pass.segments.iter().filter(move |s| s.group == group);
    // Each group's ops at its quiet-decile cost per op.
    let (ops, seconds) = groups.iter().fold((0.0, 0.0), |(ops, seconds), &g| {
        let group_ops: u64 = of(g).map(|s| s.ops).sum();
        let cost_s = quiet_decile(of(g).map(|s| s.wall_s / s.ops as f64));
        (ops + group_ops as f64, seconds + group_ops as f64 * cost_s)
    });
    let typical = Samples::new(
        groups
            .iter()
            .map(|&g| quiet_decile(of(g).map(|s| s.typical_op_us)))
            .collect(),
    );
    let satisfaction = Samples::new(pass.satisfaction.clone());
    vec![
        setup_s,
        ops / seconds,
        typical.median().unwrap_or(0.0),
        report::peak_rss_mb(),
        1.0 - pass.failed as f64 / pass.attempted.max(1) as f64,
        satisfaction.mean().unwrap_or(0.0),
        satisfaction.mean_of_lowest(0.05).unwrap_or(0.0),
    ]
}

/// Wall times of `SETUP_REPEATS` set-ups of a compose workload (none
/// for a session workload, whose pass times one set-up per unit).
fn timed_setups(workload: &str, seed: u64, scale: &Scale) -> Vec<f64> {
    let time = |setup: &dyn Fn()| {
        (0..SETUP_REPEATS)
            .map(|_| {
                let start = Instant::now();
                setup();
                start.elapsed().as_secs_f64()
            })
            .collect()
    };
    match workload {
        "compose_hot" => time(&|| drop(std::hint::black_box(compose::hot_setup(seed)))),
        "compose_scale" => time(&|| drop(std::hint::black_box(compose::scale_setup(scale)))),
        _ => Vec::new(),
    }
}

/// Run one pass of `workload`, traced or not.
fn run_pass(
    workload: &str,
    seed: u64,
    scale: &Scale,
    tracer: Option<&mut Tracer>,
    layers: &mut Layers,
) -> Pass {
    match (SessionWorkload::named(workload), workload) {
        (Some(kind), _) => sessions::session_pass(kind, seed, scale, tracer.is_some(), layers),
        (None, "compose_hot") => compose::hot_pass(seed, scale, tracer, layers),
        (None, _) => compose::scale_pass(seed, scale, tracer, layers),
    }
}

/// Run one workload in this process and print its result.
fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let mut result = RunResult {
        problems: verify::library_checks(),
        ..RunResult::default()
    };
    let session_workload = SessionWorkload::named(workload);
    if let Some(kind) = session_workload {
        result
            .problems
            .extend(sessions::worker_invariance(kind, args.seed).err());
    }

    let mut tracer = None;
    let pass = if args.traced {
        // Traced pass first, then the same inputs untraced: the
        // untraced pass has the last word on every count and on the
        // timings that are end-to-end in kind.
        let scale = scale.traced();
        let mut spans = Tracer::new(1 << 16);
        let traced = run_pass(
            workload,
            args.seed,
            &scale,
            Some(&mut spans),
            &mut result.layers,
        );
        let plain = run_pass(workload, args.seed, &scale, None, &mut result.layers);
        if traced.digest.0 != plain.digest.0 {
            result.problems.push(format!(
                "traced digest {:016x} differs from untraced digest {:016x}",
                traced.digest.0, plain.digest.0
            ));
        }
        result.problems.extend(traced.problems);
        let untraced_rate = plain.timed_ops as f64 / plain.wall_s;
        let traced_rate = traced.timed_ops as f64 / (traced.wall_s - traced.replay_s);
        result.layers.set("trace.untraced_ops_per_s", untraced_rate);
        result.layers.set("trace.traced_ops_per_s", traced_rate);
        result.layers.set(
            "trace.overhead_share",
            (untraced_rate - traced_rate) / untraced_rate,
        );
        if session_workload.is_none() {
            result.layers.set(
                "compose_p90_us",
                Samples::new(plain.op_us.clone())
                    .tail_percentile(90.0)
                    .unwrap_or(0.0),
            );
        }
        result.layers.set(
            "failed_ops_share",
            plain.failed as f64 / plain.attempted.max(1) as f64,
        );
        result.layers.set(
            "p5_satisfaction",
            Samples::new(plain.satisfaction.clone())
                .nearest_rank(5.0)
                .unwrap_or(0.0),
        );
        tracer = Some(spans);
        plain
    } else {
        // Set-ups are timed on both sides of the timed phase, seconds
        // apart, so one burst of interference cannot reach them all.
        let mut setups = timed_setups(workload, args.seed, &scale);
        let pass = run_pass(workload, args.seed, &scale, None, &mut result.layers);
        setups.extend(timed_setups(workload, args.seed, &scale));
        setups.extend(&pass.setup_s);
        result.end_to_end = end_to_end(&pass, quiet_decile(setups.into_iter()));
        pass
    };
    result.attempted = pass.attempted;
    result.failed = pass.failed;
    result.digest = pass.digest.0;
    result.samples = pass.segments.len();
    result.problems.extend(pass.problems);

    println!(
        "{workload} seed {} {} — {} ops, {} failed, digest {:016x}, {} segments",
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        result.attempted,
        result.failed,
        result.digest,
        result.samples,
    );
    if let Some(entries) = result.metrics(args.traced).as_obj() {
        for (name, metric) in entries {
            let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = match metric.get("unit") {
                Some(Value::Str(unit)) => unit.as_str(),
                _ => "",
            };
            println!("  {name:<42} {value:>16.4} {unit}");
        }
    }
    for problem in &result.problems {
        println!("  CHECK FAILED: {problem}");
    }

    let write = |path: &Path, value: &Value| {
        std::fs::write(path, report::render_pretty(value) + "\n")
            .map_err(|e| eprintln!("cannot write {}: {e}", path.display()))
            .is_ok()
    };
    let mut written = true;
    if let Some(path) = &args.report {
        written &= write(path, &result.record(workload, args.seed, args.traced));
    }
    if let (Some(path), Some(tracer)) = (&args.trace_out, &tracer) {
        written &= write(path, &tracer.to_value());
    }
    println!("{}", result.driver_line(args.traced));
    if result.problems.is_empty() && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--all`: every workload, untraced (`--runs` times) and traced, each
/// in a fresh process so `peak_rss_mb` is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let mut records = Vec::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for run in 0..=args.runs {
            // The last round is the traced one.
            let traced = run == args.runs;
            let record_path = out.join(format!("record-{workload}.json"));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--report")
                .arg(&record_path);
            if traced {
                child
                    .arg("--trace-out")
                    .arg(out.join(format!("trace-{workload}.json")));
            }
            if args.smoke {
                child.arg("--smoke");
            }
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("{workload}: child exited with {status}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{workload}: cannot start child: {e}");
                    ok = false;
                    continue;
                }
            }
            match std::fs::read_to_string(&record_path)
                .map_err(|e| e.to_string())
                .and_then(|text| report::parse(&text))
            {
                Ok(record) => records.push(record),
                Err(e) => {
                    eprintln!("{workload}: no record: {e}");
                    ok = false;
                }
            }
            let _ = std::fs::remove_file(&record_path);
        }
    }
    let results = Value::Obj(vec![
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        (
            "host_parallelism".to_string(),
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("runs".to_string(), Value::Arr(records)),
    ]);
    let path = out.join("results.json");
    if let Err(e) = std::fs::write(&path, report::render_pretty(&results) + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        ok = false;
    }
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b, args.exact) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if args.all || (args.smoke && args.workload.is_none()) {
        return run_all(&args);
    }
    match args.workload.as_deref() {
        Some(workload) if WORKLOADS.contains(&workload) => run_workload(workload, &args),
        Some(other) => {
            eprintln!("unknown workload {other:?}; known: {WORKLOADS:?}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("give --workload NAME, --all, --smoke or --compare A.json B.json");
            ExitCode::from(2)
        }
    }
}
