//! X1 — scalability: wall-clock of graph construction and selection as
//! the service population grows ("finding such a path can be similar to
//! the problem of finding the shortest path … with similar complexity",
//! Section 4.4).
//!
//! ```text
//! cargo run -p qosc-bench --release --bin scalability
//! ```

use qosc_bench::TextTable;
use qosc_core::SelectOptions;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use std::time::Instant;

fn main() {
    println!("X1 — scalability of graph construction + selection");
    println!();

    let sizes = [10usize, 20, 50, 100, 200, 500, 1000, 2000];
    let repeats = 3;
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };

    let mut table = TextTable::new([
        "services",
        "graph edges",
        "rounds",
        "optimizations",
        "compose time (ms)",
        "found chain",
    ]);
    for &size in &sizes {
        let config = GeneratorConfig {
            layers: 4,
            formats_per_layer: 4,
            ..GeneratorConfig::default()
        }
        .with_total_services(size);
        let scenario = random_scenario(&config, 7);
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let composition = scenario.compose(&options).expect("composes");
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
            last = Some(composition);
        }
        let composition = last.expect("at least one repeat");
        table.row([
            config.total_services().to_string(),
            composition.graph.edge_count().to_string(),
            composition.selection.rounds.to_string(),
            composition.selection.optimizations.to_string(),
            format!("{best_ms:.2}"),
            composition.selection.chain.is_some().to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Expected shape: time grows near-linearly in the *edge* count \
         (heap-backed label-setting plus one single-source Dijkstra per \
         host for edge annotations) — 'similar complexity to shortest \
         path', as Section 4.4 claims."
    );
}
