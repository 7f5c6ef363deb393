//! E4 — regenerate **Figure 3**: the example adaptation graph built from
//! one sender, seven intermediaries and one receiver, printed as an edge
//! list and as Graphviz DOT.
//!
//! ```text
//! cargo run -p qosc-bench --bin figure3
//! ```

use qosc_bench::TextTable;
use qosc_core::graph::dot;
use qosc_core::SelectOptions;
use qosc_workload::paper;

fn main() {
    println!("E4 — Figure 3: directed trans-coding graph (construction example)");
    println!();

    let scenario = paper::figure3_scenario();
    let composition = scenario
        .compose(&SelectOptions::default())
        .expect("figure-3 scenario composes");
    let graph = &composition.graph;

    println!(
        "vertices: {} (sender + 7 intermediaries + receiver), edges: {}",
        graph.vertex_count(),
        graph.edge_count()
    );
    println!();

    let mut table = TextTable::new(["from", "format", "to", "bandwidth (bit/s)"]);
    for edge_id in graph.edge_ids() {
        let edge = graph.edge(edge_id).unwrap();
        table.row([
            graph.vertex(edge.from).unwrap().name.clone(),
            scenario.formats.name(edge.format).to_string(),
            graph.vertex(edge.to).unwrap().name.clone(),
            if edge.available_bps.is_infinite() {
                "∞ (same host)".to_string()
            } else {
                format!("{:.0}", edge.available_bps)
            },
        ]);
    }
    print!("{}", table.render());
    println!();

    let highlight: Vec<String> = composition
        .plan
        .as_ref()
        .map(|p| p.steps.iter().map(|s| s.name.to_string()).collect())
        .unwrap_or_default();
    println!("selected chain: {}", highlight.join(" → "));
    println!();
    println!("DOT (selected chain highlighted):");
    print!(
        "{}",
        dot::to_dot(graph, &scenario.formats, &highlight).expect("graph renders")
    );
}
