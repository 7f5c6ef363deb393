//! # qosc-bench
//!
//! Shared plumbing for the experiment binaries (`src/bin/*`) that
//! regenerate every table and figure of *"A QoS-based Service Composition
//! for Content Adaptation"* (ICDE 2007), the Criterion benches
//! (`benches/*`), and the workspace integration suite (`../../tests/*`).
//!
//! See `EXPERIMENTS.md` at the workspace root for the experiment index
//! and the recorded paper-vs-measured results.

pub mod scorecard;

use qosc_core::baseline::{exhaustive, random_walk, structural, BaselineResult};
use qosc_core::select::label::ExtendContext;
use qosc_core::{SelectOptions, SelectedChain};
use qosc_satisfaction::OptimizeOptions;
use qosc_workload::Scenario;

/// A minimal fixed-width text-table printer for experiment output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (missing cells render empty; extras are kept).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut TextTable {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |row: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let pad = width.saturating_sub(cell.chars().count());
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                if i + 1 < columns {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// The algorithms compared by the baseline experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's greedy QoS selection (Figure 4).
    Greedy,
    /// Exact optimum by exhaustive enumeration.
    Exhaustive,
    /// Fewest hops.
    FewestHops,
    /// Maximum bottleneck bandwidth.
    WidestPath,
    /// Minimum structural price.
    CheapestPath,
    /// Seeded random feasible chain.
    RandomWalk,
}

impl Algorithm {
    /// All algorithms, display order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Greedy,
        Algorithm::Exhaustive,
        Algorithm::FewestHops,
        Algorithm::WidestPath,
        Algorithm::CheapestPath,
        Algorithm::RandomWalk,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy-qos (paper)",
            Algorithm::Exhaustive => "exhaustive (optimal)",
            Algorithm::FewestHops => "fewest-hops",
            Algorithm::WidestPath => "widest-path",
            Algorithm::CheapestPath => "cheapest-path",
            Algorithm::RandomWalk => "random-walk",
        }
    }
}

/// The outcome of one algorithm on one scenario.
#[derive(Debug, Clone)]
pub struct AlgoOutcome {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The chain it picked, if it found one.
    pub chain: Option<SelectedChain>,
    /// States/paths explored (algorithm-specific effort metric).
    pub explored: usize,
}

/// Run `algorithm` on `scenario` and return its outcome. The greedy
/// algorithm runs through the scenario's composer; baselines run on the
/// same graph and extension semantics.
pub fn run_algorithm(
    scenario: &Scenario,
    algorithm: Algorithm,
    options: &SelectOptions,
) -> qosc_core::Result<AlgoOutcome> {
    let composition = scenario.compose(options)?;
    if algorithm == Algorithm::Greedy {
        return Ok(AlgoOutcome {
            algorithm,
            explored: composition.selection.optimizations,
            chain: composition.selection.chain,
        });
    }
    let profile = scenario.profiles.effective_satisfaction();
    let ctx = ExtendContext {
        graph: &composition.graph,
        formats: &scenario.formats,
        profile: &profile,
        budget: scenario.profiles.user.budget_or_infinite(),
        optimizer: OptimizeOptions::default(),
        penalties: &[],
    };
    let result: Option<BaselineResult> = match algorithm {
        Algorithm::Exhaustive => {
            exhaustive::exhaustive_optimum(&ctx, exhaustive::ExhaustiveOptions::default())?
        }
        Algorithm::FewestHops => structural::fewest_hops(&ctx)?,
        Algorithm::WidestPath => structural::widest_path(&ctx)?,
        Algorithm::CheapestPath => structural::cheapest_path(&ctx)?,
        Algorithm::RandomWalk => {
            random_walk::random_walk(&ctx, random_walk::RandomWalkOptions::default())?
        }
        Algorithm::Greedy => unreachable!("handled above"),
    };
    Ok(match result {
        Some(r) => AlgoOutcome {
            algorithm,
            chain: Some(r.chain),
            explored: r.explored,
        },
        None => AlgoOutcome {
            algorithm,
            chain: None,
            explored: 0,
        },
    })
}

/// Format a satisfaction for display (paper-style, two decimals,
/// truncated).
pub fn sat2(s: f64) -> String {
    format!("{:.2}", qosc_core::SelectionTrace::truncate2(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(["a", "bb"]);
        t.row(["1", "2"]).row(["333", "4"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("1"));
    }

    #[test]
    fn algorithms_run_on_paper_scenario() {
        let scenario = qosc_workload::paper::figure6_scenario(true);
        for algorithm in Algorithm::ALL {
            let outcome = run_algorithm(&scenario, algorithm, &SelectOptions::default()).unwrap();
            let chain = outcome.chain.unwrap_or_else(|| {
                panic!("{} found no chain on the paper scenario", algorithm.name())
            });
            assert!(chain.satisfaction > 0.0, "{}", algorithm.name());
        }
    }

    #[test]
    fn greedy_matches_exhaustive_on_paper_scenario() {
        let scenario = qosc_workload::paper::figure6_scenario(true);
        let options = SelectOptions::default();
        let greedy = run_algorithm(&scenario, Algorithm::Greedy, &options)
            .unwrap()
            .chain
            .unwrap();
        let exact = run_algorithm(&scenario, Algorithm::Exhaustive, &options)
            .unwrap()
            .chain
            .unwrap();
        assert!((greedy.satisfaction - exact.satisfaction).abs() < 1e-9);
    }

    #[test]
    fn sat2_truncates() {
        assert_eq!(sat2(23.0 / 30.0), "0.76");
        assert_eq!(sat2(1.0), "1.00");
    }
}
