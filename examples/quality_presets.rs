//! Operator-console view of **quality presets** (the paper's reference
//! [28], Richards et al.): collapse the per-axis satisfaction functions
//! into a single dial and print what each notch costs in parameters and
//! bandwidth.
//!
//! ```text
//! cargo run -p qosc-bench --example quality_presets
//! ```

use qosc_media::{Axis, BitrateModel};
use qosc_satisfaction::{params_for_level, presets};
use qosc_workload::paper;

fn main() {
    let scenario = paper::figure6_scenario(true);
    let profile = scenario.profiles.effective_satisfaction();

    println!("quality dial (Richards-style single-parameter mapping):");
    let bitrate = BitrateModel::LinearOnAxis {
        axis: Axis::FrameRate,
        slope: 1000.0,
    };
    for (level, params) in presets(&profile, 5) {
        println!(
            "  level {level:.2} → {params}  (~{:.1} kbit/s)",
            bitrate.bits_per_second(&params) / 1e3
        );
    }
    // What does "satisfaction 0.66" — the paper's delivered quality —
    // require?
    let needed = params_for_level(&profile, 2.0 / 3.0).expect("reachable");
    println!(
        "  the paper's delivered 0.66 needs {:.1} fps",
        needed.get(Axis::FrameRate).unwrap_or(0.0)
    );
}
