//! `qosc` — command-line front door to the composition framework.
//!
//! ```text
//! qosc compose <request.json> [--downlink <bit/s>] [--trace] [--dot]
//!     Load a ProfileSet request (user/content/device/context/network,
//!     the JSON stand-in for MPEG-21 descriptions), compose an
//!     adaptation chain through a proxy running the built-in service
//!     catalog, and print the plan.
//!
//! qosc table1
//!     Regenerate the paper's Table 1 (same as the `table1` binary).
//!
//! qosc catalog
//!     List the built-in trans-coding service catalog.
//! ```
//!
//! Run through cargo: `cargo run -p qosc-bench --bin qosc -- compose …`

use qosc_core::graph::dot;
use qosc_core::{Composer, SelectOptions};
use qosc_media::FormatRegistry;
use qosc_netsim::{Network, Node, Topology};
use qosc_profiles::ProfileSet;
use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compose") => compose(&args[1..]),
        Some("table1") => {
            table1();
            ExitCode::SUCCESS
        }
        Some("catalog") => {
            print_catalog();
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "qosc — QoS-based service composition for content adaptation (ICDE 2007 reproduction)\n\
         \n\
         USAGE:\n\
         \u{20}   qosc compose <request.json> [--downlink <bit/s>] [--trace] [--dot]\n\
         \u{20}   qosc table1\n\
         \u{20}   qosc catalog\n\
         \n\
         `compose` builds a server — proxy — client network (the proxy runs\n\
         the built-in trans-coder catalog), loads the JSON profile set and\n\
         prints the satisfaction-optimal adaptation plan. See\n\
         examples/data/request.json for the request format."
    );
}

fn compose(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut downlink = 2e6;
    let mut show_trace = false;
    let mut show_dot = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--downlink" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => downlink = v,
                _ => {
                    eprintln!("--downlink needs a positive number of bit/s");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => show_trace = true,
            "--dot" => show_dot = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => {
                eprintln!("unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("compose needs a request.json path");
        return ExitCode::FAILURE;
    };
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let profiles = match ProfileSet::from_json(&json) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path} is not a valid profile set: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = profiles.validate() {
        eprintln!("request rejected: {e}");
        return ExitCode::FAILURE;
    }

    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy = topo.add_node(Node::new("proxy", 4_000.0, 8e9));
    let client = topo.add_node(Node::unconstrained("client"));
    topo.connect_simple(server, proxy, 100e6)
        .expect("valid link");
    topo.connect_simple(proxy, client, downlink)
        .expect("valid link");
    let network = Network::new(topo);
    let mut services = ServiceRegistry::new();
    for spec in catalog::full_catalog() {
        services.register_static(
            TranscoderDescriptor::resolve(&spec, &formats, proxy).expect("catalog resolves"),
        );
    }

    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let composition = match composer.compose(&profiles, server, client, &SelectOptions::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("composition failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if show_trace {
        print!("{}", composition.selection.trace.to_table1_string());
        println!();
    }
    match &composition.plan {
        Some(plan) => print!("{}", plan.describe(&formats)),
        None => {
            println!(
                "no chain: {}",
                composition
                    .selection
                    .failure
                    .as_ref()
                    .map(|f| f.to_string())
                    .unwrap_or_default()
            );
            return ExitCode::FAILURE;
        }
    }
    if show_dot {
        let highlight: Vec<String> = composition
            .plan
            .as_ref()
            .map(|p| p.steps.iter().map(|s| s.name.to_string()).collect())
            .unwrap_or_default();
        println!();
        print!(
            "{}",
            dot::to_dot(&composition.graph, &formats, &highlight).expect("graph renders")
        );
    }
    ExitCode::SUCCESS
}

fn table1() {
    let scenario = qosc_workload::paper::figure6_scenario(true);
    let composition = scenario
        .compose(&SelectOptions::default())
        .expect("paper scenario composes");
    print!("{}", composition.selection.trace.to_table1_string());
    match qosc_workload::paper::verify_table1(&composition.selection.trace) {
        None => println!("\nVERDICT: matches the paper's Table 1 row-for-row."),
        Some(m) => println!("\nVERDICT: MISMATCH — {m}"),
    }
}

fn print_catalog() {
    println!("built-in trans-coding service catalog:");
    for spec in catalog::full_catalog() {
        let conversions: Vec<String> = spec
            .conversions
            .iter()
            .map(|c| format!("{} → {}", c.input, c.output))
            .collect();
        println!(
            "  {:<20} {}  ({} MIPS/Mbps, {:.4}+{:.4}/Mbit per s)",
            spec.name,
            conversions.join(", "),
            spec.cpu_mips_per_mbps,
            spec.price.per_second,
            spec.price.per_mbit,
        );
    }
}
