//! X7 — scaling with the number of clients (Section 2's claim that
//! proxy-based adaptation "scal\[es\] properly with the number of
//! clients"): admit clients one by one through a shared proxy; each
//! composition sees the bandwidth the previous sessions left behind.
//!
//! Two phases expose a tension the paper leaves implicit: satisfaction
//! maximization is *per user*, so unconstrained clients each grab the
//! full rate until the uplink is exhausted (first-come-first-served
//! cliff). Giving every user a per-second budget against a metered
//! uplink turns the budget constraint of Figure 4 into a crude fairness
//! knob: each client affords only a share, so more clients are served
//! at slightly lower quality.
//!
//! ```text
//! cargo run -p qosc-bench --release --bin concurrency
//! ```

use qosc_bench::TextTable;
use qosc_core::{Composer, SelectOptions};
use qosc_media::{
    Axis, AxisDomain, BitrateModel, DomainVector, FormatSpec, MediaKind, VariantSpec,
};
use qosc_netsim::{Link, Network, Node, Topology};
use qosc_profiles::{
    ContentProfile, ContextProfile, ConversionSpec, DeviceProfile, HardwareCaps, NetworkProfile,
    ProfileSet, ServiceSpec, UserProfile,
};
use qosc_services::{ServiceRegistry, TranscoderDescriptor};

fn main() {
    println!("X7 — concurrent clients sharing one 300 kbit/s proxy uplink");
    println!();
    run_phase(
        "phase A: unconstrained users (individual optimum)",
        None,
        0.0,
    );
    println!();
    run_phase(
        "phase B: budgeted users (0.018/s against a 1.0/Mbit metered uplink → ≤18 fps each)",
        Some(0.018),
        1.0,
    );
    println!();
    println!(
        "Shape: in phase A the first 10 clients each take the full 30 fps and \
         client 11 onward starves — per-user satisfaction maximization is \
         first-come-first-served. In phase B the Figure-4 budget meters each \
         user down to 18 fps (satisfaction 0.60), so 17 clients are served \
         (the last one on the residual headroom) before starvation: the \
         budget doubles as a fairness knob."
    );
}

fn run_phase(label: &str, budget: Option<f64>, uplink_price_per_mbit: f64) {
    println!("=== {label} ===");
    // server —(100 Mbit/s)— proxy —(300 kbit/s shared)— access — clients.
    let mut formats = qosc_media::FormatRegistry::new();
    let linear = BitrateModel::LinearOnAxis {
        axis: Axis::FrameRate,
        slope: 1000.0,
    };
    formats.register(FormatSpec::new("master", MediaKind::Video, linear));
    formats.register(FormatSpec::new("mobile", MediaKind::Video, linear));

    let client_count = 24usize;
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let access = topo.add_node(Node::unconstrained("access"));
    topo.connect_simple(server, proxy, 100e6).unwrap();
    topo.connect(Link {
        a: proxy,
        b: access,
        capacity_bps: 300_000.0, // the shared bottleneck
        delay_us: 5_000,
        loss: 0.0,
        price_per_mbit: uplink_price_per_mbit,
        price_flat: 0.0,
    })
    .unwrap();
    let clients: Vec<_> = (0..client_count)
        .map(|i| {
            let node = topo.add_node(Node::unconstrained(format!("client-{i}")));
            topo.connect_simple(access, node, 10e6).unwrap();
            node
        })
        .collect();
    let mut network = Network::new(topo);

    let mut services = ServiceRegistry::new();
    let spec = ServiceSpec::new(
        "mobile-transcoder",
        vec![ConversionSpec::new(
            "master",
            "mobile",
            DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 1.0,
                    max: 30.0,
                },
            ),
        )],
    );
    services.register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());

    let profiles = |name: String| ProfileSet {
        user: {
            let mut user = UserProfile::paper_table1();
            user.budget = budget;
            user
        },
        content: ContentProfile::new(
            format!("stream-for-{name}"),
            vec![VariantSpec {
                format: "master".to_string(),
                offered: DomainVector::new().with(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 1.0,
                        max: 30.0,
                    },
                ),
            }],
        ),
        device: DeviceProfile::new(name, vec!["mobile".to_string()], HardwareCaps::pda()),
        context: ContextProfile::default(),
        network: NetworkProfile::cellular(),
    };

    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let mut table = TextTable::new([
        "client",
        "admitted",
        "delivered fps",
        "satisfaction",
        "uplink left (kbit/s)",
    ]);
    let mut admitted = 0usize;
    let mut satisfaction_sum = 0.0;
    for (i, &client) in clients.iter().enumerate() {
        let composer = Composer {
            formats: &formats,
            services: &services,
            network: &network,
        };
        let composition = composer
            .compose(&profiles(format!("client-{i}")), server, client, &options)
            .expect("composition runs");
        let row = match composition.plan {
            // A chain that delivers (almost) nothing is starvation, not
            // service.
            Some(plan) if plan.predicted_satisfaction > 0.05 => {
                // Admit the session: hold its bandwidth for the rest of
                // the experiment so later clients see less headroom.
                let mut ok = true;
                for pair in plan.steps.windows(2) {
                    if network
                        .reserve_between(pair[0].host, pair[1].host, pair[1].input_bps)
                        .is_err()
                    {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    admitted += 1;
                    satisfaction_sum += plan.predicted_satisfaction;
                    let fps = plan
                        .steps
                        .last()
                        .unwrap()
                        .params
                        .get(Axis::FrameRate)
                        .unwrap_or(0.0);
                    (
                        format!("{fps:.1}"),
                        format!("{:.3}", plan.predicted_satisfaction),
                    )
                } else {
                    ("-".to_string(), "admission failed".to_string())
                }
            }
            Some(_) => ("-".to_string(), "starved".to_string()),
            None => ("-".to_string(), "no chain".to_string()),
        };
        let left = network.available_between(proxy, access).unwrap_or(0.0);
        table.row([
            format!("{i}"),
            admitted.to_string(),
            row.0,
            row.1,
            format!("{:.1}", left / 1e3),
        ]);
    }
    print!("{}", table.render());
    println!(
        "served {admitted}/{client_count} clients, mean satisfaction of served: {:.3}",
        satisfaction_sum / admitted.max(1) as f64
    );
}
