//! End-to-end integration: profiles → graph → selection → plan →
//! simulated streaming → measured satisfaction, on realistic catalog
//! scenarios.

use qosc_core::{Composer, SelectOptions};
use qosc_media::{Axis, FormatRegistry};
use qosc_netsim::{Network, Node, Topology};
use qosc_pipeline::{run_session, SessionConfig};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};

/// Content server → two proxies → PDA, with the full realistic catalog
/// spread over the proxies.
fn pda_setup() -> (
    FormatRegistry,
    ServiceRegistry,
    Network,
    qosc_netsim::NodeId,
    qosc_netsim::NodeId,
) {
    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy_a = topo.add_node(Node::new("proxy-a", 4_000.0, 8e9));
    let proxy_b = topo.add_node(Node::new("proxy-b", 4_000.0, 8e9));
    let pda = topo.add_node(Node::unconstrained("pda"));
    topo.connect_simple(server, proxy_a, 100e6).unwrap();
    topo.connect_simple(proxy_a, proxy_b, 50e6).unwrap();
    topo.connect_simple(proxy_b, pda, 400e3).unwrap();
    let network = Network::new(topo);

    let mut services = ServiceRegistry::new();
    for (i, spec) in catalog::full_catalog().into_iter().enumerate() {
        let host = if i % 2 == 0 { proxy_a } else { proxy_b };
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, host).unwrap());
    }
    (formats, services, network, server, pda)
}

fn pda_profiles() -> ProfileSet {
    ProfileSet {
        user: UserProfile::demo("erin"),
        content: ContentProfile::demo_video("evening-news"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::cellular(),
    }
}

#[test]
fn compose_stream_measure() {
    let (formats, services, mut network, server, pda) = pda_setup();
    let profiles = pda_profiles();
    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let composition = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap();
    let plan = composition.plan.expect("the catalog can reach the PDA");

    // The plan respects the PDA's hardware: pixel count under the screen
    // size, configured rate under the 400 kbit/s last hop.
    let last = plan.steps.last().unwrap();
    if let Some(px) = last.params.get(Axis::PixelCount) {
        assert!(px <= 320.0 * 240.0 + 1e-6);
    }
    assert!(last.input_bps <= 400e3 * (1.0 + 1e-9));

    let profile = profiles.effective_satisfaction();
    let report = run_session(
        &mut network,
        &services,
        &plan,
        &profile,
        &SessionConfig::default(),
    )
    .unwrap();
    assert!(report.frames_delivered > 0);
    assert!(
        (report.measured_satisfaction - plan.predicted_satisfaction).abs() < 0.05,
        "measured {} vs predicted {}",
        report.measured_satisfaction,
        plan.predicted_satisfaction
    );
}

#[test]
fn registry_churn_changes_composition() {
    let (formats, mut services, network, server, pda) = pda_setup();
    let profiles = pda_profiles();

    // Baseline chain uses the H.263 down-coder.
    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let baseline = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap()
        .plan
        .expect("solvable");
    let uses_h263 = baseline.steps.iter().any(|s| &*s.name == "mpeg2-to-h263");
    assert!(uses_h263);

    // Kill the down-coder's lease; composition must adapt or fail —
    // never return a plan through a dead service.
    let dead: Vec<_> = services
        .live_services()
        .filter(|(_, d)| d.name == "mpeg2-to-h263")
        .map(|(id, _)| id)
        .collect();
    for id in dead {
        services.deregister(id).unwrap();
    }
    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let after = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap();
    if let Some(plan) = after.plan {
        assert!(plan.steps.iter().all(|s| &*s.name != "mpeg2-to-h263"));
    }
}

#[test]
fn budget_constrains_realistic_chains() {
    let (formats, services, network, server, pda) = pda_setup();
    let mut profiles = pda_profiles();

    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let free = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap()
        .plan
        .expect("solvable without budget");
    assert!(free.total_cost > 0.0, "catalog services are priced");

    // A budget below the cheapest chain kills the composition.
    profiles.user.budget = Some(free.total_cost / 100.0);
    let broke = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap();
    if let Some(plan) = &broke.plan {
        assert!(plan.total_cost <= free.total_cost / 100.0 + 1e-9);
    }

    // A budget exactly at the unconstrained cost keeps it feasible.
    profiles.user.budget = Some(free.total_cost * (1.0 + 1e-6));
    let exact = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap();
    assert!(exact.plan.is_some());
}

#[test]
fn profile_json_round_trip_preserves_composition() {
    let (formats, services, network, server, pda) = pda_setup();
    let profiles = pda_profiles();
    let json = profiles.to_json().unwrap();
    let restored = ProfileSet::from_json(&json).unwrap();

    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let a = composer
        .compose(&profiles, server, pda, &SelectOptions::default())
        .unwrap()
        .plan
        .unwrap();
    let b = composer
        .compose(&restored, server, pda, &SelectOptions::default())
        .unwrap()
        .plan
        .unwrap();
    assert_eq!(a.predicted_satisfaction, b.predicted_satisfaction);
    assert_eq!(
        a.steps.iter().map(|s| &s.name).collect::<Vec<_>>(),
        b.steps.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
}

/// Cross-kind fallback: a text-only terminal can still receive a video —
/// through the video-to-text transcript service ("video to text
/// conversion", Section 1). Exercises kind-changing conversions and the
/// cross-kind satisfaction clamp.
#[test]
fn text_only_terminal_gets_a_transcript() {
    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let terminal = topo.add_node(Node::unconstrained("tty"));
    topo.connect_simple(server, proxy, 100e6).unwrap();
    topo.connect_simple(proxy, terminal, 64e3).unwrap();
    let network = Network::new(topo);
    let mut services = ServiceRegistry::new();
    for spec in catalog::full_catalog() {
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
    }
    let mut user = UserProfile::demo("reader");
    user.satisfaction =
        qosc_satisfaction::SatisfactionProfile::new().with(qosc_satisfaction::AxisPreference::new(
            qosc_media::Axis::Fidelity,
            qosc_satisfaction::SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 40.0,
            },
        ));
    let device = qosc_profiles::DeviceProfile::new(
        "text-terminal",
        vec!["text/html".to_string()],
        qosc_profiles::HardwareCaps::pda(),
    );
    let profiles = ProfileSet {
        user,
        content: ContentProfile::demo_video("lecture"),
        device,
        context: ContextProfile::default(),
        network: NetworkProfile::cellular(),
    };
    let composer = Composer {
        formats: &formats,
        services: &services,
        network: &network,
    };
    let composition = composer
        .compose(&profiles, server, terminal, &SelectOptions::default())
        .unwrap();
    let plan = composition
        .plan
        .expect("video-to-text reaches the terminal");
    assert!(
        plan.steps.iter().any(|s| &*s.name == "video-to-text"),
        "expected the transcript service, got {:?}",
        plan.steps.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert!(plan.predicted_satisfaction > 0.5);
    // The transcript's fidelity axis is what the user scores.
    let delivered = plan.steps.last().unwrap().params;
    assert!(delivered.get(qosc_media::Axis::Fidelity).is_some());
    assert!(delivered.get(qosc_media::Axis::FrameRate).is_none());
}
