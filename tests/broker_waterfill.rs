//! Property-based invariants of the bandwidth broker's deterministic
//! water-filling (proptest), plus the end-to-end worker-count
//! determinism of a brokered session world.
//!
//! The algebraic properties run on randomized chain networks — flows
//! pinned to contiguous link spans with random capacities, weights and
//! demand windows:
//!
//! * **feasibility** — with zero floors, per-link grant sums never
//!   exceed capacity,
//! * **weighted max-min fairness** — every flow not pinned at its cap
//!   crosses a saturated bottleneck on which no other flow holds a
//!   larger weight-normalized grant (the classic max-min witness, with
//!   +1 slack per weight unit for integer rounding),
//! * **registration-order determinism** — the weighted max-min grants
//!   depend only on the flow *set*, never the order sessions arrived,
//! * **departure monotonicity** — deregistering a session never shrinks
//!   any survivor's grant (the preemption-free floors).

use proptest::prelude::*;
use qosc_broker::{BandwidthBroker, FlowSpec, SharingPolicy};
use qosc_netsim::{LinkId, Node, Topology};

/// A chain topology with `caps.len()` links — the only way to mint
/// `LinkId`s is through a real topology, which also keeps the tests
/// honest about the id space the broker sees in production.
fn chain_links(caps: &[u64]) -> Vec<LinkId> {
    let mut topo = Topology::new();
    let mut prev = topo.add_node(Node::unconstrained("n0"));
    let mut links = Vec::new();
    for (i, _) in caps.iter().enumerate() {
        let next = topo.add_node(Node::unconstrained(format!("n{}", i + 1)));
        links.push(topo.connect_simple(prev, next, 1e9).unwrap());
        prev = next;
    }
    links
}

/// One generated flow: a contiguous span of chain links plus its demand
/// window. Spans are expressed as fractions of the chain so they stay
/// valid for any generated chain length.
#[derive(Debug, Clone)]
struct GenFlow {
    start_pct: u8,
    len_pct: u8,
    min_bps: u64,
    extra_bps: u64,
    weight: u32,
}

fn arb_flows() -> impl Strategy<Value = (Vec<u64>, Vec<GenFlow>)> {
    let caps = proptest::collection::vec(1_000u64..=1_000_000, 1..=6);
    let flows = proptest::collection::vec(
        (0u8..100, 1u8..100, 0u64..200_000, 1u64..2_000_000, 1u32..=5).prop_map(
            |(start_pct, len_pct, min_bps, extra_bps, weight)| GenFlow {
                start_pct,
                len_pct,
                min_bps,
                extra_bps,
                weight,
            },
        ),
        1..=8,
    );
    (caps, flows)
}

fn specs(links: &[LinkId], flows: &[GenFlow], zero_floors: bool) -> Vec<FlowSpec> {
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let start = (f.start_pct as usize * links.len()) / 100;
            let len = 1 + (f.len_pct as usize * (links.len() - start)) / 100;
            let min_bps = if zero_floors { 0 } else { f.min_bps };
            FlowSpec {
                session: i as u64,
                min_bps,
                max_bps: min_bps + f.extra_bps,
                weight: f.weight,
                hops: links[start..(start + len).min(links.len())]
                    .iter()
                    .map(|&l| (l, true))
                    .collect(),
            }
        })
        .collect()
}

fn broker_with(caps: &[u64], links: &[LinkId], specs: &[FlowSpec]) -> BandwidthBroker {
    let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
    for (&link, &cap) in links.iter().zip(caps) {
        broker.set_capacity(link, true, cap);
    }
    for spec in specs {
        broker.register(spec.clone());
    }
    broker
}

/// Per-link grant sums, keyed by link position in the chain.
fn link_usage(caps: &[u64], links: &[LinkId], broker: &BandwidthBroker) -> Vec<u64> {
    let mut used = vec![0u64; caps.len()];
    for (session, grant) in broker.grants() {
        let spec = broker.flow(session).unwrap();
        for (i, &link) in links.iter().enumerate() {
            if spec.hops.contains(&(link, true)) {
                used[i] += grant;
            }
        }
    }
    used
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// (a) With zero floors, no directed link is ever oversubscribed.
    #[test]
    fn grants_are_per_link_feasible((caps, flows) in arb_flows()) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, true);
        let broker = broker_with(&caps, &links, &specs);
        for (i, used) in link_usage(&caps, &links, &broker).iter().enumerate() {
            prop_assert!(
                *used <= caps[i],
                "link {i}: granted {used} over capacity {}", caps[i]
            );
        }
    }

    /// (b) Weighted max-min witness: every flow not pinned at its cap
    /// crosses a saturated link on which every flow's weight-normalized
    /// grant is at most its own (+1 per weight unit of integer slack).
    #[test]
    fn uncapped_flows_sit_on_a_fair_bottleneck((caps, flows) in arb_flows()) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, true);
        let broker = broker_with(&caps, &links, &specs);
        let used = link_usage(&caps, &links, &broker);
        for spec in &specs {
            let grant = broker.grant(spec.session).unwrap();
            if grant >= spec.max_bps {
                continue; // cap-pinned: fairness says nothing about it
            }
            let witness = links.iter().enumerate().any(|(i, &link)| {
                if !spec.hops.contains(&(link, true)) {
                    return false;
                }
                let crossing: Vec<&FlowSpec> = specs
                    .iter()
                    .filter(|s| s.hops.contains(&(link, true)))
                    .collect();
                let weight_sum: u64 = crossing.iter().map(|s| s.weight as u64).sum();
                // Saturated: not even one more unit per weight fits.
                if caps[i] - used[i] >= weight_sum {
                    return false;
                }
                // No one on this link beats our normalized share.
                crossing.iter().all(|other| {
                    let og = broker.grant(other.session).unwrap();
                    og * spec.weight as u64
                        <= (grant + spec.weight as u64) * other.weight as u64
                })
            });
            prop_assert!(
                witness,
                "session {} granted {grant} < cap {} without a bottleneck witness",
                spec.session, spec.max_bps
            );
        }
    }

    /// (c) The weighted max-min allocation depends only on the flow set:
    /// any registration order yields identical grants.
    #[test]
    fn grants_ignore_registration_order(
        ((caps, flows), seed) in (arb_flows(), 0u64..1_000)
    ) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, false);
        let ordered = broker_with(&caps, &links, &specs);
        // A cheap deterministic shuffle: rotate + stride permutation.
        let mut shuffled = specs.clone();
        let n = shuffled.len();
        shuffled.rotate_left((seed as usize) % n);
        if n > 1 && seed % 3 == 0 {
            shuffled.reverse();
        }
        let reordered = broker_with(&caps, &links, &shuffled);
        prop_assert_eq!(ordered.grants(), reordered.grants());
    }

    /// (d) Departures are preemption-free: a session leaving never
    /// shrinks any survivor's grant.
    #[test]
    fn departure_never_shrinks_survivors(
        ((caps, flows), victim) in (arb_flows(), 0usize..8)
    ) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, false);
        let mut broker = broker_with(&caps, &links, &specs);
        let before = broker.grants();
        let victim = (victim % specs.len()) as u64;
        prop_assert!(broker.deregister(victim));
        for (session, grant) in broker.grants() {
            prop_assert!(
                grant >= before[&session],
                "session {session} shrank from {} to {grant} on a departure",
                before[&session]
            );
        }
    }
}

mod worker_determinism {
    use qosc_core::{
        run_sessions, AbrConfig, AbrMode, ArrivalMeta, CompositionRequest, PriorityClass,
        ResilientEngineConfig, SessionEngineConfig, SessionRequest,
    };
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Network, Node, Topology};
    use qosc_pipeline::{ChaosWorld, SharingPolicy};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
    };
    use qosc_services::{catalog, DiscoveryConfig, TranscoderDescriptor};

    /// A brokered world's session outcomes are bit-identical at every
    /// worker count — grant recomputation and reaction happen in the
    /// serialized phase of each instant, never on worker threads.
    #[test]
    fn brokered_runs_are_worker_invariant() {
        let formats = FormatRegistry::with_builtins();
        let render = |workers: usize| {
            let mut topo = Topology::new();
            let server = topo.add_node(Node::unconstrained("server"));
            let proxy = topo.add_node(Node::unconstrained("proxy"));
            let client = topo.add_node(Node::unconstrained("client"));
            topo.connect_simple(server, proxy, 100e6).unwrap();
            topo.connect_simple(proxy, client, 2e6).unwrap();
            let mut world =
                ChaosWorld::new(&formats, Network::new(topo), DiscoveryConfig::default());
            for spec in catalog::full_catalog() {
                world.join(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
            }
            world.set_sharing(Some(SharingPolicy::WeightedMaxMin));
            let requests: Vec<SessionRequest> = (0..6)
                .map(|i| SessionRequest {
                    request: CompositionRequest {
                        profiles: ProfileSet {
                            user: UserProfile::demo("user-0"),
                            content: ContentProfile::demo_video("clip"),
                            device: DeviceProfile::demo_pda(),
                            context: ContextProfile::default(),
                            network: NetworkProfile::broadband(),
                        },
                        sender_host: server,
                        receiver_host: client,
                    },
                    arrival: ArrivalMeta {
                        arrival_us: i * 300_000,
                        priority: match i % 3 {
                            0 => PriorityClass::Interactive,
                            1 => PriorityClass::Standard,
                            _ => PriorityClass::Background,
                        },
                        service_cost_us: 1_000,
                        deadline_budget_us: None,
                    },
                    hold_us: 4_000_000,
                    demand_bps: 0,
                })
                .collect();
            let config = SessionEngineConfig {
                resilient: ResilientEngineConfig {
                    workers,
                    ..ResilientEngineConfig::default()
                },
                admission: None,
                tick_us: 250_000,
                abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
                ..SessionEngineConfig::default()
            };
            let report = run_sessions(&mut world, &requests, &config, &qosc_telemetry::NoopSink);
            assert!(
                report.outcomes.iter().any(|o| o.grant_updates > 0),
                "contention on the 2 Mbps edge must reach sessions as grant updates"
            );
            format!("{:?} {:?}", report.outcomes, report.counters)
        };
        let reference = render(1);
        for workers in [2, 4, 8] {
            assert_eq!(render(workers), reference, "workers={workers} diverged");
        }
    }
}
