//! Counted-work gate for the water-filling kernel: hop visits, not time.
//!
//! A recompute walks each flow's hops once to lay floors and weight sums,
//! and walks the hops of a round's frozen flows again only when a later
//! round needs the residuals they leave. So a recompute whose single round
//! freezes everybody visits exactly Σ hops of the registered flows, and a
//! separate floors pass, weight pass or per-hop freeze in the last round
//! would each show up here as another Σ hops.
//!
//! The shape is `tests/broker_alloc.rs`'s: 1 000 flows on the X19 k = 4
//! fat-tree, all leaving one sender, so they share its access link.

use crate::{BandwidthBroker, Bottleneck, FlowSpec, SharingPolicy, HOP_VISITS};
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::routing::min_delay_route;
use qosc_netsim::LinkId;

const FLOWS: u64 = 1_000;

/// Hop visits `work` makes on this thread.
fn hop_visits_in(work: impl FnOnce()) -> u64 {
    let before = HOP_VISITS.with(|visits| visits.get());
    work();
    HOP_VISITS.with(|visits| visits.get()) - before
}

/// The X19 shape: per-direction capacities and the flows (receivers in the
/// other three pods, three weight classes).
fn fat_tree_flows() -> (Vec<(LinkId, bool, u64)>, Vec<FlowSpec>) {
    let (topo, hosts, _cores) = fat_tree(
        4,
        LinkTemplate::fixed(1.1e9, 500),
        LinkTemplate::fixed(4.4e9, 1_000),
        19,
    );
    let capacities = topo
        .link_ids()
        .flat_map(|link| [true, false].map(|forward| (link, forward)))
        .map(|(link, forward)| {
            let bps = topo.link(link).expect("listed link").capacity_bps;
            (link, forward, bps as u64)
        })
        .collect();
    let receivers = &hosts[4..];
    let flows = (0..FLOWS)
        .map(|session| {
            let to = receivers[session as usize % receivers.len()];
            let route = min_delay_route(&topo, hosts[0], to).expect("fat-trees are connected");
            let required = 600_000 + 150_000 * (session % 5);
            FlowSpec {
                session,
                min_bps: required / 4,
                max_bps: required * 2,
                weight: [4, 2, 1][session as usize % 3],
                hops: route.directed_hops(&topo).expect("routed on this topology"),
            }
        })
        .collect();
    (capacities, flows)
}

#[test]
fn a_single_round_register_visits_each_registered_hop_once() {
    let (capacities, flows) = fat_tree_flows();
    let access = flows[0].hops[0];
    assert!(flows.iter().all(|f| f.hops[0] == access), "one sender");
    let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
    for &(link, forward, bps) in &capacities {
        broker.set_capacity(link, forward, bps);
    }
    // Half the access link: the water level (≈ 140 k per weight unit)
    // stays below every flow's ⌈headroom / weight⌉ (≥ 262 k), so no flow is
    // cap-limited and the access link freezes all of them in one round.
    broker.set_capacity(access.0, access.1, 550_000_000);
    for flow in &flows {
        broker.register(flow.clone());
    }
    let hops: u64 = flows.iter().map(|f| f.hops.len() as u64).sum();

    // A re-pin of an identical spec: one full recompute over all flows.
    let visits = hop_visits_in(|| broker.register(flows[0].clone()));
    let level = match broker.bottleneck(0) {
        Some(Bottleneck::Link { link, level }) if link == access => level,
        other => panic!("session 0 should freeze on the access link, got {other:?}"),
    };
    for flow in &flows {
        assert_eq!(
            broker.bottleneck(flow.session),
            Some(Bottleneck::Link {
                link: access,
                level
            }),
            "one round froze every flow"
        );
    }
    assert_eq!(visits, hops, "one walk over the registered hops");

    // The unsqueezed access link leaves some weight-4 flows cap-limited:
    // they freeze first, and only their hops are walked a second time.
    broker.set_capacity(access.0, access.1, 1_100_000_000);
    let visits = hop_visits_in(|| broker.rebalance());
    let capped: u64 = flows
        .iter()
        .filter(|f| broker.bottleneck(f.session) == Some(Bottleneck::Cap))
        .map(|f| f.hops.len() as u64)
        .sum();
    assert!(capped > 0, "a cap-limited round ran before the last one");
    assert!(
        flows.iter().any(|f| matches!(
            broker.bottleneck(f.session),
            Some(Bottleneck::Link { link, .. }) if link == access
        )),
        "the last round froze the access link's crossers"
    );
    assert_eq!(visits, hops + capped);
}
