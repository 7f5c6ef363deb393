//! Network-substrate throughput: routing, bandwidth queries,
//! reservations and event-queue operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qosc_bench::scorecard;
use qosc_netsim::generators::{fat_tree, random_waxman, LinkTemplate};
use qosc_netsim::{EventQueue, Network, NodeId, SimTime};

fn bench_routing_and_bandwidth(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");
    for &n in &[50usize, 200] {
        let (topo, nodes) = random_waxman(n, 0.4, 0.3, LinkTemplate::default(), 5);
        let network = Network::new(topo);
        let (a, b) = (nodes[0], nodes[n - 1]);
        group.bench_with_input(
            BenchmarkId::new("available_between", n),
            &network,
            |bch, net| bch.iter(|| net.available_between(a, b).expect("connected")),
        );

        let (topo2, nodes2) = random_waxman(n, 0.4, 0.3, LinkTemplate::default(), 5);
        group.bench_with_input(BenchmarkId::new("reserve_release", n), &(), |bch, _| {
            let mut net = Network::new(topo2.clone());
            bch.iter(|| {
                let id = net
                    .reserve_between(nodes2[0], nodes2[n - 1], 100.0)
                    .expect("headroom");
                net.release(id).expect("active");
            })
        });
    }
    group.finish();
}

/// The route queries a session tick makes, on the two session-workload
/// topologies: answered from the memoized shortest-path tree (`warm`),
/// and as the first query after a link failure dropped the trees
/// (`after_fail_link`: one failure, one rebuild, one answer, and the
/// restoration, per iteration).
fn bench_route_queries(c: &mut Criterion) {
    let mesh = scorecard::strict_scenario();
    let (mesh_ends, mesh) = ((mesh.sender_host, mesh.receiver_host), mesh.network);
    let (tree, hosts, _cores) = fat_tree(
        4,
        LinkTemplate::fixed(1.1e9, 500),
        LinkTemplate::fixed(4.4e9, 1_000),
        19,
    );
    let worlds: [(&str, Network, (NodeId, NodeId)); 2] = [
        ("x16_mesh", mesh, mesh_ends),
        ("fat_tree_k4", Network::new(tree), (hosts[0], hosts[15])),
    ];

    let mut group = c.benchmark_group("netsim_routes");
    for (name, mut net, (a, b)) in worlds {
        let route = net.route_between(a, b).expect("connected");
        // A failure off the route: the answer stays, the trees go.
        let spare = net
            .topology()
            .link_ids()
            .find(|link| !route.links.contains(link))
            .expect("a link off the route");

        group.bench_function(BenchmarkId::new("route_between/warm", name), |bch| {
            bch.iter(|| net.route_between(a, b).expect("connected"))
        });
        group.bench_function(BenchmarkId::new("available_between/warm", name), |bch| {
            bch.iter(|| net.available_between(a, b).expect("connected"))
        });
        group.bench_function(BenchmarkId::new("routable/warm", name), |bch| {
            bch.iter(|| net.routable(a, b))
        });
        group.bench_function(BenchmarkId::new("path_annotations_from", name), |bch| {
            bch.iter(|| net.path_annotations_from(a).expect("known node"))
        });

        group.bench_function(
            BenchmarkId::new("route_between/after_fail_link", name),
            |bch| {
                bch.iter(|| {
                    net.fail_link(spare).expect("known link");
                    let route = net.route_between(a, b).expect("connected");
                    net.restore_link(spare);
                    route
                })
            },
        );
        group.bench_function(
            BenchmarkId::new("available_between/after_fail_link", name),
            |bch| {
                bch.iter(|| {
                    net.fail_link(spare).expect("known link");
                    let available = net.available_between(a, b).expect("connected");
                    net.restore_link(spare);
                    available
                })
            },
        );
        group.bench_function(BenchmarkId::new("routable/after_fail_link", name), |bch| {
            bch.iter(|| {
                net.fail_link(spare).expect("known link");
                let routable = net.routable(a, b);
                net.restore_link(spare);
                routable
            })
        });
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("netsim/event_queue_10k", |b| {
        b.iter(|| {
            let mut queue: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                // Scatter times deterministically.
                queue.schedule(SimTime((i * 7919) % 100_000), i);
            }
            let mut drained = 0u64;
            while queue.pop().is_some() {
                drained += 1;
            }
            drained
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_routing_and_bandwidth, bench_route_queries, bench_event_queue
}
criterion_main!(benches);
