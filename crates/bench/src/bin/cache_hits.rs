//! X9 — composition caching at a proxy front-end (motivated by the
//! paper's reference \[7\], Chang & Chen's trans-coding proxy caches):
//! replay a skewed request stream with and without the
//! [`ShardedCompositionCache`], under light service churn so cached
//! chains occasionally go stale.
//!
//! ```text
//! cargo run -p qosc-bench --release --bin cache_hits
//! ```

use qosc_bench::TextTable;
use qosc_core::{Composer, SelectOptions, ShardedCompositionCache};
use qosc_media::FormatRegistry;
use qosc_netsim::{Network, Node, SimTime, Topology};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, HardwareCaps, NetworkProfile, ProfileSet,
    UserProfile,
};
use qosc_services::{catalog, ServiceRegistry, TranscoderDescriptor};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const REQUESTS: usize = 400;
const LEASE_TTL_SECS: u64 = 20;

fn main() {
    println!("X9 — composition caching under a skewed request stream with churn");
    println!();

    let mut table = TextTable::new([
        "churn/request",
        "hit rate",
        "stale",
        "uncached (ms total)",
        "cached (ms total)",
        "speedup",
    ]);
    for &churn in &[0.0f64, 0.01, 0.05] {
        let (uncached_ms, _, _) = replay(churn, false);
        let (cached_ms, hit_rate, stale) = replay(churn, true);
        table.row([
            format!("{:.0}%", churn * 100.0),
            format!("{:.1}%", hit_rate * 100.0),
            stale.to_string(),
            format!("{uncached_ms:.1}"),
            format!("{cached_ms:.1}"),
            format!("{:.1}×", uncached_ms / cached_ms.max(0.001)),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Expected shape: the request mix is dominated by a few popular \
         (content, device) classes, so the cache answers most requests \
         after one cold composition each; churn converts some hits into \
         revalidation failures (stale → recompose) but never serves a \
         chain through a dead service — staleness is checked against the \
         live registry and network on every hit."
    );
}

/// Eight request classes with a skewed popularity (class 0 is ~40 % of
/// traffic).
fn request_class(i: usize) -> ProfileSet {
    let devices = [
        DeviceProfile::demo_pda(),
        DeviceProfile::new(
            "desktop",
            vec!["video/mpeg1".to_string(), "video/h263".to_string()],
            HardwareCaps::desktop(),
        ),
    ];
    let users = ["alice", "bob", "carol", "dave"];
    ProfileSet {
        user: UserProfile::demo(users[i % users.len()]),
        content: ContentProfile::demo_video(if i < 4 {
            "headline-video"
        } else {
            "archive-clip"
        }),
        device: devices[i % devices.len()].clone(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    }
}

fn replay(churn_per_request: f64, use_cache: bool) -> (f64, f64, usize) {
    let formats = FormatRegistry::with_builtins();
    let mut topo = Topology::new();
    let server = topo.add_node(Node::unconstrained("server"));
    let proxy_a = topo.add_node(Node::unconstrained("proxy-a"));
    let proxy_b = topo.add_node(Node::unconstrained("proxy-b"));
    let client = topo.add_node(Node::unconstrained("client"));
    for &p in &[proxy_a, proxy_b] {
        topo.connect_simple(server, p, 100e6).unwrap();
        topo.connect_simple(p, client, 2e6).unwrap();
    }
    let network = Network::new(topo);

    let mut services = ServiceRegistry::new();
    let specs = catalog::full_catalog();
    let mut instance_of: Vec<(usize, qosc_netsim::NodeId)> = Vec::new();
    for &p in &[proxy_a, proxy_b] {
        for (si, spec) in specs.iter().enumerate() {
            services.register(
                TranscoderDescriptor::resolve(spec, &formats, p).unwrap(),
                SimTime::ZERO,
                LEASE_TTL_SECS * 1_000_000,
            );
            instance_of.push((si, p));
        }
    }

    let mut rng = SmallRng::seed_from_u64(99);
    let options = SelectOptions {
        record_trace: false,
        ..SelectOptions::default()
    };
    let cache = ShardedCompositionCache::new(1);
    let start = Instant::now();
    for request in 0..REQUESTS {
        let now = SimTime::from_secs(request as u64);
        // Churn: a random live service misses its renewal…
        let live: Vec<_> = services.live_services().map(|(id, _)| id).collect();
        for id in live {
            if churn_per_request > 0.0 && rng.random_range(0.0..1.0) < churn_per_request {
                let _ = services.renew(id, SimTime::ZERO, 1);
            } else {
                let _ = services.renew(id, now, LEASE_TTL_SECS * 1_000_000);
            }
        }
        let expired = services.expire_leases(now);
        // …and immediately re-registers (fresh proxy process).
        for _ in expired {
            let (si, p) = instance_of[rng.random_range(0..instance_of.len())];
            services.register(
                TranscoderDescriptor::resolve(&specs[si], &formats, p).unwrap(),
                now,
                LEASE_TTL_SECS * 1_000_000,
            );
        }

        // Skewed class choice: 40 % class 0, rest uniform.
        let class = if rng.random_range(0.0..1.0) < 0.4 {
            0
        } else {
            rng.random_range(1..8)
        };
        let profiles = request_class(class);
        let composer = Composer {
            formats: &formats,
            services: &services,
            network: &network,
        };
        let plan = if use_cache {
            cache
                .compose(&composer, &profiles, server, client, &options)
                .expect("composition runs")
        } else {
            composer
                .compose(&profiles, server, client, &options)
                .expect("composition runs")
                .plan
        };
        assert!(
            plan.is_some(),
            "redundant proxies keep every class solvable"
        );
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = cache.stats();
    (elapsed_ms, stats.hit_rate(), stats.stale)
}
