//! Test-only exactness oracle for [`ComposeMemo`]: after every write a
//! session world can make — lease renewals and expiries, fresh
//! registrations, quarantines and releases, probations and their
//! clearing, node crashes and restorations, link squeezes — the memo's
//! answer for every request at every rung must be, bit for bit, what a
//! fresh [`Composer::compose`] returns. A white-box test forges an entry
//! under another request's key to show the `==` confirmation is load
//! bearing.

use super::{
    degrade_profiles, ComposeMemo, Composed, CompositionRequest, DegradationRung, MemoEntry,
};
use crate::composer::Composer;
use crate::plan::AdaptationPlan;
use crate::select::{SelectFailure, SelectOptions};
use crate::Result;
use proptest::prelude::*;
use qosc_media::{
    Axis, AxisDomain, BitrateModel, DomainVector, FormatRegistry, FormatSpec, MediaKind,
    VariantSpec,
};
use qosc_netsim::{LinkId, Network, Node, NodeId, SimTime, Topology};
use qosc_profiles::{
    ContentProfile, ContextProfile, ConversionSpec, DeviceProfile, HardwareCaps, NetworkProfile,
    PriceModel, ProfileSet, ServiceSpec, UserProfile,
};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{
    ProbationConfig, QuarantineConfig, ServiceId, ServiceRegistry, TranscoderDescriptor,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Two proxies behind a hub, each able to transcode A → B on its own,
/// an A → C → B chain across both, and a cheap low-rate A → B on the
/// hub. Links carry a few dozen frames per second, so squeezes move
/// rates; leases are short, so the clock kills services.
struct Mesh {
    formats: FormatRegistry,
    services: ServiceRegistry,
    network: Network,
    /// What `register` can bring (back) into the registry.
    specs: Vec<(ServiceSpec, NodeId)>,
    /// Every id registered so far, dead or alive.
    ids: Vec<ServiceId>,
    /// Nodes that may crash: the hub and both proxies.
    relays: [NodeId; 3],
    links: Vec<LinkId>,
    requests: [CompositionRequest; 2],
    now: u64,
}

fn fps_domain(max: f64) -> DomainVector {
    DomainVector::new()
        .with(Axis::FrameRate, AxisDomain::Continuous { min: 0.0, max })
        .with(
            Axis::PixelCount,
            AxisDomain::Discrete(vec![76_800.0, 307_200.0]),
        )
}

fn spec(name: &str, input: &str, output: &str, max_fps: f64, price: f64) -> ServiceSpec {
    ServiceSpec::new(
        name,
        vec![ConversionSpec::new(input, output, fps_domain(max_fps))],
    )
    .with_price(PriceModel::flat(price))
}

fn request(user: UserProfile, server: NodeId, client: NodeId) -> CompositionRequest {
    CompositionRequest {
        profiles: ProfileSet {
            user,
            content: ContentProfile::new(
                "clip",
                vec![VariantSpec {
                    format: "A".to_string(),
                    offered: fps_domain(30.0),
                }],
            ),
            device: DeviceProfile::new("dev", vec!["B".to_string()], HardwareCaps::desktop()),
            context: ContextProfile::default(),
            network: NetworkProfile::lan(),
        },
        sender_host: server,
        receiver_host: client,
    }
}

impl Mesh {
    fn new(rng: &mut SmallRng) -> Mesh {
        let mut formats = FormatRegistry::new();
        let linear = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        for name in ["A", "B", "C"] {
            formats.register(FormatSpec::new(name, MediaKind::Video, linear));
        }
        let mut topo = Topology::new();
        let [server, hub, p1, p2, client] = ["server", "hub", "p1", "p2", "client"]
            .map(|name| topo.add_node(Node::unconstrained(name)));
        let links = [
            (server, hub, 200_000.0),
            (hub, p1, 40_000.0),
            (hub, p2, 30_000.0),
            (p1, client, 25_000.0),
            (p2, client, 20_000.0),
            (hub, client, 15_000.0),
        ]
        .iter()
        .map(|&(a, b, bps)| topo.connect_simple(a, b, bps).expect("valid link"))
        .collect();
        let specs = vec![
            (spec("T1", "A", "B", 30.0, 1.0), p1),
            (spec("T2", "A", "B", 30.0, 0.5), p2),
            (spec("T3", "A", "C", 30.0, 0.2), p1),
            (spec("T4", "C", "B", 30.0, 0.2), p2),
            (spec("T5", "A", "B", 20.0, 0.1), hub),
        ];
        let mut services = ServiceRegistry::new();
        services.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 50_000,
        });
        services.set_probation_config(ProbationConfig {
            probe_successes: 2,
            ..ProbationConfig::default()
        });
        let ids = specs
            .iter()
            .map(|(spec, host)| {
                let descriptor =
                    TranscoderDescriptor::resolve(spec, &formats, *host).expect("resolves");
                services.register(descriptor, SimTime::ZERO, rng.random_range(50_000..500_000))
            })
            .collect();
        // A strict viewer (a 12 fps floor, so every rung scores
        // differently) on a budget, and a lenient one without.
        let strict = SatisfactionProfile::new()
            .with(AxisPreference::weighted(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 12.0,
                    ideal: 30.0,
                },
                3.0,
            ))
            .with(AxisPreference::weighted(
                Axis::PixelCount,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 307_200.0,
                },
                1.0,
            ));
        let lenient = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 25.0,
            },
        ));
        let requests = [
            request(
                UserProfile::new("strict", strict).with_budget(1.2),
                server,
                client,
            ),
            request(UserProfile::new("lenient", lenient), server, client),
        ];
        Mesh {
            formats,
            services,
            network: Network::new(topo),
            specs,
            ids,
            relays: [hub, p1, p2],
            links,
            requests,
            now: 0,
        }
    }

    fn composer(&self) -> Composer<'_> {
        Composer {
            formats: &self.formats,
            services: &self.services,
            network: &self.network,
        }
    }

    fn any_service(&self, rng: &mut SmallRng) -> ServiceId {
        self.ids[rng.random_range(0..self.ids.len())]
    }

    /// One random world write (or none: a pure re-query). Outcomes of
    /// the registry calls do not matter — a no-op is a valid step.
    fn step(&mut self, rng: &mut SmallRng) {
        self.now += rng.random_range(1..40_000u64);
        let now = SimTime(self.now);
        match rng.random_range(0..12u32) {
            0 => {}
            1 => {
                let id = self.any_service(rng);
                let _ = self
                    .services
                    .renew(id, now, rng.random_range(50_000..500_000));
            }
            2 => {
                self.services.expire_leases(now);
            }
            3 => {
                let (spec, host) = &self.specs[rng.random_range(0..self.specs.len())];
                let descriptor =
                    TranscoderDescriptor::resolve(spec, &self.formats, *host).expect("resolves");
                let id = self
                    .services
                    .register(descriptor, now, rng.random_range(50_000..500_000));
                self.ids.push(id);
            }
            4 => {
                let id = self.any_service(rng);
                let _ = self.services.report_failure(id, now);
            }
            5 => {
                self.services.release_quarantines(now);
            }
            6 => {
                let id = self.any_service(rng);
                self.services
                    .probate(id, rng.random_range(0..1_000_000), now);
            }
            7 => {
                let id = self.any_service(rng);
                self.services.probe_success(id, now);
            }
            8 => {
                let node = self.relays[rng.random_range(0..self.relays.len())];
                self.network.fail_node(node).expect("known node");
            }
            9 => {
                let node = self.relays[rng.random_range(0..self.relays.len())];
                self.network.restore_node(node);
            }
            10 => {
                let link = self.links[rng.random_range(0..self.links.len())];
                let utilization = [0.3, 0.6, 0.9][rng.random_range(0..3usize)];
                self.network
                    .background_mut()
                    .set_utilization(link, utilization);
            }
            _ => {
                let link = self.links[rng.random_range(0..self.links.len())];
                self.network.background_mut().set_utilization(link, 0.0);
            }
        }
    }
}

/// A composition reduced to exactly comparable values: every float of
/// the plan by bit pattern, everything else by value; errors by text.
type Answer = std::result::Result<(Option<Vec<String>>, Option<SelectFailure>), String>;

fn plan_bits(plan: &AdaptationPlan) -> Vec<String> {
    let mut out = vec![format!(
        "plan {:x} {:x}",
        plan.predicted_satisfaction.to_bits(),
        plan.total_cost.to_bits()
    )];
    for step in &plan.steps {
        let params: Vec<(Axis, u64)> = step
            .params
            .iter()
            .map(|(axis, v)| (axis, v.to_bits()))
            .collect();
        out.push(format!(
            "{} {:?} {:?} {:?} {:?} out {:x} in {:x} sat {:x} cost {:x}",
            step.name,
            step.service,
            step.host,
            step.output_format,
            params,
            step.output_bps.to_bits(),
            step.input_bps.to_bits(),
            step.satisfaction.to_bits(),
            step.accumulated_cost.to_bits()
        ));
    }
    out
}

fn answer(composed: Result<Composed>) -> Answer {
    composed
        .map(|c| (c.plan.as_ref().map(plan_bits), c.failure))
        .map_err(|e| e.to_string())
}

/// The reference: a fresh compose, graph built from scratch.
fn fresh(composer: &Composer<'_>, request: &CompositionRequest, rung: DegradationRung) -> Answer {
    answer(
        composer
            .compose(
                &degrade_profiles(&request.profiles, rung),
                request.sender_host,
                request.receiver_host,
                &SelectOptions::default(),
            )
            .map(|c| Composed {
                plan: c.plan,
                failure: c.selection.failure,
            }),
    )
}

/// What one driven sequence exercised — each count is a way a wrong
/// key could surface, so each must be reachable for the oracle to bite.
#[derive(Debug, Default)]
struct Coverage {
    /// Queries the memo answered from a stored entry.
    hits: u64,
    /// Answers that changed while only the network version moved.
    network_moves: u64,
    /// Answers that changed while only the registry epoch moved.
    registry_moves: u64,
    /// Steps where two rungs of one request answered differently.
    rung_splits: u64,
}

/// Drive `steps` random writes from `seed`; after each, query every
/// request at every rung (in a random order, twice) through one memo and
/// hold each answer to a fresh compose.
fn drive(seed: u64, steps: usize) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mesh = Mesh::new(&mut rng);
    let memo = ComposeMemo::new(&SelectOptions::default());
    let mut coverage = Coverage::default();
    let mut last: HashMap<(usize, DegradationRung), ((u64, u64), Answer)> = HashMap::new();
    for step in 0..steps {
        if step > 0 {
            mesh.step(&mut rng);
        }
        let composer = mesh.composer();
        let stamp = (mesh.services.epoch(), mesh.network.version());
        for (index, request) in mesh.requests.iter().enumerate() {
            let key = ComposeMemo::key(request);
            let mut rungs = DegradationRung::LADDER;
            for i in (1..rungs.len()).rev() {
                rungs.swap(i, rng.random_range(0..=i));
            }
            let mut by_rung = HashMap::new();
            for rung in rungs {
                let stored = memo.entries.read().get(&(key, rung)).map(|e| e.stamp) == Some(stamp);
                coverage.hits += u64::from(stored);
                let got = answer(memo.compose(&composer, request, key, rung));
                let again = answer(memo.compose(&composer, request, key, rung));
                let want = fresh(&composer, request, rung);
                let context = format!("seed {seed} step {step} request {index} rung {rung}");
                assert_eq!(got, want, "{context}: memo vs fresh compose");
                assert_eq!(again, want, "{context}: memo (repeated) vs fresh compose");
                if let Some((before, previous)) = last.insert((index, rung), (stamp, want.clone()))
                {
                    if previous != want {
                        coverage.network_moves +=
                            u64::from(before.0 == stamp.0 && before.1 != stamp.1);
                        coverage.registry_moves +=
                            u64::from(before.0 != stamp.0 && before.1 == stamp.1);
                    }
                }
                by_rung.insert(rung, want);
            }
            coverage.rung_splits += u64::from(
                by_rung[&DegradationRung::Full] != by_rung[&DegradationRung::RelaxedFloor],
            );
        }
    }
    coverage
}

/// Writes per driven sequence.
const STEPS: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every answer the memo gives equals a fresh compose against the
    /// same world, bit for bit, across random write sequences.
    #[test]
    fn memo_answers_equal_fresh_composes(seed in 0u64..1 << 48) {
        drive(seed, STEPS);
    }
}

/// The generated sequences reach every case a wrong key would get
/// wrong: a stale network version, a stale registry epoch, another
/// rung's answer — and they hit, so the stored path is what is checked.
#[test]
fn driven_sequences_cover_every_stamp_half_and_rung() {
    let mut total = Coverage::default();
    for seed in 0..32 {
        let c = drive(seed, STEPS);
        total.hits += c.hits;
        total.network_moves += c.network_moves;
        total.registry_moves += c.registry_moves;
        total.rung_splits += c.rung_splits;
    }
    println!("{total:?}");
    assert!(total.hits > 0, "{total:?}");
    assert!(total.network_moves > 0, "{total:?}");
    assert!(total.registry_moves > 0, "{total:?}");
    assert!(total.rung_splits > 0, "{total:?}");
}

/// The map key is only a hash: an entry forged under another request's
/// key — right rung, current stamp — must not be returned for it.
#[test]
fn a_forged_entry_under_another_requests_key_is_never_returned() {
    let mesh = Mesh::new(&mut SmallRng::seed_from_u64(7));
    let composer = mesh.composer();
    let [strict, lenient] = &mesh.requests;
    let rung = DegradationRung::Full;
    let memo = ComposeMemo::new(&SelectOptions::default());
    let (strict_key, lenient_key) = (ComposeMemo::key(strict), ComposeMemo::key(lenient));
    assert_ne!(strict_key, lenient_key);
    let strict_answer = answer(memo.compose(&composer, strict, strict_key, rung));
    let lenient_answer = fresh(&composer, lenient, rung);
    assert_ne!(
        strict_answer, lenient_answer,
        "the two requests compose differently"
    );

    let forged = {
        let entries = memo.entries.read();
        let entry = &entries[&(strict_key, rung)];
        MemoEntry {
            request: entry.request.clone(),
            stamp: entry.stamp,
            composed: entry.composed.clone(),
        }
    };
    memo.entries.write().insert((lenient_key, rung), forged);
    assert_eq!(
        answer(memo.compose(&composer, lenient, lenient_key, rung)),
        lenient_answer
    );
    assert!(
        memo.entries.read()[&(lenient_key, rung)].request == *lenient,
        "the fresh answer replaced the forgery"
    );
}

/// Errors are not stored: every attempt recomposes, so the retry loop
/// sees what it would see without the memo.
#[test]
fn only_successful_compositions_are_stored() {
    let mesh = Mesh::new(&mut SmallRng::seed_from_u64(3));
    let composer = mesh.composer();
    let mut undecodable = mesh.requests[0].clone();
    undecodable.profiles.device.decoders = vec!["no-such-format".to_string()];
    let memo = ComposeMemo::new(&SelectOptions::default());
    let key = ComposeMemo::key(&undecodable);
    for _ in 0..2 {
        assert!(memo
            .compose(&composer, &undecodable, key, DegradationRung::Full)
            .is_err());
    }
    assert!(memo.entries.read().is_empty());
}
