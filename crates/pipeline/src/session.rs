//! Event-driven execution of one adaptation plan.
//!
//! The simulation is per-frame: the sender emits frames at the plan's
//! configured frame rate; each frame crosses every stage of the chain,
//! paying a trans-coding delay on the stage's host (proportional to the
//! stage's CPU demand against the host's capacity), then a serialization
//! delay at the reserved session rate plus the route's propagation delay
//! on the hop to the next stage; seeded Bernoulli loss applies per hop.
//! Frames that reach a failed node are dropped. Faults *during* a
//! stream are the serving loop's business
//! ([`ChaosWorld`](crate::ChaosWorld)): this simulation measures what a
//! chain delivers frame by frame — loss, latency, jitter — which the
//! loop's fluid model does not.

use crate::report::SessionReport;
use crate::{PipelineError, Result};
use qosc_core::AdaptationPlan;
use qosc_netsim::{EventQueue, Network, ReservationId, SimTime};
use qosc_satisfaction::SatisfactionProfile;
use qosc_services::ServiceRegistry;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Frame rate for plans without a frame-rate axis (page/image "tick"
/// rate).
const FALLBACK_FPS: f64 = 10.0;

/// Configuration of one streaming session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// How long the sender emits frames.
    pub duration: SimTime,
    /// RNG seed for loss and processing-noise draws.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            duration: SimTime::from_secs(10),
            seed: 0,
        }
    }
}

#[derive(Debug)]
enum Event {
    Emit { frame: u64 },
    Arrive { frame: u64, stage: usize },
}

struct Hop {
    rate_bps: f64,
    prop_delay_us: u64,
    loss: f64,
    to: qosc_netsim::NodeId,
}

/// Run one session of `plan` over `network`.
///
/// Bandwidth is reserved per hop for the lifetime of the session
/// (released before returning); admission failure is an error. The
/// service registry provides per-stage CPU demand for trans-coding
/// delay.
pub fn run_session(
    network: &mut Network,
    services: &ServiceRegistry,
    plan: &AdaptationPlan,
    profile: &SatisfactionProfile,
    config: &SessionConfig,
) -> Result<SessionReport> {
    if plan.steps.len() < 2 {
        return Err(PipelineError::DegeneratePlan);
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Frame rate and per-stage frame sizes.
    let last = plan.steps.last().expect("≥2 steps");
    let fps = last
        .params
        .get(qosc_media::Axis::FrameRate)
        .filter(|f| *f > 0.0)
        .unwrap_or(FALLBACK_FPS);
    let frame_interval_us = (1e6 / fps).round() as u64;

    // Hops between consecutive stages; reserve the session rate.
    let mut hops: Vec<Hop> = Vec::with_capacity(plan.steps.len() - 1);
    let mut reservations: Vec<ReservationId> = Vec::new();
    for pair in plan.steps.windows(2) {
        let (from, to) = (&pair[0], &pair[1]);
        // The hop carries what the *downstream* stage is configured to
        // consume (Equa. 2: the edge into a service is constrained by the
        // service's own chosen parameters).
        let rate = to.input_bps.max(1.0);
        let route = network.route_between(from.host, to.host)?;
        let mut loss = 0.0f64;
        let mut survive = 1.0f64;
        for &link in &route.links {
            let spec = network.topology().link(link)?;
            survive *= 1.0 - spec.loss;
        }
        loss += 1.0 - survive;
        match network.reserve_between(from.host, to.host, rate) {
            Ok(id) => reservations.push(id),
            Err(e) => {
                for id in reservations {
                    let _ = network.release(id);
                }
                return Err(PipelineError::AdmissionRejected(e.to_string()));
            }
        }
        hops.push(Hop {
            rate_bps: rate,
            prop_delay_us: route.delay_us,
            loss,
            to: to.host,
        });
    }

    // Per-stage processing throughput (bits/s the host can trans-code).
    // `None` means effectively instantaneous (endpoints, or unconstrained
    // hosts).
    let mut stage_throughput: Vec<Option<f64>> = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let throughput = step.service.and_then(|id| {
            let descriptor = services.get(id).ok()?;
            let host_mips = network.topology().node(step.host).ok()?.cpu_mips;
            if !host_mips.is_finite() || descriptor.cpu_mips_per_mbps <= 0.0 {
                return None;
            }
            Some(host_mips / descriptor.cpu_mips_per_mbps * 1e6)
        });
        stage_throughput.push(throughput);
    }

    // Event loop.
    let mut queue: EventQueue<Event> = EventQueue::new();
    queue.schedule(SimTime::ZERO, Event::Emit { frame: 0 });

    let frames_total = ((config.duration.as_secs_f64()) * fps).floor() as u64;
    let mut emit_time: Vec<u64> = Vec::new();
    let mut arrivals: Vec<u64> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut report = SessionReport::default();

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::Emit { frame } => {
                if frame >= frames_total {
                    continue;
                }
                report.frames_sent += 1;
                emit_time.push(now.as_micros());
                queue.schedule(now, Event::Arrive { frame, stage: 0 });
                queue.schedule(
                    now.plus_micros(frame_interval_us),
                    Event::Emit { frame: frame + 1 },
                );
            }
            Event::Arrive { frame, stage } => {
                let step = &plan.steps[stage];
                if network.node_failed(step.host) {
                    continue; // frame dies on the failed stage
                }
                if stage + 1 == plan.steps.len() {
                    // Delivered.
                    arrivals.push(now.as_micros());
                    latencies.push(now.as_micros() - emit_time[frame as usize]);
                    report.frames_delivered += 1;
                    continue;
                }
                let hop = &hops[stage];
                if network.node_failed(hop.to) {
                    continue;
                }
                // Trans-coding delay (with up to 10% seeded noise).
                let frame_bits = hop.rate_bps / fps;
                let processing_us = match stage_throughput[stage] {
                    Some(throughput) => {
                        let base = frame_bits / throughput * 1e6;
                        (base * (1.0 + rng.random_range(0.0..0.1))) as u64
                    }
                    None => 0,
                };
                // Loss on the hop.
                if hop.loss > 0.0 && rng.random_range(0.0..1.0) < hop.loss {
                    continue;
                }
                let serialization_us = (frame_bits / hop.rate_bps * 1e6) as u64;
                let arrival = now
                    .plus_micros(processing_us)
                    .plus_micros(serialization_us)
                    .plus_micros(hop.prop_delay_us);
                queue.schedule(
                    arrival,
                    Event::Arrive {
                        frame,
                        stage: stage + 1,
                    },
                );
            }
        }
    }

    for id in reservations {
        let _ = network.release(id);
    }

    report.duration_secs = config.duration.as_secs_f64();
    report.finalize(profile, last.params, &arrivals, &latencies);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_core::SelectOptions;
    use qosc_workload::paper;

    fn figure6_session(config: &SessionConfig) -> (SessionReport, f64) {
        let mut scenario = paper::figure6_scenario(true);
        let composition = scenario.compose(&SelectOptions::default()).unwrap();
        let plan = composition.plan.unwrap();
        let predicted = plan.predicted_satisfaction;
        let profile = scenario.profiles.effective_satisfaction();
        let report = run_session(
            &mut scenario.network,
            &scenario.services,
            &plan,
            &profile,
            config,
        )
        .unwrap();
        (report, predicted)
    }

    #[test]
    fn clean_session_delivers_predicted_quality() {
        let (report, predicted) = figure6_session(&SessionConfig::default());
        assert!(report.frames_sent >= 199, "10 s at 20 fps");
        assert_eq!(report.frames_lost, 0);
        assert!(
            (report.measured_satisfaction - predicted).abs() < 0.02,
            "measured {} vs predicted {predicted}",
            report.measured_satisfaction
        );
        assert!(report.mean_latency_us > 0.0);
    }

    #[test]
    fn degenerate_plan_rejected() {
        let mut scenario = paper::figure6_scenario(true);
        let profile = scenario.profiles.effective_satisfaction();
        let plan = AdaptationPlan {
            steps: vec![],
            predicted_satisfaction: 0.0,
            total_cost: 0.0,
        };
        let services = qosc_services::ServiceRegistry::new();
        assert!(matches!(
            run_session(
                &mut scenario.network,
                &services,
                &plan,
                &profile,
                &SessionConfig::default()
            ),
            Err(PipelineError::DegeneratePlan)
        ));
    }

    #[test]
    fn sessions_are_deterministic() {
        let (a, _) = figure6_session(&SessionConfig::default());
        let (b, _) = figure6_session(&SessionConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn constrained_cpu_adds_transcoding_latency() {
        use qosc_core::{Composer, SelectOptions};
        use qosc_netsim::Topology;
        use qosc_profiles::{
            ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
        };
        use qosc_services::{catalog, TranscoderDescriptor};

        let run_with_cpu = |cpu_mips: f64| -> f64 {
            let formats = qosc_media::FormatRegistry::with_builtins();
            let mut topo = Topology::new();
            let server = topo.add_node(qosc_netsim::Node::unconstrained("server"));
            let proxy = topo.add_node(qosc_netsim::Node::new("proxy", cpu_mips, 8e9));
            let client = topo.add_node(qosc_netsim::Node::unconstrained("client"));
            topo.connect_simple(server, proxy, 100e6).unwrap();
            topo.connect_simple(proxy, client, 1e6).unwrap();
            let mut network = qosc_netsim::Network::new(topo);
            let mut services = qosc_services::ServiceRegistry::new();
            for spec in catalog::full_catalog() {
                services.register_static(
                    TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap(),
                );
            }
            let profiles = ProfileSet {
                user: UserProfile::demo("cpu-test"),
                content: ContentProfile::demo_video("clip"),
                device: DeviceProfile::demo_pda(),
                context: ContextProfile::default(),
                network: NetworkProfile::broadband(),
            };
            let composer = Composer {
                formats: &formats,
                services: &services,
                network: &network,
            };
            let plan = composer
                .compose(&profiles, server, client, &SelectOptions::default())
                .unwrap()
                .plan
                .expect("solvable");
            let profile = profiles.effective_satisfaction();
            run_session(
                &mut network,
                &services,
                &plan,
                &profile,
                &SessionConfig::default(),
            )
            .unwrap()
            .mean_latency_us
        };

        let weak = run_with_cpu(40.0);
        let strong = run_with_cpu(100_000.0);
        assert!(
            weak > strong * 1.2,
            "a starved proxy CPU should add visible trans-coding latency: weak {weak} µs vs strong {strong} µs"
        );
    }

    #[test]
    fn reservations_are_released() {
        let mut scenario = paper::figure6_scenario(true);
        let composition = scenario.compose(&SelectOptions::default()).unwrap();
        let plan = composition.plan.unwrap();
        let profile = scenario.profiles.effective_satisfaction();
        run_session(
            &mut scenario.network,
            &scenario.services,
            &plan,
            &profile,
            &SessionConfig::default(),
        )
        .unwrap();
        assert_eq!(scenario.network.active_reservations(), 0);
    }
}
