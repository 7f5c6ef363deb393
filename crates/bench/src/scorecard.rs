//! What the deterministic scorecard bins (X12–X20) share: the run
//! digest, the strict 12 fps mesh and its world/request builders, the
//! worker-invariance sweep, and the rank statistics.
//!
//! Every byte a checked-in `BENCH_*.json` digest covers is decided
//! here, so a change to this module is a change to those files.

use qosc_core::{CompositionRequest, SessionRequest, SessionsReport};
use qosc_media::{Axis, FormatRegistry};
use qosc_netsim::Network;
use qosc_pipeline::ChaosWorld;
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{DiscoveryConfig, ServiceRegistry};
use qosc_workload::arrivals::SessionArrival;
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use qosc_workload::Scenario;

/// Worker counts a scorecard cell is re-run at; the digests must agree.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Topology seed of the strict mesh.
pub const STRICT_TOPOLOGY_SEED: u64 = 5;

/// FNV-1a over a sequence of rendered values, each closed by a `0x1e`
/// record separator — the digest two paths, two worker counts or two
/// commits must agree on byte for byte.
#[derive(Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// The empty digest (the FNV-1a offset basis).
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `text` and a record separator in.
    pub fn update(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(0x1e)) {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn fold_outcomes_and_counters(digest: &mut Digest, report: &SessionsReport) {
    for outcome in &report.outcomes {
        digest.update(&format!("{outcome:?}"));
    }
    digest.update(&format!("{:?}", report.counters));
}

/// Digest of a session run: every outcome, the lifecycle counters and
/// the virtual end time (X17–X19; these runs have no admission queue).
pub fn sessions_digest(report: &SessionsReport) -> u64 {
    let mut digest = Digest::new();
    fold_outcomes_and_counters(&mut digest, report);
    digest.update(&format!("end={}", report.end_us));
    digest.finish()
}

/// [`sessions_digest`] with the admission aggregates folded in before
/// the end time (X16, whose sessions open through the admission queue).
pub fn sessions_digest_with_admission(report: &SessionsReport) -> u64 {
    let mut digest = Digest::new();
    fold_outcomes_and_counters(&mut digest, report);
    digest.update(&format!("{:?}", report.admission));
    digest.update(&format!("end={}", report.end_us));
    digest.finish()
}

/// Generator settings of the strict mesh.
pub fn strict_generator_config() -> GeneratorConfig {
    GeneratorConfig {
        services_per_layer: 5,
        multi_axis: true,
        ..GeneratorConfig::default()
    }
}

/// The generated mesh with a *strict* user on top: a 12 fps quality
/// floor (weight 3) beside the resolution preference (weight 1).
/// Bandwidth squeezes push delivered frame rates below the floor, so
/// degradation visibly rescores what it serves.
pub fn strict_scenario() -> Scenario {
    let mut scenario = random_scenario(&strict_generator_config(), STRICT_TOPOLOGY_SEED);
    scenario.profiles.user.satisfaction = SatisfactionProfile::new()
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
    scenario
}

/// The `"scenario"` line every strict-mesh scorecard file carries.
pub fn strict_scenario_json() -> String {
    let config = strict_generator_config();
    format!(
        "  \"scenario\": {{\"topology_seed\": {STRICT_TOPOLOGY_SEED}, \"layers\": {}, \"services_per_layer\": {}, \"formats_per_layer\": {}, \"multi_axis\": true, \"fps_floor\": 12.0}},\n",
        config.layers, config.services_per_layer, config.formats_per_layer
    )
}

/// A chaos world over `network` whose fleet is `services`' live
/// advertisements, joined in registration order (so member index =
/// position in `live_services()`).
pub fn chaos_world<'a>(
    formats: &'a FormatRegistry,
    services: &ServiceRegistry,
    network: Network,
) -> ChaosWorld<'a> {
    let mut world = ChaosWorld::new(formats, network, DiscoveryConfig::default());
    for (_, descriptor) in services.live_services() {
        world.join(descriptor.clone());
    }
    world
}

/// One session request per arrival, each asking for `scenario`'s own
/// composition.
pub fn session_requests(scenario: &Scenario, arrivals: Vec<SessionArrival>) -> Vec<SessionRequest> {
    arrivals
        .into_iter()
        .map(|sa| SessionRequest {
            request: CompositionRequest {
                profiles: scenario.profiles.clone(),
                sender_host: scenario.sender_host,
                receiver_host: scenario.receiver_host,
            },
            arrival: sa.meta,
            hold_us: sa.hold_us,
            demand_bps: sa.demand_bps,
        })
        .collect()
}

/// Run `run` once per worker count; every run's digest must equal the
/// first's. Returns the first run.
///
/// # Panics
///
/// When a later worker count's digest differs, or `workers` is empty.
pub fn worker_sweep<T>(
    cell: &str,
    workers: &[usize],
    mut run: impl FnMut(usize) -> (u64, T),
) -> (u64, T) {
    let mut reference: Option<(u64, T)> = None;
    for &count in workers {
        let (digest, value) = run(count);
        match &reference {
            None => reference = Some((digest, value)),
            Some((expected, _)) => assert_eq!(
                digest, *expected,
                "{cell}: workers={count} diverged from workers={}",
                workers[0]
            ),
        }
    }
    reference.expect("at least one worker count runs")
}

/// Per-session delivered satisfaction: composed satisfaction per
/// active µs, discounted by the stalled share of playback.
pub fn delivered_ratios(report: &SessionsReport) -> Vec<f64> {
    report
        .outcomes
        .iter()
        .filter_map(|o| {
            let active = o.active_us();
            if active == 0 {
                return None;
            }
            let playing = active.saturating_sub(o.rebuffer_us) as f64 / active as f64;
            Some((o.satisfaction_us / active as f64) * playing)
        })
        .collect()
}

/// 5th percentile by sorted rank — deterministic, no interpolation.
pub fn p5(mut ratios: Vec<f64>) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[(ratios.len() - 1) * 5 / 100]
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending,
/// non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_core::SessionOutcome;

    /// Pins FNV-1a (offset basis, prime, xor-then-multiply) and the
    /// `0x1e` separator: the value is the 64-bit FNV-1a of the bytes
    /// `ab\x1ec\x1e`, computed independently of this module.
    #[test]
    fn digest_golden_value() {
        const GOLDEN: u64 = 0x03ce_f32f_8489_d089;
        let mut digest = Digest::new();
        digest.update("ab");
        digest.update("c");
        assert_eq!(digest.finish(), GOLDEN);

        // The separator is part of the stream: moving a boundary moves
        // the digest.
        let mut shifted = Digest::new();
        shifted.update("a");
        shifted.update("bc");
        assert_ne!(shifted.finish(), GOLDEN);
    }

    fn report() -> SessionsReport {
        SessionsReport {
            outcomes: vec![SessionOutcome::default(); 2],
            counters: Default::default(),
            admission: Default::default(),
            end_us: 7,
        }
    }

    #[test]
    fn one_changed_outcome_field_moves_both_digests() {
        let base = report();
        let mut changed = report();
        changed.outcomes[1].grant_updates = 1;
        assert_ne!(sessions_digest(&base), sessions_digest(&changed));
        assert_ne!(
            sessions_digest_with_admission(&base),
            sessions_digest_with_admission(&changed)
        );
    }

    #[test]
    fn one_changed_admission_field_moves_only_the_x16_digest() {
        let base = report();
        let mut changed = report();
        changed.admission.deadline_misses = 1;
        assert_eq!(sessions_digest(&base), sessions_digest(&changed));
        assert_ne!(
            sessions_digest_with_admission(&base),
            sessions_digest_with_admission(&changed)
        );
    }
}
