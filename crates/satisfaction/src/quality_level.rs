//! Mapping a single user-level quality knob to parameter values —
//! the paper's reference \[28\] (Richards et al., *"Mapping user level QoS
//! from a single parameter"*).
//!
//! End users don't think in frame rates and sample depths; they think
//! "good quality" or "battery saver". Richards et al. collapse the
//! per-parameter satisfaction functions into one dial: a target
//! satisfaction level `q ∈ [0, 1]` maps to the cheapest parameter vector
//! whose *every* axis reaches satisfaction `q` (so the combined harmonic
//! satisfaction is ≥ `q` as well). The inverse direction — what level a
//! given configuration achieves — is the minimum per-axis satisfaction.

use crate::profile::SatisfactionProfile;
use qosc_media::ParamVector;

/// Map a quality level `q ∈ [0, 1]` to the cheapest configuration whose
/// every preferred axis reaches satisfaction `q`.
///
/// Returns `None` if some axis cannot reach `q` at all (e.g. a piecewise
/// function topping out below it) — the user's dial is turned past what
/// the content/preferences support.
pub fn params_for_level(profile: &SatisfactionProfile, q: f64) -> Option<ParamVector> {
    let q = q.clamp(0.0, 1.0);
    let mut params = ParamVector::new();
    for pref in profile.preferences() {
        let value = pref.function.inverse(q)?;
        // Indifferent/step functions can invert to −∞ ("anything is
        // fine"); represent that as zero demand.
        params.set(pref.axis, value.max(0.0));
    }
    Some(params)
}

/// The quality level a configuration achieves: the minimum satisfaction
/// across the preferred axes present in `params` (`None` when none of
/// the preferred axes are present).
pub fn level_of(profile: &SatisfactionProfile, params: &ParamVector) -> Option<f64> {
    let mut level: Option<f64> = None;
    for pref in profile.preferences() {
        if let Some(x) = params.get(pref.axis) {
            let s = pref.function.eval(x);
            level = Some(level.map_or(s, |l: f64| l.min(s)));
        }
    }
    level
}

/// Evenly spaced quality presets ("low / medium / high / ideal") with
/// their parameter vectors, skipping unreachable levels.
pub fn presets(profile: &SatisfactionProfile, count: usize) -> Vec<(f64, ParamVector)> {
    let count = count.max(2);
    (0..count)
        .filter_map(|i| {
            let q = i as f64 / (count - 1) as f64;
            params_for_level(profile, q).map(|p| (q, p))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::SatisfactionFn;
    use crate::profile::AxisPreference;
    use qosc_media::Axis;

    fn av_profile() -> SatisfactionProfile {
        SatisfactionProfile::new()
            .with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            ))
            .with(AxisPreference::new(
                Axis::SampleRate,
                SatisfactionFn::Linear {
                    min_acceptable: 8_000.0,
                    ideal: 44_100.0,
                },
            ))
    }

    #[test]
    fn level_round_trips() {
        let profile = av_profile();
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let params = params_for_level(&profile, q).expect("linear axes reach any level");
            let level = level_of(&profile, &params).expect("axes present");
            assert!((level - q).abs() < 1e-9, "q {q} → level {level}");
            // The harmonic combination is at least the per-axis floor.
            assert!(profile.score(&params) + 1e-9 >= q);
        }
    }

    #[test]
    fn level_one_is_the_ideal_point() {
        let profile = av_profile();
        let params = params_for_level(&profile, 1.0).unwrap();
        assert_eq!(params.get(Axis::FrameRate), Some(30.0));
        assert_eq!(params.get(Axis::SampleRate), Some(44_100.0));
    }

    #[test]
    fn unreachable_level_is_none() {
        let profile = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Piecewise {
                knots: vec![(5.0, 0.0), (20.0, 0.6)],
            },
        ));
        assert!(params_for_level(&profile, 0.5).is_some());
        assert!(params_for_level(&profile, 0.9).is_none(), "tops out at 0.6");
    }

    #[test]
    fn level_of_is_the_bottleneck() {
        let profile = av_profile();
        // Great video, mediocre audio → the audio bounds the level.
        let params = ParamVector::from_pairs([
            (Axis::FrameRate, 30.0),
            (Axis::SampleRate, 26_050.0), // (26050-8000)/36100 = 0.5
        ]);
        let level = level_of(&profile, &params).unwrap();
        assert!((level - 0.5).abs() < 1e-9);
    }

    #[test]
    fn presets_are_monotone() {
        let profile = av_profile();
        let presets = presets(&profile, 5);
        assert_eq!(presets.len(), 5);
        for pair in presets.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(
                pair[0].1.le_on_common_axes(&pair[1].1),
                "params grow with the dial"
            );
        }
    }

    #[test]
    fn empty_profile_and_empty_params() {
        let profile = SatisfactionProfile::new();
        assert_eq!(params_for_level(&profile, 0.5), Some(ParamVector::new()));
        assert_eq!(level_of(&profile, &ParamVector::new()), None);
    }
}
