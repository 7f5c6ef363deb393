//! Context profiles.
//!
//! "A context profile would include any dynamic information that is part
//! of the context or current status of the user. Context information may
//! include physical (e.g. location, weather, temperature), social (e.g.
//! sitting for dinner), or organizational information (e.g. acting senior
//! manager). … Resource adaptation engines can use these elements to
//! deliver the best experience to the user." — Section 3.
//!
//! We keep the MPEG-21-style natural-environment fields the adaptation
//! engine can act on — ambient noise and illumination — plus free-form
//! location/activity strings, and implement the "act on" part: a context
//! *adjusts* the user's satisfaction profile before optimization.

use qosc_media::{hash_f64, Axis};
use qosc_satisfaction::{AxisPreference, SatisfactionProfile};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// The user's current context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextProfile {
    /// Where the user is (free-form, informational).
    pub location: String,
    /// What the user is doing (free-form, informational).
    pub activity: String,
    /// Ambient noise level in `[0, 1]` (0 = silent room, 1 = concert).
    pub ambient_noise: f64,
    /// Ambient illumination in `[0, 1]` (0 = dark, 1 = direct sunlight).
    pub illumination: f64,
    /// Whether the user is in motion (commuting, walking).
    pub mobile: bool,
}

impl Hash for ContextProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ContextProfile {
            location,
            activity,
            ambient_noise,
            illumination,
            mobile,
        } = self;
        location.hash(state);
        activity.hash(state);
        hash_f64(*ambient_noise, state);
        hash_f64(*illumination, state);
        mobile.hash(state);
    }
}

impl Default for ContextProfile {
    /// A quiet, well-lit, stationary context that adjusts nothing.
    fn default() -> ContextProfile {
        ContextProfile {
            location: "unspecified".to_string(),
            activity: "unspecified".to_string(),
            ambient_noise: 0.0,
            illumination: 0.7,
            mobile: false,
        }
    }
}

impl ContextProfile {
    /// A noisy commute: high noise, mobile, moderate light.
    pub fn noisy_commute() -> ContextProfile {
        ContextProfile {
            location: "train".to_string(),
            activity: "commuting".to_string(),
            ambient_noise: 0.8,
            illumination: 0.6,
            mobile: true,
        }
    }

    /// Adjust a satisfaction profile for this context. The adjustments
    /// are deliberately simple, documented heuristics — the point the
    /// paper makes is *that* context feeds the optimization, not a
    /// specific psychoacoustic model:
    ///
    /// * ambient noise ≥ 0.5 halves the weight of audio axes (fine audio
    ///   quality is wasted in a loud environment),
    /// * illumination ≥ 0.9 (direct sunlight) halves the weight of the
    ///   colour-depth axis (washed-out screens),
    /// * `mobile` halves the weight of the pixel-count axis (small
    ///   glanceable viewing).
    ///
    /// Weights only matter under the weighted combination of [29]; under
    /// plain Equa. 1 the adjusted profile equals the original scoring.
    pub fn adjust(&self, profile: &SatisfactionProfile) -> SatisfactionProfile {
        let mut adjusted = SatisfactionProfile::new().with_combiner(profile.combiner.clone());
        for pref in profile.preferences() {
            let mut weight = pref.weight;
            let audio_axis = matches!(
                pref.axis,
                Axis::SampleRate | Axis::Channels | Axis::SampleDepth
            );
            if self.ambient_noise >= 0.5 && audio_axis {
                weight *= 0.5;
            }
            if self.illumination >= 0.9 && pref.axis == Axis::ColorDepth {
                weight *= 0.5;
            }
            if self.mobile && pref.axis == Axis::PixelCount {
                weight *= 0.5;
            }
            adjusted.insert(AxisPreference::weighted(
                pref.axis,
                pref.function.clone(),
                weight,
            ));
        }
        // Preserve the weighted-combination marker by refreshing weights.
        if matches!(
            profile.combiner,
            qosc_satisfaction::Combiner::WeightedHarmonic { .. }
        ) {
            adjusted.use_weighted_combination();
        }
        adjusted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::ParamVector;
    use qosc_satisfaction::SatisfactionFn;

    fn av_profile() -> SatisfactionProfile {
        let mut p = SatisfactionProfile::new()
            .with(AxisPreference::weighted(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
                1.0,
            ))
            .with(AxisPreference::weighted(
                Axis::SampleRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 44_100.0,
                },
                1.0,
            ));
        p.use_weighted_combination();
        p
    }

    #[test]
    fn default_context_is_identity_on_weights() {
        let profile = av_profile();
        let adjusted = ContextProfile::default().adjust(&profile);
        for (orig, adj) in profile.preferences().iter().zip(adjusted.preferences()) {
            assert_eq!(orig.weight, adj.weight);
        }
    }

    #[test]
    fn noise_downweights_audio() {
        let profile = av_profile();
        let adjusted = ContextProfile::noisy_commute().adjust(&profile);
        assert_eq!(adjusted.get(Axis::SampleRate).unwrap().weight, 0.5);
        assert_eq!(adjusted.get(Axis::FrameRate).unwrap().weight, 1.0);
    }

    #[test]
    fn noisy_context_raises_score_of_audio_poor_config() {
        // Poor audio, great video: the noisy context should judge this
        // configuration *less harshly* than the quiet one.
        let profile = av_profile();
        let config =
            ParamVector::from_pairs([(Axis::FrameRate, 30.0), (Axis::SampleRate, 8_000.0)]);
        let quiet = ContextProfile::default().adjust(&profile).score(&config);
        let noisy = ContextProfile::noisy_commute()
            .adjust(&profile)
            .score(&config);
        assert!(noisy > quiet, "noisy {noisy} should exceed quiet {quiet}");
    }

    #[test]
    fn sunlight_downweights_color_depth() {
        let profile = SatisfactionProfile::new().with(AxisPreference::weighted(
            Axis::ColorDepth,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 24.0,
            },
            2.0,
        ));
        let context = ContextProfile {
            illumination: 1.0,
            ..ContextProfile::default()
        };
        let adjusted = context.adjust(&profile);
        assert_eq!(adjusted.get(Axis::ColorDepth).unwrap().weight, 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let context = ContextProfile::noisy_commute();
        let json = serde_json::to_string(&context).unwrap();
        assert_eq!(
            serde_json::from_str::<ContextProfile>(&json).unwrap(),
            context
        );
    }
}
