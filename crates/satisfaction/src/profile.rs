//! Per-axis satisfaction preferences.
//!
//! A [`SatisfactionProfile`] is the application-layer-QoS slice of the
//! user profile of Section 3: for each QoS axis the user cares about, a
//! satisfaction function and (for the weighted extension of \[29\]) a
//! weight. The total satisfaction of a parameter vector is the combination
//! (Equa. 1) of the per-axis satisfactions.

use crate::combine::Combiner;
use crate::function::SatisfactionFn;
use crate::Result;
use qosc_media::{hash_f64, Axis, ParamVector};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// One axis the user has a preference about.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisPreference {
    /// The QoS axis.
    pub axis: Axis,
    /// Satisfaction as a function of the axis value.
    pub function: SatisfactionFn,
    /// Relative importance, used when the profile's combiner is
    /// weight-aware. Must be non-negative. Defaults to 1.
    pub weight: f64,
}

impl Hash for AxisPreference {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let AxisPreference {
            axis,
            function,
            weight,
        } = self;
        axis.hash(state);
        function.hash(state);
        hash_f64(*weight, state);
    }
}

impl AxisPreference {
    /// A preference with the default weight of 1.
    pub fn new(axis: Axis, function: SatisfactionFn) -> AxisPreference {
        AxisPreference {
            axis,
            function,
            weight: 1.0,
        }
    }

    /// A preference with an explicit weight.
    pub fn weighted(axis: Axis, function: SatisfactionFn, weight: f64) -> AxisPreference {
        AxisPreference {
            axis,
            function,
            weight,
        }
    }
}

/// The user's application-layer QoS preferences: per-axis satisfaction
/// functions plus the combination strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatisfactionProfile {
    /// Per-axis preferences, at most one per axis (later entries replace
    /// earlier ones on insert).
    preferences: Vec<AxisPreference>,
    /// How per-axis satisfactions are combined (`fcomb`).
    pub combiner: Combiner,
}

impl Hash for SatisfactionProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let SatisfactionProfile {
            preferences,
            combiner,
        } = self;
        preferences.hash(state);
        combiner.hash(state);
    }
}

impl SatisfactionProfile {
    /// An empty profile with the paper's default combiner (Equa. 1).
    pub fn new() -> SatisfactionProfile {
        SatisfactionProfile {
            preferences: Vec::new(),
            combiner: Combiner::default(),
        }
    }

    /// The paper's Table-1 profile: a single linear frame-rate preference
    /// with minimum 0 and ideal 30 fps.
    pub fn paper_table1() -> SatisfactionProfile {
        SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::paper_frame_rate(),
        ))
    }

    /// Builder-style insert; replaces any existing preference on the axis.
    pub fn with(mut self, pref: AxisPreference) -> SatisfactionProfile {
        self.insert(pref);
        self
    }

    /// Builder-style combiner override.
    pub fn with_combiner(mut self, combiner: Combiner) -> SatisfactionProfile {
        self.combiner = combiner;
        self
    }

    /// Insert a preference, replacing any existing one on the same axis.
    pub fn insert(&mut self, pref: AxisPreference) {
        self.preferences.retain(|p| p.axis != pref.axis);
        self.preferences.push(pref);
        self.preferences.sort_by_key(|p| p.axis.index());
    }

    /// The preference on `axis`, if any.
    pub fn get(&self, axis: Axis) -> Option<&AxisPreference> {
        self.preferences.iter().find(|p| p.axis == axis)
    }

    /// All preferences, in axis-index order.
    pub fn preferences(&self) -> &[AxisPreference] {
        &self.preferences
    }

    /// Number of axes with a preference.
    pub fn len(&self) -> usize {
        self.preferences.len()
    }

    /// Whether no axis has a preference.
    pub fn is_empty(&self) -> bool {
        self.preferences.is_empty()
    }

    /// Validate every satisfaction function and weight.
    pub fn validate(&self) -> Result<()> {
        for pref in &self.preferences {
            pref.function.validate()?;
            // Deliberate negated comparison: NaN weights must be rejected.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(pref.weight >= 0.0) {
                return Err(crate::SatisfactionError::InvalidFunction(format!(
                    "negative weight {} on axis {}",
                    pref.weight, pref.axis
                )));
            }
        }
        Ok(())
    }

    /// Total satisfaction of `params`.
    ///
    /// Only axes the user cares about **and** the content provides are
    /// scored (a video-only stream is not penalized on audio axes the
    /// user also has preferences for — those dimensions are simply not
    /// part of this delivery). If no preference axis is present in
    /// `params`, the configuration tells the user nothing and scores 0.
    pub fn score(&self, params: &ParamVector) -> f64 {
        // At most one preference per axis, so the present ones fit two
        // stack arrays: `Optimize()` calls this per candidate point.
        let mut values = [0.0; Axis::COUNT];
        let mut weights = [0.0; Axis::COUNT];
        let mut present = 0;
        for pref in &self.preferences {
            // A deserialized profile can repeat an axis; it never gets
            // to index past the arrays.
            if present == Axis::COUNT {
                break;
            }
            if let Some(x) = params.get(pref.axis) {
                values[present] = pref.function.eval(x);
                weights[present] = pref.weight;
                present += 1;
            }
        }
        if present == 0 {
            return 0.0;
        }
        // The weighted combiner reads the weights of the axes actually
        // present, not the stored ones.
        self.combiner
            .combine_with_weights(&values[..present], &weights[..present])
            .unwrap_or(0.0)
    }

    /// Convenience: enable the weighted extension of \[29\] using the
    /// per-preference weights.
    pub fn use_weighted_combination(&mut self) {
        self.combiner = Combiner::WeightedHarmonic {
            weights: self.preferences.iter().map(|p| p.weight).collect(),
        };
    }
}

impl Default for SatisfactionProfile {
    fn default() -> SatisfactionProfile {
        SatisfactionProfile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_scores_table1_values() {
        let profile = SatisfactionProfile::paper_table1();
        let at = |fps: f64| profile.score(&ParamVector::from_pairs([(Axis::FrameRate, fps)]));
        assert!((at(30.0) - 1.0).abs() < 1e-12);
        assert!((at(27.0) - 0.9).abs() < 1e-12);
        assert!((at(23.0) - 23.0 / 30.0).abs() < 1e-12);
        assert!((at(20.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn score_ignores_axes_without_preference() {
        let profile = SatisfactionProfile::paper_table1();
        let p = ParamVector::from_pairs([(Axis::FrameRate, 30.0), (Axis::SampleRate, 1.0)]);
        assert!((profile.score(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn score_skips_preferences_content_lacks() {
        let profile = SatisfactionProfile::paper_table1().with(AxisPreference::new(
            Axis::SampleRate,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 44100.0,
            },
        ));
        // Video-only content: only the frame-rate preference applies.
        let p = ParamVector::from_pairs([(Axis::FrameRate, 30.0)]);
        assert!((profile.score(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn score_zero_when_no_common_axis() {
        let profile = SatisfactionProfile::paper_table1();
        let p = ParamVector::from_pairs([(Axis::SampleRate, 44100.0)]);
        assert_eq!(profile.score(&p), 0.0);
    }

    #[test]
    fn multi_axis_score_uses_harmonic_mean() {
        let profile = SatisfactionProfile::new()
            .with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            ))
            .with(AxisPreference::new(
                Axis::ColorDepth,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 24.0,
                },
            ));
        // s = (15/30, 24/24) = (0.5, 1.0) → harmonic 2/3.
        let p = ParamVector::from_pairs([(Axis::FrameRate, 15.0), (Axis::ColorDepth, 24.0)]);
        assert!((profile.score(&p) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_combination_uses_present_axes_only() {
        let mut profile = SatisfactionProfile::new()
            .with(AxisPreference::weighted(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
                3.0,
            ))
            .with(AxisPreference::weighted(
                Axis::ColorDepth,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 24.0,
                },
                1.0,
            ));
        profile.use_weighted_combination();
        // Only frame rate present: weighted harmonic of one value = value.
        let p = ParamVector::from_pairs([(Axis::FrameRate, 15.0)]);
        assert!((profile.score(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_replaces_same_axis() {
        let mut profile = SatisfactionProfile::paper_table1();
        profile.insert(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Step { threshold: 10.0 },
        ));
        assert_eq!(profile.len(), 1);
        let p = ParamVector::from_pairs([(Axis::FrameRate, 15.0)]);
        assert_eq!(profile.score(&p), 1.0);
    }

    #[test]
    fn validate_propagates_function_errors() {
        let profile = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 9.0,
                ideal: 3.0,
            },
        ));
        assert!(profile.validate().is_err());
    }

    /// `insert` keeps one preference per axis, but a profile read from
    /// JSON need not: scoring it must not index past the per-axis
    /// arrays.
    #[test]
    fn score_survives_more_preferences_than_axes() {
        let one = serde_json::to_string(&SatisfactionProfile::paper_table1()).unwrap();
        let entry = one
            .split_once('[')
            .and_then(|(_, rest)| rest.rsplit_once(']'))
            .expect("the preference list")
            .0;
        let many = one.replace(entry, &[entry; Axis::COUNT + 1].join(","));
        let profile: SatisfactionProfile = serde_json::from_str(&many).unwrap();
        assert_eq!(profile.len(), Axis::COUNT + 1);
        let p = ParamVector::from_pairs([(Axis::FrameRate, 15.0)]);
        assert!((profile.score(&p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let profile = SatisfactionProfile::paper_table1();
        let json = serde_json::to_string(&profile).unwrap();
        let back: SatisfactionProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
    }
}
