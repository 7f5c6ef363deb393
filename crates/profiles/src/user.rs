//! User profiles.
//!
//! "The user's profile captures the personal properties and preferences
//! of the user, such as the preferred audio and video receiving/sending
//! qualities … The user's profile may also hold the user's policies for
//! application adaptations, such as the preference of the user to drop
//! the audio quality of a sport-clip before degrading the video quality
//! when resources are limited." — Section 3.

use crate::{ProfileError, Result};
use qosc_media::{hash_f64, MediaKind};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Degradation policy: when resources run out, which media kind gives
/// way first (earlier entries degrade first).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdaptationPolicy {
    /// Media kinds in degrade-first order; kinds not listed degrade last.
    pub degrade_first: Vec<MediaKind>,
}

impl Hash for AdaptationPolicy {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let AdaptationPolicy { degrade_first } = self;
        degrade_first.hash(state);
    }
}

impl AdaptationPolicy {
    /// Rank of a media kind in the degrade order: lower degrades earlier;
    /// unlisted kinds get the highest rank (degrade last).
    pub fn degrade_rank(&self, kind: MediaKind) -> usize {
        self.degrade_first
            .iter()
            .position(|&k| k == kind)
            .unwrap_or(self.degrade_first.len())
    }
}

/// A user: identity, QoS preferences, budget and adaptation policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// Display name / identity.
    pub name: String,
    /// Per-axis satisfaction preferences (Section 4.1).
    pub satisfaction: SatisfactionProfile,
    /// "The amount of money the user is willing to pay" (Figure 4,
    /// Step 1), in monetary units per minute of streaming. `None` means
    /// unconstrained.
    pub budget: Option<f64>,
    /// Degradation policy for multi-media sessions.
    pub policy: AdaptationPolicy,
}

impl Hash for UserProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let UserProfile {
            name,
            satisfaction,
            budget,
            policy,
        } = self;
        name.hash(state);
        satisfaction.hash(state);
        budget.is_some().hash(state);
        if let Some(budget) = budget {
            hash_f64(*budget, state);
        }
        policy.hash(state);
    }
}

impl UserProfile {
    /// A user with the given name and preferences, no budget limit.
    pub fn new(name: impl Into<String>, satisfaction: SatisfactionProfile) -> UserProfile {
        UserProfile {
            name: name.into(),
            satisfaction,
            budget: None,
            policy: AdaptationPolicy::default(),
        }
    }

    /// Builder-style budget.
    pub fn with_budget(mut self, budget: f64) -> UserProfile {
        self.budget = Some(budget);
        self
    }

    /// Builder-style policy.
    pub fn with_policy(mut self, policy: AdaptationPolicy) -> UserProfile {
        self.policy = policy;
        self
    }

    /// The budget as a float, `+∞` when unconstrained.
    pub fn budget_or_infinite(&self) -> f64 {
        self.budget.unwrap_or(f64::INFINITY)
    }

    /// A ready-made demo user who likes smooth, sharp video: linear
    /// frame-rate preference (ideal 30 fps) and linear pixel-count
    /// preference (ideal VGA).
    pub fn demo(name: &str) -> UserProfile {
        let satisfaction = SatisfactionProfile::new()
            .with(AxisPreference::new(
                qosc_media::Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            ))
            .with(AxisPreference::new(
                qosc_media::Axis::PixelCount,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 307_200.0,
                },
            ));
        UserProfile::new(name, satisfaction)
    }

    /// The user of the paper's Table-1 example: a single linear
    /// frame-rate preference, ideal 30 fps, no budget constraint.
    pub fn paper_table1() -> UserProfile {
        UserProfile::new("paper-user", SatisfactionProfile::paper_table1())
    }

    /// Validate the embedded satisfaction profile and budget.
    pub fn validate(&self) -> Result<()> {
        self.satisfaction.validate()?;
        if let Some(budget) = self.budget {
            // Deliberate negated comparison: a NaN budget must be rejected.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(budget >= 0.0) {
                return Err(ProfileError::Invalid(format!(
                    "budget must be non-negative, got {budget}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{Axis, ParamVector};

    #[test]
    fn paper_user_scores_like_table1() {
        let user = UserProfile::paper_table1();
        let sat = user
            .satisfaction
            .score(&ParamVector::from_pairs([(Axis::FrameRate, 27.0)]));
        assert!((sat - 0.9).abs() < 1e-12);
        assert_eq!(user.budget_or_infinite(), f64::INFINITY);
    }

    #[test]
    fn budget_builder_and_validation() {
        let user = UserProfile::paper_table1().with_budget(5.0);
        assert_eq!(user.budget, Some(5.0));
        user.validate().unwrap();

        let bad = UserProfile::paper_table1().with_budget(-1.0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn degrade_rank_defaults_to_last() {
        let policy = AdaptationPolicy {
            degrade_first: vec![MediaKind::Audio],
        };
        assert_eq!(policy.degrade_rank(MediaKind::Audio), 0);
        assert_eq!(policy.degrade_rank(MediaKind::Video), 1);
    }

    #[test]
    fn serde_round_trip() {
        let user = UserProfile::demo("carol").with_budget(2.5);
        let json = serde_json::to_string(&user).unwrap();
        assert_eq!(serde_json::from_str::<UserProfile>(&json).unwrap(), user);
    }
}
