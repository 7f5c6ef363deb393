//! Single-parameter satisfaction functions (Figure 1).
//!
//! "The satisfaction or appreciation of a user with each quality value is
//! expressed as a satisfaction function Si(xi). All satisfaction functions
//! have a range of [0..1], which corresponds to the minimum acceptable (M)
//! and ideal (I) value of xi. The satisfaction function Si(xi) can take any
//! shape, with the condition that it must increase monotonically over the
//! domain." — Section 4.1.

use crate::{Result, SatisfactionError};
use qosc_media::hash_f64;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A monotone non-decreasing mapping from a QoS parameter value to a
/// satisfaction in `[0, 1]`.
///
/// Values at or below the *minimum acceptable* map to 0; values at or above
/// the *ideal* map to 1.
///
/// ```
/// use qosc_satisfaction::SatisfactionFn;
///
/// // The paper's Table-1 frame-rate function: linear, M = 0, I = 30.
/// let f = SatisfactionFn::paper_frame_rate();
/// assert_eq!(f.eval(30.0), 1.0);
/// assert!((f.eval(27.0) - 0.9).abs() < 1e-12);
/// assert_eq!(f.eval(45.0), 1.0, "clamped above the ideal");
/// // What frame rate buys satisfaction 0.8?
/// assert!((f.inverse(0.8).unwrap() - 24.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SatisfactionFn {
    /// Linear ramp from `(min_acceptable, 0)` to `(ideal, 1)`.
    ///
    /// The paper's worked example (Table 1) uses a linear frame-rate
    /// function with `min_acceptable = 0`, `ideal = 30`: 27 fps → 0.90,
    /// 23 fps → 0.766…, 20 fps → 0.666….
    Linear {
        /// Value below which satisfaction is 0.
        min_acceptable: f64,
        /// Value at and above which satisfaction is 1.
        ideal: f64,
    },
    /// Piecewise-linear through `(value, satisfaction)` knots; values and
    /// satisfactions must both be non-decreasing, satisfactions in [0, 1].
    /// Satisfaction is 0 left of the first knot's satisfaction? No — it is
    /// the first knot's satisfaction left of the first knot, and the last
    /// knot's satisfaction right of the last knot.
    Piecewise {
        /// `(value, satisfaction)` knots, ascending in both coordinates.
        knots: Vec<(f64, f64)>,
    },
    /// Hard threshold: 0 below `threshold`, 1 at or above it. Models
    /// binary requirements ("stereo or nothing").
    Step {
        /// The acceptance threshold.
        threshold: f64,
    },
    /// Smooth saturating curve `1 - exp(-(x - min) / scale)` normalized so
    /// that `ideal` maps to 1; 0 below `min_acceptable`. Models diminishing
    /// returns (each extra fps matters less near the ideal).
    Saturating {
        /// Value below which satisfaction is 0.
        min_acceptable: f64,
        /// Value at which the curve is re-normalized to reach 1.
        ideal: f64,
        /// Curvature: smaller is steeper. Must be > 0.
        scale: f64,
    },
    /// Indifference: every value is fully satisfying. The neutral element
    /// of the harmonic-mean combination.
    Indifferent,
}

impl Hash for SatisfactionFn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            SatisfactionFn::Linear {
                min_acceptable,
                ideal,
            } => {
                hash_f64(*min_acceptable, state);
                hash_f64(*ideal, state);
            }
            SatisfactionFn::Piecewise { knots } => {
                knots.len().hash(state);
                for &(value, satisfaction) in knots {
                    hash_f64(value, state);
                    hash_f64(satisfaction, state);
                }
            }
            SatisfactionFn::Step { threshold } => hash_f64(*threshold, state),
            SatisfactionFn::Saturating {
                min_acceptable,
                ideal,
                scale,
            } => {
                hash_f64(*min_acceptable, state);
                hash_f64(*ideal, state);
                hash_f64(*scale, state);
            }
            SatisfactionFn::Indifferent => {}
        }
    }
}

impl SatisfactionFn {
    /// The paper's Table-1 frame-rate function: linear with M=0, I=30.
    pub fn paper_frame_rate() -> SatisfactionFn {
        SatisfactionFn::Linear {
            min_acceptable: 0.0,
            ideal: 30.0,
        }
    }

    /// Validate shape invariants (finite bounds, `min < ideal`,
    /// piecewise knots ascending with satisfactions in [0, 1]).
    pub fn validate(&self) -> Result<()> {
        match self {
            SatisfactionFn::Linear {
                min_acceptable,
                ideal,
            }
            | SatisfactionFn::Saturating {
                min_acceptable,
                ideal,
                ..
            } => {
                if !min_acceptable.is_finite() || !ideal.is_finite() || min_acceptable >= ideal {
                    return Err(SatisfactionError::InvalidFunction(format!(
                        "requires min_acceptable < ideal, got [{min_acceptable}, {ideal}]"
                    )));
                }
                if let SatisfactionFn::Saturating { scale, .. } = self {
                    // Deliberate negated comparison: NaN scales must be
                    // rejected.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    if !(*scale > 0.0) {
                        return Err(SatisfactionError::InvalidFunction(format!(
                            "saturating scale must be > 0, got {scale}"
                        )));
                    }
                }
                Ok(())
            }
            SatisfactionFn::Piecewise { knots } => {
                if knots.is_empty() {
                    return Err(SatisfactionError::InvalidFunction(
                        "piecewise function needs at least one knot".to_string(),
                    ));
                }
                for window in knots.windows(2) {
                    let ((x0, s0), (x1, s1)) = (window[0], window[1]);
                    if x1 < x0 || s1 < s0 {
                        return Err(SatisfactionError::InvalidFunction(format!(
                            "knots must be non-decreasing: ({x0},{s0}) then ({x1},{s1})"
                        )));
                    }
                }
                if knots
                    .iter()
                    .any(|&(x, s)| !x.is_finite() || !(0.0..=1.0).contains(&s))
                {
                    return Err(SatisfactionError::InvalidFunction(
                        "knot satisfactions must be finite and within [0, 1]".to_string(),
                    ));
                }
                Ok(())
            }
            SatisfactionFn::Step { threshold } => {
                if threshold.is_finite() {
                    Ok(())
                } else {
                    Err(SatisfactionError::InvalidFunction(
                        "step threshold must be finite".to_string(),
                    ))
                }
            }
            SatisfactionFn::Indifferent => Ok(()),
        }
    }

    /// Evaluate the function at `x`. Always in `[0, 1]`.
    pub fn eval(&self, x: f64) -> f64 {
        let s = match self {
            SatisfactionFn::Linear {
                min_acceptable,
                ideal,
            } => (x - min_acceptable) / (ideal - min_acceptable),
            SatisfactionFn::Piecewise { knots } => {
                match knots.iter().position(|&(kx, _)| kx >= x) {
                    Some(0) => knots[0].1,
                    Some(i) => {
                        let (x0, s0) = knots[i - 1];
                        let (x1, s1) = knots[i];
                        if (x1 - x0).abs() < 1e-12 {
                            s1
                        } else {
                            s0 + (s1 - s0) * (x - x0) / (x1 - x0)
                        }
                    }
                    None => knots.last().map(|&(_, s)| s).unwrap_or(0.0),
                }
            }
            SatisfactionFn::Step { threshold } => {
                if x >= *threshold {
                    1.0
                } else {
                    0.0
                }
            }
            SatisfactionFn::Saturating {
                min_acceptable,
                ideal,
                scale,
            } => {
                if x <= *min_acceptable {
                    0.0
                } else {
                    let raw = 1.0 - (-(x - min_acceptable) / scale).exp();
                    let norm = 1.0 - (-(ideal - min_acceptable) / scale).exp();
                    raw / norm
                }
            }
            SatisfactionFn::Indifferent => 1.0,
        };
        s.clamp(0.0, 1.0)
    }

    /// The smallest value achieving satisfaction `target` (in `[0, 1]`),
    /// or `None` if the function never reaches it. Uses closed forms where
    /// available and bisection otherwise. Useful for "what frame rate do I
    /// need for satisfaction ≥ 0.9?" queries in reports.
    pub fn inverse(&self, target: f64) -> Option<f64> {
        let target = target.clamp(0.0, 1.0);
        match self {
            SatisfactionFn::Linear {
                min_acceptable,
                ideal,
            } => Some(min_acceptable + target * (ideal - min_acceptable)),
            SatisfactionFn::Step { threshold } => {
                if target <= 0.0 {
                    Some(f64::NEG_INFINITY)
                } else {
                    Some(*threshold)
                }
            }
            SatisfactionFn::Indifferent => Some(f64::NEG_INFINITY),
            SatisfactionFn::Piecewise { knots } => {
                let last = knots.last()?;
                if target > last.1 {
                    return None;
                }
                let i = knots.iter().position(|&(_, s)| s >= target)?;
                if i == 0 {
                    return Some(knots[0].0);
                }
                let (x0, s0) = knots[i - 1];
                let (x1, s1) = knots[i];
                if (s1 - s0).abs() < 1e-12 {
                    Some(x1)
                } else {
                    Some(x0 + (x1 - x0) * (target - s0) / (s1 - s0))
                }
            }
            SatisfactionFn::Saturating {
                min_acceptable,
                ideal,
                ..
            } => {
                if target <= 0.0 {
                    return Some(*min_acceptable);
                }
                // Bisection on [min, ideal]: eval is continuous and monotone.
                let (mut lo, mut hi) = (*min_acceptable, *ideal);
                if self.eval(hi) < target {
                    return None;
                }
                for _ in 0..128 {
                    let mid = 0.5 * (lo + hi);
                    if self.eval(mid) >= target {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                Some(hi)
            }
        }
    }

    /// Sample the curve at `n` evenly spaced points of `[lo, hi]` — used to
    /// regenerate Figure 1 as a printable series.
    pub fn series(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        let n = n.max(2);
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_paper_values() {
        // Table 1 satisfactions derive from a linear M=0, I=30 function.
        let f = SatisfactionFn::paper_frame_rate();
        assert!((f.eval(30.0) - 1.0).abs() < 1e-12);
        assert!((f.eval(27.0) - 0.9).abs() < 1e-12);
        assert!((f.eval(23.0) - 23.0 / 30.0).abs() < 1e-12);
        assert!((f.eval(20.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(45.0), 1.0, "clamped above ideal");
        assert_eq!(f.eval(-3.0), 0.0, "clamped below minimum");
    }

    #[test]
    fn linear_validation() {
        assert!(SatisfactionFn::Linear {
            min_acceptable: 5.0,
            ideal: 30.0
        }
        .validate()
        .is_ok());
        assert!(SatisfactionFn::Linear {
            min_acceptable: 30.0,
            ideal: 5.0
        }
        .validate()
        .is_err());
        assert!(SatisfactionFn::Linear {
            min_acceptable: 5.0,
            ideal: 5.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn piecewise_interpolates() {
        let f = SatisfactionFn::Piecewise {
            knots: vec![(5.0, 0.0), (10.0, 0.5), (20.0, 1.0)],
        };
        f.validate().unwrap();
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(5.0), 0.0);
        assert!((f.eval(7.5) - 0.25).abs() < 1e-12);
        assert!((f.eval(15.0) - 0.75).abs() < 1e-12);
        assert_eq!(f.eval(25.0), 1.0);
    }

    #[test]
    fn piecewise_rejects_decreasing() {
        let f = SatisfactionFn::Piecewise {
            knots: vec![(5.0, 0.5), (10.0, 0.4)],
        };
        assert!(f.validate().is_err());
        let g = SatisfactionFn::Piecewise {
            knots: vec![(10.0, 0.1), (5.0, 0.5)],
        };
        assert!(g.validate().is_err());
        let h = SatisfactionFn::Piecewise { knots: vec![] };
        assert!(h.validate().is_err());
    }

    #[test]
    fn step_function() {
        let f = SatisfactionFn::Step { threshold: 2.0 };
        assert_eq!(f.eval(1.9), 0.0);
        assert_eq!(f.eval(2.0), 1.0);
    }

    #[test]
    fn saturating_is_monotone_and_normalized() {
        let f = SatisfactionFn::Saturating {
            min_acceptable: 0.0,
            ideal: 30.0,
            scale: 10.0,
        };
        f.validate().unwrap();
        assert_eq!(f.eval(0.0), 0.0);
        assert!((f.eval(30.0) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 0..=60 {
            let s = f.eval(i as f64 * 0.5);
            assert!(s >= prev - 1e-12, "monotone violated at {i}");
            prev = s;
        }
        // Diminishing returns: first 10 fps buys more than the last 10.
        assert!(f.eval(10.0) - f.eval(0.0) > f.eval(30.0) - f.eval(20.0));
    }

    #[test]
    fn inverse_round_trips() {
        let fns = [
            SatisfactionFn::Linear {
                min_acceptable: 5.0,
                ideal: 30.0,
            },
            SatisfactionFn::Piecewise {
                knots: vec![(5.0, 0.0), (10.0, 0.5), (20.0, 1.0)],
            },
            SatisfactionFn::Saturating {
                min_acceptable: 5.0,
                ideal: 30.0,
                scale: 8.0,
            },
        ];
        for f in fns {
            for target in [0.1, 0.5, 0.9] {
                let x = f.inverse(target).unwrap();
                assert!(
                    (f.eval(x) - target).abs() < 1e-6,
                    "inverse({target}) gave {x} with eval {}",
                    f.eval(x)
                );
            }
        }
    }

    #[test]
    fn inverse_unreachable_target() {
        let f = SatisfactionFn::Piecewise {
            knots: vec![(5.0, 0.0), (10.0, 0.5)],
        };
        assert_eq!(f.inverse(0.9), None);
    }

    #[test]
    fn series_covers_range() {
        let f = SatisfactionFn::paper_frame_rate();
        let s = f.series(0.0, 30.0, 31);
        assert_eq!(s.len(), 31);
        assert_eq!(s[0], (0.0, 0.0));
        assert_eq!(s[30], (30.0, 1.0));
    }

    #[test]
    fn serde_round_trip() {
        let f = SatisfactionFn::Saturating {
            min_acceptable: 1.0,
            ideal: 2.0,
            scale: 0.5,
        };
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<SatisfactionFn>(&json).unwrap(), f);
    }
}
