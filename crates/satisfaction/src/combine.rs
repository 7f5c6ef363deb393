//! Combination functions (`fcomb`, Equa. 1).
//!
//! "In the case when there are more than one application parameter …
//! Richards et al. proposed using a combination function fcomb that
//! computes the total satisfaction Stot from the satisfactions si for the
//! individual parameters." Equa. 1 is `Stot = n / Σ(1/si)` — the harmonic
//! mean. The extension presented in [29] weights the terms; we provide
//! both plus alternatives used by the ablation experiment (X6).

use crate::{Result, SatisfactionError};
use qosc_media::hash_f64;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A strategy for combining per-parameter satisfactions into a total.
///
/// ```
/// use qosc_satisfaction::Combiner;
///
/// // Equa. 1: Stot = n / Σ(1/si). For (0.5, 1.0) → 2/3.
/// let total = Combiner::HarmonicMean.combine(&[0.5, 1.0]).unwrap();
/// assert!((total - 2.0 / 3.0).abs() < 1e-12);
/// // One unacceptable parameter vetoes the whole configuration.
/// assert_eq!(Combiner::HarmonicMean.combine(&[0.0, 1.0]).unwrap(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Combiner {
    /// Equa. 1: `n / Σ(1/si)`. Zero if any `si` is zero (an unacceptable
    /// parameter makes the whole configuration unacceptable), strongly
    /// dominated by the worst parameter.
    HarmonicMean,
    /// The weighted extension of [29]: `Σwi / Σ(wi/si)`. With equal
    /// weights it reduces to Equa. 1.
    WeightedHarmonic {
        /// Per-parameter weights; must match the value count and be
        /// non-negative with a positive sum.
        weights: Vec<f64>,
    },
    /// `min(si)`: the strictest combiner; total is the bottleneck.
    Min,
    /// `Π si`: penalizes breadth of mediocrity.
    Product,
    /// Geometric mean `(Π si)^(1/n)`.
    GeometricMean,
    /// Arithmetic mean — deliberately *not* what the paper uses; included
    /// as the strawman in the ablation (it hides a terrible parameter
    /// behind good ones).
    ArithmeticMean,
}

impl Hash for Combiner {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Combiner::WeightedHarmonic { weights } => {
                weights.len().hash(state);
                for &weight in weights {
                    hash_f64(weight, state);
                }
            }
            Combiner::HarmonicMean
            | Combiner::Min
            | Combiner::Product
            | Combiner::GeometricMean
            | Combiner::ArithmeticMean => {}
        }
    }
}

impl Combiner {
    /// Combine `values` (each in `[0, 1]`) into a total in `[0, 1]`.
    ///
    /// Errors on an empty slice, and for [`Combiner::WeightedHarmonic`]
    /// on a weight-count mismatch.
    pub fn combine(&self, values: &[f64]) -> Result<f64> {
        let weights = match self {
            Combiner::WeightedHarmonic { weights } => weights.as_slice(),
            _ => &[],
        };
        self.combine_with_weights(values, weights)
    }

    /// [`combine`](Combiner::combine) with the weights of
    /// [`Combiner::WeightedHarmonic`] taken from `weights` instead of
    /// the stored ones (the other combiners ignore them), so a caller
    /// scoring a subset of the axes can pass the matching subset of
    /// weights without building a new combiner.
    pub(crate) fn combine_with_weights(&self, values: &[f64], weights: &[f64]) -> Result<f64> {
        if values.is_empty() {
            return Err(SatisfactionError::EmptyCombination);
        }
        let n = values.len() as f64;
        let any_zero = values.iter().any(|&v| v <= 0.0);
        let total = match self {
            Combiner::HarmonicMean => {
                if any_zero {
                    0.0
                } else if values.len() == 1 {
                    // Mathematically the identity; computing 1/(1/s)
                    // would lose an ulp and the paper's single-axis
                    // example prints exact values.
                    values[0]
                } else {
                    n / values.iter().map(|v| 1.0 / v).sum::<f64>()
                }
            }
            Combiner::WeightedHarmonic { .. } => {
                if weights.len() != values.len() {
                    return Err(SatisfactionError::WeightMismatch {
                        values: values.len(),
                        weights: weights.len(),
                    });
                }
                let wsum: f64 = weights.iter().sum();
                if wsum <= 0.0 {
                    return Err(SatisfactionError::InvalidFunction(
                        "weighted harmonic requires a positive weight sum".to_string(),
                    ));
                }
                // A zero satisfaction only vetoes the total if its weight
                // is positive; zero-weight parameters are ignored.
                if values
                    .iter()
                    .zip(weights)
                    .any(|(&v, &w)| w > 0.0 && v <= 0.0)
                {
                    0.0
                } else {
                    wsum / values
                        .iter()
                        .zip(weights)
                        .filter(|&(_, &w)| w > 0.0)
                        .map(|(&v, &w)| w / v)
                        .sum::<f64>()
                }
            }
            Combiner::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Combiner::Product => values.iter().product(),
            Combiner::GeometricMean => {
                if any_zero {
                    0.0
                } else {
                    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
                }
            }
            Combiner::ArithmeticMean => values.iter().sum::<f64>() / n,
        };
        Ok(total.clamp(0.0, 1.0))
    }

    /// Combine a single value — every combiner is the identity on one
    /// (positively weighted) parameter, which is why the paper's
    /// single-axis worked example is combiner-independent.
    pub fn combine_one(&self, value: f64) -> f64 {
        self.combine(&[value]).unwrap_or(0.0).clamp(0.0, 1.0)
    }
}

impl Default for Combiner {
    /// The paper's Equa. 1.
    fn default() -> Combiner {
        Combiner::HarmonicMean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_matches_equa_1() {
        // n / (1/s1 + 1/s2): for (0.5, 1.0) → 2 / (2 + 1) = 2/3.
        let s = Combiner::HarmonicMean.combine(&[0.5, 1.0]).unwrap();
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_zero_vetoes() {
        assert_eq!(Combiner::HarmonicMean.combine(&[0.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn harmonic_identity_on_singletons() {
        for c in [
            Combiner::HarmonicMean,
            Combiner::Min,
            Combiner::Product,
            Combiner::GeometricMean,
            Combiner::ArithmeticMean,
        ] {
            assert!((c.combine(&[0.73]).unwrap() - 0.73).abs() < 1e-12, "{c:?}");
        }
    }

    #[test]
    fn weighted_harmonic_equal_weights_reduces_to_equa_1() {
        let w = Combiner::WeightedHarmonic {
            weights: vec![1.0, 1.0, 1.0],
        };
        let h = Combiner::HarmonicMean;
        let vals = [0.3, 0.6, 0.9];
        assert!((w.combine(&vals).unwrap() - h.combine(&vals).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn weighted_harmonic_ignores_zero_weight_params() {
        let w = Combiner::WeightedHarmonic {
            weights: vec![1.0, 0.0],
        };
        // The second parameter is zero-satisfaction but zero-weight.
        assert!((w.combine(&[0.8, 0.0]).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn weighted_harmonic_mismatch_errors() {
        let w = Combiner::WeightedHarmonic { weights: vec![1.0] };
        assert!(matches!(
            w.combine(&[0.5, 0.5]),
            Err(SatisfactionError::WeightMismatch {
                values: 2,
                weights: 1
            })
        ));
    }

    #[test]
    fn weighted_harmonic_rejects_zero_weight_sum() {
        let w = Combiner::WeightedHarmonic {
            weights: vec![0.0, 0.0],
        };
        assert!(w.combine(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn empty_combination_errors() {
        assert_eq!(
            Combiner::HarmonicMean.combine(&[]),
            Err(SatisfactionError::EmptyCombination)
        );
    }

    #[test]
    fn min_and_product() {
        assert_eq!(Combiner::Min.combine(&[0.9, 0.4, 0.7]).unwrap(), 0.4);
        assert!((Combiner::Product.combine(&[0.5, 0.5]).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean() {
        let g = Combiner::GeometricMean.combine(&[0.25, 1.0]).unwrap();
        assert!((g - 0.5).abs() < 1e-12);
        assert_eq!(Combiner::GeometricMean.combine(&[0.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn ordering_of_combiners_on_mixed_input() {
        // min ≤ geometric ≤ arithmetic, harmonic ≤ geometric.
        let vals = [0.2, 0.8, 0.6];
        let min = Combiner::Min.combine(&vals).unwrap();
        let har = Combiner::HarmonicMean.combine(&vals).unwrap();
        let geo = Combiner::GeometricMean.combine(&vals).unwrap();
        let ari = Combiner::ArithmeticMean.combine(&vals).unwrap();
        assert!(min <= har && har <= geo && geo <= ari);
    }

    #[test]
    fn default_is_harmonic() {
        assert_eq!(Combiner::default(), Combiner::HarmonicMean);
    }
}
