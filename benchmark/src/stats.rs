//! The one percentile/quartile implementation of the benchmark.
//!
//! Nearest-rank everywhere (no interpolation, so a reported value is
//! always a value that was measured), the sample count travels with
//! every summary, and a *tail* percentile of a timing is refused unless
//! at least [`MIN_BEYOND`] samples lie beyond it: p90 of 64 samples has
//! six samples behind it and says little about the tail.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort `values` (NaNs order last and would poison every rank, so
    /// callers never pass them: all inputs are durations or scores).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// 1-based nearest rank of percentile `p` (0 < p <= 100).
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile with no support check — for values that
    /// are deterministic for a seed (satisfaction scores), where the
    /// tail is a fact and not an estimate. `None` on an empty sample.
    pub fn nearest_rank(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(p) - 1])
    }

    /// The median (nearest rank). `None` on an empty sample.
    pub fn median(&self) -> Option<f64> {
        self.nearest_rank(50.0)
    }

    /// A tail percentile of a timing: nearest rank, refused (`None`)
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it — above it
    /// for `p > 50`, below it for `p < 50`.
    pub fn tail_percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = self.rank(p);
        let beyond = if p >= 50.0 {
            self.sorted.len() - rank
        } else {
            rank - 1
        };
        (beyond >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// Arithmetic mean. `None` on an empty sample.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// Mean of the lowest `share` of the sample (at least one value):
    /// a tail statistic that moves smoothly where a percentile sitting
    /// on a step of the distribution jumps. `None` on an empty sample.
    pub fn mean_of_lowest(&self, share: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let k = ((self.sorted.len() as f64 * share) as usize).clamp(1, self.sorted.len());
        Some(self.sorted[..k].iter().sum::<f64>() / k as f64)
    }

    /// First quartile, median and third quartile as Python's
    /// `statistics.quantiles(values, n=4)` gives them (the exclusive
    /// method, linear between the two neighbouring ranks) — the driver
    /// computes run-to-run spread this way, so `--compare` does too.
    /// Needs at least two samples.
    pub fn quartiles(&self) -> Option<[f64; 3]> {
        let n = self.sorted.len();
        if n < 2 {
            return None;
        }
        let m = n + 1;
        let mut out = [0.0; 3];
        for (slot, i) in out.iter_mut().zip(1..=3usize) {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            *slot = (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0;
        }
        Some(out)
    }

    /// Interquartile range over the median: the spread the regression
    /// bounds are compared against.
    pub fn spread(&self) -> Option<f64> {
        let [q1, q2, q3] = self.quartiles()?;
        (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|x| x as f64).collect())
    }

    #[test]
    fn nearest_rank_returns_measured_values() {
        let s = one_to(100);
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.nearest_rank(5.0), Some(5.0));
        assert_eq!(s.nearest_rank(100.0), Some(100.0));
        assert_eq!(one_to(7).median(), Some(4.0));
        assert_eq!(one_to(8).median(), Some(4.0));
        assert_eq!(Samples::new(vec![]).median(), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 of 100 has exactly ten above it; p90 of 64 has six.
        assert_eq!(one_to(100).tail_percentile(90.0), Some(90.0));
        assert_eq!(one_to(64).tail_percentile(90.0), None);
        assert_eq!(one_to(99).tail_percentile(90.0), None);
        // Low tails count the samples below.
        assert_eq!(one_to(220).tail_percentile(5.0), Some(11.0));
        assert_eq!(one_to(200).tail_percentile(5.0), None);
        // The unchecked form still answers.
        assert_eq!(one_to(64).nearest_rank(90.0), Some(58.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(one_to(10).quartiles(), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Samples::new(vec![16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!(s.quartiles(), Some([1.5, 4.0, 12.0]));
        assert_eq!(s.spread(), Some((12.0 - 1.5) / 4.0));
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(
            Samples::new(vec![7.0, 3.0]).quartiles(),
            Some([2.0, 5.0, 8.0])
        );
        assert_eq!(Samples::new(vec![7.0]).quartiles(), None);
    }

    #[test]
    fn means_are_arithmetic() {
        assert_eq!(one_to(4).mean(), Some(2.5));
        assert_eq!(Samples::new(vec![]).mean(), None);
        // The worst 5 % of 1..=100 are 1..=5; a tiny sample keeps one.
        assert_eq!(one_to(100).mean_of_lowest(0.05), Some(3.0));
        assert_eq!(one_to(7).mean_of_lowest(0.05), Some(1.0));
        assert_eq!(Samples::new(vec![]).mean_of_lowest(0.05), None);
    }
}
