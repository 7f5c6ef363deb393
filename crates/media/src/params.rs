//! Application-level QoS parameters (Section 4.1 of the paper).
//!
//! Each parameter is a variable `xi` over the set of possible values for
//! that QoS dimension. This module provides:
//!
//! * [`Axis`] — the QoS dimensions the framework knows about,
//! * [`ParamVector`] — a concrete assignment of values to a subset of axes,
//! * [`AxisDomain`] / [`DomainVector`] — the feasible value sets from which
//!   the optimizer in `qosc-satisfaction` picks a configuration.

use crate::MediaError;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Feed `x` to `state` so that hashing agrees with `f64`'s `PartialEq`:
/// `x + 0.0` maps `-0.0` to `0.0` (the one pair of distinct bit
/// patterns that compare equal) and leaves every other value alone.
/// The profile types hash their floats through this one helper.
pub fn hash_f64<H: Hasher>(x: f64, state: &mut H) {
    (x + 0.0).to_bits().hash(state);
}

/// A QoS parameter axis.
///
/// The paper's examples use frame rate, resolution, colour depth and audio
/// quality; we pin down a concrete, closed set of axes so that parameter
/// vectors can be stored as small fixed arrays (cheap to copy in the hot
/// selection loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Axis {
    /// Video frames per second.
    FrameRate,
    /// Total pixels per frame (width × height).
    PixelCount,
    /// Bits per pixel (colour depth).
    ColorDepth,
    /// Audio samples per second (Hz).
    SampleRate,
    /// Number of audio channels.
    Channels,
    /// Bits per audio sample.
    SampleDepth,
    /// Generic fidelity knob in `[0, 100]` — compression quality for
    /// images, summarization level for text, encoder quality for video.
    Fidelity,
}

impl Axis {
    /// Number of axes.
    pub const COUNT: usize = 7;

    /// All axes, in index order.
    pub const ALL: [Axis; Axis::COUNT] = [
        Axis::FrameRate,
        Axis::PixelCount,
        Axis::ColorDepth,
        Axis::SampleRate,
        Axis::Channels,
        Axis::SampleDepth,
        Axis::Fidelity,
    ];

    /// Dense index of this axis, for array-backed storage.
    pub fn index(self) -> usize {
        match self {
            Axis::FrameRate => 0,
            Axis::PixelCount => 1,
            Axis::ColorDepth => 2,
            Axis::SampleRate => 3,
            Axis::Channels => 4,
            Axis::SampleDepth => 5,
            Axis::Fidelity => 6,
        }
    }

    /// Inverse of [`Axis::index`].
    pub fn from_index(index: usize) -> Option<Axis> {
        Axis::ALL.get(index).copied()
    }

    /// Short snake_case name, used in profile files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Axis::FrameRate => "frame_rate",
            Axis::PixelCount => "pixel_count",
            Axis::ColorDepth => "color_depth",
            Axis::SampleRate => "sample_rate",
            Axis::Channels => "channels",
            Axis::SampleDepth => "sample_depth",
            Axis::Fidelity => "fidelity",
        }
    }

    /// Measurement unit, for reports.
    pub fn unit(self) -> &'static str {
        match self {
            Axis::FrameRate => "fps",
            Axis::PixelCount => "px",
            Axis::ColorDepth => "bit",
            Axis::SampleRate => "Hz",
            Axis::Channels => "ch",
            Axis::SampleDepth => "bit",
            Axis::Fidelity => "%",
        }
    }

    /// Parse from the snake_case [`Axis::name`].
    pub fn parse(name: &str) -> Option<Axis> {
        Axis::ALL.iter().copied().find(|a| a.name() == name)
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A (partial) assignment of values to QoS axes.
///
/// Axes not present are "not applicable" for the media at hand (an audio
/// stream has no frame rate). Values are finite, non-negative `f64`s.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ParamVector {
    values: [Option<f64>; Axis::COUNT],
}

impl ParamVector {
    /// The empty vector (no axis set).
    pub fn new() -> ParamVector {
        ParamVector::default()
    }

    /// Build a vector from `(axis, value)` pairs. Later pairs overwrite
    /// earlier ones.
    pub fn from_pairs<I: IntoIterator<Item = (Axis, f64)>>(pairs: I) -> ParamVector {
        let mut v = ParamVector::new();
        for (axis, value) in pairs {
            v.set(axis, value);
        }
        v
    }

    /// Value on `axis`, if set.
    pub fn get(&self, axis: Axis) -> Option<f64> {
        self.values[axis.index()]
    }

    /// Set `axis` to `value` (overwrites). Non-finite values are stored as
    /// unset, so a `ParamVector` never contains NaN.
    pub fn set(&mut self, axis: Axis, value: f64) -> &mut ParamVector {
        self.values[axis.index()] = value.is_finite().then_some(value);
        self
    }

    /// Builder-style [`ParamVector::set`].
    pub fn with(mut self, axis: Axis, value: f64) -> ParamVector {
        self.set(axis, value);
        self
    }

    /// Remove `axis` from the vector.
    pub fn unset(&mut self, axis: Axis) -> &mut ParamVector {
        self.values[axis.index()] = None;
        self
    }

    /// Axes that have a value, in index order.
    pub fn axes(&self) -> impl Iterator<Item = Axis> + '_ {
        Axis::ALL
            .iter()
            .copied()
            .filter(move |a| self.values[a.index()].is_some())
    }

    /// `(axis, value)` pairs, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Axis, f64)> + '_ {
        self.axes()
            .map(move |a| (a, self.values[a.index()].unwrap()))
    }

    /// Number of axes set.
    pub fn len(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Whether no axis is set.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|v| v.is_none())
    }

    /// Axis-wise minimum with `caps`, over the axes of `self`.
    ///
    /// This is the *quality monotonicity* operation of Section 4.4: a
    /// trans-coding stage "can only reduce the quality of the content", so
    /// the parameters delivered downstream of a stage are the upstream
    /// parameters capped by what the stage (and the network) can sustain.
    /// Axes set in `caps` but not in `self` are ignored.
    pub fn meet(&self, caps: &ParamVector) -> ParamVector {
        let mut out = *self;
        for axis in Axis::ALL {
            if let (Some(own), Some(cap)) = (self.get(axis), caps.get(axis)) {
                out.set(axis, own.min(cap));
            }
        }
        out
    }

    /// True if on every axis set in both vectors, `self`'s value is less
    /// than or equal to `other`'s (i.e. `self` is a degraded-or-equal
    /// configuration). Axes present in only one vector are ignored.
    pub fn le_on_common_axes(&self, other: &ParamVector) -> bool {
        Axis::ALL
            .iter()
            .all(|&axis| match (self.get(axis), other.get(axis)) {
                (Some(a), Some(b)) => a <= b + 1e-12,
                _ => true,
            })
    }

    /// Validate that every value is finite and non-negative.
    pub fn validate(&self) -> Result<(), MediaError> {
        for (axis, value) in self.iter() {
            if !value.is_finite() || value < 0.0 {
                return Err(MediaError::InvalidValue { axis, value });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for ParamVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (axis, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{axis}={value}")?;
        }
        write!(f, "}}")
    }
}

/// The feasible set of values on one axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AxisDomain {
    /// A closed real interval `[min, max]`.
    Continuous {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
    },
    /// A finite set of admissible values, kept sorted ascending.
    Discrete(Vec<f64>),
    /// Exactly one admissible value.
    Fixed(f64),
}

impl Hash for AxisDomain {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            AxisDomain::Continuous { min, max } => {
                hash_f64(*min, state);
                hash_f64(*max, state);
            }
            AxisDomain::Discrete(values) => {
                values.len().hash(state);
                for &value in values {
                    hash_f64(value, state);
                }
            }
            AxisDomain::Fixed(value) => hash_f64(*value, state),
        }
    }
}

impl AxisDomain {
    /// A validated continuous domain.
    pub fn continuous(axis: Axis, min: f64, max: f64) -> Result<AxisDomain, MediaError> {
        if !(min.is_finite() && max.is_finite()) || min > max || min < 0.0 {
            return Err(MediaError::EmptyDomain {
                axis,
                detail: format!("continuous [{min}, {max}]"),
            });
        }
        Ok(AxisDomain::Continuous { min, max })
    }

    /// A validated discrete domain; `values` is sorted and deduplicated.
    pub fn discrete(axis: Axis, mut values: Vec<f64>) -> Result<AxisDomain, MediaError> {
        values.retain(|v| v.is_finite());
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        values.dedup();
        if values.is_empty() || values[0] < 0.0 {
            return Err(MediaError::EmptyDomain {
                axis,
                detail: "discrete domain with no finite non-negative values".to_string(),
            });
        }
        Ok(AxisDomain::Discrete(values))
    }

    /// Largest admissible value.
    pub fn max(&self) -> f64 {
        match self {
            AxisDomain::Continuous { max, .. } => *max,
            AxisDomain::Discrete(values) => *values.last().expect("non-empty by construction"),
            AxisDomain::Fixed(v) => *v,
        }
    }

    /// Smallest admissible value.
    pub fn min(&self) -> f64 {
        match self {
            AxisDomain::Continuous { min, .. } => *min,
            AxisDomain::Discrete(values) => values[0],
            AxisDomain::Fixed(v) => *v,
        }
    }

    /// Whether `value` is admissible (with a small tolerance for discrete
    /// membership).
    pub fn contains(&self, value: f64) -> bool {
        match self {
            AxisDomain::Continuous { min, max } => (*min..=*max).contains(&value),
            AxisDomain::Discrete(values) => values
                .iter()
                .any(|v| (v - value).abs() <= 1e-9 * v.abs().max(1.0)),
            AxisDomain::Fixed(v) => (v - value).abs() <= 1e-9 * v.abs().max(1.0),
        }
    }

    /// The largest admissible value that is `<= limit`, or `None` if every
    /// admissible value exceeds `limit`.
    pub fn floor(&self, limit: f64) -> Option<f64> {
        match self {
            AxisDomain::Continuous { min, max } => {
                if limit < *min {
                    None
                } else {
                    Some(limit.min(*max))
                }
            }
            AxisDomain::Discrete(values) => {
                values.iter().rev().find(|&&v| v <= limit + 1e-12).copied()
            }
            AxisDomain::Fixed(v) => (*v <= limit + 1e-12).then_some(*v),
        }
    }

    /// Restrict the domain so that no value exceeds `cap`. Returns `None`
    /// if the restriction empties the domain.
    pub fn capped(&self, cap: f64) -> Option<AxisDomain> {
        match self {
            AxisDomain::Continuous { min, max } => {
                if cap < *min {
                    None
                } else {
                    Some(AxisDomain::Continuous {
                        min: *min,
                        max: max.min(cap),
                    })
                }
            }
            AxisDomain::Discrete(values) => {
                let kept: Vec<f64> = values
                    .iter()
                    .copied()
                    .filter(|&v| v <= cap + 1e-12)
                    .collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(AxisDomain::Discrete(kept))
                }
            }
            AxisDomain::Fixed(v) => (*v <= cap + 1e-12).then_some(AxisDomain::Fixed(*v)),
        }
    }

    /// A deterministic sample of up to `n` admissible values, ascending,
    /// always including the domain's min and max. Used by the grid phase
    /// of the parameter optimizer.
    pub fn sample(&self, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n.max(2)];
        let len = self.sample_into(n, &mut out);
        out.truncate(len);
        out
    }

    /// Allocation-free form of [`sample`](AxisDomain::sample): writes the
    /// sample to the front of `out` and returns its length.
    ///
    /// # Panics
    ///
    /// If `out` is shorter than `n.max(2)`.
    pub fn sample_into(&self, n: usize, out: &mut [f64]) -> usize {
        let n = n.max(2);
        let out = &mut out[..n];
        match self {
            AxisDomain::Continuous { min, max } => {
                if (max - min).abs() < 1e-12 {
                    out[0] = *min;
                    return 1;
                }
                for (i, slot) in out.iter_mut().enumerate() {
                    // The interpolation can overshoot `max` by an ulp at
                    // large magnitudes; samples must stay admissible.
                    *slot = (min + (max - min) * i as f64 / (n - 1) as f64).clamp(*min, *max);
                }
                n
            }
            AxisDomain::Discrete(values) => {
                if values.len() <= n {
                    out[..values.len()].copy_from_slice(values);
                    return values.len();
                }
                // Strided picks, with repeats of a value collapsed.
                let mut len = 0;
                for i in 0..n {
                    let value = values[i * (values.len() - 1) / (n - 1)];
                    if len == 0 || out[len - 1] != value {
                        out[len] = value;
                        len += 1;
                    }
                }
                len
            }
            AxisDomain::Fixed(v) => {
                out[0] = *v;
                1
            }
        }
    }

    /// Whether this domain admits more than one value.
    pub fn is_degenerate(&self) -> bool {
        match self {
            AxisDomain::Continuous { min, max } => (max - min).abs() < 1e-12,
            AxisDomain::Discrete(values) => values.len() == 1,
            AxisDomain::Fixed(_) => true,
        }
    }
}

/// Per-axis feasible sets: the configuration space of a trans-coding
/// service's output (or of a content variant at the sender).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DomainVector {
    domains: [Option<AxisDomain>; Axis::COUNT],
}

impl Hash for DomainVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let DomainVector { domains } = self;
        domains.hash(state);
    }
}

impl DomainVector {
    /// The empty domain vector (no axis constrained or available).
    pub fn new() -> DomainVector {
        DomainVector::default()
    }

    /// Builder-style: set the domain for `axis`.
    pub fn with(mut self, axis: Axis, domain: AxisDomain) -> DomainVector {
        self.set(axis, domain);
        self
    }

    /// Set the domain for `axis`.
    pub fn set(&mut self, axis: Axis, domain: AxisDomain) -> &mut DomainVector {
        self.domains[axis.index()] = Some(domain);
        self
    }

    /// Domain on `axis`, if any.
    pub fn get(&self, axis: Axis) -> Option<&AxisDomain> {
        self.domains[axis.index()].as_ref()
    }

    /// Axes with a domain, in index order.
    pub fn axes(&self) -> impl Iterator<Item = Axis> + '_ {
        Axis::ALL
            .iter()
            .copied()
            .filter(move |a| self.domains[a.index()].is_some())
    }

    /// `(axis, domain)` pairs, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Axis, &AxisDomain)> + '_ {
        self.axes()
            .map(move |a| (a, self.domains[a.index()].as_ref().unwrap()))
    }

    /// Number of axes with a domain.
    pub fn len(&self) -> usize {
        self.domains.iter().filter(|d| d.is_some()).count()
    }

    /// Whether no axis has a domain.
    pub fn is_empty(&self) -> bool {
        self.domains.iter().all(|d| d.is_none())
    }

    /// The best (maximal) configuration: every axis at its domain maximum.
    pub fn top(&self) -> ParamVector {
        let mut v = ParamVector::new();
        for (axis, domain) in self.iter() {
            v.set(axis, domain.max());
        }
        v
    }

    /// The worst (minimal) configuration: every axis at its domain minimum.
    pub fn bottom(&self) -> ParamVector {
        let mut v = ParamVector::new();
        for (axis, domain) in self.iter() {
            v.set(axis, domain.min());
        }
        v
    }

    /// Restrict every axis by the corresponding cap in `caps` (axes without
    /// a cap are unchanged). Returns `None` if any axis becomes infeasible —
    /// i.e. the upstream quality is already below everything this domain
    /// can produce.
    pub fn capped_by(&self, caps: &ParamVector) -> Option<DomainVector> {
        let mut out = DomainVector::new();
        for (axis, domain) in self.iter() {
            let restricted = match caps.get(axis) {
                Some(cap) => domain.capped(cap)?,
                None => domain.clone(),
            };
            out.set(axis, restricted);
        }
        Some(out)
    }

    /// Whether `point` is admissible: every axis of `self` has a value in
    /// `point` inside its domain, and `point` has no extra axes.
    pub fn contains(&self, point: &ParamVector) -> bool {
        let same_axes = Axis::ALL
            .iter()
            .all(|&a| self.get(a).is_some() == point.get(a).is_some());
        same_axes
            && self
                .iter()
                .all(|(axis, domain)| domain.contains(point.get(axis).expect("axis checked")))
    }

    /// Clamp `point` axis-wise into the domain (projecting each value to
    /// the nearest admissible value not exceeding it when possible,
    /// otherwise to the domain minimum). Axes of `self` missing from
    /// `point` are filled with the domain maximum.
    pub fn clamp(&self, point: &ParamVector) -> ParamVector {
        let mut out = ParamVector::new();
        for (axis, domain) in self.iter() {
            let value = match point.get(axis) {
                Some(v) => domain.floor(v).unwrap_or_else(|| domain.min()),
                None => domain.max(),
            };
            out.set(axis, value);
        }
        out
    }
}

impl std::fmt::Display for DomainVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (axis, domain)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match domain {
                AxisDomain::Continuous { min, max } => write!(f, "{axis}∈[{min}, {max}]")?,
                AxisDomain::Discrete(vs) => write!(f, "{axis}∈{vs:?}")?,
                AxisDomain::Fixed(v) => write!(f, "{axis}={v}")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_index_round_trips() {
        for axis in Axis::ALL {
            assert_eq!(Axis::from_index(axis.index()), Some(axis));
            assert_eq!(Axis::parse(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_index(Axis::COUNT), None);
    }

    #[test]
    fn param_vector_set_get_unset() {
        let mut v = ParamVector::new();
        assert!(v.is_empty());
        v.set(Axis::FrameRate, 30.0);
        assert_eq!(v.get(Axis::FrameRate), Some(30.0));
        assert_eq!(v.len(), 1);
        v.unset(Axis::FrameRate);
        assert!(v.is_empty());
    }

    #[test]
    fn param_vector_rejects_nan() {
        let mut v = ParamVector::new();
        v.set(Axis::FrameRate, f64::NAN);
        assert_eq!(v.get(Axis::FrameRate), None);
    }

    #[test]
    fn param_vector_meet_caps_only_common_axes() {
        let a = ParamVector::from_pairs([(Axis::FrameRate, 30.0), (Axis::PixelCount, 1e6)]);
        let caps = ParamVector::from_pairs([(Axis::FrameRate, 20.0), (Axis::ColorDepth, 8.0)]);
        let m = a.meet(&caps);
        assert_eq!(m.get(Axis::FrameRate), Some(20.0));
        assert_eq!(m.get(Axis::PixelCount), Some(1e6));
        assert_eq!(m.get(Axis::ColorDepth), None, "caps must not add axes");
    }

    #[test]
    fn le_on_common_axes_ignores_disjoint() {
        let a = ParamVector::from_pairs([(Axis::FrameRate, 10.0)]);
        let b = ParamVector::from_pairs([(Axis::SampleRate, 8000.0)]);
        assert!(a.le_on_common_axes(&b));
        let c = ParamVector::from_pairs([(Axis::FrameRate, 5.0)]);
        assert!(c.le_on_common_axes(&a));
        assert!(!a.le_on_common_axes(&c));
    }

    #[test]
    fn validate_rejects_negative() {
        let mut v = ParamVector::new();
        v.values[Axis::FrameRate.index()] = Some(-1.0);
        assert!(matches!(
            v.validate(),
            Err(MediaError::InvalidValue {
                axis: Axis::FrameRate,
                ..
            })
        ));
    }

    #[test]
    fn continuous_domain_validation() {
        assert!(AxisDomain::continuous(Axis::FrameRate, 5.0, 30.0).is_ok());
        assert!(AxisDomain::continuous(Axis::FrameRate, 30.0, 5.0).is_err());
        assert!(AxisDomain::continuous(Axis::FrameRate, -1.0, 5.0).is_err());
        assert!(AxisDomain::continuous(Axis::FrameRate, 0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn discrete_domain_sorts_and_dedups() {
        let d = AxisDomain::discrete(Axis::SampleRate, vec![44100.0, 8000.0, 44100.0, 22050.0])
            .unwrap();
        assert_eq!(d, AxisDomain::Discrete(vec![8000.0, 22050.0, 44100.0]));
        assert_eq!(d.min(), 8000.0);
        assert_eq!(d.max(), 44100.0);
    }

    #[test]
    fn domain_floor() {
        let c = AxisDomain::continuous(Axis::FrameRate, 5.0, 30.0).unwrap();
        assert_eq!(c.floor(20.0), Some(20.0));
        assert_eq!(c.floor(40.0), Some(30.0));
        assert_eq!(c.floor(1.0), None);

        let d = AxisDomain::discrete(Axis::FrameRate, vec![5.0, 15.0, 25.0]).unwrap();
        assert_eq!(d.floor(20.0), Some(15.0));
        assert_eq!(d.floor(25.0), Some(25.0));
        assert_eq!(d.floor(4.0), None);
    }

    #[test]
    fn domain_capped() {
        let c = AxisDomain::continuous(Axis::FrameRate, 5.0, 30.0).unwrap();
        assert_eq!(
            c.capped(20.0),
            Some(AxisDomain::Continuous {
                min: 5.0,
                max: 20.0
            })
        );
        assert_eq!(c.capped(4.0), None);

        let d = AxisDomain::discrete(Axis::FrameRate, vec![5.0, 15.0, 25.0]).unwrap();
        assert_eq!(d.capped(15.0), Some(AxisDomain::Discrete(vec![5.0, 15.0])));
        assert_eq!(d.capped(1.0), None);
    }

    #[test]
    fn domain_sample_includes_endpoints() {
        let c = AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap();
        let s = c.sample(4);
        assert_eq!(s.first(), Some(&0.0));
        assert_eq!(s.last(), Some(&30.0));
        assert_eq!(s.len(), 4);

        let d = AxisDomain::discrete(Axis::FrameRate, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.sample(10), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn domain_sample_into_fills_the_front_of_the_buffer() {
        let mut out = [f64::NAN; 6];
        let c = AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap();
        assert_eq!(c.sample_into(4, &mut out), 4);
        assert_eq!(out[..4], [0.0, 10.0, 20.0, 30.0]);
        // Fewer than two samples asked for is two: both ends.
        assert_eq!(c.sample_into(0, &mut out), 2);
        assert_eq!(out[..2], [0.0, 30.0]);

        let point = AxisDomain::continuous(Axis::FrameRate, 7.0, 7.0).unwrap();
        assert_eq!(point.sample_into(6, &mut out), 1);
        assert_eq!(out[0], 7.0);
        assert_eq!(AxisDomain::Fixed(3.0).sample_into(6, &mut out), 1);
        assert_eq!(out[0], 3.0);

        // A longer value set is picked at even strides, ends included.
        let values: Vec<f64> = (0..13).map(f64::from).collect();
        let d = AxisDomain::discrete(Axis::FrameRate, values).unwrap();
        assert_eq!(d.sample_into(4, &mut out), 4);
        assert_eq!(out[..4], [0.0, 4.0, 8.0, 12.0]);
        // Picks that repeat a value (a hand-built set) collapse.
        let repeats = AxisDomain::Discrete(vec![1.0, 1.0, 1.0, 2.0, 3.0]);
        assert_eq!(repeats.sample_into(3, &mut out), 2);
        assert_eq!(out[..2], [1.0, 3.0]);
        assert_eq!(repeats.sample(3), vec![1.0, 3.0]);
    }

    #[test]
    fn domain_vector_top_bottom_contains() {
        let dv = DomainVector::new()
            .with(
                Axis::FrameRate,
                AxisDomain::continuous(Axis::FrameRate, 5.0, 30.0).unwrap(),
            )
            .with(
                Axis::PixelCount,
                AxisDomain::discrete(Axis::PixelCount, vec![76800.0, 307200.0]).unwrap(),
            );
        let top = dv.top();
        assert_eq!(top.get(Axis::FrameRate), Some(30.0));
        assert_eq!(top.get(Axis::PixelCount), Some(307200.0));
        assert!(dv.contains(&top));
        assert!(dv.contains(&dv.bottom()));
        let outside = top.with(Axis::FrameRate, 31.0);
        assert!(!dv.contains(&outside));
        let extra_axis = top.with(Axis::Channels, 2.0);
        assert!(!dv.contains(&extra_axis));
    }

    #[test]
    fn domain_vector_capped_by() {
        let dv = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 5.0, 30.0).unwrap(),
        );
        let caps = ParamVector::from_pairs([(Axis::FrameRate, 23.0)]);
        let capped = dv.capped_by(&caps).unwrap();
        assert_eq!(capped.get(Axis::FrameRate).unwrap().max(), 23.0);

        let too_low = ParamVector::from_pairs([(Axis::FrameRate, 2.0)]);
        assert!(dv.capped_by(&too_low).is_none());
    }

    #[test]
    fn domain_vector_clamp() {
        let dv = DomainVector::new()
            .with(
                Axis::FrameRate,
                AxisDomain::discrete(Axis::FrameRate, vec![10.0, 20.0, 30.0]).unwrap(),
            )
            .with(
                Axis::ColorDepth,
                AxisDomain::continuous(Axis::ColorDepth, 1.0, 24.0).unwrap(),
            );
        let p = ParamVector::from_pairs([(Axis::FrameRate, 25.0)]);
        let clamped = dv.clamp(&p);
        assert_eq!(clamped.get(Axis::FrameRate), Some(20.0));
        assert_eq!(
            clamped.get(Axis::ColorDepth),
            Some(24.0),
            "missing axis fills with max"
        );
    }

    #[test]
    fn display_formats() {
        let v = ParamVector::from_pairs([(Axis::FrameRate, 30.0)]);
        assert_eq!(v.to_string(), "{frame_rate=30}");
        let dv = DomainVector::new().with(Axis::FrameRate, AxisDomain::Fixed(30.0));
        assert_eq!(dv.to_string(), "{frame_rate=30}");
    }
}
