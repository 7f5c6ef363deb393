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
use serde::{DeError, Deserialize, Serialize, Value};
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
///
/// Stored as a presence mask beside a fixed array of seven values
/// (64 bytes, where seven `Option<f64>` slots took 112). An unset slot
/// always holds `0.0`, so the derived `PartialEq` compares exactly the
/// axes that are set. `Debug` and the serde form still show the seven
/// slots as options: `{"values":[30,null,…]}`.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct ParamVector {
    /// Slot `i` holds axis `i`'s value when bit `i` of `mask` is on,
    /// and `0.0` when it is off.
    values: [f64; Axis::COUNT],
    /// Bit `axis.index()` is on when that axis has a value.
    mask: u8,
}

/// The axes whose bits are on in `mask`, in index order.
fn mask_axes(mut mask: u8) -> impl Iterator<Item = Axis> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let index = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(Axis::ALL[index])
    })
}

/// The mask bit of `axis`.
fn bit(axis: Axis) -> u8 {
    1 << axis.index()
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
    #[inline]
    pub fn get(&self, axis: Axis) -> Option<f64> {
        (self.mask & bit(axis) != 0).then_some(self.values[axis.index()])
    }

    /// Set `axis` to `value` (overwrites). Non-finite values are stored as
    /// unset, so a `ParamVector` never contains NaN.
    pub fn set(&mut self, axis: Axis, value: f64) -> &mut ParamVector {
        if value.is_finite() {
            self.values[axis.index()] = value;
            self.mask |= bit(axis);
            self
        } else {
            self.unset(axis)
        }
    }

    /// Builder-style [`ParamVector::set`].
    pub fn with(mut self, axis: Axis, value: f64) -> ParamVector {
        self.set(axis, value);
        self
    }

    /// Remove `axis` from the vector.
    pub fn unset(&mut self, axis: Axis) -> &mut ParamVector {
        self.values[axis.index()] = 0.0;
        self.mask &= !bit(axis);
        self
    }

    /// Axes that have a value, in index order.
    pub fn axes(&self) -> impl Iterator<Item = Axis> + '_ {
        mask_axes(self.mask)
    }

    /// `(axis, value)` pairs, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Axis, f64)> + '_ {
        self.axes().map(move |a| (a, self.values[a.index()]))
    }

    /// Number of axes set.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether no axis is set.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
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
        for axis in mask_axes(self.mask & caps.mask) {
            let i = axis.index();
            out.set(axis, self.values[i].min(caps.values[i]));
        }
        out
    }

    /// True if on every axis set in both vectors, `self`'s value is less
    /// than or equal to `other`'s (i.e. `self` is a degraded-or-equal
    /// configuration). Axes present in only one vector are ignored.
    pub fn le_on_common_axes(&self, other: &ParamVector) -> bool {
        mask_axes(self.mask & other.mask)
            .all(|axis| self.values[axis.index()] <= other.values[axis.index()] + 1e-12)
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

    /// The seven slots as options, in index order: the shape `Debug` and
    /// serde show.
    fn slots(&self) -> [Option<f64>; Axis::COUNT] {
        std::array::from_fn(|i| self.get(Axis::ALL[i]))
    }
}

impl std::fmt::Debug for ParamVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamVector")
            .field("values", &self.slots())
            .finish()
    }
}

impl Serialize for ParamVector {
    fn to_value(&self) -> Value {
        Value::Obj(vec![(String::from("values"), self.slots().to_value())])
    }
}

impl Deserialize for ParamVector {
    fn from_value(value: &Value) -> Result<ParamVector, DeError> {
        let entries = value
            .as_obj()
            .ok_or_else(|| DeError::expected("object for ParamVector", value))?;
        let slots: [Option<f64>; Axis::COUNT] = serde::field(entries, "values")?;
        // Stored as read, like the seven-option form did: a document
        // is not filtered through `set`.
        let mut out = ParamVector::new();
        for (axis, slot) in Axis::ALL.into_iter().zip(slots) {
            if let Some(value) = slot {
                out.values[axis.index()] = value;
                out.mask |= bit(axis);
            }
        }
        Ok(out)
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
///
/// Stored as a presence mask and only the domains that are present, in
/// axis order: the first inline, the rest in a boxed slice that stays
/// unallocated for the one-axis domains most services advertise
/// (48 bytes, where seven `Option<AxisDomain>` slots took 168).
/// `Debug`, serde and `Hash` still see the seven slots as options, so
/// text, documents and hash values read as they did for that layout.
#[derive(Clone, PartialEq, Default)]
pub struct DomainVector {
    /// The domain of the lowest-indexed axis in `mask`.
    head: Option<AxisDomain>,
    /// The domains of the other axes in `mask`, in index order.
    tail: Box<[AxisDomain]>,
    /// Bit `axis.index()` is on when that axis has a domain.
    mask: u8,
}

impl Hash for DomainVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Slot by slot, as the seven-option array hashed.
        self.slots().hash(state);
    }
}

impl DomainVector {
    /// The empty domain vector (no axis constrained or available).
    pub fn new() -> DomainVector {
        DomainVector::default()
    }

    /// The vector with a domain on each axis of `mask`, taken from
    /// `domains` in index order.
    fn from_parts(mask: u8, mut domains: impl Iterator<Item = AxisDomain>) -> DomainVector {
        let head = domains.next();
        let mut tail = Vec::with_capacity((mask.count_ones() as usize).saturating_sub(1));
        tail.extend(domains);
        debug_assert_eq!(
            head.is_some() as usize + tail.len(),
            mask.count_ones() as usize
        );
        DomainVector {
            head,
            tail: tail.into_boxed_slice(),
            mask,
        }
    }

    /// The present domains, in index order.
    fn domains(&self) -> impl Iterator<Item = &AxisDomain> + '_ {
        self.head.iter().chain(self.tail.iter())
    }

    /// Where `axis`'s domain sits among the present ones.
    fn rank(&self, axis: Axis) -> usize {
        (self.mask & (bit(axis) - 1)).count_ones() as usize
    }

    /// Builder-style: set the domain for `axis`.
    pub fn with(mut self, axis: Axis, domain: AxisDomain) -> DomainVector {
        self.set(axis, domain);
        self
    }

    /// Set the domain for `axis`.
    pub fn set(&mut self, axis: Axis, domain: AxisDomain) -> &mut DomainVector {
        let rank = self.rank(axis);
        if self.mask & bit(axis) != 0 {
            *self.slot_mut(rank) = domain;
        } else if self.mask == 0 {
            self.head = Some(domain);
            self.mask = bit(axis);
        } else {
            let mut domains: Vec<AxisDomain> = self.head.take().into_iter().collect();
            domains.extend(std::mem::take(&mut self.tail).into_vec());
            domains.insert(rank, domain);
            *self = DomainVector::from_parts(self.mask | bit(axis), domains.into_iter());
        }
        self
    }

    /// Domain on `axis`, if any.
    #[inline]
    pub fn get(&self, axis: Axis) -> Option<&AxisDomain> {
        if self.mask & bit(axis) == 0 {
            return None;
        }
        match self.rank(axis) {
            0 => self.head.as_ref(),
            rank => self.tail.get(rank - 1),
        }
    }

    /// Axes with a domain, in index order.
    pub fn axes(&self) -> impl Iterator<Item = Axis> + '_ {
        mask_axes(self.mask)
    }

    /// `(axis, domain)` pairs, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Axis, &AxisDomain)> + '_ {
        self.axes().zip(self.domains())
    }

    /// Number of axes with a domain.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether no axis has a domain.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
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
        self.capped_by_into(caps, &mut out).then_some(out)
    }

    /// [`capped_by`](DomainVector::capped_by) written into `out`, whose
    /// storage is reused when it has as many axes as `self`: a caller
    /// that keeps one `out` across calls allocates nothing for
    /// continuous and fixed domains. Returns `false` when an axis
    /// becomes infeasible; `out` then holds some valid vector.
    pub fn capped_by_into(&self, caps: &ParamVector, out: &mut DomainVector) -> bool {
        out.reshape(self.mask);
        for (slot, (axis, domain)) in self.iter().enumerate() {
            let restricted = match caps.get(axis) {
                Some(cap) => match domain.capped(cap) {
                    Some(restricted) => restricted,
                    None => return false,
                },
                None => domain.clone(),
            };
            *out.slot_mut(slot) = restricted;
        }
        true
    }

    /// Make this the downward closure of `point`: `[0, v]` on every axis
    /// `v` of `point`, and no other axis. Reuses the storage as
    /// [`capped_by_into`](DomainVector::capped_by_into) does.
    pub fn set_downward_closure(&mut self, point: &ParamVector) {
        self.reshape(point.mask);
        for (slot, (_, value)) in point.iter().enumerate() {
            *self.slot_mut(slot) = AxisDomain::Continuous {
                min: 0.0,
                max: value,
            };
        }
    }

    /// Give `self` a domain on exactly the axes of `mask`, keeping the
    /// tail's allocation when the axis count does not change. The
    /// domains are placeholders for the caller to overwrite.
    fn reshape(&mut self, mask: u8) {
        let placeholder = || AxisDomain::Fixed(0.0);
        let count = mask.count_ones() as usize;
        if count == 0 {
            self.head = None;
        } else if self.head.is_none() {
            self.head = Some(placeholder());
        }
        if self.tail.len() != count.saturating_sub(1) {
            self.tail = (1..count).map(|_| placeholder()).collect();
        }
        self.mask = mask;
    }

    /// The `slot`-th present domain, for writing.
    fn slot_mut(&mut self, slot: usize) -> &mut AxisDomain {
        match slot {
            0 => self.head.get_or_insert(AxisDomain::Fixed(0.0)),
            _ => &mut self.tail[slot - 1],
        }
    }

    /// Whether `point` is admissible: every axis of `self` has a value in
    /// `point` inside its domain, and `point` has no extra axes.
    pub fn contains(&self, point: &ParamVector) -> bool {
        self.mask == point.mask
            && self
                .iter()
                .all(|(axis, domain)| domain.contains(point.values[axis.index()]))
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

    /// The seven slots as options, in index order: the shape `Debug`,
    /// serde and `Hash` see.
    fn slots(&self) -> [Option<&AxisDomain>; Axis::COUNT] {
        let mut domains = self.domains();
        std::array::from_fn(|i| {
            if self.mask & (1 << i) != 0 {
                domains.next()
            } else {
                None
            }
        })
    }
}

impl std::fmt::Debug for DomainVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainVector")
            .field("domains", &self.slots())
            .finish()
    }
}

impl Serialize for DomainVector {
    fn to_value(&self) -> Value {
        Value::Obj(vec![(String::from("domains"), self.slots().to_value())])
    }
}

impl Deserialize for DomainVector {
    fn from_value(value: &Value) -> Result<DomainVector, DeError> {
        let entries = value
            .as_obj()
            .ok_or_else(|| DeError::expected("object for DomainVector", value))?;
        let slots: [Option<AxisDomain>; Axis::COUNT] = serde::field(entries, "domains")?;
        let mask = Axis::ALL
            .into_iter()
            .filter(|&axis| slots[axis.index()].is_some())
            .fold(0, |mask, axis| mask | bit(axis));
        Ok(DomainVector::from_parts(mask, slots.into_iter().flatten()))
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
mod reference;

#[cfg(test)]
mod oracle {
    //! The compact `ParamVector` and `DomainVector` against the
    //! seven-slot layout they replaced (`reference.rs`): random op
    //! sequences applied to both, every observable compared after each
    //! op — values, iteration order, `==`, `Debug`, the serde JSON and,
    //! for domains, the `Hash` input sequence.

    use super::reference;
    use super::*;
    use proptest::prelude::*;
    use std::hash::DefaultHasher;

    #[derive(Debug, Clone)]
    enum Op {
        Set(Axis, f64),
        Unset(Axis),
        Meet(Vec<(Axis, f64)>),
        SetDomain(Axis, AxisDomain),
        CappedBy(Vec<(Axis, f64)>),
        /// `capped_by_into` the scratch vector kept across ops.
        CappedByInto(Vec<(Axis, f64)>),
        /// `set_downward_closure` of the worked-on params into the
        /// scratch vector.
        DownwardClosure,
        Clamp,
        Top,
        Bottom,
        /// Swap the worked-on pair with the second pair, which `==`
        /// compares against.
        Swap,
    }

    fn arb_axis() -> impl Strategy<Value = Axis> {
        (0..Axis::COUNT).prop_map(|i| Axis::ALL[i])
    }

    /// Mostly ordinary values, with the edges `set` and `==` treat
    /// specially: signed zeros, negatives, non-finite values.
    fn arb_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..100.0,
            0.0f64..1e7,
            (0u32..4).prop_map(f64::from),
            Just(-0.0),
            Just(-1.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
        ]
    }

    fn arb_domain() -> impl Strategy<Value = AxisDomain> {
        prop_oneof![
            (0.0f64..100.0, 0.0f64..100.0).prop_map(|(a, b)| AxisDomain::Continuous {
                min: a.min(b),
                max: a.max(b),
            }),
            proptest::collection::vec(0.0f64..100.0, 1..5).prop_map(|mut values| {
                values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                AxisDomain::Discrete(values)
            }),
            (0u32..4).prop_map(|v| AxisDomain::Fixed(f64::from(v))),
        ]
    }

    fn arb_pairs() -> impl Strategy<Value = Vec<(Axis, f64)>> {
        proptest::collection::vec((arb_axis(), arb_value()), 0..5)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_axis(), arb_value()).prop_map(|(a, v)| Op::Set(a, v)),
            (arb_axis(), arb_value()).prop_map(|(a, v)| Op::Set(a, v)),
            arb_axis().prop_map(Op::Unset),
            arb_pairs().prop_map(Op::Meet),
            (arb_axis(), arb_domain()).prop_map(|(a, d)| Op::SetDomain(a, d)),
            (arb_axis(), arb_domain()).prop_map(|(a, d)| Op::SetDomain(a, d)),
            arb_pairs().prop_map(Op::CappedBy),
            arb_pairs().prop_map(Op::CappedByInto),
            Just(Op::DownwardClosure),
            Just(Op::Clamp),
            Just(Op::Top),
            Just(Op::Bottom),
            Just(Op::Swap),
        ]
    }

    /// One side's worked-on pair and its second pair.
    #[derive(Default)]
    struct Compact {
        params: [ParamVector; 2],
        domains: [DomainVector; 2],
        /// Written in place by the `*Into` ops, never reset.
        scratch: DomainVector,
    }

    #[derive(Default)]
    struct Reference {
        params: [reference::ParamVector; 2],
        domains: [reference::DomainVector; 2],
    }

    fn ref_params(pairs: &[(Axis, f64)]) -> reference::ParamVector {
        let mut out = reference::ParamVector::default();
        for &(axis, value) in pairs {
            out.set(axis, value);
        }
        out
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut state = DefaultHasher::new();
        value.hash(&mut state);
        state.finish()
    }

    fn agree_params(compact: &ParamVector, reference: &reference::ParamVector) {
        assert_eq!(format!("{compact:?}"), format!("{reference:?}"));
        let compact_pairs: Vec<(Axis, u64)> =
            compact.iter().map(|(a, v)| (a, v.to_bits())).collect();
        let reference_pairs: Vec<(Axis, u64)> =
            reference.iter().map(|(a, v)| (a, v.to_bits())).collect();
        assert_eq!(compact_pairs, reference_pairs, "iter");
        assert!(compact.axes().eq(reference.iter().map(|(a, _)| a)), "axes");
        assert_eq!(compact.len(), reference.len());
        assert_eq!(compact.is_empty(), reference.len() == 0);
        for axis in Axis::ALL {
            assert_eq!(
                compact.get(axis).map(f64::to_bits),
                reference.get(axis).map(f64::to_bits)
            );
        }
        let json = serde_json::to_string(compact).unwrap();
        assert_eq!(json, serde_json::to_string(reference).unwrap());
        assert_eq!(
            serde_json::from_str::<ParamVector>(&json).unwrap(),
            *compact
        );
    }

    fn agree_domains(compact: &DomainVector, reference: &reference::DomainVector) {
        assert_eq!(format!("{compact:?}"), format!("{reference:?}"));
        assert!(compact.iter().eq(reference.iter()), "iter");
        assert!(compact.axes().eq(reference.iter().map(|(a, _)| a)), "axes");
        assert_eq!(compact.len(), reference.len());
        assert_eq!(compact.is_empty(), reference.len() == 0);
        for axis in Axis::ALL {
            assert_eq!(compact.get(axis), reference.get(axis));
        }
        assert_eq!(hash_of(compact), hash_of(reference), "hash");
        let json = serde_json::to_string(compact).unwrap();
        assert_eq!(json, serde_json::to_string(reference).unwrap());
        assert_eq!(
            &serde_json::from_str::<DomainVector>(&json).unwrap(),
            compact
        );
        agree_params(&compact.top(), &reference.top());
        agree_params(&compact.bottom(), &reference.bottom());
    }

    fn agree(compact: &Compact, reference: &Reference) {
        for side in 0..2 {
            agree_params(&compact.params[side], &reference.params[side]);
            agree_domains(&compact.domains[side], &reference.domains[side]);
        }
        let [p, q] = &compact.params;
        let [rp, rq] = &reference.params;
        assert_eq!(p == q, rp == rq, "== on params");
        assert_eq!(p.le_on_common_axes(q), rp.le_on_common_axes(rq));
        let [d, e] = &compact.domains;
        let [rd, re] = &reference.domains;
        assert_eq!(d == e, rd == re, "== on domains");
        assert_eq!(d.contains(p), rd.contains(rp), "contains");
        assert_eq!(d.contains(&d.top()), rd.contains(&rd.top()), "contains top");
        agree_params(&d.clamp(p), &rd.clamp(rp));
    }

    fn apply(op: &Op, compact: &mut Compact, reference: &mut Reference) {
        let (p, rp) = (&mut compact.params[0], &mut reference.params[0]);
        let (d, rd) = (&mut compact.domains[0], &mut reference.domains[0]);
        match op {
            Op::Set(axis, value) => {
                p.set(*axis, *value);
                rp.set(*axis, *value);
            }
            Op::Unset(axis) => {
                p.unset(*axis);
                rp.unset(*axis);
            }
            Op::Meet(pairs) => {
                *p = p.meet(&ParamVector::from_pairs(pairs.iter().copied()));
                *rp = rp.meet(&ref_params(pairs));
            }
            Op::SetDomain(axis, domain) => {
                d.set(*axis, domain.clone());
                rd.set(*axis, domain.clone());
            }
            Op::CappedBy(pairs) => {
                let capped = d.capped_by(&ParamVector::from_pairs(pairs.iter().copied()));
                let ref_capped = rd.capped_by(&ref_params(pairs));
                assert_eq!(
                    capped.is_some(),
                    ref_capped.is_some(),
                    "capped_by feasibility"
                );
                if let (Some(capped), Some(ref_capped)) = (capped, ref_capped) {
                    *d = capped;
                    *rd = ref_capped;
                }
            }
            Op::CappedByInto(pairs) => {
                let scratch = &mut compact.scratch;
                let feasible =
                    d.capped_by_into(&ParamVector::from_pairs(pairs.iter().copied()), scratch);
                let ref_capped = rd.capped_by(&ref_params(pairs));
                assert_eq!(feasible, ref_capped.is_some(), "capped_by_into feasibility");
                if let Some(ref_capped) = ref_capped {
                    agree_domains(scratch, &ref_capped);
                    *d = scratch.clone();
                    *rd = ref_capped;
                }
            }
            Op::DownwardClosure => {
                let scratch = &mut compact.scratch;
                scratch.set_downward_closure(p);
                let mut ref_closure = reference::DomainVector::default();
                for (axis, value) in rp.iter() {
                    ref_closure.set(
                        axis,
                        AxisDomain::Continuous {
                            min: 0.0,
                            max: value,
                        },
                    );
                }
                agree_domains(scratch, &ref_closure);
                *d = scratch.clone();
                *rd = ref_closure;
            }
            Op::Clamp => {
                *p = d.clamp(p);
                *rp = rd.clamp(rp);
            }
            Op::Top => {
                *p = d.top();
                *rp = rd.top();
            }
            Op::Bottom => {
                *p = d.bottom();
                *rp = rd.bottom();
            }
            Op::Swap => {
                compact.params.swap(0, 1);
                compact.domains.swap(0, 1);
                reference.params.swap(0, 1);
                reference.domains.swap(0, 1);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1_000, ..ProptestConfig::default() })]

        #[test]
        fn compact_vectors_match_the_seven_slot_layout(
            ops in proptest::collection::vec(arb_op(), 0..40)
        ) {
            let mut compact = Compact::default();
            let mut reference = Reference::default();
            agree(&compact, &reference);
            for op in &ops {
                apply(op, &mut compact, &mut reference);
                agree(&compact, &reference);
            }
        }
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
        let v = ParamVector::new().with(Axis::FrameRate, -1.0);
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

    /// The JSON, `Debug` text and hash value the seven-slot layout
    /// produced for these vectors, pinned byte for byte.
    #[test]
    fn serde_debug_and_hash_match_the_seven_slot_layout() {
        use std::hash::DefaultHasher;

        let v = ParamVector::new()
            .with(Axis::FrameRate, 30.0)
            .with(Axis::PixelCount, 76800.5)
            .with(Axis::Fidelity, 0.25);
        let dv = DomainVector::new()
            .with(
                Axis::PixelCount,
                AxisDomain::Discrete(vec![76800.0, 307200.0]),
            )
            .with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 5.0,
                    max: 30.0,
                },
            )
            .with(Axis::Fidelity, AxisDomain::Fixed(80.0));
        let golden_json = [
            (
                serde_json::to_string(&v).unwrap(),
                r#"{"values":[30,76800.5,null,null,null,null,0.25]}"#,
            ),
            (
                serde_json::to_string(&ParamVector::new()).unwrap(),
                r#"{"values":[null,null,null,null,null,null,null]}"#,
            ),
            (
                serde_json::to_string(&dv).unwrap(),
                r#"{"domains":[{"Continuous":{"min":5,"max":30}},{"Discrete":[76800,307200]},null,null,null,null,{"Fixed":80}]}"#,
            ),
            (
                serde_json::to_string(&DomainVector::new()).unwrap(),
                r#"{"domains":[null,null,null,null,null,null,null]}"#,
            ),
        ];
        for (json, golden) in &golden_json {
            assert_eq!(json, golden);
        }
        assert_eq!(
            serde_json::from_str::<ParamVector>(&golden_json[0].0).unwrap(),
            v
        );
        assert_eq!(
            serde_json::from_str::<DomainVector>(&golden_json[2].0).unwrap(),
            dv
        );

        assert_eq!(
            format!("{v:?}"),
            "ParamVector { values: [Some(30.0), Some(76800.5), None, None, None, None, Some(0.25)] }"
        );
        assert_eq!(
            format!("{:?}", ParamVector::new()),
            "ParamVector { values: [None, None, None, None, None, None, None] }"
        );
        assert_eq!(
            format!("{dv:?}"),
            "DomainVector { domains: [Some(Continuous { min: 5.0, max: 30.0 }), \
             Some(Discrete([76800.0, 307200.0])), None, None, None, None, Some(Fixed(80.0))] }"
        );
        assert_eq!(
            format!(
                "{:#?}",
                DomainVector::new().with(Axis::SampleRate, AxisDomain::Fixed(8000.0))
            ),
            "DomainVector {\n    domains: [\n        None,\n        None,\n        None,\n        \
             Some(\n            Fixed(\n                8000.0,\n            ),\n        ),\n        \
             None,\n        None,\n        None,\n    ],\n}"
        );
        assert_eq!(
            format!("{:#?}", ParamVector::new().with(Axis::Channels, 2.0)),
            "ParamVector {\n    values: [\n        None,\n        None,\n        None,\n        None,\n        \
             Some(\n            2.0,\n        ),\n        None,\n        None,\n    ],\n}"
        );

        let mut state = DefaultHasher::new();
        dv.hash(&mut state);
        assert_eq!(state.finish(), 0xf28d_ecff_ad2d_3188);
    }

    #[test]
    fn display_formats() {
        let v = ParamVector::from_pairs([(Axis::FrameRate, 30.0)]);
        assert_eq!(v.to_string(), "{frame_rate=30}");
        let dv = DomainVector::new().with(Axis::FrameRate, AxisDomain::Fixed(30.0));
        assert_eq!(dv.to_string(), "{frame_rate=30}");
    }
}
