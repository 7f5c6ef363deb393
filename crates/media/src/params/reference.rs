//! The seven-slot layout `ParamVector` and `DomainVector` replaced: one
//! `Option` per axis. Test-only, as the oracle the compact types are
//! driven against. Only the operations the oracle compares are kept,
//! each as it was written for this layout. The type names are the
//! real ones so that the derived `Debug` text is comparable.

use super::{Axis, AxisDomain};
use serde::Serialize;

/// One `Option<f64>` per axis.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct ParamVector {
    values: [Option<f64>; Axis::COUNT],
}

impl ParamVector {
    pub fn get(&self, axis: Axis) -> Option<f64> {
        self.values[axis.index()]
    }

    pub fn set(&mut self, axis: Axis, value: f64) -> &mut ParamVector {
        self.values[axis.index()] = value.is_finite().then_some(value);
        self
    }

    pub fn unset(&mut self, axis: Axis) -> &mut ParamVector {
        self.values[axis.index()] = None;
        self
    }

    pub fn iter(&self) -> impl Iterator<Item = (Axis, f64)> + '_ {
        Axis::ALL
            .iter()
            .copied()
            .filter(move |a| self.values[a.index()].is_some())
            .map(move |a| (a, self.values[a.index()].unwrap()))
    }

    pub fn len(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    pub fn meet(&self, caps: &ParamVector) -> ParamVector {
        let mut out = *self;
        for axis in Axis::ALL {
            if let (Some(own), Some(cap)) = (self.get(axis), caps.get(axis)) {
                out.set(axis, own.min(cap));
            }
        }
        out
    }

    pub fn le_on_common_axes(&self, other: &ParamVector) -> bool {
        Axis::ALL
            .iter()
            .all(|&axis| match (self.get(axis), other.get(axis)) {
                (Some(a), Some(b)) => a <= b + 1e-12,
                _ => true,
            })
    }
}

/// One `Option<AxisDomain>` per axis.
#[derive(Debug, Clone, PartialEq, Default, Hash, Serialize)]
pub struct DomainVector {
    domains: [Option<AxisDomain>; Axis::COUNT],
}

impl DomainVector {
    pub fn set(&mut self, axis: Axis, domain: AxisDomain) -> &mut DomainVector {
        self.domains[axis.index()] = Some(domain);
        self
    }

    pub fn get(&self, axis: Axis) -> Option<&AxisDomain> {
        self.domains[axis.index()].as_ref()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Axis, &AxisDomain)> + '_ {
        Axis::ALL
            .iter()
            .copied()
            .filter(move |a| self.domains[a.index()].is_some())
            .map(move |a| (a, self.domains[a.index()].as_ref().unwrap()))
    }

    pub fn len(&self) -> usize {
        self.domains.iter().filter(|d| d.is_some()).count()
    }

    pub fn top(&self) -> ParamVector {
        let mut v = ParamVector::default();
        for (axis, domain) in self.iter() {
            v.set(axis, domain.max());
        }
        v
    }

    pub fn bottom(&self) -> ParamVector {
        let mut v = ParamVector::default();
        for (axis, domain) in self.iter() {
            v.set(axis, domain.min());
        }
        v
    }

    pub fn capped_by(&self, caps: &ParamVector) -> Option<DomainVector> {
        let mut out = DomainVector::default();
        for (axis, domain) in self.iter() {
            let restricted = match caps.get(axis) {
                Some(cap) => domain.capped(cap)?,
                None => domain.clone(),
            };
            out.set(axis, restricted);
        }
        Some(out)
    }

    pub fn contains(&self, point: &ParamVector) -> bool {
        let same_axes = Axis::ALL
            .iter()
            .all(|&a| self.get(a).is_some() == point.get(a).is_some());
        same_axes
            && self
                .iter()
                .all(|(axis, domain)| domain.contains(point.get(axis).expect("axis checked")))
    }

    pub fn clamp(&self, point: &ParamVector) -> ParamVector {
        let mut out = ParamVector::default();
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
