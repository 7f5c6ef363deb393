//! Content variants.
//!
//! A content profile (Section 3, "Content Profile") lists the variants of a
//! piece of content the sender can emit. Each output link of the sender
//! vertex in the adaptation graph "corresponds to one variant with a
//! certain format" (Section 4.2).

use crate::format::FormatId;
use crate::params::{DomainVector, ParamVector};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// One variant of a piece of content: a format plus the quality the sender
/// can offer in that format.
///
/// `offered` is a *domain*, not a point: a source that holds a 30 fps
/// master can emit that variant at any frame rate up to 30. The selection
/// algorithm picks the operating point inside the domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentVariant {
    /// The encoding of this variant.
    pub format: FormatId,
    /// Quality configurations the sender can produce for this variant.
    pub offered: DomainVector,
}

impl ContentVariant {
    /// A variant offering every configuration in `offered`.
    pub fn new(format: FormatId, offered: DomainVector) -> ContentVariant {
        ContentVariant { format, offered }
    }

    /// The best configuration the sender can emit for this variant.
    pub fn best(&self) -> ParamVector {
        self.offered.top()
    }
}

/// A serializable, registry-independent description of a variant, used in
/// profile files (formats by name). Resolution to [`ContentVariant`]
/// happens in `qosc-profiles`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantSpec {
    /// Format name, resolved against the scenario's [`crate::FormatRegistry`].
    pub format: String,
    /// Offered quality configurations.
    pub offered: DomainVector,
}

impl Hash for VariantSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let VariantSpec { format, offered } = self;
        format.hash(state);
        offered.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Axis, AxisDomain};
    use crate::{FormatRegistry, MediaKind};

    #[test]
    fn best_is_domain_top() {
        let mut reg = FormatRegistry::new();
        let f = reg.register_abstract("F1", MediaKind::Video);
        let v = ContentVariant::new(
            f,
            DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap(),
            ),
        );
        assert_eq!(v.best().get(Axis::FrameRate), Some(30.0));
    }

    #[test]
    fn variant_spec_serde_round_trip() {
        let spec = VariantSpec {
            format: "video/mpeg2".to_string(),
            offered: DomainVector::new().with(Axis::FrameRate, AxisDomain::Fixed(25.0)),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: VariantSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
