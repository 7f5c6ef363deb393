//! Content profiles.
//!
//! "Multimedia content might enclose different media types … Each type
//! has its format characteristics and parameters that can be used to
//! describe the media. Such information about the content may include
//! storage features, variants, author and production, usage, and many
//! other metadata." — Section 3. The paper points at MPEG-7; we keep the
//! descriptive metadata the algorithm and reports actually consume.

use crate::{ProfileError, Result};
use qosc_media::{
    hash_f64, Axis, AxisDomain, ContentVariant, DomainVector, FormatRegistry, MediaKind,
    VariantSpec,
};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Descriptive metadata plus the variant list of one piece of content.
///
/// "The output links of the sender are defined in the content profile,
/// which includes … meta-data information (including type and format) of
/// all the possible variants of the content. Each output link of the
/// sender vertex corresponds to one variant with a certain format."
/// — Section 4.2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentProfile {
    /// Title of the content.
    pub title: String,
    /// Author / production metadata.
    pub author: String,
    /// Duration of the content in seconds (0 for stills / pages).
    pub duration_secs: f64,
    /// Search keywords (MPEG-7 "usage" style metadata; informational).
    pub keywords: Vec<String>,
    /// The variants the sender can emit, each naming a format in the
    /// scenario registry. Order matters: it is the listing order used by
    /// deterministic tie-breaking in the selection algorithm.
    pub variants: Vec<VariantSpec>,
}

impl Hash for ContentProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ContentProfile {
            title,
            author,
            duration_secs,
            keywords,
            variants,
        } = self;
        title.hash(state);
        author.hash(state);
        hash_f64(*duration_secs, state);
        keywords.hash(state);
        variants.hash(state);
    }
}

impl ContentProfile {
    /// A content profile with the given title and variants.
    pub fn new(title: impl Into<String>, variants: Vec<VariantSpec>) -> ContentProfile {
        ContentProfile {
            title: title.into(),
            author: String::new(),
            duration_secs: 0.0,
            keywords: Vec::new(),
            variants,
        }
    }

    /// Builder-style author.
    pub fn with_author(mut self, author: impl Into<String>) -> ContentProfile {
        self.author = author.into();
        self
    }

    /// Builder-style duration.
    pub fn with_duration(mut self, duration_secs: f64) -> ContentProfile {
        self.duration_secs = duration_secs;
        self
    }

    /// Resolve every variant's format name against `registry`, in listing
    /// order. Unknown names (and abstract formats not yet interned) are
    /// an error — scenarios must intern their formats first.
    pub fn resolve(&self, registry: &FormatRegistry) -> Result<Vec<ContentVariant>> {
        self.variants
            .iter()
            .map(|spec| {
                let format = registry.lookup(&spec.format)?;
                Ok(ContentVariant::new(format, spec.offered.clone()))
            })
            .collect()
    }

    /// Validate structure: at least one variant, no duplicate formats,
    /// non-negative duration.
    pub fn validate(&self) -> Result<()> {
        if self.variants.is_empty() {
            return Err(ProfileError::Invalid(format!(
                "content `{}` offers no variants",
                self.title
            )));
        }
        // Deliberate negated comparison: NaN durations must be rejected.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.duration_secs >= 0.0) {
            return Err(ProfileError::Invalid(format!(
                "content `{}` has negative duration",
                self.title
            )));
        }
        for (i, a) in self.variants.iter().enumerate() {
            if self.variants[..i].iter().any(|b| b.format == a.format) {
                return Err(ProfileError::Invalid(format!(
                    "content `{}` lists format `{}` twice",
                    self.title, a.format
                )));
            }
        }
        Ok(())
    }

    /// A demo 30 fps VGA MPEG-2 video with an MPEG-1 fallback variant.
    pub fn demo_video(title: &str) -> ContentProfile {
        let offered = DomainVector::new()
            .with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 1.0,
                    max: 30.0,
                },
            )
            .with(
                Axis::PixelCount,
                AxisDomain::Continuous {
                    min: 19_200.0,
                    max: 307_200.0,
                },
            )
            .with(
                Axis::ColorDepth,
                AxisDomain::Continuous {
                    min: 8.0,
                    max: 24.0,
                },
            );
        ContentProfile::new(
            title,
            vec![
                VariantSpec {
                    format: "video/mpeg2".to_string(),
                    offered: offered.clone(),
                },
                VariantSpec {
                    format: "video/mpeg1".to_string(),
                    offered,
                },
            ],
        )
        .with_author("demo studio")
        .with_duration(120.0)
    }

    /// The dominant media kind of the content according to `registry`
    /// (kind of the first resolvable variant).
    pub fn primary_kind(&self, registry: &FormatRegistry) -> Option<MediaKind> {
        self.variants.iter().find_map(|v| {
            let id = registry.lookup(&v.format).ok()?;
            registry.spec(id).ok().map(|s| s.kind)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_against_builtins() {
        let registry = FormatRegistry::with_builtins();
        let profile = ContentProfile::demo_video("clip");
        let variants = profile.resolve(&registry).unwrap();
        assert_eq!(variants.len(), 2);
        assert_eq!(registry.name(variants[0].format), "video/mpeg2");
        assert_eq!(
            variants[0].best().get(Axis::FrameRate),
            Some(30.0),
            "best configuration is the domain top"
        );
    }

    #[test]
    fn resolve_unknown_format_fails() {
        let registry = FormatRegistry::new();
        let profile = ContentProfile::demo_video("clip");
        assert!(matches!(
            profile.resolve(&registry),
            Err(ProfileError::Media(_))
        ));
    }

    #[test]
    fn validate_rejects_empty_and_duplicates() {
        let empty = ContentProfile::new("x", vec![]);
        assert!(empty.validate().is_err());

        let dup = ContentProfile::new(
            "y",
            vec![
                VariantSpec {
                    format: "f".to_string(),
                    offered: DomainVector::new(),
                },
                VariantSpec {
                    format: "f".to_string(),
                    offered: DomainVector::new(),
                },
            ],
        );
        assert!(dup.validate().is_err());
    }

    #[test]
    fn primary_kind_uses_first_variant() {
        let registry = FormatRegistry::with_builtins();
        let profile = ContentProfile::demo_video("clip");
        assert_eq!(profile.primary_kind(&registry), Some(MediaKind::Video));
    }

    #[test]
    fn serde_round_trip() {
        let profile = ContentProfile::demo_video("clip");
        let json = serde_json::to_string(&profile).unwrap();
        assert_eq!(
            serde_json::from_str::<ContentProfile>(&json).unwrap(),
            profile
        );
    }
}
