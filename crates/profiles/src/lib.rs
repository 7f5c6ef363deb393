//! # qosc-profiles
//!
//! The six profiles Section 3 of the paper requires for customized content
//! adaptation: "user preferences, media content profile, network profile,
//! context profile, device profile, and the profile of intermediaries".
//!
//! The paper points at MPEG-7 / MPEG-21 / UAProf for the wire format of
//! these descriptions; we substitute typed Rust structs with JSON
//! interchange (serde), because the composition algorithm consumes only
//! the *information content* of the profiles:
//!
//! * [`UserProfile`] — satisfaction preferences per QoS axis (Section
//!   4.1), the user's budget (Figure 4), and adaptation policies,
//! * [`ContentProfile`] — the variants the sender can emit; each variant
//!   becomes one output link of the sender vertex (Section 4.2),
//! * [`DeviceProfile`] — the receiver's decoders (the input links of the
//!   receiver vertex) and hardware capability caps,
//! * [`NetworkProfile`] — access-network characteristics (used by the
//!   workload generators to provision last-mile links),
//! * [`ContextProfile`] — dynamic environment information that adjusts
//!   the satisfaction profile (e.g. a noisy room devalues audio quality),
//! * [`IntermediaryProfile`] — per-proxy resources plus the descriptions
//!   of the trans-coding services it offers ([`ServiceSpec`]), the wire
//!   form that `qosc-services` resolves into runtime descriptors.
//!
//! Profiles are *registry-independent*: they name formats by string and
//! are resolved against the scenario's
//! [`FormatRegistry`](qosc_media::FormatRegistry) when the adaptation
//! graph is built.

pub mod content;
pub mod context;
pub mod device;
pub mod intermediary;
pub mod network;
pub mod service_spec;
pub mod user;

pub use content::ContentProfile;
pub use context::ContextProfile;
pub use device::{DeviceProfile, HardwareCaps};
pub use intermediary::IntermediaryProfile;
pub use network::NetworkProfile;
pub use service_spec::{ConversionSpec, PriceModel, ServiceSpec};
pub use user::{AdaptationPolicy, UserProfile};

use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Errors produced by this crate.
#[derive(Debug)]
pub enum ProfileError {
    /// A profile referenced a format name missing from the registry.
    Media(qosc_media::MediaError),
    /// A satisfaction function in a user profile failed validation.
    Satisfaction(qosc_satisfaction::SatisfactionError),
    /// A structural problem in a profile (empty variant list, …).
    Invalid(String),
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Media(e) => write!(f, "media error: {e}"),
            ProfileError::Satisfaction(e) => write!(f, "satisfaction error: {e}"),
            ProfileError::Invalid(detail) => write!(f, "invalid profile: {detail}"),
            ProfileError::Json(e) => write!(f, "profile JSON error: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Media(e) => Some(e),
            ProfileError::Satisfaction(e) => Some(e),
            ProfileError::Json(e) => Some(e),
            ProfileError::Invalid(_) => None,
        }
    }
}

impl From<qosc_media::MediaError> for ProfileError {
    fn from(e: qosc_media::MediaError) -> ProfileError {
        ProfileError::Media(e)
    }
}

impl From<qosc_satisfaction::SatisfactionError> for ProfileError {
    fn from(e: qosc_satisfaction::SatisfactionError) -> ProfileError {
        ProfileError::Satisfaction(e)
    }
}

impl From<serde_json::Error> for ProfileError {
    fn from(e: serde_json::Error) -> ProfileError {
        ProfileError::Json(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ProfileError>;

/// The full bundle a composition session needs: who is asking, what they
/// are asking for, on what device, in what context, through which network.
/// (Intermediary profiles are plural and live with the service registry.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSet {
    /// The requesting user.
    pub user: UserProfile,
    /// The content being requested.
    pub content: ContentProfile,
    /// The rendering device.
    pub device: DeviceProfile,
    /// The user's current context.
    pub context: ContextProfile,
    /// The user's access network.
    pub network: NetworkProfile,
}

/// Structural: every field of every member profile, floats through
/// [`qosc_media::hash_f64`] so that `a == b` implies equal hashes. The
/// composition cache keys requests with it.
impl Hash for ProfileSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ProfileSet {
            user,
            content,
            device,
            context,
            network,
        } = self;
        user.hash(state);
        content.hash(state);
        device.hash(state);
        context.hash(state);
        network.hash(state);
    }
}

impl ProfileSet {
    /// Serialize to pretty JSON (the interchange substitute for the
    /// paper's MPEG-21 descriptions).
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<ProfileSet> {
        Ok(serde_json::from_str(json)?)
    }

    /// The satisfaction profile the optimizer should use: the user's
    /// preferences adjusted by the current context.
    pub fn effective_satisfaction(&self) -> qosc_satisfaction::SatisfactionProfile {
        self.context.adjust(&self.user.satisfaction)
    }

    /// Validate every member profile.
    pub fn validate(&self) -> Result<()> {
        self.user.validate()?;
        self.content.validate()?;
        self.device.validate()?;
        self.network.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_set_json_round_trip() {
        let set = ProfileSet {
            user: UserProfile::demo("alice"),
            content: ContentProfile::demo_video("news"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::broadband(),
        };
        let json = set.to_json().unwrap();
        let back = ProfileSet::from_json(&json).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn validate_demo_set() {
        let set = ProfileSet {
            user: UserProfile::demo("bob"),
            content: ContentProfile::demo_video("clip"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::broadband(),
        };
        set.validate().unwrap();
    }
}
