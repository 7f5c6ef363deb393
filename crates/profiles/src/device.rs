//! Device profiles.
//!
//! "To ensure that a requested content can be properly rendered on the
//! user's device, it is essential to include the capabilities and
//! characteristics of the device into the content adaptation process."
//! — Section 3. The paper points at UAProf / MPEG-21 DIA; we keep the
//! fields the composition consumes: the decoder list (which becomes the
//! receiver vertex's input links, Section 4.2) and hardware caps (which
//! clamp the feasible QoS domains).

use crate::{ProfileError, Result};
use qosc_media::{hash_f64, Axis, FormatId, FormatRegistry, ParamVector};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Hardware characteristics that cap deliverable quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareCaps {
    /// Screen width in pixels.
    pub screen_width: u32,
    /// Screen height in pixels.
    pub screen_height: u32,
    /// Display colour depth in bits per pixel.
    pub color_depth: u32,
    /// Number of audio output channels (0 = no audio).
    pub audio_channels: u32,
    /// Maximum audio sample rate in Hz.
    pub max_sample_rate: u32,
    /// Device CPU capacity in abstract MIPS (client-side rendering cost).
    pub cpu_mips: f64,
    /// Device memory in bytes.
    pub memory_bytes: f64,
}

impl Hash for HardwareCaps {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let HardwareCaps {
            screen_width,
            screen_height,
            color_depth,
            audio_channels,
            max_sample_rate,
            cpu_mips,
            memory_bytes,
        } = self;
        screen_width.hash(state);
        screen_height.hash(state);
        color_depth.hash(state);
        audio_channels.hash(state);
        max_sample_rate.hash(state);
        hash_f64(*cpu_mips, state);
        hash_f64(*memory_bytes, state);
    }
}

impl HardwareCaps {
    /// Caps of a desktop PC.
    pub fn desktop() -> HardwareCaps {
        HardwareCaps {
            screen_width: 1920,
            screen_height: 1080,
            color_depth: 24,
            audio_channels: 2,
            max_sample_rate: 48_000,
            cpu_mips: 10_000.0,
            memory_bytes: 8e9,
        }
    }

    /// Caps of a 2007-era PDA (the paper's motivating small device).
    pub fn pda() -> HardwareCaps {
        HardwareCaps {
            screen_width: 320,
            screen_height: 240,
            color_depth: 16,
            audio_channels: 1,
            max_sample_rate: 22_050,
            cpu_mips: 400.0,
            memory_bytes: 64e6,
        }
    }

    /// The QoS caps this hardware imposes, as a parameter vector the
    /// graph builder meets domains against: pixel count, colour depth,
    /// channels, sample rate.
    pub fn quality_caps(&self) -> ParamVector {
        ParamVector::from_pairs([
            (
                Axis::PixelCount,
                f64::from(self.screen_width) * f64::from(self.screen_height),
            ),
            (Axis::ColorDepth, f64::from(self.color_depth)),
            (Axis::Channels, f64::from(self.audio_channels)),
            (Axis::SampleRate, f64::from(self.max_sample_rate)),
        ])
    }
}

/// A rendering device: decoders + hardware + software identification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Device model name.
    pub name: String,
    /// Operating system (vendor and version), informational.
    pub os: String,
    /// Formats the device can decode, by registry name. "The input links
    /// of the receiver are exactly the possible decoders available at the
    /// receiver's device" (Section 4.2). Order is the deterministic
    /// listing order.
    pub decoders: Vec<String>,
    /// Hardware capability caps.
    pub hardware: HardwareCaps,
}

impl Hash for DeviceProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let DeviceProfile {
            name,
            os,
            decoders,
            hardware,
        } = self;
        name.hash(state);
        os.hash(state);
        decoders.hash(state);
        hardware.hash(state);
    }
}

impl DeviceProfile {
    /// A device with the given name, decoders and hardware.
    pub fn new(
        name: impl Into<String>,
        decoders: Vec<String>,
        hardware: HardwareCaps,
    ) -> DeviceProfile {
        DeviceProfile {
            name: name.into(),
            os: String::new(),
            decoders,
            hardware,
        }
    }

    /// Builder-style OS string.
    pub fn with_os(mut self, os: impl Into<String>) -> DeviceProfile {
        self.os = os.into();
        self
    }

    /// Resolve the decoder list against `registry`, in listing order.
    pub fn resolve_decoders(&self, registry: &FormatRegistry) -> Result<Vec<FormatId>> {
        self.decoders
            .iter()
            .map(|name| registry.lookup(name).map_err(ProfileError::from))
            .collect()
    }

    /// Validate structure: at least one decoder, no duplicates.
    pub fn validate(&self) -> Result<()> {
        if self.decoders.is_empty() {
            return Err(ProfileError::Invalid(format!(
                "device `{}` has no decoders",
                self.name
            )));
        }
        for (i, a) in self.decoders.iter().enumerate() {
            if self.decoders[..i].contains(a) {
                return Err(ProfileError::Invalid(format!(
                    "device `{}` lists decoder `{a}` twice",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// A demo PDA that can decode H.263 video and GIF images.
    pub fn demo_pda() -> DeviceProfile {
        DeviceProfile::new(
            "demo-pda",
            vec!["video/h263".to_string(), "image/gif".to_string()],
            HardwareCaps::pda(),
        )
        .with_os("Palmish 5.4")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_caps_reflect_hardware() {
        let caps = HardwareCaps::pda().quality_caps();
        assert_eq!(caps.get(Axis::PixelCount), Some(320.0 * 240.0));
        assert_eq!(caps.get(Axis::ColorDepth), Some(16.0));
        assert_eq!(caps.get(Axis::Channels), Some(1.0));
        assert_eq!(caps.get(Axis::SampleRate), Some(22_050.0));
        assert_eq!(
            caps.get(Axis::FrameRate),
            None,
            "hardware does not cap frame rate"
        );
    }

    #[test]
    fn resolve_decoders_in_order() {
        let registry = FormatRegistry::with_builtins();
        let device = DeviceProfile::demo_pda();
        let ids = device.resolve_decoders(&registry).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(registry.name(ids[0]), "video/h263");
        assert_eq!(registry.name(ids[1]), "image/gif");
    }

    #[test]
    fn unknown_decoder_fails() {
        let registry = FormatRegistry::new();
        assert!(DeviceProfile::demo_pda()
            .resolve_decoders(&registry)
            .is_err());
    }

    #[test]
    fn validate_rejects_empty_and_duplicate_decoders() {
        let none = DeviceProfile::new("x", vec![], HardwareCaps::pda());
        assert!(none.validate().is_err());
        let dup = DeviceProfile::new(
            "y",
            vec!["a".to_string(), "a".to_string()],
            HardwareCaps::pda(),
        );
        assert!(dup.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let device = DeviceProfile::demo_pda();
        let json = serde_json::to_string(&device).unwrap();
        assert_eq!(
            serde_json::from_str::<DeviceProfile>(&json).unwrap(),
            device
        );
    }
}
