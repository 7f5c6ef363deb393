//! A catalog of realistic trans-coding service descriptions.
//!
//! The paper's introduction motivates exactly these adaptations: "text
//! summarization, format change, reduction of image quality, removal of
//! redundant information, audio to text conversion, video to key frame or
//! video to text conversion", plus the web-content classics "conversion
//! of HTML pages to WML pages, conversion of jpeg images to black and
//! white gif images". Each function returns a wire
//! [`ServiceSpec`] against the built-in
//! format names of
//! [`FormatRegistry::with_builtins`](qosc_media::FormatRegistry::with_builtins).
//!
//! Resource and price figures are plausible 2007-era magnitudes; what
//! matters to the reproduction is their *relative* order (video work ≫
//! image work ≫ text work).

use qosc_media::{Axis, AxisDomain, DomainVector};
use qosc_profiles::{ConversionSpec, PriceModel, ServiceSpec};

fn video_domain(max_fps: f64, max_pixels: f64, max_depth: f64) -> DomainVector {
    DomainVector::new()
        .with(
            Axis::FrameRate,
            AxisDomain::Continuous {
                min: 1.0,
                max: max_fps,
            },
        )
        .with(
            Axis::PixelCount,
            AxisDomain::Continuous {
                min: 4_800.0,
                max: max_pixels,
            },
        )
        .with(
            Axis::ColorDepth,
            AxisDomain::Continuous {
                min: 4.0,
                max: max_depth,
            },
        )
}

fn image_domain(max_pixels: f64, max_depth: f64) -> DomainVector {
    DomainVector::new()
        .with(
            Axis::PixelCount,
            AxisDomain::Continuous {
                min: 1_024.0,
                max: max_pixels,
            },
        )
        .with(
            Axis::ColorDepth,
            AxisDomain::Continuous {
                min: 1.0,
                max: max_depth,
            },
        )
}

fn audio_domain(rates: &[f64], max_channels: f64) -> DomainVector {
    DomainVector::new()
        .with(Axis::SampleRate, AxisDomain::Discrete(rates.to_vec()))
        .with(
            Axis::Channels,
            AxisDomain::Discrete((1..=max_channels as i64).map(|c| c as f64).collect()),
        )
        .with(Axis::SampleDepth, AxisDomain::Discrete(vec![8.0, 16.0]))
}

fn text_domain(max_fidelity: f64) -> DomainVector {
    DomainVector::new().with(
        Axis::Fidelity,
        AxisDomain::Continuous {
            min: 5.0,
            max: max_fidelity,
        },
    )
}

/// MPEG-2 → H.263 down-coder (the mobile video workhorse).
pub fn mpeg2_to_h263() -> ServiceSpec {
    ServiceSpec::new(
        "mpeg2-to-h263",
        vec![ConversionSpec::new(
            "video/mpeg2",
            "video/h263",
            video_domain(30.0, 101_376.0, 24.0), // up to CIF
        )],
    )
    .with_resources(120.0, 256e6)
    .with_price(PriceModel {
        per_second: 0.002,
        per_mbit: 0.001,
    })
}

/// MPEG-2 → MPEG-1 re-encoder (compatibility down-coding).
pub fn mpeg2_to_mpeg1() -> ServiceSpec {
    ServiceSpec::new(
        "mpeg2-to-mpeg1",
        vec![ConversionSpec::new(
            "video/mpeg2",
            "video/mpeg1",
            video_domain(30.0, 307_200.0, 24.0),
        )],
    )
    .with_resources(90.0, 192e6)
    .with_price(PriceModel {
        per_second: 0.0015,
        per_mbit: 0.001,
    })
}

/// MPEG-1 → H.261 down-coder (legacy conferencing formats).
pub fn mpeg1_to_h261() -> ServiceSpec {
    ServiceSpec::new(
        "mpeg1-to-h261",
        vec![ConversionSpec::new(
            "video/mpeg1",
            "video/h261",
            video_domain(30.0, 101_376.0, 12.0),
        )],
    )
    .with_resources(70.0, 128e6)
    .with_price(PriceModel {
        per_second: 0.001,
        per_mbit: 0.0005,
    })
}

/// In-format video quality reducer (frame-rate / resolution dropper):
/// "removal of redundant information".
pub fn video_reducer() -> ServiceSpec {
    ServiceSpec::new(
        "video-reducer",
        vec![
            ConversionSpec::new(
                "video/mpeg2",
                "video/mpeg2",
                video_domain(30.0, 307_200.0, 24.0),
            ),
            ConversionSpec::new(
                "video/mpeg1",
                "video/mpeg1",
                video_domain(30.0, 307_200.0, 24.0),
            ),
        ],
    )
    .with_resources(40.0, 96e6)
    .with_price(PriceModel {
        per_second: 0.0008,
        per_mbit: 0.0004,
    })
}

/// JPEG → GIF with colour-depth reduction — the paper's own two-stage
/// example ("trans-coding a 256-color depth jpeg image to a 2-color depth
/// gif image").
pub fn jpeg_to_gif() -> ServiceSpec {
    ServiceSpec::new(
        "jpeg-to-gif",
        vec![ConversionSpec::new(
            "image/jpeg",
            "image/gif",
            image_domain(786_432.0, 8.0),
        )],
    )
    .with_resources(20.0, 64e6)
    .with_price(PriceModel {
        per_second: 0.0004,
        per_mbit: 0.0002,
    })
}

/// In-format JPEG colour/resolution reducer ("reduction of image
/// quality") — stage one of the paper's combinatorial example.
pub fn jpeg_color_reducer() -> ServiceSpec {
    ServiceSpec::new(
        "jpeg-color-reducer",
        vec![ConversionSpec::new(
            "image/jpeg",
            "image/jpeg",
            image_domain(2_073_600.0, 24.0),
        )],
    )
    .with_resources(15.0, 48e6)
    .with_price(PriceModel {
        per_second: 0.0003,
        per_mbit: 0.0002,
    })
}

/// HTML → WML conversion for WAP devices.
pub fn html_to_wml() -> ServiceSpec {
    ServiceSpec::new(
        "html-to-wml",
        vec![ConversionSpec::new(
            "text/html",
            "text/wml",
            text_domain(60.0),
        )],
    )
    .with_resources(5.0, 16e6)
    .with_price(PriceModel {
        per_second: 0.0001,
        per_mbit: 0.0001,
    })
}

/// Text summarizer (in-format fidelity reduction).
pub fn text_summarizer() -> ServiceSpec {
    ServiceSpec::new(
        "text-summarizer",
        vec![ConversionSpec::new(
            "text/html",
            "text/html",
            text_domain(50.0),
        )],
    )
    .with_resources(8.0, 32e6)
    .with_price(PriceModel {
        per_second: 0.0002,
        per_mbit: 0.0001,
    })
}

/// PCM → MP3 encoder.
pub fn pcm_to_mp3() -> ServiceSpec {
    ServiceSpec::new(
        "pcm-to-mp3",
        vec![ConversionSpec::new(
            "audio/pcm",
            "audio/mp3",
            audio_domain(&[8_000.0, 22_050.0, 44_100.0], 2.0),
        )],
    )
    .with_resources(30.0, 64e6)
    .with_price(PriceModel {
        per_second: 0.0005,
        per_mbit: 0.0003,
    })
}

/// MP3 → AMR narrow-band re-encoder for cellular handsets.
pub fn mp3_to_amr() -> ServiceSpec {
    ServiceSpec::new(
        "mp3-to-amr",
        vec![ConversionSpec::new(
            "audio/mp3",
            "audio/amr",
            audio_domain(&[8_000.0], 1.0),
        )],
    )
    .with_resources(25.0, 48e6)
    .with_price(PriceModel {
        per_second: 0.0004,
        per_mbit: 0.0002,
    })
}

/// Video → key-frame extraction ("video to key frame conversion").
pub fn video_to_keyframes() -> ServiceSpec {
    ServiceSpec::new(
        "video-to-keyframes",
        vec![ConversionSpec::new(
            "video/mpeg2",
            "image/jpeg",
            image_domain(307_200.0, 24.0),
        )],
    )
    .with_resources(60.0, 128e6)
    .with_price(PriceModel {
        per_second: 0.001,
        per_mbit: 0.0005,
    })
}

/// Video → text transcript ("video to text conversion").
pub fn video_to_text() -> ServiceSpec {
    ServiceSpec::new(
        "video-to-text",
        vec![ConversionSpec::new(
            "video/mpeg2",
            "text/html",
            text_domain(40.0),
        )],
    )
    .with_resources(200.0, 512e6)
    .with_price(PriceModel {
        per_second: 0.004,
        per_mbit: 0.002,
    })
}

/// Audio → text transcript ("audio to text conversion").
pub fn audio_to_text() -> ServiceSpec {
    ServiceSpec::new(
        "audio-to-text",
        vec![ConversionSpec::new(
            "audio/pcm",
            "text/html",
            text_domain(40.0),
        )],
    )
    .with_resources(150.0, 384e6)
    .with_price(PriceModel {
        per_second: 0.003,
        per_mbit: 0.002,
    })
}

/// The full catalog, in a stable order.
pub fn full_catalog() -> Vec<ServiceSpec> {
    vec![
        mpeg2_to_h263(),
        mpeg2_to_mpeg1(),
        mpeg1_to_h261(),
        video_reducer(),
        jpeg_to_gif(),
        jpeg_color_reducer(),
        html_to_wml(),
        text_summarizer(),
        pcm_to_mp3(),
        mp3_to_amr(),
        video_to_keyframes(),
        video_to_text(),
        audio_to_text(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::TranscoderDescriptor;
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Node, Topology};

    #[test]
    fn every_catalog_entry_validates() {
        for spec in full_catalog() {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn every_catalog_entry_resolves_against_builtins() {
        let formats = FormatRegistry::with_builtins();
        let mut topo = Topology::new();
        let node = topo.add_node(Node::unconstrained("proxy"));
        for spec in full_catalog() {
            TranscoderDescriptor::resolve(&spec, &formats, node)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn names_are_unique() {
        let catalog = full_catalog();
        for (i, a) in catalog.iter().enumerate() {
            for b in &catalog[..i] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn video_work_costs_more_than_text_work() {
        assert!(mpeg2_to_h263().cpu_mips_per_mbps > html_to_wml().cpu_mips_per_mbps);
        assert!(
            video_to_text().price.per_second > text_summarizer().price.per_second,
            "recognition is the most expensive service"
        );
    }

    #[test]
    fn paper_two_stage_image_chain_connects() {
        // jpeg-color-reducer (jpeg→jpeg) feeds jpeg-to-gif (jpeg→gif):
        // the paper's 256-color jpeg → 2-color gif two-stage example.
        let reducer = jpeg_color_reducer();
        let converter = jpeg_to_gif();
        assert_eq!(reducer.output_formats(), vec!["image/jpeg"]);
        assert_eq!(converter.input_formats(), vec!["image/jpeg"]);
    }
}
