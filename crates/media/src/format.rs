//! Interned media formats.
//!
//! Every edge of the paper's adaptation graph is labelled with a *format*
//! (`F5`, `F10`, …): the concrete encoding a piece of content is in between
//! two trans-coding stages. Formats are interned into a [`FormatRegistry`]
//! so that graph algorithms deal in dense `u32` ids rather than strings.

use crate::bitrate::BitrateModel;
use crate::kind::MediaKind;
use crate::{MediaError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Dense identifier of a format within one [`FormatRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FormatId(pub(crate) u32);

impl FormatId {
    /// The raw index (valid only for the registry that produced it).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything the framework knows about one media format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FormatSpec {
    /// Canonical name, e.g. `"video/mpeg2"` or the paper's abstract `"F5"`.
    pub name: String,
    /// Coarse media class.
    pub kind: MediaKind,
    /// How a parameter configuration in this format translates into bits
    /// per second — the `bandwidth_requirement(x1..xn)` of Equa. 2.
    pub bitrate: BitrateModel,
}

impl FormatSpec {
    /// A new spec with the given name, kind and bitrate model.
    pub fn new(name: impl Into<String>, kind: MediaKind, bitrate: BitrateModel) -> FormatSpec {
        FormatSpec {
            name: name.into(),
            kind,
            bitrate,
        }
    }
}

/// An append-only, interning registry of media formats.
///
/// A registry is an explicit value: profiles store format *names*, and the
/// graph builder resolves them against the registry shared by a scenario.
/// Lookup by name is O(1); lookup by id is an array index.
///
/// ```
/// use qosc_media::{FormatRegistry, MediaKind};
///
/// let mut registry = FormatRegistry::with_builtins();
/// let mpeg2 = registry.lookup("video/mpeg2").unwrap();
/// assert_eq!(registry.spec(mpeg2).unwrap().kind, MediaKind::Video);
///
/// // Abstract formats (the paper's F1, F2, …) intern on demand.
/// let f5 = registry.register_abstract("F5", MediaKind::Video);
/// assert_eq!(registry.name(f5), "F5");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FormatRegistry {
    specs: Vec<FormatSpec>,
    by_name: HashMap<String, FormatId>,
}

impl FormatRegistry {
    /// An empty registry.
    pub fn new() -> FormatRegistry {
        FormatRegistry::default()
    }

    /// A registry pre-populated with the built-in catalog of real-world
    /// formats (see [`FormatRegistry::install_builtins`]).
    pub fn with_builtins() -> FormatRegistry {
        let mut reg = FormatRegistry::new();
        reg.install_builtins();
        reg
    }

    /// Intern `spec`, returning its id. If a format with the same name is
    /// already registered, the existing id is returned and the existing
    /// spec is kept (first registration wins).
    ///
    /// Ids are dense and never renumbered, so a name that resolved once
    /// resolves to the same id for the registry's lifetime: the compose
    /// memo's owners keep class ids on that promise — the composition
    /// cache one per entry, a session run one per (request, rung).
    pub fn register(&mut self, spec: FormatSpec) -> FormatId {
        if let Some(&id) = self.by_name.get(&spec.name) {
            return id;
        }
        let id = FormatId(u32::try_from(self.specs.len()).expect("fewer than 2^32 formats"));
        self.by_name.insert(spec.name.clone(), id);
        self.specs.push(spec);
        id
    }

    /// Intern an *abstract* format (the paper's `F1`, `F2`, …): a named
    /// placeholder of the given kind with the kind's default bitrate model.
    pub fn register_abstract(&mut self, name: impl Into<String>, kind: MediaKind) -> FormatId {
        let name = name.into();
        self.register(FormatSpec::new(name, kind, BitrateModel::default_for(kind)))
    }

    /// Resolve a format name to its id.
    pub fn lookup(&self, name: &str) -> Result<FormatId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| MediaError::UnknownFormat(name.to_string()))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// The spec for `id`.
    pub fn spec(&self, id: FormatId) -> Result<&FormatSpec> {
        self.specs
            .get(id.index())
            .ok_or(MediaError::StaleFormatId(id))
    }

    /// The name for `id` (convenience over [`FormatRegistry::spec`]).
    pub fn name(&self, id: FormatId) -> &str {
        self.specs
            .get(id.index())
            .map(|s| s.name.as_str())
            .unwrap_or("<stale>")
    }

    /// Number of registered formats.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All `(id, spec)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FormatId, &FormatSpec)> + '_ {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (FormatId(i as u32), s))
    }

    /// Register the built-in catalog of real-world formats the paper's
    /// examples mention (JPEG, GIF, HTML, WML, MPEG video, PCM/MP3 audio,
    /// …). Idempotent.
    pub fn install_builtins(&mut self) {
        use MediaKind::*;
        let video = |r| BitrateModel::CompressedVideo {
            compression_ratio: r,
        };
        let audio = |r| BitrateModel::CompressedAudio {
            compression_ratio: r,
        };
        let image = |r| BitrateModel::Image {
            compression_ratio: r,
            per_view_seconds: 5.0,
        };
        let entries: [(&str, MediaKind, BitrateModel); 18] = [
            ("video/raw", Video, BitrateModel::RawVideo),
            ("video/mjpeg", Video, video(20.0)),
            ("video/mpeg1", Video, video(50.0)),
            ("video/mpeg2", Video, video(80.0)),
            ("video/h261", Video, video(100.0)),
            ("video/h263", Video, video(150.0)),
            ("video/mpeg4", Video, video(200.0)),
            ("audio/pcm", Audio, BitrateModel::RawAudio),
            ("audio/mp3", Audio, audio(11.0)),
            ("audio/aac", Audio, audio(15.0)),
            ("audio/amr", Audio, audio(25.0)),
            ("audio/gsm", Audio, audio(8.0)),
            ("image/bmp", Image, image(1.0)),
            ("image/jpeg", Image, image(10.0)),
            ("image/gif", Image, image(4.0)),
            ("image/png", Image, image(2.0)),
            (
                "text/html",
                Text,
                BitrateModel::Text {
                    bits_per_fidelity_point: 4000.0,
                },
            ),
            (
                "text/wml",
                Text,
                BitrateModel::Text {
                    bits_per_fidelity_point: 800.0,
                },
            ),
        ];
        for (name, kind, bitrate) in entries {
            self.register(FormatSpec::new(name, kind, bitrate));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = FormatRegistry::new();
        let id = reg.register_abstract("F5", MediaKind::Video);
        assert_eq!(reg.lookup("F5").unwrap(), id);
        assert_eq!(reg.name(id), "F5");
        assert_eq!(reg.spec(id).unwrap().kind, MediaKind::Video);
    }

    #[test]
    fn register_is_idempotent_first_wins() {
        let mut reg = FormatRegistry::new();
        let a = reg.register(FormatSpec::new(
            "x",
            MediaKind::Video,
            BitrateModel::RawVideo,
        ));
        let b = reg.register(FormatSpec::new(
            "x",
            MediaKind::Audio,
            BitrateModel::RawAudio,
        ));
        assert_eq!(a, b);
        assert_eq!(
            reg.spec(a).unwrap().kind,
            MediaKind::Video,
            "first registration wins"
        );
        assert_eq!(reg.len(), 1);
    }

    /// What memos that key resolved requests rely on: once a name has
    /// an id, no later registration — of that name or of any other —
    /// moves it, and ids stay `0..len`.
    #[test]
    fn re_registering_never_renumbers_and_ids_stay_dense() {
        let mut reg = FormatRegistry::new();
        let names = ["a", "b", "c"];
        let first: Vec<FormatId> = names
            .iter()
            .map(|&name| reg.register_abstract(name, MediaKind::Video))
            .collect();
        for round in 0..3 {
            reg.register_abstract(format!("new-{round}"), MediaKind::Audio);
            for (&name, &id) in names.iter().zip(&first) {
                assert_eq!(reg.register_abstract(name, MediaKind::Audio), id);
                assert_eq!(reg.lookup(name).unwrap(), id);
            }
        }
        assert_eq!(reg.len(), names.len() + 3);
        let ids: Vec<usize> = reg.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, (0..reg.len()).collect::<Vec<_>>());
        assert_eq!(
            first.iter().map(|id| id.index()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn lookup_unknown_fails() {
        let reg = FormatRegistry::new();
        assert!(matches!(
            reg.lookup("nope"),
            Err(MediaError::UnknownFormat(_))
        ));
    }

    #[test]
    fn stale_id_fails() {
        let reg = FormatRegistry::new();
        assert!(matches!(
            reg.spec(FormatId(7)),
            Err(MediaError::StaleFormatId(_))
        ));
        assert_eq!(reg.name(FormatId(7)), "<stale>");
    }

    #[test]
    fn builtins_install_idempotently() {
        let mut reg = FormatRegistry::with_builtins();
        let n = reg.len();
        assert!(n >= 18);
        reg.install_builtins();
        assert_eq!(reg.len(), n);
        assert!(reg.contains("video/mpeg2"));
        assert!(reg.contains("text/wml"));
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut reg = FormatRegistry::new();
        let a = reg.register_abstract("A", MediaKind::Text);
        let b = reg.register_abstract("B", MediaKind::Text);
        let ids: Vec<FormatId> = reg.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
