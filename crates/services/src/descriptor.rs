//! Runtime trans-coding service descriptors.
//!
//! A [`TranscoderDescriptor`] is the resolved form of a
//! [`ServiceSpec`]: format names interned to
//! [`FormatId`]s and the service bound to the network node it runs on.
//! These are the vertices of the paper's adaptation graph (Section 4.2,
//! Figure 2).

use crate::Result;
use qosc_media::{DomainVector, FormatId, FormatRegistry};
use qosc_netsim::NodeId;
use qosc_profiles::{PriceModel, ServiceSpec};

/// Dense identifier of a service within one
/// [`ServiceRegistry`](crate::ServiceRegistry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub(crate) u32);

impl ServiceId {
    /// Raw index (valid only for the registry that produced it).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One resolved input-format → output-format capability.
#[derive(Debug, Clone, PartialEq)]
pub struct Conversion {
    /// Accepted input format.
    pub input: FormatId,
    /// Produced output format.
    pub output: FormatId,
    /// Output quality configurations the service can produce, before
    /// upstream capping.
    pub output_domain: DomainVector,
}

/// The runtime description of one trans-coding service instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscoderDescriptor {
    /// Service name (unique per intermediary; display purposes).
    pub name: String,
    /// The network node the service runs on.
    pub host: NodeId,
    /// Supported conversions, in advertised listing order.
    pub conversions: Vec<Conversion>,
    /// CPU demand in MIPS per Mbit/s of input processed.
    pub cpu_mips_per_mbps: f64,
    /// Resident memory required, bytes.
    pub memory_bytes: f64,
    /// Price of using the service.
    pub price: PriceModel,
}

impl TranscoderDescriptor {
    /// Resolve a wire [`ServiceSpec`] against `registry`, binding it to
    /// `host`. Format names must already be interned.
    pub fn resolve(
        spec: &ServiceSpec,
        registry: &FormatRegistry,
        host: NodeId,
    ) -> Result<TranscoderDescriptor> {
        let conversions = spec
            .conversions
            .iter()
            .map(|c| {
                Ok(Conversion {
                    input: registry.lookup(&c.input)?,
                    output: registry.lookup(&c.output)?,
                    output_domain: c.output_domain.clone(),
                })
            })
            .collect::<Result<Vec<Conversion>>>()?;
        Ok(TranscoderDescriptor {
            name: spec.name.clone(),
            host,
            conversions,
            cpu_mips_per_mbps: spec.cpu_mips_per_mbps,
            memory_bytes: spec.memory_bytes,
            price: spec.price,
        })
    }

    /// Whether the service accepts `format` on some conversion.
    pub fn accepts(&self, format: FormatId) -> bool {
        self.conversions.iter().any(|c| c.input == format)
    }

    /// Whether the service can produce `format`.
    pub fn produces(&self, format: FormatId) -> bool {
        self.conversions.iter().any(|c| c.output == format)
    }

    /// Conversions accepting `input`, in listing order.
    pub fn conversions_from(&self, input: FormatId) -> impl Iterator<Item = &Conversion> + '_ {
        self.conversions.iter().filter(move |c| c.input == input)
    }

    /// Distinct input formats, in first-appearance order.
    pub fn input_formats(&self) -> Vec<FormatId> {
        let mut seen = Vec::new();
        for c in &self.conversions {
            if !seen.contains(&c.input) {
                seen.push(c.input);
            }
        }
        seen
    }

    /// Distinct output formats, in first-appearance order.
    pub fn output_formats(&self) -> Vec<FormatId> {
        let mut seen = Vec::new();
        for c in &self.conversions {
            if !seen.contains(&c.output) {
                seen.push(c.output);
            }
        }
        seen
    }

    /// CPU load (MIPS) of processing an input stream of `input_bps`.
    pub fn cpu_load(&self, input_bps: f64) -> f64 {
        self.cpu_mips_per_mbps * input_bps / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::MediaKind;
    use qosc_profiles::ConversionSpec;

    fn registry() -> FormatRegistry {
        let mut reg = FormatRegistry::new();
        for name in ["F5", "F6", "F10", "F11", "F12", "F13"] {
            reg.register_abstract(name, MediaKind::Video);
        }
        reg
    }

    fn test_node() -> NodeId {
        let mut t = qosc_netsim::Topology::new();
        t.add_node(qosc_netsim::Node::unconstrained("test"))
    }

    /// The paper's Figure 2: T1 with inputs {F5, F6} and outputs
    /// {F10, F11, F12, F13}.
    fn figure2_spec() -> ServiceSpec {
        let pairs = [
            ("F5", "F10"),
            ("F5", "F11"),
            ("F5", "F12"),
            ("F5", "F13"),
            ("F6", "F10"),
            ("F6", "F11"),
            ("F6", "F12"),
            ("F6", "F13"),
        ];
        ServiceSpec::new(
            "T1",
            pairs
                .iter()
                .map(|&(i, o)| ConversionSpec::new(i, o, DomainVector::new()))
                .collect(),
        )
    }

    #[test]
    fn resolve_figure2_service() {
        let reg = registry();
        let t1 = TranscoderDescriptor::resolve(&figure2_spec(), &reg, test_node()).unwrap();
        assert_eq!(t1.input_formats().len(), 2);
        assert_eq!(t1.output_formats().len(), 4);
        let f5 = reg.lookup("F5").unwrap();
        let f10 = reg.lookup("F10").unwrap();
        assert!(t1.accepts(f5));
        assert!(t1.produces(f10));
        assert!(!t1.accepts(f10));
        assert_eq!(t1.conversions_from(f5).count(), 4);
    }

    #[test]
    fn resolve_unknown_format_fails() {
        let reg = FormatRegistry::new();
        assert!(TranscoderDescriptor::resolve(&figure2_spec(), &reg, test_node()).is_err());
    }

    #[test]
    fn cpu_load_scales_with_input() {
        let reg = registry();
        let spec = figure2_spec().with_resources(50.0, 1e6);
        let t = TranscoderDescriptor::resolve(&spec, &reg, test_node()).unwrap();
        assert!((t.cpu_load(2e6) - 100.0).abs() < 1e-9);
    }
}
