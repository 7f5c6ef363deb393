//! Network profiles.
//!
//! "With a large variety of transport networks, it is necessary to
//! include the network characteristics into content personalization …
//! Achieving this requires collecting information about the available
//! resources in the network, such as the maximum delay, error rate, and
//! available throughput on every link over the content delivery path."
//! — Section 3.
//!
//! Inside the simulator the live numbers come from `qosc-netsim`; this
//! profile describes the *user's access network* (the last mile the
//! workload generator provisions) in MPEG-21-style terms.

use crate::{ProfileError, Result};
use qosc_media::hash_f64;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Access-network characteristics of the receiver's connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkProfile {
    /// Technology label ("GPRS", "DSL", …), informational.
    pub technology: String,
    /// Downstream capacity in bits per second.
    pub downlink_bps: f64,
    /// Upstream capacity in bits per second.
    pub uplink_bps: f64,
    /// Typical one-way delay in microseconds.
    pub delay_us: u64,
    /// Packet error rate in `[0, 1]`.
    pub error_rate: f64,
    /// Monetary price per megabit carried (metered connections).
    pub price_per_mbit: f64,
}

impl Hash for NetworkProfile {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let NetworkProfile {
            technology,
            downlink_bps,
            uplink_bps,
            delay_us,
            error_rate,
            price_per_mbit,
        } = self;
        technology.hash(state);
        hash_f64(*downlink_bps, state);
        hash_f64(*uplink_bps, state);
        delay_us.hash(state);
        hash_f64(*error_rate, state);
        hash_f64(*price_per_mbit, state);
    }
}

impl NetworkProfile {
    /// A broadband (DSL-class) access network.
    pub fn broadband() -> NetworkProfile {
        NetworkProfile {
            technology: "DSL".to_string(),
            downlink_bps: 8e6,
            uplink_bps: 1e6,
            delay_us: 15_000,
            error_rate: 0.0,
            price_per_mbit: 0.0,
        }
    }

    /// A 2007-era cellular (GPRS-class) access network: slow, lossy and
    /// metered — the paper's motivating worst case.
    pub fn cellular() -> NetworkProfile {
        NetworkProfile {
            technology: "GPRS".to_string(),
            downlink_bps: 80e3,
            uplink_bps: 20e3,
            delay_us: 300_000,
            error_rate: 0.02,
            price_per_mbit: 0.05,
        }
    }

    /// A campus LAN: effectively unconstrained.
    pub fn lan() -> NetworkProfile {
        NetworkProfile {
            technology: "Ethernet".to_string(),
            downlink_bps: 100e6,
            uplink_bps: 100e6,
            delay_us: 500,
            error_rate: 0.0,
            price_per_mbit: 0.0,
        }
    }

    /// Validate physical plausibility.
    pub fn validate(&self) -> Result<()> {
        // Deliberate negated comparisons: NaN capacities must be rejected.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.downlink_bps > 0.0) || !(self.uplink_bps > 0.0) {
            return Err(ProfileError::Invalid(format!(
                "network `{}` must have positive capacities",
                self.technology
            )));
        }
        if !(0.0..=1.0).contains(&self.error_rate) {
            return Err(ProfileError::Invalid(format!(
                "network `{}` error rate {} out of [0, 1]",
                self.technology, self.error_rate
            )));
        }
        if self.price_per_mbit < 0.0 {
            return Err(ProfileError::Invalid(format!(
                "network `{}` has negative price",
                self.technology
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NetworkProfile::broadband().validate().unwrap();
        NetworkProfile::cellular().validate().unwrap();
        NetworkProfile::lan().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut p = NetworkProfile::broadband();
        p.downlink_bps = 0.0;
        assert!(p.validate().is_err());

        let mut p = NetworkProfile::broadband();
        p.error_rate = 2.0;
        assert!(p.validate().is_err());

        let mut p = NetworkProfile::broadband();
        p.price_per_mbit = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn cellular_is_slower_than_broadband() {
        assert!(NetworkProfile::cellular().downlink_bps < NetworkProfile::broadband().downlink_bps);
    }

    #[test]
    fn serde_round_trip() {
        let p = NetworkProfile::cellular();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<NetworkProfile>(&json).unwrap(), p);
    }
}
