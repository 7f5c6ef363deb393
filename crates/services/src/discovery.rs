//! The discovery loop: intermediaries keeping their advertisements
//! alive.
//!
//! In the paper's middleware picture (JINI/SLP), every intermediary
//! periodically re-announces its services; the directory forgets
//! whatever stops announcing. [`DiscoveryDriver`] is that loop in
//! simulation form: it tracks a set of *members* (service instances that
//! *should* be advertised), renews their leases each tick, lets a test
//! or experiment crash and revive members, and reconciles the registry —
//! a crashed member's advertisement dies at lease expiry with no other
//! coordination, which is precisely the "self-organizing" property.

use crate::descriptor::{ServiceId, TranscoderDescriptor};
use crate::registry::ServiceRegistry;
use crate::Result;
use qosc_netsim::SimTime;

/// Handle to one tracked member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemberId(usize);

/// Lease timing.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Lease time-to-live granted on registration/renewal.
    pub ttl: SimTime,
}

impl Default for DiscoveryConfig {
    fn default() -> DiscoveryConfig {
        DiscoveryConfig {
            ttl: SimTime::from_secs(10),
        }
    }
}

#[derive(Debug)]
struct Member {
    descriptor: TranscoderDescriptor,
    registration: Option<ServiceId>,
    alive: bool,
}

/// Drives lease renewal for a fleet of service instances.
#[derive(Debug, Default)]
pub struct DiscoveryDriver {
    config: DiscoveryConfig,
    members: Vec<Member>,
}

impl DiscoveryDriver {
    /// A driver with the given lease configuration.
    pub fn new(config: DiscoveryConfig) -> DiscoveryDriver {
        DiscoveryDriver {
            config,
            members: Vec::new(),
        }
    }

    /// Track (and register) a new member.
    pub fn join(
        &mut self,
        registry: &mut ServiceRegistry,
        descriptor: TranscoderDescriptor,
        now: SimTime,
    ) -> MemberId {
        let id = registry.register(descriptor.clone(), now, self.config.ttl.as_micros());
        self.members.push(Member {
            descriptor,
            registration: Some(id),
            alive: true,
        });
        MemberId(self.members.len() - 1)
    }

    /// Crash a member: it silently stops renewing. Its advertisement
    /// stays visible until the lease runs out — exactly the staleness
    /// window soft-state discovery trades for decentralization.
    pub fn crash(&mut self, member: MemberId) {
        if let Some(m) = self.members.get_mut(member.0) {
            m.alive = false;
        }
    }

    /// Revive a crashed member: it re-registers immediately (a fresh
    /// process on the same host).
    pub fn revive(
        &mut self,
        registry: &mut ServiceRegistry,
        member: MemberId,
        now: SimTime,
    ) -> Result<()> {
        let ttl = self.config.ttl.as_micros();
        if let Some(m) = self.members.get_mut(member.0) {
            if !m.alive {
                m.alive = true;
                m.registration = Some(registry.register(m.descriptor.clone(), now, ttl));
            }
        }
        Ok(())
    }

    /// One discovery tick at time `now`: every alive member renews (a
    /// member whose old advertisement already expired re-registers), and
    /// stale leases are expired. Returns the number of advertisements
    /// that expired this tick.
    pub fn tick(&mut self, registry: &mut ServiceRegistry, now: SimTime) -> usize {
        let ttl = self.config.ttl.as_micros();
        for m in &mut self.members {
            if !m.alive {
                continue;
            }
            let needs_reregister = match m.registration {
                Some(id) => registry.renew(id, now, ttl).is_err(),
                None => true,
            };
            if needs_reregister {
                m.registration = Some(registry.register(m.descriptor.clone(), now, ttl));
            }
        }
        registry.expire_leases(now).len()
    }

    /// Whether `member` currently has a live advertisement.
    pub fn is_advertised(&self, registry: &ServiceRegistry, member: MemberId) -> bool {
        self.members
            .get(member.0)
            .and_then(|m| m.registration)
            .map(|id| registry.is_live(id))
            .unwrap_or(false)
    }

    /// Number of tracked members (alive or crashed).
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The current advertisement id for `member`, if any. After a
    /// revive this is a *fresh* [`ServiceId`] — advertisement ids are
    /// per-incarnation, not per-member.
    pub fn registration(&self, member: MemberId) -> Option<ServiceId> {
        self.members.get(member.0).and_then(|m| m.registration)
    }

    /// The member whose *current* advertisement is `id`, if any. Stale
    /// ids from previous incarnations resolve to `None`, which is
    /// exactly what observers want: observations about a dead
    /// incarnation must not be attributed to its successor.
    pub fn member_of(&self, id: ServiceId) -> Option<MemberId> {
        self.members
            .iter()
            .position(|m| m.registration == Some(id))
            .map(MemberId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{DomainVector, FormatRegistry, MediaKind};
    use qosc_netsim::{Node, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};

    fn descriptor(formats: &mut FormatRegistry) -> TranscoderDescriptor {
        formats.register_abstract("in", MediaKind::Video);
        formats.register_abstract("out", MediaKind::Video);
        let mut topo = Topology::new();
        let host = topo.add_node(Node::unconstrained("host"));
        let spec = ServiceSpec::new(
            "svc",
            vec![ConversionSpec::new("in", "out", DomainVector::new())],
        );
        TranscoderDescriptor::resolve(&spec, formats, host).unwrap()
    }

    #[test]
    fn alive_members_survive_ticks() {
        let mut formats = FormatRegistry::new();
        let mut registry = ServiceRegistry::new();
        let mut driver = DiscoveryDriver::new(DiscoveryConfig {
            ttl: SimTime::from_secs(5),
        });
        let member = driver.join(&mut registry, descriptor(&mut formats), SimTime::ZERO);
        for t in 1..=20 {
            driver.tick(&mut registry, SimTime::from_secs(t));
            assert!(driver.is_advertised(&registry, member), "t = {t}");
        }
        assert_eq!(registry.live_count(), 1);
    }

    #[test]
    fn crashed_member_expires_at_ttl() {
        let mut formats = FormatRegistry::new();
        let mut registry = ServiceRegistry::new();
        let mut driver = DiscoveryDriver::new(DiscoveryConfig {
            ttl: SimTime::from_secs(5),
        });
        let member = driver.join(&mut registry, descriptor(&mut formats), SimTime::ZERO);
        driver.crash(member);
        // Still visible inside the staleness window…
        driver.tick(&mut registry, SimTime::from_secs(3));
        assert!(driver.is_advertised(&registry, member));
        // …gone after the lease runs out, with no explicit deregistration.
        let expired = driver.tick(&mut registry, SimTime::from_secs(6));
        assert_eq!(expired, 1);
        assert!(!driver.is_advertised(&registry, member));
        assert_eq!(registry.live_count(), 0);
    }

    #[test]
    fn revival_reregisters() {
        let mut formats = FormatRegistry::new();
        let mut registry = ServiceRegistry::new();
        let mut driver = DiscoveryDriver::new(DiscoveryConfig {
            ttl: SimTime::from_secs(5),
        });
        let member = driver.join(&mut registry, descriptor(&mut formats), SimTime::ZERO);
        driver.crash(member);
        driver.tick(&mut registry, SimTime::from_secs(10));
        assert_eq!(registry.live_count(), 0);
        driver
            .revive(&mut registry, member, SimTime::from_secs(11))
            .unwrap();
        assert!(driver.is_advertised(&registry, member));
        driver.tick(&mut registry, SimTime::from_secs(12));
        assert_eq!(registry.live_count(), 1);
    }

    #[test]
    fn reviving_an_alive_member_is_a_no_op() {
        let mut formats = FormatRegistry::new();
        let mut registry = ServiceRegistry::new();
        let mut driver = DiscoveryDriver::new(DiscoveryConfig::default());
        let member = driver.join(&mut registry, descriptor(&mut formats), SimTime::ZERO);
        driver
            .revive(&mut registry, member, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(registry.live_count(), 1, "no duplicate advertisement");
        assert_eq!(driver.member_count(), 1);
    }
}
