//! The one stamp every memo of the serving path stores.

use qosc_netsim::Network;
use qosc_services::ServiceRegistry;

/// The world a memoized answer was computed in: [`ServiceRegistry::epoch`]
/// (bumped by every registry write), [`Network::version`] (every network
/// write) and, in a world that replays events, their count (grey state,
/// discovery membership). Equal stamps certify equal inputs, so a memo
/// answers from an entry only at the stamp it stored whole with it — and
/// under `qosc_netsim::memo::memos_off` never. What each memo compares:
///
/// | memo | compares | skips, and why |
/// |---|---|---|
/// | `ComposeMemo` | the stamp, interned request id, rung | nothing; a compose reads no grey state and meets discovery only through the registry, so its event count is always 0 |
/// | `ChaosWorld` delivery memo | the stamp, plan generation, demand | the grant epoch, for the brokered shape (routability, required rate, sag cap): only the grant division reads it, redone whenever it moved |
/// | `ShardedCompositionCache` | no part: a moved registry or network part re-checks its half of the plan | the event count; the cache keeps a plan that still works, and hit/miss/stale is output |
/// | the cache's compose memo | the whole stamp per class-id slot; the id is the entry's own when the options match, else the request class interned with `==` | nothing of the stamp (its event count is always 0, as for `ComposeMemo`); of the request, every field selection does not read — `user.name` first — because the class is resolved before it is interned |
/// | `GraphStore` | network version; its own per-shard `RegistryStamp` for the registry | a scoped graph reads only its expanded shards, so the registry-wide epoch would rebuild it on churn it never reads; builds read no grey state |
/// | route trees (`Network`) | nothing | dropped eagerly at `Network::routing_changed`; every other version bump moves headroom, never a minimum-delay route |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorldStamp {
    pub(crate) registry_epoch: u64,
    pub(crate) network_version: u64,
    world_events: u64,
}

impl WorldStamp {
    /// The stamp of `services` and `network`, with no world events.
    pub fn of(services: &ServiceRegistry, network: &Network) -> WorldStamp {
        WorldStamp {
            registry_epoch: services.epoch(),
            network_version: network.version(),
            world_events: 0,
        }
    }

    /// This stamp in a world that has applied `count` events.
    pub fn with_world_events(self, count: u64) -> WorldStamp {
        WorldStamp {
            world_events: count,
            ..self
        }
    }
}
