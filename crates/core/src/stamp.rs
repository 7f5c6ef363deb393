//! The one stamp every memo of the serving path stores.

use qosc_netsim::Network;
use qosc_services::ServiceRegistry;

/// The world a memoized answer was computed in: [`ServiceRegistry::epoch`]
/// (bumped by every registry write), [`Network::version`] (every network
/// write) and, in a world that replays events, their count (grey state,
/// discovery membership). Equal stamps certify equal inputs, so a memo
/// answers from an entry only at the stamp it stored whole with it — the
/// compose memo also at equal world content, which its row names — and
/// under `qosc_netsim::memo::memos_off` never. What each
/// memo compares:
///
/// | memo | compares | skips, and why |
/// |---|---|---|
/// | `ChaosWorld` delivery memo | the stamp, plan generation, demand | the grant epoch, for the brokered shape (routability, required rate, sag cap): only the grant division reads it, redone whenever it moved |
/// | `ShardedCompositionCache` | no part: a moved registry or network part re-checks its half of the plan | the event count; the cache keeps a plan that still works, and hit/miss/stale is output |
/// | `ComposeMemo` (the cache's and each session run's) | the stamp per slot; on a stamp miss, network version + registry view against the class's recent answers; the class id its owner kept (a cache entry's when the options match, a run's per request and rung), else the request class interned with `==` | the event count: a compose reads no grey state and meets discovery only through the registry; on a stamp miss the registry epoch, because equal `ServiceRegistry::selection_view`s on one registry mean equal compose inputs (`compose_memo.rs`); of the request, every field selection does not read — `user.name` first — because the class is resolved before it is interned |
/// | `GraphStore` | the build-input key, network version, and its own `RegistryStamp` (the flat epoch, or one epoch per expanded shard); equal parts reuse, any moved part rebuilds | the event count, because builds read no grey state; for a scoped graph the registry-wide epoch, because it reads only its expanded shards and would otherwise rebuild on churn it never reads |
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
