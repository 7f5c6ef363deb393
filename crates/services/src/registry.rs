//! The service registry: discovery with SLP-style leases.
//!
//! The paper assumes trans-coding services "can be described using any
//! service description language such as JINI, SLP, or WSDL" and that the
//! framework discovers them from intermediary profiles. The behaviour
//! composition needs from that middleware is:
//!
//! * registration of a service description, returning a handle,
//! * *leases*: a registration carries a time-to-live and disappears
//!   unless renewed (this is what makes the system "self-organizing" —
//!   dead proxies fall out of the graph automatically),
//! * lookup by input/output format (graph construction asks "who accepts
//!   format F?"),
//! * an event log, so experiments can observe churn.
//!
//! Time here is [`SimTime`] — the registry lives inside the simulation.

use crate::descriptor::{ServiceId, TranscoderDescriptor};
use crate::{Result, ServiceError};
use qosc_media::FormatId;
use qosc_netsim::SimTime;
use qosc_telemetry::{Event, EventKind, TelemetrySink, REQUEST_NONE};
use std::collections::HashMap;

/// Registry life-cycle events, in occurrence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryEvent {
    /// A service was registered.
    Registered(ServiceId),
    /// A lease was renewed.
    Renewed(ServiceId),
    /// A lease ran out during [`ServiceRegistry::expire_leases`].
    Expired(ServiceId),
    /// A service was explicitly removed.
    Deregistered(ServiceId),
    /// The circuit breaker opened: too many reported failures.
    Quarantined(ServiceId),
    /// A quarantine cool-down elapsed; the service is advertised again.
    Reinstated(ServiceId),
    /// An SLA watchdog probated the service: still advertised, but
    /// deprioritized in selection via an effective-QoS penalty.
    Probated(ServiceId),
    /// Enough half-open probes succeeded; the penalty is lifted.
    ProbationCleared(ServiceId),
}

impl RegistryEvent {
    /// The service this life-cycle event is about.
    pub fn service(&self) -> ServiceId {
        match *self {
            RegistryEvent::Registered(id)
            | RegistryEvent::Renewed(id)
            | RegistryEvent::Expired(id)
            | RegistryEvent::Deregistered(id)
            | RegistryEvent::Quarantined(id)
            | RegistryEvent::Reinstated(id)
            | RegistryEvent::Probated(id)
            | RegistryEvent::ProbationCleared(id) => id,
        }
    }
}

/// Circuit-breaker policy for [`ServiceRegistry::report_failure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long a quarantined service stays out of `accepting`/`producing`.
    pub cooldown_us: u64,
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig {
            failure_threshold: 3,
            cooldown_us: 5_000_000,
        }
    }
}

/// Policy for *probation* — the soft-demotion state between available
/// and quarantined that grey-failure detection uses. A probated
/// service keeps its advertisement (it is still `is_available`), but
/// selection sees a blended effective QoS instead of the advertised
/// one, so composition routes around it whenever an alternative
/// exists. Recovery is half-open: observed-healthy probes clear the
/// penalty, not a blind cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbationConfig {
    /// Weight of the *observed* QoS in the effective blend, permille.
    /// `effective = ((1000 − w)·advertised + w·observed) / 1000`.
    pub observed_weight_permille: u32,
    /// Floor on the effective-QoS factor, PPM — a probated service is
    /// deprioritized, never zeroed out of existence.
    pub floor_ppm: u64,
    /// Healthy probes (at distinct virtual instants) that clear
    /// probation.
    pub probe_successes: u32,
}

impl Default for ProbationConfig {
    fn default() -> ProbationConfig {
        ProbationConfig {
            observed_weight_permille: 700,
            floor_ppm: 50_000,
            probe_successes: 3,
        }
    }
}

/// Probation bookkeeping of one probated service.
#[derive(Debug, Clone, Copy)]
struct ProbationState {
    /// The effective-QoS factor selection multiplies in, PPM.
    effective_ppm: u64,
    /// Healthy probes counted so far (one per distinct instant).
    probes: u32,
    /// The last instant a probe was counted, so several sessions
    /// observing the same recovery in one tick count as one probe —
    /// this is what keeps recovery worker- and session-count
    /// invariant.
    last_probe_at: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct Entry {
    descriptor: TranscoderDescriptor,
    lease_until: SimTime,
    alive: bool,
    /// Consecutive session-reported failures since the last success.
    failures: u32,
    /// `Some(t)`: excluded from lookups until `t` has passed.
    quarantined_until: Option<SimTime>,
}

/// Entries per page of the entry table: 61 440 bytes at 120-byte
/// entries. A power of two, so a page grown by doubling fills its
/// allocation exactly.
const PAGE_ENTRIES: usize = 512;

// A page stays below the 128 KiB at which the system allocator starts
// mapping blocks of their own.
const _: () = assert!(PAGE_ENTRIES * std::mem::size_of::<Entry>() < 128 << 10);

/// The entry table, indexed by [`ServiceId::index`], kept in pages of
/// [`PAGE_ENTRIES`] entries. A page grows by doubling, so a small
/// registry stays small; a full page is never copied again, and no
/// allocation of the table is large: 10^5 entries in one 12 MB block,
/// grown by doubling and rebuilt after a free, leave their earlier
/// copies resident in the allocator's heap.
#[derive(Clone, Default)]
struct Entries {
    pages: Vec<Vec<Entry>>,
}

impl Entries {
    fn len(&self) -> usize {
        match self.pages.last() {
            Some(page) => (self.pages.len() - 1) * PAGE_ENTRIES + page.len(),
            None => 0,
        }
    }

    fn push(&mut self, entry: Entry) {
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE_ENTRIES => page.push(entry),
            _ => self.pages.push(vec![entry]),
        }
    }

    fn get(&self, index: usize) -> Option<&Entry> {
        self.pages
            .get(index / PAGE_ENTRIES)?
            .get(index % PAGE_ENTRIES)
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut Entry> {
        self.pages
            .get_mut(index / PAGE_ENTRIES)?
            .get_mut(index % PAGE_ENTRIES)
    }

    fn iter(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.pages.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry> + '_ {
        self.pages.iter_mut().flatten()
    }
}

impl std::fmt::Debug for Entries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The service registry.
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    entries: Entries,
    events: Vec<RegistryEvent>,
    /// When each event happened (parallel to `events`). Operations
    /// without their own `now` parameter stamp with `clock`, the latest
    /// simulation time this registry has seen.
    event_times: Vec<SimTime>,
    /// Compaction watermark: how many log-leading events have been
    /// discarded by [`ServiceRegistry::compact_events_below`]. The
    /// epoch of the oldest *retained* event; `epoch()` stays monotone
    /// across compaction because it counts discarded events too.
    compacted: u64,
    clock: SimTime,
    /// Format-indexed lookup: input format → service ids in registration
    /// order (live and dead; liveness is filtered on query). Graph
    /// construction calls [`ServiceRegistry::accepting`] once per
    /// (vertex, output-format) pair, so this index is what keeps builds
    /// linear in the edge count rather than quadratic in services.
    by_input: HashMap<FormatId, Vec<ServiceId>>,
    quarantine: QuarantineConfig,
    probation: ProbationConfig,
    /// The state of every probated service, sorted by id: soft-demoted —
    /// advertised, but penalized in selection. Kept beside the entries
    /// rather than in each, since few services are ever probated; every
    /// id here is live (death and quarantine end a probation).
    probations: Vec<(ServiceId, ProbationState)>,
    /// Sorted `(id, effective_ppm)` pairs for every probated entry —
    /// the zero-allocation view selection reads on every compose.
    /// Empty whenever nothing is probated, so the healthy hot path
    /// never pays for the feature.
    penalties: Vec<(ServiceId, u64)>,
    /// Ascending ids of every live, quarantined entry: with `membership`
    /// and `penalties`, what selection reads of the registry that can
    /// move (see [`ServiceRegistry::selection_view`]).
    quarantined: Vec<ServiceId>,
    /// `Registered`, `Deregistered` and `Expired` events recorded so far.
    membership: u64,
}

/// What a compose reads of a [`ServiceRegistry`] beyond each id's
/// descriptor (fixed at registration) and the format index (append-only,
/// one row per registration): which services are live, which of those
/// are quarantined, and the probation penalties. Returned borrowed by
/// [`ServiceRegistry::selection_view`].
///
/// On one registry, equal views mean equal compose inputs. Liveness
/// moves only through `Registered`, `Deregistered` and `Expired` —
/// [`ServiceRegistry::renew`] needs a live entry and no id ever comes
/// back — so, the log being one sequence, equal `membership` counts
/// mean equal live sets. Availability is live and not quarantined, and
/// the penalties are compared whole. The registry `epoch` moves on
/// every write, so a world that returns to an earlier state gets a new
/// epoch but its old view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionView<'a> {
    /// `Registered`, `Deregistered` and `Expired` events so far; never
    /// decreases.
    pub membership: u64,
    /// Ascending ids of the live, quarantined services.
    pub quarantined: &'a [ServiceId],
    /// [`ServiceRegistry::selection_penalties`].
    pub penalties: &'a [(ServiceId, u64)],
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Register a service with a lease lasting until `now + ttl_us`.
    /// Registration order is the deterministic listing order the
    /// selection algorithm's tie-breaking uses.
    pub fn register(
        &mut self,
        descriptor: TranscoderDescriptor,
        now: SimTime,
        ttl_us: u64,
    ) -> ServiceId {
        let id = ServiceId(u32::try_from(self.entries.len()).expect("fewer than 2^32 services"));
        for format in descriptor.input_formats() {
            self.by_input.entry(format).or_default().push(id);
        }
        self.entries.push(Entry {
            descriptor,
            lease_until: now.plus_micros(ttl_us),
            alive: true,
            failures: 0,
            quarantined_until: None,
        });
        self.membership += 1;
        self.push_event(RegistryEvent::Registered(id), now);
        id
    }

    /// Record `event` at `at`, keeping the stamp monotone: an event can
    /// never be recorded before one already in the log.
    fn push_event(&mut self, event: RegistryEvent, at: SimTime) {
        self.clock = self.clock.max(at);
        self.events.push(event);
        self.event_times.push(self.clock);
    }

    /// Register with an effectively infinite lease — for static scenarios
    /// (like the paper's worked example) where churn is not under study.
    pub fn register_static(&mut self, descriptor: TranscoderDescriptor) -> ServiceId {
        self.register(descriptor, SimTime::ZERO, u64::MAX / 2)
    }

    /// Renew a live service's lease until `now + ttl_us`.
    pub fn renew(&mut self, id: ServiceId, now: SimTime, ttl_us: u64) -> Result<()> {
        let entry = self.live_entry_mut(id)?;
        entry.lease_until = now.plus_micros(ttl_us);
        self.push_event(RegistryEvent::Renewed(id), now);
        Ok(())
    }

    /// Explicitly remove a service.
    pub fn deregister(&mut self, id: ServiceId) -> Result<()> {
        let entry = self.live_entry_mut(id)?;
        entry.alive = false;
        let was_probated = self.end_probation(id);
        // No `now` parameter: stamp with the latest time seen.
        let at = self.clock;
        self.membership += 1;
        self.unquarantine(id);
        self.push_event(RegistryEvent::Deregistered(id), at);
        if was_probated {
            self.rebuild_penalties();
        }
        Ok(())
    }

    /// Expire every lease older than `now`. Returns the expired ids in
    /// registration order.
    pub fn expire_leases(&mut self, now: SimTime) -> Vec<ServiceId> {
        let mut expired = Vec::new();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.alive && entry.lease_until < now {
                entry.alive = false;
                expired.push(ServiceId(i as u32));
            }
        }
        let mut dropped_probation = false;
        for &id in &expired {
            dropped_probation |= self.end_probation(id);
            self.membership += 1;
            self.unquarantine(id);
            self.push_event(RegistryEvent::Expired(id), now);
        }
        if dropped_probation {
            self.rebuild_penalties();
        }
        expired
    }

    /// The descriptor of a live service.
    pub fn get(&self, id: ServiceId) -> Result<&TranscoderDescriptor> {
        match self.entries.get(id.index()) {
            Some(e) if e.alive => Ok(&e.descriptor),
            _ => Err(ServiceError::UnknownService(id)),
        }
    }

    /// The descriptor `id` registered with, live or dead — what the
    /// shard overlay re-derives a departed service's classes from.
    pub(crate) fn descriptor(&self, id: ServiceId) -> Option<&TranscoderDescriptor> {
        self.entries.get(id.index()).map(|e| &e.descriptor)
    }

    /// Whether `id` refers to a live service.
    pub fn is_live(&self, id: ServiceId) -> bool {
        self.entries
            .get(id.index())
            .map(|e| e.alive)
            .unwrap_or(false)
    }

    /// All live services, in registration order.
    pub fn live_services(&self) -> impl Iterator<Item = (ServiceId, &TranscoderDescriptor)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, e)| (ServiceId(i as u32), &e.descriptor))
    }

    /// Advertised services accepting `format` as input, in registration
    /// order: live leases that are not quarantined. This is the lookup
    /// graph construction performs for every frontier format; it is
    /// index-backed and O(matches).
    pub fn accepting(&self, format: FormatId) -> Vec<ServiceId> {
        self.accepting_iter(format).collect()
    }

    /// Iterator form of [`accepting`](ServiceRegistry::accepting): the
    /// same ids in the same order, without allocating a `Vec` — used by
    /// the graph-construction hot loop, which runs once per
    /// `(source, format)` pair.
    pub fn accepting_iter(&self, format: FormatId) -> impl Iterator<Item = ServiceId> + '_ {
        self.by_input
            .get(&format)
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&id| self.is_available(id))
    }

    /// Advertised services producing `format` as output, in registration
    /// order (live leases that are not quarantined).
    pub fn producing(&self, format: FormatId) -> Vec<ServiceId> {
        self.live_services()
            .filter(|&(id, d)| d.produces(format) && !self.is_quarantined(id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of live services.
    pub fn live_count(&self) -> usize {
        self.entries.iter().filter(|e| e.alive).count()
    }

    /// The retained event log: everything since construction, minus any
    /// prefix discarded by [`Self::compact_events_below`].
    pub fn events(&self) -> &[RegistryEvent] {
        &self.events
    }

    /// Monotone registry epoch: the number of recorded life-cycle
    /// events. Every mutation that can change what graph construction
    /// or plan revalidation would observe — register, renew,
    /// deregister, per-service lease expiry, quarantine open,
    /// quarantine release, probation open, probation clear — funnels
    /// through `push_event` and therefore
    /// bumps the epoch exactly once per event. Reads never bump it, and
    /// neither do `report_failure` below the breaker threshold,
    /// `report_success`, or sub-threshold half-open probes (they change
    /// no selection-observable state). Probation *does* bump even
    /// though availability is unchanged: the penalty view feeds
    /// satisfaction scoring, so cached plans must recompute. Two equal
    /// epochs on the same registry instance guarantee byte-identical
    /// availability answers, which is what makes O(1) cache
    /// revalidation and graph-store reuse sound.
    pub fn epoch(&self) -> u64 {
        self.compacted + self.events.len() as u64
    }

    /// The compaction watermark: the oldest epoch whose event tail is
    /// still replayable. `events_since(e)` answers `Some` exactly when
    /// `e >= compacted_epoch()`.
    pub fn compacted_epoch(&self) -> u64 {
        self.compacted
    }

    /// The events recorded since `epoch` (a value previously returned
    /// by [`Self::epoch`]), oldest first. An epoch from the future
    /// yields an empty slice. Returns `None` when the tail is no longer
    /// replayable because [`Self::compact_events_below`] discarded part
    /// of it — callers holding such a stale epoch must fall back to a
    /// full rebuild from current state.
    pub fn events_since(&self, epoch: u64) -> Option<&[RegistryEvent]> {
        if epoch < self.compacted {
            return None;
        }
        let start = ((epoch - self.compacted) as usize).min(self.events.len());
        Some(&self.events[start..])
    }

    /// Discard every retained event older than `epoch`, bounding the
    /// log. After this call, `events_since(e)` is `None` for any
    /// `e < min(epoch, self.epoch())` — a consumer that kept such a
    /// stamp must rebuild from current registry state instead of
    /// replaying the tail.
    /// Compacting at or below the current watermark, or past the
    /// current epoch, is safe; the watermark never exceeds `epoch()`.
    /// Returns the number of events discarded.
    pub fn compact_events_below(&mut self, epoch: u64) -> usize {
        let target = epoch.min(self.epoch());
        if target <= self.compacted {
            return 0;
        }
        let drop = (target - self.compacted) as usize;
        self.events.drain(..drop);
        self.event_times.drain(..drop);
        self.compacted = target;
        drop
    }

    /// The retained event log with the [`SimTime`] each event was
    /// recorded at. Stamps are monotone in log order (see `push_event`).
    pub fn timed_events(&self) -> impl Iterator<Item = (SimTime, &RegistryEvent)> + '_ {
        self.event_times.iter().copied().zip(self.events.iter())
    }

    /// Replay the retained event log into a telemetry sink as
    /// flight-recorder events: `request_id` is [`REQUEST_NONE`]
    /// (registry life-cycle belongs to no request), `seq` is the
    /// absolute log position (compaction watermark + retained index, so
    /// it survives compaction unchanged), and the virtual time is the
    /// recorded [`SimTime`] — so the merged log is byte-identical
    /// however the scenario that produced the churn was scheduled.
    pub fn record_telemetry<S: TelemetrySink>(&self, sink: &S) {
        if !sink.enabled() {
            return;
        }
        for (index, (at, event)) in self.timed_events().enumerate() {
            let kind = match *event {
                RegistryEvent::Registered(id) => EventKind::ServiceRegistered {
                    service: id.index() as u32,
                },
                RegistryEvent::Renewed(id) => EventKind::LeaseRenewed {
                    service: id.index() as u32,
                },
                RegistryEvent::Expired(id) => EventKind::LeaseExpired {
                    service: id.index() as u32,
                },
                RegistryEvent::Deregistered(id) => EventKind::ServiceDeregistered {
                    service: id.index() as u32,
                },
                RegistryEvent::Quarantined(id) => EventKind::QuarantineOpened {
                    service: id.index() as u32,
                },
                RegistryEvent::Reinstated(id) => EventKind::QuarantineReleased {
                    service: id.index() as u32,
                },
                RegistryEvent::Probated(id) => EventKind::ServiceProbated {
                    service: id.index() as u32,
                },
                RegistryEvent::ProbationCleared(id) => EventKind::ProbationCleared {
                    service: id.index() as u32,
                },
            };
            sink.record(Event {
                virtual_time_us: at.as_micros(),
                request_id: REQUEST_NONE,
                span: 0,
                seq: (self.compacted + index as u64) as u32,
                kind,
            });
        }
    }

    /// Replace the circuit-breaker policy (defaults to
    /// [`QuarantineConfig::default`]).
    pub fn set_quarantine_config(&mut self, config: QuarantineConfig) {
        self.quarantine = config;
    }

    /// The active circuit-breaker policy.
    pub fn quarantine_config(&self) -> QuarantineConfig {
        self.quarantine
    }

    /// A session reports that `id` failed (crash mid-stream, revalidation
    /// miss, …). After `failure_threshold` consecutive failures the
    /// breaker opens: the service is excluded from [`Self::accepting`] /
    /// [`Self::producing`] until `now + cooldown_us` has *passed* and
    /// [`Self::release_quarantines`] runs. Returns `true` when this
    /// report opened the breaker.
    ///
    /// Failure reports are about *behaviour*, not leases: the lease stays
    /// live (the service still answers renewals), so discovery keeps
    /// working and the service rejoins automatically after the cool-down.
    ///
    /// Reporting a failure against a dead (expired/deregistered) or
    /// already-quarantined service is a **documented no-op** returning
    /// `Ok(false)`: the session loop can observe the same dead member
    /// from several sessions in one instant, and the second report has
    /// nothing left to demote. No failure count moves and no epoch is
    /// bumped, so the no-op is invisible to caches.
    ///
    /// Opening the breaker also clears any probation silently: the
    /// quarantine supersedes the softer penalty, and the `Quarantined`
    /// event already records the availability change.
    pub fn report_failure(&mut self, id: ServiceId, now: SimTime) -> Result<bool> {
        let cooldown = self.quarantine.cooldown_us;
        let threshold = self.quarantine.failure_threshold;
        let entry = match self.entries.get_mut(id.index()) {
            Some(e) if e.alive && e.quarantined_until.is_none() => e,
            _ => return Ok(false),
        };
        entry.failures = entry.failures.saturating_add(1);
        if entry.failures >= threshold {
            entry.quarantined_until = Some(now.plus_micros(cooldown));
            let was_probated = self.end_probation(id);
            if let Err(at) = self.quarantined.binary_search(&id) {
                self.quarantined.insert(at, id);
            }
            self.push_event(RegistryEvent::Quarantined(id), now);
            if was_probated {
                self.rebuild_penalties();
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// A session reports that `id` served successfully: the consecutive
    /// failure count resets. An already-open breaker stays open until its
    /// cool-down elapses (half-open probes do not close it early).
    pub fn report_success(&mut self, id: ServiceId) -> Result<()> {
        let entry = self.live_entry_mut(id)?;
        entry.failures = 0;
        Ok(())
    }

    /// Whether `id` is currently quarantined.
    pub fn is_quarantined(&self, id: ServiceId) -> bool {
        self.entries
            .get(id.index())
            .map(|e| e.quarantined_until.is_some())
            .unwrap_or(false)
    }

    /// Whether `id` is advertised: live lease and not quarantined. This
    /// is the availability check cached-plan revalidation uses.
    pub fn is_available(&self, id: ServiceId) -> bool {
        self.is_live(id) && !self.is_quarantined(id)
    }

    /// Release every quarantine whose cool-down has passed. Mirrors
    /// [`Self::expire_leases`]: a quarantine is still in force at exactly
    /// its release time (strict `<`). Returns reinstated ids in
    /// registration order.
    pub fn release_quarantines(&mut self, now: SimTime) -> Vec<ServiceId> {
        let mut reinstated = Vec::new();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if let Some(until) = entry.quarantined_until {
                if until < now {
                    entry.quarantined_until = None;
                    entry.failures = 0;
                    reinstated.push(ServiceId(i as u32));
                }
            }
        }
        for &id in &reinstated {
            self.unquarantine(id);
            self.push_event(RegistryEvent::Reinstated(id), now);
        }
        reinstated
    }

    /// Replace the probation policy (defaults to
    /// [`ProbationConfig::default`]).
    pub fn set_probation_config(&mut self, config: ProbationConfig) {
        self.probation = config;
    }

    /// The active probation policy.
    pub fn probation_config(&self) -> ProbationConfig {
        self.probation
    }

    /// Soft-demote `id`: an SLA watchdog observed it delivering
    /// `observed_ppm` (PPM of advertised) for a full dwell window. The
    /// service stays advertised — [`Self::is_available`] still holds —
    /// but [`Self::selection_penalties`] gains a blended effective-QoS
    /// factor that selection multiplies into the service's
    /// satisfaction, so composition prefers any clean alternative.
    ///
    /// Returns `true` when this call probated the service. Dead,
    /// quarantined, or already-probated services are no-ops (`false`):
    /// quarantine supersedes probation, and re-flagging an open
    /// episode must not reset half-open progress.
    pub fn probate(&mut self, id: ServiceId, observed_ppm: u64, now: SimTime) -> bool {
        let config = self.probation;
        let slot = match self.entries.get(id.index()) {
            Some(e) if e.alive && e.quarantined_until.is_none() => self.probation_slot(id),
            _ => return false,
        };
        let Err(at) = slot else {
            return false;
        };
        let state = ProbationState {
            effective_ppm: blend_effective_ppm(&config, observed_ppm),
            probes: 0,
            last_probe_at: None,
        };
        self.probations.insert(at, (id, state));
        self.push_event(RegistryEvent::Probated(id), now);
        self.rebuild_penalties();
        true
    }

    /// Count one healthy half-open probe for a probated service. At
    /// most one probe is counted per distinct [`SimTime`] — many
    /// sessions observing the same recovery instant contribute a
    /// single probe, which keeps recovery invariant under session and
    /// worker counts. After
    /// [`ProbationConfig::probe_successes`] distinct healthy instants
    /// the probation clears (one `ProbationCleared` event, one epoch
    /// bump). Returns `true` when this call cleared it.
    pub fn probe_success(&mut self, id: ServiceId, now: SimTime) -> bool {
        let needed = self.probation.probe_successes.max(1);
        let Ok(at) = self.probation_slot(id) else {
            return false;
        };
        let state = &mut self.probations[at].1;
        if state.last_probe_at == Some(now) {
            return false;
        }
        state.last_probe_at = Some(now);
        state.probes += 1;
        if state.probes >= needed {
            self.probations.remove(at);
            self.push_event(RegistryEvent::ProbationCleared(id), now);
            self.rebuild_penalties();
            return true;
        }
        false
    }

    /// Whether `id` is currently probated (advertised but penalized).
    pub fn is_probated(&self, id: ServiceId) -> bool {
        self.probation_slot(id).is_ok()
    }

    /// The effective-QoS factor selection should multiply into `id`'s
    /// satisfaction, PPM. 1_000_000 (advertised-as-is) unless probated.
    pub fn effective_qos_ppm(&self, id: ServiceId) -> u64 {
        self.probation_slot(id)
            .map(|at| self.probations[at].1.effective_ppm)
            .unwrap_or(EFFECTIVE_PPM_UNIT)
    }

    /// The selection penalty view: sorted `(id, effective_ppm)` pairs
    /// for every probated service, empty when nothing is probated.
    /// Borrowed, not built — reading it costs nothing on the healthy
    /// path.
    pub fn selection_penalties(&self) -> &[(ServiceId, u64)] {
        &self.penalties
    }

    /// Recompute the sorted penalty view from the probation table,
    /// which is sorted by id.
    fn rebuild_penalties(&mut self) {
        self.penalties.clear();
        self.penalties.extend(
            self.probations
                .iter()
                .map(|(id, state)| (*id, state.effective_ppm)),
        );
    }

    /// Where `id` sits in the probation table: `Ok` when probated.
    fn probation_slot(&self, id: ServiceId) -> std::result::Result<usize, usize> {
        self.probations
            .binary_search_by_key(&id, |&(probated, _)| probated)
    }

    /// End `id`'s probation, if it has one; whether it had. The caller
    /// rebuilds the penalty view.
    fn end_probation(&mut self, id: ServiceId) -> bool {
        match self.probation_slot(id) {
            Ok(at) => {
                self.probations.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// What selection reads of this registry that can move, borrowed:
    /// the membership count, the live quarantined ids and the penalty
    /// view. Kept up to date by the writes, so reading it costs nothing.
    pub fn selection_view(&self) -> SelectionView<'_> {
        SelectionView {
            membership: self.membership,
            quarantined: &self.quarantined,
            penalties: &self.penalties,
        }
    }

    /// Drop `id` from the quarantined view, if it is there: its
    /// quarantine was released, or it died (a dead entry is never
    /// available, quarantined or not).
    fn unquarantine(&mut self, id: ServiceId) {
        if let Ok(at) = self.quarantined.binary_search(&id) {
            self.quarantined.remove(at);
        }
    }

    fn live_entry_mut(&mut self, id: ServiceId) -> Result<&mut Entry> {
        match self.entries.get_mut(id.index()) {
            Some(e) if e.alive => Ok(e),
            _ => Err(ServiceError::UnknownService(id)),
        }
    }
}

/// PPM unit for effective-QoS factors.
const EFFECTIVE_PPM_UNIT: u64 = 1_000_000;

/// `((1000 − w)·advertised + w·observed) / 1000`, floored: the
/// effective-QoS blend a probated service is scored with.
fn blend_effective_ppm(config: &ProbationConfig, observed_ppm: u64) -> u64 {
    let w = u64::from(config.observed_weight_permille.min(1_000));
    let observed = observed_ppm.min(EFFECTIVE_PPM_UNIT);
    let blended = ((1_000 - w) * EFFECTIVE_PPM_UNIT + w * observed) / 1_000;
    blended.max(config.floor_ppm.min(EFFECTIVE_PPM_UNIT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{DomainVector, FormatRegistry, MediaKind};
    use qosc_netsim::{Node, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};

    fn setup() -> (ServiceRegistry, FormatRegistry, TranscoderDescriptor) {
        let mut formats = FormatRegistry::new();
        formats.register_abstract("in", MediaKind::Video);
        formats.register_abstract("out", MediaKind::Video);
        let mut topo = Topology::new();
        let node = topo.add_node(Node::unconstrained("host"));
        let spec = ServiceSpec::new(
            "svc",
            vec![ConversionSpec::new("in", "out", DomainVector::new())],
        );
        let descriptor = TranscoderDescriptor::resolve(&spec, &formats, node).unwrap();
        (ServiceRegistry::new(), formats, descriptor)
    }

    #[test]
    fn the_entry_table_reads_the_same_across_its_pages() {
        let (mut reg, _, d) = setup();
        let count = 2 * PAGE_ENTRIES + 3;
        for i in 0..count {
            let ttl = if i % 2 == 0 { 10 } else { 1_000 };
            assert_eq!(reg.register(d.clone(), SimTime::ZERO, ttl).index(), i);
        }
        assert_eq!(reg.entries.len(), count);
        assert_eq!(reg.entries.pages.len(), 3);
        assert!(reg.entries.pages[..2]
            .iter()
            .all(|p| p.capacity() == PAGE_ENTRIES));
        let last = ServiceId((count - 1) as u32);
        reg.deregister(last).unwrap();
        assert!(!reg.is_live(last));
        assert!(reg.get(ServiceId(count as u32)).is_err());
        // Every even id expires, across all three pages, in id order.
        let expired = reg.expire_leases(SimTime(100));
        let even: Vec<ServiceId> = (0..count - 1)
            .step_by(2)
            .map(|i| ServiceId(i as u32))
            .collect();
        assert_eq!(expired, even);
        assert_eq!(reg.live_count(), (count - 1) / 2);
        assert!(reg.is_live(ServiceId(PAGE_ENTRIES as u32 + 1)));
        assert!(!reg.is_live(ServiceId(PAGE_ENTRIES as u32)));
    }

    #[test]
    fn register_and_lookup_by_format() {
        let (mut reg, formats, descriptor) = setup();
        let id = reg.register_static(descriptor);
        let fin = formats.lookup("in").unwrap();
        let fout = formats.lookup("out").unwrap();
        assert_eq!(reg.accepting(fin), vec![id]);
        assert!(reg.accepting(fout).is_empty());
        assert_eq!(reg.producing(fout), vec![id]);
        assert_eq!(reg.live_count(), 1);
    }

    #[test]
    fn lease_expiry_removes_service() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register(descriptor, SimTime::ZERO, 1_000);
        assert!(reg.is_live(id));
        let expired = reg.expire_leases(SimTime(2_000));
        assert_eq!(expired, vec![id]);
        assert!(!reg.is_live(id));
        assert!(reg.get(id).is_err());
        // Idempotent.
        assert!(reg.expire_leases(SimTime(3_000)).is_empty());
    }

    #[test]
    fn renewal_extends_lease() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register(descriptor, SimTime::ZERO, 1_000);
        reg.renew(id, SimTime(900), 10_000).unwrap();
        assert!(reg.expire_leases(SimTime(5_000)).is_empty());
        assert!(reg.is_live(id));
    }

    #[test]
    fn deregister_and_double_ops_error() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.deregister(id).unwrap();
        assert!(reg.deregister(id).is_err());
        assert!(reg.renew(id, SimTime::ZERO, 1).is_err());
    }

    #[test]
    fn event_log_records_lifecycle() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register(descriptor.clone(), SimTime::ZERO, 1_000);
        reg.renew(id, SimTime(500), 1_000).unwrap();
        reg.expire_leases(SimTime(10_000));
        let id2 = reg.register_static(descriptor);
        reg.deregister(id2).unwrap();
        assert_eq!(
            reg.events(),
            &[
                RegistryEvent::Registered(id),
                RegistryEvent::Renewed(id),
                RegistryEvent::Expired(id),
                RegistryEvent::Registered(id2),
                RegistryEvent::Deregistered(id2),
            ]
        );
    }

    #[test]
    fn quarantine_opens_after_threshold_and_releases_after_cooldown() {
        let (mut reg, formats, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 3,
            cooldown_us: 1_000,
        });
        let fin = formats.lookup("in").unwrap();
        let fout = formats.lookup("out").unwrap();
        assert!(!reg.report_failure(id, SimTime(10)).unwrap());
        assert!(!reg.report_failure(id, SimTime(20)).unwrap());
        assert!(!reg.is_quarantined(id));
        assert!(reg.report_failure(id, SimTime(30)).unwrap());
        assert!(reg.is_quarantined(id));
        // Quarantined services vanish from lookups but stay live.
        assert!(reg.accepting(fin).is_empty());
        assert!(reg.producing(fout).is_empty());
        assert!(reg.is_live(id));
        assert!(!reg.is_available(id));
        // Still in force at exactly the release time (strict `<`).
        assert!(reg.release_quarantines(SimTime(1_030)).is_empty());
        assert!(reg.is_quarantined(id));
        assert_eq!(reg.release_quarantines(SimTime(1_031)), vec![id]);
        assert!(!reg.is_quarantined(id));
        assert_eq!(reg.accepting(fin), vec![id]);
        assert_eq!(
            reg.events().last(),
            Some(&RegistryEvent::Reinstated(id)),
            "reinstatement is observable"
        );
    }

    #[test]
    fn success_resets_the_failure_count() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 2,
            cooldown_us: 1_000,
        });
        assert!(!reg.report_failure(id, SimTime(10)).unwrap());
        reg.report_success(id).unwrap();
        assert!(!reg.report_failure(id, SimTime(20)).unwrap());
        assert!(
            !reg.is_quarantined(id),
            "success between failures keeps the breaker closed"
        );
        assert!(reg.report_failure(id, SimTime(30)).unwrap());
        assert!(reg.events().contains(&RegistryEvent::Quarantined(id)));
    }

    #[test]
    fn failure_reports_on_dead_or_quarantined_services_are_noops() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register(descriptor, SimTime::ZERO, 100);
        reg.expire_leases(SimTime(200));
        let epoch = reg.epoch();
        // Several sessions can observe the same dead member in one
        // instant; the late reports must be silent no-ops, not errors.
        assert!(!reg.report_failure(id, SimTime(300)).unwrap());
        assert!(!reg.report_failure(id, SimTime(300)).unwrap());
        assert_eq!(reg.epoch(), epoch, "no-op reports never bump the epoch");
        // Success reports still error: claiming a dead service served
        // is a caller bug worth surfacing.
        assert!(reg.report_success(id).is_err());
    }

    #[test]
    fn failure_reports_on_quarantined_services_are_noops() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 1_000,
        });
        assert!(reg.report_failure(id, SimTime(10)).unwrap());
        assert!(reg.is_quarantined(id));
        let epoch = reg.epoch();
        assert!(
            !reg.report_failure(id, SimTime(20)).unwrap(),
            "an open breaker absorbs further reports"
        );
        assert_eq!(reg.epoch(), epoch);
        // The absorbed report did not extend the cooldown.
        assert_eq!(reg.release_quarantines(SimTime(1_011)), vec![id]);
    }

    #[test]
    fn probation_penalizes_without_deadvertising() {
        let (mut reg, formats, descriptor) = setup();
        let id = reg.register_static(descriptor);
        let fin = formats.lookup("in").unwrap();
        assert!(reg.selection_penalties().is_empty());
        assert_eq!(reg.effective_qos_ppm(id), 1_000_000);

        assert!(reg.probate(id, 400_000, SimTime(100)));
        assert!(reg.is_probated(id));
        assert!(reg.is_available(id), "probation keeps the advertisement");
        assert_eq!(reg.accepting(fin), vec![id], "still selectable");
        // blend: (300·1M + 700·400k) / 1000 = 580k.
        assert_eq!(reg.effective_qos_ppm(id), 580_000);
        assert_eq!(reg.selection_penalties(), &[(id, 580_000)]);
        // Re-flagging an open episode is a no-op.
        assert!(!reg.probate(id, 100_000, SimTime(200)));
        assert_eq!(reg.effective_qos_ppm(id), 580_000);
    }

    #[test]
    fn probation_clears_after_distinct_probe_instants() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.set_probation_config(ProbationConfig {
            probe_successes: 2,
            ..ProbationConfig::default()
        });
        assert!(reg.probate(id, 0, SimTime(100)));
        assert!(!reg.probe_success(id, SimTime(200)));
        // The same instant again — from another session — is one probe.
        assert!(!reg.probe_success(id, SimTime(200)));
        assert!(reg.is_probated(id));
        assert!(reg.probe_success(id, SimTime(300)), "second instant clears");
        assert!(!reg.is_probated(id));
        assert!(reg.selection_penalties().is_empty());
        assert_eq!(
            reg.events().last(),
            Some(&RegistryEvent::ProbationCleared(id))
        );
    }

    #[test]
    fn quarantine_supersedes_probation() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 1_000,
        });
        assert!(reg.probate(id, 500_000, SimTime(10)));
        assert!(reg.report_failure(id, SimTime(20)).unwrap());
        assert!(reg.is_quarantined(id));
        assert!(!reg.is_probated(id), "the breaker clears the soft state");
        assert!(reg.selection_penalties().is_empty());
        // Probating a quarantined service is refused.
        assert!(!reg.probate(id, 500_000, SimTime(30)));
    }

    #[test]
    fn expiry_drops_probation_penalties() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register(descriptor, SimTime::ZERO, 1_000);
        assert!(reg.probate(id, 0, SimTime(100)));
        assert_eq!(reg.selection_penalties().len(), 1);
        reg.expire_leases(SimTime(2_000));
        assert!(reg.selection_penalties().is_empty());
        assert!(!reg.is_probated(id));
        assert!(!reg.probe_success(id, SimTime(3_000)), "dead: no-op");
    }

    #[test]
    fn effective_blend_is_floored() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register_static(descriptor);
        reg.set_probation_config(ProbationConfig {
            observed_weight_permille: 1_000,
            floor_ppm: 50_000,
            probe_successes: 3,
        });
        assert!(reg.probate(id, 0, SimTime(10)));
        assert_eq!(
            reg.effective_qos_ppm(id),
            50_000,
            "a fully-sagged observation still leaves the floor"
        );
    }

    #[test]
    fn epoch_bumps_exactly_once_per_mutation() {
        let (mut reg, _, descriptor) = setup();
        assert_eq!(reg.epoch(), 0);

        let id = reg.register(descriptor.clone(), SimTime::ZERO, 1_000);
        assert_eq!(reg.epoch(), 1, "register bumps once");

        reg.renew(id, SimTime(500), 1_000).unwrap();
        assert_eq!(reg.epoch(), 2, "renew bumps once");

        let id2 = reg.register(descriptor.clone(), SimTime(600), 1_000);
        let id3 = reg.register(descriptor, SimTime(600), 500);
        assert_eq!(reg.epoch(), 4);

        // One bump per expired lease, none when nothing expires.
        reg.expire_leases(SimTime(1_200));
        assert_eq!(reg.epoch(), 5, "only {id3:?} expired");
        assert!(!reg.is_live(id3));
        reg.expire_leases(SimTime(1_200));
        assert_eq!(reg.epoch(), 5, "no-op expiry does not bump");

        reg.deregister(id2).unwrap();
        assert_eq!(reg.epoch(), 6, "deregister bumps once");

        // Failure reports below the breaker threshold change no
        // advertised state and must not bump; the report that opens the
        // breaker bumps exactly once.
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 2,
            cooldown_us: 1_000,
        });
        assert!(!reg.report_failure(id, SimTime(1_300)).unwrap());
        assert_eq!(reg.epoch(), 6, "sub-threshold failure does not bump");
        reg.report_success(id).unwrap();
        assert_eq!(reg.epoch(), 6, "success report does not bump");
        assert!(!reg.report_failure(id, SimTime(1_400)).unwrap());
        assert!(reg.report_failure(id, SimTime(1_500)).unwrap());
        assert_eq!(reg.epoch(), 7, "breaker opening bumps once");

        // One bump per reinstated quarantine, none before the cooldown.
        assert!(reg.release_quarantines(SimTime(2_500)).is_empty());
        assert_eq!(reg.epoch(), 7);
        assert_eq!(reg.release_quarantines(SimTime(2_501)), vec![id]);
        assert_eq!(reg.epoch(), 8, "quarantine release bumps once");

        // Probation changes selection-observable state (the penalty
        // view), so open and clear each bump exactly once; the
        // sub-threshold half-open probe in between does not.
        reg.set_probation_config(ProbationConfig {
            probe_successes: 2,
            ..ProbationConfig::default()
        });
        assert!(reg.probate(id, 500_000, SimTime(3_000)));
        assert_eq!(reg.epoch(), 9, "probate bumps once");
        assert!(!reg.probe_success(id, SimTime(3_100)));
        assert_eq!(reg.epoch(), 9, "sub-threshold probe does not bump");
        assert!(reg.probe_success(id, SimTime(3_200)));
        assert_eq!(reg.epoch(), 10, "probation clear bumps once");
    }

    #[test]
    fn events_since_returns_the_tail() {
        let (mut reg, _, descriptor) = setup();
        let id = reg.register(descriptor.clone(), SimTime::ZERO, 1_000);
        let mark = reg.epoch();
        let id2 = reg.register_static(descriptor);
        reg.renew(id, SimTime(100), 1_000).unwrap();
        assert_eq!(
            reg.events_since(mark).unwrap(),
            &[RegistryEvent::Registered(id2), RegistryEvent::Renewed(id)]
        );
        assert!(reg.events_since(reg.epoch()).unwrap().is_empty());
        assert!(
            reg.events_since(u64::MAX).unwrap().is_empty(),
            "future epoch is empty"
        );
        assert_eq!(reg.events_since(0).unwrap().len(), reg.epoch() as usize);
    }

    #[test]
    fn compaction_bounds_the_log_without_moving_the_epoch() {
        let (mut reg, _, descriptor) = setup();
        let a = reg.register(descriptor.clone(), SimTime::ZERO, 1_000);
        reg.renew(a, SimTime(100), 1_000).unwrap();
        let mark = reg.epoch();
        let b = reg.register_static(descriptor);
        let epoch = reg.epoch();
        assert_eq!(epoch, 3);

        // Compacting below `mark` keeps tails at or after it replayable.
        assert_eq!(reg.compact_events_below(mark), 2);
        assert_eq!(reg.epoch(), epoch, "compaction never moves the epoch");
        assert_eq!(reg.compacted_epoch(), mark);
        assert_eq!(reg.events(), &[RegistryEvent::Registered(b)]);
        assert_eq!(
            reg.events_since(mark).unwrap(),
            &[RegistryEvent::Registered(b)]
        );
        // A stamp older than the watermark is no longer replayable.
        assert_eq!(reg.events_since(mark - 1), None);
        assert_eq!(reg.events_since(0), None);

        // Compacting at or below the watermark is an idempotent no-op.
        assert_eq!(reg.compact_events_below(mark), 0);
        assert_eq!(reg.compact_events_below(0), 0);

        // Compacting past the live epoch clamps: the epoch and new
        // tails survive, the whole retained log is discarded.
        assert_eq!(reg.compact_events_below(u64::MAX), 1);
        assert_eq!(reg.epoch(), epoch);
        assert_eq!(reg.compacted_epoch(), epoch);
        assert!(reg.events().is_empty());
        assert!(reg.events_since(epoch).unwrap().is_empty());
        assert_eq!(reg.events_since(mark), None);

        // The log keeps growing normally after compaction.
        reg.deregister(b).unwrap();
        assert_eq!(reg.epoch(), epoch + 1);
        assert_eq!(
            reg.events_since(epoch).unwrap(),
            &[RegistryEvent::Deregistered(b)]
        );
    }

    #[test]
    fn telemetry_seq_is_the_absolute_log_position_after_compaction() {
        use qosc_telemetry::FlightRecorder;
        let (mut reg, _, descriptor) = setup();
        let a = reg.register(descriptor.clone(), SimTime::ZERO, 1_000);
        reg.renew(a, SimTime(100), 1_000).unwrap();
        let b = reg.register_static(descriptor);
        reg.deregister(b).unwrap();

        let full = FlightRecorder::default();
        reg.record_telemetry(&full);
        let all: Vec<u32> = full.merged().into_iter().map(|e| e.seq).collect();
        assert_eq!(all, vec![0, 1, 2, 3]);

        reg.compact_events_below(2);
        let tail = FlightRecorder::default();
        reg.record_telemetry(&tail);
        let kept: Vec<u32> = tail.merged().into_iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3], "seq survives compaction unchanged");
    }

    /// One write of [`selection_view_tracks_a_scan`]'s op sequences;
    /// `pick` chooses among the ids registered so far, dead ones too.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Register { ttl_us: u64 },
        Renew { pick: usize },
        Deregister { pick: usize },
        Expire,
        ReportFailure { pick: usize },
        Release,
        Probate { pick: usize, observed_ppm: u64 },
        ProbeSuccess { pick: usize },
    }

    fn arb_op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        (0u8..8, 0usize..64, 1u64..8, 0u64..1_000_000).prop_map(
            |(kind, pick, span, ppm)| match kind {
                0 => Op::Register { ttl_us: span * 500 },
                1 => Op::Renew { pick },
                2 => Op::Deregister { pick },
                3 => Op::Expire,
                4 => Op::ReportFailure { pick },
                5 => Op::Release,
                6 => Op::Probate {
                    pick,
                    observed_ppm: ppm,
                },
                _ => Op::ProbeSuccess { pick },
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// After every write, the selection view equals a scan of entry
        /// state: the live quarantined ids ascending, the live probated
        /// ids with their factors, and a membership count that moved by
        /// exactly the `Registered`, `Deregistered` and `Expired` events
        /// the write recorded. `renew` of a dead id errs and records
        /// nothing, which the view's exactness argument relies on.
        #[test]
        fn selection_view_tracks_a_scan(
            ops in proptest::collection::vec(arb_op(), 1..48),
        ) {
            let (mut reg, _, descriptor) = setup();
            reg.set_quarantine_config(QuarantineConfig {
                failure_threshold: 2,
                cooldown_us: 700,
            });
            reg.set_probation_config(ProbationConfig {
                probe_successes: 2,
                ..ProbationConfig::default()
            });
            let mut ids: Vec<ServiceId> = Vec::new();
            let mut now = 0u64;
            for op in ops {
                now += 250;
                let at = SimTime(now);
                let (epoch, membership) = (reg.epoch(), reg.selection_view().membership);
                let id = |pick: usize| ids.get(pick % ids.len().max(1)).copied();
                match op {
                    Op::Register { ttl_us } => ids.push(reg.register(descriptor.clone(), at, ttl_us)),
                    Op::Renew { pick } => {
                        if let Some(id) = id(pick) {
                            let live = reg.is_live(id);
                            proptest::prop_assert_eq!(reg.renew(id, at, 1_000).is_ok(), live);
                            if !live {
                                proptest::prop_assert_eq!(reg.epoch(), epoch, "a refused renew records nothing");
                            }
                        }
                    }
                    Op::Deregister { pick } => {
                        if let Some(id) = id(pick) {
                            let _ = reg.deregister(id);
                        }
                    }
                    Op::Expire => {
                        reg.expire_leases(at);
                    }
                    Op::ReportFailure { pick } => {
                        if let Some(id) = id(pick) {
                            let _ = reg.report_failure(id, at);
                        }
                    }
                    Op::Release => {
                        reg.release_quarantines(at);
                    }
                    Op::Probate { pick, observed_ppm } => {
                        if let Some(id) = id(pick) {
                            reg.probate(id, observed_ppm, at);
                        }
                    }
                    Op::ProbeSuccess { pick } => {
                        if let Some(id) = id(pick) {
                            reg.probe_success(id, at);
                        }
                    }
                }
                let view = reg.selection_view();
                let quarantined: Vec<ServiceId> = reg
                    .live_services()
                    .map(|(id, _)| id)
                    .filter(|&id| reg.is_quarantined(id))
                    .collect();
                proptest::prop_assert_eq!(view.quarantined, &quarantined[..]);
                let penalties: Vec<(ServiceId, u64)> = reg
                    .live_services()
                    .map(|(id, _)| id)
                    .filter(|&id| reg.is_probated(id))
                    .map(|id| (id, reg.effective_qos_ppm(id)))
                    .collect();
                proptest::prop_assert_eq!(view.penalties, &penalties[..]);
                proptest::prop_assert_eq!(view.penalties, reg.selection_penalties());
                let moved = reg
                    .events_since(epoch)
                    .expect("never compacted")
                    .iter()
                    .filter(|event| {
                        matches!(
                            event,
                            RegistryEvent::Registered(_)
                                | RegistryEvent::Deregistered(_)
                                | RegistryEvent::Expired(_)
                        )
                    })
                    .count() as u64;
                proptest::prop_assert_eq!(view.membership, membership + moved);
            }
        }
    }

    /// The view forgets a quarantine when it is released and when the
    /// quarantined service dies, and a world that returns to an earlier
    /// state returns to its view under a new epoch.
    #[test]
    fn the_selection_view_returns_with_the_state() {
        let (mut reg, _, descriptor) = setup();
        reg.set_quarantine_config(QuarantineConfig {
            failure_threshold: 1,
            cooldown_us: 100,
        });
        let a = reg.register_static(descriptor.clone());
        let b = reg.register(descriptor, SimTime::ZERO, 1_000);
        let before = reg.selection_view();
        let (membership, epoch) = (before.membership, reg.epoch());
        assert_eq!(membership, 2);
        assert!(before.quarantined.is_empty());

        assert!(reg.report_failure(b, SimTime(10)).unwrap());
        assert!(reg.report_failure(a, SimTime(10)).unwrap());
        assert_eq!(reg.selection_view().quarantined, &[a, b]);
        assert_eq!(reg.release_quarantines(SimTime(200)), vec![a, b]);
        let back = reg.selection_view();
        assert_eq!(back.quarantined, &[] as &[ServiceId]);
        assert_eq!(back.membership, membership);
        assert_ne!(reg.epoch(), epoch, "the epoch counts the round trip");

        assert!(reg.report_failure(b, SimTime(300)).unwrap());
        assert_eq!(reg.expire_leases(SimTime(2_000)), vec![b]);
        let view = reg.selection_view();
        assert!(view.quarantined.is_empty(), "a dead service is not listed");
        assert_eq!(view.membership, membership + 1);
        // Renewing the dead lease errs, so liveness never comes back.
        assert!(reg.renew(b, SimTime(2_100), 1_000).is_err());
        assert_eq!(reg.selection_view().membership, membership + 1);
    }

    #[test]
    fn registration_order_is_stable() {
        let (mut reg, _, descriptor) = setup();
        let a = reg.register_static(descriptor.clone());
        let b = reg.register_static(descriptor.clone());
        let c = reg.register_static(descriptor);
        reg.deregister(b).unwrap();
        let ids: Vec<ServiceId> = reg.live_services().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
    }
}
