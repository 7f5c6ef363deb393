//! Concurrent composition serving.
//!
//! The paper frames the composition algorithm as something an
//! infrastructure runs per request ("whenever a user requests a
//! multimedia document…", Section 4). A front-end therefore has to
//! serve many requests against one registry and one network snapshot.
//! [`serve_batch`] does exactly that: it fans a vector of
//! [`CompositionRequest`]s across a scoped worker pool in which every
//! worker shares the same [`Composer`] (immutable borrows of registry,
//! format table and network) and one [`ShardedCompositionCache`].
//!
//! Determinism: workers pull requests off a shared atomic index, so
//! *scheduling* is nondeterministic, but each request's outcome depends
//! only on the shared snapshot — composition never mutates it — and the
//! result vector is written by request index. `serve_batch` therefore
//! returns exactly what a sequential loop over the same requests would
//! return, in the same order, for any worker count. Only the cache's
//! hit/miss split may differ (a racing pair of identical cold requests
//! counts two misses instead of a miss and a hit); the total
//! `hits + misses + stale` always equals the number of requests.
//!
//! ## Fault tolerance
//!
//! The serving loop ([`run_sessions`](crate::run_sessions)) composes
//! every session's chain through one function here, private to the
//! crate: it wraps each composition in `catch_unwind` (a poisoned
//! profile fails its own session instead of aborting the run), retries
//! transient registry/network errors with seeded exponential backoff,
//! and — when a request is infeasible or below the user's satisfaction
//! floor — walks the **degradation ladder** of Section 3's adaptation
//! policy: relax the quality floors, fall back to the weighted
//! combination of \[29\], and finally drop the axes of the media kinds the
//! user listed in `degrade_first`. Every rung composes through the
//! run's compose memo: requests are interned once per run, and each
//! (request, rung) resolves its class once (DESIGN.md §17). A batch that
//! wants the ladder, retries or admission is a run of zero-hold
//! sessions.

use crate::admission::{AdmissionDecision, ShedReason};
use crate::cache::{request_key, ShardedCompositionCache};
use crate::compose_memo::{class_hash, Answer, Class, ComposeMemo, Interner};
use crate::composer::Composer;
use crate::plan::AdaptationPlan;
use crate::select::SelectOptions;
use crate::stamp::WorldStamp;
use crate::Result;
use qosc_media::{Axis, MediaKind};
use qosc_netsim::{memo::memos_off, NodeId};
use qosc_profiles::ProfileSet;
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_telemetry::{EventKind, NoopSink, RequestTrace, TelemetrySink, ROOT_SPAN};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One composition request: who is sending what to whom, under which
/// profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionRequest {
    /// The five CC/PP profiles describing the request.
    pub profiles: ProfileSet,
    /// Node hosting the content server.
    pub sender_host: NodeId,
    /// Node hosting the receiving client.
    pub receiver_host: NodeId,
}

/// Tuning for [`serve_batch`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1; `1` serves the batch
    /// inline on the caller's thread).
    pub workers: usize,
    /// Selection options applied to every request in the batch.
    pub options: SelectOptions,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 1,
            options: SelectOptions::default(),
        }
    }
}

/// Render a panic payload for error reporting.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What a request reports when [`fan_out`] lost its worker.
const LOST_WORKER: &str = "worker thread lost before reporting";

/// Run `job(0)..job(n - 1)` on up to `workers` threads and return the
/// results by index — the crate's one worker pool. Workers claim indices
/// off a shared counter: which worker runs a job is left to scheduling,
/// where its result lands is not. One worker runs inline on the caller's
/// thread: at `workers = 0` or `1` nothing is spawned, and the caller's
/// per-thread selection arena stays warm from one call to the next. Jobs
/// guard their own panics; a slot is `None` only when the worker that
/// claimed it died outside that guard, taking everything it had produced
/// with it.
pub(crate) fn fan_out<T: Send>(
    workers: usize,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return local;
            }
            local.push((index, job(index)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut keep = |local: Vec<(usize, T)>| {
        for (index, out) in local {
            slots[index] = Some(out);
        }
    };
    crossbeam::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(n)).map(|_| scope.spawn(worker)).collect();
        // The guard stands in for the join a spawned worker gets.
        keep(catch_unwind(AssertUnwindSafe(worker)).unwrap_or_default());
        for handle in spawned {
            if let Ok(local) = handle.join() {
                keep(local);
            }
        }
    });
    slots
}

/// Serve a batch of requests concurrently through a shared cache.
///
/// Results arrive in request order, one per request: `Ok(Some(plan))`
/// for a solvable request, `Ok(None)` for a currently unsolvable one,
/// `Err` when profile serialization or graph construction failed for
/// that request (one request's failure does not abort the batch). A
/// request whose composition *panics* — a poisoned profile tripping an
/// internal invariant — yields [`CoreError::WorkerPanic`](crate::CoreError::WorkerPanic)
/// for its index and leaves every other request untouched.
pub fn serve_batch(
    composer: &Composer<'_>,
    cache: &ShardedCompositionCache,
    requests: &[CompositionRequest],
    config: &EngineConfig,
) -> Vec<Result<Option<AdaptationPlan>>> {
    serve_batch_traced(composer, cache, requests, config, &NoopSink)
}

/// [`serve_batch`] with every request's cache probe recorded into
/// `sink` (request id = batch index, virtual time 0 — this path has no
/// virtual clock). With [`NoopSink`] this is exactly `serve_batch`.
pub fn serve_batch_traced<S: TelemetrySink>(
    composer: &Composer<'_>,
    cache: &ShardedCompositionCache,
    requests: &[CompositionRequest],
    config: &EngineConfig,
    sink: &S,
) -> Vec<Result<Option<AdaptationPlan>>> {
    fan_out(config.workers, requests.len(), |index| {
        let request = &requests[index];
        // Per-request isolation: a panic poisons this index only, the
        // worker moves on to the next request.
        let mut trace = RequestTrace::new(sink, index as u64, 0);
        catch_unwind(AssertUnwindSafe(|| {
            cache.compose_traced(
                composer,
                &request.profiles,
                request.sender_host,
                request.receiver_host,
                &config.options,
                &mut trace,
            )
        }))
        .unwrap_or_else(|payload| Err(crate::CoreError::WorkerPanic(panic_message(payload))))
    })
    .into_iter()
    .map(|slot| slot.unwrap_or_else(|| Err(crate::CoreError::WorkerPanic(LOST_WORKER.to_string()))))
    .collect()
}

// ---------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------

/// The rung of the degradation ladder that served a request, in
/// strictly-worsening order. Comparison order is quality order:
/// `Full < RelaxedFloor < …` means "less degraded".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DegradationRung {
    /// Served as asked: the user's own floors and combiner.
    #[default]
    Full,
    /// Quality floors relaxed to zero (`min_acceptable → 0`): the user
    /// accepts *some* delivery below the stated minimum rather than
    /// nothing.
    RelaxedFloor,
    /// Floors relaxed and the combiner switched to the weighted
    /// combination of \[29\], so strong axes can compensate weak ones.
    WeightedCombiner,
    /// Floors relaxed, weighted combiner, and the preference axes of the
    /// media kinds the user listed in
    /// [`AdaptationPolicy::degrade_first`](qosc_profiles::AdaptationPolicy)
    /// dropped entirely (Section 3: "drop the audio quality of a
    /// sport-clip before degrading the video").
    DropSecondary,
}

impl DegradationRung {
    /// The ladder, best rung first.
    pub const LADDER: [DegradationRung; 4] = [
        DegradationRung::Full,
        DegradationRung::RelaxedFloor,
        DegradationRung::WeightedCombiner,
        DegradationRung::DropSecondary,
    ];

    /// Stable machine-readable name (used by scorecards).
    pub fn label(self) -> &'static str {
        match self {
            DegradationRung::Full => "full",
            DegradationRung::RelaxedFloor => "relaxed_floor",
            DegradationRung::WeightedCombiner => "weighted_combiner",
            DegradationRung::DropSecondary => "drop_secondary",
        }
    }
}

impl std::fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The media kind a preference axis degrades with, for the
/// `degrade_first` policy. Fidelity is kind-agnostic and never dropped.
fn axis_kind(axis: Axis) -> Option<MediaKind> {
    match axis {
        Axis::FrameRate | Axis::PixelCount | Axis::ColorDepth => Some(MediaKind::Video),
        Axis::SampleRate | Axis::Channels | Axis::SampleDepth => Some(MediaKind::Audio),
        Axis::Fidelity => None,
    }
}

/// Zero a satisfaction function's acceptability floor, keeping its shape
/// above the floor.
fn relax_floor(function: &SatisfactionFn) -> SatisfactionFn {
    match function {
        SatisfactionFn::Linear { ideal, .. } => SatisfactionFn::Linear {
            min_acceptable: 0.0,
            ideal: *ideal,
        },
        SatisfactionFn::Saturating { ideal, scale, .. } => SatisfactionFn::Saturating {
            min_acceptable: 0.0,
            ideal: *ideal,
            scale: *scale,
        },
        SatisfactionFn::Step { .. } => SatisfactionFn::Step { threshold: 0.0 },
        other => other.clone(),
    }
}

/// Rebuild `profile` with every floor relaxed, preserving weights and
/// the combiner.
fn relax_floors(profile: &SatisfactionProfile) -> SatisfactionProfile {
    let mut relaxed = SatisfactionProfile::new().with_combiner(profile.combiner.clone());
    for pref in profile.preferences() {
        relaxed.insert(AxisPreference::weighted(
            pref.axis,
            relax_floor(&pref.function),
            pref.weight,
        ));
    }
    relaxed
}

/// Rebuild `profile` without the axes belonging to the degrade-first
/// media kinds. If the policy would drop everything, the single
/// highest-weight preference survives (ties: lowest axis index) — a
/// request must keep at least one quality axis to optimize.
fn drop_secondary_axes(
    profile: &SatisfactionProfile,
    policy: &qosc_profiles::AdaptationPolicy,
) -> SatisfactionProfile {
    if policy.degrade_first.is_empty() {
        return profile.clone();
    }
    let dropped = |axis: Axis| {
        axis_kind(axis)
            .map(|kind| policy.degrade_first.contains(&kind))
            .unwrap_or(false)
    };
    let mut kept = SatisfactionProfile::new().with_combiner(profile.combiner.clone());
    let mut any = false;
    for pref in profile.preferences() {
        if !dropped(pref.axis) {
            kept.insert(AxisPreference::weighted(
                pref.axis,
                pref.function.clone(),
                pref.weight,
            ));
            any = true;
        }
    }
    if !any {
        if let Some(survivor) = profile.preferences().iter().reduce(|best, pref| {
            if pref.weight > best.weight {
                pref
            } else {
                best
            }
        }) {
            kept.insert(survivor.clone());
        }
    }
    kept
}

/// The profile set a ladder rung composes with. `Full` is the request
/// as asked; every other rung rewrites the user's satisfaction profile
/// (the context profile re-adjusts the rewritten profile exactly as it
/// would the original).
pub fn degrade_profiles(profiles: &ProfileSet, rung: DegradationRung) -> ProfileSet {
    let mut out = profiles.clone();
    if rung >= DegradationRung::RelaxedFloor {
        out.user.satisfaction = relax_floors(&out.user.satisfaction);
    }
    if rung >= DegradationRung::WeightedCombiner {
        out.user.satisfaction.use_weighted_combination();
    }
    if rung >= DegradationRung::DropSecondary {
        out.user.satisfaction = drop_secondary_axes(&out.user.satisfaction, &out.user.policy);
    }
    out
}

// ---------------------------------------------------------------------
// Resilient serving
// ---------------------------------------------------------------------

/// Retry policy for transient composition errors (registry/network
/// revalidation failures).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per ladder rung (clamped to at least 1).
    pub max_attempts: u32,
    /// First backoff, microseconds; doubles per retry.
    pub base_backoff_us: u64,
    /// Backoff ceiling, microseconds.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 250_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): exponential with seeded
    /// half-range jitter. Pure in `(self, attempt, rng-state)`, so a
    /// seeded run reproduces its backoff schedule exactly. The doubling
    /// saturates: any attempt count (even ≥ 64, where `1 << exp` would
    /// overflow a `u64`) yields the jittered ceiling, never a wrap.
    pub fn backoff_for(&self, attempt: u32, rng: &mut SmallRng) -> u64 {
        let exp = attempt.saturating_sub(1);
        let cap = self.max_backoff_us.max(self.base_backoff_us);
        let base = if exp >= 63 {
            cap
        } else {
            self.base_backoff_us.saturating_mul(1u64 << exp).min(cap)
        };
        let jitter = if base > 1 {
            rng.random_range(0..=base / 2)
        } else {
            0
        };
        base.saturating_add(jitter)
    }
}

/// How the serving loop ([`run_sessions`](crate::run_sessions)) composes
/// one session's chain: workers, selection options, retries, ladder and
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct ResilientEngineConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Selection options applied to every composition (the Table-1
    /// trace is never recorded: no outcome carries it).
    pub options: SelectOptions,
    /// Retry policy for transient errors.
    pub retry: RetryPolicy,
    /// Walk the degradation ladder on infeasible/below-floor requests.
    /// When `false` only the starting rung is tried — the binary
    /// served-or-failed behaviour of [`serve_batch`].
    pub ladder: bool,
    /// Seed for backoff jitter; session `i` derives its own stream from
    /// `seed` and `i`, so outcomes are independent of worker scheduling.
    pub seed: u64,
}

impl Default for ResilientEngineConfig {
    fn default() -> ResilientEngineConfig {
        ResilientEngineConfig {
            workers: 1,
            options: SelectOptions::default(),
            retry: RetryPolicy::default(),
            ladder: true,
            seed: 0,
        }
    }
}

/// A composition that served: the plan, still shared with the memo, and
/// the rung that served it.
pub(crate) type Served = (Arc<AdaptationPlan>, DegradationRung);

/// What [`serve_one`] hands the serving loop for one composition.
#[derive(Debug)]
pub(crate) struct RequestOutcome {
    /// What served (`None` when no rung produced a plan above the floor).
    pub(crate) served: Option<Served>,
    /// Composition attempts across all rungs and retries.
    pub(crate) attempts: u32,
}

/// Transient errors are worth retrying: the registry or network may be
/// mid-churn (a lease expiring between graph build and revalidation, a
/// route flapping back). Everything else is deterministic and retrying
/// cannot help.
fn is_transient(error: &crate::CoreError) -> bool {
    matches!(
        error,
        crate::CoreError::Service(_) | crate::CoreError::Net(_)
    )
}

// ---------------------------------------------------------------------
// Composition memo
// ---------------------------------------------------------------------

/// The bucket hash [`intern`] is given outside tests: the composition
/// cache's request key.
pub(crate) fn request_hash(request: &CompositionRequest) -> u64 {
    request_key(
        &request.profiles,
        request.sender_host,
        request.receiver_host,
    )
}

/// Name each of `requests` by a dense id: equal ids exactly for `==`
/// requests, numbered in order of first appearance. Returns the ids, in
/// order, and how many distinct requests there are. A request `==` to
/// the one before it takes that one's id unhashed; any other is hashed
/// with `hash` and confirmed with `==` against the requests already in
/// its bucket, so a collision costs a comparison, never a wrong id.
pub(crate) fn intern<'r>(
    requests: impl IntoIterator<Item = &'r CompositionRequest>,
    hash: impl Fn(&CompositionRequest) -> u64,
) -> (Vec<u32>, usize) {
    let requests = requests.into_iter();
    let mut distinct: Interner<&CompositionRequest> = Interner::default();
    let mut ids = Vec::with_capacity(requests.size_hint().0);
    let mut previous: Option<(&CompositionRequest, u32)> = None;
    for request in requests {
        let id = match previous {
            Some((last, id)) if last == request => id,
            _ => {
                let bucket = hash(request);
                distinct
                    .find(bucket, |&known| known == request)
                    .unwrap_or_else(|| distinct.push(bucket, request))
            }
        };
        ids.push(id);
        previous = Some((request, id));
    }
    (ids, distinct.len())
}

/// `request` composed at `rung` in `composer`'s world through the run's
/// `memo` (DESIGN.md, "Memos"). `class` is where the run keeps the class
/// id of (request, rung): the pair's first compose resolves
/// [`degrade_profiles`]`(request, rung)` and interns it, and every later
/// one passes the id, so it resolves no class, clones no profile and
/// hashes nothing. The memo answers only at the [`WorldStamp`] or the
/// world content an answer was composed at, so an answer is bit for bit
/// what [`Composer::compose`] would return. Unlike
/// [`ShardedCompositionCache`] it never keeps a plan across a world
/// change because the plan still works: a fresh compose may now pick
/// another. An error stores nothing, so retry and backoff draws are
/// those of a memo-less run. Under [`memos_off`] the rung's profiles are
/// composed fresh, and `class` is neither read nor set.
fn compose_rung(
    composer: &Composer<'_>,
    memo: &ComposeMemo,
    class: &OnceLock<u32>,
    request: &CompositionRequest,
    rung: DegradationRung,
    options: &SelectOptions,
) -> Result<Answer> {
    let CompositionRequest {
        profiles,
        sender_host,
        receiver_host,
    } = request;
    if memos_off() {
        let profiles = degrade_profiles(profiles, rung);
        let composed = composer.compose(&profiles, *sender_host, *receiver_host, options)?;
        return Ok(composed.plan.map(Arc::new));
    }
    let id = match class.get() {
        Some(&id) => id,
        None => {
            let resolved = Class::of(
                composer.formats,
                &degrade_profiles(profiles, rung),
                *sender_host,
                *receiver_host,
                options,
            )?;
            *class.get_or_init(|| memo.intern(resolved, class_hash))
        }
    };
    memo.compose_class(
        composer,
        id,
        WorldStamp::of(composer.services, composer.network),
    )
}

/// Serve one request through the ladder (from `start_rung` down), with
/// retries and panic isolation. `classes` are where the run keeps the
/// class ids of `request`'s rungs in `memo`, one per rung of
/// [`DegradationRung::LADDER`]; `index` is the session's, which seeds
/// the backoff jitter. Pure in `(composer snapshot, request, index,
/// config, start_rung)` — the trace records, it never steers, and the
/// memo only changes where a rung's answer comes from (stored, or
/// composed over a reused or rebuilt graph), never what it is.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_one<S: TelemetrySink>(
    composer: &Composer<'_>,
    memo: &ComposeMemo,
    classes: &[OnceLock<u32>],
    request: &CompositionRequest,
    index: usize,
    config: &ResilientEngineConfig,
    start_rung: DegradationRung,
    trace: &mut RequestTrace<'_, S>,
) -> RequestOutcome {
    let mut rng =
        SmallRng::seed_from_u64(config.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let start = start_rung as usize;
    let rungs: &[DegradationRung] = if config.ladder {
        &DegradationRung::LADDER[start..]
    } else {
        &DegradationRung::LADDER[start..=start]
    };

    // No outcome carries the Table-1 trace.
    let options = SelectOptions {
        record_trace: false,
        ..config.options
    };
    let mut attempts = 0u32;
    for (position, &rung) in rungs.iter().enumerate() {
        let rung_span = trace.open_span(ROOT_SPAN, rung.label());
        trace.emit(
            rung_span,
            EventKind::CompositionStarted { rung: rung.label() },
        );
        let mut attempt_in_rung = 0u32;
        let composed = loop {
            attempts += 1;
            attempt_in_rung += 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                compose_rung(
                    composer,
                    memo,
                    &classes[rung as usize],
                    request,
                    rung,
                    &options,
                )
            }));
            match result {
                Ok(Err(e))
                    if is_transient(&e) && attempt_in_rung < config.retry.max_attempts.max(1) =>
                {
                    let step = config.retry.backoff_for(attempt_in_rung, &mut rng);
                    trace.emit(
                        rung_span,
                        EventKind::Retry {
                            attempt: attempt_in_rung,
                            backoff_us: step,
                        },
                    );
                }
                Ok(Ok(composed)) => break composed,
                // A panic is a deterministic fault in the compose path,
                // and any other error is deterministic or out of
                // retries: neither retrying nor degrading can help.
                Err(_) | Ok(Err(_)) => {
                    trace.emit(rung_span, finished_unserved(rung, attempts));
                    return RequestOutcome {
                        served: None,
                        attempts,
                    };
                }
            }
        };
        match composed {
            // A zero-satisfaction plan is below the user's stated
            // minimum — delivering it serves nobody (Section 4.1's
            // floors); the next rung relaxes what "minimum" means.
            Some(plan) if plan.predicted_satisfaction > 0.0 => {
                trace.emit(
                    rung_span,
                    EventKind::CompositionFinished {
                        rung: rung.label(),
                        served: true,
                        satisfaction_micros: (plan.predicted_satisfaction * 1e6).round() as u64,
                        attempts,
                    },
                );
                return RequestOutcome {
                    served: Some((plan, rung)),
                    attempts,
                };
            }
            _ => trace.emit(rung_span, finished_unserved(rung, attempts)),
        }
        if let Some(&next_rung) = rungs.get(position + 1) {
            trace.emit(
                ROOT_SPAN,
                EventKind::RungChange {
                    from: rung.label(),
                    to: next_rung.label(),
                },
            );
        }
    }
    RequestOutcome {
        served: None,
        attempts,
    }
}

/// The event that closes a rung that served nothing.
fn finished_unserved(rung: DegradationRung, attempts: u32) -> EventKind {
    EventKind::CompositionFinished {
        rung: rung.label(),
        served: false,
        satisfaction_micros: 0,
        attempts,
    }
}

/// The trace prologue of an admitted session open: the verdict under an
/// `admission` span, then the clock moves to the virtual service start.
pub(crate) fn trace_admitted<S: TelemetrySink>(
    trace: &mut RequestTrace<'_, S>,
    decision: &AdmissionDecision,
) {
    let admission_span = trace.open_span(ROOT_SPAN, "admission");
    trace.emit(
        admission_span,
        EventKind::RequestAdmitted {
            queue_wait_us: decision.queue_wait_us,
            rung: decision.start_rung.label(),
        },
    );
    trace.advance_to(decision.start_us);
}

/// The trace prologue of a shed session open: the clock moves to the
/// instant the queue gave up on it (saturating at the top of the
/// range), then the shed reason under an `admission` span.
pub(crate) fn trace_shed<S: TelemetrySink>(
    trace: &mut RequestTrace<'_, S>,
    arrival_us: u64,
    queue_wait_us: u64,
    reason: ShedReason,
) {
    let admission_span = trace.open_span(ROOT_SPAN, "admission");
    trace.advance_to(arrival_us.saturating_add(queue_wait_us));
    trace.emit(
        admission_span,
        EventKind::RequestShed {
            reason: reason.label(),
        },
    );
}

#[cfg(test)]
mod memo_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, ArrivalMeta, PriorityClass};
    use crate::session::{
        run_sessions, CloseReason, SessionEngineConfig, SessionRequest, SessionsReport, StaticWorld,
    };
    use crate::test_world::World;
    use qosc_media::{AxisDomain, DomainVector, FormatRegistry, VariantSpec};
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{
        AdaptationPolicy, ContentProfile, ContextProfile, ConversionSpec, DeviceProfile,
        HardwareCaps, NetworkProfile, ServiceSpec, UserProfile,
    };
    use qosc_services::{ServiceRegistry, TranscoderDescriptor};

    fn requests(f: &World, n: usize) -> Vec<CompositionRequest> {
        (0..n)
            .map(|i| CompositionRequest {
                profiles: ProfileSet {
                    user: UserProfile::demo(&format!("user-{}", i % 3)),
                    content: ContentProfile::demo_video("clip"),
                    device: DeviceProfile::demo_pda(),
                    context: ContextProfile::default(),
                    network: NetworkProfile::broadband(),
                },
                sender_host: f.server,
                receiver_host: f.client,
            })
            .collect()
    }

    /// A profile whose content domain violates the "non-empty by
    /// construction" invariant of `AxisDomain::Discrete` — composing it
    /// panics inside the optimizer.
    fn poisoned_request(f: &World) -> CompositionRequest {
        let mut request = requests(f, 1).remove(0);
        request.profiles.content = ContentProfile::new(
            "poison",
            vec![VariantSpec {
                format: "video/mpeg2".to_string(),
                offered: DomainVector::new()
                    .with(qosc_media::Axis::FrameRate, AxisDomain::Discrete(vec![])),
            }],
        );
        request
    }

    /// One session per request, opening at 0 and holding `hold_us`
    /// (0: the requests are a batch).
    fn sessions(requests: &[CompositionRequest], hold_us: u64) -> Vec<SessionRequest> {
        let arrival = ArrivalMeta {
            arrival_us: 0,
            priority: PriorityClass::Standard,
            service_cost_us: 1_000,
            deadline_budget_us: None,
        };
        let session = |request: &CompositionRequest| SessionRequest {
            request: request.clone(),
            arrival,
            hold_us,
            demand_bps: 0,
        };
        requests.iter().map(session).collect()
    }

    /// `sessions` on the serving loop over `f`'s static world, without
    /// ticks or session spans, through `admission` when given.
    fn serve<S: TelemetrySink>(
        f: &World,
        sessions: &[SessionRequest],
        resilient: ResilientEngineConfig,
        admission: Option<AdmissionConfig>,
        sink: &S,
    ) -> SessionsReport {
        let mut world = StaticWorld {
            formats: &f.formats,
            services: &f.services,
            network: &f.network,
        };
        let config = SessionEngineConfig {
            resilient,
            admission,
            tick_us: 0,
            session_spans: false,
            ..SessionEngineConfig::default()
        };
        run_sessions(&mut world, sessions, &config, sink)
    }

    #[test]
    fn fan_out_returns_results_by_index() {
        for workers in [0usize, 1, 2, 9] {
            for n in [0usize, 1, 7] {
                let got = fan_out(workers, n, |index| index * 10);
                let want: Vec<Option<usize>> = (0..n).map(|index| Some(index * 10)).collect();
                assert_eq!(got, want, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn fan_out_loses_only_what_a_dead_worker_had_claimed() {
        use std::sync::{Barrier, Mutex};
        use std::thread::ThreadId;
        const N: usize = 7;
        for workers in [1usize, 3] {
            // The first `workers` jobs meet at a barrier, so every worker
            // holds a result by the time the last job takes its worker down.
            let barrier = Barrier::new(workers);
            let claimed: Mutex<Vec<Option<ThreadId>>> = Mutex::new(vec![None; N]);
            let slots = fan_out(workers, N, |index| {
                claimed.lock().unwrap()[index] = Some(std::thread::current().id());
                if index < workers {
                    barrier.wait();
                }
                if index == N - 1 {
                    panic!("a fault outside any per-request guard");
                }
                index
            });
            let claimed = claimed.into_inner().unwrap();
            let dead = claimed[N - 1];
            let mut lost = 0;
            for (index, slot) in slots.iter().enumerate() {
                if claimed[index] == dead {
                    assert_eq!(*slot, None, "workers={workers} index={index}");
                    lost += 1;
                } else {
                    assert_eq!(*slot, Some(index), "workers={workers} index={index}");
                }
            }
            assert!(lost >= 2, "the dead worker's earlier results go with it");
            if workers == 1 {
                assert_eq!(lost, N);
            } else {
                assert!(lost < N, "the other workers' results survive");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_for_any_worker_count() {
        let f = World::new();
        let composer = f.composer();
        let batch = requests(&f, 12);
        let reference: Vec<_> = {
            let cache = ShardedCompositionCache::new(1);
            batch
                .iter()
                .map(|r| {
                    cache
                        .compose(
                            &composer,
                            &r.profiles,
                            r.sender_host,
                            r.receiver_host,
                            &SelectOptions::default(),
                        )
                        .unwrap()
                })
                .collect()
        };
        for workers in [1usize, 2, 4, 8] {
            let cache = ShardedCompositionCache::default();
            let config = EngineConfig {
                workers,
                ..EngineConfig::default()
            };
            let served = serve_batch(&composer, &cache, &batch, &config);
            assert_eq!(served.len(), batch.len());
            for (got, want) in served.iter().zip(&reference) {
                assert_eq!(got.as_ref().unwrap(), want, "workers={workers}");
            }
            let stats = cache.stats();
            assert_eq!(
                stats.hits + stats.misses + stats.stale,
                batch.len(),
                "exact stats at workers={workers}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let f = World::new();
        let composer = f.composer();
        let cache = ShardedCompositionCache::default();
        let served = serve_batch(&composer, &cache, &[], &EngineConfig::default());
        assert!(served.is_empty());
        assert_eq!(cache.stats(), crate::CacheStats::default());
    }

    #[test]
    fn one_panicking_request_does_not_abort_the_batch() {
        let f = World::new();
        let composer = f.composer();
        let mut batch = requests(&f, 6);
        batch[2] = poisoned_request(&f);
        for workers in [1usize, 4] {
            let cache = ShardedCompositionCache::default();
            let config = EngineConfig {
                workers,
                ..EngineConfig::default()
            };
            let served = serve_batch(&composer, &cache, &batch, &config);
            assert_eq!(served.len(), batch.len(), "one result per request");
            for (i, result) in served.iter().enumerate() {
                if i == 2 {
                    match result {
                        Err(crate::CoreError::WorkerPanic(_)) => {}
                        other => panic!("index 2 should be WorkerPanic, got {other:?}"),
                    }
                } else {
                    assert!(
                        result.as_ref().unwrap().is_some(),
                        "healthy request {i} still served (workers={workers})"
                    );
                }
            }
        }
    }

    /// A tight chain whose deliverable frame rate sits below a strict
    /// quality floor: dark at `Full`, served once the floor relaxes.
    fn floor_fixture() -> (World, CompositionRequest) {
        let mut formats = FormatRegistry::new();
        let linear = qosc_media::BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        formats.register(qosc_media::FormatSpec::new("A", MediaKind::Video, linear));
        formats.register(qosc_media::FormatSpec::new("B", MediaKind::Video, linear));
        let mut topo = Topology::new();
        let server = topo.add_node(Node::unconstrained("server"));
        let proxy = topo.add_node(Node::unconstrained("proxy"));
        let client = topo.add_node(Node::unconstrained("client"));
        topo.connect_simple(server, proxy, 100e6).unwrap();
        // 12 kbit/s → at slope 1000 the receiver can take at most 12 fps.
        topo.connect_simple(proxy, client, 12_000.0).unwrap();
        let network = Network::new(topo);
        let mut services = ServiceRegistry::new();
        let spec = ServiceSpec::new(
            "T",
            vec![ConversionSpec::new(
                "A",
                "B",
                DomainVector::new().with(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 0.0,
                        max: 30.0,
                    },
                ),
            )],
        );
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());

        // The user insists on ≥ 20 fps — infeasible on this last hop.
        let satisfaction = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 20.0,
                ideal: 30.0,
            },
        ));
        let request = CompositionRequest {
            profiles: ProfileSet {
                user: UserProfile::new("strict", satisfaction).with_policy(AdaptationPolicy {
                    degrade_first: vec![MediaKind::Audio],
                }),
                content: ContentProfile::new(
                    "clip",
                    vec![VariantSpec {
                        format: "A".to_string(),
                        offered: DomainVector::new().with(
                            Axis::FrameRate,
                            AxisDomain::Continuous {
                                min: 0.0,
                                max: 30.0,
                            },
                        ),
                    }],
                ),
                device: DeviceProfile::new("dev", vec!["B".to_string()], HardwareCaps::desktop()),
                context: ContextProfile::default(),
                network: NetworkProfile::lan(),
            },
            sender_host: server,
            receiver_host: client,
        };
        let fixture = World {
            formats,
            services,
            network,
            server,
            proxy,
            client,
        };
        (fixture, request)
    }

    #[test]
    fn ladder_serves_below_floor_requests_degraded() {
        let (f, request) = floor_fixture();
        let run = |ladder| {
            let config = ResilientEngineConfig {
                ladder,
                ..ResilientEngineConfig::default()
            };
            let one = sessions(std::slice::from_ref(&request), 1_000_000);
            serve(&f, &one, config, None, &NoopSink)
        };
        // Without the ladder: dark.
        assert_eq!(run(false).counters.failed_open, 1);

        // With the ladder: served at RelaxedFloor with the deliverable
        // 12 fps (satisfaction 12/30 under the relaxed scoring).
        let outcome = &run(true).outcomes[0];
        assert_eq!(outcome.final_rung, Some(DegradationRung::RelaxedFloor));
        let satisfaction = outcome.mean_satisfaction();
        assert!(
            satisfaction > 0.3 && satisfaction < 0.5,
            "≈12/30, got {satisfaction}"
        );
    }

    #[test]
    fn counters_partition_every_mixed_batch() {
        let (floor_f, floor_request) = floor_fixture();
        drop(floor_f);
        let f = World::new();
        let mut batch = requests(&f, 5);
        batch.push(poisoned_request(&f));
        // A request whose endpoints belong to another topology errs
        // (degenerate endpoints / unknown formats) — a failed open.
        batch.push(CompositionRequest {
            profiles: floor_request.profiles.clone(),
            sender_host: f.server,
            receiver_host: f.client,
        });
        for workers in [1usize, 4] {
            let config = ResilientEngineConfig {
                workers,
                ..ResilientEngineConfig::default()
            };
            let report = serve(&f, &sessions(&batch, 0), config, None, &NoopSink);
            let c = report.counters;
            assert!(c.partitions_exactly(), "workers={workers}: {c:?}");
            assert_eq!(c.opened, batch.len());
            assert_eq!(c.completed + c.failed_open, batch.len(), "{c:?}");
            for outcome in &report.outcomes[..5] {
                assert_eq!(
                    outcome.final_rung,
                    Some(DegradationRung::Full),
                    "healthy requests serve at Full"
                );
            }
            let poisoned = &report.outcomes[5];
            assert_eq!(poisoned.close, Some(CloseReason::FailedOpen));
            assert_eq!(
                poisoned.attempts, 1,
                "a panic is neither retried nor degraded"
            );
            assert_eq!(report.outcomes[6].close, Some(CloseReason::FailedOpen));
        }
    }

    #[test]
    fn backoff_saturates_at_extreme_attempt_counts() {
        // Regression: `1u64 << exp` at attempt counts ≥ 64 must
        // saturate to the ceiling, never wrap or panic.
        let policy = RetryPolicy {
            max_attempts: 1_000,
            base_backoff_us: u64::MAX / 2,
            max_backoff_us: u64::MAX,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        for attempt in [63u32, 64, 65, 128, 1_000, u32::MAX] {
            let backoff = policy.backoff_for(attempt, &mut rng);
            assert!(backoff >= u64::MAX / 2, "saturates high, attempt {attempt}");
        }

        // The default policy's schedule is identical to the pre-fix one
        // in its live range (the committed scorecards depend on it).
        let default = RetryPolicy::default();
        let mut a = SmallRng::seed_from_u64(11);
        let old: Vec<u64> = (1..=10)
            .map(|k: u32| {
                let exp = k.saturating_sub(1).min(20);
                let base = default
                    .base_backoff_us
                    .saturating_mul(1u64 << exp)
                    .min(default.max_backoff_us.max(default.base_backoff_us));
                base + if base > 1 {
                    a.random_range(0..=base / 2)
                } else {
                    0
                }
            })
            .collect();
        let mut b = SmallRng::seed_from_u64(11);
        let new: Vec<u64> = (1..=10).map(|k| default.backoff_for(k, &mut b)).collect();
        assert_eq!(old, new);
    }

    #[test]
    fn resilient_serving_is_deterministic_per_seed() {
        let (f, request) = floor_fixture();
        let batch = vec![request.clone(), request];
        let config = ResilientEngineConfig {
            workers: 2,
            seed: 7,
            ..ResilientEngineConfig::default()
        };
        let batch = sessions(&batch, 0);
        let a = serve(&f, &batch, config, None, &NoopSink);
        let b = serve(&f, &batch, config, None, &NoopSink);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn backoff_schedule_is_seeded_and_bounded() {
        let policy = RetryPolicy::default();
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let seq_a: Vec<u64> = (1..=5).map(|k| policy.backoff_for(k, &mut a)).collect();
        let seq_b: Vec<u64> = (1..=5).map(|k| policy.backoff_for(k, &mut b)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        for (k, &backoff) in seq_a.iter().enumerate() {
            assert!(
                backoff <= policy.max_backoff_us + policy.max_backoff_us / 2,
                "attempt {} backoff {} within jittered ceiling",
                k + 1,
                backoff
            );
        }
        // Exponential growth before the ceiling.
        assert!(seq_a[1] >= policy.base_backoff_us * 2);
    }

    #[test]
    fn degrade_profiles_walks_the_documented_ladder() {
        let (_, request) = floor_fixture();
        let full = degrade_profiles(&request.profiles, DegradationRung::Full);
        assert_eq!(full.user.satisfaction, request.profiles.user.satisfaction);

        let relaxed = degrade_profiles(&request.profiles, DegradationRung::RelaxedFloor);
        let pref = &relaxed.user.satisfaction.preferences()[0];
        assert_eq!(
            pref.function,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 30.0
            }
        );

        let weighted = degrade_profiles(&request.profiles, DegradationRung::WeightedCombiner);
        assert!(matches!(
            weighted.user.satisfaction.combiner,
            qosc_satisfaction::Combiner::WeightedHarmonic { .. }
        ));

        // degrade_first = [Audio]; the only pref is a video axis, so it
        // survives the drop rung.
        let dropped = degrade_profiles(&request.profiles, DegradationRung::DropSecondary);
        assert_eq!(dropped.user.satisfaction.preferences().len(), 1);

        // An audio+video profile sheds its audio axes at DropSecondary…
        let mut av = request.profiles.clone();
        av.user.satisfaction = SatisfactionProfile::new()
            .with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            ))
            .with(AxisPreference::weighted(
                Axis::SampleRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 44_100.0,
                },
                2.0,
            ));
        let av_dropped = degrade_profiles(&av, DegradationRung::DropSecondary);
        let axes: Vec<Axis> = av_dropped
            .user
            .satisfaction
            .preferences()
            .iter()
            .map(|p| p.axis)
            .collect();
        assert_eq!(axes, vec![Axis::FrameRate], "audio degrades first");

        // …but a policy that would drop everything keeps the
        // highest-weight preference.
        let mut all_audio = av.clone();
        all_audio.user.satisfaction = SatisfactionProfile::new().with(AxisPreference::weighted(
            Axis::SampleRate,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 44_100.0,
            },
            2.0,
        ));
        let survived = degrade_profiles(&all_audio, DegradationRung::DropSecondary);
        assert_eq!(
            survived.user.satisfaction.preferences().len(),
            1,
            "at least one axis always survives"
        );
    }

    /// A shed at the top of the virtual clock: the shared prologue
    /// saturates instead of wrapping, both called directly (a queue
    /// wait that would overflow) and through the serving loop (two
    /// zero-hold sessions arriving at `u64::MAX - 1` on one core; the
    /// second's zero deadline budget sheds it at arrival).
    #[test]
    fn shed_trace_prologue_saturates_at_the_top_of_the_clock() {
        use qosc_telemetry::FlightRecorder;

        let arrival_us = u64::MAX - 1;
        let shed_events = |recorder: &FlightRecorder| -> Vec<(u64, u64)> {
            recorder
                .merged()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::RequestShed { .. }))
                .map(|e| (e.request_id, e.virtual_time_us))
                .collect()
        };

        let recorder = FlightRecorder::new(1);
        let mut trace = RequestTrace::new(&recorder, 7, arrival_us);
        trace_shed(&mut trace, arrival_us, 5, ShedReason::QueueTimeout);
        assert_eq!(shed_events(&recorder), vec![(7, u64::MAX)]);

        let f = World::new();
        let mut batch = sessions(&requests(&f, 2), 0);
        for (session, deadline_budget_us) in batch.iter_mut().zip([None, Some(0)]) {
            session.arrival.arrival_us = arrival_us;
            session.arrival.deadline_budget_us = deadline_budget_us;
        }
        let admission = AdmissionConfig {
            virtual_cores: 1,
            initial_limit: 1,
            max_limit: 1,
            ..AdmissionConfig::protected()
        };
        let recorder = FlightRecorder::new(1);
        let config = ResilientEngineConfig::default();
        let report = serve(&f, &batch, config, Some(admission), &recorder);
        assert_eq!(report.outcomes[0].close, Some(CloseReason::Completed));
        assert!(report.outcomes[1].shed.is_some());
        assert_eq!(report.outcomes[1].attempts, 0);
        assert_eq!(shed_events(&recorder), vec![(1, arrival_us)]);
    }
}
