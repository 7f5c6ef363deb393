//! Hashing and allocation gate for the compose memo's hit path, on the
//! strict X16 mesh of the `sessions_chaos` benchmark workload: requests
//! are interned once per run, so a hit hashes no request; and the memo
//! shares its plan, so a hit allocates nothing. What a served session
//! still allocates is the serving loop's own bookkeeping, whether the
//! sessions open together (a batch) or one at a time.
//!
//! One test only, on one thread: the allocation counter is per thread
//! and the hash counter is process-wide. The counting allocator is the
//! one of `tests/broker_alloc.rs`.

use qosc_bench::scorecard;
use qosc_core::{
    request_hashes_total, run_sessions, AdmissionConfig, ArrivalMeta, CompositionRequest,
    DegradationRung, PriorityClass, SessionEngineConfig, SessionRequest, StaticWorld,
};
use qosc_telemetry::NoopSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is counting; const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: defers every request to `System` unchanged; the counter is a
// plain thread-local `Cell` that never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` costs on this thread: heap allocations (fresh, zeroed or
/// resized), and request hashes.
fn cost_of<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let hashes = request_hashes_total();
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = work();
    let allocations = ALLOCATIONS.with(|n| n.replace(None)).expect("counting");
    (out, allocations, request_hashes_total() - hashes)
}

#[test]
fn a_memo_hit_hashes_nothing_and_allocates_nothing() {
    let scenario = scorecard::strict_scenario();
    let request = CompositionRequest {
        profiles: scenario.profiles.clone(),
        sender_host: scenario.sender_host,
        receiver_host: scenario.receiver_host,
    };
    let config = SessionEngineConfig {
        admission: None::<AdmissionConfig>,
        tick_us: 0,
        session_spans: false,
        ..SessionEngineConfig::default()
    };
    assert_eq!(
        config.resilient.workers, 1,
        "everything runs on this thread"
    );
    let world = StaticWorld {
        formats: &scenario.formats,
        services: &scenario.services,
        network: &scenario.network,
    };
    // `count` zero-hold sessions `spacing_us` apart: at 0 they open in
    // one instant and compose in one fan-out, a batch; apart, one at a
    // time. Either way the first open composes and every other is a hit,
    // and the outcome keeps the memo's plan.
    let sessions = |count: u64, spacing_us: u64| -> Vec<SessionRequest> {
        (0..count)
            .map(|i| SessionRequest {
                request: request.clone(),
                arrival: ArrivalMeta {
                    arrival_us: i * spacing_us,
                    priority: PriorityClass::Standard,
                    service_cost_us: 1_000,
                    deadline_budget_us: None,
                },
                hold_us: 0,
                demand_bps: 0,
            })
            .collect()
    };
    // An unmeasured run warms this thread's selection arena, so every
    // miss allocates alike.
    let mut warm = world;
    run_sessions(&mut warm, &sessions(1, 0), &config, &NoopSink);
    for (spacing_us, bookkeeping) in [(0, BATCH_BOOKKEEPING), (1_000, OPEN_BOOKKEEPING)] {
        let mut costs = Vec::new();
        for count in 1..=4 {
            let requests = sessions(count, spacing_us);
            let mut world = world;
            let (report, allocations, hashes) =
                cost_of(|| run_sessions(&mut world, &requests, &config, &NoopSink));
            assert_eq!(report.counters.completed, requests.len());
            for outcome in &report.outcomes {
                assert_eq!(outcome.final_rung, Some(DegradationRung::Full));
                assert_eq!(outcome.attempts, 1);
            }
            assert_eq!(hashes, 1, "{count} equal requests hash once");
            costs.push(allocations);
        }
        for pair in costs.windows(2) {
            assert_eq!(
                pair[1] - pair[0],
                bookkeeping,
                "spacing {spacing_us} µs: a session served by a hit allocates only the loop's bookkeeping"
            );
        }
    }
}

/// What one more session of a batch allocates when a memo hit serves
/// it: the outcome's rung history. The instant's job list, the
/// fan-out's slot and result buffers and the streaming list hold up to
/// four entries from their first allocation. A hit that copied the plan
/// would add its allocations here.
const BATCH_BOOKKEEPING: u64 = 1;

/// What one more session served by a memo hit allocates, all of it the
/// loop's: the instant's job list; the fan-out's thread scope, slot
/// buffer and worker result buffer; and the outcome's rung history. A
/// hit that copied the plan would add its allocations here.
const OPEN_BOOKKEEPING: u64 = 5;
