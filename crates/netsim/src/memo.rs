//! The memo-off switch. While it is on, every memo of the serving path —
//! the route trees here; the compose memo, graph store and delivery memo
//! above — takes its miss path and reads no stored answer. A miss path
//! is the fresh answer, so a run with the switch on is the memo-less run
//! a memoized run must equal: a test oracle, not a mode. It is one
//! thread-local (an oracle run serves on one worker) and exists in debug
//! builds only; in release builds [`memos_off`] is the constant `false`.

#[cfg(debug_assertions)]
use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static MEMOS_OFF: Cell<bool> = const { Cell::new(false) };
}

/// Whether memos on this thread must answer fresh.
#[inline(always)]
pub fn memos_off() -> bool {
    #[cfg(debug_assertions)]
    let off = MEMOS_OFF.with(Cell::get);
    #[cfg(not(debug_assertions))]
    let off = false;
    off
}

/// Run `f` with every memo on this thread answering fresh.
#[cfg(debug_assertions)]
pub fn with_memos_off<T>(f: impl FnOnce() -> T) -> T {
    let was = MEMOS_OFF.with(|off| off.replace(true));
    let out = f();
    MEMOS_OFF.with(|off| off.set(was));
    out
}
