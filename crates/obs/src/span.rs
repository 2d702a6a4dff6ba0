//! Span timers: RAII guards that aggregate wall time by name.
//!
//! A span measures one region of code. On drop it records its elapsed
//! time under its static name in a global table; the table keeps, per
//! name, the call count, the total wall time, and the *self* time —
//! total minus the time spent inside nested spans opened on the same
//! thread, so an outer `"train.epoch"` span doesn't double-count the
//! `"gemm"` spans it contains. Each thread tracks its own nesting, so
//! spans opened on pool workers aggregate correctly.
//!
//! Spans are disabled by default: [`span`] then returns an inert guard
//! after a single relaxed atomic load, keeping instrumented kernels at
//! uninstrumented speed. Spans record while the manual switch
//! ([`set_enabled`]) is on or any [`SpanSession`] is open. Training with
//! `--telemetry`/`--verbose` holds a session for the run, so overlapping
//! runs in one process keep spans on until the last of them ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide span switch (off by default): bit 0 is the manual flag
/// of [`set_enabled`], the bits above count open [`SpanSession`]s. Spans
/// record while it is non-zero.
static STATE: AtomicUsize = AtomicUsize::new(0);
const MANUAL: usize = 1;
const ONE_SESSION: usize = 2;

/// Aggregated totals per span name.
static REGISTRY: Mutex<Option<HashMap<&'static str, Agg>>> = Mutex::new(None);

#[derive(Clone, Copy, Default)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

thread_local! {
    /// Nanoseconds spent in child spans of the currently open span on
    /// this thread (reset/restored by every guard).
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Turn the manual span switch on or off process-wide. Returns its
/// previous state so scoped callers can restore it. Open
/// [`SpanSession`]s keep spans recording whatever the switch says.
pub fn set_enabled(on: bool) -> bool {
    let prev = if on {
        STATE.fetch_or(MANUAL, Ordering::Relaxed)
    } else {
        STATE.fetch_and(!MANUAL, Ordering::Relaxed)
    };
    prev & MANUAL != 0
}

/// True when spans are currently being recorded.
pub fn span_enabled() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// A counted hold on span recording: spans record while any session is
/// open, so one scoped user ending cannot switch spans off under another
/// that is still running (a swap-and-restore of one flag can, when the
/// two scopes overlap without nesting).
#[must_use = "spans record only while the session is held"]
pub struct SpanSession(());

impl SpanSession {
    /// Open a session; spans record until it (and every other) drops.
    pub fn open() -> SpanSession {
        STATE.fetch_add(ONE_SESSION, Ordering::Relaxed);
        SpanSession(())
    }
}

impl Drop for SpanSession {
    fn drop(&mut self) {
        STATE.fetch_sub(ONE_SESSION, Ordering::Relaxed);
    }
}

/// Open a span; timing stops when the returned guard drops. Inert (one
/// atomic load, no clock read) while spans are disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !span_enabled() {
        return SpanGuard(None);
    }
    // Stash the parent's child-time accumulator and start our own.
    let parent_child_ns = CHILD_NS.with(|c| c.replace(0));
    SpanGuard(Some(Open {
        name,
        start: Instant::now(),
        parent_child_ns,
    }))
}

struct Open {
    name: &'static str,
    start: Instant,
    parent_child_ns: u64,
}

/// RAII guard returned by [`span`]; records on drop.
pub struct SpanGuard(Option<Open>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let elapsed = open.start.elapsed().as_nanos() as u64;
        // Our children's time was accumulated while we were open; restore
        // the parent's accumulator and add our full elapsed time to it.
        let child_ns = CHILD_NS.with(|c| {
            let mine = c.get();
            c.set(open.parent_child_ns.saturating_add(elapsed));
            mine
        });
        let mut table = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let agg = table
            .get_or_insert_with(HashMap::new)
            .entry(open.name)
            .or_default();
        agg.calls += 1;
        agg.total_ns += elapsed;
        agg.self_ns += elapsed.saturating_sub(child_ns);
    }
}

/// Nanoseconds of completed child spans currently charged against the
/// open span on this thread (0 at top level before any span completes).
/// Thread pools read this on a worker at the end of its work list to
/// learn how much child-span time the worker accumulated.
pub fn thread_child_ns() -> u64 {
    CHILD_NS.with(|c| c.get())
}

/// Credit `ns` of child-span time to the currently open span on this
/// thread. This is the bridge for parallel regions: child spans completed
/// on a pool worker accumulate in the *worker's* thread-local ledger,
/// which dies with the worker — without this hand-off the spawning
/// thread's open span would count that wall time as self time while the
/// child span aggregate also counts it (double-counted). The pool calls
/// this after joining its workers with the (clamped) child time they
/// covered.
pub fn add_child_ns(ns: u64) {
    CHILD_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Open a named span guard: `let _g = span!("gemm");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
}

/// Aggregated statistics for one span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// The static name passed to [`span`].
    pub name: &'static str,
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding nested spans on the same thread, nanoseconds.
    pub self_ns: u64,
}

/// Snapshot of every span's aggregate, sorted by descending total time.
pub fn timing_snapshot() -> Vec<SpanStat> {
    let table = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<SpanStat> = table
        .iter()
        .flatten()
        .map(|(&name, a)| SpanStat {
            name,
            calls: a.calls,
            total_ns: a.total_ns,
            self_ns: a.self_ns,
        })
        .collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    out
}

/// Clear all aggregated span data (tests, epoch-delta bookkeeping).
pub fn reset_timing() {
    let mut table = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *table = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// The registry and enable flag are process-global; serialize the
    /// tests that mutate them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn stat(name: &str) -> Option<SpanStat> {
        timing_snapshot().into_iter().find(|s| s.name == name)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        reset_timing();
        set_enabled(false);
        {
            let _s = span("span_test_disabled");
        }
        assert!(stat("span_test_disabled").is_none());
    }

    #[test]
    fn overlapping_sessions_keep_spans_on_until_the_last_closes() {
        let _g = guard();
        let prev = set_enabled(false);
        assert!(!span_enabled());
        let a = SpanSession::open();
        let b = SpanSession::open();
        drop(a); // closes first although opened first: not nested
        assert!(span_enabled(), "b is still open");
        // The manual switch neither ends nor is ended by a session.
        assert!(!set_enabled(true));
        assert!(set_enabled(false));
        assert!(span_enabled(), "b is still open");
        drop(b);
        assert!(!span_enabled());
        set_enabled(prev);
    }

    #[test]
    fn nested_spans_split_self_time() {
        let _g = guard();
        reset_timing();
        let prev = set_enabled(true);
        {
            let _outer = span("span_test_outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span("span_test_inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_enabled(prev);
        let outer = stat("span_test_outer").expect("outer recorded");
        let inner = stat("span_test_inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // The outer span's total covers the inner; its self time must not.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000,
            "outer self {} vs total {} inner {}",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
        // Inner has no children: self == total.
        assert_eq!(inner.self_ns, inner.total_ns);
        reset_timing();
    }

    #[test]
    fn sibling_spans_restore_parent_accumulator() {
        let _g = guard();
        reset_timing();
        let prev = set_enabled(true);
        {
            let _outer = span("span_test_sib_outer");
            for _ in 0..3 {
                let _inner = span("span_test_sib_inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_enabled(prev);
        let outer = stat("span_test_sib_outer").unwrap();
        let inner = stat("span_test_sib_inner").unwrap();
        assert_eq!(inner.calls, 3);
        // All three siblings are excluded from the outer self time.
        assert!(outer.self_ns + inner.total_ns <= outer.total_ns + 1_000_000);
        reset_timing();
    }

    #[test]
    fn concurrent_threads_aggregate_all_calls() {
        let _g = guard();
        reset_timing();
        let prev = set_enabled(true);
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        let _sp = span("span_test_concurrent");
                    }
                });
            }
        });
        set_enabled(prev);
        let st = stat("span_test_concurrent").expect("recorded");
        assert_eq!(st.calls, (threads * per_thread) as u64);
        assert!(st.self_ns <= st.total_ns);
        reset_timing();
    }

    #[test]
    fn snapshot_sorted_by_total_desc() {
        let _g = guard();
        reset_timing();
        let prev = set_enabled(true);
        {
            let _a = span("span_test_sort_slow");
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        {
            let _b = span("span_test_sort_fast");
        }
        set_enabled(prev);
        let snap = timing_snapshot();
        let slow = snap.iter().position(|s| s.name == "span_test_sort_slow").unwrap();
        let fast = snap.iter().position(|s| s.name == "span_test_sort_fast").unwrap();
        assert!(slow < fast, "slow span must sort first");
        reset_timing();
    }
}
