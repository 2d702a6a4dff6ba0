//! # dader-obs
//!
//! Zero-dependency observability for the DADER engine: the measurement
//! layer every training run, bench binary and serving process reports
//! through.
//!
//! The subsystems, all std-only and thread-safe:
//!
//! * [`span`] — lightweight wall-clock timers (`span!("gemm")` guards)
//!   aggregated globally by name: call counts, total and *self* time
//!   (total minus time spent in nested spans on the same thread). Spans
//!   are **off by default**; until [`set_enabled`]`(true)` or an open
//!   [`SpanSession`] turns them on, a guard costs one relaxed atomic
//!   load, so instrumented hot paths run at uninstrumented speed.
//! * [`metrics`] — a registry of named counters, gauges and fixed-bucket
//!   histograms (p50/p95/p99 extraction, Prometheus-style text dump).
//!   Handles are lock-free `Arc<Atomic…>` cells, cheap enough to stay
//!   always-on (pool dispatch counters, serve request histograms).
//! * [`window`] — sliding-window companions to the lifetime histograms:
//!   second-resolution slot rings reporting p50/p99 and rates **over the
//!   last N seconds**, the numbers an SLO dashboard actually wants.
//! * [`trace`] — request-scoped tracing: ring-buffered per-`rid` stage
//!   events (parse/queue/dispatch/infer/write) with 1-in-N sampling and a
//!   Chrome `trace_event` JSON exporter. Off by default, like spans.
//! * [`telemetry`] — a JSONL run-telemetry sink: one self-describing
//!   record per training epoch (losses, validation F1, GRL λ, snapshot
//!   flag, wall time, op-level timing summary), written line-buffered so
//!   a crashed run keeps every completed epoch.
//!
//! A fourth subsystem, [`fault`], is the inverse of measurement:
//! failpoint-style fault *injection* (armed via `DADER_FAULTS` or
//! programmatically, zero-cost when off) so the robustness machinery —
//! training resume, health guards, serve timeouts — can be driven
//! deterministically by tests.
//!
//! [`log`] holds the process-wide verbosity level (`quiet`/`info`/
//! `verbose`) that the bench binaries' stderr chatter is gated on.

pub mod fault;
pub mod log;
pub mod metrics;
pub mod span;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use metrics::{
    counter, counter_labeled, counter_labeled_values, gauge, histogram, quantile_from_counts,
    render_prometheus, Counter, Gauge, Histogram, CANDIDATE_SET_BUCKETS,
};
pub use span::{set_enabled, span_enabled, timing_snapshot, SpanSession, SpanStat};
pub use telemetry::{EpochRecord, OpSummary, TelemetrySink};
pub use trace::{Stage, TraceEvent};
pub use window::{windowed, WindowSnapshot, WindowedHistogram};
