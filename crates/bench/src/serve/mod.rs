//! Match serving: answer newline-delimited JSON pair-match requests with a
//! loaded [`ModelArtifact`] — the deployment half of the train-once /
//! serve-many workflow (see the `dader-serve` binary).
//!
//! ## Protocol
//!
//! One JSON object per input line:
//!
//! ```json
//! {"id": 7, "a": {"title": "kodak esp 5250"}, "b": {"title": "kodak esp"}}
//! ```
//!
//! `a` and `b` are attribute → value objects (attribute order matters: it
//! is the serialization order of Example 1, so clients should send
//! attributes in the schema order the model was trained with). `id` is
//! optional and echoed back verbatim. One JSON object per output line, in
//! input order:
//!
//! ```json
//! {"id": 7, "match": true, "probability": 0.93}
//! ```
//!
//! Malformed lines produce an error object in the same position instead of
//! killing the stream:
//!
//! ```json
//! {"error": "line 3: `a` must be an object of string attributes",
//!  "code": "invalid_request", "retryable": false, "line": 3}
//! ```
//!
//! A request line with `"mode": "match_table"` matches two whole tables
//! instead of one pair: `left` and `right` are arrays of attribute
//! objects, optional `blocker` (`topk`/`lsh`), `k` and `threshold` tune
//! candidate generation, and the response carries a `matches` array plus
//! the `candidates` count:
//!
//! ```json
//! {"mode": "match_table", "left": [{"title": "kodak esp"}],
//!  "right": [{"title": "kodak esp 5250"}], "blocker": "lsh", "k": 5}
//! ```
//!
//! Every error object carries a machine-readable `code` from a fixed
//! taxonomy — `invalid_json`, `invalid_request`, `line_too_long`,
//! `timeout`, `overloaded`, `internal` — plus a `retryable` flag
//! (see [`ErrorCode`]). Stream-level conditions (`timeout`, `overloaded`)
//! omit `line`. Input lines are framed by a bounded assembler
//! ([`ServeLimits::max_line_bytes`]): an oversized line is drained and
//! answered with `line_too_long` rather than buffered without limit.
//!
//! One serving core answers every transport: [`serve_event_loop`] for
//! TCP clients and [`serve_stream`] for a single piped stream (the
//! `dader-serve` stdin mode), which rides the same loop as one
//! pre-accepted connection.
//!
//! Every response (success or error) additionally carries `rid` — a
//! monotonically increasing server-side request id, unique across
//! connections — and `latency_us`, the server-side microseconds from
//! reading the request line to writing its response (batching wait
//! included). The same requests feed the always-on serving metrics
//! (`serve_request_latency_us`, `serve_batch_size`, `serve_requests_total`,
//! `serve_errors_total`) that `dader-serve --metrics-addr` exposes.

pub mod admission;
pub mod batch;
pub mod conn;
pub mod event_loop;
mod poll;
pub mod registry;
pub mod status;

pub use event_loop::{serve_event_loop, serve_stream};
pub use registry::{ModelRegistry, VersionedModel};
pub use status::spawn_status_endpoint;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dader_core::artifact::{ArtifactError, ModelArtifact};
use dader_core::{DaderModel, InferenceModel};
use dader_obs::trace::{self, Stage};
use dader_obs::{Counter, Gauge, Histogram, WindowedHistogram};
use dader_text::PairEncoder;
use serde::Value;

/// Next request id; process-global so ids stay unique and monotone across
/// connections and servers.
static NEXT_RID: AtomicU64 = AtomicU64::new(1);

/// Claim the next request id. Responses are stamped in the order they are
/// written to each stream, so per-connection rids strictly increase and
/// the global sequence stays monotone across connections.
pub(crate) fn next_rid() -> u64 {
    NEXT_RID.fetch_add(1, Ordering::Relaxed)
}

/// The serving metrics, registered once.
pub(crate) struct ServeMetrics {
    pub(crate) latency_us: Histogram,
    pub(crate) batch_size: Histogram,
    /// Requests pooled per flushed inference batch — the cross-connection
    /// dynamic-batching signal (mean > 1 under concurrent load means
    /// pooling works).
    pub(crate) batch_occupancy: Histogram,
    pub(crate) requests: Counter,
    pub(crate) errors: Counter,
    pub(crate) rejected: Counter,
    pub(crate) timeouts: Counter,
    /// Pending parsed requests awaiting an inference batch.
    pub(crate) queue_depth: Gauge,
    /// Inference-worker panics contained (batch answered with `internal`
    /// errors instead of a silent thread death).
    pub(crate) worker_panics: Counter,
    /// Successful hot artifact reloads.
    pub(crate) reloads: Counter,
    /// Connections accepted over the process lifetime (rejects included).
    pub(crate) conns_total: Counter,
    /// Connections currently open.
    pub(crate) conns_live: Gauge,
    /// Pairs scored (candidate pairs for table requests included).
    pub(crate) scored_pairs: Counter,
    /// Requests answered through the shared streaming index
    /// (`match_record`, and `match_table` with the `right` table omitted).
    pub(crate) index_hits: Counter,
    /// `match_table` requests that shipped their own `right` table and so
    /// built a fresh throwaway blocker. A high rebuild:hit ratio on a
    /// fixed corpus means clients should switch to the loaded index.
    pub(crate) index_rebuilds: Counter,
    /// End-to-end `match_record` latency (read → scored), the streaming-ER
    /// SLO signal.
    pub(crate) match_record_latency_us: Histogram,
    /// Sliding-window request latency: p50/p99 and rate over the last
    /// [`WINDOW_SECS`] seconds, for the `/status` snapshot.
    pub(crate) latency_window: WindowedHistogram,
    /// Sliding-window goodput: only successful (non-error) responses are
    /// observed, so its rate is useful work per second while shed and
    /// failed requests are excluded — the overload-behavior headline.
    pub(crate) goodput_window: WindowedHistogram,
}

/// Length of the sliding SLO window, seconds.
pub(crate) const WINDOW_SECS: u64 = 10;

pub(crate) fn metrics() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        latency_us: dader_obs::histogram(
            "serve_request_latency_us",
            &dader_obs::metrics::LATENCY_US_BUCKETS,
        ),
        batch_size: dader_obs::histogram(
            "serve_batch_size",
            &dader_obs::metrics::BATCH_SIZE_BUCKETS,
        ),
        batch_occupancy: dader_obs::histogram(
            "serve_batch_occupancy",
            &dader_obs::metrics::BATCH_SIZE_BUCKETS,
        ),
        requests: dader_obs::counter("serve_requests_total"),
        errors: dader_obs::counter("serve_errors_total"),
        rejected: dader_obs::counter("serve_rejected_total"),
        timeouts: dader_obs::counter("serve_timeouts_total"),
        queue_depth: dader_obs::gauge("serve_queue_depth"),
        worker_panics: dader_obs::counter("serve_worker_panics_total"),
        reloads: dader_obs::counter("serve_reloads_total"),
        conns_total: dader_obs::counter("serve_conns_total"),
        conns_live: dader_obs::gauge("serve_conns_live"),
        scored_pairs: dader_obs::counter("serve_scored_pairs_total"),
        index_hits: dader_obs::counter("serve_index_hits_total"),
        index_rebuilds: dader_obs::counter("serve_index_rebuilds_total"),
        match_record_latency_us: dader_obs::histogram(
            "serve_match_record_latency_us",
            &dader_obs::metrics::LATENCY_US_BUCKETS,
        ),
        latency_window: dader_obs::windowed(
            "serve_request_latency_us_window",
            &dader_obs::metrics::LATENCY_US_BUCKETS,
            WINDOW_SECS,
        ),
        goodput_window: dader_obs::windowed(
            "serve_goodput_window",
            &dader_obs::metrics::LATENCY_US_BUCKETS,
            WINDOW_SECS,
        ),
    })
}

/// Count one batch flush under its trigger
/// (`serve_flush_reason_total{reason=…}`).
pub(crate) fn count_flush(reason: batch::FlushReason) {
    dader_obs::counter_labeled("serve_flush_reason_total", "reason", reason.as_str()).inc();
}

/// Per-request stage clock, carried with the request through parse →
/// batch queue → inference worker → ordered write. Stages that a request
/// never enters (an error answered at parse time has no batch) stay
/// `None`; the derived `timings` breakdown and trace spans report only the
/// stages that happened.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Timeline {
    /// Request line fully read off the socket.
    pub(crate) arrival: Instant,
    /// Parse finished (the request entered the pipeline).
    pub(crate) parsed: Instant,
    /// Left the batch queue in a flushed batch.
    pub(crate) flushed: Option<Instant>,
    /// Inference worker started scoring its batch.
    pub(crate) infer_start: Option<Instant>,
    /// Inference worker finished scoring.
    pub(crate) infer_end: Option<Instant>,
    /// When this request stops being worth answering: past this instant
    /// it is shed with `deadline_exceeded` at dispatch instead of scored.
    pub(crate) deadline: Option<Instant>,
    /// Occupancy of the batch this request rode in.
    pub(crate) occupancy: u32,
    /// Why that batch flushed.
    pub(crate) reason: Option<batch::FlushReason>,
    /// Whether this request was picked by the trace sampler (decided once
    /// at parse time, so a sampled request's stage set is complete).
    pub(crate) traced: bool,
    /// Whether the client asked for a `timings` object on the response.
    pub(crate) want_timings: bool,
}

impl Timeline {
    /// Start the clock for a request whose line arrived at `arrival`;
    /// stamps the parse as finishing now and consults the trace sampler.
    pub(crate) fn start(arrival: Instant) -> Timeline {
        Timeline {
            arrival,
            parsed: Instant::now(),
            flushed: None,
            infer_start: None,
            infer_end: None,
            deadline: None,
            occupancy: 0,
            reason: None,
            traced: trace::sample_request(),
            want_timings: false,
        }
    }

    /// Microseconds from `a` to `b` (0 when either is missing or inverted).
    fn span_us(a: Option<Instant>, b: Option<Instant>) -> u64 {
        match (a, b) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_micros() as u64,
            _ => 0,
        }
    }

    /// Time spent waiting in the batch queue (parse → flush).
    pub(crate) fn queue_us(&self) -> u64 {
        Timeline::span_us(Some(self.parsed), self.flushed)
    }

    /// Time the flushed batch waited for the inference worker.
    pub(crate) fn batch_wait_us(&self) -> u64 {
        Timeline::span_us(self.flushed, self.infer_start)
    }

    /// Time inside the inference worker.
    pub(crate) fn infer_us(&self) -> u64 {
        Timeline::span_us(self.infer_start, self.infer_end)
    }

    /// Where the write stage starts: after inference when the request was
    /// scored, otherwise straight after parse.
    fn write_start(&self) -> Instant {
        self.infer_end.or(self.flushed).unwrap_or(self.parsed)
    }
}

/// Numeric tag of the serving model's version (`"v7"` → 7) for trace
/// event args; 0 when absent or unparseable.
fn version_generation(version: Option<&str>) -> u64 {
    version
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Finish one response: claim its `rid`, observe the lifetime and
/// windowed latency histograms, append the `timings` breakdown when the
/// client asked for one, emit this request's trace spans (the rid exists
/// only from here on), and serialize the response line. Called from each
/// connection's ordered drain.
pub(crate) fn stamp_and_finalize(
    mut body: Vec<(String, Value)>,
    timeline: &Timeline,
    version: Option<&str>,
) -> std::io::Result<String> {
    let m = metrics();
    let now = Instant::now();
    let latency_us = now.saturating_duration_since(timeline.arrival).as_micros();
    m.latency_us.observe(latency_us as f64);
    m.latency_window.observe_at(latency_us as f64, now);
    if !body.iter().any(|(k, _)| k == "error") {
        m.goodput_window.observe_at(latency_us as f64, now);
    }
    let rid = next_rid();
    if timeline.want_timings {
        body.push((
            "timings".to_string(),
            Value::Object(vec![
                (
                    "queue_us".to_string(),
                    Value::Int(timeline.queue_us() as i64),
                ),
                (
                    "batch_wait_us".to_string(),
                    Value::Int(timeline.batch_wait_us() as i64),
                ),
                (
                    "infer_us".to_string(),
                    Value::Int(timeline.infer_us() as i64),
                ),
                (
                    "write_us".to_string(),
                    Value::Int(
                        now.saturating_duration_since(timeline.write_start()).as_micros() as i64,
                    ),
                ),
            ]),
        ));
    }
    if timeline.traced && trace::enabled() {
        let t = timeline;
        let reason_idx = t.reason.map(|r| r as u64).unwrap_or(0);
        trace::record(rid, Stage::Parse, t.arrival, t.parsed, 0, 0);
        if let Some(flushed) = t.flushed {
            trace::record(
                rid,
                Stage::Queue,
                t.parsed,
                flushed,
                t.occupancy as u64,
                reason_idx,
            );
        }
        if let (Some(flushed), Some(infer_start)) = (t.flushed, t.infer_start) {
            trace::record(rid, Stage::Dispatch, flushed, infer_start, 0, 0);
        }
        if let (Some(infer_start), Some(infer_end)) = (t.infer_start, t.infer_end) {
            trace::record(
                rid,
                Stage::Infer,
                infer_start,
                infer_end,
                t.occupancy as u64,
                version_generation(version),
            );
        }
        trace::record(rid, Stage::Write, t.write_start(), now, 0, 0);
    }
    finalize_response(body, rid, latency_us, version)
}

/// Typed error taxonomy for the line protocol. Every error object carries
/// the machine-readable `code` plus a `retryable` flag so clients can
/// distinguish "fix your request" from "back off and try again".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    InvalidJson,
    /// Valid JSON, but not a valid match request.
    InvalidRequest,
    /// The line exceeded the server's `max_line_bytes` limit.
    LineTooLong,
    /// The connection idled past the read timeout.
    Timeout,
    /// The server is at its connection cap, or its admission queue is
    /// full (load shedding) — back off and retry.
    Overloaded,
    /// The request's deadline (its `deadline_ms` field, or the server's
    /// `--default-deadline-ms`) passed before it could be scored; it was
    /// shed instead of wasting inference cycles on a stale answer.
    DeadlineExceeded,
    /// A server-side failure unrelated to the request.
    Internal,
}

impl ErrorCode {
    /// The wire name of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::InvalidJson => "invalid_json",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    /// Whether retrying the same request can succeed. Client mistakes are
    /// permanent; server-side conditions (load, timeouts) are transient.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Timeout
                | ErrorCode::Overloaded
                | ErrorCode::DeadlineExceeded
                | ErrorCode::Internal
        )
    }
}

/// Per-connection resource limits. The defaults are generous for real
/// clients but bound every resource a hostile or broken one can consume.
#[derive(Clone, Copy, Debug)]
pub struct ServeLimits {
    /// Longest accepted request line in bytes; longer lines are consumed
    /// and answered with a `line_too_long` error instead of buffering
    /// without bound.
    pub max_line_bytes: usize,
    /// Socket read timeout (TCP mode): an idle connection is answered
    /// with a `timeout` error and closed. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (TCP mode): a client that stops draining
    /// responses has its connection dropped. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Default per-request deadline: a request still waiting past this
    /// at dispatch is shed with a retryable `deadline_exceeded` error
    /// instead of scored. A request's own `deadline_ms` field overrides
    /// it; `None` (the default) never sheds on time.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_line_bytes: 1 << 20, // 1 MiB
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            default_deadline: None,
        }
    }
}

/// A loaded model plus encoder, ready to answer match requests. Scoring
/// runs through the tape-free [`InferenceModel`] — no autograd tape is
/// ever allocated on the serving path, and a quantized (format v2)
/// artifact serves through its int8 weights automatically.
pub struct MatchServer {
    model: InferenceModel,
    encoder: PairEncoder,
    /// Provenance line from the artifact (logged at startup).
    pub description: String,
}

/// One parsed pair-match request: echoed id, the two entities, and
/// whether the client asked for a `timings` breakdown on the response.
pub(crate) struct PairRequest {
    pub(crate) id: Option<Value>,
    pub(crate) a: Vec<(String, String)>,
    pub(crate) b: Vec<(String, String)>,
    pub(crate) timings: bool,
    /// Client-supplied latency budget in milliseconds (overrides the
    /// server's default deadline for this request).
    pub(crate) deadline_ms: Option<u64>,
}

/// A `match_table` request: a `left` table to block and score, against
/// either an inline `right` table (a throwaway blocker is built for this
/// one request) or — when `right` is omitted — the server's loaded
/// streaming index.
pub(crate) struct TableRequest {
    pub(crate) id: Option<Value>,
    pub(crate) left: Vec<dader_datagen::Entity>,
    /// The corpus table. `None` routes the request through the shared
    /// [`registry::SharedIndex`] instead of building a per-request blocker.
    pub(crate) right: Option<Vec<dader_datagen::Entity>>,
    pub(crate) kind: crate::matching::BlockerKind,
    pub(crate) k: usize,
    pub(crate) threshold: Option<f32>,
    pub(crate) timings: bool,
    /// Client-supplied latency budget in milliseconds.
    pub(crate) deadline_ms: Option<u64>,
}

/// A `match_record` request: one record probed against the loaded
/// streaming index — the steady-state operation of streaming ER. Rides
/// the shared cross-connection inference batches like pair requests do.
pub(crate) struct RecordRequest {
    pub(crate) id: Option<Value>,
    pub(crate) record: Vec<(String, String)>,
    pub(crate) k: usize,
    pub(crate) threshold: Option<f32>,
    pub(crate) timings: bool,
    /// Client-supplied latency budget in milliseconds.
    pub(crate) deadline_ms: Option<u64>,
}

/// What a `{"mode": "reload"}` line asks to swap: the model artifact or
/// the corpus index, each optionally naming a new path.
pub(crate) enum ReloadTarget {
    Model(Option<String>),
    Index(Option<String>),
}

/// Outcome of one input line: a request to score, a whole-table match
/// request, a single-record index probe, an index mutation, a hot-reload
/// control request, a status snapshot request, or an error to echo.
pub(crate) enum Parsed {
    Ok(PairRequest),
    Table(Box<TableRequest>),
    /// `{"mode": "match_record"}` — top-k matches for one record against
    /// the loaded index (answered with a typed error when none is loaded).
    Record(Box<RecordRequest>),
    /// `{"mode": "index_upsert"}` — insert or overwrite one corpus record
    /// in the live index. Answered inline on the event loop.
    IndexUpsert {
        id: Option<Value>,
        record_id: String,
        record: Vec<(String, String)>,
    },
    /// `{"mode": "index_delete"}` — tombstone one corpus record by id.
    IndexDelete {
        id: Option<Value>,
        record_id: String,
    },
    /// `{"mode": "reload"}` — swap the served artifact or the corpus
    /// index (see [`ReloadTarget`]) in the serving [`ModelRegistry`].
    Reload(ReloadTarget),
    /// `{"mode": "status"}` — answer with the live status snapshot
    /// (uptime, connections, queue depth, windowed latency, model
    /// version) in place of a prediction.
    Status,
    Err(ErrorCode, String),
}

impl Parsed {
    /// Whether the request asked for the `timings` breakdown.
    pub(crate) fn wants_timings(&self) -> bool {
        match self {
            Parsed::Ok(req) => req.timings,
            Parsed::Table(req) => req.timings,
            Parsed::Record(req) => req.timings,
            _ => false,
        }
    }

    /// The request's own latency budget, where it stated one.
    pub(crate) fn deadline_ms(&self) -> Option<u64> {
        match self {
            Parsed::Ok(req) => req.deadline_ms,
            Parsed::Table(req) => req.deadline_ms,
            Parsed::Record(req) => req.deadline_ms,
            _ => None,
        }
    }
}

/// Read the optional boolean `timings` flag off a request object.
fn timings_flag(v: &Value) -> bool {
    matches!(v.get("timings"), Some(Value::Bool(true)))
}

/// Read the optional `deadline_ms` latency budget off a request object.
fn deadline_field(v: &Value, lineno: usize) -> Result<Option<u64>, String> {
    match v.get("deadline_ms") {
        None => Ok(None),
        Some(Value::Number(n)) if *n >= 0.0 && n.trunc() == *n => Ok(Some(*n as u64)),
        Some(_) => Err(format!(
            "line {lineno}: `deadline_ms` must be a non-negative integer"
        )),
    }
}

/// Response body for one scored pair.
pub(crate) fn pair_body(id: Option<Value>, label: usize, prob: f32) -> Vec<(String, Value)> {
    let mut kvs = Vec::with_capacity(6);
    if let Some(id) = id {
        kvs.push(("id".to_string(), id));
    }
    kvs.push(("match".to_string(), Value::Bool(label == 1)));
    kvs.push(("probability".to_string(), Value::Number(prob as f64)));
    kvs
}

/// Response body for one `match_table` outcome.
pub(crate) fn table_body(
    id: Option<Value>,
    outcome: &crate::matching::MatchOutcome,
) -> Vec<(String, Value)> {
    let matches: Vec<Value> = outcome
        .matches
        .iter()
        .map(|tm| {
            Value::Object(vec![
                ("left".to_string(), Value::Int(tm.left as i64)),
                ("right".to_string(), Value::Int(tm.right as i64)),
                (
                    "probability".to_string(),
                    Value::Number(tm.probability as f64),
                ),
                (
                    "block_score".to_string(),
                    Value::Number(tm.block_score as f64),
                ),
            ])
        })
        .collect();
    let mut kvs = Vec::with_capacity(5);
    if let Some(id) = id {
        kvs.push(("id".to_string(), id));
    }
    kvs.push(("matches".to_string(), Value::Array(matches)));
    kvs.push((
        "candidates".to_string(),
        Value::Int(outcome.candidates as i64),
    ));
    kvs
}

/// One scored `match_record` candidate: the index rank plus the record's
/// own id (ranks shift under compaction, ids do not).
pub(crate) struct RecordMatch {
    pub(crate) right: usize,
    pub(crate) right_id: String,
    pub(crate) probability: f32,
    pub(crate) block_score: f32,
}

/// Response body for one `match_record` outcome. `generation` tells the
/// client exactly which index state answered — comparable against the
/// generation echoed by its own `index_upsert`/`index_delete` calls.
pub(crate) fn record_body(
    id: Option<Value>,
    matches: &[RecordMatch],
    candidates: usize,
    generation: u64,
) -> Vec<(String, Value)> {
    let matches: Vec<Value> = matches
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("right".to_string(), Value::Int(m.right as i64)),
                ("right_id".to_string(), Value::String(m.right_id.clone())),
                (
                    "probability".to_string(),
                    Value::Number(m.probability as f64),
                ),
                (
                    "block_score".to_string(),
                    Value::Number(m.block_score as f64),
                ),
            ])
        })
        .collect();
    let mut kvs = Vec::with_capacity(5);
    if let Some(id) = id {
        kvs.push(("id".to_string(), id));
    }
    kvs.push(("matches".to_string(), Value::Array(matches)));
    kvs.push(("candidates".to_string(), Value::Int(candidates as i64)));
    kvs.push(("generation".to_string(), Value::Int(generation as i64)));
    kvs
}

/// Response body for one error object. `lineno` is present for per-line
/// errors and absent for stream-level conditions (timeout, overloaded).
pub(crate) fn error_body(
    code: ErrorCode,
    msg: &str,
    lineno: Option<usize>,
) -> Vec<(String, Value)> {
    let mut kvs = vec![
        ("error".to_string(), Value::String(msg.to_string())),
        ("code".to_string(), Value::String(code.as_str().to_string())),
        ("retryable".to_string(), Value::Bool(code.retryable())),
    ];
    if let Some(n) = lineno {
        kvs.push(("line".to_string(), Value::Int(n as i64)));
    }
    kvs
}

/// Stamp the serving envelope onto a response body — `rid` (exact integer:
/// the monotone-rid contract must survive past 2^53), `latency_us`, and
/// the serving model's `version` tag where a registry is in play — then
/// serialize to one output line.
pub(crate) fn finalize_response(
    mut kvs: Vec<(String, Value)>,
    rid: u64,
    latency_us: u128,
    version: Option<&str>,
) -> std::io::Result<String> {
    kvs.push(("rid".to_string(), Value::Int(rid as i64)));
    kvs.push(("latency_us".to_string(), Value::Int(latency_us as i64)));
    if let Some(v) = version {
        kvs.push(("version".to_string(), Value::String(v.to_string())));
    }
    serde_json::to_string(&Value::Object(kvs)).map_err(|e| std::io::Error::other(e.to_string()))
}

impl MatchServer {
    /// Load an artifact from disk and build the inference model directly —
    /// no training model (and no autograd tape) is ever constructed.
    pub fn from_artifact_file(path: impl AsRef<std::path::Path>) -> Result<MatchServer, ArtifactError> {
        let art = ModelArtifact::load_file(path)?;
        let model = InferenceModel::from_artifact(&art)?;
        let encoder =
            PairEncoder::from_state(art.encoder.clone()).map_err(ArtifactError::Encoder)?;
        Ok(MatchServer {
            model,
            encoder,
            description: art.description,
        })
    }

    /// Wrap an already-instantiated training model (tests, in-process use):
    /// its weights are snapshotted into a tape-free inference model.
    pub fn new(model: DaderModel, encoder: PairEncoder, description: impl Into<String>) -> MatchServer {
        MatchServer {
            model: InferenceModel::from_model(&model),
            encoder,
            description: description.into(),
        }
    }

    /// Wrap an already-built inference model.
    pub fn from_inference(
        model: InferenceModel,
        encoder: PairEncoder,
        description: impl Into<String>,
    ) -> MatchServer {
        MatchServer {
            model,
            encoder,
            description: description.into(),
        }
    }

    /// Whether the served model runs on int8-quantized weights.
    pub fn is_quantized(&self) -> bool {
        self.model.is_quantized()
    }

    /// Match two whole tables through this server's model: block with the
    /// chosen candidate generator, score the candidates, keep the matches
    /// (see [`crate::matching::match_tables`]). This is the engine behind
    /// both the `match_table` request mode and the `dader-match` binary.
    #[allow(clippy::too_many_arguments)]
    pub fn match_tables(
        &self,
        left: &[dader_datagen::Entity],
        right: &[dader_datagen::Entity],
        kind: crate::matching::BlockerKind,
        k: usize,
        batch_size: usize,
        threshold: Option<f32>,
    ) -> crate::matching::MatchOutcome {
        crate::matching::match_tables(
            &self.model,
            &self.encoder,
            left,
            right,
            kind,
            k,
            batch_size,
            threshold,
        )
    }

    /// [`match_tables`](MatchServer::match_tables) against an
    /// already-built [`StreamingIndex`](dader_block::StreamingIndex)
    /// instead of an inline right table: the blocker build is skipped
    /// entirely. Candidate `right` indices are index ranks; resolve ids
    /// through [`dader_block::StreamingIndex::get`].
    pub fn match_tables_indexed(
        &self,
        left: &[dader_datagen::Entity],
        index: &dader_block::StreamingIndex,
        k: usize,
        batch_size: usize,
        threshold: Option<f32>,
    ) -> crate::matching::MatchOutcome {
        crate::matching::match_tables_indexed(
            &self.model,
            &self.encoder,
            left,
            index,
            k,
            batch_size,
            threshold,
        )
    }
}

/// Coerce one JSON attribute object into an attribute-value list. The
/// same scalar coercions apply everywhere entities enter the protocol:
/// numbers render without a trailing `.0`, booleans as text, null as the
/// empty string.
fn scalar_attrs(val: &Value, what: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let obj = val
        .as_object()
        .ok_or_else(|| format!("line {lineno}: {what} must be an object of string attributes"))?;
    obj.iter()
        .map(|(k, v)| match v {
            Value::String(s) => Ok((k.clone(), s.clone())),
            Value::Number(n) => Ok((k.clone(), format_number(*n))),
            Value::Bool(b) => Ok((k.clone(), b.to_string())),
            Value::Null => Ok((k.clone(), String::new())),
            _ => Err(format!("line {lineno}: {what}.{k} must be a scalar value")),
        })
        .collect()
}

/// Parse one request line; every failure becomes an error message naming
/// the line, so the caller can keep serving.
pub(crate) fn parse_request(line: &str, lineno: usize) -> Parsed {
    // Chaos failpoint: any armed `serve.parse` action becomes a typed
    // `internal` error response (never a panic — parsing runs on the
    // poller thread, which must survive whatever the harness injects).
    if dader_obs::fault::check("serve.parse").is_some() {
        return Parsed::Err(
            ErrorCode::Internal,
            format!("line {lineno}: fault injected: serve.parse"),
        );
    }
    let v: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            return Parsed::Err(
                ErrorCode::InvalidJson,
                format!("line {lineno}: invalid JSON: {e}"),
            )
        }
    };
    if v.as_object().is_none() {
        return Parsed::Err(
            ErrorCode::InvalidRequest,
            format!("line {lineno}: request must be a JSON object"),
        );
    }
    match v.get("mode") {
        None => {}
        Some(Value::String(mode)) if mode == "match_table" => {
            return parse_table_request(&v, lineno)
        }
        Some(Value::String(mode)) if mode == "match_record" => {
            return parse_record_request(&v, lineno)
        }
        Some(Value::String(mode)) if mode == "index_upsert" => {
            return parse_index_upsert(&v, lineno)
        }
        Some(Value::String(mode)) if mode == "index_delete" => {
            return parse_index_delete(&v, lineno)
        }
        Some(Value::String(mode)) if mode == "reload" => {
            return parse_reload_request(&v, lineno)
        }
        Some(Value::String(mode)) if mode == "status" => return Parsed::Status,
        Some(mode) => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!(
                    "line {lineno}: unknown mode {mode:?} (expected \"match_table\", \
                     \"match_record\", \"index_upsert\", \"index_delete\", \"reload\" or \
                     \"status\")"
                ),
            )
        }
    }
    let entity = |key: &str| -> Result<Vec<(String, String)>, String> {
        let val = v
            .get(key)
            .ok_or_else(|| format!("line {lineno}: `{key}` must be an object of string attributes"))?;
        scalar_attrs(val, &format!("`{key}`"), lineno)
    };
    let a = match entity("a") {
        Ok(a) => a,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    let b = match entity("b") {
        Ok(b) => b,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    let deadline_ms = match deadline_field(&v, lineno) {
        Ok(d) => d,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    Parsed::Ok(PairRequest {
        id: v.get("id").cloned(),
        a,
        b,
        timings: timings_flag(&v),
        deadline_ms,
    })
}

/// Parse a `match_table` request: `left` and `right` are arrays of
/// attribute objects; `blocker` (`topk`/`lsh`, default `lsh`), `k`
/// (default 10) and `threshold` tune candidate generation and match
/// acceptance.
fn parse_table_request(v: &Value, lineno: usize) -> Parsed {
    let table = |key: &str| -> Result<Vec<dader_datagen::Entity>, String> {
        let arr = v.get(key).and_then(|e| e.as_array()).ok_or_else(|| {
            format!("line {lineno}: `{key}` must be an array of attribute objects")
        })?;
        arr.iter()
            .enumerate()
            .map(|(i, row)| {
                scalar_attrs(row, &format!("`{key}[{i}]`"), lineno).map(|attrs| {
                    dader_datagen::Entity {
                        id: i.to_string(),
                        attrs,
                    }
                })
            })
            .collect()
    };
    let left = match table("left") {
        Ok(t) => t,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    // `right` is optional: omitted means "match against the loaded
    // streaming index" (the blocker the server already holds), present
    // means "build a throwaway blocker over this inline table".
    let right = match v.get("right") {
        None | Some(Value::Null) => None,
        Some(_) => match table("right") {
            Ok(t) => Some(t),
            Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
        },
    };
    let kind = match v.get("blocker") {
        None => crate::matching::BlockerKind::Lsh,
        Some(Value::String(s)) => match crate::matching::BlockerKind::parse(s) {
            Some(kind) => kind,
            None => {
                return Parsed::Err(
                    ErrorCode::InvalidRequest,
                    format!("line {lineno}: unknown blocker `{s}` (expected `topk` or `lsh`)"),
                )
            }
        },
        Some(_) => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `blocker` must be a string"),
            )
        }
    };
    let k = match v.get("k") {
        None => 10,
        Some(Value::Number(n)) if *n >= 1.0 && n.trunc() == *n => *n as usize,
        Some(_) => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `k` must be a positive integer"),
            )
        }
    };
    let threshold = match v.get("threshold") {
        None => None,
        Some(Value::Number(n)) if (0.0..=1.0).contains(n) => Some(*n as f32),
        Some(_) => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `threshold` must be a number in [0, 1]"),
            )
        }
    };
    let deadline_ms = match deadline_field(v, lineno) {
        Ok(d) => d,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    Parsed::Table(Box::new(TableRequest {
        id: v.get("id").cloned(),
        left,
        right,
        kind,
        k,
        threshold,
        timings: timings_flag(v),
        deadline_ms,
    }))
}

/// Parse a `match_record` request: `record` is one attribute object to
/// probe against the loaded index; `k` (default 10) and `threshold` tune
/// candidate generation and match acceptance like `match_table`.
fn parse_record_request(v: &Value, lineno: usize) -> Parsed {
    let record = match v.get("record") {
        Some(val) => match scalar_attrs(val, "`record`", lineno) {
            Ok(attrs) => attrs,
            Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
        },
        None => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `record` must be an object of string attributes"),
            )
        }
    };
    let k = match v.get("k") {
        None => 10,
        Some(Value::Number(n)) if *n >= 1.0 && n.trunc() == *n => *n as usize,
        Some(_) => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `k` must be a positive integer"),
            )
        }
    };
    let threshold = match v.get("threshold") {
        None => None,
        Some(Value::Number(n)) if (0.0..=1.0).contains(n) => Some(*n as f32),
        Some(_) => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `threshold` must be a number in [0, 1]"),
            )
        }
    };
    let deadline_ms = match deadline_field(v, lineno) {
        Ok(d) => d,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    Parsed::Record(Box::new(RecordRequest {
        id: v.get("id").cloned(),
        record,
        k,
        threshold,
        timings: timings_flag(v),
        deadline_ms,
    }))
}

/// Read the required `record_id` string off an index-mutation request.
fn record_id_field(v: &Value, lineno: usize) -> Result<String, String> {
    match v.get("record_id") {
        Some(Value::String(s)) if !s.is_empty() => Ok(s.clone()),
        Some(_) => Err(format!(
            "line {lineno}: `record_id` must be a non-empty string"
        )),
        None => Err(format!(
            "line {lineno}: index mutations need a `record_id` string"
        )),
    }
}

/// Parse an `index_upsert` request: `record_id` names the corpus record,
/// `record` carries its attributes.
fn parse_index_upsert(v: &Value, lineno: usize) -> Parsed {
    let record_id = match record_id_field(v, lineno) {
        Ok(id) => id,
        Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
    };
    let record = match v.get("record") {
        Some(val) => match scalar_attrs(val, "`record`", lineno) {
            Ok(attrs) => attrs,
            Err(e) => return Parsed::Err(ErrorCode::InvalidRequest, e),
        },
        None => {
            return Parsed::Err(
                ErrorCode::InvalidRequest,
                format!("line {lineno}: `record` must be an object of string attributes"),
            )
        }
    };
    Parsed::IndexUpsert {
        id: v.get("id").cloned(),
        record_id,
        record,
    }
}

/// Parse an `index_delete` request: just the `record_id` to tombstone.
fn parse_index_delete(v: &Value, lineno: usize) -> Parsed {
    match record_id_field(v, lineno) {
        Ok(record_id) => Parsed::IndexDelete {
            id: v.get("id").cloned(),
            record_id,
        },
        Err(e) => Parsed::Err(ErrorCode::InvalidRequest, e),
    }
}

/// Parse a `reload` request. `artifact` targets the model, `index` the
/// corpus index; each takes a path string (or, for `index`, `true` to
/// re-read the path on file). Asking for both in one line is rejected —
/// the two swaps are separate failure domains.
fn parse_reload_request(v: &Value, lineno: usize) -> Parsed {
    if v.get("artifact").is_some() && v.get("index").is_some() {
        return Parsed::Err(
            ErrorCode::InvalidRequest,
            format!(
                "line {lineno}: reload either the `artifact` or the `index` per request, not both"
            ),
        );
    }
    if let Some(idx) = v.get("index") {
        return match idx {
            Value::String(path) => Parsed::Reload(ReloadTarget::Index(Some(path.clone()))),
            Value::Bool(true) => Parsed::Reload(ReloadTarget::Index(None)),
            _ => Parsed::Err(
                ErrorCode::InvalidRequest,
                format!(
                    "line {lineno}: `index` must be a path string (or `true` to re-read \
                     the loaded file)"
                ),
            ),
        };
    }
    match v.get("artifact") {
        None => Parsed::Reload(ReloadTarget::Model(None)),
        Some(Value::String(path)) => Parsed::Reload(ReloadTarget::Model(Some(path.clone()))),
        Some(_) => Parsed::Err(
            ErrorCode::InvalidRequest,
            format!("line {lineno}: `artifact` must be a path string"),
        ),
    }
}

/// Options for the serving core ([`serve_event_loop`], and
/// [`serve_stream`], which ignores the socket-only timeouts and cap):
/// per-connection limits, batching, and the server-wide concurrency cap.
#[derive(Clone, Copy, Debug)]
pub struct TcpServeConfig {
    /// Per-connection limits (line size, read/write timeouts).
    pub limits: ServeLimits,
    /// Maximum pairs per inference batch, pooled across *all*
    /// connections.
    pub batch_size: usize,
    /// Concurrent-connection cap. A connection over the cap is answered
    /// with one `overloaded` error object and closed — a typed rejection
    /// the client can retry, instead of an unbounded thread pile-up or a
    /// silent hang. The reject is never a blocking write: it is enqueued
    /// on the nonblocking socket.
    pub max_conns: usize,
    /// Batch hold bound in microseconds. The flush is
    /// work-conserving: while no batch is being scored a request is
    /// dispatched at once, whatever this says. Only while the scorer is
    /// busy with one batch are requests held, for at most this long, so
    /// the next batch fills; with two in flight they wait for one to
    /// return. The event loop waits out the hold in `ppoll`, to the
    /// microsecond. Trades latency under load for GEMM batch occupancy.
    pub flush_us: u64,
    /// Admission bound on the pending-request queue. At this depth
    /// socket reads pause (TCP backpressure) and resume below half of it;
    /// a request a TCP client sent while the queue is already full is
    /// shed with a retryable `overloaded` error instead of queued — the
    /// server's memory stays bounded under any offered load.
    pub max_queue: usize,
}

impl Default for TcpServeConfig {
    fn default() -> TcpServeConfig {
        TcpServeConfig {
            limits: ServeLimits::default(),
            batch_size: 32,
            max_conns: 64,
            flush_us: 1_000,
            max_queue: 256,
        }
    }
}

/// Score `pairs` with panic containment: a forward pass that panics (a
/// poisoned request, or an injected `serve.infer` fault) is bisected so
/// only the offending pair loses its prediction — `None` in its slot,
/// which the caller answers with a typed retryable `internal` error —
/// while every other request in the batch still gets scored. Each panic
/// is counted in `serve_worker_panics_total`.
pub(crate) fn predict_contained(
    model: &InferenceModel,
    encoder: &PairEncoder,
    pairs: &[dader_core::EntityPair],
    batch_size: usize,
) -> Vec<Option<(usize, f32)>> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        dader_obs::fault::maybe_crash("serve.infer");
        model.predict_pairs(pairs, encoder, batch_size)
    }));
    match attempt {
        Ok(preds) => preds.into_iter().map(Some).collect(),
        Err(_) => {
            metrics().worker_panics.inc();
            if pairs.len() == 1 {
                return vec![None];
            }
            let mid = pairs.len() / 2;
            let mut out = predict_contained(model, encoder, &pairs[..mid], batch_size);
            out.extend(predict_contained(model, encoder, &pairs[mid..], batch_size));
            out
        }
    }
}

/// Render a panic payload for the log line.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Print a JSON number the way the tokenizer expects attribute text
/// (integers without a trailing `.0`).
fn format_number(n: f64) -> String {
    if n.is_finite() && n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dader_core::{LmExtractor, Matcher};
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn tiny_server() -> MatchServer {
        let vocab = Vocab::build(
            ["title", "kodak", "esp", "printer", "hp", "laserjet"],
            1,
            100,
        );
        let encoder = PairEncoder::new(vocab.clone(), 24);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TransformerConfig {
            vocab: vocab.len(),
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 24,
        };
        let model = DaderModel {
            extractor: Box::new(LmExtractor::new(cfg, &mut rng)),
            matcher: Matcher::new(16, &mut rng),
        };
        MatchServer::new(model, encoder, "test")
    }

    /// Serve `input` as one stream through [`serve_stream`]; returns the
    /// pairs scored and the parsed response lines.
    fn serve_with(input: &str, cfg: TcpServeConfig) -> (usize, Vec<Value>) {
        let registry = Arc::new(ModelRegistry::new(tiny_server()));
        let mut out = Vec::new();
        let input = std::io::Cursor::new(input.to_string());
        let n = serve_stream(registry, input, &mut out, cfg).unwrap();
        let vals = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        (n, vals)
    }

    fn responses(input: &str, batch: usize) -> (usize, Vec<Value>) {
        let cfg = TcpServeConfig {
            batch_size: batch,
            ..TcpServeConfig::default()
        };
        serve_with(input, cfg)
    }

    #[test]
    fn scores_valid_requests_in_order() {
        let input = concat!(
            "{\"id\": 1, \"a\": {\"title\": \"kodak esp\"}, \"b\": {\"title\": \"kodak esp\"}}\n",
            "{\"id\": 2, \"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"hp laserjet\"}}\n",
        );
        let (n, vals) = responses(input, 8);
        assert_eq!(n, 2);
        assert_eq!(vals.len(), 2);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(v.get("id").unwrap().as_f64().unwrap() as usize, i + 1);
            assert!(matches!(v.get("match").unwrap(), Value::Bool(_)));
            let p = v.get("probability").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!(v.get("error").is_none());
        }
    }

    #[test]
    fn malformed_lines_become_error_objects() {
        let input = concat!(
            "this is not json\n",
            "{\"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
            "{\"a\": \"not an object\", \"b\": {\"title\": \"x\"}}\n",
            "[1, 2, 3]\n",
            "{\"a\": {\"title\": [1]}, \"b\": {\"title\": \"x\"}}\n",
        );
        let (n, vals) = responses(input, 2);
        assert_eq!(n, 1, "only the one valid line is scored");
        assert_eq!(vals.len(), 5, "every line gets a response");
        for (i, expect_err) in [(0, true), (1, false), (2, true), (3, true), (4, true)] {
            let has_err = vals[i].get("error").is_some();
            assert_eq!(has_err, expect_err, "line {}: {:?}", i + 1, vals[i]);
        }
        // error objects carry the 1-based line number
        assert_eq!(vals[0].get("line").unwrap().as_f64().unwrap() as usize, 1);
        assert_eq!(vals[2].get("line").unwrap().as_f64().unwrap() as usize, 3);
    }

    #[test]
    fn batching_preserves_order_and_results() {
        let mut input = String::new();
        for i in 0..7 {
            input.push_str(&format!(
                "{{\"id\": {i}, \"a\": {{\"title\": \"kodak esp {i}\"}}, \"b\": {{\"title\": \"kodak\"}}}}\n"
            ));
        }
        let (_, one) = responses(&input, 1);
        let (_, big) = responses(&input, 5);
        // rid and latency_us legitimately differ between runs; the scored
        // payload must not.
        let stable = |vals: &[Value]| -> Vec<Value> {
            vals.iter()
                .map(|v| {
                    let kvs = v
                        .as_object()
                        .unwrap()
                        .iter()
                        .filter(|(k, _)| k.as_str() != "rid" && k.as_str() != "latency_us")
                        .cloned()
                        .collect();
                    Value::Object(kvs)
                })
                .collect()
        };
        assert_eq!(stable(&one), stable(&big), "batch size must not change results or order");
        let ids: Vec<usize> = big
            .iter()
            .map(|v| v.get("id").unwrap().as_f64().unwrap() as usize)
            .collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn responses_carry_monotone_rids_and_latency() {
        let input = concat!(
            "{\"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
            "not json\n",
            "{\"a\": {\"title\": \"esp\"}, \"b\": {\"title\": \"hp\"}}\n",
        );
        let (_, vals) = responses(input, 2);
        assert_eq!(vals.len(), 3);
        let rids: Vec<u64> = vals
            .iter()
            .map(|v| v.get("rid").expect("rid on every response").as_f64().unwrap() as u64)
            .collect();
        assert!(
            rids.windows(2).all(|w| w[1] > w[0]),
            "rids must strictly increase: {rids:?}"
        );
        for v in &vals {
            let lat = v
                .get("latency_us")
                .expect("latency_us on every response")
                .as_f64()
                .unwrap();
            assert!(lat >= 0.0, "negative latency: {lat}");
        }
        // A second stream continues the id sequence (global across
        // connections).
        let (_, more) = responses(input, 2);
        let first_new = more[0].get("rid").unwrap().as_f64().unwrap() as u64;
        assert!(first_new > *rids.last().unwrap());
    }

    #[test]
    fn timings_breakdown_is_opt_in_and_nests_inside_latency() {
        let input = concat!(
            "{\"id\": 1, \"a\": {\"title\": \"kodak esp\"}, \"b\": {\"title\": \"kodak\"}, \"timings\": true}\n",
            "{\"id\": 2, \"a\": {\"title\": \"esp\"}, \"b\": {\"title\": \"hp\"}}\n",
        );
        let (_, vals) = responses(input, 2);
        let t = vals[0].get("timings").expect("timings were requested");
        for key in ["queue_us", "batch_wait_us", "infer_us", "write_us"] {
            assert!(t.get(key).is_some(), "missing {key}: {t:?}");
        }
        let us = |k: &str| t.get(k).unwrap().as_f64().unwrap();
        let latency = vals[0].get("latency_us").unwrap().as_f64().unwrap();
        assert!(
            us("queue_us") + us("infer_us") <= latency,
            "stage clocks nest inside the end-to-end clock: queue {} + infer {} vs latency {latency}",
            us("queue_us"),
            us("infer_us"),
        );
        assert!(
            vals[1].get("timings").is_none(),
            "no timings unless asked: {:?}",
            vals[1]
        );
    }

    #[test]
    fn status_mode_request_answers_inline() {
        let input = concat!(
            "{\"mode\": \"status\"}\n",
            "{\"id\": 1, \"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
        );
        let (n, vals) = responses(input, 2);
        assert_eq!(n, 1, "the status probe is not a scored pair");
        assert_eq!(vals.len(), 2, "status gets a response in stream order");
        let status = vals[0].get("status").expect("status body");
        for key in ["uptime_secs", "requests_total", "queue_depth", "window"] {
            assert!(status.get(key).is_some(), "missing {key}: {status:?}");
        }
        assert!(vals[0].get("rid").is_some(), "status rides the envelope");
        assert!(vals[1].get("match").is_some(), "stream continues after status");
    }

    #[test]
    fn error_objects_carry_code_and_retryable() {
        let input = concat!(
            "not json\n",
            "{\"a\": \"nope\", \"b\": {\"title\": \"x\"}}\n",
        );
        let (_, vals) = responses(input, 4);
        assert_eq!(vals[0].get("code").unwrap(), &Value::String("invalid_json".into()));
        assert_eq!(vals[1].get("code").unwrap(), &Value::String("invalid_request".into()));
        for v in &vals {
            assert_eq!(
                v.get("retryable").unwrap(),
                &Value::Bool(false),
                "client mistakes are not retryable: {v:?}"
            );
        }
    }

    #[test]
    fn oversized_line_yields_line_too_long_and_stream_continues() {
        let cfg = TcpServeConfig {
            limits: ServeLimits {
                max_line_bytes: 64,
                ..ServeLimits::default()
            },
            batch_size: 4,
            ..TcpServeConfig::default()
        };
        // Line 2 is far over the limit; lines 1 and 3 must still be scored.
        let huge = format!(
            "{{\"a\": {{\"title\": \"{}\"}}, \"b\": {{\"title\": \"x\"}}}}",
            "kodak ".repeat(100)
        );
        let input = format!(
            "{}\n{huge}\n{}\n",
            "{\"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}",
            "{\"a\": {\"title\": \"esp\"}, \"b\": {\"title\": \"hp\"}}"
        );
        let (n, vals) = serve_with(&input, cfg);
        assert_eq!(n, 2, "the two in-limit lines are scored");
        assert_eq!(vals.len(), 3);
        assert_eq!(
            vals[1].get("code").unwrap(),
            &Value::String("line_too_long".into())
        );
        assert_eq!(vals[1].get("line").unwrap().as_f64().unwrap() as usize, 2);
        assert_eq!(vals[1].get("retryable").unwrap(), &Value::Bool(false));
        assert!(vals[0].get("error").is_none());
        assert!(vals[2].get("error").is_none());
    }

    #[test]
    fn error_code_taxonomy_is_stable() {
        for (code, name, retryable) in [
            (ErrorCode::InvalidJson, "invalid_json", false),
            (ErrorCode::InvalidRequest, "invalid_request", false),
            (ErrorCode::LineTooLong, "line_too_long", false),
            (ErrorCode::Timeout, "timeout", true),
            (ErrorCode::Overloaded, "overloaded", true),
            (ErrorCode::DeadlineExceeded, "deadline_exceeded", true),
            (ErrorCode::Internal, "internal", true),
        ] {
            assert_eq!(code.as_str(), name);
            assert_eq!(code.retryable(), retryable, "{name}");
        }
    }

    #[test]
    fn match_table_mode_blocks_and_scores() {
        let input = concat!(
            "{\"id\": \"t1\", \"mode\": \"match_table\", ",
            "\"left\": [{\"title\": \"kodak esp printer\"}, {\"title\": \"hp laserjet\"}], ",
            "\"right\": [{\"title\": \"hp laserjet printer\"}, {\"title\": \"kodak esp\"}], ",
            "\"blocker\": \"topk\", \"k\": 2, \"threshold\": 0.0}\n",
            // The stream keeps serving pair requests after a table request.
            "{\"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
        );
        let (n, vals) = responses(input, 4);
        assert_eq!(vals.len(), 2);
        let table = &vals[0];
        assert_eq!(table.get("id").unwrap(), &Value::String("t1".into()));
        assert!(table.get("error").is_none(), "{table:?}");
        let candidates = table.get("candidates").unwrap().as_f64().unwrap() as usize;
        assert!(candidates >= 2, "both left rows share tokens with the right");
        // threshold 0.0 keeps every scored candidate as a match
        let matches = table.get("matches").unwrap().as_array().unwrap();
        assert_eq!(matches.len(), candidates);
        for m in matches {
            let p = m.get("probability").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!(m.get("left").unwrap().as_f64().is_some());
            assert!(m.get("right").unwrap().as_f64().is_some());
            assert!(m.get("block_score").unwrap().as_f64().is_some());
        }
        // scored counts the candidate pairs plus the trailing pair request
        assert_eq!(n, candidates + 1);
        assert!(vals[1].get("match").is_some());
    }

    #[test]
    fn match_table_mode_rejects_bad_requests() {
        let input = concat!(
            "{\"mode\": \"match_table\", \"left\": \"nope\", \"right\": []}\n",
            "{\"mode\": \"match_table\", \"left\": [], \"right\": [], \"blocker\": \"quantum\"}\n",
            "{\"mode\": \"teleport\"}\n",
            "{\"mode\": \"match_table\", \"left\": [], \"right\": [], \"k\": 0}\n",
        );
        let (n, vals) = responses(input, 4);
        assert_eq!(n, 0);
        assert_eq!(vals.len(), 4);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(
                v.get("code").unwrap(),
                &Value::String("invalid_request".into()),
                "line {}: {v:?}",
                i + 1
            );
            assert_eq!(v.get("line").unwrap().as_f64().unwrap() as usize, i + 1);
        }
    }

    #[test]
    fn blank_lines_skipped_numbers_and_nulls_coerced() {
        let input = concat!(
            "\n",
            "{\"a\": {\"title\": \"kodak\", \"price\": 99.5, \"stock\": null}, \"b\": {\"title\": \"kodak\", \"price\": 100}}\n",
            "   \n",
        );
        let (n, vals) = responses(input, 4);
        assert_eq!(n, 1);
        assert_eq!(vals.len(), 1);
        assert!(vals[0].get("error").is_none());
    }
}
