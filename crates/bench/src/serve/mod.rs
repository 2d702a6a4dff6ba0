//! Match serving: answer newline-delimited JSON match requests with a
//! loaded [`ModelArtifact`] — the deployment half of the train-once /
//! serve-many workflow (see the `dader-serve` binary).
//!
//! [`protocol`] holds the wire format: one `decode` for every request
//! mode, and the encoders of every response. Input lines are framed by a
//! bounded assembler ([`ServeLimits::max_line_bytes`]): an oversized line
//! is drained and answered with `line_too_long` rather than buffered
//! without limit.
//!
//! One serving core answers every transport: [`serve_event_loop`] for
//! TCP clients and [`serve_stream`] for a single piped stream (the
//! `dader-serve` stdin mode), which rides the same loop as one
//! pre-accepted connection. Batched requests are scored by the
//! [`batch`] worker; the rest are answered on the event loop.
//!
//! The served requests feed the always-on serving metrics
//! (`serve_request_latency_us`, `serve_batch_size`, `serve_requests_total`,
//! `serve_errors_total`) that `dader-serve --metrics-addr` exposes.

pub mod admission;
pub mod batch;
pub mod conn;
pub mod event_loop;
mod poll;
pub mod protocol;
pub mod registry;
pub mod status;

pub use event_loop::{serve_event_loop, serve_stream};
pub use protocol::ErrorCode;
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
/// windowed latency histograms, emit this request's trace spans (the rid
/// exists only from here on), and encode the response line with its
/// `timings` breakdown when the client asked for one. Called from each
/// connection's ordered drain.
pub(crate) fn stamp_and_finalize(done: conn::Completed) -> std::io::Result<String> {
    let m = metrics();
    let now = Instant::now();
    let timeline = &done.timeline;
    let version = done.version.as_deref();
    let latency_us = now.saturating_duration_since(timeline.arrival).as_micros();
    m.latency_us.observe(latency_us as f64);
    m.latency_window.observe_at(latency_us as f64, now);
    if !done.is_error {
        m.goodput_window.observe_at(latency_us as f64, now);
    }
    let rid = next_rid();
    let timings = timeline.want_timings.then(|| protocol::Timings {
        queue_us: timeline.queue_us(),
        batch_wait_us: timeline.batch_wait_us(),
        infer_us: timeline.infer_us(),
        write_us: now
            .saturating_duration_since(timeline.write_start())
            .as_micros() as u64,
    });
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
    protocol::finalize_response(done.body, timings, rid, latency_us, version)
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

#[cfg(test)]
mod tests {
    use super::*;
    use dader_core::{LmExtractor, Matcher};
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;
    use serde::Value;
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
