//! The line protocol: [`decode`] turns one request line into a
//! [`Request`], and the encoders below build every response line. This
//! module alone knows the wire format; the event loop and the batch
//! worker carry the decoded request unchanged from read to answer.
//!
//! ## Requests
//!
//! One JSON object per input line. Every mode reads the same envelope:
//!
//! * `id` — any JSON value, echoed verbatim on the answer;
//! * `timings` — `true` adds a `timings` object (`queue_us`,
//!   `batch_wait_us`, `infer_us`, `write_us`) to the answer;
//! * `deadline_ms` — a non-negative integer latency budget: a request
//!   still queued past it is shed with `deadline_exceeded` (it overrides
//!   the server's default deadline).
//!
//! `mode` picks the rest. Without one the line scores a pair:
//!
//! ```json
//! {"id": 7, "a": {"title": "kodak esp 5250"}, "b": {"title": "kodak esp"}}
//! ```
//!
//! `a` and `b` are attribute → value objects (attribute order matters: it
//! is the serialization order of Example 1, so clients should send
//! attributes in the schema order the model was trained with). The
//! answer is `{"id": 7, "match": true, "probability": 0.93, ...}`.
//!
//! * `match_table` — `left` and `right` are arrays of attribute objects
//!   (omit `right` to match against the loaded index); optional `blocker`
//!   (`topk`/`lsh`), `k` and `threshold` tune candidate generation. The
//!   answer carries a `matches` array plus the `candidates` count.
//! * `match_record` — one `record` probed against the loaded index, with
//!   the same `k` and `threshold`; the answer adds the index `generation`.
//! * `index_upsert` (`record_id`, `record`) and `index_delete`
//!   (`record_id`) — mutate the loaded index.
//! * `reload` — swap the model (`artifact`: a path, optional) or the
//!   corpus index (`index`: a path, or `true` to re-read its file).
//! * `status` — the live status snapshot.
//!
//! ## Errors
//!
//! A line that cannot be answered gets an error object in its place:
//!
//! ```json
//! {"error": "line 3: `a` must be an object of string attributes",
//!  "code": "invalid_request", "retryable": false, "line": 3}
//! ```
//!
//! `code` comes from the fixed [`ErrorCode`] taxonomy. Every error that
//! answers a request line carries that `line`; only the stream-level
//! conditions (a read `timeout`, the connection-cap `overloaded`) omit it.
//!
//! ## The envelope
//!
//! Every response — success or error — ends with `rid`, a server-side
//! request id that increases monotonically across connections,
//! `latency_us`, the server-side microseconds from reading the line to
//! writing the answer, and the `version` tag of the serving model where
//! one produced the answer.

use dader_datagen::Entity;
use serde::Value;

use super::registry::IndexStats;
use crate::matching::{BlockerKind, MatchOutcome};

/// An entity as the protocol carries it: attribute → value pairs, in the
/// order the client sent them.
pub(crate) type Attrs = Vec<(String, String)>;

/// A response body: key → value pairs in wire order.
pub(crate) type Body = Vec<(String, Value)>;

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

/// One decoded request line: the envelope every mode shares, then what
/// the mode asks for. It travels unchanged from the poller through the
/// batch queue to the scorer.
pub struct Request {
    /// Echoed verbatim as the answer's `id`.
    pub(crate) id: Option<Value>,
    /// 1-based line number on its connection, the `line` of any error
    /// that answers it.
    pub(crate) lineno: usize,
    /// Whether the client asked for a `timings` breakdown.
    pub(crate) timings: bool,
    /// Client-supplied latency budget in milliseconds.
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) op: Op,
}

/// What a request asks for.
pub(crate) enum Op {
    /// Score one pair (no `mode`).
    Pair { a: Attrs, b: Attrs },
    /// `match_table`: block and score a `left` table against an inline
    /// `right` table (a throwaway blocker is built for this one request)
    /// or, when `right` is omitted, against the loaded streaming index.
    Table {
        left: Vec<Entity>,
        right: Option<Vec<Entity>>,
        kind: BlockerKind,
        k: usize,
        threshold: Option<f32>,
    },
    /// `match_record`: top-k matches for one record against the loaded
    /// index. Rides the shared inference batches like a pair.
    Record {
        record: Attrs,
        k: usize,
        threshold: Option<f32>,
    },
    /// `index_upsert`: insert or overwrite one corpus record.
    IndexUpsert { record_id: String, record: Attrs },
    /// `index_delete`: tombstone one corpus record by id.
    IndexDelete { record_id: String },
    /// `reload` with an optional `artifact` path: swap the served model.
    ReloadModel(Option<String>),
    /// `reload` with `index` (a path, or `true` for the loaded file):
    /// swap the corpus index.
    ReloadIndex(Option<String>),
    /// `status`: the live status snapshot.
    Status,
}

impl Op {
    /// Whether the request is scored in an inference batch. The rest are
    /// answered inline on the event loop.
    pub(crate) fn is_batched(&self) -> bool {
        matches!(self, Op::Pair { .. } | Op::Table { .. } | Op::Record { .. })
    }
}

/// Decode one request line; `lineno` is its 1-based number on the
/// connection. A line that is not JSON is `invalid_json`, and one that is
/// but asks for nothing valid is `invalid_request`; either message starts
/// with `line {lineno}: `. Whatever the bytes, this returns.
pub fn decode(line: &str, lineno: usize) -> Result<Request, (ErrorCode, String)> {
    // Chaos failpoint: any armed `serve.parse` action becomes a typed
    // `internal` error response (never a panic — decoding runs on the
    // poller thread, which must survive whatever the harness injects).
    if dader_obs::fault::check("serve.parse").is_some() {
        return Err((
            ErrorCode::Internal,
            at_line(lineno, "fault injected: serve.parse"),
        ));
    }
    let v: Value = serde_json::from_str(line).map_err(|e| {
        (
            ErrorCode::InvalidJson,
            at_line(lineno, format_args!("invalid JSON: {e}")),
        )
    })?;
    decode_value(&v, lineno).map_err(|e| (ErrorCode::InvalidRequest, at_line(lineno, e)))
}

/// The message of an error that answers request line `lineno`: every
/// such message reads `line {lineno}: {msg}`.
pub(crate) fn at_line(lineno: usize, msg: impl std::fmt::Display) -> String {
    format!("line {lineno}: {msg}")
}

/// Why a request that needs the blocking index was refused.
pub(crate) const NO_INDEX: &str = "no index loaded; start dader-serve with --index or reload one";

/// Read the envelope and the mode's fields off a parsed line.
fn decode_value(v: &Value, lineno: usize) -> Result<Request, String> {
    if v.as_object().is_none() {
        return Err("request must be a JSON object".into());
    }
    let op = match v.get("mode") {
        None => Op::Pair {
            a: attrs(v, "a")?,
            b: attrs(v, "b")?,
        },
        Some(Value::String(mode)) if mode == "match_table" => table(v)?,
        Some(Value::String(mode)) if mode == "match_record" => {
            let record = attrs(v, "record")?;
            let (k, threshold) = probe(v)?;
            Op::Record {
                record,
                k,
                threshold,
            }
        }
        Some(Value::String(mode)) if mode == "index_upsert" => Op::IndexUpsert {
            record_id: record_id(v)?,
            record: attrs(v, "record")?,
        },
        Some(Value::String(mode)) if mode == "index_delete" => Op::IndexDelete {
            record_id: record_id(v)?,
        },
        Some(Value::String(mode)) if mode == "reload" => reload(v)?,
        Some(Value::String(mode)) if mode == "status" => Op::Status,
        Some(mode) => {
            return Err(format!(
                "unknown mode {mode:?} (expected \"match_table\", \"match_record\", \
                 \"index_upsert\", \"index_delete\", \"reload\" or \"status\")"
            ))
        }
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(Value::Number(n)) if *n >= 0.0 && n.trunc() == *n => Some(*n as u64),
        Some(_) => return Err("`deadline_ms` must be a non-negative integer".into()),
    };
    Ok(Request {
        id: v.get("id").cloned(),
        lineno,
        timings: matches!(v.get("timings"), Some(Value::Bool(true))),
        deadline_ms,
        op,
    })
}

/// Read the required attribute object `key` (`a`, `b`, `record`).
fn attrs(v: &Value, key: &str) -> Result<Attrs, String> {
    let val = v
        .get(key)
        .ok_or_else(|| format!("`{key}` must be an object of string attributes"))?;
    scalar_attrs(val, key)
}

/// Coerce one JSON attribute object (named `what` in errors) into an
/// attribute-value list. The same scalar coercions apply everywhere
/// entities enter the protocol: numbers render without a trailing `.0`,
/// booleans as text, null as the empty string.
fn scalar_attrs(val: &Value, what: &str) -> Result<Attrs, String> {
    let obj = val
        .as_object()
        .ok_or_else(|| format!("`{what}` must be an object of string attributes"))?;
    obj.iter()
        .map(|(k, v)| match v {
            Value::String(s) => Ok((k.clone(), s.clone())),
            Value::Number(n) => Ok((k.clone(), format_number(*n))),
            Value::Bool(b) => Ok((k.clone(), b.to_string())),
            Value::Null => Ok((k.clone(), String::new())),
            _ => Err(format!("`{what}`.{k} must be a scalar value")),
        })
        .collect()
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

/// Read a `match_table` request: `left` and `right` are arrays of
/// attribute objects; `blocker` (`topk`/`lsh`, default `lsh`) picks the
/// candidate generator.
fn table(v: &Value) -> Result<Op, String> {
    let rows = |key: &str| -> Result<Vec<Entity>, String> {
        let arr = v
            .get(key)
            .and_then(|e| e.as_array())
            .ok_or_else(|| format!("`{key}` must be an array of attribute objects"))?;
        arr.iter()
            .enumerate()
            .map(|(i, row)| {
                let attrs = scalar_attrs(row, &format!("{key}[{i}]"))?;
                Ok(Entity {
                    id: i.to_string(),
                    attrs,
                })
            })
            .collect()
    };
    let left = rows("left")?;
    // `right` is optional: omitted means "match against the loaded
    // streaming index" (the blocker the server already holds), present
    // means "build a throwaway blocker over this inline table".
    let right = match v.get("right") {
        None | Some(Value::Null) => None,
        Some(_) => Some(rows("right")?),
    };
    let kind = match v.get("blocker") {
        None => BlockerKind::Lsh,
        Some(Value::String(s)) => BlockerKind::parse(s)
            .ok_or_else(|| format!("unknown blocker `{s}` (expected `topk` or `lsh`)"))?,
        Some(_) => return Err("`blocker` must be a string".into()),
    };
    let (k, threshold) = probe(v)?;
    Ok(Op::Table {
        left,
        right,
        kind,
        k,
        threshold,
    })
}

/// Read `k` (candidates per probed record, default 10) and `threshold`
/// (keep a candidate whose probability reaches it; absent keeps the
/// model's own decision), shared by `match_table` and `match_record`.
fn probe(v: &Value) -> Result<(usize, Option<f32>), String> {
    let k = match v.get("k") {
        None => 10,
        Some(Value::Number(n)) if *n >= 1.0 && n.trunc() == *n => *n as usize,
        Some(_) => return Err("`k` must be a positive integer".into()),
    };
    let threshold = match v.get("threshold") {
        None => None,
        Some(Value::Number(n)) if (0.0..=1.0).contains(n) => Some(*n as f32),
        Some(_) => return Err("`threshold` must be a number in [0, 1]".into()),
    };
    Ok((k, threshold))
}

/// Read the required `record_id` string off an index mutation.
fn record_id(v: &Value) -> Result<String, String> {
    match v.get("record_id") {
        Some(Value::String(s)) if !s.is_empty() => Ok(s.clone()),
        Some(_) => Err("`record_id` must be a non-empty string".into()),
        None => Err("index mutations need a `record_id` string".into()),
    }
}

/// Read a `reload` request. `artifact` targets the model, `index` the
/// corpus index; each takes a path string (or, for `index`, `true` to
/// re-read the path on file). Asking for both in one line is rejected —
/// the two swaps are separate failure domains.
fn reload(v: &Value) -> Result<Op, String> {
    match (v.get("artifact"), v.get("index")) {
        (Some(_), Some(_)) => {
            Err("reload either the `artifact` or the `index` per request, not both".into())
        }
        (None, Some(Value::String(path))) => Ok(Op::ReloadIndex(Some(path.clone()))),
        (None, Some(Value::Bool(true))) => Ok(Op::ReloadIndex(None)),
        (None, Some(_)) => {
            Err("`index` must be a path string (or `true` to re-read the loaded file)".into())
        }
        (None, None) => Ok(Op::ReloadModel(None)),
        (Some(Value::String(path)), None) => Ok(Op::ReloadModel(Some(path.clone()))),
        (Some(_), None) => Err("`artifact` must be a path string".into()),
    }
}

/// A success body: the echoed `id` first (when the request had one), then
/// `fields` in order, with room left for the envelope.
fn body<const N: usize>(id: Option<Value>, fields: [(&str, Value); N]) -> Body {
    // + id, timings, rid, latency_us, version
    let mut kvs = Vec::with_capacity(N + 5);
    kvs.extend(id.map(|id| ("id".to_string(), id)));
    kvs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    kvs
}

/// Answer to one scored pair.
pub(crate) fn pair_body(id: Option<Value>, label: usize, prob: f32) -> Body {
    body(
        id,
        [
            ("match", Value::Bool(label == 1)),
            ("probability", Value::Number(prob as f64)),
        ],
    )
}

/// Answer to one `match_table` request.
pub(crate) fn table_body(id: Option<Value>, outcome: &MatchOutcome) -> Body {
    let matches = outcome
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
    body(
        id,
        [
            ("matches", Value::Array(matches)),
            ("candidates", Value::Int(outcome.candidates as i64)),
        ],
    )
}

/// One scored `match_record` candidate: the index rank plus the record's
/// own id (ranks shift under compaction, ids do not).
pub(crate) struct RecordMatch {
    pub(crate) right: usize,
    pub(crate) right_id: String,
    pub(crate) probability: f32,
    pub(crate) block_score: f32,
}

/// Answer to one `match_record` request. `generation` tells the client
/// exactly which index state answered — comparable against the
/// generation echoed by its own `index_upsert`/`index_delete` calls.
pub(crate) fn record_body(
    id: Option<Value>,
    matches: &[RecordMatch],
    candidates: usize,
    generation: u64,
) -> Body {
    let matches = matches
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
    body(
        id,
        [
            ("matches", Value::Array(matches)),
            ("candidates", Value::Int(candidates as i64)),
            ("generation", Value::Int(generation as i64)),
        ],
    )
}

/// Answer to an `index_upsert`, with the index state after it.
pub(crate) fn upsert_body(
    id: Option<Value>,
    record_id: String,
    replaced: bool,
    records: usize,
    generation: u64,
) -> Body {
    body(
        id,
        [
            ("upserted", Value::String(record_id)),
            ("replaced", Value::Bool(replaced)),
            ("records", Value::Int(records as i64)),
            ("generation", Value::Int(generation as i64)),
        ],
    )
}

/// Answer to an `index_delete`, with the index state after it.
pub(crate) fn delete_body(
    id: Option<Value>,
    record_id: String,
    deleted: bool,
    records: usize,
    generation: u64,
) -> Body {
    body(
        id,
        [
            ("deleted", Value::Bool(deleted)),
            ("record_id", Value::String(record_id)),
            ("records", Value::Int(records as i64)),
            ("generation", Value::Int(generation as i64)),
        ],
    )
}

/// Answer to a successful `reload`; an index swap adds the new corpus
/// size and generation.
pub(crate) fn reload_body(id: Option<Value>, index: Option<&IndexStats>) -> Body {
    let reloaded = ("reloaded", Value::Bool(true));
    match index {
        None => body(id, [reloaded]),
        Some(stats) => body(
            id,
            [
                reloaded,
                ("index_records", Value::Int(stats.records as i64)),
                ("generation", Value::Int(stats.generation as i64)),
            ],
        ),
    }
}

/// Answer to a `status` request.
pub(crate) fn status_body(id: Option<Value>, snapshot: Value) -> Body {
    body(id, [("status", snapshot)])
}

/// An error object. `lineno` names the request line it answers; `None`
/// marks a stream-level condition (timeout, connection cap).
pub(crate) fn error_body(code: ErrorCode, msg: &str, lineno: Option<usize>) -> Body {
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

/// The one line an over-cap connection gets before it is closed: a
/// stream-level `overloaded` error with a `rid` and nothing else of the
/// envelope.
pub(crate) fn conn_cap_line(max_conns: usize, rid: u64) -> std::io::Result<String> {
    let msg = format!("server at connection cap ({max_conns}); retry later");
    let mut kvs = error_body(ErrorCode::Overloaded, &msg, None);
    kvs.push(("rid".to_string(), Value::Int(rid as i64)));
    encode(kvs)
}

/// Per-stage microseconds of one request, for its `timings` object.
pub(crate) struct Timings {
    pub(crate) queue_us: u64,
    pub(crate) batch_wait_us: u64,
    pub(crate) infer_us: u64,
    pub(crate) write_us: u64,
}

/// Stamp the envelope onto a response body — the `timings` object when
/// the client asked for one, `rid` (an exact integer: the monotone-rid
/// contract must survive past 2^53), `latency_us`, and the serving
/// model's `version` tag where a model produced the answer — and
/// serialize it to one output line.
pub(crate) fn finalize_response(
    mut kvs: Body,
    timings: Option<Timings>,
    rid: u64,
    latency_us: u128,
    version: Option<&str>,
) -> std::io::Result<String> {
    if let Some(t) = timings {
        let stages = [
            ("queue_us", t.queue_us),
            ("batch_wait_us", t.batch_wait_us),
            ("infer_us", t.infer_us),
            ("write_us", t.write_us),
        ];
        let stages = stages
            .into_iter()
            .map(|(k, us)| (k.to_string(), Value::Int(us as i64)))
            .collect();
        kvs.push(("timings".to_string(), Value::Object(stages)));
    }
    kvs.push(("rid".to_string(), Value::Int(rid as i64)));
    kvs.push(("latency_us".to_string(), Value::Int(latency_us as i64)));
    if let Some(v) = version {
        kvs.push(("version".to_string(), Value::String(v.to_string())));
    }
    encode(kvs)
}

fn encode(kvs: Body) -> std::io::Result<String> {
    serde_json::to_string(&Value::Object(kvs)).map_err(|e| std::io::Error::other(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_reads_the_same_envelope() {
        for line in [
            r#"{"a": {"t": "x"}, "b": {"t": "y"}"#,
            r#"{"mode": "match_table", "left": []"#,
            r#"{"mode": "match_record", "record": {"t": "x"}"#,
            r#"{"mode": "index_upsert", "record_id": "r", "record": {}"#,
            r#"{"mode": "index_delete", "record_id": "r""#,
            r#"{"mode": "reload""#,
            r#"{"mode": "status""#,
        ] {
            let full = format!(r#"{line}, "id": 7, "timings": true, "deadline_ms": 5}}"#);
            let req = decode(&full, 3).unwrap_or_else(|e| panic!("{full}: {e:?}"));
            assert_eq!(req.id, Some(Value::Number(7.0)), "{full}");
            assert_eq!(
                (req.lineno, req.timings, req.deadline_ms),
                (3, true, Some(5))
            );
            let bad = format!(r#"{line}, "deadline_ms": -1}}"#);
            let (code, msg) = decode(&bad, 3)
                .err()
                .expect("a negative deadline is rejected");
            assert_eq!(code, ErrorCode::InvalidRequest, "{bad}");
            assert!(msg.starts_with("line 3: `deadline_ms`"), "{msg}");
        }
    }
}
