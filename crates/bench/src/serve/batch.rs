//! Cross-connection dynamic batching: the queue that pools decoded
//! requests from *all* connections into shared inference batches, and the
//! worker thread that scores them.
//!
//! A queued [`WorkItem`] holds the [`Request`] just as
//! [`decode`](super::protocol::decode) produced it, and the worker
//! answers it with the [`Completed`] response that the event loop parks
//! on its connection as is. Every error the worker answers with names the
//! request's `line`.
//!
//! The [`Batcher`] decides *when* to flush, and the policy is
//! work-conserving: while no batch is in flight the scorer is idle, so
//! whatever is queued goes out at once (or on size, or as a whole-table
//! request's own heavy batch). Only while the scorer is busy does it hold
//! requests, so the queue fills into a wider batch — with one job in
//! flight until the batch reaches `batch_size` or its oldest request has
//! waited `flush_us`, with two until one of them returns. Shutdown drains
//! everything. Every flush is counted under its trigger in
//! `serve_flush_reason_total{reason=…}`.
//!
//! The inference worker ([`spawn_inference_worker`]) owns the model
//! snapshot handed to it per job (an `Arc<VersionedModel>` — hot reloads
//! never invalidate a batch mid-flight) and contains panics: a poisoned
//! batch is answered with `internal` error objects and counted in
//! `serve_worker_panics_total` instead of killing the serving thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dader_block::Blocker;

use super::conn::Completed;
use super::poll::Waker;
use super::protocol::{
    at_line, error_body, pair_body, record_body, table_body, ErrorCode, Op, RecordMatch, Request,
    NO_INDEX,
};
use super::registry::{SharedIndex, VersionedModel};
use super::{admission, metrics, panic_message, predict_contained, Timeline};

/// Why a batch left the queue. The wire label of each variant feeds
/// `serve_flush_reason_total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The queue reached `batch_size`.
    Size,
    /// The oldest pending request hit the `flush_us` deadline.
    Deadline,
    /// A whole-table request is queued (scored as its own batch).
    Table,
    /// Shutdown drain: everything still queued goes out now.
    Drain,
    /// No batch was in flight: the scorer was idle, so holding the queue
    /// would only add latency.
    Idle,
}

impl FlushReason {
    /// Metric label value (static: the label cardinality is this enum).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Table => "table",
            FlushReason::Drain => "drain",
            FlushReason::Idle => "idle",
        }
    }
}

/// One decoded request waiting for (or riding in) an inference batch,
/// addressed back to its connection by `(conn, seq)`.
pub(crate) struct WorkItem {
    /// Event-loop connection id.
    pub(crate) conn: usize,
    /// Per-connection sequence number (response-order key).
    pub(crate) seq: u64,
    /// Stage clock, started when the request line was read; the batcher
    /// and worker stamp their stages onto it as the request advances.
    pub(crate) timeline: Timeline,
    /// The request as [`decode`](super::protocol::decode) produced it.
    pub(crate) req: Request,
}

/// One finished request on its way back to the event loop.
pub(crate) struct Done {
    pub(crate) conn: usize,
    pub(crate) seq: u64,
    pub(crate) done: Completed,
}

/// Batches in flight at which the scorer counts as saturated: the queue
/// then waits for one of them to return, whatever its age.
const SATURATED: usize = 2;

/// The shared request queue plus its flush policy.
pub(crate) struct Batcher {
    queue: VecDeque<WorkItem>,
    batch_size: usize,
    flush_deadline: Duration,
    has_table: bool,
}

impl Batcher {
    pub(crate) fn new(batch_size: usize, flush_us: u64) -> Batcher {
        assert!(batch_size > 0, "batch size must be positive");
        Batcher {
            queue: VecDeque::new(),
            batch_size,
            flush_deadline: Duration::from_micros(flush_us),
            has_table: false,
        }
    }

    pub(crate) fn push(&mut self, item: WorkItem) {
        if matches!(item.req.op, Op::Table { .. }) {
            self.has_table = true;
        }
        self.queue.push_back(item);
    }

    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Should the front of the queue go out now? `jobs_in_flight` is the
    /// count of batches already submitted and not yet returned. With none,
    /// the scorer is idle and the queue goes out at once. With one, the
    /// batch is held until it fills or its oldest request has waited
    /// `flush_us`. With two the scorer is saturated and waiting is free,
    /// so the queue fills until a batch returns (this is what makes
    /// occupancy climb under concurrent load). `draining` forces
    /// everything out at shutdown.
    pub(crate) fn should_flush(
        &self,
        now: Instant,
        draining: bool,
        jobs_in_flight: usize,
    ) -> Option<FlushReason> {
        if self.queue.is_empty() {
            return None;
        }
        if draining {
            return Some(FlushReason::Drain);
        }
        if jobs_in_flight >= SATURATED {
            return None;
        }
        if self.queue.len() >= self.batch_size {
            return Some(FlushReason::Size);
        }
        if self.has_table {
            return Some(FlushReason::Table);
        }
        if jobs_in_flight == 0 {
            return Some(FlushReason::Idle);
        }
        let oldest = self.queue.front().expect("non-empty").timeline.arrival;
        if now.saturating_duration_since(oldest) >= self.flush_deadline {
            return Some(FlushReason::Deadline);
        }
        None
    }

    /// When a deadline flush would fire, for bounding the poller's wait:
    /// `None` when the queue is empty or two batches are in flight (then
    /// only a returning batch, which wakes the poller, can release it).
    pub(crate) fn next_deadline(&self, jobs_in_flight: usize) -> Option<Instant> {
        if jobs_in_flight >= SATURATED {
            return None;
        }
        self.queue
            .front()
            .map(|w| w.timeline.arrival + self.flush_deadline)
    }

    /// Pop up to one batch worth of items.
    pub(crate) fn take(&mut self) -> Vec<WorkItem> {
        let n = self.queue.len().min(self.batch_size);
        let items: Vec<WorkItem> = self.queue.drain(..n).collect();
        self.has_table = self
            .queue
            .iter()
            .any(|w| matches!(w.req.op, Op::Table { .. }));
        items
    }
}

/// One batch on its way to the inference worker. It carries its own model
/// snapshot: a reload between submit and score is intentional and safe —
/// the batch finishes on the model it was submitted with.
pub(crate) struct BatchJob {
    pub(crate) items: Vec<WorkItem>,
    pub(crate) model: Arc<VersionedModel>,
    /// The live corpus index, snapshotted at flush. Unlike the model this
    /// is deliberately *not* an immutable snapshot — `match_record` probes
    /// observe concurrent upserts, and each response's `generation` says
    /// which state it saw.
    pub(crate) index: Option<Arc<SharedIndex>>,
    pub(crate) batch_size: usize,
    pub(crate) reason: FlushReason,
}

/// Spawn the inference worker thread. It scores jobs until the job sender
/// is dropped, sending one `Vec<Done>` per job (same order as the items)
/// and then waking the event loop's poller through `waker`.
///
/// The job receiver is shared behind a mutex so the event loop can
/// respawn a replacement worker after a panic without losing queued jobs:
/// a dying worker holds no job (the `serve.worker` kill-point fires
/// before `recv`), so anything still in the channel is picked up by its
/// successor. With a single live worker the lock is uncontended; a
/// poisoned lock (the previous incarnation died mid-hold) is recovered
/// because the receiver itself carries no torn state.
pub(crate) fn spawn_inference_worker(
    jobs: Arc<Mutex<Receiver<BatchJob>>>,
    results: Sender<Vec<Done>>,
    waker: Waker,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("dader-serve-infer".to_string())
        .spawn(move || loop {
            // Chaos kill-point: dies *between* jobs, never while holding
            // one — respawn must not lose a request.
            dader_obs::fault::maybe_crash("serve.worker");
            let job = {
                let rx = jobs.lock().unwrap_or_else(|e| e.into_inner());
                match rx.recv() {
                    Ok(job) => job,
                    Err(_) => break, // event loop dropped the sender: drain done
                }
            };
            let dones = run_job(&job);
            if results.send(dones).is_err() {
                break; // event loop gone; nothing left to serve
            }
            waker.wake();
        })
        .expect("spawn inference worker")
}

/// Score one batch, containing panics: a panic anywhere in scoring turns
/// the whole batch into `internal` error responses (retryable) instead of
/// a dead worker and a hung event loop.
fn run_job(job: &BatchJob) -> Vec<Done> {
    let m = metrics();
    super::count_flush(job.reason);
    m.batch_occupancy.observe(job.items.len() as f64);
    match catch_unwind(AssertUnwindSafe(|| score_items(job))) {
        Ok(dones) => dones,
        Err(panic) => {
            m.worker_panics.inc();
            eprintln!(
                "dader-serve: inference worker panicked (batch of {} answered with internal errors): {}",
                job.items.len(),
                panic_message(&*panic)
            );
            let msg = "internal error while scoring this batch; retry";
            job.items
                .iter()
                .map(|w| Done {
                    conn: w.conn,
                    seq: w.seq,
                    done: Completed {
                        timeline: w.timeline,
                        body: error_body(
                            ErrorCode::Internal,
                            &at_line(w.req.lineno, msg),
                            Some(w.req.lineno),
                        ),
                        version: Some(job.model.version.clone()),
                        scored: 0,
                        is_error: true,
                    },
                })
                .collect()
        }
    }
}

/// One blocking candidate for a `match_record` item:
/// `(rank, right_id, block_score, right_attrs)`.
type RecordCand = (usize, String, f32, Vec<(String, String)>);

/// Candidates for one `match_record` item, generated before the shared
/// forward pass, plus the index generation that produced them.
struct RecordPrep {
    cands: Vec<RecordCand>,
    generation: u64,
}

/// The actual scoring: all pair items of the batch — and the candidate
/// pairs of every `match_record` item — go through one contained
/// [`predict_contained`](super::predict_contained) call
/// (batch-composition-invariant, so pooling across connections cannot
/// change results; a panicking pair is bisected down to a single typed
/// `internal` error), table items through
/// [`match_tables`](super::MatchServer::match_tables) (or the shared
/// index when the request omitted its `right` table). A request whose
/// deadline passed while it sat in the queue is shed here — answered
/// with `deadline_exceeded` instead of scored.
fn score_items(job: &BatchJob) -> Vec<Done> {
    let server = &job.model.server;
    let now = Instant::now();
    let expired =
        |w: &WorkItem| w.timeline.deadline.map(|d| d < now).unwrap_or(false);
    // Candidate generation for record probes happens up front, under one
    // short read hold per item, so their pairs can ride the *same* shared
    // forward pass as the pair items (slot i of `record_preps` aligns
    // with item i; non-record items hold `None`).
    let mut record_preps: Vec<Option<RecordPrep>> = Vec::with_capacity(job.items.len());
    let mut pairs: Vec<dader_core::EntityPair> = Vec::new();
    for w in &job.items {
        let prep = match &w.req.op {
            Op::Record { record, k, .. } if !expired(w) => job.index.as_ref().map(|idx| {
                metrics().index_hits.inc();
                let probe = dader_datagen::Entity {
                    id: String::new(),
                    attrs: record.clone(),
                };
                idx.with(|i| RecordPrep {
                    cands: i
                        .candidates(&probe, *k)
                        .into_iter()
                        .map(|c| {
                            let ent = i.get(c.right).expect("candidate ranks are live");
                            (c.right, ent.id.clone(), c.score, ent.attrs.clone())
                        })
                        .collect(),
                    generation: i.generation(),
                })
            }),
            _ => None,
        };
        match (&w.req.op, &prep) {
            (Op::Pair { a, b }, _) if !expired(w) => {
                pairs.push((a.clone(), b.clone()));
            }
            (Op::Record { record, .. }, Some(p)) => {
                for (_, _, _, attrs) in &p.cands {
                    pairs.push((record.clone(), attrs.clone()));
                }
            }
            _ => {}
        }
        record_preps.push(prep);
    }
    if !pairs.is_empty() {
        metrics().batch_size.observe(pairs.len() as f64);
    }
    // All pair items share the batch's forward-pass interval; each table
    // item gets its own interval around its own match run below.
    let infer_start = Instant::now();
    let preds = predict_contained(&server.model, &server.encoder, &pairs, job.batch_size);
    let infer_end = Instant::now();
    metrics().scored_pairs.add(preds.iter().filter(|p| p.is_some()).count() as u64);
    let mut preds = preds.into_iter();
    job.items
        .iter()
        .zip(record_preps)
        .map(|(w, prep)| {
            let mut timeline = w.timeline;
            let lineno = w.req.lineno;
            let fail = |code: ErrorCode, msg: &str| {
                (
                    error_body(code, &at_line(lineno, msg), Some(lineno)),
                    0,
                    true,
                )
            };
            let (body, scored, is_error) = if expired(w) {
                admission::count_shed("deadline");
                fail(
                    ErrorCode::DeadlineExceeded,
                    "deadline exceeded before dispatch; request shed",
                )
            } else {
                match &w.req.op {
                    Op::Pair { .. } => {
                        timeline.infer_start = Some(infer_start);
                        timeline.infer_end = Some(infer_end);
                        match preds.next().expect("one prediction slot per pair item") {
                            Some((label, prob)) => {
                                (pair_body(w.req.id.clone(), label, prob), 1, false)
                            }
                            None => fail(
                                ErrorCode::Internal,
                                "inference failed for this request; retry",
                            ),
                        }
                    }
                    Op::Record { threshold, .. } => {
                        timeline.infer_start = Some(infer_start);
                        timeline.infer_end = Some(infer_end);
                        let out = match prep {
                            None => fail(ErrorCode::InvalidRequest, NO_INDEX),
                            Some(p) => {
                                // Consume this record's slice of the shared
                                // predictions; a bisected-out candidate
                                // (`None`) is dropped from the matches but
                                // still counted as a candidate.
                                let mut matches = Vec::new();
                                let mut ok = 0usize;
                                for (rank, right_id, block_score, _) in p.cands.iter() {
                                    let slot = preds
                                        .next()
                                        .expect("one prediction slot per candidate");
                                    if let Some((label, prob)) = slot {
                                        ok += 1;
                                        let keep = match threshold {
                                            Some(t) => prob >= *t,
                                            None => label == 1,
                                        };
                                        if keep {
                                            matches.push(RecordMatch {
                                                right: *rank,
                                                right_id: right_id.clone(),
                                                probability: prob,
                                                block_score: *block_score,
                                            });
                                        }
                                    }
                                }
                                let id = w.req.id.clone();
                                let body = record_body(id, &matches, p.cands.len(), p.generation);
                                (body, ok, false)
                            }
                        };
                        metrics().match_record_latency_us.observe(
                            Instant::now()
                                .saturating_duration_since(w.timeline.arrival)
                                .as_micros() as f64,
                        );
                        out
                    }
                    Op::Table {
                        left,
                        right,
                        kind,
                        k,
                        threshold,
                    } => {
                        timeline.infer_start = Some(Instant::now());
                        let attempt = catch_unwind(AssertUnwindSafe(|| {
                            dader_obs::fault::maybe_crash("serve.infer");
                            match (right, &job.index) {
                                (Some(right), _) => {
                                    metrics().index_rebuilds.inc();
                                    Some(server.match_tables(
                                        left,
                                        right,
                                        *kind,
                                        *k,
                                        job.batch_size,
                                        *threshold,
                                    ))
                                }
                                (None, Some(idx)) => {
                                    metrics().index_hits.inc();
                                    Some(idx.with(|i| {
                                        server.match_tables_indexed(
                                            left,
                                            i,
                                            *k,
                                            job.batch_size,
                                            *threshold,
                                        )
                                    }))
                                }
                                (None, None) => None,
                            }
                        }));
                        timeline.infer_end = Some(Instant::now());
                        match attempt {
                            Ok(Some(outcome)) => {
                                metrics().scored_pairs.add(outcome.candidates as u64);
                                let body = table_body(w.req.id.clone(), &outcome);
                                (body, outcome.candidates, false)
                            }
                            Ok(None) => fail(
                                ErrorCode::InvalidRequest,
                                "match_table without `right` needs a loaded index; \
                                 start dader-serve with --index or reload one",
                            ),
                            Err(_) => {
                                metrics().worker_panics.inc();
                                fail(
                                    ErrorCode::Internal,
                                    "inference failed for this request; retry",
                                )
                            }
                        }
                    }
                    _ => unreachable!("only batched requests are queued"),
                }
            };
            let done = Completed {
                timeline,
                body,
                version: Some(job.model.version.clone()),
                scored,
                is_error,
            };
            Done {
                conn: w.conn,
                seq: w.seq,
                done,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(op: Op) -> Request {
        Request {
            id: None,
            lineno: 1,
            timings: false,
            deadline_ms: None,
            op,
        }
    }

    fn pair_item(conn: usize, seq: u64, at: Instant) -> WorkItem {
        let mut timeline = Timeline::start(at);
        timeline.parsed = at; // tests drive the deadline clock via `at`
        WorkItem {
            conn,
            seq,
            timeline,
            req: request(Op::Pair {
                a: vec![("title".into(), "kodak".into())],
                b: vec![("title".into(), "esp".into())],
            }),
        }
    }

    #[test]
    fn flushes_on_size_and_holds_while_scorer_is_saturated() {
        let mut b = Batcher::new(4, 1_000_000);
        let now = Instant::now();
        for i in 0..4 {
            b.push(pair_item(0, i, now));
        }
        assert_eq!(b.should_flush(now, false, 0), Some(FlushReason::Size));
        // Two jobs already in flight: hold back and let the queue fill.
        assert_eq!(b.should_flush(now, false, 2), None);
        assert_eq!(b.should_flush(now, true, 2), Some(FlushReason::Drain));
        let taken = b.take();
        assert_eq!(taken.len(), 4);
        assert!(b.is_empty());
        assert_eq!(b.should_flush(now, true, 0), None, "empty queue never flushes");
    }

    #[test]
    fn flushes_on_deadline_not_before() {
        // One job in flight: the deadline, not the idle rule, decides.
        let mut b = Batcher::new(64, 500);
        let past = Instant::now() - Duration::from_micros(600);
        b.push(pair_item(0, 0, past));
        let now = Instant::now();
        assert_eq!(b.should_flush(now, false, 1), Some(FlushReason::Deadline));
        let mut fresh = Batcher::new(64, 60_000_000);
        fresh.push(pair_item(0, 0, now));
        assert_eq!(fresh.should_flush(now, false, 1), None);
        assert!(fresh.next_deadline(1).unwrap() > now);
    }

    #[test]
    fn idle_scorer_dispatches_at_once() {
        let mut b = Batcher::new(64, 60_000_000);
        let now = Instant::now();
        b.push(pair_item(0, 0, now));
        assert_eq!(b.should_flush(now, false, 0), Some(FlushReason::Idle));
        assert_eq!(FlushReason::Idle.as_str(), "idle");
        // A full batch still reports its size, idle scorer or not.
        for i in 1..64 {
            b.push(pair_item(0, i, now));
        }
        assert_eq!(b.should_flush(now, false, 0), Some(FlushReason::Size));
    }

    #[test]
    fn one_job_in_flight_holds_until_size_or_deadline() {
        let mut b = Batcher::new(4, 1_000);
        let now = Instant::now();
        b.push(pair_item(0, 0, now));
        assert_eq!(b.should_flush(now, false, 1), None, "held while the scorer works");
        let due = b.next_deadline(1).expect("the hold is bounded");
        assert_eq!(due, now + Duration::from_micros(1_000));
        assert_eq!(b.should_flush(due, false, 1), Some(FlushReason::Deadline));
        for i in 1..4 {
            b.push(pair_item(0, i, now));
        }
        assert_eq!(b.should_flush(now, false, 1), Some(FlushReason::Size));
    }

    #[test]
    fn two_jobs_in_flight_hold_past_the_deadline() {
        let mut b = Batcher::new(4, 500);
        let past = Instant::now() - Duration::from_millis(10);
        for i in 0..3 {
            b.push(pair_item(0, i, past));
        }
        let now = Instant::now();
        assert_eq!(b.should_flush(now, false, 2), None);
        // No timer to wait for: only a returning batch releases the
        // queue, so the poller must not be told the deadline has passed.
        assert_eq!(b.next_deadline(2), None);
        assert_eq!(b.should_flush(now, false, 1), Some(FlushReason::Deadline));
    }

    #[test]
    fn table_request_triggers_prompt_flush() {
        let mut b = Batcher::new(64, 60_000_000);
        let now = Instant::now();
        b.push(pair_item(0, 0, now));
        assert_eq!(b.should_flush(now, false, 1), None);
        b.push(WorkItem {
            conn: 0,
            seq: 1,
            timeline: Timeline::start(now),
            req: request(Op::Table {
                left: Vec::new(),
                right: Some(Vec::new()),
                kind: crate::matching::BlockerKind::Lsh,
                k: 1,
                threshold: None,
            }),
        });
        assert_eq!(b.should_flush(now, false, 1), Some(FlushReason::Table));
        b.take();
        assert!(b.is_empty());
        assert_eq!(b.should_flush(now, false, 0), None);
    }
}
