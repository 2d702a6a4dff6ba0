//! The nonblocking serving core: one poller thread owning every client
//! socket, pooling parsed requests from all connections into shared
//! inference batches.
//!
//! Each pass drains finished batches, accepts, reads every readable
//! socket through the bounded [`LineAssembler`], fires due read/write
//! deadlines off the [`Deadlines`] wheel, flushes the [`Batcher`] when its
//! work-conserving policy says so, and pushes buffered responses out.
//! Then it blocks in one `ppoll` ([`Poller`]) over the listener, the
//! connections and a wake socket the inference worker writes to after
//! every batch, bounded by the next armed deadline. An idle loop costs no
//! CPU, and a request is never held by a timer tick: an idle scorer gets
//! it at once, and its answer is written as soon as the batch lands.
//!
//! What this buys over the legacy thread-per-connection
//! [`serve_tcp`](super::serve_tcp):
//!
//! * **Cross-connection batching** — 64 clients sending one request each
//!   fill one 64-wide GEMM instead of 64 one-row passes.
//! * **No blocking writes anywhere** — the over-cap reject is enqueued on
//!   a nonblocking socket and the connection closes when (or whether) the
//!   bytes drain; a client that connects at the cap and never reads can
//!   no longer stall the accept path.
//! * **Hot reload** — a `{"mode": "reload"}` request swaps the served
//!   artifact through the [`ModelRegistry`] with zero dropped requests;
//!   every response names the model `version` that scored it.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dader_obs::trace::{self, Stage};
use serde::Value;

use super::admission::{self, Admission};
use super::batch::{spawn_inference_worker, BatchJob, Batcher, WorkItem, WorkKind};
use super::conn::{Completed, Conn, DeadlineKind, Deadlines, LineEvent};
use super::poll::Poller;
use super::registry::ModelRegistry;
use super::{
    error_body, metrics, next_rid, parse_request, status, ErrorCode, Parsed, TcpServeConfig,
    Timeline,
};

/// Longest single wait. Nothing signals a raised `stop` flag, so this
/// bounds how late the loop notices it (and a dead inference worker).
const STOP_POLL: Duration = Duration::from_millis(100);

/// Serve the line protocol on `listener` until `stop` is raised, pooling
/// requests from all connections into shared inference batches. A batch
/// goes out at once while the scorer is idle; while it is busy, requests
/// are held until `cfg.batch_size` fill a batch or the oldest has waited
/// `cfg.flush_us`. On `stop`
/// the listener stops accepting and open connections keep being served
/// until each client hangs up — the same graceful-drain contract as the
/// legacy server. Returns the total number of pairs scored.
///
/// Connections beyond `cfg.max_conns` get one `overloaded` error object
/// enqueued on their (nonblocking) socket and are closed; far beyond it
/// (4x the cap) they are closed without ceremony, because a reject queue
/// that large means the rejects themselves are the load.
pub fn serve_event_loop(
    registry: Arc<ModelRegistry>,
    listener: TcpListener,
    cfg: TcpServeConfig,
    stop: Arc<AtomicBool>,
) -> std::io::Result<usize> {
    assert!(cfg.batch_size > 0, "batch size must be positive");
    listener.set_nonblocking(true)?;
    let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
    let (done_tx, done_rx) = mpsc::channel();
    let mut poller = Poller::new()?;
    // The receiver is shared so a respawned worker (after an uncontained
    // panic) picks up queued jobs where its predecessor left off.
    let job_rx = Arc::new(Mutex::new(job_rx));
    let mut worker = spawn_inference_worker(Arc::clone(&job_rx), done_tx.clone(), poller.waker());
    let mut admission = Admission::new(cfg.max_queue);

    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_conn_id = 0usize;
    let mut serving = 0usize; // non-rejected connections, vs cfg.max_conns
    let mut batcher = Batcher::new(cfg.batch_size, cfg.flush_us);
    let mut deadlines = Deadlines::new();
    let mut jobs_in_flight = 0usize;
    let mut scored_total = 0usize;
    let mut scratch = vec![0u8; 16 * 1024];
    let mut events: Vec<LineEvent> = Vec::new();
    let reject_hard_cap = cfg.max_conns.saturating_mul(4) + 16;

    loop {
        let now = Instant::now();

        // 1. Land finished batches on their connections.
        while let Ok(dones) = done_rx.try_recv() {
            jobs_in_flight -= 1;
            for d in dones {
                // The connection may be gone (write timeout dropped it);
                // its responses die quietly with it.
                if let Some(c) = conns.get_mut(&d.conn) {
                    c.complete(
                        d.seq,
                        Completed {
                            timeline: d.timeline,
                            body: d.body,
                            version: Some(d.version),
                            scored: d.scored,
                            is_error: d.is_error,
                        },
                    );
                }
            }
        }

        // 1b. Self-heal: a worker that died mid-service (an uncontained
        // panic — e.g. the `serve.worker` chaos kill-point) is replaced
        // before any more batches are submitted. Queued jobs survive in
        // the shared channel; any job it held died with it and its
        // requests are answered by the send-failure fallback below.
        if worker.is_finished() {
            let fresh =
                spawn_inference_worker(Arc::clone(&job_rx), done_tx.clone(), poller.waker());
            let old = std::mem::replace(&mut worker, fresh);
            if old.join().is_err() {
                metrics().worker_panics.inc();
            }
            dader_obs::counter("serve_worker_respawns_total").inc();
            crate::note!("dader-serve: inference worker died; respawned");
        }

        // 2. Accept — never past `stop`, never blocking, reject never writes.
        let draining = stop.load(Ordering::Relaxed);
        // A failing accept (say, out of descriptors) leaves the listener
        // readable; it sits out the next wait so the loop cannot spin on it.
        let mut accept_failed = false;
        if !draining {
            loop {
                match listener.accept() {
                    Ok((sock, peer)) => {
                        metrics().conns_total.inc();
                        sock.set_nonblocking(true)?;
                        // Responses are short lines: one written before
                        // the client ACKs the previous must not wait for
                        // that ACK (Nagle). Best effort — a socket that
                        // refuses the option still serves.
                        let _ = sock.set_nodelay(true);
                        let id = next_conn_id;
                        next_conn_id += 1;
                        if serving >= cfg.max_conns {
                            metrics().rejected.inc();
                            crate::note!("dader-serve: {peer}: rejected (overloaded)");
                            if conns.len() >= reject_hard_cap {
                                // Reject flood: close without ceremony.
                                continue;
                            }
                            metrics().errors.inc();
                            let mut c = Conn::new(sock, cfg.limits.max_line_bytes);
                            c.rejected = true;
                            c.closing = true;
                            let mut kvs = error_body(
                                ErrorCode::Overloaded,
                                &format!(
                                    "server at connection cap ({}); retry later",
                                    cfg.max_conns
                                ),
                                None,
                            );
                            kvs.push(("rid".to_string(), Value::Int(next_rid() as i64)));
                            let line = serde_json::to_string(&Value::Object(kvs))
                                .map_err(|e| std::io::Error::other(e.to_string()))?;
                            c.enqueue_raw(&line);
                            conns.insert(id, c);
                            continue;
                        }
                        serving += 1;
                        let c = Conn::new(sock, cfg.limits.max_line_bytes);
                        if let Some(rt) = cfg.limits.read_timeout {
                            deadlines.arm(now + rt, id, c.read_gen, DeadlineKind::Read);
                        }
                        conns.insert(id, c);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("dader-serve: accept failed: {e}");
                        accept_failed = true;
                        break;
                    }
                }
            }
        }

        // 3. Read and parse every connection the last wait found readable
        // (step 9 watches none while admission has reads paused).
        let mut dead: Vec<usize> = Vec::new();
        for id in poller.readable() {
            let Some(c) = conns.get_mut(&id) else {
                continue;
            };
            if c.closing || c.read_closed {
                continue;
            }
            events.clear();
            let n = match c.read_once(&mut scratch, &mut events) {
                Ok(n) => n,
                Err(e) => {
                    crate::note!("dader-serve: connection failed: {e}");
                    dead.push(id);
                    continue;
                }
            };
            if n == 0 && events.is_empty() && !c.read_closed {
                continue; // nothing readable after all
            }
            for ev in events.drain(..) {
                c.lineno += 1;
                let lineno = c.lineno;
                let arrival = Instant::now();
                match ev {
                    LineEvent::TooLong => {
                        let seq = c.alloc_seq();
                        c.complete(
                            seq,
                            Completed {
                                timeline: Timeline::start(arrival),
                                body: error_body(
                                    ErrorCode::LineTooLong,
                                    &format!(
                                        "line {lineno}: request exceeds {} bytes",
                                        cfg.limits.max_line_bytes
                                    ),
                                    Some(lineno),
                                ),
                                version: None,
                                scored: 0,
                                is_error: true,
                            },
                        );
                    }
                    LineEvent::Line(line) => {
                        if line.trim().is_empty() {
                            continue;
                        }
                        let parsed = parse_request(&line, lineno);
                        let mut timeline = Timeline::start(arrival);
                        timeline.want_timings = parsed.wants_timings();
                        match parsed {
                            parsed @ (Parsed::Ok(_) | Parsed::Table(_) | Parsed::Record(_)) => {
                                let seq = c.alloc_seq();
                                // One read pass can assemble many lines
                                // after the watermark check — those over
                                // the cap are shed, never queued.
                                if admission.must_shed(batcher.len()) {
                                    admission::count_shed("queue_full");
                                    c.complete(
                                        seq,
                                        Completed {
                                            timeline,
                                            body: error_body(
                                                ErrorCode::Overloaded,
                                                &format!(
                                                    "server queue full ({}); retry later",
                                                    cfg.max_queue
                                                ),
                                                Some(lineno),
                                            ),
                                            version: None,
                                            scored: 0,
                                            is_error: true,
                                        },
                                    );
                                } else {
                                    timeline.deadline = admission::resolve_deadline(
                                        arrival,
                                        parsed.deadline_ms(),
                                        cfg.limits.default_deadline,
                                    );
                                    let kind = match parsed {
                                        Parsed::Ok(req) => WorkKind::Pair {
                                            id: req.id,
                                            a: req.a,
                                            b: req.b,
                                        },
                                        Parsed::Table(req) => WorkKind::Table(req),
                                        Parsed::Record(req) => WorkKind::Record(req),
                                        _ => unreachable!("guarded by the arm pattern"),
                                    };
                                    batcher.push(WorkItem {
                                        conn: id,
                                        seq,
                                        timeline,
                                        kind,
                                    });
                                }
                            }
                            Parsed::IndexUpsert {
                                id: req_id,
                                record_id,
                                record,
                            } => {
                                // Mutations answer inline on the poller:
                                // the write lock is held only for the
                                // O(record) slot append, and the bumped
                                // generation is echoed so the client can
                                // correlate later probes.
                                let seq = c.alloc_seq();
                                let done = match registry.index() {
                                    Some(idx) => {
                                        let (replaced, generation, records) =
                                            idx.upsert(dader_datagen::Entity {
                                                id: record_id.clone(),
                                                attrs: record,
                                            });
                                        let mut body = Vec::with_capacity(5);
                                        if let Some(v) = req_id {
                                            body.push(("id".to_string(), v));
                                        }
                                        body.push((
                                            "upserted".to_string(),
                                            Value::String(record_id),
                                        ));
                                        body.push(("replaced".to_string(), Value::Bool(replaced)));
                                        body.push((
                                            "records".to_string(),
                                            Value::Int(records as i64),
                                        ));
                                        body.push((
                                            "generation".to_string(),
                                            Value::Int(generation as i64),
                                        ));
                                        Completed {
                                            timeline,
                                            body,
                                            version: Some(registry.version()),
                                            scored: 0,
                                            is_error: false,
                                        }
                                    }
                                    None => Completed {
                                        timeline,
                                        body: error_body(
                                            ErrorCode::InvalidRequest,
                                            &format!(
                                                "line {lineno}: no index loaded; start \
                                                 dader-serve with --index or reload one"
                                            ),
                                            Some(lineno),
                                        ),
                                        version: None,
                                        scored: 0,
                                        is_error: true,
                                    },
                                };
                                c.complete(seq, done);
                            }
                            Parsed::IndexDelete {
                                id: req_id,
                                record_id,
                            } => {
                                let seq = c.alloc_seq();
                                let done = match registry.index() {
                                    Some(idx) => {
                                        let (deleted, generation, records) = idx.delete(&record_id);
                                        let mut body = Vec::with_capacity(5);
                                        if let Some(v) = req_id {
                                            body.push(("id".to_string(), v));
                                        }
                                        body.push(("deleted".to_string(), Value::Bool(deleted)));
                                        body.push((
                                            "record_id".to_string(),
                                            Value::String(record_id),
                                        ));
                                        body.push((
                                            "records".to_string(),
                                            Value::Int(records as i64),
                                        ));
                                        body.push((
                                            "generation".to_string(),
                                            Value::Int(generation as i64),
                                        ));
                                        Completed {
                                            timeline,
                                            body,
                                            version: Some(registry.version()),
                                            scored: 0,
                                            is_error: false,
                                        }
                                    }
                                    None => Completed {
                                        timeline,
                                        body: error_body(
                                            ErrorCode::InvalidRequest,
                                            &format!(
                                                "line {lineno}: no index loaded; start \
                                                 dader-serve with --index or reload one"
                                            ),
                                            Some(lineno),
                                        ),
                                        version: None,
                                        scored: 0,
                                        is_error: true,
                                    },
                                };
                                c.complete(seq, done);
                            }
                            Parsed::Reload(target) => {
                                // Swap happens inline: the new artifact
                                // loads before any further intake, and
                                // in-flight batches keep their snapshot.
                                let seq = c.alloc_seq();
                                let outcome = match target {
                                    super::ReloadTarget::Model(path) => registry
                                        .reload(path.as_deref().map(Path::new))
                                        .map(|version| {
                                            crate::note!("dader-serve: hot reload -> {version}");
                                            vec![("reloaded".to_string(), Value::Bool(true))]
                                        }),
                                    super::ReloadTarget::Index(path) => registry
                                        .reload_index(path.as_deref().map(Path::new))
                                        .map(|stats| {
                                            crate::note!(
                                                "dader-serve: index reload -> {} records, \
                                                 generation {}",
                                                stats.records,
                                                stats.generation
                                            );
                                            vec![
                                                ("reloaded".to_string(), Value::Bool(true)),
                                                (
                                                    "index_records".to_string(),
                                                    Value::Int(stats.records as i64),
                                                ),
                                                (
                                                    "generation".to_string(),
                                                    Value::Int(stats.generation as i64),
                                                ),
                                            ]
                                        }),
                                };
                                let done = match outcome {
                                    Ok(body) => Completed {
                                        timeline,
                                        body,
                                        version: Some(registry.version()),
                                        scored: 0,
                                        is_error: false,
                                    },
                                    Err(msg) => Completed {
                                        timeline,
                                        body: error_body(
                                            ErrorCode::Internal,
                                            &format!("line {lineno}: reload failed: {msg}"),
                                            Some(lineno),
                                        ),
                                        version: None,
                                        scored: 0,
                                        is_error: true,
                                    },
                                };
                                c.complete(seq, done);
                            }
                            Parsed::Status => {
                                // Answered inline from the live metrics:
                                // a status probe never waits on a batch.
                                let seq = c.alloc_seq();
                                let current = registry.current();
                                c.complete(
                                    seq,
                                    Completed {
                                        timeline,
                                        body: vec![(
                                            "status".to_string(),
                                            status::status_snapshot(Some(&registry)),
                                        )],
                                        version: Some(current.version.clone()),
                                        scored: 0,
                                        is_error: false,
                                    },
                                );
                            }
                            Parsed::Err(code, msg) => {
                                let seq = c.alloc_seq();
                                c.complete(
                                    seq,
                                    Completed {
                                        timeline,
                                        body: error_body(code, &msg, Some(lineno)),
                                        version: None,
                                        scored: 0,
                                        is_error: true,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            // Activity rearms the idle clock (one wheel entry per
            // active pass, not per line).
            if let Some(rt) = cfg.limits.read_timeout {
                if !c.read_closed {
                    c.read_gen += 1;
                    deadlines.arm(now + rt, id, c.read_gen, DeadlineKind::Read);
                }
            }
        }

        // 4. Fire due deadlines (lazy deletion: stale generations pop as
        // no-ops).
        for (id, generation, kind) in deadlines.expired(now) {
            let Some(c) = conns.get_mut(&id) else {
                continue;
            };
            match kind {
                DeadlineKind::Read => {
                    if c.closing || c.read_closed || c.read_gen != generation {
                        continue;
                    }
                    metrics().timeouts.inc();
                    let seq = c.alloc_seq();
                    // Queued as the connection's final seq: everything
                    // already pending answers first, then the timeout
                    // notice, then close — same order the blocking path
                    // guarantees.
                    c.complete(
                        seq,
                        Completed {
                            timeline: Timeline::start(now),
                            body: error_body(
                                ErrorCode::Timeout,
                                &format!(
                                    "read timed out after {:?} idle; closing connection",
                                    cfg.limits.read_timeout.unwrap_or_default()
                                ),
                                None,
                            ),
                            version: None,
                            scored: 0,
                            is_error: true,
                        },
                    );
                    c.closing = true;
                }
                DeadlineKind::Write => {
                    if c.write_gen == generation && c.write_armed && c.has_output() {
                        crate::note!("dader-serve: dropping connection (write timeout)");
                        dead.push(id);
                    }
                }
            }
        }

        // 5. Flush decision: submit batches while the policy says go.
        while let Some(reason) = batcher.should_flush(now, draining, jobs_in_flight) {
            let mut items = batcher.take();
            let flushed_at = Instant::now();
            let occupancy = items.len() as u32;
            for w in &mut items {
                w.timeline.flushed = Some(flushed_at);
                w.timeline.occupancy = occupancy;
                w.timeline.reason = Some(reason);
            }
            if trace::enabled() {
                // Batch-level marker (rid 0): one per flush, so the Chrome
                // trace shows when batches left the queue and why.
                trace::record(
                    0,
                    Stage::Flush,
                    flushed_at,
                    flushed_at,
                    occupancy as u64,
                    reason as u64,
                );
            }
            let job = BatchJob {
                items,
                model: registry.current(),
                index: registry.index(),
                batch_size: cfg.batch_size,
                reason,
            };
            if let Err(mpsc::SendError(job)) = job_tx.send(job) {
                // Worker gone (should be impossible — panics are contained
                // inside it). Answer inline so no request hangs forever.
                for w in job.items {
                    if let Some(c) = conns.get_mut(&w.conn) {
                        c.complete(
                            w.seq,
                            Completed {
                                timeline: w.timeline,
                                body: error_body(
                                    ErrorCode::Internal,
                                    "inference worker unavailable; retry",
                                    None,
                                ),
                                version: None,
                                scored: 0,
                                is_error: true,
                            },
                        );
                    }
                }
                continue;
            }
            jobs_in_flight += 1;
        }
        metrics().queue_depth.set(batcher.len() as f64);

        // 6. Drain ordered responses into output buffers; push to sockets.
        let ids: Vec<usize> = conns.keys().copied().collect();
        for id in ids {
            let c = conns.get_mut(&id).expect("conn present");
            scored_total += match c.drain_completed() {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("dader-serve: response serialization failed: {e}");
                    dead.push(id);
                    continue;
                }
            };
            match c.flush_writes() {
                Ok(_) => {}
                Err(_) => {
                    // Peer gone mid-write; nothing left to tell it.
                    dead.push(id);
                    continue;
                }
            }
            if c.has_output() && !c.write_armed {
                if let Some(wt) = cfg.limits.write_timeout {
                    c.write_armed = true;
                    deadlines.arm(now + wt, id, c.write_gen, DeadlineKind::Write);
                }
            }
            if c.is_done() {
                dead.push(id);
            }
        }

        // 7. Close the dead.
        for id in dead {
            if let Some(c) = conns.remove(&id) {
                if !c.rejected {
                    serving -= 1;
                }
                // Drop closes the socket; the client reads EOF after the
                // last buffered response it chose to read.
            }
        }
        metrics().conns_live.set(serving as f64);

        // 8. Exit once draining and truly empty.
        if draining && conns.is_empty() && batcher.is_empty() && jobs_in_flight == 0 {
            break;
        }

        // 9. Block until something can move: a readable or writable
        // socket, a new connection, a finished batch (the worker's wake
        // byte) or the next due timer. Sockets are watched for reading
        // only below the admission high-water mark (`cfg.max_queue`);
        // above it TCP backpressure does the flow control, and reads
        // resume below the low-water mark.
        let reads_allowed = admission.reads_allowed(batcher.len());
        poller.begin((!draining && !accept_failed).then_some(&listener));
        for (&id, c) in &conns {
            let read = reads_allowed && !c.closing && !c.read_closed;
            poller.watch(id, &c.stream, read, c.has_output());
        }
        let now = Instant::now();
        let timeout = [deadlines.next(), batcher.next_deadline(jobs_in_flight)]
            .into_iter()
            .flatten()
            .fold(STOP_POLL, |t, due| {
                t.min(due.saturating_duration_since(now))
            });
        poller.wait(timeout)?;
    }

    drop(job_tx);
    if worker.join().is_err() {
        // Contained panics never reach here; an uncontained one already
        // printed its message via the panic hook.
        metrics().worker_panics.inc();
    }
    Ok(scored_total)
}
