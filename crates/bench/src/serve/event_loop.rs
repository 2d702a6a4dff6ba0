//! The serving core: one poller thread owning every client socket,
//! pooling parsed requests from all connections into shared inference
//! batches.
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
//! Every transport runs this one loop. [`serve_event_loop`] accepts TCP
//! clients; [`serve_stream`] hands it a single pre-accepted connection —
//! one end of a local socket pair that two pump threads feed from a byte
//! stream (`dader-serve`'s stdin) and copy back out — and no listener.
//! Either way the loop gives:
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
use std::io::{ErrorKind, Read, Write};
#[cfg(unix)]
use std::net::Shutdown;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dader_obs::trace::{self, Stage};

use super::admission::{self, Admission};
use super::batch::{spawn_inference_worker, BatchJob, Batcher, WorkItem};
use super::conn::{Completed, Conn, DeadlineKind, Deadlines, LineEvent, Stream};
use super::poll::Poller;
use super::protocol::{self, ErrorCode, Op, Request};
use super::registry::ModelRegistry;
use super::{metrics, next_rid, status, TcpServeConfig, Timeline};

/// Longest single wait. Nothing signals a raised `stop` flag, so this
/// bounds how late the loop notices it (and a dead inference worker).
const STOP_POLL: Duration = Duration::from_millis(100);

/// Serve the line protocol on `listener` until `stop` is raised, pooling
/// requests from all connections into shared inference batches. A batch
/// goes out at once while the scorer is idle; while it is busy, requests
/// are held until `cfg.batch_size` fill a batch or the oldest has waited
/// `cfg.flush_us`. On `stop` the listener stops accepting and open
/// connections keep being served until each client hangs up (graceful
/// drain). Returns the total number of pairs scored.
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
    listener.set_nonblocking(true)?;
    run(registry, Some(listener), None, cfg, &stop)
}

/// Serve one byte stream — request lines from `input`, response lines to
/// `output`, in input order — through the same core as
/// [`serve_event_loop`]: the stream becomes a single pre-accepted
/// connection on a local socket pair, and no listener is opened. This is
/// `dader-serve`'s stdin mode and the in-process entry point. Returns
/// the pairs scored once `input` hits EOF and every line is answered.
///
/// The stream has no read or write timeouts and is never shed: a piped
/// file has no one to retry, so lines read past `cfg.max_queue` are
/// queued, and memory stays bounded because reads still pause at that
/// watermark and while answers wait on a slow `output`. A failed write to
/// `output` (a closed stdout, say) ends the stream and is returned as the
/// error; so is a failed read of `input`.
///
/// `input` is copied in on a detached thread, so a caller whose output
/// fails is not held up by an input that never ends.
#[cfg(unix)]
pub fn serve_stream<R, W>(
    registry: Arc<ModelRegistry>,
    input: R,
    output: W,
    mut cfg: TcpServeConfig,
) -> std::io::Result<usize>
where
    R: Read + Send + 'static,
    W: Write + Send,
{
    let (core_end, pump_end) = UnixStream::pair()?;
    core_end.set_nonblocking(true)?;
    let mut to_core = pump_end.try_clone()?;
    let input_pump = std::thread::spawn(move || {
        let mut input = input;
        let copied = std::io::copy(&mut input, &mut to_core);
        // EOF (or a failed read) ends the request stream.
        let _ = to_core.shutdown(Shutdown::Write);
        copied
    });
    cfg.limits.read_timeout = None;
    cfg.limits.write_timeout = None;
    std::thread::scope(|s| {
        let output_pump = s.spawn(move || pump_output(pump_end, output));
        let stream = Some(Stream::Local(core_end));
        let scored = run(registry, None, stream, cfg, &AtomicBool::new(false));
        let pumped = output_pump.join().expect("output pump panicked");
        let scored = scored?;
        pumped?;
        // The connection ended at the input's EOF, so the pump is done.
        input_pump.join().expect("input pump panicked")?;
        Ok(scored)
    })
}

/// Stand-in off Unix, where std has no socket pair: serve over
/// [`serve_event_loop`] instead.
#[cfg(not(unix))]
pub fn serve_stream<R, W>(
    _registry: Arc<ModelRegistry>,
    _input: R,
    _output: W,
    _cfg: TcpServeConfig,
) -> std::io::Result<usize>
where
    R: Read + Send + 'static,
    W: Write + Send,
{
    Err(std::io::Error::new(
        ErrorKind::Unsupported,
        "stream serving needs Unix domain sockets; serve over TCP instead",
    ))
}

/// Copy the core's responses to `output` until the core closes its end.
/// When the copy fails (say, `output` is a closed stdout), the socket is
/// shut down both ways so the core drops the connection and returns.
#[cfg(unix)]
fn pump_output(from_core: UnixStream, mut output: impl Write) -> std::io::Result<()> {
    let copied = std::io::copy(&mut &from_core, &mut output).and_then(|_| output.flush());
    if copied.is_err() {
        let _ = from_core.shutdown(Shutdown::Both);
    }
    copied
}

/// The loop behind both entry points. With a `listener` it accepts until
/// `stop`; with none it serves the `preaccepted` connection and returns
/// once that connection is done.
fn run(
    registry: Arc<ModelRegistry>,
    listener: Option<TcpListener>,
    preaccepted: Option<Stream>,
    cfg: TcpServeConfig,
    stop: &AtomicBool,
) -> std::io::Result<usize> {
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let (job_tx, job_rx) = mpsc::channel::<BatchJob>();
    let (done_tx, done_rx) = mpsc::channel();
    let mut poller = Poller::new()?;
    // The receiver is shared so a respawned worker (after an uncontained
    // panic) picks up queued jobs where its predecessor left off.
    let job_rx = Arc::new(Mutex::new(job_rx));
    let mut worker = spawn_inference_worker(Arc::clone(&job_rx), done_tx.clone(), poller.waker());
    let mut admission = Admission::new(cfg.max_queue);

    // Uptime counts from the first serving core, not the first probe.
    status::started();
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    if let Some(stream) = preaccepted {
        metrics().conns_total.inc();
        conns.insert(0, Conn::new(stream, cfg.limits.max_line_bytes));
    }
    let mut next_conn_id = conns.len();
    let mut serving = conns.len(); // non-rejected connections, vs cfg.max_conns
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
                    c.complete(d.seq, d.done);
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
        if let Some(listener) = listener.as_ref().filter(|_| !draining) {
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
                            let mut c = Conn::new(Stream::Tcp(sock), cfg.limits.max_line_bytes);
                            c.rejected = true;
                            c.closing = true;
                            c.enqueue_raw(&protocol::conn_cap_line(cfg.max_conns, next_rid())?);
                            conns.insert(id, c);
                            continue;
                        }
                        serving += 1;
                        let c = Conn::new(Stream::Tcp(sock), cfg.limits.max_line_bytes);
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
                let decoded = match ev {
                    LineEvent::Line(line) if line.trim().is_empty() => continue,
                    LineEvent::Line(line) => protocol::decode(&line, lineno),
                    LineEvent::TooLong => {
                        let max = cfg.limits.max_line_bytes;
                        let msg =
                            protocol::at_line(lineno, format_args!("request exceeds {max} bytes"));
                        Err((ErrorCode::LineTooLong, msg))
                    }
                };
                let mut timeline = Timeline::start(arrival);
                let seq = c.alloc_seq();
                let req = match decoded {
                    Ok(req) => req,
                    Err((code, msg)) => {
                        c.complete(seq, Completed::error(timeline, code, &msg, Some(lineno)));
                        continue;
                    }
                };
                timeline.want_timings = req.timings;
                timeline.deadline = admission::resolve_deadline(
                    arrival,
                    req.deadline_ms,
                    cfg.limits.default_deadline,
                );
                if !req.op.is_batched() {
                    c.complete(seq, answer_inline(&registry, req, timeline));
                    continue;
                }
                // One read pass can assemble many lines after the
                // watermark check; on a TCP connection those over the cap
                // are answered `overloaded`, never queued.
                if !c.piped && admission.must_shed(batcher.len()) {
                    admission::count_shed("queue_full");
                    let msg = format!("server queue full ({}); retry later", cfg.max_queue);
                    let done =
                        Completed::error(timeline, ErrorCode::Overloaded, &msg, Some(lineno));
                    c.complete(seq, done);
                } else {
                    batcher.push(WorkItem {
                        conn: id,
                        seq,
                        timeline,
                        req,
                    });
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
                    // notice, then close.
                    let msg = format!(
                        "read timed out after {:?} idle; closing connection",
                        cfg.limits.read_timeout.unwrap_or_default()
                    );
                    let done =
                        Completed::error(Timeline::start(now), ErrorCode::Timeout, &msg, None);
                    c.complete(seq, done);
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
                        let msg = "inference worker unavailable; retry";
                        let line = Some(w.req.lineno);
                        c.complete(
                            w.seq,
                            Completed::error(w.timeline, ErrorCode::Internal, msg, line),
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

        // 8. Exit once no connection can arrive (draining, or no
        // listener) and the loop is truly empty.
        let accepting = listener.is_some() && !draining;
        if !accepting && conns.is_empty() && batcher.is_empty() && jobs_in_flight == 0 {
            break;
        }

        // 9. Block until something can move: a readable or writable
        // socket, a new connection, a finished batch (the worker's wake
        // byte) or the next due timer. Sockets are watched for reading
        // only below the admission high-water mark (`cfg.max_queue`);
        // above it TCP backpressure does the flow control, and reads
        // resume below the low-water mark. A piped stream is not read
        // while its answers are unsent (`stalled`).
        let reads_allowed = admission.reads_allowed(batcher.len());
        poller.begin(listener.as_ref().filter(|_| accepting && !accept_failed));
        for (&id, c) in &conns {
            let stalled = c.piped && c.has_output();
            let read = reads_allowed && !c.closing && !c.read_closed && !stalled;
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

/// Answer a request that never waits on a batch, on the poller thread:
/// index mutations, reloads and status probes.
fn answer_inline(registry: &Arc<ModelRegistry>, req: Request, timeline: Timeline) -> Completed {
    let Request { id, lineno, op, .. } = req;
    let fail = |code: ErrorCode, msg: &str| {
        Completed::error(
            timeline,
            code,
            &protocol::at_line(lineno, msg),
            Some(lineno),
        )
    };
    let no_index = || fail(ErrorCode::InvalidRequest, protocol::NO_INDEX);
    let body = match op {
        // Mutations hold the index write lock only for the O(record)
        // slot append, and echo the bumped generation so the client can
        // correlate later probes.
        Op::IndexUpsert { record_id, record } => {
            let Some(index) = registry.index() else {
                return no_index();
            };
            let (replaced, generation, records) = index.upsert(dader_datagen::Entity {
                id: record_id.clone(),
                attrs: record,
            });
            protocol::upsert_body(id, record_id, replaced, records, generation)
        }
        Op::IndexDelete { record_id } => {
            let Some(index) = registry.index() else {
                return no_index();
            };
            let (deleted, generation, records) = index.delete(&record_id);
            protocol::delete_body(id, record_id, deleted, records, generation)
        }
        // The swap happens inline: the new artifact loads before any
        // further intake, and in-flight batches keep their snapshot.
        Op::ReloadModel(path) => match registry.reload(path.as_deref().map(Path::new)) {
            Ok(version) => {
                crate::note!("dader-serve: hot reload -> {version}");
                protocol::reload_body(id, None)
            }
            Err(msg) => return fail(ErrorCode::Internal, &format!("reload failed: {msg}")),
        },
        Op::ReloadIndex(path) => match registry.reload_index(path.as_deref().map(Path::new)) {
            Ok(stats) => {
                crate::note!(
                    "dader-serve: index reload -> {} records, generation {}",
                    stats.records,
                    stats.generation
                );
                protocol::reload_body(id, Some(&stats))
            }
            Err(msg) => return fail(ErrorCode::Internal, &format!("reload failed: {msg}")),
        },
        // Answered from the live metrics: a status probe never waits on
        // a batch.
        Op::Status => protocol::status_body(id, status::status_snapshot(Some(registry))),
        Op::Pair { .. } | Op::Table { .. } | Op::Record { .. } => {
            unreachable!("batched requests are queued, not answered inline")
        }
    };
    Completed::ok(timeline, body, registry.version())
}
