//! Per-connection state for the event loop: bounded line assembly from
//! nonblocking reads, sequence-ordered response reassembly, buffered
//! nonblocking writes, and the deadline wheel that times out idle readers
//! and stuck writers.
//!
//! The ordering contract lives here. Requests leave a connection tagged
//! with a per-connection `seq`; batches complete out of order across
//! connections, so finished responses park in a `BTreeMap` until every
//! earlier seq is done. Only at drain time — when a response actually
//! joins the output stream — is its global `rid` claimed, which keeps rids
//! strictly increasing within each connection no matter how batches
//! interleave.

use std::collections::{BTreeMap, BinaryHeap};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Instant;

use super::protocol::{error_body, Body, ErrorCode};
use super::{metrics, stamp_and_finalize, Timeline};

/// One event out of the line assembler.
pub(crate) enum LineEvent {
    /// A complete line (without the trailing newline).
    Line(String),
    /// A line that exceeded the byte limit; its bytes were discarded.
    TooLong,
}

/// Reassembles `\n`-terminated lines from arbitrary read chunks, never
/// buffering more than `max` bytes per line. Oversized lines are dropped
/// as they stream in and surface as one [`LineEvent::TooLong`].
pub(crate) struct LineAssembler {
    buf: Vec<u8>,
    max: usize,
    overflowed: bool,
}

impl LineAssembler {
    pub(crate) fn new(max: usize) -> LineAssembler {
        LineAssembler {
            buf: Vec::new(),
            max,
            overflowed: false,
        }
    }

    /// Feed one read chunk; append every completed line to `events`.
    pub(crate) fn push(&mut self, mut data: &[u8], events: &mut Vec<LineEvent>) {
        while !data.is_empty() {
            match data.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    self.accumulate(&data[..pos]);
                    events.push(if self.overflowed {
                        LineEvent::TooLong
                    } else {
                        LineEvent::Line(String::from_utf8_lossy(&self.buf).into_owned())
                    });
                    self.buf.clear();
                    self.overflowed = false;
                    data = &data[pos + 1..];
                }
                None => {
                    self.accumulate(data);
                    return;
                }
            }
        }
    }

    /// EOF: a partial final line still counts as a line.
    pub(crate) fn finish(&mut self) -> Option<LineEvent> {
        if self.overflowed {
            self.overflowed = false;
            self.buf.clear();
            Some(LineEvent::TooLong)
        } else if self.buf.is_empty() {
            None
        } else {
            let line = String::from_utf8_lossy(&self.buf).into_owned();
            self.buf.clear();
            Some(LineEvent::Line(line))
        }
    }

    fn accumulate(&mut self, part: &[u8]) {
        if self.overflowed {
            return;
        }
        if self.buf.len() + part.len() > self.max {
            self.overflowed = true;
            self.buf.clear();
        } else {
            self.buf.extend_from_slice(part);
        }
    }
}

/// A finished response parked until every earlier seq on its connection
/// has drained — produced on the event loop, or by the inference worker
/// for a batched request.
pub(crate) struct Completed {
    /// The request's stage clock (latency, timings, trace spans).
    pub(crate) timeline: Timeline,
    /// Response body; the envelope (rid, latency, version) is stamped at
    /// drain time so per-stream rid order holds.
    pub(crate) body: Body,
    /// Model version tag to echo; `None` for responses no model produced
    /// (parse errors, timeouts).
    pub(crate) version: Option<String>,
    /// Pairs this request contributed to the scored total.
    pub(crate) scored: usize,
    /// Whether `body` is an error object (counted in `serve_errors_total`).
    pub(crate) is_error: bool,
}

impl Completed {
    /// A successful answer produced on the poller thread (no pairs
    /// scored), tagged with the serving model `version`.
    pub(crate) fn ok(timeline: Timeline, body: Body, version: String) -> Completed {
        Completed {
            timeline,
            body,
            version: Some(version),
            scored: 0,
            is_error: false,
        }
    }

    /// An error object no model produced. `lineno` names the request
    /// line; `None` marks a stream-level condition.
    pub(crate) fn error(
        timeline: Timeline,
        code: ErrorCode,
        msg: &str,
        lineno: Option<usize>,
    ) -> Completed {
        Completed {
            timeline,
            body: error_body(code, msg, lineno),
            version: None,
            scored: 0,
            is_error: true,
        }
    }
}

/// Which timer fired (the deadline wheel tracks both per connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum DeadlineKind {
    /// No complete request line read for the read-timeout window.
    Read,
    /// Buffered output stuck (client not draining) past the write timeout.
    Write,
}

/// The deadline wheel: a binary heap of `(when, conn, generation, kind)`
/// with lazy deletion. Rearming a timer just pushes a new entry with a
/// bumped generation; stale entries pop harmlessly because their
/// generation no longer matches the connection's. O(log n) arm, O(1)
/// next-deadline peek for bounding the poller's wait.
pub(crate) struct Deadlines {
    heap: BinaryHeap<std::cmp::Reverse<(Instant, usize, u64, DeadlineKind)>>,
}

impl Deadlines {
    pub(crate) fn new() -> Deadlines {
        Deadlines {
            heap: BinaryHeap::new(),
        }
    }

    pub(crate) fn arm(&mut self, when: Instant, conn: usize, generation: u64, kind: DeadlineKind) {
        self.heap
            .push(std::cmp::Reverse((when, conn, generation, kind)));
    }

    /// Pop every entry due at `now`. The caller must validate each entry's
    /// generation against the connection's current one (lazy deletion).
    pub(crate) fn expired(&mut self, now: Instant) -> Vec<(usize, u64, DeadlineKind)> {
        let mut due = Vec::new();
        while let Some(std::cmp::Reverse((when, conn, generation, kind))) =
            self.heap.peek().copied()
        {
            if when > now {
                break;
            }
            self.heap.pop();
            due.push((conn, generation, kind));
        }
        due
    }

    /// Earliest armed deadline (possibly stale — fine for bounding a wait).
    pub(crate) fn next(&self) -> Option<Instant> {
        self.heap.peek().map(|r| r.0 .0)
    }
}

/// The socket under a connection: an accepted TCP client, or the core's
/// end of the local socket pair that carries a piped stream
/// ([`serve_stream`](super::serve_stream)).
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Local(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Local(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Local(s) => s.write(buf),
        }
    }
}

#[cfg(unix)]
impl std::os::fd::AsRawFd for Stream {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Local(s) => s.as_raw_fd(),
        }
    }
}

/// One client connection owned by the event loop.
pub(crate) struct Conn {
    pub(crate) stream: Stream,
    pub(crate) assembler: LineAssembler,
    /// 1-based input line counter (error objects name lines).
    pub(crate) lineno: usize,
    /// Next seq to assign to an incoming request.
    next_seq: u64,
    /// Next seq the writer is waiting for.
    next_write: u64,
    /// Finished responses parked out of order.
    completed: BTreeMap<u64, Completed>,
    /// Seqs issued but not yet drained to the output buffer.
    pub(crate) pending: usize,
    out_buf: Vec<u8>,
    out_pos: usize,
    /// Client shut down its write half (EOF read); answer what's pending,
    /// then close.
    pub(crate) read_closed: bool,
    /// Terminal: no more reads ever (timeout, reject, fatal error); close
    /// once pending responses and the output buffer drain.
    pub(crate) closing: bool,
    /// True for over-cap reject connections (not counted against the cap).
    pub(crate) rejected: bool,
    /// The connection carries a piped stream
    /// ([`serve_stream`](super::serve_stream)), not a TCP client. A piped
    /// stream has no one to retry, so a request read while the admission
    /// queue is full is queued rather than shed (reads still pause at the
    /// watermark, so at most one read's lines pass the cap). Nothing times
    /// out a stalled reader of its answers either, so its reads wait while
    /// answers are unsent, which keeps memory bounded.
    pub(crate) piped: bool,
    /// Read-timer generation: bumped on every complete line, invalidating
    /// previously armed read deadlines.
    pub(crate) read_gen: u64,
    /// Write-timer generation: bumped whenever the output buffer fully
    /// drains, invalidating the stuck-writer deadline.
    pub(crate) write_gen: u64,
    /// Whether a write deadline is currently armed (out_buf got stuck).
    pub(crate) write_armed: bool,
}

impl Conn {
    pub(crate) fn new(stream: Stream, max_line_bytes: usize) -> Conn {
        Conn {
            piped: !matches!(stream, Stream::Tcp(_)),
            stream,
            assembler: LineAssembler::new(max_line_bytes),
            lineno: 0,
            next_seq: 0,
            next_write: 0,
            completed: BTreeMap::new(),
            pending: 0,
            out_buf: Vec::new(),
            out_pos: 0,
            read_closed: false,
            closing: false,
            rejected: false,
            read_gen: 0,
            write_gen: 0,
            write_armed: false,
        }
    }

    /// Claim the next response slot for an incoming request.
    pub(crate) fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        seq
    }

    /// Park a finished response for `seq`.
    pub(crate) fn complete(&mut self, seq: u64, done: Completed) {
        self.completed.insert(seq, done);
    }

    /// Drain every response whose turn has come into the output buffer,
    /// stamping rid (claimed here, at write-ordering time, so rids
    /// strictly increase within the stream), latency, the optional
    /// `timings` breakdown and this request's trace spans, and feeding the
    /// serving metrics. Returns pairs scored by the drained responses.
    pub(crate) fn drain_completed(&mut self) -> std::io::Result<usize> {
        let m = metrics();
        let mut scored = 0usize;
        while let Some(done) = self.completed.remove(&self.next_write) {
            self.next_write += 1;
            self.pending -= 1;
            scored += done.scored;
            m.requests.inc();
            if done.is_error {
                m.errors.inc();
            }
            let text = stamp_and_finalize(done)?;
            self.out_buf.extend_from_slice(text.as_bytes());
            self.out_buf.push(b'\n');
        }
        Ok(scored)
    }

    /// Enqueue a raw pre-serialized line, bypassing the seq machinery —
    /// for stream-level notices on connections that never enter it (the
    /// overloaded reject).
    pub(crate) fn enqueue_raw(&mut self, line: &str) {
        self.out_buf.extend_from_slice(line.as_bytes());
        self.out_buf.push(b'\n');
    }

    pub(crate) fn has_output(&self) -> bool {
        self.out_pos < self.out_buf.len()
    }

    /// Push buffered output to the socket without blocking. Returns
    /// `Ok(true)` if any bytes moved. `WouldBlock` is not an error — the
    /// caller arms the write deadline instead.
    pub(crate) fn flush_writes(&mut self) -> std::io::Result<bool> {
        // Chaos failpoint: any armed `serve.write` action surfaces as an
        // I/O error on this connection (dropped like a real peer failure
        // — the client reconnects and retries). Never a panic: writes run
        // on the poller thread.
        if self.has_output() && dader_obs::fault::check("serve.write").is_some() {
            return Err(std::io::Error::other("fault injected: serve.write"));
        }
        let mut progressed = false;
        while self.out_pos < self.out_buf.len() {
            match self.stream.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out_buf.len() && !self.out_buf.is_empty() {
            self.out_buf.clear();
            self.out_pos = 0;
            // Fully drained: the stuck-writer clock resets.
            self.write_gen += 1;
            self.write_armed = false;
        }
        Ok(progressed)
    }

    /// Read once from the socket into `scratch`, returning the bytes read.
    /// Completed lines land in `events`; EOF flips `read_closed` (emitting
    /// any partial final line). `WouldBlock` reads zero bytes.
    pub(crate) fn read_once(
        &mut self,
        scratch: &mut [u8],
        events: &mut Vec<LineEvent>,
    ) -> std::io::Result<usize> {
        match self.stream.read(scratch) {
            Ok(0) => {
                self.read_closed = true;
                if let Some(ev) = self.assembler.finish() {
                    events.push(ev);
                }
                Ok(0)
            }
            Ok(n) => {
                self.assembler.push(&scratch[..n], events);
                Ok(n)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Everything answered and drained: safe to close.
    pub(crate) fn is_done(&self) -> bool {
        (self.closing || self.read_closed)
            && self.pending == 0
            && self.completed.is_empty()
            && self.out_pos >= self.out_buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn lines(events: &[LineEvent]) -> Vec<Option<String>> {
        events
            .iter()
            .map(|e| match e {
                LineEvent::Line(l) => Some(l.clone()),
                LineEvent::TooLong => None,
            })
            .collect()
    }

    #[test]
    fn assembler_handles_split_lines_and_overflow() {
        let mut a = LineAssembler::new(8);
        let mut ev = Vec::new();
        a.push(b"sho", &mut ev);
        assert!(ev.is_empty(), "no newline yet");
        a.push(b"rt\nexactly8\nwaytoolongline\nta", &mut ev);
        assert_eq!(
            lines(&ev),
            vec![Some("short".into()), Some("exactly8".into()), None]
        );
        ev.clear();
        // Unterminated final line still comes through at EOF.
        assert!(matches!(a.finish(), Some(LineEvent::Line(l)) if l == "ta"));
        assert!(a.finish().is_none());
    }

    #[test]
    fn oversized_line_streamed_in_tiny_chunks_is_one_toolong() {
        let mut a = LineAssembler::new(4);
        let mut ev = Vec::new();
        for _ in 0..100 {
            a.push(b"x", &mut ev);
        }
        assert!(ev.is_empty());
        a.push(b"\nok\n", &mut ev);
        assert_eq!(lines(&ev), vec![None, Some("ok".into())]);
    }

    #[test]
    fn deadline_wheel_pops_due_entries_with_lazy_deletion() {
        let mut d = Deadlines::new();
        let now = Instant::now();
        d.arm(now - Duration::from_millis(5), 1, 0, DeadlineKind::Read);
        d.arm(now - Duration::from_millis(1), 2, 3, DeadlineKind::Write);
        d.arm(now + Duration::from_secs(60), 1, 1, DeadlineKind::Read);
        let due = d.expired(now);
        assert_eq!(
            due,
            vec![(1, 0, DeadlineKind::Read), (2, 3, DeadlineKind::Write)]
        );
        // The rearmed (generation 1) entry stays for the future.
        assert!(d.next().unwrap() > now);
        assert!(d.expired(now).is_empty());
    }
}
