//! Open-loop load generator: requests are sent on a seeded Poisson
//! schedule whatever the server's progress, over at most `nproc`
//! connections, one thread each. Latency is timed from each request's
//! *scheduled* send time, so a stalled server (or a late generator) cannot
//! hide queueing behind a slower send rate (coordinated omission).
//!
//! Responses on one connection come back in request order (the serving
//! protocol's per-connection ordering), so the generator matches them
//! first-in first-out and checks the echoed `id`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Value;

use crate::util::{quantile, Obj};

/// One scheduled request: when it is due (seconds after the step starts),
/// which connection sends it, and its request line (newline-terminated).
pub struct Planned {
    pub due_s: f64,
    pub conn: usize,
    pub line: String,
}

/// What happened to one planned request.
#[derive(Default)]
pub struct Outcome {
    /// How late the generator sent it (seconds; 0 when on time).
    pub lag_s: f64,
    /// Scheduled send → response received (seconds).
    pub latency_s: Option<f64>,
    /// Actual send → response received (seconds).
    pub wire_s: Option<f64>,
    /// The parsed response line.
    pub response: Option<Value>,
}

/// A Poisson arrival schedule at `rate` requests/s over `secs` seconds.
pub fn poisson(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// Send `plan` open-loop to `addr` and collect every outcome (aligned with
/// `plan`). Returns the outcomes plus the number of response lines that
/// matched no request (a protocol violation: each request is answered
/// exactly once).
pub fn run(
    addr: SocketAddr,
    conns: usize,
    plan: &[Planned],
    drain: Duration,
) -> (Vec<Outcome>, usize) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut outcomes: Vec<Outcome> = (0..plan.len()).map(|_| Outcome::default()).collect();
    let mut extra = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<(usize, &Planned)> = plan
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.conn == c)
                    .collect();
                s.spawn(move || drive(addr, t0, &mine, drain))
            })
            .collect();
        for h in handles {
            let (done, stray) = h.join().expect("load connection thread");
            extra += stray;
            for (i, o) in done {
                outcomes[i] = o;
            }
        }
    });
    (outcomes, extra)
}

/// One connection's send/receive loop. Blocks in `read` only until the
/// next request is due, so sending stays on schedule.
fn drive(
    addr: SocketAddr,
    t0: Instant,
    items: &[(usize, &Planned)],
    drain: Duration,
) -> (Vec<(usize, Outcome)>, usize) {
    let mut out: Vec<(usize, Outcome)> = items
        .iter()
        .map(|(i, _)| (*i, Outcome::default()))
        .collect();
    if items.is_empty() {
        return (out, 0);
    }
    let mut stream = TcpStream::connect(addr).expect("connect to the server under test");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_nonblocking(true).expect("set nonblocking");
    let due: Vec<Instant> = items
        .iter()
        .map(|(_, p)| t0 + Duration::from_secs_f64(p.due_s))
        .collect();
    let mut sent: Vec<Option<Instant>> = vec![None; items.len()];
    let (mut next_send, mut next_recv, mut extra) = (0usize, 0usize, 0usize);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_send = t0;
    loop {
        let now = Instant::now();
        while next_send < items.len() && due[next_send] <= now {
            if write_all(&mut stream, items[next_send].1.line.as_bytes()).is_err() {
                // The server closed on us: everything unsent stays unanswered.
                return (out, extra);
            }
            let at = Instant::now();
            sent[next_send] = Some(at);
            out[next_send].1.lag_s = at.saturating_duration_since(due[next_send]).as_secs_f64();
            last_send = at;
            next_send += 1;
        }
        if next_recv == items.len() {
            break;
        }
        let now = Instant::now();
        let wait = if next_send < items.len() {
            due[next_send].saturating_duration_since(now)
        } else {
            let give_up = last_send + drain;
            if now >= give_up {
                break;
            }
            give_up - now
        };
        if !readable(&stream, wait.min(Duration::from_millis(50))) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    if next_recv >= next_send {
                        extra += 1;
                        continue;
                    }
                    let o = &mut out[next_recv].1;
                    o.latency_s = Some(at.saturating_duration_since(due[next_recv]).as_secs_f64());
                    o.wire_s =
                        sent[next_recv].map(|s| at.saturating_duration_since(s).as_secs_f64());
                    o.response = serde_json::from_str(String::from_utf8_lossy(&line).trim()).ok();
                    next_recv += 1;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => break,
        }
    }
    (out, extra)
}

/// Closed-loop capacity probe: each of `conns` connections keeps `window`
/// requests in flight for `secs` seconds, cycling through `lines`. The
/// windows stay under the server's admission bound, so nothing is shed
/// and the figure is the rate the server sustains when never idle.
/// Returns successful responses per second completed in the last three
/// quarters, and how many responses were errors.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    secs: f64,
    lines: &[String],
) -> (f64, usize) {
    let t0 = Instant::now();
    let (mut ok, mut errors) = (0usize, 0usize);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let (mut ok, mut errors) = (0usize, 0usize);
                    let mut stream =
                        TcpStream::connect(addr).expect("connect to the server under test");
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .expect("set read timeout");
                    let mut next = c;
                    let mut send = |stream: &mut TcpStream| {
                        let line = &lines[next % lines.len()];
                        next += conns;
                        stream.write_all(line.as_bytes())
                    };
                    for _ in 0..window {
                        send(&mut stream).expect("send request");
                    }
                    let mut in_flight = window;
                    let (mut buf, mut chunk) = (Vec::new(), vec![0u8; 1 << 16]);
                    while in_flight > 0 {
                        let n = match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => n,
                        };
                        buf.extend_from_slice(&chunk[..n]);
                        let at = t0.elapsed().as_secs_f64();
                        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                            let line: Vec<u8> = buf.drain(..=pos).collect();
                            in_flight -= 1;
                            if line.windows(8).any(|w| w == b"\"error\":") {
                                errors += 1;
                            } else if at >= secs / 4.0 && at <= secs {
                                ok += 1;
                            }
                            if at < secs {
                                send(&mut stream).expect("send request");
                                in_flight += 1;
                            }
                        }
                    }
                    (ok, errors)
                })
            })
            .collect();
        for h in handles {
            let (o, e) = h.join().expect("capacity connection thread");
            ok += o;
            errors += e;
        }
    });
    (ok as f64 / (secs * 0.75), errors)
}

/// `write_all` on a nonblocking socket: wait (briefly) while the server's
/// receive buffer is full. A generator stuck here shows up as lag.
fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < give_up => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Wait until `stream` is readable or `timeout` passes. Socket read
/// timeouts are rounded up to scheduler ticks (milliseconds), which would
/// make the generator late; `ppoll` takes a nanosecond timeout.
#[cfg(target_os = "linux")]
fn readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd` and
    // `struct timespec` values for the duration of the call, `nfds` is 1
    // to match the single pollfd, and a null sigmask leaves the signal
    // mask unchanged.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

/// Portable fallback: short sleeps, then let the nonblocking read decide.
#[cfg(not(target_os = "linux"))]
fn readable(_stream: &TcpStream, timeout: Duration) -> bool {
    std::thread::sleep(timeout.min(Duration::from_micros(100)));
    true
}

/// Per-step accounting: what was sent, answered, failed and shed, how late
/// the generator ran, and latency over the successful requests.
pub struct StepStats {
    pub name: String,
    pub rate: f64,
    pub secs: f64,
    pub sent: usize,
    pub answered: usize,
    pub errors: usize,
    pub shed: usize,
    pub unanswered: usize,
    pub lag_p99_s: f64,
    pub p50_s: f64,
    /// The tail quantile [`tail_q`] picks for this step's sample count.
    pub tail_q: f64,
    pub tail_s: f64,
    pub p90_s: f64,
    /// Whether the generator kept to its schedule (a step whose generator
    /// fell behind does not report latency).
    pub valid: bool,
    /// Whether latency in the step's last quarter ran away from its first.
    pub backlog_grew: bool,
}

impl StepStats {
    pub fn failed(&self) -> usize {
        self.errors + self.shed + self.unanswered
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.sent.max(1) as f64
    }

    pub fn json(&self) -> Value {
        Obj::new()
            .str("step", self.name.clone())
            .num("rate_rps", self.rate)
            .num("secs", self.secs)
            .int("sent", self.sent)
            .int("answered", self.answered)
            .int("errors", self.errors)
            .int("shed", self.shed)
            .int("unanswered", self.unanswered)
            .num("gen_lag_p99_ms", self.lag_p99_s * 1e3)
            .num("p50_ms", self.p50_s * 1e3)
            .num("tail_q", self.tail_q)
            .num("p90_ms", self.p90_s * 1e3)
            .num("tail_ms", self.tail_s * 1e3)
            .bool("valid", self.valid)
            .bool("backlog_grew", self.backlog_grew)
            .build()
    }
}

/// The tail percentile a step of `n` samples supports: p99, or the
/// highest quantile with at least ten samples beyond it when there are
/// fewer than 1000.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(20) as f64).min(0.99)
}

/// Whether a response is an error object, and whether that error is a
/// load-shedding refusal.
pub fn error_kind(v: &Value) -> Option<bool> {
    v.get("error")?;
    let code = v.get("code").and_then(|c| c.as_str()).unwrap_or("");
    Some(matches!(code, "overloaded" | "deadline_exceeded"))
}

/// Summarize the outcomes of a step's planned requests (`outcomes` is
/// aligned with `plan`). `max_lag_s` is how late the generator may run
/// (p99) before the step is marked invalid.
pub fn stats(
    name: &str,
    rate: f64,
    secs: f64,
    plan: &[Planned],
    outcomes: &[Outcome],
    max_lag_s: f64,
) -> StepStats {
    let (mut answered, mut errors, mut shed, mut unanswered) = (0, 0, 0, 0);
    let mut lat = Vec::new();
    let mut lags = Vec::new();
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for (p, o) in plan.iter().zip(outcomes) {
        lags.push(o.lag_s);
        match (&o.response, o.latency_s) {
            (Some(v), Some(l)) => {
                answered += 1;
                match error_kind(v) {
                    Some(true) => shed += 1,
                    Some(false) => errors += 1,
                    None => {
                        lat.push(l);
                        if p.due_s < secs / 4.0 {
                            first.push(l);
                        } else if p.due_s >= secs * 3.0 / 4.0 {
                            last.push(l);
                        }
                    }
                }
            }
            _ => unanswered += 1,
        }
    }
    let lag_p99_s = quantile(&lags, 0.99);
    let (q1, q4) = (quantile(&first, 0.5), quantile(&last, 0.5));
    let q = tail_q(lat.len());
    StepStats {
        name: name.to_string(),
        rate,
        secs,
        sent: plan.len(),
        answered,
        errors,
        shed,
        unanswered,
        lag_p99_s,
        p50_s: quantile(&lat, 0.5),
        tail_q: q,
        tail_s: quantile(&lat, q),
        p90_s: quantile(&lat, 0.9),
        valid: lag_p99_s <= max_lag_s,
        backlog_grew: q4 > 2.0 * q1 + 0.002,
    }
}
