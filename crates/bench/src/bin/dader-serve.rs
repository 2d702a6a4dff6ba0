//! `dader-serve` — load a model artifact and answer newline-delimited JSON
//! pair-match requests.
//!
//! ```text
//! dader-serve <artifact> [--batch-size N] [--threads N] [--listen ADDR]
//!             [--index FILE] [--flush-us N]
//!             [--max-line-bytes N] [--timeout-ms N] [--max-conns N]
//!             [--max-queue N] [--default-deadline-ms N]
//!             [--metrics-addr ADDR] [--trace FILE] [--trace-sample N]
//!             [--quiet] [--verbose]
//! ```
//!
//! One serving core answers both transports: a single nonblocking event
//! loop, blocking in `ppoll(2)` between passes, that pools requests from
//! *all* connections into shared inference batches. By default requests
//! are read from stdin and answered on stdout, one JSON object per line
//! (see `dader_bench::serve` for the protocol): stdin rides the loop as
//! one connection that never times out and is never shed. With
//! `--listen 127.0.0.1:7878` (port 0 for ephemeral) a TCP listener serves
//! concurrent connections instead. The flush is work-conserving: while
//! the scorer is idle a request is dispatched at once; while a batch is
//! being scored, new requests are held until `--batch-size` of them fill
//! the next batch or the oldest has waited `--flush-us` microseconds
//! (default 1000). Every response carries a monotonic `rid`, the
//! server-side `latency_us`, and the `version` tag of the model that
//! scored it. `--index FILE` loads a `.ddri` corpus index for the
//! `match_record`, `index_upsert`/`index_delete` and right-less
//! `match_table` modes.
//!
//! The served artifact can be swapped without dropping a request: send
//! `{"mode": "reload"}` on any connection or on the stdin stream
//! (optionally with `"artifact": "<path>"`), or, in `--listen` mode, type
//! `reload [path]` on the process stdin. In-flight batches finish on the
//! model they started with; the response `version` tag flips from `v1`
//! to `v2` exactly at the swap.
//!
//! The server is hardened against broken or hostile clients: request
//! lines longer than `--max-line-bytes` (default 1 MiB) are drained and
//! answered with a typed `line_too_long` error; a connection idle past
//! `--timeout-ms` (default 30000) receives a `timeout` error and is
//! closed; connections over the cap receive an `overloaded` error. All
//! error objects carry `code` and `retryable` fields.
//!
//! Overload safety: the pending-request queue is bounded at `--max-queue`
//! (default 256). Past the high-water mark the event loop stops reading
//! sockets (TCP backpressure slows the senders); requests parsed while
//! the queue is already full are shed immediately with a retryable
//! `overloaded` error. `--default-deadline-ms N` gives every request a
//! deadline (a request's own `deadline_ms` field overrides it); a request
//! whose deadline passes while it queues is shed with `deadline_exceeded`
//! instead of scored. `GET /healthz` on the metrics endpoint answers 200
//! while accepting and 503 while shedding or while the reload circuit
//! breaker is open (3+ consecutive reload failures back off before the
//! next attempt).
//!
//! In `--listen` mode the process drains gracefully: when stdin closes,
//! receives a `shutdown` line, or the process gets SIGTERM/SIGINT, the
//! listener stops accepting, in-flight connections run to completion, the
//! metrics summary is printed (and the trace exported, if tracing), and
//! the process exits 0.
//!
//! `--metrics-addr 127.0.0.1:0` starts a status endpoint on a second
//! socket speaking minimal HTTP/1.0: `GET /metrics` returns the
//! Prometheus text of every registered metric with the sliding-window
//! latency p50/p99 appended, `GET /status` returns one JSON object
//! (uptime, live/total connections, queue depth, windowed p50/p99 and
//! rate, batch occupancy, model version, worker panics). A connection
//! that sends no request line still gets the bare metrics dump (the old
//! `nc` scrape contract). The bound address is announced on stderr; the
//! same dump is printed as a summary when the stream ends. The in-band
//! `{"mode": "status"}` request returns the same snapshot on any serving
//! connection.
//!
//! `--trace trace.json` (or `DADER_TRACE=trace.json`) turns on
//! request-scoped tracing: every `--trace-sample`-th request (default:
//! every request) records its parse/queue/dispatch/infer/write stage
//! spans, and the ring buffer is exported as Chrome `trace_event` JSON at
//! shutdown — load it in `chrome://tracing`, Perfetto, or feed it to
//! `dader-trace` for per-stage totals and slowest-request tables. Clients
//! can also send `"timings": true` on any request to get a per-response
//! `timings` breakdown (`queue_us`, `batch_wait_us`, `infer_us`,
//! `write_us`) with no tracing enabled at all.
//!
//! Malformed requests produce `{"error": ...}` responses in place; the
//! process never exits on bad input. In stdin mode it exits 0 once stdin
//! hits EOF and every line is answered, and non-zero if stdout closes
//! first. A missing or corrupted artifact, or an unknown flag, is
//! reported as an error on stderr with a non-zero exit.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dader_bench::{note, ModelRegistry, ServeLimits, TcpServeConfig};

const USAGE: &str = "usage: dader-serve <artifact> [--batch-size N] [--threads N] \
[--listen ADDR] [--index FILE] [--flush-us N] [--max-line-bytes N] [--timeout-ms N] \
[--max-conns N] [--max-queue N] [--default-deadline-ms N] [--metrics-addr ADDR] \
[--trace FILE] [--trace-sample N] [--quiet] [--verbose]";

/// Raised by the SIGTERM/SIGINT handler; a watcher thread folds it into
/// the serve stop flag so `--listen` mode drains gracefully (stop
/// accepting, finish in-flight work, print the summary, exit 0) instead
/// of dying mid-response.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // One atomic store: the only thing that is async-signal-safe here.
    SIGNALED.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw signal(2) binding — no libc crate in the workspace, and the
    // two-argument form is all the drain path needs.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

/// Reject anything after the artifact path that is not a flag `USAGE`
/// lists (a typo such as `--flush_us` would otherwise be silently
/// ignored), and a value flag missing its value.
fn check_flags(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        // `USAGE` names every flag, as `[--flag VALUE]` or `[--flag]`.
        let listed = |form: String| !arg.contains(' ') && USAGE.contains(&form);
        let known = if listed(format!("[{arg} ")) {
            rest.next().is_some()
        } else {
            listed(format!("[{arg}]"))
        };
        if !known {
            eprintln!("{USAGE}");
            fail(&format!("unknown flag or missing value: {arg}"));
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("dader-serve: error: {msg}");
    std::process::exit(1);
}

fn main() {
    dader_bench::init_cli();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_none_or(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        std::process::exit(if args.is_empty() { 1 } else { 0 });
    }
    let artifact = args[0].clone();
    if artifact.starts_with("--") {
        fail("first argument must be the artifact path");
    }
    check_flags(&args[1..]);
    if let Some(s) = arg_value(&args, "--threads") {
        match s.parse::<usize>() {
            Ok(n) if n > 0 => dader_core::train::ParallelConfig::with_threads(n).apply(),
            _ => fail(&format!("--threads must be a positive integer, got {s:?}")),
        }
    }
    let positive = |key: &str, default: usize| -> usize {
        match arg_value(&args, key) {
            Some(s) => s
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| fail(&format!("{key} must be a positive integer, got {s:?}"))),
            None => default,
        }
    };
    let default_deadline = arg_value(&args, "--default-deadline-ms").map(|s| {
        s.parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .map(std::time::Duration::from_millis)
            .unwrap_or_else(|| {
                fail(&format!(
                    "--default-deadline-ms must be a positive integer, got {s:?}"
                ))
            })
    });
    let timeout = std::time::Duration::from_millis(positive("--timeout-ms", 30_000) as u64);
    let flush_us = positive("--flush-us", 1_000) as u64;
    let cfg = TcpServeConfig {
        limits: ServeLimits {
            max_line_bytes: positive("--max-line-bytes", 1 << 20),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            default_deadline,
        },
        batch_size: positive("--batch-size", 32),
        max_conns: positive("--max-conns", 64),
        flush_us,
        max_queue: positive("--max-queue", 256),
    };

    // Tracing: `--trace FILE` wins, `DADER_TRACE=FILE` is the no-restart
    // env idiom. `--trace-sample N` records every Nth request (default 1:
    // every request).
    let trace_path = arg_value(&args, "--trace")
        .or_else(|| std::env::var("DADER_TRACE").ok().filter(|p| !p.is_empty()));
    if trace_path.is_some() {
        let sample = positive("--trace-sample", 1) as u64;
        dader_obs::trace::configure(sample, dader_obs::trace::DEFAULT_CAPACITY);
        note!("dader-serve: tracing on (1 in {sample} requests sampled)");
    }

    // The registry is the hot-reload point for both transports.
    let registry = match ModelRegistry::from_artifact_file(&artifact) {
        Ok(r) => Arc::new(r),
        Err(e) => fail(&format!("cannot load artifact {artifact}: {e}")),
    };
    note!(
        "dader-serve: loaded {artifact} ({}), flush {flush_us}us",
        registry.current().server.description
    );
    if let Some(path) = arg_value(&args, "--index") {
        match registry.load_index_file(&path) {
            Ok(stats) => note!(
                "dader-serve: loaded index {path} ({} kind, {} records, {} tombstones, generation {})",
                stats.kind,
                stats.records,
                stats.tombstones,
                stats.generation
            ),
            Err(e) => fail(&format!("cannot load index {path}: {e}")),
        }
    }
    if let Some(addr) = arg_value(&args, "--metrics-addr") {
        // Spawned with the registry so /status can name the serving
        // model version across hot reloads. The bound address (port 0
        // binds an ephemeral one) is announced for test harnesses.
        match dader_bench::spawn_status_endpoint(&addr, Some(Arc::clone(&registry))) {
            Ok(bound) => eprintln!("dader-serve: metrics on {bound}"),
            Err(e) => fail(&format!("cannot bind metrics endpoint on {addr}: {e}")),
        }
    }

    let served = match arg_value(&args, "--listen") {
        // Stdin is one connection on the serving core; the timeouts and
        // the connection cap apply to sockets only.
        None => dader_bench::serve_stream(registry, std::io::stdin(), std::io::stdout(), cfg),
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| fail(&format!("cannot listen on {addr}: {e}")));
            let bound = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone());
            // Announced even under --quiet: harnesses need the ephemeral port, and
            // connection errors stay on stderr regardless.
            eprintln!("dader-serve: listening on {bound}");
            // Graceful shutdown: closing stdin (or sending a "shutdown" line)
            // stops the accept loop; in-flight connections drain to completion
            // before the process exits. `reload [path]` on the same stream
            // hot-swaps the served artifact.
            let stop = Arc::new(AtomicBool::new(false));
            install_signal_handlers();
            {
                // Signal watcher: folds SIGTERM/SIGINT into the same stop flag the
                // stdin controller uses, so both trigger the one graceful-drain
                // path.
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || loop {
                    if SIGNALED.load(Ordering::Relaxed) {
                        eprintln!("dader-serve: signal received; draining");
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break; // shut down some other way; watcher done
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                });
            }
            {
                let stop = Arc::clone(&stop);
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for line in std::io::stdin().lock().lines() {
                        let Ok(line) = line else { break };
                        let line = line.trim();
                        if line == "shutdown" {
                            break;
                        }
                        if let Some(rest) = line.strip_prefix("reload") {
                            let path = rest.trim();
                            let path = (!path.is_empty()).then(|| std::path::PathBuf::from(path));
                            match registry.reload(path.as_deref()) {
                                Ok(v) => eprintln!("dader-serve: hot reload -> {v}"),
                                Err(e) => eprintln!("dader-serve: reload failed: {e}"),
                            }
                        }
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            dader_bench::serve_event_loop(registry, listener, cfg, stop)
        }
    };
    match served {
        Ok(n) => {
            note!("dader-serve: drained; scored {n} pairs total");
            // Shutdown summary: the full metrics dump, so a batch
            // invocation leaves its latency/error profile behind.
            note!("{}", dader_obs::render_prometheus().trim_end());
            // The sampled trace ring as Chrome `trace_event` JSON.
            if let Some(path) = &trace_path {
                match dader_obs::trace::write_chrome_trace_file(path) {
                    Ok(n) => {
                        let dropped = dader_obs::trace::dropped();
                        note!("dader-serve: wrote {n} trace events to {path} ({dropped} evicted)");
                    }
                    Err(e) => eprintln!("dader-serve: cannot write trace to {path}: {e}"),
                }
            }
        }
        Err(e) => fail(&format!("serving failed: {e}")),
    }
}
