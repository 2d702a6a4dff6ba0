//! Before/after serving benchmark: the legacy thread-per-connection core
//! vs the nonblocking event loop with cross-connection dynamic batching,
//! measured at high client concurrency.
//!
//! ```text
//! cargo run --release -p dader-bench --bin serve_bench
//!     [-- --clients N] [--requests N] [--batch-size N] [--flush-us N]
//! ```
//!
//! Both modes serve the *same* tiny model (same seed) to `--clients`
//! (default 64) concurrent socket clients, each pipelining `--requests`
//! pair-match requests and reading every response. Per-request latency is
//! taken from the `latency_us` field the server stamps on each response —
//! the full server-side path including batching wait, so the flush
//! deadline's latency cost is on the books. Batch occupancy (requests
//! pooled per inference batch) and flush-reason counts come from the delta
//! of the always-on serving metrics across each phase.
//!
//! Results land in `results/BENCH_serve.json`:
//! `modes.thread_per_conn` (before) and `modes.event_loop` (after), each
//! with exact p50/p99/mean latency and throughput, a `queue_wait` vs
//! `compute` breakdown taken from the server-stamped `timings` object
//! (requests carry `"timings": true`), and the sliding-window `window`
//! p50/p99 snapshot — the same numbers a `GET /status` probe would have
//! reported as the phase drained. The event-loop entry adds
//! `batch_occupancy_mean` (the cross-connection pooling proof — must
//! exceed 1 under concurrent load) and the flush-reason breakdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dader_bench::{
    note, serve_event_loop, serve_tcp, MatchServer, ModelRegistry, ServeLimits, TcpServeConfig,
};
use dader_core::{DaderModel, LmExtractor, Matcher};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

fn positive(args: &[String], key: &str, default: usize) -> usize {
    match arg_value(args, key) {
        Some(s) => s.parse::<usize>().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("serve_bench: {key} must be a positive integer, got {s:?}");
            std::process::exit(1);
        }),
        None => default,
    }
}

/// Same seed -> same weights: both serving cores score the same model.
fn bench_server() -> MatchServer {
    let vocab = Vocab::build(
        [
            "title", "brand", "kodak", "esp", "printer", "hp", "laserjet", "canon", "pixma",
            "epson", "workforce", "inkjet", "office", "photo", "wireless",
        ],
        1,
        1000,
    );
    let encoder = PairEncoder::new(vocab.clone(), 32);
    let mut rng = StdRng::seed_from_u64(77);
    let cfg = TransformerConfig {
        vocab: vocab.len(),
        dim: 16,
        layers: 1,
        heads: 2,
        ffn_dim: 32,
        max_len: 32,
    };
    let model = DaderModel {
        extractor: Box::new(LmExtractor::new(cfg, &mut rng)),
        matcher: Matcher::new(16, &mut rng),
    };
    MatchServer::new(model, encoder, "serve_bench")
}

/// The request corpus one client sends (deterministic per client id).
fn request_lines(client: usize, requests: usize) -> String {
    let words = ["kodak esp", "hp laserjet", "canon pixma", "epson workforce"];
    let mut lines = String::new();
    for i in 0..requests {
        let a = words[(client + i) % words.len()];
        let b = words[(client + i + 1) % words.len()];
        lines.push_str(&format!(
            "{{\"id\": {i}, \"a\": {{\"title\": \"{a} {client}\"}}, \"b\": {{\"title\": \"{b}\"}}, \
             \"timings\": true}}\n"
        ));
    }
    lines
}

/// One response's server-stamped clocks: total latency plus the
/// `timings` breakdown (queue-wait vs compute).
#[derive(Clone, Copy)]
struct Sample {
    latency_us: u64,
    queue_us: u64,
    infer_us: u64,
}

struct PhaseResult {
    samples: Vec<Sample>,
    wall_s: f64,
    scored: usize,
    /// Sliding-window latency snapshot taken right as the phase drained —
    /// the same numbers `GET /status` would report at that moment.
    window: dader_obs::window::WindowSnapshot,
}

/// Run one serving phase: spawn the server core, slam it with `clients`
/// concurrent pipelining clients, drain, and return every server-stamped
/// latency.
fn run_phase(
    core: &str,
    cfg: TcpServeConfig,
    clients: usize,
    requests: usize,
) -> PhaseResult {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind bench listener");
    let addr = listener.local_addr().expect("listener addr");
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        let core = core.to_string();
        std::thread::spawn(move || match core.as_str() {
            "event_loop" => {
                let registry = Arc::new(ModelRegistry::new(bench_server()));
                serve_event_loop(registry, listener, cfg, stop)
            }
            _ => serve_tcp(Arc::new(bench_server()), listener, cfg, stop),
        })
    };

    let barrier = Arc::new(Barrier::new(clients));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Vec<Sample> {
                let lines = request_lines(c, requests);
                barrier.wait();
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_nodelay(true).expect("set TCP_NODELAY");
                conn.write_all(lines.as_bytes()).expect("send requests");
                conn.shutdown(std::net::Shutdown::Write).expect("shutdown write");
                let mut samples = Vec::with_capacity(requests);
                for line in BufReader::new(conn).lines() {
                    let line = line.expect("read response");
                    let v: Value = serde_json::from_str(&line).expect("response JSON");
                    assert!(
                        v.get("error").is_none(),
                        "client {c}: unexpected error response: {line}"
                    );
                    let field = |obj: &Value, key: &str| -> u64 {
                        obj.get(key)
                            .and_then(|x| x.as_i64())
                            .unwrap_or_else(|| panic!("{key} on every response: {line}"))
                            as u64
                    };
                    let latency_us = field(&v, "latency_us");
                    let timings = v.get("timings").expect("timings on every response").clone();
                    let sample = Sample {
                        latency_us,
                        queue_us: field(&timings, "queue_us"),
                        infer_us: field(&timings, "infer_us"),
                    };
                    // The stage clocks nest inside the end-to-end clock.
                    assert!(
                        sample.queue_us + sample.infer_us <= latency_us,
                        "client {c}: queue {} + infer {} exceeds latency {latency_us}: {line}",
                        sample.queue_us,
                        sample.infer_us
                    );
                    samples.push(sample);
                }
                assert_eq!(
                    samples.len(),
                    requests,
                    "client {c}: every request answered exactly once"
                );
                samples
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(clients * requests);
    for w in workers {
        samples.extend(w.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Snapshot the sliding window while the phase traffic is still inside
    // it — these are the p50/p99 a `/status` probe would see right now.
    let window = dader_bench::latency_window_snapshot();
    stop.store(true, Ordering::Relaxed);
    let scored = server_thread
        .join()
        .expect("server thread")
        .expect("server result");
    PhaseResult {
        samples,
        wall_s,
        scored,
        window,
    }
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// What the overload phase saw: the latency of every request that was
/// actually scored, plus how many were shed with a typed error.
struct OverloadOutcome {
    served_latencies: Vec<u64>,
    shed: usize,
    wall_s: f64,
}

/// Slam the event loop with far more pipelined requests than its bounded
/// queue admits and verify graceful degradation: every request is
/// answered exactly once — scored, or shed with a retryable
/// `overloaded`/`deadline_exceeded` error — and the requests that *are*
/// served keep their latency close to the at-capacity profile.
fn run_overload_phase(cfg: TcpServeConfig, clients: usize, requests: usize) -> OverloadOutcome {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind overload listener");
    let addr = listener.local_addr().expect("listener addr");
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let registry = Arc::new(ModelRegistry::new(bench_server()));
            serve_event_loop(registry, listener, cfg, stop)
        })
    };
    let barrier = Arc::new(Barrier::new(clients));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> (Vec<u64>, usize) {
                // No `timings` here: the overload clients only need the
                // latency stamp and the error code.
                let words = ["kodak esp", "hp laserjet", "canon pixma", "epson workforce"];
                let mut lines = String::new();
                for i in 0..requests {
                    let a = words[(c + i) % words.len()];
                    let b = words[(c + i + 1) % words.len()];
                    lines.push_str(&format!(
                        "{{\"id\": {i}, \"a\": {{\"title\": \"{a} {c}\"}}, \
                         \"b\": {{\"title\": \"{b}\"}}}}\n"
                    ));
                }
                barrier.wait();
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_nodelay(true).expect("set TCP_NODELAY");
                conn.write_all(lines.as_bytes()).expect("send requests");
                conn.shutdown(std::net::Shutdown::Write).expect("shutdown write");
                let mut served = Vec::new();
                let mut shed = 0usize;
                let mut answered = 0usize;
                for line in BufReader::new(conn).lines() {
                    let line = line.expect("read response");
                    let v: Value = serde_json::from_str(&line).expect("response JSON");
                    answered += 1;
                    if v.get("error").is_none() {
                        let latency = v
                            .get("latency_us")
                            .and_then(|x| x.as_i64())
                            .expect("latency_us on every response");
                        served.push(latency as u64);
                    } else {
                        let is_shed = matches!(
                            v.get("code"),
                            Some(Value::String(code))
                                if code == "overloaded" || code == "deadline_exceeded"
                        );
                        assert!(
                            is_shed,
                            "client {c}: only shed errors expected under overload, got {line}"
                        );
                        shed += 1;
                    }
                }
                assert_eq!(
                    answered, requests,
                    "client {c}: every request answered exactly once, shed or served"
                );
                (served, shed)
            })
        })
        .collect();
    let mut served_latencies = Vec::new();
    let mut shed = 0usize;
    for w in workers {
        let (served, s) = w.join().expect("overload client thread");
        served_latencies.extend(served);
        shed += s;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    server_thread
        .join()
        .expect("server thread")
        .expect("server result");
    OverloadOutcome {
        served_latencies,
        shed,
        wall_s,
    }
}

fn main() {
    dader_bench::init_cli();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients = positive(&args, "--clients", 64);
    let requests = positive(&args, "--requests", 25);
    let batch_size = positive(&args, "--batch-size", 32);
    let flush_us = positive(&args, "--flush-us", 1_000) as u64;
    let cfg = TcpServeConfig {
        limits: ServeLimits::default(),
        batch_size,
        // Every bench client must be admitted: the cap is not under test.
        max_conns: clients * 2,
        flush_us,
        // Roomy enough that the capacity phases never shed — the queue
        // bound gets its own dedicated overload phase below.
        max_queue: clients * requests + 16,
    };

    let occupancy = dader_obs::histogram(
        "serve_batch_occupancy",
        &dader_obs::metrics::BATCH_SIZE_BUCKETS,
    );
    let flush_counts = || -> Vec<(&'static str, u64)> {
        dader_obs::counter_labeled_values("serve_flush_reason_total")
    };

    let mut modes: Vec<(String, Value)> = Vec::new();
    let mut at_capacity_p99 = 0u64;
    for core in ["thread_per_conn", "event_loop"] {
        let occ_count0 = occupancy.count();
        let occ_sum0 = occupancy.sum();
        let flush0 = flush_counts();
        note!("serve_bench: {core}: {clients} clients x {requests} requests...");
        let phase = run_phase(core, cfg, clients, requests);
        assert_eq!(phase.scored, clients * requests, "{core}: scored total");
        let n = phase.samples.len();
        let sorted = |f: fn(&Sample) -> u64| -> Vec<u64> {
            let mut v: Vec<u64> = phase.samples.iter().map(f).collect();
            v.sort_unstable();
            v
        };
        let stage_entry = |sorted: &[u64]| -> Value {
            Value::Object(vec![
                (
                    "p50_us".to_string(),
                    Value::Int(exact_quantile(sorted, 0.50) as i64),
                ),
                (
                    "p99_us".to_string(),
                    Value::Int(exact_quantile(sorted, 0.99) as i64),
                ),
                (
                    "mean_us".to_string(),
                    Value::Number(sorted.iter().sum::<u64>() as f64 / n as f64),
                ),
            ])
        };
        let latencies = sorted(|s| s.latency_us);
        let queue = sorted(|s| s.queue_us);
        let infer = sorted(|s| s.infer_us);
        let p50 = exact_quantile(&latencies, 0.50);
        let p99 = exact_quantile(&latencies, 0.99);
        let mean = latencies.iter().sum::<u64>() as f64 / n as f64;
        let rps = n as f64 / phase.wall_s.max(1e-9);
        let w = &phase.window;
        let mut entry = vec![
            ("requests".to_string(), Value::Int(n as i64)),
            ("p50_us".to_string(), Value::Int(p50 as i64)),
            ("p99_us".to_string(), Value::Int(p99 as i64)),
            ("mean_us".to_string(), Value::Number(mean)),
            ("wall_s".to_string(), Value::Number(phase.wall_s)),
            ("requests_per_second".to_string(), Value::Number(rps)),
            // Queue-wait vs compute: where the latency budget actually went.
            ("queue_wait".to_string(), stage_entry(&queue)),
            ("compute".to_string(), stage_entry(&infer)),
            (
                "window".to_string(),
                Value::Object(vec![
                    ("count".to_string(), Value::Int(w.count as i64)),
                    ("rate".to_string(), Value::Number(w.rate)),
                    (
                        "p50_us".to_string(),
                        w.p50.map(Value::Number).unwrap_or(Value::Null),
                    ),
                    (
                        "p99_us".to_string(),
                        w.p99.map(Value::Number).unwrap_or(Value::Null),
                    ),
                ]),
            ),
        ];
        if core == "event_loop" {
            at_capacity_p99 = p99;
            let batches = occupancy.count() - occ_count0;
            let pooled = occupancy.sum() - occ_sum0;
            let occ_mean = pooled / (batches as f64).max(1.0);
            let reasons: Vec<(String, Value)> = flush_counts()
                .into_iter()
                .map(|(reason, total)| {
                    let before = flush0
                        .iter()
                        .find(|(r, _)| *r == reason)
                        .map(|(_, c)| *c)
                        .unwrap_or(0);
                    (reason.to_string(), Value::Int((total - before) as i64))
                })
                .collect();
            entry.push(("batches".to_string(), Value::Int(batches as i64)));
            entry.push(("batch_occupancy_mean".to_string(), Value::Number(occ_mean)));
            entry.push(("flush_reasons".to_string(), Value::Object(reasons)));
            note!(
                "serve_bench: {core}: p50 {p50}us p99 {p99}us, {rps:.0} req/s, occupancy {occ_mean:.1} ({batches} batches)"
            );
            assert!(
                occ_mean > 1.0,
                "cross-connection batching must pool requests (occupancy {occ_mean:.2})"
            );
        } else {
            note!("serve_bench: {core}: p50 {p50}us p99 {p99}us, {rps:.0} req/s");
        }
        modes.push((core.to_string(), Value::Object(entry)));
    }

    // Overload phase: a handful of clients each pipeline their whole
    // corpus at once against a queue bounded at two batches — sustained
    // offered load several times what the queue admits. The contract
    // under test: nothing is lost (every request shed or served), the
    // shed come back instantly with retryable errors, and the served keep
    // an at-capacity latency profile.
    let overload_clients = 8usize;
    let overload_requests = 64usize;
    let overload_queue = (batch_size * 2).max(8);
    let overload_cfg = TcpServeConfig {
        limits: ServeLimits::default(),
        batch_size,
        max_conns: overload_clients * 2,
        flush_us,
        max_queue: overload_queue,
    };
    note!(
        "serve_bench: overload: {overload_clients} clients x {overload_requests} requests, queue {overload_queue}..."
    );
    let overload = run_overload_phase(overload_cfg, overload_clients, overload_requests);
    let offered = overload_clients * overload_requests;
    let served = overload.served_latencies.len();
    assert_eq!(
        served + overload.shed,
        offered,
        "overload: every request must be served or shed"
    );
    assert!(served > 0, "overload: some requests must still be served");
    let mut served_sorted = overload.served_latencies.clone();
    served_sorted.sort_unstable();
    let served_p99 = exact_quantile(&served_sorted, 0.99);
    let shed_rate = overload.shed as f64 / offered as f64;
    let goodput_rps = served as f64 / overload.wall_s.max(1e-9);
    note!(
        "serve_bench: overload: {served}/{offered} served (shed rate {:.2}), served p99 {served_p99}us (at capacity {at_capacity_p99}us), goodput {goodput_rps:.0} req/s",
        shed_rate
    );
    let overload_entry = Value::Object(vec![
        ("offered".to_string(), Value::Int(offered as i64)),
        ("served".to_string(), Value::Int(served as i64)),
        ("shed".to_string(), Value::Int(overload.shed as i64)),
        ("shed_rate".to_string(), Value::Number(shed_rate)),
        ("goodput_rps".to_string(), Value::Number(goodput_rps)),
        ("served_p99_us".to_string(), Value::Int(served_p99 as i64)),
        (
            "at_capacity_p99_us".to_string(),
            Value::Int(at_capacity_p99 as i64),
        ),
        ("max_queue".to_string(), Value::Int(overload_queue as i64)),
        ("wall_s".to_string(), Value::Number(overload.wall_s)),
    ]);

    let report = Value::Object(vec![
        ("name".to_string(), Value::String("serve".to_string())),
        ("clients".to_string(), Value::Int(clients as i64)),
        (
            "requests_per_client".to_string(),
            Value::Int(requests as i64),
        ),
        ("batch_size".to_string(), Value::Int(batch_size as i64)),
        ("flush_us".to_string(), Value::Int(flush_us as i64)),
        ("modes".to_string(), Value::Object(modes)),
        ("overload".to_string(), overload_entry),
    ]);
    dader_bench::write_json("BENCH_serve", &report);
    println!("serve_bench: wrote results/BENCH_serve.json");
}
