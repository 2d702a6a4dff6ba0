//! Streaming-ER index benchmark: how much faster is reopening a persisted
//! `IndexArtifact` than rebuilding the blocker from CSV, how fast do
//! incremental upserts land, and what `match_record` latency does the
//! event loop hold at high client concurrency.
//!
//! ```text
//! cargo run --release -p dader-bench --bin index_bench
//!     [-- --records N] [--clients N] [--requests N] [--k N]
//!     [--batch-size N] [--flush-us N]
//! ```
//!
//! Three phases over one deterministic synthetic product corpus:
//!
//! 1. **rebuild vs load** — for each blocker kind (`topk`, `lsh`): time
//!    `parse_csv` + `StreamingIndex::build` (the cold path every restart
//!    pays without an artifact), save the `.ddri`, then time
//!    `StreamingIndex::load_file`. Best-of-`reps` each; the artifact's
//!    point is `speedup = rebuild / load` (the LSH load must be ≥10×,
//!    asserted here and gated again by the verify jq check).
//! 2. **upserts** — stream fresh records into the loaded LSH index and
//!    report upserts/second (the mutable path serving `index_upsert`).
//! 3. **serve** — boot the real event loop with the `.ddri` loaded,
//!    slam it with `--clients` concurrent pipelining `match_record`
//!    clients, and report server-stamped p50/p99/mean latency.
//!
//! Results land in `results/BENCH_index.json`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dader_bench::{note, serve_event_loop, MatchServer, ModelRegistry, ServeLimits, TcpServeConfig};
use dader_block::{StreamKind, StreamingIndex};
use dader_core::{DaderModel, LmExtractor, Matcher};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

const BRANDS: [&str; 8] = [
    "kodak", "hp", "canon", "epson", "sony", "brother", "lexmark", "xerox",
];
const LINES: [&str; 8] = [
    "esp", "laserjet", "pixma", "workforce", "bravia", "deskjet", "officejet", "imageclass",
];
const SUFFIXES: [&str; 6] = ["printer", "inkjet", "wireless", "office", "photo", "duplex"];

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

fn positive(args: &[String], key: &str, default: usize) -> usize {
    match arg_value(args, key) {
        Some(s) => s.parse::<usize>().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("index_bench: {key} must be a positive integer, got {s:?}");
            std::process::exit(1);
        }),
        None => default,
    }
}

/// One deterministic synthetic product title — enough distinct tokens
/// that blocking has real work to do, enough overlap that queries hit.
fn title(i: usize) -> String {
    format!(
        "{} {} {} {} model {}",
        BRANDS[i % BRANDS.len()],
        LINES[(i / 3) % LINES.len()],
        SUFFIXES[(i / 7) % SUFFIXES.len()],
        SUFFIXES[(i / 11 + 2) % SUFFIXES.len()],
        1000 + i
    )
}

/// A marketing-copy description (~20 tokens) — deduplication corpora
/// carry paragraph-sized attributes, and the blocker cost scales with
/// them, so the rebuild-vs-load comparison must too.
fn description(i: usize) -> String {
    let mut words = Vec::with_capacity(20);
    for w in 0..20 {
        let pick = i * 7 + w * 13;
        words.push(match pick % 3 {
            0 => BRANDS[pick % BRANDS.len()],
            1 => LINES[pick % LINES.len()],
            _ => SUFFIXES[pick % SUFFIXES.len()],
        });
    }
    words.join(" ")
}

/// The corpus as CSV text — the cold rebuild path parses exactly this.
fn corpus_csv(records: usize) -> String {
    let mut csv = String::from("id,title,description\n");
    for i in 0..records {
        csv.push_str(&format!("r{i},{},{}\n", title(i), description(i)));
    }
    csv
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Best-of-`reps` wall time of `f` (the artifact claim is about the
/// achievable cost, not scheduler noise on a shared box).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// A tiny fixed-seed model: the serve phase measures the index +
/// batching path, not model quality.
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
    MatchServer::new(model, encoder, "index_bench")
}

/// Boot the event loop with the `.ddri` loaded and run `clients`
/// concurrent pipelining `match_record` clients against it.
fn run_serve_phase(
    index_path: &std::path::Path,
    clients: usize,
    requests: usize,
    k: usize,
    batch_size: usize,
    flush_us: u64,
) -> (Vec<u64>, f64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind bench listener");
    let addr = listener.local_addr().expect("listener addr");
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(ModelRegistry::new(bench_server()));
    let stats = registry
        .load_index_file(index_path)
        .expect("load benchmark index");
    note!(
        "index_bench: serving {} index ({} records, generation {})",
        stats.kind,
        stats.records,
        stats.generation
    );
    let cfg = TcpServeConfig {
        limits: ServeLimits::default(),
        batch_size,
        max_conns: clients * 2,
        flush_us,
        max_queue: clients * requests + 16,
    };
    let server_thread = {
        let stop = Arc::clone(&stop);
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || serve_event_loop(registry, listener, cfg, stop))
    };

    let barrier = Arc::new(Barrier::new(clients));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Vec<u64> {
                // Closed loop: one request in flight per client, so the
                // percentiles describe per-request latency at concurrency
                // `clients`, not the drain time of a pipelined backlog.
                barrier.wait();
                let mut conn = TcpStream::connect(addr).expect("connect");
                conn.set_nodelay(true).expect("set TCP_NODELAY");
                let mut reader = BufReader::new(conn.try_clone().expect("clone conn"));
                let mut latencies = Vec::with_capacity(requests);
                for i in 0..requests {
                    // Queries are corpus titles, so candidates exist.
                    let req = format!(
                        "{{\"mode\": \"match_record\", \"id\": {i}, \
                         \"record\": {{\"title\": \"{}\"}}, \"k\": {k}}}\n",
                        title((c * 31 + i * 7) % 4096)
                    );
                    conn.write_all(req.as_bytes()).expect("send request");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read response");
                    let v: Value = serde_json::from_str(line.trim()).expect("response JSON");
                    assert!(
                        v.get("error").is_none(),
                        "client {c}: unexpected error response: {line}"
                    );
                    assert!(
                        matches!(v.get("matches"), Some(Value::Array(_))),
                        "client {c}: match_record responses carry a matches array: {line}"
                    );
                    let latency = v
                        .get("latency_us")
                        .and_then(|x| x.as_i64())
                        .expect("latency_us on every response");
                    latencies.push(latency as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * requests);
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    server_thread
        .join()
        .expect("server thread")
        .expect("server result");
    (latencies, wall_s)
}

fn main() {
    dader_bench::init_cli();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = positive(&args, "--records", 4096);
    let clients = positive(&args, "--clients", 64);
    let requests = positive(&args, "--requests", 10);
    let k = positive(&args, "--k", 10);
    let batch_size = positive(&args, "--batch-size", 32);
    let flush_us = positive(&args, "--flush-us", 1_000) as u64;
    let reps = 3usize;

    let csv = corpus_csv(records);
    let tmp = std::env::temp_dir();
    let pid = std::process::id();

    // Phase 1: cold CSV rebuild vs artifact load, per blocker kind.
    let mut kinds: Vec<(String, Value)> = Vec::new();
    let mut lsh_path = tmp.join(format!("index_bench_{pid}_lsh.ddri"));
    let mut lsh_speedup = 0.0f64;
    for name in ["topk", "lsh"] {
        let kind = StreamKind::parse(name).expect("bench kinds parse");
        let (rebuild_s, built) = best_of(reps, || {
            let table = dader_block::parse_csv(&csv).expect("bench corpus parses");
            StreamingIndex::build(kind, &table.rows)
        });
        let path = tmp.join(format!("index_bench_{pid}_{name}.ddri"));
        built.save_file(&path).expect("save bench index");
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let (load_s, loaded) =
            best_of(reps, || StreamingIndex::load_file(&path).expect("load bench index"));
        assert_eq!(loaded.len(), records, "{name}: load is a full round trip");
        let speedup = rebuild_s / load_s.max(1e-9);
        note!(
            "index_bench: {name}: rebuild {:.1}ms vs load {:.1}ms ({speedup:.1}x), {file_bytes} bytes",
            rebuild_s * 1e3,
            load_s * 1e3
        );
        if name == "lsh" {
            lsh_path = path.clone();
            lsh_speedup = speedup;
        }
        kinds.push((
            name.to_string(),
            Value::Object(vec![
                ("rebuild_s".to_string(), Value::Number(rebuild_s)),
                ("load_s".to_string(), Value::Number(load_s)),
                ("speedup".to_string(), Value::Number(speedup)),
                ("file_bytes".to_string(), Value::Int(file_bytes as i64)),
            ]),
        ));
    }
    assert!(
        lsh_speedup >= 10.0,
        "artifact load must beat the CSV rebuild 10x (got {lsh_speedup:.1}x) — \
         the persisted signatures exist to skip re-MinHashing"
    );

    // Phase 2: incremental upserts into the loaded LSH index.
    let mut idx = StreamingIndex::load_file(&lsh_path).expect("reload for upserts");
    let delta = (records / 8).max(64);
    let t0 = Instant::now();
    for i in 0..delta {
        idx.upsert(dader_datagen::Entity::new(
            format!("new{i}"),
            vec![
                ("title", title(records + i)),
                ("description", description(records + i)),
            ],
        ));
    }
    let upsert_s = t0.elapsed().as_secs_f64();
    let upserts_per_second = delta as f64 / upsert_s.max(1e-9);
    note!("index_bench: {delta} upserts in {:.1}ms ({upserts_per_second:.0}/s)", upsert_s * 1e3);

    // Phase 3: match_record under concurrent socket load.
    note!("index_bench: serve: {clients} clients x {requests} match_record requests...");
    let (mut latencies, wall_s) =
        run_serve_phase(&lsh_path, clients, requests, k, batch_size, flush_us);
    latencies.sort_unstable();
    let n = latencies.len();
    let p50 = exact_quantile(&latencies, 0.50);
    let p99 = exact_quantile(&latencies, 0.99);
    let mean = latencies.iter().sum::<u64>() as f64 / n as f64;
    let rps = n as f64 / wall_s.max(1e-9);
    note!("index_bench: serve: p50 {p50}us p99 {p99}us, {rps:.0} req/s");

    for name in ["topk", "lsh"] {
        let _ = std::fs::remove_file(tmp.join(format!("index_bench_{pid}_{name}.ddri")));
    }

    let report = Value::Object(vec![
        ("name".to_string(), Value::String("index".to_string())),
        ("records".to_string(), Value::Int(records as i64)),
        ("kinds".to_string(), Value::Object(kinds)),
        (
            "upserts".to_string(),
            Value::Object(vec![
                ("count".to_string(), Value::Int(delta as i64)),
                ("wall_s".to_string(), Value::Number(upsert_s)),
                ("per_second".to_string(), Value::Number(upserts_per_second)),
            ]),
        ),
        (
            "serve".to_string(),
            Value::Object(vec![
                ("clients".to_string(), Value::Int(clients as i64)),
                ("requests_per_client".to_string(), Value::Int(requests as i64)),
                ("k".to_string(), Value::Int(k as i64)),
                ("requests".to_string(), Value::Int(n as i64)),
                ("p50_us".to_string(), Value::Int(p50 as i64)),
                ("p99_us".to_string(), Value::Int(p99 as i64)),
                ("mean_us".to_string(), Value::Number(mean)),
                ("wall_s".to_string(), Value::Number(wall_s)),
                ("requests_per_second".to_string(), Value::Number(rps)),
            ]),
        ),
    ]);
    dader_bench::write_json("BENCH_index", &report);
    println!("index_bench: wrote results/BENCH_index.json");
}
