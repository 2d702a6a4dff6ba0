//! Integration tests for the nonblocking serving core: the
//! non-reading-client regression (a reject must never stall accepts),
//! response identity between a TCP connection and the piped-stream
//! entry point, hot artifact reload, and a property test that
//! cross-connection batching cannot change predictions.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dader_bench::{
    serve_event_loop, serve_stream, MatchServer, ModelRegistry, ServeLimits, TcpServeConfig,
};
use dader_core::artifact::ModelArtifact;
use dader_core::{DaderModel, InferenceModel, LmExtractor, Matcher};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

const WORDS: [&str; 8] = [
    "kodak", "esp", "printer", "hp", "laserjet", "canon", "pixma", "wireless",
];

fn tiny_model(seed: u64) -> (DaderModel, PairEncoder) {
    let vocab = Vocab::build(WORDS, 1, 100);
    let encoder = PairEncoder::new(vocab.clone(), 24);
    let mut rng = StdRng::seed_from_u64(seed);
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
    (model, encoder)
}

fn tiny_server(seed: u64) -> MatchServer {
    let (model, encoder) = tiny_model(seed);
    MatchServer::new(model, encoder, format!("event loop test {seed}"))
}

/// Short timeouts so a regression fails the test instead of hanging it.
fn fast_cfg() -> TcpServeConfig {
    TcpServeConfig {
        limits: ServeLimits {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            ..ServeLimits::default()
        },
        batch_size: 8,
        max_conns: 64,
        flush_us: 500,
        ..TcpServeConfig::default()
    }
}

type ServerHandle = std::thread::JoinHandle<std::io::Result<usize>>;

fn start(cfg: TcpServeConfig) -> (std::net::SocketAddr, Arc<AtomicBool>, ServerHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        let registry = Arc::new(ModelRegistry::new(tiny_server(3)));
        std::thread::spawn(move || serve_event_loop(registry, listener, cfg, stop))
    };
    (addr, stop, handle)
}

/// Serve `input` as one piped stream through [`serve_stream`] on a
/// seed-3 server; returns the response lines.
fn serve_piped(input: &str, cfg: TcpServeConfig) -> Vec<String> {
    let registry = Arc::new(ModelRegistry::new(tiny_server(3)));
    let mut out = Vec::new();
    let input = std::io::Cursor::new(input.to_string());
    serve_stream(registry, input, &mut out, cfg).unwrap();
    String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    // A stalled server fails reads fast instead of hanging the suite.
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn
}

fn pair_line(i: usize) -> String {
    let a = WORDS[i % WORDS.len()];
    let b = WORDS[(i + 3) % WORDS.len()];
    format!("{{\"id\": {i}, \"a\": {{\"title\": \"{a} {b}\"}}, \"b\": {{\"title\": \"{b}\"}}}}\n")
}

/// The headline regression: clients that connect at the connection cap
/// and never read their socket must not stall the accept path — rejects
/// are never blocking writes.
#[test]
fn non_reading_clients_at_cap_do_not_stall_accepts() {
    let cfg = TcpServeConfig {
        max_conns: 1,
        batch_size: 1,
        ..fast_cfg()
    };
    let (addr, stop, handle) = start(cfg);

    // Occupy the single serving slot and keep it demonstrably live.
    let mut holder = connect(addr);
    holder.write_all(pair_line(0).as_bytes()).unwrap();
    let mut holder_reader = BufReader::new(holder.try_clone().unwrap());
    let mut line = String::new();
    holder_reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"match\""), "scored response, got {line}");

    // A pile of over-cap clients that never read a byte. Before the
    // fix, the first of these wedged the accept thread inside a
    // blocking `overloaded` write with no timeout applied.
    let silent: Vec<TcpStream> = (0..8).map(|_| connect(addr)).collect();

    // The accept path must still answer a client that DOES read: it
    // gets the typed reject promptly, not a stall behind the silent
    // pile.
    let reject_probe = connect(addr);
    let mut probe_reader = BufReader::new(reject_probe);
    let mut rej = String::new();
    probe_reader.read_line(&mut rej).unwrap();
    let v: Value = serde_json::from_str(rej.trim()).unwrap();
    assert_eq!(
        v.get("code").unwrap(),
        &Value::String("overloaded".into()),
        "{rej}"
    );
    assert_eq!(v.get("retryable").unwrap(), &Value::Bool(true));

    // And the slot still serves: the holder scores another pair.
    holder.write_all(pair_line(1).as_bytes()).unwrap();
    let mut line2 = String::new();
    holder_reader.read_line(&mut line2).unwrap();
    assert!(line2.contains("\"match\""), "held connection still served");

    drop(silent);
    drop(holder_reader);
    drop(holder);
    stop.store(true, Ordering::Relaxed);
    let scored = handle.join().unwrap().unwrap();
    assert_eq!(scored, 2, "both held-connection requests scored");
}

/// Strip the per-run envelope (rid, latency, model version) so payloads
/// can be compared across serving paths.
fn stable(line: &str) -> Value {
    let v: Value = serde_json::from_str(line).unwrap();
    let kvs = v
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "rid" | "latency_us" | "version"))
        .cloned()
        .collect();
    Value::Object(kvs)
}

/// One TCP connection answers exactly like the same stream piped through
/// [`serve_stream`]: same bodies, same order, same error objects,
/// bitwise-equal probabilities — for a stream mixing valid pairs,
/// malformed lines, and a whole-table request.
#[test]
fn event_loop_responses_match_stdin_serving() {
    let mut input = String::new();
    for i in 0..12 {
        input.push_str(&pair_line(i));
    }
    input.push_str("this is not json\n");
    input.push_str("{\"a\": \"nope\", \"b\": {\"title\": \"x\"}}\n");
    input.push_str(concat!(
        "{\"mode\": \"match_table\", ",
        "\"left\": [{\"title\": \"kodak esp printer\"}, {\"title\": \"hp laserjet\"}], ",
        "\"right\": [{\"title\": \"hp laserjet printer\"}, {\"title\": \"kodak esp\"}], ",
        "\"blocker\": \"topk\", \"k\": 2, \"threshold\": 0.0}\n",
    ));
    input.push_str(&pair_line(12));

    // Reference: the piped stream on an identically seeded server.
    let expected: Vec<Value> = serve_piped(&input, fast_cfg())
        .iter()
        .map(|l| stable(l))
        .collect();

    let (addr, stop, handle) = start(fast_cfg());
    let mut conn = connect(addr);
    conn.write_all(input.as_bytes()).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let got: Vec<Value> = BufReader::new(conn)
        .lines()
        .map(|l| stable(&l.unwrap()))
        .collect();
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();

    assert_eq!(got.len(), expected.len(), "one response per request line");
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "response {i} differs between serving paths");
    }
}

/// Every response names the model that scored it, and rids strictly
/// increase within the connection no matter how batches interleave.
#[test]
fn event_loop_stamps_version_and_monotone_rids() {
    let (addr, stop, handle) = start(fast_cfg());
    let mut conn = connect(addr);
    let mut input = String::new();
    for i in 0..20 {
        input.push_str(&pair_line(i));
    }
    conn.write_all(input.as_bytes()).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut rids = Vec::new();
    for line in BufReader::new(conn).lines() {
        let v: Value = serde_json::from_str(&line.unwrap()).unwrap();
        assert_eq!(
            v.get("version").unwrap(),
            &Value::String("v1".into()),
            "responses name the serving model version"
        );
        rids.push(v.get("rid").unwrap().as_i64().unwrap());
    }
    assert_eq!(rids.len(), 20);
    assert!(
        rids.windows(2).all(|w| w[1] > w[0]),
        "rids must strictly increase within a connection: {rids:?}"
    );
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

/// Hot reload: the artifact swap drops zero requests, the `version` tag
/// flips exactly at the swap, and scoring continues on the new weights.
#[test]
fn hot_reload_swaps_version_with_zero_dropped_requests() {
    let dir = std::env::temp_dir();
    let p1 = dir.join(format!("dader_reload_{}_v1.dma", std::process::id()));
    let p2 = dir.join(format!("dader_reload_{}_v2.dma", std::process::id()));
    for (path, seed) in [(&p1, 11u64), (&p2, 22u64)] {
        let (model, encoder) = tiny_model(seed);
        ModelArtifact::capture(format!("reload test {seed}"), &model, &encoder)
            .save_file(path)
            .unwrap();
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(ModelRegistry::from_artifact_file(&p1).unwrap());
    let handle = {
        let stop = Arc::clone(&stop);
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || serve_event_loop(registry, listener, fast_cfg(), stop))
    };

    // Phase 1 (closed loop): responses are scored by v1.
    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let read_json = |reader: &mut BufReader<TcpStream>| -> Value {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(line.trim()).unwrap()
    };
    let mut v1_probs = Vec::new();
    for i in 0..3 {
        conn.write_all(pair_line(i).as_bytes()).unwrap();
        let v = read_json(&mut reader);
        assert_eq!(v.get("version").unwrap(), &Value::String("v1".into()));
        v1_probs.push(v.get("probability").unwrap().as_f64().unwrap());
    }

    // The swap, requested on the wire.
    conn.write_all(
        format!("{{\"mode\": \"reload\", \"artifact\": \"{}\"}}\n", p2.display()).as_bytes(),
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("reloaded").unwrap(), &Value::Bool(true), "{v:?}");
    assert_eq!(v.get("version").unwrap(), &Value::String("v2".into()));
    assert_eq!(registry.version(), "v2");

    // Phase 2: same requests now score on the new weights, tagged v2.
    for (i, old_prob) in v1_probs.iter().enumerate() {
        conn.write_all(pair_line(i).as_bytes()).unwrap();
        let v = read_json(&mut reader);
        assert_eq!(v.get("version").unwrap(), &Value::String("v2".into()));
        let new_prob = v.get("probability").unwrap().as_f64().unwrap();
        assert_ne!(
            new_prob, *old_prob,
            "request {i}: differently seeded weights must score differently"
        );
    }

    // Phase 3 (zero-drop): a pipelined flood with a reload sandwiched in
    // the middle — every single request gets exactly one response, in
    // order, each tagged with a registry version.
    let mut flood = String::new();
    for i in 0..25 {
        flood.push_str(&pair_line(i));
    }
    flood.push_str(&format!(
        "{{\"mode\": \"reload\", \"artifact\": \"{}\"}}\n",
        p1.display()
    ));
    for i in 25..50 {
        flood.push_str(&pair_line(i));
    }
    conn.write_all(flood.as_bytes()).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let responses: Vec<Value> = reader
        .lines()
        .map(|l| serde_json::from_str(&l.unwrap()).unwrap())
        .collect();
    assert_eq!(responses.len(), 51, "50 requests + 1 reload, zero dropped");
    let mut ids = Vec::new();
    for v in &responses {
        let version = v.get("version").unwrap();
        assert!(
            version == &Value::String("v2".into()) || version == &Value::String("v3".into()),
            "{v:?}"
        );
        if let Some(id) = v.get("id") {
            ids.push(id.as_i64().unwrap());
        }
    }
    assert_eq!(ids, (0..50).collect::<Vec<i64>>(), "in order, none dropped");
    assert_eq!(registry.version(), "v3");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}

/// A client that asks for `"timings": true` gets the stage breakdown on
/// every response, and the stage clocks nest inside the end-to-end clock.
#[test]
fn event_loop_timings_nest_inside_latency() {
    let (addr, stop, handle) = start(fast_cfg());
    let mut conn = connect(addr);
    let mut input = String::new();
    for i in 0..10 {
        let a = WORDS[i % WORDS.len()];
        input.push_str(&format!(
            "{{\"id\": {i}, \"a\": {{\"title\": \"{a}\"}}, \"b\": {{\"title\": \"{a}\"}}, \
             \"timings\": true}}\n"
        ));
    }
    input.push_str(&pair_line(99)); // no flag: no timings
    conn.write_all(input.as_bytes()).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let responses: Vec<Value> = BufReader::new(conn)
        .lines()
        .map(|l| serde_json::from_str(&l.unwrap()).unwrap())
        .collect();
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();

    assert_eq!(responses.len(), 11);
    for v in &responses[..10] {
        let t = v.get("timings").expect("timings were requested");
        let us = |k: &str| -> f64 {
            t.get(k)
                .unwrap_or_else(|| panic!("missing {k}: {t:?}"))
                .as_f64()
                .unwrap()
        };
        let latency = v.get("latency_us").unwrap().as_f64().unwrap();
        assert!(
            us("queue_us") + us("infer_us") <= latency,
            "queue {} + infer {} must nest inside latency {latency}: {v:?}",
            us("queue_us"),
            us("infer_us"),
        );
        assert!(us("batch_wait_us") >= 0.0 && us("write_us") >= 0.0);
    }
    assert!(
        responses[10].get("timings").is_none(),
        "no timings unless asked: {:?}",
        responses[10]
    );
}

/// The flush is work-conserving: with the scorer idle, a lone request is
/// dispatched at once rather than held for `flush_us` in the hope that a
/// batch fills.
#[test]
fn idle_server_answers_before_the_flush_deadline() {
    let cfg = TcpServeConfig {
        flush_us: 200_000,
        ..fast_cfg()
    };
    let (addr, stop, handle) = start(cfg);
    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for i in 0..3 {
        let sent = std::time::Instant::now();
        conn.write_all(pair_line(i).as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let waited = sent.elapsed();
        assert!(line.contains("\"match\""), "scored response, got {line}");
        assert!(
            waited < Duration::from_millis(100),
            "request {i} held {waited:?} by a 200 ms flush deadline on an idle server"
        );
    }
    drop(reader);
    drop(conn);
    stop.store(true, Ordering::Relaxed);
    assert_eq!(handle.join().unwrap().unwrap(), 3);
}

/// An output nobody reads. Its first write waits until the input count
/// has stood still for half a second, then fails like a closed stdout:
/// `BrokenPipe` if the input stopped, `TimedOut` if it still flowed
/// after 20 s.
struct StalledOutput(Arc<AtomicUsize>);

impl Write for StalledOutput {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        let (mut last, mut still) = (usize::MAX, 0);
        for _ in 0..80 {
            std::thread::sleep(Duration::from_millis(250));
            let fed = self.0.load(Ordering::Relaxed);
            still = if fed == last { still + 1 } else { 0 };
            if still == 2 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            last = fed;
        }
        Err(std::io::ErrorKind::TimedOut.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Request lines without end, one per read, counting the bytes handed out.
struct Endless(Arc<AtomicUsize>);

impl Read for Endless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let line = pair_line(0);
        let n = buf.len().min(line.len());
        buf[..n].copy_from_slice(&line.as_bytes()[..n]);
        self.0.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }
}

/// A piped stream whose answers nobody reads stops taking input, so the
/// server's memory stays bounded; the failed output then ends the stream
/// with its error.
#[test]
fn stalled_output_pauses_a_piped_stream() {
    let fed = Arc::new(AtomicUsize::new(0));
    let input = Endless(Arc::clone(&fed));
    let registry = Arc::new(ModelRegistry::new(tiny_server(3)));
    let err = serve_stream(registry, input, StalledOutput(fed), fast_cfg()).unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::BrokenPipe,
        "input kept flowing while no answer could be written"
    );
}

/// CPU time the thread `tid` of this process has used so far.
#[cfg(target_os = "linux")]
fn thread_cpu(tid: &str) -> Duration {
    let task = format!("/proc/self/task/{tid}");
    // schedstat's first field is nanoseconds on CPU; stat's utime and
    // stime (fields 14 and 15) count 10 ms clock ticks.
    if let Some(ns) = std::fs::read_to_string(format!("{task}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
    {
        return Duration::from_nanos(ns);
    }
    let stat = std::fs::read_to_string(format!("{task}/stat")).unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().unwrap())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// An idle event loop blocks in `ppoll` instead of ticking: over one idle
/// second, with a connected client that sends nothing, the poller thread
/// uses almost no CPU.
#[cfg(target_os = "linux")]
#[test]
fn idle_event_loop_uses_almost_no_cpu() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // "/proc/thread-self" links to "<pid>/task/<tid>".
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            let tid = link.file_name().unwrap().to_string_lossy().into_owned();
            tid_tx.send(tid).unwrap();
            serve_event_loop(
                Arc::new(ModelRegistry::new(tiny_server(3))),
                listener,
                fast_cfg(),
                stop,
            )
        })
    };
    let tid = tid_rx.recv().unwrap();
    let idle_client = connect(addr);
    std::thread::sleep(Duration::from_millis(200));
    let before = thread_cpu(&tid);
    std::thread::sleep(Duration::from_secs(1));
    let used = thread_cpu(&tid) - before;
    drop(idle_client);
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    assert!(
        used < Duration::from_millis(5),
        "idle poller used {used:?} of CPU in one second"
    );
}

// ---------------------------------------------------------------------
// Property: pooling requests across connections is invisible in the
// results — every client gets bitwise the responses its stream gets when
// served alone, unbatched, and bitwise the probabilities of the
// in-process `InferenceModel::predict_pairs`, regardless of how the
// requests interleave into shared batches. With tracing armed, every
// response's rid must also own a complete, monotonically ordered set of
// stage spans in the trace ring.
// ---------------------------------------------------------------------

/// The seed-3 model outside any serving code.
static REFERENCE: OnceLock<(InferenceModel, PairEncoder)> = OnceLock::new();

fn title() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(WORDS.to_vec()), 1..4)
        .prop_map(|w| w.join(" "))
}

/// Assert that each rid in `rids` owns a complete request-stage span set
/// (parse → queue → dispatch → infer → write) in `events`, with stage
/// starts in pipeline order and each stage starting no earlier than the
/// previous one ended (1µs slack: `ts` and `dur` truncate independently).
fn assert_complete_monotone_spans(events: &[dader_obs::trace::TraceEvent], rids: &[u64]) {
    use dader_obs::trace::Stage;
    for &rid in rids {
        let spans: Vec<_> = events.iter().filter(|e| e.rid == rid).collect();
        let mut ordered = Vec::new();
        for stage in Stage::REQUEST_STAGES {
            let matching: Vec<_> = spans.iter().filter(|e| e.stage == stage).collect();
            assert_eq!(
                matching.len(),
                1,
                "rid {rid}: stage {} must appear exactly once, got {}",
                stage.as_str(),
                matching.len()
            );
            ordered.push(*matching[0]);
        }
        for pair in ordered.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            assert!(
                next.ts_us >= prev.ts_us,
                "rid {rid}: {} starts before {}",
                next.stage.as_str(),
                prev.stage.as_str()
            );
            assert!(
                next.ts_us + 1 >= prev.ts_us + prev.dur_us,
                "rid {rid}: {} (ts {}) starts before {} ended (ts {} + dur {})",
                next.stage.as_str(),
                next.ts_us,
                prev.stage.as_str(),
                prev.ts_us,
                prev.dur_us
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cross_connection_batching_is_bitwise_identical_to_per_connection(
        titles in proptest::collection::vec((title(), title()), 1..40),
        conns in 1usize..5,
        batch_size in 1usize..10,
    ) {

        // Arm tracing (sample every request) so the batching property also
        // proves stage-span completeness. Other tests in this binary may
        // record events concurrently; filtering by rid isolates this run.
        dader_obs::trace::configure(1, 1 << 16);

        // Distribute the requests round-robin over the connections.
        let mut streams: Vec<String> = vec![String::new(); conns];
        for (i, (a, b)) in titles.iter().enumerate() {
            streams[i % conns].push_str(&format!(
                "{{\"id\": {i}, \"a\": {{\"title\": {a:?}}}, \"b\": {{\"title\": {b:?}}}}}\n"
            ));
        }

        // Reference: each stream served alone — one connection, batch
        // size 1, so nothing is pooled.
        let alone = TcpServeConfig { batch_size: 1, ..fast_cfg() };
        let expected: Vec<Vec<Value>> = streams
            .iter()
            .map(|s| serve_piped(s, alone).iter().map(|l| stable(l)).collect())
            .collect();

        // Same streams, concurrently, through one event loop (same seed,
        // same batch width) — so batches pool across the connections.
        let cfg = TcpServeConfig { batch_size, ..fast_cfg() };
        let (addr, stop, handle) = start(cfg);
        let clients: Vec<_> = streams
            .iter()
            .map(|s| {
                let s = s.clone();
                std::thread::spawn(move || -> Vec<String> {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    conn.write_all(s.as_bytes()).unwrap();
                    conn.shutdown(Shutdown::Write).unwrap();
                    BufReader::new(conn).lines().map(|l| l.unwrap()).collect()
                })
            })
            .collect();
        let raw: Vec<Vec<String>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap().unwrap();

        for (c, (lines, e)) in raw.iter().zip(&expected).enumerate() {
            let g: Vec<Value> = lines.iter().map(|l| stable(l)).collect();
            prop_assert_eq!(&g, e, "connection {} diverged from per-connection serving", c);
        }

        // And every answer is bitwise the library's own prediction.
        let (model, encoder) = REFERENCE.get_or_init(|| {
            let (model, encoder) = tiny_model(3);
            (InferenceModel::from_model(&model), encoder)
        });
        let pairs: Vec<dader_core::EntityPair> = titles
            .iter()
            .map(|(a, b)| {
                (
                    vec![("title".to_string(), a.clone())],
                    vec![("title".to_string(), b.clone())],
                )
            })
            .collect();
        let preds = model.predict_pairs(&pairs, encoder, 1);
        for line in raw.iter().flatten() {
            let v: Value = serde_json::from_str(line).unwrap();
            let i = v.get("id").unwrap().as_i64().unwrap() as usize;
            let (label, prob) = preds[i];
            prop_assert_eq!(v.get("probability").unwrap().as_f64(), Some(prob as f64));
            prop_assert_eq!(v.get("match"), Some(&Value::Bool(label == 1)));
        }

        // Every response's rid owns a complete, ordered stage-span set.
        let rids: Vec<u64> = raw
            .iter()
            .flatten()
            .map(|l| {
                let v: Value = serde_json::from_str(l).unwrap();
                v.get("rid").unwrap().as_i64().unwrap() as u64
            })
            .collect();
        let events = dader_obs::trace::take();
        assert_complete_monotone_spans(&events, &rids);
    }
}
