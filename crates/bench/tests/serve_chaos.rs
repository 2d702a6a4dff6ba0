//! Chaos harness for the serving stack: injected panics, write faults,
//! and worker kills against the live event loop, asserting the
//! overload-safety contract — **no request is ever lost**. Every request
//! gets exactly one response (scored, or a typed retryable error), rids
//! stay monotone per connection, the inference pool self-heals after a
//! panic, and the server still drains cleanly with faults armed.
//!
//! Faults come from `dader_obs::fault` (registry is process-global, so
//! every test holds `FAULT_LOCK` for its whole body). The serving
//! failpoints: `serve.parse` (typed `internal` response), `serve.infer`
//! (panic inside the forward pass — bisected to the poisoned request),
//! `serve.write` (I/O error on the response path — connection drops like
//! a real peer failure), `serve.worker` (kills the inference worker
//! between jobs — the event loop respawns it).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dader_bench::{
    serve_event_loop, serve_stream, MatchServer, ModelRegistry, ServeLimits, TcpServeConfig,
};
use dader_core::{DaderModel, LmExtractor, Matcher};
use dader_nn::TransformerConfig;
use dader_obs::fault::{self, FaultAction, FaultSpec};
use dader_text::{PairEncoder, Vocab};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

/// The fault registry is process-global; every test that arms it holds
/// this lock for its whole body.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

const WORDS: [&str; 8] = [
    "kodak", "esp", "printer", "hp", "laserjet", "canon", "pixma", "wireless",
];

fn tiny_server(seed: u64) -> MatchServer {
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
    MatchServer::new(model, encoder, format!("chaos test {seed}"))
}

fn fast_cfg() -> TcpServeConfig {
    TcpServeConfig {
        limits: ServeLimits {
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            ..ServeLimits::default()
        },
        batch_size: 8,
        max_conns: 64,
        flush_us: 500,
        ..TcpServeConfig::default()
    }
}

type ServerHandle = std::thread::JoinHandle<std::io::Result<usize>>;

/// Serve `input` as one piped stream through [`serve_stream`] on a seed-9
/// server; returns the response text.
fn serve_piped(input: &str, batch_size: usize) -> String {
    let registry = Arc::new(ModelRegistry::new(tiny_server(9)));
    let cfg = TcpServeConfig {
        batch_size,
        ..TcpServeConfig::default()
    };
    let mut out = Vec::new();
    let input = std::io::Cursor::new(input.to_string());
    serve_stream(registry, input, &mut out, cfg).unwrap();
    String::from_utf8(out).unwrap()
}

fn start_event_loop(cfg: TcpServeConfig) -> (std::net::SocketAddr, Arc<AtomicBool>, ServerHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            serve_event_loop(Arc::new(ModelRegistry::new(tiny_server(9))), listener, cfg, stop)
        })
    };
    (addr, stop, handle)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn
}

fn pair_line(client: usize, i: usize) -> String {
    let a = WORDS[(client + i) % WORDS.len()];
    let b = WORDS[(client + i + 3) % WORDS.len()];
    format!("{{\"id\": {i}, \"a\": {{\"title\": \"{a} {b} {client}\"}}, \"b\": {{\"title\": \"{b}\"}}}}\n")
}

fn rid_of(v: &Value) -> u64 {
    v.get("rid")
        .and_then(|x| x.as_i64())
        .expect("rid on every response") as u64
}

/// One stop-and-wait client riding out injected faults: every request is
/// resent (on a fresh connection if the old one died) until it gets its
/// one response. Returns (responses received, reconnects performed).
fn chaos_client(addr: std::net::SocketAddr, client: usize, requests: usize) -> (usize, usize) {
    let mut answered = 0usize;
    let mut reconnects = 0usize;
    let mut conn: Option<(TcpStream, BufReader<TcpStream>, Option<u64>)> = None;
    for i in 0..requests {
        let line = pair_line(client, i);
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(
                attempts <= 50,
                "client {client}: request {i} not answered after 50 attempts"
            );
            if conn.is_none() {
                let stream = connect(addr);
                let reader = BufReader::new(stream.try_clone().unwrap());
                // New connection, new rid baseline: monotonicity is a
                // per-connection contract.
                conn = Some((stream, reader, None));
            }
            let (stream, reader, last_rid) = conn.as_mut().unwrap();
            if stream.write_all(line.as_bytes()).is_err() {
                conn = None; // server dropped us (e.g. serve.write); retry
                reconnects += 1;
                continue;
            }
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(n) if n > 0 => {}
                _ => {
                    conn = None;
                    reconnects += 1;
                    continue;
                }
            }
            let Ok(v) = serde_json::from_str::<Value>(response.trim()) else {
                // Torn response from a mid-line drop: connection is done.
                conn = None;
                reconnects += 1;
                continue;
            };
            // Scored or typed error — either way, THE response for this
            // request. An injected infer panic surfaces as a retryable
            // `internal` error object, not a hang or a lost request.
            if v.get("error").is_some() {
                let retryable = matches!(v.get("retryable"), Some(Value::Bool(true)));
                assert!(
                    retryable,
                    "client {client}: fault-injected errors must be retryable: {response}"
                );
            } else {
                assert!(
                    v.get("match").is_some(),
                    "client {client}: unexpected response shape: {response}"
                );
            }
            let rid = rid_of(&v);
            if let Some(prev) = *last_rid {
                assert!(
                    rid > prev,
                    "client {client}: rid went backwards on one connection: {prev} -> {rid}"
                );
            }
            *last_rid = Some(rid);
            answered += 1;
            break;
        }
    }
    (answered, reconnects)
}

/// The acceptance gate: 32 concurrent clients x 200 requests each under
/// `serve.infer=panic@p0.05` + `serve.write=io_error@p0.02`. Every
/// request is answered exactly once, rids stay monotone per connection,
/// panics were actually injected (and contained), the pool comes back
/// clean once the faults clear, and the drain exits Ok.
#[test]
fn chaos_no_request_is_lost_under_injected_faults() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    fault::set_seed(7);
    fault::arm("serve.infer", FaultSpec::with_probability(FaultAction::Panic, 0.05));
    fault::arm(
        "serve.write",
        FaultSpec::with_probability(FaultAction::IoError, 0.02),
    );
    let panics_before = dader_obs::counter("serve_worker_panics_total").get();

    let (addr, stop, handle) = start_event_loop(fast_cfg());
    let clients = 32usize;
    let requests = 200usize;
    let workers: Vec<_> = (0..clients)
        .map(|c| std::thread::spawn(move || chaos_client(addr, c, requests)))
        .collect();
    let mut total_answered = 0usize;
    let mut total_reconnects = 0usize;
    for w in workers {
        let (answered, reconnects) = w.join().expect("chaos client thread");
        total_answered += answered;
        total_reconnects += reconnects;
    }
    assert_eq!(
        total_answered,
        clients * requests,
        "every request answered exactly once"
    );
    let panics = dader_obs::counter("serve_worker_panics_total").get() - panics_before;
    assert!(panics > 0, "the chaos run must actually inject panics");
    eprintln!(
        "chaos: {total_answered} answered, {total_reconnects} reconnects, {panics} contained panics"
    );

    // Faults off: the pool must serve a clean request — nothing latched.
    fault::clear();
    let mut probe = connect(addr);
    probe.write_all(pair_line(99, 0).as_bytes()).unwrap();
    let mut reader = BufReader::new(probe.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"match\""), "pool restored after chaos, got {line}");
    drop(probe);
    drop(reader);

    stop.store(true, Ordering::Relaxed);
    let scored = handle.join().expect("server thread").expect("clean drain under chaos");
    assert!(scored > 0, "the run scored real pairs");
}

/// Killing the inference worker between jobs must not lose the queued
/// work: the event loop respawns a replacement that picks the queue back
/// up, and requests sent after the kill are still answered.
#[test]
fn worker_kill_respawns_and_service_continues() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let respawns_before = dader_obs::counter("serve_worker_respawns_total").get();
    // Hit 1 is the worker's first pass (survives); hit 2 kills it right
    // after its first job, before it receives another.
    fault::arm("serve.worker", FaultSpec::at(FaultAction::Panic, 2));

    let (addr, stop, handle) = start_event_loop(fast_cfg());
    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for i in 0..5 {
        conn.write_all(pair_line(0, i).as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"match\""),
            "request {i} answered across the worker kill, got {line}"
        );
    }
    fault::clear();
    drop(conn);
    drop(reader);
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread").expect("clean drain");
    let respawns = dader_obs::counter("serve_worker_respawns_total").get() - respawns_before;
    assert!(respawns >= 1, "the dead worker must be respawned, got {respawns}");
}

/// A pipelined burst far past `max_queue` is shed, not buffered: every
/// request still gets exactly one in-order response, the shed ones carry
/// the retryable `overloaded` code, and the ones that were queued are
/// scored.
#[test]
fn queue_full_sheds_with_typed_errors_and_order_holds() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let cfg = TcpServeConfig {
        max_queue: 4,
        batch_size: 2,
        ..fast_cfg()
    };
    let (addr, stop, handle) = start_event_loop(cfg);
    let mut conn = connect(addr);
    let burst = 50usize;
    let mut lines = String::new();
    for i in 0..burst {
        lines.push_str(&pair_line(1, i));
    }
    conn.write_all(lines.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut last_rid = None::<u64>;
    for (pos, line) in BufReader::new(conn).lines().enumerate() {
        let line = line.unwrap();
        let expected_id = pos as i64;
        let v: Value = serde_json::from_str(line.trim()).unwrap();
        let rid = rid_of(&v);
        if let Some(prev) = last_rid {
            assert!(rid > prev, "rid monotone per connection: {prev} -> {rid}");
        }
        last_rid = Some(rid);
        // Responses come back in request order, shed or served alike:
        // served responses echo the request `id`, shed ones carry the
        // 1-based `line` they answer.
        if v.get("error").is_some() {
            assert_eq!(
                v.get("line").and_then(|x| x.as_i64()),
                Some(expected_id + 1),
                "in-order shed responses: {line}"
            );
            assert_eq!(
                v.get("code"),
                Some(&Value::String("overloaded".into())),
                "shed code: {line}"
            );
            assert_eq!(v.get("retryable"), Some(&Value::Bool(true)));
            shed += 1;
        } else {
            assert_eq!(
                v.get("id").and_then(|x| x.as_i64()),
                Some(expected_id),
                "in-order served responses: {line}"
            );
            served += 1;
        }
    }
    assert_eq!(served + shed, burst, "every request answered exactly once");
    assert!(served > 0, "the queue's worth of requests is served");
    assert!(shed > 0, "a 50-deep burst against max_queue=4 must shed");
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread").expect("clean drain");
}

/// `deadline_ms: 0` is already due on arrival: a TCP connection and a
/// piped stream both shed it with the retryable `deadline_exceeded` code
/// instead of scoring it.
#[test]
fn expired_deadline_is_shed_on_both_cores() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let expired = "{\"id\": 1, \"a\": {\"title\": \"kodak esp\"}, \
                   \"b\": {\"title\": \"kodak\"}, \"deadline_ms\": 0}\n";

    // Event loop: shed at dispatch inside the batch worker.
    let (addr, stop, handle) = start_event_loop(fast_cfg());
    let mut conn = connect(addr);
    conn.write_all(expired.as_bytes()).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(
        v.get("code"),
        Some(&Value::String("deadline_exceeded".into())),
        "event loop: {line}"
    );
    assert_eq!(v.get("retryable"), Some(&Value::Bool(true)));
    drop(conn);
    drop(reader);
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread").expect("clean drain");

    // Piped stream (the stdin entry point): same core, same shed.
    let text = serve_piped(expired, 8);
    let v: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(
        v.get("code"),
        Some(&Value::String("deadline_exceeded".into())),
        "piped stream: {text}"
    );
}

/// Property: under any mix of valid / already-expired / malformed
/// requests with probabilistic infer panics armed, a piped stream still
/// answers every line exactly once, in order, with monotone rids and
/// codes drawn from the documented taxonomy. Shedding and bisection must
/// never reorder or drop a response.
#[derive(Clone, Copy, Debug)]
enum ReqKind {
    Valid,
    Expired,
    BadJson,
}

fn request_text(kind: ReqKind, i: usize) -> String {
    match kind {
        ReqKind::Valid => pair_line(2, i),
        ReqKind::Expired => format!(
            "{{\"id\": {i}, \"a\": {{\"title\": \"kodak\"}}, \
             \"b\": {{\"title\": \"esp\"}}, \"deadline_ms\": 0}}\n"
        ),
        ReqKind::BadJson => format!("{{\"id\": {i}, broken\n"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shedding_and_bisection_preserve_order_and_rids(
        kinds in proptest::collection::vec(0u8..3, 1..40),
        p in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fault::clear();
        fault::set_seed(seed);
        fault::arm("serve.infer", FaultSpec::with_probability(FaultAction::Panic, p));

        let kinds: Vec<ReqKind> = kinds
            .iter()
            .map(|k| match k {
                0 => ReqKind::Valid,
                1 => ReqKind::Expired,
                _ => ReqKind::BadJson,
            })
            .collect();
        let input: String = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| request_text(k, i))
            .collect();
        let text = serve_piped(&input, 4);
        fault::clear();

        let responses: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("response JSON"))
            .collect();
        prop_assert_eq!(responses.len(), kinds.len(), "one response per request");
        let mut last_rid = None::<u64>;
        for (i, (v, kind)) in responses.iter().zip(&kinds).enumerate() {
            let rid = rid_of(v);
            if let Some(prev) = last_rid {
                prop_assert!(rid > prev, "rid monotone: {} -> {}", prev, rid);
            }
            last_rid = Some(rid);
            let code = match v.get("code") {
                Some(Value::String(c)) => Some(c.as_str()),
                _ => None,
            };
            match kind {
                ReqKind::Valid => {
                    // Scored, or a contained panic's typed internal error.
                    if v.get("error").is_some() {
                        prop_assert_eq!(code, Some("internal"), "line {}: {:?}", i + 1, v);
                    } else {
                        prop_assert!(v.get("match").is_some());
                        prop_assert_eq!(
                            v.get("id").and_then(|x| x.as_i64()),
                            Some(i as i64),
                            "ids echo in order"
                        );
                    }
                }
                ReqKind::Expired => {
                    prop_assert_eq!(code, Some("deadline_exceeded"), "line {}: {:?}", i + 1, v);
                }
                ReqKind::BadJson => {
                    prop_assert_eq!(code, Some("invalid_json"), "line {}: {:?}", i + 1, v);
                }
            }
        }
    }
}
