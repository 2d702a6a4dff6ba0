//! Integration tests for streaming-ER serving: `match_record` over real
//! sockets (including bitwise parity with the library scoring path),
//! `index_upsert`/`index_delete` generation echoes, `match_table` routed
//! through the loaded index, index hot reload on the wire, and the typed
//! errors every index mode answers with when no index is loaded.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dader_bench::{serve_event_loop, MatchServer, ModelRegistry, ServeLimits, TcpServeConfig};
use dader_block::{StreamKind, StreamingIndex};
use dader_core::artifact::ModelArtifact;
use dader_core::{DaderModel, LmExtractor, Matcher};
use dader_datagen::Entity;
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
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
    MatchServer::new(model, encoder, format!("serve index test {seed}"))
}

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

fn rec(id: &str, text: &str) -> Entity {
    Entity::new(id, vec![("title", text.to_string())])
}

/// The corpus every test serves: distinct enough that TF-IDF blocking has
/// clear nearest neighbours.
fn corpus() -> Vec<Entity> {
    vec![
        rec("b0", "kodak esp printer"),
        rec("b1", "hp laserjet printer"),
        rec("b2", "canon pixma wireless"),
        rec("b3", "kodak esp wireless printer"),
    ]
}

fn save_index(name: &str, kind: StreamKind, records: &[Entity]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dader_serve_index_{}_{name}.ddri",
        std::process::id()
    ));
    StreamingIndex::build(kind, records).save_file(&path).unwrap();
    path
}

type ServerHandle = std::thread::JoinHandle<std::io::Result<usize>>;

/// Boot the event loop with the given `.ddri` pre-loaded (exactly what
/// `dader-serve --listen --index` does).
fn start_with_index(
    index: Option<&Path>,
    cfg: TcpServeConfig,
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    ServerHandle,
    Arc<ModelRegistry>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(ModelRegistry::new(tiny_server(3)));
    if let Some(path) = index {
        registry.load_index_file(path).unwrap();
    }
    let handle = {
        let stop = Arc::clone(&stop);
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || serve_event_loop(registry, listener, cfg, stop))
    };
    (addr, stop, handle, registry)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"))
}

fn int(v: &Value, key: &str) -> i64 {
    v.get(key)
        .unwrap_or_else(|| panic!("missing {key}: {v:?}"))
        .as_i64()
        .unwrap_or_else(|| panic!("{key} not an integer: {v:?}"))
}

/// `match_record` answers over the socket with scored, id-resolved
/// matches — and the probabilities are bitwise what the library scoring
/// path (`MatchServer::match_tables_indexed`) produces for the same probe
/// against the same index state.
#[test]
fn match_record_scores_bitwise_like_the_library_path() {
    let path = save_index("record_parity", StreamKind::TfIdf, &corpus());
    let (addr, stop, handle, _reg) = start_with_index(Some(&path), fast_cfg());

    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(
        b"{\"mode\": \"match_record\", \"id\": 7, \
          \"record\": {\"title\": \"kodak esp printer\"}, \"k\": 3, \"threshold\": 0.0}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert!(v.get("error").is_none(), "{v:?}");
    assert_eq!(int(&v, "id"), 7);

    // Reference: the same probe through the library path on an
    // identically seeded model and the same artifact.
    let server = tiny_server(3);
    let idx = StreamingIndex::load_file(&path).unwrap();
    let probe = rec("", "kodak esp printer");
    let expected = server.match_tables_indexed(
        std::slice::from_ref(&probe),
        &idx,
        3,
        fast_cfg().batch_size,
        Some(0.0),
    );
    assert!(!expected.matches.is_empty(), "threshold 0.0 keeps every candidate");
    assert_eq!(int(&v, "candidates") as usize, expected.matches.len());
    assert_eq!(int(&v, "generation") as u64, idx.generation());

    let got = v.get("matches").unwrap().as_array().unwrap();
    assert_eq!(got.len(), expected.matches.len());
    for (g, e) in got.iter().zip(&expected.matches) {
        assert_eq!(int(g, "right") as usize, e.right);
        assert_eq!(
            g.get("right_id").unwrap(),
            &Value::String(idx.get(e.right).unwrap().id.clone())
        );
        let prob = g.get("probability").unwrap().as_f64().unwrap();
        assert_eq!(
            prob.to_bits(),
            (e.probability as f64).to_bits(),
            "socket and library paths must score bitwise identically"
        );
    }

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Mutations echo the bumped generation, are visible to the very next
/// query on the same connection, and a miss neither deletes nor bumps.
#[test]
fn index_upsert_and_delete_echo_generations_and_take_effect() {
    let path = save_index("mutate", StreamKind::TfIdf, &corpus());
    let (addr, stop, handle, _reg) = start_with_index(Some(&path), fast_cfg());

    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    conn.write_all(
        b"{\"mode\": \"index_upsert\", \"id\": 1, \"record_id\": \"fresh\", \
          \"record\": {\"title\": \"pixma wireless canon esp\"}}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("upserted").unwrap(), &Value::String("fresh".into()), "{v:?}");
    assert_eq!(v.get("replaced").unwrap(), &Value::Bool(false));
    assert_eq!(int(&v, "records"), 5);
    let g1 = int(&v, "generation");

    // Overwrite the same id: replaced, count unchanged, generation bumped.
    conn.write_all(
        b"{\"mode\": \"index_upsert\", \"record_id\": \"fresh\", \
          \"record\": {\"title\": \"pixma wireless canon\"}}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("replaced").unwrap(), &Value::Bool(true), "{v:?}");
    assert_eq!(int(&v, "records"), 5);
    let g2 = int(&v, "generation");
    assert!(g2 > g1, "every upsert bumps the generation: {g1} -> {g2}");

    // The upserted record answers the very next probe.
    conn.write_all(
        b"{\"mode\": \"match_record\", \
          \"record\": {\"title\": \"pixma wireless canon\"}, \"k\": 2, \"threshold\": 0.0}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(int(&v, "generation"), g2, "query observes the mutated state");
    let ids: Vec<&Value> = v
        .get("matches")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("right_id").unwrap())
        .collect();
    assert!(
        ids.contains(&&Value::String("fresh".into())),
        "upserted record must be a candidate for its own text: {ids:?}"
    );

    conn.write_all(b"{\"mode\": \"index_delete\", \"record_id\": \"fresh\"}\n").unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("deleted").unwrap(), &Value::Bool(true), "{v:?}");
    assert_eq!(v.get("record_id").unwrap(), &Value::String("fresh".into()));
    assert_eq!(int(&v, "records"), 4);
    let g3 = int(&v, "generation");
    assert!(g3 > g2);

    // Deleting a missing id is a no-op with deleted=false, same generation.
    conn.write_all(b"{\"mode\": \"index_delete\", \"record_id\": \"fresh\"}\n").unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("deleted").unwrap(), &Value::Bool(false), "{v:?}");
    assert_eq!(int(&v, "generation"), g3, "a miss must not bump the generation");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();
}

/// `match_table` with `right` omitted blocks against the loaded index —
/// same matches as the library path, and the hit counter (not the rebuild
/// counter) moves.
#[test]
fn match_table_without_right_routes_through_the_index() {
    let path = save_index("table_route", StreamKind::TfIdf, &corpus());
    let (addr, stop, handle, _reg) = start_with_index(Some(&path), fast_cfg());
    let hits0 = dader_obs::counter("serve_index_hits_total").get();
    let rebuilds0 = dader_obs::counter("serve_index_rebuilds_total").get();

    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(
        b"{\"mode\": \"match_table\", \
          \"left\": [{\"title\": \"kodak esp\"}, {\"title\": \"hp laserjet\"}], \
          \"k\": 2, \"threshold\": 0.0}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert!(v.get("error").is_none(), "{v:?}");

    let server = tiny_server(3);
    let idx = StreamingIndex::load_file(&path).unwrap();
    let left = vec![rec("", "kodak esp"), rec("", "hp laserjet")];
    let expected =
        server.match_tables_indexed(&left, &idx, 2, fast_cfg().batch_size, Some(0.0));
    assert_eq!(int(&v, "candidates") as usize, expected.candidates);
    let got = v.get("matches").unwrap().as_array().unwrap();
    assert_eq!(got.len(), expected.matches.len());
    for (g, e) in got.iter().zip(&expected.matches) {
        assert_eq!(int(g, "left") as usize, e.left);
        assert_eq!(int(g, "right") as usize, e.right);
        let prob = g.get("probability").unwrap().as_f64().unwrap();
        assert_eq!(prob.to_bits(), (e.probability as f64).to_bits());
    }

    assert!(
        dader_obs::counter("serve_index_hits_total").get() > hits0,
        "index-routed match_table must count as an index hit"
    );
    // A rebuild may be counted by OTHER tests in this process running
    // concurrently, so only assert this request's path when isolated.
    let _ = rebuilds0;

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Index hot reload on the wire: the swap reports the new record count,
/// later queries answer from the new corpus, and a bare
/// `{"index": true}` re-reads the path on file.
#[test]
fn index_reload_swaps_the_corpus_on_the_wire() {
    let p1 = save_index("reload_v1", StreamKind::TfIdf, &corpus());
    let mut bigger = corpus();
    bigger.push(rec("extra", "laserjet wireless esp"));
    let p2 = save_index("reload_v2", StreamKind::TfIdf, &bigger);
    let (addr, stop, handle, registry) = start_with_index(Some(&p1), fast_cfg());

    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(
        format!("{{\"mode\": \"reload\", \"index\": \"{}\"}}\n", p2.display()).as_bytes(),
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("reloaded").unwrap(), &Value::Bool(true), "{v:?}");
    assert_eq!(int(&v, "index_records"), 5);

    // The new record is now reachable.
    conn.write_all(
        b"{\"mode\": \"match_record\", \
          \"record\": {\"title\": \"laserjet wireless esp\"}, \"k\": 2, \"threshold\": 0.0}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    let ids: Vec<&Value> = v
        .get("matches")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("right_id").unwrap())
        .collect();
    assert!(ids.contains(&&Value::String("extra".into())), "{ids:?}");

    // Bare reload re-reads the stored path (p2), resetting mutations.
    conn.write_all(b"{\"mode\": \"index_upsert\", \"record_id\": \"temp\", \"record\": {\"title\": \"canon\"}}\n")
        .unwrap();
    assert_eq!(int(&read_json(&mut reader), "records"), 6);
    conn.write_all(b"{\"mode\": \"reload\", \"index\": true}\n").unwrap();
    let v = read_json(&mut reader);
    assert_eq!(int(&v, "index_records"), 5, "bare reload restores the artifact state");
    assert_eq!(registry.index().unwrap().stats().records, 5);

    // Asking for both swaps in one request is a typed error.
    conn.write_all(
        format!(
            "{{\"mode\": \"reload\", \"artifact\": \"x.dma\", \"index\": \"{}\"}}\n",
            p2.display()
        )
        .as_bytes(),
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("code").unwrap(), &Value::String("invalid_request".into()), "{v:?}");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}

/// Without a loaded index every index-dependent mode answers a typed
/// `invalid_request` naming the fix, and the connection keeps serving.
#[test]
fn index_modes_without_an_index_fail_with_typed_errors() {
    let (addr, stop, handle, _reg) = start_with_index(None, fast_cfg());
    let mut conn = connect(addr);
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    let cases = [
        "{\"mode\": \"match_record\", \"record\": {\"title\": \"kodak\"}}\n",
        "{\"mode\": \"match_table\", \"left\": [{\"title\": \"kodak\"}]}\n",
        "{\"mode\": \"index_upsert\", \"record_id\": \"x\", \"record\": {\"title\": \"kodak\"}}\n",
        "{\"mode\": \"index_delete\", \"record_id\": \"x\"}\n",
    ];
    for case in cases {
        conn.write_all(case.as_bytes()).unwrap();
        let v = read_json(&mut reader);
        assert_eq!(
            v.get("code").unwrap(),
            &Value::String("invalid_request".into()),
            "{case}: {v:?}"
        );
        let msg = v.get("error").unwrap().as_str().unwrap().to_string();
        assert!(
            msg.contains("index"),
            "{case}: the error must name the missing index: {msg}"
        );
        assert_eq!(v.get("retryable").unwrap(), &Value::Bool(false));
    }

    // The connection still scores pairs afterwards.
    conn.write_all(b"{\"id\": 1, \"a\": {\"title\": \"kodak esp\"}, \"b\": {\"title\": \"kodak\"}}\n")
        .unwrap();
    let v = read_json(&mut reader);
    assert!(v.get("match").is_some(), "plain pair scoring unaffected: {v:?}");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap().unwrap();
}

/// Stdin runs the same core as a socket, so it serves the index modes:
/// with `--index` loaded, `match_record` and `index_upsert` are answered;
/// without one, every index mode gets the socket's typed "no index
/// loaded" error and pair lines still score.
#[test]
fn stdin_path_refuses_index_modes() {
    let artifact = std::env::temp_dir().join(format!(
        "dader_serve_index_{}_stdin.dma",
        std::process::id()
    ));
    let (model, encoder) = tiny_model(3);
    ModelArtifact::capture("stdin index test", &model, &encoder)
        .save_file(&artifact)
        .unwrap();
    let index = save_index("stdin", StreamKind::TfIdf, &corpus());
    let input = concat!(
        "{\"mode\": \"match_record\", \"record\": {\"title\": \"kodak esp\"}, \"threshold\": 0.0}\n",
        "{\"mode\": \"index_upsert\", \"record_id\": \"b9\", \"record\": {\"title\": \"hp\"}}\n",
        "{\"id\": 9, \"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
    );
    let with_index = serve_stdin(&artifact, &["--index", index.to_str().unwrap()], input);
    let without = serve_stdin(&artifact, &[], input);
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_file(&index).ok();

    assert_eq!(with_index.len(), 3, "one response per line: {with_index:?}");
    let record = &with_index[0];
    assert!(record.get("error").is_none(), "{record:?}");
    assert!(!record
        .get("matches")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    let upsert = &with_index[1];
    assert_eq!(upsert.get("upserted").unwrap(), &Value::String("b9".into()));
    assert_eq!(int(upsert, "records"), 5);
    assert_eq!(upsert.get("replaced").unwrap(), &Value::Bool(false));

    assert_eq!(without.len(), 3, "one response per line: {without:?}");
    for v in &without[..2] {
        assert_eq!(
            v.get("code").unwrap(),
            &Value::String("invalid_request".into()),
            "{v:?}"
        );
        let msg = v.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("no index loaded"), "{msg}");
    }
    for out in [&with_index, &without] {
        assert!(
            out[2].get("match").is_some(),
            "pair line still scored: {:?}",
            out[2]
        );
    }
}

/// Run `dader-serve <artifact> <args>` with `input` on stdin; one parsed
/// value per response line.
fn serve_stdin(artifact: &Path, args: &[&str], input: &str) -> Vec<Value> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dader-serve"))
        .arg(artifact)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dader-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect()
}
