//! Integration test for the `dader-serve` binary: spawn the real process,
//! stream requests (valid and malformed) over stdin, and assert one
//! response per line — error objects for the bad lines, predictions for
//! the good ones — with a clean exit. Stdin and `--listen` answer the
//! same stream byte for byte, and stdin queues a burst instead of
//! shedding it. A corrupted artifact or an unknown flag must produce an
//! error on stderr, not a panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use dader_core::artifact::ModelArtifact;
use dader_core::{DaderModel, LmExtractor, Matcher};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

fn write_tiny_artifact(name: &str) -> PathBuf {
    let vocab = Vocab::build(
        ["title", "kodak", "esp", "printer", "hp", "laserjet"],
        1,
        100,
    );
    let encoder = PairEncoder::new(vocab.clone(), 16);
    let mut rng = StdRng::seed_from_u64(21);
    let cfg = TransformerConfig {
        vocab: vocab.len(),
        dim: 8,
        layers: 1,
        heads: 2,
        ffn_dim: 16,
        max_len: 16,
    };
    let model = DaderModel {
        extractor: Box::new(LmExtractor::new(cfg, &mut rng)),
        matcher: Matcher::new(8, &mut rng),
    };
    let path = std::env::temp_dir().join(format!("dader_serve_cli_{}_{name}", std::process::id()));
    ModelArtifact::capture("serve-cli test", &model, &encoder)
        .save_file(&path)
        .unwrap();
    path
}

fn run_serve(artifact: &PathBuf, extra_args: &[&str], input: &str) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dader-serve"));
    cmd.arg(artifact)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn dader-serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().expect("dader-serve exit")
}

#[test]
fn malformed_lines_get_error_responses_without_process_exit() {
    let artifact = write_tiny_artifact("malformed.dma");
    let input = concat!(
        "{\"id\": 1, \"a\": {\"title\": \"kodak esp\"}, \"b\": {\"title\": \"kodak esp\"}}\n",
        "not json at all {{{\n",
        "{\"id\": 3, \"a\": {\"title\": \"hp laserjet\"}, \"b\": {\"title\": \"kodak\"}}\n",
        "{\"missing\": \"entities\"}\n",
        "{\"id\": 5, \"a\": {\"title\": \"printer\"}, \"b\": {\"title\": \"printer\"}}\n",
    );
    let out = run_serve(&artifact, &["--batch-size", "2"], input);
    std::fs::remove_file(&artifact).unwrap();

    assert!(
        out.status.success(),
        "malformed input must not kill the process: {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<Value> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("every response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 5, "one response per request line:\n{stdout}");

    // lines 2 and 4 are errors carrying their line numbers
    for (idx, lineno) in [(1usize, 2.0), (3, 4.0)] {
        assert!(lines[idx].get("error").is_some(), "line {}: {stdout}", idx + 1);
        assert_eq!(lines[idx].get("line").unwrap().as_f64(), Some(lineno));
    }
    // lines 1, 3, 5 are predictions echoing their ids
    for (idx, id) in [(0usize, 1.0), (2, 3.0), (4, 5.0)] {
        let v = &lines[idx];
        assert!(v.get("error").is_none(), "line {}: {stdout}", idx + 1);
        assert_eq!(v.get("id").unwrap().as_f64(), Some(id));
        assert!(matches!(v.get("match"), Some(Value::Bool(_))));
        let p = v.get("probability").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&p));
    }
    // scored count reported on stderr
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("scored 3 pairs"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn responses_keep_input_order_across_batches() {
    let artifact = write_tiny_artifact("order.dma");
    let mut input = String::new();
    for i in 0..9 {
        input.push_str(&format!(
            "{{\"id\": {i}, \"a\": {{\"title\": \"kodak {i}\"}}, \"b\": {{\"title\": \"kodak\"}}}}\n"
        ));
    }
    let out = run_serve(&artifact, &["--batch-size", "4"], &input);
    std::fs::remove_file(&artifact).unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let ids: Vec<usize> = stdout
        .lines()
        .map(|l| {
            serde_json::from_str::<Value>(l)
                .unwrap()
                .get("id")
                .unwrap()
                .as_f64()
                .unwrap() as usize
        })
        .collect();
    assert_eq!(ids, (0..9).collect::<Vec<_>>());
}

#[test]
fn responses_carry_rid_and_latency_through_the_binary() {
    let artifact = write_tiny_artifact("rid.dma");
    let input = concat!(
        "{\"id\": 1, \"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
        "broken {{{\n",
        "{\"id\": 3, \"a\": {\"title\": \"esp\"}, \"b\": {\"title\": \"hp\"}}\n",
    );
    let out = run_serve(&artifact, &["--batch-size", "2"], input);
    std::fs::remove_file(&artifact).unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let vals: Vec<Value> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(vals.len(), 3);
    let rids: Vec<u64> = vals
        .iter()
        .map(|v| v.get("rid").expect("rid on every response").as_f64().unwrap() as u64)
        .collect();
    assert!(
        rids.windows(2).all(|w| w[1] > w[0]),
        "rids must strictly increase: {rids:?}\n{stdout}"
    );
    for v in &vals {
        let lat = v
            .get("latency_us")
            .expect("latency_us on every response (errors included)")
            .as_f64()
            .unwrap();
        assert!(lat >= 0.0);
    }
    assert!(vals[1].get("error").is_some(), "line 2 is the broken one");
}

/// Full metrics round trip against the real binary: start with
/// `--metrics-addr 127.0.0.1:0`, learn the ephemeral port from the stderr
/// announcement, stream a few requests, and scrape one Prometheus-style
/// dump while the server is still running.
#[test]
fn metrics_endpoint_serves_parseable_dump() {
    let artifact = write_tiny_artifact("metrics.dma");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dader-serve"))
        .arg(&artifact)
        .args(["--batch-size", "1", "--metrics-addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dader-serve");

    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "stderr closed before announcing the metrics address"
        );
        if let Some(rest) = line.trim().strip_prefix("dader-serve: metrics on ") {
            break rest.to_string();
        }
    };

    // Two good requests and one bad one; batch size 1 flushes each good
    // line as it arrives, so all responses are visible before EOF.
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(
            concat!(
                "{\"id\": 1, \"a\": {\"title\": \"kodak\"}, \"b\": {\"title\": \"kodak\"}}\n",
                "nope\n",
                "{\"id\": 2, \"a\": {\"title\": \"esp\"}, \"b\": {\"title\": \"hp\"}}\n",
            )
            .as_bytes(),
        )
        .unwrap();
    stdin.flush().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    for _ in 0..3 {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "response line expected");
        let v: Value = serde_json::from_str(line.trim()).expect("response is JSON");
        assert!(v.get("rid").is_some() && v.get("latency_us").is_some());
    }

    // Scrape the endpoint while the server is alive.
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect to metrics endpoint");
    let mut dump = String::new();
    conn.read_to_string(&mut dump).expect("read metrics dump");

    drop(stdin); // EOF ends the stream; the process exits cleanly
    let status = child.wait().expect("dader-serve exit");
    std::fs::remove_file(&artifact).unwrap();
    assert!(status.success());

    assert!(dump.contains("serve_requests_total 3"), "dump:\n{dump}");
    assert!(dump.contains("serve_errors_total 1"), "dump:\n{dump}");
    assert!(
        dump.lines().any(|l| l.starts_with("serve_request_latency_us{quantile=\"0.95\"}")),
        "latency quantiles expected:\n{dump}"
    );
    assert!(dump.contains("serve_request_latency_us_count 3"), "dump:\n{dump}");
    assert!(dump.contains("serve_batch_size_count"), "dump:\n{dump}");
    // Every sample line is `name[{labels}] value` with a numeric value.
    for line in dump.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (_, val) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        val.parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric sample value in: {line}"));
    }
}

/// Write the same tiny model twice: once as a plain f32 (version-1)
/// artifact and once int8-quantized (version-2), so the two servings can
/// be compared on an identical request set.
fn write_tiny_artifact_pair(name: &str) -> (PathBuf, PathBuf) {
    let f32_path = write_tiny_artifact(&format!("{name}_f32.dma"));
    let art = ModelArtifact::load_file(&f32_path).unwrap();
    let int8_path =
        std::env::temp_dir().join(format!("dader_serve_cli_{}_{name}_int8.dma", std::process::id()));
    art.quantize().unwrap().save_file(&int8_path).unwrap();
    (f32_path, int8_path)
}

/// Serve `input` through the real binary over a real TCP socket: spawn
/// with `--listen 127.0.0.1:0`, learn the ephemeral port from stderr,
/// stream the request lines through one connection, and shut the server
/// down gracefully. Returns one parsed JSON value per response line.
fn serve_over_tcp(artifact: &PathBuf, extra_args: &[&str], input: &str) -> Vec<Value> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dader-serve"))
        .arg(artifact)
        .args(["--listen", "127.0.0.1:0"])
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dader-serve");

    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "stderr closed before announcing the listen address"
        );
        if let Some(rest) = line.trim().strip_prefix("dader-serve: listening on ") {
            break rest.to_string();
        }
    };

    let mut conn = std::net::TcpStream::connect(&addr).expect("connect to dader-serve");
    conn.write_all(input.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = String::new();
    BufReader::new(conn).read_to_string(&mut raw).expect("read responses");

    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"shutdown\n").unwrap();
    drop(stdin);
    let status = child.wait().expect("dader-serve exit");
    assert!(status.success(), "server must drain and exit cleanly");

    raw.lines()
        .map(|l| serde_json::from_str(l).expect("every response line is JSON"))
        .collect()
}

/// Satellite gate: an int8-quantized (version-2) artifact served over real
/// sockets agrees with the f32 artifact on a fixed request set, and the
/// serving envelope — `rid`, `latency_us`, the error taxonomy — is
/// completely unaffected by quantization.
#[test]
fn quantized_artifact_serves_identically_over_sockets() {
    let (f32_path, int8_path) = write_tiny_artifact_pair("quant");
    let quantized = ModelArtifact::load_file(&int8_path).unwrap();
    assert!(quantized.is_quantized(), "the int8 artifact must carry int8 entries on disk");

    // Fixed request set: three good pairs and one malformed line, so the
    // error taxonomy is exercised through the quantized path too.
    let input = concat!(
        "{\"id\": 1, \"a\": {\"title\": \"kodak esp printer\"}, \"b\": {\"title\": \"kodak esp\"}}\n",
        "broken {{{\n",
        "{\"id\": 2, \"a\": {\"title\": \"hp laserjet\"}, \"b\": {\"title\": \"kodak\"}}\n",
        "{\"id\": 3, \"a\": {\"title\": \"printer\"}, \"b\": {\"title\": \"printer\"}}\n",
    );
    let f32_resp = serve_over_tcp(&f32_path, &["--batch-size", "2"], input);
    let int8_resp = serve_over_tcp(&int8_path, &["--batch-size", "2"], input);
    std::fs::remove_file(&f32_path).unwrap();
    std::fs::remove_file(&int8_path).unwrap();

    assert_eq!(f32_resp.len(), 4);
    assert_eq!(int8_resp.len(), 4);

    for (lineno, (a, b)) in f32_resp.iter().zip(&int8_resp).enumerate() {
        // The serving envelope is identical in shape on both servers.
        assert!(a.get("rid").is_some() && b.get("rid").is_some(), "line {}", lineno + 1);
        let lat_a = a.get("latency_us").unwrap().as_f64().unwrap();
        let lat_b = b.get("latency_us").unwrap().as_f64().unwrap();
        assert!(lat_a >= 0.0 && lat_b >= 0.0, "line {}", lineno + 1);
        assert_eq!(
            a.get("error").is_some(),
            b.get("error").is_some(),
            "line {}: error classification must not depend on quantization",
            lineno + 1
        );
    }

    // Error taxonomy byte-for-byte: same code, retryable flag and line
    // number on the malformed line.
    for resp in [&f32_resp, &int8_resp] {
        let err = &resp[1];
        assert!(err.get("error").is_some());
        assert_eq!(err.get("code").unwrap().as_str(), Some("invalid_json"));
        assert_eq!(err.get("retryable"), Some(&Value::Bool(false)));
        assert_eq!(err.get("line").unwrap().as_f64(), Some(2.0));
    }

    // rids strictly increase within each connection, independently.
    for resp in [&f32_resp, &int8_resp] {
        let rids: Vec<u64> =
            resp.iter().map(|v| v.get("rid").unwrap().as_f64().unwrap() as u64).collect();
        assert!(rids.windows(2).all(|w| w[1] > w[0]), "rids must strictly increase: {rids:?}");
    }

    // Pair-match agreement on the good lines: identical ids and match
    // decisions, probabilities within the quantization tolerance.
    for idx in [0usize, 2, 3] {
        let (a, b) = (&f32_resp[idx], &int8_resp[idx]);
        assert_eq!(a.get("id"), b.get("id"), "line {}", idx + 1);
        assert_eq!(
            a.get("match"),
            b.get("match"),
            "line {}: match decision must agree across quantization",
            idx + 1
        );
        let pa = a.get("probability").unwrap().as_f64().unwrap();
        let pb = b.get("probability").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&pa) && (0.0..=1.0).contains(&pb));
        assert!(
            (pa - pb).abs() < 0.15,
            "line {}: quantized probability drifted: {pa} vs {pb}",
            idx + 1
        );
    }
}

#[test]
fn corrupted_artifact_fails_with_structured_error() {
    let artifact = write_tiny_artifact("corrupt.dma");
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&artifact, &bytes).unwrap();

    let out = run_serve(&artifact, &[], "");
    std::fs::remove_file(&artifact).unwrap();
    assert!(!out.status.success(), "corrupted artifact must fail the load");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum mismatch") || stderr.contains("cannot load artifact"),
        "stderr should carry the typed error: {stderr}"
    );
    // a load failure is an error message, not a panic
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn missing_artifact_fails_cleanly() {
    let path = std::env::temp_dir().join("dader_serve_cli_definitely_missing.dma");
    let out = run_serve(&path, &[], "");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load artifact"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// The removed `--thread-per-conn` switch (like any unknown flag) is an
/// error naming the flag, not a silently ignored argument.
#[test]
fn thread_per_conn_flag_is_rejected() {
    let artifact = write_tiny_artifact("flags.dma");
    let out = run_serve(&artifact, &["--thread-per-conn"], "");
    std::fs::remove_file(&artifact).unwrap();
    assert!(!out.status.success(), "an unknown flag must fail the start");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: dader-serve"), "stderr: {stderr}");
    assert!(stderr.contains("--thread-per-conn"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing is served");
}

/// Stdin and `--listen` run one serving core: the same stream — pairs, a
/// malformed line, a blank line, an over-limit line and an inline-`right`
/// `match_table` — gets byte-identical answers both ways once the per-run
/// `rid` and `latency_us` are removed.
#[test]
fn stdin_and_socket_answer_byte_identically() {
    let artifact = write_tiny_artifact("same.dma");
    let input = format!(
        "{}\n{}\n\n{}\n{}\n{}\n{}\n",
        r#"{"id": 1, "a": {"title": "kodak esp"}, "b": {"title": "kodak esp printer"}}"#,
        "not json {{{",
        format_args!(
            r#"{{"id": 3, "a": {{"title": "{}"}}, "b": {{"title": "hp"}}}}"#,
            "x".repeat(300)
        ),
        r#"{"id": 4, "mode": "match_table", "left": [{"title": "kodak esp"}, {"title": "hp laserjet"}], "right": [{"title": "hp laserjet printer"}, {"title": "kodak esp"}], "blocker": "topk", "k": 2, "threshold": 0.0}"#,
        r#"{"id": 5, "a": {"title": "hp laserjet"}, "b": {"title": "printer"}}"#,
        r#"{"id": 6, "a": {"title": "esp"}, "b": {"title": "esp"}}"#,
    );
    let args = ["--batch-size", "2", "--max-line-bytes", "256"];
    let out = run_serve(&artifact, &args, &input);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdin_resp: Vec<Value> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let socket_resp = serve_over_tcp(&artifact, &args, &input);
    std::fs::remove_file(&artifact).unwrap();

    let without_envelope = |v: &Value| -> String {
        let kvs = v
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.as_str() != "rid" && k.as_str() != "latency_us")
            .cloned()
            .collect();
        serde_json::to_string(&Value::Object(kvs)).unwrap()
    };
    let stdin_text: Vec<String> = stdin_resp.iter().map(without_envelope).collect();
    let socket_text: Vec<String> = socket_resp.iter().map(without_envelope).collect();
    assert_eq!(
        stdin_text.len(),
        6,
        "the blank line gets no answer: {stdin_text:#?}"
    );
    assert_eq!(stdin_text, socket_text);
    let code = |i: usize| stdin_resp[i].get("code").and_then(|c| c.as_str());
    assert_eq!(code(1), Some("invalid_json"));
    assert_eq!(code(2), Some("line_too_long"));
    assert!(
        stdin_resp[3].get("matches").is_some(),
        "{:?}",
        stdin_resp[3]
    );
    for v in stdin_resp.iter().filter(|v| v.get("error").is_none()) {
        assert_eq!(v.get("version"), Some(&Value::String("v1".into())), "{v:?}");
    }
}

/// A piped file has no one to retry, so stdin never sheds: a burst far
/// past the default `--max-queue` of 256 is queued and answered in full.
#[test]
fn piped_burst_past_the_queue_bound_is_answered_not_shed() {
    let artifact = write_tiny_artifact("burst.dma");
    let line = r#"{"a":{"t":"kodak"},"b":{"t":"esp x"}}"#.to_string() + "\n";
    assert_eq!(line.len(), 38);
    let out = run_serve(&artifact, &[], &line.repeat(1000));
    std::fs::remove_file(&artifact).unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 1000, "one answer per line");
    assert!(!stdout.contains("overloaded"), "stdin must not shed");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("scored 1000 pairs"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every stdout line of a `dader-serve` run that must have exited 0.
fn answers(out: std::process::Output) -> Vec<Value> {
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("every answer is JSON"))
        .collect()
}

const PAIR: &str = r#"{"id": 9, "a": {"title": "kodak esp"}, "b": {"title": "kodak"}}"#;

/// 50,000 `[` (50 KB, under the 1 MiB line limit) once overflowed the JSON
/// parser's stack and aborted the process. The line is answered
/// `invalid_json` in place, and the stream goes on.
#[test]
fn deeply_nested_line_is_answered_and_the_stream_goes_on() {
    let artifact = write_tiny_artifact("nested.dma");
    let input = format!("{}\n{PAIR}\n", "[".repeat(50_000));
    let out = answers(run_serve(&artifact, &[], &input));
    std::fs::remove_file(&artifact).unwrap();
    assert_eq!(out.len(), 2, "{out:?}");
    assert_eq!(out[0].get("code").and_then(|c| c.as_str()), Some("invalid_json"));
    assert_eq!(out[0].get("line").and_then(|l| l.as_i64()), Some(1));
    assert!(out[1].get("match").is_some(), "{:?}", out[1]);
}

/// `k` is any positive integer: a `match_table` asking for 10^15
/// candidates per row once aborted the process reserving room for them
/// all. It is answered, and so are the pairs around it.
#[test]
fn huge_k_is_answered_and_the_stream_goes_on() {
    let artifact = write_tiny_artifact("huge_k.dma");
    let table = r#"{"mode": "match_table", "left": [{"title": "kodak"}], "right": [{"title": "kodak esp"}], "blocker": "topk", "k": 1000000000000000, "threshold": 0.0}"#;
    let input = format!("{PAIR}\n{table}\n{PAIR}\n");
    let out = answers(run_serve(&artifact, &[], &input));
    std::fs::remove_file(&artifact).unwrap();
    assert_eq!(out.len(), 3, "{out:?}");
    assert!(out[1].get("error").is_none(), "{:?}", out[1]);
    assert_eq!(out[1].get("candidates").and_then(|c| c.as_i64()), Some(1));
    for v in [&out[0], &out[2]] {
        assert!(v.get("match").is_some(), "{v:?}");
    }
}

/// The in-band status answer on stdin counts uptime from the start of
/// serving and counts the stdin connection itself, and it echoes `id`.
/// The start instant is process-global, so only a fresh process shows it.
#[test]
fn stdin_status_reports_uptime_and_its_own_connection() {
    let artifact = write_tiny_artifact("status.dma");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dader-serve"))
        .arg(&artifact)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dader-serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    writeln!(stdin, "{PAIR}").unwrap();
    stdout.read_line(&mut line).unwrap(); // serving has started
    std::thread::sleep(std::time::Duration::from_millis(300));
    writeln!(stdin, r#"{{"mode": "status", "id": 7}}"#).unwrap();
    drop(stdin);
    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert!(child.wait().unwrap().success());
    std::fs::remove_file(&artifact).unwrap();

    let v: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v.get("id").and_then(|i| i.as_i64()), Some(7), "{line}");
    let status = v.get("status").expect("status body");
    let num = |k: &str| status.get(k).and_then(|x| x.as_f64()).expect(k);
    assert!(num("uptime_secs") >= 0.3, "{line}");
    assert_eq!(num("conns_live"), 1.0, "{line}");
    assert_eq!(num("conns_total"), 1.0, "{line}");
}

/// Every mode reads one envelope: `id`, `timings` and `deadline_ms` mean
/// the same in each, and every error that answers a line names it,
/// including those the scorer gives (`deadline_exceeded`, no index).
#[test]
fn every_mode_shares_one_envelope() {
    let artifact = write_tiny_artifact("envelope.dma");
    let input = [
        r#"{"id": 1, "a": {"title": "kodak"}, "b": {"title": "kodak"}, "deadline_ms": 0}"#,
        r#"{"id": 2, "mode": "match_record", "record": {"title": "kodak"}}"#,
        r#"{"id": 3, "mode": "match_table", "left": [{"title": "kodak"}]}"#,
        r#"{"id": 4, "mode": "reload", "timings": true}"#,
        r#"{"id": 5, "mode": "status", "timings": true}"#,
        r#"{"id": 6, "mode": "index_delete", "record_id": "x", "deadline_ms": -1}"#,
    ]
    .map(|l| l.to_string() + "\n")
    .concat();
    let out = answers(run_serve(&artifact, &[], &input));
    std::fs::remove_file(&artifact).unwrap();
    assert_eq!(out.len(), 6, "{out:?}");
    let str_of = |i: usize, k: &str| out[i].get(k).and_then(|v| v.as_str());
    for (i, code) in [
        (0, "deadline_exceeded"),
        (1, "invalid_request"),
        (2, "invalid_request"),
        (5, "invalid_request"),
    ] {
        assert_eq!(str_of(i, "code"), Some(code), "{:?}", out[i]);
        assert_eq!(out[i].get("line").and_then(|l| l.as_i64()), Some(i as i64 + 1));
        // Scorer-side errors (lines 1-3) read like the poller's (line 6).
        let msg = str_of(i, "error").unwrap();
        assert!(msg.starts_with(&format!("line {}: ", i + 1)), "{msg}");
    }
    assert!(str_of(5, "error").unwrap().contains("`deadline_ms`"));
    for i in [3, 4] {
        assert_eq!(out[i].get("id").and_then(|v| v.as_i64()), Some(i as i64 + 1));
        assert!(out[i].get("timings").is_some(), "{:?}", out[i]);
    }
    assert_eq!(out[3].get("reloaded"), Some(&Value::Bool(true)));
    assert!(out[4].get("status").is_some());
}
