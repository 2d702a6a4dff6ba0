//! The live status surface: a minimal HTTP/1.0 endpoint serving
//! `GET /metrics` (Prometheus text, windowed quantiles appended) and
//! `GET /status` (one JSON object: uptime, connections, queue depth,
//! sliding-window p50/p99, model version), plus the in-band
//! `{"mode": "status"}` request answered on any serving connection.
//!
//! The HTTP here is deliberately tiny: one request line is parsed
//! (`GET <path> [HTTP/x.y]`), the response carries `Content-Type`,
//! `Content-Length` and `Connection: close`, and the socket closes after
//! one exchange. A client that sends no request line at all — the
//! pre-HTTP scrape idiom (`nc host port`) this endpoint used to speak —
//! still gets the bare Prometheus dump once the short read grace expires,
//! so existing scrapers keep working unchanged.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use serde::Value;

use super::registry::ModelRegistry;
use super::{admission, metrics, WINDOW_SECS};

/// How long a connection may stay silent before it is treated as a bare
/// (request-line-less) scrape and answered with the raw metrics dump.
const REQUEST_LINE_GRACE: Duration = Duration::from_millis(250);

/// Serving start, pinned by the first caller — uptime reference for the
/// status snapshot. The serving core and the status endpoint call this
/// when they start, so uptime covers the whole time served, not just the
/// time since the first probe.
pub fn started() -> Instant {
    static STARTED: OnceLock<Instant> = OnceLock::new();
    *STARTED.get_or_init(Instant::now)
}

/// Build the live status object answered by `GET /status` and the
/// in-band `{"mode": "status"}` request. `registry` adds the serving
/// model's version and generation where one exists.
pub(crate) fn status_snapshot(registry: Option<&ModelRegistry>) -> Value {
    let m = metrics();
    let w = m.latency_window.snapshot();
    let opt = |v: Option<f64>| v.map(Value::Number).unwrap_or(Value::Null);
    let occupancy_mean = if m.batch_occupancy.count() > 0 {
        Some(m.batch_occupancy.sum() / m.batch_occupancy.count() as f64)
    } else {
        None
    };
    let mut kvs = vec![
        (
            "uptime_secs".to_string(),
            Value::Number(started().elapsed().as_secs_f64()),
        ),
        (
            "conns_live".to_string(),
            Value::Int(m.conns_live.get() as i64),
        ),
        (
            "conns_total".to_string(),
            Value::Int(m.conns_total.get() as i64),
        ),
        (
            "requests_total".to_string(),
            Value::Int(m.requests.get() as i64),
        ),
        (
            "errors_total".to_string(),
            Value::Int(m.errors.get() as i64),
        ),
        (
            "scored_pairs_total".to_string(),
            Value::Int(m.scored_pairs.get() as i64),
        ),
        (
            "queue_depth".to_string(),
            Value::Int(m.queue_depth.get() as i64),
        ),
        (
            "batch_occupancy_mean".to_string(),
            opt(occupancy_mean),
        ),
        (
            "worker_panics".to_string(),
            Value::Int(m.worker_panics.get() as i64),
        ),
        (
            "worker_respawns".to_string(),
            Value::Int(dader_obs::counter("serve_worker_respawns_total").get() as i64),
        ),
        (
            "shed".to_string(),
            Value::Object(
                admission::shed_counts()
                    .into_iter()
                    .map(|(reason, n)| (reason.to_string(), Value::Int(n as i64)))
                    .collect(),
            ),
        ),
        ("reloads".to_string(), Value::Int(m.reloads.get() as i64)),
        (
            "window".to_string(),
            Value::Object(vec![
                (
                    "window_secs".to_string(),
                    Value::Int(WINDOW_SECS as i64),
                ),
                ("count".to_string(), Value::Int(w.count as i64)),
                ("rate".to_string(), Value::Number(w.rate)),
                ("p50_us".to_string(), opt(w.p50)),
                ("p99_us".to_string(), opt(w.p99)),
            ]),
        ),
        ("goodput".to_string(), {
            let g = m.goodput_window.snapshot();
            Value::Object(vec![
                (
                    "window_secs".to_string(),
                    Value::Int(WINDOW_SECS as i64),
                ),
                ("count".to_string(), Value::Int(g.count as i64)),
                ("rate".to_string(), Value::Number(g.rate)),
            ])
        }),
        (
            "trace".to_string(),
            Value::Object(vec![
                (
                    "enabled".to_string(),
                    Value::Bool(dader_obs::trace::enabled()),
                ),
                (
                    "dropped".to_string(),
                    Value::Int(dader_obs::trace::dropped() as i64),
                ),
            ]),
        ),
    ];
    if let Some(reg) = registry {
        kvs.push((
            "model".to_string(),
            Value::Object(vec![
                ("version".to_string(), Value::String(reg.version())),
                (
                    "generation".to_string(),
                    Value::Int(reg.generation() as i64),
                ),
                (
                    "reload_breaker_open".to_string(),
                    Value::Bool(reg.breaker_open()),
                ),
            ]),
        ));
        if let Some(idx) = reg.index() {
            let s = idx.stats();
            kvs.push((
                "index".to_string(),
                Value::Object(vec![
                    (
                        "kind".to_string(),
                        Value::String(s.kind.to_string()),
                    ),
                    ("records".to_string(), Value::Int(s.records as i64)),
                    (
                        "tombstones".to_string(),
                        Value::Int(s.tombstones as i64),
                    ),
                    (
                        "generation".to_string(),
                        Value::Int(s.generation as i64),
                    ),
                    (
                        "approx_bytes".to_string(),
                        Value::Int(s.approx_bytes as i64),
                    ),
                    (
                        "hits_total".to_string(),
                        Value::Int(m.index_hits.get() as i64),
                    ),
                    (
                        "rebuilds_total".to_string(),
                        Value::Int(m.index_rebuilds.get() as i64),
                    ),
                ]),
            ));
        }
    }
    Value::Object(kvs)
}

/// The `GET /metrics` body: the Prometheus text of every lifetime metric
/// plus the sliding-window latency quantiles and rate (which have no
/// lifetime-counter representation).
pub(crate) fn metrics_text() -> String {
    let w = metrics().latency_window.snapshot();
    let mut text = dader_obs::render_prometheus();
    text.push_str(&format!(
        "serve_request_latency_us_window_count {}\n",
        w.count
    ));
    text.push_str(&format!(
        "serve_request_latency_us_window_rate {}\n",
        w.rate
    ));
    text.push_str(&format!(
        "serve_request_latency_us_window_p50 {}\n",
        w.p50.unwrap_or(f64::NAN)
    ));
    text.push_str(&format!(
        "serve_request_latency_us_window_p99 {}\n",
        w.p99.unwrap_or(f64::NAN)
    ));
    let g = metrics().goodput_window.snapshot();
    text.push_str(&format!("serve_goodput_window_count {}\n", g.count));
    text.push_str(&format!("serve_goodput_window_rate {}\n", g.rate));
    text
}

/// The `GET /healthz` body + status: 200 while the server is accepting
/// work, 503 (with a machine-readable reason) while it is shedding load
/// or the reload breaker is open — the signal a load balancer uses to
/// route around an overloaded or degraded node.
fn healthz(registry: Option<&ModelRegistry>) -> (u16, &'static str, String) {
    let breaker = registry.map(|r| r.breaker_open()).unwrap_or(false);
    let shedding = admission::is_shedding();
    if breaker {
        (
            503,
            "Service Unavailable",
            "{\"ok\": false, \"reason\": \"reload_breaker_open\"}\n".to_string(),
        )
    } else if shedding {
        (
            503,
            "Service Unavailable",
            "{\"ok\": false, \"reason\": \"shedding\"}\n".to_string(),
        )
    } else {
        (200, "OK", "{\"ok\": true}\n".to_string())
    }
}

/// Parse one HTTP request line (`GET /path HTTP/1.0`; the version token
/// is optional — an HTTP/0.9 `GET /path` is accepted). Returns
/// `(method, path)`, or `None` for anything that is not a request line.
fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next();
    if parts.next().is_some() {
        return None; // four tokens: not a request line
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return None;
    }
    if !path.starts_with('/') {
        return None;
    }
    if let Some(v) = version {
        if !v.starts_with("HTTP/") {
            return None;
        }
    }
    Some((method, path))
}

/// Write one HTTP/1.0 response and flush.
fn write_http(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Answer one connection: route the request line if one arrives, fall
/// back to the bare Prometheus dump if none does.
fn handle_conn(stream: TcpStream, registry: Option<&ModelRegistry>) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(REQUEST_LINE_GRACE));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut line = String::new();
    let request = match reader.read_line(&mut line) {
        Ok(n) if n > 0 => parse_request_line(line.trim_end()),
        // Timeout, EOF, or read error: treat as a bare scrape below.
        _ => None,
    };
    let Some((method, path)) = request else {
        // No request line: the legacy dump-on-connect contract.
        stream.write_all(metrics_text().as_bytes())?;
        return stream.flush();
    };
    if method != "GET" {
        let body = format!("{{\"error\": \"method {method} not allowed; use GET\"}}\n");
        return write_http(
            &mut stream,
            405,
            "Method Not Allowed",
            "application/json",
            body.as_bytes(),
        );
    }
    match path {
        // "/" keeps the metrics text one curl away, like the old endpoint.
        "/metrics" | "/" => write_http(
            &mut stream,
            200,
            "OK",
            "text/plain; version=0.0.4",
            metrics_text().as_bytes(),
        ),
        "/status" => {
            let mut body = serde_json::to_string(&status_snapshot(registry))
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            body.push('\n');
            write_http(&mut stream, 200, "OK", "application/json", body.as_bytes())
        }
        "/healthz" => {
            let (status, reason, body) = healthz(registry);
            write_http(
                &mut stream,
                status,
                reason,
                "application/json",
                body.as_bytes(),
            )
        }
        _ => {
            let body = format!(
                "{{\"error\": \"unknown path {path}; try /metrics, /status or /healthz\"}}\n"
            );
            write_http(
                &mut stream,
                404,
                "Not Found",
                "application/json",
                body.as_bytes(),
            )
        }
    }
}

/// Bind `addr` and serve `/metrics` + `/status` from a background thread
/// for the life of the process. `registry` (when a model is serving)
/// adds the model version to `/status`. Returns the bound
/// address (callers announce it — `addr` may name an ephemeral port);
/// a bad address fails loudly at startup.
pub fn spawn_status_endpoint(
    addr: &str,
    registry: Option<Arc<ModelRegistry>>,
) -> std::io::Result<std::net::SocketAddr> {
    started(); // pin uptime before the first probe can
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("dader-serve-status".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                // One connection at a time: a status endpoint has no
                // business holding more, and it keeps the thread count at
                // one no matter how aggressively it is scraped.
                if let Err(e) = handle_conn(stream, registry.as_deref()) {
                    crate::note!("dader-serve: status endpoint: {e}");
                }
            }
        })?;
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing_accepts_http_and_rejects_noise() {
        assert_eq!(
            parse_request_line("GET /status HTTP/1.1"),
            Some(("GET", "/status"))
        );
        assert_eq!(parse_request_line("GET /metrics"), Some(("GET", "/metrics")));
        assert_eq!(
            parse_request_line("POST / HTTP/1.0"),
            Some(("POST", "/"))
        );
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("{\"mode\": \"status\"}"), None);
        assert_eq!(parse_request_line("GET status HTTP/1.1"), None, "path must be absolute");
        assert_eq!(parse_request_line("get / HTTP/1.1"), None, "method is uppercase");
        assert_eq!(parse_request_line("GET / HTTP/1.1 extra"), None);
        assert_eq!(parse_request_line("GET / FTP/1.0"), None);
    }

    #[test]
    fn status_snapshot_has_the_slo_surface() {
        let snap = status_snapshot(None);
        for key in [
            "uptime_secs",
            "conns_live",
            "conns_total",
            "requests_total",
            "errors_total",
            "scored_pairs_total",
            "queue_depth",
            "worker_panics",
            "worker_respawns",
            "shed",
            "window",
            "goodput",
            "trace",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}: {snap:?}");
        }
        let w = snap.get("window").unwrap();
        assert_eq!(
            w.get("window_secs").unwrap().as_f64().unwrap() as u64,
            WINDOW_SECS
        );
        assert!(w.get("p50_us").is_some());
        assert!(w.get("p99_us").is_some());
        assert!(snap.get("model").is_none(), "no registry, no model block");
        // The snapshot must serialize (it is a response body).
        serde_json::to_string(&snap).unwrap();
    }

    #[test]
    fn metrics_text_appends_windowed_lines() {
        let text = metrics_text();
        for line in [
            "serve_request_latency_us_window_count",
            "serve_request_latency_us_window_rate",
            "serve_request_latency_us_window_p50",
            "serve_request_latency_us_window_p99",
            "serve_goodput_window_count",
            "serve_goodput_window_rate",
        ] {
            assert!(text.contains(line), "missing {line}");
        }
    }

    #[test]
    fn healthz_reports_ok_without_a_registry() {
        // No registry and (in this process state) no sustained shedding:
        // the probe shape is {ok: true} / 200. The 503 paths are covered
        // by the admission and registry unit tests driving their inputs.
        let (status, _, body) = healthz(None);
        if admission::is_shedding() {
            assert_eq!(status, 503);
            assert!(body.contains("shedding"), "{body}");
        } else {
            assert_eq!(status, 200);
            assert!(body.contains("\"ok\": true"), "{body}");
        }
    }
}
