//! `perfbench` — the DADER performance benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pair_serve|table_match|train_run> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process per run. The workload's inputs come from `--seed`; the
//! one-time trained model lives in `perfbench/.cache` (built by a child
//! process on first use). The last stdout line is the
//! result object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is a detailed report (per-step
//! accounting, output digests, environment stamp). See `README.md`.

mod layers;
mod load;
mod offline;
mod prep;
mod serving;
mod util;

use serde::Value;

use util::{peak_rss_mb, Obj};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. Each
/// comes from a measurement on that workload's inputs: its own phases,
/// or a probe of a layer it does not run (see `layers::fill`; the report
/// lists those as `probed_layers`). `context.stage_share` is the
/// exception: only `train_run` has a context (0 elsewhere).
const PER_LAYER: [(&str, &str); 51] = [
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.batch_wait_ms.p50", "ms"),
    ("serve.infer_ms.p50", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.unattributed_ms.p50", "ms"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.flush_deadline_share", "ratio"),
    ("serve.shed_total", "count"),
    ("serve.stage_share", "ratio"),
    ("gen.lag_ms.p99", "ms"),
    ("gen.sent", "count"),
    ("gen.answered", "count"),
    ("text.encode_us_per_pair", "us"),
    ("text.real_tokens_per_pair", "count"),
    ("text.pad_ratio", "ratio"),
    ("text.truncated_share", "ratio"),
    ("infer.extract_us_per_pair.int8", "us"),
    ("infer.extract_us_per_pair.f32", "us"),
    ("infer.head_us_per_pair", "us"),
    ("infer.pairs_per_s.int8", "1/s"),
    ("infer.pairs_per_s.f32", "1/s"),
    ("tensor.macs_per_pair.padded", "count"),
    ("tensor.macs_per_pair.real", "count"),
    ("block.probe_us.p50", "us"),
    ("block.probe_us.p99", "us"),
    ("block.candidates_per_probe", "count"),
    ("block.hit_share", "ratio"),
    ("block.upsert_us.p50", "us"),
    ("block.delete_us.p50", "us"),
    ("block.load_s", "s"),
    ("block.build_s", "s"),
    ("block.query_s", "s"),
    ("match.score_s", "s"),
    ("match.unique_pair_share", "ratio"),
    ("match.stage_share", "ratio"),
    ("artifact.load_s", "s"),
    ("artifact.instantiate_s", "s"),
    ("datagen.generate_s", "s"),
    ("pretrain.build_s", "s"),
    ("context.stage_share", "ratio"),
    ("train.epoch_s", "s"),
    ("eval.pairs_per_s", "1/s"),
    ("train.backward_s", "s"),
    ("train.gemm_s", "s"),
    ("train.adam_s", "s"),
    ("train.aligner_s", "s"),
    ("train.extract_s", "s"),
    ("train.span_coverage", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

const WORKLOADS: [&str; 3] = ["pair_serve", "table_match", "train_run"];

/// Largest miss allowed between a path's stage parts and its end-to-end
/// time (the parts must explain the whole to within this share).
const STAGE_TOLERANCE: f64 = 0.10;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back for printing.
pub struct RunResult {
    pub setup_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
    pub report: Obj,
}

impl RunResult {
    pub fn new(setup_s: f64) -> RunResult {
        RunResult {
            setup_s,
            attempted: 0,
            failed: 0,
            e2e: Vec::new(),
            layers: Vec::new(),
            problems: Vec::new(),
            report: Obj::new(),
        }
    }

    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.iter().any(|(k, _)| *k == name)
    }

    /// Record how much of a path's end-to-end time its stage parts
    /// explain (`<path>.stage_share`), and whether that is within
    /// [`STAGE_TOLERANCE`].
    pub fn stage_share(&mut self, name: &'static str, share: f64) {
        let ok = (share - 1.0).abs() <= STAGE_TOLERANCE;
        self.layers.push((name, share));
        self.report = std::mem::take(&mut self.report).val(
            name,
            Obj::new()
                .num("share", share)
                .bool("within_tolerance", ok)
                .build(),
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |k: &str| args.windows(2).find(|w| w[0] == k).map(|w| w[1].clone());
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return None;
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        _ => return None,
    };
    Some(Args {
        workload,
        seed: value("--seed").map(|s| s.parse().ok()).unwrap_or(Some(1))?,
        seconds: value("--seconds")
            .map(|s| s.parse::<f64>().ok().filter(|s| *s > 0.0))
            .unwrap_or(Some(10.0))?,
        trace,
    })
}

/// The int8 GEMM path this CPU supports (the same detection the program's
/// runtime dispatch makes).
fn int8_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            return "vnni";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// CRC-32 over the program's sources (every file under `crates/` and
/// `shims/`, path and bytes, in sorted order): identifies the code under
/// test even where the checkout carries no git metadata.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:08x}", dader_core::artifact::crc32(&bytes))
}

/// The checkout's git commit, when it is a git checkout (never a
/// repository further up the tree).
fn commit(root: &std::path::Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn env_stamp() -> Value {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Obj::new()
        .int(
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .int("pool_threads", dader_tensor::pool::current_threads())
        .str("int8_isa", int8_isa())
        .str("commit", commit(&root))
        .str("source_crc32", source_digest(&root))
        .build()
}

fn metrics_object(names: &[(&str, &str)], values: &[(&'static str, f64)]) -> Value {
    Value::Object(
        names
            .iter()
            .map(|(name, unit)| {
                let v = values
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|x| x.1)
                    .unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name.to_string(),
                    Obj::new().num("value", v).str("unit", *unit).build(),
                )
            })
            .collect(),
    )
}

fn main() {
    if std::env::args().any(|a| a == "--prepare") {
        if let Err(e) = prep::prepare() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let Some(args) = parse_args() else { usage() };
    dader_obs::log::set_level(dader_obs::log::Level::Quiet);
    let assets = match prep::ensure() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let run = match args.workload.as_str() {
        "pair_serve" => serving::pair_serve(&args, &assets),
        "table_match" => offline::table_match(&args, &assets),
        "train_run" => offline::train_run(&args, &assets),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut res = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    res.e2e.push(("setup_s", res.setup_s));
    // A workload may report the peak of the part a user runs once.
    if !res.e2e.iter().any(|(k, _)| *k == "peak_rss_mb") {
        res.e2e.push(("peak_rss_mb", peak_rss_mb()));
    }
    let metrics = if args.trace {
        metrics_object(&PER_LAYER, &res.layers)
    } else {
        metrics_object(&END_TO_END, &res.e2e)
    };
    for p in &res.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let report = std::mem::take(&mut res.report)
        .str("workload", args.workload.clone())
        .int("seed", args.seed as usize)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .val("env", env_stamp())
        .val("assets", assets.stamp())
        .val(
            "problems",
            Value::Array(
                res.problems
                    .iter()
                    .map(|p| Value::String(p.clone()))
                    .collect(),
            ),
        )
        .val("end_to_end", metrics_object(&END_TO_END, &res.e2e))
        .build();
    let result = Obj::new()
        .bool("correct", res.problems.is_empty())
        .int("attempted", res.attempted.max(1))
        .int("failed", res.failed)
        .val("metrics", metrics)
        .build();
    let line = |v: &Value| serde_json::to_string(v).expect("JSON values serialize");
    println!("{}", line(&report));
    println!("{}", line(&result));
}
