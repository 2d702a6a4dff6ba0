//! `dader` — command-line entry point for one-off domain-adaptation runs.
//!
//! ```text
//! dader run    --source WA --target AB [--method invgan_kd] [--rnn]
//!              [--seed 42] [--scale quick|tiny|paper] [--beta 0.5] [--lr 3e-3]
//!              [--save model.dma]       # persist the selected model
//!              [--telemetry run.jsonl]  # one JSONL record per epoch
//!              [--checkpoint run.ddrs]  # crash-safe resume checkpoint
//!              [--checkpoint-every N]   # epochs between checkpoint writes
//!              [--resume run.ddrs]      # continue an interrupted run
//!              [--verbose | --quiet]    # per-epoch progress / errors only
//! ```
//!
//! `--resume` restores the full training state (weights, optimizer
//! moments, RNG, batch order, best-snapshot bookkeeping) and continues
//! the interrupted trajectory bitwise-identically; the flags must match
//! the original invocation or the checkpoint is refused.
//!
//! Every `run` leaves a machine-readable timing summary at
//! `results/BENCH_dader.json` (phases, wall time, thread count).
//!
//! A saved artifact is served by the separate `dader-serve` binary.
//!
//! ```text
//! dader list                      # datasets and methods
//! dader distance --target AB      # rank all sources by MMD (Finding 2)
//! dader quantize in.dma out.dma   # int8-quantize a saved artifact (v2)
//! ```
//!
//! Streaming-ER index artifacts (`.ddri`, served by `dader-serve --index`):
//!
//! ```text
//! dader index build --csv b.csv --out idx.ddri [--blocker topk|lsh]
//! dader index upsert --index idx.ddri --csv delta.csv [--delete ID]... [--compact]
//! dader index info idx.ddri
//! ```

use dader_bench::report::{
    write_bench_snapshot_with_eval, BenchEvalComparison, BenchEvalDataset, BenchPhase,
    BenchThroughput,
};
use dader_bench::{note, Context, Scale};
use dader_core::artifact::ModelArtifact;
use dader_core::distance::dataset_mmd;
use dader_core::train::TrainConfig;
use dader_core::{AlignerKind, InferenceModel};
use dader_datagen::DatasetId;

fn parse_method(s: &str) -> Option<AlignerKind> {
    match s.to_ascii_lowercase().replace('-', "_").as_str() {
        "noda" | "none" => Some(AlignerKind::NoDa),
        "mmd" => Some(AlignerKind::Mmd),
        "korder" | "k_order" | "coral" => Some(AlignerKind::KOrder),
        "grl" => Some(AlignerKind::Grl),
        "invgan" => Some(AlignerKind::InvGan),
        "invgan_kd" | "invgankd" | "kd" => Some(AlignerKind::InvGanKd),
        "ed" => Some(AlignerKind::Ed),
        _ => None,
    }
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].clone())
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  dader run --source <ID> --target <ID> [--method <m>] [--rnn] \\\n             [--seed N] [--beta B] [--lr L] [--scale quick|tiny|paper] \\\n             [--save <artifact path>] [--telemetry <jsonl path>] \\\n             [--checkpoint <path>] [--checkpoint-every N] [--resume <path>] \\\n             [--verbose] [--quiet]\n  dader distance --target <ID> [--scale ...]\n  dader quantize <in.dma> <out.dma>\n  dader index build --csv <b.csv> --out <idx.ddri> [--blocker topk|lsh]\n  dader index upsert --index <idx.ddri> --csv <delta.csv> [--delete <ID>]... [--compact]\n  dader index info <idx.ddri>\n  dader list"
    );
    std::process::exit(2);
}

/// `dader quantize in.dma out.dma`: load a saved artifact, quantize every
/// eligible weight matrix to int8 per-row codes, and write the result as a
/// format-version-2 artifact that `dader-serve` runs through the integer
/// GEMM path.
fn cmd_quantize(args: &[String]) {
    let (input, output) = match (args.get(1), args.get(2)) {
        (Some(i), Some(o)) => (std::path::PathBuf::from(i), std::path::PathBuf::from(o)),
        _ => usage(),
    };
    let art = match ModelArtifact::load_file(&input) {
        Ok(art) => art,
        Err(e) => {
            eprintln!("dader quantize: cannot load {}: {e}", input.display());
            std::process::exit(1);
        }
    };
    let quantized = match art.quantize() {
        Ok(q) => q,
        Err(e) => {
            eprintln!("dader quantize: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = quantized.save_file(&output) {
        eprintln!("dader quantize: cannot write {}: {e}", output.display());
        std::process::exit(1);
    }
    let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    println!(
        "quantized {} -> {}: {} of {} tensors int8, {} -> {} bytes",
        input.display(),
        output.display(),
        quantized.quantized.len(),
        quantized.checkpoint.entries.len(),
        size(&input),
        size(&output),
    );
}

/// Load a CSV table for `dader index`, rejecting nothing silently: any
/// malformed row is fatal here, because an index built from a partial
/// table would quietly answer queries with records missing.
fn index_csv(path: &str) -> Vec<dader_datagen::Entity> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("dader index: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let table = match dader_block::parse_csv(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dader index: {path} has no usable header: {e}");
            std::process::exit(1);
        }
    };
    if let Some(e) = table.errors.first() {
        eprintln!(
            "dader index: {path} line {}: {} ({} bad rows total; fix the CSV before indexing)",
            e.line,
            e.message,
            table.errors.len()
        );
        std::process::exit(1);
    }
    table.rows
}

fn index_stats_line(path: &str, idx: &dader_block::StreamingIndex) -> String {
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    format!(
        "{path}: kind {}, {} records, {} tombstones, generation {}, ~{} bytes resident, {} bytes on disk",
        idx.kind().as_str(),
        idx.len(),
        idx.tombstones(),
        idx.generation(),
        idx.approx_bytes(),
        file_bytes
    )
}

/// `dader index build|upsert|info`: create, mutate, and inspect the
/// persistent blocking-index artifacts that `dader-serve --index` loads.
fn cmd_index(args: &[String]) {
    let die = |msg: &str| -> ! {
        eprintln!("dader index: {msg}");
        std::process::exit(1);
    };
    match args.get(1).map(|s| s.as_str()) {
        Some("build") => {
            let csv = arg_value(args, "--csv").unwrap_or_else(|| usage());
            let out = arg_value(args, "--out").unwrap_or_else(|| usage());
            let kind = match arg_value(args, "--blocker") {
                None => dader_block::StreamKind::Lsh(dader_block::LshParams::default()),
                Some(s) => dader_block::StreamKind::parse(&s)
                    .unwrap_or_else(|| die(&format!("unknown blocker {s:?} (expected topk or lsh)"))),
            };
            let rows = index_csv(&csv);
            let t0 = std::time::Instant::now();
            let idx = dader_block::StreamingIndex::build(kind, &rows);
            if let Err(e) = idx.save_file(&out) {
                die(&format!("cannot write {out}: {e}"));
            }
            println!(
                "built {} ({:.2}s from {} rows)",
                index_stats_line(&out, &idx),
                t0.elapsed().as_secs_f64(),
                rows.len()
            );
        }
        Some("upsert") => {
            let path = arg_value(args, "--index").unwrap_or_else(|| usage());
            let mut idx = match dader_block::StreamingIndex::load_file(&path) {
                Ok(i) => i,
                Err(e) => die(&format!("cannot load {path}: {e}")),
            };
            let deletes: Vec<String> = args
                .windows(2)
                .filter(|w| w[0] == "--delete")
                .map(|w| w[1].clone())
                .collect();
            let csv = arg_value(args, "--csv");
            if csv.is_none() && deletes.is_empty() {
                die("nothing to do: pass --csv <file> and/or --delete <ID>");
            }
            let mut upserts = 0usize;
            if let Some(csv) = csv {
                for row in index_csv(&csv) {
                    idx.upsert(row);
                    upserts += 1;
                }
            }
            let mut deleted = 0usize;
            for id in &deletes {
                if idx.delete(id) {
                    deleted += 1;
                } else {
                    eprintln!("dader index: --delete {id}: no such record (ignored)");
                }
            }
            if args.iter().any(|a| a == "--compact") {
                idx.compact();
            }
            if let Err(e) = idx.save_file(&path) {
                die(&format!("cannot write {path}: {e}"));
            }
            println!(
                "upserted {upserts}, deleted {deleted}: {}",
                index_stats_line(&path, &idx)
            );
        }
        Some("info") => {
            let path = args.get(2).cloned().unwrap_or_else(|| usage());
            match dader_block::StreamingIndex::load_file(&path) {
                Ok(idx) => println!("{}", index_stats_line(&path, &idx)),
                Err(e) => die(&format!("cannot load {path}: {e}")),
            }
        }
        _ => usage(),
    }
}

fn cmd_list() {
    println!("datasets (Table 2):");
    for id in DatasetId::all() {
        let s = id.spec();
        println!(
            "  {:<3} {:<22} {:<11} {:>6} pairs / {:>5} matches / {} attrs",
            s.short, s.name, s.domain, s.pairs, s.matches, s.attrs
        );
    }
    println!("\nmethods: noda, mmd, korder, grl, invgan, invgan_kd, ed");
}

fn cmd_run(args: &[String]) {
    let source = arg_value(args, "--source")
        .and_then(|s| DatasetId::parse(&s))
        .unwrap_or_else(|| usage());
    let target = arg_value(args, "--target")
        .and_then(|s| DatasetId::parse(&s))
        .unwrap_or_else(|| usage());
    let method = arg_value(args, "--method")
        .map(|m| parse_method(&m).unwrap_or_else(|| usage()))
        .unwrap_or(AlignerKind::InvGanKd);
    let seed: u64 = arg_value(args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(42);
    let use_rnn = args.iter().any(|a| a == "--rnn");
    let scale = Scale::from_args();

    let run_start = std::time::Instant::now();
    note!("building context (scale {scale}: 13 datasets + MLM pre-training)...");
    let ctx = Context::new(scale);
    let context_s = run_start.elapsed().as_secs_f64();
    let mut cfg = TrainConfig {
        beta: method.default_beta(),
        seed,
        ..ctx.scale.train_config()
    };
    if let Some(beta) = arg_value(args, "--beta").and_then(|v| v.parse().ok()) {
        cfg.beta = beta;
    }
    if let Some(lr) = arg_value(args, "--lr").and_then(|v| v.parse().ok()) {
        cfg.lr = lr;
    }
    let save = arg_value(args, "--save").map(std::path::PathBuf::from);
    cfg.save_artifact = save.clone();
    cfg.telemetry = arg_value(args, "--telemetry").map(std::path::PathBuf::from);
    cfg.verbose = dader_obs::log::verbose_enabled();
    cfg.checkpoint = arg_value(args, "--checkpoint").map(std::path::PathBuf::from);
    if let Some(every) = arg_value(args, "--checkpoint-every").and_then(|v| v.parse().ok()) {
        cfg.checkpoint_every = std::cmp::max(every, 1);
    }
    cfg.resume = arg_value(args, "--resume").map(std::path::PathBuf::from);
    if cfg.resume.is_some() && cfg.checkpoint.is_none() {
        // A resumed run keeps checkpointing to the same file unless told
        // otherwise, so repeated crashes never lose more than one interval.
        cfg.checkpoint = cfg.resume.clone();
    }
    let telemetry_path = cfg.telemetry.clone();

    note!("adapting {source} -> {target} with {method} (seed {seed}, β {}, lr {})...", cfg.beta, cfg.lr);
    let t0 = std::time::Instant::now();
    let (out, f1) = ctx.run_transfer(source, target, method, seed, use_rnn, Some(cfg));
    let train_s = t0.elapsed().as_secs_f64();
    let epochs_run = out.history.len();
    let splits = ctx.target_splits(target);
    let t_eval = std::time::Instant::now();
    let m = out.model.evaluate(&splits.test, ctx.encoder(), 32);
    let eval_s = t_eval.elapsed().as_secs_f64();
    println!(
        "{source}->{target} {method}{}: target F1 {f1:.1} (P {:.2} / R {:.2}), best epoch {}, {:.1}s",
        if use_rnn { " [RNN]" } else { "" },
        m.precision(),
        m.recall(),
        out.best_epoch,
        t0.elapsed().as_secs_f32(),
    );
    println!("per-epoch validation F1: {:?}", out.history.iter().map(|h| h.val_f1.round()).collect::<Vec<_>>());
    if let Some(path) = save {
        println!("saved model artifact to {} (serve it with dader-serve)", path.display());
    }
    if let Some(path) = telemetry_path {
        note!("telemetry written to {} ({epochs_run}+ records)", path.display());
    }
    let t_cmp = std::time::Instant::now();
    let eval = eval_comparison(&ctx, &out.model);
    let compare_s = t_cmp.elapsed().as_secs_f64();
    write_bench_snapshot_with_eval(
        "dader",
        run_start.elapsed().as_secs_f64(),
        vec![
            BenchPhase { name: "context".into(), wall_s: context_s },
            BenchPhase { name: "train".into(), wall_s: train_s },
            BenchPhase { name: "eval".into(), wall_s: eval_s },
            BenchPhase { name: "eval_compare".into(), wall_s: compare_s },
        ],
        (train_s > 0.0).then(|| BenchThroughput {
            per_second: epochs_run as f64 / train_s,
            unit: "epochs".into(),
        }),
        eval,
    );
}

/// Compare the tape-free f32 evaluation against the tape-free int8 one:
/// quantize the trained model's weights, then — single-threaded, so the
/// numbers reflect kernel cost rather than parallelism — measure
/// throughput and per-dataset test F1 over the whole benchmark suite.
fn eval_comparison(ctx: &Context, model: &dader_core::DaderModel) -> Option<BenchEvalComparison> {
    let art = ModelArtifact::capture("eval comparison", model, ctx.encoder());
    let art = match art.quantize() {
        Ok(a) => a,
        Err(e) => {
            note!("eval comparison skipped (quantize failed): {e}");
            return None;
        }
    };
    let int8 = match InferenceModel::from_artifact(&art) {
        Ok(m) => m,
        Err(e) => {
            note!("eval comparison skipped (instantiate failed): {e}");
            return None;
        }
    };
    let f32m = InferenceModel::from_model(model);
    let prev = dader_tensor::pool::set_threads(Some(1));
    let mut datasets = Vec::new();
    let mut pairs = 0usize;
    let (mut f32_s, mut int8_s) = (0.0f64, 0.0f64);
    for id in DatasetId::all() {
        let splits = ctx.target_splits(id);
        pairs += splits.test.len();
        let t = std::time::Instant::now();
        let mf = f32m.evaluate(&splits.test, ctx.encoder(), 32);
        f32_s += t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let mq = int8.evaluate(&splits.test, ctx.encoder(), 32);
        int8_s += t.elapsed().as_secs_f64();
        let f1_f32 = mf.f1() as f64 / 100.0;
        let f1_int8 = mq.f1() as f64 / 100.0;
        datasets.push(BenchEvalDataset {
            name: id.to_string(),
            f1_f32,
            f1_int8,
            delta: f1_int8 - f1_f32,
        });
    }
    dader_tensor::pool::set_threads(prev);
    let max_abs_delta = datasets.iter().map(|d| d.delta.abs()).fold(0.0, f64::max);
    let f32_pps = pairs as f64 / f32_s.max(1e-9);
    let int8_pps = pairs as f64 / int8_s.max(1e-9);
    note!(
        "eval compare: {pairs} pairs 1-thread: f32 {f32_pps:.0}/s vs int8 {int8_pps:.0}/s ({:.2}x), max |dF1| {max_abs_delta:.4}",
        int8_pps / f32_pps.max(1e-9)
    );
    Some(BenchEvalComparison {
        f32_pairs_per_second: f32_pps,
        int8_pairs_per_second: int8_pps,
        speedup: int8_pps / f32_pps.max(1e-9),
        datasets,
        max_abs_delta,
    })
}

fn cmd_distance(args: &[String]) {
    let target = arg_value(args, "--target")
        .and_then(|s| DatasetId::parse(&s))
        .unwrap_or_else(|| usage());
    let scale = Scale::from_args();
    note!("building context (scale {scale})...");
    let ctx = Context::new(scale);
    let probe = ctx.lm_extractor(0);
    let mut rows: Vec<(DatasetId, f32)> = DatasetId::all()
        .into_iter()
        .filter(|id| *id != target)
        .map(|id| {
            let d = dataset_mmd(probe.as_ref(), ctx.dataset(id), ctx.dataset(target), ctx.encoder(), 120);
            (id, d)
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    println!("sources ranked by MMD distance to {target} (closest first — Finding 2):");
    for (id, d) in rows {
        println!("  {:<4} {:<22} {d:.4}", id.to_string(), id.spec().name);
    }
}

fn main() {
    dader_bench::init_cli();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(&args),
        Some("distance") => cmd_distance(&args),
        Some("quantize") => cmd_quantize(&args),
        Some("index") => cmd_index(&args),
        Some("list") => cmd_list(),
        _ => usage(),
    }
}
