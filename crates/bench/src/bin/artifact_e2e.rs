//! End-to-end persistence proof + serving throughput.
//!
//! 1. Train a tiny FZ→ZY transfer with `save_artifact` set.
//! 2. Reload the artifact into a completely fresh model.
//! 3. Verify bitwise-identical predictions and test F1 against the
//!    in-memory model (the durability contract of the artifact format).
//! 4. Quantize the artifact to int8 (format v2), reload it, and verify the
//!    quantized model's eval-phase throughput and F1 delta.
//! 5. Measure serving throughput (pairs/s) of the line protocol through
//!    `serve_stream` (the `dader-serve` stdin path) at a few batch sizes.
//!
//! ```text
//! cargo run --release -p dader-bench --bin artifact_e2e [-- --threads N]
//! ```
//!
//! Leaves a timing summary at `results/BENCH_artifact_e2e.json` with
//! per-phase wall time and the best serving throughput.

use std::io::Cursor;

use dader_bench::report::{
    write_bench_snapshot_with_eval, BenchEvalComparison, BenchEvalDataset, BenchPhase,
    BenchThroughput,
};
use dader_bench::{note, serve_stream, Context, MatchServer, ModelRegistry, Scale, TcpServeConfig};
use dader_core::artifact::ModelArtifact;
use dader_core::{AlignerKind, InferenceModel};
use dader_datagen::DatasetId;

fn main() {
    dader_bench::init_cli();
    let t0 = std::time::Instant::now();
    note!("building tiny context...");
    let ctx = Context::new(Scale::Tiny);
    let context_s = t0.elapsed().as_secs_f64();

    // ---- 1. train with save_artifact --------------------------------
    let path = std::env::temp_dir().join(format!("dader_e2e_{}.dma", std::process::id()));
    let cfg = dader_core::train::TrainConfig {
        save_artifact: Some(path.clone()),
        ..ctx.scale.train_config()
    };
    note!("training FZ -> ZY (NoDA, tiny) with artifact capture...");
    let t_train = std::time::Instant::now();
    let (out, f1_trained) =
        ctx.run_transfer(DatasetId::FZ, DatasetId::ZY, AlignerKind::NoDa, 1, false, Some(cfg));
    let train_s = t_train.elapsed().as_secs_f64();

    // ---- 2. reload into a fresh model -------------------------------
    let t_verify = std::time::Instant::now();
    let art = ModelArtifact::load_file(&path).expect("reload saved artifact");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let (reloaded, renc) = art.instantiate().expect("instantiate fresh model");

    // ---- 3. durability contract -------------------------------------
    let splits = ctx.target_splits(DatasetId::ZY);
    let f1_reloaded = reloaded.evaluate(&splits.test, &renc, 32).f1();
    let p_mem = out.model.predict(&splits.test, ctx.encoder(), 32);
    let p_disk = reloaded.predict(&splits.test, &renc, 32);
    assert_eq!(p_mem, p_disk, "reloaded model must predict identically");
    assert_eq!(f1_trained, f1_reloaded, "reloaded model must score identical F1");
    let probs_mem = out.model.match_probs(&splits.test, ctx.encoder(), 32);
    let probs_disk = reloaded.match_probs(&splits.test, &renc, 32);
    assert_eq!(probs_mem, probs_disk, "probabilities must be bitwise identical");
    println!(
        "persistence: OK — {} params / {:.1} KiB on disk, F1 {f1_trained:.1} == {f1_reloaded:.1}, {} predictions bitwise identical",
        art.checkpoint.entries.len(),
        bytes as f64 / 1024.0,
        p_mem.len(),
    );
    std::fs::remove_file(&path).ok();
    let verify_s = t_verify.elapsed().as_secs_f64();

    // ---- 4. quantized leg -------------------------------------------
    // Quantize to int8, round-trip through the v2 wire format, and compare
    // the tape-free int8 eval against the taped f32 eval: single-thread
    // throughput plus the F1 delta the quantization costs.
    let t_quant = std::time::Instant::now();
    let qpath = std::env::temp_dir().join(format!("dader_e2e_{}_int8.dma", std::process::id()));
    let qart = art.quantize().expect("quantize trained artifact");
    qart.save_file(&qpath).expect("save quantized artifact");
    let qart = ModelArtifact::load_file(&qpath).expect("reload quantized artifact");
    assert!(qart.is_quantized(), "reloaded artifact must keep its int8 entries");
    let qmodel = InferenceModel::from_artifact(&qart).expect("instantiate quantized model");
    let prev = dader_tensor::pool::set_threads(Some(1));
    let t = std::time::Instant::now();
    let m_f32 = out.model.evaluate(&splits.test, ctx.encoder(), 32);
    let f32_eval_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let m_int8 = qmodel.evaluate(&splits.test, &renc, 32);
    let int8_eval_s = t.elapsed().as_secs_f64();
    dader_tensor::pool::set_threads(prev);
    let f1_f32 = m_f32.f1() as f64 / 100.0;
    let f1_int8 = m_int8.f1() as f64 / 100.0;
    let f32_pps = splits.test.len() as f64 / f32_eval_s.max(1e-9);
    let int8_pps = splits.test.len() as f64 / int8_eval_s.max(1e-9);
    println!(
        "quantized: {} int8 tensors, eval 1-thread f32 {f32_pps:.1} pairs/s vs int8 {int8_pps:.1} pairs/s ({:.2}x), F1 {:.3} vs {:.3}",
        qart.quantized.len(),
        int8_pps / f32_pps.max(1e-9),
        f1_f32,
        f1_int8,
    );
    let eval = BenchEvalComparison {
        f32_pairs_per_second: f32_pps,
        int8_pairs_per_second: int8_pps,
        speedup: int8_pps / f32_pps.max(1e-9),
        datasets: vec![BenchEvalDataset {
            name: DatasetId::ZY.to_string(),
            f1_f32,
            f1_int8,
            delta: f1_int8 - f1_f32,
        }],
        max_abs_delta: (f1_int8 - f1_f32).abs(),
    };
    std::fs::remove_file(&qpath).ok();
    let quant_s = t_quant.elapsed().as_secs_f64();

    // ---- 5. serving throughput --------------------------------------
    let t_serve = std::time::Instant::now();
    let server = MatchServer::new(reloaded, renc, art.description.clone());
    let registry = std::sync::Arc::new(ModelRegistry::new(server));
    let mut request_lines = String::new();
    let n_requests = splits.test.len();
    for (i, pair) in splits.test.pairs.iter().enumerate() {
        let attrs_json = |attrs: &[(String, String)]| {
            let obj: Vec<(String, serde::Value)> = attrs
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::String(v.clone())))
                .collect();
            serde::Value::Object(obj)
        };
        let req = serde::Value::Object(vec![
            ("id".to_string(), serde::Value::Number(i as f64)),
            ("a".to_string(), attrs_json(&pair.a.attrs)),
            ("b".to_string(), attrs_json(&pair.b.attrs)),
        ]);
        request_lines.push_str(&serde_json::to_string(&req).expect("encode request"));
        request_lines.push('\n');
    }
    println!("serving {n_requests} requests through the line protocol:");
    let mut best_rate = 0.0f64;
    for batch in [1usize, 8, 32] {
        let mut sink = Vec::new();
        let input = Cursor::new(request_lines.clone().into_bytes());
        let cfg = TcpServeConfig {
            batch_size: batch,
            ..TcpServeConfig::default()
        };
        let t = std::time::Instant::now();
        let scored = serve_stream(std::sync::Arc::clone(&registry), input, &mut sink, cfg)
            .expect("serve request stream");
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(scored, n_requests);
        let rate = scored as f64 / dt;
        best_rate = best_rate.max(rate);
        println!("  batch {batch:>2}: {rate:>8.1} pairs/s ({dt:.2}s)");
    }
    let serve_s = t_serve.elapsed().as_secs_f64();
    println!("total {:.1}s", t0.elapsed().as_secs_f32());
    write_bench_snapshot_with_eval(
        "artifact_e2e",
        t0.elapsed().as_secs_f64(),
        vec![
            BenchPhase { name: "context".into(), wall_s: context_s },
            BenchPhase { name: "train".into(), wall_s: train_s },
            BenchPhase { name: "verify".into(), wall_s: verify_s },
            BenchPhase { name: "quantize".into(), wall_s: quant_s },
            BenchPhase { name: "serve".into(), wall_s: serve_s },
        ],
        (best_rate > 0.0).then(|| BenchThroughput { per_second: best_rate, unit: "pairs".into() }),
        Some(eval),
    );
}
