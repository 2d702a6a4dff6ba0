//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions from outside the program, on the workload's
//! own inputs. [`fill`] runs every probe whose metrics the workload's own
//! phases did not already measure, so each traced run reports every layer
//! from a real measurement; the report lists those probed metrics, which
//! are comparable only within their workload.

use std::collections::HashSet;
use std::time::Instant;

use dader_bench::{build_blocker, BlockerKind, MatchServer, Scale};
use dader_block::{Blocker, LshParams, StreamKind, StreamingIndex};
use dader_core::artifact::ModelArtifact;
use dader_core::pretrain::{PretrainConfig, PretrainedLm};
use dader_core::train::{train_da, DaTask, TrainConfig};
use dader_core::{AlignerKind, EncodedBatch, ExtractorSpec, InferenceModel};
use dader_datagen::{DatasetId, Entity, EntityPair, ErDataset};
use dader_text::PairEncoder;

use crate::prep::Assets;
use crate::util::{cache_dir, median, quantile, timed};
use crate::RunResult;

/// Named per-layer metric values.
pub type Layer = Vec<(&'static str, f64)>;

/// One record's attribute-value list.
pub type Attrs = Vec<(String, String)>;

/// An index probe: a left-hand record and the id of its true match.
struct Query {
    record: Attrs,
    truth: String,
}

/// Pairs the index, table and training probes run on (a prefix of the
/// workload's pairs).
const PROBE_PAIRS: usize = 600;
/// Candidates per probe record (`dader-match` and `match_record` default).
const K: usize = 10;
/// MLM steps of the pretraining probe (`train_run` times the full 300).
const PRETRAIN_PROBE_STEPS: usize = 30;

/// `dader_text`: serialization + padding cost and shape of the inputs.
pub fn text(encoder: &PairEncoder, pairs: &[(&Attrs, &Attrs)]) -> Layer {
    let budget = encoder.max_len() - 3;
    let (mut real, mut truncated) = (0usize, 0usize);
    let t0 = Instant::now();
    for (a, b) in pairs {
        let sa = encoder.serialize_entity(a);
        let sb = encoder.serialize_entity(b);
        let e = std::hint::black_box(encoder.encode_serialized(&sa, &sb));
        real += e.mask.iter().filter(|&&m| m > 0.0).count();
        truncated += usize::from(sa.len() + sb.len() > budget);
    }
    let n = pairs.len().max(1) as f64;
    let real_per_pair = real as f64 / n;
    vec![
        (
            "text.encode_us_per_pair",
            t0.elapsed().as_secs_f64() * 1e6 / n,
        ),
        ("text.real_tokens_per_pair", real_per_pair),
        (
            "text.pad_ratio",
            1.0 - real_per_pair / encoder.max_len() as f64,
        ),
        ("text.truncated_share", truncated as f64 / n),
    ]
}

/// Multiply-accumulates per pair of the transformer trunk at sequence
/// length `s` (projections, attention, FFN, then the head and matcher).
fn macs_per_pair(spec: &ExtractorSpec, s: f64) -> f64 {
    match spec {
        ExtractorSpec::Lm(c) => {
            let (d, f) = (c.dim as f64, c.ffn_dim as f64);
            let layer = 4.0 * s * d * d + 2.0 * s * s * d + 2.0 * s * d * f;
            c.layers as f64 * layer + (3.0 * d + 4.0) * d + 2.0 * d
        }
        ExtractorSpec::Rnn { .. } => 0.0,
    }
}

fn batches(encoder: &PairEncoder, pairs: &[(&Attrs, &Attrs)], size: usize) -> Vec<EncodedBatch> {
    let seq = encoder.max_len();
    pairs
        .chunks(size)
        .map(|chunk| {
            let mut ids = Vec::with_capacity(chunk.len() * seq);
            let mut mask = Vec::with_capacity(chunk.len() * seq);
            for (a, b) in chunk {
                let e = encoder.encode_pair(a, b);
                ids.extend(e.ids);
                mask.extend(e.mask);
            }
            EncodedBatch {
                ids,
                mask,
                batch: chunk.len(),
                seq,
                labels: vec![0; chunk.len()],
                indices: (0..chunk.len()).collect(),
            }
        })
        .collect()
}

/// `dader_core::infer` (+ `dader_tensor` kernels): extract and head cost
/// per pair at batch 32 on one thread, end-to-end `predict_pairs`
/// throughput on the pool, and MAC counts for padded vs real lengths.
pub fn infer(
    int8: &InferenceModel,
    f32m: &InferenceModel,
    spec: &ExtractorSpec,
    encoder: &PairEncoder,
    pairs: &[(&Attrs, &Attrs)],
    real_tokens_per_pair: f64,
) -> Layer {
    let enc = batches(encoder, pairs, 32);
    let n = pairs.len().max(1) as f64;
    let prev = dader_tensor::pool::set_threads(Some(1));
    let extract_us = |m: &InferenceModel| {
        let t0 = Instant::now();
        let feats: Vec<Vec<f32>> = enc
            .iter()
            .map(|b| std::hint::black_box(m.extract(b)))
            .collect();
        (t0.elapsed().as_secs_f64() * 1e6 / n, feats)
    };
    let (x8, feats) = extract_us(int8);
    let (x32, _) = extract_us(f32m);
    let t0 = Instant::now();
    for f in &feats {
        std::hint::black_box((int8.predict(f), int8.match_probs(f)));
    }
    let head_us = t0.elapsed().as_secs_f64() * 1e6 / n;
    dader_tensor::pool::set_threads(prev);
    let owned: Vec<(Attrs, Attrs)> = pairs
        .iter()
        .map(|(a, b)| ((*a).clone(), (*b).clone()))
        .collect();
    let pps = |m: &InferenceModel| {
        let (s, _) = timed(|| std::hint::black_box(m.predict_pairs(&owned, encoder, 32)));
        n / s.max(1e-9)
    };
    vec![
        ("infer.extract_us_per_pair.int8", x8),
        ("infer.extract_us_per_pair.f32", x32),
        ("infer.head_us_per_pair", head_us),
        ("infer.pairs_per_s.int8", pps(int8)),
        ("infer.pairs_per_s.f32", pps(f32m)),
        (
            "tensor.macs_per_pair.padded",
            macs_per_pair(spec, encoder.max_len() as f64),
        ),
        (
            "tensor.macs_per_pair.real",
            macs_per_pair(spec, real_tokens_per_pair),
        ),
    ]
}

/// `dader_block::StreamingIndex`: single-record probe latency, candidate
/// counts and recall, and upsert/delete cost.
fn block_stream(index: &mut StreamingIndex, queries: &[Query], writes: &[Attrs]) -> Layer {
    let mut probe_us = Vec::with_capacity(queries.len());
    let (mut cands, mut hits) = (0usize, 0usize);
    for q in queries {
        let rec = Entity {
            id: "probe".into(),
            attrs: q.record.clone(),
        };
        let t0 = Instant::now();
        let c = index.candidates(&rec, K);
        probe_us.push(t0.elapsed().as_secs_f64() * 1e6);
        cands += c.len();
        hits += usize::from(
            c.iter()
                .any(|c| index.get(c.right).map(|e| e.id == q.truth).unwrap_or(false)),
        );
    }
    let mut upsert_us = Vec::with_capacity(writes.len());
    let mut delete_us = Vec::with_capacity(writes.len());
    for (i, w) in writes.iter().enumerate() {
        let e = Entity {
            id: format!("layer-probe-{i}"),
            attrs: w.clone(),
        };
        let t0 = Instant::now();
        index.upsert(e);
        upsert_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    for i in 0..writes.len() {
        let id = format!("layer-probe-{i}");
        let t0 = Instant::now();
        index.delete(&id);
        delete_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let n = queries.len().max(1) as f64;
    vec![
        ("block.probe_us.p50", quantile(&probe_us, 0.5)),
        ("block.probe_us.p99", quantile(&probe_us, 0.99)),
        ("block.candidates_per_probe", cands as f64 / n),
        ("block.hit_share", hits as f64 / n),
        ("block.upsert_us.p50", quantile(&upsert_us, 0.5)),
        ("block.delete_us.p50", quantile(&delete_us, 0.5)),
    ]
}

/// Left table, right table and the diagonal truth (row i matches row i
/// where the pair is labelled a match), as `blocking_quality` builds them.
pub fn unzip(pairs: &[EntityPair]) -> (Vec<Entity>, Vec<Entity>, Vec<(usize, usize)>) {
    let left = pairs.iter().map(|p| p.a.clone()).collect();
    let right = pairs.iter().map(|p| p.b.clone()).collect();
    let truth = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.matching)
        .map(|(i, _)| (i, i))
        .collect();
    (left, right, truth)
}

/// The parts of one `match_tables` call — TF-IDF blocker build, batch
/// probe, scoring — timed separately through the same public functions,
/// plus the share of a whole call (on `server`, same weights as `model`)
/// they account for. Each time is the faster of two tries, taken back to
/// back, which keeps one scheduler stall from deciding the share.
pub fn table(
    model: &InferenceModel,
    enc: &PairEncoder,
    server: &MatchServer,
    left: &[Entity],
    right: &[Entity],
    truth: &[(usize, usize)],
) -> (Layer, f64) {
    let best = |f: &dyn Fn() -> f64| f().min(f());
    let call_s =
        best(&|| timed(|| server.match_tables(left, right, BlockerKind::TfIdf, K, 32, None)).0);
    let build_s = best(&|| timed(|| build_blocker(BlockerKind::TfIdf, right)).0);
    let blocker = build_blocker(BlockerKind::TfIdf, right);
    let query_s = best(&|| timed(|| blocker.block(left, K)).0);
    let blocked = blocker.block(left, K);
    let pairs: Vec<dader_core::EntityPair> = blocked
        .iter()
        .enumerate()
        .flat_map(|(i, cs)| cs.iter().map(move |c| (i, c.right)))
        .map(|(i, j)| (left[i].attrs.clone(), right[j].attrs.clone()))
        .collect();
    let score_s = best(&|| timed(|| model.predict_pairs(&pairs, enc, 32)).0);
    let unique: HashSet<&dader_core::EntityPair> = pairs.iter().collect();
    let hits = truth
        .iter()
        .filter(|&&(i, j)| blocked[i].iter().any(|c| c.right == j))
        .count();
    let layer = vec![
        ("block.build_s", build_s),
        ("block.query_s", query_s),
        (
            "block.candidates_per_probe",
            pairs.len() as f64 / blocked.len().max(1) as f64,
        ),
        ("block.hit_share", hits as f64 / truth.len().max(1) as f64),
        ("match.score_s", score_s),
        (
            "match.unique_pair_share",
            unique.len() as f64 / pairs.len().max(1) as f64,
        ),
    ];
    (layer, (build_s + query_s + score_s) / call_s)
}

/// `train.*` metrics from the program's span table after a traced
/// transfer of `wall_s` seconds.
pub fn train_spans(epoch_s: f64, eval_pairs_per_s: f64, wall_s: f64) -> Layer {
    let spans = dader_obs::span::timing_snapshot();
    let self_s = |pred: &dyn Fn(&str) -> bool| {
        spans
            .iter()
            .filter(|s| pred(s.name))
            .map(|s| s.self_ns as f64 / 1e9)
            .sum::<f64>()
    };
    vec![
        ("train.epoch_s", epoch_s),
        ("eval.pairs_per_s", eval_pairs_per_s),
        ("train.backward_s", self_s(&|n| n == "backward")),
        ("train.gemm_s", self_s(&|n| n == "gemm" || n == "bmm")),
        ("train.adam_s", self_s(&|n| n == "adam.step")),
        ("train.aligner_s", self_s(&|n| n.starts_with("loss."))),
        ("train.extract_s", self_s(&|n| n == "extract.lm")),
        ("train.span_coverage", self_s(&|_| true) / wall_s),
    ]
}

/// A short InvGAN+KD transfer on the workload's pairs, starting from the
/// served model's weights, with the program's spans on.
fn train(art: &ModelArtifact, data: &ErDataset) -> Result<Layer, String> {
    let (model, enc) = art.instantiate().map_err(|e| e.to_string())?;
    let parts = data.split(&[2, 1], 7);
    let task = DaTask {
        source: &parts[0],
        target_train: &parts[1],
        target_val: &parts[1],
        source_test: None,
        target_test: None,
        encoder: &enc,
    };
    let cfg = TrainConfig {
        epochs: 1,
        iters_per_epoch: Some(4),
        step1_epochs: 1,
        ..Scale::Quick.train_config()
    };
    dader_obs::span::reset_timing();
    dader_obs::span::set_enabled(true);
    let (train_s, out) = timed(|| train_da(&task, model.extractor, AlignerKind::InvGanKd, &cfg));
    let (eval_s, _) = timed(|| out.model.evaluate(&parts[1], &enc, 32));
    dader_obs::span::set_enabled(false);
    let epochs = out.history.len().max(1) as f64;
    Ok(train_spans(
        train_s / epochs,
        parts[1].len() as f64 / eval_s,
        train_s + eval_s,
    ))
}

/// A `StreamingIndex` over the right-hand records of `data`, saved and
/// reloaded (the `.ddri` load path), then probed with the left-hand
/// records of its matching pairs.
fn index(data: &ErDataset) -> Result<Layer, String> {
    let right: Vec<Entity> = data
        .pairs
        .iter()
        .enumerate()
        .map(|(i, p)| Entity {
            id: format!("r{i}"),
            attrs: p.b.attrs.clone(),
        })
        .collect();
    let path = cache_dir().join(format!("probe-{}.ddri", std::process::id()));
    StreamingIndex::build(StreamKind::Lsh(LshParams::default()), &right)
        .save_file(&path)
        .map_err(|e| e.to_string())?;
    let (load_s, idx) = timed(|| StreamingIndex::load_file(&path));
    let _ = std::fs::remove_file(&path);
    let mut idx = idx.map_err(|e| e.to_string())?;
    let queries: Vec<Query> = data
        .pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.matching)
        .map(|(i, p)| Query {
            record: p.a.attrs.clone(),
            truth: format!("r{i}"),
        })
        .collect();
    let writes: Vec<Attrs> = data
        .pairs
        .iter()
        .take(256)
        .map(|p| p.a.attrs.clone())
        .collect();
    let mut layer = block_stream(&mut idx, &queries, &writes);
    layer.push(("block.load_s", load_s));
    Ok(layer)
}

/// Push the metrics of `layer` that `res` does not hold yet.
fn extend_missing(res: &mut RunResult, layer: Layer) {
    for (k, v) in layer {
        if !res.has_layer(k) {
            res.layers.push((k, v));
        }
    }
}

/// Run every probe whose metrics `res` does not hold yet, on `data` (the
/// workload's labelled pairs), the served artifacts and the run's seed,
/// and list the metrics it added in the report as `probed_layers`.
pub fn fill(
    assets: &Assets,
    data: &[EntityPair],
    seed: u64,
    res: &mut RunResult,
) -> Result<(), String> {
    let own = res.layers.len();
    probe_missing(assets, data, seed, res)?;
    let probed = res.layers[own..]
        .iter()
        .map(|(k, _)| serde::Value::String(k.to_string()))
        .collect();
    res.report = std::mem::take(&mut res.report).val("probed_layers", serde::Value::Array(probed));
    Ok(())
}

fn probe_missing(
    assets: &Assets,
    data: &[EntityPair],
    seed: u64,
    res: &mut RunResult,
) -> Result<(), String> {
    let probe = ErDataset {
        name: "probe".into(),
        domain: "probe".into(),
        pairs: data[..data.len().min(PROBE_PAIRS)].to_vec(),
    };
    let load = |p: &std::path::Path| ModelArtifact::load_file(p).map_err(|e| e.to_string());
    let build = |a: &ModelArtifact| InferenceModel::from_artifact(a).map_err(|e| e.to_string());
    let art = load(&assets.f32_path)?;
    let f32m = build(&art)?;
    let enc = PairEncoder::from_state(art.encoder.clone())?;
    if !res.has_layer("artifact.load_s") {
        let (mut load_s, mut inst_s) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (l, a) = timed(|| load(&assets.int8_path));
            let (i, m) = timed(|| build(&a?));
            m?;
            load_s.push(l);
            inst_s.push(i);
        }
        res.layers.push(("artifact.load_s", median(&load_s)));
        res.layers.push(("artifact.instantiate_s", median(&inst_s)));
    }
    if !res.has_layer("datagen.generate_s") {
        let (s, _) = timed(|| {
            DatasetId::all()
                .iter()
                .map(|id| id.generate_scaled(seed, Scale::Quick.dataset_cap()))
                .collect::<Vec<_>>()
        });
        res.layers.push(("datagen.generate_s", s));
    }
    if !res.has_layer("pretrain.build_s") {
        let scale = Scale::Quick;
        let (s, _) = timed(|| {
            PretrainedLm::build(
                &[&probe],
                scale.max_len(),
                scale.lm_config(),
                &PretrainConfig {
                    steps: PRETRAIN_PROBE_STEPS,
                    ..PretrainConfig::default()
                },
            )
        });
        res.layers.push(("pretrain.build_s", s));
    }
    if !res.has_layer("text.encode_us_per_pair") {
        let int8 = build(&load(&assets.int8_path)?)?;
        let sample: Vec<_> = data
            .iter()
            .take(2048)
            .map(|p| (&p.a.attrs, &p.b.attrs))
            .collect();
        let t = text(&enc, &sample);
        let real = t[1].1;
        extend_missing(res, t);
        extend_missing(
            res,
            infer(&int8, &f32m, &art.extractor, &enc, &sample, real),
        );
    }
    if !res.has_layer("block.probe_us.p50") {
        extend_missing(res, index(&probe)?);
    }
    if !res.has_layer("block.build_s") {
        let (left, right, truth) = unzip(&probe.pairs);
        let server = MatchServer::from_inference(build(&art)?, enc.clone(), "probe");
        let (layer, share) = table(&f32m, &enc, &server, &left, &right, &truth);
        extend_missing(res, layer);
        res.stage_share("match.stage_share", share);
    }
    if !res.has_layer("train.epoch_s") {
        extend_missing(res, train(&art, &probe)?);
    }
    if !res.has_layer("serve.queue_ms.p50") {
        crate::serving::serve_probe(assets, data, seed, res)?;
    }
    Ok(())
}
