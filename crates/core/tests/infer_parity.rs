//! Differential parity harness: the tape-free [`InferenceModel`] against
//! the taped training forward.
//!
//! The contract under test, end to end:
//!
//! * `InferenceModel::from_model` — **bitwise identical** features,
//!   logits, predictions, probabilities and `predict_pairs` output for
//!   both extractor designs (LM and RNN);
//! * a full F1-parity gate: taped vs tape-free evaluation produces the
//!   identical confusion matrix on every one of the 13 benchmark
//!   datasets;
//! * `InferenceModel::from_artifact` on an f32 (version-1) artifact —
//!   still bitwise identical after a disk roundtrip;
//! * the int8-quantized artifact leg — probabilities within a small
//!   tolerance of the f32 path (the trained-model F1-delta ≤ 0.01 gate
//!   runs over the real benchmark in `dader run`'s eval comparison).

use dader_core::artifact::ModelArtifact;
use dader_core::extractor::{FeatureExtractor, LmExtractor, RnnExtractor};
use dader_core::{encode_all, DaderModel, EntityPair, InferenceModel, Matcher, Metrics};
use dader_datagen::{DatasetId, ErDataset};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A vocabulary over every benchmark dataset, so one encoder serves the
/// 13-dataset parity gate.
fn full_encoder(max_len: usize) -> PairEncoder {
    let mut text = String::new();
    for id in DatasetId::all() {
        text.push_str(&id.generate_scaled(5, 40).all_text());
        text.push(' ');
    }
    let vocab = Vocab::build(
        dader_text::tokenize(&text).iter().map(|s| s.as_str()),
        1,
        8000,
    );
    PairEncoder::new(vocab, max_len)
}

fn lm_model(encoder: &PairEncoder, seed: u64) -> DaderModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let extractor = LmExtractor::new(
        TransformerConfig {
            vocab: encoder.vocab().len(),
            dim: 16,
            layers: 2,
            heads: 2,
            ffn_dim: 32,
            max_len: encoder.max_len(),
        },
        &mut rng,
    );
    let matcher = Matcher::new(extractor.feat_dim(), &mut rng);
    DaderModel { extractor: Box::new(extractor), matcher }
}

fn rnn_model(encoder: &PairEncoder, seed: u64) -> DaderModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let extractor = RnnExtractor::new(encoder.vocab().len(), 12, 8, 16, &mut rng);
    let matcher = Matcher::new(extractor.feat_dim(), &mut rng);
    DaderModel { extractor: Box::new(extractor), matcher }
}

fn sample_dataset(encoder: &PairEncoder) -> ErDataset {
    let _ = encoder;
    DatasetId::FZ.generate_scaled(7, 60)
}

/// The taped reference the tape-free model is held to: `(label, match
/// probability)` per pair of `dataset`, in order, through the training
/// extractor and matcher.
fn taped_scores(model: &DaderModel, dataset: &ErDataset, encoder: &PairEncoder) -> Vec<(usize, f32)> {
    let mut out = Vec::with_capacity(dataset.len());
    for batch in encode_all(dataset, encoder, 16) {
        let f = model.extractor.extract(&batch);
        out.extend(model.matcher.predict(&f).into_iter().zip(model.matcher.match_probs(&f)));
    }
    out
}

/// The bit patterns of `v`: `assert_eq!` on these tells −0.0 from +0.0
/// and passes equal NaNs, where comparing the floats would not.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Features, logits, predictions and probabilities must match the taped
/// forward bit for bit, batch by batch.
fn assert_batchwise_parity(model: &DaderModel, infer: &InferenceModel, encoder: &PairEncoder) {
    let dataset = sample_dataset(encoder);
    let batches = encode_all(&dataset, encoder, 16);
    assert!(!batches.is_empty());
    for batch in &batches {
        let taped_feats = model.extractor.extract(batch);
        let infer_feats = infer.extract(batch);
        assert_eq!(
            bits(&taped_feats.to_vec()),
            bits(&infer_feats),
            "features must be bitwise identical"
        );

        let taped_logits = model.matcher.logits(&taped_feats).to_vec();
        assert_eq!(
            bits(&taped_logits),
            bits(&infer.logits(&infer_feats)),
            "logits must be bitwise identical"
        );
        assert_eq!(
            model.matcher.predict(&taped_feats),
            infer.predict(&infer_feats),
            "predictions must be identical"
        );
        assert_eq!(
            bits(&model.matcher.match_probs(&taped_feats)),
            bits(&infer.match_probs(&infer_feats)),
            "probabilities must be bitwise identical"
        );
    }
}

#[test]
fn lm_forward_is_bitwise_identical_to_taped() {
    let encoder = full_encoder(24);
    let model = lm_model(&encoder, 11);
    let infer = InferenceModel::from_model(&model);
    assert!(!infer.is_quantized());
    assert_batchwise_parity(&model, &infer, &encoder);
}

#[test]
fn rnn_forward_is_bitwise_identical_to_taped() {
    let encoder = full_encoder(24);
    let model = rnn_model(&encoder, 13);
    let infer = InferenceModel::from_model(&model);
    assert_batchwise_parity(&model, &infer, &encoder);
}

#[test]
fn predict_pairs_is_bitwise_identical_including_dedup() {
    let encoder = full_encoder(24);
    let model = lm_model(&encoder, 17);
    let infer = InferenceModel::from_model(&model);

    let dataset = sample_dataset(&encoder);
    let reference = taped_scores(&model, &dataset, &encoder);
    // Duplicate pairs on purpose: the dedup + scatter path must hand
    // every occurrence its pair's taped result.
    let order: Vec<usize> = (0..20).chain([3, 0]).collect();
    let pairs: Vec<EntityPair> = order
        .iter()
        .map(|&i| (dataset.pairs[i].a.attrs.clone(), dataset.pairs[i].b.attrs.clone()))
        .collect();
    let taped: Vec<(usize, f32)> = order.iter().map(|&i| reference[i]).collect();

    for batch_size in [1usize, 7, 32] {
        let tape_free = infer.predict_pairs(&pairs, &encoder, batch_size);
        let split = |v: &[(usize, f32)]| -> (Vec<usize>, Vec<u32>) {
            (
                v.iter().map(|p| p.0).collect(),
                v.iter().map(|p| p.1.to_bits()).collect(),
            )
        };
        assert_eq!(split(&taped), split(&tape_free), "batch_size {batch_size}");
    }
}

/// The headline gate: identical confusion matrix — hence identical F1 —
/// on every one of the 13 benchmark datasets, for both extractor designs.
#[test]
fn evaluation_f1_parity_over_all_13_datasets() {
    let encoder = full_encoder(24);
    for (name, model) in [("lm", lm_model(&encoder, 11)), ("rnn", rnn_model(&encoder, 13))] {
        let infer = InferenceModel::from_model(&model);
        for id in DatasetId::all() {
            let dataset = id.generate_scaled(3, 40);
            let preds: Vec<usize> =
                taped_scores(&model, &dataset, &encoder).into_iter().map(|(p, _)| p).collect();
            let taped = Metrics::from_predictions(&preds, &dataset.labels());
            let tape_free = infer.evaluate(&dataset, &encoder, 16);
            assert_eq!(
                (taped.tp, taped.fp, taped.fn_, taped.tn),
                (tape_free.tp, tape_free.fp, tape_free.fn_, tape_free.tn),
                "{name}/{id}: confusion matrix must be identical"
            );
            assert_eq!(
                taped.f1().to_bits(),
                tape_free.f1().to_bits(),
                "{name}/{id}: F1 must be bitwise equal"
            );
        }
    }
}

#[test]
fn from_artifact_f32_roundtrip_stays_bitwise_identical() {
    let encoder = full_encoder(24);
    let model = lm_model(&encoder, 19);
    let art = ModelArtifact::capture("parity test", &model, &encoder);
    let path = std::env::temp_dir().join(format!("infer_parity_{}.dma", std::process::id()));
    art.save_file(&path).unwrap();
    let art = ModelArtifact::load_file(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert!(!art.is_quantized(), "a plain capture must stay f32");
    let infer = InferenceModel::from_artifact(&art).unwrap();
    assert!(!infer.is_quantized());
    assert_batchwise_parity(&model, &infer, &encoder);
}

#[test]
fn quantized_artifact_probabilities_stay_close() {
    let encoder = full_encoder(24);
    for (name, model) in [("lm", lm_model(&encoder, 23)), ("rnn", rnn_model(&encoder, 29))] {
        let art = ModelArtifact::capture("parity test", &model, &encoder);
        let qart = art.quantize().unwrap();
        assert!(qart.is_quantized(), "{name}: quantize must produce int8 entries");

        let path = std::env::temp_dir().join(format!(
            "infer_parity_{}_{}_int8.dma",
            std::process::id(),
            name
        ));
        qart.save_file(&path).unwrap();
        let qart = ModelArtifact::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(qart.is_quantized(), "{name}: int8 entries must survive the disk roundtrip");

        let f32_model = InferenceModel::from_model(&model);
        let int8_model = InferenceModel::from_artifact(&qart).unwrap();
        assert!(int8_model.is_quantized());

        let dataset = sample_dataset(&encoder);
        let batches = encode_all(&dataset, &encoder, 16);
        for batch in &batches {
            let pf = f32_model.match_probs(&f32_model.extract(batch));
            let pq = int8_model.match_probs(&int8_model.extract(batch));
            assert_eq!(pf.len(), pq.len());
            for (a, b) in pf.iter().zip(&pq) {
                assert!(
                    (a - b).abs() < 0.15,
                    "{name}: quantized probability drifted: {a} vs {b}"
                );
            }
        }
    }
}
