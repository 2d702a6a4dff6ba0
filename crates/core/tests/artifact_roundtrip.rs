//! End-to-end persistence proof: train a tiny transfer with
//! `save_artifact` set, reload the artifact into a completely fresh
//! model, and verify bitwise-identical predictions, probabilities and F1
//! against the in-memory model.

use dader_core::artifact::ModelArtifact;
use dader_core::train::{train_da, DaTask, TrainConfig};
use dader_core::{AlignerKind, DaderModel, EntityPair, InferenceModel, LmExtractor};
use dader_datagen::DatasetId;
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn train_save_reload_is_bitwise_identical() {
    let src = DatasetId::FZ.generate_scaled(1, 120);
    let tgt = DatasetId::ZY.generate_scaled(1, 120);
    let splits = tgt.split(&[1, 9], 7);
    let (val, test) = (&splits[0], &splits[1]);
    let mut text = src.all_text();
    text.push_str(&tgt.all_text());
    let vocab = Vocab::build(
        dader_text::tokenize(&text).iter().map(|s| s.as_str()),
        1,
        4000,
    );
    let encoder = PairEncoder::new(vocab, 28);

    let path = std::env::temp_dir().join(format!("dader_e2e_test_{}.dma", std::process::id()));
    let cfg = TrainConfig {
        epochs: 2,
        iters_per_epoch: Some(3),
        batch_size: 8,
        lr: 1e-3,
        save_artifact: Some(path.clone()),
        ..TrainConfig::default()
    };
    let task = DaTask {
        source: &src,
        target_train: &tgt,
        target_val: val,
        source_test: None,
        target_test: Some(test),
        encoder: &encoder,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let extractor = Box::new(LmExtractor::new(
        TransformerConfig {
            vocab: encoder.vocab().len(),
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 28,
        },
        &mut rng,
    ));
    let out = train_da(&task, extractor, AlignerKind::Mmd, &cfg);

    // reload into a completely fresh model
    let art = ModelArtifact::load_file(&path).expect("artifact written by training");
    std::fs::remove_file(&path).unwrap();
    let (reloaded, renc) = art.instantiate().expect("fresh model from artifact");

    // the reloaded encoder reproduces the training-time tokenization
    let p = &src.pairs[0];
    assert_eq!(
        renc.encode_pair(&p.a.attrs, &p.b.attrs),
        encoder.encode_pair(&p.a.attrs, &p.b.attrs)
    );

    // predictions, probabilities and F1 are bitwise identical
    let pairs: Vec<EntityPair> = test
        .pairs
        .iter()
        .map(|p| (p.a.attrs.clone(), p.b.attrs.clone()))
        .collect();
    let scores = |m: &DaderModel, enc: &PairEncoder| {
        InferenceModel::from_model(m)
            .predict_pairs(&pairs, enc, 16)
            .into_iter()
            .map(|(label, prob)| (label, prob.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(scores(&reloaded, &renc), scores(&out.model, &encoder));
    assert_eq!(
        reloaded.evaluate(test, &renc, 16).f1().to_bits(),
        out.model.evaluate(test, &encoder, 16).f1().to_bits()
    );

    // provenance captured
    assert!(art.description.contains("MMD"), "{}", art.description);
    assert!(art.description.contains("epoch"), "{}", art.description);
}
