//! The pre-head feature table is exact: a frozen-trunk transfer that
//! gathers its pre-head rows from the table trains bit for bit like the
//! same transfer through the taped trunk, for every aligner.
//!
//! `Taped` wraps a frozen `LmExtractor` but keeps the default
//! `frozen_trunk` (`None`), so training through it runs the taped
//! extractor on every batch and evaluation while the bare extractor
//! takes the table. A trainable trunk must take the taped
//! path on its own, and its trunk weights must move.

use std::sync::OnceLock;

use dader_core::train::{train_da, DaTask, TrainConfig, TrainOutcome};
use dader_core::{AlignerKind, EncodedBatch, ExtractorSpec, FeatureExtractor, LmExtractor};
use dader_datagen::{DatasetId, ErDataset};
use dader_nn::TransformerConfig;
use dader_tensor::{Param, Tensor};
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Delegates everything to the wrapped extractor except `frozen_trunk`.
struct Taped(Box<dyn FeatureExtractor>);

impl FeatureExtractor for Taped {
    fn extract(&self, batch: &EncodedBatch) -> Tensor {
        self.0.extract(batch)
    }
    fn feat_dim(&self) -> usize {
        self.0.feat_dim()
    }
    fn params(&self) -> Vec<Param> {
        self.0.params()
    }
    fn clone_detached(&self) -> Box<dyn FeatureExtractor> {
        Box::new(Taped(self.0.clone_detached()))
    }
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn spec(&self) -> ExtractorSpec {
        self.0.spec()
    }
}

struct Fixture {
    source: ErDataset,
    target: ErDataset,
    val: ErDataset,
    test: ErDataset,
    encoder: PairEncoder,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let source = DatasetId::FZ.generate_scaled(2, 70);
        let target = DatasetId::ZY.generate_scaled(2, 70);
        let splits = target.split(&[1, 2], 3);
        let mut text = source.all_text();
        text.push_str(&target.all_text());
        let vocab = Vocab::build(
            dader_text::tokenize(&text).iter().map(|s| s.as_str()),
            1,
            4000,
        );
        Fixture {
            source,
            target,
            val: splits[0].clone(),
            test: splits[1].clone(),
            encoder: PairEncoder::new(vocab, 20),
        }
    })
}

fn lm(vocab: usize, layers: usize) -> LmExtractor {
    let cfg = TransformerConfig {
        vocab,
        dim: 16,
        layers,
        heads: 2,
        ffn_dim: 32,
        max_len: 20,
    };
    LmExtractor::new(cfg, &mut StdRng::seed_from_u64(23))
}

fn train(kind: AlignerKind, extractor: Box<dyn FeatureExtractor>) -> TrainOutcome {
    let f = fixture();
    // `source_test` is the source itself, as in `dader run`: its table
    // is the source's.
    let task = DaTask {
        source: &f.source,
        target_train: &f.target,
        target_val: &f.val,
        source_test: Some(&f.source),
        target_test: Some(&f.test),
        encoder: &f.encoder,
    };
    let cfg = TrainConfig {
        epochs: 2,
        step1_epochs: 2,
        iters_per_epoch: Some(3),
        batch_size: 8,
        eval_batch: 16,
        lr: 1e-3,
        beta: kind.default_beta(),
        track_source_f1: true,
        track_target_f1: true,
        ..TrainConfig::default()
    };
    train_da(&task, extractor, kind, &cfg)
}

fn bits(params: &[Param]) -> Vec<(String, Vec<u32>)> {
    params
        .iter()
        .map(|p| {
            (
                p.name().to_string(),
                p.snapshot().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

fn opt_bits(v: Option<f32>) -> Option<u32> {
    v.map(f32::to_bits)
}

fn assert_same_run(kind: AlignerKind, got: &TrainOutcome, want: &TrainOutcome) {
    assert_eq!(got.best_epoch, want.best_epoch, "{kind}: best epoch");
    assert_eq!(
        got.best_val_f1.to_bits(),
        want.best_val_f1.to_bits(),
        "{kind}: best F1"
    );
    assert_eq!(got.history.len(), want.history.len(), "{kind}: epochs");
    for (g, w) in got.history.iter().zip(&want.history) {
        assert_eq!(g.epoch, w.epoch, "{kind}");
        assert_eq!(
            g.val_f1.to_bits(),
            w.val_f1.to_bits(),
            "{kind} epoch {}: val F1",
            g.epoch
        );
        assert_eq!(
            opt_bits(g.source_f1),
            opt_bits(w.source_f1),
            "{kind} epoch {}: source F1",
            g.epoch
        );
        assert_eq!(
            opt_bits(g.target_f1),
            opt_bits(w.target_f1),
            "{kind} epoch {}: target F1",
            g.epoch
        );
        assert_eq!(
            g.loss_m.to_bits(),
            w.loss_m.to_bits(),
            "{kind} epoch {}: loss_m",
            g.epoch
        );
        assert_eq!(
            g.loss_a.to_bits(),
            w.loss_a.to_bits(),
            "{kind} epoch {}: loss_a",
            g.epoch
        );
    }
    assert!(
        got.history
            .iter()
            .all(|h| h.source_f1.is_some() && h.target_f1.is_some()),
        "{kind}: both curves tracked"
    );
    assert!(
        bits(&got.model.params()) == bits(&want.model.params()),
        "{kind}: returned parameters differ"
    );
}

/// With one layer the table's trunk is only the `[CLS]`-only last layer;
/// with two, a full-length layer runs beneath it.
#[test]
fn table_trains_bitwise_like_the_taped_trunk_for_every_aligner() {
    let vocab = fixture().encoder.vocab().len();
    for layers in [1, 2] {
        for kind in AlignerKind::all() {
            let frozen = lm(vocab, layers).freeze_trunk();
            assert!(frozen.frozen_trunk().is_some());
            let trunk_before = bits(&frozen.encoder().params());

            let cached = train(kind, Box::new(frozen));
            let taped = train(
                kind,
                Box::new(Taped(Box::new(lm(vocab, layers).freeze_trunk()))),
            );
            assert_same_run(kind, &cached, &taped);

            // The frozen trunk never moves; its weights come first in params().
            let trunk_after = bits(&cached.model.params()[..trunk_before.len()]);
            assert!(
                trunk_after == trunk_before,
                "{kind}, {layers} layers: frozen trunk changed"
            );
        }
    }
}

#[test]
fn trainable_trunk_takes_the_taped_path() {
    let vocab = fixture().encoder.vocab().len();
    let unfrozen = || {
        let e = lm(vocab, 1).freeze_trunk();
        e.unfreeze_trunk();
        e
    };
    let e = unfrozen();
    assert!(e.frozen_trunk().is_none(), "a trainable trunk has no table");
    let trunk_before = bits(&e.encoder().params());

    let bare = train(AlignerKind::Mmd, Box::new(e));
    let taped = train(AlignerKind::Mmd, Box::new(Taped(Box::new(unfrozen()))));
    assert_same_run(AlignerKind::Mmd, &bare, &taped);

    let trunk_after = bits(&bare.model.params()[..trunk_before.len()]);
    assert!(trunk_after != trunk_before, "a trainable trunk must train");
}
