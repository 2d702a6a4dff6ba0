//! Training loops: Algorithm 1 (discrepancy / GRL / reconstruction, and
//! the NoDA baseline), Algorithm 2 (GAN-based), and the dispatcher that
//! routes an [`AlignerKind`] to the right template.

pub mod algorithm1;
pub mod algorithm2;
pub mod config;
mod features;
pub mod health;
pub mod resume;
pub mod telemetry;

pub use algorithm1::{grl_lambda, grl_progress, train_algorithm1, DaTask, TrainOutcome};
pub use algorithm2::train_algorithm2;
pub use config::{EpochStat, ParallelConfig, TrainConfig};
pub use health::{HealthConfig, HealthGuard};
pub use resume::{TrainCheckpoint, TRAIN_CHECKPOINT_MAGIC};
pub use telemetry::{EpochReport, RunTelemetry};

use crate::aligner::AlignerKind;
use crate::extractor::FeatureExtractor;

/// Train a DA-for-ER model with any method from the design space,
/// dispatching to Algorithm 1 or Algorithm 2 as appropriate.
pub fn train_da(
    task: &DaTask<'_>,
    extractor: Box<dyn FeatureExtractor>,
    kind: AlignerKind,
    cfg: &TrainConfig,
) -> TrainOutcome {
    if kind.uses_algorithm2() {
        train_algorithm2(task, extractor, kind, cfg)
    } else {
        train_algorithm1(task, extractor, kind, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::LmExtractor;
    use dader_datagen::DatasetId;
    use dader_nn::TransformerConfig;
    use dader_text::{PairEncoder, Vocab};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dispatcher_routes_both_algorithms() {
        let src = DatasetId::FZ.generate_scaled(3, 80);
        let tgt = DatasetId::ZY.generate_scaled(3, 80);
        let splits = tgt.split(&[1, 9], 1);
        let val = splits[0].clone();
        let mut text = src.all_text();
        text.push_str(&tgt.all_text());
        let vocab = Vocab::build(
            dader_text::tokenize(&text).iter().map(|s| s.as_str()),
            1,
            4000,
        );
        let encoder = PairEncoder::new(vocab, 20);
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &encoder,
        };
        let cfg = TrainConfig {
            epochs: 1,
            step1_epochs: 1,
            iters_per_epoch: Some(2),
            batch_size: 8,
            ..TrainConfig::default()
        };
        let make = || -> Box<dyn FeatureExtractor> {
            let mut rng = StdRng::seed_from_u64(1);
            Box::new(LmExtractor::new(
                TransformerConfig {
                    vocab: encoder.vocab().len(),
                    dim: 16,
                    layers: 1,
                    heads: 2,
                    ffn_dim: 32,
                    max_len: 20,
                },
                &mut rng,
            ))
        };
        for kind in [AlignerKind::Mmd, AlignerKind::InvGan] {
            let out = train_da(&task, make(), kind, &cfg);
            // Algorithm 2 snapshots at 2x granularity per epoch.
            let expect = if kind.uses_algorithm2() { 2 } else { 1 };
            assert_eq!(out.history.len(), expect, "{kind}");
        }
    }
}
