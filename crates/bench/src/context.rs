//! Shared experiment context: generates every benchmark dataset once,
//! builds the joint vocabulary, and MLM-pre-trains the LM trunk once — the
//! stand-in for downloading pre-trained BERT (DESIGN.md §2).

use std::collections::HashMap;

use dader_core::extractor::{FeatureExtractor, LmExtractor, RnnExtractor};
use dader_core::pretrain::{PretrainConfig, PretrainedLm};
use dader_core::train::{train_da, DaTask, TrainConfig, TrainOutcome};
use dader_core::AlignerKind;
use dader_datagen::{DatasetId, ErDataset};
use dader_text::PairEncoder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scale::Scale;

/// Apply the shared logging knobs to the process-wide level: the
/// `DADER_LOG` environment variable first (`quiet`/`info`/`verbose`),
/// then the `--quiet` / `--verbose` flags, which win over the
/// environment. Unknown `DADER_LOG` values warn and keep the default.
pub fn apply_log_args() {
    use dader_obs::log::{set_level, Level};
    if let Ok(v) = std::env::var("DADER_LOG") {
        match Level::parse(&v) {
            Some(l) => {
                set_level(l);
            }
            None => eprintln!("warn: DADER_LOG={v:?} not one of quiet|info|verbose; ignored"),
        }
    }
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--verbose") {
        set_level(Level::Verbose);
    }
    if args.iter().any(|a| a == "--quiet") {
        set_level(Level::Quiet);
    }
}

/// Print a progress line to stderr unless the process is `--quiet`.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        if $crate::dader_obs::log::info_enabled() {
            eprintln!($($arg)*);
        }
    };
}

/// Print a detail line to stderr only under `--verbose`.
#[macro_export]
macro_rules! chat {
    ($($arg:tt)*) => {
        if $crate::dader_obs::log::verbose_enabled() {
            eprintln!($($arg)*);
        }
    };
}

/// A prepared target: the paper's 1:9 validation/test split.
pub struct TargetSplits {
    /// Validation split (model selection only).
    pub val: ErDataset,
    /// Test split (reported numbers).
    pub test: ErDataset,
}

/// Everything the experiment binaries share.
pub struct Context {
    /// The experiment scale.
    pub scale: Scale,
    /// All 13 datasets at the chosen scale, generation seed 1.
    datasets: HashMap<DatasetId, ErDataset>,
    /// Target splits per dataset (split seed 7).
    splits: HashMap<DatasetId, TargetSplits>,
    /// The pre-trained LM (vocabulary, encoder, weights).
    pub lm: PretrainedLm,
}

impl Context {
    /// Build the full context for a scale (generates data + pre-trains).
    pub fn new(scale: Scale) -> Context {
        let mut datasets = HashMap::new();
        for id in DatasetId::all() {
            datasets.insert(id, id.generate_scaled(1, scale.dataset_cap()));
        }
        let refs: Vec<&ErDataset> = DatasetId::all().iter().map(|id| &datasets[id]).collect();
        let lm = PretrainedLm::build(
            &refs,
            scale.max_len(),
            scale.lm_config(),
            &PretrainConfig {
                steps: scale.pretrain_steps(),
                batch_size: 16,
                lr: 1e-3,
                mask_prob: 0.15,
                seed: 13,
            },
        );
        let mut splits = HashMap::new();
        for id in DatasetId::all() {
            let parts = datasets[&id].split(&[1, 9], 7);
            splits.insert(
                id,
                TargetSplits {
                    val: parts[0].clone(),
                    test: parts[1].clone(),
                },
            );
        }
        Context {
            scale,
            datasets,
            splits,
            lm,
        }
    }

    /// A dataset at this scale.
    pub fn dataset(&self, id: DatasetId) -> &ErDataset {
        &self.datasets[&id]
    }

    /// The target-side val/test splits of a dataset.
    pub fn target_splits(&self, id: DatasetId) -> &TargetSplits {
        &self.splits[&id]
    }

    /// The shared pair encoder.
    pub fn encoder(&self) -> &PairEncoder {
        &self.lm.encoder
    }

    /// Fresh LM extractor loaded with the pre-trained trunk (frozen,
    /// adapter-style — see DESIGN.md §2).
    pub fn lm_extractor(&self, seed: u64) -> Box<dyn FeatureExtractor> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(LmExtractor::from_encoder(self.lm.instantiate(&mut rng)).freeze_trunk())
    }

    /// Fresh RNN extractor (design choice I, trained from scratch).
    pub fn rnn_extractor(&self, seed: u64) -> Box<dyn FeatureExtractor> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = self.lm.config.dim;
        Box::new(RnnExtractor::new(
            self.lm.vocab.len(),
            dim.min(32),
            dim / 2,
            dim,
            &mut rng,
        ))
    }

    /// Run one DA transfer with one method and seed; returns the outcome
    /// plus test F1.
    pub fn run_transfer(
        &self,
        source: DatasetId,
        target: DatasetId,
        kind: AlignerKind,
        seed: u64,
        use_rnn: bool,
        cfg_override: Option<TrainConfig>,
    ) -> (TrainOutcome, f32) {
        let src = self.dataset(source);
        let tgt = self.dataset(target);
        let splits = self.target_splits(target);
        let task = DaTask {
            source: src,
            target_train: tgt,
            target_val: &splits.val,
            source_test: Some(src),
            target_test: Some(&splits.test),
            encoder: self.encoder(),
        };
        let cfg = cfg_override.unwrap_or_else(|| TrainConfig {
            beta: kind.default_beta(),
            seed,
            ..self.scale.train_config()
        });
        let cfg = TrainConfig { seed, ..cfg };
        let extractor = if use_rnn {
            self.rnn_extractor(seed)
        } else {
            self.lm_extractor(seed)
        };
        let out = train_da(&task, extractor, kind, &cfg);
        let f1 = out
            .model
            .evaluate(&splits.test, self.encoder(), cfg.eval_batch)
            .f1();
        (out, f1)
    }

    /// Repeated-seeds F1 for one (source, target, method) cell.
    pub fn run_cell(
        &self,
        source: DatasetId,
        target: DatasetId,
        kind: AlignerKind,
        use_rnn: bool,
    ) -> Vec<f32> {
        self.scale
            .seeds()
            .iter()
            .map(|&seed| self.run_transfer(source, target, kind, seed, use_rnn, None).1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_context_builds_and_runs() {
        let ctx = Context::new(Scale::Tiny);
        assert_eq!(ctx.dataset(DatasetId::FZ).len(), 200);
        let splits = ctx.target_splits(DatasetId::ZY);
        assert_eq!(splits.val.len() + splits.test.len(), 200);
        let (out, f1) = ctx.run_transfer(
            DatasetId::FZ,
            DatasetId::ZY,
            AlignerKind::NoDa,
            1,
            false,
            None,
        );
        assert!(!out.history.is_empty());
        assert!((0.0..=100.0).contains(&f1));
    }

    /// Pins the Tiny-scale MLM-pretrained trunk bit for bit: a CRC-32 over
    /// every snapshot entry's dims and little-endian weights. Pretraining
    /// runs every taped GEMM layout forward and backward, so any kernel
    /// change that reorders an accumulation moves this value.
    #[test]
    fn tiny_pretrained_trunk_weights_are_pinned() {
        let ctx = Context::new(Scale::Tiny);
        let mut bytes = Vec::new();
        for (dims, w) in ctx.lm.weights.entries() {
            for &d in dims {
                bytes.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for v in w {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        let crc = dader_core::artifact::crc32(&bytes);
        assert_eq!(format!("{crc:08x}"), "b4cf4f44", "{} weights", ctx.lm.weights.numel());
    }
}
