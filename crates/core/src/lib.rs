//! # dader-core
//!
//! The DADER framework (Tu et al., *Domain Adaptation for Deep Entity
//! Resolution*, SIGMOD 2022), reproduced in Rust.
//!
//! The framework follows the paper's three-module architecture:
//!
//! * **Feature Extractor** `F` ([`extractor`]) — (I) bidirectional RNN or
//!   (II) pre-trained LM (a small transformer MLM-pre-trained on a
//!   multi-domain corpus, the BERT substitute — see [`pretrain`]);
//! * **Matcher** `M` ([`matcher`]) — an MLP binary classifier;
//! * **Feature Aligner** `A` ([`aligner`]) — six representative methods:
//!   MMD, K-order (CORAL), GRL, InvGAN, InvGAN+KD, and ED.
//!
//! Training follows the paper's Algorithm 1 ([`train::algorithm1`]) and
//! Algorithm 2 ([`train::algorithm2`]); evaluation follows the Section 6.1
//! protocol (target 1:9 val/test split, per-epoch snapshot selection,
//! repeated seeds). The baselines it compares against — NoDA, Reweight,
//! Ditto-style and DeepMatcher-style — live in [`baselines`]; the
//! semi-supervised setting and max-entropy active labeling in [`semi`];
//! the Finding-2 dataset distance in [`distance`].
//!
//! ## Quick start
//!
//! ```no_run
//! use dader_core::{train_da, AlignerKind, DaTask, LmExtractor, PretrainConfig, PretrainedLm, TrainConfig};
//! use dader_datagen::DatasetId;
//! use dader_nn::TransformerConfig;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Labeled source, unlabeled target.
//! let source = DatasetId::WA.generate_scaled(1, 400);
//! let target = DatasetId::AB.generate_scaled(1, 400);
//! let splits = target.split(&[1, 9], 0);
//! let (val, test) = (&splits[0], &splits[1]);
//!
//! // BERT substitute: MLM pre-training over both domains.
//! let lm = PretrainedLm::build(
//!     &[&source, &target],
//!     48,
//!     TransformerConfig::small(0, 48),
//!     &PretrainConfig::default(),
//! );
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let task = DaTask {
//!     source: &source,
//!     target_train: &target,
//!     target_val: val,
//!     source_test: None,
//!     target_test: Some(test),
//!     encoder: &lm.encoder,
//! };
//! let out = train_da(
//!     &task,
//!     Box::new(LmExtractor::from_encoder(lm.instantiate(&mut rng))),
//!     AlignerKind::InvGanKd,
//!     &TrainConfig::default(),
//! );
//! println!("target F1 = {:.1}", out.model.evaluate(test, &lm.encoder, 32).f1());
//! ```

pub mod aligner;
pub mod artifact;
pub mod baselines;
pub mod batch;
pub mod checkpoint;
pub mod distance;
pub mod eval;
pub mod extractor;
pub mod infer;
pub mod matcher;
pub mod model;
pub mod multi_source;
pub mod pretrain;
pub mod semi;
pub mod snapshot;
pub mod train;

pub use aligner::AlignerKind;
pub use artifact::{ArtifactError, ModelArtifact};
pub use batch::{encode_all, Batcher, EncodedBatch};
pub use checkpoint::{Checkpoint, CheckpointEntry, CheckpointError};
pub use distance::{dataset_features, dataset_mmd};
pub use eval::{mean_std, Metrics};
pub use extractor::{ExtractorSpec, FeatureExtractor, LmExtractor, RnnExtractor};
pub use infer::InferenceModel;
pub use matcher::Matcher;
pub use model::{DaderModel, EntityPair};
pub use multi_source::{select_best_source, train_multi_source};
pub use pretrain::{pretrain_mlm, PretrainConfig, PretrainedLm};
pub use snapshot::Snapshot;
pub use train::{train_da, DaTask, EpochStat, TrainConfig, TrainOutcome};
