//! Pre-head feature tables: the frozen trunk runs once per pair per
//! transfer.
//!
//! When nothing beneath the extractor's head trains
//! ([`FeatureExtractor::frozen_trunk`]), each pair's
//! [`LmExtractor::pre_head`] row is a fixed function of the encoded pair.
//! [`PairFeatures`] then computes the rows of a dataset once, on its first
//! use, through a tape-free snapshot of the trunk ([`LmTrunk`], taken once
//! per transfer), and every training batch, precompute and evaluation of
//! the transfer gathers rows from that table and runs only the head above
//! them. A pair's row does not depend on the batch it is computed in, and
//! the tape-free rows are bitwise the taped ones, so the features — and
//! every gradient, loss and snapshot after them — are bitwise those of the
//! taped trunk. Any other extractor (the RNN, a trainable trunk) takes the
//! taped path over encoded batches.
//!
//! The tables are derived state: never persisted, rebuilt by a resumed
//! run. `F' = F.clone_detached()` copies the frozen trunk bit for bit, so
//! `F` and `F'` share one table per dataset.

use std::cell::OnceCell;

use dader_datagen::ErDataset;
use dader_tensor::pool::{current_threads, par_map};
use dader_tensor::Tensor;
use dader_text::PairEncoder;
use rand::rngs::StdRng;

use crate::batch::{encode_all, Batcher, EncodedBatch};
use crate::eval::Metrics;
use crate::extractor::{FeatureExtractor, LmExtractor};
use crate::infer::LmTrunk;
use crate::matcher::Matcher;
use crate::train::algorithm1::DaTask;

/// Rows `indices` of a row-major table of `width`-wide rows, as a
/// `(indices.len(), width)` tensor.
pub(crate) fn gather_rows(rows: &[f32], width: usize, indices: &[usize]) -> Tensor {
    let mut data = Vec::with_capacity(indices.len() * width);
    for &i in indices {
        data.extend_from_slice(&rows[i * width..(i + 1) * width]);
    }
    Tensor::from_vec(data, (indices.len(), width))
}

/// One dataset's pre-head rows, in dataset order.
struct Table {
    rows: Vec<f32>,
    width: usize,
}

impl Table {
    /// Run the frozen trunk over `dataset` once, tape-free, in
    /// `chunk`-pair batches across the engine pool.
    fn build(trunk: &LmTrunk, dataset: &ErDataset, encoder: &PairEncoder, chunk: usize) -> Table {
        let batches = encode_all(dataset, encoder, chunk);
        let parts = par_map(&batches, current_threads(), |b| {
            let _sp = dader_obs::span!("extract.lm");
            trunk.pre_head(b)
        });
        let rows = parts.concat();
        let width = rows.len() / dataset.len().max(1);
        Table { rows, width }
    }
}

/// One sampled minibatch: its dataset indices, encoded only when
/// something reads its tokens (the taped path, the ED aligner's
/// reconstruction target).
pub(crate) struct Sample<'a> {
    dataset: &'a ErDataset,
    encoder: &'a PairEncoder,
    indices: Vec<usize>,
    encoded: OnceCell<EncodedBatch>,
}

impl Sample<'_> {
    /// Dataset indices of the pairs, in batch order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Class labels of the pairs, in batch order.
    pub fn labels(&self) -> Vec<usize> {
        self.indices
            .iter()
            .map(|&i| self.dataset.pairs[i].label())
            .collect()
    }

    /// The encoded batch, encoded on first call.
    pub fn encoded(&self) -> &EncodedBatch {
        self.encoded
            .get_or_init(|| EncodedBatch::from_indices(self.dataset, self.encoder, &self.indices))
    }
}

/// Features of one transfer's datasets, through per-dataset pre-head
/// tables when the extractor's trunk is frozen and through the taped
/// extractor otherwise. The trunk snapshot is taken from the first frozen
/// extractor that asks, so one `PairFeatures` serves extractors that
/// share one frozen trunk (`F` and its clone `F'`).
pub(crate) struct PairFeatures<'a> {
    encoder: &'a PairEncoder,
    /// Pairs per batch of every whole-dataset pass (`cfg.eval_batch`).
    chunk: usize,
    /// Tape-free snapshot of the frozen trunk, taken once per transfer.
    trunk: OnceCell<LmTrunk>,
    tables: Vec<(&'a ErDataset, OnceCell<Table>)>,
}

impl<'a> PairFeatures<'a> {
    /// Tables for the task's datasets — source, target train and
    /// validation, and the test splits it tracks — each built on first use.
    pub fn new(task: &DaTask<'a>, chunk: usize) -> PairFeatures<'a> {
        let datasets = [
            Some(task.source),
            Some(task.target_train),
            Some(task.target_val),
            task.source_test,
            task.target_test,
        ];
        PairFeatures {
            encoder: task.encoder,
            chunk,
            trunk: OnceCell::new(),
            tables: datasets
                .into_iter()
                .flatten()
                .map(|d| (d, OnceCell::new()))
                .collect(),
        }
    }

    /// Draw the next minibatch from `batcher`.
    pub fn sample(&self, batcher: &mut Batcher<'a>, rng: &mut StdRng) -> Sample<'a> {
        Sample {
            dataset: batcher.dataset(),
            encoder: self.encoder,
            indices: batcher.next_indices(rng),
            encoded: OnceCell::new(),
        }
    }

    /// `extractor`'s features of a sampled minibatch, on the tape from the
    /// first trainable parameter up.
    pub fn extract(&self, extractor: &dyn FeatureExtractor, sample: &Sample<'a>) -> Tensor {
        match extractor.frozen_trunk() {
            Some(lm) => {
                let t = self.table(lm, sample.dataset);
                lm.head(&gather_rows(&t.rows, t.width, &sample.indices))
            }
            None => extractor.extract(sample.encoded()),
        }
    }

    /// `f` over `extractor`'s features of all of `dataset`, in batches of
    /// `chunk` pairs in dataset order — the batches [`encode_all`] makes —
    /// across the engine pool. Results come back in dataset order.
    pub fn map_dataset<U: Send>(
        &self,
        extractor: &dyn FeatureExtractor,
        dataset: &'a ErDataset,
        f: impl Fn(Tensor) -> U + Sync,
    ) -> Vec<U> {
        match extractor.frozen_trunk() {
            Some(lm) => {
                let t = self.table(lm, dataset);
                let chunks: Vec<&[f32]> = t.rows.chunks((self.chunk * t.width).max(1)).collect();
                par_map(&chunks, current_threads(), |rows| {
                    let pre = Tensor::from_vec(rows.to_vec(), (rows.len() / t.width, t.width));
                    f(lm.head(&pre))
                })
            }
            None => {
                let batches = encode_all(dataset, self.encoder, self.chunk);
                par_map(&batches, current_threads(), |b| f(extractor.extract(b)))
            }
        }
    }

    /// [`Metrics`] of `(extractor, matcher)` on `dataset`, as
    /// [`crate::InferenceModel::evaluate`] scores them.
    pub fn evaluate(
        &self,
        extractor: &dyn FeatureExtractor,
        matcher: &Matcher,
        dataset: &'a ErDataset,
    ) -> Metrics {
        let _sp = dader_obs::span!("eval");
        let preds = self.map_dataset(extractor, dataset, |x| matcher.predict(&x));
        Metrics::from_predictions(&preds.concat(), &dataset.labels())
    }

    fn table(&self, lm: &LmExtractor, dataset: &ErDataset) -> &Table {
        let (_, cell) = self
            .tables
            .iter()
            .find(|(d, _)| std::ptr::eq(*d, dataset))
            .expect("dataset is not part of this transfer");
        cell.get_or_init(|| {
            let trunk = self.trunk.get_or_init(|| LmTrunk::from_lm(lm));
            Table::build(trunk, dataset, self.encoder, self.chunk)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dader_datagen::DatasetId;
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;
    use rand::SeedableRng;

    #[test]
    fn table_rows_are_the_taped_pre_head_bits() {
        let d = DatasetId::FZ.generate_scaled(3, 45);
        let vocab = Vocab::build(
            dader_text::tokenize(&d.all_text())
                .iter()
                .map(|s| s.as_str()),
            1,
            2000,
        );
        let encoder = PairEncoder::new(vocab, 24);
        for layers in [1, 2] {
            let cfg = TransformerConfig {
                vocab: encoder.vocab().len(),
                dim: 16,
                layers,
                heads: 2,
                ffn_dim: 32,
                max_len: 24,
            };
            let lm = LmExtractor::new(cfg, &mut StdRng::seed_from_u64(5)).freeze_trunk();
            let taped: Vec<u32> = encode_all(&d, &encoder, 16)
                .iter()
                .flat_map(|b| lm.pre_head(b).to_vec())
                .map(f32::to_bits)
                .collect();
            let trunk = LmTrunk::from_lm(&lm);
            for chunk in [1, 7, 64] {
                let table = Table::build(&trunk, &d, &encoder, chunk);
                assert_eq!(table.width, 3 * 16 + crate::extractor::OVERLAP_FEATURES);
                let rows: Vec<u32> = table.rows.iter().map(|v| v.to_bits()).collect();
                assert!(rows == taped, "{layers} layers, chunk {chunk}");
            }
        }
    }
}
