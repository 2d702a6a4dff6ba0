//! Minibatch encoding and iteration over ER datasets.

use dader_datagen::ErDataset;
use dader_text::PairEncoder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// One encoded minibatch of entity pairs.
#[derive(Clone, Debug)]
pub struct EncodedBatch {
    /// Flat token ids, row-major `(batch, seq)`.
    pub ids: Vec<usize>,
    /// Attention mask aligned with `ids`.
    pub mask: Vec<f32>,
    /// Batch size.
    pub batch: usize,
    /// Padded sequence length.
    pub seq: usize,
    /// Class labels (0/1), one per pair.
    pub labels: Vec<usize>,
    /// Dataset indices of the pairs in this batch.
    pub indices: Vec<usize>,
}

impl EncodedBatch {
    /// Encode a specific set of dataset indices.
    pub fn from_indices(dataset: &ErDataset, encoder: &PairEncoder, indices: &[usize]) -> EncodedBatch {
        let seq = encoder.max_len();
        let mut ids = Vec::with_capacity(indices.len() * seq);
        let mut mask = Vec::with_capacity(indices.len() * seq);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let p = &dataset.pairs[i];
            let e = encoder.encode_pair(&p.a.attrs, &p.b.attrs);
            ids.extend(e.ids);
            mask.extend(e.mask);
            labels.push(p.label());
        }
        EncodedBatch {
            ids,
            mask,
            batch: indices.len(),
            seq,
            labels,
            indices: indices.to_vec(),
        }
    }
}

/// Cycles through a dataset in shuffled minibatches, re-shuffling each
/// epoch — the `sample one minibatch` step of Algorithms 1 and 2.
pub struct Batcher<'a> {
    dataset: &'a ErDataset,
    encoder: &'a PairEncoder,
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
}

impl<'a> Batcher<'a> {
    /// New batcher over a dataset.
    pub fn new(
        dataset: &'a ErDataset,
        encoder: &'a PairEncoder,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> Batcher<'a> {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!dataset.is_empty(), "cannot batch an empty dataset");
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        order.shuffle(rng);
        Batcher {
            dataset,
            encoder,
            batch_size,
            order,
            cursor: 0,
        }
    }

    /// Next minibatch, wrapping around (and re-shuffling) at epoch end.
    pub fn next_batch(&mut self, rng: &mut StdRng) -> EncodedBatch {
        let idx = self.next_indices(rng);
        EncodedBatch::from_indices(self.dataset, self.encoder, &idx)
    }

    /// The dataset indices of the next minibatch, unencoded. Consumes
    /// `rng` exactly as [`Batcher::next_batch`] does.
    pub fn next_indices(&mut self, rng: &mut StdRng) -> Vec<usize> {
        if self.cursor + self.batch_size > self.order.len() {
            self.order.shuffle(rng);
            self.cursor = 0;
        }
        let take = self.batch_size.min(self.order.len());
        let idx = self.order[self.cursor..self.cursor + take].to_vec();
        self.cursor += take;
        idx
    }

    /// The dataset this batcher samples from.
    pub fn dataset(&self) -> &'a ErDataset {
        self.dataset
    }

    /// Number of full batches per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        (self.dataset.len() / self.batch_size).max(1)
    }

    /// The shuffle state (current epoch permutation + cursor), for
    /// crash-safe checkpointing.
    pub fn state(&self) -> (Vec<usize>, usize) {
        (self.order.clone(), self.cursor)
    }

    /// Restore shuffle state captured by [`Batcher::state`] from a batcher
    /// over the same dataset. Returns an error message when `order` is not
    /// a permutation of the dataset's indices or `cursor` is out of range.
    pub fn restore_state(&mut self, order: Vec<usize>, cursor: usize) -> Result<(), String> {
        if order.len() != self.dataset.len() {
            return Err(format!(
                "batcher state has {} indices, dataset has {}",
                order.len(),
                self.dataset.len()
            ));
        }
        let mut seen = vec![false; order.len()];
        for &i in &order {
            if i >= seen.len() || seen[i] {
                return Err(format!("batcher state order is not a permutation (index {i})"));
            }
            seen[i] = true;
        }
        if cursor > order.len() {
            return Err(format!(
                "batcher cursor {cursor} exceeds dataset length {}",
                order.len()
            ));
        }
        self.order = order;
        self.cursor = cursor;
        Ok(())
    }
}

/// Encode an entire dataset as consecutive fixed-size batches (for
/// evaluation and feature dumping).
///
/// Batches are encoded across the engine pool; each batch is produced by
/// the same serial encoding code over a fixed index chunk and results are
/// returned in dataset order, so the output is identical at any thread
/// count.
pub fn encode_all(dataset: &ErDataset, encoder: &PairEncoder, batch_size: usize) -> Vec<EncodedBatch> {
    let idx: Vec<usize> = (0..dataset.len()).collect();
    let chunks: Vec<&[usize]> = idx.chunks(batch_size).collect();
    dader_tensor::pool::par_map(&chunks, dader_tensor::pool::current_threads(), |c| {
        EncodedBatch::from_indices(dataset, encoder, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dader_datagen::DatasetId;
    use dader_text::Vocab;
    use rand::SeedableRng;

    fn setup() -> (ErDataset, PairEncoder) {
        let d = DatasetId::FZ.generate_scaled(1, 60);
        let vocab = Vocab::build(
            dader_text::tokenize(&d.all_text()).iter().map(|s| s.as_str()),
            1,
            2000,
        );
        (d, PairEncoder::new(vocab, 32))
    }

    #[test]
    fn batch_shapes_consistent() {
        let (d, enc) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = Batcher::new(&d, &enc, 8, &mut rng);
        let batch = b.next_batch(&mut rng);
        assert_eq!(batch.batch, 8);
        assert_eq!(batch.ids.len(), 8 * 32);
        assert_eq!(batch.mask.len(), 8 * 32);
        assert_eq!(batch.labels.len(), 8);
    }

    #[test]
    fn batcher_covers_epoch_without_repeats() {
        let (d, enc) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = Batcher::new(&d, &enc, 10, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..b.batches_per_epoch() {
            let batch = b.next_batch(&mut rng);
            for i in batch.indices {
                assert!(seen.insert(i), "index {i} repeated within epoch");
            }
        }
    }

    #[test]
    fn batcher_wraps_and_reshuffles() {
        let (d, enc) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = Batcher::new(&d, &enc, 50, &mut rng);
        let first = b.next_batch(&mut rng).indices;
        let second = b.next_batch(&mut rng).indices; // wraps (60 pairs)
        assert_eq!(first.len(), 50);
        assert_eq!(second.len(), 50);
        assert_ne!(first, second);
    }

    #[test]
    fn encode_all_covers_dataset_in_order() {
        let (d, enc) = setup();
        let batches = encode_all(&d, &enc, 16);
        let total: usize = batches.iter().map(|b| b.batch).sum();
        assert_eq!(total, d.len());
        assert_eq!(batches[0].indices[0], 0);
        let labels: Vec<usize> = batches.iter().flat_map(|b| b.labels.clone()).collect();
        assert_eq!(labels, d.labels());
    }

    #[test]
    fn batcher_state_roundtrip_reproduces_batches() {
        let (d, enc) = setup();
        // Reference: uninterrupted sequence of 12 batches (crosses a
        // reshuffle boundary at 60 pairs / batch 8).
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = Batcher::new(&d, &enc, 8, &mut rng);
        let mut reference = Vec::new();
        for _ in 0..12 {
            reference.push(b.next_batch(&mut rng).indices);
        }

        // Resumed: replay 5 batches, capture batcher + rng state, rebuild
        // both from the captured state, and continue.
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = Batcher::new(&d, &enc, 8, &mut rng);
        let mut replayed = Vec::new();
        for _ in 0..5 {
            replayed.push(b.next_batch(&mut rng).indices);
        }
        let (order, cursor) = b.state();
        let rng_state = rng.state();

        let mut rng2 = StdRng::from_state(rng_state);
        let mut fresh = StdRng::seed_from_u64(0);
        let mut b2 = Batcher::new(&d, &enc, 8, &mut fresh);
        b2.restore_state(order, cursor).unwrap();
        for _ in 0..7 {
            replayed.push(b2.next_batch(&mut rng2).indices);
        }
        assert_eq!(replayed, reference);
    }

    #[test]
    fn batcher_restore_rejects_bad_state() {
        let (d, enc) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = Batcher::new(&d, &enc, 8, &mut rng);
        // wrong length
        assert!(b.restore_state(vec![0, 1, 2], 0).is_err());
        // not a permutation (duplicate)
        let mut dup: Vec<usize> = (0..d.len()).collect();
        dup[1] = 0;
        assert!(b.restore_state(dup, 0).is_err());
        // cursor out of range
        let ok: Vec<usize> = (0..d.len()).collect();
        assert!(b.restore_state(ok.clone(), d.len() + 1).is_err());
        // valid state accepted
        assert!(b.restore_state(ok, d.len()).is_ok());
    }

    #[test]
    fn batch_smaller_dataset_than_batchsize() {
        let (d, enc) = setup();
        let small = d.subsample(5, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = Batcher::new(&small, &enc, 16, &mut rng);
        let batch = b.next_batch(&mut rng);
        assert_eq!(batch.batch, 5);
    }
}
