//! Crash-safe training checkpoints: the full mutable state of a run at an
//! epoch boundary, durable enough that `--resume` continues the exact
//! trajectory the interrupted run would have taken.
//!
//! A [`TrainCheckpoint`] captures everything the training loops mutate:
//! parameter groups (positional weight snapshots), Adam moments, the RNG
//! stream state, batcher shuffle orders, the best-snapshot bookkeeping,
//! the epoch history and the health guard's spent retries. On resume the
//! loops re-run their constructors (consuming the same seeded RNG draws as
//! the original run) and then overwrite every piece of state from the
//! checkpoint — so the continuation is bitwise identical to a run that
//! never stopped.
//!
//! Files use the same framed wire format as model artifacts
//! (`magic + version + body + crc32`, atomic write-via-rename; see
//! [`crate::artifact`]) under the magic `DDRS`. The layout of the
//! `groups`/`optimizers`/`batchers` vectors is phase-specific and private
//! to each algorithm; the `fingerprint` ties a checkpoint to the exact
//! run configuration so state is never restored into a different
//! trajectory.

use std::path::Path;

use dader_nn::AdamState;

use crate::artifact::{read_framed, write_framed, ArtifactError, ByteReader, ByteWriter};
use crate::train::config::EpochStat;

/// Magic bytes of a training-resume checkpoint file.
pub const TRAIN_CHECKPOINT_MAGIC: [u8; 4] = *b"DDRS";

/// Positional `(shape, weights)` entries of one parameter group — the
/// serialized form of [`crate::snapshot::Snapshot`].
pub type SnapshotEntries = Vec<(Vec<usize>, Vec<f32>)>;

/// The complete mutable state of a training run at an epoch boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// Run-configuration fingerprint; a resume into a different
    /// configuration is refused.
    pub fingerprint: String,
    /// Training phase the checkpoint belongs to: `train` (Algorithm 1),
    /// `step1` or `adversarial` (Algorithm 2).
    pub phase: String,
    /// Epochs completed in that phase; the resumed run starts at
    /// `completed_epochs + 1`.
    pub completed_epochs: usize,
    /// xoshiro256++ state of the training RNG.
    pub rng: [u64; 4],
    /// Parameter groups, in a phase-specific order (Algorithm 1: all
    /// trainable params; Algorithm 2 adversarial: `(F, M)`, `F'`,
    /// discriminator).
    pub groups: Vec<SnapshotEntries>,
    /// Adam states, positional over the corresponding parameter groups.
    pub optimizers: Vec<AdamState>,
    /// Batcher shuffle states `(order, cursor)` — source first, target
    /// second where present.
    pub batchers: Vec<(Vec<usize>, usize)>,
    /// Best-snapshot bookkeeping: `(epoch, val_f1, selected weights)`.
    pub best: Option<(usize, f32, SnapshotEntries)>,
    /// Per-epoch statistics so far.
    pub history: Vec<EpochStat>,
    /// Health-guard retries already spent.
    pub health_retries: u32,
}

impl TrainCheckpoint {
    /// Save to `path` in the framed binary format (atomic
    /// write-via-rename).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let mut w = ByteWriter::new();
        w.put_str(&self.fingerprint);
        w.put_str(&self.phase);
        w.put_usize(self.completed_epochs);
        for &word in &self.rng {
            w.put_u64(word);
        }
        w.put_usize(self.groups.len());
        for g in &self.groups {
            put_entries(&mut w, g);
        }
        w.put_usize(self.optimizers.len());
        for o in &self.optimizers {
            w.put_f32(o.lr);
            w.put_u64(o.t);
            w.put_usize(o.slots.len());
            for slot in &o.slots {
                match slot {
                    Some((m, v)) => {
                        w.put_u8(1);
                        w.put_f32s(m);
                        w.put_f32s(v);
                    }
                    None => w.put_u8(0),
                }
            }
        }
        w.put_usize(self.batchers.len());
        for (order, cursor) in &self.batchers {
            w.put_usize(order.len());
            for &i in order {
                w.put_u64(i as u64);
            }
            w.put_usize(*cursor);
        }
        match &self.best {
            Some((epoch, val, entries)) => {
                w.put_u8(1);
                w.put_usize(*epoch);
                w.put_f32(*val);
                put_entries(&mut w, entries);
            }
            None => w.put_u8(0),
        }
        w.put_usize(self.history.len());
        for h in &self.history {
            w.put_usize(h.epoch);
            w.put_f32(h.val_f1);
            put_opt_f32(&mut w, h.source_f1);
            put_opt_f32(&mut w, h.target_f1);
            w.put_f32(h.loss_m);
            w.put_f32(h.loss_a);
        }
        w.put_u32(self.health_retries);
        write_framed(path.as_ref(), TRAIN_CHECKPOINT_MAGIC, 1, &w.buf)
    }

    /// Load a checkpoint saved by [`TrainCheckpoint::save_file`],
    /// validating magic, version, CRC, structure, and that every stored
    /// weight is finite.
    pub fn load_file(path: impl AsRef<Path>) -> Result<TrainCheckpoint, ArtifactError> {
        let (_version, body) = read_framed(path.as_ref(), TRAIN_CHECKPOINT_MAGIC, 1)?;
        let mut r = ByteReader::new(&body);
        // Plain u64 *values* (epoch numbers, shuffle indices, cursors) are
        // decoded with this, not `take_len`: `take_len` bounds the value by
        // the remaining bytes, which is only correct for lengths — a shuffle
        // index near the end of the body would be rejected as "truncated".
        fn take_usize(r: &mut ByteReader<'_>) -> Result<usize, ArtifactError> {
            let v = r.take_u64()?;
            usize::try_from(v)
                .map_err(|_| ArtifactError::Malformed(format!("value {v} overflows usize")))
        }
        let fingerprint = r.take_str()?;
        let phase = r.take_str()?;
        let completed_epochs = take_usize(&mut r)?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.take_u64()?;
        }
        // Every declared count is checked against the bytes left before
        // anything is allocated for it: `take_len`'s unit is the fewest
        // bytes one element can encode in.
        let n_groups = r.take_len(8)?;
        let mut groups = Vec::with_capacity(n_groups.min(1 << 10));
        for g in 0..n_groups {
            let entries = take_entries(&mut r)?;
            check_finite(&entries, &format!("group{g}"))?;
            groups.push(entries);
        }
        let n_opts = r.take_len(4 + 8 + 8)?;
        let mut optimizers = Vec::with_capacity(n_opts.min(1 << 10));
        for _ in 0..n_opts {
            let lr = r.take_f32()?;
            let t = r.take_u64()?;
            let n_slots = r.take_len(1)?;
            let mut slots = Vec::with_capacity(n_slots.min(1 << 16));
            for _ in 0..n_slots {
                slots.push(match r.take_u8()? {
                    0 => None,
                    1 => Some((r.take_f32s()?, r.take_f32s()?)),
                    tag => {
                        return Err(ArtifactError::Malformed(format!(
                            "unknown optimizer slot tag {tag}"
                        )))
                    }
                });
            }
            if !lr.is_finite() {
                return Err(ArtifactError::Malformed("non-finite optimizer lr".into()));
            }
            optimizers.push(AdamState { lr, t, slots });
        }
        let n_batchers = r.take_len(8 + 8)?;
        let mut batchers = Vec::with_capacity(n_batchers.min(1 << 10));
        for _ in 0..n_batchers {
            let n = r.take_len(8)?;
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(take_usize(&mut r)?);
            }
            let cursor = take_usize(&mut r)?;
            batchers.push((order, cursor));
        }
        let best = match r.take_u8()? {
            0 => None,
            1 => {
                let epoch = take_usize(&mut r)?;
                let val = r.take_f32()?;
                let entries = take_entries(&mut r)?;
                check_finite(&entries, "best")?;
                Some((epoch, val, entries))
            }
            tag => return Err(ArtifactError::Malformed(format!("unknown best tag {tag}"))),
        };
        let n_history = r.take_len(8 + 4 + 1 + 1 + 4 + 4)?;
        let mut history = Vec::with_capacity(n_history.min(1 << 16));
        for _ in 0..n_history {
            history.push(EpochStat {
                epoch: take_usize(&mut r)?,
                val_f1: r.take_f32()?,
                source_f1: take_opt_f32(&mut r)?,
                target_f1: take_opt_f32(&mut r)?,
                loss_m: r.take_f32()?,
                loss_a: r.take_f32()?,
            });
        }
        let health_retries = r.take_u32()?;
        r.expect_end()?;
        Ok(TrainCheckpoint {
            fingerprint,
            phase,
            completed_epochs,
            rng,
            groups,
            optimizers,
            batchers,
            best,
            history,
            health_retries,
        })
    }

    /// Refuse to resume into a run whose configuration differs from the
    /// one that wrote this checkpoint.
    pub fn expect_fingerprint(&self, expected: &str) -> Result<(), ArtifactError> {
        if self.fingerprint != expected {
            return Err(ArtifactError::Malformed(format!(
                "checkpoint belongs to a different run configuration \
                 (checkpoint: {:?}, this run: {expected:?})",
                self.fingerprint
            )));
        }
        Ok(())
    }
}

fn put_entries(w: &mut ByteWriter, entries: &SnapshotEntries) {
    w.put_usize(entries.len());
    for (dims, data) in entries {
        w.put_usize(dims.len());
        for &d in dims {
            w.put_u64(d as u64);
        }
        w.put_f32s(data);
    }
}

fn take_entries(r: &mut ByteReader<'_>) -> Result<SnapshotEntries, ArtifactError> {
    let n = r.take_len(8 + 8)?;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let dims = r.take_dims()?;
        let data = r.take_f32s()?;
        let expected = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
        if expected != Some(data.len()) {
            return Err(ArtifactError::Malformed(format!(
                "snapshot entry shape {dims:?} does not hold its {} weights",
                data.len()
            )));
        }
        entries.push((dims, data));
    }
    Ok(entries)
}

fn check_finite(entries: &SnapshotEntries, group: &str) -> Result<(), ArtifactError> {
    for (i, (_, data)) in entries.iter().enumerate() {
        if let Some(index) = data.iter().position(|v| !v.is_finite()) {
            return Err(ArtifactError::NonFiniteWeights {
                entry: format!("{group}[{i}]"),
                index,
            });
        }
    }
    Ok(())
}

fn put_opt_f32(w: &mut ByteWriter, v: Option<f32>) {
    match v {
        Some(v) => {
            w.put_u8(1);
            w.put_f32(v);
        }
        None => w.put_u8(0),
    }
}

fn take_opt_f32(r: &mut ByteReader<'_>) -> Result<Option<f32>, ArtifactError> {
    match r.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.take_f32()?)),
        tag => Err(ArtifactError::Malformed(format!("unknown option tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint: "alg1|MMD|seed=42".into(),
            phase: "train".into(),
            completed_epochs: 3,
            rng: [1, 2, 3, u64::MAX],
            groups: vec![
                vec![(vec![2, 3], vec![0.5; 6]), (vec![4], vec![-1.0, 0.0, 1.0, 2.0])],
                vec![(vec![1], vec![9.0])],
            ],
            optimizers: vec![AdamState {
                lr: 1e-3,
                t: 36,
                slots: vec![Some((vec![0.1; 6], vec![0.2; 6])), None],
            }],
            batchers: vec![(vec![2, 0, 1], 2), (vec![0, 1], 0)],
            best: Some((2, 61.5, vec![(vec![2], vec![7.0, 8.0])])),
            history: vec![EpochStat {
                epoch: 1,
                val_f1: 50.0,
                source_f1: Some(70.0),
                target_f1: None,
                loss_m: 0.6,
                loss_a: 0.1,
            }],
            health_retries: 1,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dader_resume_{name}_{}.ddrs", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ck = sample();
        let path = tmp("roundtrip");
        ck.save_file(&path).unwrap();
        let back = TrainCheckpoint::load_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let ck = sample();
        ck.expect_fingerprint("alg1|MMD|seed=42").unwrap();
        let err = ck.expect_fingerprint("alg1|MMD|seed=43").unwrap_err();
        assert!(err.to_string().contains("different run configuration"));
    }

    #[test]
    fn load_rejects_non_finite_group_weights() {
        let mut ck = sample();
        ck.groups[1][0].1[0] = f32::NAN;
        let path = tmp("nan");
        ck.save_file(&path).unwrap();
        let err = TrainCheckpoint::load_file(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, ArtifactError::NonFiniteWeights { ref entry, index: 0 } if entry == "group1[0]"),
            "{err}"
        );
    }

    #[test]
    fn load_rejects_wrong_magic_and_corruption() {
        let path = tmp("magic");
        // An artifact-magic file is not a train checkpoint.
        sample().save_file(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] = b'X';
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            TrainCheckpoint::load_file(&path),
            Err(ArtifactError::BadMagic { .. })
        ));
        // Flip a body byte: CRC catches it.
        raw[0] = TRAIN_CHECKPOINT_MAGIC[0];
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            TrainCheckpoint::load_file(&path),
            Err(ArtifactError::CrcMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// `sample()`'s framed file with its body replaced by `body`, the
    /// length and CRC re-sealed so the decoder sees every byte.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut raw = TRAIN_CHECKPOINT_MAGIC.to_vec();
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&(body.len() as u64).to_le_bytes());
        raw.extend_from_slice(body);
        raw.extend_from_slice(&crate::artifact::crc32(body).to_le_bytes());
        raw
    }

    fn sample_body() -> &'static [u8] {
        static BODY: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BODY.get_or_init(|| {
            let path = tmp("fuzz_seed");
            sample().save_file(&path).unwrap();
            let raw = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(
                raw,
                sealed(&raw[16..raw.len() - 4]),
                "framing as save_file writes it"
            );
            raw[16..raw.len() - 4].to_vec()
        })
    }

    /// One body mutation: `(kind, position, byte, word)`.
    type Mutation = (u8, usize, u8, u64);

    fn mutate(body: &mut Vec<u8>, (kind, pos, byte, word): Mutation) {
        let at = pos % (body.len() + 1);
        match kind {
            // Flip bits of one byte.
            0 if at < body.len() => body[at] ^= byte | 1,
            // Cut the body short.
            1 => body.truncate(at),
            // Insert a byte.
            2 => body.insert(at, byte),
            // Overwrite 8 bytes with a length-sized word: small, huge or
            // near a power of two, as a corrupted count would read.
            _ => {
                let word = match word % 4 {
                    0 => word >> 40,
                    1 => u64::MAX - (word >> 60),
                    2 => 1u64 << (word % 64),
                    _ => word,
                };
                for (i, b) in word.to_le_bytes().into_iter().enumerate() {
                    if let Some(slot) = body.get_mut(at + i) {
                        *slot = b;
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Flipped, truncated, grown or overwritten bodies behind a valid
        /// frame decode to a checkpoint or a typed error, never a panic
        /// or an allocation the body cannot back.
        #[test]
        fn mutated_bodies_load_or_fail_typed(
            mutations in proptest::collection::vec(
                (0u8..4, 0usize..1 << 16, 0u8..=255, 0u64..=u64::MAX),
                1..4,
            ),
        ) {
            let mut body = sample_body().to_vec();
            for m in mutations {
                mutate(&mut body, m);
            }
            let path = tmp("fuzz");
            std::fs::write(&path, sealed(&body)).unwrap();
            let loaded = TrainCheckpoint::load_file(&path);
            std::fs::remove_file(&path).unwrap();
            if let Err(e) = loaded {
                proptest::prop_assert!(!matches!(e, ArtifactError::CrcMismatch { .. }), "{e}");
            }
        }
    }

    #[test]
    fn load_rejects_shape_data_mismatch() {
        // Hand-encode an entry whose shape disagrees with its data length.
        let mut w = ByteWriter::new();
        w.put_str("fp");
        w.put_str("train");
        w.put_usize(0);
        for _ in 0..4 {
            w.put_u64(0);
        }
        w.put_usize(1); // one group
        w.put_usize(1); // one entry
        w.put_usize(1); // one dim
        w.put_u64(5); // shape [5]...
        w.put_f32s(&[1.0, 2.0]); // ...but 2 weights
        let path = tmp("shape");
        write_framed(&path, TRAIN_CHECKPOINT_MAGIC, 1, &w.buf).unwrap();
        let err = TrainCheckpoint::load_file(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, ArtifactError::Malformed(_)), "{err}");
    }
}
