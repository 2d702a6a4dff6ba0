//! Torture suite for the binary artifact/checkpoint format: every way a
//! file can be corrupted must surface as a typed [`ArtifactError`], never
//! a panic or a silently-wrong model.

use dader_core::artifact::{ArtifactError, ModelArtifact, ARTIFACT_MAGIC, FORMAT_VERSION};
use dader_core::{Checkpoint, CheckpointError, DaderModel, InferenceModel, LmExtractor, Matcher};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dader_fmt_{}_{name}", std::process::id()))
}

fn tiny_artifact() -> (ModelArtifact, DaderModel, PairEncoder) {
    let vocab = Vocab::build(
        ["title", "kodak", "esp", "printer", "hp"],
        1,
        100,
    );
    let encoder = PairEncoder::new(vocab.clone(), 16);
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = TransformerConfig {
        vocab: vocab.len(),
        dim: 8,
        layers: 1,
        heads: 2,
        ffn_dim: 16,
        max_len: 16,
    };
    let model = DaderModel {
        extractor: Box::new(LmExtractor::new(cfg, &mut rng)),
        matcher: Matcher::new(8, &mut rng),
    };
    let art = ModelArtifact::capture("torture", &model, &encoder);
    (art, model, encoder)
}

#[test]
fn roundtrip_is_exact() {
    let (art, model, encoder) = tiny_artifact();
    let path = tmp("roundtrip.dma");
    art.save_file(&path).unwrap();
    let back = ModelArtifact::load_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    assert_eq!(back.description, art.description);
    assert_eq!(back.extractor, art.extractor);
    assert_eq!(back.matcher_dim, art.matcher_dim);
    assert_eq!(back.encoder, art.encoder);
    assert_eq!(back.checkpoint, art.checkpoint);

    // and the instantiated model is weight-identical to the original
    let (fresh, renc) = back.instantiate().unwrap();
    assert_eq!(renc.max_len(), encoder.max_len());
    for (p, q) in model.params().iter().zip(fresh.params()) {
        assert_eq!(p.name(), q.name());
        assert_eq!(p.snapshot(), q.snapshot(), "weights differ for {}", p.name());
    }
}

#[test]
fn truncated_file_rejected() {
    let (art, _, _) = tiny_artifact();
    let path = tmp("trunc.dma");
    art.save_file(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    // chop at several depths: inside the header, inside the body, inside
    // the trailing checksum
    for keep in [0, 3, 10, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..keep]).unwrap();
        let err = ModelArtifact::load_file(&path).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Truncated { .. }),
            "keep={keep}: expected Truncated, got {err}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn flipped_body_byte_fails_crc() {
    let (art, _, _) = tiny_artifact();
    let path = tmp("crc.dma");
    art.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // flip one byte in the middle of the body (past the 16-byte header,
    // before the 4-byte trailing CRC)
    let mid = 16 + (bytes.len() - 20) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = ModelArtifact::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::CrcMismatch { stored, computed } => assert_ne!(stored, computed),
        other => panic!("expected CrcMismatch, got {other}"),
    }
}

#[test]
fn wrong_magic_rejected() {
    let (art, _, _) = tiny_artifact();
    let path = tmp("magic.dma");
    art.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bytes).unwrap();
    let err = ModelArtifact::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::BadMagic { expected, found } => {
            assert_eq!(expected, ARTIFACT_MAGIC);
            assert_eq!(&found, b"NOPE");
        }
        other => panic!("expected BadMagic, got {other}"),
    }
}

#[test]
fn checkpoint_magic_and_artifact_magic_are_distinct() {
    // A checkpoint file must not load as an artifact (and vice versa).
    let (art, model, _) = tiny_artifact();
    let path = tmp("ckpt.dmc");
    Checkpoint::capture("x", &model.params()).save_file(&path).unwrap();
    assert!(matches!(
        ModelArtifact::load_file(&path),
        Err(ArtifactError::BadMagic { .. })
    ));
    std::fs::remove_file(&path).unwrap();

    let path = tmp("art_as_ckpt.dma");
    art.save_file(&path).unwrap();
    assert!(matches!(
        Checkpoint::load_file(&path),
        Err(ArtifactError::BadMagic { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn future_version_rejected() {
    let (art, _, _) = tiny_artifact();
    let path = tmp("future.dma");
    art.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = ModelArtifact::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

#[test]
fn trailing_garbage_rejected() {
    let (art, _, _) = tiny_artifact();
    let path = tmp("trailing.dma");
    art.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"extra");
    std::fs::write(&path, &bytes).unwrap();
    let err = ModelArtifact::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(err, ArtifactError::Malformed(_)), "got {err}");
}

#[test]
fn corrupted_entry_length_is_typed_checkpoint_error() {
    // Shrink an entry's data but keep its declared shape: the in-body
    // validation must catch the inconsistency as a DataLenMismatch.
    let (_, model, _) = tiny_artifact();
    let mut ckpt = Checkpoint::capture("x", &model.params());
    ckpt.entries[0].data.pop();
    let path = tmp("datalen.dmc");
    ckpt.save_file(&path).unwrap();
    let err = Checkpoint::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(
            err,
            ArtifactError::Checkpoint(CheckpointError::DataLenMismatch { .. })
        ),
        "got {err}"
    );
}

#[test]
fn checkpoint_file_roundtrip() {
    let (_, model, _) = tiny_artifact();
    let ckpt = Checkpoint::capture("ckpt roundtrip", &model.params());
    let path = tmp("roundtrip.dmc");
    ckpt.save_file(&path).unwrap();
    let back = Checkpoint::load_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(back, ckpt);
}

#[test]
fn missing_file_is_io_error() {
    let err = ModelArtifact::load_file(tmp("does_not_exist.dma")).unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "got {err}");
}

// ---------------------------------------------------------------------------
// Format v2: int8-quantized entries
// ---------------------------------------------------------------------------

/// Read the little-endian frame version field of a saved file.
fn frame_version(path: &PathBuf) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

#[test]
fn unquantized_artifact_still_writes_version_1_bytes() {
    // The durability contract for existing deployments: an artifact with
    // no int8 entries writes the exact version-1 format — stable bytes,
    // version field 1 — so pre-v2 readers and files are unaffected.
    let (art, _, _) = tiny_artifact();
    let a = tmp("v1_a.dma");
    let b = tmp("v1_b.dma");
    art.save_file(&a).unwrap();
    art.save_file(&b).unwrap();
    assert_eq!(frame_version(&a), 1, "f32 artifacts stay on format version 1");
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "v1 write must be byte-for-byte deterministic"
    );
    let back = ModelArtifact::load_file(&a).unwrap();
    assert!(!back.is_quantized(), "version-1 read-back carries no int8 entries");
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

#[test]
fn quantized_artifact_writes_version_2_and_roundtrips() {
    let (art, _, _) = tiny_artifact();
    let qart = art.quantize().unwrap();
    assert!(qart.is_quantized());
    let path = tmp("v2_roundtrip.dma");
    qart.save_file(&path).unwrap();
    assert_eq!(frame_version(&path), FORMAT_VERSION);
    assert_eq!(FORMAT_VERSION, 2);
    let back = ModelArtifact::load_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(back.quantized, qart.quantized, "int8 side table must roundtrip exactly");
    assert_eq!(back.checkpoint, qart.checkpoint, "dequantized entries must roundtrip exactly");
    // A v2 artifact still instantiates a (dequantized) training model.
    back.instantiate().unwrap();
}

#[test]
fn truncated_int8_block_rejected() {
    // Chop bytes out of the int8 payload but re-frame the file
    // consistently (patched body length, recomputed CRC): the failure
    // must surface from the *entry decoder* as a typed error, not from
    // the outer frame checks, and never as a panic.
    let (art, _, _) = tiny_artifact();
    let qart = art.quantize().unwrap();
    let path = tmp("v2_trunc.dma");
    qart.save_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    for cut in [1usize, 64, body_len / 2] {
        let new_len = body_len - cut;
        let body = &bytes[16..16 + new_len];
        let mut hacked = Vec::new();
        hacked.extend_from_slice(&bytes[..8]);
        hacked.extend_from_slice(&(new_len as u64).to_le_bytes());
        hacked.extend_from_slice(body);
        hacked.extend_from_slice(&dader_core::artifact::crc32(body).to_le_bytes());
        std::fs::write(&path, &hacked).unwrap();
        let err = ModelArtifact::load_file(&path).unwrap_err();
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. } | ArtifactError::Malformed(_)
            ),
            "cut={cut}: expected a typed decode error, got {err}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn zero_or_negative_or_non_finite_scale_rejected() {
    let (art, _, _) = tiny_artifact();
    let qart = art.quantize().unwrap();
    let path = tmp("v2_scale.dma");
    for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
        let mut poisoned = qart.clone();
        poisoned.quantized[0].1.scale[0] = bad;
        poisoned.save_file(&path).unwrap();
        let err = ModelArtifact::load_file(&path).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Malformed(_)),
            "scale {bad}: expected Malformed, got {err}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn quantize_rejects_non_finite_weights_with_typed_error() {
    let (art, _, _) = tiny_artifact();
    let mut bad = art.clone();
    let entry = bad
        .checkpoint
        .entries
        .iter_mut()
        .find(|e| e.shape.len() == 2 && e.name.ends_with(".w"))
        .expect("a quantizable entry");
    let name = entry.name.clone();
    entry.data[1] = f32::NAN;
    match bad.quantize().unwrap_err() {
        ArtifactError::NonFiniteWeights { entry, index } => {
            assert_eq!(entry, name);
            assert_eq!(index, 1);
        }
        other => panic!("expected NonFiniteWeights, got {other}"),
    }
}

#[test]
fn version_3_rejected_for_quantized_files_too() {
    // `future_version_rejected` above covers the v1 body; the same gate
    // must hold when the file legitimately carries v2 content.
    let (art, _, _) = tiny_artifact();
    let qart = art.quantize().unwrap();
    let path = tmp("v2_future.dma");
    qart.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = ModelArtifact::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 3);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

#[test]
fn instantiate_rejects_inconsistent_manifest() {
    let (art, _, _) = tiny_artifact();
    // matcher width disagreeing with the extractor spec
    let mut bad = art.clone();
    bad.matcher_dim += 1;
    assert!(matches!(
        bad.instantiate(),
        Err(ArtifactError::Malformed(_))
    ));
    assert!(matches!(InferenceModel::from_artifact(&bad), Err(ArtifactError::Malformed(_))));
    // vocabulary shrunk behind the extractor's back
    let mut bad = art.clone();
    bad.encoder.tokens.pop();
    assert!(matches!(
        bad.instantiate(),
        Err(ArtifactError::Malformed(_) | ArtifactError::Encoder(_))
    ));
    assert!(matches!(InferenceModel::from_artifact(&bad), Err(ArtifactError::Malformed(_))));
}

#[test]
fn encoder_longer_than_lm_positions_is_malformed() {
    // A CRC-valid file whose encoder pads to 32 tokens over an LM with 16
    // positions loads, but no forward could score it: both model builders
    // must refuse it with a typed error instead of building a model that
    // panics on every request.
    let (mut art, _, _) = tiny_artifact();
    art.encoder.max_len = 32;
    let path = tmp("long_encoder.dma");
    art.save_file(&path).unwrap();
    let back = ModelArtifact::load_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(back.instantiate(), Err(ArtifactError::Malformed(_))));
    assert!(matches!(InferenceModel::from_artifact(&back), Err(ArtifactError::Malformed(_))));
    // At the LM's own length the same artifact serves.
    art.encoder.max_len = 16;
    assert!(InferenceModel::from_artifact(&art).is_ok());
}

#[test]
fn overflowing_shape_product_is_typed_checkpoint_error() {
    // Eight dims of 256 multiply to 2^64. Each dim passes the reader's
    // bytes-left bound because a second entry keeps enough bytes behind
    // it; the product must then be a typed mismatch, not an overflow
    // panic or a wrap to 0 that the first entry's empty data would match.
    use dader_core::artifact::{write_framed, ByteWriter, CHECKPOINT_MAGIC};
    let mut w = ByteWriter::new();
    w.put_u32(1);
    w.put_str("overflow");
    w.put_usize(2);
    w.put_str("w");
    w.put_usize(8);
    for _ in 0..8 {
        w.put_u64(256);
    }
    w.put_f32s(&[]);
    w.put_str("pad");
    w.put_usize(1);
    w.put_u64(100);
    w.put_f32s(&[0.5; 100]);
    let path = tmp("overflow.dmc");
    write_framed(&path, CHECKPOINT_MAGIC, 1, &w.buf).unwrap();
    let err = Checkpoint::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(
            err,
            ArtifactError::Checkpoint(CheckpointError::DataLenMismatch { found: 0, .. })
        ),
        "got {err}"
    );
}

// ------------------------------------------------------------- fuzzing

/// `body` framed as a version-`version` model artifact, its length and
/// CRC re-sealed so the body decoder sees every byte.
fn sealed(version: u32, body: &[u8]) -> Vec<u8> {
    let mut raw = ARTIFACT_MAGIC.to_vec();
    raw.extend_from_slice(&version.to_le_bytes());
    raw.extend_from_slice(&(body.len() as u64).to_le_bytes());
    raw.extend_from_slice(body);
    raw.extend_from_slice(&dader_core::artifact::crc32(body).to_le_bytes());
    raw
}

/// The tiny artifact's body as `save_file` writes it: index 0 is the
/// version-1 (f32) body, index 1 the version-2 (int8) body.
fn sample_bodies() -> &'static [Vec<u8>; 2] {
    static BODIES: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
    BODIES.get_or_init(|| {
        let (art, _, _) = tiny_artifact();
        let qart = art.quantize().unwrap();
        [(1, art), (2, qart)].map(|(version, a)| {
            let path = tmp(&format!("fuzz_seed_v{version}.dma"));
            a.save_file(&path).unwrap();
            let raw = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let body = raw[16..raw.len() - 4].to_vec();
            assert_eq!(raw, sealed(version, &body), "framing as save_file writes it");
            body
        })
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
        // Overwrite 8 bytes with a length-sized word: small, huge or near
        // a power of two, as a corrupted count or dim would read.
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
    #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

    /// Flipped, truncated, grown or overwritten bodies of version-1 and
    /// version-2 artifacts behind a valid frame load or fail with a typed
    /// error — never a panic or an allocation the body cannot back.
    #[test]
    fn mutated_artifact_bodies_load_or_fail_typed(
        v2 in proptest::bool::ANY,
        mutations in proptest::collection::vec(
            (0u8..4, 0usize..1 << 16, 0u8..=255, 0u64..=u64::MAX),
            1..4,
        ),
    ) {
        let version = if v2 { 2 } else { 1 };
        let mut body = sample_bodies()[version as usize - 1].clone();
        for m in mutations {
            mutate(&mut body, m);
        }
        let path = tmp(&format!("fuzz_v{version}.dma"));
        std::fs::write(&path, sealed(version, &body)).unwrap();
        let loaded = ModelArtifact::load_file(&path);
        std::fs::remove_file(&path).unwrap();
        if let Err(e) = loaded {
            proptest::prop_assert!(!matches!(e, ArtifactError::CrcMismatch { .. }), "{e}");
        }
    }
}
