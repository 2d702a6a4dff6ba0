//! Torture suite for the `IndexArtifact` binary format: every way an
//! index file can be corrupted must surface as a typed
//! [`ArtifactError`], never a panic, an unbounded allocation, or a
//! silently-wrong index. Mirrors `dader-core`'s `artifact_format.rs`.

use dader_block::{
    ArtifactError, Blocker, LshParams, StreamKind, StreamingIndex, INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
};
use dader_datagen::Entity;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dader_idxfmt_{}_{name}", std::process::id()))
}

fn entity(id: &str, text: &str) -> Entity {
    Entity::new(id, vec![("title", text.to_string())])
}

/// A small mutated index (live records, a tombstone, an overwrite) so
/// corruption lands in every section of the body.
fn tiny_index(kind: StreamKind) -> StreamingIndex {
    let mut idx = StreamingIndex::build(
        kind,
        &[
            entity("b0", "kodak esp 7250 printer"),
            entity("b1", "sony bravia 46 inch television"),
            entity("b2", "hp laserjet office printer"),
        ],
    );
    idx.delete("b1");
    idx.upsert(entity("b0", "kodak esp printer ink"));
    idx
}

fn kinds() -> Vec<StreamKind> {
    vec![
        StreamKind::TfIdf,
        StreamKind::Lsh(LshParams { bands: 8, rows: 2, q: 3, seed: 9 }),
    ]
}

#[test]
fn truncation_at_every_prefix_is_typed() {
    for (i, kind) in kinds().into_iter().enumerate() {
        let idx = tiny_index(kind);
        let path = tmp(&format!("trunc{i}.ddi"));
        idx.save_file(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Every possible prefix length: nothing may panic, and everything
        // short of the full file is a typed error.
        for keep in 0..full.len() {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = StreamingIndex::load_file(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. }
                        | ArtifactError::CrcMismatch { .. }
                        | ArtifactError::Malformed(_)
                ),
                "kind {i} keep={keep}: expected a typed decode error, got {err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn flipped_body_byte_fails_crc() {
    for (i, kind) in kinds().into_iter().enumerate() {
        let idx = tiny_index(kind);
        let path = tmp(&format!("crc{i}.ddi"));
        idx.save_file(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at several body depths (past the 16-byte header,
        // before the 4-byte trailing CRC).
        let body = clean.len() - 20;
        for at in [0usize, body / 3, body / 2, body - 1] {
            let mut bytes = clean.clone();
            bytes[16 + at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let err = StreamingIndex::load_file(&path).unwrap_err();
            assert!(
                matches!(err, ArtifactError::CrcMismatch { .. }),
                "kind {i} at={at}: expected CrcMismatch, got {err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn wrong_magic_rejected() {
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("magic.ddi");
    idx.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bytes).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::BadMagic { expected, found } => {
            assert_eq!(expected, INDEX_MAGIC);
            assert_eq!(&found, b"NOPE");
        }
        other => panic!("expected BadMagic, got {other}"),
    }
}

#[test]
fn model_artifact_magic_does_not_load_as_index() {
    // Cross-family confusion must be a BadMagic, not a garbled parse:
    // fabricate a file with the model-artifact magic and hand it to the
    // index loader.
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("cross.ddi");
    idx.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0..4].copy_from_slice(b"DDRA");
    std::fs::write(&path, &bytes).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(err, ArtifactError::BadMagic { .. }), "got {err}");
}

#[test]
fn future_version_rejected() {
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("future.ddi");
    idx.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&(INDEX_FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, INDEX_FORMAT_VERSION + 1);
            assert_eq!(supported, INDEX_FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

#[test]
fn trailing_garbage_rejected() {
    let idx = tiny_index(StreamKind::Lsh(LshParams::default()));
    let path = tmp("trailing.ddi");
    idx.save_file(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"extra");
    std::fs::write(&path, &bytes).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(err, ArtifactError::Malformed(_)), "got {err}");
}

/// Re-frame a hacked body consistently (patched length, recomputed CRC)
/// so failures surface from the *body decoder*, not the outer frame.
fn reframe(original: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 20);
    out.extend_from_slice(&original[..8]);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&dader_core::artifact::crc32(body).to_le_bytes());
    out
}

#[test]
fn unknown_kind_tag_rejected() {
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("kindtag.ddi");
    idx.save_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut body = bytes[16..bytes.len() - 4].to_vec();
    body[0] = 7;
    std::fs::write(&path, reframe(&bytes, &body)).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::Malformed(msg) => assert!(msg.contains("kind tag"), "{msg}"),
        other => panic!("expected Malformed, got {other}"),
    }
}

#[test]
fn bad_alive_flag_rejected() {
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("alive.ddi");
    idx.save_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut body = bytes[16..bytes.len() - 4].to_vec();
    // Body: kind u8, generation u64, n_slots u64, then slot 0's alive flag.
    body[17] = 9;
    std::fs::write(&path, reframe(&bytes, &body)).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::Malformed(msg) => assert!(msg.contains("alive flag"), "{msg}"),
        other => panic!("expected Malformed, got {other}"),
    }
}

#[test]
fn oversized_slot_count_is_bounded_not_allocated() {
    // A corrupted n_slots in the quintillions must be rejected against
    // the remaining byte count, never trusted by an allocation.
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("nslots.ddi");
    idx.save_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut body = bytes[16..bytes.len() - 4].to_vec();
    // n_slots sits after kind (1 byte) + generation (8 bytes).
    body[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, reframe(&bytes, &body)).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(
        matches!(err, ArtifactError::Truncated { .. } | ArtifactError::Malformed(_)),
        "got {err}"
    );
}

#[test]
fn duplicate_live_id_rejected() {
    // Two *live* slots sharing an id cannot come from any mutation
    // sequence; hand-craft one by saving two single-record indexes and
    // splicing. Simpler: flip a tombstone's alive flag back on — its id
    // ("b0") is also live in a later slot.
    let idx = tiny_index(StreamKind::TfIdf);
    assert!(idx.tombstones() >= 2, "fixture must carry the b0 overwrite tombstone");
    let path = tmp("dupid.ddi");
    idx.save_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut body = bytes[16..bytes.len() - 4].to_vec();
    // Slot 0 is the tombstoned original "b0"; resurrect it.
    assert_eq!(body[17], 0, "slot 0 must be a tombstone");
    body[17] = 1;
    std::fs::write(&path, reframe(&bytes, &body)).unwrap();
    let err = StreamingIndex::load_file(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    match err {
        ArtifactError::Malformed(msg) => assert!(msg.contains("appears in slots"), "{msg}"),
        other => panic!("expected Malformed, got {other}"),
    }
}

#[test]
fn missing_file_is_io_error() {
    let err = StreamingIndex::load_file(tmp("does_not_exist.ddi")).unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "got {err}");
}

#[test]
fn save_is_byte_deterministic() {
    for (i, kind) in kinds().into_iter().enumerate() {
        let idx = tiny_index(kind);
        let a = tmp(&format!("det_a{i}.ddi"));
        let b = tmp(&format!("det_b{i}.ddi"));
        idx.save_file(&a).unwrap();
        idx.save_file(&b).unwrap();
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "kind {i}: index writes must be byte-for-byte deterministic"
        );
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }
}

#[test]
fn loaded_index_serves_and_mutates() {
    // End-to-end smoke on the load path: query, mutate, query again.
    let idx = tiny_index(StreamKind::TfIdf);
    let path = tmp("serves.ddi");
    idx.save_file(&path).unwrap();
    let mut loaded = StreamingIndex::load_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let before = loaded.candidates(&entity("a", "kodak esp printer"), 3);
    assert!(!before.is_empty());
    loaded.upsert(entity("b9", "kodak esp printer deluxe"));
    let after = loaded.candidates(&entity("a", "kodak esp printer"), 4);
    assert!(after.len() > before.len() || after.len() == 4);
}

// ------------------------------------------------------------- fuzzing

/// Each kind's tiny index as `save_file` writes it: `(frame, body)`.
fn sample_files() -> &'static [(Vec<u8>, Vec<u8>)] {
    static FILES: std::sync::OnceLock<Vec<(Vec<u8>, Vec<u8>)>> = std::sync::OnceLock::new();
    FILES.get_or_init(|| {
        kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| {
                let path = tmp(&format!("fuzz_seed{i}.ddi"));
                tiny_index(kind).save_file(&path).unwrap();
                let raw = std::fs::read(&path).unwrap();
                std::fs::remove_file(&path).unwrap();
                let body = raw[16..raw.len() - 4].to_vec();
                assert_eq!(raw, reframe(&raw, &body), "framing as save_file writes it");
                (raw, body)
            })
            .collect()
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
        // a power of two, as a corrupted count would read.
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

    /// Flipped, truncated, grown or overwritten bodies of both index kinds
    /// behind a valid frame load or fail with a typed error — never a
    /// panic or an allocation the body cannot back.
    #[test]
    fn mutated_index_bodies_load_or_fail_typed(
        lsh in proptest::bool::ANY,
        mutations in proptest::collection::vec(
            (0u8..4, 0usize..1 << 16, 0u8..=255, 0u64..=u64::MAX),
            1..4,
        ),
    ) {
        let (raw, body) = &sample_files()[lsh as usize];
        let mut body = body.clone();
        for m in mutations {
            mutate(&mut body, m);
        }
        let path = tmp(&format!("fuzz{}.ddi", lsh as usize));
        std::fs::write(&path, reframe(raw, &body)).unwrap();
        let loaded = StreamingIndex::load_file(&path);
        std::fs::remove_file(&path).unwrap();
        if let Err(e) = loaded {
            proptest::prop_assert!(!matches!(e, ArtifactError::CrcMismatch { .. }), "{e}");
        }
    }
}
