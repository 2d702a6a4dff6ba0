//! Durable model artifacts: the on-disk format that lets an adapted
//! `(F, M)` matcher outlive its training process — the train-once /
//! serve-many workflow of Ditto and of the paper's own snapshot-selection
//! protocol (Section 6.1), which presumes the selected snapshot can be
//! persisted and reused.
//!
//! ## Wire format
//!
//! Both checkpoint files ([`Checkpoint::save_file`]) and full model
//! artifacts ([`ModelArtifact::save_file`]) share one frame:
//!
//! ```text
//! magic (4 bytes)  "DDRC" checkpoint | "DDRA" artifact
//! version (u32 LE) 1 (dense f32) or 2 (adds int8 entries); greater rejected
//! body_len (u64 LE)
//! body (body_len bytes)
//! crc32 (u32 LE)   IEEE CRC-32 over the body
//! ```
//!
//! All integers are little-endian; strings are a u64 length plus UTF-8
//! bytes; f32 slices are a u64 element count plus raw LE bytes. The
//! checkpoint body is `version, description, n_entries × (name, shape,
//! data)`; the artifact body prepends the pieces needed to reconstruct
//! inference — extractor spec, matcher width and tokenizer state — before
//! an embedded checkpoint body. Writes go to a temporary sibling file and
//! are published atomically via rename, so readers never observe a
//! half-written artifact.
//!
//! Format **version 2** (produced by [`ModelArtifact::quantize`] /
//! `dader quantize`) inserts one encoding tag byte per checkpoint entry
//! after the shape dims: tag `0` is a dense f32 payload exactly as in
//! version 1; tag `1` is an int8 per-row-quantized payload — per-row
//! scales (f32s), per-row zero points (f32s), then a u64 code count and
//! the raw int8 codes. Artifacts with no quantized entries are still
//! written as version 1, byte-for-byte identical to previous builds, and
//! version-1 files always load.
//!
//! Every load-time failure is a typed [`ArtifactError`]; corrupted files
//! never panic.

use std::io::Write;
use std::path::Path;

use dader_tensor::infer::{quantize_rows, QuantizeError, QuantizedMatrix};
use dader_text::{EncoderState, PairEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{Checkpoint, CheckpointEntry, CheckpointError};
use crate::extractor::ExtractorSpec;
use crate::matcher::Matcher;
use crate::model::DaderModel;

/// Magic bytes of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DDRC";
/// Magic bytes of a model-artifact file.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"DDRA";
/// Current (and maximum readable) format version.
pub const FORMAT_VERSION: u32 = 2;

/// Per-entry encoding tag in version-2 bodies: dense f32 payload.
const ENTRY_TAG_F32: u8 = 0;
/// Per-entry encoding tag in version-2 bodies: int8 per-row quantized.
const ENTRY_TAG_INT8: u8 = 1;

/// Errors from saving or loading model artifacts and checkpoint files.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Magic this reader expects.
        expected: [u8; 4],
        /// Bytes actually found.
        found: [u8; 4],
    },
    /// The file was written by a newer (or invalid) format version.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The file ends before the declared content does.
    Truncated {
        /// Bytes the declared content requires.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The body does not match its trailing CRC-32.
    CrcMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the body.
        computed: u32,
    },
    /// The body is structurally invalid (bad UTF-8, trailing bytes,
    /// unknown tags, inconsistent dimensions).
    Malformed(String),
    /// A structurally-validated checkpoint failed its integrity checks or
    /// could not be restored into the reconstructed model.
    Checkpoint(CheckpointError),
    /// The persisted tokenizer state could not be rebuilt.
    Encoder(String),
    /// A stored weight tensor contains a NaN or infinite value. Such a
    /// file can only come from a corrupted write or a run whose weights
    /// had already diverged — loading it would poison every downstream
    /// prediction, so the load is refused.
    NonFiniteWeights {
        /// Name of the offending tensor.
        entry: String,
        /// Flat index of the first non-finite value.
        index: usize,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "io error: {e}"),
            ArtifactError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads <= {supported})")
            }
            ArtifactError::Truncated { needed, available } => {
                write!(f, "truncated file: need {needed} bytes, have {available}")
            }
            ArtifactError::CrcMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            ArtifactError::Malformed(msg) => write!(f, "malformed body: {msg}"),
            ArtifactError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ArtifactError::Encoder(msg) => write!(f, "encoder state: {msg}"),
            ArtifactError::NonFiniteWeights { entry, index } => {
                write!(f, "non-finite weight in tensor {entry:?} at flat index {index}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

impl From<CheckpointError> for ArtifactError {
    fn from(e: CheckpointError) -> ArtifactError {
        ArtifactError::Checkpoint(e)
    }
}

/// IEEE CRC-32 (the zlib/PNG polynomial), slice-by-8 table-driven: eight
/// bytes fold per step instead of one, so checksumming a multi-megabyte
/// body (every artifact load and save pays this) runs several times
/// faster than the classic byte-at-a-time loop, with identical output.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = tables[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ------------------------------------------------------------------ wire

/// Little-endian body encoder shared by every framed artifact in the
/// workspace (checkpoints, model artifacts, blocking indexes).
pub struct ByteWriter {
    /// The encoded body so far; hand it to [`write_framed`] when done.
    pub buf: Vec<u8>,
}

impl Default for ByteWriter {
    fn default() -> ByteWriter {
        ByteWriter::new()
    }
}

impl ByteWriter {
    /// An empty body buffer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a u32, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u64, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as a u64 (the wire's only integer width for counts).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append one f32, little-endian.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed f32 slice.
    pub fn put_f32s(&mut self, data: &[f32]) {
        self.put_usize(data.len());
        for &v in data {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked decoder for framed artifact bodies; every failure is a
/// typed [`ArtifactError`], never a panic or an unbounded allocation.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start decoding at the front of `data`.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                needed: self.pos + n,
                available: self.data.len(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one raw byte.
    pub fn take_u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Take a little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Take a little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A u64 length/count field; bounded by the remaining bytes so a
    /// corrupted length cannot trigger an enormous allocation.
    pub fn take_len(&mut self, unit: usize) -> Result<usize, ArtifactError> {
        let v = self.take_u64()?;
        let v = usize::try_from(v)
            .map_err(|_| ArtifactError::Malformed(format!("length {v} overflows usize")))?;
        if v.saturating_mul(unit.max(1)) > self.remaining() {
            return Err(ArtifactError::Truncated {
                needed: self.pos.saturating_add(v.saturating_mul(unit.max(1))),
                available: self.data.len(),
            });
        }
        Ok(v)
    }

    /// Take a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, ArtifactError> {
        let n = self.take_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ArtifactError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Take one little-endian f32.
    pub fn take_f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Take a length-prefixed f32 slice.
    pub fn take_f32s(&mut self) -> Result<Vec<f32>, ArtifactError> {
        let n = self.take_len(4)?;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Take a length-prefixed list of u64 dimensions as usizes.
    pub fn take_dims(&mut self) -> Result<Vec<usize>, ArtifactError> {
        let n = self.take_len(8)?;
        (0..n).map(|_| self.take_len(0)).collect()
    }

    /// Fail unless the body has been consumed exactly.
    pub fn expect_end(&self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::Malformed(format!(
                "{} trailing bytes after body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- frame

/// Atomically write `magic + version + body + crc32(body)` to `path` via
/// a temporary sibling file and rename.
pub fn write_framed(
    path: &Path,
    magic: [u8; 4],
    version: u32,
    body: &[u8],
) -> Result<(), ArtifactError> {
    if let Some(e) = dader_obs::fault::io_error("artifact.write") {
        return Err(ArtifactError::Io(e));
    }
    let mut out = Vec::with_capacity(body.len() + 20);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());

    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write.map_err(ArtifactError::Io)
}

/// Read a framed file back, validating magic, version (must be in
/// `1..=max_version`), declared length and CRC; returns the stamped
/// format version and the body bytes.
pub fn read_framed(
    path: &Path,
    magic: [u8; 4],
    max_version: u32,
) -> Result<(u32, Vec<u8>), ArtifactError> {
    let raw = std::fs::read(path)?;
    if raw.len() < 16 {
        return Err(ArtifactError::Truncated { needed: 16, available: raw.len() });
    }
    let found: [u8; 4] = raw[0..4].try_into().unwrap();
    if found != magic {
        return Err(ArtifactError::BadMagic { expected: magic, found });
    }
    let version = u32::from_le_bytes(raw[4..8].try_into().unwrap());
    if version == 0 || version > max_version {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: max_version,
        });
    }
    let body_len = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let body_len = usize::try_from(body_len)
        .map_err(|_| ArtifactError::Malformed(format!("body length {body_len} overflows usize")))?;
    let total = 16usize
        .checked_add(body_len)
        .and_then(|v| v.checked_add(4))
        .ok_or_else(|| ArtifactError::Malformed(format!("body length {body_len} overflows usize")))?;
    if raw.len() < total {
        return Err(ArtifactError::Truncated { needed: total, available: raw.len() });
    }
    if raw.len() > total {
        return Err(ArtifactError::Malformed(format!(
            "{} trailing bytes after checksum",
            raw.len() - total
        )));
    }
    let body = &raw[16..16 + body_len];
    let stored = u32::from_le_bytes(raw[16 + body_len..].try_into().unwrap());
    let computed = crc32(body);
    if stored != computed {
        return Err(ArtifactError::CrcMismatch { stored, computed });
    }
    Ok((version, body.to_vec()))
}

// ------------------------------------------------------------ checkpoint

/// Encode a checkpoint body. `quantized` is the artifact's int8 side
/// table: `None` writes the version-1 layout (byte-identical to previous
/// builds); `Some` writes version-2 entries, each prefixed with an
/// encoding tag, storing int8 codes for names present in the table.
fn encode_checkpoint_body(
    w: &mut ByteWriter,
    ckpt: &Checkpoint,
    quantized: Option<&[(String, QuantizedMatrix)]>,
) {
    w.put_u32(ckpt.version);
    w.put_str(&ckpt.description);
    w.put_usize(ckpt.entries.len());
    for e in &ckpt.entries {
        w.put_str(&e.name);
        w.put_usize(e.shape.len());
        for &d in &e.shape {
            w.put_u64(d as u64);
        }
        let q = quantized.map(|q| q.iter().find(|(n, _)| *n == e.name));
        match q {
            None => w.put_f32s(&e.data),
            Some(None) => {
                w.put_u8(ENTRY_TAG_F32);
                w.put_f32s(&e.data);
            }
            Some(Some((_, q))) => {
                w.put_u8(ENTRY_TAG_INT8);
                w.put_f32s(&q.scale);
                w.put_f32s(&q.zero);
                w.put_usize(q.data.len());
                w.buf.extend(q.data.iter().map(|&v| v as u8));
            }
        }
    }
}

/// Decode one int8-quantized entry payload, validating its geometry and
/// scales, and returning the reconstructed quantized matrix.
fn decode_int8_entry(
    r: &mut ByteReader<'_>,
    name: &str,
    shape: &[usize],
) -> Result<QuantizedMatrix, ArtifactError> {
    let (rows, cols) = match shape {
        [rows, cols] => (*rows, *cols),
        _ => {
            return Err(ArtifactError::Malformed(format!(
                "int8 entry {name:?} has rank-{} shape; only rank-2 tensors quantize",
                shape.len()
            )));
        }
    };
    let scale = r.take_f32s()?;
    let zero = r.take_f32s()?;
    if scale.len() != rows || zero.len() != rows {
        return Err(ArtifactError::Malformed(format!(
            "int8 entry {name:?}: {} scales / {} zero points for {rows} rows",
            scale.len(),
            zero.len()
        )));
    }
    for (i, &s) in scale.iter().enumerate() {
        if !(s.is_finite() && s > 0.0) {
            return Err(ArtifactError::Malformed(format!(
                "int8 entry {name:?}: scale {s} at row {i} is not a positive finite value"
            )));
        }
    }
    let n = r.take_len(1)?;
    if rows.checked_mul(cols) != Some(n) {
        return Err(ArtifactError::Malformed(format!(
            "int8 entry {name:?}: {n} codes for shape ({rows}, {cols})"
        )));
    }
    let codes = r.take(n)?.iter().map(|&b| b as i8).collect();
    Ok(QuantizedMatrix { rows, cols, scale, zero, data: codes })
}

/// Decode a checkpoint body written by [`encode_checkpoint_body`] for the
/// given frame `version`. Int8 entries are dequantized into the returned
/// checkpoint (so restoring works unchanged) and also returned raw.
fn decode_checkpoint_body(
    r: &mut ByteReader<'_>,
    version: u32,
) -> Result<(Checkpoint, Vec<(String, QuantizedMatrix)>), ArtifactError> {
    let ckpt_version = r.take_u32()?;
    let description = r.take_str()?;
    let n = r.take_len(0)?;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    let mut quantized = Vec::new();
    for _ in 0..n {
        let name = r.take_str()?;
        let shape = r.take_dims()?;
        let data = if version >= 2 {
            match r.take_u8()? {
                ENTRY_TAG_F32 => r.take_f32s()?,
                ENTRY_TAG_INT8 => {
                    let q = decode_int8_entry(r, &name, &shape)?;
                    let data = q.dequantize();
                    quantized.push((name.clone(), q));
                    data
                }
                tag => {
                    return Err(ArtifactError::Malformed(format!(
                        "unknown entry encoding tag {tag} for {name:?}"
                    )));
                }
            }
        } else {
            r.take_f32s()?
        };
        let entry = CheckpointEntry { name, shape, data };
        entry.validate_data_len()?;
        if let Some(index) = entry.data.iter().position(|v| !v.is_finite()) {
            return Err(ArtifactError::NonFiniteWeights { entry: entry.name, index });
        }
        entries.push(entry);
    }
    Ok((Checkpoint { version: ckpt_version, description, entries }, quantized))
}

impl Checkpoint {
    /// Save to `path` in the versioned binary format (atomic
    /// write-via-rename; see the module docs for the layout).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let mut w = ByteWriter::new();
        encode_checkpoint_body(&mut w, self, None);
        write_framed(path.as_ref(), CHECKPOINT_MAGIC, 1, &w.buf)
    }

    /// Load a checkpoint saved by [`Checkpoint::save_file`], validating
    /// magic, version, CRC and every entry's shape/data consistency.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Checkpoint, ArtifactError> {
        let (version, body) = read_framed(path.as_ref(), CHECKPOINT_MAGIC, FORMAT_VERSION)?;
        let mut r = ByteReader::new(&body);
        let (ckpt, _) = decode_checkpoint_body(&mut r, version)?;
        r.expect_end()?;
        Ok(ckpt)
    }
}

// -------------------------------------------------------------- artifact

const SPEC_TAG_LM: u8 = 0;
const SPEC_TAG_RNN: u8 = 1;

/// A complete, durable model: trained weights plus everything needed to
/// reconstruct inference — the extractor architecture, the matcher width
/// and the tokenizer/vocabulary state the model was trained with.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    /// Free-form provenance line (method, seed, selected epoch...).
    pub description: String,
    /// Architecture of the feature extractor `F`.
    pub extractor: ExtractorSpec,
    /// Input width of the matcher `M` (equals the extractor's `feat_dim`).
    pub matcher_dim: usize,
    /// Tokenizer state: ordered vocabulary plus padded length.
    pub encoder: EncoderState,
    /// The trained `(F, M)` weights, extractor parameters first. For a
    /// quantized artifact these are the *dequantized* values, so
    /// [`ModelArtifact::instantiate`] works unchanged.
    pub checkpoint: Checkpoint,
    /// Int8 side table for quantized entries, keyed by parameter name.
    /// Empty for dense f32 artifacts (which are written as version 1).
    pub quantized: Vec<(String, QuantizedMatrix)>,
}

impl ModelArtifact {
    /// Capture a trained model and its encoder into a persistable
    /// artifact.
    pub fn capture(
        description: impl Into<String>,
        model: &DaderModel,
        encoder: &PairEncoder,
    ) -> ModelArtifact {
        let description = description.into();
        ModelArtifact {
            extractor: model.extractor.spec(),
            matcher_dim: model.extractor.feat_dim(),
            encoder: encoder.state(),
            checkpoint: Checkpoint::capture(description.clone(), &model.params()),
            quantized: Vec::new(),
            description,
        }
    }

    /// True when this artifact carries int8-quantized entries (and will be
    /// written as format version 2).
    pub fn is_quantized(&self) -> bool {
        !self.quantized.is_empty()
    }

    /// Produce an int8-quantized copy of this artifact: every rank-2 `.w`
    /// weight matrix (the GEMM operands) is quantized per row; embedding
    /// tables, biases and norm parameters stay f32. The checkpoint entries
    /// are replaced by their dequantized values, so instantiating the
    /// result reproduces exactly what the int8 path approximates.
    ///
    /// The matcher and the extractor head projection are left f32: their
    /// GEMMs are a rounding error of inference time, but their output feeds
    /// the logits directly, so quantization noise there moves the decision
    /// boundary instead of washing out in later layers.
    ///
    /// A non-finite weight yields [`ArtifactError::NonFiniteWeights`]
    /// instead of poisoning the output.
    pub fn quantize(&self) -> Result<ModelArtifact, ArtifactError> {
        let mut art = self.clone();
        art.quantized.clear();
        for e in art.checkpoint.entries.iter_mut() {
            if e.shape.len() != 2 || !e.name.ends_with(".w") {
                continue;
            }
            if e.name.starts_with("matcher.") || e.name.ends_with(".head.w") {
                continue;
            }
            if e.name.ends_with(".wo.w") || e.name.ends_with(".ff2.w") {
                continue;
            }
            let q = quantize_rows(&e.data, e.shape[0], e.shape[1]).map_err(|err| match err {
                QuantizeError::NonFinite { row, index } => ArtifactError::NonFiniteWeights {
                    entry: e.name.clone(),
                    index: row * e.shape[1] + index,
                },
            })?;
            e.data = q.dequantize();
            art.quantized.push((e.name.clone(), q));
        }
        Ok(art)
    }

    /// Check that the manifest's pieces fit together, so a model built
    /// from it can score what its encoder produces: the matcher reads the
    /// extractor's feature width, the extractor embeds exactly the stored
    /// vocabulary, and an LM has a position for every encoded token.
    pub(crate) fn check_manifest(&self) -> Result<(), ArtifactError> {
        if self.extractor.feat_dim() != self.matcher_dim {
            return Err(ArtifactError::Malformed(format!(
                "extractor feat_dim {} disagrees with matcher input width {}",
                self.extractor.feat_dim(),
                self.matcher_dim
            )));
        }
        if self.extractor.vocab() != self.encoder.tokens.len() {
            return Err(ArtifactError::Malformed(format!(
                "extractor embeds {} tokens but the stored vocabulary has {}",
                self.extractor.vocab(),
                self.encoder.tokens.len()
            )));
        }
        if let ExtractorSpec::Lm(cfg) = self.extractor {
            if self.encoder.max_len > cfg.max_len {
                return Err(ArtifactError::Malformed(format!(
                    "encoder max_len {} exceeds the LM's {} positions",
                    self.encoder.max_len, cfg.max_len
                )));
            }
        }
        Ok(())
    }

    /// Rebuild the model and its pair encoder: construct a fresh `(F, M)`
    /// from the stored architecture, then restore the checkpointed
    /// weights. The result predicts bit-identically to the captured model.
    pub fn instantiate(&self) -> Result<(DaderModel, PairEncoder), ArtifactError> {
        self.check_manifest()?;
        let encoder = PairEncoder::from_state(self.encoder.clone()).map_err(ArtifactError::Encoder)?;
        // The init RNG is irrelevant — every parameter is overwritten by
        // the checkpoint restore below — but keep it fixed anyway.
        let mut rng = StdRng::seed_from_u64(0);
        let extractor = self.extractor.build(&mut rng);
        let matcher = Matcher::new(self.matcher_dim, &mut rng);
        let model = DaderModel { extractor, matcher };
        self.checkpoint.restore(&model.params())?;
        Ok((model, encoder))
    }

    /// Save to `path` in the versioned binary format (atomic
    /// write-via-rename; see the module docs for the layout).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let mut w = ByteWriter::new();
        w.put_str(&self.description);
        match &self.extractor {
            ExtractorSpec::Lm(cfg) => {
                w.put_u8(SPEC_TAG_LM);
                for d in [cfg.vocab, cfg.dim, cfg.layers, cfg.heads, cfg.ffn_dim, cfg.max_len] {
                    w.put_u64(d as u64);
                }
            }
            ExtractorSpec::Rnn { vocab, embed_dim, hidden, feat_dim } => {
                w.put_u8(SPEC_TAG_RNN);
                for d in [*vocab, *embed_dim, *hidden, *feat_dim] {
                    w.put_u64(d as u64);
                }
            }
        }
        w.put_usize(self.matcher_dim);
        w.put_usize(self.encoder.max_len);
        w.put_usize(self.encoder.tokens.len());
        for t in &self.encoder.tokens {
            w.put_str(t);
        }
        let version = if self.quantized.is_empty() { 1 } else { FORMAT_VERSION };
        let quantized = if self.quantized.is_empty() { None } else { Some(self.quantized.as_slice()) };
        encode_checkpoint_body(&mut w, &self.checkpoint, quantized);
        write_framed(path.as_ref(), ARTIFACT_MAGIC, version, &w.buf)
    }

    /// Load an artifact saved by [`ModelArtifact::save_file`], validating
    /// magic, version, CRC and the structural integrity of every section.
    pub fn load_file(path: impl AsRef<Path>) -> Result<ModelArtifact, ArtifactError> {
        let (version, body) = read_framed(path.as_ref(), ARTIFACT_MAGIC, FORMAT_VERSION)?;
        let mut r = ByteReader::new(&body);
        let description = r.take_str()?;
        let extractor = match r.take_u8()? {
            SPEC_TAG_LM => {
                let (vocab, dim, layers, heads, ffn_dim, max_len) = (
                    r.take_len(0)?,
                    r.take_len(0)?,
                    r.take_len(0)?,
                    r.take_len(0)?,
                    r.take_len(0)?,
                    r.take_len(0)?,
                );
                ExtractorSpec::Lm(dader_nn::TransformerConfig {
                    vocab,
                    dim,
                    layers,
                    heads,
                    ffn_dim,
                    max_len,
                })
            }
            SPEC_TAG_RNN => ExtractorSpec::Rnn {
                vocab: r.take_len(0)?,
                embed_dim: r.take_len(0)?,
                hidden: r.take_len(0)?,
                feat_dim: r.take_len(0)?,
            },
            tag => {
                return Err(ArtifactError::Malformed(format!("unknown extractor tag {tag}")));
            }
        };
        let matcher_dim = r.take_len(0)?;
        let enc_max_len = r.take_len(0)?;
        let n_tokens = r.take_len(0)?;
        let mut tokens = Vec::with_capacity(n_tokens.min(1 << 20));
        for _ in 0..n_tokens {
            tokens.push(r.take_str()?);
        }
        let (checkpoint, quantized) = decode_checkpoint_body(&mut r, version)?;
        r.expect_end()?;
        Ok(ModelArtifact {
            description,
            extractor,
            matcher_dim,
            encoder: EncoderState { tokens, max_len: enc_max_len },
            checkpoint,
            quantized,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        // The folded fast path must agree with the textbook loop at every
        // alignment around the 8-byte chunk boundary.
        let bytewise = |data: &[u8]| -> u32 {
            let mut table = [0u32; 256];
            for (i, slot) in table.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                *slot = c;
            }
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        };
        let mut data = Vec::with_capacity(4099);
        let mut x = 0x1234_5678u32;
        for _ in 0..4099 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            data.push((x >> 24) as u8);
        }
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4099] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn reader_rejects_oversized_length_field() {
        // A corrupted u64 length must not cause a giant allocation; it is
        // caught against the remaining byte count.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let mut r = ByteReader::new(&w.buf);
        assert!(matches!(r.take_str(), Err(ArtifactError::Malformed(_) | ArtifactError::Truncated { .. })));
    }

    #[test]
    fn load_rejects_non_finite_weights() {
        let path = std::env::temp_dir().join(format!("dader_nan_ckpt_{}.ddrc", std::process::id()));
        let ckpt = Checkpoint {
            version: 1,
            description: "poisoned".into(),
            entries: vec![CheckpointEntry {
                name: "w".into(),
                shape: vec![3],
                data: vec![1.0, f32::NAN, 2.0],
            }],
        };
        ckpt.save_file(&path).unwrap();
        let err = Checkpoint::load_file(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        match err {
            ArtifactError::NonFiniteWeights { entry, index } => {
                assert_eq!(entry, "w");
                assert_eq!(index, 1);
            }
            other => panic!("expected NonFiniteWeights, got {other}"),
        }
    }

    #[test]
    fn write_framed_surfaces_injected_io_error() {
        dader_obs::fault::arm(
            "artifact.write",
            dader_obs::fault::FaultSpec::once(dader_obs::fault::FaultAction::IoError),
        );
        let path = std::env::temp_dir().join(format!("dader_fault_ckpt_{}.ddrc", std::process::id()));
        let ckpt = Checkpoint { version: 1, description: String::new(), entries: vec![] };
        let res = ckpt.save_file(&path);
        dader_obs::fault::disarm("artifact.write");
        assert!(matches!(res, Err(ArtifactError::Io(_))));
        assert!(!path.exists(), "injected write failure must not leave a file");
        // Disarmed, the same save succeeds.
        ckpt.save_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_str("hello ✓");
        w.put_f32s(&[1.5, -2.25, 0.0]);
        let mut r = ByteReader::new(&w.buf);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_str().unwrap(), "hello ✓");
        assert_eq!(r.take_f32s().unwrap(), vec![1.5, -2.25, 0.0]);
        r.expect_end().unwrap();
    }
}
