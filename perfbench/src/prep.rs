//! The one-time model shared by every workload, built on first use and
//! kept in the benchmark's cache directory: the quick-scale FZ→ZY model
//! that `dader run --source FZ --target ZY --scale quick` trains
//! (InvGAN+KD, seed 42), as a dense f32 artifact and as its
//! `ModelArtifact::quantize` int8 copy.
//!
//! Building it runs in a child process, so the training never counts
//! towards a measured run's time or peak memory.

use std::path::PathBuf;

use dader_bench::{Context, Scale};
use dader_core::artifact::ModelArtifact;
use dader_core::AlignerKind;
use dader_datagen::DatasetId;
use serde::Value;

use crate::util::{cache_dir, file_crc, write_atomic, Obj};

/// Bump when the cached files change meaning.
const CACHE_VERSION: &str = "perfbench-cache-1";

/// Paths and checksums of the cached model.
pub struct Assets {
    pub f32_path: PathBuf,
    pub int8_path: PathBuf,
    pub f32_crc: u32,
    pub int8_crc: u32,
}

impl Assets {
    fn at(dir: &std::path::Path) -> Assets {
        Assets {
            f32_path: dir.join("model_f32.dma"),
            int8_path: dir.join("model_int8.dma"),
            f32_crc: 0,
            int8_crc: 0,
        }
    }

    /// Record checksums so every run shows which weights it served.
    pub fn stamp(&self) -> Value {
        Obj::new()
            .str("model_f32_crc32", format!("{:08x}", self.f32_crc))
            .str("model_int8_crc32", format!("{:08x}", self.int8_crc))
            .build()
    }
}

fn stamp_path() -> PathBuf {
    cache_dir().join("ready")
}

/// The cached model, built in a child process when missing.
pub fn ensure() -> Result<Assets, String> {
    let dir = cache_dir();
    let ready = std::fs::read_to_string(stamp_path()).unwrap_or_default();
    if ready.trim() != CACHE_VERSION {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        eprintln!("perfbench: training the one-time model (first run only)...");
        // The child's stdout goes to our stderr: our stdout carries only
        // the report and the result line.
        let status = std::process::Command::new(exe)
            .arg("--prepare")
            .stdout(std::process::Stdio::from(std::io::stderr()))
            .status()
            .map_err(|e| format!("spawn prepare: {e}"))?;
        if !status.success() {
            return Err(format!("prepare failed: {status}"));
        }
    }
    let mut a = Assets::at(&dir);
    a.f32_crc = file_crc(&a.f32_path).map_err(|e| format!("{}: {e}", a.f32_path.display()))?;
    a.int8_crc = file_crc(&a.int8_path).map_err(|e| format!("{}: {e}", a.int8_path.display()))?;
    Ok(a)
}

/// Train and save the cached model (the `--prepare` child).
pub fn prepare() -> Result<(), String> {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let assets = Assets::at(&dir);
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    let t0 = std::time::Instant::now();
    let ctx = Context::new(Scale::Quick);
    let (out, f1) = ctx.run_transfer(
        DatasetId::FZ,
        DatasetId::ZY,
        AlignerKind::InvGanKd,
        42,
        false,
        None,
    );
    let art = ModelArtifact::capture(
        "perfbench quick-scale FZ->ZY invgan_kd seed 42",
        &out.model,
        ctx.encoder(),
    );
    art.save_file(&assets.f32_path)
        .map_err(|e| io("save f32 model", &e))?;
    art.quantize()
        .map_err(|e| io("quantize", &e))?
        .save_file(&assets.int8_path)
        .map_err(|e| io("save int8 model", &e))?;
    eprintln!(
        "perfbench: trained FZ->ZY (target F1 {f1:.1}) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    write_atomic(&stamp_path(), CACHE_VERSION.as_bytes()).map_err(|e| io("stamp", &e))
}
