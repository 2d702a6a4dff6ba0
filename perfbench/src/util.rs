//! Small shared helpers: quantiles, timing, memory, JSON building and
//! cache-file I/O.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

/// Quantile `q` of `values` (nearest rank on a sorted copy); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds taken by `f`, plus its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Peak resident set size of this process in MiB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KiB). Children, such as the
/// one-time asset build, are not included.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    /// 64-bit Linux `struct rusage`: two `timeval`s, then fourteen
    /// `long`s, the first of which is `ru_maxrss`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the
    // kernel's 64-bit `struct rusage` for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

/// F1 in `[0, 1]` from confusion counts (1 when nothing is predicted and
/// nothing is true).
pub fn f1(tp: usize, fp: usize, fn_: usize) -> f64 {
    if tp + fp + fn_ == 0 {
        return 1.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
}

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Obj {
        Obj(Vec::new())
    }

    pub fn num(mut self, k: &str, v: f64) -> Obj {
        self.0.push((k.to_string(), Value::Number(v)));
        self
    }

    pub fn int(mut self, k: &str, v: usize) -> Obj {
        self.0.push((k.to_string(), Value::Int(v as i64)));
        self
    }

    pub fn str(mut self, k: &str, v: impl Into<String>) -> Obj {
        self.0.push((k.to_string(), Value::String(v.into())));
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.0.push((k.to_string(), Value::Bool(v)));
        self
    }

    pub fn val(mut self, k: &str, v: Value) -> Obj {
        self.0.push((k.to_string(), v));
        self
    }

    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Attribute list as a JSON object (attribute order preserved).
pub fn attrs_json(attrs: &[(String, String)]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
            .collect(),
    )
}

/// The benchmark's cache directory (the one-time model), inside the
/// benchmark's own directory.
pub fn cache_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".cache")
}

/// Write `bytes` to `path` atomically (temp file + rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// CRC-32 of a file's bytes.
pub fn file_crc(path: &Path) -> std::io::Result<u32> {
    Ok(dader_core::artifact::crc32(&std::fs::read(path)?))
}
