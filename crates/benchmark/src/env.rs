//! The environment block: what the host can do, so every durable figure is
//! read against its ceiling. Reported, never gated.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Calibration {
    /// 64-byte write + `fdatasync` per second on the run's own directory.
    pub fsync_per_s: f64,
    /// Single-thread copy bandwidth over a buffer larger than any cache.
    pub memcpy_gb_per_s: f64,
}

impl Calibration {
    pub fn describe(&self) -> String {
        format!(
            "env nproc {} fsync_per_s {:.0} memcpy_gb_per_s {:.2}",
            nproc(),
            self.fsync_per_s,
            self.memcpy_gb_per_s
        )
    }
}

/// Measure fsync rate for `fsync_for` in `dir`, and copy bandwidth.
pub fn calibrate(dir: &Path, fsync_for: Duration) -> Calibration {
    Calibration {
        fsync_per_s: fsync_per_s(dir, fsync_for).unwrap_or_else(|e| {
            eprintln!("benchmark: fsync calibration: {e}");
            f64::NAN
        }),
        memcpy_gb_per_s: memcpy_gb_per_s(),
    }
}

fn fsync_per_s(dir: &Path, run_for: Duration) -> std::io::Result<f64> {
    let path = dir.join("fsync-calibration");
    let mut f = std::fs::File::create(&path)?;
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < run_for {
        f.write_all(&[0u8; 64])?;
        f.sync_data()?;
        n += 1;
    }
    let rate = n as f64 / t0.elapsed().as_secs_f64();
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(rate)
}

fn memcpy_gb_per_s() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let ns = crate::measure::time_ns_per(3, 1, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    BYTES as f64 / ns
}
