//! The host as far as it shapes a measurement: cores, scratch file
//! system, compiler, peak memory.

use std::path::{Path, PathBuf};

/// Where result files and spans go: `benchmark/out/`.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A private scratch directory for WAL segments, exported as `TMPDIR`
/// and removed on drop.
///
/// It sits on tmpfs (`/dev/shm`) when that is writable. 864 of a matrix
/// pass's 2,400 cases run disk-backed WALs, and on a block device those
/// are fsync-bound: the same pass took 2.5–2.8 s on `/dev/vda` against
/// 1.16–1.20 s on tmpfs, which measures the host's disk, not the
/// program. Without `/dev/shm` the directory falls back to
/// `benchmark/out/`, and the host line says so.
pub struct Scratch {
    dir: PathBuf,
    pub on_tmpfs: bool,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let name = format!("axml-benchmark-{}", std::process::id());
        let shm = Path::new("/dev/shm").join(&name);
        let (dir, on_tmpfs) = if std::fs::create_dir(&shm).is_ok() {
            (shm, true)
        } else {
            let dir = out_dir()?.join(name);
            std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            (dir, false)
        };
        // Set before any thread exists; every scratch path the chaos
        // harness and the benchmark make comes from `std::env::temp_dir`.
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch { dir, on_tmpfs })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `nproc`, scratch file system and compiler, on one line.
pub fn describe(scratch: &Scratch) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let fs = if scratch.on_tmpfs { "tmpfs (/dev/shm)" } else { "checkout disk (no writable /dev/shm)" };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("rustc unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    format!("nproc {nproc} | scratch {fs} | {rustc} | release profile, one thread")
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}
