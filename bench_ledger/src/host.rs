//! Host facts for the run header, and the process's peak memory.

use std::path::Path;

use sfc_filters::{detect_tier, TapConfig};

/// One `key=value` line describing the machine a run measured.
pub fn header(work_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let weight = TapConfig::default();
    format!(
        "host nproc={nproc} simd_tier={} weight_mode={} l2={} l3={} tmp_fs={}",
        detect_tier().name(),
        weight.mode.name(),
        cache_size(2).unwrap_or_else(|| "unknown".into()),
        cache_size(3).unwrap_or_else(|| "unknown".into()),
        filesystem_of(work_dir).unwrap_or_else(|| "unknown".into()),
    )
}

/// Size of the unified cache at `level` as `/sys` reports it for CPU 0.
fn cache_size(level: u32) -> Option<String> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(lvl), Some(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            return read("size").map(|s| s.trim().to_string());
        }
    }
    None
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Hand the memory that freed allocations left in the allocator's arenas
/// back to the system. A benchmark that starts a service several times
/// calls this after each stop, so every start begins from the same
/// resident set: otherwise each server's threads strand freed pages in
/// arenas the next one may not reuse, and the peak grows by a different
/// amount in every run.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
