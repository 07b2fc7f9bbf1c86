//! Host facts recorded next to every result, and process memory.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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

/// Busy and stolen CPU time summed over all CPUs, in seconds, from
/// `/proc/stat` (both zero where it is unavailable).
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0.0) / 100.0;
    // user nice system idle iowait irq softirq steal
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Measures the share of CPU time the hypervisor took from this machine
/// while it had work to run: on a shared virtual machine a neighbour's
/// load shows up as stolen time, which stretches every wall-clock figure.
pub struct StealClock {
    busy: f64,
    steal: f64,
}

impl StealClock {
    pub fn start() -> Self {
        let (busy, steal) = cpu_times();
        StealClock { busy, steal }
    }

    /// Stolen share of wanted CPU time since `start`, in `[0, 1)`.
    pub fn fraction(&self) -> f64 {
        let (busy, steal) = cpu_times();
        let (db, ds) = (busy - self.busy, steal - self.steal);
        if db + ds <= 0.0 {
            0.0
        } else {
            (ds / (db + ds)).clamp(0.0, 0.9)
        }
    }
}

/// The checked-out commit when run inside a git work tree, read from
/// `.git` directly; `None` in an exported source tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}

/// FNV-1a over every file under `crates/` (sorted paths and contents): an
/// identity for the measured source when no git metadata is present.
fn source_fnv() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One JSON line of host facts.
pub fn facts_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"pool_threads\":{},\"commit\":\"{}\",\"source_fnv\":\"{:#018x}\",\
         \"rustc\":\"{}\",\"target_cpu\":\"{}\"}}",
        nproc(),
        apots_par::current_threads(),
        git_commit().unwrap_or_else(|| "none".into()),
        source_fnv(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET_CPU"),
    )
}
