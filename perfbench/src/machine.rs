//! What a result must say about where it was measured, and the peak
//! resident memory of a process.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built this binary.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The CPU model name, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test: `PERFBENCH_COMMIT` if set, else the checkout's
/// `.git/HEAD` resolved by hand (no git process), else `unknown` — a
/// benchmark checkout is usually not a repository.
pub fn commit(root: &Path) -> String {
    if let Ok(commit) = std::env::var("PERFBENCH_COMMIT") {
        return commit;
    }
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|id| id.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|line| line.ends_with(reference))
                        .and_then(|line| line.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident size, so a later [`peak_rss_mib`] covers only what ran after
/// the reset: set-up's transient buffers (dense reference states) do not
/// count towards the measured peak.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))
}
