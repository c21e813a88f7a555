//! Library half of the iFair benchmark: the statistics, span store and
//! result schema the workloads share, kept here so they are unit-tested
//! (`cargo test` in this directory).

pub mod report;
pub mod stats;
pub mod trace;

/// Peak resident set size of process `pid` in MiB (`VmHWM` of
/// `/proc/<pid>/status`), or `None` where unavailable.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak resident set size to its current size, so
/// a following [`peak_rss_mib`] covers only what runs after the call.
pub fn reset_peak_rss() {
    // Best effort: where clear_refs is not writable the peak keeps
    // covering everything since process start.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
