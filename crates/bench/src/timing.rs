//! Minimal wall-clock micro-benchmark harness.
//!
//! The offline toolchain has no criterion, so the `benches/` targets are
//! plain `harness = false` binaries built on this module: warm up, run a
//! fixed number of timed iterations, report min / median / mean. Results are
//! printed as a Markdown table so bench output can be pasted into PRs.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One measured benchmark row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label, e.g. `l_fair/serial/n2000`.
    pub name: String,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// Kernel backend label (`"scalar"` / `"simd"`) when the benchmark
    /// exercises the lane kernels; `None` for backend-agnostic rows.
    pub backend: Option<String>,
    /// Scalar precision label (`"f64"` / `"f32"`) when relevant.
    pub precision: Option<String>,
    /// Resident memory the measured region added to *this process*, in
    /// bytes, when the benchmark captured it: the peak over the region
    /// minus the resident set at its start (see [`reset_peak_rss`],
    /// [`current_rss_bytes`] and [`peak_rss_bytes`]). The out-of-core rows
    /// use it to pin the footprint-independent-of-M claim.
    pub peak_rss: Option<u64>,
}

impl Measurement {
    /// Tags this measurement with the kernel backend and precision it ran
    /// under, for the JSON report and `perf_delta` comparisons.
    pub fn tagged(mut self, backend: &str, precision: &str) -> Measurement {
        self.backend = Some(backend.to_string());
        self.precision = Some(precision.to_string());
        self
    }

    /// Attaches a peak-RSS sample to this measurement.
    pub fn with_peak_rss(mut self, bytes: Option<u64>) -> Measurement {
        self.peak_rss = bytes;
        self
    }
}

/// Resets the kernel's peak-RSS watermark for this process (Linux:
/// `echo 5 > /proc/self/clear_refs`). The reset only lowers the watermark
/// to the *current* resident set, so [`peak_rss_bytes`] afterward still
/// counts everything the process already held: subtract
/// [`current_rss_bytes`], read right after the reset, to get what the
/// region itself added. No-op elsewhere (the watermark then covers the
/// whole process lifetime).
pub fn reset_peak_rss() {
    #[cfg(target_os = "linux")]
    {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }
}

/// This process's peak resident set size in bytes (Linux: `VmHWM` from
/// `/proc/self/status`), `None` where unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM:").map(|kb| kb * 1024)
}

/// This process's current resident set size in bytes (Linux: `VmRSS` from
/// `/proc/self/status`), `None` where unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    status_kib("VmRSS:").map(|kb| kb * 1024)
}

/// The kB value of one `/proc/self/status` line.
fn status_kib(key: &str) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let rest = status.lines().find_map(|line| line.strip_prefix(key))?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = key;
        None
    }
}

/// Times `f` for `iters` iterations after `warmup` untimed runs.
///
/// The closure's return value is passed through [`std::hint::black_box`], so
/// benched expressions are not optimized away; return the value you compute.
pub fn bench<T>(name: &str, warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> Measurement {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed());
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    let m = Measurement {
        name: name.to_string(),
        min,
        median,
        mean,
        backend: None,
        precision: None,
        peak_rss: None,
    };
    println!(
        "| {} | {} | {} | {} |",
        m.name,
        fmt_duration(m.min),
        fmt_duration(m.median),
        fmt_duration(m.mean)
    );
    m
}

/// Machine-readable form of a [`Measurement`]: durations as integer
/// nanoseconds, ready for JSON serialization (and deserialization — the
/// `perf_delta` tool reads these back to build regression tables).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementRecord {
    /// Benchmark label, e.g. `l_fair/serial/n2000`.
    pub name: String,
    /// Fastest observed iteration, in nanoseconds.
    pub min_ns: u64,
    /// Median iteration, in nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, in nanoseconds.
    pub mean_ns: u64,
    /// Kernel backend label, when the row is backend-specific. Defaults to
    /// `None` so pre-existing baseline JSON (no such field) still loads.
    #[serde(default)]
    pub backend: Option<String>,
    /// Scalar precision label, with the same backward-compatible default.
    #[serde(default)]
    pub precision: Option<String>,
    /// Resident bytes the measured region added to the process (its peak
    /// minus the resident set at its start), when captured (out-of-core
    /// rows); `#[serde(default)]` so older JSON still loads.
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
}

impl Measurement {
    /// The JSON-serializable form of this measurement.
    pub fn record(&self) -> MeasurementRecord {
        MeasurementRecord {
            name: self.name.clone(),
            min_ns: duration_ns(self.min),
            median_ns: duration_ns(self.median),
            mean_ns: duration_ns(self.mean),
            backend: self.backend.clone(),
            precision: self.precision.clone(),
            peak_rss_bytes: self.peak_rss,
        }
    }
}

/// Nanoseconds of `d`, saturating at `u64::MAX` (≈ 584 years).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Machine-readable bench output, written as `BENCH_<name>.json` when the
/// `IFAIR_BENCH_JSON` environment variable is set, so the perf trajectory
/// stays trackable across PRs without parsing Markdown tables.
#[derive(Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Bench binary name (the file stem of the JSON output).
    pub bench: String,
    /// Hardware threads visible to this run.
    pub available_threads: usize,
    /// Record count `N` of the headline benchmark section.
    pub n_records: usize,
    /// All measurements, in execution order.
    pub measurements: Vec<MeasurementRecord>,
}

impl BenchReport {
    /// Creates an empty report for the bench binary `bench`.
    pub fn new(bench: &str, available_threads: usize, n_records: usize) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            available_threads,
            n_records,
            measurements: Vec::new(),
        }
    }

    /// Records one measurement.
    pub fn push(&mut self, m: &Measurement) {
        self.measurements.push(m.record());
    }

    /// Writes `BENCH_<bench>.json` next to the workspace root when
    /// `IFAIR_BENCH_JSON` is set (to any value); returns the path written,
    /// or `None` when the variable is unset.
    ///
    /// Cargo runs bench binaries with the *package* directory as the
    /// working directory, so like [`crate::report::results_dir`] this
    /// anchors on the runtime `CARGO_MANIFEST_DIR` (`crates/bench`, two
    /// levels below the workspace root) rather than the cwd.
    pub fn write_if_enabled(&self) -> std::io::Result<Option<String>> {
        if std::env::var_os("IFAIR_BENCH_JSON").is_none() {
            return Ok(None);
        }
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|manifest| format!("{manifest}/../.."))
            .unwrap_or_else(|_| ".".into());
        let path = format!("{root}/BENCH_{}.json", self.bench);
        let json =
            serde_json::to_string_pretty(self).map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(&path, json)?;
        Ok(Some(path))
    }
}

/// Prints the Markdown table header matching [`bench()`] rows.
pub fn table_header(title: &str) {
    println!("\n### {title}\n");
    println!("| benchmark | min | median | mean |");
    println!("|-----------|-----|--------|------|");
}

/// Human-readable duration (ns / µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let m = bench("noop", 1, 5, || 1 + 1);
        assert!(m.min <= m.median);
        assert!(!m.name.is_empty());
    }

    #[test]
    fn records_convert_to_integer_nanoseconds() {
        let m = Measurement {
            name: "x".into(),
            min: Duration::from_nanos(10),
            median: Duration::from_micros(2),
            mean: Duration::from_millis(3),
            backend: None,
            precision: None,
            peak_rss: None,
        };
        let r = m.record();
        assert_eq!(
            (r.name.as_str(), r.min_ns, r.median_ns, r.mean_ns),
            ("x", 10, 2_000, 3_000_000)
        );
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"median_ns\""), "{json}");
        // Untagged rows carry explicit nulls and deserialize back to None.
        let back: MeasurementRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.backend, None);
        assert_eq!(back.precision, None);
    }

    #[test]
    fn backend_and_precision_tags_roundtrip_and_old_json_still_loads() {
        let m = bench("tagme", 0, 2, || 3 + 3).tagged("scalar", "f32");
        let r = m.record();
        assert_eq!(r.backend.as_deref(), Some("scalar"));
        assert_eq!(r.precision.as_deref(), Some("f32"));
        let json = serde_json::to_string(&r).unwrap();
        let back: MeasurementRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.backend.as_deref(), Some("scalar"));
        assert_eq!(back.precision.as_deref(), Some("f32"));

        // A record written before the fields existed deserializes to None.
        let old = r#"{"name":"legacy","min_ns":1,"median_ns":2,"mean_ns":3}"#;
        let legacy: MeasurementRecord = serde_json::from_str(old).unwrap();
        assert_eq!(legacy.backend, None);
        assert_eq!(legacy.precision, None);
        assert_eq!(legacy.peak_rss_bytes, None);
    }

    #[test]
    fn peak_rss_attaches_and_roundtrips() {
        let m = bench("rss", 0, 1, || 7).with_peak_rss(Some(123 * 1024));
        let r = m.record();
        assert_eq!(r.peak_rss_bytes, Some(123 * 1024));
        let json = serde_json::to_string(&r).unwrap();
        let back: MeasurementRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.peak_rss_bytes, Some(123 * 1024));
        // The probe itself works on Linux (None elsewhere is fine).
        #[cfg(target_os = "linux")]
        {
            reset_peak_rss();
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_rss_sits_under_the_peak() {
        reset_peak_rss();
        let current = current_rss_bytes().expect("VmRSS on Linux");
        let peak = peak_rss_bytes().expect("VmHWM on Linux");
        assert!(current > 0);
        assert!(current <= peak, "VmRSS {current} above VmHWM {peak}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut report = BenchReport::new("unit", 4, 100);
        report.push(&bench("noop2", 0, 3, || 2 + 2));
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"bench\""), "{json}");
        assert!(json.contains("noop2"), "{json}");
        assert!(json.contains("\"available_threads\""), "{json}");
    }

    #[test]
    fn durations_format_by_scale() {
        assert!(fmt_duration(Duration::from_nanos(5)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).ends_with("s"));
    }
}
