//! The result schema: metric names and units, the one-line JSON result,
//! and the provenance every run records.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by untraced runs of every workload:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_p50_us", "us"),
    ("req_tail_us", "us"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs of every workload (a layer
/// the workload never calls reads 0): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("serve.http.parse_us", "us"),
    ("serve.http.respond_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.wire.encode_us", "us"),
    ("serve.artifact.transform_us", "us"),
    ("serve.artifact.predict_us", "us"),
    ("serve.artifact.certify_us", "us"),
    ("serve.reactor_batch.residual_us", "us"),
    ("serve.metrics.requests", "count"),
    ("serve.metrics.keepalive_share", "fraction"),
    ("serve.metrics.shed", "count"),
    ("serve.metrics.throttled", "count"),
    ("data.binfmt.open_ms", "ms"),
    ("data.binfmt.read_ms", "ms"),
    ("data.binfmt.read_calls", "count"),
    ("data.binfmt.read_share", "fraction"),
    ("core.objective.resample_ms", "ms"),
    ("core.objective.vg_ms", "ms"),
    ("optim.adam.step_us", "us"),
    ("core.fit.epoch_s", "s"),
    ("core.fit.accounted_share", "fraction"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured: the operation counts and every metric by name.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests, fits, reconciliation checks).
    pub attempted: u64,
    /// Operations that failed: non-200 replies, output mismatches,
    /// transport errors, counter mismatches.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one attempted operation, failed or not.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: exactly the keys `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics being every entry of `schema` (a
    /// missing value reads 0). Errors on a non-finite value, which JSON
    /// cannot carry.
    pub fn to_json_line(&self, schema: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(schema.len());
        for &(name, unit) in schema {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// The compute-kernel backend in effect (`scalar` or `simd`).
    pub kernel_backend: String,
    /// The workload that ran.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Provenance {
    /// Gathers provenance for a run from the checkout at `root`.
    pub fn collect(root: &Path, workload: &str, seed: u64, traced: bool) -> Provenance {
        Provenance {
            git_sha: git_sha(root).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            kernel_backend: ifair::core::Backend::active().label().to_string(),
            workload: workload.to_string(),
            seed,
            traced,
        }
    }

    /// The provenance as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_sha\": {}, \"nproc\": {}, \"cpu_model\": {}, \"kernel_backend\": {}, \"workload\": {}, \"seed\": {}, \"traced\": {}}}",
            json_str(&self.git_sha),
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel_backend),
            json_str(&self.workload),
            self.seed,
            self.traced
        )
    }
}

/// A JSON string literal for `s`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}
