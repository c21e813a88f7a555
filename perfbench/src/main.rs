//! The iFair benchmark: one command, three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! ifair-perfbench --workload serve-small|serve-bulk|fit-shards --seed N
//!                 --seconds S --trace 0|1 --server-bin PATH --work-dir DIR
//! ```
//!
//! `run.sh` builds this program and the `ifair` server binary from the
//! checkout and supplies the last two flags. Every run prints its
//! provenance and every metric by name and unit; the last line of
//! standard output is the JSON result.

mod fit;
mod serve;

use ifair_perfbench::report::{Outcome, Provenance, END_TO_END, PER_LAYER};
use ifair_perfbench::stats;
use ifair_perfbench::trace::{self_times_by_name, Span, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What a workload hands back: the outcome plus workload-specific
/// metrics, printed for the reader but not part of the result line.
pub struct Report {
    pub outcome: Outcome,
    /// `(name, value, unit)` lines printed for the reader.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// Prints each span name's count, median self time and total self time.
pub fn print_self_times(spans: &[Span]) {
    println!("self time per layer (traced run):");
    for (name, times) in self_times_by_name(spans) {
        println!(
            "  {name:<36} n={:<8} median={:>12.3} us  total={:>10.3} ms",
            times.len(),
            stats::median(&times) / 1e3,
            times.iter().sum::<f64>() / 1e6
        );
    }
}

/// Writes the run's spans to `<work-dir>/spans/<workload>-seed<seed>.jsonl`,
/// provenance first.
pub fn write_spans(tracer: &Tracer, provenance: &Provenance, args: &Args) -> Result<(), String> {
    let dir = args.work_dir.join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path, &provenance.to_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or_else(|| missing("--server-bin"))?,
        work_dir: work_dir.ok_or_else(|| missing("--work-dir"))?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    // The checkout root holds the work directory (`<root>/.perfbench`).
    let root = args
        .work_dir
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let provenance = Provenance::collect(&root, &args.workload, args.seed, args.trace);
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    println!("provenance {}", provenance.to_json());

    let run_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let result = match args.workload.as_str() {
        "serve-small" => serve::run(args, &serve::SMALL, &run_dir, &provenance),
        "serve-bulk" => serve::run(args, &serve::BULK, &run_dir, &provenance),
        "fit-shards" => fit::run(args, &run_dir, &provenance),
        other => Err(format!(
            "unknown workload {other} (serve-small, serve-bulk, fit-shards)"
        )),
    };
    std::fs::remove_dir_all(&run_dir).ok();
    let report = result?;

    let schema: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let outcome = &report.outcome;
    if outcome.attempted == 0 {
        return Err("the workload attempted no operations".into());
    }
    for &(name, unit) in schema {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name} {value} {unit}");
    }
    for &(name, value, unit) in &report.extra {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "metric failed_frac {} fraction ({} of {} operations failed)",
        outcome.failed_frac(),
        outcome.failed,
        outcome.attempted
    );
    outcome.to_json_line(schema)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
