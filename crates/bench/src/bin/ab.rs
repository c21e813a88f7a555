//! Interleaved A/B driver for the repository benchmark (`perfbench/`).
//!
//! ```sh
//! ab --parent ../parent --change . --workload serve-small \
//!     --pairs 10 --seconds 30 --seed 9101
//! ```
//!
//! Runs `bash <checkout>/perfbench/run.sh` for both checkouts, R pairs of
//! them. Both sides of a pair get the same seed (`--seed` plus the pair
//! index), and the pairs alternate which side runs first, so a machine
//! that drifts during the session favours neither side. Each checkout
//! builds into its own `CARGO_TARGET_DIR` (`<checkout>/.bench_build`, the
//! benchmark's default), pinned here so an inherited variable cannot make
//! both sides share one build.
//!
//! For every end-to-end metric of the parent's `BENCHMARK.json` it prints
//! both medians, the change in percent, the parent's interquartile range,
//! how many pairs the change won, and a verdict:
//!
//! * **better** / **worse** when at least 9 in 10 of the pairs agree on
//!   the direction and the medians differ by more than the parent's IQR;
//! * **unresolved** otherwise.
//!
//! The rule is meant for ten pairs or more: with fewer, the parent's IQR
//! comes from too few runs to stand for the machine's noise.
//!
//! A run whose result line says `correct: false` or `failed > 0`, or
//! whose benchmark exits non-zero, is reported and left out: it adds no
//! value to either median and its pair counts for neither side.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: ab --parent <checkout> --change <checkout> --workload <name> \
                     [--pairs <R>] [--seconds <S>] [--seed <base>]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    pairs: usize,
    seconds: u64,
    seed: u64,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let (mut parent, mut change, mut workload) = (None, None, None);
    let (mut pairs, mut seconds, mut seed) = (10usize, 30u64, 1u64);
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value()?)),
            "--change" => change = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--pairs" => pairs = parse_number(&flag, &value()?)?,
            "--seconds" => seconds = parse_number(&flag, &value()?)?,
            "--seed" => seed = parse_number(&flag, &value()?)?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if pairs == 0 {
        return Err("--pairs must be at least 1".into());
    }
    Ok(Args {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        workload: workload.ok_or("--workload is required")?,
        pairs,
        seconds,
        seed,
    })
}

fn parse_number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: '{raw}' is not a non-negative integer"))
}

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: String,
    better: Better,
}

/// What one benchmark run reported: its metric values, or why the run is
/// left out.
type Run = Result<Vec<(String, f64)>, String>;

/// `metric`'s value in a run that is not left out.
fn value(run: &Run, metric: &str) -> Option<f64> {
    let values = run.as_ref().ok()?;
    values.iter().find(|(n, _)| n == metric).map(|&(_, v)| v)
}

/// What the comparison rule concludes for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the NumPy default). `None` on an empty slice.
fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Interquartile range: the 0.75-quantile minus the 0.25-quantile.
fn iqr(values: &[f64]) -> Option<f64> {
    Some(quantile(values, 0.75)? - quantile(values, 0.25)?)
}

/// How many of `pairs` (parent, change) the change won and lost; ties
/// count for neither.
fn pair_wins(pairs: &[(f64, f64)], better: Better) -> (usize, usize) {
    let won = |&&(p, c): &&(f64, f64)| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let wins = pairs.iter().filter(won).count();
    let losses = pairs.iter().filter(|&&(p, c)| p != c).count() - wins;
    (wins, losses)
}

/// The verdict over `pairs` (parent, change): better or worse when at
/// least 9 in 10 pairs agree on the direction and the medians differ by
/// more than the parent's IQR in that direction.
fn verdict(pairs: &[(f64, f64)], better: Better) -> Verdict {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (Some(p_med), Some(c_med), Some(spread)) = (median(&parent), median(&change), iqr(&parent))
    else {
        return Verdict::Unresolved;
    };
    let (wins, losses) = pair_wins(pairs, better);
    let n = pairs.len();
    let gain = match better {
        Better::Lower => p_med - c_med,
        Better::Higher => c_med - p_med,
    };
    if 10 * wins >= 9 * n && gain > spread {
        Verdict::Better
    } else if 10 * losses >= 9 * n && -gain > spread {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// `v` to four significant digits.
fn sig4(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// Looks up `key` in a JSON object.
fn field<'a>(object: &'a Value, key: &str) -> Result<&'a Value, String> {
    object
        .as_object()
        .map_err(|e| e.to_string())?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// The end-to-end metrics a `BENCHMARK.json` declares.
fn end_to_end_metrics(benchmark_json: &str) -> Result<Vec<Metric>, String> {
    let doc: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    field(&doc, "end_to_end")?
        .as_array()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|m| {
            let better = match field(m, "better")?.as_str().map_err(|e| e.to_string())? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction '{other}'")),
            };
            Ok(Metric {
                name: field(m, "name")?
                    .as_str()
                    .map_err(|e| e.to_string())?
                    .into(),
                unit: field(m, "unit")?
                    .as_str()
                    .map_err(|e| e.to_string())?
                    .into(),
                better,
            })
        })
        .collect()
}

/// Reads a benchmark result line: the metric values of a clean run, or
/// why the run is left out.
fn parse_result_line(line: &str) -> Run {
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let correct = matches!(field(&doc, "correct")?, Value::Bool(true));
    let failed = field(&doc, "failed")?.as_f64().map_err(|e| e.to_string())?;
    let attempted = field(&doc, "attempted")?
        .as_f64()
        .map_err(|e| e.to_string())?;
    if !correct || failed > 0.0 {
        return Err(format!(
            "correct: {correct}, failed {failed} of {attempted}"
        ));
    }
    field(&doc, "metrics")?
        .as_object()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(k, v)| {
            let value = field(v, "value")?.as_f64().map_err(|e| e.to_string())?;
            Ok((k.clone(), value))
        })
        .collect()
}

/// Runs the benchmark once in `checkout` and reads its last output line.
fn run_once(checkout: &Path, args: &Args, seed: u64) -> Run {
    let output = Command::new("bash")
        .arg(checkout.join("perfbench/run.sh"))
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .env("CARGO_TARGET_DIR", checkout.join(".bench_build"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start the benchmark: {e}"))?;
    if !output.status.success() {
        return Err(format!("benchmark exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("benchmark printed nothing")?;
    parse_result_line(line)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics = match std::fs::read_to_string(args.parent.join("BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|json| end_to_end_metrics(&json))
    {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("reading the parent's BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };

    let sides = [("parent", &args.parent), ("change", &args.change)];
    let mut runs: Vec<(Run, Run)> = Vec::with_capacity(args.pairs);
    for pair in 0..args.pairs {
        let seed = args.seed + pair as u64;
        // Even pairs run the parent first, odd pairs the change.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut results: [Option<Run>; 2] = [None, None];
        for side in order {
            let (label, checkout) = sides[side];
            let run = run_once(checkout, &args, seed);
            match &run {
                Ok(_) => {
                    let summary: Vec<String> = metrics
                        .iter()
                        .map(|m| {
                            let v = value(&run, &m.name).unwrap_or(f64::NAN);
                            format!("{} {v}", m.name)
                        })
                        .collect();
                    println!("pair {pair} seed {seed} {label}: {}", summary.join(", "));
                }
                Err(why) => println!("pair {pair} seed {seed} {label}: LEFT OUT ({why})"),
            }
            results[side] = Some(run);
        }
        let [Some(parent), Some(change)] = results else {
            unreachable!("both sides ran");
        };
        runs.push((parent, change));
    }

    println!(
        "\n{} — {} pairs of {} s runs, seeds {}..={}, parent {} vs change {}\n",
        args.workload,
        args.pairs,
        args.seconds,
        args.seed,
        args.seed + args.pairs as u64 - 1,
        args.parent.display(),
        args.change.display()
    );
    println!(
        "| metric | parent median | change median | Δ | parent IQR (% of median) | change wins | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    for m in &metrics {
        let parent: Vec<f64> = runs.iter().filter_map(|r| value(&r.0, &m.name)).collect();
        let change: Vec<f64> = runs.iter().filter_map(|r| value(&r.1, &m.name)).collect();
        let pairs: Vec<(f64, f64)> = runs
            .iter()
            .filter_map(|r| Some((value(&r.0, &m.name)?, value(&r.1, &m.name)?)))
            .collect();
        let (Some(p_med), Some(c_med), Some(spread)) =
            (median(&parent), median(&change), iqr(&parent))
        else {
            println!(
                "| {} | — | — | — | — | — | unresolved (no clean runs) |",
                m.name
            );
            continue;
        };
        let (wins, _) = pair_wins(&pairs, m.better);
        println!(
            "| {} ({}) | {} | {} | {:+.1}% | {} ({:.1}%) | {}/{} | {} |",
            m.name,
            m.unit,
            sig4(p_med),
            sig4(c_med),
            100.0 * (c_med - p_med) / p_med,
            sig4(spread),
            100.0 * spread / p_med,
            wins,
            pairs.len(),
            verdict(&pairs, m.better).label()
        );
    }
    let left_out = runs
        .iter()
        .flat_map(|(p, c)| [p, c])
        .filter(|r| r.is_err())
        .count();
    if left_out > 0 {
        println!("\n{left_out} run(s) left out: see the LEFT OUT lines above");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(iqr(&v), Some(1.5));
        assert_eq!(iqr(&[7.0]), Some(0.0));
        assert_eq!(iqr(&[]), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr(&ten), Some(4.5));
    }

    /// Ten pairs whose parent values spread by an IQR of 4.5 around a
    /// median of 100.5, and whose change values sit `shift` away.
    fn pairs(shift: f64) -> Vec<(f64, f64)> {
        (1..=10)
            .map(|i| {
                let p = 95.0 + f64::from(i);
                (p, p + shift)
            })
            .collect()
    }

    #[test]
    fn a_consistent_shift_beyond_the_iqr_is_resolved() {
        assert_eq!(verdict(&pairs(-5.0), Better::Lower), Verdict::Better);
        assert_eq!(verdict(&pairs(5.0), Better::Lower), Verdict::Worse);
        assert_eq!(verdict(&pairs(5.0), Better::Higher), Verdict::Better);
        assert_eq!(verdict(&pairs(-5.0), Better::Higher), Verdict::Worse);
    }

    #[test]
    fn a_shift_within_the_iqr_is_unresolved() {
        // Every pair agrees, but the medians differ by less than the IQR.
        assert_eq!(verdict(&pairs(-4.0), Better::Lower), Verdict::Unresolved);
        assert_eq!(verdict(&pairs(0.0), Better::Lower), Verdict::Unresolved);
    }

    #[test]
    fn nine_of_ten_pairs_must_agree() {
        let mut p = pairs(-20.0);
        p[0].1 = p[0].0 + 1.0; // one pair lost: 9/10 still resolves
        assert_eq!(verdict(&p, Better::Lower), Verdict::Better);
        assert_eq!(pair_wins(&p, Better::Lower), (9, 1));
        p[1].1 = p[1].0; // a tie counts for neither side: 8/10
        assert_eq!(pair_wins(&p, Better::Lower), (8, 1));
        assert_eq!(verdict(&p, Better::Lower), Verdict::Unresolved);
        assert_eq!(verdict(&[], Better::Lower), Verdict::Unresolved);
    }

    #[test]
    fn result_lines_of_faulty_runs_are_left_out() {
        let ok = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"req_p50_us": {"value": 61.5, "unit": "us"}, "setup_s": {"value": 0.03, "unit": "s"}}}"#;
        let run = parse_result_line(ok);
        assert_eq!(value(&run, "req_p50_us"), Some(61.5));
        assert_eq!(value(&run, "rows_per_s"), None);
        for bad in [
            r#"{"correct":false,"attempted":10,"failed":0,"metrics":{"req_p50_us":{"value":1.0,"unit":"us"}}}"#,
            r#"{"correct":true,"attempted":10,"failed":2,"metrics":{"req_p50_us":{"value":1.0,"unit":"us"}}}"#,
            "perfbench: something broke",
        ] {
            let run = parse_result_line(bad);
            assert!(run.is_err(), "{bad}");
            assert_eq!(value(&run, "req_p50_us"), None, "{bad}");
        }
    }

    #[test]
    fn table_values_keep_four_significant_digits() {
        assert_eq!(sig4(24254.7), "24255");
        assert_eq!(sig4(61.23456), "61.23");
        assert_eq!(sig4(0.031518), "0.03152");
        assert_eq!(sig4(0.0), "0");
    }

    #[test]
    fn benchmark_metrics_and_arguments_parse() {
        let json = r#"{"end_to_end":[{"name":"req_p50_us","unit":"us","better":"lower","bound":0.25},
            {"name":"rows_per_s","unit":"rows/s","better":"higher","bound":0.25}]}"#;
        let metrics = end_to_end_metrics(json).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[1].better, Better::Higher);
        assert_eq!(metrics[0].unit, "us");

        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let parsed = args(&[
            "--parent",
            "a",
            "--change",
            "b",
            "--workload",
            "serve-small",
            "--pairs",
            "4",
        ])
        .unwrap();
        assert_eq!((parsed.pairs, parsed.seconds, parsed.seed), (4, 30, 1));
        assert!(args(&["--parent", "a", "--change", "b"]).is_err());
        assert!(args(&["--pairs", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
