//! Scaling study: end-to-end `fit` wall-time at M ∈ {2 000, 10 000, 50 000}
//! for the full-batch L-BFGS path vs the mini-batch Adam path, on the
//! on-demand `large` generator.
//!
//! Both paths get a pair budget proportional to `M` so the comparison is a
//! fair "same statistical effort" one: full-batch uses
//! `FairnessPairs::Subsampled { 20·M }` (exact pairs at M = 50 000 would be
//! 1.25 · 10⁹ — the quadratic wall this bench exists to demonstrate an
//! escape from), mini-batch resamples 1 024 pairs inside each 256-record
//! batch. Optimization budgets are intentionally tiny (3 L-BFGS iterations /
//! 1 epoch): this bench tracks *cost per unit of training*, not convergence
//! — the convergence comparison lives in `tests/minibatch.rs`.
//!
//! A second, **out-of-core** section converts the generator into sharded
//! `.ifb` files and trains from them with `IFair::fit_source` over a
//! `BinRecordSource` at M ∈ {1 000 000, 10 000 000} — sizes nothing in
//! this process could materialize — recording the conversion and fit
//! wall-times plus the memory each fit adds: the process's peak RSS over
//! the fit minus its resident set right before it, which leaves out what
//! earlier rows left behind. That rise covers the whole training
//! footprint, and it must stay a function of the batch shape, never of
//! `M`.
//!
//! Run with `cargo bench -p ifair-bench --bench scaling`. Environment knobs:
//!
//! * `IFAIR_BENCH_SMOKE=1` — M ∈ {200, 500, 1000} (out-of-core: 20 000) and
//!   a 2-iteration budget, so CI proves the binary runs in seconds,
//! * `IFAIR_BENCH_JSON=1` — additionally write `BENCH_scaling.json` for the
//!   perf-trajectory pipeline.

use ifair_bench::timing::{
    bench, current_rss_bytes, peak_rss_bytes, reset_peak_rss, table_header, BenchReport,
};
use ifair_core::par::available_threads;
use ifair_core::{FairnessPairs, FitStrategy, IFair, IFairConfig};
use ifair_data::binfmt::{BinDatasetWriter, BinRecordSource};
use ifair_data::generators::large::{LargeScale, LargeScaleConfig};

/// Problem sizes, shrunk under `IFAIR_BENCH_SMOKE`.
struct Sizes {
    record_counts: Vec<usize>,
    out_of_core_counts: Vec<usize>,
}

impl Sizes {
    fn from_env() -> Sizes {
        if std::env::var_os("IFAIR_BENCH_SMOKE").is_some() {
            Sizes {
                record_counts: vec![200, 500, 1000],
                out_of_core_counts: vec![20_000],
            }
        } else {
            Sizes {
                record_counts: vec![2_000, 10_000, 50_000],
                out_of_core_counts: vec![1_000_000, 10_000_000],
            }
        }
    }
}

fn full_batch_config(m: usize) -> IFairConfig {
    IFairConfig {
        k: 8,
        n_restarts: 1,
        max_iters: 3,
        fairness_pairs: FairnessPairs::Subsampled { n_pairs: 20 * m },
        ..Default::default()
    }
}

fn mini_batch_config() -> IFairConfig {
    IFairConfig {
        k: 8,
        n_restarts: 1,
        strategy: FitStrategy::MiniBatch {
            batch_records: 256,
            pairs_per_batch: 1024,
            epochs: 1,
            learning_rate: 0.05,
        },
        ..Default::default()
    }
}

fn main() {
    let sizes = Sizes::from_env();
    let max_m = *sizes.record_counts.iter().max().expect("non-empty grid");
    let mut report = BenchReport::new("scaling", available_threads(), max_m);
    println!(
        "# fit scaling, full-batch vs mini-batch, M in {:?}",
        sizes.record_counts
    );
    table_header("end-to-end fit wall-time");

    for &m in &sizes.record_counts {
        let gen = LargeScale::new(LargeScaleConfig {
            n_records: m,
            n_numeric: 16,
            seed: 29,
            ..Default::default()
        });
        let protected = gen.protected_flags();

        // Full-batch needs the matrix resident; the mini-batch fit streams
        // straight from the generator and never materializes M rows.
        let ds = gen.materialize(0, m).expect("valid range");
        let full = bench(&format!("fit/full_batch/m{m}"), 0, 1, || {
            IFair::fit(&ds.x, &protected, &full_batch_config(m)).expect("full-batch fit")
        });
        report.push(&full);

        let mini = bench(&format!("fit/mini_batch/m{m}"), 0, 1, || {
            let mut source = gen.clone();
            IFair::fit_source(&mut source, &protected, &mini_batch_config())
                .expect("mini-batch fit")
        });
        report.push(&mini);
        println!(
            "    mini-batch vs full-batch at M = {m}: {:.2}x",
            full.mean.as_secs_f64() / mini.mean.as_secs_f64()
        );
    }

    out_of_core(&sizes, &mut report);

    match report.write_if_enabled() {
        Ok(Some(path)) => println!("\nwrote {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write bench JSON: {e}"),
    }
}

/// The mini-batch schedule for the out-of-core points: one epoch of
/// 65 536-record batches, 4 096 fairness pairs each — per-step cost is a
/// function of this shape, `M` only sets the step count.
fn out_of_core_config() -> IFairConfig {
    IFairConfig {
        k: 4,
        n_restarts: 1,
        n_threads: 1,
        strategy: FitStrategy::MiniBatch {
            batch_records: 65_536,
            pairs_per_batch: 4_096,
            epochs: 1,
            learning_rate: 0.05,
        },
        ..Default::default()
    }
}

/// Convert-then-train at sizes nothing in this process materializes:
/// generator → sharded `.ifb` → mini-batch fit that reads each step's
/// batch from the shards, with the resident memory the fit added attached
/// to each fit row. Shards are cut at 2²⁰ rows so the big points exercise
/// the multi-shard read path.
fn out_of_core(sizes: &Sizes, report: &mut BenchReport) {
    const SHARD_ROWS: usize = 1 << 20;
    println!(
        "\n# out-of-core: convert + mini-batch fit from .ifb shards, M in {:?}",
        sizes.out_of_core_counts
    );
    table_header("out-of-core data plane");
    let dir = std::env::temp_dir().join(format!("ifair-scaling-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create shard dir");

    for &m in &sizes.out_of_core_counts {
        let gen = LargeScale::new(LargeScaleConfig {
            n_records: m,
            n_numeric: 16,
            seed: 29,
            ..Default::default()
        });
        let protected = gen.protected_flags();
        let n = gen.width();
        let stem = dir.join(format!("m{m}"));

        let mut shards = Vec::new();
        let convert = bench(&format!("convert/ifb/m{m}"), 0, 1, || {
            let names: Vec<String> = (0..n).map(|j| format!("f{j}")).collect();
            let mut writer =
                BinDatasetWriter::create(&stem, names, SHARD_ROWS).expect("shard writer");
            let mut row = vec![0.0; n];
            for i in 0..m {
                gen.row_into(i, &mut row);
                writer.push_row(&row).expect("write row");
            }
            shards = writer.finish().expect("finish shards");
            shards.len()
        });
        report.push(&convert);

        // The reset lowers the watermark only to what the process holds
        // now, so the row records the rise over that.
        reset_peak_rss();
        let before = current_rss_bytes();
        let fit = bench(&format!("fit/minibatch_ifb/m{m}"), 0, 1, || {
            let mut source = BinRecordSource::open(&shards).expect("open shards");
            IFair::fit_source(&mut source, &protected, &out_of_core_config())
                .expect("out-of-core fit")
        });
        let peak = peak_rss_bytes();
        let fit = fit.with_peak_rss(peak.zip(before).map(|(p, b)| p.saturating_sub(b)));
        if let (Some(peak), Some(before)) = (peak, before) {
            let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
            println!(
                "    RSS at M = {m}: {:.1} MiB before the fit, {:.1} MiB peak, +{:.1} MiB for the fit ({} shards on disk)",
                mib(before),
                mib(peak),
                mib(peak.saturating_sub(before)),
                shards.len()
            );
        }
        report.push(&fit);

        for s in &shards {
            std::fs::remove_file(s).ok();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
