//! Micro-benchmarks for the numerical kernels: distances, the iFair
//! objective (value vs analytic value-and-gradient vs finite differences),
//! the metric kernels — and, the headline, the serial vs pooled objective
//! evaluation and end-to-end `fit` on M = 2000 records (1 999 000 fairness
//! pairs), plus one mini-batch evaluation at the out-of-core training
//! shape at 1 and 2 threads.
//!
//! Run with `cargo bench -p ifair-bench --bench kernels`. Environment knobs:
//!
//! * `IFAIR_BENCH_THREADS=1,2,8` — thread counts for the parallel sections
//!   (default `{1, 2, 4, all hardware threads}`),
//! * `IFAIR_BENCH_SMOKE=1` — tiny sizes and iteration counts, so CI can
//!   prove the bench binary still builds and runs in seconds,
//! * `IFAIR_BENCH_JSON=1` — additionally write `BENCH_kernels.json`
//!   (name/min/median/mean ns per measurement, plus thread count and N) so
//!   the perf trajectory is trackable across PRs.

use ifair_bench::timing::{bench, table_header, BenchReport};
use ifair_core::distance::{weighted_minkowski, weighted_power_sum};
use ifair_core::par::available_threads;
use ifair_core::{
    Backend, FairnessPairs, FitStrategy, IFair, IFairConfig, IFairObjective, MiniBatchObjective,
};
use ifair_linalg::Matrix;
use ifair_metrics::{auc, consistency, kendall_tau};
use ifair_optim::{NumericalObjective, Objective};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Problem sizes and iteration counts, shrunk under `IFAIR_BENCH_SMOKE`.
struct Sizes {
    smoke: bool,
    /// Records of the headline pairwise/fit sections. 2000 records means
    /// 1 999 000 exact fairness pairs; the smoke size (128 → 8128 pairs)
    /// still clears BOTH pool engagement thresholds (`PAR_MIN_RECORDS` =
    /// 128 and `PAR_MIN_PAIRS` = 512), so the CI smoke run exercises the
    /// pooled forward/backprop record path, not just the pair kernel.
    m_headline: usize,
    warmup: usize,
    iters: usize,
}

impl Sizes {
    fn from_env() -> Sizes {
        let smoke = std::env::var_os("IFAIR_BENCH_SMOKE").is_some();
        if smoke {
            Sizes {
                smoke,
                m_headline: 128,
                warmup: 0,
                iters: 2,
            }
        } else {
            Sizes {
                smoke,
                m_headline: 2000,
                warmup: 1,
                iters: 5,
            }
        }
    }
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn thread_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = match std::env::var("IFAIR_BENCH_THREADS") {
        Ok(list) => {
            let parsed: Vec<usize> = list
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            if parsed.is_empty() {
                eprintln!("warning: unusable IFAIR_BENCH_THREADS={list:?}; using defaults");
            }
            parsed
        }
        Err(_) => Vec::new(),
    };
    if counts.is_empty() {
        counts = vec![1usize, 2, 4, available_threads()];
        counts.sort_unstable();
        counts.dedup();
    }
    counts
}

fn bench_distance_kernels(report: &mut BenchReport) {
    let x = random_vec(100, 1);
    let y = random_vec(100, 2);
    let alpha: Vec<f64> = random_vec(100, 3).iter().map(|v| v.abs()).collect();
    table_header("distance kernels, n = 100");
    for p in [1.0, 2.0, 3.0] {
        let m = bench(&format!("minkowski/p{p}"), 20, 200, || {
            weighted_minkowski(black_box(&x), &y, &alpha, p)
        });
        report.push(&m);
    }
    let m = bench("power_sum/p2", 20, 200, || {
        weighted_power_sum(black_box(&x), &y, &alpha, 2.0)
    });
    report.push(&m);
}

fn bench_objective(report: &mut BenchReport, sizes: &Sizes) {
    let mut rng = StdRng::seed_from_u64(5);
    let x = Matrix::from_fn(80, 12, |_, _| rng.gen_range(0.0..1.0));
    let mut protected = vec![false; 12];
    protected[11] = true;
    let config = IFairConfig {
        k: 8,
        fairness_pairs: FairnessPairs::Exact,
        n_threads: 1,
        ..Default::default()
    };
    let obj = IFairObjective::new(&x, &protected, &config);
    let theta: Vec<f64> = random_vec(obj.dim(), 11).iter().map(|v| v.abs()).collect();
    let mut grad = vec![0.0; obj.dim()];

    table_header("objective, M=80 N=12 K=8, exact pairs");
    let iters = if sizes.smoke { 3 } else { 20 };
    report.push(&bench("value", sizes.warmup, iters, || {
        obj.value(black_box(&theta))
    }));
    report.push(&bench(
        "value_and_gradient/analytic",
        sizes.warmup,
        iters,
        || obj.value_and_gradient(black_box(&theta), &mut grad),
    ));
    // The reference implementation's approach: central differences cost
    // 2·dim evaluations per gradient.
    let numeric = NumericalObjective::new(obj.dim(), |t| obj.value(t));
    let fd_iters = if sizes.smoke { 1 } else { 5 };
    report.push(&bench("gradient/finite_difference", 0, fd_iters, || {
        numeric.gradient(black_box(&theta), &mut grad);
        grad[0]
    }));
}

/// The acceptance benchmark: serial vs pooled objective evaluation — the
/// parallel forward pass, pairwise `L_fair` kernel and backprop all engage.
fn bench_objective_evaluation_scaling(report: &mut BenchReport, sizes: &Sizes) {
    let mut rng = StdRng::seed_from_u64(7);
    let (m, n) = (sizes.m_headline, 10usize);
    let x = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.0..1.0));
    let mut protected = vec![false; n];
    protected[n - 1] = true;
    table_header(&format!(
        "objective evaluation, M = {m} ({} pairs), {} hardware threads",
        m * (m - 1) / 2,
        available_threads()
    ));

    let mut serial_mean = None;
    for &threads in &thread_counts() {
        // Thread count goes into the config so `new()` builds the right
        // pool from the start (no discarded spawn from an override).
        let config = IFairConfig {
            k: 8,
            fairness_pairs: FairnessPairs::Exact,
            n_threads: threads.max(1),
            ..Default::default()
        };
        let obj = IFairObjective::new(&x, &protected, &config);
        let theta: Vec<f64> = random_vec(obj.dim(), 11).iter().map(|v| v.abs()).collect();
        let mut grad = vec![0.0; obj.dim()];
        let label = if threads <= 1 { "serial" } else { "parallel" };
        let m = bench(
            &format!("value_and_gradient/{label}/threads{threads}"),
            sizes.warmup,
            sizes.iters,
            || obj.value_and_gradient(black_box(&theta), &mut grad),
        );
        report.push(&m);
        if threads <= 1 {
            serial_mean = Some(m.mean);
        } else if let Some(serial) = serial_mean {
            println!(
                "    speedup vs serial at {threads} threads: {:.2}x",
                serial.as_secs_f64() / m.mean.as_secs_f64()
            );
        }
    }
}

/// One mini-batch step's objective evaluation at the out-of-core training
/// shape (B = 65 536 records, N = 17, K = 4, P = 4 096 pairs; smoke
/// B = 4 096): the per-record forward and backprop kernels dominate it.
/// Runs at 1 and 2 threads and prints the 2-thread/1-thread median ratio.
fn bench_minibatch_evaluation(report: &mut BenchReport, sizes: &Sizes) {
    let (b, n, k, pairs) = (if sizes.smoke { 4_096 } else { 65_536 }, 17, 4, 4_096);
    let mut rng = StdRng::seed_from_u64(29);
    let mut x = Matrix::from_fn(b, n, |_, j| {
        if j == n - 1 {
            f64::from(rng.gen_bool(0.5))
        } else {
            rng.gen_range(0.0..1.0)
        }
    });
    let mut protected = vec![false; n];
    protected[n - 1] = true;
    table_header(&format!(
        "mini-batch objective evaluation, B = {b} N = {n} K = {k}, {pairs} pairs"
    ));
    let iters = if sizes.smoke { 3 } else { 20 };
    let mut medians = Vec::new();
    for threads in [1usize, 2] {
        let config = IFairConfig {
            k,
            n_threads: threads,
            strategy: FitStrategy::MiniBatch {
                batch_records: b,
                pairs_per_batch: pairs,
                epochs: 1,
                learning_rate: 0.05,
            },
            ..Default::default()
        };
        let mut obj = MiniBatchObjective::new(b, &protected, &config);
        obj.resample(&mut x, &mut StdRng::seed_from_u64(31))
            .expect("finite batch");
        let theta: Vec<f64> = random_vec(obj.dim(), 11).iter().map(|v| v.abs()).collect();
        let mut grad = vec![0.0; obj.dim()];
        let m = bench(
            &format!("value_and_gradient/minibatch/threads{threads}"),
            sizes.warmup,
            iters,
            || obj.value_and_gradient(black_box(&theta), &mut grad),
        );
        report.push(&m);
        medians.push(m.median.as_secs_f64());
    }
    println!(
        "    2-thread/1-thread median ratio: {:.2}",
        medians[1] / medians[0]
    );
}

/// End-to-end `IFair::fit` wall-clock, serial vs all hardware threads —
/// the number the persistent pool exists to improve.
fn bench_fit_end_to_end(report: &mut BenchReport, sizes: &Sizes) {
    let mut rng = StdRng::seed_from_u64(13);
    let (m, n) = (sizes.m_headline, 10usize);
    let x = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.0..1.0));
    let mut protected = vec![false; n];
    protected[n - 1] = true;
    let (max_iters, iters) = if sizes.smoke { (3, 1) } else { (8, 2) };

    table_header(&format!(
        "end-to-end fit, M = {m} N = {n} K = 8, exact pairs, {max_iters} L-BFGS iters"
    ));

    let mut serial_mean = None;
    for (label, threads) in [("serial", 1usize), ("parallel", 0usize)] {
        let config = IFairConfig {
            k: 8,
            fairness_pairs: FairnessPairs::Exact,
            n_restarts: 1,
            max_iters,
            n_threads: threads,
            ..Default::default()
        };
        let m = bench(&format!("fit/{label}/threads{threads}"), 0, iters, || {
            IFair::fit(black_box(&x), &protected, &config).unwrap()
        });
        report.push(&m);
        if threads == 1 {
            serial_mean = Some(m.mean);
        } else if let Some(serial) = serial_mean {
            println!(
                "    fit speedup vs serial on {} threads: {:.2}x",
                available_threads(),
                serial.as_secs_f64() / m.mean.as_secs_f64()
            );
        }
    }
}

/// Chunk-tail and precision coverage, run at every size tier (smoke
/// included): M = 101 is a multiple of neither the 64-record chunk width
/// nor the 64-record pair tile, so the padded-tail paths of every lane
/// kernel execute, and the objective's Exact pair loop crosses a ragged
/// tile boundary. Rows are tagged with the active kernel backend and the
/// scalar precision so `perf_delta` can track each variant separately.
fn bench_kernel_variants(report: &mut BenchReport, sizes: &Sizes) {
    let backend = Backend::active().label();
    let mut rng = StdRng::seed_from_u64(23);
    let (m, n) = (101usize, 10usize);
    let x = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.0..1.0));
    let mut protected = vec![false; n];
    protected[n - 1] = true;
    table_header(&format!(
        "kernel variants, M = {m} (ragged chunk tails), backend = {backend}"
    ));

    let config = IFairConfig {
        k: 8,
        fairness_pairs: FairnessPairs::Exact,
        n_threads: 1,
        ..Default::default()
    };
    let obj = IFairObjective::new(&x, &protected, &config);
    let theta: Vec<f64> = random_vec(obj.dim(), 11).iter().map(|v| v.abs()).collect();
    let mut grad = vec![0.0; obj.dim()];
    let iters = if sizes.smoke { 2 } else { 10 };
    report.push(
        &bench("value_and_gradient/m101", sizes.warmup, iters, || {
            obj.value_and_gradient(black_box(&theta), &mut grad)
        })
        .tagged(backend, "f64"),
    );

    let fit_config = IFairConfig {
        k: 4,
        max_iters: 5,
        n_restarts: 1,
        ..Default::default()
    };
    let model = IFair::fit(&x, &protected, &fit_config).unwrap();
    let low = model.to_f32();
    report.push(
        &bench("transform/m101/f64", sizes.warmup, iters, || {
            model.transform(black_box(&x))
        })
        .tagged(backend, "f64"),
    );
    report.push(
        &bench("transform/m101/f32", sizes.warmup, iters, || {
            low.transform_on(black_box(&x), None)
        })
        .tagged(backend, "f32"),
    );
}

fn bench_metric_kernels(report: &mut BenchReport, sizes: &Sizes) {
    let mut rng = StdRng::seed_from_u64(17);
    let (n_scored, n_rows) = if sizes.smoke { (100, 40) } else { (1000, 200) };
    let labels: Vec<f64> = (0..n_scored)
        .map(|_| f64::from(rng.gen_bool(0.4)))
        .collect();
    let scores: Vec<f64> = (0..n_scored).map(|_| rng.gen_range(0.0..1.0)).collect();
    let a = random_vec(n_rows, 31);
    let b_scores = random_vec(n_rows, 32);
    let x = Matrix::from_fn(n_rows, 20, |_, _| rng.gen_range(0.0..1.0));
    let preds: Vec<f64> = (0..n_rows).map(|_| f64::from(rng.gen_bool(0.5))).collect();

    table_header("metric kernels");
    report.push(&bench(
        &format!("auc/n{n_scored}"),
        sizes.warmup,
        50,
        || auc(black_box(&labels), black_box(&scores)),
    ));
    report.push(&bench(
        &format!("kendall_tau/n{n_rows}"),
        sizes.warmup,
        50,
        || kendall_tau(black_box(&a), black_box(&b_scores)),
    ));
    report.push(&bench(
        &format!("consistency_yNN/{n_rows}x20/k10"),
        sizes.warmup,
        if sizes.smoke { 2 } else { 10 },
        || consistency(black_box(&x), black_box(&preds), 10),
    ));
}

fn main() {
    let sizes = Sizes::from_env();
    let mut report = BenchReport::new("kernels", available_threads(), sizes.m_headline);
    println!(
        "# kernel micro-benchmarks{}",
        if sizes.smoke { " (smoke sizes)" } else { "" }
    );
    bench_distance_kernels(&mut report);
    bench_objective(&mut report, &sizes);
    bench_objective_evaluation_scaling(&mut report, &sizes);
    bench_minibatch_evaluation(&mut report, &sizes);
    bench_kernel_variants(&mut report, &sizes);
    bench_fit_end_to_end(&mut report, &sizes);
    bench_metric_kernels(&mut report, &sizes);
    match report.write_if_enabled() {
        Ok(Some(path)) => println!("\nwrote {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("warning: could not write bench JSON: {e}"),
    }
}
