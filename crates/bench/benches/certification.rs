//! Certification bench: certified fraction vs the empirical consistency
//! estimate it lower-bounds, plus `certify_rows` throughput.
//!
//! For every (ε, δ) grid point the interval-bound engine reports the
//! fraction of records whose certified output displacement is ≤ δ. The
//! empirical column estimates the same quantity by sampling: a record
//! counts as *empirically consistent* when none of its seeded ε-box
//! perturbations (corners included) moves its representation farther than
//! δ. Soundness means certified ≤ empirical at every grid point — a single
//! inversion is a bug in the engine, so this bench hard-asserts it — and
//! usefulness means the certified fraction is nonzero somewhere on the
//! grid, which is asserted too.
//!
//! The `certify/k16n17/*` rows time the shape the benchmark serves: 64
//! rows at ε = 0.01 on a K = 16, N = 17 model, on 1 and 2 lanes.
//!
//! `IFAIR_BENCH_SMOKE=1` shrinks sizes for CI; `IFAIR_BENCH_JSON=1` writes
//! `BENCH_certification.json` for the perf-trajectory delta table.

use ifair_bench::timing::{bench, fmt_duration, table_header, BenchReport};
use ifair_core::par::{available_threads, WorkerPool};
use ifair_core::{IFair, IFairConfig};
use ifair_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ε grid: from "measurement noise" to "a visible chunk of the unit cube".
const EPS_GRID: [f64; 3] = [0.01, 0.05, 0.15];

/// δ grid: representation-space consistency thresholds.
const DELTA_GRID: [f64; 4] = [0.05, 0.1, 0.25, 0.5];

fn main() {
    let smoke = std::env::var_os("IFAIR_BENCH_SMOKE").is_some();
    let (n, samples, warmup, iters) = if smoke {
        (64, 64, 1, 5)
    } else {
        (256, 512, 3, 20)
    };

    let x = bench_rows(n);
    let protected = vec![false, false, true];
    let config = IFairConfig {
        k: 4,
        max_iters: 40,
        n_restarts: 1,
        ..Default::default()
    };
    let model = IFair::fit(&x, &protected, &config).expect("bench model fits");

    let mut report = BenchReport::new("certification", available_threads(), n);

    certified_vs_empirical(&model, &x, samples);
    certify_timing(&mut report, &model, &x, warmup, iters);
    served_shape_timing(&mut report, warmup, iters);

    if let Some(path) = report.write_if_enabled().expect("bench JSON writes") {
        println!("\nwrote {path}");
    }
}

/// Deterministic bench data: two informative unit-interval features plus a
/// protected bit, same shape as the serving bench's fixture.
fn bench_rows(n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            vec![
                t,
                (1.0 - t) * 0.7 + 0.3 * ((i * 13 % 7) as f64 / 7.0),
                (i % 2) as f64,
            ]
        })
        .collect();
    Matrix::from_rows(rows).expect("rectangular")
}

/// The headline table: certified fraction vs the sampled estimate, with
/// the soundness (certified ≤ empirical) and non-vacuity (certified > 0
/// somewhere) assertions from the acceptance criteria.
fn certified_vs_empirical(model: &IFair, x: &Matrix, samples: usize) {
    let pool = WorkerPool::new(available_threads());
    let grid = model
        .certify_dataset(x, &EPS_GRID, &DELTA_GRID, Some(&pool))
        .expect("bench dataset certifies");

    println!(
        "\n### certified fraction vs empirical consistency (n={}, {samples} samples/record)\n",
        x.rows()
    );
    println!("| eps | delta | certified | empirical | sound |");
    println!("|-----|-------|-----------|-----------|-------|");

    let mut any_certified = false;
    for (i, &eps) in EPS_GRID.iter().enumerate() {
        let sampled_max = sampled_max_displacement(model, x, eps, samples, 0x5eed_0000 + i as u64);
        for (j, &delta) in DELTA_GRID.iter().enumerate() {
            let certified = grid.fraction(i, j);
            let empirical = sampled_max.iter().filter(|&&d| d <= delta).count() as f64
                / sampled_max.len() as f64;
            assert!(
                certified <= empirical,
                "SOUNDNESS INVERSION at (eps={eps}, delta={delta}): \
                 certified fraction {certified} exceeds empirical estimate {empirical}"
            );
            any_certified = any_certified || certified > 0.0;
            println!(
                "| {eps} | {delta} | {certified:.4} | {empirical:.4} | {} |",
                certified <= empirical
            );
        }
    }
    assert!(
        any_certified,
        "vacuous grid: certified fraction is zero at every (eps, delta) point"
    );
}

/// Per-record maximum sampled L2 displacement under the ε box: box corners
/// first (the extremes interval arithmetic must cover), then seeded
/// uniform fill.
fn sampled_max_displacement(
    model: &IFair,
    x: &Matrix,
    eps: f64,
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    let base = model.transform(x);
    let mut rng = StdRng::seed_from_u64(seed);
    let n_dims = x.cols();
    let mut out = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let center: Vec<f64> = (0..n_dims).map(|c| x.get(r, c)).collect();
        let mut perturbed: Vec<Vec<f64>> = Vec::with_capacity(samples + (1 << n_dims));
        for corner in 0..(1usize << n_dims) {
            perturbed.push(
                center
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| {
                        if corner >> c & 1 == 1 {
                            v + eps
                        } else {
                            v - eps
                        }
                    })
                    .collect(),
            );
        }
        for _ in 0..samples {
            perturbed.push(
                center
                    .iter()
                    .map(|&v| v + rng.gen_range(-eps..eps))
                    .collect(),
            );
        }
        let images = model.transform(&Matrix::from_rows(perturbed).expect("rectangular"));
        let worst = (0..images.rows())
            .map(|s| {
                (0..images.cols())
                    .map(|c| {
                        let d = images.get(s, c) - base.get(r, c);
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(0.0f64, f64::max);
        out.push(worst);
    }
    out
}

/// `certify_rows` throughput, serial and pooled, at the middle grid ε.
fn certify_timing(
    report: &mut BenchReport,
    model: &IFair,
    x: &Matrix,
    warmup: usize,
    iters: usize,
) {
    let eps = EPS_GRID[1];
    table_header(&format!("certify_rows latency (n={}, eps={eps})", x.rows()));
    let serial = bench(
        &format!("certify/serial/n{}", x.rows()),
        warmup,
        iters,
        || {
            model
                .certify_rows(x, eps, None)
                .expect("bench rows certify")
                .len()
        },
    );
    report.push(&serial);
    for threads in [2usize, 4] {
        let pool = WorkerPool::new(threads);
        let m = bench(
            &format!("certify/t{threads}/n{}", x.rows()),
            warmup,
            iters,
            || {
                model
                    .certify_rows(x, eps, Some(&pool))
                    .expect("bench rows certify")
                    .len()
            },
        );
        report.push(&m);
    }
    println!(
        "\nserial median per record: {}",
        fmt_duration(serial.median / x.rows() as u32)
    );
}

/// `certify_rows` at the served shape: 64 rows at ε = 0.01 on a K = 16,
/// N = 17 model built from seeded parts (no fit, so the smoke run stays
/// fast), on a 1-lane and a 2-lane pool.
fn served_shape_timing(report: &mut BenchReport, warmup: usize, iters: usize) {
    let (k, n, rows, eps) = (16, 17, 64, 0.01);
    let mut rng = StdRng::seed_from_u64(0x5e27_ed17);
    let mut draw = |len: usize, lo: f64, hi: f64| -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(lo..hi)).collect()
    };
    let protos = Matrix::from_vec(k, n, draw(k * n, -1.5, 1.5)).expect("K x N prototypes");
    let alpha = draw(n, 0.0, 1.5);
    let x = Matrix::from_vec(rows, n, draw(rows * n, -1.5, 1.5)).expect("request rows");
    let config = IFairConfig {
        k,
        ..Default::default()
    };
    let model =
        IFair::from_parts(protos, alpha, vec![false; n], config).expect("seeded parts build");
    table_header(&format!(
        "certify_rows at the served shape (k={k}, n={n}, rows={rows}, eps={eps})"
    ));
    for threads in [1usize, 2] {
        let pool = WorkerPool::new(threads);
        let m = bench(
            &format!("certify/k{k}n{n}/t{threads}"),
            warmup,
            iters,
            || {
                model
                    .certify_rows(&x, eps, Some(&pool))
                    .expect("served-shape rows certify")
                    .len()
            },
        );
        report.push(&m);
    }
}
