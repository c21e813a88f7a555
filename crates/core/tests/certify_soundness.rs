//! The certification soundness oracle battery.
//!
//! A certificate `(ε, δ)` is a *promise*: no input inside the L∞ box
//! `[x − ε, x + ε]` maps farther than δ (L2) from `x`'s representation.
//! These tests attack that promise empirically — ≥ 10 000 seeded samples
//! per certified ball, including box corners (every one where they fit,
//! a seeded subset at the served N = 17) — and treat a **single**
//! violation as a hard failure, on both the f64 and the f32 forward pass,
//! with certificates produced at 1, 2 and 4 pool threads. The battery also
//! rejects vacuous bounds (certified δ must stay within a constant factor
//! of the sampled maximum), pins certificates bit-identical across pool
//! sizes and JSON round-trips, and fuzzes degenerate geometries no
//! optimizer would produce (ε = 0, duplicate prototypes, zero-weight
//! dimensions). Most models use p = 2, where the kernel squares without
//! libm; dedicated models keep the `powf` paths (p = 1.5, p = 3, and the
//! rooted distance) under the same assault.

use ifair_core::par::WorkerPool;
use ifair_core::{CertMethod, Certificate, IFair, IFairConfig, SoftmaxDistance};
use ifair_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded samples drawn inside every certified ball (corners included).
const SAMPLES_PER_BALL: usize = 10_000;

/// Anti-vacuity cap: a certified δ may exceed the sampled maximum
/// displacement by at most this factor on the small models below. The box
/// diagonal alone costs ~2x over the center displacement; interval slop
/// through softmax costs a few x more. A bound past this is useless, not
/// just conservative.
const VACUITY_FACTOR: f64 = 25.0;

fn fitted(seed: u64, m: usize) -> (Matrix, IFair) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|_| {
            vec![
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                if rng.gen_bool(0.5) { 1.0 } else { 0.0 },
            ]
        })
        .collect();
    let x = Matrix::from_rows(rows).unwrap();
    let protected = vec![false, false, true];
    let config = IFairConfig {
        k: 3,
        max_iters: 30,
        n_restarts: 1,
        ..IFairConfig::default()
    };
    let model = IFair::fit(&x, &protected, &config).unwrap();
    (x, model)
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt()
}

/// `SAMPLES_PER_BALL` points inside `[x − ε, x + ε]`: the center first,
/// then box corners (the extremes interval arithmetic must cover), then
/// seeded uniform fill. Every corner is enumerated while they fit in the
/// budget; past that (`2^17` corners at `N = 17`) half the budget is a
/// seeded subset of corners.
fn ball_samples(rng: &mut StdRng, x: &[f64], eps: f64) -> Matrix {
    let n = x.len();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(SAMPLES_PER_BALL);
    rows.push(x.to_vec());
    let corner = |up: &mut dyn FnMut(usize) -> bool| -> Vec<f64> {
        (0..n)
            .map(|j| if up(j) { x[j] + eps } else { x[j] - eps })
            .collect()
    };
    match 1usize
        .checked_shl(n as u32)
        .filter(|&c| c < SAMPLES_PER_BALL)
    {
        Some(n_corners) => {
            for bits in 0..n_corners {
                rows.push(corner(&mut |j| bits >> j & 1 == 1));
            }
        }
        None => {
            for _ in 0..SAMPLES_PER_BALL / 2 {
                rows.push(corner(&mut |_| rng.gen_bool(0.5)));
            }
        }
    }
    while rows.len() < SAMPLES_PER_BALL {
        rows.push(
            (0..n)
                .map(|j| x[j] + eps * rng.gen_range(-1.0..1.0))
                .collect(),
        );
    }
    Matrix::from_rows(rows).unwrap()
}

/// The shared oracle: certify every row of `x` at `eps` (at 1/2/4 pool
/// threads, asserting bit-identical certificates), then hammer each ball
/// with samples and fail on any δ violation. `transform` abstracts over
/// the f64 and f32 forward passes. Returns (violations, worst vacuity
/// ratio) so callers can add their own anti-vacuity assertions.
type CertifyFn<'a> = &'a dyn Fn(&Matrix, f64, Option<&WorkerPool>) -> Vec<Certificate>;

fn assault_certificates(
    x: &Matrix,
    eps: f64,
    seed: u64,
    certify: CertifyFn,
    transform: &dyn Fn(&Matrix) -> Matrix,
) -> f64 {
    let reference = certify(x, eps, None);
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        let certs = certify(x, eps, Some(&pool));
        assert_eq!(certs.len(), reference.len());
        for (a, b) in certs.iter().zip(&reference) {
            assert_eq!(
                a.delta.to_bits(),
                b.delta.to_bits(),
                "certificates must be bit-identical at {threads} threads"
            );
            assert_eq!(a.method, b.method);
        }
    }
    let centers = transform(x);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst_ratio = 0.0f64;
    for (i, cert) in reference.iter().enumerate() {
        let samples = ball_samples(&mut rng, x.row(i), eps);
        let images = transform(&samples);
        let mut sampled_max = 0.0f64;
        for s in 0..images.rows() {
            let d = euclid(images.row(s), centers.row(i));
            assert!(
                d <= cert.delta,
                "SOUNDNESS VIOLATION: row {i} sample {s} moved {d:.17} \
                 but the certificate promised {:.17} (eps {eps})",
                cert.delta
            );
            sampled_max = sampled_max.max(d);
        }
        if sampled_max > 0.0 {
            worst_ratio = worst_ratio.max(cert.delta / sampled_max);
        }
    }
    worst_ratio
}

#[test]
fn f64_certificates_survive_ten_thousand_samples_per_ball() {
    let (x, model) = fitted(1301, 12);
    for (eps, seed) in [(1e-3, 9000u64), (0.05, 9001), (0.25, 9002)] {
        let ratio = assault_certificates(
            &x,
            eps,
            seed,
            &|rows, e, pool| model.certify_rows(rows, e, pool).unwrap(),
            &|rows| model.transform_on(rows, None),
        );
        assert!(
            ratio <= VACUITY_FACTOR,
            "eps {eps}: certified bound is {ratio:.1}x the sampled max — vacuous"
        );
    }
}

#[test]
fn f32_certificates_survive_ten_thousand_samples_per_ball() {
    let (x, model) = fitted(1302, 12);
    let lowered = model.to_f32();
    for (eps, seed) in [(1e-3, 9100u64), (0.05, 9101), (0.25, 9102)] {
        let ratio = assault_certificates(
            &x,
            eps,
            seed,
            &|rows, e, pool| lowered.certify_rows(rows, e, pool).unwrap(),
            &|rows| lowered.transform_on(rows, None),
        );
        assert!(
            ratio <= VACUITY_FACTOR,
            "eps {eps}: certified f32 bound is {ratio:.1}x the sampled max — vacuous"
        );
    }
}

#[test]
fn certificates_round_trip_json_bit_exactly() {
    let (x, model) = fitted(1303, 8);
    let pool = WorkerPool::new(2);
    for eps in [0.0, 1e-3, 0.1, 2.0] {
        for cert in model.certify_rows(&x, eps, Some(&pool)).unwrap() {
            let json = cert.to_json().unwrap();
            let back = Certificate::from_json(&json).unwrap();
            assert_eq!(back.eps.to_bits(), cert.eps.to_bits());
            assert_eq!(back.delta.to_bits(), cert.delta.to_bits());
            assert_eq!(back.method, cert.method);
        }
    }
}

#[test]
fn zero_radius_certifies_zero_displacement() {
    let (x, model) = fitted(1304, 8);
    let certs = model.certify_rows(&x, 0.0, None).unwrap();
    for cert in &certs {
        // The box is a point: only directed-rounding slack remains.
        assert!(
            cert.delta < 1e-9,
            "eps 0 certified delta {} — should collapse to rounding slack",
            cert.delta
        );
    }
    // And the promise still holds trivially: transform is within delta of
    // itself.
    let y = model.transform_on(&x, None);
    for (i, cert) in certs.iter().enumerate() {
        assert!(euclid(y.row(i), y.row(i)) <= cert.delta);
    }
}

#[test]
fn duplicate_prototypes_stay_sound() {
    // Two identical prototypes: softmax mass splits between them but the
    // mixture is unchanged — a geometry no optimizer converges to, and a
    // classic division-of-responsibility edge case for interval code.
    let protos = Matrix::from_rows(vec![
        vec![0.2, 0.8, 0.5],
        vec![0.2, 0.8, 0.5],
        vec![0.9, 0.1, 0.0],
    ])
    .unwrap();
    let config = IFairConfig {
        k: 3,
        max_iters: 1,
        n_restarts: 1,
        ..IFairConfig::default()
    };
    let model = IFair::from_parts(
        protos,
        vec![1.0, 0.5, 2.0],
        vec![false, false, true],
        config,
    )
    .unwrap();
    let x = Matrix::from_rows(vec![vec![0.3, 0.6, 1.0], vec![0.8, 0.2, 0.0]]).unwrap();
    for (eps, seed) in [(0.02, 9300u64), (0.2, 9301)] {
        assault_certificates(
            &x,
            eps,
            seed,
            &|rows, e, pool| model.certify_rows(rows, e, pool).unwrap(),
            &|rows| model.transform_on(rows, None),
        );
    }
}

#[test]
fn zero_weight_dimensions_certify_tightly_and_soundly() {
    // alpha = [1, 0, 0]: only the first coordinate matters. Perturbing the
    // dead coordinates must not move the representation, and the interval
    // pass must notice (a box varying only dead dimensions certifies ~0).
    let protos = Matrix::from_rows(vec![vec![0.0, 0.3, 0.7], vec![1.0, 0.6, 0.1]]).unwrap();
    let config = IFairConfig {
        k: 2,
        max_iters: 1,
        n_restarts: 1,
        ..IFairConfig::default()
    };
    let model = IFair::from_parts(
        protos,
        vec![1.0, 0.0, 0.0],
        vec![false, false, true],
        config,
    )
    .unwrap();
    let x = Matrix::from_rows(vec![vec![0.4, 0.5, 0.5]]).unwrap();
    // Soundness under a full-box assault.
    assault_certificates(
        &x,
        0.1,
        9400,
        &|rows, e, pool| model.certify_rows(rows, e, pool).unwrap(),
        &|rows| model.transform_on(rows, None),
    );
    // Tightness: a box that only moves the zero-weight coordinates is a
    // fixed point of the map — the certificate must collapse.
    let lo = Matrix::from_rows(vec![vec![0.4, 0.0, 0.0]]).unwrap();
    let hi = Matrix::from_rows(vec![vec![0.4, 1.0, 1.0]]).unwrap();
    let certs = model.certify_boxes(&lo, &hi, None).unwrap();
    assert_eq!(certs.len(), 1);
    assert!(
        certs[0].delta < 1e-9,
        "dead-dimension box certified delta {} — interval pass missed \
         the zero weights",
        certs[0].delta
    );
}

#[test]
fn f32_certificates_widen_never_narrow() {
    // Lowering to f32 loses information; its certificates must pay for
    // that with slack, never claim a tighter bound than the f64 pass.
    let (x, model) = fitted(1305, 10);
    let lowered = model.to_f32();
    for eps in [1e-3, 0.05, 0.25] {
        let f64_certs = model.certify_rows(&x, eps, None).unwrap();
        let f32_certs = lowered.certify_rows(&x, eps, None).unwrap();
        for (i, (a, b)) in f64_certs.iter().zip(&f32_certs).enumerate() {
            assert!(
                b.delta >= a.delta,
                "row {i} eps {eps}: f32 delta {} narrower than f64 delta {}",
                b.delta,
                a.delta
            );
        }
    }
}

#[test]
fn huge_radius_caps_at_the_hull_diameter() {
    let (x, model) = fitted(1306, 8);
    let hull = model.certification_hull_diameter();
    let certs = model.certify_rows(&x, 1e6, None).unwrap();
    for cert in &certs {
        assert_eq!(cert.method, CertMethod::GlobalDiameter);
        // The cap plus the terminal soundness slack, nothing more.
        assert!(cert.delta <= hull * (1.0 + 1e-9) + 1e-9);
    }
    // The cap is itself sound: every output lies in the prototype hull, so
    // no two images can be farther apart than its diameter. Sample wildly.
    let mut rng = StdRng::seed_from_u64(9500);
    let wild: Vec<Vec<f64>> = (0..SAMPLES_PER_BALL)
        .map(|_| (0..3).map(|_| rng.gen_range(-1e5..1e5)).collect())
        .collect();
    let images = model.transform_on(&Matrix::from_rows(wild).unwrap(), None);
    let center = model.transform_on(&x, None);
    for s in 0..images.rows() {
        let d = euclid(images.row(s), center.row(0));
        assert!(
            d <= certs[0].delta,
            "wild sample {s} moved {d} past the hull-diameter certificate {}",
            certs[0].delta
        );
    }
}

/// A model built from seeded parts: prototypes and rows uniform in
/// `[lo, hi)`, weights in `[0, 1.5)`.
fn seeded_parts(
    seed: u64,
    (k, n): (usize, usize),
    p: f64,
    softmax_distance: SoftmaxDistance,
    rows: usize,
    (lo, hi): (f64, f64),
) -> (Matrix, IFair) {
    let mut rng = StdRng::seed_from_u64(seed);
    let protos =
        Matrix::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(lo..hi)).collect()).unwrap();
    let alpha = (0..n).map(|_| rng.gen_range(0.0..1.5)).collect();
    let config = IFairConfig {
        k,
        p,
        softmax_distance,
        ..IFairConfig::default()
    };
    let model = IFair::from_parts(protos, alpha, vec![false; n], config).unwrap();
    let x = Matrix::from_vec(
        rows,
        n,
        (0..rows * n).map(|_| rng.gen_range(lo..hi)).collect(),
    )
    .unwrap();
    (x, model)
}

#[test]
fn libm_power_and_root_paths_stay_sound() {
    // At p = 2 with the power-sum distance the kernel squares without
    // libm; these models keep `powf` (p = 1.5, p = 3) and the rooted
    // distance's `1/p` root under the same zero-tolerance assault. The
    // anti-vacuity cap holds for the power sums (5.7–11.5x here); interval
    // propagation through the root is looser (28–52x here), so the rooted
    // model is held to soundness only.
    let cases = [
        (1.5, SoftmaxDistance::PowerSum, 9600u64),
        (3.0, SoftmaxDistance::PowerSum, 9610),
        (2.0, SoftmaxDistance::Rooted, 9620),
    ];
    for (p, distance, seed) in cases {
        let (x, model) = seeded_parts(seed, (3, 3), p, distance, 3, (0.0, 1.0));
        let lowered = model.to_f32();
        let capped = distance == SoftmaxDistance::PowerSum;
        for (j, eps) in [1e-3, 0.05, 0.25].into_iter().enumerate() {
            let ball_seed = seed + 1 + j as u64;
            let ratios = [
                assault_certificates(
                    &x,
                    eps,
                    ball_seed,
                    &|rows, e, pool| model.certify_rows(rows, e, pool).unwrap(),
                    &|rows| model.transform_on(rows, None),
                ),
                assault_certificates(
                    &x,
                    eps,
                    ball_seed,
                    &|rows, e, pool| lowered.certify_rows(rows, e, pool).unwrap(),
                    &|rows| lowered.transform_on(rows, None),
                ),
            ];
            for (precision, ratio) in ["f64", "f32"].into_iter().zip(ratios) {
                assert!(
                    !capped || ratio <= VACUITY_FACTOR,
                    "{precision} p {p} eps {eps}: certified bound is {ratio:.1}x the sampled max"
                );
            }
        }
    }
}

#[test]
fn served_shape_stays_sound() {
    // The shape the benchmark serves (K = 16 prototypes over N = 17
    // features, p = 2) at its radii, on a few rows, in both precisions.
    let (x, model) = seeded_parts(
        9700,
        (16, 17),
        2.0,
        SoftmaxDistance::PowerSum,
        3,
        (-1.5, 1.5),
    );
    let lowered = model.to_f32();
    for (eps, seed) in [(1e-3, 9701u64), (0.01, 9702)] {
        let ratios = [
            assault_certificates(
                &x,
                eps,
                seed,
                &|rows, e, pool| model.certify_rows(rows, e, pool).unwrap(),
                &|rows| model.transform_on(rows, None),
            ),
            assault_certificates(
                &x,
                eps,
                seed,
                &|rows, e, pool| lowered.certify_rows(rows, e, pool).unwrap(),
                &|rows| lowered.transform_on(rows, None),
            ),
        ];
        for (precision, ratio) in ["f64", "f32"].into_iter().zip(ratios) {
            assert!(
                ratio <= VACUITY_FACTOR,
                "{precision} eps {eps}: certified bound is {ratio:.1}x the sampled max"
            );
        }
    }
}
