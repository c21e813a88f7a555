//! Canonical lane-chunked reduction kernels and the runtime backend switch.
//!
//! # The lane-chunked reduction contract
//!
//! Floating-point addition is not associative, so *the accumulation order is
//! the number*. To let the autovectorizer (and the explicit `simd` backend)
//! vectorize reductions without changing results, the workspace defines its
//! canonical reduction semantics as **lane-chunked with [`LANES`] = 4
//! accumulators**:
//!
//! 1. walk the input in blocks of 4; block `j` adds `term(4j + l)` into
//!    accumulator `l` (a pure vertical add — exactly what one 4-wide vector
//!    add does),
//! 2. fold the accumulators as `(acc0 + acc1) + (acc2 + acc3)`,
//! 3. add the `len % 4` tail terms sequentially, in index order.
//!
//! Every backend — the plain-Rust [`scalar`] kernels here and the
//! `core::arch` intrinsics in the `simd` module (feature-gated) — computes
//! this exact sequence of rounded operations, so switching backends never
//! changes a single bit. That is what lets the backend be selected at
//! **runtime** ([`Backend::active`], overridable via the
//! `IFAIR_KERNEL_BACKEND` environment variable) without violating the
//! workspace determinism contract. The conformance battery in
//! `crates/core/tests/kernel_conformance.rs` pins all of this down.
//!
//! Only *reductions* need this care; element-wise loops (axpy-style updates)
//! have no cross-lane dependency and vectorize freely with unchanged
//! results.

use crate::real::Real;

/// Number of independent accumulator lanes in the canonical reduction.
///
/// Four lanes fit one AVX2 `f64` register (or two SSE2 registers, or one
/// SSE `f32` register at half width) and give the autovectorizer an
/// unrolled, dependency-free inner loop on plain scalar code.
pub const LANES: usize = 4;

/// Which kernel implementation executes the lane-chunked reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain Rust lane-structured loops (autovectorized; always available).
    Scalar,
    /// Explicit `core::arch` intrinsics (the `simd` feature, x86_64 only).
    Simd,
}

impl Backend {
    /// The backend name used in logs and bench records.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// The backend the dispatched kernels currently run on.
    ///
    /// Without the `simd` feature (or off x86_64) this is always
    /// [`Backend::Scalar`]. With it, the default is [`Backend::Simd`], and
    /// `IFAIR_KERNEL_BACKEND=scalar|simd` overrides the choice. The value is
    /// read once per process and cached; because every backend computes the
    /// identical lane-chunked reduction, the choice affects speed only.
    pub fn active() -> Backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            use std::sync::OnceLock;
            static ACTIVE: OnceLock<Backend> = OnceLock::new();
            *ACTIVE.get_or_init(|| match std::env::var("IFAIR_KERNEL_BACKEND") {
                Ok(v) if v.eq_ignore_ascii_case("scalar") => Backend::Scalar,
                _ => Backend::Simd,
            })
        }
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            Backend::Scalar
        }
    }

    /// Whether the intrinsics backend was compiled in at all.
    pub fn simd_compiled() -> bool {
        cfg!(all(feature = "simd", target_arch = "x86_64"))
    }
}

/// The always-available plain-Rust implementation of the canonical
/// lane-chunked reductions. The dispatched entry points are the `lanes_*`
/// methods on [`Real`]; these are public so conformance tests (and the
/// intrinsics backend's own tests) can compare against the reference
/// directly, bypassing runtime dispatch.
pub mod scalar {
    use super::{Real, LANES};

    /// Lane-chunked dot product `Σ_n a_n · b_n`.
    ///
    /// All four kernels walk their inputs through `chunks_exact(LANES)`:
    /// the compiler sees fixed-size blocks (no per-element bounds checks)
    /// and vectorizes the vertical adds, while the accumulation order stays
    /// exactly the canonical one.
    #[inline]
    pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
        debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
        let n = a.len().min(b.len());
        let split = (n / LANES) * LANES;
        let mut acc = [T::ZERO; LANES];
        for (ca, cb) in a[..split]
            .chunks_exact(LANES)
            .zip(b[..split].chunks_exact(LANES))
        {
            for l in 0..LANES {
                acc[l] += ca[l] * cb[l];
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (&x, &y) in a[split..n].iter().zip(&b[split..n]) {
            sum += x * y;
        }
        sum
    }

    /// Lane-chunked squared Euclidean distance `Σ_n (a_n − b_n)²`.
    #[inline]
    pub fn sq_euclidean<T: Real>(a: &[T], b: &[T]) -> T {
        debug_assert_eq!(a.len(), b.len(), "sq_euclidean: length mismatch");
        let n = a.len().min(b.len());
        let split = (n / LANES) * LANES;
        let mut acc = [T::ZERO; LANES];
        for (ca, cb) in a[..split]
            .chunks_exact(LANES)
            .zip(b[..split].chunks_exact(LANES))
        {
            for l in 0..LANES {
                let d = ca[l] - cb[l];
                acc[l] += d * d;
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (&x, &y) in a[split..n].iter().zip(&b[split..n]) {
            let d = x - y;
            sum += d * d;
        }
        sum
    }

    /// Lane-chunked weighted squared distance
    /// `Σ_n max(w_n, 0) · (a_n − b_n)²` — the `p = 2` Minkowski power sum
    /// with the weight clamp the iFair objective requires. `max` compiles to
    /// a branch-free vector max.
    #[inline]
    pub fn weighted_sq_sum<T: Real>(a: &[T], b: &[T], w: &[T]) -> T {
        debug_assert_eq!(a.len(), b.len(), "weighted_sq_sum: length mismatch");
        debug_assert_eq!(a.len(), w.len(), "weighted_sq_sum: weight mismatch");
        let n = a.len().min(b.len()).min(w.len());
        let split = (n / LANES) * LANES;
        let mut acc = [T::ZERO; LANES];
        for ((ca, cb), cw) in a[..split]
            .chunks_exact(LANES)
            .zip(b[..split].chunks_exact(LANES))
            .zip(w[..split].chunks_exact(LANES))
        {
            for l in 0..LANES {
                let d = ca[l] - cb[l];
                acc[l] += cw[l].max(T::ZERO) * (d * d);
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for ((&x, &y), &wi) in a[split..n].iter().zip(&b[split..n]).zip(&w[split..n]) {
            let d = x - y;
            sum += wi.max(T::ZERO) * (d * d);
        }
        sum
    }

    /// Lane-structured general-`p` Minkowski power sum
    /// `Σ_n max(w_n, 0) · |a_n − b_n|^p`.
    ///
    /// `powf` has no vector form, so this stays scalar-per-element on every
    /// backend — but it follows the same lane-chunked accumulation order, so
    /// the `p = 2` fast path above and this general path agree on the fold
    /// semantics (not on the values: `d*d` vs `|d|^2.0` round differently,
    /// which is why callers pick one path *by configuration*, never by
    /// backend).
    #[inline]
    pub fn weighted_power_sum<T: Real>(a: &[T], b: &[T], w: &[T], p: T) -> T {
        debug_assert_eq!(a.len(), b.len(), "weighted_power_sum: length mismatch");
        debug_assert_eq!(a.len(), w.len(), "weighted_power_sum: weight mismatch");
        let n = a.len().min(b.len()).min(w.len());
        let split = (n / LANES) * LANES;
        let mut acc = [T::ZERO; LANES];
        for ((ca, cb), cw) in a[..split]
            .chunks_exact(LANES)
            .zip(b[..split].chunks_exact(LANES))
            .zip(w[..split].chunks_exact(LANES))
        {
            for l in 0..LANES {
                let d = (ca[l] - cb[l]).abs();
                acc[l] += cw[l].max(T::ZERO) * d.powf(p);
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for ((&x, &y), &wi) in a[split..n].iter().zip(&b[split..n]).zip(&w[split..n]) {
            let d = (x - y).abs();
            sum += wi.max(T::ZERO) * d.powf(p);
        }
        sum
    }
}

/// Dispatched lane-chunked dot product (runtime backend selection).
#[inline]
pub fn dot<T: Real>(a: &[T], b: &[T]) -> T {
    T::lanes_dot(a, b)
}

/// Prototypes whose dot products [`dot_rows`] accumulates in one pass.
const DOT_ROWS_GROUP: usize = 4;

/// The dot product of `a` with each `a.len()`-wide row of the row-major
/// `rows`, written to `out` (one entry per row).
///
/// Every product keeps its own [`LANES`] accumulators, fold and sequential
/// tail, so `out[k]` is bit-identical to [`dot`]`(a, row k)` on every
/// backend. Up to four rows share each pass over `a`, which is what makes
/// this cheaper than `K` separate calls.
///
/// # Panics
/// Panics if `rows.len() != a.len() · out.len()`.
#[inline]
pub fn dot_rows<T: Real>(a: &[T], rows: &[T], out: &mut [T]) {
    let n = a.len();
    assert_eq!(rows.len(), n * out.len(), "dot_rows: shape mismatch");
    if n == 0 {
        out.fill(T::ZERO);
        return;
    }
    let split = n - n % LANES;
    for (out, rows) in out
        .chunks_mut(DOT_ROWS_GROUP)
        .zip(rows.chunks(DOT_ROWS_GROUP * n))
    {
        let mut acc = [[T::ZERO; LANES]; DOT_ROWS_GROUP];
        for (j, ca) in a[..split].chunks_exact(LANES).enumerate() {
            for (acc, row) in acc.iter_mut().zip(rows.chunks_exact(n)) {
                let cb = &row[j * LANES..(j + 1) * LANES];
                for l in 0..LANES {
                    acc[l] += ca[l] * cb[l];
                }
            }
        }
        for ((o, acc), row) in out.iter_mut().zip(&acc).zip(rows.chunks_exact(n)) {
            let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for (&x, &y) in a[split..].iter().zip(&row[split..]) {
                sum += x * y;
            }
            *o = sum;
        }
    }
}

/// Dispatched lane-chunked squared Euclidean distance.
#[inline]
pub fn sq_euclidean<T: Real>(a: &[T], b: &[T]) -> T {
    T::lanes_sq_euclidean(a, b)
}

/// Dispatched lane-chunked Euclidean distance.
#[inline]
pub fn euclidean<T: Real>(a: &[T], b: &[T]) -> T {
    T::lanes_sq_euclidean(a, b).sqrt()
}

/// Dispatched weighted Minkowski power sum `Σ max(w,0)·|a−b|^p`, with the
/// vectorized `p = 2` fast path.
#[inline]
pub fn weighted_power_sum<T: Real>(a: &[T], b: &[T], w: &[T], p: T) -> T {
    if p == T::from_f64(2.0) {
        T::lanes_weighted_sq_sum(a, b, w)
    } else {
        scalar::weighted_power_sum(a, b, w, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // Deterministic, irregular values; weights include negatives so the
        // clamp path is exercised.
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() - 0.2).collect();
        (a, b, w)
    }

    /// Edge sizes around the lane width: empty, sub-lane, exact blocks,
    /// blocks + tail.
    const SIZES: [usize; 10] = [0, 1, 2, 3, 4, 5, 7, 8, 63, 65];

    #[test]
    fn lane_kernels_match_naive_within_tolerance() {
        for n in SIZES {
            let (a, b, w) = inputs(n);
            let naive_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let naive_sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_w: f64 = a
                .iter()
                .zip(&b)
                .zip(&w)
                .map(|((x, y), wi)| wi.max(0.0) * (x - y) * (x - y))
                .sum();
            assert!((scalar::dot(&a, &b) - naive_dot).abs() < 1e-12, "n={n}");
            assert!((scalar::sq_euclidean(&a, &b) - naive_sq).abs() < 1e-12);
            assert!((scalar::weighted_sq_sum(&a, &b, &w) - naive_w).abs() < 1e-12);
            assert!((scalar::weighted_power_sum(&a, &b, &w, 2.0) - naive_w).abs() < 1e-12);
        }
    }

    #[test]
    fn dispatch_is_bit_identical_to_the_scalar_reference() {
        // Whatever backend is active, dispatched results must equal the
        // plain-Rust lane kernels bit for bit.
        for n in SIZES {
            let (a, b, w) = inputs(n);
            assert_eq!(dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
            assert_eq!(
                sq_euclidean(&a, &b).to_bits(),
                scalar::sq_euclidean(&a, &b).to_bits()
            );
            assert_eq!(
                weighted_power_sum(&a, &b, &w, 2.0).to_bits(),
                scalar::weighted_sq_sum(&a, &b, &w).to_bits()
            );
            assert_eq!(
                weighted_power_sum(&a, &b, &w, 3.0).to_bits(),
                scalar::weighted_power_sum(&a, &b, &w, 3.0).to_bits()
            );
            let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            assert_eq!(dot(&a32, &b32).to_bits(), scalar::dot(&a32, &b32).to_bits());
        }
    }

    #[test]
    fn dot_rows_is_bit_identical_to_one_dot_per_row() {
        for n in SIZES {
            for k in [1, 3, 4, 5, 9] {
                let (a, _, _) = inputs(n);
                let rows: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.29).cos()).collect();
                let mut out = vec![f64::NAN; k];
                dot_rows(&a, &rows, &mut out);
                for (kk, got) in out.iter().enumerate() {
                    let want = dot(&a, &rows[kk * n..(kk + 1) * n]);
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n} k={k} row {kk}");
                }
            }
        }
    }

    #[test]
    fn backend_reporting_is_consistent() {
        let active = Backend::active();
        assert!(matches!(active, Backend::Scalar | Backend::Simd));
        if !Backend::simd_compiled() {
            assert_eq!(active, Backend::Scalar);
        }
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Simd.label(), "simd");
    }

    #[test]
    fn euclidean_is_sqrt_of_sq() {
        let (a, b, _) = inputs(9);
        assert_eq!(
            euclidean(&a, &b).to_bits(),
            sq_euclidean(&a, &b).sqrt().to_bits()
        );
    }
}
