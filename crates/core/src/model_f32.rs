//! Single-precision serving view of a trained [`IFair`] model.
//!
//! Training is always `f64` — the optimizer's line searches and the bitwise
//! reproducibility contract live there. Serving, by contrast, is a pile of
//! independent row transforms whose inputs went through feature scaling, so
//! `f32` keeps ~7 significant digits on unit-scale data while halving the
//! working-set bytes per row — exactly the trade the `[name=]path.json@f32`
//! flag of `ifair-serve` opts into.
//!
//! [`IFairF32`] is produced by [`IFair::to_f32`] and applies the same
//! probabilistic mapping `x̃ = Σ_k softmax(-d(x, v_·))_k · v_k` with every
//! intermediate held in `f32`, through the same generic lane-chunked
//! distance kernels the `f64` path uses (so the `simd` feature accelerates
//! both). The row-chunk layout is identical to [`IFair::transform_on`]'s —
//! fixed functions of the row count — and each output row depends only on
//! its input row, so the `f32` path is also bit-identical across pool sizes.
//! Against the `f64` transform it is tolerance-bounded, not bitwise: see
//! "Kernel backends and precision contract" in `docs/ARCHITECTURE.md`.

use crate::config::SoftmaxDistance;
use crate::distance;
use crate::model::{TRANSFORM_CHUNK_ROWS, TRANSFORM_MAX_CHUNKS};
use crate::par;
use crate::IFair;
use ifair_linalg::{Matrix, Precision};
use serde::{Deserialize, Serialize};

/// A trained iFair model lowered to `f32` for serving (see the module docs
/// for the precision contract). Holds the same `K x N` prototypes and
/// `N`-vector of attribute weights as its source [`IFair`], cast once at
/// conversion.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IFairF32 {
    /// `K x N` prototype matrix, row-major.
    prototypes: Vec<f32>,
    /// Attribute weights `α`, clamped non-negative at conversion.
    alpha: Vec<f32>,
    k: usize,
    n: usize,
    p: f32,
    softmax_distance: SoftmaxDistance,
}

impl IFairF32 {
    /// Lowers `model` to the `f32` serving representation (the back end of
    /// [`IFair::to_f32`]).
    pub fn from_model(model: &IFair) -> IFairF32 {
        IFairF32 {
            prototypes: model
                .prototypes()
                .as_slice()
                .iter()
                .map(|&v| v as f32)
                .collect(),
            alpha: model.alpha().iter().map(|&a| a.max(0.0) as f32).collect(),
            k: model.n_prototypes(),
            n: model.n_features(),
            p: model.config().p as f32,
            softmax_distance: model.config().softmax_distance,
        }
    }

    /// Number of input features `N`.
    pub fn n_features(&self) -> usize {
        self.n
    }

    /// Number of prototypes `K`.
    pub fn n_prototypes(&self) -> usize {
        self.k
    }

    /// The precision label this model serves at (always [`Precision::F32`]).
    pub fn precision(&self) -> Precision {
        Precision::F32
    }

    /// Row-major `K x N` prototype storage (for the certification kernel).
    pub(crate) fn prototypes_f32(&self) -> &[f32] {
        &self.prototypes
    }

    /// Clamped non-negative attribute weights (for the certification kernel).
    pub(crate) fn alpha_f32(&self) -> &[f32] {
        &self.alpha
    }

    /// The Minkowski order `p` as stored (for the certification kernel).
    pub(crate) fn p_f32(&self) -> f32 {
        self.p
    }

    /// Which distance feeds the softmax (for the certification kernel).
    pub(crate) fn softmax_distance(&self) -> SoftmaxDistance {
        self.softmax_distance
    }

    /// Applies the learned mapping to `x` (`? x N`) with all intermediates
    /// in `f32`, fanning the row loop out over `pool` exactly like
    /// [`IFair::transform_on`] (same fixed chunk layout; bit-identical for
    /// every pool size, including `None`). Input rows are cast `f64 → f32`
    /// on entry and the result is widened back on exit, so callers keep the
    /// crate's uniform [`Matrix`] type.
    ///
    /// # Panics
    /// Panics if `x.cols()` differs from the training width.
    pub fn transform_on(&self, x: &Matrix, pool: Option<&par::WorkerPool>) -> Matrix {
        assert_eq!(
            x.cols(),
            self.n,
            "record width differs from the training data"
        );
        let (m, n) = (x.rows(), self.n);
        let mut out = Matrix::zeros(m, n);
        if m == 0 {
            return out;
        }
        let n_chunks = m.div_ceil(TRANSFORM_CHUNK_ROWS).min(TRANSFORM_MAX_CHUNKS);
        let ranges = par::chunk_ranges(m, n_chunks);
        let mut rest = out.as_mut_slice();
        let mut jobs = Vec::with_capacity(ranges.len());
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len() * n);
            rest = tail;
            jobs.push((r, chunk));
        }
        // The softmax distance is chosen once per chunk, outside the row
        // loop, as in `LossKernel::forward_chunk` (which says why).
        let (alpha, p) = (self.alpha.as_slice(), self.p);
        let power_sum = |xi: &[f32], vk: &[f32]| distance::weighted_power_sum(xi, vk, alpha, p);
        par::pool_map(pool, jobs, |(rows, chunk)| match self.softmax_distance {
            SoftmaxDistance::PowerSum => self.transform_rows(x, rows, chunk, power_sum),
            SoftmaxDistance::Rooted => {
                let inv_p = 1.0 / p;
                self.transform_rows(x, rows, chunk, |xi, vk| power_sum(xi, vk).powf(inv_p))
            }
        });
        out
    }

    /// The `rows` of `x` through [`IFairF32::transform_row`] into `chunk`,
    /// with the softmax distance `dist(x_i, v_k)` fixed for the chunk.
    #[inline(always)]
    fn transform_rows(
        &self,
        x: &Matrix,
        rows: std::ops::Range<usize>,
        chunk: &mut [f64],
        dist: impl Fn(&[f32], &[f32]) -> f32,
    ) {
        let n = self.n;
        let mut xi = vec![0.0f32; n];
        let mut d = vec![0.0f32; self.k];
        let mut u = vec![0.0f32; self.k];
        let mut xt = vec![0.0f32; n];
        for (row_idx, i) in rows.enumerate() {
            for (lo, &hi) in xi.iter_mut().zip(x.row(i)) {
                *lo = hi as f32;
            }
            self.transform_row(&xi, &mut d, &mut u, &mut xt, &dist);
            for (o, &v) in chunk[row_idx * n..(row_idx + 1) * n].iter_mut().zip(&xt) {
                *o = f64::from(v);
            }
        }
    }

    /// One record through distances, softmax, and reconstruction — the same
    /// math as the `f64` forward pass, instantiated at `f32`.
    #[inline(always)]
    fn transform_row(
        &self,
        xi: &[f32],
        d: &mut [f32],
        u: &mut [f32],
        xt: &mut [f32],
        dist: impl Fn(&[f32], &[f32]) -> f32,
    ) {
        for (kk, dk) in d.iter_mut().enumerate() {
            *dk = dist(xi, &self.prototypes[kk * self.n..(kk + 1) * self.n]);
        }
        let d_min = d.iter().cloned().fold(f32::INFINITY, f32::min);
        let mut z = 0.0f32;
        for (uu, &dk) in u.iter_mut().zip(d.iter()) {
            *uu = (d_min - dk).exp();
            z += *uu;
        }
        xt.fill(0.0);
        for (kk, uu) in u.iter().enumerate() {
            let w = *uu / z;
            let vk = &self.prototypes[kk * self.n..(kk + 1) * self.n];
            for (o, &vkn) in xt.iter_mut().zip(vk) {
                *o += w * vkn;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IFairConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fitted() -> (Matrix, IFair) {
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|_| {
                vec![
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    if rng.gen_bool(0.5) { 1.0 } else { 0.0 },
                ]
            })
            .collect();
        let x = Matrix::from_rows(rows).unwrap();
        let config = IFairConfig {
            k: 3,
            max_iters: 40,
            n_restarts: 1,
            ..Default::default()
        };
        let model = IFair::fit(&x, &[false, false, true], &config).unwrap();
        (x, model)
    }

    #[test]
    fn f32_transform_tracks_f64_within_tolerance() {
        let (x, model) = fitted();
        let f64_out = model.transform_on(&x, None);
        let f32_out = model.to_f32().transform_on(&x, None);
        assert_eq!(f32_out.shape(), f64_out.shape());
        for (a, b) in f32_out.as_slice().iter().zip(f64_out.as_slice()) {
            // Unit-scale data: f32 keeps ~7 digits; the softmax can lose a
            // couple more. 1e-4 absolute is the documented serving bound.
            assert!((a - b).abs() < 1e-4, "f32 {a} vs f64 {b}");
        }
    }

    #[test]
    fn f32_transform_is_bit_identical_across_pool_sizes() {
        let (x, model) = fitted();
        // Enough rows to cross a 64-row chunk boundary.
        let mut rows = Vec::new();
        for rep in 0..5 {
            for i in 0..x.rows() {
                let mut r = x.row(i).to_vec();
                r[0] += rep as f64 * 1e-3;
                rows.push(r);
            }
        }
        let big = Matrix::from_rows(rows).unwrap();
        let lowered = model.to_f32();
        let reference = lowered.transform_on(&big, None);
        let ref_bits: Vec<u64> = reference.as_slice().iter().map(|v| v.to_bits()).collect();
        for lanes in [1usize, 2, 4] {
            let pool = par::WorkerPool::new(lanes);
            let pooled = lowered.transform_on(&big, Some(&pool));
            let got: Vec<u64> = pooled.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, ref_bits, "lanes={lanes}");
        }
    }

    #[test]
    fn conversion_reports_shapes_and_precision() {
        let (_, model) = fitted();
        let lowered = model.to_f32();
        assert_eq!(lowered.n_features(), model.n_features());
        assert_eq!(lowered.n_prototypes(), model.n_prototypes());
        assert_eq!(lowered.precision(), Precision::F32);
        assert_eq!(lowered.precision().label(), "f32");
    }

    #[test]
    #[should_panic(expected = "record width")]
    fn f32_transform_panics_on_width_mismatch() {
        let (_, model) = fitted();
        model.to_f32().transform_on(&Matrix::zeros(1, 2), None);
    }

    #[test]
    fn empty_input_round_trips() {
        let (_, model) = fitted();
        let lowered = model.to_f32();
        let out = lowered.transform_on(&Matrix::zeros(0, 3), None);
        assert_eq!(out.shape(), (0, 3));
    }
}
