//! Certified individual fairness: sound interval bounds on the iFair map.
//!
//! iFair's headline claim — similar individuals map to similar
//! representations — is measured empirically elsewhere in the workspace
//! (the consistency metrics). This module produces the stronger product of
//! *Learning Certified Individually Fair Representations* (Ruoss et al.
//! 2020): a **certificate** that *every* input inside the box
//! `[x − ε, x + ε]` maps within δ of every other such input in
//! representation space. The softmax-prototype map is small enough for
//! exact interval arithmetic, so the bound is computed, not sampled.
//!
//! # Method
//!
//! Interval bound propagation (IBP) through the forward map, coordinate by
//! coordinate:
//!
//! 1. the input box gives per-prototype bounds on the weighted power sum
//!    `S_k = Σ_n α_n |x_n − v_{k,n}|^p` (each `|I − v|` is an exact
//!    interval absolute value; powers and weighted sums are monotone on
//!    non-negative values),
//! 2. interval softmax responsibilities: with a fixed shift `c`,
//!    `u_k ∈ [e^{c−d_k↑} / (e^{c−d_k↑} + Σ_{j≠k} e^{c−d_j↓}), …]` — each
//!    bound maximizes or minimizes numerator and denominator separately,
//! 3. the interval prototype mixture `x̃_n ∈ Σ_k [u_k] · v_{k,n}` yields an
//!    output box whose Euclidean diagonal bounds the distance between the
//!    images of **any two** points of the input box — so it bounds the
//!    distance to the image of the center in particular.
//!
//! For large ε the interval blows up, but the map never leaves the convex
//! hull of the prototypes, so the certified δ is capped by the hull
//! diameter `max_{j,k} ‖v_j − v_k‖₂` — the "0-Lipschitz at infinity"
//! fallback that keeps certificates finite and non-vacuous at any radius.
//!
//! # Soundness under floating point
//!
//! Certificates must bound the *computed* transform, not just the
//! mathematical map. Two mechanisms make the bound directed-rounding safe:
//!
//! * every interval endpoint is nudged one representable value outward
//!   after each elementary operation ([`next_up_f64`] / [`next_down_f64`]
//!   and the `f32` analogues), which absorbs the round-to-nearest error of
//!   that operation. At `p = 2` the power `|Δ|²` is one IEEE
//!   multiplication, which is correctly rounded, so its single outward
//!   step covers the exact square and the `p = 2` path calls no `powf`;
//!   and
//! * the final δ is inflated by a terminal relative + absolute slack
//!   (`REL_SLACK` / `ABS_SLACK` per precision) that dominates what the
//!   per-op nudges do not strictly cover: multi-ulp libm error in `exp`
//!   at every `p`, in `powf` for general `p` and in the `Rooted`
//!   distance's `1/p` root, and the re-association difference between
//!   this module's sequential sums and the lane-chunked kernels the real
//!   transform uses. The slack is orders of magnitude above the worst case
//!   of either source and orders of magnitude below any useful δ, so
//!   certificates stay sound *and* non-vacuous.
//!
//! Batch certification splits the rows into chunks of at most
//! `CERTIFY_CHUNK_ROWS` (8) rows, far smaller than the transform's: a
//! certified row costs tens of transformed rows, and a 64-row request must
//! still spread over every lane of the pool. Each certificate is a pure
//! function of its row's box, so certificates are bit-identical at every
//! pool size.

use crate::config::SoftmaxDistance;
use crate::model::TRANSFORM_MAX_CHUNKS;
use crate::par;
use crate::{IFair, IFairF32};
use ifair_api::{check_epsilon, shape_error, CertifyError, FitError};
use ifair_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Row-chunk layout of batch certification: at most this many rows per
/// chunk, capped at [`TRANSFORM_MAX_CHUNKS`] chunks — a fixed function of
/// the row count, never of the pool size. Much smaller than the
/// transform's 64-row chunk, so that one 64-row request becomes 8 chunks
/// the pool's shared cursor spreads over every lane.
pub(crate) const CERTIFY_CHUNK_ROWS: usize = 8;

/// Kind tag of the versioned JSON envelope written by
/// [`Certificate::to_json`].
const CERTIFICATE_KIND: &str = "certificate";

/// Kind tag of the versioned JSON envelope written by
/// [`DatasetCertification::to_json`].
const CERTIFICATION_REPORT_KIND: &str = "certification-report";

/// Which bound produced a certificate's δ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CertMethod {
    /// Interval bound propagation through the forward map (small ε).
    IntervalBound,
    /// The prototype-hull diameter cap (large ε, where IBP is looser).
    GlobalDiameter,
}

/// A per-record individual-fairness certificate: every input within the
/// certified box maps within `delta` (Euclidean, in representation space)
/// of the record's own representation — and of every other input in the
/// box. Produced by [`IFair::certify`]; serializable as a versioned JSON
/// artifact via [`Certificate::to_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    /// Input-space perturbation radius the certificate covers (the box
    /// `[x − ε, x + ε]`, per coordinate, in the space `certify` was given).
    pub eps: f64,
    /// Certified upper bound on the representation-space Euclidean
    /// distance between the images of any two inputs in the box.
    pub delta: f64,
    /// Which bound produced `delta`.
    pub method: CertMethod,
}

impl Certificate {
    /// Serializes the certificate into a schema-versioned JSON envelope
    /// (kind `"certificate"`; see [`ifair_api::persist`]).
    pub fn to_json(&self) -> Result<String, FitError> {
        ifair_api::to_versioned_json(CERTIFICATE_KIND, self)
    }

    /// Restores a certificate persisted by [`Certificate::to_json`],
    /// rejecting unknown schema versions and mismatched kinds.
    pub fn from_json(json: &str) -> Result<Certificate, FitError> {
        ifair_api::from_versioned_json(CERTIFICATE_KIND, json)
    }
}

/// The δ bound for one explicit input box (used when the box is not a
/// symmetric ε-ball — e.g. after affine scaler stages warp it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxCertificate {
    /// Certified representation-space distance bound for the box.
    pub delta: f64,
    /// Which bound produced `delta`.
    pub method: CertMethod,
}

/// Batch certification summary over a dataset: how many records certify at
/// each (ε, δ) grid point. The certified fraction is a sound **lower
/// bound** on the empirical fraction any sampling procedure can observe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetCertification {
    /// The ε grid, in input order.
    pub eps_grid: Vec<f64>,
    /// The δ grid, in input order.
    pub delta_grid: Vec<f64>,
    /// Number of records certified against.
    pub n_rows: usize,
    /// `certified[i][j]` = number of records whose certified δ at
    /// `eps_grid[i]` is at most `delta_grid[j]`.
    pub certified: Vec<Vec<usize>>,
    /// Per-ε certified δ bounds, row order (`deltas[i][r]` is record `r`'s
    /// bound at `eps_grid[i]`).
    pub deltas: Vec<Vec<f64>>,
}

impl DatasetCertification {
    /// Certified fraction at grid point (`eps_grid[i]`, `delta_grid[j]`).
    pub fn fraction(&self, i: usize, j: usize) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.certified[i][j] as f64 / self.n_rows as f64
    }

    /// Serializes the report into a schema-versioned JSON envelope (kind
    /// `"certification-report"`).
    pub fn to_json(&self) -> Result<String, FitError> {
        ifair_api::to_versioned_json(CERTIFICATION_REPORT_KIND, self)
    }

    /// Restores a report persisted by [`DatasetCertification::to_json`].
    pub fn from_json(json: &str) -> Result<DatasetCertification, FitError> {
        ifair_api::from_versioned_json(CERTIFICATION_REPORT_KIND, json)
    }
}

/// Next representable `f64` toward `+∞` (0 steps to the smallest positive
/// subnormal; `+∞` and NaN pass through). Local bit-twiddling version so
/// the crate does not depend on the stabilization point of
/// `f64::next_up`.
pub fn next_up_f64(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// Next representable `f64` toward `−∞` (mirror of [`next_up_f64`]).
pub fn next_down_f64(x: f64) -> f64 {
    -next_up_f64(-x)
}

fn next_up_f32(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

fn next_down_f32(x: f32) -> f32 {
    -next_up_f32(-x)
}

/// The scalar operations the interval kernel needs, implemented for `f64`
/// (training precision) and `f32` (the opt-in serving precision, where the
/// certificate must bound the single-precision transform).
trait CertFloat: Copy + PartialOrd {
    const ZERO: Self;
    const ONE: Self;
    const TWO: Self;
    /// Terminal relative slack on δ (dominates libm error and summation
    /// re-association; see the module docs).
    const REL_SLACK: Self;
    /// Terminal absolute slack on δ.
    const ABS_SLACK: Self;
    /// Next representable value toward `+∞`.
    fn up(self) -> Self;
    /// Next representable value toward `−∞`.
    fn down(self) -> Self;
    fn abs_v(self) -> Self;
    fn powf_v(self, e: Self) -> Self;
    fn exp_v(self) -> Self;
    fn sqrt_v(self) -> Self;
    fn min_v(self, o: Self) -> Self;
    fn max_v(self, o: Self) -> Self;
    /// Exact widening to `f64` (identity for `f64`).
    fn widen(self) -> f64;
}

impl CertFloat for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const TWO: f64 = 2.0;
    const REL_SLACK: f64 = 1e-12;
    const ABS_SLACK: f64 = 1e-12;
    fn up(self) -> f64 {
        next_up_f64(self)
    }
    fn down(self) -> f64 {
        next_down_f64(self)
    }
    fn abs_v(self) -> f64 {
        self.abs()
    }
    fn powf_v(self, e: f64) -> f64 {
        self.powf(e)
    }
    fn exp_v(self) -> f64 {
        self.exp()
    }
    fn sqrt_v(self) -> f64 {
        self.sqrt()
    }
    fn min_v(self, o: f64) -> f64 {
        self.min(o)
    }
    fn max_v(self, o: f64) -> f64 {
        self.max(o)
    }
    fn widen(self) -> f64 {
        self
    }
}

impl CertFloat for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    const TWO: f32 = 2.0;
    // f32 per-op error is ~6e-8 relative; chains through the forward map
    // are a few hundred ops, so 1e-4 relative + 1e-5 absolute leaves two
    // to three orders of magnitude of margin while staying far below any
    // useful f32 certificate.
    const REL_SLACK: f32 = 1e-4;
    const ABS_SLACK: f32 = 1e-5;
    fn up(self) -> f32 {
        next_up_f32(self)
    }
    fn down(self) -> f32 {
        next_down_f32(self)
    }
    fn abs_v(self) -> f32 {
        self.abs()
    }
    fn powf_v(self, e: f32) -> f32 {
        self.powf(e)
    }
    fn exp_v(self) -> f32 {
        self.exp()
    }
    fn sqrt_v(self) -> f32 {
        self.sqrt()
    }
    fn min_v(self, o: f32) -> f32 {
        self.min(o)
    }
    fn max_v(self, o: f32) -> f32 {
        self.max(o)
    }
    fn widen(self) -> f64 {
        f64::from(self)
    }
}

/// Everything the per-row kernel needs about a model, independent of the
/// storage precision: row-major prototypes, clamped weights, shape, and
/// the precomputed hull-diameter cap.
struct CertModel<T> {
    protos: Vec<T>,
    alpha: Vec<T>,
    k: usize,
    n: usize,
    p: T,
    rooted: bool,
    hull: T,
}

impl CertModel<f64> {
    fn from_model(model: &IFair) -> CertModel<f64> {
        let protos = model.prototypes().as_slice().to_vec();
        let alpha: Vec<f64> = model.alpha().iter().map(|&a| a.max(0.0)).collect();
        let (k, n) = (model.n_prototypes(), model.n_features());
        let hull = hull_diameter(&protos, k, n);
        CertModel {
            protos,
            alpha,
            k,
            n,
            p: model.config().p,
            rooted: model.config().softmax_distance == SoftmaxDistance::Rooted,
            hull,
        }
    }
}

impl CertModel<f32> {
    fn from_model_f32(model: &IFairF32) -> CertModel<f32> {
        let protos = model.prototypes_f32().to_vec();
        let alpha = model.alpha_f32().to_vec();
        let (k, n) = (model.n_prototypes(), model.n_features());
        let hull = hull_diameter(&protos, k, n);
        CertModel {
            protos,
            alpha,
            k,
            n,
            p: model.p_f32(),
            rooted: model.softmax_distance() == SoftmaxDistance::Rooted,
            hull,
        }
    }
}

/// Outward-rounded diameter of the prototype hull,
/// `max_{j<k} ‖v_j − v_k‖₂` — the global fallback cap on any certified δ
/// (both images always lie in the hull).
fn hull_diameter<T: CertArith>(protos: &[T], k: usize, n: usize) -> T {
    let mut best = T::ZERO;
    for j in 0..k {
        for l in (j + 1)..k {
            let mut sum = T::ZERO;
            for c in 0..n {
                let d = (protos[j * n + c] - protos_at(protos, l, n, c)).abs_v();
                sum = (sum + (d * d).up()).up();
            }
            best = best.max_v(sum.sqrt_v().up());
        }
    }
    best
}

#[inline]
fn protos_at<T: Copy>(protos: &[T], row: usize, n: usize, col: usize) -> T {
    protos[row * n + col]
}

// The trait lacks arithmetic operator bounds to keep it tiny; provide them
// through a blanket requirement instead.
use std::ops::{Add, Div, Mul, Sub};
trait CertArith:
    CertFloat + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
}
impl<T> CertArith for T where
    T: CertFloat + Add<Output = T> + Sub<Output = T> + Mul<Output = T> + Div<Output = T>
{
}

/// The per-row kernel: certified δ for the input box `[lo, hi]` (slices of
/// length `n`), with scratch buffers `d`/`e`/`u` of length `k` supplied by
/// the caller so batch loops allocate once per chunk.
///
/// The bounds on `|Δ|^p` are chosen here, once per call, never inside the
/// (prototype, feature) loop. At `p = 2` the square is one correctly
/// rounded multiplication, so one outward step bounds it exactly and no
/// libm call is made; any other `p` pays two `powf` calls per term.
fn box_delta<T: CertArith>(
    m: &CertModel<T>,
    lo: &[T],
    hi: &[T],
    d: &mut [(T, T)],
    e: &mut [(T, T)],
    u: &mut [(T, T)],
) -> BoxCertificate {
    if m.p == T::TWO {
        box_delta_with(m, lo, hi, d, e, u, |a| (a * a).down(), |a| (a * a).up())
    } else {
        let p = m.p;
        box_delta_with(
            m,
            lo,
            hi,
            d,
            e,
            u,
            |a| a.powf_v(p).down(),
            |a| a.powf_v(p).up(),
        )
    }
}

/// [`box_delta`] with the `|Δ|^p` bounds fixed: `pow_lo(a) ≤ a^p ≤
/// pow_hi(a)` for every `a ≥ 0`.
#[allow(clippy::too_many_arguments)]
fn box_delta_with<T: CertArith>(
    m: &CertModel<T>,
    lo: &[T],
    hi: &[T],
    d: &mut [(T, T)],
    e: &mut [(T, T)],
    u: &mut [(T, T)],
    pow_lo: impl Fn(T) -> T,
    pow_hi: impl Fn(T) -> T,
) -> BoxCertificate {
    // 1. Interval distances to every prototype.
    for (kk, dk) in d.iter_mut().enumerate() {
        let mut s_lo = T::ZERO;
        let mut s_hi = T::ZERO;
        for c in 0..m.n {
            let v = protos_at(&m.protos, kk, m.n, c);
            let a = m.alpha[c];
            // |x − v| over x ∈ [lo, hi]: zero when v is inside the box,
            // else the distance to the nearer edge; the farther edge gives
            // the maximum either way.
            let m1 = (lo[c] - v).abs_v();
            let m2 = (hi[c] - v).abs_v();
            let amin = if lo[c] <= v && v <= hi[c] {
                T::ZERO
            } else {
                m1.min_v(m2).down().max_v(T::ZERO)
            };
            let amax = m1.max_v(m2).up();
            // α_n |Δ|^p, monotone in |Δ| for |Δ| ≥ 0, p > 0.
            let t_lo = (a * pow_lo(amin)).down().max_v(T::ZERO);
            let t_hi = (a * pow_hi(amax)).up();
            s_lo = (s_lo + t_lo).down().max_v(T::ZERO);
            s_hi = (s_hi + t_hi).up();
        }
        if m.rooted {
            let inv_p = T::ONE / m.p;
            s_lo = s_lo.powf_v(inv_p).down().down().max_v(T::ZERO);
            s_hi = s_hi.powf_v(inv_p).up().up();
        }
        *dk = (s_lo, s_hi);
    }
    // 2. Interval softmax with a fixed shift c = min_k d_k↓ (softmax is
    // shift-invariant, so any fixed c yields valid bounds on the true
    // responsibilities; this choice keeps every exponent ≤ 0).
    let c = d
        .iter()
        .map(|&(lo, _)| lo)
        .fold(None::<T>, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.min_v(v),
            })
        })
        .unwrap_or(T::ZERO);
    for (ek, &(d_lo, d_hi)) in e.iter_mut().zip(d.iter()) {
        let e_lo = (c - d_hi).down().exp_v().down().max_v(T::ZERO);
        let e_hi = (c - d_lo).up().exp_v().up();
        *ek = (e_lo, e_hi);
    }
    for kk in 0..m.k {
        // Upper bound: this prototype's weight at its maximum, everyone
        // else at their minimum — and vice versa for the lower bound.
        let mut rest_lo = T::ZERO;
        let mut rest_hi = T::ZERO;
        for (j, &(e_lo, e_hi)) in e.iter().enumerate() {
            if j == kk {
                continue;
            }
            rest_lo = (rest_lo + e_lo).down().max_v(T::ZERO);
            rest_hi = (rest_hi + e_hi).up();
        }
        let (e_lo, e_hi) = e[kk];
        let den_lo = (e_hi + rest_lo).down();
        let den_hi = (e_lo + rest_hi).up();
        let u_hi = if den_lo > T::ZERO {
            (e_hi / den_lo).up().min_v(T::ONE)
        } else {
            T::ONE
        };
        let u_lo = if den_hi > T::ZERO {
            (e_lo / den_hi).down().max_v(T::ZERO)
        } else {
            T::ZERO
        };
        u[kk] = (u_lo, u_hi);
    }
    // 3. Interval mixture and the output-box diagonal.
    let mut sum_sq = T::ZERO;
    for c in 0..m.n {
        let mut o_lo = T::ZERO;
        let mut o_hi = T::ZERO;
        for (kk, &(u_lo, u_hi)) in u.iter().enumerate() {
            let v = protos_at(&m.protos, kk, m.n, c);
            let (t_lo, t_hi) = if v >= T::ZERO {
                ((u_lo * v).down(), (u_hi * v).up())
            } else {
                ((u_hi * v).down(), (u_lo * v).up())
            };
            o_lo = (o_lo + t_lo).down();
            o_hi = (o_hi + t_hi).up();
        }
        let w = (o_hi - o_lo).up().max_v(T::ZERO);
        sum_sq = (sum_sq + (w * w).up()).up();
    }
    let ibp = sum_sq.sqrt_v().up();
    // 4. Hull-diameter cap, then the terminal soundness slack.
    let (raw, method) = if ibp <= m.hull {
        (ibp, CertMethod::IntervalBound)
    } else {
        (m.hull, CertMethod::GlobalDiameter)
    };
    let delta = ((raw * (T::ONE + T::REL_SLACK)).up() + T::ABS_SLACK).up();
    BoxCertificate {
        delta: delta.widen(),
        method,
    }
}

/// Validates a box matrix pair: equal shapes, expected width, finite
/// values, `lo ≤ hi` everywhere.
fn check_boxes(lo: &Matrix, hi: &Matrix, n: usize) -> Result<(), CertifyError> {
    if lo.shape() != hi.shape() {
        return Err(shape_error(format!(
            "box bounds disagree in shape: {:?} vs {:?}",
            lo.shape(),
            hi.shape()
        ))
        .into());
    }
    if lo.cols() != n {
        return Err(shape_error(format!(
            "box has {} columns but the model was fitted on {n}",
            lo.cols()
        ))
        .into());
    }
    check_box_finite(lo, hi)?;
    if lo.as_slice().iter().zip(hi.as_slice()).any(|(l, h)| l > h) {
        return Err(shape_error("box lower bound exceeds upper bound").into());
    }
    Ok(())
}

/// Rejects a box with a non-finite endpoint — what a finite row becomes
/// when `x ± ε`, or a scaler stage's image of it, overflows `f64`.
pub fn check_box_finite(lo: &Matrix, hi: &Matrix) -> Result<(), CertifyError> {
    if lo
        .as_slice()
        .iter()
        .chain(hi.as_slice())
        .any(|v| !v.is_finite())
    {
        return Err(shape_error(
            "the certification box has a non-finite endpoint: a row value or eps \
             is too large for the model's input space",
        )
        .into());
    }
    Ok(())
}

/// The box `[x − ε, x + ε]` around every row of `x`, each endpoint rounded
/// one step outward — the region [`IFair::certify_rows`] certifies.
/// Rejects a malformed radius, non-finite rows and a box that overflows.
pub fn eps_box(x: &Matrix, eps: f64) -> Result<(Matrix, Matrix), CertifyError> {
    check_epsilon(eps)?;
    check_rows_finite(x)?;
    let (rows, cols) = x.shape();
    let mut lo = Matrix::zeros(rows, cols);
    let mut hi = Matrix::zeros(rows, cols);
    for ((&v, l), h) in x
        .as_slice()
        .iter()
        .zip(lo.as_mut_slice())
        .zip(hi.as_mut_slice())
    {
        *l = next_down_f64(v - eps);
        *h = next_up_f64(v + eps);
    }
    check_box_finite(&lo, &hi)?;
    Ok((lo, hi))
}

fn check_rows_finite(x: &Matrix) -> Result<(), CertifyError> {
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(shape_error("rows contain non-finite values").into());
    }
    Ok(())
}

/// Certifies every row box of (`lo`, `hi`) against `cm`, fanning the fixed
/// [`CERTIFY_CHUNK_ROWS`] chunks out over `pool` — bit-identical results at
/// every pool size.
fn certify_boxes_on<T: CertArith + Send + Sync>(
    cm: &CertModel<T>,
    lo: &Matrix,
    hi: &Matrix,
    pool: Option<&par::WorkerPool>,
    load_row: impl Fn(&Matrix, usize, &mut [T]) + Sync,
) -> Vec<BoxCertificate> {
    let m = lo.rows();
    let mut out: Vec<BoxCertificate> = vec![
        BoxCertificate {
            delta: 0.0,
            method: CertMethod::IntervalBound,
        };
        m
    ];
    if m == 0 {
        return out;
    }
    let n_chunks = m.div_ceil(CERTIFY_CHUNK_ROWS).min(TRANSFORM_MAX_CHUNKS);
    let ranges = par::chunk_ranges(m, n_chunks);
    let mut rest = out.as_mut_slice();
    let mut jobs = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (chunk, tail) = rest.split_at_mut(r.len());
        rest = tail;
        jobs.push((r, chunk));
    }
    par::pool_map(pool, jobs, |(rows, chunk)| {
        let mut lo_row = vec![T::ZERO; cm.n];
        let mut hi_row = vec![T::ZERO; cm.n];
        let mut d = vec![(T::ZERO, T::ZERO); cm.k];
        let mut e = vec![(T::ZERO, T::ZERO); cm.k];
        let mut u = vec![(T::ZERO, T::ZERO); cm.k];
        for (slot, i) in chunk.iter_mut().zip(rows) {
            load_row(lo, i, &mut lo_row);
            load_row(hi, i, &mut hi_row);
            // The f32 path casts the f64 box endpoints; keep the cast
            // outward so the f32 box still encloses the f64 one.
            for (l, h) in lo_row.iter_mut().zip(hi_row.iter_mut()) {
                *l = l.down();
                *h = h.up();
            }
            *slot = box_delta(cm, &lo_row, &hi_row, &mut d, &mut e, &mut u);
        }
    });
    out
}

fn load_row_f64(x: &Matrix, i: usize, out: &mut [f64]) {
    out.copy_from_slice(x.row(i));
}

fn load_row_f32(x: &Matrix, i: usize, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x.row(i)) {
        *o = v as f32;
    }
}

/// Shared grid summarization for [`IFair::certify_dataset`].
fn grid_from_deltas(
    eps_grid: &[f64],
    delta_grid: &[f64],
    n_rows: usize,
    deltas: Vec<Vec<f64>>,
) -> DatasetCertification {
    let certified = deltas
        .iter()
        .map(|per_row| {
            delta_grid
                .iter()
                .map(|&dl| per_row.iter().filter(|&&dr| dr <= dl).count())
                .collect()
        })
        .collect();
    DatasetCertification {
        eps_grid: eps_grid.to_vec(),
        delta_grid: delta_grid.to_vec(),
        n_rows,
        certified,
        deltas,
    }
}

fn check_grids(eps_grid: &[f64], delta_grid: &[f64]) -> Result<(), CertifyError> {
    if eps_grid.is_empty() || delta_grid.is_empty() {
        return Err(CertifyError::Epsilon(
            "certification grids must be non-empty".into(),
        ));
    }
    for &eps in eps_grid {
        check_epsilon(eps)?;
    }
    for &dl in delta_grid {
        if !dl.is_finite() || dl < 0.0 {
            return Err(CertifyError::Epsilon(format!(
                "delta grid values must be finite and non-negative, got {dl}"
            )));
        }
    }
    Ok(())
}

impl IFair {
    /// Certifies one record: a sound bound δ such that every input in the
    /// box `[x − ε, x + ε]` maps within δ of `x`'s representation (and of
    /// each other). See the module docs for the bound's construction.
    pub fn certify(&self, x: &[f64], eps: f64) -> Result<Certificate, CertifyError> {
        check_epsilon(eps)?;
        if x.len() != self.n_features() {
            return Err(shape_error(format!(
                "record has {} features but the model was fitted on {}",
                x.len(),
                self.n_features()
            ))
            .into());
        }
        let row = Matrix::from_vec(1, x.len(), x.to_vec()).map_err(FitError::from)?;
        let certs = self.certify_rows(&row, eps, None)?;
        Ok(certs.into_iter().next().expect("one row in, one cert out"))
    }

    /// [`IFair::certify`] over every row of `x`, fanned out over `pool`
    /// in fixed row chunks — certificates are bit-identical at every pool
    /// size, including `None`.
    pub fn certify_rows(
        &self,
        x: &Matrix,
        eps: f64,
        pool: Option<&par::WorkerPool>,
    ) -> Result<Vec<Certificate>, CertifyError> {
        let (lo, hi) = eps_box(x, eps)?;
        let boxes = self.certify_boxes(&lo, &hi, pool)?;
        Ok(boxes
            .into_iter()
            .map(|b| Certificate {
                eps,
                delta: b.delta,
                method: b.method,
            })
            .collect())
    }

    /// Certifies explicit per-row boxes `[lo, hi]` — the entry point for
    /// callers whose perturbation region is no longer a symmetric ε-ball
    /// (e.g. after affine scaler stages; see `Pipeline::certify_rows`).
    pub fn certify_boxes(
        &self,
        lo: &Matrix,
        hi: &Matrix,
        pool: Option<&par::WorkerPool>,
    ) -> Result<Vec<BoxCertificate>, CertifyError> {
        check_boxes(lo, hi, self.n_features())?;
        let cm = CertModel::from_model(self);
        Ok(certify_boxes_on(&cm, lo, hi, pool, load_row_f64))
    }

    /// Batch certification: certified δ for every row at every ε of
    /// `eps_grid`, summarized as certified counts against `delta_grid`.
    /// The certified fraction at each grid point is a sound lower bound on
    /// the empirical fraction of ε-box perturbations staying within δ.
    pub fn certify_dataset(
        &self,
        x: &Matrix,
        eps_grid: &[f64],
        delta_grid: &[f64],
        pool: Option<&par::WorkerPool>,
    ) -> Result<DatasetCertification, CertifyError> {
        check_grids(eps_grid, delta_grid)?;
        check_rows_finite(x)?;
        let mut deltas = Vec::with_capacity(eps_grid.len());
        for &eps in eps_grid {
            let certs = self.certify_rows(x, eps, pool)?;
            deltas.push(certs.into_iter().map(|c| c.delta).collect());
        }
        Ok(grid_from_deltas(eps_grid, delta_grid, x.rows(), deltas))
    }

    /// Outward-rounded diameter of the learned prototype hull — the
    /// global cap no certificate exceeds (see [`CertMethod`]).
    pub fn certification_hull_diameter(&self) -> f64 {
        CertModel::from_model(self).hull
    }
}

impl IFairF32 {
    /// [`IFair::certify`] against the single-precision serving transform:
    /// the bound covers the `f32` forward pass (inputs are cast outward,
    /// all interval arithmetic runs in `f32` with `f32` slack constants),
    /// so sampled `f32` representations never exceed it.
    pub fn certify(&self, x: &[f64], eps: f64) -> Result<Certificate, CertifyError> {
        check_epsilon(eps)?;
        if x.len() != self.n_features() {
            return Err(shape_error(format!(
                "record has {} features but the model was fitted on {}",
                x.len(),
                self.n_features()
            ))
            .into());
        }
        let row = Matrix::from_vec(1, x.len(), x.to_vec()).map_err(FitError::from)?;
        let certs = self.certify_rows(&row, eps, None)?;
        Ok(certs.into_iter().next().expect("one row in, one cert out"))
    }

    /// [`IFairF32::certify`] over every row of `x` (see
    /// [`IFair::certify_rows`] for the pool contract).
    pub fn certify_rows(
        &self,
        x: &Matrix,
        eps: f64,
        pool: Option<&par::WorkerPool>,
    ) -> Result<Vec<Certificate>, CertifyError> {
        let (lo, hi) = eps_box(x, eps)?;
        let boxes = self.certify_boxes(&lo, &hi, pool)?;
        Ok(boxes
            .into_iter()
            .map(|b| Certificate {
                eps,
                delta: b.delta,
                method: b.method,
            })
            .collect())
    }

    /// [`IFair::certify_boxes`] on the `f32` path: the `f64` box endpoints
    /// are cast outward to `f32`, so the certified region still encloses
    /// the requested one.
    pub fn certify_boxes(
        &self,
        lo: &Matrix,
        hi: &Matrix,
        pool: Option<&par::WorkerPool>,
    ) -> Result<Vec<BoxCertificate>, CertifyError> {
        check_boxes(lo, hi, self.n_features())?;
        let cm = CertModel::from_model_f32(self);
        Ok(certify_boxes_on(&cm, lo, hi, pool, load_row_f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IFairConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fitted() -> (Matrix, IFair) {
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..24)
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
            max_iters: 30,
            n_restarts: 1,
            ..Default::default()
        };
        let model = IFair::fit(&x, &[false, false, true], &config).unwrap();
        (x, model)
    }

    #[test]
    fn certificates_bound_sampled_perturbations() {
        let (x, model) = fitted();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..4 {
            let xi = x.row(i).to_vec();
            let eps = 0.03;
            let cert = model.certify(&xi, eps).unwrap();
            let base = model.transform(&Matrix::from_vec(1, 3, xi.clone()).unwrap());
            for _ in 0..200 {
                let perturbed: Vec<f64> =
                    xi.iter().map(|&v| v + rng.gen_range(-eps..eps)).collect();
                let out = model.transform(&Matrix::from_vec(1, 3, perturbed).unwrap());
                let dist: f64 = out
                    .as_slice()
                    .iter()
                    .zip(base.as_slice())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    dist <= cert.delta,
                    "row {i}: sampled distance {dist} exceeds certified {}",
                    cert.delta
                );
            }
        }
    }

    #[test]
    fn zero_eps_certifies_near_zero_delta() {
        let (x, model) = fitted();
        let cert = model.certify(x.row(0), 0.0).unwrap();
        assert!(cert.delta < 1e-9, "eps=0 delta was {}", cert.delta);
        assert_eq!(cert.method, CertMethod::IntervalBound);
    }

    #[test]
    fn huge_eps_falls_back_to_hull_diameter() {
        let (x, model) = fitted();
        let cert = model.certify(x.row(0), 1e6).unwrap();
        assert_eq!(cert.method, CertMethod::GlobalDiameter);
        let hull = model.certification_hull_diameter();
        assert!(cert.delta >= hull);
        assert!(cert.delta <= hull * (1.0 + 1e-9) + 1e-9);
    }

    #[test]
    fn delta_is_monotone_in_eps() {
        let (x, model) = fitted();
        let mut last = 0.0;
        for eps in [0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0] {
            let cert = model.certify(x.row(2), eps).unwrap();
            assert!(
                cert.delta >= last,
                "delta shrank: {} at eps={eps} after {last}",
                cert.delta
            );
            last = cert.delta;
        }
    }

    #[test]
    fn rows_and_boxes_agree_and_are_pool_invariant() {
        let (x, model) = fitted();
        let eps = 0.05;
        let serial = model.certify_rows(&x, eps, None).unwrap();
        for lanes in [1usize, 2, 4] {
            let pool = par::WorkerPool::new(lanes);
            let pooled = model.certify_rows(&x, eps, Some(&pool)).unwrap();
            assert_eq!(serial, pooled, "lanes={lanes}");
        }
        // Boxes built by hand match the eps path bit for bit.
        let (lo, hi) = eps_box(&x, eps).unwrap();
        let boxes = model.certify_boxes(&lo, &hi, None).unwrap();
        for (c, b) in serial.iter().zip(&boxes) {
            assert_eq!(c.delta.to_bits(), b.delta.to_bits());
        }
    }

    #[test]
    fn dataset_grid_counts_are_consistent() {
        let (x, model) = fitted();
        let eps_grid = [0.01, 0.1];
        let delta_grid = [0.05, 0.5, 10.0];
        let report = model
            .certify_dataset(&x, &eps_grid, &delta_grid, None)
            .unwrap();
        assert_eq!(report.n_rows, x.rows());
        for i in 0..eps_grid.len() {
            // Counts are non-decreasing in delta.
            for j in 1..delta_grid.len() {
                assert!(report.certified[i][j] >= report.certified[i][j - 1]);
            }
            // The hull cap means everything certifies at a huge delta.
            assert!(report.fraction(i, delta_grid.len() - 1) > 0.0);
        }
        // JSON round trip is bit-exact.
        let back = DatasetCertification::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn certificate_json_round_trips_bit_exactly() {
        let (x, model) = fitted();
        let cert = model.certify(x.row(1), 0.07).unwrap();
        let back = Certificate::from_json(&cert.to_json().unwrap()).unwrap();
        assert_eq!(back.delta.to_bits(), cert.delta.to_bits());
        assert_eq!(back.eps.to_bits(), cert.eps.to_bits());
        assert_eq!(back.method, cert.method);
        assert!(Certificate::from_json("{not json").is_err());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let (x, model) = fitted();
        assert!(matches!(
            model.certify(x.row(0), -0.1),
            Err(CertifyError::Epsilon(_))
        ));
        assert!(matches!(
            model.certify(x.row(0), f64::NAN),
            Err(CertifyError::Epsilon(_))
        ));
        assert!(matches!(
            model.certify(&[0.0, 0.0], 0.1),
            Err(CertifyError::Model(_))
        ));
        let mut bad = x.clone();
        bad.set(0, 0, f64::INFINITY);
        assert!(matches!(
            model.certify_rows(&bad, 0.1, None),
            Err(CertifyError::Model(_))
        ));
        assert!(matches!(
            model.certify_dataset(&x, &[], &[0.1], None),
            Err(CertifyError::Epsilon(_))
        ));
        // Inverted boxes are rejected, and so is a finite radius whose box
        // overflows (`x + f64::MAX` rounds to `f64::MAX`, one step up is +inf).
        let (lo, hi) = eps_box(&x, 0.1).unwrap();
        assert!(model.certify_boxes(&hi, &lo, None).is_err());
        assert!(matches!(eps_box(&x, f64::MAX), Err(CertifyError::Model(_))));
    }

    #[test]
    fn f32_certificates_bound_the_f32_transform() {
        let (x, model) = fitted();
        let lowered = model.to_f32();
        let mut rng = StdRng::seed_from_u64(13);
        let eps = 0.02;
        for i in 0..3 {
            let xi = x.row(i).to_vec();
            let cert = lowered.certify(&xi, eps).unwrap();
            let base = lowered.transform_on(&Matrix::from_vec(1, 3, xi.clone()).unwrap(), None);
            for _ in 0..200 {
                let perturbed: Vec<f64> =
                    xi.iter().map(|&v| v + rng.gen_range(-eps..eps)).collect();
                let out = lowered.transform_on(&Matrix::from_vec(1, 3, perturbed).unwrap(), None);
                let dist: f64 = out
                    .as_slice()
                    .iter()
                    .zip(base.as_slice())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    dist <= cert.delta,
                    "f32 row {i}: sampled {dist} exceeds certified {}",
                    cert.delta
                );
            }
        }
    }

    #[test]
    fn next_up_down_step_outward() {
        assert!(next_up_f64(1.0) > 1.0);
        assert!(next_down_f64(1.0) < 1.0);
        assert!(next_up_f64(0.0) > 0.0);
        assert!(next_down_f64(0.0) < 0.0);
        assert!(next_up_f64(-1.0) > -1.0);
        assert_eq!(next_up_f64(f64::INFINITY), f64::INFINITY);
        assert!(next_up_f64(f64::NAN).is_nan());
    }

    /// `box_delta` as it was before the `|Δ|^p` bounds were chosen once per
    /// call: two `powf` calls per (prototype, feature) term at every `p`.
    /// The oracle the production kernel must match — bit for bit at
    /// `p ≠ 2`, and within the terminal slack at `p = 2`, where `x·x` is
    /// correctly rounded but libm's `pow(x, 2)` need not be.
    mod reference {
        use super::*;

        pub(super) fn box_delta<T: CertArith>(
            m: &CertModel<T>,
            lo: &[T],
            hi: &[T],
            d: &mut [(T, T)],
            e: &mut [(T, T)],
            u: &mut [(T, T)],
        ) -> BoxCertificate {
            for (kk, dk) in d.iter_mut().enumerate() {
                let mut s_lo = T::ZERO;
                let mut s_hi = T::ZERO;
                for c in 0..m.n {
                    let v = protos_at(&m.protos, kk, m.n, c);
                    let a = m.alpha[c];
                    let m1 = (lo[c] - v).abs_v();
                    let m2 = (hi[c] - v).abs_v();
                    let amin = if lo[c] <= v && v <= hi[c] {
                        T::ZERO
                    } else {
                        m1.min_v(m2).down().max_v(T::ZERO)
                    };
                    let amax = m1.max_v(m2).up();
                    let t_lo = (a * amin.powf_v(m.p).down()).down().max_v(T::ZERO);
                    let t_hi = (a * amax.powf_v(m.p).up()).up();
                    s_lo = (s_lo + t_lo).down().max_v(T::ZERO);
                    s_hi = (s_hi + t_hi).up();
                }
                if m.rooted {
                    let inv_p = T::ONE / m.p;
                    s_lo = s_lo.powf_v(inv_p).down().down().max_v(T::ZERO);
                    s_hi = s_hi.powf_v(inv_p).up().up();
                }
                *dk = (s_lo, s_hi);
            }
            let c = d
                .iter()
                .map(|&(lo, _)| lo)
                .fold(None::<T>, |acc, v| {
                    Some(match acc {
                        None => v,
                        Some(a) => a.min_v(v),
                    })
                })
                .unwrap_or(T::ZERO);
            for (ek, &(d_lo, d_hi)) in e.iter_mut().zip(d.iter()) {
                let e_lo = (c - d_hi).down().exp_v().down().max_v(T::ZERO);
                let e_hi = (c - d_lo).up().exp_v().up();
                *ek = (e_lo, e_hi);
            }
            for kk in 0..m.k {
                let mut rest_lo = T::ZERO;
                let mut rest_hi = T::ZERO;
                for (j, &(e_lo, e_hi)) in e.iter().enumerate() {
                    if j == kk {
                        continue;
                    }
                    rest_lo = (rest_lo + e_lo).down().max_v(T::ZERO);
                    rest_hi = (rest_hi + e_hi).up();
                }
                let (e_lo, e_hi) = e[kk];
                let den_lo = (e_hi + rest_lo).down();
                let den_hi = (e_lo + rest_hi).up();
                let u_hi = if den_lo > T::ZERO {
                    (e_hi / den_lo).up().min_v(T::ONE)
                } else {
                    T::ONE
                };
                let u_lo = if den_hi > T::ZERO {
                    (e_lo / den_hi).down().max_v(T::ZERO)
                } else {
                    T::ZERO
                };
                u[kk] = (u_lo, u_hi);
            }
            let mut sum_sq = T::ZERO;
            for c in 0..m.n {
                let mut o_lo = T::ZERO;
                let mut o_hi = T::ZERO;
                for (kk, &(u_lo, u_hi)) in u.iter().enumerate() {
                    let v = protos_at(&m.protos, kk, m.n, c);
                    let (t_lo, t_hi) = if v >= T::ZERO {
                        ((u_lo * v).down(), (u_hi * v).up())
                    } else {
                        ((u_hi * v).down(), (u_lo * v).up())
                    };
                    o_lo = (o_lo + t_lo).down();
                    o_hi = (o_hi + t_hi).up();
                }
                let w = (o_hi - o_lo).up().max_v(T::ZERO);
                sum_sq = (sum_sq + (w * w).up()).up();
            }
            let ibp = sum_sq.sqrt_v().up();
            let (raw, method) = if ibp <= m.hull {
                (ibp, CertMethod::IntervalBound)
            } else {
                (m.hull, CertMethod::GlobalDiameter)
            };
            let delta = ((raw * (T::ONE + T::REL_SLACK)).up() + T::ABS_SLACK).up();
            BoxCertificate {
                delta: delta.widen(),
                method,
            }
        }
    }

    /// Rounds an `f64` draw to the kernel's precision.
    trait Narrow: CertArith {
        fn narrow(v: f64) -> Self;
    }

    impl Narrow for f64 {
        fn narrow(v: f64) -> f64 {
            v
        }
    }

    impl Narrow for f32 {
        fn narrow(v: f64) -> f32 {
            v as f32
        }
    }

    /// A seeded `K × N` model whose α is zero on every third feature.
    fn oracle_model<T: Narrow>(
        seed: u64,
        k: usize,
        n: usize,
        p: f64,
        rooted: bool,
    ) -> CertModel<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<T> = (0..k * n)
            .map(|_| T::narrow(rng.gen_range(-0.5..1.5)))
            .collect();
        let alpha: Vec<T> = (0..n)
            .map(|c| {
                T::narrow(if c % 3 == 1 {
                    0.0
                } else {
                    rng.gen_range(0.1..2.0)
                })
            })
            .collect();
        let hull = hull_diameter(&protos, k, n);
        CertModel {
            protos,
            alpha,
            k,
            n,
            p: T::narrow(p),
            rooted,
            hull,
        }
    }

    /// Boxes of half-width `eps`: one centred on the first prototype (it
    /// lies inside), one whose lower corner is the last prototype (it lies
    /// on the edge), then seeded random centres.
    fn oracle_boxes<T: Narrow>(m: &CertModel<T>, eps: f64, seed: u64) -> Vec<(Vec<T>, Vec<T>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let around = |x: Vec<f64>| -> (Vec<T>, Vec<T>) {
            let lo = x.iter().map(|&v| T::narrow(v - eps).down()).collect();
            let hi = x.iter().map(|&v| T::narrow(v + eps).up()).collect();
            (lo, hi)
        };
        let first: Vec<f64> = m.protos[..m.n].iter().map(|v| v.widen()).collect();
        let last = &m.protos[(m.k - 1) * m.n..];
        let edge = (
            last.to_vec(),
            last.iter()
                .map(|v| T::narrow(v.widen() + 2.0 * eps).up())
                .collect(),
        );
        let mut boxes = vec![around(first), edge];
        for _ in 0..4 {
            boxes.push(around((0..m.n).map(|_| rng.gen_range(-0.5..1.5)).collect()));
        }
        boxes
    }

    /// Runs both kernels on every box; returns how many δ differ.
    fn compare_with_reference<T: Narrow>(
        m: &CertModel<T>,
        boxes: &[(Vec<T>, Vec<T>)],
        label: &str,
    ) -> usize {
        let mut d = vec![(T::ZERO, T::ZERO); m.k];
        let mut e = d.clone();
        let mut u = d.clone();
        let mut differ = 0;
        for (i, (lo, hi)) in boxes.iter().enumerate() {
            let got = box_delta(m, lo, hi, &mut d, &mut e, &mut u);
            let want = reference::box_delta(m, lo, hi, &mut d, &mut e, &mut u);
            assert_eq!(got.method, want.method, "{label} box {i}");
            if got.delta.to_bits() == want.delta.to_bits() {
                continue;
            }
            differ += 1;
            assert!(
                m.p == T::TWO,
                "{label} box {i}: delta {} differs from the reference {} away from p = 2",
                got.delta,
                want.delta
            );
            let slack = T::REL_SLACK.widen() * want.delta + T::ABS_SLACK.widen();
            assert!(
                (got.delta - want.delta).abs() <= slack,
                "{label} box {i}: delta {} is more than the terminal slack from {}",
                got.delta,
                want.delta
            );
        }
        differ
    }

    #[test]
    fn box_kernel_matches_the_reference_kernel() {
        let mut total = 0;
        let mut differ = 0;
        let mut seed = 0u64;
        for n in [1usize, 3, 17] {
            for k in [1usize, 3, 16] {
                for p in [1.0, 1.5, 2.0, 3.0] {
                    for rooted in [false, true] {
                        seed += 1;
                        let m64 = oracle_model::<f64>(seed, k, n, p, rooted);
                        let m32 = oracle_model::<f32>(seed, k, n, p, rooted);
                        for (j, eps) in [0.0, 1e-3, 0.01, 0.25, 1e6].into_iter().enumerate() {
                            let label = format!("n={n} k={k} p={p} rooted={rooted} eps={eps}");
                            let box_seed = seed * 16 + j as u64;
                            let b64 = oracle_boxes(&m64, eps, box_seed);
                            let b32 = oracle_boxes(&m32, eps, box_seed);
                            let d64 = compare_with_reference(&m64, &b64, &format!("f64 {label}"));
                            let d32 = compare_with_reference(&m32, &b32, &format!("f32 {label}"));
                            total += b64.len() + b32.len();
                            differ += d64 + d32;
                        }
                    }
                }
            }
        }
        println!("certificates that differ from the reference kernel (all at p = 2): {differ} of {total}");
    }

    #[test]
    fn certificates_are_pool_invariant_across_many_chunks() {
        let (k, n) = (16, 17);
        let mut rng = StdRng::seed_from_u64(29);
        let protos =
            Matrix::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(0.0..1.0)).collect()).unwrap();
        let alpha = (0..n).map(|_| rng.gen_range(0.0..1.5)).collect();
        let config = IFairConfig {
            k,
            ..Default::default()
        };
        let model = IFair::from_parts(protos, alpha, vec![false; n], config).unwrap();
        let lowered = model.to_f32();
        let rows = 3 * CERTIFY_CHUNK_ROWS + 1;
        let x = Matrix::from_vec(
            rows,
            n,
            (0..rows * n).map(|_| rng.gen_range(0.0..1.0)).collect(),
        )
        .unwrap();
        let bits = |certs: Vec<Certificate>| -> Vec<(u64, CertMethod)> {
            certs
                .iter()
                .map(|c| (c.delta.to_bits(), c.method))
                .collect()
        };
        for eps in [1e-3, 0.01, 0.25] {
            let serial = bits(model.certify_rows(&x, eps, None).unwrap());
            let serial32 = bits(lowered.certify_rows(&x, eps, None).unwrap());
            for lanes in [1usize, 2, 4] {
                let pool = par::WorkerPool::new(lanes);
                let pooled = bits(model.certify_rows(&x, eps, Some(&pool)).unwrap());
                assert_eq!(pooled, serial, "f64 eps={eps} lanes={lanes}");
                let pooled32 = bits(lowered.certify_rows(&x, eps, Some(&pool)).unwrap());
                assert_eq!(pooled32, serial32, "f32 eps={eps} lanes={lanes}");
            }
        }
    }
}
