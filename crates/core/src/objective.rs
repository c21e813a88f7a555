//! The iFair loss `L = λ·L_util + μ·L_fair` and its analytic gradient.
//!
//! The optimization variables are packed into a single flat vector
//!
//! ```text
//! θ = [ α_1 .. α_N | v_11 .. v_1N | v_21 .. v_2N | ... | v_K1 .. v_KN ]
//! ```
//!
//! of dimension `N·(K+1)`. The forward pass (Definitions 2-8 of the paper)
//! computes, for every record `x_i`,
//!
//! ```text
//! D_ik = dist(x_i, v_k)            (power sum or rooted Minkowski)
//! u_i  = softmax(-D_i·)            (probability vector, Definition 8)
//! x̃_i  = Σ_k u_ik · v_k            (transformed record, Definition 2)
//! ```
//!
//! and the loss of Definition 9. The backward pass propagates through the
//! reconstruction, the fairness pairs, the softmax, and the distance kernel —
//! all derived in closed form so training never needs the `O(dim)`-times-
//! costlier finite differences the reference implementation used
//! (`scipy.optimize.fmin_l_bfgs_b(..., approx_grad=True)`). The
//! finite-difference path is still available through
//! [`ifair_optim::NumericalObjective`] and is used in tests to validate every
//! branch of the analytic gradient.
//!
//! # Two objectives, one kernel
//!
//! The forward/backward math lives in one private `LossKernel` that takes
//! its record matrix and pair list explicitly. [`IFairObjective`] drives it
//! over the full training matrix and a fixed pair set (the deterministic
//! L-BFGS path); [`MiniBatchObjective`] drives it over a resampled batch
//! and per-batch pairs (the stochastic Adam path of
//! [`crate::FitStrategy::MiniBatch`]), so both paths share bit-exact
//! numerics and the scratch machinery below.
//!
//! # Threading model
//!
//! Every hot loop — the per-record forward pass, the pairwise `L_fair`
//! kernel, the per-record backprop, and the pair-target build — runs on one
//! persistent [`par::WorkerPool`] owned by the objective, created lazily on
//! first parallel use and reused across every evaluation (and across all
//! L-BFGS restarts of one fit). Each loop carves its index space into
//! **fixed** chunks whose layout depends only on the problem size, and folds
//! per-chunk partials in chunk order, so loss and gradient are bit-identical
//! for every `n_threads` setting. A `Workspace` (behind a mutex, since
//! evaluations are sequential) holds the forward state, `∂L/∂x̃`, the
//! per-chunk gradient accumulators and the per-chunk softmax scratch, all
//! allocated once per objective lifetime instead of once per evaluation.
//!
//! A fairness pair writes only rows `i` and `j` of `∂L/∂x̃`, so each pair
//! chunk accumulates into a compact buffer over just the rows its pairs
//! touch. Those rows are indexed once per pair list (`FairRowIndex`, built
//! with the objective or per mini-batch resample), never per evaluation.

use crate::config::{FairnessDistance, FairnessPairs, IFairConfig, SoftmaxDistance};
use crate::distance;
use crate::par;
use ifair_data::stream::RecordSource;
use ifair_data::DataError;
use ifair_linalg::lanes::{self, LANES};
use ifair_linalg::Matrix;
use ifair_optim::Objective;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Below this many fairness pairs the pair sweeps stay serial: the work is
/// then so cheap that even a pool dispatch (a channel send per lane) would
/// dominate.
const PAR_MIN_PAIRS: usize = 512;

/// Below this many records the per-record forward/backward loops stay
/// serial, for the same reason as [`PAR_MIN_PAIRS`].
const PAR_MIN_RECORDS: usize = 128;

/// Target number of fairness pairs per kernel chunk. The chunk layout is a
/// function of the pair count **only** — never the thread count — and the
/// per-chunk partials are folded in chunk order, so the loss and gradient
/// are bit-identical for every `n_threads` setting and on every machine
/// (seeded experiments stay reproducible; see `fair_chunk_layout`). The
/// target is kept small so that mid-size pair sets already split into
/// enough chunks to occupy every core.
const FAIR_CHUNK_PAIRS: usize = 512;

/// Upper bound on the fairness chunk count, which also bounds the memory of
/// the parallel gradient path (each chunk owns an accumulator of `N` values
/// per row its pairs touch, plus `N` for `∂/∂α`, in the workspace).
const MAX_FAIR_CHUNKS: usize = 64;

/// Target number of records per forward/backprop chunk (same fixed-layout
/// discipline as [`FAIR_CHUNK_PAIRS`]).
const REC_CHUNK_RECORDS: usize = 64;

/// Row-tile edge of the exact `O(M²)` pair enumeration. Emitting the pair
/// list in `TILE × TILE` blocks means consecutive pairs of the `L_fair`
/// sweep touch at most `2·TILE` distinct `x̃` rows, which fit in L1/L2 for
/// realistic `N` — instead of the row-major order whose `j` index streams
/// the whole matrix per `i`. The tile size is a constant of the problem
/// (never the thread count), so the summation tree stays fixed. Only the
/// `Exact` build is tiled: subsampled/anchored/mini-batch pair lists are
/// contractually `(i, j)`-sorted.
const PAIR_TILE_RECORDS: usize = 64;

/// Upper bound on the record chunk count (each backprop chunk owns a
/// `K·N + N + K` accumulator in the workspace).
const MAX_REC_CHUNKS: usize = 64;

/// A record pair entering the fairness loss, with its precomputed target
/// distance `d(x*_i, x*_j)` on the non-protected attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairPair {
    /// First record index.
    pub i: usize,
    /// Second record index.
    pub j: usize,
    /// Target distance in the masked input space.
    pub target: f64,
}

/// The objective's worker pool, created lazily on first parallel use so
/// small problems (or `n_threads = 1`) never spawn a thread.
struct LazyPool {
    n_threads: usize,
    pool: OnceLock<par::WorkerPool>,
}

impl LazyPool {
    fn new(n_threads: usize) -> LazyPool {
        LazyPool {
            n_threads: n_threads.max(1),
            pool: OnceLock::new(),
        }
    }

    /// The pool, creating its threads on first call; `None` when this
    /// objective is configured serial (`n_threads <= 1`).
    fn get(&self) -> Option<&par::WorkerPool> {
        if self.n_threads <= 1 {
            None
        } else {
            Some(
                self.pool
                    .get_or_init(|| par::WorkerPool::new(self.n_threads)),
            )
        }
    }
}

/// Intermediate state shared between the loss and its gradient.
struct ForwardState {
    /// `M x K` record-to-prototype distances (power sum or rooted).
    dist: Vec<f64>,
    /// `M x K` softmax responsibilities.
    u: Vec<f64>,
    /// `M x N` reconstruction `U · V`.
    xt: Vec<f64>,
}

impl ForwardState {
    fn new(m: usize, n: usize, k: usize) -> ForwardState {
        ForwardState {
            dist: vec![0.0; m * k],
            u: vec![0.0; m * k],
            xt: vec![0.0; m * n],
        }
    }
}

/// One 64-byte cache line, in `f64`s.
const LINE_F64: usize = 64 / std::mem::size_of::<f64>();

/// A bank of per-chunk scratch buffers in one allocation, grown on first
/// use and then reused for the rest of the objective's lifetime. Jobs zero
/// their own buffer before accumulating, so reuse never leaks state across
/// evaluations.
///
/// A cache line of padding separates every buffer from the next and from
/// the bank's neighbours in memory. Pool lanes write neighbouring chunks'
/// accumulators for every record; packed side by side, they would share
/// cache lines, and that false sharing cost a 2-thread backprop more than
/// its second lane gained.
struct ChunkScratch {
    data: Vec<f64>,
    /// Buffer count and length of the last [`ChunkScratch::take`].
    count: usize,
    len: usize,
}

impl ChunkScratch {
    fn new() -> ChunkScratch {
        ChunkScratch {
            data: Vec::new(),
            count: 0,
            len: 0,
        }
    }

    /// The bank's buffer region: `count` slots of `len` values plus one
    /// line of padding each, after one line of leading padding.
    fn region(&self) -> Range<usize> {
        LINE_F64..LINE_F64 + self.count * (self.len + LINE_F64)
    }

    /// `count` buffers of length `len` (growing the bank only when it is
    /// too small).
    fn take(&mut self, count: usize, len: usize) -> impl Iterator<Item = &mut [f64]> {
        (self.count, self.len) = (count, len);
        let region = self.region();
        if self.data.len() < region.end {
            self.data.resize(region.end, 0.0);
        }
        self.data[region]
            .chunks_exact_mut(len + LINE_F64)
            .map(move |slot| &mut slot[..len])
    }

    /// One buffer of length `len`, for a serial sweep.
    fn take_one(&mut self, len: usize) -> &mut [f64] {
        self.take(1, len)
            .next()
            .expect("take(1, _) yields one buffer")
    }

    /// The buffers of the last [`ChunkScratch::take`], in order.
    fn bufs(&self) -> impl Iterator<Item = &[f64]> {
        let len = self.len;
        self.data[self.region()]
            .chunks_exact(len + LINE_F64)
            .map(move |slot| &slot[..len])
    }
}

/// Per-chunk accumulators of the fairness gradient path: `∂(μ·L_fair)/∂x̃`
/// over the chunk's touched rows (`N` values per row of its
/// [`FairRowIndex`] entry, sized for the longest chunk) and `∂/∂α` (`N` per
/// chunk).
struct FairScratch {
    gx: ChunkScratch,
    ga: ChunkScratch,
}

/// Marks a record with no compact row in the chunk being indexed.
const UNSLOTTED: u32 = u32::MAX;

/// The `x̃` rows each fairness chunk's pairs touch, indexed once per pair
/// list so that no evaluation sorts, scans or zero-fills all `M` rows.
///
/// Chunk `c` of [`fair_chunk_layout`] accumulates `∂(μ·L_fair)/∂x̃` into a
/// compact buffer with one `N`-wide row per entry of
/// [`FairRowIndex::chunk_rows`] (ascending, distinct), and `slots[p]` names
/// the buffer rows that pair `p`'s `i` and `j` write. Folding a chunk adds
/// its buffer into exactly those rows of `∂L/∂x̃`: the same additions a
/// dense `M·N` per-chunk buffer would make there. A dense fold also adds
/// `+0.0` to every other row, which changes nothing but a `−0.0`; see
/// [`LossKernel::seed_g_xt`] for how that one difference is kept.
struct FairRowIndex {
    /// The pair chunk layout the index was built for.
    chunks: Vec<Range<usize>>,
    /// Every chunk's touched rows, ascending within a chunk, concatenated
    /// in chunk order.
    rows: Vec<usize>,
    /// Chunk `c`'s rows are `rows[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Per pair: the compact buffer rows of its `i` and `j`.
    slots: Vec<[u32; 2]>,
}

impl FairRowIndex {
    /// The index of an empty pair list.
    fn new() -> FairRowIndex {
        FairRowIndex {
            chunks: Vec::new(),
            rows: Vec::new(),
            starts: vec![0],
            slots: Vec::new(),
        }
    }

    /// Indexes `pairs` over `m` records in `O(m + pairs)` plus a sort of
    /// each chunk's distinct rows, reusing the index's buffers.
    fn rebuild(&mut self, pairs: &[FairPair], m: usize) {
        assert!(m < UNSLOTTED as usize, "too many records to index");
        let FairRowIndex {
            chunks,
            rows,
            starts,
            slots,
        } = self;
        *chunks = fair_chunk_layout(pairs.len());
        rows.clear();
        starts.clear();
        starts.push(0);
        slots.clear();
        slots.resize(pairs.len(), [0, 0]);
        // Each record's compact row in the chunk being indexed, UNSLOTTED
        // between chunks.
        let mut slot_of = vec![UNSLOTTED; m];
        for range in chunks.iter() {
            let start = rows.len();
            for pair in &pairs[range.clone()] {
                for r in [pair.i, pair.j] {
                    if slot_of[r] == UNSLOTTED {
                        slot_of[r] = 0;
                        rows.push(r);
                    }
                }
            }
            let touched = &mut rows[start..];
            touched.sort_unstable();
            for (slot, &r) in touched.iter().enumerate() {
                slot_of[r] = slot as u32;
            }
            for (s, pair) in slots[range.clone()].iter_mut().zip(&pairs[range.clone()]) {
                *s = [slot_of[pair.i], slot_of[pair.j]];
            }
            for &r in touched.iter() {
                slot_of[r] = UNSLOTTED;
            }
            starts.push(rows.len());
        }
    }

    /// The ascending rows chunk `c` touches.
    fn chunk_rows(&self, c: usize) -> &[usize] {
        &self.rows[self.starts[c]..self.starts[c + 1]]
    }

    /// The longest chunk row list, which sizes the compact buffers.
    fn max_rows(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Per-chunk accumulators and scratch of the backprop path: `∂L/∂V`
/// (`K·N` per chunk), `∂L/∂α` (`N` per chunk), and the per-record softmax
/// products `c` (`K` per chunk, reused across the chunk's records).
struct BackScratch {
    gv: ChunkScratch,
    ga: ChunkScratch,
    c: ChunkScratch,
}

/// Every buffer an objective evaluation needs, allocated once per objective
/// and reused across all evaluations (and restarts) of a fit.
struct Workspace {
    state: ForwardState,
    /// `M x N` accumulator for `∂L/∂x̃`.
    g_xt: Vec<f64>,
    fair: FairScratch,
    back: BackScratch,
}

impl Workspace {
    fn new(m: usize, n: usize, k: usize) -> Workspace {
        Workspace {
            state: ForwardState::new(m, n, k),
            g_xt: vec![0.0; m * n],
            fair: FairScratch {
                gx: ChunkScratch::new(),
                ga: ChunkScratch::new(),
            },
            back: BackScratch {
                gv: ChunkScratch::new(),
                ga: ChunkScratch::new(),
                c: ChunkScratch::new(),
            },
        }
    }
}

/// One fixed chunk of records of the parallel forward pass, owning the
/// disjoint row slices it fully (over)writes.
struct ForwardJob<'b> {
    records: Range<usize>,
    dist: &'b mut [f64],
    u: &'b mut [f64],
    xt: &'b mut [f64],
}

/// One fixed chunk of fairness pairs of the parallel gradient path, owning
/// its private accumulators from the workspace (`gx` holds exactly the
/// chunk's touched rows).
struct FairGradJob<'b> {
    pairs: Range<usize>,
    gx: &'b mut [f64],
    ga: &'b mut [f64],
}

/// One fixed chunk of records of the parallel backprop loop, owning its
/// private accumulators and softmax scratch from the workspace.
struct BackpropJob<'b> {
    records: Range<usize>,
    gv: &'b mut [f64],
    ga: &'b mut [f64],
    c: &'b mut [f64],
}

/// The hyper-parameters of the loss, detached from any particular record
/// block — the single source of truth for the forward/backward math, driven
/// by both [`IFairObjective`] (full data, fixed pair list) and
/// [`MiniBatchObjective`] (resampled batch, resampled pairs). Every kernel
/// takes its record matrix, pair list, and pool explicitly, so the two
/// objectives share code paths — and therefore bit-exact numerics — by
/// construction.
struct LossKernel {
    n: usize,
    k: usize,
    p: f64,
    lambda: f64,
    mu: f64,
    softmax_distance: SoftmaxDistance,
    fairness_distance: FairnessDistance,
}

impl LossKernel {
    fn from_config(n: usize, config: &IFairConfig) -> LossKernel {
        LossKernel {
            n,
            k: config.k,
            p: config.p,
            lambda: config.lambda,
            mu: config.mu,
            softmax_distance: config.softmax_distance,
            fairness_distance: config.fairness_distance,
        }
    }

    /// Dimension of the packed parameter vector `θ = [α | V]`.
    fn dim(&self) -> usize {
        self.n * (self.k + 1)
    }

    /// Splits the flat parameter vector into `(α, V)` views.
    fn unpack<'t>(&self, theta: &'t [f64]) -> (&'t [f64], &'t [f64]) {
        debug_assert_eq!(theta.len(), self.dim());
        theta.split_at(self.n)
    }

    /// Forward pass: distances `D` (`M x K`), responsibilities `U` (`M x K`)
    /// and reconstruction `X̃` (`M x N`), written into `state`, parallelized
    /// over the fixed record chunks. Each record's rows are written by
    /// exactly one chunk and no partials are folded, so the result is
    /// trivially identical for every thread count.
    fn forward_into(
        &self,
        x: &Matrix,
        alpha: &[f64],
        v: &[f64],
        state: &mut ForwardState,
        pool: Option<&par::WorkerPool>,
    ) {
        let (n, k) = (self.n, self.k);
        let layout = record_chunk_layout(x.rows());
        let dist_chunks = split_chunks(&mut state.dist, &layout, k);
        let u_chunks = split_chunks(&mut state.u, &layout, k);
        let xt_chunks = split_chunks(&mut state.xt, &layout, n);
        let jobs: Vec<ForwardJob<'_>> = layout
            .iter()
            .cloned()
            .zip(dist_chunks)
            .zip(u_chunks)
            .zip(xt_chunks)
            .map(|(((records, dist), u), xt)| ForwardJob {
                records,
                dist,
                u,
                xt,
            })
            .collect();
        par::pool_map(pool, jobs, |job| self.forward_chunk(x, alpha, v, job));
    }

    /// Serial forward pass over one contiguous chunk of records — the
    /// single source of truth for the per-record math on both the serial
    /// and the pooled path.
    ///
    /// The softmax distance is chosen here, once per chunk. Inside the
    /// record loop, LLVM if-converts a per-distance `match` and evaluates
    /// the `Rooted` arm's `powf` for every `PowerSum` distance too.
    fn forward_chunk(&self, x: &Matrix, alpha: &[f64], v: &[f64], job: ForwardJob<'_>) {
        let p = self.p;
        let power_sum = |xi: &[f64], vk: &[f64]| distance::weighted_power_sum(xi, vk, alpha, p);
        match self.softmax_distance {
            SoftmaxDistance::PowerSum => self.forward_records(x, v, job, power_sum),
            SoftmaxDistance::Rooted => {
                let inv_p = 1.0 / p;
                self.forward_records(x, v, job, |xi, vk| power_sum(xi, vk).powf(inv_p))
            }
        }
    }

    /// The record loop of [`LossKernel::forward_chunk`], with the softmax
    /// distance `D_ik = dist(x_i, v_k)` fixed for the chunk.
    #[inline(always)]
    fn forward_records(
        &self,
        x: &Matrix,
        v: &[f64],
        job: ForwardJob<'_>,
        dist_fn: impl Fn(&[f64], &[f64]) -> f64,
    ) {
        let (n, k) = (self.n, self.k);
        let ForwardJob {
            records,
            dist,
            u,
            xt,
        } = job;
        xt.fill(0.0);
        for (row, i) in records.enumerate() {
            let xi = x.row(i);
            let d_row = &mut dist[row * k..(row + 1) * k];
            for (kk, d) in d_row.iter_mut().enumerate() {
                *d = dist_fn(xi, &v[kk * n..(kk + 1) * n]);
            }
            // Stable softmax of -D: shift by the smallest distance.
            let d_min = d_row.iter().cloned().fold(f64::INFINITY, f64::min);
            let u_row = &mut u[row * k..(row + 1) * k];
            let mut z = 0.0;
            for (uu, &d) in u_row.iter_mut().zip(d_row.iter()) {
                *uu = (d_min - d).exp();
                z += *uu;
            }
            for uu in u_row.iter_mut() {
                *uu /= z;
            }
            // x̃_i = Σ_k u_ik v_k.
            let xt_row = &mut xt[row * n..(row + 1) * n];
            for (kk, &uu) in u_row.iter().enumerate() {
                let vk = &v[kk * n..(kk + 1) * n];
                for (o, &vkn) in xt_row.iter_mut().zip(vk) {
                    *o += uu * vkn;
                }
            }
        }
    }

    /// Loss given a completed forward pass.
    fn loss(
        &self,
        x: &Matrix,
        pairs: &[FairPair],
        alpha: &[f64],
        state: &ForwardState,
        fair_pool: Option<&par::WorkerPool>,
    ) -> f64 {
        let util = if self.lambda != 0.0 {
            // Lane-chunked `Σ (x − x̃)²` over the whole flattened matrix —
            // the same kernel (and therefore the same bits) as the fused
            // loss+gradient path.
            ifair_linalg::lanes::sq_euclidean(x.as_slice(), state.xt.as_slice())
        } else {
            0.0
        };
        let fair = if self.mu != 0.0 {
            self.fair_loss(pairs, alpha, state, fair_pool)
        } else {
            0.0
        };
        self.lambda * util + self.mu * fair
    }

    /// `Σ_{(i,j)} (d(x̃_i, x̃_j) − d(x*_i, x*_j))²` — the raw `L_fair` sum
    /// (no `μ` factor), parallelized over the fixed pair chunks when the
    /// pair set is large enough. Partials are folded in chunk order on both
    /// paths, so serial and pooled results are bit-identical.
    fn fair_loss(
        &self,
        pairs: &[FairPair],
        alpha: &[f64],
        state: &ForwardState,
        pool: Option<&par::WorkerPool>,
    ) -> f64 {
        let chunks = fair_chunk_layout(pairs.len());
        let partials = par::pool_map(pool, chunks, |range| {
            self.fair_loss_chunk(pairs, alpha, state, range)
        });
        partials.into_iter().sum()
    }

    /// Serial `L_fair` sum over one contiguous chunk of the pair list.
    fn fair_loss_chunk(
        &self,
        pairs: &[FairPair],
        alpha: &[f64],
        state: &ForwardState,
        range: Range<usize>,
    ) -> f64 {
        pairs[range]
            .iter()
            .map(|pair| {
                let e = self.transformed_distance(alpha, state, pair.i, pair.j) - pair.target;
                e * e
            })
            .sum()
    }

    /// Fused `L_fair` loss + gradient: returns the raw pair sum and
    /// accumulates `∂(μ·L_fair)/∂x̃` into `g_xt` (and `∂/∂α` into `g_alpha`
    /// under the weighted metric). `index` must have been built for `pairs`.
    ///
    /// Every chunk of the fixed layout accumulates into a compact buffer
    /// over only the rows its pairs touch (`N` values per row, at most two
    /// rows per pair, plus `N` for `∂/∂α`; allocated once per objective);
    /// the pooled path owns one per chunk, the serial path reuses a single
    /// one. Buffers are folded into those rows of `g_xt`,
    /// and into `g_alpha`, in chunk order on both paths, so the result is
    /// bit-identical for every thread count. `g_xt` must hold no `−0.0`
    /// (see [`LossKernel::seed_g_xt`]).
    #[allow(clippy::too_many_arguments)]
    fn fair_loss_and_grad(
        &self,
        pairs: &[FairPair],
        index: &FairRowIndex,
        alpha: &[f64],
        state: &ForwardState,
        g_xt: &mut [f64],
        g_alpha: &mut [f64],
        scratch: &mut FairScratch,
        pool: Option<&par::WorkerPool>,
    ) -> f64 {
        debug_assert_eq!(index.slots.len(), pairs.len(), "stale fairness index");
        let n = self.n;
        if pool.is_none() {
            // Serial: one reused accumulator walks the same chunk layout
            // with the same fold order as the pooled path (bit-identical),
            // at 1/chunk-count the memory.
            let gx = scratch.gx.take_one(index.max_rows() * n);
            let ga = scratch.ga.take_one(g_alpha.len());
            let mut loss = 0.0;
            for (c, range) in index.chunks.iter().enumerate() {
                let rows = index.chunk_rows(c);
                let gx = &mut gx[..rows.len() * n];
                gx.fill(0.0);
                ga.fill(0.0);
                loss +=
                    self.fair_grad_chunk(pairs, &index.slots, alpha, state, range.clone(), gx, ga);
                fold_rows(g_xt, n, rows, gx);
                add_assign(g_alpha, ga);
            }
            return loss;
        }
        // Pooled: chunk `c` accumulates into `gx` buffer `c` (its touched
        // rows, then unused space) and `ga` buffer `c`, each zeroed first.
        let count = index.chunks.len();
        let jobs: Vec<FairGradJob<'_>> = index
            .chunks
            .iter()
            .enumerate()
            .zip(scratch.gx.take(count, index.max_rows() * n))
            .zip(scratch.ga.take(count, n))
            .map(|(((c, range), gx), ga)| FairGradJob {
                pairs: range.clone(),
                gx: &mut gx[..index.chunk_rows(c).len() * n],
                ga,
            })
            .collect();
        let losses = par::pool_map(pool, jobs, |job| {
            let FairGradJob {
                pairs: range,
                gx,
                ga,
            } = job;
            gx.fill(0.0);
            ga.fill(0.0);
            self.fair_grad_chunk(pairs, &index.slots, alpha, state, range, gx, ga)
        });
        let mut loss = 0.0;
        for ((c, l), (gx, ga)) in losses
            .into_iter()
            .enumerate()
            .zip(scratch.gx.bufs().zip(scratch.ga.bufs()))
        {
            loss += l;
            fold_rows(g_xt, n, index.chunk_rows(c), gx);
            add_assign(g_alpha, ga);
        }
        loss
    }

    /// Serial fused loss + gradient over one contiguous chunk of the pair
    /// list, accumulating `∂(μ·L_fair)/∂x̃` for pair `p` into rows
    /// `slots[p]` of the chunk's compact buffer `g_xt`. This is the single
    /// source of truth for the per-pair math; the pooled path is exactly
    /// this function over sub-ranges.
    #[allow(clippy::too_many_arguments)]
    fn fair_grad_chunk(
        &self,
        pairs: &[FairPair],
        slots: &[[u32; 2]],
        alpha: &[f64],
        state: &ForwardState,
        range: Range<usize>,
        g_xt: &mut [f64],
        g_alpha: &mut [f64],
    ) -> f64 {
        let (n, p) = (self.n, self.p);
        let mut loss = 0.0;
        for (pair, &[si, sj]) in pairs[range.clone()].iter().zip(&slots[range]) {
            let d = self.transformed_distance(alpha, state, pair.i, pair.j);
            let e = d - pair.target;
            loss += e * e;
            let coeff = 2.0 * self.mu * e;
            if coeff == 0.0 || d <= 0.0 {
                continue;
            }
            // A pair joins two distinct records, so its buffer rows are
            // distinct. Slicing every row to length `n` up front lets the
            // compiler drop the bounds checks and vectorize; each element
            // still sees the same operations in the same order.
            let xi = &state.xt[pair.i * n..(pair.i + 1) * n];
            let xj = &state.xt[pair.j * n..(pair.j + 1) * n];
            let (gi, gj) = two_rows_mut(g_xt, si as usize, sj as usize, n);
            match self.fairness_distance {
                FairnessDistance::Unweighted => {
                    for idx in 0..n {
                        let delta = xi[idx] - xj[idx];
                        let g = coeff * delta / d;
                        gi[idx] += g;
                        gj[idx] -= g;
                    }
                }
                FairnessDistance::Weighted => {
                    let (alpha, g_alpha) = (&alpha[..n], &mut g_alpha[..n]);
                    for idx in 0..n {
                        let (a, b) = (xi[idx], xj[idx]);
                        // ∂d/∂a = -d_wrt_second(a, b) by symmetry of Δ.
                        let g = -coeff * distance::d_wrt_second(a, b, alpha[idx], p, d);
                        gi[idx] += g;
                        gj[idx] -= g;
                        if alpha[idx] >= 0.0 {
                            g_alpha[idx] += coeff * distance::d_wrt_alpha(a, b, p, d);
                        }
                    }
                }
            }
        }
        loss
    }

    /// Seeds `∂L/∂x̃` with the reconstruction term `2λ(x̃ − x)` (zeros when
    /// `λ = 0`) and returns the raw utility sum `Σ (x − x̃)²`, through the
    /// same lane-chunked kernel as the gradient-free `loss` path so the two
    /// entry points agree bitwise.
    ///
    /// `canonical` (set when a fairness fold follows, i.e. `μ ≠ 0` and the
    /// pair list is non-empty) also turns every `−0.0` of the seed into
    /// `+0.0`. The fold adds each chunk's buffer into its touched rows
    /// only, where a dense per-chunk `M·N` fold also added `+0.0` to every
    /// other row; that addition is an identity on every value but `−0.0`,
    /// and the first chunk's fold had already applied it everywhere. Doing
    /// it here once, in the loop that writes the seed anyway, keeps the
    /// gradient bit-identical to the dense fold at no extra pass.
    ///
    /// Seed and sum come out of one lane-chunked pass. With `e = x̃ − x`,
    /// `e·e` is bitwise the `(x − x̃)²` that `lanes::sq_euclidean(x, x̃)`
    /// squares, and it enters the same lane in the same order.
    fn seed_g_xt(&self, x: &[f64], xt: &[f64], g_xt: &mut [f64], canonical: bool) -> f64 {
        if self.lambda == 0.0 {
            g_xt.fill(0.0);
            return 0.0;
        }
        debug_assert!(x.len() == xt.len() && x.len() == g_xt.len());
        // `v + (−0.0)` is `v` for every `v`; `v + 0.0` is `v` except that
        // `−0.0` becomes `+0.0`.
        let zero = if canonical { 0.0 } else { -0.0 };
        let two_lambda = 2.0 * self.lambda;
        let seed = |g: &mut f64, orig: f64, rec: f64| {
            let e = rec - orig;
            *g = two_lambda * e + zero;
            e * e
        };
        let split = x.len() - x.len() % LANES;
        let mut acc = [0.0; LANES];
        for ((g, a), b) in g_xt[..split]
            .chunks_exact_mut(LANES)
            .zip(x[..split].chunks_exact(LANES))
            .zip(xt[..split].chunks_exact(LANES))
        {
            for l in 0..LANES {
                acc[l] += seed(&mut g[l], a[l], b[l]);
            }
        }
        let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for ((g, &a), &b) in g_xt[split..].iter_mut().zip(&x[split..]).zip(&xt[split..]) {
            sum += seed(g, a, b);
        }
        sum
    }

    /// Backprop through `x̃ = U·V` and the softmax into `V`, `D`, and `α`,
    /// parallelized over the fixed record chunks. On the pooled path every
    /// chunk owns a private `K·N + N` accumulator (plus a `K`-length
    /// softmax scratch reused across its records) from the workspace; the
    /// serial path reuses a single set. Partials are folded into `grad` in
    /// chunk order on both paths, so the result is bit-identical for every
    /// thread count.
    #[allow(clippy::too_many_arguments)]
    fn backprop_into(
        &self,
        x: &Matrix,
        alpha: &[f64],
        v: &[f64],
        state: &ForwardState,
        g_xt: &[f64],
        grad: &mut [f64],
        scratch: &mut BackScratch,
        pool: Option<&par::WorkerPool>,
    ) {
        let (n, k) = (self.n, self.k);
        let (g_alpha, g_v) = grad.split_at_mut(n);
        let layout = record_chunk_layout(x.rows());
        if pool.is_none() {
            // Serial: one reused accumulator set, same chunk layout and
            // fold order as the pooled path (bit-identical).
            let gv = scratch.gv.take_one(k * n);
            let ga = scratch.ga.take_one(n);
            let c = scratch.c.take_one(k);
            for records in layout {
                self.backprop_chunk(
                    x,
                    alpha,
                    v,
                    state,
                    g_xt,
                    BackpropJob {
                        records,
                        gv: &mut *gv,
                        ga: &mut *ga,
                        c: &mut *c,
                    },
                );
                add_assign(g_v, gv);
                add_assign(g_alpha, ga);
            }
            return;
        }
        let count = layout.len();
        let jobs: Vec<BackpropJob<'_>> = layout
            .into_iter()
            .zip(scratch.gv.take(count, k * n))
            .zip(scratch.ga.take(count, n))
            .zip(scratch.c.take(count, k))
            .map(|(((records, gv), ga), c)| BackpropJob { records, gv, ga, c })
            .collect();
        par::pool_map(pool, jobs, |job| {
            self.backprop_chunk(x, alpha, v, state, g_xt, job)
        });
        for (gv, ga) in scratch.gv.bufs().zip(scratch.ga.bufs()) {
            add_assign(g_v, gv);
            add_assign(g_alpha, ga);
        }
    }

    /// Serial backprop over one contiguous chunk of records — the single
    /// source of truth for the per-record math on both paths. `gv`/`ga` are
    /// the chunk's private accumulators; `c` is the per-record softmax
    /// product scratch, reused across the chunk's records.
    ///
    /// The `PowerSum`, `p = 2` default fuses the direct and distance paths
    /// into one branch-free element loop wherever `∂L/∂D ≠ 0`; every other
    /// configuration keeps the general per-element formulas. The choice is
    /// one predictable branch per prototype between two loops, which LLVM
    /// cannot speculate into a select the way it does a per-distance
    /// `match`.
    fn backprop_chunk(
        &self,
        x: &Matrix,
        alpha: &[f64],
        v: &[f64],
        state: &ForwardState,
        g_xt: &[f64],
        job: BackpropJob<'_>,
    ) {
        let (n, k, p) = (self.n, self.k, self.p);
        let alpha = &alpha[..n];
        let fused = self.softmax_distance == SoftmaxDistance::PowerSum && p == 2.0;
        let BackpropJob { records, gv, ga, c } = job;
        let ga = &mut ga[..n];
        gv.fill(0.0);
        ga.fill(0.0);
        for i in records {
            let xi = x.row(i);
            let gx_row = &g_xt[i * n..(i + 1) * n];
            let u_row = &state.u[i * k..(i + 1) * k];
            let d_row = &state.dist[i * k..(i + 1) * k];

            // c_k = ⟨∂L/∂x̃_i, v_k⟩ (all K in one pass over ∂L/∂x̃_i) and
            // the softmax Jacobian product b_k = ∂L/∂z_ik
            // = u_k (c_k − Σ_j u_j c_j), with z = −D.
            lanes::dot_rows(gx_row, v, c);
            let mut c_dot_u = 0.0;
            for (&uk, &ck) in u_row.iter().zip(c.iter()) {
                c_dot_u += uk * ck;
            }

            for kk in 0..k {
                let uk = u_row[kk];
                let b_k = uk * (c[kk] - c_dot_u);
                let vk = &v[kk * n..(kk + 1) * n];
                let gv_row = &mut gv[kk * n..(kk + 1) * n];
                // Direct path ∂x̃_in/∂v_kn = u_ik, then the distance path
                // ∂L/∂D_ik = −b_k, skipped at `gd = ±0` (where `±0·Δ²` is
                // NaN once a distant record's `Δ²` overflows).
                let gd = -b_k;
                if fused && gd != 0.0 {
                    // ∂S/∂v_n = −α_n p Δ_n and ∂S/∂α_n = Δ_n². A clamped
                    // `α_n < 0` adds `−0.0` to its weight gradient, which
                    // changes no value, where the general loop skips the
                    // add.
                    let (xi, vk, gx_row) = (&xi[..n], &vk[..n], &gx_row[..n]);
                    for j in 0..n {
                        let delta = xi[j] - vk[j];
                        gv_row[j] =
                            (gv_row[j] + uk * gx_row[j]) + gd * ((-alpha[j].max(0.0) * p) * delta);
                        ga[j] += if alpha[j] >= 0.0 {
                            gd * (delta * delta)
                        } else {
                            -0.0
                        };
                    }
                    continue;
                }
                for (o, &gx) in gv_row.iter_mut().zip(gx_row) {
                    *o += uk * gx;
                }
                if gd == 0.0 {
                    continue;
                }
                match self.softmax_distance {
                    // `p ≠ 2` here.
                    SoftmaxDistance::PowerSum => {
                        for idx in 0..n {
                            let delta = xi[idx] - vk[idx];
                            // ∂S/∂v_n = −α_n p |Δ|^{p−1} sign(Δ)
                            gv_row[idx] +=
                                gd * (-alpha[idx].max(0.0) * p * pow_abs_signed(delta, p - 1.0));
                            if alpha[idx] >= 0.0 {
                                ga[idx] += gd * delta.abs().powf(p);
                            }
                        }
                    }
                    SoftmaxDistance::Rooted => {
                        let d = d_row[kk];
                        for idx in 0..n {
                            gv_row[idx] +=
                                gd * distance::d_wrt_second(xi[idx], vk[idx], alpha[idx], p, d);
                            if alpha[idx] >= 0.0 {
                                ga[idx] += gd * distance::d_wrt_alpha(xi[idx], vk[idx], p, d);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Distance between transformed records `i` and `j` per the configured
    /// [`FairnessDistance`].
    fn transformed_distance(&self, alpha: &[f64], state: &ForwardState, i: usize, j: usize) -> f64 {
        let a = &state.xt[i * self.n..(i + 1) * self.n];
        let b = &state.xt[j * self.n..(j + 1) * self.n];
        match self.fairness_distance {
            FairnessDistance::Unweighted => distance::euclidean(a, b),
            FairnessDistance::Weighted => distance::weighted_minkowski(a, b, alpha, self.p),
        }
    }

    /// The full loss at `theta` over `(x, pairs)`, through the workspace.
    fn value_into(
        &self,
        x: &Matrix,
        pairs: &[FairPair],
        theta: &[f64],
        ws: &mut Workspace,
        rec_pool: Option<&par::WorkerPool>,
        fair_pool: Option<&par::WorkerPool>,
    ) -> f64 {
        let (alpha, v) = self.unpack(theta);
        self.forward_into(x, alpha, v, &mut ws.state, rec_pool);
        self.loss(x, pairs, alpha, &ws.state, fair_pool)
    }

    /// The fused loss + analytic gradient at `theta` over `(x, pairs)`,
    /// through the workspace — the whole backward pass both objectives run.
    /// `index` must have been built for `pairs`.
    #[allow(clippy::too_many_arguments)]
    fn value_and_gradient_into(
        &self,
        x: &Matrix,
        pairs: &[FairPair],
        index: &FairRowIndex,
        theta: &[f64],
        grad: &mut [f64],
        ws: &mut Workspace,
        rec_pool: Option<&par::WorkerPool>,
        fair_pool: Option<&par::WorkerPool>,
    ) -> f64 {
        let n = self.n;
        let (alpha, v) = self.unpack(theta);
        self.forward_into(x, alpha, v, &mut ws.state, rec_pool);

        grad.fill(0.0);

        // ∂L/∂x̃ — reconstruction term. The buffer is reused across
        // evaluations; the seed overwrites every entry.
        let fair_folds = self.mu != 0.0 && !pairs.is_empty();
        let util = self.seed_g_xt(x.as_slice(), &ws.state.xt, &mut ws.g_xt, fair_folds);

        // ∂L/∂x̃ (and ∂L/∂α under the weighted metric) — fairness pairs,
        // fused with the pair loss and parallelized over pair chunks.
        let fair = if self.mu != 0.0 {
            let (g_alpha, _) = grad.split_at_mut(n);
            self.fair_loss_and_grad(
                pairs,
                index,
                alpha,
                &ws.state,
                &mut ws.g_xt,
                g_alpha,
                &mut ws.fair,
                fair_pool,
            )
        } else {
            0.0
        };
        let loss = self.lambda * util + self.mu * fair;

        // Backprop through x̃ = U·V and the softmax into V, D, and α,
        // parallelized over record chunks.
        self.backprop_into(
            x,
            alpha,
            v,
            &ws.state,
            &ws.g_xt,
            grad,
            &mut ws.back,
            rec_pool,
        );

        loss
    }
}

/// The fixed chunk layout of the record index space. Depends only on the
/// record count, so the summation tree — and therefore every last bit of
/// the loss and gradient — is invariant under the thread count and the
/// host's core count.
pub(crate) fn record_chunk_layout(m: usize) -> Vec<Range<usize>> {
    let n_chunks = m.div_ceil(REC_CHUNK_RECORDS).clamp(1, MAX_REC_CHUNKS);
    par::chunk_ranges(m, n_chunks)
}

/// The fixed chunk layout of the pair index space (a function of the pair
/// count only, like [`record_chunk_layout`]).
pub(crate) fn fair_chunk_layout(n_pairs: usize) -> Vec<Range<usize>> {
    let n_chunks = n_pairs.div_ceil(FAIR_CHUNK_PAIRS).clamp(1, MAX_FAIR_CHUNKS);
    par::chunk_ranges(n_pairs, n_chunks)
}

/// The iFair objective over a fixed training matrix.
///
/// Borrowing the data keeps restarts cheap: the pair list, target distances,
/// worker pool and workspace are built once and shared across all restarts.
pub struct IFairObjective<'a> {
    x: &'a Matrix,
    m: usize,
    kern: LossKernel,
    pairs: Vec<FairPair>,
    /// The rows each fairness chunk of `pairs` touches.
    index: FairRowIndex,
    pool: LazyPool,
    workspace: Mutex<Workspace>,
}

impl<'a> IFairObjective<'a> {
    /// Builds the objective for `x` (`M x N`) with per-column `protected`
    /// flags and the hyper-parameters in `config`.
    ///
    /// The fairness-pair set (exact / anchored / subsampled per
    /// `config.fairness_pairs`) is drawn here with `config.seed`, so the
    /// objective is deterministic across restarts.
    ///
    /// # Panics
    /// Panics if `protected.len() != x.cols()` — callers ([`crate::IFair`])
    /// validate shapes first.
    pub fn new(x: &'a Matrix, protected: &[bool], config: &IFairConfig) -> Self {
        let (m, n) = x.shape();
        assert_eq!(
            protected.len(),
            n,
            "protected flags must match the feature count"
        );
        let nonprotected: Vec<usize> = (0..n).filter(|&j| !protected[j]).collect();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1fa1_9a17);
        let pool = LazyPool::new(par::resolve_threads(config.n_threads));
        let pairs = build_pairs(x, &nonprotected, config.fairness_pairs, m, &mut rng, &pool);
        let mut index = FairRowIndex::new();
        index.rebuild(&pairs, m);
        let workspace = Mutex::new(Workspace::new(m, n, config.k));
        IFairObjective {
            x,
            m,
            kern: LossKernel::from_config(n, config),
            pairs,
            index,
            pool,
            workspace,
        }
    }

    /// Overrides the worker-thread count of every parallel kernel (`0` =
    /// all hardware threads), replacing the objective's pool. Used by the
    /// serial-vs-parallel parity tests and the kernel benchmarks. The
    /// thread count never affects numerics (see the module docs).
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        let n_threads = par::resolve_threads(n_threads);
        if n_threads != self.pool.n_threads {
            // Replacing the pool joins any threads `new()` already spawned
            // (e.g. for the pair-target fill), so keep it when the count is
            // unchanged; callers that know the count up front should set
            // `IFairConfig::n_threads` instead.
            self.pool = LazyPool::new(n_threads);
        }
        self
    }

    /// The worker-thread count the parallel kernels will use.
    pub fn n_threads(&self) -> usize {
        self.pool.n_threads
    }

    /// The fairness pairs (and target distances) this objective preserves.
    pub fn pairs(&self) -> &[FairPair] {
        &self.pairs
    }

    /// Number of records `M`.
    pub fn n_records(&self) -> usize {
        self.m
    }

    /// The pool for pair sweeps, `None` when the pair set is too small to
    /// be worth a dispatch (or the objective is serial).
    fn fair_pool(&self) -> Option<&par::WorkerPool> {
        if self.pairs.len() >= PAR_MIN_PAIRS {
            self.pool.get()
        } else {
            None
        }
    }

    /// The pool for per-record sweeps, `None` when the record count is too
    /// small to be worth a dispatch (or the objective is serial).
    fn record_pool(&self) -> Option<&par::WorkerPool> {
        if self.m >= PAR_MIN_RECORDS {
            self.pool.get()
        } else {
            None
        }
    }
}

impl Objective for IFairObjective<'_> {
    fn dim(&self) -> usize {
        self.kern.dim()
    }

    fn value(&self, theta: &[f64]) -> f64 {
        let mut guard = self.workspace.lock().expect("workspace poisoned");
        self.kern.value_into(
            self.x,
            &self.pairs,
            theta,
            &mut guard,
            self.record_pool(),
            self.fair_pool(),
        )
    }

    fn gradient(&self, theta: &[f64], grad: &mut [f64]) {
        self.value_and_gradient(theta, grad);
    }

    fn value_and_gradient(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let mut guard = self.workspace.lock().expect("workspace poisoned");
        self.kern.value_and_gradient_into(
            self.x,
            &self.pairs,
            &self.index,
            theta,
            grad,
            &mut guard,
            self.record_pool(),
            self.fair_pool(),
        )
    }
}

/// Everything a mini-batch evaluation touches, behind one lock: the current
/// batch matrix and pair list, the evaluation workspace, and the sampler's
/// reusable scratch.
struct BatchState {
    /// `B x N` batch matrix, refilled by every resample.
    x: Matrix,
    /// Fairness pairs whose indices point *into the batch* (`0..B`).
    pairs: Vec<FairPair>,
    /// The rows each fairness chunk of `pairs` touches, rebuilt with them.
    index: FairRowIndex,
    /// Source indices of the current batch, ascending.
    indices: Vec<usize>,
    /// Evaluation scratch, sized for the batch once and reused every step.
    workspace: Workspace,
    /// Persistent permutation for dense record draws (`B > M/2`).
    perm: Vec<usize>,
    /// `M`-bit set of the records drawn so far by a sparse record draw
    /// (`2B < M`); all clear between draws.
    drawn: Vec<u64>,
    /// Persistent enumeration of all `B(B−1)/2` batch pairs for dense pair
    /// draws, built once and re-shuffled in place (like `perm`).
    all_pairs: Vec<FairPair>,
}

/// The mini-batch sampler's persistent shuffle state, captured at training
/// checkpoints.
///
/// Dense record and pair draws Fisher-Yates a *persistent* permutation in
/// place ([`MiniBatchObjective::resample`]), so the sampler's output is a
/// function of the RNG state **and** the arrangement those shuffles left
/// behind. Resuming a fit from only the RNG would silently diverge from the
/// uninterrupted run; checkpoints therefore carry this state alongside it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerState {
    /// The persistent record permutation (`perm`), or empty if the dense
    /// record path has not run.
    pub perm: Vec<usize>,
    /// The persistent pair enumeration, each pair flattened as `i·B + j`,
    /// or empty if the dense pair path has not run.
    pub pair_order: Vec<usize>,
}

/// The stochastic (mini-batch) view of the iFair loss.
///
/// Each [`MiniBatchObjective::resample`] draws `batch_records` distinct
/// records from a [`RecordSource`] and up to `pairs_per_batch` distinct
/// fairness pairs **within** that batch (targets measured on the batch rows'
/// non-protected columns, exactly like the full-batch pair build), then the
/// [`Objective`] impl evaluates `λ·L_util + μ·L_fair` over the batch alone —
/// per-step cost is a function of the batch shape, never of `M`. The
/// forward/backward math is the same private loss kernel the full-batch
/// objective runs (same fixed chunk layouts, same fold order), so mini-batch training
/// is bit-identical for every thread count, and the batch workspace is
/// allocated once and reused across all steps, epochs, and restarts.
///
/// Sampling draws from the *caller's* RNG on the training thread, keeping
/// the batch sequence a pure function of the seed.
pub struct MiniBatchObjective {
    kern: LossKernel,
    /// Batch size `B` (already clamped to the source's record count).
    batch_records: usize,
    /// Requested pairs per batch (clamped per batch to `B(B−1)/2`).
    pairs_per_batch: usize,
    /// Record count `M` of the source this sampler draws from.
    n_source_records: usize,
    /// Non-protected column indices (for pair targets).
    nonprotected: Vec<usize>,
    pool: LazyPool,
    batch: Mutex<BatchState>,
}

impl MiniBatchObjective {
    /// Builds the batched view for a source of `n_source_records` rows of
    /// width `protected.len()`, with batch shape and hyper-parameters from
    /// `config` (whose `strategy` must be [`crate::FitStrategy::MiniBatch`]).
    ///
    /// # Panics
    /// Panics if `config.strategy` has no batch schedule (`FullBatch`) —
    /// callers ([`crate::IFair`]) dispatch on the strategy first.
    pub fn new(n_source_records: usize, protected: &[bool], config: &IFairConfig) -> Self {
        let Some((batch_records, pairs_per_batch, _, _)) = config.strategy.schedule() else {
            panic!("MiniBatchObjective requires the MiniBatch strategy");
        };
        let n = protected.len();
        let b = batch_records.min(n_source_records).max(1);
        let nonprotected: Vec<usize> = (0..n).filter(|&j| !protected[j]).collect();
        MiniBatchObjective {
            kern: LossKernel::from_config(n, config),
            batch_records: b,
            pairs_per_batch,
            n_source_records,
            nonprotected,
            pool: LazyPool::new(par::resolve_threads(config.n_threads)),
            batch: Mutex::new(BatchState {
                x: Matrix::zeros(b, n),
                pairs: Vec::new(),
                index: FairRowIndex::new(),
                indices: Vec::new(),
                workspace: Workspace::new(b, n, config.k),
                perm: Vec::new(),
                drawn: Vec::new(),
                all_pairs: Vec::new(),
            }),
        }
    }

    /// Batch size `B` actually used (the configured `batch_records`, clamped
    /// to the source's record count).
    pub fn batch_records(&self) -> usize {
        self.batch_records
    }

    /// Fairness pairs each batch realizes: the configured `pairs_per_batch`
    /// clamped to the `B(B−1)/2` distinct pairs a batch contains.
    pub fn realized_pairs_per_batch(&self) -> usize {
        let total = self.batch_records * self.batch_records.saturating_sub(1) / 2;
        self.pairs_per_batch.min(total)
    }

    /// Source indices of the current batch (ascending); empty before the
    /// first resample.
    pub fn batch_indices(&self) -> Vec<usize> {
        self.batch.lock().expect("batch poisoned").indices.clone()
    }

    /// Captures the sampler's persistent shuffle state for a training
    /// checkpoint (see [`SamplerState`] for why the RNG alone is not
    /// enough).
    pub fn sampler_state(&self) -> SamplerState {
        let state = self.batch.lock().expect("batch poisoned");
        SamplerState {
            perm: state.perm.clone(),
            pair_order: state
                .all_pairs
                .iter()
                .map(|p| p.i * self.batch_records + p.j)
                .collect(),
        }
    }

    /// Restores shuffle state captured by [`MiniBatchObjective::sampler_state`]
    /// onto a freshly built objective, validating it against this sampler's
    /// shape. With the RNG restored alongside, the resumed batch sequence is
    /// bit-identical to the uninterrupted one.
    pub fn restore_sampler_state(&mut self, saved: &SamplerState) -> Result<(), DataError> {
        let (m, b) = (self.n_source_records, self.batch_records);
        if !saved.perm.is_empty() {
            if saved.perm.len() != m {
                return Err(DataError::Parse(format!(
                    "sampler permutation covers {} records, source has {m}",
                    saved.perm.len()
                )));
            }
            let mut seen = vec![false; m];
            for &i in &saved.perm {
                if i >= m || std::mem::replace(&mut seen[i], true) {
                    return Err(DataError::Parse(
                        "sampler permutation is not a permutation of the record indices".into(),
                    ));
                }
            }
        }
        let total = b * b.saturating_sub(1) / 2;
        if !saved.pair_order.is_empty() {
            if saved.pair_order.len() != total {
                return Err(DataError::Parse(format!(
                    "sampler pair order covers {} pairs, batch shape yields {total}",
                    saved.pair_order.len()
                )));
            }
            let mut seen = vec![false; b * b];
            for &flat in &saved.pair_order {
                let (i, j) = (flat / b, flat % b);
                // `i < j` bounds the flat index: `i < j < b` gives `flat < b²`.
                if i >= j || std::mem::replace(&mut seen[flat], true) {
                    return Err(DataError::Parse(
                        "sampler pair order is not a permutation of the batch pairs".into(),
                    ));
                }
            }
        }
        let state = self.batch.get_mut().expect("batch poisoned");
        state.perm = saved.perm.clone();
        state.all_pairs = saved
            .pair_order
            .iter()
            .map(|&flat| FairPair {
                i: flat / b,
                j: flat % b,
                target: 0.0,
            })
            .collect();
        Ok(())
    }

    /// Draws the next batch: `B` distinct record indices from `source`
    /// (ascending, so file-backed sources seek forward), their rows into the
    /// batch buffer, and a fresh set of distinct fairness pairs within the
    /// batch with targets on the non-protected columns.
    ///
    /// Rejects batches containing non-finite values — the streaming
    /// counterpart of the up-front matrix check of the full-batch path.
    pub fn resample(
        &mut self,
        source: &mut dyn RecordSource,
        rng: &mut StdRng,
    ) -> Result<(), DataError> {
        let (m, b) = (self.n_source_records, self.batch_records);
        let state = self.batch.get_mut().expect("batch poisoned");

        // Distinct record indices, ascending: dense draws shuffle a
        // persistent permutation (a Fisher-Yates prefix is uniform from any
        // starting arrangement) and sort its prefix; sparse draws reject
        // duplicates against a persistent bit set. When the set has no more
        // words than the batch has records, reading it out in order (and
        // clearing each word) costs less than the sort; otherwise the bits
        // are cleared through the drawn indices and those are sorted, so a
        // step never costs more than O(B log B) whatever M is.
        state.indices.clear();
        if b >= m {
            state.indices.extend(0..m);
        } else if b * 2 >= m {
            if state.perm.len() != m {
                state.perm = (0..m).collect();
            }
            for idx in 0..b {
                let other = rng.gen_range(idx..m);
                state.perm.swap(idx, other);
            }
            state.indices.extend_from_slice(&state.perm[..b]);
            state.indices.sort_unstable();
        } else {
            state.drawn.resize(m.div_ceil(64), 0);
            while state.indices.len() < b {
                let i = rng.gen_range(0..m);
                let (word, bit) = (&mut state.drawn[i / 64], 1u64 << (i % 64));
                if *word & bit == 0 {
                    *word |= bit;
                    state.indices.push(i);
                }
            }
            if state.drawn.len() <= b {
                state.indices.clear();
                for (w, word) in state.drawn.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        state.indices.push(w * 64 + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
            } else {
                for &i in &state.indices {
                    state.drawn[i / 64] = 0;
                }
                state.indices.sort_unstable();
            }
        }

        source.read_rows(&state.indices, state.x.as_mut_slice())?;
        if state.x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(DataError::Parse(
                "batch contains non-finite feature values".into(),
            ));
        }

        // Distinct pairs within the batch, same dense/sparse split as the
        // full-batch `Subsampled` build.
        let total = b * b.saturating_sub(1) / 2;
        let n_pairs = self.pairs_per_batch.min(total);
        state.pairs.clear();
        if n_pairs > total / 2 {
            // Dense draw: Fisher-Yates prefix over the persistent pair
            // enumeration (built once; a prefix shuffle is uniform from any
            // starting arrangement, so re-shuffling in place stays unbiased
            // and allocation-free across steps).
            if state.all_pairs.len() != total {
                state.all_pairs.clear();
                state.all_pairs.reserve(total);
                for i in 0..b {
                    for j in (i + 1)..b {
                        state.all_pairs.push(FairPair { i, j, target: 0.0 });
                    }
                }
            }
            for idx in 0..n_pairs {
                let other = rng.gen_range(idx..total);
                state.all_pairs.swap(idx, other);
            }
            state.pairs.extend_from_slice(&state.all_pairs[..n_pairs]);
        } else {
            let mut seen = std::collections::HashSet::with_capacity(n_pairs);
            while state.pairs.len() < n_pairs {
                let i = rng.gen_range(0..b);
                let j = rng.gen_range(0..b);
                if i == j {
                    continue;
                }
                let (lo, hi) = (i.min(j), i.max(j));
                if seen.insert((lo, hi)) {
                    state.pairs.push(FairPair {
                        i: lo,
                        j: hi,
                        target: 0.0,
                    });
                }
            }
        }
        state.pairs.sort_unstable_by_key(|p| (p.i, p.j));
        for pair in &mut state.pairs {
            pair.target = masked_target(&state.x, &self.nonprotected, pair.i, pair.j);
        }
        state.index.rebuild(&state.pairs, b);
        Ok(())
    }

    /// The pool for per-record sweeps over the batch (same engagement
    /// threshold as the full-batch objective).
    fn record_pool(&self) -> Option<&par::WorkerPool> {
        if self.batch_records >= PAR_MIN_RECORDS {
            self.pool.get()
        } else {
            None
        }
    }

    /// The pool for pair sweeps over the batch.
    fn fair_pool(&self, n_pairs: usize) -> Option<&par::WorkerPool> {
        if n_pairs >= PAR_MIN_PAIRS {
            self.pool.get()
        } else {
            None
        }
    }
}

impl Objective for MiniBatchObjective {
    fn dim(&self) -> usize {
        self.kern.dim()
    }

    fn value(&self, theta: &[f64]) -> f64 {
        let mut guard = self.batch.lock().expect("batch poisoned");
        let state = &mut *guard;
        let fair_pool = self.fair_pool(state.pairs.len());
        self.kern.value_into(
            &state.x,
            &state.pairs,
            theta,
            &mut state.workspace,
            self.record_pool(),
            fair_pool,
        )
    }

    fn gradient(&self, theta: &[f64], grad: &mut [f64]) {
        self.value_and_gradient(theta, grad);
    }

    fn value_and_gradient(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let mut guard = self.batch.lock().expect("batch poisoned");
        let state = &mut *guard;
        let fair_pool = self.fair_pool(state.pairs.len());
        self.kern.value_and_gradient_into(
            &state.x,
            &state.pairs,
            &state.index,
            theta,
            grad,
            &mut state.workspace,
            self.record_pool(),
            fair_pool,
        )
    }
}

/// `|Δ|^q · sign(Δ)`, taken as `0` at `Δ = 0` (where `q = 0` would give
/// `|0|^0 · sign(0) = 1`).
#[inline]
fn pow_abs_signed(delta: f64, q: f64) -> f64 {
    if delta == 0.0 {
        0.0
    } else {
        delta.abs().powf(q) * delta.signum()
    }
}

/// `acc += part`, element-wise. The reduction step of the parallel kernels.
#[inline]
fn add_assign(acc: &mut [f64], part: &[f64]) {
    debug_assert_eq!(acc.len(), part.len());
    for (a, &p) in acc.iter_mut().zip(part) {
        *a += p;
    }
}

/// Rows `a` and `b` of an `n`-wide row-major buffer, as two disjoint
/// mutable slices. Panics if `a == b`.
fn two_rows_mut(buf: &mut [f64], a: usize, b: usize, n: usize) -> (&mut [f64], &mut [f64]) {
    if a < b {
        let (lo, hi) = buf.split_at_mut(b * n);
        (&mut lo[a * n..(a + 1) * n], &mut hi[..n])
    } else {
        let (lo, hi) = buf.split_at_mut(a * n);
        (&mut hi[..n], &mut lo[b * n..(b + 1) * n])
    }
}

/// Folds a fairness chunk's compact buffer into `∂L/∂x̃`: its `k`-th
/// `n`-wide row is added into row `rows[k]` of `g_xt`. Buffer rows past
/// `rows.len()` are ignored.
fn fold_rows(g_xt: &mut [f64], n: usize, rows: &[usize], compact: &[f64]) {
    for (&r, part) in rows.iter().zip(compact.chunks_exact(n)) {
        add_assign(&mut g_xt[r * n..(r + 1) * n], part);
    }
}

/// Splits `buf` into one mutable slice per layout range, where each index of
/// the layout covers `width` consecutive elements of `buf`. The layout must
/// tile `buf` exactly.
fn split_chunks<'b, T>(
    mut buf: &'b mut [T],
    layout: &[Range<usize>],
    width: usize,
) -> Vec<&'b mut [T]> {
    let mut out = Vec::with_capacity(layout.len());
    for range in layout {
        let (head, tail) = buf.split_at_mut(range.len() * width);
        out.push(head);
        buf = tail;
    }
    debug_assert!(buf.is_empty(), "layout must tile the buffer exactly");
    out
}

/// The fairness target `d(x*_i, x*_j)`: unweighted Euclidean distance on the
/// non-protected columns (Definition 5).
fn masked_target(x: &Matrix, nonprotected: &[usize], i: usize, j: usize) -> f64 {
    let (a, b) = (x.row(i), x.row(j));
    nonprotected
        .iter()
        .map(|&col| {
            let d = a[col] - b[col];
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Fills every pair's target distance, in parallel over fixed pair chunks
/// when a pool is supplied. Each target is a pure function of its pair, so
/// the result does not depend on the chunking or thread count.
fn fill_targets(
    x: &Matrix,
    nonprotected: &[usize],
    pairs: &mut [FairPair],
    pool: Option<&par::WorkerPool>,
) {
    let n_chunks = pairs
        .len()
        .div_ceil(FAIR_CHUNK_PAIRS)
        .clamp(1, MAX_FAIR_CHUNKS);
    let layout = par::chunk_ranges(pairs.len(), n_chunks);
    let jobs = split_chunks(pairs, &layout, 1);
    par::pool_map(pool, jobs, |chunk| {
        for pair in chunk.iter_mut() {
            pair.target = masked_target(x, nonprotected, pair.i, pair.j);
        }
    });
}

/// Materializes the fairness-pair set with target distances measured by the
/// unweighted Euclidean metric on the non-protected columns (Definition 5's
/// `d(x*_i, x*_j)`). Pair indices are drawn serially from `rng` (so the set
/// is a function of the seed alone); the `O(pairs · N)` target distances are
/// then filled through the objective's pool.
fn build_pairs(
    x: &Matrix,
    nonprotected: &[usize],
    spec: FairnessPairs,
    m: usize,
    rng: &mut StdRng,
    pool: &LazyPool,
) -> Vec<FairPair> {
    let mut pairs = match spec {
        FairnessPairs::Exact => {
            // Every unordered pair exactly once, emitted tile-by-tile (see
            // [`PAIR_TILE_RECORDS`]) so the `L_fair` sweep over the list is
            // cache-blocked for free. Within a tile pairs stay `(i, j)`-
            // ascending; across tiles the order is block-major.
            let tile = PAIR_TILE_RECORDS;
            let mut pairs = Vec::with_capacity(m * m.saturating_sub(1) / 2);
            for ti in (0..m).step_by(tile) {
                for tj in (ti..m).step_by(tile) {
                    for i in ti..(ti + tile).min(m) {
                        for j in (i + 1).max(tj)..(tj + tile).min(m) {
                            pairs.push(FairPair { i, j, target: 0.0 });
                        }
                    }
                }
            }
            pairs
        }
        FairnessPairs::Anchored { n_anchors } => {
            let n_anchors = n_anchors.min(m);
            let mut anchors: Vec<usize> = (0..m).collect();
            anchors.shuffle(rng);
            anchors.truncate(n_anchors);
            anchors.sort_unstable();
            let mut pairs = Vec::with_capacity(m * n_anchors);
            for i in 0..m {
                for &a in &anchors {
                    if a == i {
                        continue;
                    }
                    let (lo, hi) = (i.min(a), i.max(a));
                    pairs.push(FairPair {
                        i: lo,
                        j: hi,
                        target: 0.0,
                    });
                }
            }
            // Anchor-anchor pairs appear twice (once from each side); records
            // must not be double-counted or their gradient doubles.
            pairs.sort_unstable_by_key(|p| (p.i, p.j));
            pairs.dedup_by_key(|p| (p.i, p.j));
            pairs
        }
        FairnessPairs::Subsampled { n_pairs } => {
            let total = m * m.saturating_sub(1) / 2;
            let n_pairs = n_pairs.min(total);
            if n_pairs == 0 {
                return Vec::new();
            }
            let mut pairs = if n_pairs > total / 2 {
                // Dense draw: rejection sampling degenerates as `n_pairs`
                // approaches `total` (the last acceptance needs ~`total`
                // tries in expectation), so enumerate every pair and keep a
                // partial Fisher-Yates prefix instead.
                let mut all = Vec::with_capacity(total);
                for i in 0..m {
                    for j in (i + 1)..m {
                        all.push(FairPair { i, j, target: 0.0 });
                    }
                }
                for idx in 0..n_pairs {
                    let other = rng.gen_range(idx..all.len());
                    all.swap(idx, other);
                }
                all.truncate(n_pairs);
                all
            } else {
                // Sparse draw: sample distinct unordered pairs by rejection;
                // below half the total pair count collisions stay rare.
                let mut seen = std::collections::HashSet::with_capacity(n_pairs);
                let mut pairs = Vec::with_capacity(n_pairs);
                while pairs.len() < n_pairs {
                    let i = rng.gen_range(0..m);
                    let j = rng.gen_range(0..m);
                    if i == j {
                        continue;
                    }
                    let (lo, hi) = (i.min(j), i.max(j));
                    if seen.insert((lo, hi)) {
                        pairs.push(FairPair {
                            i: lo,
                            j: hi,
                            target: 0.0,
                        });
                    }
                }
                pairs
            };
            pairs.sort_unstable_by_key(|p| (p.i, p.j));
            pairs
        }
    };
    let fill_pool = if pairs.len() >= PAR_MIN_PAIRS {
        pool.get()
    } else {
        None
    };
    fill_targets(x, nonprotected, &mut pairs, fill_pool);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FitStrategy, InitStrategy};
    use ifair_optim::numgrad::check_gradient;

    fn toy_matrix() -> Matrix {
        // 6 records x 4 attributes, values in general position so p=3
        // derivatives are smooth (no coincident coordinates).
        Matrix::from_rows(vec![
            vec![0.91, 0.20, 0.37, 1.00],
            vec![0.83, 0.31, 0.55, 0.00],
            vec![0.22, 0.87, 0.14, 1.00],
            vec![0.11, 0.93, 0.72, 0.00],
            vec![0.52, 0.48, 0.90, 1.00],
            vec![0.43, 0.64, 0.08, 0.00],
        ])
        .unwrap()
    }

    fn toy_protected() -> Vec<bool> {
        vec![false, false, false, true]
    }

    fn theta_at(dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..dim).map(|_| rng.gen_range(0.05..0.95)).collect()
    }

    fn config(k: usize) -> IFairConfig {
        IFairConfig {
            k,
            lambda: 0.7,
            mu: 1.3,
            init: InitStrategy::RandomUniform,
            ..Default::default()
        }
    }

    /// Runs the forward pass into a fresh state (test helper).
    fn forward_fresh(obj: &IFairObjective<'_>, theta: &[f64]) -> ForwardState {
        let (alpha, v) = obj.kern.unpack(theta);
        let mut state = ForwardState::new(obj.m, obj.kern.n, obj.kern.k);
        obj.kern
            .forward_into(obj.x, alpha, v, &mut state, obj.record_pool());
        state
    }

    #[test]
    fn dim_counts_alpha_and_prototypes() {
        let x = toy_matrix();
        let obj = IFairObjective::new(&x, &toy_protected(), &config(3));
        assert_eq!(obj.dim(), 4 * (3 + 1));
    }

    #[test]
    fn exact_pairs_cover_all_unordered_pairs() {
        let x = toy_matrix();
        let obj = IFairObjective::new(&x, &toy_protected(), &config(2));
        assert_eq!(obj.pairs().len(), 6 * 5 / 2);
        for pair in obj.pairs() {
            assert!(pair.i < pair.j);
            assert!(pair.target >= 0.0);
        }
    }

    #[test]
    fn pair_targets_ignore_protected_columns() {
        // Records 0 and 2 of this matrix differ only in the protected column.
        let x = Matrix::from_rows(vec![
            vec![0.5, 0.5, 1.0],
            vec![0.9, 0.1, 0.0],
            vec![0.5, 0.5, 0.0],
        ])
        .unwrap();
        let obj = IFairObjective::new(&x, &[false, false, true], &config(2));
        let pair02 = obj
            .pairs()
            .iter()
            .find(|p| p.i == 0 && p.j == 2)
            .expect("pair (0,2) present");
        assert!(pair02.target.abs() < 1e-12);
    }

    #[test]
    fn anchored_pairs_bounded_and_unique() {
        let x = toy_matrix();
        let cfg = IFairConfig {
            fairness_pairs: FairnessPairs::Anchored { n_anchors: 2 },
            ..config(2)
        };
        let obj = IFairObjective::new(&x, &toy_protected(), &cfg);
        let pairs = obj.pairs();
        assert!(!pairs.is_empty());
        assert!(pairs.len() <= 2 * 6);
        let mut keys: Vec<(usize, usize)> = pairs.iter().map(|p| (p.i, p.j)).collect();
        keys.dedup();
        assert_eq!(keys.len(), pairs.len(), "anchored pairs must be distinct");
    }

    #[test]
    fn subsampled_pairs_exact_count() {
        let x = toy_matrix();
        let cfg = IFairConfig {
            fairness_pairs: FairnessPairs::Subsampled { n_pairs: 7 },
            ..config(2)
        };
        let obj = IFairObjective::new(&x, &toy_protected(), &cfg);
        assert_eq!(obj.pairs().len(), 7);
        // Requesting more pairs than exist clamps to the total.
        let cfg = IFairConfig {
            fairness_pairs: FairnessPairs::Subsampled { n_pairs: 10_000 },
            ..config(2)
        };
        let obj = IFairObjective::new(&x, &toy_protected(), &cfg);
        assert_eq!(obj.pairs().len(), 15);
    }

    #[test]
    fn subsampled_dense_draw_terminates_and_is_valid() {
        // `n_pairs` near (or at) the total pair count takes the
        // enumerate-and-partial-shuffle path, which must terminate fast and
        // still produce distinct, sorted, correctly-targeted pairs.
        let mut rng = StdRng::seed_from_u64(9);
        let m = 40;
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let x = Matrix::from_rows(rows).unwrap();
        let total = m * (m - 1) / 2;
        for n_pairs in [total / 2 + 1, total - 1, total] {
            let cfg = IFairConfig {
                fairness_pairs: FairnessPairs::Subsampled { n_pairs },
                ..config(2)
            };
            let obj = IFairObjective::new(&x, &[false, false, true], &cfg);
            let pairs = obj.pairs();
            assert_eq!(pairs.len(), n_pairs);
            for w in pairs.windows(2) {
                assert!((w[0].i, w[0].j) < (w[1].i, w[1].j), "sorted and distinct");
            }
            for pair in pairs {
                assert!(pair.i < pair.j && pair.j < m);
                let want = masked_target(&x, &[0, 1], pair.i, pair.j);
                assert_eq!(pair.target.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn pure_utility_loss_matches_manual_reconstruction_error() {
        let x = toy_matrix();
        let cfg = IFairConfig {
            lambda: 1.0,
            mu: 0.0,
            ..config(3)
        };
        let obj = IFairObjective::new(&x, &toy_protected(), &cfg);
        let theta = theta_at(obj.dim(), 7);
        let state = forward_fresh(&obj, &theta);
        let manual: f64 = x
            .as_slice()
            .iter()
            .zip(&state.xt)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        assert!((obj.value(&theta) - manual).abs() < 1e-12);
    }

    #[test]
    fn responsibilities_form_probability_distributions() {
        let x = toy_matrix();
        let obj = IFairObjective::new(&x, &toy_protected(), &config(4));
        let theta = theta_at(obj.dim(), 3);
        let state = forward_fresh(&obj, &theta);
        for i in 0..6 {
            let row = &state.u[i * 4..(i + 1) * 4];
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            assert!(row.iter().all(|&u| (0.0..=1.0).contains(&u)));
        }
    }

    #[test]
    fn softmax_survives_huge_distances() {
        // Prototype far away => exp(-1e6) underflows without max-shifting.
        let x = Matrix::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let cfg = IFairConfig { k: 2, ..config(2) };
        let obj = IFairObjective::new(&x, &[false, false], &cfg);
        let theta = vec![1.0, 1.0, 1e3, 1e3, 2e3, 2e3];
        let value = obj.value(&theta);
        assert!(value.is_finite());
        let mut grad = vec![0.0; theta.len()];
        let v = obj.value_and_gradient(&theta, &mut grad);
        assert!(v.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    /// Exercises the analytic gradient against central differences for every
    /// combination of kernels, fairness distances and pair sets.
    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let x = toy_matrix();
        let protected = toy_protected();
        for softmax_distance in [SoftmaxDistance::PowerSum, SoftmaxDistance::Rooted] {
            for fairness_distance in [FairnessDistance::Unweighted, FairnessDistance::Weighted] {
                for p in [2.0, 3.0] {
                    for pairs in [
                        FairnessPairs::Exact,
                        FairnessPairs::Anchored { n_anchors: 3 },
                        FairnessPairs::Subsampled { n_pairs: 5 },
                    ] {
                        let cfg = IFairConfig {
                            p,
                            softmax_distance,
                            fairness_distance,
                            fairness_pairs: pairs,
                            ..config(3)
                        };
                        let obj = IFairObjective::new(&x, &protected, &cfg);
                        let theta = theta_at(obj.dim(), 11);
                        let report = check_gradient(&obj, &theta, 1e-6);
                        assert!(
                            report.passes(2e-5),
                            "sm={softmax_distance:?} fd={fairness_distance:?} p={p} \
                             pairs={pairs:?}: {report:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_matches_for_pure_losses() {
        let x = toy_matrix();
        let protected = toy_protected();
        for (lambda, mu) in [(1.0, 0.0), (0.0, 1.0)] {
            let cfg = IFairConfig {
                lambda,
                mu,
                ..config(2)
            };
            let obj = IFairObjective::new(&x, &protected, &cfg);
            let theta = theta_at(obj.dim(), 23);
            let report = check_gradient(&obj, &theta, 1e-6);
            assert!(report.passes(2e-5), "λ={lambda} μ={mu}: {report:?}");
        }
    }

    #[test]
    fn value_and_gradient_agree_with_value() {
        let x = toy_matrix();
        let obj = IFairObjective::new(&x, &toy_protected(), &config(3));
        let theta = theta_at(obj.dim(), 5);
        let mut grad = vec![0.0; obj.dim()];
        let v1 = obj.value_and_gradient(&theta, &mut grad);
        let v2 = obj.value(&theta);
        assert!((v1 - v2).abs() < 1e-12);
    }

    fn minibatch_config(batch_records: usize, pairs_per_batch: usize) -> IFairConfig {
        IFairConfig {
            strategy: FitStrategy::MiniBatch {
                batch_records,
                pairs_per_batch,
                epochs: 1,
                learning_rate: 0.05,
            },
            ..config(3)
        }
    }

    #[test]
    fn minibatch_resample_draws_distinct_records_and_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mut x = Matrix::from_rows(rows).unwrap();
        let cfg = minibatch_config(8, 12);
        let mut obj = MiniBatchObjective::new(x.rows(), &toy_protected(), &cfg);
        assert_eq!(obj.batch_records(), 8);
        assert_eq!(obj.realized_pairs_per_batch(), 12);
        let mut sample_rng = StdRng::seed_from_u64(cfg.seed);
        for _ in 0..5 {
            obj.resample(&mut x, &mut sample_rng).unwrap();
            let indices = obj.batch_indices();
            assert_eq!(indices.len(), 8);
            for w in indices.windows(2) {
                assert!(w[0] < w[1], "batch indices ascending and distinct");
            }
            let state = obj.batch.lock().unwrap();
            assert_eq!(state.pairs.len(), 12);
            for w in state.pairs.windows(2) {
                assert!(
                    (w[0].i, w[0].j) < (w[1].i, w[1].j),
                    "pairs sorted, distinct"
                );
            }
            for pair in &state.pairs {
                assert!(pair.i < pair.j && pair.j < 8);
                let want = masked_target(&state.x, &[0, 1, 2], pair.i, pair.j);
                assert_eq!(pair.target.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn minibatch_clamps_batch_and_pairs_to_source() {
        let mut x = toy_matrix(); // 6 records -> 15 distinct pairs
        let cfg = minibatch_config(64, 10_000);
        let mut obj = MiniBatchObjective::new(x.rows(), &toy_protected(), &cfg);
        assert_eq!(obj.batch_records(), 6);
        assert_eq!(obj.realized_pairs_per_batch(), 15);
        let mut rng = StdRng::seed_from_u64(1);
        obj.resample(&mut x, &mut rng).unwrap();
        assert_eq!(obj.batch_indices(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(obj.batch.lock().unwrap().pairs.len(), 15);
    }

    #[test]
    fn minibatch_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(19);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..4).map(|_| rng.gen_range(0.05..0.95)).collect())
            .collect();
        let mut x = Matrix::from_rows(rows).unwrap();
        for fairness_distance in [FairnessDistance::Unweighted, FairnessDistance::Weighted] {
            let cfg = IFairConfig {
                fairness_distance,
                ..minibatch_config(12, 30)
            };
            let mut obj = MiniBatchObjective::new(x.rows(), &toy_protected(), &cfg);
            let mut sample_rng = StdRng::seed_from_u64(5);
            obj.resample(&mut x, &mut sample_rng).unwrap();
            let theta = theta_at(obj.dim(), 11);
            let report = check_gradient(&obj, &theta, 1e-6);
            assert!(report.passes(2e-5), "fd={fairness_distance:?}: {report:?}");
        }
    }

    #[test]
    fn minibatch_rejects_non_finite_batches() {
        let mut x = toy_matrix();
        x.set(2, 1, f64::NAN);
        let cfg = minibatch_config(6, 5);
        let mut obj = MiniBatchObjective::new(x.rows(), &toy_protected(), &cfg);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(obj.resample(&mut x, &mut rng).is_err());
    }

    #[test]
    fn minibatch_thread_count_never_changes_bits() {
        // Pool thresholds engage at 128 records / 512 pairs; same seed must
        // give the same batch, loss, and gradient for 1, 2, and 4 threads.
        let mut rng = StdRng::seed_from_u64(23);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let x = Matrix::from_rows(rows).unwrap();
        let mut reference: Option<(u64, Vec<u64>)> = None;
        for threads in [1usize, 2, 4] {
            let cfg = IFairConfig {
                n_threads: threads,
                ..minibatch_config(128, 600)
            };
            let mut obj = MiniBatchObjective::new(x.rows(), &toy_protected(), &cfg);
            let mut src = x.clone();
            let mut sample_rng = StdRng::seed_from_u64(7);
            obj.resample(&mut src, &mut sample_rng).unwrap();
            let theta = theta_at(obj.dim(), 31);
            let mut grad = vec![0.0; obj.dim()];
            let value = obj.value_and_gradient(&theta, &mut grad);
            let bits: Vec<u64> = grad.iter().map(|g| g.to_bits()).collect();
            match &reference {
                None => reference = Some((value.to_bits(), bits)),
                Some((v, g)) => {
                    assert_eq!(*v, value.to_bits(), "loss differs at {threads} threads");
                    assert_eq!(*g, bits, "gradient differs at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_never_leaks_state_across_evaluations() {
        // Consecutive evaluations on ONE objective reuse the workspace and
        // pool; results must be bit-identical to a fresh objective's.
        let x = toy_matrix();
        let obj = IFairObjective::new(&x, &toy_protected(), &config(3));
        let ta = theta_at(obj.dim(), 5);
        let tb = theta_at(obj.dim(), 6);
        let mut first = vec![0.0; obj.dim()];
        let va1 = obj.value_and_gradient(&ta, &mut first);
        // Interleave a different point, then come back.
        let mut scratch = vec![0.0; obj.dim()];
        obj.value_and_gradient(&tb, &mut scratch);
        obj.value(&tb);
        let mut second = vec![0.0; obj.dim()];
        let va2 = obj.value_and_gradient(&ta, &mut second);
        assert_eq!(va1.to_bits(), va2.to_bits());
        let first_bits: Vec<u64> = first.iter().map(|g| g.to_bits()).collect();
        let second_bits: Vec<u64> = second.iter().map(|g| g.to_bits()).collect();
        assert_eq!(first_bits, second_bits);
    }

    #[test]
    fn sparse_record_draws_match_a_hash_set_reference() {
        // (M, B, seed) with 2B < M: the sparse record draw, read out of
        // the bit set when ⌈M/64⌉ ≤ B and sorted otherwise (both sides of
        // the cut, at it and one word past it). No pairs, so the record
        // draws are the sampler's only RNG use.
        for (m, b, seed) in [
            (1_000, 10, 1),
            (1_000, 499, 2),
            (130, 64, 3),
            (4_096, 64, 4),
            (4_097, 64, 6),
            (100_003, 2_048, 5),
            (100_003, 256, 7),
        ] {
            let mut x = Matrix::zeros(m, 1);
            let cfg = IFairConfig {
                strategy: FitStrategy::MiniBatch {
                    batch_records: b,
                    pairs_per_batch: 0,
                    epochs: 1,
                    learning_rate: 0.05,
                },
                ..config(2)
            };
            let mut obj = MiniBatchObjective::new(m, &[false], &cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            for step in 0..4 {
                obj.resample(&mut x, &mut rng).unwrap();
                let mut seen = std::collections::HashSet::new();
                let mut want = Vec::with_capacity(b);
                while want.len() < b {
                    let i = reference_rng.gen_range(0..m);
                    if seen.insert(i) {
                        want.push(i);
                    }
                }
                want.sort_unstable();
                assert_eq!(obj.batch_indices(), want, "M={m} B={b} step {step}");
            }
        }
    }

    /// Bits of one evaluation: the loss, `∂L/∂x̃` after the fairness fold,
    /// and the full gradient (`∂L/∂α` first).
    #[derive(Debug, PartialEq)]
    struct EvalBits {
        loss: u64,
        g_xt: Vec<u64>,
        grad: Vec<u64>,
    }

    fn eval_bits(loss: f64, g_xt: &[f64], grad: &[f64]) -> EvalBits {
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect();
        EvalBits {
            loss: loss.to_bits(),
            g_xt: bits(g_xt),
            grad: bits(grad),
        }
    }

    /// The evaluation with the dense fold the compact one replaced: the
    /// seed without the `+0.0`, then per chunk a zeroed `M·N` buffer that
    /// the chunk's pairs write at their own rows, folded whole into `g_xt`.
    fn dense_reference(
        kern: &LossKernel,
        x: &Matrix,
        pairs: &[FairPair],
        theta: &[f64],
    ) -> EvalBits {
        let (m, n) = x.shape();
        let (alpha, v) = kern.unpack(theta);
        let mut ws = Workspace::new(m, n, kern.k);
        kern.forward_into(x, alpha, v, &mut ws.state, None);
        let mut grad = vec![0.0; kern.dim()];
        let util = if kern.lambda != 0.0 {
            for ((g, &orig), &rec) in ws.g_xt.iter_mut().zip(x.as_slice()).zip(&ws.state.xt) {
                *g = 2.0 * kern.lambda * (rec - orig);
            }
            ifair_linalg::lanes::sq_euclidean(x.as_slice(), &ws.state.xt)
        } else {
            ws.g_xt.fill(0.0);
            0.0
        };
        let mut fair = 0.0;
        if kern.mu != 0.0 {
            let own_rows: Vec<[u32; 2]> = pairs.iter().map(|p| [p.i as u32, p.j as u32]).collect();
            let mut gx = vec![0.0; m * n];
            let mut ga = vec![0.0; n];
            for range in fair_chunk_layout(pairs.len()) {
                gx.fill(0.0);
                ga.fill(0.0);
                fair += kern
                    .fair_grad_chunk(pairs, &own_rows, alpha, &ws.state, range, &mut gx, &mut ga);
                add_assign(&mut ws.g_xt, &gx);
                add_assign(&mut grad[..n], &ga);
            }
        }
        let loss = kern.lambda * util + kern.mu * fair;
        kern.backprop_into(
            x,
            alpha,
            v,
            &ws.state,
            &ws.g_xt,
            &mut grad,
            &mut ws.back,
            None,
        );
        eval_bits(loss, &ws.g_xt, &grad)
    }

    /// The in-process evaluation (serial without a pool), with `index`
    /// rebuilt for this pair list.
    fn compact_evaluation(
        kern: &LossKernel,
        x: &Matrix,
        pairs: &[FairPair],
        theta: &[f64],
        index: &mut FairRowIndex,
        pool: Option<&par::WorkerPool>,
    ) -> EvalBits {
        let (m, n) = x.shape();
        index.rebuild(pairs, m);
        let mut ws = Workspace::new(m, n, kern.k);
        let mut grad = vec![0.0; kern.dim()];
        let loss =
            kern.value_and_gradient_into(x, pairs, index, theta, &mut grad, &mut ws, pool, pool);
        eval_bits(loss, &ws.g_xt, &grad)
    }

    /// Distinct random pairs over `0..m`, `(i, j)`-sorted like a resampled
    /// mini-batch's, with targets on the first `n − 1` columns.
    fn sorted_random_pairs(x: &Matrix, count: usize, seed: u64) -> Vec<FairPair> {
        let m = x.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < count {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            if i != j {
                seen.insert((i.min(j), i.max(j)));
            }
        }
        let mut keys: Vec<(usize, usize)> = seen.into_iter().collect();
        keys.sort_unstable();
        let nonprotected: Vec<usize> = (0..x.cols() - 1).collect();
        keys.into_iter()
            .map(|(i, j)| FairPair {
                i,
                j,
                target: masked_target(x, &nonprotected, i, j),
            })
            .collect()
    }

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..m)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        Matrix::from_rows(rows).unwrap()
    }

    /// Whether the dense seed `2λ(x̃ − x)` holds a `−0.0` at `theta` in a
    /// row no pair touches (where no chunk's fold adds anything real).
    fn untouched_negative_zero(
        kern: &LossKernel,
        x: &Matrix,
        pairs: &[FairPair],
        theta: &[f64],
    ) -> bool {
        let (alpha, v) = kern.unpack(theta);
        let mut state = ForwardState::new(x.rows(), kern.n, kern.k);
        kern.forward_into(x, alpha, v, &mut state, None);
        let touched: std::collections::HashSet<usize> =
            pairs.iter().flat_map(|p| [p.i, p.j]).collect();
        let n = kern.n;
        (0..x.rows()).filter(|r| !touched.contains(r)).any(|r| {
            let span = r * n..(r + 1) * n;
            x.as_slice()[span.clone()]
                .iter()
                .zip(&state.xt[span])
                .any(|(&orig, &rec)| {
                    (2.0 * kern.lambda * (rec - orig)).to_bits() == (-0.0f64).to_bits()
                })
        })
    }

    #[test]
    fn compact_fairness_fold_is_bit_identical_to_the_dense_fold() {
        let n = 5;
        let nonprotected: Vec<usize> = (0..n - 1).collect();
        let serial = LazyPool::new(1);
        let build = |x: &Matrix, spec: FairnessPairs, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            build_pairs(x, &nonprotected, spec, x.rows(), &mut rng, &serial)
        };
        // The smallest positive λ: 2λ·(x̃ − x) underflows to −0.0 wherever
        // x̃ < x, so the seed is full of negative zeros.
        let tiny = f64::from_bits(1);
        let x300 = random_matrix(300, n, 1);
        let x70 = random_matrix(70, n, 2);
        let x200 = random_matrix(200, n, 3);
        let x40 = random_matrix(40, n, 4);
        let x120 = random_matrix(120, n, 5);
        // ~1 000 pairs (two chunks) over rows 0..150 only: rows 150..300
        // are touched by no chunk.
        let low_half_pairs: Vec<FairPair> = sorted_random_pairs(&x300, 4_000, 14)
            .into_iter()
            .filter(|p| p.j < 150)
            .collect();
        let cases: Vec<(&str, &Matrix, Vec<FairPair>, IFairConfig)> = vec![
            (
                "sorted mini-batch pairs",
                &x300,
                sorted_random_pairs(&x300, 1_500, 6),
                config(3),
            ),
            (
                "exact tiles, weighted",
                &x70,
                build(&x70, FairnessPairs::Exact, 7),
                IFairConfig {
                    fairness_distance: FairnessDistance::Weighted,
                    ..config(3)
                },
            ),
            (
                "subsampled, rooted softmax, weighted, p = 3",
                &x200,
                build(&x200, FairnessPairs::Subsampled { n_pairs: 1_200 }, 8),
                IFairConfig {
                    p: 3.0,
                    softmax_distance: SoftmaxDistance::Rooted,
                    fairness_distance: FairnessDistance::Weighted,
                    ..config(3)
                },
            ),
            (
                "rows shared across chunk boundaries, λ = 0",
                &x40,
                sorted_random_pairs(&x40, 780, 9),
                IFairConfig {
                    lambda: 0.0,
                    ..config(2)
                },
            ),
            ("empty pair list", &x40, Vec::new(), config(2)),
            (
                "μ = 0",
                &x120,
                sorted_random_pairs(&x120, 900, 10),
                IFairConfig {
                    mu: 0.0,
                    ..config(3)
                },
            ),
            (
                "−0.0 seed in rows no pair touches",
                &x300,
                low_half_pairs,
                IFairConfig {
                    lambda: tiny,
                    ..config(3)
                },
            ),
            (
                "−0.0 seed, empty pair list",
                &x40,
                Vec::new(),
                IFairConfig {
                    lambda: tiny,
                    ..config(2)
                },
            ),
        ];
        let pools = [par::WorkerPool::new(2), par::WorkerPool::new(4)];
        let mut index = FairRowIndex::new();
        for (label, x, pairs, cfg) in &cases {
            let kern = LossKernel::from_config(n, cfg);
            let mut theta = theta_at(kern.dim(), 13);
            theta[1] = -0.2; // a negative weight takes the clamped branches
            let want = dense_reference(&kern, x, pairs, &theta);
            if cfg.lambda == tiny {
                assert!(untouched_negative_zero(&kern, x, pairs, &theta), "{label}");
                // The dense fold turns those into +0.0, unless no chunk runs.
                let kept = want.g_xt.contains(&(-0.0f64).to_bits());
                assert_eq!(kept, pairs.is_empty(), "{label}");
            }
            assert_eq!(
                compact_evaluation(&kern, x, pairs, &theta, &mut index, None),
                want,
                "{label}: serial"
            );
            for pool in &pools {
                let got = compact_evaluation(&kern, x, pairs, &theta, &mut index, Some(pool));
                assert_eq!(got, want, "{label}: {} threads", pool.lanes());
            }
        }
    }

    #[test]
    fn fairness_index_covers_exactly_the_rows_each_chunk_touches() {
        let x = random_matrix(60, 3, 11);
        let pairs = sorted_random_pairs(&x, 1_200, 12);
        let mut index = FairRowIndex::new();
        // Rebuilding over a different list first must leave no residue.
        index.rebuild(&sorted_random_pairs(&x, 700, 13), 60);
        index.rebuild(&pairs, 60);
        assert_eq!(index.chunks, fair_chunk_layout(pairs.len()));
        for (c, range) in index.chunks.iter().enumerate() {
            let mut want: Vec<usize> = pairs[range.clone()]
                .iter()
                .flat_map(|p| [p.i, p.j])
                .collect();
            want.sort_unstable();
            want.dedup();
            let rows = index.chunk_rows(c);
            assert_eq!(rows, want.as_slice(), "chunk {c}");
            assert!(index.max_rows() >= rows.len());
            for (pair, &[si, sj]) in pairs[range.clone()].iter().zip(&index.slots[range.clone()]) {
                assert_eq!((rows[si as usize], rows[sj as usize]), (pair.i, pair.j));
            }
        }
    }

    /// The per-record kernels as they were before the distance choice left
    /// the record loop: a per-distance `match`, `K` separate `dot`s, a
    /// direct-path loop and a skipped distance path per prototype, and a
    /// seed pass followed by a separate `sq_euclidean` pass. The oracle
    /// the production kernels must match bit for bit.
    mod reference {
        use super::*;

        fn pow_abs(delta: f64, q: f64) -> f64 {
            if q == 2.0 {
                delta * delta
            } else {
                delta.abs().powf(q)
            }
        }

        fn pow_abs_signed(delta: f64, q: f64) -> f64 {
            if q == 1.0 {
                delta
            } else if delta == 0.0 {
                0.0
            } else {
                delta.abs().powf(q) * delta.signum()
            }
        }

        pub(super) fn forward_chunk(
            kern: &LossKernel,
            x: &Matrix,
            alpha: &[f64],
            v: &[f64],
            job: ForwardJob<'_>,
        ) {
            let (n, k) = (kern.n, kern.k);
            let ForwardJob {
                records,
                dist,
                u,
                xt,
            } = job;
            xt.fill(0.0);
            for (row, i) in records.enumerate() {
                let xi = x.row(i);
                let d_row = &mut dist[row * k..(row + 1) * k];
                for (kk, d) in d_row.iter_mut().enumerate() {
                    let vk = &v[kk * n..(kk + 1) * n];
                    let s = distance::weighted_power_sum(xi, vk, alpha, kern.p);
                    *d = match kern.softmax_distance {
                        SoftmaxDistance::PowerSum => s,
                        SoftmaxDistance::Rooted => s.powf(1.0 / kern.p),
                    };
                }
                let d_min = d_row.iter().cloned().fold(f64::INFINITY, f64::min);
                let u_row = &mut u[row * k..(row + 1) * k];
                let mut z = 0.0;
                for (uu, &d) in u_row.iter_mut().zip(d_row.iter()) {
                    *uu = (d_min - d).exp();
                    z += *uu;
                }
                for uu in u_row.iter_mut() {
                    *uu /= z;
                }
                let xt_row = &mut xt[row * n..(row + 1) * n];
                for (kk, &uu) in u_row.iter().enumerate() {
                    let vk = &v[kk * n..(kk + 1) * n];
                    for (o, &vkn) in xt_row.iter_mut().zip(vk) {
                        *o += uu * vkn;
                    }
                }
            }
        }

        pub(super) fn seed_g_xt(
            kern: &LossKernel,
            x: &[f64],
            xt: &[f64],
            g_xt: &mut [f64],
            canonical: bool,
        ) -> f64 {
            if kern.lambda == 0.0 {
                g_xt.fill(0.0);
                return 0.0;
            }
            let zero = if canonical { 0.0 } else { -0.0 };
            for ((g, &orig), &rec) in g_xt.iter_mut().zip(x).zip(xt) {
                *g = 2.0 * kern.lambda * (rec - orig) + zero;
            }
            ifair_linalg::lanes::sq_euclidean(x, xt)
        }

        pub(super) fn backprop_chunk(
            kern: &LossKernel,
            x: &Matrix,
            alpha: &[f64],
            v: &[f64],
            state: &ForwardState,
            g_xt: &[f64],
            job: BackpropJob<'_>,
        ) {
            let (n, k, p) = (kern.n, kern.k, kern.p);
            let BackpropJob { records, gv, ga, c } = job;
            gv.fill(0.0);
            ga.fill(0.0);
            for i in records {
                let xi = x.row(i);
                let gx_row = &g_xt[i * n..(i + 1) * n];
                let u_row = &state.u[i * k..(i + 1) * k];
                let d_row = &state.dist[i * k..(i + 1) * k];
                let mut c_dot_u = 0.0;
                for (kk, ck) in c.iter_mut().enumerate() {
                    let vk = &v[kk * n..(kk + 1) * n];
                    *ck = distance::dot(gx_row, vk);
                    c_dot_u += u_row[kk] * *ck;
                }
                for kk in 0..k {
                    let uk = u_row[kk];
                    let b_k = uk * (c[kk] - c_dot_u);
                    let vk = &v[kk * n..(kk + 1) * n];
                    let gv_row = &mut gv[kk * n..(kk + 1) * n];
                    for (o, &gx) in gv_row.iter_mut().zip(gx_row) {
                        *o += uk * gx;
                    }
                    let gd = -b_k;
                    if gd == 0.0 {
                        continue;
                    }
                    match kern.softmax_distance {
                        SoftmaxDistance::PowerSum => {
                            for idx in 0..n {
                                let delta = xi[idx] - vk[idx];
                                gv_row[idx] += gd
                                    * (-alpha[idx].max(0.0) * p * pow_abs_signed(delta, p - 1.0));
                                if alpha[idx] >= 0.0 {
                                    ga[idx] += gd * pow_abs(delta, p);
                                }
                            }
                        }
                        SoftmaxDistance::Rooted => {
                            let d = d_row[kk];
                            for idx in 0..n {
                                gv_row[idx] +=
                                    gd * distance::d_wrt_second(xi[idx], vk[idx], alpha[idx], p, d);
                                if alpha[idx] >= 0.0 {
                                    ga[idx] += gd * distance::d_wrt_alpha(xi[idx], vk[idx], p, d);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// One chunk's backprop accumulators `(gv, ga)` from `chunk_fn`.
    fn backprop_buffers(
        kern: &LossKernel,
        records: Range<usize>,
        chunk_fn: impl Fn(BackpropJob<'_>),
    ) -> (Vec<f64>, Vec<f64>) {
        let (n, k) = (kern.n, kern.k);
        // Stale contents: every chunk must zero its own accumulators.
        let (mut gv, mut ga, mut c) = (vec![9.0; k * n], vec![9.0; n], vec![9.0; k]);
        chunk_fn(BackpropJob {
            records,
            gv: &mut gv,
            ga: &mut ga,
            c: &mut c,
        });
        (gv, ga)
    }

    #[test]
    fn record_kernels_are_bit_identical_to_the_reference_kernels() {
        let m = 150; // three record chunks
        let tiny = f64::from_bits(1); // 2λ(x̃ − x) underflows to ±0.0
        let pools = [par::WorkerPool::new(2), par::WorkerPool::new(4)];
        let mut cases = 0;
        for (n, k) in [1, 3, 4, 17]
            .into_iter()
            .flat_map(|n| [1, 4, 7].map(|k| (n, k)))
        {
            let mut x = random_matrix(m, n, (n * 10 + k) as u64);
            let mut theta = theta_at(n * (k + 1), (n * 100 + k) as u64);
            // α with positive, zero and negative (clamped) entries.
            for (j, a) in theta[..n].iter_mut().enumerate() {
                *a = [*a, 0.0, -*a][j % 3];
            }
            // A record equal to a prototype: a zero distance and Δ = 0.
            let v0 = theta[n..2 * n].to_vec();
            x.row_mut(5).copy_from_slice(&v0);
            let mut inputs = vec![(x, theta, "")];
            if k > 1 {
                // The last prototype 1e160 from every record but one on a
                // feature with α > 0: Δ² overflows and u = 0, so ∂L/∂D = ±0
                // where ±0·Δ² would be NaN.
                let (mut x, mut theta) = (inputs[0].0.clone(), inputs[0].1.clone());
                theta[k * n] = 1e160;
                x.row_mut(9).copy_from_slice(&theta[k * n..]);
                inputs.push((x, theta, " far prototype"));
            }
            for (x, theta, tag) in &inputs {
                for p in [1.0, 1.5, 2.0, 3.0] {
                    for softmax_distance in [SoftmaxDistance::PowerSum, SoftmaxDistance::Rooted] {
                        for lambda in [0.7, tiny, 0.0] {
                            let cfg = IFairConfig {
                                p,
                                softmax_distance,
                                lambda,
                                ..config(k)
                            };
                            let kern = LossKernel::from_config(n, &cfg);
                            let label =
                                format!("N={n} K={k} p={p} {softmax_distance:?} λ={lambda}{tag}");
                            check_record_kernels(&kern, x, theta, &pools, &label);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, (12 + 8) * 4 * 2 * 3);
    }

    fn check_record_kernels(
        kern: &LossKernel,
        x: &Matrix,
        theta: &[f64],
        pools: &[par::WorkerPool],
        label: &str,
    ) {
        let (m, n, k) = (x.rows(), kern.n, kern.k);
        let (alpha, v) = kern.unpack(theta);
        let layout = record_chunk_layout(m);
        assert!(layout.len() > 1, "{label}: several record chunks");

        // Forward: the reference chunk by chunk, against the serial and
        // pooled passes.
        let mut fwd = ForwardState::new(m, n, k);
        for (((records, dist), u), xt) in layout
            .iter()
            .cloned()
            .zip(split_chunks(&mut fwd.dist, &layout, k))
            .zip(split_chunks(&mut fwd.u, &layout, k))
            .zip(split_chunks(&mut fwd.xt, &layout, n))
        {
            reference::forward_chunk(
                kern,
                x,
                alpha,
                v,
                ForwardJob {
                    records,
                    dist,
                    u,
                    xt,
                },
            );
        }
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let mut got = ForwardState::new(m, n, k);
            kern.forward_into(x, alpha, v, &mut got, pool);
            let lanes = pool.map_or(1, |p| p.lanes());
            assert_eq!(
                bits(&got.dist),
                bits(&fwd.dist),
                "{label}: dist, {lanes} lanes"
            );
            assert_eq!(bits(&got.u), bits(&fwd.u), "{label}: u, {lanes} lanes");
            assert_eq!(bits(&got.xt), bits(&fwd.xt), "{label}: x̃, {lanes} lanes");
        }

        // Seed and utility sum.
        let mut g_want = vec![0.0; m * n];
        let mut g_got = vec![0.0; m * n];
        for canonical in [false, true] {
            let sum_want =
                reference::seed_g_xt(kern, x.as_slice(), &fwd.xt, &mut g_want, canonical);
            let sum_got = kern.seed_g_xt(x.as_slice(), &fwd.xt, &mut g_got, canonical);
            assert_eq!(
                sum_got.to_bits(),
                sum_want.to_bits(),
                "{label}: utility sum"
            );
            assert_eq!(
                bits(&g_got),
                bits(&g_want),
                "{label}: seed, canonical {canonical}"
            );
        }

        // Backprop from a ∂L/∂x̃ with whole zero rows (every `∂L/∂D` is
        // ±0 there), rows holding −0.0, and rows of arbitrary values.
        let mut rng = StdRng::seed_from_u64(m as u64 + n as u64);
        for (i, row) in g_want.chunks_exact_mut(n).enumerate() {
            match i % 4 {
                1 => row.fill(0.0),
                2 => row.iter_mut().for_each(|g| *g = rng.gen_range(-2.0..2.0)),
                3 => row[0] = -0.0,
                _ => {}
            }
        }
        let g_xt = &g_want;
        let mut grad_want = vec![0.0; kern.dim()];
        for records in &layout {
            let want = backprop_buffers(kern, records.clone(), |job| {
                reference::backprop_chunk(kern, x, alpha, v, &fwd, g_xt, job)
            });
            let got = backprop_buffers(kern, records.clone(), |job| {
                kern.backprop_chunk(x, alpha, v, &fwd, g_xt, job)
            });
            assert_eq!(bits(&got.0), bits(&want.0), "{label}: gv of {records:?}");
            assert_eq!(bits(&got.1), bits(&want.1), "{label}: ga of {records:?}");
            let (g_alpha, g_v) = grad_want.split_at_mut(n);
            add_assign(g_v, &want.0);
            add_assign(g_alpha, &want.1);
        }
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let mut grad = vec![0.0; kern.dim()];
            let mut scratch = Workspace::new(m, n, k).back;
            kern.backprop_into(x, alpha, v, &fwd, g_xt, &mut grad, &mut scratch, pool);
            let lanes = pool.map_or(1, |p| p.lanes());
            assert_eq!(
                bits(&grad),
                bits(&grad_want),
                "{label}: gradient, {lanes} lanes"
            );
        }
    }

    #[test]
    fn chunk_scratch_buffers_never_share_a_cache_line() {
        let mut scratch = ChunkScratch::new();
        for (count, len) in [(64, 4), (8, 17), (3, 1), (64, 68), (1, 0), (5, 9)] {
            let lines: Vec<Range<usize>> = scratch
                .take(count, len)
                .map(|buf| {
                    assert_eq!(buf.len(), len);
                    let start = buf.as_ptr() as usize;
                    // The 64-byte lines the buffer's bytes fall in (at
                    // least the one its address is in, when empty).
                    start / 64..(start + (len * 8).max(1) - 1) / 64 + 1
                })
                .collect();
            assert_eq!(lines.len(), count);
            for (a, la) in lines.iter().enumerate() {
                for lb in &lines[a + 1..] {
                    assert!(
                        la.end <= lb.start || lb.end <= la.start,
                        "count {count}, len {len}: lines {la:?} and {lb:?} overlap"
                    );
                }
            }
            assert_eq!(scratch.bufs().count(), count);
        }
    }
}
