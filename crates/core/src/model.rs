//! The trained iFair model: fitting, transforming, persistence.

use crate::checkpoint::FitCheckpoint;
use crate::config::{FairnessPairs, FitStrategy, IFairConfig, InitStrategy, SoftmaxDistance};
use crate::distance;
use crate::objective::{IFairObjective, MiniBatchObjective};
use crate::par;
use ifair_api::{shape_error, FitError};
use ifair_data::stream::RecordSource;
use ifair_linalg::Matrix;
use ifair_optim::{AdamConfig, AdamState, Lbfgs, LbfgsConfig, Objective, Termination};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Near-zero value used for protected attribute weights under
/// [`InitStrategy::NearZeroProtected`] (§V-B: "avoiding zero values to allow
/// slack for the numerical computations").
const NEAR_ZERO_ALPHA: f64 = 1e-4;

/// Kind tag of the versioned JSON envelope written by [`IFair::to_json`].
const MODEL_KIND: &str = "ifair-model";

/// Row-chunk layout of [`IFair::transform_on`]: at most this many rows per
/// chunk, capped at [`TRANSFORM_MAX_CHUNKS`] chunks. Fixed functions of the
/// row count (never the pool size), mirroring the training-kernel layouts,
/// so chunking can never perturb numerics.
pub(crate) const TRANSFORM_CHUNK_ROWS: usize = 64;
/// Upper bound on [`IFair::transform_on`] chunks (see [`TRANSFORM_CHUNK_ROWS`]).
pub(crate) const TRANSFORM_MAX_CHUNKS: usize = 64;

/// What the training loop should do after an observed restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitControl {
    /// Run the remaining restarts.
    Continue,
    /// Stop early: keep the best restart found so far and return.
    Stop,
}

/// Progress snapshot handed to a restart observer (see
/// [`IFair::fit_with_observer`]) after each completed restart.
#[derive(Debug, Clone, Copy)]
pub struct RestartEvent<'a> {
    /// Zero-based index of the restart that just finished.
    pub restart: usize,
    /// Total restarts the configuration asks for.
    pub n_restarts: usize,
    /// The finished restart's outcome.
    pub report: &'a RestartReport,
    /// Lowest loss seen across restarts so far (including this one).
    pub best_loss: f64,
}

/// Progress snapshot handed to an epoch observer (mini-batch training only;
/// see [`crate::IFairBuilder::on_epoch`]) after each completed epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochEvent {
    /// Zero-based index of the restart this epoch belongs to.
    pub restart: usize,
    /// Zero-based index of the epoch that just finished.
    pub epoch: usize,
    /// Total epochs the configuration asks for (per restart).
    pub n_epochs: usize,
    /// Adam steps taken in this epoch (`ceil(M / batch_records)`).
    pub steps: usize,
    /// Mean mini-batch loss over the epoch's steps — the stochastic
    /// analogue of the full-batch loss (per batch, not per dataset, so it is
    /// comparable across epochs but not across batch sizes).
    pub mean_batch_loss: f64,
}

/// Outcome of one random restart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RestartReport {
    /// Seed that initialized this restart.
    pub seed: u64,
    /// Final objective value.
    pub loss: f64,
    /// Outer L-BFGS iterations performed.
    pub iterations: usize,
    /// Objective/gradient evaluations.
    pub n_evals: usize,
    /// Whether a tolerance criterion was met.
    pub converged: bool,
    /// The optimizer's stopping reason.
    pub termination: Termination,
}

/// Training diagnostics: one entry per restart plus the winner
/// (§V-B: "we report the results from the best of 3 runs").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Per-restart outcomes, in restart order.
    pub restarts: Vec<RestartReport>,
    /// Index into `restarts` of the run with the lowest final loss.
    pub best_restart: usize,
    /// Number of fairness pairs the objective preserved — per evaluation on
    /// the full-batch path, per batch on the mini-batch path.
    pub n_pairs: usize,
    /// The pair budget the configuration *asked* for, when it asked for one:
    /// `Some(n_pairs)` of [`FairnessPairs::Subsampled`] on the full-batch
    /// path, `Some(pairs_per_batch)` on the mini-batch path, `None`
    /// otherwise. When this exceeds [`TrainingReport::n_pairs`] the request
    /// was silently unreachable and got clamped to the distinct-pair count —
    /// surfaced here (and by [`TrainingReport::pairs_clamped`]) so callers
    /// can tell a satisfied budget from a capped one. `#[serde(default)]`
    /// so reports serialized before this field existed still load.
    #[serde(default)]
    pub n_pairs_requested: Option<usize>,
}

impl TrainingReport {
    /// The winning restart's report.
    pub fn best(&self) -> &RestartReport {
        &self.restarts[self.best_restart]
    }

    /// Whether the requested pair budget exceeded the distinct pairs
    /// available and was clamped down to [`TrainingReport::n_pairs`].
    pub fn pairs_clamped(&self) -> bool {
        self.n_pairs_requested
            .is_some_and(|requested| requested > self.n_pairs)
    }
}

/// A trained iFair model (Definitions 2-9 of the paper).
///
/// Holds the `K` learned prototype vectors and the attribute weight vector
/// `α`; [`IFair::transform`] applies the probabilistic mapping
/// `φ(x) = Σ_k softmax(-d(x, v_·))_k · v_k` to arbitrary records, so the
/// representation is trained once and reused across downstream tasks — the
/// application-agnostic property the paper emphasizes over LFR.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IFair {
    prototypes: Matrix,
    alpha: Vec<f64>,
    protected: Vec<bool>,
    config: IFairConfig,
    report: TrainingReport,
}

impl IFair {
    /// Learns prototypes and attribute weights for `x` (`M x N`) by
    /// minimizing `λ·L_util + μ·L_fair` with box-constrained L-BFGS, best of
    /// `config.n_restarts` random restarts.
    ///
    /// `protected[j]` flags column `j` as protected: those columns are
    /// excluded from the fairness-loss targets, and under
    /// [`InitStrategy::NearZeroProtected`] their weights start near zero.
    pub fn fit(x: &Matrix, protected: &[bool], config: &IFairConfig) -> Result<IFair, FitError> {
        IFair::fit_with_observer(x, protected, config, |_| FitControl::Continue)
    }

    /// Like [`IFair::fit`], but invokes `observer` after every completed
    /// restart with the restart's report and the best loss so far. Returning
    /// [`FitControl::Stop`] skips the remaining restarts (the best restart
    /// found so far wins) — the hook behind the builder's progress and
    /// early-stop callbacks.
    pub fn fit_with_observer(
        x: &Matrix,
        protected: &[bool],
        config: &IFairConfig,
        observer: impl FnMut(RestartEvent<'_>) -> FitControl,
    ) -> Result<IFair, FitError> {
        IFair::fit_with_observers(x, protected, config, observer, |_| FitControl::Continue)
    }

    /// The fully-instrumented fit: `restart_observer` fires after every
    /// restart (both strategies), `epoch_observer` after every epoch of a
    /// [`FitStrategy::MiniBatch`] fit (never on the full-batch path).
    /// Either observer can return [`FitControl::Stop`] to end training early
    /// and keep the best parameters found so far.
    pub fn fit_with_observers(
        x: &Matrix,
        protected: &[bool],
        config: &IFairConfig,
        restart_observer: impl FnMut(RestartEvent<'_>) -> FitControl,
        epoch_observer: impl FnMut(EpochEvent) -> FitControl,
    ) -> Result<IFair, FitError> {
        config.validate()?;
        let (m, n) = x.shape();
        if m == 0 || n == 0 {
            return Err(shape_error("empty training matrix"));
        }
        check_protected(protected, n)?;
        if x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(shape_error("training matrix contains non-finite values"));
        }
        match config.strategy {
            FitStrategy::FullBatch => fit_full_batch(x, protected, config, restart_observer),
            FitStrategy::MiniBatch { .. } => {
                // The matrix itself is the record source (borrowed, not
                // copied — `&Matrix` implements `RecordSource`); batches
                // copy rows out of it.
                let mut source = x;
                fit_mini_batch(
                    &mut source,
                    protected,
                    config,
                    restart_observer,
                    epoch_observer,
                    None,
                    |_| Ok(()),
                )
            }
        }
    }

    /// Fits from a streaming [`RecordSource`] — the entry point for datasets
    /// that do not fit in memory (indexed CSV files, on-demand generators).
    /// Requires [`FitStrategy::MiniBatch`]: the full-batch L-BFGS path needs
    /// every record resident and every fairness pair materialized, which is
    /// exactly what a streaming source exists to avoid. Non-finite values
    /// are rejected batch-by-batch as they are read.
    pub fn fit_source(
        source: &mut dyn RecordSource,
        protected: &[bool],
        config: &IFairConfig,
    ) -> Result<IFair, FitError> {
        IFair::fit_source_with_observers(
            source,
            protected,
            config,
            |_| FitControl::Continue,
            |_| FitControl::Continue,
        )
    }

    /// [`IFair::fit_source`] with restart and epoch observers (see
    /// [`IFair::fit_with_observers`]).
    pub fn fit_source_with_observers(
        source: &mut dyn RecordSource,
        protected: &[bool],
        config: &IFairConfig,
        restart_observer: impl FnMut(RestartEvent<'_>) -> FitControl,
        epoch_observer: impl FnMut(EpochEvent) -> FitControl,
    ) -> Result<IFair, FitError> {
        config.validate()?;
        if config.strategy == FitStrategy::FullBatch {
            return Err(FitError::Config(ifair_api::ConfigError {
                field: "strategy",
                message: "fitting from a streaming source requires FitStrategy::MiniBatch \
                          (full-batch L-BFGS needs the whole matrix in memory — materialize \
                          the source or switch strategies)"
                    .into(),
            }));
        }
        let (m, n) = (source.n_records(), source.n_features());
        if m == 0 || n == 0 {
            return Err(shape_error("empty record source"));
        }
        check_protected(protected, n)?;
        fit_mini_batch(
            source,
            protected,
            config,
            restart_observer,
            epoch_observer,
            None,
            |_| Ok(()),
        )
    }

    /// [`IFair::fit_with_observers`] restricted to [`FitStrategy::MiniBatch`],
    /// with `checkpoint_sink` invoked after **every completed epoch** with a
    /// [`FitCheckpoint`] capturing the loop's entire state — parameters, Adam
    /// moments, sampler RNG and shuffle state, and all completed restarts.
    /// Persist it (e.g. [`FitCheckpoint::save`], which writes atomically) and
    /// a crash loses at most one epoch: [`IFair::resume_from_checkpoint`]
    /// replays the rest of the fit **bit-identically**. A sink error aborts
    /// the fit — training past a checkpoint that failed to persist would
    /// silently widen the crash window.
    pub fn fit_checkpointed(
        x: &Matrix,
        protected: &[bool],
        config: &IFairConfig,
        checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
    ) -> Result<IFair, FitError> {
        config.validate()?;
        require_mini_batch(config)?;
        let (m, n) = x.shape();
        if m == 0 || n == 0 {
            return Err(shape_error("empty training matrix"));
        }
        check_protected(protected, n)?;
        if x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(shape_error("training matrix contains non-finite values"));
        }
        let mut source = x;
        fit_mini_batch(
            &mut source,
            protected,
            config,
            |_| FitControl::Continue,
            |_| FitControl::Continue,
            None,
            checkpoint_sink,
        )
    }

    /// [`IFair::fit_checkpointed`] over a streaming [`RecordSource`].
    pub fn fit_source_checkpointed(
        source: &mut dyn RecordSource,
        protected: &[bool],
        config: &IFairConfig,
        checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
    ) -> Result<IFair, FitError> {
        config.validate()?;
        require_mini_batch(config)?;
        let (m, n) = (source.n_records(), source.n_features());
        if m == 0 || n == 0 {
            return Err(shape_error("empty record source"));
        }
        check_protected(protected, n)?;
        fit_mini_batch(
            source,
            protected,
            config,
            |_| FitControl::Continue,
            |_| FitControl::Continue,
            None,
            checkpoint_sink,
        )
    }

    /// Continues an interrupted mini-batch fit from `checkpoint`, producing a
    /// model **bit-identical** to the uninterrupted run at every thread
    /// count. The checkpoint carries its own config and protected mask; `x`
    /// must be the same training matrix the checkpoint was taken against
    /// (shape is validated, and the sampler schedule depends on the record
    /// count). `checkpoint_sink` keeps firing at the remaining epoch
    /// boundaries, so a resumed fit survives further crashes; pass
    /// `|_| Ok(())` to resume without checkpointing.
    pub fn resume_from_checkpoint(
        x: &Matrix,
        checkpoint: &FitCheckpoint,
        checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
    ) -> Result<IFair, FitError> {
        let (m, n) = x.shape();
        if m == 0 || n == 0 {
            return Err(shape_error("empty training matrix"));
        }
        check_protected(&checkpoint.protected, n)?;
        if x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(shape_error("training matrix contains non-finite values"));
        }
        let mut source = x;
        fit_mini_batch(
            &mut source,
            &checkpoint.protected,
            &checkpoint.config,
            |_| FitControl::Continue,
            |_| FitControl::Continue,
            Some(checkpoint),
            checkpoint_sink,
        )
    }

    /// [`IFair::resume_from_checkpoint`] over a streaming [`RecordSource`].
    pub fn resume_source_from_checkpoint(
        source: &mut dyn RecordSource,
        checkpoint: &FitCheckpoint,
        checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
    ) -> Result<IFair, FitError> {
        let (m, n) = (source.n_records(), source.n_features());
        if m == 0 || n == 0 {
            return Err(shape_error("empty record source"));
        }
        check_protected(&checkpoint.protected, n)?;
        fit_mini_batch(
            source,
            &checkpoint.protected,
            &checkpoint.config,
            |_| FitControl::Continue,
            |_| FitControl::Continue,
            Some(checkpoint),
            checkpoint_sink,
        )
    }
}

/// Rejects checkpointed-fit entry points on the full-batch path: L-BFGS
/// carries optimizer-internal state (curvature history, line-search
/// bracketing) that has no stable serialized form, so only the mini-batch
/// loop is checkpointable.
fn require_mini_batch(config: &IFairConfig) -> Result<(), FitError> {
    match config.strategy {
        FitStrategy::MiniBatch { .. } => Ok(()),
        FitStrategy::FullBatch => Err(FitError::Config(ifair_api::ConfigError {
            field: "strategy",
            message: "checkpointed fitting requires FitStrategy::MiniBatch (the full-batch \
                      L-BFGS path keeps unserializable optimizer state — use fit() there)"
                .into(),
        })),
    }
}

/// Shared protected-mask validation of every fit entry point.
fn check_protected(protected: &[bool], n: usize) -> Result<(), FitError> {
    if protected.len() != n {
        return Err(shape_error(format!(
            "protected has length {} but X has {n} columns",
            protected.len()
        )));
    }
    if protected.iter().all(|&p| p) {
        return Err(shape_error(
            "all attributes are protected; the fairness target distance would be empty",
        ));
    }
    Ok(())
}

/// The deterministic full-batch path: box-constrained L-BFGS over the whole
/// matrix, best of `config.n_restarts` restarts — bit-identical to the
/// historical [`IFair::fit`] behavior.
fn fit_full_batch(
    x: &Matrix,
    protected: &[bool],
    config: &IFairConfig,
    mut observer: impl FnMut(RestartEvent<'_>) -> FitControl,
) -> Result<IFair, FitError> {
    let n = x.cols();
    // One objective for all restarts: the pair set, worker pool, and
    // evaluation workspace are built once and reused by every restart.
    let objective = IFairObjective::new(x, protected, config);
    {
        let optimizer = Lbfgs::new(LbfgsConfig {
            max_iters: config.max_iters,
            grad_tol: config.grad_tol,
            bounds: bounds_for(n, config.k, protected, config),
            ..Default::default()
        });

        let mut best: Option<(Vec<f64>, usize)> = None;
        let mut restarts = Vec::with_capacity(config.n_restarts);
        for r in 0..config.n_restarts {
            let seed = config.seed.wrapping_add(r as u64);
            let theta0 = initial_theta(n, config.k, protected, config, seed);
            let result = optimizer.minimize(&objective, theta0);
            restarts.push(RestartReport {
                seed,
                loss: result.value,
                iterations: result.iterations,
                n_evals: result.n_evals,
                converged: result.converged,
                termination: result.termination,
            });
            let better = match &best {
                None => true,
                Some((_, idx)) => result.value < restarts[*idx].loss,
            };
            if better {
                best = Some((result.x, r));
            }
            let best_idx = best.as_ref().expect("just set").1;
            let control = observer(RestartEvent {
                restart: r,
                n_restarts: config.n_restarts,
                report: &restarts[r],
                best_loss: restarts[best_idx].loss,
            });
            if control == FitControl::Stop {
                break;
            }
        }
        let (theta, best_restart) = best.expect("n_restarts >= 1 guaranteed by validate()");
        let n_pairs = objective.pairs().len();
        // Surface a clamped Subsampled budget: the build silently caps the
        // draw at the M(M-1)/2 distinct pairs.
        let n_pairs_requested = match config.fairness_pairs {
            FairnessPairs::Subsampled { n_pairs } => Some(n_pairs),
            _ => None,
        };

        let (alpha, v_flat) = theta.split_at(n);
        let prototypes = Matrix::from_vec(config.k, n, v_flat.to_vec())
            .expect("theta layout is K*N by construction");
        Ok(IFair {
            prototypes,
            alpha: alpha.to_vec(),
            protected: protected.to_vec(),
            config: config.clone(),
            report: TrainingReport {
                restarts,
                best_restart,
                n_pairs,
                n_pairs_requested,
            },
        })
    }
}

/// The stochastic mini-batch path: seeded Adam steps over resampled batches
/// and per-batch fairness pairs drawn from a [`RecordSource`], epochs as the
/// outer unit of progress, best of `config.n_restarts` restarts by final
/// mean batch loss. Per-step cost depends on the batch shape only, so `M`
/// bounds nothing but the epoch length.
fn fit_mini_batch(
    source: &mut dyn RecordSource,
    protected: &[bool],
    config: &IFairConfig,
    mut restart_observer: impl FnMut(RestartEvent<'_>) -> FitControl,
    mut epoch_observer: impl FnMut(EpochEvent) -> FitControl,
    resume: Option<&FitCheckpoint>,
    mut checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
) -> Result<IFair, FitError> {
    let Some((_, pairs_per_batch, epochs, learning_rate)) = config.strategy.schedule() else {
        unreachable!("fit_mini_batch requires a batched strategy");
    };
    let (m, n) = (source.n_records(), source.n_features());
    // One objective for all restarts: the batch buffers, worker pool, and
    // evaluation workspace are built once and reused by every step.
    let mut objective = MiniBatchObjective::new(m, protected, config);
    let dim = objective.dim();
    // The objective owns the batch-size clamp; derive the epoch length from
    // it so the two can never disagree.
    let steps_per_epoch = m.div_ceil(objective.batch_records());
    let adam = AdamConfig {
        learning_rate,
        bounds: bounds_for(n, config.k, protected, config),
        ..Default::default()
    };

    let mut best: Option<(Vec<f64>, usize)> = None;
    let mut restarts: Vec<RestartReport> = Vec::with_capacity(config.n_restarts);
    let mut grad = vec![0.0; dim];
    let mut stop_all = false;
    // A checkpoint parks the training loop mid-restart; `pending` carries the
    // restored (theta, Adam, RNG, epoch cursor, step count, last mean) into
    // the first resumed restart, after which the loop proceeds as if never
    // interrupted.
    let mut start_restart = 0usize;
    let mut pending: Option<(Vec<f64>, AdamState, StdRng, usize, usize, f64)> = None;
    if let Some(cp) = resume {
        cp.validate(m, n)?;
        restarts = cp.restarts.clone();
        if let (Some(theta), Some(idx)) = (&cp.best_theta, cp.best_restart) {
            best = Some((theta.clone(), idx));
        }
        objective.restore_sampler_state(&cp.sampler)?;
        let words = [
            cp.rng_state[0],
            cp.rng_state[1],
            cp.rng_state[2],
            cp.rng_state[3],
        ];
        start_restart = cp.restart;
        pending = Some((
            cp.theta.clone(),
            cp.adam.clone(),
            StdRng::from_state(words),
            cp.epoch,
            cp.steps_done,
            cp.last_epoch_mean,
        ));
    }
    for r in start_restart..config.n_restarts {
        let seed = config.seed.wrapping_add(r as u64);
        let (mut theta, mut adam_state, mut rng, start_epoch, mut steps_done, mut last_epoch_mean) =
            match pending.take() {
                Some(restored) => restored,
                None => {
                    let mut theta = initial_theta(n, config.k, protected, config, seed);
                    project_bounds(&mut theta, adam.bounds.as_deref());
                    // The batch sampler gets its own stream (salted so it
                    // never aliases the init draws); the whole schedule is a
                    // pure function of the seed.
                    let rng = StdRng::seed_from_u64(seed ^ 0xba7c_4e5a_11d0_57e1);
                    (theta, AdamState::new(dim), rng, 0, 0, f64::INFINITY)
                }
            };
        for e in start_epoch..epochs {
            let mut epoch_loss = 0.0;
            for _ in 0..steps_per_epoch {
                objective.resample(source, &mut rng)?;
                epoch_loss += objective.value_and_gradient(&theta, &mut grad);
                adam_state.step(&mut theta, &grad, &adam);
                steps_done += 1;
            }
            last_epoch_mean = epoch_loss / steps_per_epoch as f64;
            checkpoint_sink(&FitCheckpoint {
                config: config.clone(),
                protected: protected.to_vec(),
                n_records: m,
                restart: r,
                epoch: e + 1,
                steps_done,
                theta: theta.clone(),
                adam: adam_state.clone(),
                rng_state: rng.state().to_vec(),
                sampler: objective.sampler_state(),
                last_epoch_mean,
                restarts: restarts.clone(),
                best_theta: best.as_ref().map(|(t, _)| t.clone()),
                best_restart: best.as_ref().map(|&(_, i)| i),
            })?;
            let control = epoch_observer(EpochEvent {
                restart: r,
                epoch: e,
                n_epochs: epochs,
                steps: steps_per_epoch,
                mean_batch_loss: last_epoch_mean,
            });
            if control == FitControl::Stop {
                stop_all = true;
                break;
            }
        }
        restarts.push(RestartReport {
            seed,
            loss: last_epoch_mean,
            iterations: steps_done,
            n_evals: steps_done,
            converged: false,
            termination: Termination::MaxIterations,
        });
        let better = match &best {
            None => true,
            Some((_, idx)) => last_epoch_mean < restarts[*idx].loss,
        };
        if better {
            best = Some((theta, r));
        }
        let best_idx = best.as_ref().expect("just set").1;
        let control = restart_observer(RestartEvent {
            restart: r,
            n_restarts: config.n_restarts,
            report: &restarts[r],
            best_loss: restarts[best_idx].loss,
        });
        if stop_all || control == FitControl::Stop {
            break;
        }
    }
    let (theta, best_restart) = best.expect("n_restarts >= 1 guaranteed by validate()");
    let (alpha, v_flat) = theta.split_at(n);
    let prototypes = Matrix::from_vec(config.k, n, v_flat.to_vec())
        .expect("theta layout is K*N by construction");
    let realized = objective.realized_pairs_per_batch();
    let requested = pairs_per_batch;
    Ok(IFair {
        prototypes,
        alpha: alpha.to_vec(),
        protected: protected.to_vec(),
        config: config.clone(),
        report: TrainingReport {
            restarts,
            best_restart,
            n_pairs: realized,
            n_pairs_requested: Some(requested),
        },
    })
}

/// Clamps every coordinate into its box (the Adam path's projection; the
/// L-BFGS path projects internally).
fn project_bounds(x: &mut [f64], bounds: Option<&[(f64, f64)]>) {
    if let Some(bounds) = bounds {
        for (xi, &(lo, hi)) in x.iter_mut().zip(bounds) {
            *xi = xi.clamp(lo, hi);
        }
    }
}

impl IFair {
    /// Applies the learned probabilistic mapping to `x` (`? x N`), returning
    /// the fair representation `X̃ = U · V`.
    ///
    /// # Panics
    /// Panics if `x.cols()` differs from the training width.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        self.transform_with_probabilities(x).0
    }

    /// [`IFair::transform`] with the row loop fanned out over `pool` — the
    /// inference-serving hot path. Rows are carved into **fixed** chunks (a
    /// function of the row count only, like the training kernels) and each
    /// chunk's `U·V` product is computed independently into its disjoint
    /// slice of the output, so the result is **bit-identical** to
    /// [`IFair::transform`] for every pool size, including `pool == None`.
    ///
    /// # Panics
    /// Panics if `x.cols()` differs from the training width.
    pub fn transform_on(&self, x: &Matrix, pool: Option<&par::WorkerPool>) -> Matrix {
        assert_eq!(
            x.cols(),
            self.n_features(),
            "record width differs from the training data"
        );
        let (m, n) = (x.rows(), self.n_features());
        let mut out = Matrix::zeros(m, n);
        if m == 0 {
            return out;
        }
        let n_chunks = m.div_ceil(TRANSFORM_CHUNK_ROWS).min(TRANSFORM_MAX_CHUNKS);
        let ranges = par::chunk_ranges(m, n_chunks);
        // Pair each row range with its disjoint slice of the output buffer.
        let mut rest = out.as_mut_slice();
        let mut jobs = Vec::with_capacity(ranges.len());
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len() * n);
            rest = tail;
            jobs.push((r, chunk));
        }
        par::pool_map(pool, jobs, |(r, chunk)| {
            let mut u = Matrix::zeros(r.len(), self.config.k);
            self.responsibilities_rows_into(x, r, &mut u);
            chunk.copy_from_slice(u.matmul(&self.prototypes).as_slice());
        });
        out
    }

    /// Like [`IFair::transform`] but also returns the `? x K` responsibility
    /// matrix `U` (each row a probability distribution over prototypes).
    pub fn transform_with_probabilities(&self, x: &Matrix) -> (Matrix, Matrix) {
        assert_eq!(
            x.cols(),
            self.n_features(),
            "record width differs from the training data"
        );
        let u = self.responsibilities(x);
        let xt = u.matmul(&self.prototypes);
        (xt, u)
    }

    /// The `? x K` responsibility matrix `U` for `x` (Definition 8).
    pub fn responsibilities(&self, x: &Matrix) -> Matrix {
        let mut u = Matrix::zeros(x.rows(), self.config.k);
        self.responsibilities_rows_into(x, 0..x.rows(), &mut u);
        u
    }

    /// Fills `u` (`rows.len() x K`) with the responsibilities of the `rows`
    /// range of `x` — the per-row kernel shared by [`IFair::responsibilities`]
    /// and the chunked [`IFair::transform_on`] path.
    ///
    /// The softmax distance is chosen once per call, outside the row loop,
    /// as in `LossKernel::forward_chunk` (which says why).
    fn responsibilities_rows_into(&self, x: &Matrix, rows: std::ops::Range<usize>, u: &mut Matrix) {
        let (alpha, p) = (self.alpha.as_slice(), self.config.p);
        let power_sum = |xi: &[f64], vk: &[f64]| distance::weighted_power_sum(xi, vk, alpha, p);
        match self.config.softmax_distance {
            SoftmaxDistance::PowerSum => self.responsibilities_with(x, rows, u, power_sum),
            SoftmaxDistance::Rooted => {
                let inv_p = 1.0 / p;
                self.responsibilities_with(x, rows, u, |xi, vk| power_sum(xi, vk).powf(inv_p))
            }
        }
    }

    /// The row loop of [`IFair::responsibilities_rows_into`], with the
    /// softmax distance `dist(x_i, v_k)` fixed for the call.
    #[inline(always)]
    fn responsibilities_with(
        &self,
        x: &Matrix,
        rows: std::ops::Range<usize>,
        u: &mut Matrix,
        dist: impl Fn(&[f64], &[f64]) -> f64,
    ) {
        let k = self.config.k;
        // One distance buffer reused across records (every entry is
        // overwritten per record), not one allocation per record.
        let mut d = vec![0.0; k];
        for (out_i, i) in rows.enumerate() {
            let xi = x.row(i);
            for (kk, dk) in d.iter_mut().enumerate() {
                *dk = dist(xi, self.prototypes.row(kk));
            }
            let d_min = d.iter().cloned().fold(f64::INFINITY, f64::min);
            let mut z = 0.0;
            let row = u.row_mut(out_i);
            for (uu, &dk) in row.iter_mut().zip(&d) {
                *uu = (d_min - dk).exp();
                z += *uu;
            }
            for uu in row.iter_mut() {
                *uu /= z;
            }
        }
    }

    /// Mean squared reconstruction error `‖X − X̃‖² / M` on `x` — the
    /// per-record utility loss of Definition 4.
    pub fn reconstruction_error(&self, x: &Matrix) -> f64 {
        let xt = self.transform(x);
        let diff = x.sub(&xt).expect("transform preserves shape");
        let sq = diff.frobenius_norm();
        sq * sq / x.rows() as f64
    }

    /// The learned `K x N` prototype matrix `V`.
    pub fn prototypes(&self) -> &Matrix {
        &self.prototypes
    }

    /// The learned attribute weight vector `α` (length `N`).
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// The per-column protected flags the model was trained with.
    pub fn protected(&self) -> &[bool] {
        &self.protected
    }

    /// The hyper-parameters the model was trained with.
    pub fn config(&self) -> &IFairConfig {
        &self.config
    }

    /// Training diagnostics (per-restart losses, winner, pair count).
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// Number of input features `N`.
    pub fn n_features(&self) -> usize {
        self.prototypes.cols()
    }

    /// Number of prototypes `K`.
    pub fn n_prototypes(&self) -> usize {
        self.prototypes.rows()
    }

    /// Serializes the model to a schema-versioned JSON string (see
    /// [`ifair_api::persist`]): the payload is wrapped in an envelope
    /// carrying `schema_version` and a kind tag, so future format changes
    /// fail loudly at load time.
    pub fn to_json(&self) -> Result<String, FitError> {
        ifair_api::to_versioned_json(MODEL_KIND, self)
    }

    /// Restores a model from [`IFair::to_json`] output, rejecting artifacts
    /// with an unknown schema version or kind.
    pub fn from_json(json: &str) -> Result<IFair, FitError> {
        ifair_api::from_versioned_json(MODEL_KIND, json)
    }

    /// Assembles a model from explicit parameters, bypassing training —
    /// the certification battery uses this to construct degenerate
    /// geometries (duplicate prototypes, zero-weight dimensions) no
    /// optimizer run would produce. Shapes and config are validated; the
    /// training report records a single synthetic zero-iteration restart.
    pub fn from_parts(
        prototypes: Matrix,
        alpha: Vec<f64>,
        protected: Vec<bool>,
        config: IFairConfig,
    ) -> Result<IFair, FitError> {
        config.validate()?;
        let (k, n) = prototypes.shape();
        if k == 0 || n == 0 {
            return Err(shape_error("prototypes must be a non-empty K x N matrix"));
        }
        if alpha.len() != n {
            return Err(shape_error(format!(
                "alpha has length {} but prototypes have {n} columns",
                alpha.len()
            )));
        }
        check_protected(&protected, n)?;
        if prototypes.as_slice().iter().any(|v| !v.is_finite())
            || alpha.iter().any(|v| !v.is_finite())
        {
            return Err(shape_error("prototypes and alpha must be finite"));
        }
        let report = TrainingReport {
            restarts: vec![RestartReport {
                seed: config.seed,
                loss: 0.0,
                iterations: 0,
                n_evals: 0,
                converged: false,
                termination: Termination::MaxIterations,
            }],
            best_restart: 0,
            n_pairs: 0,
            n_pairs_requested: None,
        };
        Ok(IFair {
            prototypes,
            alpha,
            protected,
            config,
            report,
        })
    }

    /// Creates a fluent builder over [`IFairConfig::default`] — the
    /// ergonomic front door of the estimator API:
    ///
    /// ```no_run
    /// # use ifair_core::IFair;
    /// # let ds: ifair_data::Dataset = unimplemented!();
    /// let model = IFair::builder()
    ///     .n_prototypes(10)
    ///     .seed(7)
    ///     .on_restart(|e| {
    ///         eprintln!("restart {} loss {:.4}", e.restart, e.report.loss);
    ///         ifair_core::FitControl::Continue
    ///     })
    ///     .fit(&ds)?;
    /// # Ok::<(), ifair_api::FitError>(())
    /// ```
    pub fn builder() -> crate::estimator::IFairBuilder {
        crate::estimator::IFairBuilder::new()
    }

    /// Lowers the trained model to the single-precision serving
    /// representation ([`crate::IFairF32`]): prototypes and weights cast to
    /// `f32`, negative weights clamped at conversion (the distance kernel
    /// clamps anyway; doing it here keeps the stored artifact canonical).
    /// Training always stays `f64` — this is a serving-side cast, governed
    /// by the precision contract in `docs/ARCHITECTURE.md`.
    pub fn to_f32(&self) -> crate::IFairF32 {
        crate::IFairF32::from_model(self)
    }
}

/// Initial parameter vector: `α` per the init strategy, prototypes uniform in
/// `(0, 1)` (§V-B: "initialize model parameters (vk vectors and the α vector)
/// to random values from uniform distribution in (0,1)").
fn initial_theta(
    n: usize,
    k: usize,
    protected: &[bool],
    config: &IFairConfig,
    seed: u64,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut theta = Vec::with_capacity(n * (k + 1));
    for &is_protected in protected.iter().take(n) {
        let w = match config.init {
            InitStrategy::RandomUniform => rng.gen_range(0.0..1.0),
            InitStrategy::NearZeroProtected => {
                if is_protected {
                    NEAR_ZERO_ALPHA
                } else {
                    rng.gen_range(0.0..1.0)
                }
            }
        };
        theta.push(w);
    }
    for _ in 0..n * k {
        theta.push(rng.gen_range(0.0..1.0));
    }
    theta
}

/// Box constraints for the optimizer: `α` within `config.alpha_bounds`
/// (pinned to `[0, NEAR_ZERO_ALPHA]` for protected columns when
/// `freeze_protected_alpha` is set), prototypes unconstrained.
fn bounds_for(
    n: usize,
    k: usize,
    protected: &[bool],
    config: &IFairConfig,
) -> Option<Vec<(f64, f64)>> {
    if config.alpha_bounds.is_none() && !config.freeze_protected_alpha {
        return None;
    }
    let (lo, hi) = config.alpha_bounds.unwrap_or((0.0, 1.0));
    let mut bounds = Vec::with_capacity(n * (k + 1));
    for &is_protected in protected.iter().take(n) {
        if config.freeze_protected_alpha && is_protected {
            bounds.push((0.0, NEAR_ZERO_ALPHA));
        } else {
            bounds.push((lo, hi));
        }
    }
    bounds.extend(std::iter::repeat_n(
        (f64::NEG_INFINITY, f64::INFINITY),
        n * k,
    ));
    Some(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FairnessPairs;
    use crate::objective::IFairObjective;
    use ifair_optim::Objective;

    /// Two well-separated clusters, protected bit uncorrelated with them.
    fn cluster_data() -> (Matrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20 {
            let (cx, cy) = if i % 2 == 0 { (0.2, 0.2) } else { (0.8, 0.8) };
            rows.push(vec![
                cx + rng.gen_range(-0.05..0.05),
                cy + rng.gen_range(-0.05..0.05),
                if rng.gen_bool(0.5) { 1.0 } else { 0.0 },
            ]);
        }
        (Matrix::from_rows(rows).unwrap(), vec![false, false, true])
    }

    fn quick_config() -> IFairConfig {
        IFairConfig {
            k: 4,
            max_iters: 60,
            n_restarts: 2,
            ..Default::default()
        }
    }

    #[test]
    fn fit_produces_expected_shapes() {
        let (x, protected) = cluster_data();
        let model = IFair::fit(&x, &protected, &quick_config()).unwrap();
        assert_eq!(model.prototypes().shape(), (4, 3));
        assert_eq!(model.alpha().len(), 3);
        assert_eq!(model.transform(&x).shape(), (20, 3));
        assert_eq!(model.n_features(), 3);
        assert_eq!(model.n_prototypes(), 4);
    }

    #[test]
    fn training_reduces_the_objective() {
        let (x, protected) = cluster_data();
        let config = quick_config();
        let model = IFair::fit(&x, &protected, &config).unwrap();
        // Recompute the loss of the winning parameters and compare against a
        // freshly initialized iterate.
        let objective = IFairObjective::new(&x, &protected, &config);
        let theta0 = initial_theta(3, config.k, &protected, &config, config.seed);
        let mut theta = model.alpha().to_vec();
        theta.extend_from_slice(model.prototypes().as_slice());
        assert!(objective.value(&theta) < objective.value(&theta0));
        assert!((objective.value(&theta) - model.report().best().loss).abs() < 1e-9);
    }

    #[test]
    fn responsibilities_are_probabilities() {
        let (x, protected) = cluster_data();
        let model = IFair::fit(&x, &protected, &quick_config()).unwrap();
        let (_, u) = model.transform_with_probabilities(&x);
        assert_eq!(u.shape(), (20, 4));
        for i in 0..u.rows() {
            let s: f64 = u.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
            assert!(u.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, protected) = cluster_data();
        let a = IFair::fit(&x, &protected, &quick_config()).unwrap();
        let b = IFair::fit(&x, &protected, &quick_config()).unwrap();
        assert_eq!(a.prototypes(), b.prototypes());
        assert_eq!(a.alpha(), b.alpha());
    }

    #[test]
    fn transform_on_is_bit_identical_to_transform_for_every_pool_size() {
        let (x, protected) = cluster_data();
        let model = IFair::fit(&x, &protected, &quick_config()).unwrap();
        // Stress the chunk layout: more rows than one 64-row chunk.
        let mut rows = Vec::new();
        for rep in 0..40 {
            for i in 0..x.rows() {
                let mut r = x.row(i).to_vec();
                r[0] += rep as f64 * 1e-3;
                rows.push(r);
            }
        }
        let big = Matrix::from_rows(rows).unwrap();
        let reference = model.transform(&big);
        assert_eq!(model.transform_on(&big, None), reference);
        for lanes in [1usize, 2, 4] {
            let pool = par::WorkerPool::new(lanes);
            let pooled = model.transform_on(&big, Some(&pool));
            let ref_bits: Vec<u64> = reference.as_slice().iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u64> = pooled.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, ref_bits, "lanes={lanes}");
        }
        // Empty input round-trips to an empty output of the right width.
        let empty = Matrix::zeros(0, model.n_features());
        assert_eq!(model.transform_on(&empty, None).shape(), (0, 3));
    }

    #[test]
    fn best_restart_has_minimal_loss() {
        let (x, protected) = cluster_data();
        let config = IFairConfig {
            n_restarts: 3,
            ..quick_config()
        };
        let model = IFair::fit(&x, &protected, &config).unwrap();
        let report = model.report();
        assert_eq!(report.restarts.len(), 3);
        let min = report
            .restarts
            .iter()
            .map(|r| r.loss)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(report.best().loss, min);
    }

    #[test]
    fn protected_attribute_has_near_zero_influence_when_frozen() {
        let (x, protected) = cluster_data();
        let config = IFairConfig {
            freeze_protected_alpha: true,
            ..quick_config()
        };
        let model = IFair::fit(&x, &protected, &config).unwrap();
        // Flip the protected bit of a record: the transported representation
        // must barely move (the paper's §IV "influence of protected group").
        let mut flipped = x.clone();
        for i in 0..flipped.rows() {
            let v = flipped.get(i, 2);
            flipped.set(i, 2, 1.0 - v);
        }
        let a = model.transform(&x);
        let b = model.transform(&flipped);
        let drift = a.sub(&b).unwrap().max_abs();
        assert!(drift < 1e-3, "flip moved representations by {drift}");
        // And the learned weight really is pinned.
        assert!(model.alpha()[2] <= NEAR_ZERO_ALPHA + 1e-12);
    }

    #[test]
    fn transform_accepts_unseen_records() {
        let (x, protected) = cluster_data();
        let model = IFair::fit(&x, &protected, &quick_config()).unwrap();
        let unseen = Matrix::from_rows(vec![vec![0.3, 0.1, 1.0], vec![0.7, 0.9, 0.0]]).unwrap();
        let t = model.transform(&unseen);
        assert_eq!(t.shape(), (2, 3));
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "record width")]
    fn transform_panics_on_width_mismatch() {
        let (x, protected) = cluster_data();
        let model = IFair::fit(&x, &protected, &quick_config()).unwrap();
        let bad = Matrix::zeros(1, 2);
        model.transform(&bad);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let (x, protected) = cluster_data();
        let bad_config = IFairConfig {
            k: 0,
            ..quick_config()
        };
        assert!(matches!(
            IFair::fit(&x, &protected, &bad_config),
            Err(FitError::Config(_))
        ));
        assert!(matches!(
            IFair::fit(&x, &[false, true], &quick_config()),
            Err(FitError::Data(_))
        ));
        assert!(matches!(
            IFair::fit(&x, &[true, true, true], &quick_config()),
            Err(FitError::Data(_))
        ));
        let mut nan = x.clone();
        nan.set(0, 0, f64::NAN);
        assert!(matches!(
            IFair::fit(&nan, &protected, &quick_config()),
            Err(FitError::Data(_))
        ));
    }

    #[test]
    fn observer_sees_every_restart_and_can_stop_early() {
        let (x, protected) = cluster_data();
        let config = IFairConfig {
            n_restarts: 3,
            ..quick_config()
        };
        // Passive observer: sees all restarts, best_loss is monotone.
        let mut seen = Vec::new();
        let model = IFair::fit_with_observer(&x, &protected, &config, |e| {
            seen.push((e.restart, e.report.loss, e.best_loss));
            FitControl::Continue
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        for window in seen.windows(2) {
            assert!(window[1].2 <= window[0].2, "best loss must not increase");
        }
        assert_eq!(model.report().restarts.len(), 3);

        // Early stop after the first restart: only one restart is recorded,
        // and the result matches a single-restart fit bit-for-bit.
        let stopped =
            IFair::fit_with_observer(&x, &protected, &config, |_| FitControl::Stop).unwrap();
        assert_eq!(stopped.report().restarts.len(), 1);
        let single = IFair::fit(
            &x,
            &protected,
            &IFairConfig {
                n_restarts: 1,
                ..config
            },
        )
        .unwrap();
        assert_eq!(stopped.prototypes(), single.prototypes());
        assert_eq!(stopped.alpha(), single.alpha());
    }

    #[test]
    fn serde_roundtrip_preserves_transform() {
        let (x, protected) = cluster_data();
        let model = IFair::fit(&x, &protected, &quick_config()).unwrap();
        let json = model.to_json().unwrap();
        let back = IFair::from_json(&json).unwrap();
        assert_eq!(model.transform(&x), back.transform(&x));
        assert!(IFair::from_json("{not json").is_err());
    }

    #[test]
    fn reconstruction_error_decreases_with_more_prototypes() {
        let (x, protected) = cluster_data();
        let small = IFair::fit(
            &x,
            &protected,
            &IFairConfig {
                k: 1,
                mu: 0.0,
                ..quick_config()
            },
        )
        .unwrap();
        let large = IFair::fit(
            &x,
            &protected,
            &IFairConfig {
                k: 8,
                mu: 0.0,
                ..quick_config()
            },
        )
        .unwrap();
        assert!(large.reconstruction_error(&x) <= small.reconstruction_error(&x) + 1e-9);
    }

    #[test]
    fn subsampled_pairs_still_train() {
        let (x, protected) = cluster_data();
        let config = IFairConfig {
            fairness_pairs: FairnessPairs::Subsampled { n_pairs: 30 },
            ..quick_config()
        };
        let model = IFair::fit(&x, &protected, &config).unwrap();
        assert_eq!(model.report().n_pairs, 30);
    }
}
