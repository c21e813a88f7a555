//! Composable fit/transform/predict pipelines.
//!
//! Every experiment in the paper is the same chain — *scale → learn a
//! representation → train a downstream model* — so the facade offers it as a
//! first-class object: a [`Pipeline`] is an ordered list of **fitted**
//! stages that is itself a [`Transform`] and (when it ends in a model) a
//! [`Predict`], and persists as one schema-versioned JSON artifact.
//!
//! ```
//! use ifair::pipeline::Pipeline;
//! use ifair::core::IFairConfig;
//! use ifair::data::Dataset;
//! use ifair::linalg::Matrix;
//! use ifair::api::Predict;
//!
//! let ds = Dataset::new(
//!     Matrix::from_rows(vec![
//!         vec![0.9, 0.1, 1.0],
//!         vec![0.8, 0.2, 0.0],
//!         vec![0.2, 0.9, 1.0],
//!         vec![0.1, 0.8, 0.0],
//!     ]).unwrap(),
//!     vec!["a".into(), "b".into(), "gender".into()],
//!     vec![false, false, true],
//!     Some(vec![1.0, 1.0, 0.0, 0.0]),
//!     vec![1, 0, 1, 0],
//! ).unwrap();
//!
//! let pipeline = Pipeline::builder()
//!     .standard_scaler()
//!     .ifair(IFairConfig { k: 2, max_iters: 20, n_restarts: 1, ..Default::default() })
//!     .logistic_regression_default()
//!     .fit(&ds)
//!     .unwrap();
//! let proba = pipeline.predict_proba(&ds).unwrap();
//! assert_eq!(proba.len(), 4);
//!
//! // The whole chain round-trips through one versioned JSON artifact.
//! let json = pipeline.to_json().unwrap();
//! let restored = Pipeline::from_json(&json).unwrap();
//! assert_eq!(restored.predict_proba(&ds).unwrap(), proba);
//! ```

use ifair_api::scalers::{MinMaxScalerConfig, StandardScalerConfig};
use ifair_api::{ensure, CertifyError, FitError, Predict, Transform};
use ifair_baselines::{Lfr, LfrConfig, SvdConfig, SvdRepresentation};
use ifair_core::certify::{check_box_finite, eps_box, next_down_f64, next_up_f64};
use ifair_core::par::WorkerPool;
use ifair_core::{Certificate, Estimator, IFair, IFairConfig, Precision};
use ifair_data::{Dataset, MinMaxScaler, StandardScaler};
use ifair_linalg::Matrix;
use ifair_models::{LogisticRegression, LogisticRegressionConfig, RidgeConfig, RidgeRegression};
use serde::{Deserialize, Serialize};

/// Kind tag of the versioned JSON envelope written by [`Pipeline::to_json`].
const PIPELINE_KIND: &str = "pipeline";

/// An unfitted pipeline stage: one estimator configuration.
#[derive(Debug, Clone)]
pub enum StageSpec {
    /// Unit-variance scaling (§V-B).
    StandardScaler(StandardScalerConfig),
    /// `[0, 1]` min-max scaling.
    MinMaxScaler(MinMaxScalerConfig),
    /// The iFair representation.
    IFair(IFairConfig),
    /// The LFR baseline representation.
    Lfr(LfrConfig),
    /// Truncated-SVD representation.
    Svd(SvdConfig),
    /// Logistic-regression classifier (terminal stage).
    LogisticRegression(LogisticRegressionConfig),
    /// Ridge-regression scorer (terminal stage).
    Ridge(RidgeConfig),
}

impl StageSpec {
    /// Whether the stage produces predictions (and must therefore be last).
    pub fn is_predictor(&self) -> bool {
        matches!(self, StageSpec::LogisticRegression(_) | StageSpec::Ridge(_))
    }

    /// Stage label used in error messages and reports.
    pub fn label(&self) -> &'static str {
        match self {
            StageSpec::StandardScaler(_) => "standard-scaler",
            StageSpec::MinMaxScaler(_) => "minmax-scaler",
            StageSpec::IFair(_) => "ifair",
            StageSpec::Lfr(_) => "lfr",
            StageSpec::Svd(_) => "svd",
            StageSpec::LogisticRegression(_) => "logistic-regression",
            StageSpec::Ridge(_) => "ridge",
        }
    }

    fn fit(&self, ds: &Dataset) -> Result<FittedStage, FitError> {
        Ok(match self {
            StageSpec::StandardScaler(c) => FittedStage::StandardScaler(c.fit(ds)?),
            StageSpec::MinMaxScaler(c) => FittedStage::MinMaxScaler(c.fit(ds)?),
            StageSpec::IFair(c) => FittedStage::IFair(c.fit(ds)?),
            StageSpec::Lfr(c) => FittedStage::Lfr(c.fit(ds)?),
            StageSpec::Svd(c) => FittedStage::Svd(c.fit(ds)?),
            StageSpec::LogisticRegression(c) => FittedStage::LogisticRegression(c.fit(ds)?),
            StageSpec::Ridge(c) => FittedStage::Ridge(c.fit(ds)?),
        })
    }
}

/// A fitted pipeline stage. Serializable: the whole chain persists as one
/// artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FittedStage {
    /// Fitted unit-variance scaler.
    StandardScaler(StandardScaler),
    /// Fitted min-max scaler.
    MinMaxScaler(MinMaxScaler),
    /// Trained iFair model.
    IFair(IFair),
    /// Trained LFR model.
    Lfr(Lfr),
    /// Fitted SVD representation.
    Svd(SvdRepresentation),
    /// Trained logistic-regression classifier.
    LogisticRegression(LogisticRegression),
    /// Trained ridge-regression scorer.
    Ridge(RidgeRegression),
}

impl FittedStage {
    /// Whether the stage predicts (terminal) rather than transforms.
    pub fn is_predictor(&self) -> bool {
        matches!(
            self,
            FittedStage::LogisticRegression(_) | FittedStage::Ridge(_)
        )
    }

    /// The stage as a [`Transform`], when it is one.
    pub fn as_transform(&self) -> Option<&dyn Transform> {
        match self {
            FittedStage::StandardScaler(s) => Some(s),
            FittedStage::MinMaxScaler(s) => Some(s),
            FittedStage::IFair(m) => Some(m),
            FittedStage::Lfr(m) => Some(m),
            FittedStage::Svd(m) => Some(m),
            FittedStage::LogisticRegression(_) | FittedStage::Ridge(_) => None,
        }
    }

    /// The feature width the stage expects at its input, when the fitted
    /// parameters pin one down: scalers and regressors know their training
    /// width exactly; for a masked SVD stage the reported width is the
    /// post-masking width (what the stage consumes when no column is flagged
    /// protected — the serving case).
    pub fn n_input_features(&self) -> usize {
        match self {
            FittedStage::StandardScaler(s) => s.n_features(),
            FittedStage::MinMaxScaler(s) => s.n_features(),
            FittedStage::IFair(m) => m.n_features(),
            FittedStage::Lfr(m) => m.prototypes().cols(),
            FittedStage::Svd(m) => m.components().rows(),
            FittedStage::LogisticRegression(m) => m.weights.len(),
            FittedStage::Ridge(m) => m.weights.len(),
        }
    }

    /// The stage as a [`Predict`], when it is one. Consistent with
    /// [`FittedStage::is_predictor`]: an LFR stage acts as a transform here
    /// (its built-in classifier head remains available through `Lfr`'s own
    /// [`Predict`] impl outside pipelines).
    pub fn as_predict(&self) -> Option<&dyn Predict> {
        match self {
            FittedStage::LogisticRegression(m) => Some(m),
            FittedStage::Ridge(m) => Some(m),
            _ => None,
        }
    }
}

/// An ordered chain of fitted stages: zero or more transforms, optionally
/// terminated by a predictor. Built with [`Pipeline::builder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pipeline {
    stages: Vec<FittedStage>,
}

impl Pipeline {
    /// Starts an empty pipeline builder.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder { specs: Vec::new() }
    }

    /// Assembles a pipeline from already-fitted stages — for chains whose
    /// stages were trained on different record subsets (e.g. the bench
    /// harness fits the representation on a capped subset but the classifier
    /// on the full training split). Predictor stages must be last.
    pub fn from_stages(stages: Vec<FittedStage>) -> Result<Pipeline, FitError> {
        ensure(!stages.is_empty(), "stages", "pipeline has no stages")?;
        for (i, stage) in stages.iter().enumerate() {
            ensure(
                !stage.is_predictor() || i + 1 == stages.len(),
                "stages",
                format!(
                    "predictor stage must be last (position {} of {})",
                    i + 1,
                    stages.len()
                ),
            )?;
        }
        Ok(Pipeline { stages })
    }

    /// The fitted stages, in application order.
    pub fn stages(&self) -> &[FittedStage] {
        &self.stages
    }

    /// The feature width the first stage expects — what an inference server
    /// validates incoming rows against (see
    /// [`FittedStage::n_input_features`] for the masked-SVD caveat).
    pub fn n_input_features(&self) -> Option<usize> {
        self.stages.first().map(FittedStage::n_input_features)
    }

    /// Whether the chain ends in a predictor stage (i.e. whether
    /// [`Pipeline::predict`] can succeed).
    pub fn has_predictor(&self) -> bool {
        self.stages.last().is_some_and(FittedStage::is_predictor)
    }

    /// Applies every transform stage in order, returning the dataset carried
    /// between stages (the terminal predictor, if any, is not applied).
    pub fn transform_dataset(&self, ds: &Dataset) -> Result<Dataset, FitError> {
        transform_over(&self.stages, ds, None, Precision::F64)
    }

    /// [`Pipeline::transform_dataset`] with the iFair forward pass fanned
    /// out over `pool` (see [`IFair::transform_on`]). Bit-identical to the
    /// serial path for every pool size — the serving hot path.
    pub fn transform_dataset_on(
        &self,
        ds: &Dataset,
        pool: Option<&WorkerPool>,
    ) -> Result<Dataset, FitError> {
        transform_over(&self.stages, ds, pool, Precision::F64)
    }

    /// [`Pipeline::transform_dataset_on`] at an explicit serving precision.
    /// Under [`Precision::F32`] the iFair stage runs its single-precision
    /// forward pass ([`ifair_core::IFairF32`]) — tolerance-bounded against
    /// the `f64` result, still bit-identical across pool sizes; every other
    /// stage (scalers, SVD, predictors) stays `f64`. See "Kernel backends
    /// and precision contract" in `docs/ARCHITECTURE.md`.
    pub fn transform_dataset_on_prec(
        &self,
        ds: &Dataset,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<Dataset, FitError> {
        transform_over(&self.stages, ds, pool, precision)
    }

    /// The representation produced by the transform stages (one row per
    /// record of `ds`).
    pub fn transform(&self, ds: &Dataset) -> Result<Matrix, FitError> {
        Ok(self.transform_dataset(ds)?.x)
    }

    /// [`Pipeline::transform`] on a worker pool (see
    /// [`Pipeline::transform_dataset_on`]).
    pub fn transform_on(
        &self,
        ds: &Dataset,
        pool: Option<&WorkerPool>,
    ) -> Result<Matrix, FitError> {
        Ok(self.transform_dataset_on(ds, pool)?.x)
    }

    /// [`Pipeline::transform_on`] at an explicit serving precision (see
    /// [`Pipeline::transform_dataset_on_prec`]).
    pub fn transform_on_prec(
        &self,
        ds: &Dataset,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<Matrix, FitError> {
        Ok(self.transform_dataset_on_prec(ds, pool, precision)?.x)
    }

    /// Continuous scores of the terminal predictor applied to the
    /// transformed records.
    pub fn predict_proba(&self, ds: &Dataset) -> Result<Vec<f64>, FitError> {
        let (predictor, prefix) = self.split_predictor()?;
        predictor.predict_proba(&transform_over(prefix, ds, None, Precision::F64)?)
    }

    /// Hard decisions of the terminal predictor applied to the transformed
    /// records.
    pub fn predict(&self, ds: &Dataset) -> Result<Vec<f64>, FitError> {
        let (predictor, prefix) = self.split_predictor()?;
        predictor.predict(&transform_over(prefix, ds, None, Precision::F64)?)
    }

    /// Runs the transform prefix **once** on `pool` and returns both outputs
    /// of the terminal predictor: `(scores, decisions)` =
    /// (`predict_proba`, `predict`). Bit-identical to calling
    /// [`Pipeline::predict_proba`] and [`Pipeline::predict`] separately —
    /// what a serving endpoint wants without paying the prefix twice.
    pub fn predict_scored_on(
        &self,
        ds: &Dataset,
        pool: Option<&WorkerPool>,
    ) -> Result<(Vec<f64>, Vec<f64>), FitError> {
        self.predict_scored_on_prec(ds, pool, Precision::F64)
    }

    /// [`Pipeline::predict_scored_on`] at an explicit serving precision:
    /// the transform prefix runs per
    /// [`Pipeline::transform_dataset_on_prec`]; the terminal predictor
    /// always scores in `f64` over the carried features.
    pub fn predict_scored_on_prec(
        &self,
        ds: &Dataset,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<(Vec<f64>, Vec<f64>), FitError> {
        let (predictor, prefix) = self.split_predictor()?;
        let carried = transform_over(prefix, ds, pool, precision)?;
        Ok((
            predictor.predict_proba(&carried)?,
            predictor.predict(&carried)?,
        ))
    }

    /// Whether [`Pipeline::certify_rows`] can succeed on this chain: the
    /// last transform stage is an iFair representation reached only through
    /// scaler stages. A chain whose terminal stage is a bare predictor (or
    /// whose representation is LFR/SVD) has no certifiable representation
    /// space — serving layers check this up front to map the case to a
    /// typed 400 instead of dispatching a doomed batch.
    pub fn can_certify(&self) -> bool {
        self.certifiable_prefix().is_ok()
    }

    /// Certifies every row of `x` (raw input space): a sound bound δ such
    /// that **every** input within the box `[row − ε, row + ε]` maps within
    /// δ of the row's own representation. The box is carried to the iFair
    /// stage by [`Pipeline::certify_box`], and the iFair stage runs the
    /// interval certification kernel of [`ifair_core::certify`]. Under
    /// [`Precision::F32`] the bound covers the single-precision serving
    /// transform instead. Certificates are bit-identical for every pool
    /// size.
    pub fn certify_rows(
        &self,
        x: &Matrix,
        eps: f64,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<Vec<Certificate>, CertifyError> {
        let (lo, hi) = self.certify_box(x, eps)?;
        let (_, model) = self.certifiable_prefix()?;
        let boxes = match precision {
            Precision::F32 => model.to_f32().certify_boxes(&lo, &hi, pool)?,
            Precision::F64 => model.certify_boxes(&lo, &hi, pool)?,
        };
        Ok(boxes
            .into_iter()
            .map(|b| Certificate {
                eps,
                delta: b.delta,
                method: b.method,
            })
            .collect())
    }

    /// The box [`Pipeline::certify_rows`] certifies: each row's
    /// `[row − ε, row + ε]` ([`ifair_core::certify::eps_box`]) threaded
    /// through the fitted scaler stages into the iFair stage's input space.
    /// The scalers are monotone per coordinate, so transforming the two
    /// endpoint matrices bounds the image of the whole box; endpoints are
    /// then widened outward two representable steps. Fails exactly when
    /// `certify_rows` would reject the request: an uncertifiable chain, a
    /// width mismatch, a malformed radius, non-finite rows, or a box with a
    /// non-finite endpoint after any stage.
    pub fn certify_box(&self, x: &Matrix, eps: f64) -> Result<(Matrix, Matrix), CertifyError> {
        let (scalers, _) = self.certifiable_prefix()?;
        if let Some(n) = self.n_input_features() {
            if x.cols() != n {
                return Err(CertifyError::Model(ifair_api::shape_error(format!(
                    "rows have {} features but the pipeline expects {n}",
                    x.cols()
                ))));
            }
        }
        let (mut lo, mut hi) = eps_box(x, eps)?;
        for stage in scalers {
            match stage {
                FittedStage::StandardScaler(s) => {
                    lo = s.transform(&lo);
                    hi = s.transform(&hi);
                }
                FittedStage::MinMaxScaler(s) => {
                    lo = s.transform(&lo);
                    hi = s.transform(&hi);
                }
                _ => unreachable!("certifiable_prefix admits only scaler stages"),
            }
            // The scalers are monotone per coordinate even in floating
            // point, so the transformed endpoints already bracket the image
            // of every interior point; two outward steps add margin for
            // free.
            for v in lo.as_mut_slice() {
                *v = next_down_f64(next_down_f64(*v));
            }
            for v in hi.as_mut_slice() {
                *v = next_up_f64(next_up_f64(*v));
            }
            check_box_finite(&lo, &hi)?;
        }
        Ok((lo, hi))
    }

    /// Splits the chain into (scaler prefix, terminal iFair representation)
    /// when the chain is certifiable, or explains why it is not.
    fn certifiable_prefix(&self) -> Result<(&[FittedStage], &IFair), CertifyError> {
        let transforms: &[FittedStage] = match self.stages.split_last() {
            Some((last, prefix)) if last.is_predictor() => prefix,
            _ => &self.stages,
        };
        match transforms.split_last() {
            None => Err(CertifyError::Unsupported(
                "the artifact's terminal stage is a bare predictor with no \
                 representation space to certify"
                    .into(),
            )),
            Some((FittedStage::IFair(m), prefix)) => {
                for stage in prefix {
                    match stage {
                        FittedStage::StandardScaler(_) | FittedStage::MinMaxScaler(_) => {}
                        other => {
                            return Err(CertifyError::Unsupported(format!(
                                "certification requires a scaler-only prefix before the \
                                 iFair stage, found `{}`",
                                stage_label(other)
                            )));
                        }
                    }
                }
                Ok((prefix, m))
            }
            Some((other, _)) => Err(CertifyError::Unsupported(format!(
                "certification requires an iFair representation as the last \
                 transform stage, found `{}`",
                stage_label(other)
            ))),
        }
    }

    fn split_predictor(&self) -> Result<(&dyn Predict, &[FittedStage]), FitError> {
        match self.stages.split_last() {
            Some((last, prefix)) if last.is_predictor() => Ok((
                last.as_predict().expect("is_predictor implies as_predict"),
                prefix,
            )),
            _ => Err(FitError::Config(ifair_api::ConfigError::new(
                "stages",
                "pipeline has no terminal predictor stage",
            ))),
        }
    }

    /// Serializes the whole chain into one schema-versioned JSON artifact.
    pub fn to_json(&self) -> Result<String, FitError> {
        ifair_api::to_versioned_json(PIPELINE_KIND, self)
    }

    /// Restores a pipeline persisted by [`Pipeline::to_json`], rejecting
    /// unknown schema versions and mismatched kinds.
    pub fn from_json(json: &str) -> Result<Pipeline, FitError> {
        ifair_api::from_versioned_json(PIPELINE_KIND, json)
    }
}

impl Transform for Pipeline {
    fn transform(&self, ds: &Dataset) -> Result<Matrix, FitError> {
        Pipeline::transform(self, ds)
    }
}

impl Predict for Pipeline {
    fn predict_proba(&self, ds: &Dataset) -> Result<Vec<f64>, FitError> {
        Pipeline::predict_proba(self, ds)
    }

    fn predict(&self, ds: &Dataset) -> Result<Vec<f64>, FitError> {
        Pipeline::predict(self, ds)
    }
}

/// Stage label of a fitted stage, mirroring [`StageSpec::label`].
fn stage_label(stage: &FittedStage) -> &'static str {
    match stage {
        FittedStage::StandardScaler(_) => "standard-scaler",
        FittedStage::MinMaxScaler(_) => "minmax-scaler",
        FittedStage::IFair(_) => "ifair",
        FittedStage::Lfr(_) => "lfr",
        FittedStage::Svd(_) => "svd",
        FittedStage::LogisticRegression(_) => "logistic-regression",
        FittedStage::Ridge(_) => "ridge",
    }
}

/// Chains the transform stages of `stages` over `ds` (predictors skipped).
/// When `pool` is given, the iFair stage — the only stage with a non-trivial
/// forward pass — rides it via [`IFair::transform_on`]; every stage's output
/// is bit-identical to the serial path. Under [`Precision::F32`] the iFair
/// stage is lowered per call (`K·N` casts — noise next to the transform
/// itself) and runs its `f32` forward pass; all other stages stay `f64`.
fn transform_over(
    stages: &[FittedStage],
    ds: &Dataset,
    pool: Option<&WorkerPool>,
    precision: Precision,
) -> Result<Dataset, FitError> {
    let mut current = ds.clone();
    for stage in stages {
        match stage {
            FittedStage::IFair(m) if precision == Precision::F32 => {
                ifair_api::check_width(&current, m.n_features(), "iFair model")?;
                let x = m.to_f32().transform_on(&current.x, pool);
                current = current.with_features(x).map_err(FitError::from)?;
            }
            FittedStage::IFair(m) if pool.is_some() => {
                ifair_api::check_width(&current, m.n_features(), "iFair model")?;
                let x = m.transform_on(&current.x, pool);
                current = current.with_features(x).map_err(FitError::from)?;
            }
            _ => {
                if let Some(t) = stage.as_transform() {
                    current = t.transform_dataset(&current)?;
                }
            }
        }
    }
    Ok(current)
}

/// Assembles stage specs, then fits them left to right: each stage trains on
/// the output of the previous stage's transform — exactly the hand-wired
/// experiment plumbing, folded into one object.
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    specs: Vec<StageSpec>,
}

impl PipelineBuilder {
    /// Appends an arbitrary stage spec.
    pub fn stage(mut self, spec: StageSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Appends a unit-variance scaler with default settings.
    pub fn standard_scaler(self) -> Self {
        self.stage(StageSpec::StandardScaler(StandardScalerConfig::default()))
    }

    /// Appends a min-max scaler.
    pub fn min_max_scaler(self) -> Self {
        self.stage(StageSpec::MinMaxScaler(MinMaxScalerConfig))
    }

    /// Appends an iFair representation stage.
    pub fn ifair(self, config: IFairConfig) -> Self {
        self.stage(StageSpec::IFair(config))
    }

    /// Appends an LFR representation stage.
    pub fn lfr(self, config: LfrConfig) -> Self {
        self.stage(StageSpec::Lfr(config))
    }

    /// Appends a truncated-SVD representation stage.
    pub fn svd(self, config: SvdConfig) -> Self {
        self.stage(StageSpec::Svd(config))
    }

    /// Appends a terminal logistic-regression classifier.
    pub fn logistic_regression(self, config: LogisticRegressionConfig) -> Self {
        self.stage(StageSpec::LogisticRegression(config))
    }

    /// Appends a terminal logistic-regression classifier with defaults.
    pub fn logistic_regression_default(self) -> Self {
        self.logistic_regression(LogisticRegressionConfig::default())
    }

    /// Appends a terminal ridge-regression scorer.
    pub fn ridge(self, config: RidgeConfig) -> Self {
        self.stage(StageSpec::Ridge(config))
    }

    /// The assembled specs.
    pub fn specs(&self) -> &[StageSpec] {
        &self.specs
    }

    /// Fits every stage in order on `ds`.
    pub fn fit(self, ds: &Dataset) -> Result<Pipeline, FitError> {
        ensure(!self.specs.is_empty(), "stages", "pipeline has no stages")?;
        for (i, spec) in self.specs.iter().enumerate() {
            ensure(
                !spec.is_predictor() || i + 1 == self.specs.len(),
                "stages",
                format!(
                    "predictor stage `{}` must be last (position {} of {})",
                    spec.label(),
                    i + 1,
                    self.specs.len()
                ),
            )?;
        }
        let mut current = ds.clone();
        let mut stages = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let fitted = spec.fit(&current)?;
            if let Some(t) = fitted.as_transform() {
                current = t.transform_dataset(&current)?;
            }
            stages.push(fitted);
        }
        Ok(Pipeline { stages })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        // Deterministic, linearly separable-ish data with a protected bit.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![t, 1.0 - t + 0.05 * ((i * 7 % 5) as f64), (i % 2) as f64]
            })
            .collect();
        Dataset::new(
            Matrix::from_rows(rows).unwrap(),
            vec!["a".into(), "b".into(), "gender".into()],
            vec![false, false, true],
            Some(
                (0..n)
                    .map(|i| f64::from(i as f64 / n as f64 > 0.5))
                    .collect(),
            ),
            (0..n).map(|i| (i % 2) as u8).collect(),
        )
        .unwrap()
    }

    fn quick_ifair() -> IFairConfig {
        IFairConfig {
            k: 3,
            max_iters: 25,
            n_restarts: 1,
            ..Default::default()
        }
    }

    #[test]
    fn minibatch_ifair_stage_composes_and_round_trips() {
        // The stochastic training path is just configuration as far as the
        // pipeline is concerned: a MiniBatch iFair stage fits, transforms,
        // persists, and reloads like any other stage.
        let ds = toy(64);
        let config = IFairConfig {
            k: 3,
            n_restarts: 1,
            strategy: ifair_core::FitStrategy::MiniBatch {
                batch_records: 16,
                pairs_per_batch: 64,
                epochs: 2,
                learning_rate: 0.05,
            },
            ..Default::default()
        };
        let pipeline = Pipeline::builder()
            .min_max_scaler()
            .ifair(config.clone())
            .fit(&ds)
            .unwrap();
        let repr = pipeline.transform(&ds).unwrap();
        assert_eq!(repr.shape(), (64, 3));
        assert!(repr.as_slice().iter().all(|v| v.is_finite()));

        // Same seed, same stage config -> bit-identical refit.
        let again = Pipeline::builder()
            .min_max_scaler()
            .ifair(config)
            .fit(&ds)
            .unwrap();
        assert_eq!(again.transform(&ds).unwrap(), repr);

        // The strategy travels through pipeline persistence.
        let back = Pipeline::from_json(&pipeline.to_json().unwrap()).unwrap();
        assert_eq!(back.transform(&ds).unwrap(), repr);
    }

    #[test]
    fn scaler_ifair_logreg_matches_hand_wired_path_bit_identically() {
        let ds = toy(24);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_ifair())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();

        // Hand-wired: the plumbing every bench binary used to repeat.
        let scaler = StandardScaler::fit(&ds.x);
        let scaled = scaler.transform(&ds.x);
        let model = IFair::fit(&scaled, &ds.protected, &quick_ifair()).unwrap();
        let repr = model.transform(&scaled);
        let clf = LogisticRegression::fit_default(&repr, ds.labels()).unwrap();

        assert_eq!(pipeline.transform(&ds).unwrap(), repr);
        assert_eq!(
            pipeline.predict_proba(&ds).unwrap(),
            clf.predict_proba(&repr)
        );
        assert_eq!(pipeline.predict(&ds).unwrap(), clf.predict(&repr));
    }

    #[test]
    fn pipeline_without_predictor_still_transforms() {
        let ds = toy(16);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .svd(SvdConfig::new(2))
            .fit(&ds)
            .unwrap();
        assert_eq!(pipeline.transform(&ds).unwrap().shape(), (16, 2));
        let err = pipeline.predict(&ds).unwrap_err();
        assert!(err.to_string().contains("predictor"));
    }

    #[test]
    fn predictor_must_be_last() {
        let ds = toy(16);
        let err = Pipeline::builder()
            .logistic_regression_default()
            .standard_scaler()
            .fit(&ds)
            .unwrap_err();
        assert!(matches!(err, FitError::Config(_)));
        assert!(err.to_string().contains("must be last"));
        assert!(Pipeline::builder().fit(&ds).is_err());
    }

    #[test]
    fn ridge_pipeline_predicts_scores() {
        let ds = toy(20);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ridge(RidgeConfig::default())
            .fit(&ds)
            .unwrap();
        let scores = pipeline.predict(&ds).unwrap();
        assert_eq!(scores.len(), 20);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn pooled_paths_are_bit_identical_to_serial() {
        let ds = toy(96);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_ifair())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();
        assert_eq!(pipeline.n_input_features(), Some(3));
        assert!(pipeline.has_predictor());

        let repr = pipeline.transform(&ds).unwrap();
        let proba = pipeline.predict_proba(&ds).unwrap();
        let decisions = pipeline.predict(&ds).unwrap();
        for lanes in [1usize, 2, 4] {
            let pool = WorkerPool::new(lanes);
            assert_eq!(pipeline.transform_on(&ds, Some(&pool)).unwrap(), repr);
            let (scores, hard) = pipeline.predict_scored_on(&ds, Some(&pool)).unwrap();
            assert_eq!(scores, proba, "lanes={lanes}");
            assert_eq!(hard, decisions, "lanes={lanes}");
        }
        // pool == None degrades to the plain serial path.
        assert_eq!(pipeline.transform_on(&ds, None).unwrap(), repr);
        // A predictor-less chain still reports a typed error.
        let bare = Pipeline::builder().standard_scaler().fit(&ds).unwrap();
        assert!(bare.predict_scored_on(&ds, None).is_err());
        assert!(!bare.has_predictor());
    }

    #[test]
    fn f32_precision_path_tracks_f64_and_is_pool_invariant() {
        let ds = toy(96);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_ifair())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();

        let f64_repr = pipeline.transform_on(&ds, None).unwrap();
        let f32_repr = pipeline
            .transform_on_prec(&ds, None, Precision::F32)
            .unwrap();
        assert_eq!(f32_repr.shape(), f64_repr.shape());
        for (a, b) in f32_repr.as_slice().iter().zip(f64_repr.as_slice()) {
            assert!((a - b).abs() < 1e-4, "f32 {a} vs f64 {b}");
        }

        // The f32 path keeps the pool-invariance contract: every pool size
        // reproduces the serial f32 result bit-for-bit.
        let (scores, hard) = pipeline
            .predict_scored_on_prec(&ds, None, Precision::F32)
            .unwrap();
        for lanes in [1usize, 2, 4] {
            let pool = WorkerPool::new(lanes);
            let pooled = pipeline
                .transform_on_prec(&ds, Some(&pool), Precision::F32)
                .unwrap();
            assert_eq!(pooled, f32_repr, "lanes={lanes}");
            let (s, h) = pipeline
                .predict_scored_on_prec(&ds, Some(&pool), Precision::F32)
                .unwrap();
            assert_eq!(s, scores, "lanes={lanes}");
            assert_eq!(h, hard, "lanes={lanes}");
        }

        // F64 through the _prec spelling is the plain path, bit-for-bit.
        assert_eq!(
            pipeline
                .transform_on_prec(&ds, None, Precision::F64)
                .unwrap(),
            f64_repr
        );
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let ds = toy(24);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_ifair())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();
        let json = pipeline.to_json().unwrap();
        let restored = Pipeline::from_json(&json).unwrap();
        assert_eq!(restored.stages().len(), 3);
        assert_eq!(
            restored.transform(&ds).unwrap(),
            pipeline.transform(&ds).unwrap()
        );
        assert_eq!(
            restored.predict_proba(&ds).unwrap(),
            pipeline.predict_proba(&ds).unwrap()
        );
    }

    #[test]
    fn unknown_schema_version_fails_clearly() {
        let ds = toy(16);
        let pipeline = Pipeline::builder().standard_scaler().fit(&ds).unwrap();
        let json = pipeline.to_json().unwrap();
        let bumped = json.replacen("\"schema_version\":1", "\"schema_version\":2", 1);
        assert_ne!(json, bumped);
        let err = Pipeline::from_json(&bumped).unwrap_err();
        assert!(matches!(err, FitError::SchemaVersion { found: 2, .. }));
        // A model artifact is not a pipeline artifact.
        let model = IFair::fit(
            &StandardScaler::fit(&ds.x).transform(&ds.x),
            &ds.protected,
            &quick_ifair(),
        )
        .unwrap();
        assert!(Pipeline::from_json(&model.to_json().unwrap()).is_err());
    }

    #[test]
    fn lfr_stage_threads_group_membership() {
        let ds = toy(24);
        let pipeline = Pipeline::builder()
            .min_max_scaler()
            .lfr(LfrConfig {
                k: 3,
                max_iters: 30,
                n_restarts: 1,
                ..Default::default()
            })
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();
        let proba = pipeline.predict_proba(&ds).unwrap();
        assert_eq!(proba.len(), 24);
        assert!(proba.iter().all(|p| (0.0..=1.0).contains(p)));
    }
}
