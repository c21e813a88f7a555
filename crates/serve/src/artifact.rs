//! Servable artifacts: the JSON files the registry loads and dispatches on.
//!
//! Both persistence kinds the workspace writes are servable — a full
//! [`Pipeline`] chain (`"pipeline"`) and a bare [`IFair`] model
//! (`"ifair-model"`). The envelope's `kind` tag, read via
//! [`ifair::api::peek_artifact`], picks the deserializer, so a registry can
//! mix both in one server.

use ifair::api::{peek_artifact, shape_error, CertifyError, ConfigError, FitError};
use ifair::core::certify::eps_box;
use ifair::core::par::WorkerPool;
use ifair::core::{Certificate, IFair, Precision};
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;

/// A loaded, servable model artifact.
///
/// The model variant is boxed: an [`IFair`] carries its prototype matrix and
/// full training report inline, dwarfing the pipeline variant's `Vec`.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A full `scale → represent → model` chain ([`Pipeline::to_json`]).
    Pipeline(Pipeline),
    /// A bare iFair representation model ([`IFair::to_json`]).
    Model(Box<IFair>),
}

impl Artifact {
    /// Decodes a versioned artifact, dispatching on the envelope's `kind`
    /// tag. Unknown kinds and schema versions fail with a clear error.
    pub fn from_json(json: &str) -> Result<Artifact, FitError> {
        let info = peek_artifact(json)?;
        match info.kind.as_str() {
            "pipeline" => Ok(Artifact::Pipeline(Pipeline::from_json(json)?)),
            "ifair-model" => Ok(Artifact::Model(Box::new(IFair::from_json(json)?))),
            other => Err(FitError::Serialization(format!(
                "unsupported artifact kind `{other}` (servable kinds: `pipeline`, `ifair-model`)"
            ))),
        }
    }

    /// The artifact's kind tag, as found in its envelope.
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Pipeline(_) => "pipeline",
            Artifact::Model(_) => "ifair-model",
        }
    }

    /// The feature width incoming rows must have.
    pub fn n_input_features(&self) -> Option<usize> {
        match self {
            Artifact::Pipeline(p) => p.n_input_features(),
            Artifact::Model(m) => Some(m.n_features()),
        }
    }

    /// Whether `predict` can succeed (the chain ends in a classifier or
    /// regressor). A bare iFair model only transforms.
    pub fn has_predictor(&self) -> bool {
        match self {
            Artifact::Pipeline(p) => p.has_predictor(),
            Artifact::Model(_) => false,
        }
    }

    /// Maps `rows` through the transform stages on `pool`, returning one
    /// output row per input row. At [`Precision::F64`] this is bit-identical
    /// to the in-process [`Pipeline::transform`] / [`IFair::transform`]
    /// calls for every pool size; at [`Precision::F32`] the iFair stage is
    /// lowered to the f32 serving kernel (tolerance-bounded against f64,
    /// still pool-size invariant — see `docs/ARCHITECTURE.md`).
    pub fn transform(
        &self,
        rows: Matrix,
        group: Vec<u8>,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<Matrix, FitError> {
        self.check_width(&rows)?;
        match self {
            Artifact::Pipeline(p) => {
                p.transform_on_prec(&request_dataset(rows, group)?, pool, precision)
            }
            Artifact::Model(m) => match precision {
                Precision::F64 => Ok(m.transform_on(&rows, pool)),
                Precision::F32 => Ok(m.to_f32().transform_on(&rows, pool)),
            },
        }
    }

    /// Runs the full chain on `pool` and returns `(scores, decisions)` of
    /// the terminal predictor — `predict_proba` and `predict` of the
    /// in-process API, computed over one shared prefix pass. `precision`
    /// selects the iFair stage's kernel; the terminal predictor always
    /// scores in f64.
    pub fn predict(
        &self,
        rows: Matrix,
        group: Vec<u8>,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<(Vec<f64>, Vec<f64>), FitError> {
        self.check_width(&rows)?;
        match self {
            Artifact::Pipeline(p) => {
                p.predict_scored_on_prec(&request_dataset(rows, group)?, pool, precision)
            }
            Artifact::Model(_) => Err(FitError::Config(ConfigError::new(
                "model",
                "a bare iFair model has no predictor stage; serve a pipeline or call transform",
            ))),
        }
    }

    /// Whether [`Artifact::certify`] can succeed: the artifact exposes an
    /// iFair representation space (a bare model, or a pipeline whose last
    /// transform stage is iFair behind scalers). Handlers check this before
    /// dispatch so a certify request against a bare-predictor chain is a
    /// typed 400, not a batch-time failure.
    pub fn can_certify(&self) -> bool {
        match self {
            Artifact::Pipeline(p) => p.can_certify(),
            Artifact::Model(_) => true,
        }
    }

    /// Certifies each request row: a sound bound δ on the representation
    /// distance any input within `[row − ε, row + ε]` (raw request space)
    /// can reach. Rides the same pool and precision contract as
    /// [`Artifact::transform`]; certificates are bit-identical to the
    /// in-process `Pipeline::certify_rows` / `IFair::certify_rows` calls
    /// for every pool size.
    pub fn certify(
        &self,
        rows: Matrix,
        eps: f64,
        pool: Option<&WorkerPool>,
        precision: Precision,
    ) -> Result<Vec<Certificate>, CertifyError> {
        self.check_width(&rows).map_err(CertifyError::Model)?;
        match self {
            Artifact::Pipeline(p) => p.certify_rows(&rows, eps, pool, precision),
            Artifact::Model(m) => match precision {
                Precision::F64 => m.certify_rows(&rows, eps, pool),
                Precision::F32 => m.to_f32().certify_rows(&rows, eps, pool),
            },
        }
    }

    /// Fails exactly when [`Artifact::certify`] would reject `rows` at
    /// `eps`, by building the same box it certifies: in raw input space
    /// for a bare model, carried through the scaler stages for a pipeline.
    /// Handlers run it before dispatch, so a box that overflows is a typed
    /// 400 for its own request instead of a 500 for the whole coalesced
    /// micro-batch.
    pub fn check_certify(&self, rows: &Matrix, eps: f64) -> Result<(), CertifyError> {
        self.check_width(rows).map_err(CertifyError::Model)?;
        match self {
            Artifact::Pipeline(p) => p.certify_box(rows, eps).map(drop),
            Artifact::Model(_) => eps_box(rows, eps).map(drop),
        }
    }

    fn check_width(&self, rows: &Matrix) -> Result<(), FitError> {
        if let Some(width) = self.n_input_features() {
            if rows.cols() != width {
                return Err(shape_error(format!(
                    "request rows have {} features but the artifact expects {width}",
                    rows.cols()
                )));
            }
        }
        Ok(())
    }
}

/// Wraps request rows in the [`Dataset`] view the estimator traits speak:
/// synthetic column names, no protected flags, no labels, and the
/// caller-supplied per-row group membership (all-zero when the request
/// omitted it — only the LFR stage reads it at inference time).
pub fn request_dataset(x: Matrix, group: Vec<u8>) -> Result<Dataset, FitError> {
    let (m, n) = x.shape();
    let group = if group.is_empty() {
        vec![0u8; m]
    } else {
        group
    };
    if group.len() != m {
        return Err(shape_error(format!(
            "request has {m} rows but {} group entries",
            group.len()
        )));
    }
    Dataset::new(
        x,
        (0..n).map(|j| format!("f{j}")).collect(),
        vec![false; n],
        None,
        group,
    )
    .map_err(FitError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifair::core::IFairConfig;

    fn toy_matrix(m: usize) -> Matrix {
        Matrix::from_rows(
            (0..m)
                .map(|i| {
                    let t = i as f64 / m as f64;
                    vec![t, 1.0 - t, (i % 2) as f64]
                })
                .collect(),
        )
        .unwrap()
    }

    fn toy_dataset(m: usize) -> Dataset {
        Dataset::new(
            toy_matrix(m),
            vec!["a".into(), "b".into(), "g".into()],
            vec![false, false, true],
            Some(
                (0..m)
                    .map(|i| f64::from(i as f64 > m as f64 / 2.0))
                    .collect(),
            ),
            (0..m).map(|i| (i % 2) as u8).collect(),
        )
        .unwrap()
    }

    fn quick_config() -> IFairConfig {
        IFairConfig {
            k: 2,
            max_iters: 15,
            n_restarts: 1,
            ..Default::default()
        }
    }

    #[test]
    fn dispatches_on_kind_and_round_trips_both_kinds() {
        let ds = toy_dataset(24);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_config())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();
        let served = Artifact::from_json(&pipeline.to_json().unwrap()).unwrap();
        assert_eq!(served.kind(), "pipeline");
        assert_eq!(served.n_input_features(), Some(3));
        assert!(served.has_predictor());

        let model = IFair::fit(&ds.x, &ds.protected, &quick_config()).unwrap();
        let served = Artifact::from_json(&model.to_json().unwrap()).unwrap();
        assert_eq!(served.kind(), "ifair-model");
        assert!(!served.has_predictor());

        let err = Artifact::from_json(r#"{"schema_version":1,"kind":"mystery","payload":{}}"#)
            .unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn transform_and_predict_match_in_process_calls_bitwise() {
        let ds = toy_dataset(24);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_config())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();
        let served = Artifact::from_json(&pipeline.to_json().unwrap()).unwrap();

        // The server fabricates the same dataset view `request_dataset`
        // builds; compare against the pipeline run on that exact view.
        let view = request_dataset(ds.x.clone(), vec![]).unwrap();
        let expect = pipeline.transform(&view).unwrap();
        let got = served
            .transform(ds.x.clone(), vec![], None, Precision::F64)
            .unwrap();
        assert_eq!(got, expect);

        let (scores, decisions) = served
            .predict(ds.x.clone(), vec![], None, Precision::F64)
            .unwrap();
        assert_eq!(scores, pipeline.predict_proba(&view).unwrap());
        assert_eq!(decisions, pipeline.predict(&view).unwrap());
    }

    #[test]
    fn f32_precision_stays_within_tolerance_of_f64() {
        let ds = toy_dataset(24);
        let pipeline = Pipeline::builder()
            .standard_scaler()
            .ifair(quick_config())
            .logistic_regression_default()
            .fit(&ds)
            .unwrap();
        let served = Artifact::from_json(&pipeline.to_json().unwrap()).unwrap();

        let full = served
            .transform(ds.x.clone(), vec![], None, Precision::F64)
            .unwrap();
        let half = served
            .transform(ds.x.clone(), vec![], None, Precision::F32)
            .unwrap();
        assert_eq!(half.shape(), full.shape());
        let mut max_err = 0.0f64;
        for (a, b) in half.as_slice().iter().zip(full.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err > 0.0, "f32 path should actually round differently");
        assert!(max_err < 1e-3, "f32 drift {max_err} exceeds tolerance");

        let (scores64, _) = served
            .predict(ds.x.clone(), vec![], None, Precision::F64)
            .unwrap();
        let (scores32, _) = served
            .predict(ds.x.clone(), vec![], None, Precision::F32)
            .unwrap();
        for (a, b) in scores32.iter().zip(&scores64) {
            assert!((a - b).abs() < 1e-3);
        }

        // A bare model artifact lowers the same way.
        let model = IFair::fit(&ds.x, &ds.protected, &quick_config()).unwrap();
        let served = Artifact::from_json(&model.to_json().unwrap()).unwrap();
        let full = served
            .transform(ds.x.clone(), vec![], None, Precision::F64)
            .unwrap();
        let half = served
            .transform(ds.x.clone(), vec![], None, Precision::F32)
            .unwrap();
        for (a, b) in half.as_slice().iter().zip(full.as_slice()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn width_and_capability_errors_are_typed() {
        let ds = toy_dataset(16);
        let model = IFair::fit(&ds.x, &ds.protected, &quick_config()).unwrap();
        let served = Artifact::from_json(&model.to_json().unwrap()).unwrap();
        let narrow = Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(served
            .transform(narrow, vec![], None, Precision::F64)
            .unwrap_err()
            .to_string()
            .contains("expects 3"));
        assert!(served
            .predict(ds.x.clone(), vec![], None, Precision::F64)
            .unwrap_err()
            .to_string()
            .contains("no predictor"));
        // Group length must match the row count when provided.
        assert!(request_dataset(ds.x.clone(), vec![1u8]).is_err());
    }
}
