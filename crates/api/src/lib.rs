//! # The iFair estimator contract
//!
//! One small trait family — [`Estimator`] / [`Transform`] / [`Predict`] —
//! plus one typed error family — [`FitError`] / [`ConfigError`] — shared by
//! every method in the workspace: the iFair model, the LFR / SVD / FA\*IR /
//! parity baselines, the downstream logistic and ridge models, and the
//! `ifair-data` scalers (adapted here in [`scalers`]).
//!
//! The contract is *dataset-centric*: everything fits on a single
//! [`ifair_data::Dataset`] view bundling features, the per-column protected
//! mask, per-record group membership and optional labels. Methods read the
//! subset they need, so a pipeline can swap iFair for LFR for SVD without
//! changing a line of harness code — the paper's experimental design
//! (Tables 2–5) expressed as a type.
//!
//! ```
//! use ifair_api::{Estimator, Transform};
//! use ifair_api::scalers::StandardScalerConfig;
//! use ifair_data::Dataset;
//! use ifair_linalg::Matrix;
//!
//! let ds = Dataset::new(
//!     Matrix::from_rows(vec![vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap(),
//!     vec!["a".into(), "b".into()],
//!     vec![false, false],
//!     None,
//!     vec![0, 1],
//! ).unwrap();
//! let scaler = StandardScalerConfig::default().fit(&ds).unwrap();
//! // The inherent scaler API takes a `&Matrix`; the trait sees the dataset.
//! let scaled = Transform::transform(&scaler, &ds).unwrap();
//! assert_eq!(scaled.shape(), (2, 2));
//! ```
//!
//! Persistence goes through [`persist`]: every serialized artifact carries a
//! schema version and a kind tag, so loading a model written by an
//! incompatible build fails loudly instead of decoding garbage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod persist;
pub mod scalers;
pub mod traits;

pub use error::{
    check_epsilon, check_group_labels, check_width, ensure, schema_error, shape_error,
    CertifyError, ConfigError, FitError,
};
pub use persist::{
    from_versioned_json, peek_artifact, to_versioned_json, write_atomic, ArtifactInfo,
    SCHEMA_VERSION,
};
pub use traits::{Estimator, Predict, Transform};
