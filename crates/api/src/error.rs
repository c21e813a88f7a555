//! The workspace-wide typed error family.
//!
//! Every `fit` in the workspace — iFair, the baselines, the downstream
//! models, the pipeline — returns the single [`FitError`] enum, and every
//! `Config::validate` reports a [`ConfigError`] naming the offending field.
//! Bare `String` errors no longer appear in any public signature.

use ifair_data::{DataError, Dataset};
use ifair_linalg::LinalgError;
use std::fmt;

/// A hyper-parameter configuration problem: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending configuration field (or field group).
    pub field: &'static str,
    /// Human-readable description of the constraint that failed.
    pub message: String,
}

impl ConfigError {
    /// Builds a configuration error for `field`.
    pub fn new(field: &'static str, message: impl Into<String>) -> ConfigError {
        ConfigError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The shared validation helper: all `Config::validate` methods express
/// their constraints through it, so every violation carries the field name
/// and reads uniformly.
///
/// ```
/// use ifair_api::{ensure, ConfigError};
/// fn validate(k: usize) -> Result<(), ConfigError> {
///     ensure(k >= 1, "k", "must be at least 1")
/// }
/// assert!(validate(0).is_err());
/// assert!(validate(3).is_ok());
/// ```
pub fn ensure(
    condition: bool,
    field: &'static str,
    message: impl Into<String>,
) -> Result<(), ConfigError> {
    if condition {
        Ok(())
    } else {
        Err(ConfigError::new(field, message))
    }
}

/// Everything that can go wrong while fitting, transforming or persisting a
/// model. Replaces the former `IFairError` and the baselines' `String`
/// errors with one enum shared by the whole estimator layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The hyper-parameter configuration failed validation.
    Config(ConfigError),
    /// The input data is unusable (shape mismatch, missing labels, bad group
    /// labels, non-finite values, ...).
    Data(DataError),
    /// A numerical subroutine (SVD, Cholesky, ...) failed.
    Linalg(LinalgError),
    /// (De)serialization failed.
    Serialization(String),
    /// A persisted artifact declares a schema version this build does not
    /// understand.
    SchemaVersion {
        /// Version found in the artifact.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Config(e) => write!(f, "{e}"),
            FitError::Data(e) => write!(f, "invalid input data: {e}"),
            FitError::Linalg(e) => write!(f, "numerical failure: {e}"),
            FitError::Serialization(msg) => write!(f, "(de)serialization failed: {msg}"),
            FitError::SchemaVersion { found, supported } => write!(
                f,
                "unsupported schema version {found} (this build supports up to {supported}); \
                 refusing to load a model persisted by an incompatible version"
            ),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FitError::Config(e) => Some(e),
            FitError::Data(e) => Some(e),
            FitError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for FitError {
    fn from(e: ConfigError) -> Self {
        FitError::Config(e)
    }
}

impl From<DataError> for FitError {
    fn from(e: DataError) -> Self {
        FitError::Data(e)
    }
}

impl From<LinalgError> for FitError {
    fn from(e: LinalgError) -> Self {
        FitError::Linalg(e)
    }
}

/// Shorthand for the common "bad shape" data error.
pub fn shape_error(message: impl Into<String>) -> FitError {
    FitError::Data(DataError::Shape(message.into()))
}

/// Validates that a dataset's feature width matches what a fitted stage
/// was trained on; `what` names the stage for the error message (e.g.
/// `"scaler"`, `"classifier"`, `"iFair model"`).
pub fn check_width(ds: &Dataset, fitted: usize, what: &str) -> Result<(), FitError> {
    if ds.n_features() != fitted {
        return Err(shape_error(format!(
            "dataset has {} features but the {what} was fitted on {fitted}",
            ds.n_features()
        )));
    }
    Ok(())
}

/// Validates that every protected-group label is 0 or 1.
///
/// Group-conditional methods (LFR's per-group distance weights, the parity
/// and FA\*IR post-processors) would otherwise silently lump any other
/// value in with the unprotected group; every group-consuming surface calls
/// this up front instead.
pub fn check_group_labels(group: &[u8]) -> Result<(), FitError> {
    match group.iter().position(|&g| g > 1) {
        Some(i) => Err(schema_error(format!(
            "group labels must be 0/1, found {} at record {i}",
            group[i]
        ))),
        None => Ok(()),
    }
}

/// Shorthand for the common "bad schema / bad labels" data error.
pub fn schema_error(message: impl Into<String>) -> FitError {
    FitError::Data(DataError::Schema(message.into()))
}

/// Everything that can go wrong while certifying a fitted representation
/// (the interval-bound certification pass of `ifair_core::certify`).
///
/// Kept separate from [`FitError`] because the failure surface is
/// different: a certify request can be malformed (bad ε) or aimed at an
/// artifact with no representation space — neither is a fitting problem,
/// and serving layers map the variants to distinct HTTP statuses.
#[derive(Debug, Clone, PartialEq)]
pub enum CertifyError {
    /// The requested perturbation radius ε (or certification threshold δ)
    /// is unusable: negative, non-finite, or otherwise malformed.
    Epsilon(String),
    /// The artifact has no representation space to certify — e.g. its
    /// terminal stage is a bare predictor, or the representation stage is
    /// a method the certifier does not support.
    Unsupported(String),
    /// The input data or model state is unusable (width mismatch,
    /// non-finite rows, serialization failure, ...).
    Model(FitError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Epsilon(msg) => write!(f, "invalid certification radius: {msg}"),
            CertifyError::Unsupported(msg) => write!(f, "certification unsupported: {msg}"),
            CertifyError::Model(e) => write!(f, "certification failed: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CertifyError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FitError> for CertifyError {
    fn from(e: FitError) -> Self {
        CertifyError::Model(e)
    }
}

/// Validates a perturbation radius ε: finite and non-negative.
pub fn check_epsilon(eps: f64) -> Result<(), CertifyError> {
    if !eps.is_finite() || eps < 0.0 {
        return Err(CertifyError::Epsilon(format!(
            "eps must be a finite non-negative number, got {eps}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_reports_field_and_message() {
        let err = ensure(false, "k", "must be at least 1").unwrap_err();
        assert_eq!(err.field, "k");
        assert!(err.to_string().contains("`k`"));
        assert!(err.to_string().contains("at least 1"));
        assert!(ensure(true, "k", "never seen").is_ok());
    }

    #[test]
    fn conversions_wrap_sources() {
        let fe: FitError = ConfigError::new("mu", "negative").into();
        assert!(matches!(fe, FitError::Config(_)));
        let fe: FitError = DataError::MissingLabels.into();
        assert!(matches!(fe, FitError::Data(_)));
        assert!(fe.to_string().contains("outcome"));
    }

    #[test]
    fn schema_version_message_names_both_versions() {
        let e = FitError::SchemaVersion {
            found: 9,
            supported: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('1'));
    }
}
