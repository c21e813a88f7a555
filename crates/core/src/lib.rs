//! # iFair — individually fair data representations
//!
//! Implementation of *Lahoti, Gummadi, Weikum: "iFair: Learning Individually
//! Fair Data Representations for Algorithmic Decision Making"* (ICDE 2019).
//!
//! iFair maps each user record `x_i` to a low-rank representation
//!
//! ```text
//! x̃_i = Σ_k u_{ik} · v_k,     u_i = softmax(-d(x_i, v_·))
//! ```
//!
//! where the `v_k` are `K` learned prototype vectors and `d` is a weighted
//! Minkowski distance with learnable attribute weights `α` (Definitions 2-8
//! of the paper). Training minimizes
//!
//! ```text
//! L = λ · L_util(X, X̃) + μ · L_fair(X, X̃)
//! ```
//!
//! with `L_util` the reconstruction loss and `L_fair` the pairwise
//! distance-preservation loss **on non-protected attributes** (Definition 9),
//! via L-BFGS (§III-C). The representation is application-agnostic: train it
//! once, then feed `x̃` to any downstream classifier or ranking model.
//!
//! # Example
//!
//! ```
//! use ifair_core::{IFair, IFairConfig};
//! use ifair_linalg::Matrix;
//!
//! // Six records, three attributes; the last attribute is protected.
//! let x = Matrix::from_rows(vec![
//!     vec![0.9, 0.2, 1.0],
//!     vec![0.8, 0.3, 0.0],
//!     vec![0.2, 0.8, 1.0],
//!     vec![0.1, 0.9, 0.0],
//!     vec![0.5, 0.5, 1.0],
//!     vec![0.4, 0.6, 0.0],
//! ]).unwrap();
//! let protected = vec![false, false, true];
//!
//! let config = IFairConfig { k: 2, lambda: 1.0, mu: 1.0, ..Default::default() };
//! let model = IFair::fit(&x, &protected, &config).unwrap();
//! let x_fair = model.transform(&x);
//! assert_eq!(x_fair.shape(), (6, 3));
//! ```

// `deny` rather than `forbid`: the persistent worker pool in [`par`] erases
// one closure lifetime behind a barrier (the scoped-threadpool pattern) and
// carries the crate's only `#[allow(unsafe_code)]`, with the soundness
// argument documented at the site.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod checkpoint;
pub mod config;
pub mod distance;
pub mod estimator;
pub mod model;
pub mod model_f32;
pub mod objective;
pub mod par;

pub use certify::{BoxCertificate, CertMethod, Certificate, DatasetCertification};
pub use checkpoint::FitCheckpoint;
pub use config::{
    FairnessDistance, FairnessPairs, FitStrategy, IFairConfig, InitStrategy, SoftmaxDistance,
};
pub use estimator::IFairBuilder;
pub use ifair_api::{CertifyError, ConfigError, Estimator, FitError, Predict, Transform};
pub use ifair_linalg::{Backend, Precision};
pub use model::{EpochEvent, FitControl, IFair, RestartEvent, TrainingReport};
pub use model_f32::IFairF32;
pub use objective::{IFairObjective, MiniBatchObjective, SamplerState};
