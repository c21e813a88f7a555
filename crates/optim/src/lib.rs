//! Numerical optimization substrate for the iFair reproduction.
//!
//! The paper trains its representation with **L-BFGS** (§III-C, citing Liu &
//! Nocedal 1989); the LFR baseline (Zemel et al. 2013) and our logistic
//! regression use the same machinery. This crate provides:
//!
//! * [`Objective`] — the problem trait (value + analytic gradient),
//! * [`lbfgs::Lbfgs`] — limited-memory BFGS with strong-Wolfe line search and
//!   optional box projection,
//! * [`adam::Adam`] and [`adam::GradientDescent`] — first-order baselines used
//!   by the ablation benches,
//! * [`numgrad`] — central-difference gradients and a gradient checker used in
//!   tests to validate every analytic gradient in the workspace.
//!
//! # Example
//!
//! ```
//! use ifair_optim::{Lbfgs, LbfgsConfig, Objective};
//!
//! /// f(x) = ||x - 3||^2, minimized at x = 3.
//! struct Quadratic;
//! impl Objective for Quadratic {
//!     fn dim(&self) -> usize { 2 }
//!     fn value(&self, x: &[f64]) -> f64 {
//!         x.iter().map(|&v| (v - 3.0).powi(2)).sum()
//!     }
//!     fn gradient(&self, x: &[f64], grad: &mut [f64]) {
//!         for (g, &v) in grad.iter_mut().zip(x) { *g = 2.0 * (v - 3.0); }
//!     }
//! }
//!
//! let result = Lbfgs::new(LbfgsConfig::default()).minimize(&Quadratic, vec![0.0, 0.0]);
//! assert!(result.converged);
//! assert!((result.x[0] - 3.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod lbfgs;
pub mod line_search;
pub mod numgrad;
pub mod problem;

pub use adam::{Adam, AdamConfig, AdamState, GradientDescent};
pub use lbfgs::{Lbfgs, LbfgsConfig};
pub use problem::{FnObjective, NumericalObjective, Objective, OptimResult, Termination};
