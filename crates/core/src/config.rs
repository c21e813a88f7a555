//! Configuration of the iFair model.

use ifair_api::{ensure, ConfigError};
use serde::{Deserialize, Serialize, Value};

/// How the attribute-weight vector `α` is initialized (§V-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// **iFair-a**: every `α_n` uniform in `(0, 1)`.
    RandomUniform,
    /// **iFair-b**: protected attributes start near zero (`1e-4`), reflecting
    /// the intuition that protected attributes should not contribute to the
    /// similarity of individuals; non-protected weights uniform in `(0, 1)`.
    NearZeroProtected,
}

/// Which distance is measured between transformed records in the fairness
/// loss (Definition 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FairnessDistance {
    /// Plain Euclidean distance on `x̃` — what the reference implementation
    /// uses; the target `d(x*_i, x*_j)` is likewise unweighted.
    Unweighted,
    /// The learned weighted Minkowski metric of Definition 7 applied to `x̃`
    /// (the paper's literal reading). The target stays unweighted.
    Weighted,
}

/// Which quantity feeds the softmax that assigns records to prototypes
/// (Definition 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SoftmaxDistance {
    /// The power sum `Σ_n α_n |x_n - v_n|^p` without the `1/p` root — what the
    /// reference implementation (and LFR before it) exponentiates. For `p = 2`
    /// this makes `u_i` a Gaussian-kernel responsibility vector.
    PowerSum,
    /// The rooted Minkowski distance of Definition 7 (the paper's literal
    /// Definition 8).
    Rooted,
}

/// Which record pairs enter the fairness loss.
///
/// Definition 5 sums over **all** pairs, which is `O(M²)`; the paper notes
/// it avoids "the quadratic number of comparisons" in practice. Both options
/// are provided and compared in the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FairnessPairs {
    /// All `M(M-1)/2` pairs (exact Definition 5).
    Exact,
    /// Distances to a fixed random subset of `n_anchors` records are
    /// preserved instead of all pairwise distances — `O(M · n_anchors)`.
    Anchored {
        /// Number of anchor records (clamped to `M`).
        n_anchors: usize,
    },
    /// A fixed random sample of `n_pairs` record pairs.
    Subsampled {
        /// Number of sampled pairs (clamped to the number of distinct pairs).
        n_pairs: usize,
    },
}

/// How [`crate::IFair::fit`] drives the optimizer.
///
/// [`FitStrategy::FullBatch`] is the paper's training loop: box-constrained
/// L-BFGS over the whole dataset, every fairness pair of
/// [`IFairConfig::fairness_pairs`] in every evaluation. Its per-iteration
/// cost grows with `M` (and `M²` for [`FairnessPairs::Exact`]), which is
/// fine for Table-2-sized data and hopeless for millions of records.
///
/// [`FitStrategy::MiniBatch`] is the stochastic escape hatch: every Adam
/// step resamples a fresh record batch (and a fresh set of fairness pairs
/// *within* that batch) from a seeded RNG, so the per-step cost depends only
/// on `batch_records` and `pairs_per_batch` — never on `M`. Batches can be
/// drawn from an in-memory matrix or streamed from any
/// [`ifair_data::stream::RecordSource`] (see [`crate::IFair::fit_source`]),
/// so datasets that do not fit in memory remain trainable.
///
/// Decoding also accepts the `{"DataParallel": {"workers": …, …}}` form
/// that multi-process fits stored: it loads as the `MiniBatch` schedule it
/// carried, which trains to the same bits, and `workers` is ignored.
/// Encoding never writes it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum FitStrategy {
    /// Deterministic full-batch L-BFGS (the paper's §III-C loop). The
    /// default, bit-identical to the historical behavior.
    #[default]
    FullBatch,
    /// Seeded mini-batch SGD with Adam updates. An *epoch* is
    /// `ceil(M / batch_records)` steps; each step draws `batch_records`
    /// distinct records and up to `pairs_per_batch` distinct fairness pairs
    /// among them (clamped to the batch's `B·(B−1)/2` distinct pairs — the
    /// clamp is surfaced in [`crate::TrainingReport`]).
    /// [`IFairConfig::fairness_pairs`] is ignored on this path;
    /// `max_iters`/`grad_tol` likewise (the epoch budget owns termination).
    MiniBatch {
        /// Records per batch (clamped to `M`; must be at least 2 so a batch
        /// can contain a fairness pair).
        batch_records: usize,
        /// Fairness pairs drawn within each batch.
        pairs_per_batch: usize,
        /// Number of passes (in expectation) over the dataset per restart.
        epochs: usize,
        /// Adam step size.
        learning_rate: f64,
    },
}

impl Deserialize for FitStrategy {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(tag) if tag == "FullBatch" => return Ok(FitStrategy::FullBatch),
            Value::Object(entries) => {
                if let [(tag, payload)] = entries.as_slice() {
                    if tag == "MiniBatch" || tag == "DataParallel" {
                        let field = |name| payload.field(name);
                        return Ok(FitStrategy::MiniBatch {
                            batch_records: Deserialize::from_value(field("batch_records")?)?,
                            pairs_per_batch: Deserialize::from_value(field("pairs_per_batch")?)?,
                            epochs: Deserialize::from_value(field("epochs")?)?,
                            learning_rate: Deserialize::from_value(field("learning_rate")?)?,
                        });
                    }
                }
            }
            _ => {}
        }
        Err(serde::Error::msg(format!(
            "invalid FitStrategy variant encoding: {}",
            v.kind()
        )))
    }
}

impl FitStrategy {
    /// A mini-batch strategy with field defaults that suit mid-size data:
    /// 256-record batches, 1024 pairs per batch, 5 epochs, Adam step 0.05.
    pub fn mini_batch() -> FitStrategy {
        FitStrategy::MiniBatch {
            batch_records: 256,
            pairs_per_batch: 1024,
            epochs: 5,
            learning_rate: 0.05,
        }
    }

    /// The stochastic schedule `(batch_records, pairs_per_batch, epochs,
    /// learning_rate)` of [`FitStrategy::MiniBatch`]; `None` for the
    /// full-batch strategy.
    pub fn schedule(&self) -> Option<(usize, usize, usize, f64)> {
        match *self {
            FitStrategy::FullBatch => None,
            FitStrategy::MiniBatch {
                batch_records,
                pairs_per_batch,
                epochs,
                learning_rate,
            } => Some((batch_records, pairs_per_batch, epochs, learning_rate)),
        }
    }
}

/// Hyper-parameters of [`crate::IFair`].
///
/// Defaults follow the paper's grid-search center: `K = 10` prototypes,
/// `λ = μ = 1`, `p = 2` (Gaussian kernel), best of 3 restarts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IFairConfig {
    /// Number of prototypes `K` (the paper's grid: {10, 20, 30}).
    pub k: usize,
    /// Weight `λ` of the utility (reconstruction) loss.
    pub lambda: f64,
    /// Weight `μ` of the individual-fairness loss.
    pub mu: f64,
    /// Minkowski exponent `p >= 1` of Definition 7 (`2` = Gaussian kernel).
    pub p: f64,
    /// Whether the prototype-assignment softmax sees the rooted distance or
    /// the raw power sum.
    pub softmax_distance: SoftmaxDistance,
    /// Attribute-weight initialization (iFair-a vs iFair-b).
    pub init: InitStrategy,
    /// When true, protected attribute weights are pinned to (near) zero by
    /// box constraints instead of merely initialized there — an extension
    /// ablated in the benches.
    pub freeze_protected_alpha: bool,
    /// Distance used between transformed records in `L_fair`.
    pub fairness_distance: FairnessDistance,
    /// Pair set of `L_fair` (full-batch path; the mini-batch path draws its
    /// own pairs per batch).
    pub fairness_pairs: FairnessPairs,
    /// Training path: deterministic full-batch L-BFGS or seeded mini-batch
    /// Adam. Defaults to [`FitStrategy::FullBatch`]; `#[serde(default)]` so
    /// configurations serialized before this field existed still load.
    #[serde(default)]
    pub strategy: FitStrategy,
    /// Box constraints on every `α_n` (`None` leaves α unconstrained).
    pub alpha_bounds: Option<(f64, f64)>,
    /// Number of random restarts; the run with the lowest final loss wins
    /// (§V-B: "we report the results from the best of 3 runs").
    pub n_restarts: usize,
    /// Maximum L-BFGS iterations per restart.
    pub max_iters: usize,
    /// Gradient tolerance of the optimizer.
    pub grad_tol: f64,
    /// RNG seed for initialization (restart `r` uses `seed + r`).
    pub seed: u64,
    /// Worker threads of the trainer's persistent pool, which drives every
    /// hot loop (forward pass, backprop, the pairwise `L_fair` kernel, and
    /// the pair-target build): `0` = use all hardware threads (the
    /// default), `1` = force the serial path (no threads are ever spawned),
    /// other values are taken literally (may exceed the core count). The
    /// pool's threads are created lazily on first parallel use — once per
    /// objective, not per evaluation — and live for the whole fit. The
    /// thread count only affects speed, never numerics: every kernel's
    /// chunk layout and reduction order are fixed functions of the problem
    /// size, so seeded fits are reproducible across machines.
    pub n_threads: usize,
}

impl Default for IFairConfig {
    fn default() -> Self {
        IFairConfig {
            k: 10,
            lambda: 1.0,
            mu: 1.0,
            p: 2.0,
            softmax_distance: SoftmaxDistance::PowerSum,
            init: InitStrategy::NearZeroProtected,
            freeze_protected_alpha: false,
            fairness_distance: FairnessDistance::Unweighted,
            fairness_pairs: FairnessPairs::Exact,
            strategy: FitStrategy::FullBatch,
            alpha_bounds: Some((0.0, 1.0)),
            n_restarts: 3,
            max_iters: 150,
            grad_tol: 1e-5,
            seed: 42,
            n_threads: 0,
        }
    }
}

impl IFairConfig {
    /// Validates the configuration, reporting the first violated constraint
    /// with the offending field's name.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(self.k >= 1, "k", "must be at least 1")?;
        ensure(
            self.p >= 1.0,
            "p",
            format!("Minkowski p must be >= 1, got {}", self.p),
        )?;
        ensure(
            self.lambda >= 0.0 && self.mu >= 0.0,
            "lambda/mu",
            "must be non-negative",
        )?;
        ensure(
            self.lambda != 0.0 || self.mu != 0.0,
            "lambda/mu",
            "cannot both be zero",
        )?;
        ensure(self.n_restarts >= 1, "n_restarts", "must be at least 1")?;
        if let Some((lo, hi)) = self.alpha_bounds {
            ensure(
                lo < hi,
                "alpha_bounds",
                format!("bounds ({lo}, {hi}) are empty"),
            )?;
        }
        match self.fairness_pairs {
            FairnessPairs::Anchored { n_anchors } => ensure(
                n_anchors >= 1,
                "fairness_pairs.n_anchors",
                "must be at least 1",
            )?,
            FairnessPairs::Subsampled { n_pairs } => {
                ensure(n_pairs >= 1, "fairness_pairs.n_pairs", "must be at least 1")?
            }
            FairnessPairs::Exact => {}
        }
        if let Some((batch_records, pairs_per_batch, epochs, learning_rate)) =
            self.strategy.schedule()
        {
            ensure(
                batch_records >= 2,
                "strategy.batch_records",
                "must be at least 2 so a batch can contain a fairness pair",
            )?;
            ensure(
                pairs_per_batch >= 1,
                "strategy.pairs_per_batch",
                "must be at least 1",
            )?;
            ensure(epochs >= 1, "strategy.epochs", "must be at least 1")?;
            ensure(
                learning_rate.is_finite() && learning_rate > 0.0,
                "strategy.learning_rate",
                format!("must be a positive finite step size, got {learning_rate}"),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(IFairConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_values() {
        let base = IFairConfig::default();
        assert!(IFairConfig {
            k: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            p: 0.5,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            lambda: -1.0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            lambda: 0.0,
            mu: 0.0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            n_restarts: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            alpha_bounds: Some((1.0, 1.0)),
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            fairness_pairs: FairnessPairs::Anchored { n_anchors: 0 },
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(IFairConfig {
            fairness_pairs: FairnessPairs::Subsampled { n_pairs: 0 },
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn rejects_bad_mini_batch_values() {
        let base = IFairConfig::default();
        let with = |strategy| IFairConfig {
            strategy,
            ..base.clone()
        };
        assert!(with(FitStrategy::mini_batch()).validate().is_ok());
        assert!(with(FitStrategy::MiniBatch {
            batch_records: 1,
            pairs_per_batch: 10,
            epochs: 1,
            learning_rate: 0.05,
        })
        .validate()
        .is_err());
        assert!(with(FitStrategy::MiniBatch {
            batch_records: 16,
            pairs_per_batch: 0,
            epochs: 1,
            learning_rate: 0.05,
        })
        .validate()
        .is_err());
        assert!(with(FitStrategy::MiniBatch {
            batch_records: 16,
            pairs_per_batch: 10,
            epochs: 0,
            learning_rate: 0.05,
        })
        .validate()
        .is_err());
        for lr in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(with(FitStrategy::MiniBatch {
                batch_records: 16,
                pairs_per_batch: 10,
                epochs: 1,
                learning_rate: lr,
            })
            .validate()
            .is_err());
        }
    }

    #[test]
    fn legacy_data_parallel_config_loads_as_its_mini_batch_schedule() {
        // A configuration as multi-process fits stored it.
        let legacy = r#"{"k":4,"lambda":1.0,"mu":1.0,"p":2.0,"softmax_distance":"PowerSum","init":"NearZeroProtected","freeze_protected_alpha":false,"fairness_distance":"Unweighted","fairness_pairs":"Exact","strategy":{"DataParallel":{"workers":2,"batch_records":4096,"pairs_per_batch":1024,"epochs":3,"learning_rate":0.01}},"alpha_bounds":[0.0,1.0],"n_restarts":1,"max_iters":150,"grad_tol":0.00001,"seed":42,"n_threads":1}"#;
        let schedule = FitStrategy::MiniBatch {
            batch_records: 4096,
            pairs_per_batch: 1024,
            epochs: 3,
            learning_rate: 0.01,
        };
        let config: IFairConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(config.strategy, schedule);
        assert!(config.validate().is_ok());

        let json = serde_json::to_string(&config).unwrap();
        assert_eq!(
            json,
            legacy.replace(r#"{"DataParallel":{"workers":2,"#, r#"{"MiniBatch":{"#)
        );
        let back: IFairConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.strategy, schedule);
    }

    #[test]
    fn malformed_strategies_are_typed_errors() {
        for bad in [
            r#""MiniBatch""#,
            r#""DataParallel""#,
            r#"{"FullBatch":{}}"#,
            r#"{"Bogus":{"epochs":1}}"#,
            r#"{"MiniBatch":{"batch_records":8,"pairs_per_batch":8,"epochs":1,"learning_rate":0.1},"FullBatch":{}}"#,
            "7",
        ] {
            let err = serde_json::from_str::<FitStrategy>(bad).unwrap_err();
            assert!(
                err.to_string()
                    .contains("invalid FitStrategy variant encoding"),
                "{bad}: {err}"
            );
        }
        let missing =
            r#"{"DataParallel":{"workers":2,"batch_records":8,"epochs":1,"learning_rate":0.1}}"#;
        let err = serde_json::from_str::<FitStrategy>(missing).unwrap_err();
        assert!(err.to_string().contains("pairs_per_batch"), "{err}");
    }

    #[test]
    fn serde_roundtrip() {
        let c = IFairConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: IFairConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.k, c.k);
        assert_eq!(back.init, c.init);
        assert_eq!(back.strategy, FitStrategy::FullBatch);
    }

    #[test]
    fn strategy_field_defaults_when_absent() {
        // Configurations serialized before `strategy` existed (PR ≤ 3 model
        // artifacts) must still deserialize, as full-batch.
        let json = serde_json::to_string(&IFairConfig::default()).unwrap();
        let stripped = json.replace("\"strategy\":\"FullBatch\",", "");
        assert_ne!(json, stripped, "strategy field must have been present");
        let back: IFairConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.strategy, FitStrategy::FullBatch);

        let mb = IFairConfig {
            strategy: FitStrategy::mini_batch(),
            ..IFairConfig::default()
        };
        let json = serde_json::to_string(&mb).unwrap();
        let back: IFairConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.strategy, mb.strategy);
    }
}
