//! Crash-safe checkpoints for mini-batch training.
//!
//! A [`FitCheckpoint`] is a complete snapshot of a
//! [`crate::FitStrategy::MiniBatch`] fit at an epoch boundary: the
//! parameter vector, the Adam moments, the sampler RNG's raw state, the
//! sampler's persistent shuffle state, and every completed restart so far.
//! [`crate::IFair::fit_checkpointed`] emits one after each epoch;
//! [`crate::IFair::resume_from_checkpoint`] replays the fit from the
//! snapshot and produces a model **bit-identical** to the uninterrupted
//! run — the training loop's state is a pure function of the seed, and the
//! checkpoint captures all of it.
//!
//! Checkpoints persist through the same schema-versioned JSON envelope as
//! model artifacts (kind `"ifair-checkpoint"`), written atomically
//! ([`ifair_api::write_atomic`]) so a crash mid-save leaves the previous
//! checkpoint intact, never a torn file.

use crate::config::IFairConfig;
use crate::model::RestartReport;
use crate::objective::SamplerState;
use ifair_api::{shape_error, FitError};
use ifair_optim::AdamState;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Kind tag of the versioned JSON envelope written by
/// [`FitCheckpoint::to_json`].
const CHECKPOINT_KIND: &str = "ifair-checkpoint";

/// A resumable epoch-boundary snapshot of a mini-batch fit.
///
/// Produced by [`crate::IFair::fit_checkpointed`] (and friends), consumed
/// by [`crate::IFair::resume_from_checkpoint`]. The snapshot carries its
/// own config and protected mask, so resuming needs only the checkpoint
/// and the training data; every field is re-validated against both before
/// any training step runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitCheckpoint {
    /// Hyper-parameters of the interrupted fit.
    pub(crate) config: IFairConfig,
    /// Per-column protected flags of the interrupted fit.
    pub(crate) protected: Vec<bool>,
    /// Record count of the training source (the sampler schedule and epoch
    /// length depend on it).
    pub(crate) n_records: usize,
    /// Zero-based restart in progress.
    pub(crate) restart: usize,
    /// Epochs completed within that restart (1-based: checkpoints are only
    /// written after a completed epoch).
    pub(crate) epoch: usize,
    /// Adam steps taken within that restart.
    pub(crate) steps_done: usize,
    /// Parameter vector at the boundary.
    pub(crate) theta: Vec<f64>,
    /// Adam moment state at the boundary.
    pub(crate) adam: AdamState,
    /// The sampler RNG's raw xoshiro256++ state (4 words).
    pub(crate) rng_state: Vec<u64>,
    /// The sampler's persistent shuffle state (see
    /// [`crate::objective::SamplerState`]).
    pub(crate) sampler: SamplerState,
    /// Mean batch loss of the last completed epoch.
    pub(crate) last_epoch_mean: f64,
    /// Reports of the restarts completed before the one in progress.
    pub(crate) restarts: Vec<RestartReport>,
    /// Parameters of the best completed restart, if any.
    pub(crate) best_theta: Option<Vec<f64>>,
    /// Index into `restarts` of that best restart.
    pub(crate) best_restart: Option<usize>,
}

impl FitCheckpoint {
    /// Zero-based index of the restart this checkpoint interrupts.
    pub fn restart(&self) -> usize {
        self.restart
    }

    /// Epochs completed within the interrupted restart.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Adam steps taken within the interrupted restart.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Record count of the training source this checkpoint belongs to.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Mean batch loss of the last completed epoch.
    pub fn last_epoch_mean(&self) -> f64 {
        self.last_epoch_mean
    }

    /// Serializes the checkpoint into the schema-versioned JSON envelope.
    pub fn to_json(&self) -> Result<String, FitError> {
        ifair_api::to_versioned_json(CHECKPOINT_KIND, self)
    }

    /// Parses a checkpoint from the versioned envelope, checking schema
    /// version and kind before touching the payload. Shape validation
    /// against the training data happens at resume time.
    pub fn from_json(json: &str) -> Result<FitCheckpoint, FitError> {
        ifair_api::from_versioned_json(CHECKPOINT_KIND, json)
    }

    /// Writes the checkpoint to `path` atomically (temp file + fsync +
    /// rename): a crash mid-save leaves the previous checkpoint readable,
    /// never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), FitError> {
        let json = self.to_json()?;
        ifair_api::write_atomic(path, json.as_bytes()).map_err(|e| {
            FitError::Serialization(format!("writing checkpoint `{}`: {e}", path.display()))
        })
    }

    /// Reads a checkpoint previously written by [`FitCheckpoint::save`].
    pub fn load(path: &Path) -> Result<FitCheckpoint, FitError> {
        let json = std::fs::read_to_string(path).map_err(|e| {
            FitError::Serialization(format!("reading checkpoint `{}`: {e}", path.display()))
        })?;
        FitCheckpoint::from_json(&json)
    }

    /// Validates the checkpoint's internal consistency against a training
    /// source of `m` records and `n` features — everything short of the
    /// sampler shuffle state, which
    /// [`crate::objective::MiniBatchObjective::restore_sampler_state`]
    /// checks itself.
    pub(crate) fn validate(&self, m: usize, n: usize) -> Result<(), FitError> {
        self.config.validate()?;
        let Some((_, _, epochs, _)) = self.config.strategy.schedule() else {
            return Err(FitError::Config(ifair_api::ConfigError {
                field: "strategy",
                message: "checkpoint carries an unbatched strategy — only mini-batch fits \
                          are checkpointable"
                    .into(),
            }));
        };
        if self.protected.len() != n {
            return Err(shape_error(format!(
                "checkpoint protected mask has length {}, training data has {n} columns",
                self.protected.len()
            )));
        }
        if self.n_records != m {
            return Err(shape_error(format!(
                "checkpoint was taken against {} records, source has {m} — the sampler \
                 schedule would diverge",
                self.n_records
            )));
        }
        if self.restart >= self.config.n_restarts {
            return Err(shape_error(format!(
                "checkpoint restart {} out of range for {} restarts",
                self.restart, self.config.n_restarts
            )));
        }
        if self.restarts.len() != self.restart {
            return Err(shape_error(format!(
                "checkpoint carries {} completed restart reports but interrupts restart {}",
                self.restarts.len(),
                self.restart
            )));
        }
        if self.epoch == 0 || self.epoch > epochs {
            return Err(shape_error(format!(
                "checkpoint epoch {} out of range 1..={epochs}",
                self.epoch
            )));
        }
        let dim = n * (self.config.k + 1);
        if self.theta.len() != dim {
            return Err(shape_error(format!(
                "checkpoint theta has dimension {}, expected {dim}",
                self.theta.len()
            )));
        }
        if self.adam.first_moment().len() != dim {
            return Err(shape_error(format!(
                "checkpoint Adam state has dimension {}, expected {dim}",
                self.adam.first_moment().len()
            )));
        }
        if !self.theta.iter().all(|v| v.is_finite()) {
            return Err(shape_error("checkpoint theta contains non-finite values"));
        }
        if self.rng_state.len() != 4 || self.rng_state.iter().all(|&w| w == 0) {
            return Err(shape_error(
                "checkpoint RNG state must be 4 words and not all zero",
            ));
        }
        match (&self.best_theta, self.best_restart) {
            (None, None) => {}
            (Some(theta), Some(idx)) => {
                if theta.len() != dim {
                    return Err(shape_error(format!(
                        "checkpoint best theta has dimension {}, expected {dim}",
                        theta.len()
                    )));
                }
                if idx >= self.restarts.len() {
                    return Err(shape_error(format!(
                        "checkpoint best restart {idx} not among the {} completed restarts",
                        self.restarts.len()
                    )));
                }
            }
            _ => {
                return Err(shape_error(
                    "checkpoint best theta and best restart must be present together",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FitStrategy, IFairConfig};

    fn base_config() -> IFairConfig {
        IFairConfig {
            k: 2,
            strategy: FitStrategy::MiniBatch {
                epochs: 4,
                batch_records: 8,
                pairs_per_batch: 16,
                learning_rate: 0.01,
            },
            ..Default::default()
        }
    }

    fn base_checkpoint() -> FitCheckpoint {
        let config = base_config();
        let n = 3;
        let dim = n * (config.k + 1);
        FitCheckpoint {
            config,
            protected: vec![false, false, true],
            n_records: 20,
            restart: 0,
            epoch: 2,
            steps_done: 6,
            theta: vec![0.25; dim],
            adam: AdamState::new(dim),
            rng_state: vec![1, 2, 3, 4],
            sampler: SamplerState {
                perm: Vec::new(),
                pair_order: Vec::new(),
            },
            last_epoch_mean: 1.5,
            restarts: Vec::new(),
            best_theta: None,
            best_restart: None,
        }
    }

    #[test]
    fn json_roundtrip_is_bitwise() {
        let cp = base_checkpoint();
        let json = cp.to_json().unwrap();
        let back = FitCheckpoint::from_json(&json).unwrap();
        assert_eq!(back.theta, cp.theta);
        assert_eq!(back.adam, cp.adam);
        assert_eq!(back.rng_state, cp.rng_state);
        assert_eq!(back.sampler, cp.sampler);
        assert_eq!(back.restart, cp.restart);
        assert_eq!(back.epoch, cp.epoch);
        assert_eq!(back.steps_done, cp.steps_done);
        assert_eq!(back.last_epoch_mean.to_bits(), cp.last_epoch_mean.to_bits());
    }

    #[test]
    fn save_load_roundtrips_through_disk() {
        let cp = base_checkpoint();
        let path =
            std::env::temp_dir().join(format!("ifair-checkpoint-test-{}.json", std::process::id()));
        cp.save(&path).unwrap();
        let back = FitCheckpoint::load(&path).unwrap();
        assert_eq!(back.theta, cp.theta);
        assert_eq!(back.epoch, cp.epoch);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_accepts_a_consistent_checkpoint() {
        base_checkpoint().validate(20, 3).unwrap();
    }

    #[test]
    fn validate_rejects_shape_drift() {
        // Record count changed since the checkpoint was taken.
        assert!(base_checkpoint().validate(21, 3).is_err());
        // Feature width changed.
        assert!(base_checkpoint().validate(20, 4).is_err());
        // Theta truncated (a corrupt or hand-edited file).
        let mut cp = base_checkpoint();
        cp.theta.pop();
        assert!(cp.validate(20, 3).is_err());
        // RNG state torn down to zero.
        let mut cp = base_checkpoint();
        cp.rng_state = vec![0, 0, 0, 0];
        assert!(cp.validate(20, 3).is_err());
        // Restart index beyond the configured restarts.
        let mut cp = base_checkpoint();
        cp.restart = 99;
        assert!(cp.validate(20, 3).is_err());
        // Epoch 0 never produces a checkpoint.
        let mut cp = base_checkpoint();
        cp.epoch = 0;
        assert!(cp.validate(20, 3).is_err());
        // Best fields must come in pairs.
        let mut cp = base_checkpoint();
        cp.best_restart = Some(0);
        assert!(cp.validate(20, 3).is_err());
    }

    #[test]
    fn full_batch_checkpoints_are_rejected() {
        let mut cp = base_checkpoint();
        cp.config.strategy = FitStrategy::FullBatch;
        assert!(matches!(
            cp.validate(20, 3).unwrap_err(),
            FitError::Config(_)
        ));
    }
}
