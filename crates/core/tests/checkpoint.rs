//! Crash-safe training contract: a mini-batch fit resumed from any
//! epoch-boundary checkpoint — including one that took a round trip through
//! its JSON artifact, and one resumed over sharded `.ifb` files — must be
//! **bit-identical** to the uninterrupted fit, at every thread count.

mod common;

use common::Shards;
use ifair_core::{FitCheckpoint, FitStrategy, IFair, IFairConfig};
use ifair_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 120 records x 4 features (last protected), dense enough to exercise the
/// persistent-permutation sampler paths on both records and pairs.
fn training_data() -> (Matrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(23);
    let rows: Vec<Vec<f64>> = (0..120)
        .map(|_| {
            let mut row: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            row.push(f64::from(rng.gen_bool(0.5)));
            row
        })
        .collect();
    (
        Matrix::from_rows(rows).unwrap(),
        vec![false, false, false, true],
    )
}

fn config(n_threads: usize) -> IFairConfig {
    IFairConfig {
        k: 3,
        n_restarts: 2,
        n_threads,
        strategy: FitStrategy::MiniBatch {
            // 48 of 120 records and 200 of 1128 pairs: the record draw takes
            // the rejection path, the pair draw takes the dense persistent-
            // shuffle path, so both sampler states matter to the outcome.
            batch_records: 48,
            pairs_per_batch: 200,
            epochs: 3,
            learning_rate: 0.05,
        },
        ..Default::default()
    }
}

fn model_bits(model: &IFair) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    (
        model.alpha().iter().map(|v| v.to_bits()).collect(),
        model
            .prototypes()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        model
            .report()
            .restarts
            .iter()
            .map(|r| r.loss.to_bits())
            .collect(),
    )
}

/// Runs an uninterrupted checkpointed fit, returning the model and every
/// checkpoint the sink saw.
fn fit_collecting(
    x: &Matrix,
    protected: &[bool],
    config: &IFairConfig,
) -> (IFair, Vec<FitCheckpoint>) {
    let mut checkpoints = Vec::new();
    let model = IFair::fit_checkpointed(x, protected, config, |cp| {
        checkpoints.push(cp.clone());
        Ok(())
    })
    .unwrap();
    (model, checkpoints)
}

#[test]
fn resume_from_every_boundary_is_bit_identical() {
    let (x, protected) = training_data();
    let config = config(1);
    let (reference, checkpoints) = fit_collecting(&x, &protected, &config);
    let ref_bits = model_bits(&reference);
    // 2 restarts x 3 epochs = 6 boundaries, every one a valid resume point.
    assert_eq!(checkpoints.len(), 6);
    for (i, cp) in checkpoints.iter().enumerate() {
        let resumed = IFair::resume_from_checkpoint(&x, cp, |_| Ok(())).unwrap();
        assert_eq!(
            ref_bits,
            model_bits(&resumed),
            "resume from checkpoint {i} (restart {}, epoch {}) diverged",
            cp.restart(),
            cp.epoch()
        );
        assert_eq!(
            resumed.report().best_restart,
            reference.report().best_restart
        );
    }
}

#[test]
fn resume_survives_the_json_artifact_roundtrip() {
    // The crash scenario end to end: checkpoint -> atomic save -> process
    // dies -> load -> resume. Must still be bit-identical.
    let (x, protected) = training_data();
    let config = config(1);
    let (reference, checkpoints) = fit_collecting(&x, &protected, &config);
    let cp = &checkpoints[2]; // mid-fit: restart 0 done 3 epochs? index 2 = restart 0, epoch 3
    let path = std::env::temp_dir().join(format!(
        "ifair-resume-roundtrip-{}.json",
        std::process::id()
    ));
    cp.save(&path).unwrap();
    let loaded = FitCheckpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let resumed = IFair::resume_from_checkpoint(&x, &loaded, |_| Ok(())).unwrap();
    assert_eq!(model_bits(&reference), model_bits(&resumed));
}

#[test]
fn resume_is_thread_count_invariant() {
    // Checkpoints taken at any thread count resume to the same bits at any
    // other thread count: the chunk layouts are functions of the problem
    // size, and the sampler state lives on the training thread.
    let (x, protected) = training_data();
    let (reference, _) = fit_collecting(&x, &protected, &config(1));
    let ref_bits = model_bits(&reference);
    for take_threads in [1usize, 2, 4] {
        let (_, checkpoints) = fit_collecting(&x, &protected, &config(take_threads));
        // Resume from the mid-restart-1 boundary under a different pool size.
        let mut cp = checkpoints[4].clone();
        assert_eq!((cp.restart(), cp.epoch()), (1, 2));
        for resume_threads in [1usize, 2, 4] {
            cp = {
                // Rewriting n_threads through the JSON artifact mirrors a
                // real migration to a host with a different core count.
                let mut json = cp.to_json().unwrap();
                json = json.replace(
                    &format!("\"n_threads\":{take_threads}"),
                    &format!("\"n_threads\":{resume_threads}"),
                );
                FitCheckpoint::from_json(&json).unwrap()
            };
            let resumed = IFair::resume_from_checkpoint(&x, &cp, |_| Ok(())).unwrap();
            assert_eq!(
                ref_bits,
                model_bits(&resumed),
                "checkpoint from {take_threads} threads resumed on {resume_threads} diverged"
            );
        }
    }
}

#[test]
fn resume_over_ifb_shards_is_bit_identical() {
    // The out-of-core recipe: train from `.ifb` shards with per-epoch
    // checkpoints, then reopen the shards and resume from a mid-fit
    // checkpoint, as after a crash. Both fits must land on the bits of the
    // uninterrupted in-memory fit.
    let (x, protected) = training_data();
    let config = config(1);
    let (reference, _) = fit_collecting(&x, &protected, &config);
    let shards = Shards::write(&x, 50, "resume-shards");
    assert_eq!(shards.0.len(), 3, "120 rows at 50/shard should be 3 shards");

    let mut checkpoints = Vec::new();
    let uninterrupted =
        IFair::fit_source_checkpointed(&mut shards.open(), &protected, &config, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .unwrap();
    assert_eq!(model_bits(&reference), model_bits(&uninterrupted));
    assert_eq!(checkpoints.len(), 6);
    // Mid-restart 0 (epoch 2 of 3) and mid-restart 1 (epoch 2 of 3).
    for idx in [1usize, 4] {
        let resumed =
            IFair::resume_source_from_checkpoint(&mut shards.open(), &checkpoints[idx], |_| Ok(()))
                .unwrap();
        assert_eq!(
            model_bits(&reference),
            model_bits(&resumed),
            "resume over shards from checkpoint {idx} diverged"
        );
    }
}

#[test]
fn legacy_data_parallel_checkpoint_resumes_bit_identically() {
    // Multi-process fits stored their strategy as `DataParallel`: the four
    // mini-batch schedule fields plus a worker count. Such a checkpoint
    // resumes as the mini-batch fit it was bit-identical to.
    let (x, protected) = training_data();
    let (reference, checkpoints) = fit_collecting(&x, &protected, &config(1));
    let json = checkpoints[1].to_json().unwrap();
    let legacy = json.replace(r#"{"MiniBatch":{"#, r#"{"DataParallel":{"workers":2,"#);
    assert_ne!(json, legacy, "the strategy must have been rewritten");
    let cp = FitCheckpoint::from_json(&legacy).unwrap();
    assert_eq!(cp.to_json().unwrap(), json, "re-encodes as MiniBatch");
    let resumed = IFair::resume_from_checkpoint(&x, &cp, |_| Ok(())).unwrap();
    assert_eq!(model_bits(&reference), model_bits(&resumed));
}

#[test]
fn resumed_fit_keeps_checkpointing_the_remaining_epochs() {
    let (x, protected) = training_data();
    let config = config(1);
    let (_, checkpoints) = fit_collecting(&x, &protected, &config);
    let cp = &checkpoints[1]; // restart 0, epoch 2 of 3
    let mut seen = Vec::new();
    IFair::resume_from_checkpoint(&x, cp, |c| {
        seen.push((c.restart(), c.epoch()));
        Ok(())
    })
    .unwrap();
    // One epoch left in restart 0, then all of restart 1.
    assert_eq!(seen, vec![(0, 3), (1, 1), (1, 2), (1, 3)]);
}

#[test]
fn sink_failure_aborts_the_fit() {
    // Training past a checkpoint that failed to persist would silently widen
    // the crash window, so a sink error is a fit error.
    let (x, protected) = training_data();
    let err = IFair::fit_checkpointed(&x, &protected, &config(1), |_| {
        Err(ifair_core::FitError::Serialization("disk full".into()))
    })
    .unwrap_err();
    assert!(err.to_string().contains("disk full"));
}

#[test]
fn checkpointing_requires_mini_batch() {
    let (x, protected) = training_data();
    let config = IFairConfig {
        strategy: FitStrategy::FullBatch,
        ..config(1)
    };
    assert!(matches!(
        IFair::fit_checkpointed(&x, &protected, &config, |_| Ok(())),
        Err(ifair_core::FitError::Config(_))
    ));
}

#[test]
fn resume_rejects_mismatched_data() {
    let (x, protected) = training_data();
    let (_, checkpoints) = fit_collecting(&x, &protected, &config(1));
    let cp = &checkpoints[0];
    // Record count drifted: the sampler schedule would silently diverge.
    let fewer = Matrix::from_rows((0..100).map(|i| x.row(i).to_vec()).collect()).unwrap();
    assert!(IFair::resume_from_checkpoint(&fewer, cp, |_| Ok(())).is_err());
    // Feature width drifted.
    let narrower = Matrix::from_rows((0..120).map(|i| x.row(i)[..3].to_vec()).collect()).unwrap();
    assert!(IFair::resume_from_checkpoint(&narrower, cp, |_| Ok(())).is_err());
}
