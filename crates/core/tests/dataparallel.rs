//! Sharded-data parity: the training set may be split across `.ifb` shard
//! files, and a multi-restart mini-batch fit that reads its batches from
//! the shards through
//! [`BinRecordSource`](ifair_data::binfmt::BinRecordSource) must be
//! **bit-identical** to the single-threaded fit over the generator that
//! wrote them, at every thread count. The data plane must be invisible to
//! the numerics.

mod common;

use common::Shards;
use ifair_core::{FitStrategy, IFair, IFairConfig};
use ifair_data::generators::large::{LargeScale, LargeScaleConfig};

/// Seven 64-record batches per epoch over 150-row shards, so batch reads
/// cross shard boundaries, yet small enough to stay fast.
fn config(n_threads: usize) -> IFairConfig {
    IFairConfig {
        k: 3,
        n_restarts: 2,
        n_threads,
        strategy: FitStrategy::MiniBatch {
            batch_records: 64,
            pairs_per_batch: 128,
            epochs: 2,
            learning_rate: 0.05,
        },
        ..Default::default()
    }
}

fn model_bits(model: &IFair) -> (Vec<u64>, Vec<u64>) {
    (
        model.alpha().iter().map(|v| v.to_bits()).collect(),
        model
            .prototypes()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    )
}

#[test]
fn sharded_binary_dataset_trains_to_the_same_bits_as_the_generator() {
    // Materialize the generator into three .ifb shards, then train from
    // the files and from the generator itself.
    let gen = LargeScale::new(LargeScaleConfig {
        n_records: 400,
        n_numeric: 6,
        seed: 3,
        ..Default::default()
    });
    let protected = gen.protected_flags();
    let shards = Shards::write(&gen.materialize(0, 400).unwrap().x, 150, "dp-shards");
    assert_eq!(
        shards.0.len(),
        3,
        "400 rows at 150/shard should be 3 shards"
    );

    let mut source = gen.clone();
    let reference = IFair::fit_source(&mut source, &protected, &config(1)).unwrap();
    for threads in [1usize, 2] {
        let from_shards =
            IFair::fit_source(&mut shards.open(), &protected, &config(threads)).unwrap();
        assert_eq!(
            model_bits(&reference),
            model_bits(&from_shards),
            "fit from shards diverged at {threads} threads"
        );
    }
}
