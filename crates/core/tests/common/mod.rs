//! Support shared by the integration suites.

use ifair_data::binfmt::{BinDatasetWriter, BinRecordSource};
use ifair_linalg::Matrix;
use std::path::PathBuf;

/// The rows of a matrix written to `.ifb` shards of `shard_rows` rows under
/// a temporary stem named after `tag`; the files are deleted on drop.
pub struct Shards(pub Vec<PathBuf>);

impl Shards {
    pub fn write(x: &Matrix, shard_rows: usize, tag: &str) -> Shards {
        let stem = std::env::temp_dir().join(format!("ifair-{tag}-{}", std::process::id()));
        let names = (0..x.cols()).map(|j| format!("f{j}")).collect();
        let mut writer = BinDatasetWriter::create(stem, names, shard_rows).unwrap();
        for i in 0..x.rows() {
            writer.push_row(x.row(i)).unwrap();
        }
        Shards(writer.finish().unwrap())
    }

    pub fn open(&self) -> BinRecordSource {
        BinRecordSource::open(&self.0).unwrap()
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        for path in &self.0 {
            std::fs::remove_file(path).ok();
        }
    }
}
