//! `.ifb` — the versioned binary dataset format for out-of-core training.
//!
//! A dataset is a set of *shard* files, each fully self-describing:
//!
//! ```text
//! offset  size          contents
//! 0       8             magic  b"IFAIRBIN"
//! 8       4             format version, u32 little-endian (currently 1)
//! 12      4             header length H in bytes, u32 little-endian
//! 16      H             header, JSON (BinShardHeader)
//! 16+H    0..7          zero padding to the next multiple of 8
//! P       rows*cols*8   payload: f64 little-endian, row-major
//! ```
//!
//! The header names the shard's absolute row range (`row_lo`, `n_rows`),
//! the feature width and names, and per-column min/max/mean stats. Because
//! every shard carries its own range, a sharded dataset is just the set of
//! files whose ranges tile `0..M` — there is no index file to corrupt.
//!
//! [`BinDatasetWriter`] streams rows in and emits shards through
//! [`crate::persist::write_atomic`], so a crash mid-conversion leaves only
//! complete shards. [`BinRecordSource`] implements [`RecordSource`] with
//! coalesced positioned reads (`pread` on Unix): each run of requested
//! rows that ascends within one shard, with gaps of at most 4 KiB, is one
//! read of a reusable window of at most 64 KiB. Resident memory is that
//! window plus one header per open shard, independent of the dataset size
//! — the property the out-of-core trainer relies on.
//!
//! Malformed input (bad magic, truncated payload, inconsistent headers)
//! surfaces as a typed [`DataError`]; an unknown format version is
//! [`DataError::Version`]. Nothing in this module panics on file content.

use crate::error::DataError;
use crate::stream::RecordSource;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

/// First 8 bytes of every shard file.
pub const MAGIC: [u8; 8] = *b"IFAIRBIN";

/// The format version this build writes and the only one it reads.
pub const VERSION: u32 = 1;

/// Fixed part of the file prelude: magic + version + header length.
const PRELUDE_LEN: u64 = 16;

/// Largest header this build will attempt to parse (a corrupt length field
/// should fail fast, not allocate gigabytes).
const MAX_HEADER_LEN: u32 = 16 << 20;

/// Default rows per shard for writers that do not choose one: 256k rows of
/// a 16-column dataset is a ~32 MiB shard.
pub const DEFAULT_SHARD_ROWS: usize = 262_144;

/// Largest run of unrequested bytes between two requested rows that one
/// positioned read still spans: copying 4 KiB from the page cache costs
/// less than another read call.
const MAX_GAP_BYTES: usize = 4 << 10;

/// Span of one positioned read and size of the reader's reusable window
/// (one row, if a row is wider).
const WINDOW_BYTES: usize = 64 << 10;

/// Per-column summary statistics over one shard's rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Smallest value in the column.
    pub min: f64,
    /// Largest value in the column.
    pub max: f64,
    /// Arithmetic mean of the column (summed in row order).
    pub mean: f64,
}

/// The JSON header of one `.ifb` shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinShardHeader {
    /// Absolute index of this shard's first row in the full dataset.
    pub row_lo: u64,
    /// Number of rows stored in this shard.
    pub n_rows: u64,
    /// Feature width of every row.
    pub n_features: u64,
    /// Column names, `n_features` of them.
    pub feature_names: Vec<String>,
    /// Per-column stats over this shard's rows, when the writer computed
    /// them (this build always does).
    pub stats: Option<Vec<ColumnStats>>,
}

/// Byte geometry of a parsed shard file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardGeometry {
    /// Offset of the first payload byte.
    pub payload_offset: u64,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// The path of shard `index` for an output stem: `{stem}.{index:05}.ifb`
/// (a trailing `.ifb` on the stem is dropped first, so `--out data.ifb`
/// produces `data.00000.ifb`).
pub fn shard_path(stem: &Path, index: usize) -> PathBuf {
    let s = stem.to_string_lossy();
    let base = s.strip_suffix(".ifb").unwrap_or(&s);
    PathBuf::from(format!("{base}.{index:05}.ifb"))
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> DataError {
    DataError::Parse(format!("{context} {}: {e}", path.display()))
}

/// Reads and validates one shard's prelude and header, without touching
/// the payload — the `ifair inspect` entry point, and the first step of
/// [`BinRecordSource::open`].
pub fn read_shard_header(path: &Path) -> Result<(BinShardHeader, ShardGeometry), DataError> {
    let mut file = File::open(path).map_err(|e| io_err("cannot open", path, e))?;
    let header = parse_prelude(&mut file, path)?;
    let geometry = validate_geometry(&header.0, header.1, &file, path)?;
    Ok((header.0, geometry))
}

/// Parses magic, version and header JSON; returns the header and its
/// padded end offset (= payload offset).
fn parse_prelude(file: &mut File, path: &Path) -> Result<(BinShardHeader, u64), DataError> {
    let mut prelude = [0u8; PRELUDE_LEN as usize];
    file.read_exact(&mut prelude).map_err(|_| {
        DataError::Schema(format!(
            "{} is too short to be an iFair binary dataset shard",
            path.display()
        ))
    })?;
    if prelude[..8] != MAGIC {
        return Err(DataError::Schema(format!(
            "{} is not an iFair binary dataset shard (bad magic)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(prelude[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(DataError::Version {
            found: version,
            supported: VERSION,
        });
    }
    let header_len = u32::from_le_bytes(prelude[12..16].try_into().expect("4 bytes"));
    if header_len == 0 || header_len > MAX_HEADER_LEN {
        return Err(DataError::Schema(format!(
            "{} declares an implausible header length of {header_len} bytes",
            path.display()
        )));
    }
    let mut header_bytes = vec![0u8; header_len as usize];
    file.read_exact(&mut header_bytes).map_err(|_| {
        DataError::Schema(format!("{} is truncated inside its header", path.display()))
    })?;
    let json = std::str::from_utf8(&header_bytes)
        .map_err(|_| DataError::Parse(format!("{} header is not UTF-8", path.display())))?;
    let header: BinShardHeader = serde_json::from_str(json)
        .map_err(|e| DataError::Parse(format!("{} header: {e}", path.display())))?;
    let payload_offset = (PRELUDE_LEN + u64::from(header_len)).next_multiple_of(8);
    Ok((header, payload_offset))
}

/// Checks the header's internal consistency and that the file length
/// matches the declared payload exactly.
fn validate_geometry(
    header: &BinShardHeader,
    payload_offset: u64,
    file: &File,
    path: &Path,
) -> Result<ShardGeometry, DataError> {
    if header.n_features == 0 {
        return Err(DataError::Schema(format!(
            "{} declares zero features",
            path.display()
        )));
    }
    if header.feature_names.len() as u64 != header.n_features {
        return Err(DataError::Schema(format!(
            "{} names {} columns but declares {} features",
            path.display(),
            header.feature_names.len(),
            header.n_features
        )));
    }
    if let Some(stats) = &header.stats {
        if stats.len() as u64 != header.n_features {
            return Err(DataError::Schema(format!(
                "{} carries {} column stats for {} features",
                path.display(),
                stats.len(),
                header.n_features
            )));
        }
    }
    let file_len = file
        .metadata()
        .map_err(|e| io_err("cannot stat", path, e))?
        .len();
    let payload_len = header
        .n_rows
        .checked_mul(header.n_features)
        .and_then(|c| c.checked_mul(8))
        .ok_or_else(|| {
            DataError::Schema(format!("{} declares an absurd row count", path.display()))
        })?;
    let expected = payload_offset + payload_len;
    if file_len < expected {
        return Err(DataError::Schema(format!(
            "{} is truncated: {file_len} bytes on disk, {expected} declared \
             ({} rows × {} features)",
            path.display(),
            header.n_rows,
            header.n_features
        )));
    }
    if file_len > expected {
        return Err(DataError::Schema(format!(
            "{} has {} trailing bytes past the declared payload",
            path.display(),
            file_len - expected
        )));
    }
    Ok(ShardGeometry {
        payload_offset,
        file_len,
    })
}

// ------------------------------------------------------------------ writer

/// Streams rows into sharded `.ifb` files.
///
/// Rows accumulate in memory until the shard is full, then the complete
/// shard (prelude + header + payload) is written atomically. Peak memory
/// is one shard's payload, independent of the total row count.
#[derive(Debug)]
pub struct BinDatasetWriter {
    stem: PathBuf,
    names: Vec<String>,
    shard_rows: usize,
    /// Payload of the shard being filled, row-major.
    buf: Vec<f64>,
    /// Absolute index of the current shard's first row.
    row_lo: u64,
    shards: Vec<PathBuf>,
}

impl BinDatasetWriter {
    /// Starts a writer producing `{stem}.{index:05}.ifb` shards of at most
    /// `shard_rows` rows each (0 means [`DEFAULT_SHARD_ROWS`]).
    pub fn create(
        stem: impl Into<PathBuf>,
        feature_names: Vec<String>,
        shard_rows: usize,
    ) -> Result<BinDatasetWriter, DataError> {
        if feature_names.is_empty() {
            return Err(DataError::Schema(
                "a binary dataset needs at least one feature column".into(),
            ));
        }
        let shard_rows = if shard_rows == 0 {
            DEFAULT_SHARD_ROWS
        } else {
            shard_rows
        };
        Ok(BinDatasetWriter {
            stem: stem.into(),
            names: feature_names,
            shard_rows,
            buf: Vec::new(),
            row_lo: 0,
            shards: Vec::new(),
        })
    }

    /// Appends one row; flushes a shard to disk when it fills.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), DataError> {
        if row.len() != self.names.len() {
            return Err(DataError::Shape(format!(
                "row has {} values, dataset has {} columns",
                row.len(),
                self.names.len()
            )));
        }
        self.buf.extend_from_slice(row);
        if self.buf.len() / self.names.len() >= self.shard_rows {
            self.flush_shard()?;
        }
        Ok(())
    }

    /// Flushes the final partial shard and returns every shard path
    /// written, in row order.
    pub fn finish(mut self) -> Result<Vec<PathBuf>, DataError> {
        if !self.buf.is_empty() {
            self.flush_shard()?;
        }
        if self.shards.is_empty() {
            return Err(DataError::Shape(
                "no rows were written — a dataset needs at least one record".into(),
            ));
        }
        Ok(std::mem::take(&mut self.shards))
    }

    fn flush_shard(&mut self) -> Result<(), DataError> {
        let n = self.names.len();
        let rows = self.buf.len() / n;
        let header = BinShardHeader {
            row_lo: self.row_lo,
            n_rows: rows as u64,
            n_features: n as u64,
            feature_names: self.names.clone(),
            stats: Some(column_stats(&self.buf, n)),
        };
        let json = serde_json::to_string(&header)
            .map_err(|e| DataError::Parse(format!("encoding shard header: {e}")))?;
        let header_bytes = json.as_bytes();
        let payload_offset = (PRELUDE_LEN + header_bytes.len() as u64).next_multiple_of(8);
        let mut bytes = Vec::with_capacity(payload_offset as usize + self.buf.len() * 8);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header_bytes);
        bytes.resize(payload_offset as usize, 0);
        for v in &self.buf {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = shard_path(&self.stem, self.shards.len());
        crate::persist::write_atomic(&path, &bytes)
            .map_err(|e| io_err("cannot write shard", &path, e))?;
        self.shards.push(path);
        self.row_lo += rows as u64;
        self.buf.clear();
        Ok(())
    }
}

/// Min/max/mean per column over a row-major buffer (mean summed in row
/// order, so it is deterministic).
fn column_stats(buf: &[f64], n: usize) -> Vec<ColumnStats> {
    let rows = buf.len() / n;
    let mut stats = vec![
        ColumnStats {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
        };
        n
    ];
    for row in buf.chunks_exact(n) {
        for (s, &v) in stats.iter_mut().zip(row) {
            s.min = s.min.min(v);
            s.max = s.max.max(v);
            s.mean += v;
        }
    }
    for s in &mut stats {
        s.mean /= rows as f64;
    }
    stats
}

// ------------------------------------------------------------------ reader

/// One open shard of a [`BinRecordSource`].
#[derive(Debug)]
struct Shard {
    file: File,
    row_lo: usize,
    n_rows: usize,
    payload_offset: u64,
}

/// Random-access reader over a set of `.ifb` shards.
///
/// Implements [`RecordSource`] with coalesced positioned reads: each
/// `read_rows` call reads the requested rows, plus gaps of at most 4 KiB
/// between them, in windows of at most 64 KiB, so resident memory stays
/// O(1) in the dataset size.
#[derive(Debug)]
pub struct BinRecordSource {
    shards: Vec<Shard>,
    names: Vec<String>,
    n_records: usize,
    n_features: usize,
    /// Reusable read window: [`WINDOW_BYTES`], or one row if wider.
    window: Vec<u8>,
}

impl BinRecordSource {
    /// Opens a sharded dataset. The shards may be given in any order; their
    /// headers must agree on the schema and their row ranges must tile
    /// `0..M` exactly.
    pub fn open<P: AsRef<Path>>(paths: &[P]) -> Result<BinRecordSource, DataError> {
        if paths.is_empty() {
            return Err(DataError::Shape(
                "a binary dataset needs at least one shard file".into(),
            ));
        }
        let mut shards = Vec::with_capacity(paths.len());
        let mut schema: Option<Vec<String>> = None;
        for p in paths {
            let path = p.as_ref();
            let file = File::open(path).map_err(|e| io_err("cannot open", path, e))?;
            let mut f = file;
            let (header, payload_offset) = parse_prelude(&mut f, path)?;
            validate_geometry(&header, payload_offset, &f, path)?;
            match &schema {
                None => schema = Some(header.feature_names.clone()),
                Some(names) if *names != header.feature_names => {
                    return Err(DataError::Schema(format!(
                        "{} disagrees with the other shards on column names",
                        path.display()
                    )));
                }
                Some(_) => {}
            }
            shards.push(Shard {
                file: f,
                row_lo: header.row_lo as usize,
                n_rows: header.n_rows as usize,
                payload_offset,
            });
        }
        shards.sort_by_key(|s| s.row_lo);
        let mut next = 0usize;
        for s in &shards {
            if s.row_lo != next {
                return Err(DataError::Schema(format!(
                    "shard row ranges do not tile the dataset: expected a shard \
                     starting at row {next}, found one starting at {}",
                    s.row_lo
                )));
            }
            next += s.n_rows;
        }
        let names = schema.expect("at least one shard");
        let n_features = names.len();
        Ok(BinRecordSource {
            shards,
            names,
            n_records: next,
            n_features,
            window: vec![0u8; WINDOW_BYTES.max(n_features * 8)],
        })
    }

    /// Column names, shared by every shard.
    pub fn feature_names(&self) -> &[String] {
        &self.names
    }

    /// The absolute row range of each shard, in row order.
    pub fn shard_ranges(&self) -> Vec<std::ops::Range<usize>> {
        self.shards
            .iter()
            .map(|s| s.row_lo..s.row_lo + s.n_rows)
            .collect()
    }

    /// Plans the positioned read that serves `indices[0]`: returns its
    /// shard and how many leading entries of `indices` the same read
    /// covers. A run continues while the next row stays in the shard,
    /// does not descend (a repeat is free), leaves a gap of at most
    /// [`MAX_GAP_BYTES`] after the previous row, and keeps the span from
    /// the run's first row within the window. `indices` must be non-empty
    /// and in range.
    fn plan_run(&self, indices: &[usize]) -> (usize, usize) {
        let row_bytes = self.n_features * 8;
        let first = indices[0];
        let shard_idx = self
            .shards
            .partition_point(|s| s.row_lo + s.n_rows <= first);
        let shard_end = self.shards[shard_idx].row_lo + self.shards[shard_idx].n_rows;
        let window_rows = self.window.len() / row_bytes;
        let mut prev = first;
        let mut len = 1;
        for &next in &indices[1..] {
            let joins = next >= prev
                && next < shard_end
                && (next - prev).saturating_sub(1) * row_bytes <= MAX_GAP_BYTES
                && next - first < window_rows;
            if !joins {
                break;
            }
            prev = next;
            len += 1;
        }
        (shard_idx, len)
    }
}

/// Positioned read: `pread` on Unix (no shared cursor), seek+read
/// elsewhere.
fn read_at(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

impl RecordSource for BinRecordSource {
    fn n_records(&self) -> usize {
        self.n_records
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn read_rows(&mut self, indices: &[usize], out: &mut [f64]) -> Result<(), DataError> {
        crate::stream::check_read(
            self.n_records,
            self.n_features,
            indices,
            out,
            "binary source",
        )?;
        // One positioned read per planned run, then the run's rows are
        // decoded from the window in request order.
        let n = self.n_features;
        let row_bytes = n * 8;
        let mut done = 0;
        while done < indices.len() {
            let (shard_idx, len) = self.plan_run(&indices[done..]);
            let run = &indices[done..done + len];
            let (first, last) = (run[0], run[len - 1]);
            let shard = &self.shards[shard_idx];
            let offset = shard.payload_offset + ((first - shard.row_lo) * row_bytes) as u64;
            let window = &mut self.window[..(last - first + 1) * row_bytes];
            read_at(&shard.file, offset, window).map_err(|e| {
                DataError::Parse(format!(
                    "reading rows {first}..={last} from a dataset shard: {e}"
                ))
            })?;
            for (slot, &index) in out[done * n..(done + len) * n].chunks_exact_mut(n).zip(run) {
                let row = &window[(index - first) * row_bytes..][..row_bytes];
                for (v, bytes) in slot.iter_mut().zip(row.chunks_exact(8)) {
                    *v = f64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                }
            }
            done += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_stem(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ifair-binfmt-{tag}-{}", std::process::id()))
    }

    fn cleanup(paths: &[PathBuf]) {
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    fn write_demo(tag: &str, rows: usize, shard_rows: usize) -> (Vec<PathBuf>, Vec<Vec<f64>>) {
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let mut writer = BinDatasetWriter::create(tmp_stem(tag), names, shard_rows).unwrap();
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| vec![i as f64, -0.5 * i as f64, (i % 7) as f64 / 7.0])
            .collect();
        for row in &data {
            writer.push_row(row).unwrap();
        }
        (writer.finish().unwrap(), data)
    }

    #[test]
    fn roundtrip_across_shards_is_bitwise() {
        let (paths, data) = write_demo("roundtrip", 25, 8);
        assert_eq!(paths.len(), 4, "25 rows at 8/shard");
        let mut source = BinRecordSource::open(&paths).unwrap();
        assert_eq!(source.n_records(), 25);
        assert_eq!(source.n_features(), 3);
        assert_eq!(source.feature_names(), ["a", "b", "c"]);
        // Read rows in scrambled order, crossing shard boundaries.
        let indices = [24, 0, 8, 7, 16, 15, 3];
        let mut out = vec![0.0; indices.len() * 3];
        source.read_rows(&indices, &mut out).unwrap();
        for (slot, &i) in out.chunks_exact(3).zip(&indices) {
            let expect: Vec<u64> = data[i].iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = slot.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "row {i}");
        }
        cleanup(&paths);
    }

    /// Writes `rows` rows of 4 features (32-byte rows, so 4 KiB is exactly
    /// 128 rows) whose every value is distinct.
    fn write_wide(tag: &str, rows: usize, shard_rows: usize) -> Vec<PathBuf> {
        let names = (0..4).map(|c| format!("f{c}")).collect();
        let mut writer = BinDatasetWriter::create(tmp_stem(tag), names, shard_rows).unwrap();
        for i in 0..rows {
            let row: Vec<f64> = (0..4).map(|c| i as f64 * 8.0 + c as f64 + 0.5).collect();
            writer.push_row(&row).unwrap();
        }
        writer.finish().unwrap()
    }

    /// The reader before coalescing: one `read_exact_at` per requested row,
    /// straight from the shard files. Returns the value bits.
    #[cfg(unix)]
    fn per_row_reference(paths: &[PathBuf], indices: &[usize]) -> Vec<u64> {
        use std::os::unix::fs::FileExt;
        let shards: Vec<_> = paths
            .iter()
            .map(|p| {
                let (header, geometry) = read_shard_header(p).unwrap();
                (header, geometry, File::open(p).unwrap())
            })
            .collect();
        let mut bits = Vec::new();
        for &i in indices {
            let (header, geometry, file) = shards
                .iter()
                .find(|(h, _, _)| (h.row_lo..h.row_lo + h.n_rows).contains(&(i as u64)))
                .expect("index in range");
            let width = header.n_features as usize * 8;
            let mut buf = vec![0u8; width];
            let offset = geometry.payload_offset + (i as u64 - header.row_lo) * width as u64;
            file.read_exact_at(&mut buf, offset).unwrap();
            bits.extend(
                buf.chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
            );
        }
        bits
    }

    #[cfg(unix)]
    fn assert_reads_match(source: &mut BinRecordSource, paths: &[PathBuf], indices: &[usize]) {
        let mut out = vec![0.0; indices.len() * source.n_features()];
        source.read_rows(indices, &mut out).unwrap();
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got,
            per_row_reference(paths, indices),
            "indices {indices:?}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn coalesced_reads_match_per_row_reads() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        // Shards of 4096, 4096 and 1808 rows.
        let paths = write_wide("planner", 10_000, 4096);
        let mut source = BinRecordSource::open(&paths).unwrap();
        let m = source.n_records();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let count = rng.gen_range(1..3000usize);
            let mut ascending: Vec<usize> = (0..count).map(|_| rng.gen_range(0..m)).collect();
            ascending.sort_unstable();
            assert_reads_match(&mut source, &paths, &ascending);
            let distinct = {
                let mut d = ascending.clone();
                d.dedup();
                d
            };
            assert_reads_match(&mut source, &paths, &distinct);
            let descending: Vec<usize> = distinct.iter().rev().copied().collect();
            assert_reads_match(&mut source, &paths, &descending);
            let mut shuffled = ascending.clone();
            shuffled.shuffle(&mut rng);
            assert_reads_match(&mut source, &paths, &shuffled);
        }
        let lists: Vec<Vec<usize>> = vec![
            vec![5, 5, 5, 6, 6, 4, 4, 9_999, 9_999, 0, 0],
            (4_090..4_105).chain(8_185..8_200).collect(),
            vec![100, 229],
            vec![100, 230],
            (0..m).collect(),
            (0..m).step_by(3).collect(),
            vec![m - 1],
            vec![9_990, 9_995, m - 1],
        ];
        for indices in &lists {
            assert_reads_match(&mut source, &paths, indices);
        }
        cleanup(&paths);

        let one_row_shards = write_wide("planner-1row", 7, 1);
        assert_eq!(one_row_shards.len(), 7);
        let mut source = BinRecordSource::open(&one_row_shards).unwrap();
        for indices in [vec![0, 1, 2, 3, 4, 5, 6], vec![6, 5, 0, 0, 3], vec![6]] {
            assert_reads_match(&mut source, &one_row_shards, &indices);
        }
        cleanup(&one_row_shards);
    }

    #[test]
    fn runs_break_at_gaps_shards_windows_and_descents() {
        let paths = write_wide("runs", 10_000, 4096);
        let source = BinRecordSource::open(&paths).unwrap();
        // Rows 101..=228 are 128 × 32 B = exactly 4 KiB: one read.
        assert_eq!(source.plan_run(&[100, 229]), (0, 2));
        // One row more is a second read.
        assert_eq!(source.plan_run(&[100, 230]), (0, 1));
        // Repeats join; a descent or a shard boundary ends the run.
        assert_eq!(source.plan_run(&[7, 7, 8, 8, 3]), (0, 4));
        assert_eq!(source.plan_run(&[4_095, 4_096]), (0, 1));
        assert_eq!(source.plan_run(&[4_096, 4_097]), (1, 2));
        // A window holds 64 KiB / 32 B = 2048 rows.
        let all: Vec<usize> = (0..4096).collect();
        assert_eq!(source.plan_run(&all), (0, 2048));
        assert_eq!(source.plan_run(&all[2048..]), (0, 2048));
        assert_eq!(source.plan_run(&[9_999]), (2, 1));
        cleanup(&paths);
    }

    #[test]
    fn a_shard_truncated_after_open_is_a_typed_error() {
        let paths = write_wide("truncated", 100, 50);
        let mut source = BinRecordSource::open(&paths).unwrap();
        let (_, geometry) = read_shard_header(&paths[1]).unwrap();
        File::options()
            .write(true)
            .open(&paths[1])
            .unwrap()
            .set_len(geometry.payload_offset + 10 * 32)
            .unwrap();
        let mut out = vec![0.0; 4 * 2];
        // Rows of the intact shard still read; rows past the cut do not.
        source.read_rows(&[3, 49], &mut out).unwrap();
        let err = source.read_rows(&[55, 70], &mut out).unwrap_err();
        assert!(matches!(err, DataError::Parse(_)), "{err:?}");
        let err = source.read_rows(&[70], &mut out[..4]).unwrap_err();
        assert!(matches!(err, DataError::Parse(_)), "{err:?}");
        cleanup(&paths);
    }

    #[test]
    fn headers_carry_ranges_and_stats() {
        let (paths, _) = write_demo("headers", 10, 6);
        let (h0, g0) = read_shard_header(&paths[0]).unwrap();
        let (h1, _) = read_shard_header(&paths[1]).unwrap();
        assert_eq!((h0.row_lo, h0.n_rows), (0, 6));
        assert_eq!((h1.row_lo, h1.n_rows), (6, 4));
        assert_eq!(g0.payload_offset % 8, 0);
        let stats = h0.stats.unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].min, 0.0);
        assert_eq!(stats[0].max, 5.0);
        assert_eq!(stats[0].mean, 2.5);
        cleanup(&paths);
    }

    #[test]
    fn wrong_magic_version_and_truncation_are_typed_errors() {
        let (paths, _) = write_demo("corrupt", 6, 6);
        let good = std::fs::read(&paths[0]).unwrap();

        let check = |bytes: &[u8], tag: &str| {
            let p = tmp_stem(&format!("corrupt-{tag}")).with_extension("ifb");
            std::fs::write(&p, bytes).unwrap();
            let err = BinRecordSource::open(std::slice::from_ref(&p)).unwrap_err();
            std::fs::remove_file(&p).ok();
            err
        };

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(check(&bad_magic, "magic"), DataError::Schema(_)));

        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            check(&bad_version, "version"),
            DataError::Version {
                found: 7,
                supported: VERSION
            }
        ));

        let truncated = &good[..good.len() - 5];
        assert!(matches!(check(truncated, "trunc"), DataError::Schema(_)));

        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0u8; 3]);
        assert!(matches!(check(&trailing, "trailing"), DataError::Schema(_)));

        assert!(matches!(check(&good[..10], "tiny"), DataError::Schema(_)));

        let mut bad_header = good.clone();
        bad_header[20] = b'!'; // vandalize the header JSON
        assert!(matches!(check(&bad_header, "json"), DataError::Parse(_)));

        cleanup(&paths);
    }

    #[test]
    fn shards_must_tile_and_agree() {
        let (paths, _) = write_demo("tile", 12, 6);
        // Dropping the first shard leaves a gap at row 0.
        let err = BinRecordSource::open(&paths[1..]).unwrap_err();
        assert!(matches!(err, DataError::Schema(_)));
        // Duplicating a shard breaks tiling too.
        let dup = [paths[0].clone(), paths[0].clone(), paths[1].clone()];
        assert!(BinRecordSource::open(&dup).is_err());
        // Shards listed out of order are fine.
        let rev = [paths[1].clone(), paths[0].clone()];
        assert_eq!(BinRecordSource::open(&rev).unwrap().n_records(), 12);
        cleanup(&paths);
    }

    #[test]
    fn writer_rejects_bad_shapes() {
        assert!(BinDatasetWriter::create(tmp_stem("empty"), vec![], 4).is_err());
        let mut w =
            BinDatasetWriter::create(tmp_stem("width"), vec!["a".into(), "b".into()], 4).unwrap();
        assert!(matches!(
            w.push_row(&[1.0]).unwrap_err(),
            DataError::Shape(_)
        ));
        let w2 = BinDatasetWriter::create(tmp_stem("norows"), vec!["a".into()], 4).unwrap();
        assert!(w2.finish().is_err(), "zero rows is an error");
    }

    #[test]
    fn shard_path_strips_ifb_suffix() {
        assert_eq!(
            shard_path(Path::new("data.ifb"), 3),
            PathBuf::from("data.00003.ifb")
        );
        assert_eq!(
            shard_path(Path::new("out/data"), 0),
            PathBuf::from("out/data.00000.ifb")
        );
    }
}
