//! Multi-process data-parallel training.
//!
//! [`IFair::fit_data_parallel`] runs the mini-batch trainer with the
//! per-step chunk sweeps spread over a fleet of **worker processes**
//! (`ifair-dp-worker`), each of which opens the dataset itself — the
//! coordinator never holds the data, so its resident memory is a function
//! of the batch shape, never of `M`. The split follows the same fixed
//! chunk layouts as the in-process thread pools and the coordinator folds
//! worker partials in global chunk order, so a data-parallel fit is
//! **bit-identical** to the single-process [`crate::FitStrategy::MiniBatch`]
//! fit with the same schedule — at every worker count and every
//! `n_threads` inside the workers. The parity tests in
//! `tests/dataparallel.rs` pin that contract.
//!
//! # Protocol
//!
//! Coordinator and workers speak length-prefixed frames
//! ([`ifair_api::ipc`]) over the workers' stdin/stdout pipes:
//!
//! ```text
//! C → W   HELLO     JSON: worker index, fleet size, data spec, mask, config
//! W → C   READY     M, N of the worker's locally-opened source
//! C → W   READ      record indices to fetch (batch sampling)
//! W → C   ROWS      the requested rows, row-major f64
//! C → W   EVAL      θ, batch matrix, fairness pairs
//! W → C   FAIR      per owned fairness chunk: loss, touched ∂/∂x̃ rows, ∂/∂α
//! C → W   BACK      the worker's backprop row band of ∂L/∂x̃
//! W → C   BACKGRAD  per owned record chunk: ∂L/∂V, ∂L/∂α
//! C → W   SHUTDOWN  clean exit
//! W → C   ERROR     fatal worker-side failure (message)
//! ```
//!
//! Any worker death (pipe EOF) or `ERROR` frame surfaces as
//! [`FitError::Worker`]; dropping the cluster kills and reaps every child,
//! so no fit outcome leaks zombie processes.

use crate::checkpoint::FitCheckpoint;
use crate::config::IFairConfig;
use crate::model::{check_protected, fit_mini_batch, FitControl, IFair};
use crate::objective::{
    worker_row_band, BackPartial, DpExecutor, DpWorkerKernel, FairPair, FairPartial,
};
use ifair_api::ipc::{read_frame, write_frame, PayloadReader, PayloadWriter};
use ifair_api::{faults, ConfigError, FitError};
use ifair_data::generators::large::{LargeScale, LargeScaleConfig};
use ifair_data::stream::RecordSource;
use ifair_data::{BinRecordSource, CsvRecordSource, DataError};
use ifair_linalg::Matrix;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io::{BufReader, Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::rc::Rc;

/// Frame tags of the coordinator/worker protocol (see the module docs).
mod tag {
    pub const HELLO: u8 = 1;
    pub const READY: u8 = 2;
    pub const READ: u8 = 3;
    pub const ROWS: u8 = 4;
    pub const EVAL: u8 = 5;
    pub const FAIR: u8 = 6;
    pub const BACK: u8 = 7;
    pub const BACKGRAD: u8 = 8;
    pub const SHUTDOWN: u8 = 9;
    pub const ERROR: u8 = 10;
}

/// Environment variable naming the worker executable, overriding the
/// next-to-the-current-binary discovery (tests point it at the Cargo-built
/// binary; deployments can pin an absolute path).
pub const WORKER_ENV: &str = "IFAIR_DP_WORKER";

/// Worker-side fault-injection hook (builds with the `fault-injection`
/// feature only): `"<worker-index>:<call>[,<call>...]"` schedules panics at
/// the named worker's EVAL steps — how the crash tests kill one worker
/// mid-epoch without touching the others.
pub const FAULT_ENV: &str = "IFAIR_DP_FAULT_PANIC";

/// Where a data-parallel fleet reads its training records. Every worker
/// opens the spec independently (same paths, same generator seed), so the
/// spec must describe the *same* logical dataset on every worker — shared
/// filesystem paths or a deterministic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DpDataSpec {
    /// Sharded `.ifb` binary dataset files ([`ifair_data::binfmt`]), any
    /// order; together they must tile `0..M`.
    Bin {
        /// Shard paths.
        paths: Vec<String>,
    },
    /// A numeric CSV file with a header row, accessed through the
    /// stride-indexed [`CsvRecordSource`].
    Csv {
        /// File path.
        path: String,
    },
    /// The seeded on-demand generator ([`ifair_data::generators::large`]) —
    /// no files at all; rows are pure functions of the seed.
    LargeScale {
        /// Generator shape and seed.
        config: LargeScaleConfig,
    },
}

impl DpDataSpec {
    /// Opens the spec as a [`RecordSource`].
    pub fn open(&self) -> Result<Box<dyn RecordSource>, DataError> {
        match self {
            DpDataSpec::Bin { paths } => Ok(Box::new(BinRecordSource::open(paths)?)),
            DpDataSpec::Csv { path } => Ok(Box::new(CsvRecordSource::open(path)?)),
            DpDataSpec::LargeScale { config } => Ok(Box::new(LargeScale::new(config.clone()))),
        }
    }
}

/// The HELLO payload: everything a worker needs to open its source and
/// mirror the coordinator's kernel configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DpHello {
    worker: usize,
    workers: usize,
    spec: DpDataSpec,
    protected: Vec<bool>,
    config: IFairConfig,
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// One spawned worker process with its pipe endpoints.
struct WorkerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// The coordinator's shared state: the fleet plus the dataset shape agreed
/// in the handshake.
struct ClusterInner {
    procs: Vec<WorkerProc>,
    m: usize,
    n: usize,
    /// Clamped batch size `B` — fixed by `(config, M)`, identically derived
    /// by every worker.
    b: usize,
    /// Record-range ownership for batch reads: worker `w` serves source
    /// indices in `row_parts[w]`.
    row_parts: Vec<Range<usize>>,
}

impl ClusterInner {
    fn send(&mut self, w: usize, frame_tag: u8, payload: &[u8]) -> Result<(), FitError> {
        let stdin = self.procs[w]
            .stdin
            .as_mut()
            .expect("worker stdin taken only on drop");
        write_frame(stdin, frame_tag, payload)
            .map_err(|e| FitError::Worker(format!("worker {w}: pipe write failed: {e}")))
    }

    /// Receives one frame from worker `w`, turning EOF and ERROR frames
    /// into typed failures.
    fn recv(&mut self, w: usize, want: u8) -> Result<Vec<u8>, FitError> {
        match read_frame(&mut self.procs[w].stdout) {
            Ok(Some((t, payload))) if t == tag::ERROR => Err(FitError::Worker(format!(
                "worker {w}: {}",
                String::from_utf8_lossy(&payload)
            ))),
            Ok(Some((t, payload))) if t == want => Ok(payload),
            Ok(Some((t, _))) => Err(FitError::Worker(format!(
                "worker {w}: protocol error: expected frame tag {want}, got {t}"
            ))),
            Ok(None) => Err(FitError::Worker(format!(
                "worker {w} exited unexpectedly (pipe closed)"
            ))),
            Err(e) => Err(FitError::Worker(format!(
                "worker {w}: pipe read failed: {e}"
            ))),
        }
    }
}

impl Drop for ClusterInner {
    fn drop(&mut self) {
        // Kill-then-reap, never wait-first: a worker blocked writing a full
        // pipe would otherwise deadlock a graceful shutdown. SHUTDOWN is
        // sent best-effort so a healthy fleet exits cleanly in the gap.
        for (w, proc_) in self.procs.iter_mut().enumerate() {
            if let Some(stdin) = proc_.stdin.as_mut() {
                let _ = write_frame(stdin, tag::SHUTDOWN, &[]);
            }
            drop(proc_.stdin.take());
            let _ = proc_.child.kill();
            let _ = proc_.child.wait();
            let _ = w;
        }
    }
}

/// Locates the `ifair-dp-worker` executable: [`WORKER_ENV`] override first,
/// then next to the current executable, then one directory up (the Cargo
/// target layout for test binaries, which live in `target/<profile>/deps/`).
fn worker_binary() -> Result<PathBuf, FitError> {
    if let Some(p) = std::env::var_os(WORKER_ENV) {
        return Ok(PathBuf::from(p));
    }
    let name = format!("ifair-dp-worker{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe()
        .map_err(|e| FitError::Worker(format!("cannot locate current executable: {e}")))?;
    let mut dirs = Vec::new();
    if let Some(dir) = exe.parent() {
        dirs.push(dir.to_path_buf());
        if let Some(up) = dir.parent() {
            dirs.push(up.to_path_buf());
        }
    }
    for dir in &dirs {
        let cand = dir.join(&name);
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(FitError::Worker(format!(
        "cannot locate the {name} binary (looked next to the current executable); \
         build it with `cargo build -p ifair-core --bin ifair-dp-worker` or set {WORKER_ENV}"
    )))
}

/// A running data-parallel fleet: spawns on construction, kills and reaps
/// on drop. Implements [`DpExecutor`] (the per-step broadcast/fold half)
/// while [`ClusterSource`] serves the batch sampler reads.
pub(crate) struct DpCluster {
    inner: Rc<RefCell<ClusterInner>>,
}

impl DpCluster {
    /// Spawns `workers` processes, handshakes, and verifies every worker
    /// sees the same dataset shape.
    pub(crate) fn spawn(
        spec: &DpDataSpec,
        protected: &[bool],
        config: &IFairConfig,
        workers: usize,
    ) -> Result<DpCluster, FitError> {
        let bin = worker_binary()?;
        let mut procs = Vec::with_capacity(workers);
        for w in 0..workers {
            let mut child = Command::new(&bin)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| FitError::Worker(format!("cannot spawn {}: {e}", bin.display())))?;
            let stdin = child.stdin.take().expect("stdin piped");
            let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
            procs.push(WorkerProc {
                child,
                stdin: Some(stdin),
                stdout,
            });
            let _ = w;
        }
        let mut inner = ClusterInner {
            procs,
            m: 0,
            n: 0,
            b: 0,
            row_parts: Vec::new(),
        };
        for w in 0..workers {
            let hello = DpHello {
                worker: w,
                workers,
                spec: spec.clone(),
                protected: protected.to_vec(),
                config: config.clone(),
            };
            let json = serde_json::to_string(&hello)
                .map_err(|e| FitError::Serialization(e.to_string()))?;
            inner.send(w, tag::HELLO, json.as_bytes())?;
        }
        for w in 0..workers {
            let payload = inner.recv(w, tag::READY)?;
            let mut r = PayloadReader::new(&payload);
            let (m, n) = (|| -> std::io::Result<(usize, usize)> {
                let m = r.get_usize()?;
                let n = r.get_usize()?;
                r.finish()?;
                Ok((m, n))
            })()
            .map_err(|e| FitError::Worker(format!("worker {w}: malformed READY: {e}")))?;
            if w == 0 {
                inner.m = m;
                inner.n = n;
            } else if (m, n) != (inner.m, inner.n) {
                return Err(FitError::Worker(format!(
                    "worker {w} sees a {m}x{n} dataset but worker 0 sees {}x{} — \
                     the data spec must resolve identically on every worker",
                    inner.m, inner.n
                )));
            }
        }
        let (batch_records, ..) = config
            .strategy
            .schedule()
            .expect("DataParallel carries a schedule");
        inner.b = batch_records.min(inner.m).max(1);
        inner.row_parts = crate::par::chunk_ranges(inner.m, workers);
        Ok(DpCluster {
            inner: Rc::new(RefCell::new(inner)),
        })
    }

    pub(crate) fn m(&self) -> usize {
        self.inner.borrow().m
    }

    pub(crate) fn n(&self) -> usize {
        self.inner.borrow().n
    }

    /// A [`RecordSource`] view of the fleet for the batch sampler: reads
    /// are partitioned by record range and served by the owning workers.
    pub(crate) fn source(&self) -> ClusterSource {
        ClusterSource {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// Collects one partial-carrying reply frame (FAIR or BACKGRAD) from every
/// worker in fleet order, appending `(chunk index, payload)` entries parsed
/// by `parse`, then verifies the concatenation covers exactly
/// `0..n_chunks` in order — the global fold order the coordinator's
/// summation tree requires.
fn collect_partials<T>(
    inner: &mut ClusterInner,
    want: u8,
    n_chunks: usize,
    parse: impl Fn(&mut PayloadReader<'_>) -> std::io::Result<T>,
) -> Result<Vec<T>, FitError> {
    let workers = inner.procs.len();
    let mut out = Vec::with_capacity(n_chunks);
    for w in 0..workers {
        let payload = inner.recv(w, want)?;
        let mut r = PayloadReader::new(&payload);
        (|| -> std::io::Result<()> {
            let count = r.get_usize()?;
            for _ in 0..count {
                let chunk = r.get_usize()?;
                if chunk != out.len() {
                    return Err(std::io::Error::other(format!(
                        "chunk {chunk} arrived out of order (expected {})",
                        out.len()
                    )));
                }
                out.push(parse(&mut r)?);
            }
            r.finish()
        })()
        .map_err(|e| FitError::Worker(format!("worker {w}: malformed frame {want}: {e}")))?;
    }
    if out.len() != n_chunks {
        return Err(FitError::Worker(format!(
            "fleet returned {} chunks, coordinator expected {n_chunks}",
            out.len()
        )));
    }
    Ok(out)
}

impl DpExecutor for DpCluster {
    fn start_step(
        &mut self,
        theta: &[f64],
        x: &Matrix,
        pairs: &[FairPair],
    ) -> Result<(), FitError> {
        let mut w = PayloadWriter::new();
        w.put_f64s(theta);
        w.put_f64s(x.as_slice());
        w.put_usize(pairs.len());
        for p in pairs {
            w.put_usize(p.i);
            w.put_usize(p.j);
            w.put_f64(p.target);
        }
        let payload = w.into_bytes();
        let mut inner = self.inner.borrow_mut();
        for w in 0..inner.procs.len() {
            inner.send(w, tag::EVAL, &payload)?;
        }
        Ok(())
    }

    fn collect_fair(&mut self, n_chunks: usize) -> Result<Vec<FairPartial>, FitError> {
        let mut inner = self.inner.borrow_mut();
        let (b, n) = (inner.b, inner.n);
        collect_partials(&mut inner, tag::FAIR, n_chunks, |r| {
            let loss = r.get_f64()?;
            let ga = r.get_f64s()?;
            let n_rows = r.get_usize()?;
            let mut rows = Vec::with_capacity(n_rows.min(b));
            for _ in 0..n_rows {
                rows.push(r.get_usize()?);
            }
            let gx = r.get_f64s()?;
            // The coordinator folds these rows straight into ∂L/∂x̃.
            let ascending = rows.windows(2).all(|w| w[0] < w[1]);
            if ga.len() != n
                || !ascending
                || rows.last().is_some_and(|&row| row >= b)
                || gx.len() != rows.len() * n
            {
                return Err(std::io::Error::other(
                    "fairness partial does not match the batch shape",
                ));
            }
            Ok(FairPartial { loss, rows, gx, ga })
        })
    }

    fn start_back(&mut self, g_xt: &[f64]) -> Result<(), FitError> {
        let mut inner = self.inner.borrow_mut();
        let (b, n, workers) = (inner.b, inner.n, inner.procs.len());
        for w in 0..workers {
            let band = worker_row_band(b, w, workers);
            let mut pw = PayloadWriter::new();
            pw.put_f64s(&g_xt[band.start * n..band.end * n]);
            inner.send(w, tag::BACK, &pw.into_bytes())?;
        }
        Ok(())
    }

    fn collect_back(&mut self, n_chunks: usize) -> Result<Vec<BackPartial>, FitError> {
        let mut inner = self.inner.borrow_mut();
        collect_partials(&mut inner, tag::BACKGRAD, n_chunks, |r| {
            let gv = r.get_f64s()?;
            let ga = r.get_f64s()?;
            Ok(BackPartial { gv, ga })
        })
    }
}

/// The fleet as a [`RecordSource`]: `read_rows` splits the (ascending)
/// index list along the fixed per-worker record ranges, ships one READ per
/// owning worker, and reassembles the replies in request order — the batch
/// sampler cannot tell it apart from a local source.
pub(crate) struct ClusterSource {
    inner: Rc<RefCell<ClusterInner>>,
}

/// Worker failures inside the sampler surface as [`DataError`] (the
/// [`RecordSource`] error type); the message keeps the worker context.
fn worker_data_error(e: FitError) -> DataError {
    DataError::Parse(e.to_string())
}

impl RecordSource for ClusterSource {
    fn n_records(&self) -> usize {
        self.inner.borrow().m
    }

    fn n_features(&self) -> usize {
        self.inner.borrow().n
    }

    fn read_rows(&mut self, indices: &[usize], out: &mut [f64]) -> Result<(), DataError> {
        let mut inner = self.inner.borrow_mut();
        let n = inner.n;
        if out.len() != indices.len() * n {
            return Err(DataError::Shape(format!(
                "cluster source: output buffer holds {} values but {} rows x {n} features \
                 were requested",
                out.len(),
                indices.len()
            )));
        }
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DataError::Shape(
                "cluster source requires strictly ascending record indices".into(),
            ));
        }
        if let Some(&last) = indices.last() {
            if last >= inner.m {
                return Err(DataError::Shape(format!(
                    "cluster source: record index {last} out of range for {} records",
                    inner.m
                )));
            }
        }
        // Split the ascending index list along the worker ranges; each
        // sub-request stays contiguous in `indices` (and thus in `out`).
        let parts: Vec<(usize, Range<usize>)> = inner
            .row_parts
            .clone()
            .into_iter()
            .enumerate()
            .map(|(w, range)| {
                let lo = indices.partition_point(|&i| i < range.start);
                let hi = indices.partition_point(|&i| i < range.end);
                (w, lo..hi)
            })
            .filter(|(_, r)| !r.is_empty())
            .collect();
        for &(w, ref r) in &parts {
            let mut pw = PayloadWriter::new();
            pw.put_usize(r.len());
            for &i in &indices[r.clone()] {
                pw.put_usize(i);
            }
            inner
                .send(w, tag::READ, &pw.into_bytes())
                .map_err(worker_data_error)?;
        }
        for &(w, ref r) in &parts {
            let payload = inner.recv(w, tag::ROWS).map_err(worker_data_error)?;
            let mut reader = PayloadReader::new(&payload);
            (|| -> std::io::Result<()> {
                reader.get_f64s_into(&mut out[r.start * n..r.end * n])?;
                reader.finish()
            })()
            .map_err(|e| DataError::Parse(format!("worker {w}: malformed ROWS reply: {e}")))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Extracts the worker count, rejecting every other strategy with a
/// pointer at the right entry point.
fn require_data_parallel(config: &IFairConfig) -> Result<usize, FitError> {
    match config.strategy {
        crate::config::FitStrategy::DataParallel { workers, .. } => Ok(workers),
        _ => Err(FitError::Config(ConfigError::new(
            "strategy",
            "data-parallel fitting requires FitStrategy::DataParallel (single-process \
             training goes through IFair::fit / IFair::fit_source)",
        ))),
    }
}

fn run_data_parallel(
    spec: &DpDataSpec,
    protected: &[bool],
    config: &IFairConfig,
    resume: Option<&FitCheckpoint>,
    checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
) -> Result<IFair, FitError> {
    let workers = require_data_parallel(config)?;
    let cluster = DpCluster::spawn(spec, protected, config, workers)?;
    let (m, n) = (cluster.m(), cluster.n());
    if m == 0 || n == 0 {
        return Err(ifair_api::shape_error("empty record source"));
    }
    check_protected(protected, n)?;
    let mut source = cluster.source();
    let mut exec = cluster;
    fit_mini_batch(
        &mut source,
        protected,
        config,
        |_| FitControl::Continue,
        |_| FitControl::Continue,
        resume,
        checkpoint_sink,
        Some(&mut exec),
    )
}

impl IFair {
    /// Fits with [`crate::FitStrategy::DataParallel`]: `workers` processes
    /// each open `spec` themselves and split every mini-batch step along
    /// the kernel's fixed chunk layouts, while this coordinator samples
    /// batches, folds the partial gradients in global chunk order, and
    /// takes the Adam steps. **Bit-identical** to a single-process
    /// [`crate::FitStrategy::MiniBatch`] fit with the same schedule, at
    /// every worker count — the whole point of the chunk-fold discipline.
    ///
    /// Requires the `ifair-dp-worker` binary next to the current executable
    /// (or named by the `IFAIR_DP_WORKER` environment variable).
    pub fn fit_data_parallel(
        spec: &DpDataSpec,
        protected: &[bool],
        config: &IFairConfig,
    ) -> Result<IFair, FitError> {
        IFair::fit_data_parallel_checkpointed(spec, protected, config, |_| Ok(()))
    }

    /// [`IFair::fit_data_parallel`] with a [`FitCheckpoint`] sink invoked
    /// after every completed epoch (see [`IFair::fit_checkpointed`] for
    /// the crash-recovery contract — the data-parallel loop shares it).
    pub fn fit_data_parallel_checkpointed(
        spec: &DpDataSpec,
        protected: &[bool],
        config: &IFairConfig,
        checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
    ) -> Result<IFair, FitError> {
        config.validate()?;
        run_data_parallel(spec, protected, config, None, checkpoint_sink)
    }

    /// Continues an interrupted data-parallel fit from `checkpoint` —
    /// bit-identical to the uninterrupted run, like
    /// [`IFair::resume_from_checkpoint`]. The checkpoint carries config and
    /// mask; `spec` must name the same dataset the fit started on.
    pub fn resume_data_parallel_from_checkpoint(
        spec: &DpDataSpec,
        checkpoint: &FitCheckpoint,
        checkpoint_sink: impl FnMut(&FitCheckpoint) -> Result<(), FitError>,
    ) -> Result<IFair, FitError> {
        let protected = checkpoint.protected.clone();
        let config = checkpoint.config.clone();
        run_data_parallel(spec, &protected, &config, Some(checkpoint), checkpoint_sink)
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Installs a panic fault plan for this worker when [`FAULT_ENV`] names it
/// (`"<worker>:<call>[,<call>...]"`, 1-based EVAL call numbers).
#[cfg(feature = "fault-injection")]
fn install_fault_plan(worker: usize) {
    let Ok(spec) = std::env::var(FAULT_ENV) else {
        return;
    };
    let Some((who, calls)) = spec.split_once(':') else {
        return;
    };
    if who.trim().parse::<usize>() != Ok(worker) {
        return;
    }
    let calls: Vec<u64> = calls
        .split(',')
        .filter_map(|c| c.trim().parse().ok())
        .collect();
    if !calls.is_empty() {
        faults::install(faults::FaultPlan::new(0).panic_on("core.dp.worker.eval", &calls));
    }
}

/// The worker process body behind the `ifair-dp-worker` binary: handshake
/// on stdin/stdout, then serve READ / EVAL / BACK frames until SHUTDOWN
/// (or coordinator EOF). Returns a process exit code; fatal errors are
/// reported to the coordinator as an ERROR frame first.
pub fn worker_main() -> std::process::ExitCode {
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    match run_worker(stdin, stdout) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            // Best-effort: the coordinator may already be gone.
            let mut out = std::io::stdout().lock();
            let _ = write_frame(&mut out, tag::ERROR, msg.as_bytes());
            std::process::ExitCode::FAILURE
        }
    }
}

fn io_msg(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn run_worker(mut input: impl Read, mut output: impl Write) -> Result<(), String> {
    let Some((t, payload)) = read_frame(&mut input).map_err(io_msg("reading HELLO"))? else {
        return Err("coordinator closed the pipe before HELLO".into());
    };
    if t != tag::HELLO {
        return Err(format!("expected HELLO, got frame tag {t}"));
    }
    let json = std::str::from_utf8(&payload).map_err(|e| format!("HELLO is not UTF-8: {e}"))?;
    let hello: DpHello =
        serde_json::from_str(json).map_err(|e| format!("cannot parse HELLO: {e}"))?;
    #[cfg(feature = "fault-injection")]
    install_fault_plan(hello.worker);

    let mut source = hello
        .spec
        .open()
        .map_err(|e| format!("cannot open data spec: {e}"))?;
    let (m, n) = (source.n_records(), source.n_features());
    if hello.protected.len() != n {
        return Err(format!(
            "protected mask has {} columns but the source has {n}",
            hello.protected.len()
        ));
    }
    let Some((batch_records, ..)) = hello.config.strategy.schedule() else {
        return Err("config strategy carries no batch schedule".into());
    };
    let b = batch_records.min(m).max(1);
    let dim = n * (hello.config.k + 1);
    let mut kernel = DpWorkerKernel::new(n, b, hello.worker, hello.workers, &hello.config);

    let mut ready = PayloadWriter::new();
    ready.put_usize(m);
    ready.put_usize(n);
    write_frame(&mut output, tag::READY, &ready.into_bytes()).map_err(io_msg("sending READY"))?;

    let mut x = Matrix::zeros(b, n);
    let mut theta = vec![0.0; dim];
    let mut pairs: Vec<FairPair> = Vec::new();
    let mut row_buf: Vec<f64> = Vec::new();
    loop {
        let Some((t, payload)) = read_frame(&mut input).map_err(io_msg("reading frame"))? else {
            // Coordinator dropped the cluster (its own error path); a plain
            // exit here is the expected teardown, not a failure.
            return Ok(());
        };
        let mut r = PayloadReader::new(&payload);
        match t {
            tag::READ => {
                let count = r.get_usize().map_err(io_msg("READ count"))?;
                let mut indices = Vec::with_capacity(count);
                for _ in 0..count {
                    indices.push(r.get_usize().map_err(io_msg("READ index"))?);
                }
                r.finish().map_err(io_msg("READ trailer"))?;
                row_buf.resize(count * n, 0.0);
                source
                    .read_rows(&indices, &mut row_buf)
                    .map_err(|e| format!("reading rows: {e}"))?;
                let mut pw = PayloadWriter::new();
                pw.put_f64s(&row_buf);
                write_frame(&mut output, tag::ROWS, &pw.into_bytes())
                    .map_err(io_msg("sending ROWS"))?;
            }
            tag::EVAL => {
                faults::check_panic("core.dp.worker.eval");
                r.get_f64s_into(&mut theta).map_err(io_msg("EVAL theta"))?;
                r.get_f64s_into(x.as_mut_slice())
                    .map_err(io_msg("EVAL batch"))?;
                let n_pairs = r.get_usize().map_err(io_msg("EVAL pair count"))?;
                pairs.clear();
                pairs.reserve(n_pairs);
                for _ in 0..n_pairs {
                    let i = r.get_usize().map_err(io_msg("EVAL pair"))?;
                    let j = r.get_usize().map_err(io_msg("EVAL pair"))?;
                    let target = r.get_f64().map_err(io_msg("EVAL pair"))?;
                    pairs.push(FairPair { i, j, target });
                }
                r.finish().map_err(io_msg("EVAL trailer"))?;
                let partials = kernel.eval_step(&x, &pairs, &theta);
                let mut pw = PayloadWriter::new();
                pw.put_usize(partials.len());
                for (chunk, part) in &partials {
                    pw.put_usize(*chunk);
                    pw.put_f64(part.loss);
                    pw.put_f64s(&part.ga);
                    pw.put_usize(part.rows.len());
                    for &row in &part.rows {
                        pw.put_usize(row);
                    }
                    pw.put_f64s(&part.gx);
                }
                write_frame(&mut output, tag::FAIR, &pw.into_bytes())
                    .map_err(io_msg("sending FAIR"))?;
            }
            tag::BACK => {
                let band = worker_row_band(b, hello.worker, hello.workers);
                row_buf.resize(band.len() * n, 0.0);
                r.get_f64s_into(&mut row_buf).map_err(io_msg("BACK rows"))?;
                r.finish().map_err(io_msg("BACK trailer"))?;
                let partials = kernel.back_step(&x, &theta, &row_buf);
                let mut pw = PayloadWriter::new();
                pw.put_usize(partials.len());
                for (chunk, part) in &partials {
                    pw.put_usize(*chunk);
                    pw.put_f64s(&part.gv);
                    pw.put_f64s(&part.ga);
                }
                write_frame(&mut output, tag::BACKGRAD, &pw.into_bytes())
                    .map_err(io_msg("sending BACKGRAD"))?;
            }
            tag::SHUTDOWN => return Ok(()),
            other => return Err(format!("unexpected frame tag {other}")),
        }
    }
}
