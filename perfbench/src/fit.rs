//! The `fit-shards` workload: out-of-core mini-batch training from `.ifb`
//! shards, in process.
//!
//! Set-up writes 2^20 `LargeScale` rows (16 numeric features plus the
//! protected bit) into four shards with `BinDatasetWriter`. Each timed
//! operation opens the shards with `BinRecordSource` and runs
//! `IFair::fit_source` with the `MiniBatch` schedule B = 65 536,
//! P = 4 096, K = 4, two epochs. A thin `RecordSource` wrapper stamps each
//! batch read, which splits every fit into its Adam steps: a step runs
//! from one batch read to the next (read, resample, value and gradient,
//! Adam update), and the step is this workload's unit of latency.
//!
//! Correctness: every fit's per-epoch losses and final parameters must be
//! bit-identical to the same fit over the materialized rows, computed
//! after the timed loop.
//!
//! The traced run spends half its time on untraced fits and half on
//! traced ones (spans for open, each epoch and each read). Each traced fit
//! is followed by a replay of its steps — the same batches, from the
//! parameters the fit learned — that times `MiniBatchObjective::resample`
//! (its read as a child span), `Objective::value_and_gradient` and
//! `AdamState::step` separately.

use crate::{print_self_times, write_spans, Args, Report};
use ifair::core::{FitControl, FitStrategy, IFair, IFairConfig, MiniBatchObjective};
use ifair::data::binfmt::{BinDatasetWriter, BinRecordSource};
use ifair::data::generators::large::{LargeScale, LargeScaleConfig};
use ifair::data::{DataError, RecordSource};
use ifair::optim::{AdamConfig, AdamState, Objective};
use ifair_perfbench::report::{Outcome, Provenance};
use ifair_perfbench::stats;
use ifair_perfbench::trace::{self_times, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Training rows written to the shards.
const ROWS: usize = 1 << 20;
/// Rows per shard (four shards).
const SHARD_ROWS: usize = 1 << 18;
/// Numeric features per row; the protected bit is appended.
const N_NUMERIC: usize = 16;
/// Records per mini-batch.
const BATCH: usize = 65_536;
/// Fairness pairs per mini-batch.
const PAIRS: usize = 4_096;
/// Passes over the data per fit.
const EPOCHS: usize = 2;
/// Adam step size.
const LEARNING_RATE: f64 = 0.05;
/// Trainer pool threads: the serial path. At this batch shape a second
/// pool thread buys no speed on two cores and doubles peak RSS.
const THREADS: usize = 1;
/// Fits per untraced run at least, so the step-latency tail (p90 needs
/// 100 steps) is always supported.
const MIN_FITS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn config(seed: u64) -> IFairConfig {
    IFairConfig {
        k: 4,
        n_restarts: 1,
        n_threads: THREADS,
        seed,
        strategy: FitStrategy::MiniBatch {
            batch_records: BATCH,
            pairs_per_batch: PAIRS,
            epochs: EPOCHS,
            learning_rate: LEARNING_RATE,
        },
        ..Default::default()
    }
}

fn generator(seed: u64) -> LargeScale {
    LargeScale::new(LargeScaleConfig {
        n_records: ROWS,
        n_numeric: N_NUMERIC,
        seed,
        ..Default::default()
    })
}

/// The salt the trainer mixes into a restart's seed for its batch
/// sampler. A replay sampler seeded the same way draws the fit's own
/// batches; the batch fingerprints confirm it.
const SAMPLER_SALT: u64 = 0xba7c_4e5a_11d0_57e1;

/// A record source that stamps the start and end of every `read_rows`,
/// and optionally fingerprints the indices each call read.
struct TimedSource<S> {
    inner: S,
    reads: Vec<(Instant, Instant)>,
    fingerprints: Option<Vec<u64>>,
}

impl<S> TimedSource<S> {
    fn new(inner: S, fingerprint: bool) -> TimedSource<S> {
        TimedSource {
            inner,
            reads: Vec::with_capacity(64),
            fingerprints: fingerprint.then(Vec::new),
        }
    }
}

impl<S: RecordSource> RecordSource for TimedSource<S> {
    fn n_records(&self) -> usize {
        self.inner.n_records()
    }

    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn read_rows(&mut self, indices: &[usize], out: &mut [f64]) -> Result<(), DataError> {
        let start = Instant::now();
        let result = self.inner.read_rows(indices, out);
        self.reads.push((start, Instant::now()));
        if let Some(prints) = self.fingerprints.as_mut() {
            let hash = indices.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &i| {
                (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
            prints.push(hash);
        }
        result
    }
}

/// One timed fit: its timestamps and what it learned.
struct FitRun {
    start: Instant,
    opened: Instant,
    end: Instant,
    reads: Vec<(Instant, Instant)>,
    /// Fingerprint of each read's indices (traced fits only).
    fingerprints: Vec<u64>,
    /// Each epoch's end and mean batch loss.
    epochs: Vec<(Instant, f64)>,
    params: Vec<u64>,
}

impl FitRun {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Step durations: from one batch read to the next; the last step
    /// ends with the fit.
    fn steps_ns(&self) -> Vec<f64> {
        let starts: Vec<Instant> = self.reads.iter().map(|&(s, _)| s).collect();
        starts
            .iter()
            .zip(starts.iter().skip(1).chain(std::iter::once(&self.end)))
            .map(|(a, b)| (*b - *a).as_nanos() as f64)
            .collect()
    }

    fn read_ns(&self) -> f64 {
        self.reads
            .iter()
            .map(|&(s, e)| (e - s).as_nanos() as f64)
            .sum()
    }

    fn losses(&self) -> Vec<u64> {
        self.epochs.iter().map(|&(_, l)| l.to_bits()).collect()
    }
}

fn param_bits(model: &IFair) -> Vec<u64> {
    model
        .alpha()
        .iter()
        .chain(model.prototypes().as_slice())
        .map(|v| v.to_bits())
        .collect()
}

fn fit_once(
    shards: &[PathBuf],
    protected: &[bool],
    config: &IFairConfig,
    fingerprint: bool,
) -> Result<FitRun, String> {
    let start = Instant::now();
    let source = BinRecordSource::open(shards).map_err(|e| format!("opening shards: {e}"))?;
    let opened = Instant::now();
    let mut source = TimedSource::new(source, fingerprint);
    let mut epochs = Vec::with_capacity(EPOCHS);
    let model = IFair::fit_source_with_observers(
        &mut source,
        protected,
        config,
        |_| FitControl::Continue,
        |e| {
            epochs.push((Instant::now(), e.mean_batch_loss));
            FitControl::Continue
        },
    )
    .map_err(|e| format!("fit from shards: {e}"))?;
    let end = Instant::now();
    Ok(FitRun {
        start,
        opened,
        end,
        reads: source.reads,
        fingerprints: source.fingerprints.unwrap_or_default(),
        epochs,
        params: param_bits(&model),
    })
}

fn write_shards(gen: &LargeScale, dir: &Path) -> Result<Vec<PathBuf>, String> {
    let width = gen.width();
    let names = (0..width).map(|j| format!("f{j}")).collect();
    let mut writer = BinDatasetWriter::create(dir.join("train"), names, SHARD_ROWS)
        .map_err(|e| format!("shard writer: {e}"))?;
    let mut row = vec![0.0; width];
    for i in 0..ROWS {
        gen.row_into(i, &mut row);
        writer
            .push_row(&row)
            .map_err(|e| format!("writing shards: {e}"))?;
    }
    writer.finish().map_err(|e| format!("writing shards: {e}"))
}

/// Fits back to back until `length` has passed and at least `min_fits`
/// ran.
fn fit_loop(
    shards: &[PathBuf],
    protected: &[bool],
    config: &IFairConfig,
    length: Duration,
    min_fits: usize,
) -> Result<Vec<FitRun>, String> {
    let deadline = Instant::now() + length;
    let mut runs = Vec::new();
    while runs.len() < min_fits || Instant::now() < deadline {
        runs.push(fit_once(shards, protected, config, false)?);
    }
    Ok(runs)
}

pub fn run(args: &Args, dir: &Path, provenance: &Provenance) -> Result<Report, String> {
    let gen = generator(args.seed);
    let protected = gen.protected_flags();
    let config = config(args.seed);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut shards = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        shards = write_shards(&gen, dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }

    ifair_perfbench::reset_peak_rss();
    let (measured, traced) = if args.trace {
        let untraced = fit_loop(&shards, &protected, &config, args.seconds / 2, 1)?;
        let traced = traced_loop(&shards, &protected, &config, args.seconds / 2)?;
        (untraced, Some(traced))
    } else {
        (
            fit_loop(&shards, &protected, &config, args.seconds, MIN_FITS)?,
            None,
        )
    };
    let peak_rss = ifair_perfbench::peak_rss_mib(std::process::id()).unwrap_or(0.0);

    // The reference: the same fit over the materialized rows.
    let x = gen
        .materialize(0, ROWS)
        .map_err(|e| format!("materializing: {e}"))?
        .x;
    let mut ref_losses = Vec::new();
    let reference = IFair::fit_with_observers(
        &x,
        &protected,
        &config,
        |_| FitControl::Continue,
        |e| {
            ref_losses.push(e.mean_batch_loss.to_bits());
            FitControl::Continue
        },
    )
    .map_err(|e| format!("materialized fit: {e}"))?;
    drop(x);
    let ref_params = param_bits(&reference);

    let mut outcome = Outcome::default();
    for run in measured.iter().chain(traced.iter().flat_map(|t| &t.fits)) {
        outcome.tally(run.losses() == ref_losses && run.params == ref_params);
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} fits differ from the materialized fit",
            outcome.failed
        );
    }

    let fit_s: Vec<f64> = measured.iter().map(FitRun::secs).collect();
    let mut steps: Vec<f64> = measured.iter().flat_map(FitRun::steps_ns).collect();
    steps.sort_by(f64::total_cmp);
    let tail = stats::tail_per_mille(steps.len(), 990)
        .ok_or_else(|| format!("only {} steps ran", steps.len()))?;
    let rows_per_s: Vec<f64> = measured
        .iter()
        .map(|r| (r.reads.len() * BATCH.min(ROWS)) as f64 / r.secs())
        .collect();
    outcome.set("setup_s", stats::median(&setup_s));
    outcome.set("req_p50_us", stats::median(&steps) / 1e3);
    outcome.set("req_tail_us", stats::percentile(&steps, tail) / 1e3);
    outcome.set("rows_per_s", stats::median(&rows_per_s));
    outcome.set("peak_rss_mib", peak_rss);
    let mut extra = vec![
        ("req_tail_percentile", f64::from(tail) / 10.0, "pct"),
        ("fit_s", stats::median(&fit_s), "s"),
        ("fit_peak_rss_mib", peak_rss, "MiB"),
        ("fits", measured.len() as f64, "count"),
        ("steps", steps.len() as f64, "count"),
    ];

    if let Some(traced) = traced {
        let Traced {
            fits,
            replays,
            tracer,
        } = traced;
        let median_of = |values: Vec<f64>| stats::median(&values);
        let fit_traced = median_of(fits.iter().map(FitRun::secs).collect());
        extra.push(("traced_fit_s", fit_traced, "s"));
        extra.push(("untraced_fit_s", stats::median(&fit_s), "s"));
        outcome.set(
            "trace.overhead_pct",
            (fit_traced / stats::median(&fit_s) - 1.0) * 100.0,
        );
        let per_fit = |f: &dyn Fn(&FitRun) -> f64| median_of(fits.iter().map(f).collect());
        outcome.set(
            "data.binfmt.open_ms",
            per_fit(&|r| (r.opened - r.start).as_secs_f64() * 1e3),
        );
        outcome.set("data.binfmt.read_ms", per_fit(&|r| r.read_ns() / 1e6));
        outcome.set("data.binfmt.read_calls", per_fit(&|r| r.reads.len() as f64));
        outcome.set(
            "data.binfmt.read_share",
            per_fit(&|r| r.read_ns() / 1e9 / r.secs()),
        );
        outcome.set(
            "core.fit.epoch_s",
            median_of(
                tracer
                    .spans()
                    .iter()
                    .filter(|s| s.name == "core.fit.epoch")
                    .map(|s| s.dur_ns() as f64 / 1e9)
                    .collect(),
            ),
        );
        outcome.set(
            "core.objective.resample_ms",
            median_of(replays.iter().map(|r| r.resample_ns / 1e6).collect()),
        );
        outcome.set(
            "core.objective.vg_ms",
            median_of(replays.iter().map(|r| r.vg_ns / 1e6).collect()),
        );
        outcome.set(
            "optim.adam.step_us",
            median_of(replays.iter().flat_map(|r| r.adam_ns.clone()).collect()) / 1e3,
        );
        // Each replay against the fit it followed, so both saw the same
        // machine.
        outcome.set(
            "core.fit.accounted_share",
            median_of(
                replays
                    .iter()
                    .zip(&fits)
                    .map(|(r, f)| r.total_ns() / 1e9 / f.secs())
                    .collect(),
            ),
        );
        print_self_times(tracer.spans());
        write_spans(&tracer, provenance, args)?;
    }
    Ok(Report { outcome, extra })
}

/// Spans of one traced fit: the fit, its open, its epochs, and each read
/// under the epoch it fell in.
fn record_fit(tracer: &mut Tracer, run: &FitRun, id: u64) {
    let fit = tracer.record("core.fit", run.start, run.end, None, id);
    tracer.record("data.binfmt.open", run.start, run.opened, Some(fit), id);
    let mut epoch_start = run.opened;
    let mut reads = run.reads.iter().peekable();
    for &(epoch_end, _) in &run.epochs {
        let epoch = tracer.record("core.fit.epoch", epoch_start, epoch_end, Some(fit), id);
        while let Some(&&(s, e)) = reads.peek() {
            if s > epoch_end {
                break;
            }
            tracer.record("data.binfmt.read", s, e, Some(epoch), id);
            reads.next();
        }
        epoch_start = epoch_end;
    }
}

/// Layer totals of a step replay.
struct Replayed {
    /// Fingerprint of each batch read.
    fingerprints: Vec<u64>,
    read_ns: f64,
    /// Resample self time: the sampler minus its read.
    resample_ns: f64,
    vg_ns: f64,
    adam_ns: Vec<f64>,
}

impl Replayed {
    /// Time in the four layers that make up a step.
    fn total_ns(&self) -> f64 {
        self.read_ns + self.resample_ns + self.vg_ns + self.adam_ns.iter().sum::<f64>()
    }
}

/// The traced half of a traced run.
struct Traced {
    fits: Vec<FitRun>,
    /// One step replay after each fit.
    replays: Vec<Replayed>,
    tracer: Tracer,
}

/// Alternates traced fits with step replays until `length` has passed
/// (at least one pair), so each replay runs next to the fit it explains.
fn traced_loop(
    shards: &[PathBuf],
    protected: &[bool],
    config: &IFairConfig,
    length: Duration,
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let deadline = epoch + length;
    let mut traced = Traced {
        fits: Vec::new(),
        replays: Vec::new(),
        tracer: Tracer::new(epoch),
    };
    while traced.fits.is_empty() || Instant::now() < deadline {
        let id = traced.fits.len() as u64;
        let run = fit_once(shards, protected, config, true)?;
        record_fit(&mut traced.tracer, &run, id);
        // Replay one fit's worth of steps from the parameters the fit
        // learned (`α` then the prototypes, the optimizer's layout).
        let theta = run.params.iter().map(|&b| f64::from_bits(b)).collect();
        let replay = replay_steps(&mut traced.tracer, shards, protected, config, theta, id)?;
        if replay.fingerprints != run.fingerprints {
            eprintln!("perfbench: the step replay read other batches than the fit it follows");
        }
        traced.fits.push(run);
        traced.replays.push(replay);
    }
    Ok(traced)
}

/// Replays one fit's steps (the same batches, from the parameters the fit
/// learned) over the same shards, each layer in its own span.
fn replay_steps(
    tracer: &mut Tracer,
    shards: &[PathBuf],
    protected: &[bool],
    config: &IFairConfig,
    mut theta: Vec<f64>,
    replay: u64,
) -> Result<Replayed, String> {
    let source = BinRecordSource::open(shards).map_err(|e| format!("opening shards: {e}"))?;
    let mut source = TimedSource::new(source, true);
    let mut objective = MiniBatchObjective::new(source.n_records(), protected, config);
    let dim = objective.dim();
    let steps = EPOCHS * source.n_records().div_ceil(objective.batch_records());
    let mut rng = StdRng::seed_from_u64(config.seed ^ SAMPLER_SALT);
    let mut grad = vec![0.0; dim];
    let mut adam = AdamState::new(dim);
    let adam_config = AdamConfig {
        learning_rate: LEARNING_RATE,
        ..Default::default()
    };
    let first = tracer.spans().len();
    for step in 0..steps {
        // Step spans share an id apart from the fits' ids.
        let id = (replay + 1) * 1_000_000 + step as u64;
        let root = tracer.open("core.step", None, id);
        let resample = tracer.open("core.objective.resample", Some(root), id);
        objective
            .resample(&mut source, &mut rng)
            .map_err(|e| format!("resample: {e}"))?;
        tracer.close(resample);
        let &(s, e) = source.reads.last().expect("resample reads its batch");
        tracer.record("data.binfmt.read", s, e, Some(resample), id);
        tracer.time("core.objective.value_and_gradient", Some(root), id, || {
            objective.value_and_gradient(&theta, &mut grad)
        });
        tracer.time("optim.adam.step", Some(root), id, || {
            adam.step(&mut theta, &grad, &adam_config)
        });
        tracer.close(root);
    }
    let own = self_times(tracer.spans());
    let (spans, own) = (&tracer.spans()[first..], &own[first..]);
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t as f64)
            .sum()
    };
    Ok(Replayed {
        fingerprints: source.fingerprints.unwrap_or_default(),
        read_ns: total("data.binfmt.read"),
        resample_ns: total("core.objective.resample"),
        vg_ns: total("core.objective.value_and_gradient"),
        adam_ns: spans
            .iter()
            .filter(|s| s.name == "optim.adam.step")
            .map(|s| s.dur_ns() as f64)
            .collect(),
    })
}
