//! The `ifair` command-line front end.
//!
//! ```sh
//! # Serve one or more fitted artifacts:
//! ifair serve --model credit=model.json --addr 127.0.0.1:8080 --threads 4
//!
//! # Write a small demo pipeline artifact (used by the CI smoke job and the
//! # serving guide in the README):
//! ifair demo-artifact demo.json
//!
//! # Demonstrate crash-safe training: fit, "crash" mid-fit, resume from the
//! # checkpoint artifact, and verify the result is bit-identical:
//! ifair checkpoint-demo demo-checkpoint.json
//!
//! # Convert data into the sharded binary dataset format and look inside:
//! ifair convert --csv records.csv --out data --shard-rows 100000
//! ifair convert --generate 10000000,12,7 --out big
//! ifair inspect big.00000.ifb
//!
//! # Certify an artifact offline: per-row (ε, δ) fairness certificates and
//! # the certified fraction at a threshold grid:
//! ifair certify --model demo.json --eps 0.01,0.05 --delta 0.1,0.25
//! ```

use ifair::core::par::WorkerPool;
use ifair::core::{FitStrategy, IFair, IFairConfig};
use ifair::data::binfmt::{read_shard_header, BinDatasetWriter};
use ifair::data::generators::large::{LargeScale, LargeScaleConfig};
use ifair::data::{ChunkedCsvReader, DataError, Dataset};
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_serve::registry::read_artifact;
use ifair_serve::{
    Artifact, ModelRegistry, ModelSpec, PollBackend, ServeError, Server, ServerConfig,
};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ifair serve --model [name=]path.json[@f32] [--model ...] [options]
              (run `ifair serve --help` for every serving flag)
  ifair demo-artifact <out.json>
  ifair checkpoint-demo <checkpoint.json>
  ifair convert (--csv <in.csv> | --generate M[,N_NUMERIC[,SEED]])
                --out <stem> [--shard-rows N]
  ifair inspect <shard.ifb>
  ifair certify --model [name=]path.json[@f32] --eps E[,E2,...]
                [--delta D[,D2,...]] [--csv <rows.csv>] [--threads N]

`checkpoint-demo` runs a mini-batch fit that checkpoints every epoch to the
given path (atomically), simulates a crash partway, resumes from the saved
checkpoint, and verifies the resumed model is bit-identical.
`convert` streams a numeric CSV (or the seeded large-scale generator) into
sharded `.ifb` binary dataset files (`{stem}.{index:05}.ifb`) with O(chunk)
memory; `inspect` prints one shard's header without reading its payload.
`certify` computes per-row individual-fairness certificates for an artifact
offline: for every radius in --eps it bounds, soundly, how far any input
within that L-inf ball can move in representation space, and reports the
certified fraction at each --delta threshold. Rows come from --csv; without
it the built-in 3-feature demo rows are used (matching `demo-artifact`).";

/// `ifair serve --help`. Every flag listed here must be documented in
/// `docs/SERVING.md` — CI's doc-lint step diffs the two.
const SERVE_HELP: &str = "ifair serve — event-driven HTTP inference server

usage:
  ifair serve --model [name=]path.json[@f32] [--model ...] [options]

options:
  --model [name=]path.json[@f32]   artifact to serve (repeatable; the name
                                   defaults to the file stem; a @f32 suffix
                                   serves that model's iFair transform in
                                   single precision — artifacts stay f64 on
                                   disk)
  --addr HOST:PORT                 listen address (default 127.0.0.1:8080;
                                   port 0 picks an ephemeral port)
  --addr-file PATH                 write the bound address to PATH once
                                   listening (ephemeral-port discovery for
                                   scripts)
  --threads N                      forward-pass worker-pool lanes
                                   (default 0 = all hardware threads)
  --queue-capacity N               bounded job queue between the reactor and
                                   the batcher; a full queue answers 503
                                   (default 128)
  --max-batch-rows N               row cap of one coalesced micro-batch
                                   (default 512)
  --max-connections N              open-connection cap; connections over it
                                   are shed with 503 at accept
                                   (default 1024; 0 = unlimited)
  --keep-alive-requests N          requests served per keep-alive connection
                                   before the server closes it
                                   (default 0 = unlimited)
  --admission-per-model N          per-model in-flight request cap; requests
                                   over it answer 429 with Retry-After
                                   (default 0 = unlimited)
  --poll-backend auto|epoll|poll   readiness backend (default auto: epoll on
                                   Linux, poll(2) elsewhere)
  --help                           print this help

Requests may carry an X-Ifair-Deadline-Ms header: a total budget in
milliseconds from first byte; work whose budget expires is shed with 503
before compute. See docs/SERVING.md for the operations runbook (wire
format, degradation ladder, every /metrics series, tuning).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("demo-artifact") => demo_artifact(&args[1..]),
        Some("checkpoint-demo") => checkpoint_demo(&args[1..]),
        Some("convert") => convert(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("certify") => certify(&args[1..]),
        _ => Err(ServeError::Config(format!(
            "unknown or missing subcommand\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ifair: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `serve` flags.
struct ServeArgs {
    specs: Vec<ModelSpec>,
    addr: String,
    addr_file: Option<String>,
    config: ServerConfig,
    help: bool,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, ServeError> {
    let mut parsed = ServeArgs {
        specs: Vec::new(),
        addr: "127.0.0.1:8080".into(),
        addr_file: None,
        config: ServerConfig::default(),
        help: false,
    };
    let mut iter = args.iter();
    let value = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| ServeError::Config(format!("{flag} needs a value")))
    };
    let parse_usize = |flag: &str, raw: String| {
        raw.parse::<usize>()
            .map_err(|_| ServeError::Config(format!("{flag} expects an integer, got `{raw}`")))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--model" => parsed
                .specs
                .push(ModelSpec::parse(&value("--model", &mut iter)?)?),
            "--addr" => parsed.addr = value("--addr", &mut iter)?,
            "--addr-file" => parsed.addr_file = Some(value("--addr-file", &mut iter)?),
            "--threads" => {
                parsed.config.n_threads = parse_usize("--threads", value("--threads", &mut iter)?)?
            }
            "--queue-capacity" => {
                parsed.config.queue_capacity =
                    parse_usize("--queue-capacity", value("--queue-capacity", &mut iter)?)?
            }
            "--max-batch-rows" => {
                parsed.config.max_batch_rows =
                    parse_usize("--max-batch-rows", value("--max-batch-rows", &mut iter)?)?
            }
            "--max-connections" => {
                parsed.config.max_connections =
                    parse_usize("--max-connections", value("--max-connections", &mut iter)?)?
            }
            "--keep-alive-requests" => {
                parsed.config.keep_alive_requests = parse_usize(
                    "--keep-alive-requests",
                    value("--keep-alive-requests", &mut iter)?,
                )?
            }
            "--admission-per-model" => {
                parsed.config.admission_per_model = parse_usize(
                    "--admission-per-model",
                    value("--admission-per-model", &mut iter)?,
                )?
            }
            "--poll-backend" => {
                let raw = value("--poll-backend", &mut iter)?;
                parsed.config.backend = match raw.as_str() {
                    "auto" => PollBackend::Auto,
                    "epoll" => PollBackend::Epoll,
                    "poll" => PollBackend::Poll,
                    other => {
                        return Err(ServeError::Config(format!(
                            "--poll-backend expects auto|epoll|poll, got `{other}`"
                        )))
                    }
                };
            }
            "--help" => parsed.help = true,
            other => {
                return Err(ServeError::Config(format!(
                    "unknown flag `{other}`\n{USAGE}"
                )))
            }
        }
    }
    Ok(parsed)
}

fn serve(args: &[String]) -> Result<(), ServeError> {
    let args = parse_serve_args(args)?;
    if args.help {
        println!("{SERVE_HELP}");
        return Ok(());
    }
    let registry = ModelRegistry::load(args.specs)?;
    let models: Vec<String> = registry
        .precision_labels()
        .iter()
        .map(|(name, precision)| format!("{name} ({precision})"))
        .collect();
    let server = Server::bind(&args.addr, registry, args.config.clone())?;
    let addr = server.addr();
    println!(
        "ifair-serve listening on http://{addr} ({} backend)",
        server.backend_name()
    );
    println!("  models: {}", models.join(", "));
    println!("  pool threads: {} (0 = hardware)", args.config.n_threads);
    println!("  try: curl http://{addr}/healthz");
    if let Some(path) = &args.addr_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| ServeError::io(format!("writing --addr-file {path}"), e))?;
    }
    server.spawn().wait();
    Ok(())
}

/// Fits a small, fully deterministic demo pipeline (scale → iFair →
/// logistic regression, 3 input features) and writes its artifact.
fn demo_artifact(args: &[String]) -> Result<(), ServeError> {
    let [out] = args else {
        return Err(ServeError::Config(format!(
            "demo-artifact takes exactly one output path\n{USAGE}"
        )));
    };
    let ds = demo_dataset();
    let pipeline = Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 3,
            max_iters: 40,
            n_restarts: 1,
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(&ds)
        .map_err(|e| ServeError::Config(format!("fitting the demo pipeline: {e}")))?;
    let json = pipeline
        .to_json()
        .map_err(|e| ServeError::Config(format!("serializing the demo pipeline: {e}")))?;
    // Atomic write: a crash (or a concurrent server reload) sees either no
    // file or the complete artifact, never a torn prefix.
    ifair::api::write_atomic(std::path::Path::new(out), json.as_bytes())
        .map_err(|e| ServeError::io(format!("writing {out}"), e))?;
    println!("wrote demo pipeline artifact to {out}");
    println!("  input width: 3 features ([qualification, experience, gender])");
    println!("  serve it:    ifair serve --model demo={out} --addr 127.0.0.1:8080");
    println!(
        "  query it:    curl -s -X POST http://127.0.0.1:8080/v1/models/demo/transform \\\n               -d '{{\"rows\":[[0.9,0.4,1.0],[0.9,0.4,0.0]]}}'"
    );
    Ok(())
}

/// Fits a mini-batch model that checkpoints every epoch, simulates a crash
/// partway through, resumes from the on-disk checkpoint, and verifies the
/// resumed model is bit-identical to an uninterrupted fit.
fn checkpoint_demo(args: &[String]) -> Result<(), ServeError> {
    let [out] = args else {
        return Err(ServeError::Config(format!(
            "checkpoint-demo takes exactly one checkpoint path\n{USAGE}"
        )));
    };
    let path = std::path::PathBuf::from(out);
    let ds = demo_dataset();
    let x = &ds.x;
    let protected = &ds.protected;
    let config = IFairConfig {
        k: 3,
        n_restarts: 2,
        strategy: FitStrategy::MiniBatch {
            batch_records: 32,
            pairs_per_batch: 150,
            epochs: 4,
            learning_rate: 0.05,
        },
        ..Default::default()
    };
    let fit_err = |e: ifair::core::FitError| ServeError::Config(format!("checkpoint demo: {e}"));

    // The reference: the same fit, never interrupted.
    let reference = IFair::fit_checkpointed(x, protected, &config, |_| Ok(())).map_err(fit_err)?;

    // The "crash": every epoch checkpoints atomically to disk, and training
    // aborts after the third checkpoint — mid-restart, mid-schedule.
    let mut saved = 0u32;
    let crashed = IFair::fit_checkpointed(x, protected, &config, |cp| {
        cp.save(&path)?;
        saved += 1;
        if saved == 3 {
            return Err(ifair::core::FitError::Serialization(
                "simulated crash after the third checkpoint".into(),
            ));
        }
        Ok(())
    });
    assert!(crashed.is_err(), "the simulated crash aborts the fit");
    println!("crashed after {saved} checkpoints; last saved to {out}");

    // Recovery: load the checkpoint the crash left behind and resume.
    let checkpoint = ifair::core::FitCheckpoint::load(&path).map_err(fit_err)?;
    println!(
        "resuming from restart {} epoch {} ({} records)",
        checkpoint.restart(),
        checkpoint.epoch(),
        checkpoint.n_records()
    );
    let resumed = IFair::resume_from_checkpoint(x, &checkpoint, |cp| {
        cp.save(&path)?;
        Ok(())
    })
    .map_err(fit_err)?;

    let bits = |m: &IFair| {
        m.alpha()
            .iter()
            .chain(m.prototypes().as_slice())
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    };
    if bits(&reference) != bits(&resumed) {
        return Err(ServeError::Config(
            "resumed model diverged from the uninterrupted fit".into(),
        ));
    }
    println!("resumed model is bit-identical to the uninterrupted fit");
    Ok(())
}

/// Rows per CSV streaming chunk during `convert` — bounds resident memory,
/// irrelevant to the output (shards cut at `--shard-rows`).
const CONVERT_CHUNK_ROWS: usize = 8192;

/// Parsed `convert` flags.
struct ConvertArgs {
    csv: Option<String>,
    generate: Option<LargeScaleConfig>,
    out: Option<String>,
    shard_rows: usize,
}

/// `M[,N_NUMERIC[,SEED]]` → a [`LargeScaleConfig`] with defaults elsewhere.
fn parse_generate_spec(raw: &str) -> Result<LargeScaleConfig, ServeError> {
    let mut config = LargeScaleConfig::default();
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return Err(ServeError::Config(format!(
            "--generate expects M[,N_NUMERIC[,SEED]], got `{raw}`"
        )));
    }
    let field = |what: &str, s: &str| {
        s.trim().parse::<u64>().map_err(|_| {
            ServeError::Config(format!("--generate {what} expects an integer, got `{s}`"))
        })
    };
    config.n_records = field("M", parts[0])? as usize;
    if let Some(p) = parts.get(1) {
        config.n_numeric = field("N_NUMERIC", p)? as usize;
    }
    if let Some(p) = parts.get(2) {
        config.seed = field("SEED", p)?;
    }
    if config.n_records == 0 || config.n_numeric == 0 {
        return Err(ServeError::Config(
            "--generate needs M >= 1 and N_NUMERIC >= 1".into(),
        ));
    }
    Ok(config)
}

fn data_err(context: &str, e: DataError) -> ServeError {
    ServeError::Config(format!("{context}: {e}"))
}

/// Streams a CSV file or the seeded generator into sharded `.ifb` files.
/// Resident memory is one chunk plus one shard buffer regardless of `M` —
/// the out-of-core contract that lets `IFair::fit_source` over
/// `BinRecordSource` train on datasets nothing in the process could
/// materialize, reading only each step's batch.
fn convert(args: &[String]) -> Result<(), ServeError> {
    let mut parsed = ConvertArgs {
        csv: None,
        generate: None,
        out: None,
        shard_rows: 0,
    };
    let mut iter = args.iter();
    let value = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| ServeError::Config(format!("{flag} needs a value")))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--csv" => parsed.csv = Some(value("--csv", &mut iter)?),
            "--generate" => {
                parsed.generate = Some(parse_generate_spec(&value("--generate", &mut iter)?)?)
            }
            "--out" => parsed.out = Some(value("--out", &mut iter)?),
            "--shard-rows" => {
                let raw = value("--shard-rows", &mut iter)?;
                parsed.shard_rows = raw.parse::<usize>().map_err(|_| {
                    ServeError::Config(format!("--shard-rows expects an integer, got `{raw}`"))
                })?;
            }
            other => {
                return Err(ServeError::Config(format!(
                    "unknown flag `{other}`\n{USAGE}"
                )))
            }
        }
    }
    let Some(out) = parsed.out else {
        return Err(ServeError::Config(format!("convert needs --out\n{USAGE}")));
    };
    let shards = match (parsed.csv, parsed.generate) {
        (Some(csv), None) => convert_csv(&csv, &out, parsed.shard_rows)?,
        (None, Some(config)) => convert_generated(config, &out, parsed.shard_rows)?,
        _ => {
            return Err(ServeError::Config(format!(
                "convert needs exactly one of --csv or --generate\n{USAGE}"
            )))
        }
    };
    println!("wrote {} shard(s):", shards.len());
    for s in &shards {
        println!("  {}", s.display());
    }
    println!("  inspect one: ifair inspect {}", shards[0].display());
    Ok(())
}

fn convert_csv(
    csv: &str,
    out: &str,
    shard_rows: usize,
) -> Result<Vec<std::path::PathBuf>, ServeError> {
    let reader = ChunkedCsvReader::open(csv, CONVERT_CHUNK_ROWS)
        .map_err(|e| data_err("opening the CSV", e))?;
    let names = reader.feature_names().to_vec();
    let mut writer = BinDatasetWriter::create(out, names, shard_rows)
        .map_err(|e| data_err("creating the shard writer", e))?;
    let mut rows = 0usize;
    for chunk in reader {
        let chunk = chunk.map_err(|e| data_err("reading the CSV", e))?;
        for i in 0..chunk.rows() {
            writer
                .push_row(chunk.row(i))
                .map_err(|e| data_err("writing a shard", e))?;
        }
        rows += chunk.rows();
    }
    println!("converted {rows} CSV rows");
    writer
        .finish()
        .map_err(|e| data_err("finishing the shards", e))
}

fn convert_generated(
    config: LargeScaleConfig,
    out: &str,
    shard_rows: usize,
) -> Result<Vec<std::path::PathBuf>, ServeError> {
    let gen = LargeScale::new(config);
    let n = gen.width();
    let names: Vec<String> = (0..n - 1)
        .map(|j| format!("x{j}"))
        .chain(std::iter::once("protected".into()))
        .collect();
    let mut writer = BinDatasetWriter::create(out, names, shard_rows)
        .map_err(|e| data_err("creating the shard writer", e))?;
    let mut row = vec![0.0; n];
    for i in 0..gen.config().n_records {
        gen.row_into(i, &mut row);
        writer
            .push_row(&row)
            .map_err(|e| data_err("writing a shard", e))?;
    }
    println!(
        "generated {} rows x {n} features (seed {})",
        gen.config().n_records,
        gen.config().seed
    );
    writer
        .finish()
        .map_err(|e| data_err("finishing the shards", e))
}

/// Prints one shard's header — schema, row range, per-column stats — using
/// only the prelude bytes, never the payload.
fn inspect(args: &[String]) -> Result<(), ServeError> {
    let [path] = args else {
        return Err(ServeError::Config(format!(
            "inspect takes exactly one shard path\n{USAGE}"
        )));
    };
    let path = std::path::Path::new(path);
    let (header, geometry) =
        read_shard_header(path).map_err(|e| data_err("reading the shard header", e))?;
    println!("{}", path.display());
    println!(
        "  rows {}..{} ({} rows x {} features)",
        header.row_lo,
        header.row_lo + header.n_rows,
        header.n_rows,
        header.n_features
    );
    println!(
        "  payload: {} bytes at offset {} ({} bytes/row)",
        geometry.file_len - geometry.payload_offset,
        geometry.payload_offset,
        8 * header.n_features
    );
    match &header.stats {
        Some(stats) => {
            println!("  columns:");
            for (name, s) in header.feature_names.iter().zip(stats) {
                println!(
                    "    {name}: min {:.6} max {:.6} mean {:.6}",
                    s.min, s.max, s.mean
                );
            }
        }
        None => {
            println!("  columns: {}", header.feature_names.join(", "));
            println!("  (no per-column stats in this shard's header)");
        }
    }
    Ok(())
}

/// Parsed `certify` flags.
struct CertifyArgs {
    spec: Option<ModelSpec>,
    eps: Vec<f64>,
    delta: Vec<f64>,
    csv: Option<String>,
    threads: usize,
}

/// `E1[,E2,...]` → finite floats, rejecting anything unparseable.
fn parse_float_list(flag: &str, raw: &str) -> Result<Vec<f64>, ServeError> {
    raw.split(',')
        .map(|s| {
            s.trim().parse::<f64>().map_err(|_| {
                ServeError::Config(format!("{flag} expects comma-separated numbers, got `{s}`"))
            })
        })
        .collect()
}

/// Certifies an artifact offline: per-row sound (ε, δ) bounds at every
/// requested radius, plus the certified fraction at each `--delta`
/// threshold. The exact computation the `/certify` endpoint serves, minus
/// the HTTP — useful for report tables and release gating.
fn certify(args: &[String]) -> Result<(), ServeError> {
    let mut parsed = CertifyArgs {
        spec: None,
        eps: Vec::new(),
        delta: Vec::new(),
        csv: None,
        threads: 0,
    };
    let mut iter = args.iter();
    let value = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| ServeError::Config(format!("{flag} needs a value")))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--model" => parsed.spec = Some(ModelSpec::parse(&value("--model", &mut iter)?)?),
            "--eps" => parsed.eps = parse_float_list("--eps", &value("--eps", &mut iter)?)?,
            "--delta" => parsed.delta = parse_float_list("--delta", &value("--delta", &mut iter)?)?,
            "--csv" => parsed.csv = Some(value("--csv", &mut iter)?),
            "--threads" => {
                let raw = value("--threads", &mut iter)?;
                parsed.threads = raw.parse::<usize>().map_err(|_| {
                    ServeError::Config(format!("--threads expects an integer, got `{raw}`"))
                })?;
            }
            other => {
                return Err(ServeError::Config(format!(
                    "unknown flag `{other}`\n{USAGE}"
                )))
            }
        }
    }
    let Some(spec) = parsed.spec else {
        return Err(ServeError::Config(format!(
            "certify needs --model\n{USAGE}"
        )));
    };
    if parsed.eps.is_empty() {
        return Err(ServeError::Config(format!("certify needs --eps\n{USAGE}")));
    }
    let json = read_artifact(&spec.path)?;
    let artifact = Artifact::from_json(&json).map_err(|e| {
        ServeError::Config(format!("loading artifact `{}`: {e}", spec.path.display()))
    })?;
    if !artifact.can_certify() {
        return Err(ServeError::Config(format!(
            "model `{}` does not support certification: \
             no iFair representation stage to certify",
            spec.name
        )));
    }
    let x = match &parsed.csv {
        Some(csv) => {
            let reader = ChunkedCsvReader::open(csv, CONVERT_CHUNK_ROWS)
                .map_err(|e| data_err("opening the CSV", e))?;
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for chunk in reader {
                let chunk = chunk.map_err(|e| data_err("reading the CSV", e))?;
                for i in 0..chunk.rows() {
                    rows.push(chunk.row(i).to_vec());
                }
            }
            Matrix::from_rows(rows)
                .map_err(|e| ServeError::Config(format!("CSV rows are not rectangular: {e}")))?
        }
        None => demo_dataset().x,
    };
    let pool = WorkerPool::new(parsed.threads.max(1));
    println!(
        "certifying `{}` ({}, {} rows x {} features)",
        spec.name,
        spec.precision,
        x.rows(),
        x.cols()
    );
    for &eps in &parsed.eps {
        let certs = artifact
            .certify(x.clone(), eps, Some(&pool), spec.precision)
            .map_err(|e| ServeError::Config(format!("certifying at eps {eps}: {e}")))?;
        let mut deltas: Vec<f64> = certs.iter().map(|c| c.delta).collect();
        deltas.sort_by(|a, b| a.partial_cmp(b).expect("certified deltas are finite"));
        let median = deltas[deltas.len() / 2];
        println!(
            "  eps {eps}: delta min {:.6} median {median:.6} max {:.6}",
            deltas[0],
            deltas[deltas.len() - 1]
        );
        for &thr in &parsed.delta {
            let certified = deltas.iter().filter(|&&d| d <= thr).count();
            println!(
                "    delta <= {thr}: {certified}/{} rows certified ({:.1}%)",
                deltas.len(),
                100.0 * certified as f64 / deltas.len() as f64
            );
        }
    }
    Ok(())
}

/// Deterministic synthetic applicants: [qualification, experience, gender],
/// gender protected, outcome correlated with qualification.
fn demo_dataset() -> Dataset {
    let m = 64;
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let q = (i % 8) as f64 / 8.0;
            let e = ((i * 3 + 1) % 10) as f64 / 10.0;
            vec![q, e, (i % 2) as f64]
        })
        .collect();
    let labels: Vec<f64> = (0..m)
        .map(|i| f64::from((i % 8) as f64 / 8.0 + ((i * 3 + 1) % 10) as f64 / 20.0 > 0.6))
        .collect();
    Dataset::new(
        Matrix::from_rows(rows).expect("rectangular demo data"),
        vec!["qualification".into(), "experience".into(), "gender".into()],
        vec![false, false, true],
        Some(labels),
        (0..m).map(|i| (i % 2) as u8).collect(),
    )
    .expect("consistent demo dataset")
}
