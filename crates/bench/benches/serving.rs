//! Serving throughput/latency bench: boots a real `ifair-serve` server on
//! an ephemeral loopback port and measures request latency and rows/sec at
//! batch sizes 1 / 16 / 128 against both endpoints.
//!
//! Each measured iteration is one full HTTP round trip (connect → POST →
//! parse), i.e. what a remote caller experiences, micro-batching and worker
//! pool included. Run with `cargo bench -p ifair-bench --bench serving`.
//! Environment knobs:
//!
//! * `IFAIR_BENCH_SMOKE=1` — fewer iterations, so CI proves the path in
//!   seconds,
//! * `IFAIR_BENCH_JSON=1` — additionally write `BENCH_serving.json` for the
//!   perf-trajectory pipeline.

use ifair::core::IFairConfig;
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_bench::timing::{bench, fmt_duration, table_header, BenchReport, Measurement};
use ifair_core::par::available_threads;
use ifair_serve::client::Session;
use ifair_serve::{client, ModelRegistry, ModelSpec, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Batch sizes of the headline measurements.
const BATCH_SIZES: [usize; 3] = [1, 16, 128];

/// Concurrency levels of the keep-alive sweep (persistent connections).
const SWEEP_CONNS: [usize; 3] = [16, 64, 256];

fn main() {
    let smoke = std::env::var_os("IFAIR_BENCH_SMOKE").is_some();
    let (warmup, iters) = if smoke { (2, 10) } else { (10, 60) };

    // Fit a representative pipeline (scale → iFair → logreg) and serve it
    // from a temp artifact, exactly like production.
    let ds = train_dataset(256);
    let pipeline = Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 8,
            max_iters: 30,
            n_restarts: 1,
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(&ds)
        .expect("bench pipeline fits");
    let path =
        std::env::temp_dir().join(format!("ifair-bench-serving-{}.json", std::process::id()));
    std::fs::write(&path, pipeline.to_json().expect("pipeline serializes"))
        .expect("artifact writes");
    let registry = ModelRegistry::load(vec![ModelSpec {
        name: "bench".into(),
        path: path.clone(),
        precision: ifair_serve::Precision::F64,
    }])
    .expect("registry loads");
    // Queue deep enough that the 256-connection sweep (≤1 in-flight request
    // per connection) never sheds: the bench measures the data plane, not
    // the admission machinery.
    let config = ServerConfig {
        queue_capacity: 512,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", registry, config)
        .expect("server binds")
        .spawn();
    let addr = handle.addr();

    let mut report = BenchReport::new("serving", available_threads(), 256);
    table_header("serving round-trip latency (loopback, one request per iteration)");
    for &batch in &BATCH_SIZES {
        let body = request_body(&ds, batch);
        for (op, label) in [("transform", "transform"), ("predict", "predict")] {
            let path = format!("/v1/models/bench/{op}");
            // Sanity outside the timed loop: the endpoint must answer 200.
            let (status, text) = client::post(addr, &path, &body).expect("request succeeds");
            assert_eq!(status, 200, "bench endpoint failed: {text}");
            let m = bench(&format!("{label}/b{batch}"), warmup, iters, || {
                client::post(addr, &path, &body).expect("request succeeds")
            });
            let rows_per_sec = batch as f64 / (m.median.as_nanos().max(1) as f64 / 1e9);
            println!(
                "  -> {label} batch={batch}: median {} per request, ~{:.0} rows/sec",
                fmt_duration(m.median),
                rows_per_sec
            );
            report.push(&m);
        }
    }

    // Concurrent load: 4 client threads firing 16-row requests — exercises
    // the micro-batcher coalescing path rather than single-request latency.
    let body = request_body(&ds, 16);
    let n_clients = 4;
    let per_client = if smoke { 5 } else { 40 };
    let m = bench(
        "transform/b16/4-clients",
        1,
        if smoke { 3 } else { 10 },
        || {
            let clients: Vec<_> = (0..n_clients)
                .map(|_| {
                    let body = body.clone();
                    std::thread::spawn(move || {
                        for _ in 0..per_client {
                            let (status, _) =
                                client::post(addr, "/v1/models/bench/transform", &body)
                                    .expect("request succeeds");
                            assert_eq!(status, 200);
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().expect("client thread");
            }
        },
    );
    let total_rows = (n_clients * per_client * 16) as f64;
    println!(
        "  -> 4 concurrent clients: {} for {} rows (~{:.0} rows/sec aggregate)",
        fmt_duration(m.median),
        total_rows,
        total_rows / (m.median.as_nanos().max(1) as f64 / 1e9)
    );
    report.push(&m);

    // Keep-alive concurrency sweep: C persistent connections (one Session
    // per client thread), each firing 16-row transforms back to back over
    // a single socket. The headline number is per-request wall time —
    // total sweep time divided by total requests — which is what the
    // reactor's keep-alive + pipelined parsing path is built to shrink
    // versus the old connection-per-request chain.
    let reqs_per_conn = if smoke { 3 } else { 40 };
    let reps = if smoke { 2 } else { 7 };
    let sweep_body = request_body(&ds, 16);
    for &conns in &SWEEP_CONNS {
        report.push(&sweep(addr, &sweep_body, 16, conns, reqs_per_conn, reps));
    }
    // Single-row bodies over 64 connections: the reactor answers a
    // single-row request itself when the batcher is idle, so under this
    // load part of the compute moves onto the reactor thread. This row
    // tracks what that costs against batching every request.
    let one_row = request_body(&ds, 1);
    report.push(&sweep(addr, &one_row, 1, 64, reqs_per_conn, reps));

    match report.write_if_enabled() {
        Ok(Some(path)) => println!("\nwrote {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("could not write bench JSON: {e}"),
    }
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Runs `reps` rounds of `conns` keep-alive clients, each posting `body`
/// (`batch` rows) `reqs_per_conn` times back to back, and reports the
/// per-request wall time as `sweep/transform/b{batch}/c{conns}`.
fn sweep(
    addr: std::net::SocketAddr,
    body: &str,
    batch: usize,
    conns: usize,
    reqs_per_conn: usize,
    reps: usize,
) -> Measurement {
    let mut per_request: Vec<Duration> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            let clients: Vec<_> = (0..conns)
                .map(|_| {
                    let body = body.to_string();
                    std::thread::spawn(move || {
                        let mut session =
                            Session::with_timeout(addr, Some(Duration::from_secs(30)));
                        for _ in 0..reqs_per_conn {
                            let (status, text) = session
                                .post("/v1/models/bench/transform", &body)
                                .expect("sweep request succeeds");
                            assert_eq!(status, 200, "sweep request failed: {text}");
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().expect("sweep client thread");
            }
            started.elapsed() / (conns * reqs_per_conn) as u32
        })
        .collect();
    per_request.sort();
    let mean = per_request.iter().sum::<Duration>() / per_request.len() as u32;
    let m = Measurement {
        name: format!("sweep/transform/b{batch}/c{conns}"),
        min: per_request[0],
        median: per_request[per_request.len() / 2],
        mean,
        backend: None,
        precision: None,
        peak_rss: None,
    };
    println!(
        "  -> sweep {conns} keep-alive conns, batch {batch}: median {} per request (~{:.0} rows/sec aggregate)",
        fmt_duration(m.median),
        batch as f64 / (m.median.as_nanos().max(1) as f64 / 1e9)
    );
    m
}

/// Deterministic training data: 3 informative features + protected bit.
fn train_dataset(m: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let t = i as f64 / m as f64;
            vec![
                t,
                (1.0 - t) * 0.8 + 0.2 * ((i * 13 % 7) as f64 / 7.0),
                ((i * 5 + 2) % 11) as f64 / 11.0,
                (i % 2) as f64,
            ]
        })
        .collect();
    Dataset::new(
        Matrix::from_rows(rows).expect("rectangular"),
        vec!["a".into(), "b".into(), "c".into(), "gender".into()],
        vec![false, false, false, true],
        Some((0..m).map(|i| f64::from(i % 3 == 0)).collect()),
        (0..m).map(|i| (i % 2) as u8).collect(),
    )
    .expect("consistent dataset")
}

/// A transform/predict body with `batch` rows of the training distribution.
fn request_body(ds: &Dataset, batch: usize) -> String {
    let rows: Vec<Vec<f64>> = (0..batch)
        .map(|i| ds.x.row(i % ds.x.rows()).to_vec())
        .collect();
    format!(
        "{{\"rows\":{}}}",
        serde_json::to_string(&rows).expect("rows serialize")
    )
}
