//! Robustness end-to-end tests: deadline budgets and load shedding, the
//! graceful-shutdown drain, and the retrying client — all over real
//! sockets, no fault injection required (see `chaos.rs` for that half).

use ifair::core::IFairConfig;
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_serve::client::{self, RetryPolicy};
use ifair_serve::{ModelRegistry, ModelSpec, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn toy_dataset(m: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| {
            let t = i as f64 / m as f64;
            vec![t, 1.0 - t + 0.05 * ((i * 7 % 5) as f64), (i % 2) as f64]
        })
        .collect();
    Dataset::new(
        Matrix::from_rows(rows).unwrap(),
        vec!["a".into(), "b".into(), "gender".into()],
        vec![false, false, true],
        Some(
            (0..m)
                .map(|i| f64::from(i as f64 / m as f64 > 0.5))
                .collect(),
        ),
        (0..m).map(|i| (i % 2) as u8).collect(),
    )
    .unwrap()
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ifair-serve-robust-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn write_artifact(tag: &str, seed: u64) -> PathBuf {
    let ds = toy_dataset(24);
    let pipeline = Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 2,
            max_iters: 15,
            n_restarts: 1,
            seed,
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(&ds)
        .unwrap();
    let path = temp_file(tag);
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    path
}

fn boot(path: &std::path::Path, config: ServerConfig) -> ifair_serve::ServerHandle {
    let registry = ModelRegistry::load(vec![ModelSpec {
        name: "m".into(),
        path: path.to_path_buf(),
        precision: ifair_serve::Precision::F64,
    }])
    .unwrap();
    Server::bind("127.0.0.1:0", registry, config)
        .unwrap()
        .spawn()
}

const BODY: &str = "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]]}";

/// Kills and reaps a child server when the test ends, pass or fail.
struct ChildServer(std::process::Child);

impl Drop for ChildServer {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// A ~400 KB body nested 200 000 levels deep is a 400, and the server
/// keeps serving. The server runs as a child process, so a stack overflow
/// (which aborts the process past any supervision) shows up as its death
/// instead of killing the test harness.
#[test]
fn deeply_nested_body_is_a_400_and_the_server_survives() {
    let bin = env!("CARGO_BIN_EXE_ifair");
    let artifact = temp_file("nested-artifact");
    let addr_file = temp_file("nested-addr");
    std::fs::remove_file(&addr_file).ok();
    let status = std::process::Command::new(bin)
        .arg("demo-artifact")
        .arg(&artifact)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "demo-artifact failed: {status}");
    let mut server = ChildServer(
        std::process::Command::new(bin)
            .arg("serve")
            .arg("--model")
            .arg(format!("demo={}", artifact.display()))
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut addr = None;
    for _ in 0..200 {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(parsed) = text.trim().parse::<std::net::SocketAddr>() {
                addr = Some(parsed);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let addr = addr.expect("server wrote its address");

    let depth = 200_000;
    let body = format!("{{\"rows\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
    let (status, reply) = client::request_with(
        addr,
        "POST",
        "/v1/models/demo/transform",
        &[],
        Some(&body),
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("nesting deeper than 128"), "{reply}");

    let (status, reply) = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(
        server.0.try_wait().unwrap().is_none(),
        "the server process exited"
    );
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_file(&addr_file).ok();
}

#[test]
fn zero_budget_requests_are_shed_with_retry_after() {
    let path = write_artifact("shed", 3);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    // A 0ms budget is always exhausted by handler time: deterministic shed.
    // Raw socket so the Retry-After header is visible (the test client
    // keeps only status + body).
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST /v1/models/m/transform HTTP/1.1\r\nHost: x\r\nX-Ifair-Deadline-Ms: 0\r\nContent-Length: {}\r\n\r\n{BODY}",
        BODY.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
    assert!(raw.contains("deadline budget exhausted"), "{raw}");
    assert_eq!(handle.metrics().shed_total(), 1);

    // A roomy budget sails through.
    let (status, body) = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[("X-Ifair-Deadline-Ms", "60000".to_string())],
        Some(BODY),
        Some(Duration::from_secs(10)),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");

    // Garbage in the header is a 400, not a guess.
    let (status, body) = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[("X-Ifair-Deadline-Ms", "soon".to_string())],
        Some(BODY),
        None,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("X-Ifair-Deadline-Ms"), "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Under saturating load with tiny deadlines, transforms may be shed — but
/// `/healthz` and `/metrics` always answer 200, so the operator can watch a
/// saturated server degrade instead of losing sight of it.
#[test]
fn health_and_metrics_answer_while_transforms_shed() {
    let path = write_artifact("saturate", 5);
    // One worker, but a queue deep enough that connections are never shed
    // at accept (which is path-blind): the deadline machinery must do the
    // shedding, after the path is known, so health traffic is exempt.
    let handle = boot(
        &path,
        ServerConfig {
            n_threads: 1,
            queue_capacity: 64,
            max_batch_rows: 64,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..6u64)
        .map(|h| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut shed = 0u64;
                // Even hammers carry an unmeetable 0ms budget (guaranteed
                // shed), odd ones 5ms — beatable only when the queue is
                // short, so saturation decides their fate.
                let budget = if h % 2 == 0 { "0" } else { "5" };
                while !stop.load(Ordering::Relaxed) {
                    match client::request_with(
                        addr,
                        "POST",
                        "/v1/models/m/transform",
                        &[("X-Ifair-Deadline-Ms", budget.to_string())],
                        Some(BODY),
                        Some(Duration::from_secs(10)),
                    ) {
                        Ok((200, _)) => {}
                        Ok((503, body)) => {
                            // Queue-full and deadline sheds both speak 503.
                            assert!(
                                body.contains("deadline budget") || body.contains("queue is full"),
                                "{body}"
                            );
                            shed += 1;
                        }
                        Ok((504, _)) => {} // budget died mid-wait
                        Ok((status, body)) => panic!("unexpected {status}: {body}"),
                        // Connection-level shed (refused while the queue
                        // churns) — acceptable under saturation.
                        Err(_) => {}
                    }
                }
                shed
            })
        })
        .collect();

    // While the hammers run, the observability plane must stay green.
    let mut health_checks = 0u32;
    let deadline = std::time::Instant::now() + Duration::from_millis(800);
    while std::time::Instant::now() < deadline {
        if let Ok((status, body)) = client::get(addr, "/healthz") {
            assert_eq!(status, 200, "{body}");
            health_checks += 1;
        }
        if let Ok((status, body)) = client::get(addr, "/metrics") {
            assert_eq!(status, 200, "{body}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    let total_shed: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();

    assert!(health_checks > 10, "health plane starved: {health_checks}");
    assert!(total_shed > 0, "saturation never shed a single request");
    let rendered = handle.metrics().render(1, 1, &[("m".to_string(), "f64")]);
    assert!(rendered.contains("ifair_requests_shed_total"), "{rendered}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Graceful shutdown drains: a request already accepted completes with a
/// full 200 even though shutdown started while it was in flight.
#[test]
fn shutdown_drains_in_flight_requests() {
    let path = write_artifact("drain", 7);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    let in_flight: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || client::post(addr, "/v1/models/m/transform", BODY)))
        .collect();
    // Let the requests reach the server, then shut down underneath them.
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();

    for flight in in_flight {
        let (status, body) = flight
            .join()
            .unwrap()
            .expect("in-flight request dropped during drain");
        assert_eq!(status, 200, "in-flight request failed during drain: {body}");
    }

    // The port is actually closed afterwards.
    assert!(client::get(addr, "/healthz").is_err());
    std::fs::remove_file(&path).ok();
}

/// The retrying client rides out a shed: a 0-budget request is always shed,
/// but the retry's fresh attempts carry a sane budget and succeed.
#[test]
fn retry_policy_recovers_from_transient_rejection() {
    let path = write_artifact("retry", 9);
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    // Single-shot: always shed.
    let (status, _) = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[("X-Ifair-Deadline-Ms", "0".to_string())],
        Some(BODY),
        None,
    )
    .unwrap();
    assert_eq!(status, 503);

    // Under the policy, a request with a real budget succeeds first try and
    // the retry machinery does not interfere with a healthy server.
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        attempt_timeout: Duration::from_secs(10),
        seed: 42,
    };
    let (status, body) = policy
        .request(
            addr,
            "POST",
            "/v1/models/m/transform",
            &[("X-Ifair-Deadline-Ms", "60000".to_string())],
            Some(BODY),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
