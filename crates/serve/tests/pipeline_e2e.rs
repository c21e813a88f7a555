//! Keep-alive and pipelining end-to-end tests: pipelined requests on one
//! connection answer in order and bit-identical to the same requests sent
//! on separate connections; [`Session`] reuses its connection and the
//! server's keep-alive metrics count the reuse; the per-connection request
//! cap and per-model admission cap behave as documented in
//! `docs/SERVING.md`.

use ifair::core::IFairConfig;
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_serve::client::{self, Session};
use ifair_serve::{ModelRegistry, ModelSpec, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
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

fn write_artifact(tag: &str) -> PathBuf {
    let ds = toy_dataset(24);
    let pipeline = Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 2,
            max_iters: 15,
            n_restarts: 1,
            seed: 3,
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(&ds)
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "ifair-serve-pipeline-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
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

/// Reads `n` Content-Length-framed responses off one socket, in arrival
/// order, returning `(status, body, keep_alive)` triples.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u16, String, bool)> {
    let mut buf: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        while let Some(header_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8(buf[..header_end].to_vec()).unwrap();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .expect("status line")
                .parse()
                .expect("numeric status");
            let mut content_length = 0usize;
            let mut keep_alive = true;
            for line in head.lines() {
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap();
                    } else if name.eq_ignore_ascii_case("connection") {
                        keep_alive = !value.trim().eq_ignore_ascii_case("close");
                    }
                }
            }
            let total = header_end + 4 + content_length;
            if buf.len() < total {
                break;
            }
            let body = String::from_utf8(buf[header_end + 4..total].to_vec()).unwrap();
            out.push((status, body, keep_alive));
            buf.drain(..total);
            if out.len() == n {
                return out;
            }
        }
        let got = stream.read(&mut scratch).expect("pipelined read");
        assert!(got > 0, "connection closed before all responses arrived");
        buf.extend_from_slice(&scratch[..got]);
    }
}

fn pipelined_wire(bodies: &[String]) -> String {
    let mut wire = String::new();
    for body in bodies {
        wire.push_str(&format!(
            "POST /v1/models/m/transform HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    wire
}

/// The ISSUE satellite: P pipelined requests on one keep-alive connection
/// return in order and bit-identical to the same P requests sent on P
/// separate connections.
#[test]
fn pipelined_requests_answer_in_order_and_bit_identical() {
    const P: usize = 5;
    let path = write_artifact("order");
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    // Distinct payloads so a cross-wired answer cannot match by accident.
    let bodies: Vec<String> = (0..P)
        .map(|i| format!("{{\"rows\":[[0.{i}1,0.5,1.0],[0.3,0.{i}2,0.0]]}}"))
        .collect();

    // Reference run: P separate connections (the one-shot client helpers
    // send `Connection: close`, so each owns a socket).
    let references: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, reply) = client::post(addr, "/v1/models/m/transform", body).unwrap();
            assert_eq!(status, 200, "{reply}");
            reply
        })
        .collect();
    for pair in references.windows(2) {
        assert_ne!(pair[0], pair[1], "payloads not distinct");
    }

    // Pipelined run: all P requests written before any response is read.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(pipelined_wire(&bodies).as_bytes())
        .unwrap();
    let got = read_responses(&mut stream, P);
    for (i, (status, body, keep_alive)) in got.iter().enumerate() {
        assert_eq!(*status, 200, "response {i}: {body}");
        assert_eq!(body, &references[i], "response {i} out of order");
        assert!(*keep_alive, "response {i} closed a keep-alive connection");
    }

    assert!(
        handle.metrics().keepalive_requests_total() >= (P - 1) as u64,
        "keep-alive reuse not counted"
    );
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// `Session` really holds one connection: five requests arrive over a
/// single socket, counted once in `ifair_connections_total` and four
/// times in `ifair_keepalive_requests_total`.
#[test]
fn session_reuses_one_connection_and_the_server_counts_it() {
    let path = write_artifact("session");
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();
    let body = "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]]}";

    let mut session = Session::with_timeout(addr, Some(Duration::from_secs(10)));
    let (status, reference) = session.post("/v1/models/m/transform", body).unwrap();
    assert_eq!(status, 200, "{reference}");
    for _ in 0..4 {
        let (status, reply) = session.post("/v1/models/m/transform", body).unwrap();
        assert_eq!(status, 200, "{reply}");
        assert_eq!(reply, reference, "keep-alive reuse changed the bits");
    }
    assert!(session.is_connected(), "server closed a keep-alive session");

    assert_eq!(handle.metrics().connections_total(), 1);
    assert!(handle.metrics().keepalive_requests_total() >= 4);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// With `keep_alive_requests = 2`, the server answers the capped request
/// with `Connection: close` and the session transparently reconnects —
/// so 4 requests ride exactly 2 connections.
#[test]
fn keep_alive_request_cap_closes_politely() {
    let path = write_artifact("cap");
    let handle = boot(
        &path,
        ServerConfig {
            keep_alive_requests: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let body = "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]]}";

    let mut session = Session::with_timeout(addr, Some(Duration::from_secs(10)));
    let mut replies = Vec::new();
    for _ in 0..4 {
        let (status, reply) = session.post("/v1/models/m/transform", body).unwrap();
        assert_eq!(status, 200, "{reply}");
        replies.push(reply);
    }
    assert!(replies.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        handle.metrics().connections_total(),
        2,
        "cap of 2 should split 4 requests across exactly 2 connections"
    );
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// With `admission_per_model = 1`, a pipeline of three requests admits the
/// first, answers the second with 429 + Retry-After, and closes — the
/// documented throttle contract.
#[test]
fn admission_cap_throttles_pipelined_burst_with_429() {
    let path = write_artifact("admission");
    let handle = boot(
        &path,
        ServerConfig {
            admission_per_model: 1,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let bodies: Vec<String> = (0..3)
        .map(|_| "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]]}".to_string())
        .collect();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(pipelined_wire(&bodies).as_bytes())
        .unwrap();

    // All three requests land in one read; the first holds the model's
    // only admission slot (released when its completion is attached, which
    // can't happen before the whole burst is parsed), so the second is
    // throttled and terminal — the connection closes after it.
    let got = read_responses(&mut stream, 2);
    assert_eq!(got[0].0, 200, "{}", got[0].1);
    assert_eq!(got[1].0, 429, "{}", got[1].1);
    assert!(got[1].1.contains("admission"), "{}", got[1].1);
    assert!(!got[1].2, "a throttle must close the connection");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "bytes after the terminal throttle response"
    );

    assert_eq!(handle.metrics().throttled_total(), 1);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// One connection pipelines requests that take different paths: a
/// single-row transform the reactor may answer itself, a 2-row certify
/// that always goes to the batcher, then a single-row predict and
/// transform that go wherever the batcher's state sends them. The
/// replies arrive in request order, each byte-identical to the same
/// request sent alone on its own connection.
#[test]
fn pipelined_mix_of_inline_and_batched_requests_answers_in_order() {
    let path = write_artifact("mixed");
    let handle = boot(&path, ServerConfig::default());
    let addr = handle.addr();

    let requests = [
        ("transform", "{\"rows\":[[0.11,0.5,1.0]]}"),
        (
            "certify",
            "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]],\"eps\":0.05}",
        ),
        ("predict", "{\"rows\":[[0.21,0.6,0.0]]}"),
        ("transform", "{\"rows\":[[0.31,0.7,1.0]]}"),
    ];
    let references: Vec<String> = requests
        .iter()
        .map(|(op, body)| {
            let (status, reply) = client::post(addr, &format!("/v1/models/m/{op}"), body).unwrap();
            assert_eq!(status, 200, "{op}: {reply}");
            reply
        })
        .collect();
    assert_ne!(references[0], references[3], "payloads not distinct");

    let mut wire = String::new();
    for (op, body) in &requests {
        wire.push_str(&format!(
            "POST /v1/models/m/{op} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(wire.as_bytes()).unwrap();
    let got = read_responses(&mut stream, requests.len());
    for (i, (status, body, keep_alive)) in got.iter().enumerate() {
        assert_eq!(*status, 200, "response {i}: {body}");
        assert_eq!(body, &references[i], "response {i} out of order");
        assert!(*keep_alive, "response {i} closed a keep-alive connection");
    }
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
