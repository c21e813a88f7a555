//! End-to-end tests: fit → save → boot on an ephemeral port → round-trip
//! over real sockets, proving wire responses are **bit-identical** to
//! in-process calls, and that hot reload under concurrent fire loses
//! nothing.

use ifair::core::{IFair, IFairConfig};
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_serve::artifact::request_dataset;
use ifair_serve::{client, ModelRegistry, ModelSpec, Server, ServerConfig};
use serde::Deserialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug, Deserialize)]
struct TransformResponse {
    model: String,
    rows: Vec<Vec<f64>>,
}

#[derive(Debug, Deserialize)]
struct PredictResponse {
    scores: Vec<f64>,
    decisions: Vec<f64>,
}

#[derive(Debug, Deserialize)]
struct CertifyResponse {
    model: String,
    eps: f64,
    deltas: Vec<f64>,
    methods: Vec<String>,
    certified: Option<Vec<bool>>,
}

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

fn quick_pipeline(ds: &Dataset, seed: u64) -> Pipeline {
    Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 2,
            max_iters: 15,
            n_restarts: 1,
            seed,
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(ds)
        .unwrap()
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ifair-serve-e2e-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn boot(path: &std::path::Path, name: &str) -> ifair_serve::ServerHandle {
    boot_prec(path, name, ifair_serve::Precision::F64)
}

fn boot_prec(
    path: &std::path::Path,
    name: &str,
    precision: ifair_serve::Precision,
) -> ifair_serve::ServerHandle {
    let registry = ModelRegistry::load(vec![ModelSpec {
        name: name.into(),
        path: path.to_path_buf(),
        precision,
    }])
    .unwrap();
    Server::bind("127.0.0.1:0", registry, ServerConfig::default())
        .unwrap()
        .spawn()
}

/// JSON-encodes rows the way a client would.
fn rows_body(x: &Matrix) -> String {
    let rows: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
    serde_json::to_string(&rows)
        .map(|r| format!("{{\"rows\":{r}}}"))
        .unwrap()
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn server_responses_are_bit_identical_to_in_process_calls() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 7);
    let path = temp_file("bitident");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot(&path, "toy");
    let addr = handle.addr();

    // The in-process reference, computed over the exact dataset view the
    // server fabricates from the request rows.
    let view = request_dataset(ds.x.clone(), vec![]).unwrap();
    let expect_repr = pipeline.transform(&view).unwrap();
    let expect_scores = pipeline.predict_proba(&view).unwrap();
    let expect_decisions = pipeline.predict(&view).unwrap();

    // Transform round trip.
    let (status, body) = client::post(addr, "/v1/models/toy/transform", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed: TransformResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(parsed.model, "toy");
    let expect_rows: Vec<Vec<f64>> = (0..expect_repr.rows())
        .map(|i| expect_repr.row(i).to_vec())
        .collect();
    assert_eq!(
        bits(&parsed.rows),
        bits(&expect_rows),
        "wire transform differs from in-process transform"
    );

    // Predict round trip: scores == predict_proba, decisions == predict.
    let (status, body) = client::post(addr, "/v1/models/toy/predict", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed: PredictResponse = serde_json::from_str(&body).unwrap();
    let score_bits: Vec<u64> = parsed.scores.iter().map(|v| v.to_bits()).collect();
    let expect_score_bits: Vec<u64> = expect_scores.iter().map(|v| v.to_bits()).collect();
    assert_eq!(score_bits, expect_score_bits);
    assert_eq!(parsed.decisions, expect_decisions);

    // Health and metrics reflect the traffic.
    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"toy\""), "{body}");
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("ifair_requests_total"), "{metrics}");
    assert!(metrics.contains("ifair_rows_served_total 48"), "{metrics}");
    assert!(metrics.contains("quantile=\"0.99\""), "{metrics}");
    assert!(
        metrics.contains("ifair_model_precision{model=\"toy\",precision=\"f64\"} 1"),
        "{metrics}"
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A model served with `@f32` answers within tolerance of the f64 pipeline
/// and advertises its precision on `/metrics`.
#[test]
fn f32_served_model_tracks_f64_and_reports_its_precision() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 11);
    let path = temp_file("f32");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot_prec(&path, "half", ifair_serve::Precision::F32);
    let addr = handle.addr();

    let view = request_dataset(ds.x.clone(), vec![]).unwrap();
    let expect_repr = pipeline.transform(&view).unwrap();
    let expect_scores = pipeline.predict_proba(&view).unwrap();

    let (status, body) =
        client::post(addr, "/v1/models/half/transform", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed: TransformResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(parsed.model, "half");
    assert_eq!(parsed.rows.len(), expect_repr.rows());
    for (i, row) in parsed.rows.iter().enumerate() {
        for (a, b) in row.iter().zip(expect_repr.row(i)) {
            assert!((a - b).abs() < 1e-3, "row {i}: f32 drift {a} vs {b}");
        }
    }

    let (status, body) = client::post(addr, "/v1/models/half/predict", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed: PredictResponse = serde_json::from_str(&body).unwrap();
    for (a, b) in parsed.scores.iter().zip(&expect_scores) {
        assert!((a - b).abs() < 1e-3, "f32 score drift {a} vs {b}");
    }

    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("ifair_model_precision{model=\"half\",precision=\"f32\"} 1"),
        "{metrics}"
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_requests_get_typed_statuses_not_hangs() {
    let ds = toy_dataset(16);
    let path = temp_file("badreq");
    // A bare iFair model artifact: transform works, predict must 400.
    let model = IFair::fit(
        &ds.x,
        &ds.protected,
        &IFairConfig {
            k: 2,
            max_iters: 10,
            n_restarts: 1,
            ..Default::default()
        },
    )
    .unwrap();
    std::fs::write(&path, model.to_json().unwrap()).unwrap();
    let handle = boot(&path, "bare");
    let addr = handle.addr();

    let (status, _) = client::post(addr, "/v1/models/bare/transform", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 200);
    let (status, body) = client::post(addr, "/v1/models/bare/predict", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("no predictor"), "{body}");
    let (status, _) = client::post(addr, "/v1/models/ghost/transform", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 404);
    let (status, body) =
        client::post(addr, "/v1/models/bare/transform", "{\"rows\":[[1.0]]}").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("expects 3"), "{body}");
    let (status, _) = client::post(addr, "/v1/models/bare/transform", "{\"rows\":[]}").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::post(addr, "/v1/models/bare/transform", "not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(addr, "DELETE", "/healthz", None).unwrap();
    assert_eq!(status, 405);
    // Known path, wrong method: 405, not "no route".
    let (status, body) = client::post(addr, "/healthz", "").unwrap();
    assert_eq!(status, 405, "{body}");
    // Out-of-range group labels are rejected per request (a 2 reaching an
    // LFR stage would otherwise fail the whole coalesced batch).
    let (status, body) = client::post(
        addr,
        "/v1/models/bare/transform",
        "{\"rows\":[[0.1,0.2,1.0]],\"group\":[2]}",
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("0 or 1"), "{body}");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// N client threads hammer transform while the artifact file is swapped and
/// `/admin/reload` fires: every response must be 200 and bit-identical to
/// either the old or the new model's output; after the reload, responses
/// must match the new model exactly.
#[test]
fn hot_reload_under_concurrent_load_loses_no_requests() {
    let ds = toy_dataset(24);
    let v1 = quick_pipeline(&ds, 1);
    let v2 = quick_pipeline(&ds, 2);
    let view = request_dataset(ds.x.clone(), vec![]).unwrap();
    let expect_v1 = bits(
        &v1.transform(&view)
            .unwrap()
            .row_iter()
            .map(<[f64]>::to_vec)
            .collect::<Vec<_>>(),
    );
    let expect_v2 = bits(
        &v2.transform(&view)
            .unwrap()
            .row_iter()
            .map(<[f64]>::to_vec)
            .collect::<Vec<_>>(),
    );
    assert_ne!(expect_v1, expect_v2, "seeds must produce distinct models");

    let path = temp_file("reload");
    std::fs::write(&path, v1.to_json().unwrap()).unwrap();
    let handle = boot(&path, "m");
    let addr = handle.addr();
    let body = rows_body(&ds.x);

    let stop = Arc::new(AtomicBool::new(false));
    let n_clients = 4;
    let clients: Vec<_> = (0..n_clients)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = body.clone();
            let expect_v1 = expect_v1.clone();
            let expect_v2 = expect_v2.clone();
            std::thread::spawn(move || -> (usize, usize) {
                let (mut n_ok, mut n_v2) = (0usize, 0usize);
                while !stop.load(Ordering::Relaxed) {
                    let (status, text) =
                        client::post(addr, "/v1/models/m/transform", &body).unwrap();
                    assert_eq!(status, 200, "dropped/failed request: {text}");
                    let parsed: TransformResponse = serde_json::from_str(&text).unwrap();
                    let got = bits(&parsed.rows);
                    assert!(
                        got == expect_v1 || got == expect_v2,
                        "garbled response: matches neither model generation"
                    );
                    n_ok += 1;
                    if got == expect_v2 {
                        n_v2 += 1;
                    }
                }
                (n_ok, n_v2)
            })
        })
        .collect();

    // Let traffic flow, then swap the artifact mid-fire.
    std::thread::sleep(std::time::Duration::from_millis(150));
    std::fs::write(&path, v2.to_json().unwrap()).unwrap();
    let (status, text) = client::post(addr, "/admin/reload", "").unwrap();
    assert_eq!(status, 200, "{text}");
    assert!(text.contains("\"generation\":2"), "{text}");
    std::thread::sleep(std::time::Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    let mut total_v2 = 0usize;
    for c in clients {
        let (n_ok, n_v2) = c.join().expect("client thread must not panic");
        total += n_ok;
        total_v2 += n_v2;
    }
    assert!(total > 0, "clients made no requests");
    assert!(
        total_v2 > 0,
        "no request ever observed the reloaded model ({total} total)"
    );

    // Post-reload, the new model answers exclusively.
    let (status, text) = client::post(addr, "/v1/models/m/transform", &body).unwrap();
    assert_eq!(status, 200);
    let parsed: TransformResponse = serde_json::from_str(&text).unwrap();
    assert_eq!(bits(&parsed.rows), expect_v2);

    // And a failed reload (broken file) keeps serving the current model.
    std::fs::write(&path, "{broken json").unwrap();
    let (status, text) = client::post(addr, "/admin/reload", "").unwrap();
    assert_eq!(status, 500, "{text}");
    let (status, text) = client::post(addr, "/v1/models/m/transform", &body).unwrap();
    assert_eq!(status, 200);
    let parsed: TransformResponse = serde_json::from_str(&text).unwrap();
    assert_eq!(bits(&parsed.rows), expect_v2);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// `/certify` answers bit-identically to in-process `Pipeline::certify_rows`,
/// thresholds rows when a `delta` rides along, and publishes the certified
/// fraction gauge; malformed radii and unknown models get typed statuses.
#[test]
fn certify_endpoint_matches_in_process_and_rejects_bad_input() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 13);
    let path = temp_file("certify");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot(&path, "toy");
    let addr = handle.addr();

    let eps = 0.05;
    let expect: Vec<u64> = pipeline
        .certify_rows(&ds.x, eps, None, ifair_serve::Precision::F64)
        .unwrap()
        .iter()
        .map(|c| c.delta.to_bits())
        .collect();

    // Unthresholded round trip: deltas bit-identical, no verdicts.
    let plain = format!(
        "{{\"rows\":{},\"eps\":{eps}}}",
        serde_json::to_string(
            &(0..ds.x.rows())
                .map(|i| ds.x.row(i).to_vec())
                .collect::<Vec<_>>()
        )
        .unwrap()
    );
    let (status, text) = client::post(addr, "/v1/models/toy/certify", &plain).unwrap();
    assert_eq!(status, 200, "{text}");
    let parsed: CertifyResponse = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed.model, "toy");
    assert_eq!(parsed.eps, eps);
    let got: Vec<u64> = parsed.deltas.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expect, "wire deltas differ from in-process certify");
    assert_eq!(parsed.methods.len(), parsed.deltas.len());
    assert!(parsed
        .methods
        .iter()
        .all(|m| m == "IntervalBound" || m == "GlobalDiameter"));
    assert!(parsed.certified.is_none(), "no threshold, no verdicts");

    // Thresholded: per-row verdicts match `delta <= threshold`, and the
    // certified-fraction gauge appears on /metrics for this (model, eps).
    let threshold = {
        let mut sorted: Vec<f64> = parsed.deltas.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted.len() / 2] // median: some rows pass, typically not all
    };
    let body = format!(
        "{{\"rows\":{},\"eps\":{eps},\"delta\":{threshold}}}",
        serde_json::to_string(
            &(0..ds.x.rows())
                .map(|i| ds.x.row(i).to_vec())
                .collect::<Vec<_>>()
        )
        .unwrap()
    );
    let (status, text) = client::post(addr, "/v1/models/toy/certify", &body).unwrap();
    assert_eq!(status, 200, "{text}");
    let parsed: CertifyResponse = serde_json::from_str(&text).unwrap();
    let flags = parsed.certified.expect("threshold present, verdicts due");
    assert_eq!(flags.len(), parsed.deltas.len());
    for (i, (&d, &ok)) in parsed.deltas.iter().zip(&flags).enumerate() {
        assert_eq!(ok, d <= threshold, "row {i} verdict contradicts its delta");
    }
    assert!(
        flags.iter().any(|&b| b),
        "median threshold certifies no rows?"
    );
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("ifair_certified_fraction{model=\"toy\",eps=\"0.05\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ifair_certify_requests_total 2"),
        "{metrics}"
    );

    // Typed rejections: malformed radius, malformed threshold, missing
    // radius, unknown model.
    let rows = "[[0.1,0.2,1.0]]";
    let (status, text) = client::post(
        addr,
        "/v1/models/toy/certify",
        &format!("{{\"rows\":{rows},\"eps\":-0.5}}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("invalid certification radius"), "{text}");
    let (status, text) = client::post(
        addr,
        "/v1/models/toy/certify",
        &format!("{{\"rows\":{rows},\"eps\":0.1,\"delta\":-1.0}}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("delta"), "{text}");
    let (status, text) = client::post(
        addr,
        "/v1/models/toy/certify",
        &format!("{{\"rows\":{rows}}}"),
    )
    .unwrap();
    assert_eq!(status, 400, "{text}");
    let (status, _) = client::post(
        addr,
        "/v1/models/ghost/certify",
        &format!("{{\"rows\":{rows},\"eps\":0.1}}"),
    )
    .unwrap();
    assert_eq!(status, 404);

    // Values `check_epsilon` and the shape checks let through are still
    // client faults, answered 400 before dispatch rather than 500 from the
    // batcher (which would fail every request batched with them): a radius
    // whose box overflows inside the scaler stage, a finite row that does
    // the same, and `1e999` (it parses to +inf) on every endpoint.
    let faults = [
        ("certify", format!("{{\"rows\":{rows},\"eps\":1e308}}")),
        (
            "certify",
            "{\"rows\":[[1e308,0.2,1.0]],\"eps\":0.05}".to_string(),
        ),
        (
            "certify",
            "{\"rows\":[[1e999,0.2,1.0]],\"eps\":0.05}".to_string(),
        ),
        ("transform", "{\"rows\":[[0.1,1e999,1.0]]}".to_string()),
        ("predict", "{\"rows\":[[0.1,0.2,1e999]]}".to_string()),
    ];
    for (endpoint, body) in &faults {
        let (status, text) =
            client::post(addr, &format!("/v1/models/toy/{endpoint}"), body).unwrap();
        assert_eq!(status, 400, "{endpoint} {body}: {text}");
    }
    // The server keeps certifying normal requests, bit for bit.
    let (status, text) = client::post(addr, "/v1/models/toy/certify", &plain).unwrap();
    assert_eq!(status, 200, "{text}");
    let parsed: CertifyResponse = serde_json::from_str(&text).unwrap();
    let got: Vec<u64> = parsed.deltas.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expect, "deltas changed after the rejected requests");

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Regression (ISSUE 10 satellite): certifying an artifact whose pipeline
/// is a bare predictor — no representation space — must be a typed error
/// end to end, never a panic: in-process `Pipeline::certify_rows` returns
/// `CertifyError::Unsupported`, and the server answers 400 before dispatch.
#[test]
fn bare_predictor_artifact_certify_is_a_typed_400_not_a_panic() {
    let ds = toy_dataset(16);
    let bare = Pipeline::builder()
        .logistic_regression_default()
        .fit(&ds)
        .unwrap();

    // In-process: typed error, not a panic.
    let err = bare
        .certify_rows(&ds.x, 0.1, None, ifair_serve::Precision::F64)
        .unwrap_err();
    assert!(
        err.to_string().contains("certification unsupported"),
        "{err}"
    );

    let path = temp_file("barecert");
    std::fs::write(&path, bare.to_json().unwrap()).unwrap();
    let handle = boot(&path, "barepred");
    let addr = handle.addr();
    let (status, text) = client::post(
        addr,
        "/v1/models/barepred/certify",
        "{\"rows\":[[0.1,0.2,1.0]],\"eps\":0.1}",
    )
    .unwrap();
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("does not support certification"), "{text}");
    // The same artifact still predicts fine — only certification is out.
    let (status, _) = client::post(
        addr,
        "/v1/models/barepred/predict",
        "{\"rows\":[[0.1,0.2,1.0]]}",
    )
    .unwrap();
    assert_eq!(status, 200);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Many concurrent clients with distinct payloads: micro-batching must
/// scatter every reply to its own requester (no cross-wiring).
#[test]
fn concurrent_distinct_payloads_never_cross_wires() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 9);
    let path = temp_file("scatter");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot(&path, "m");
    let addr = handle.addr();

    let clients: Vec<_> = (0..8u32)
        .map(|c| {
            let pipeline = pipeline.clone();
            std::thread::spawn(move || {
                for round in 0..10u32 {
                    let v = f64::from(c) * 0.1 + f64::from(round) * 0.01;
                    let rows = vec![vec![v, 1.0 - v, 0.0], vec![v / 2.0, v, 1.0]];
                    let expect = {
                        let x = Matrix::from_rows(rows.clone()).unwrap();
                        let view = request_dataset(x, vec![]).unwrap();
                        let out = pipeline.transform(&view).unwrap();
                        bits(&out.row_iter().map(<[f64]>::to_vec).collect::<Vec<_>>())
                    };
                    let body = format!("{{\"rows\":{}}}", serde_json::to_string(&rows).unwrap());
                    let (status, text) =
                        client::post(addr, "/v1/models/m/transform", &body).unwrap();
                    assert_eq!(status, 200, "{text}");
                    let parsed: TransformResponse = serde_json::from_str(&text).unwrap();
                    assert_eq!(bits(&parsed.rows), expect, "client {c} round {round}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread must not panic");
    }
    assert!(handle.metrics().rows_served() >= 8 * 10 * 2);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// In-process reference for single rows: the transform bits, the score
/// bits and the decisions of `row`, over the dataset view the server
/// fabricates.
fn expect_row(pipeline: &Pipeline, row: &[f64]) -> (Vec<u64>, u64, f64) {
    let view = request_dataset(Matrix::from_rows(vec![row.to_vec()]).unwrap(), vec![]).unwrap();
    let repr = pipeline.transform(&view).unwrap();
    let score = pipeline.predict_proba(&view).unwrap()[0];
    let decision = pipeline.predict(&view).unwrap()[0];
    (
        repr.row(0).iter().map(|v| v.to_bits()).collect(),
        score.to_bits(),
        decision,
    )
}

/// Posts `row` alone to transform (`predict == false`) or predict and
/// checks the reply bit for bit against [`expect_row`].
fn check_single_row(addr: std::net::SocketAddr, pipeline: &Pipeline, row: &[f64], predict: bool) {
    let (repr, score, decision) = expect_row(pipeline, row);
    let body = format!("{{\"rows\":[{}]}}", serde_json::to_string(row).unwrap());
    if predict {
        let (status, text) = client::post(addr, "/v1/models/m/predict", &body).unwrap();
        assert_eq!(status, 200, "{text}");
        let parsed: PredictResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.scores.len(), 1);
        assert_eq!(parsed.scores[0].to_bits(), score, "predict {row:?}");
        assert_eq!(parsed.decisions, vec![decision], "predict {row:?}");
    } else {
        let (status, text) = client::post(addr, "/v1/models/m/transform", &body).unwrap();
        assert_eq!(status, 200, "{text}");
        let parsed: TransformResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(bits(&parsed.rows), vec![repr], "transform {row:?}");
    }
}

/// A single-row transform or predict that finds the batcher idle is
/// answered on the reactor thread, bit-identical to the in-process call.
/// The batched request first proves that a job gives its ticket back
/// before its reply is posted: otherwise the next request, sent only
/// after that reply was read, would find the count above zero.
#[test]
fn single_row_requests_are_answered_inline_when_the_batcher_is_idle() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 21);
    let path = temp_file("inline");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot(&path, "m");
    let addr = handle.addr();

    let two = Matrix::from_rows(vec![ds.x.row(0).to_vec(), ds.x.row(1).to_vec()]).unwrap();
    let (status, text) = client::post(addr, "/v1/models/m/transform", &rows_body(&two)).unwrap();
    assert_eq!(status, 200, "{text}");
    assert_eq!(
        handle.metrics().inline_total(),
        0,
        "a 2-row request batches"
    );

    for i in 0..20 {
        check_single_row(addr, &pipeline, ds.x.row(i + 2), i % 2 == 1);
    }
    assert_eq!(
        handle.metrics().inline_total(),
        20,
        "every sequential single-row request is answered inline"
    );
    let (_, metrics) = client::get(addr, "/metrics").unwrap();
    assert!(
        metrics.contains("ifair_requests_inline_total 20"),
        "{metrics}"
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Concurrent single-row clients meet both paths: a request that finds a
/// job outstanding goes to the batcher, one that finds it idle is
/// computed inline. Every reply is bit-identical and reaches its sender.
#[test]
fn concurrent_single_row_requests_stay_bit_identical_on_both_paths() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 23);
    let path = temp_file("inline-conc");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot(&path, "m");
    let addr = handle.addr();

    let clients: Vec<_> = (0..8u32)
        .map(|c| {
            let pipeline = pipeline.clone();
            std::thread::spawn(move || {
                for round in 0..10u32 {
                    let v = f64::from(c) * 0.1 + f64::from(round) * 0.01;
                    let row = [v, 1.0 - v / 2.0, f64::from(round % 2)];
                    check_single_row(addr, &pipeline, &row, (c + round) % 2 == 1);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread must not panic");
    }
    assert_eq!(handle.metrics().rows_served(), 80);
    assert!(handle.metrics().inline_total() <= 80);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A finite row can still overflow inside the model: every softmax
/// distance reaches +inf and the transform turns NaN. Both endpoints
/// answer 400 naming the row, on the inline path (one row) and on the
/// batched path (two rows), and later requests are unaffected.
#[test]
fn rows_that_overflow_the_model_are_a_typed_400_not_nulls() {
    let ds = toy_dataset(24);
    let pipeline = quick_pipeline(&ds, 25);
    let path = temp_file("overflow");
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    let handle = boot(&path, "m");
    let addr = handle.addr();

    let huge = vec![1e300, 1e300, 1.0];
    let view = request_dataset(Matrix::from_rows(vec![huge.clone()]).unwrap(), vec![]).unwrap();
    assert!(
        pipeline
            .transform(&view)
            .unwrap()
            .as_slice()
            .iter()
            .any(|v| !v.is_finite()),
        "the probe row must overflow in process"
    );

    let clean = ds.x.row(3).to_vec();
    let one = format!("{{\"rows\":[{}]}}", serde_json::to_string(&huge).unwrap());
    let two = format!(
        "{{\"rows\":[{},{}]}}",
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&huge).unwrap()
    );
    for endpoint in ["transform", "predict"] {
        let what = if endpoint == "predict" {
            "score"
        } else {
            "transform"
        };
        let inline_before = handle.metrics().inline_total();
        let (status, text) = client::post(addr, &format!("/v1/models/m/{endpoint}"), &one).unwrap();
        assert_eq!(status, 400, "{endpoint}: {text}");
        assert!(text.contains("row 0 overflows the model"), "{text}");
        assert!(text.contains(what), "{text}");
        assert_eq!(handle.metrics().inline_total(), inline_before + 1);

        let (status, text) = client::post(addr, &format!("/v1/models/m/{endpoint}"), &two).unwrap();
        assert_eq!(status, 400, "{endpoint}: {text}");
        assert!(text.contains("row 1 overflows the model"), "{text}");
        assert_eq!(handle.metrics().inline_total(), inline_before + 1);
    }

    // Clean requests afterwards, single-row and batched, keep their bits.
    check_single_row(addr, &pipeline, &clean, false);
    check_single_row(addr, &pipeline, &clean, true);
    let (status, text) = client::post(addr, "/v1/models/m/transform", &rows_body(&ds.x)).unwrap();
    assert_eq!(status, 200, "{text}");
    let parsed: TransformResponse = serde_json::from_str(&text).unwrap();
    let expect = pipeline
        .transform(&request_dataset(ds.x.clone(), vec![]).unwrap())
        .unwrap();
    assert_eq!(
        bits(&parsed.rows),
        bits(&expect.row_iter().map(<[f64]>::to_vec).collect::<Vec<_>>())
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
