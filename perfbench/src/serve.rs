//! The serving workloads: closed-loop keep-alive clients against the real
//! `ifair serve` binary, started as a child process.
//!
//! Set-up fits a scaler → iFair (K = 16) → logistic-regression pipeline
//! on `LargeScale` rows, writes it as an artifact, starts the server on an
//! ephemeral port (`--addr-file`), builds the request bodies from the
//! seed, computes every expected reply in-process, and warms one
//! keep-alive session per client. The timed loop then has each of the two
//! clients alternate its workload's two request kinds back to back.
//!
//! Every reply must be bit-identical to the in-process call on the same
//! rows, and the server's `/metrics` counters must reconcile with the
//! client's counts; either mismatch is a failed operation.
//!
//! The traced run splits its time into an untraced half and a traced
//! half (round trips recorded as spans), then replays the traced half's
//! requests, in order, through the public functions of each server layer:
//! `http::parse_request`, the wire decode, `Artifact::{transform, predict,
//! certify}` on a 2-thread pool, the wire encode and
//! `http::append_response`. What the round trip spends beyond those
//! layers is the reactor/batcher residual.

use crate::{print_self_times, write_spans, Args, Report};
use ifair::core::par::WorkerPool;
use ifair::core::{CertMethod, FitStrategy, IFairConfig, Precision};
use ifair::data::generators::large::{LargeScale, LargeScaleConfig};
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_perfbench::report::{Outcome, Provenance};
use ifair_perfbench::stats::{self, Sample};
use ifair_perfbench::trace::Tracer;
use ifair_serve::artifact::{request_dataset, Artifact};
use ifair_serve::client::{self, Session};
use ifair_serve::http;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Which endpoint a request calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Transform,
    Predict,
    Certify,
}

impl Op {
    fn endpoint(self) -> &'static str {
        match self {
            Op::Transform => "transform",
            Op::Predict => "predict",
            Op::Certify => "certify",
        }
    }
}

/// A serving workload: two request kinds `(op, rows per request)` that
/// each client alternates, how many distinct bodies each kind cycles
/// through, and the window its statistics are taken over — long enough
/// to hold the 1 000 requests a window's p99 needs.
pub struct Mix {
    kinds: [(Op, usize); 2],
    bodies_per_kind: usize,
    window: Duration,
}

/// `serve-small`: 1-row transform and predict, where the per-request
/// fixed cost dominates.
pub const SMALL: Mix = Mix {
    kinds: [(Op::Transform, 1), (Op::Predict, 1)],
    bodies_per_kind: 256,
    window: Duration::from_secs(1),
};

/// `serve-bulk`: 256-row transform and 64-row certify, where the wire
/// codec and interval certification dominate.
pub const BULK: Mix = Mix {
    kinds: [(Op::Transform, 256), (Op::Certify, 64)],
    bodies_per_kind: 8,
    window: Duration::from_secs(4),
};

/// Certification radius of `serve-bulk`'s certify requests.
const EPS: f64 = 0.01;
/// Model name the artifact is served under.
const MODEL: &str = "bench";
/// Rows the served pipeline is fitted on.
const TRAIN_ROWS: usize = 2048;
/// Client threads (and keep-alive connections).
const CLIENTS: usize = 2;
/// Server worker-pool lanes, and the replay pool's.
const POOL_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests each client sends untimed before the run.
const WARMUP_REQUESTS: usize = 16;
/// Requests the traced run replays at most (plenty for layer medians).
const MAX_REPLAYS: usize = 20_000;

// Wire shapes, mirroring the server's request and response bodies field
// for field (so an encoded expected reply is byte-identical to the
// server's when the values are bit-identical).

#[derive(Debug, Serialize, Deserialize)]
struct RowsRequest {
    rows: Vec<Vec<f64>>,
    #[serde(default)]
    group: Option<Vec<u8>>,
}

#[derive(Debug, Serialize, Deserialize)]
struct CertifyRequest {
    rows: Vec<Vec<f64>>,
    eps: f64,
    #[serde(default)]
    delta: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct TransformResponse {
    model: String,
    rows: Vec<Vec<f64>>,
}

#[derive(Debug, Serialize, Deserialize)]
struct PredictResponse {
    model: String,
    scores: Vec<f64>,
    decisions: Vec<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct CertifyResponse {
    model: String,
    eps: f64,
    deltas: Vec<f64>,
    methods: Vec<CertMethod>,
    certified: Option<Vec<bool>>,
}

/// One prepared request: its wire form and the reply it must get.
struct Request {
    kind: usize,
    op: Op,
    rows: usize,
    path: String,
    body: String,
    /// The exact bytes a keep-alive session sends (for the parse replay).
    raw: Vec<u8>,
    /// The reply body the in-process call encodes to.
    expected: String,
}

/// The values of a reply body, as bits, for comparison when the texts
/// differ (a formatting change is not a wrong answer).
fn reply_bits(op: Op, body: &str) -> Option<Vec<u64>> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    Some(match op {
        Op::Transform => {
            let r: TransformResponse = serde_json::from_str(body).ok()?;
            r.rows.iter().flat_map(|row| bits(row)).collect()
        }
        Op::Predict => {
            let r: PredictResponse = serde_json::from_str(body).ok()?;
            let mut v = bits(&r.scores);
            v.extend(bits(&r.decisions));
            v
        }
        Op::Certify => {
            let r: CertifyResponse = serde_json::from_str(body).ok()?;
            let mut v = bits(&r.deltas);
            v.push(r.eps.to_bits());
            v.extend(
                r.methods
                    .iter()
                    .map(|m| u64::from(*m == CertMethod::IntervalBound)),
            );
            v
        }
    })
}

impl Request {
    fn reply_ok(&self, status: u16, body: &str) -> bool {
        status == 200
            && (body == self.expected
                || reply_bits(self.op, body).is_some_and(|got| {
                    reply_bits(self.op, &self.expected).is_some_and(|want| got == want)
                }))
    }
}

/// The running `ifair serve` child; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn(bin: &Path, artifact: &Path, dir: &Path) -> Result<ServerProc, String> {
        let addr_file = dir.join("addr.txt");
        std::fs::remove_file(&addr_file).ok();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--model")
            .arg(format!("{MODEL}={}", artifact.display()))
            .args(["--addr", "127.0.0.1:0", "--threads"])
            .arg(POOL_THREADS.to_string())
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("the server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("the server did not report its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        ifair_perfbench::peak_rss_mib(self.child.id())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything set-up produces.
struct Stage {
    server: ServerProc,
    artifact: Artifact,
    requests: Vec<Request>,
    /// Request indices of each kind.
    by_kind: [Vec<usize>; 2],
    /// One warmed keep-alive session per client.
    sessions: Vec<Session>,
}

/// The pipeline every serving workload serves.
fn fit_pipeline(gen: &LargeScale, seed: u64) -> Result<Pipeline, String> {
    let train = gen
        .materialize(0, TRAIN_ROWS)
        .map_err(|e| format!("training rows: {e}"))?;
    Pipeline::builder()
        .standard_scaler()
        .ifair(IFairConfig {
            k: 16,
            n_restarts: 1,
            n_threads: POOL_THREADS,
            seed,
            strategy: FitStrategy::MiniBatch {
                batch_records: 256,
                pairs_per_batch: 1024,
                epochs: 3,
                learning_rate: 0.05,
            },
            ..Default::default()
        })
        .logistic_regression_default()
        .fit(&train)
        .map_err(|e| format!("fitting the served pipeline: {e}"))
}

fn set_up(mix: &Mix, seed: u64, server_bin: &Path, dir: &Path) -> Result<Stage, String> {
    let request_rows: usize =
        mix.kinds.iter().map(|&(_, r)| r).sum::<usize>() * mix.bodies_per_kind;
    let gen = LargeScale::new(LargeScaleConfig {
        n_records: TRAIN_ROWS + request_rows,
        n_numeric: 16,
        seed,
        ..Default::default()
    });
    let json = fit_pipeline(&gen, seed)?
        .to_json()
        .map_err(|e| format!("encoding the artifact: {e}"))?;
    let artifact_path = dir.join("model.json");
    std::fs::write(&artifact_path, &json).map_err(|e| format!("writing the artifact: {e}"))?;
    let server = ServerProc::spawn(server_bin, &artifact_path, dir)?;
    // The in-process reference is the artifact as the server loads it.
    let reference =
        Pipeline::from_json(&json).map_err(|e| format!("decoding the artifact: {e}"))?;
    let artifact = Artifact::from_json(&json).map_err(|e| format!("decoding the artifact: {e}"))?;

    let width = gen.width();
    let mut next_row = TRAIN_ROWS;
    let mut requests = Vec::new();
    let mut by_kind: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..mix.bodies_per_kind {
        for (kind, &(op, n_rows)) in mix.kinds.iter().enumerate() {
            let mut rows = vec![vec![0.0; width]; n_rows];
            for row in &mut rows {
                gen.row_into(next_row, row);
                next_row += 1;
            }
            let req = build_request(&reference, server.addr, kind, op, rows)?;
            by_kind[kind].push(requests.len());
            requests.push(req);
        }
    }

    // Warm each client's connection, so the run starts on open sockets
    // with the server's buffers and the model's code paths touched.
    let mut sessions = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let mut session = Session::with_timeout(server.addr, Some(Duration::from_secs(30)));
        for i in 0..WARMUP_REQUESTS {
            let req = &requests[i % requests.len()];
            let (status, body) = session
                .post(&req.path, &req.body)
                .map_err(|e| format!("warm-up request: {e}"))?;
            if !req.reply_ok(status, &body) {
                return Err(format!("warm-up request failed with {status}: {body}"));
            }
        }
        sessions.push(session);
    }
    Ok(Stage {
        server,
        artifact,
        requests,
        by_kind,
        sessions,
    })
}

fn build_request(
    reference: &Pipeline,
    addr: SocketAddr,
    kind: usize,
    op: Op,
    rows: Vec<Vec<f64>>,
) -> Result<Request, String> {
    let n_rows = rows.len();
    let x = Matrix::from_rows(rows.clone()).map_err(|e| format!("request rows: {e}"))?;
    let encode = |r: Result<String, serde_json::Error>| r.map_err(|e| format!("encoding: {e}"));
    let (body, expected) = match op {
        Op::Transform | Op::Predict => {
            let body = encode(serde_json::to_string(&RowsRequest { rows, group: None }))?;
            let ds = request_dataset(x, Vec::new()).map_err(|e| e.to_string())?;
            let expected = if op == Op::Transform {
                let out = reference
                    .transform_on(&ds, None)
                    .map_err(|e| format!("in-process transform: {e}"))?;
                encode(serde_json::to_string(&TransformResponse {
                    model: MODEL.into(),
                    rows: (0..out.rows()).map(|i| out.row(i).to_vec()).collect(),
                }))?
            } else {
                let (scores, decisions) = reference
                    .predict_scored_on(&ds, None)
                    .map_err(|e| format!("in-process predict: {e}"))?;
                encode(serde_json::to_string(&PredictResponse {
                    model: MODEL.into(),
                    scores,
                    decisions,
                }))?
            };
            (body, expected)
        }
        Op::Certify => {
            let body = encode(serde_json::to_string(&CertifyRequest {
                rows,
                eps: EPS,
                delta: None,
            }))?;
            let certs = reference
                .certify_rows(&x, EPS, None, Precision::F64)
                .map_err(|e| format!("in-process certify: {e}"))?;
            let expected = encode(serde_json::to_string(&CertifyResponse {
                model: MODEL.into(),
                eps: EPS,
                deltas: certs.iter().map(|c| c.delta).collect(),
                methods: certs.iter().map(|c| c.method).collect(),
                certified: None,
            }))?;
            (body, expected)
        }
    };
    let path = format!("/v1/models/{MODEL}/{}", op.endpoint());
    // The same bytes `client::Session` writes for this request.
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    Ok(Request {
        kind,
        op,
        rows: n_rows,
        path,
        body,
        raw,
        expected,
    })
}

/// What one client saw in one phase.
struct ClientLog {
    /// Round-trip latencies in nanoseconds.
    latency: Vec<Sample>,
    /// Rows of each correct reply.
    rows: Vec<Sample>,
    failed: u64,
    /// Request indices in send order, with their request ids (traced
    /// phase only).
    order: Vec<(usize, u64)>,
    tracer: Option<Tracer>,
}

/// One client's closed loop: send the next request only after the
/// previous reply, until `deadline`.
fn client_loop(
    client: usize,
    session: &mut Session,
    stage: &Stage,
    started: Instant,
    deadline: Instant,
    mut tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog {
        latency: Vec::new(),
        rows: Vec::new(),
        failed: 0,
        order: Vec::new(),
        tracer: None,
    };
    let mut k = 0usize;
    while Instant::now() < deadline {
        let kind = k % 2;
        let list = &stage.by_kind[kind];
        // Clients interleave over the bodies so they rarely send the same
        // one at the same time.
        let idx = list[((k / 2) * CLIENTS + client) % list.len()];
        let req = &stage.requests[idx];
        let start = Instant::now();
        let reply = session.post(&req.path, &req.body);
        let end = Instant::now();
        let ok = matches!(&reply, Ok((status, body)) if req.reply_ok(*status, body));
        let at_ns = (end - started).as_nanos() as u64;
        if ok {
            let rows = req.rows as f64;
            log.rows.push(Sample {
                at_ns,
                kind,
                value: rows,
            });
        } else {
            log.failed += 1;
        }
        let latency = (end - start).as_nanos() as f64;
        log.latency.push(Sample {
            at_ns,
            kind,
            value: latency,
        });
        if let Some(t) = tracer.as_mut() {
            let id = ((client as u64) << 48) | k as u64;
            t.record("serve.request", start, end, None, id);
            log.order.push((idx, id));
        }
        k += 1;
    }
    log.tracer = tracer;
    log
}

/// One closed-loop phase over all clients.
struct Phase {
    latency: Vec<Sample>,
    rows: Vec<Sample>,
    failed: u64,
    length: Duration,
    window: Duration,
    orders: Vec<Vec<(usize, u64)>>,
    tracers: Vec<Tracer>,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.latency.len() as u64
    }

    /// The full windows of the phase (one window for shorter phases).
    fn window_ns(&self) -> (u64, usize) {
        let window = self.window.min(self.length);
        let n = (self.length.as_nanos() / window.as_nanos()).max(1) as usize;
        (window.as_nanos() as u64, n)
    }

    /// Median over windows of each window's p50, in microseconds.
    fn p50_us(&self) -> f64 {
        let (window, n) = self.window_ns();
        let windows = stats::windows(&self.latency, window, n);
        stats::median(&stats::window_p50s(&windows, 2)) / 1e3
    }

    /// Median over the windows that support it of each window's p99, in
    /// microseconds.
    fn p99_us(&self) -> Result<f64, String> {
        let (window, n) = self.window_ns();
        let tails = stats::window_tails(&stats::windows(&self.latency, window, n), 990);
        if tails.is_empty() {
            return Err(format!(
                "no {} s window held the 1 000 requests a p99 needs",
                window as f64 / 1e9
            ));
        }
        Ok(stats::median(&tails) / 1e3)
    }

    /// Median over windows of the rows answered correctly per second.
    fn rows_per_s(&self) -> f64 {
        let (window, n) = self.window_ns();
        let per_window: Vec<f64> = stats::windows(&self.rows, window, n)
            .iter()
            .map(|w| w.iter().map(|s| s.value).sum::<f64>() / (window as f64 / 1e9))
            .collect();
        stats::median(&per_window)
    }

    /// Every latency, ascending, in nanoseconds.
    fn sorted_latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.latency.iter().map(|s| s.value).collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

fn run_phase(
    stage: &mut Stage,
    length: Duration,
    window: Duration,
    epoch: Option<Instant>,
) -> Phase {
    let start = Instant::now();
    let deadline = start + length;
    let mut sessions = std::mem::take(&mut stage.sessions);
    let logs: Vec<ClientLog> = {
        let stage = &*stage;
        std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter_mut()
                .enumerate()
                .map(|(client, session)| {
                    let tracer = epoch.map(Tracer::new);
                    s.spawn(move || client_loop(client, session, stage, start, deadline, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    stage.sessions = sessions;
    let mut phase = Phase {
        latency: Vec::new(),
        rows: Vec::new(),
        failed: 0,
        length,
        window,
        orders: Vec::new(),
        tracers: Vec::new(),
    };
    for log in logs {
        phase.latency.extend(log.latency);
        phase.rows.extend(log.rows);
        phase.failed += log.failed;
        phase.orders.push(log.order);
        phase.tracers.extend(log.tracer);
    }
    phase
}

/// The counters of a `/metrics` scrape (unlabelled series only).
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let (status, text) = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// Counter deltas between two scrapes, checked against the client's own
/// count of `sent` requests. The earlier scrape's own request lands
/// between the two, so the request counter must move by `sent + 1`, and
/// nothing may be shed, throttled, rejected or late on a clean run.
struct Reconciled {
    requests: f64,
    keepalive_share: f64,
    shed: f64,
    throttled: f64,
    ok: bool,
    detail: String,
}

fn reconcile(before: &HashMap<String, f64>, after: &HashMap<String, f64>, sent: u64) -> Reconciled {
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(f64::NAN) - before.get(name).copied().unwrap_or(f64::NAN)
    };
    let requests = delta("ifair_requests_total");
    let must_be_zero = [
        "ifair_requests_shed_total",
        "ifair_requests_throttled_total",
        "ifair_requests_deadline_exceeded_total",
        "ifair_requests_rejected_total",
        "ifair_requests_timed_out_total",
    ];
    let mut problems = Vec::new();
    if requests != (sent + 1) as f64 {
        problems.push(format!(
            "ifair_requests_total moved by {requests}, the clients sent {sent} (+1 scrape)"
        ));
    }
    for name in must_be_zero {
        let d = delta(name);
        if d != 0.0 {
            problems.push(format!("{name} moved by {d}"));
        }
    }
    Reconciled {
        requests,
        keepalive_share: delta("ifair_keepalive_requests_total") / requests,
        shed: delta("ifair_requests_shed_total"),
        throttled: delta("ifair_requests_throttled_total"),
        ok: problems.is_empty(),
        detail: problems.join("; "),
    }
}

pub fn run(args: &Args, mix: &Mix, dir: &Path, provenance: &Provenance) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stage = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous repetition's server before timing the next.
        drop(stage.take());
        let start = Instant::now();
        stage = Some(set_up(mix, args.seed, &args.server_bin, dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut stage = stage.expect("at least one set-up");

    let before = scrape(stage.server.addr)?;
    let mut outcome = Outcome::default();
    let mut extra = Vec::new();
    let (measured, traced) = if args.trace {
        let epoch = Instant::now();
        let untraced = run_phase(&mut stage, args.seconds / 2, mix.window, None);
        let traced = run_phase(&mut stage, args.seconds / 2, mix.window, Some(epoch));
        (untraced, Some((traced, epoch)))
    } else {
        (run_phase(&mut stage, args.seconds, mix.window, None), None)
    };
    let after = scrape(stage.server.addr)?;
    let peak_rss = stage.server.peak_rss_mib().unwrap_or(0.0);

    let mut sent = 0;
    for phase in std::iter::once(&measured).chain(traced.as_ref().map(|(p, _)| p)) {
        outcome.attempted += phase.sent();
        outcome.failed += phase.failed;
        sent += phase.sent();
    }
    let rec = reconcile(&before, &after, sent);
    outcome.tally(rec.ok);
    if !rec.ok {
        eprintln!("perfbench: /metrics does not reconcile: {}", rec.detail);
    }

    let pooled = measured.sorted_latencies();
    outcome.set("setup_s", stats::median(&setup_s));
    outcome.set("req_p50_us", measured.p50_us());
    outcome.set("req_tail_us", measured.p99_us()?);
    outcome.set("rows_per_s", measured.rows_per_s());
    outcome.set("peak_rss_mib", peak_rss);
    extra.push(("req_tail_percentile", 99.0, "pct"));
    extra.push((
        "pooled_req_p99_us",
        stats::percentile(&pooled, 990) / 1e3,
        "us",
    ));
    extra.push((
        "req_per_s",
        measured.sent() as f64 / measured.length.as_secs_f64(),
        "1/s",
    ));
    extra.push(("requests", measured.sent() as f64, "count"));

    if let Some((traced, epoch)) = traced {
        let p50_traced = traced.p50_us();
        let layers = replay(
            &stage,
            traced,
            epoch,
            args.seconds / 2,
            provenance,
            args,
            &mut outcome,
        )?;
        let residual = stats::residual(p50_traced, &layers);
        outcome.set("serve.reactor_batch.residual_us", residual);
        outcome.set(
            "trace.overhead_pct",
            (p50_traced / measured.p50_us() - 1.0) * 100.0,
        );
        outcome.set("serve.metrics.requests", rec.requests);
        outcome.set("serve.metrics.keepalive_share", rec.keepalive_share);
        outcome.set("serve.metrics.shed", rec.shed);
        outcome.set("serve.metrics.throttled", rec.throttled);
        extra.push(("traced_req_p50_us", p50_traced, "us"));
        extra.push(("untraced_req_p50_us", measured.p50_us(), "us"));
    }
    Ok(Report { outcome, extra })
}

/// Replays the traced phase's requests through each server layer's public
/// functions, records the layer spans, writes every span out, sets the
/// per-layer metrics, and returns the layer medians whose sum with the
/// residual is the traced p50 (each layer averaged over the two kinds).
fn replay(
    stage: &Stage,
    traced: Phase,
    epoch: Instant,
    budget: Duration,
    provenance: &Provenance,
    args: &Args,
    outcome: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let pool = WorkerPool::new(POOL_THREADS);
    let mut tracer = Tracer::new(epoch);
    let mut kind_of_req: HashMap<u64, usize> = HashMap::new();
    let started = Instant::now();
    let longest = traced.orders.iter().map(Vec::len).max().unwrap_or(0);
    // Interleave the clients' send orders, and stop at the time budget.
    'replay: for k in 0..longest {
        for order in &traced.orders {
            let Some(&(idx, id)) = order.get(k) else {
                continue;
            };
            if kind_of_req.len() >= MAX_REPLAYS
                || started.elapsed() > budget.max(Duration::from_secs(1))
            {
                break 'replay;
            }
            let req = &stage.requests[idx];
            kind_of_req.insert(id, req.kind);
            let ok = replay_one(&mut tracer, &stage.artifact, &pool, req, id)?;
            outcome.tally(ok);
        }
    }
    let mut all = Tracer::new(epoch);
    for t in traced.tracers {
        all.absorb(t);
    }
    all.absorb(tracer);

    // Self time per (layer, kind).
    let spans = all.spans();
    let self_ns = ifair_perfbench::trace::self_times(spans);
    let mut by_layer: BTreeMap<&'static str, [Vec<f64>; 2]> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&self_ns) {
        if let Some(&kind) = kind_of_req.get(&s.req) {
            by_layer.entry(s.name).or_default()[kind].push(t as f64);
        }
    }
    let layer_us = |name: &str| {
        by_layer
            .get(name)
            .filter(|k| k.iter().any(|v| !v.is_empty()))
            .map_or(0.0, |k| stats::mean_of_medians(k) / 1e3)
    };
    let mut summed = Vec::new();
    for (metric, span) in [
        ("serve.http.parse_us", "serve.http.parse"),
        ("serve.wire.decode_us", "serve.wire.decode"),
        ("serve.wire.encode_us", "serve.wire.encode"),
        ("serve.http.respond_us", "serve.http.respond"),
    ] {
        let v = layer_us(span);
        outcome.set(metric, v);
        summed.push(v);
    }
    // Each kind runs one compute op; their medians average into the
    // breakdown the same way the other layers do.
    let mut compute = [0.0f64; 2];
    for (metric, op) in [
        ("serve.artifact.transform_us", Op::Transform),
        ("serve.artifact.predict_us", Op::Predict),
        ("serve.artifact.certify_us", Op::Certify),
    ] {
        let span = artifact_span(op);
        let mut v = 0.0;
        if let Some(kinds) = by_layer.get(span) {
            for (kind, samples) in kinds.iter().enumerate() {
                if !samples.is_empty() {
                    v = stats::median(samples) / 1e3;
                    compute[kind] = v;
                }
            }
        }
        outcome.set(metric, v);
    }
    summed.push((compute[0] + compute[1]) / 2.0);

    print_self_times(spans);
    write_spans(&all, provenance, args)?;
    Ok(summed)
}

fn artifact_span(op: Op) -> &'static str {
    match op {
        Op::Transform => "serve.artifact.transform",
        Op::Predict => "serve.artifact.predict",
        Op::Certify => "serve.artifact.certify",
    }
}

/// One request through the server's layers, in the order the server runs
/// them; returns whether the encoded reply matches the expected one.
fn replay_one(
    t: &mut Tracer,
    artifact: &Artifact,
    pool: &WorkerPool,
    req: &Request,
    id: u64,
) -> Result<bool, String> {
    let root = t.open("serve.replay", None, id);
    let parsed = t.time("serve.http.parse", Some(root), id, || {
        http::parse_request(&req.raw)
    });
    let body = match parsed {
        Ok(Some((r, _))) => r.body_utf8().map_err(|e| e.to_string())?.to_string(),
        _ => return Err("replayed request does not parse".into()),
    };
    let decode_err = |e: serde_json::Error| format!("replayed body does not decode: {e}");
    let (rows, eps) = match req.op {
        Op::Transform | Op::Predict => {
            let r: RowsRequest = t
                .time("serve.wire.decode", Some(root), id, || {
                    serde_json::from_str(&body)
                })
                .map_err(decode_err)?;
            (r.rows, None)
        }
        Op::Certify => {
            let r: CertifyRequest = t
                .time("serve.wire.decode", Some(root), id, || {
                    serde_json::from_str(&body)
                })
                .map_err(decode_err)?;
            (r.rows, Some(r.eps))
        }
    };
    let x = Matrix::from_rows(rows).map_err(|e| e.to_string())?;
    let span = artifact_span(req.op);
    let encoded = match req.op {
        Op::Transform => {
            let out = t
                .time(span, Some(root), id, || {
                    artifact.transform(x, Vec::new(), Some(pool), Precision::F64)
                })
                .map_err(|e| e.to_string())?;
            let rows = (0..out.rows()).map(|i| out.row(i).to_vec()).collect();
            t.time("serve.wire.encode", Some(root), id, || {
                serde_json::to_string(&TransformResponse {
                    model: MODEL.into(),
                    rows,
                })
            })
        }
        Op::Predict => {
            let (scores, decisions) = t
                .time(span, Some(root), id, || {
                    artifact.predict(x, Vec::new(), Some(pool), Precision::F64)
                })
                .map_err(|e| e.to_string())?;
            t.time("serve.wire.encode", Some(root), id, || {
                serde_json::to_string(&PredictResponse {
                    model: MODEL.into(),
                    scores,
                    decisions,
                })
            })
        }
        Op::Certify => {
            let eps = eps.unwrap_or(EPS);
            let certs = t
                .time(span, Some(root), id, || {
                    artifact.certify(x, eps, Some(pool), Precision::F64)
                })
                .map_err(|e| e.to_string())?;
            let deltas = certs.iter().map(|c| c.delta).collect();
            let methods = certs.iter().map(|c| c.method).collect();
            t.time("serve.wire.encode", Some(root), id, || {
                serde_json::to_string(&CertifyResponse {
                    model: MODEL.into(),
                    eps,
                    deltas,
                    methods,
                    certified: None,
                })
            })
        }
    }
    .map_err(|e| format!("encoding a replayed reply: {e}"))?;
    let mut out = Vec::new();
    t.time("serve.http.respond", Some(root), id, || {
        http::append_response(
            &mut out,
            200,
            "application/json",
            &[],
            true,
            encoded.as_bytes(),
        )
    });
    t.close(root);
    Ok(req.reply_ok(200, &encoded))
}
