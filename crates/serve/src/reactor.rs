//! The event-driven serving core: one reactor thread multiplexes every
//! connection over a level-triggered [`Poller`].
//!
//! ```text
//!                 ┌──────────────── reactor thread ──────────────────┐
//! clients ──TCP──▶ accept ─▶ read ─▶ parse (zero-copy) ─▶ route ─┐   │
//!                 │   ▲          per-connection state machine    │   │
//!                 │   │  1-row transform/predict, batcher idle:  │   │
//!                 │   │  compute here, no hand-off ◀─────────────┤   │
//!                 │   └── waker ◀── completion queue ◀──┐        │   │
//!                 └─────────────────────────────────────┼────────┼───┘
//!                                                       │    Job ▼
//!                                          batcher (1 thread)
//!                               coalesce jobs ─▶ ONE pooled pass ─▶ scatter
//! ```
//!
//! Each connection owns a reusable read buffer that requests are parsed
//! out of **in place** ([`parse_request`] borrows, never copies), an
//! output buffer flushed as the socket allows, and an in-order queue of
//! [`PendingReq`] entries so HTTP/1.1 pipelining answers in request
//! order even though the batcher completes jobs in any order.
//!
//! A single-row transform or predict that arrives while no job is
//! outstanding (every dispatched [`Job`] holds a [`Ticket`] on that count)
//! is computed right here, after validation, by the batcher's own
//! [`compute`] without the pool: the request skips the queue, the batcher
//! thread, the completion channel and the waker. It stalls the loop for
//! one single-row pass. Everything else goes to the batcher, so a
//! single-row request that arrives while a job is outstanding still
//! coalesces into the next batch.
//!
//! Crash safety: the whole [`ReactorState`] lives in a `Mutex` owned by
//! the supervised closure. The designated panic site (`serve.reactor`)
//! sits right after `wait`, where no connection is mid-mutation; after a
//! panic the supervisor re-enters the loop, `recover_lock` absorbs the
//! poison, the level-triggered poller re-reports every still-ready
//! socket, and unread completions are still in the channel — no
//! connection is lost or cross-wired by a reactor restart.

use crate::batch::{compute, Job, JobError, JobOutput, Op, Ticket};
use crate::http::{append_response, parse_request, HttpError, RequestRef};
use crate::metrics::{Endpoint, Metrics};
use crate::poll::{drain_waker, fd_of, PollEvent, Poller, Waker, INTEREST_READ, INTEREST_WRITE};
use crate::registry::ModelRegistry;
use crate::server::{
    ServerConfig, DEADLINE_HEADER, READ_TIMEOUT, REPLY_TIMEOUT, RETRY_AFTER_SECS, WRITE_TIMEOUT,
};
use crate::supervisor::{recover_lock, supervise, ThreadKind};
use ifair::linalg::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the TCP listener.
pub(crate) const TOKEN_LISTENER: u64 = 0;
/// Poller token of the waker's read end.
pub(crate) const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// How long shutdown waits for in-flight requests before closing the
/// stragglers anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Read chunk per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Reads per readable event before yielding back to the poller, so one
/// fire-hosing connection cannot starve its peers (level-triggered
/// polling re-reports the leftover readiness immediately).
const MAX_READS_PER_EVENT: usize = 16;

/// Compact the read buffer once the consumed prefix exceeds this.
const COMPACT_THRESHOLD: usize = 4 * 1024;

/// A finished job travelling from the batcher back to the reactor.
pub(crate) struct Completion {
    /// Connection token the request arrived on.
    token: u64,
    /// Per-connection request sequence number.
    seq: u64,
    result: Result<JobOutput, JobError>,
}

/// A fully-formed HTTP reply plus the bookkeeping the metrics need.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    endpoint: Endpoint,
    /// Data rows in the response (transform/predict only).
    rows: usize,
    /// `Retry-After` seconds; set on shed/throttle replies so well-behaved
    /// clients back off instead of hammering a saturated server. Any reply
    /// carrying it also closes the connection.
    retry_after: Option<u64>,
}

impl Reply {
    fn json(status: u16, body: Vec<u8>, endpoint: Endpoint, rows: usize) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            endpoint,
            rows,
            retry_after: None,
        }
    }

    fn error(status: u16, endpoint: Endpoint, message: &str) -> Reply {
        let body = serde_json::to_string(&ErrorResponse {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"error\"}".into());
        Reply::json(status, body.into_bytes(), endpoint, 0)
    }

    /// The load-shedding 503: deadline budget exhausted before compute.
    fn shed(endpoint: Endpoint) -> Reply {
        let mut reply = Reply::error(
            503,
            endpoint,
            "deadline budget exhausted before compute; request shed",
        );
        reply.retry_after = Some(RETRY_AFTER_SECS);
        reply
    }

    /// The admission-control 429: too many in-flight requests for one model.
    fn throttled(endpoint: Endpoint) -> Reply {
        let mut reply = Reply::error(429, endpoint, "model admission limit reached; retry later");
        reply.retry_after = Some(RETRY_AFTER_SECS);
        reply
    }

    /// The backpressure 503: the job queue is full.
    fn queue_full(endpoint: Endpoint) -> Reply {
        let mut reply = Reply::error(503, endpoint, "request queue is full");
        reply.retry_after = Some(RETRY_AFTER_SECS);
        reply
    }
}

/// One request a connection has accepted but not yet answered on the wire.
/// Inline routes (health, metrics, validation errors) are born with
/// `reply` already set; dispatched jobs get theirs from a [`Completion`]
/// or from the timer sweep (deadline / reply timeout).
struct PendingReq {
    seq: u64,
    endpoint: Endpoint,
    /// When this request's first bytes arrived — latency and deadline
    /// budgets anchor here, so queue wait counts against them.
    anchor: Instant,
    /// When the job entered the batcher queue (reply-timeout anchor).
    enqueued_at: Instant,
    deadline: Option<Instant>,
    /// Present iff a job was dispatched: set to cancel it on timeout/close.
    cancelled: Option<Arc<AtomicBool>>,
    /// Model the request targeted (response body + admission bookkeeping).
    model_name: Option<String>,
    /// Whether this request holds a per-model admission slot.
    slot_held: bool,
    /// Rows in the request (echoed into the row metrics on success).
    rows: usize,
    /// Set on `/certify` requests: the radius (and optional threshold)
    /// the response rendering needs back once the job completes.
    certify: Option<CertifyMeta>,
    reply: Option<Reply>,
    /// Close the connection after writing this reply (client asked, cap
    /// reached, or the request could never be parsed past).
    close_after: bool,
}

/// The certification parameters a `/certify` request carried, kept on the
/// pending entry so the completion can echo them and threshold the deltas.
#[derive(Debug, Clone, Copy)]
struct CertifyMeta {
    eps: f64,
    delta: Option<f64>,
}

impl PendingReq {
    /// An inline (already answered) pending entry.
    fn done(seq: u64, anchor: Instant, reply: Reply, close_after: bool) -> PendingReq {
        PendingReq {
            seq,
            endpoint: reply.endpoint,
            anchor,
            enqueued_at: anchor,
            deadline: None,
            cancelled: None,
            model_name: None,
            slot_held: false,
            rows: 0,
            certify: None,
            reply: Some(reply),
            close_after,
        }
    }

    /// Whether this entry is a dispatched job still awaiting its result.
    fn awaiting_job(&self) -> bool {
        self.reply.is_none() && self.cancelled.is_some()
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Request bytes; `buf[start..]` is the unconsumed tail.
    buf: Vec<u8>,
    start: usize,
    /// Framed response bytes; `out[out_pos..]` still needs the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// In-order request queue (pipelining answers strictly in order).
    pending: VecDeque<PendingReq>,
    next_seq: u64,
    /// Requests fully answered on this connection.
    served: u64,
    /// Requests parsed off this connection (keep-alive cap counts these).
    assigned: u64,
    /// Arrival instant of the *next* request's first bytes (deadline
    /// anchor); `None` until bytes show up.
    anchor: Option<Instant>,
    read_closed: bool,
    /// No further requests will be parsed (close requested, cap reached,
    /// or a parse error poisoned the stream).
    no_more_requests: bool,
    /// A `Connection: close` response is (being) written; close once the
    /// output buffer drains.
    closing: bool,
    last_activity: Instant,
    interest: u8,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(4 * 1024),
            start: 0,
            out: Vec::with_capacity(4 * 1024),
            out_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            served: 0,
            assigned: 0,
            anchor: Some(now),
            read_closed: false,
            no_more_requests: false,
            closing: false,
            last_activity: now,
            interest: INTEREST_READ,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Everything the reactor mutates, behind the supervised closure's mutex
/// so a panic respawn resumes with the same connections.
struct ReactorState {
    poller: Poller,
    listener: TcpListener,
    listener_registered: bool,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Per-model in-flight request counts (admission control).
    inflight: HashMap<String, usize>,
    comp_rx: Receiver<Completion>,
    /// Reused event buffer (taken/restored around each `wait`).
    events: Vec<PollEvent>,
    drain_deadline: Option<Instant>,
}

/// Immutable reactor context (shared handles, config).
struct ReactorCtx {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    job_tx: SyncSender<Job>,
    /// Jobs handed to the batcher and not yet answered or dropped (the
    /// count their [`Ticket`]s hold). At 0 the batcher is idle.
    outstanding: Arc<AtomicUsize>,
    comp_tx: Sender<Completion>,
    waker: Waker,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Spawns the supervised reactor thread. The listener and waker read end
/// arrive already registered in `poller` (under [`TOKEN_LISTENER`] /
/// [`TOKEN_WAKER`]) so nothing here can fail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    poller: Poller,
    waker: Waker,
    wake_rx: UnixStream,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    job_tx: SyncSender<Job>,
    outstanding: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
) -> JoinHandle<()> {
    let (comp_tx, comp_rx) = channel();
    let state = Mutex::new(ReactorState {
        poller,
        listener,
        listener_registered: true,
        wake_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        inflight: HashMap::new(),
        comp_rx,
        events: Vec::with_capacity(64),
        drain_deadline: None,
    });
    let ctx = ReactorCtx {
        registry,
        metrics: Arc::clone(&metrics),
        job_tx,
        outstanding,
        comp_tx,
        waker,
        shutdown: Arc::clone(&shutdown),
        config,
    };
    // The closure owns the state: when the loop ends the listener drops
    // with it, releasing the port. A panic leaves both in place for the
    // supervisor's next invocation.
    supervise(
        "ifair-serve-reactor".into(),
        ThreadKind::Reactor,
        shutdown,
        metrics,
        move || reactor_loop(&state, &ctx),
    )
}

fn reactor_loop(shared: &Mutex<ReactorState>, ctx: &ReactorCtx) {
    let mut st = recover_lock(shared);
    let st = &mut *st;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            begin_drain(st);
            sweep_drained(st, ctx);
            if st.conns.is_empty() {
                break;
            }
        }
        let timeout = next_timeout(st);
        let mut events = std::mem::take(&mut st.events);
        let waited = st.poller.wait(timeout, &mut events);
        // Fault site: a scheduled panic here kills the reactor at its
        // designated consistent point — between syscall and handling. The
        // supervisor respawns the loop over the same state; level-triggered
        // readiness and the completion channel replay everything missed.
        ifair::api::faults::check_panic("serve.reactor");
        if waited.is_err() {
            // Poller failure is not a per-connection problem; back off a
            // beat instead of spinning, and let supervision semantics hold.
            st.events = events;
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_ready(st, ctx),
                TOKEN_WAKER => drain_waker(&mut st.wake_rx),
                token => {
                    if ev.readable {
                        conn_readable(st, ctx, token);
                    }
                    if ev.writable {
                        conn_writable(st, ctx, token);
                    }
                }
            }
        }
        st.events = events;
        drain_completions(st, ctx);
        service_timers(st, ctx);
        progress_conns(st, ctx);
    }
}

/// Enters drain mode once: stop accepting, start the drain clock.
fn begin_drain(st: &mut ReactorState) {
    if st.drain_deadline.is_none() {
        st.drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
    }
    if st.listener_registered {
        let _ = st.poller.deregister(fd_of(&st.listener));
        st.listener_registered = false;
    }
}

/// During drain: close connections with nothing left to answer, or every
/// connection once the drain deadline passes.
fn sweep_drained(st: &mut ReactorState, ctx: &ReactorCtx) {
    let now = Instant::now();
    let expired = st.drain_deadline.is_some_and(|d| now >= d);
    let done: Vec<u64> = st
        .conns
        .iter()
        .filter(|(_, c)| expired || (c.pending.is_empty() && !c.has_output()))
        .map(|(&t, _)| t)
        .collect();
    for token in done {
        close_conn(st, ctx, token);
    }
}

/// The earliest instant any timer could fire, as a `wait` timeout.
fn next_timeout(st: &ReactorState) -> Option<Duration> {
    let mut earliest: Option<Instant> = None;
    let mut consider = |t: Instant| {
        earliest = Some(earliest.map_or(t, |e| e.min(t)));
    };
    if let Some(d) = st.drain_deadline {
        consider(d);
    }
    for conn in st.conns.values() {
        if conn.has_output() {
            consider(conn.last_activity + WRITE_TIMEOUT);
        } else if conn.pending.is_empty() {
            consider(conn.last_activity + READ_TIMEOUT);
        }
        for p in &conn.pending {
            if p.awaiting_job() {
                if let Some(d) = p.deadline {
                    consider(d);
                }
                consider(p.enqueued_at + REPLY_TIMEOUT);
            }
        }
    }
    earliest.map(|e| e.saturating_duration_since(Instant::now()))
}

/// Accepts every connection the listener has ready.
fn accept_ready(st: &mut ReactorState, ctx: &ReactorCtx) {
    loop {
        match st.listener.accept() {
            Ok((stream, _peer)) => {
                let cap = ctx.config.max_connections;
                if cap != 0 && st.conns.len() >= cap {
                    ctx.metrics.observe_rejected();
                    shed_connection(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    // A socket that cannot go nonblocking would wedge the
                    // whole reactor on its first stall: count and drop it.
                    ctx.metrics.observe_socket_config_error();
                    continue;
                }
                let token = st.next_token;
                st.next_token += 1;
                if st
                    .poller
                    .register(fd_of(&stream), token, INTEREST_READ)
                    .is_err()
                {
                    ctx.metrics.observe_socket_config_error();
                    continue;
                }
                ctx.metrics.observe_connection_opened();
                st.conns.insert(token, Conn::new(stream, Instant::now()));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept errors (peer vanished mid-handshake) are
            // not fatal; anything persistent re-reports via the poller.
            Err(_) => break,
        }
    }
}

/// Best-effort 503 to a connection shed at the cap. The stream is still
/// blocking here; a short write timeout keeps a dead peer from stalling
/// the reactor.
fn shed_connection(mut stream: TcpStream) {
    let mut out = Vec::new();
    append_response(
        &mut out,
        503,
        "application/json",
        &[("Retry-After", RETRY_AFTER_SECS.to_string())],
        false,
        b"{\"error\":\"connection limit reached\"}",
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.write_all(&out);
}

/// Reads whatever the socket has (bounded per event) and parses as many
/// complete requests as arrived.
fn conn_readable(st: &mut ReactorState, ctx: &ReactorCtx, token: u64) {
    // Fault site: an injected delay here simulates a slow peer stalling
    // mid-read without blocking any other connection's progress.
    ifair::api::faults::check_delay("serve.conn.read");
    {
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        let mut scratch = [0u8; READ_CHUNK];
        for _ in 0..MAX_READS_PER_EVENT {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    let now = Instant::now();
                    if conn.anchor.is_none() {
                        conn.anchor = Some(now);
                    }
                    conn.last_activity = now;
                    conn.buf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
    }
    parse_and_route(st, ctx, token);
}

/// The socket reported writable: push buffered output immediately (the
/// general sweep in `progress_conns` also flushes, but a direct event
/// means a stalled large response can drain right now).
fn conn_writable(st: &mut ReactorState, ctx: &ReactorCtx, token: u64) {
    let failed = match st.conns.get_mut(&token) {
        Some(conn) => try_flush(conn).is_err(),
        None => false,
    };
    if failed {
        close_conn(st, ctx, token);
    }
}

/// Parses every complete request buffered on `token` and routes each one,
/// in arrival order, onto the connection's pending queue.
fn parse_and_route(st: &mut ReactorState, ctx: &ReactorCtx, token: u64) {
    let ReactorState {
        conns, inflight, ..
    } = st;
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    while !conn.no_more_requests {
        match parse_request(&conn.buf[conn.start..]) {
            Ok(None) => break,
            Ok(Some((req, consumed))) => {
                let now = Instant::now();
                let anchor = conn.anchor.take().unwrap_or(now);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.assigned += 1;
                let cap = ctx.config.keep_alive_requests;
                let close_after = !req.keep_alive() || (cap != 0 && conn.assigned >= cap as u64);
                let mut pending =
                    route_request(ctx, inflight, &req, token, seq, anchor, close_after);
                conn.start += consumed;
                // Replies that tell the client to back off (shed, queue
                // full, throttled) also close, so any pipelined successors
                // are moot: stop parsing them.
                let terminal = pending.close_after
                    || pending
                        .reply
                        .as_ref()
                        .is_some_and(|r| r.retry_after.is_some());
                pending.close_after = terminal;
                conn.pending.push_back(pending);
                if terminal {
                    conn.no_more_requests = true;
                    break;
                }
                if conn.start < conn.buf.len() {
                    // More pipelined bytes already buffered: the next
                    // request's budget starts now, not when we next read.
                    conn.anchor = Some(now);
                }
            }
            Err(e) => {
                let anchor = conn.anchor.take().unwrap_or_else(Instant::now);
                let reply = match e {
                    HttpError::TooLarge(_) => {
                        Reply::error(413, Endpoint::Other, "request body too large")
                    }
                    HttpError::Malformed(msg) => Reply::error(400, Endpoint::Other, &msg),
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.pending
                    .push_back(PendingReq::done(seq, anchor, reply, true));
                conn.no_more_requests = true;
                conn.start = conn.buf.len();
                break;
            }
        }
    }
    // Reclaim the consumed prefix without disturbing unparsed bytes.
    if conn.start >= conn.buf.len() {
        conn.buf.clear();
        conn.start = 0;
    } else if conn.start > COMPACT_THRESHOLD {
        conn.buf.copy_within(conn.start.., 0);
        let len = conn.buf.len() - conn.start;
        conn.buf.truncate(len);
        conn.start = 0;
    }
}

/// Routes one parsed request. Deadlines apply only to the compute
/// endpoints — `/healthz`, `/metrics` and `/admin/*` always answer, so
/// operators can observe a saturated server while it sheds.
fn route_request(
    ctx: &ReactorCtx,
    inflight: &mut HashMap<String, usize>,
    req: &RequestRef<'_>,
    token: u64,
    seq: u64,
    anchor: Instant,
    close_after: bool,
) -> PendingReq {
    let deadline = match parse_deadline(req, anchor) {
        Ok(deadline) => deadline,
        Err(msg) => {
            return PendingReq::done(
                seq,
                anchor,
                Reply::error(400, Endpoint::Other, &msg),
                close_after,
            )
        }
    };
    let inline = |reply: Reply| PendingReq::done(seq, anchor, reply, close_after);
    match (req.method, req.path) {
        ("GET", "/healthz") => inline(health(&ctx.registry)),
        ("GET", "/metrics") => inline(metrics_reply(ctx)),
        ("POST", "/admin/reload") => inline(reload(&ctx.registry)),
        // Known paths with the wrong method are 405, not 404 — and this arm
        // must sit above the generic POST arm or `POST /healthz` would fall
        // through to it and report "no route".
        (_, path @ ("/healthz" | "/metrics" | "/admin/reload")) => inline(Reply::error(
            405,
            Endpoint::Other,
            &format!("{path} does not accept {}", req.method),
        )),
        ("POST", path) => match parse_model_path(path) {
            Some((name, op)) => model_request(
                ctx,
                inflight,
                name,
                op,
                req,
                deadline,
                token,
                seq,
                anchor,
                close_after,
            ),
            None => inline(Reply::error(
                404,
                Endpoint::Other,
                &format!("no route for {path}"),
            )),
        },
        (_, path) => inline(Reply::error(
            404,
            Endpoint::Other,
            &format!("no route for {path}"),
        )),
    }
}

/// Resolves the [`DEADLINE_HEADER`] into an absolute deadline, anchored at
/// the instant the request's bytes started arriving, so queue wait spends
/// the budget too.
fn parse_deadline(req: &RequestRef<'_>, anchor: Instant) -> Result<Option<Instant>, String> {
    match req.header(DEADLINE_HEADER) {
        None => Ok(None),
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Ok(Some(anchor + Duration::from_millis(ms))),
            Err(_) => Err(format!(
                "invalid {DEADLINE_HEADER}: {raw:?} (want milliseconds as a non-negative integer)"
            )),
        },
    }
}

/// A model endpoint named by the URL path. Unlike [`Op`], this carries no
/// parameters: `certify` needs the radius from the request *body*, which
/// is only parsed after routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathOp {
    Transform,
    Predict,
    Certify,
}

/// Extracts `(name, op)` from `/v1/models/{name}/transform|predict|certify`.
fn parse_model_path(path: &str) -> Option<(&str, PathOp)> {
    let rest = path.strip_prefix("/v1/models/")?;
    let (name, op) = rest.split_once('/')?;
    if name.is_empty() {
        return None;
    }
    match op {
        "transform" => Some((name, PathOp::Transform)),
        "predict" => Some((name, PathOp::Predict)),
        "certify" => Some((name, PathOp::Certify)),
        _ => None,
    }
}

fn health(registry: &ModelRegistry) -> Reply {
    let body = serde_json::to_string(&HealthResponse {
        status: "ok".into(),
        models: registry.names(),
        generation: registry.generation(),
    })
    .expect("health response serializes");
    Reply::json(200, body.into_bytes(), Endpoint::Other, 0)
}

fn metrics_reply(ctx: &ReactorCtx) -> Reply {
    Reply {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: ctx
            .metrics
            .render(
                ctx.registry.len(),
                ctx.registry.generation(),
                &ctx.registry.precision_labels(),
            )
            .into_bytes(),
        endpoint: Endpoint::Other,
        rows: 0,
        retry_after: None,
    }
}

fn reload(registry: &ModelRegistry) -> Reply {
    match registry.reload() {
        Ok(report) => {
            let body = serde_json::to_string(&ReloadResponse {
                generation: report.generation,
                models: report.models,
            })
            .expect("reload response serializes");
            Reply::json(200, body.into_bytes(), Endpoint::Other, 0)
        }
        Err(e) => Reply::error(500, Endpoint::Other, &format!("reload failed: {e}")),
    }
}

/// Validates a transform/predict/certify request and dispatches it to the
/// batcher, or answers it inline: shed, throttled, queue full, validation
/// error, or a single-row transform/predict computed here because the
/// batcher is idle.
#[allow(clippy::too_many_arguments)]
fn model_request(
    ctx: &ReactorCtx,
    inflight: &mut HashMap<String, usize>,
    name: &str,
    path_op: PathOp,
    req: &RequestRef<'_>,
    deadline: Option<Instant>,
    token: u64,
    seq: u64,
    anchor: Instant,
    close_after: bool,
) -> PendingReq {
    let endpoint = match path_op {
        PathOp::Transform => Endpoint::Transform,
        PathOp::Predict => Endpoint::Predict,
        PathOp::Certify => Endpoint::Certify,
    };
    let inline = |reply: Reply| PendingReq::done(seq, anchor, reply, close_after);
    // Load shedding, part 1: the budget may already be gone — this
    // request's bytes trickled in (or sat buffered behind pipelined
    // peers) past its own deadline. Shed now, before any compute.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        ctx.metrics.observe_shed();
        return inline(Reply::shed(endpoint));
    }
    let body = match req.body_utf8() {
        Ok(body) => body,
        Err(e) => return inline(Reply::error(400, endpoint, &e.to_string())),
    };
    // Per-endpoint body shape: `/certify` carries the radius (and an
    // optional threshold) alongside the rows; transform/predict carry
    // rows plus an optional group vector.
    let (rows, group, op, certify) = match path_op {
        PathOp::Certify => {
            let parsed: CertifyRequest = match serde_json::from_str(body) {
                Ok(parsed) => parsed,
                Err(e) => {
                    return inline(Reply::error(
                        400,
                        endpoint,
                        &format!("invalid request body: {e}"),
                    ))
                }
            };
            if let Err(e) = ifair::api::check_epsilon(parsed.eps) {
                return inline(Reply::error(400, endpoint, &e.to_string()));
            }
            if let Some(d) = parsed.delta {
                if !d.is_finite() || d < 0.0 {
                    return inline(Reply::error(
                        400,
                        endpoint,
                        &format!("delta must be a finite non-negative number, got {d}"),
                    ));
                }
            }
            let op = Op::Certify {
                eps_bits: parsed.eps.to_bits(),
            };
            let meta = CertifyMeta {
                eps: parsed.eps,
                delta: parsed.delta,
            };
            (parsed.rows, Vec::new(), op, Some(meta))
        }
        PathOp::Transform | PathOp::Predict => {
            let parsed: RowsRequest = match serde_json::from_str(body) {
                Ok(parsed) => parsed,
                Err(e) => {
                    return inline(Reply::error(
                        400,
                        endpoint,
                        &format!("invalid request body: {e}"),
                    ))
                }
            };
            let op = if path_op == PathOp::Predict {
                Op::Predict
            } else {
                Op::Transform
            };
            (parsed.rows, parsed.group.unwrap_or_default(), op, None)
        }
    };
    if rows.is_empty() {
        return inline(Reply::error(400, endpoint, "request has no rows"));
    }
    let width = rows[0].len();
    if width == 0 || rows.iter().any(|r| r.len() != width) {
        return inline(Reply::error(
            400,
            endpoint,
            "rows must be non-empty and rectangular",
        ));
    }
    let Some(model) = ctx.registry.get(name) else {
        return inline(Reply::error(
            404,
            endpoint,
            &format!("no model named `{name}`"),
        ));
    };
    if let Some(expected) = model.artifact.n_input_features() {
        if width != expected {
            return inline(Reply::error(
                400,
                endpoint,
                &format!("rows have {width} features but model `{name}` expects {expected}"),
            ));
        }
    }
    if op == Op::Predict && !model.artifact.has_predictor() {
        return inline(Reply::error(
            400,
            endpoint,
            &format!("model `{name}` has no predictor stage; use transform"),
        ));
    }
    // Certifiability is knowable before dispatch: reject artifacts with no
    // iFair representation (e.g. a bare predictor) with a typed 400 here
    // instead of failing the whole coalesced micro-batch with a 500.
    if path_op == PathOp::Certify && !model.artifact.can_certify() {
        return inline(Reply::error(
            400,
            endpoint,
            &format!(
                "model `{name}` does not support certification: \
                 no iFair representation stage to certify"
            ),
        ));
    }
    if !group.is_empty() && group.len() != rows.len() {
        return inline(Reply::error(
            400,
            endpoint,
            &format!(
                "group has {} entries but the request has {} rows",
                group.len(),
                rows.len()
            ),
        ));
    }
    // Reject out-of-range group labels here, per request: an LFR stage would
    // reject them mid-batch, failing the whole coalesced micro-batch and
    // punishing innocent co-batched requests with a 500.
    if let Some(&bad) = group.iter().find(|&&g| g > 1) {
        return inline(Reply::error(
            400,
            endpoint,
            &format!("group labels must be 0 or 1, got {bad}"),
        ));
    }
    // The same holds for row values that are not finite numbers (`1e999`
    // parses to +inf): transform and predict would answer `null`s, and
    // certify would fail its whole micro-batch.
    if rows.iter().flatten().any(|v| !v.is_finite()) {
        return inline(Reply::error(
            400,
            endpoint,
            "rows must hold finite numbers only",
        ));
    }
    // Finite rows and radius can still give a certify box that overflows,
    // at `x ± ε` or inside a scaler stage. Build the box certification will
    // use and reject the request if it is not finite.
    if let Some(meta) = &certify {
        let checked = Matrix::from_vec(rows.len(), width, rows.concat())
            .map_err(|e| e.to_string())
            .and_then(|x| {
                model
                    .artifact
                    .check_certify(&x, meta.eps)
                    .map_err(|e| e.to_string())
            });
        if let Err(msg) = checked {
            return inline(Reply::error(400, endpoint, &msg));
        }
    }

    // Admission control: cap concurrent in-flight requests per model so one
    // hot model cannot monopolize the batcher against its neighbours.
    let admission_cap = ctx.config.admission_per_model;
    if admission_cap != 0 && inflight.get(name).copied().unwrap_or(0) >= admission_cap {
        ctx.metrics.observe_throttled();
        return inline(Reply::throttled(endpoint));
    }

    // Nothing is outstanding, so nothing could coalesce with this row:
    // compute it here rather than pay two thread hops. The deadline check
    // above is current, since nothing waits between it and the compute.
    if matches!(op, Op::Transform | Op::Predict)
        && rows.len() == 1
        && ctx.outstanding.load(Ordering::SeqCst) == 0
    {
        ctx.metrics.observe_inline();
        let result = compute(&model, op, rows, group, None)
            .map(|output| output.slice(0..1))
            .map_err(JobError::Failed);
        return inline(render_completion(ctx, name, endpoint, 1, None, result));
    }

    let n_rows = rows.len();
    let cancelled = Arc::new(AtomicBool::new(false));
    let reply: Box<dyn FnOnce(Result<JobOutput, JobError>) + Send> = {
        let comp_tx = ctx.comp_tx.clone();
        let waker = ctx.waker.clone();
        Box::new(move |result| {
            let _ = comp_tx.send(Completion { token, seq, result });
            waker.wake();
        })
    };
    let job = Job {
        model,
        op,
        rows,
        group,
        deadline,
        cancelled: Arc::clone(&cancelled),
        reply,
        ticket: Ticket::take(&ctx.outstanding),
    };
    match ctx.job_tx.try_send(job) {
        Ok(()) => {
            let slot_held = admission_cap != 0;
            if slot_held {
                *inflight.entry(name.to_string()).or_insert(0) += 1;
            }
            PendingReq {
                seq,
                endpoint,
                anchor,
                enqueued_at: Instant::now(),
                deadline,
                cancelled: Some(cancelled),
                model_name: Some(name.to_string()),
                slot_held,
                rows: n_rows,
                certify,
                reply: None,
                close_after,
            }
        }
        Err(TrySendError::Full(_)) => {
            ctx.metrics.observe_rejected();
            inline(Reply::queue_full(endpoint))
        }
        Err(TrySendError::Disconnected(_)) => {
            inline(Reply::error(503, endpoint, "server is shutting down"))
        }
    }
}

/// Attaches every queued completion to its pending request.
fn drain_completions(st: &mut ReactorState, ctx: &ReactorCtx) {
    while let Ok(comp) = st.comp_rx.try_recv() {
        let ReactorState {
            conns, inflight, ..
        } = st;
        // The connection may have closed (its jobs were cancelled) or the
        // timer sweep may have answered already: late results just drop.
        let Some(conn) = conns.get_mut(&comp.token) else {
            continue;
        };
        let Some(p) = conn
            .pending
            .iter_mut()
            .find(|p| p.seq == comp.seq && p.reply.is_none())
        else {
            continue;
        };
        release_slot(inflight, p);
        let model = p.model_name.clone().unwrap_or_default();
        p.reply = Some(render_completion(
            ctx,
            &model,
            p.endpoint,
            p.rows,
            p.certify,
            comp.result,
        ));
    }
}

/// Builds the wire reply for a computed result, batched or inline.
fn render_completion(
    ctx: &ReactorCtx,
    model: &str,
    endpoint: Endpoint,
    n_rows: usize,
    certify: Option<CertifyMeta>,
    result: Result<JobOutput, JobError>,
) -> Reply {
    // Finite rows can still overflow inside the model (every softmax
    // distance at +inf gives NaN). JSON would carry that as `null`, and a
    // decision taken from a NaN score means nothing: answer 400 instead.
    if let Some(row) = result.as_ref().ok().and_then(first_non_finite_row) {
        return Reply::error(
            400,
            endpoint,
            &format!(
                "row {row} overflows the model: its {} is not a finite number",
                if endpoint == Endpoint::Predict {
                    "score"
                } else {
                    "transform"
                }
            ),
        );
    }
    match result {
        Ok(JobOutput::Rows(rows)) => {
            let body = serde_json::to_string(&TransformResponse {
                model: model.to_string(),
                rows,
            })
            .expect("transform response serializes");
            Reply::json(200, body.into_bytes(), endpoint, n_rows)
        }
        Ok(JobOutput::Scored { scores, decisions }) => {
            let body = serde_json::to_string(&PredictResponse {
                model: model.to_string(),
                scores,
                decisions,
            })
            .expect("predict response serializes");
            Reply::json(200, body.into_bytes(), endpoint, n_rows)
        }
        Ok(JobOutput::Certified(certs)) => {
            let meta = certify.unwrap_or(CertifyMeta {
                eps: 0.0,
                delta: None,
            });
            let deltas: Vec<f64> = certs.iter().map(|c| c.delta).collect();
            let methods: Vec<ifair::CertMethod> = certs.iter().map(|c| c.method).collect();
            let certified = meta
                .delta
                .map(|thr| deltas.iter().map(|&d| d <= thr).collect::<Vec<bool>>());
            if let Some(flags) = &certified {
                if !flags.is_empty() {
                    let frac = flags.iter().filter(|&&b| b).count() as f64 / flags.len() as f64;
                    ctx.metrics
                        .observe_certified_fraction(model, meta.eps, frac);
                }
            }
            let body = serde_json::to_string(&CertifyResponse {
                model: model.to_string(),
                eps: meta.eps,
                deltas,
                methods,
                certified,
            })
            .expect("certify response serializes");
            Reply::json(200, body.into_bytes(), endpoint, n_rows)
        }
        // Load shedding, part 2: the batcher found the deadline expired at
        // gather time and shed the job before compute.
        Err(JobError::DeadlineExceeded) => {
            ctx.metrics.observe_shed();
            Reply::shed(endpoint)
        }
        Err(JobError::Failed(msg)) => Reply::error(500, endpoint, &msg),
    }
}

/// The first row of a transform or predict output holding a non-finite
/// value. Certificates are not checked: an overflowing row certifies at
/// the sound hull-diameter cap.
fn first_non_finite_row(output: &JobOutput) -> Option<usize> {
    match output {
        JobOutput::Rows(rows) => rows.iter().position(|r| r.iter().any(|v| !v.is_finite())),
        JobOutput::Scored { scores, decisions } => scores
            .iter()
            .zip(decisions)
            .position(|(s, d)| !s.is_finite() || !d.is_finite()),
        JobOutput::Certified(_) => None,
    }
}

/// Answers overdue dispatched jobs (deadline → 504, reply timeout → 500)
/// and closes idle / write-stalled connections.
fn service_timers(st: &mut ReactorState, ctx: &ReactorCtx) {
    let now = Instant::now();
    let mut to_close: Vec<u64> = Vec::new();
    {
        let ReactorState {
            conns, inflight, ..
        } = st;
        for (&token, conn) in conns.iter_mut() {
            for p in conn.pending.iter_mut() {
                if !p.awaiting_job() {
                    continue;
                }
                if p.deadline.is_some_and(|d| now >= d) {
                    // Compute started (or the queue stalled) and the budget
                    // ran out mid-wait: the request is late, not
                    // shed-before-work. Whatever happens to the job now,
                    // nobody is listening — cancel it so the batcher drops
                    // it instead of computing for nobody.
                    if let Some(c) = &p.cancelled {
                        c.store(true, Ordering::SeqCst);
                    }
                    release_slot(inflight, p);
                    ctx.metrics.observe_deadline_exceeded();
                    p.reply = Some(Reply::error(
                        504,
                        p.endpoint,
                        "deadline exceeded while awaiting inference",
                    ));
                } else if now.duration_since(p.enqueued_at) >= REPLY_TIMEOUT {
                    if let Some(c) = &p.cancelled {
                        c.store(true, Ordering::SeqCst);
                    }
                    release_slot(inflight, p);
                    ctx.metrics.observe_timed_out();
                    p.reply = Some(Reply::error(500, p.endpoint, "inference timed out"));
                }
            }
            if conn.has_output() {
                // The client stopped reading its responses.
                if now.duration_since(conn.last_activity) >= WRITE_TIMEOUT {
                    to_close.push(token);
                }
            } else if conn.pending.is_empty()
                && now.duration_since(conn.last_activity) >= READ_TIMEOUT
            {
                // Idle keep-alive connection (or a slowloris that went
                // quiet): reclaim it.
                to_close.push(token);
            }
        }
    }
    for token in to_close {
        close_conn(st, ctx, token);
    }
}

/// Writes every answerable in-order reply into each connection's output
/// buffer, flushes what the sockets accept, closes what is finished, and
/// reconciles poller interest with output state.
fn progress_conns(st: &mut ReactorState, ctx: &ReactorCtx) {
    let mut to_close: Vec<u64> = Vec::new();
    {
        let ReactorState { conns, poller, .. } = st;
        for (&token, conn) in conns.iter_mut() {
            // Pipelining: responses leave strictly in request order; a
            // completed request behind an incomplete one waits its turn.
            while conn.pending.front().is_some_and(|p| p.reply.is_some()) && !conn.closing {
                let p = conn.pending.pop_front().expect("front checked above");
                let reply = p.reply.expect("reply checked above");
                let close = p.close_after || reply.retry_after.is_some();
                let extra: Vec<(&str, String)> = reply
                    .retry_after
                    .map(|secs| ("Retry-After", secs.to_string()))
                    .into_iter()
                    .collect();
                append_response(
                    &mut conn.out,
                    reply.status,
                    reply.content_type,
                    &extra,
                    !close,
                    &reply.body,
                );
                ctx.metrics
                    .observe(reply.endpoint, reply.rows, p.anchor.elapsed(), reply.status);
                if conn.served > 0 {
                    ctx.metrics.observe_keepalive_reuse();
                }
                conn.served += 1;
                if close {
                    conn.closing = true;
                }
            }
            match try_flush(conn) {
                Ok(true) => {
                    let finished = conn.closing
                        || (conn.no_more_requests && conn.pending.is_empty())
                        || (conn.read_closed && conn.pending.is_empty());
                    if finished {
                        to_close.push(token);
                        continue;
                    }
                }
                Ok(false) => {}
                Err(_) => {
                    to_close.push(token);
                    continue;
                }
            }
            let want = if conn.has_output() {
                INTEREST_READ | INTEREST_WRITE
            } else {
                INTEREST_READ
            };
            if want != conn.interest {
                let _ = poller.reregister(fd_of(&conn.stream), token, want);
                conn.interest = want;
            }
        }
    }
    for token in to_close {
        close_conn(st, ctx, token);
    }
}

/// Writes buffered output until the socket pushes back. `Ok(true)` means
/// the buffer fully drained.
fn try_flush(conn: &mut Conn) -> io::Result<bool> {
    while conn.has_output() {
        // Fault site: a scheduled torn write sends only part of the
        // remaining bytes and then drops the connection — the client sees
        // a short body that contradicts Content-Length.
        if ifair::api::faults::check_torn("serve.conn.write") {
            let half = (conn.out.len() - conn.out_pos) / 2;
            let _ = conn
                .stream
                .write(&conn.out[conn.out_pos..conn.out_pos + half]);
            return Err(io::Error::other("injected torn write"));
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Ok(true)
}

/// Removes a connection: deregisters it, cancels its in-flight jobs, and
/// releases any admission slots they held.
fn close_conn(st: &mut ReactorState, ctx: &ReactorCtx, token: u64) {
    let Some(mut conn) = st.conns.remove(&token) else {
        return;
    };
    let _ = st.poller.deregister(fd_of(&conn.stream));
    for mut p in conn.pending.drain(..) {
        if let Some(c) = &p.cancelled {
            c.store(true, Ordering::SeqCst);
        }
        release_slot(&mut st.inflight, &mut p);
    }
    ctx.metrics.observe_connection_closed();
}

/// Releases a pending request's admission slot, exactly once.
fn release_slot(inflight: &mut HashMap<String, usize>, p: &mut PendingReq) {
    if !p.slot_held {
        return;
    }
    p.slot_held = false;
    if let Some(name) = &p.model_name {
        if let Some(n) = inflight.get_mut(name) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inflight.remove(name);
            }
        }
    }
}

// ----------------------------------------------------------------- wire types

/// Body of `POST /v1/models/{name}/transform` and `.../predict`.
#[derive(Debug, Deserialize)]
struct RowsRequest {
    /// Feature rows, all of the model's input width.
    rows: Vec<Vec<f64>>,
    /// Optional per-row protected-group membership (0/1); only the LFR
    /// stage reads it. Defaults to all zeros.
    #[serde(default)]
    group: Option<Vec<u8>>,
}

/// Body of a successful transform response.
#[derive(Debug, Serialize)]
struct TransformResponse {
    model: String,
    rows: Vec<Vec<f64>>,
}

/// Body of a successful predict response.
#[derive(Debug, Serialize)]
struct PredictResponse {
    model: String,
    /// `predict_proba` of the terminal predictor.
    scores: Vec<f64>,
    /// `predict` (hard decisions) of the terminal predictor.
    decisions: Vec<f64>,
}

/// Body of `POST /v1/models/{name}/certify`.
#[derive(Debug, Deserialize)]
struct CertifyRequest {
    /// Feature rows to certify, all of the model's input width.
    rows: Vec<Vec<f64>>,
    /// L∞ perturbation radius each row is certified against.
    eps: f64,
    /// Optional threshold: when present the response also reports, per
    /// row, whether the certified delta met it, and the server updates
    /// the `ifair_certified_fraction` gauge for this model and radius.
    #[serde(default)]
    delta: Option<f64>,
}

/// Body of a successful certify response.
#[derive(Debug, Serialize)]
struct CertifyResponse {
    model: String,
    /// The radius the request asked about, echoed back.
    eps: f64,
    /// Per-row certified output-space bounds: no input within `eps` (L∞)
    /// of row *i* maps farther than `deltas[i]` (L2) from the row's image.
    deltas: Vec<f64>,
    /// How each row's bound was obtained.
    methods: Vec<ifair::CertMethod>,
    /// Per-row `deltas[i] <= delta` verdicts; `null` when the request
    /// carried no threshold.
    certified: Option<Vec<bool>>,
}

/// Body of every error response.
#[derive(Debug, Serialize)]
struct ErrorResponse {
    error: String,
}

/// Body of `GET /healthz`.
#[derive(Debug, Serialize)]
struct HealthResponse {
    status: String,
    models: Vec<String>,
    generation: u64,
}

/// Body of a successful `POST /admin/reload`.
#[derive(Debug, Serialize)]
struct ReloadResponse {
    generation: u64,
    models: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_paths_parse() {
        assert_eq!(
            parse_model_path("/v1/models/credit/transform"),
            Some(("credit", PathOp::Transform))
        );
        assert_eq!(
            parse_model_path("/v1/models/m2/predict"),
            Some(("m2", PathOp::Predict))
        );
        assert_eq!(
            parse_model_path("/v1/models/m3/certify"),
            Some(("m3", PathOp::Certify))
        );
        assert_eq!(parse_model_path("/v1/models//transform"), None);
        assert_eq!(parse_model_path("/v1/models/m/evaluate"), None);
        assert_eq!(parse_model_path("/v2/models/m/transform"), None);
        assert_eq!(parse_model_path("/v1/models/m"), None);
    }

    #[test]
    fn rows_request_accepts_optional_group() {
        let r: RowsRequest = serde_json::from_str(r#"{"rows":[[1.0,2.0]]}"#).unwrap();
        assert!(r.group.is_none());
        let r: RowsRequest = serde_json::from_str(r#"{"rows":[[1.0,2.0]],"group":[1]}"#).unwrap();
        assert_eq!(r.group, Some(vec![1]));
        assert!(serde_json::from_str::<RowsRequest>(r#"{"group":[1]}"#).is_err());
    }

    #[test]
    fn certify_request_requires_eps_and_allows_delta() {
        let r: CertifyRequest = serde_json::from_str(r#"{"rows":[[1.0,2.0]],"eps":0.05}"#).unwrap();
        assert_eq!(r.eps, 0.05);
        assert!(r.delta.is_none());
        let r: CertifyRequest =
            serde_json::from_str(r#"{"rows":[[1.0,2.0]],"eps":0.05,"delta":0.1}"#).unwrap();
        assert_eq!(r.delta, Some(0.1));
        // eps is mandatory: rows alone must not parse.
        assert!(serde_json::from_str::<CertifyRequest>(r#"{"rows":[[1.0]]}"#).is_err());
    }

    #[test]
    fn admission_slots_release_exactly_once() {
        let mut inflight = HashMap::new();
        inflight.insert("m".to_string(), 2usize);
        let mut p = PendingReq {
            seq: 0,
            endpoint: Endpoint::Transform,
            anchor: Instant::now(),
            enqueued_at: Instant::now(),
            deadline: None,
            cancelled: None,
            model_name: Some("m".to_string()),
            slot_held: true,
            rows: 1,
            certify: None,
            reply: None,
            close_after: false,
        };
        release_slot(&mut inflight, &mut p);
        assert_eq!(inflight.get("m"), Some(&1));
        // A second release (timer answered, then the connection closed)
        // must be a no-op.
        release_slot(&mut inflight, &mut p);
        assert_eq!(inflight.get("m"), Some(&1));
        let mut q = PendingReq {
            slot_held: true,
            model_name: Some("m".to_string()),
            ..p
        };
        release_slot(&mut inflight, &mut q);
        assert!(!inflight.contains_key("m"), "zero entries are pruned");
    }
}
