//! The HTTP inference server: configuration, bind, spawn, shutdown.
//!
//! Threading model (all `std`, no async runtime):
//!
//! ```text
//! reactor (1 thread, epoll/poll readiness loop)
//!   accept ─▶ nonblocking read ─▶ zero-copy parse ─▶ validate ─┬─▶ enqueue Job
//!      ▲                     1-row transform/predict, batcher  │        │
//!      │                     idle: compute on this thread ◀────┘        │
//!      └────────── waker ◀── completion channel ◀───────┐               ▼
//!                                               batcher (1 thread)
//!                        coalesce pending jobs ─▶ ONE pooled forward pass
//!                                               │
//!                               ifair_core::par::WorkerPool (n_threads lanes)
//! ```
//!
//! The reactor multiplexes every connection (keep-alive, pipelining,
//! per-model admission control — see `reactor.rs`). The batcher owns the
//! model math of every request but one kind: a single-row transform or
//! predict that finds no job outstanding is computed on the reactor
//! thread, since there is nothing for it to coalesce with. Artifacts
//! hot-reload via `POST /admin/reload`: the registry swap is atomic and
//! in-flight jobs hold their own `Arc` snapshot, so no request is ever
//! dropped or served a half-updated model.

use crate::batch::spawn_batcher;
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::poll::{fd_of, waker_pair, PollBackend, Poller, Waker, INTEREST_READ};
use crate::reactor::{spawn_reactor, TOKEN_LISTENER, TOKEN_WAKER};
use crate::registry::ModelRegistry;
use ifair::core::par::{resolve_threads, WorkerPool};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of [`Server::bind`]. The defaults suit a small container;
/// every knob is exposed as an `ifair serve` flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool lanes for the forward pass; `0` = all hardware threads.
    pub n_threads: usize,
    /// Bounded job queue between reactor and batcher; when full, new
    /// requests are shed with `503` instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// Row cap of one micro-batch (coalesced across concurrent requests).
    pub max_batch_rows: usize,
    /// Maximum concurrently open connections; extras are shed with `503`
    /// at accept. `0` = unlimited.
    pub max_connections: usize,
    /// Requests served per keep-alive connection before the server closes
    /// it (`Connection: close` on the last response). `0` = unlimited.
    pub keep_alive_requests: usize,
    /// Per-model in-flight request cap (admission control); requests over
    /// it are answered `429` with `Retry-After`. `0` = unlimited.
    pub admission_per_model: usize,
    /// Readiness backend: `epoll` on Linux, `poll(2)` fallback.
    pub backend: PollBackend,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            n_threads: 0,
            queue_capacity: 128,
            max_batch_rows: 512,
            max_connections: 1024,
            keep_alive_requests: 0,
            admission_per_model: 0,
            backend: PollBackend::Auto,
        }
    }
}

/// How long the reactor waits for the batcher before answering 500.
/// A request that carries an earlier deadline waits only that long.
pub(crate) const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The per-request deadline header: total budget in milliseconds, measured
/// from the moment the request's first bytes arrived. Queue wait counts
/// against it — a request that waited out its budget is shed, never
/// computed.
pub const DEADLINE_HEADER: &str = "X-Ifair-Deadline-Ms";

/// `Retry-After` seconds suggested on shed 503s and throttled 429s.
pub(crate) const RETRY_AFTER_SECS: u64 = 1;

/// A connection with no buffered requests and no traffic for this long is
/// reclaimed (idle keep-alive / slowloris guard).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A connection whose client stops reading its responses is closed after
/// this long without write progress.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound-but-not-yet-running server. [`Server::spawn`] starts the threads.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<ModelRegistry>,
    config: ServerConfig,
    poller: Poller,
    waker: Waker,
    wake_rx: UnixStream,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:8080"`, or port `0` for an ephemeral
    /// port) over an already-loaded registry, opens the readiness poller,
    /// and registers the listener and wake channel — everything fallible
    /// happens here so [`Server::spawn`] cannot fail.
    pub fn bind(
        addr: &str,
        registry: ModelRegistry,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::io(format!("binding {addr}"), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::io("making the listener nonblocking", e))?;
        let mut poller = Poller::new(config.backend)
            .map_err(|e| ServeError::io("creating the readiness poller", e))?;
        let (waker, wake_rx) =
            waker_pair().map_err(|e| ServeError::io("creating the reactor waker", e))?;
        poller
            .register(fd_of(&listener), TOKEN_LISTENER, INTEREST_READ)
            .map_err(|e| ServeError::io("registering the listener", e))?;
        poller
            .register(fd_of(&wake_rx), TOKEN_WAKER, INTEREST_READ)
            .map_err(|e| ServeError::io("registering the waker", e))?;
        Ok(Server {
            listener,
            registry: Arc::new(registry),
            config,
            poller,
            waker,
            wake_rx,
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has a local address")
    }

    /// The readiness backend in use (`"epoll"` or `"poll"`), for the
    /// startup banner.
    pub fn backend_name(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Starts the reactor and batcher; returns a handle for introspection
    /// and shutdown.
    pub fn spawn(self) -> ServerHandle {
        let Server {
            listener,
            registry,
            config,
            poller,
            waker,
            wake_rx,
        } = self;
        let addr = listener.local_addr().expect("bound listener");
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(WorkerPool::new(resolve_threads(config.n_threads)));
        let (job_tx, batcher) = spawn_batcher(
            Arc::clone(&pool),
            config.queue_capacity,
            config.max_batch_rows,
            Arc::clone(&shutdown),
            Arc::clone(&metrics),
        );
        // The reactor owns the only job sender: when its loop exits, the
        // batcher's queue disconnects and it drains and exits too. Each job
        // it sends carries a ticket on `outstanding`, which the batcher
        // gives back when it answers or drops the job.
        let outstanding = Arc::new(AtomicUsize::new(0));
        let reactor = spawn_reactor(
            listener,
            poller,
            waker.clone(),
            wake_rx,
            Arc::clone(&registry),
            Arc::clone(&metrics),
            job_tx,
            outstanding,
            Arc::clone(&shutdown),
            config,
        );

        ServerHandle {
            addr,
            shutdown,
            reactor: Some(reactor),
            batcher: Some(batcher),
            registry,
            metrics,
            waker,
        }
    }
}

/// A running server: bound address, shared state, and orderly shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    waker: Waker,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the server serves from (shared — reloads through this
    /// handle are visible to the server immediately).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The server's metrics counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Blocks the calling thread until the server stops (for the CLI, that
    /// is effectively forever — processes are stopped by signal).
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.stop_threads();
    }

    /// Stops accepting, drains in-flight requests (bounded), and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Kick the reactor out of its wait so it notices the flag.
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor's exit dropped the only job sender, so the batcher
        // drains its queue and exits.
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_threads();
    }
}
