//! Request counters and latency percentiles, scraped as Prometheus text.

use crate::supervisor::ThreadKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of recent request latencies retained for percentile estimation.
/// A fixed ring keeps the metrics path allocation-free after warm-up and
/// makes the percentiles a sliding window over recent traffic.
const LATENCY_WINDOW: usize = 4096;

/// Counters shared by every connection handler; scraped by `GET /metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    requests_total: AtomicU64,
    transform_requests: AtomicU64,
    predict_requests: AtomicU64,
    certify_requests: AtomicU64,
    rows_served: AtomicU64,
    errors_total: AtomicU64,
    rejected_total: AtomicU64,
    shed_total: AtomicU64,
    throttled_total: AtomicU64,
    deadline_exceeded_total: AtomicU64,
    timed_out_total: AtomicU64,
    socket_config_errors_total: AtomicU64,
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    keepalive_requests_total: AtomicU64,
    inline_total: AtomicU64,
    restarts_reactor: AtomicU64,
    restarts_batcher: AtomicU64,
    latencies: Mutex<LatencyRing>,
    /// Latest certified fraction per `(model, ε)` — updated by certify
    /// requests that carry a `delta` threshold; a BTreeMap keeps the
    /// exposition order stable across scrapes.
    certified_fraction: Mutex<BTreeMap<(String, String), f64>>,
}

/// Fixed-capacity ring of latency samples in nanoseconds.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, ns: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(ns);
        } else {
            self.samples[self.next] = ns;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// `(p50, p99)` over the retained window, in nanoseconds.
    fn percentiles(&self) -> Option<(u64, u64)> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Some((at(0.50), at(0.99)))
    }
}

/// Which endpoint a request hit, for per-endpoint counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/models/{name}/transform`
    Transform,
    /// `POST /v1/models/{name}/predict`
    Predict,
    /// `POST /v1/models/{name}/certify`
    Certify,
    /// Everything else (`/healthz`, `/metrics`, `/admin/reload`, 404s).
    Other,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one completed request: endpoint, rows returned, wall-clock
    /// latency, and response status.
    pub fn observe(&self, endpoint: Endpoint, rows: usize, latency: Duration, status: u16) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        match endpoint {
            Endpoint::Transform => self.transform_requests.fetch_add(1, Ordering::Relaxed),
            Endpoint::Predict => self.predict_requests.fetch_add(1, Ordering::Relaxed),
            Endpoint::Certify => self.certify_requests.fetch_add(1, Ordering::Relaxed),
            Endpoint::Other => 0,
        };
        if rows > 0 {
            self.rows_served.fetch_add(rows as u64, Ordering::Relaxed);
        }
        if status >= 400 {
            self.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        // Recover a poisoned ring rather than propagate: losing one latency
        // sample to a panicked peer is fine, taking the handler down is not.
        self.latencies
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(ns);
    }

    /// Counts one request or connection shed with a 503 because a bound
    /// was hit (job queue full, connection cap reached) — such requests
    /// may never reach [`Metrics::observe`].
    pub fn observe_rejected(&self) {
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request answered 429 because its model's in-flight
    /// admission cap was reached.
    pub fn observe_throttled(&self) {
        self.throttled_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection (and raises the active gauge).
    pub fn observe_connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the active-connections gauge when a connection closes.
    pub fn observe_connection_closed(&self) {
        // Saturating: a double-close accounting slip must not wrap the gauge.
        let _ = self
            .connections_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Counts one request served on an already-used keep-alive connection
    /// (the second and later requests of each connection).
    pub fn observe_keepalive_reuse(&self) {
        self.keepalive_requests_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one model request computed on the reactor thread, without a
    /// batcher hand-off.
    pub fn observe_inline(&self) {
        self.inline_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request shed with a 503 because its deadline budget was
    /// exhausted before compute started.
    pub fn observe_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request whose deadline expired while it waited for its
    /// batch reply (answered 504).
    pub fn observe_deadline_exceeded(&self) {
        self.deadline_exceeded_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request abandoned after the server-side reply timeout
    /// (answered 500; its batch job is cancelled and dropped at scatter).
    pub fn observe_timed_out(&self) {
        self.timed_out_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection closed because its socket timeouts could not
    /// be configured (serving without them risks wedging a worker forever).
    pub fn observe_socket_config_error(&self) {
        self.socket_config_errors_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records the certified fraction observed by a certify request that
    /// carried a `delta` threshold: the share of its rows whose certified
    /// δ was within the threshold, labelled by model and ε. Later requests
    /// at the same `(model, ε)` overwrite the gauge (latest wins).
    pub fn observe_certified_fraction(&self, model: &str, eps: f64, fraction: f64) {
        self.certified_fraction
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert((model.to_string(), format!("{eps}")), fraction);
    }

    /// Counts one supervised thread respawned after a panic.
    pub fn observe_thread_restart(&self, kind: ThreadKind) {
        let counter = match kind {
            ThreadKind::Reactor => &self.restarts_reactor,
            ThreadKind::Batcher => &self.restarts_batcher,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Total respawns of one supervised thread kind.
    pub fn thread_restarts(&self, kind: ThreadKind) -> u64 {
        match kind {
            ThreadKind::Reactor => &self.restarts_reactor,
            ThreadKind::Batcher => &self.restarts_batcher,
        }
        .load(Ordering::Relaxed)
    }

    /// Total requests shed for an exhausted deadline budget.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Total requests answered 429 at the per-model admission cap.
    pub fn throttled_total(&self) -> u64 {
        self.throttled_total.load(Ordering::Relaxed)
    }

    /// Total connections accepted since start.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Connections currently open in the reactor.
    pub fn connections_active(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Total requests served on reused keep-alive connections.
    pub fn keepalive_requests_total(&self) -> u64 {
        self.keepalive_requests_total.load(Ordering::Relaxed)
    }

    /// Total model requests answered on the reactor thread.
    pub fn inline_total(&self) -> u64 {
        self.inline_total.load(Ordering::Relaxed)
    }

    /// Total requests whose deadline expired mid-wait.
    pub fn deadline_exceeded_total(&self) -> u64 {
        self.deadline_exceeded_total.load(Ordering::Relaxed)
    }

    /// Total requests abandoned at the server-side reply timeout.
    pub fn timed_out_total(&self) -> u64 {
        self.timed_out_total.load(Ordering::Relaxed)
    }

    /// Total requests handled so far (any endpoint, any status).
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Total data rows returned by transform/predict responses.
    pub fn rows_served(&self) -> u64 {
        self.rows_served.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition served at `GET /metrics`.
    /// `models_loaded`, `generation`, and the per-model `precisions`
    /// (`(name, precision label)` pairs) come from the registry.
    pub fn render(
        &self,
        models_loaded: usize,
        generation: u64,
        precisions: &[(String, &'static str)],
    ) -> String {
        let mut out = String::with_capacity(1024);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "ifair_requests_total",
            "HTTP requests handled.",
            self.requests_total(),
        );
        counter(
            "ifair_transform_requests_total",
            "Transform requests handled.",
            self.transform_requests.load(Ordering::Relaxed),
        );
        counter(
            "ifair_predict_requests_total",
            "Predict requests handled.",
            self.predict_requests.load(Ordering::Relaxed),
        );
        counter(
            "ifair_certify_requests_total",
            "Certify requests handled.",
            self.certify_requests.load(Ordering::Relaxed),
        );
        counter(
            "ifair_rows_served_total",
            "Data rows returned by transform/predict responses.",
            self.rows_served(),
        );
        counter(
            "ifair_requests_inline_total",
            "Model requests answered on the reactor thread without a batcher hand-off.",
            self.inline_total(),
        );
        counter(
            "ifair_request_errors_total",
            "Requests answered with a 4xx/5xx status.",
            self.errors_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_requests_rejected_total",
            "Requests/connections shed with 503 because the job queue or connection cap was full.",
            self.rejected_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_requests_shed_total",
            "Requests shed with 503 because their deadline budget was exhausted before compute.",
            self.shed_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_requests_throttled_total",
            "Requests answered 429 at the per-model in-flight admission cap.",
            self.throttled_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_requests_deadline_exceeded_total",
            "Requests answered 504 because their deadline expired awaiting the batch reply.",
            self.deadline_exceeded_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_requests_timed_out_total",
            "Requests abandoned (500) at the server-side reply timeout; their jobs are cancelled.",
            self.timed_out_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_socket_config_errors_total",
            "Connections dropped because their socket could not be configured (nonblocking/nodelay).",
            self.socket_config_errors_total.load(Ordering::Relaxed),
        );
        counter(
            "ifair_connections_total",
            "TCP connections accepted by the reactor.",
            self.connections_total(),
        );
        counter(
            "ifair_keepalive_requests_total",
            "Requests served on an already-used keep-alive connection.",
            self.keepalive_requests_total(),
        );
        out.push_str(&format!(
            "# HELP ifair_connections_active Connections currently open in the reactor.\n# TYPE ifair_connections_active gauge\nifair_connections_active {}\n",
            self.connections_active()
        ));
        out.push_str(
            "# HELP ifair_thread_restarts_total Supervised threads respawned after a panic.\n\
             # TYPE ifair_thread_restarts_total counter\n",
        );
        for kind in [ThreadKind::Reactor, ThreadKind::Batcher] {
            out.push_str(&format!(
                "ifair_thread_restarts_total{{kind=\"{}\"}} {}\n",
                kind.label(),
                self.thread_restarts(kind)
            ));
        }
        out.push_str(&format!(
            "# HELP ifair_models_loaded Artifacts currently loaded.\n# TYPE ifair_models_loaded gauge\nifair_models_loaded {models_loaded}\n"
        ));
        out.push_str(&format!(
            "# HELP ifair_registry_generation Monotone registry version, bumped by reloads.\n# TYPE ifair_registry_generation gauge\nifair_registry_generation {generation}\n"
        ));
        if !precisions.is_empty() {
            out.push_str(
                "# HELP ifair_model_precision Scalar precision each model serves at.\n# TYPE ifair_model_precision gauge\n",
            );
            for (name, precision) in precisions {
                out.push_str(&format!(
                    "ifair_model_precision{{model=\"{name}\",precision=\"{precision}\"}} 1\n"
                ));
            }
        }
        {
            let fractions = self
                .certified_fraction
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            // The family header renders even with no samples yet, so the
            // doc_lint capture sees the series regardless of scrape order.
            out.push_str(
                "# HELP ifair_certified_fraction Fraction of rows in the latest thresholded certify request whose certified delta met the requested threshold.\n# TYPE ifair_certified_fraction gauge\n",
            );
            for ((model, eps), fraction) in fractions.iter() {
                out.push_str(&format!(
                    "ifair_certified_fraction{{model=\"{model}\",eps=\"{eps}\"}} {fraction}\n"
                ));
            }
        }
        let window = self
            .latencies
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        out.push_str(
            "# HELP ifair_request_latency_seconds Request latency over a sliding window.\n# TYPE ifair_request_latency_seconds summary\n",
        );
        if let Some((p50, p99)) = window.percentiles() {
            out.push_str(&format!(
                "ifair_request_latency_seconds{{quantile=\"0.5\"}} {}\n",
                p50 as f64 / 1e9
            ));
            out.push_str(&format!(
                "ifair_request_latency_seconds{{quantile=\"0.99\"}} {}\n",
                p99 as f64 / 1e9
            ));
        }
        out.push_str(&format!(
            "ifair_request_latency_seconds_count {}\n",
            window.samples.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.observe(Endpoint::Transform, 8, Duration::from_micros(100), 200);
        m.observe(Endpoint::Predict, 2, Duration::from_micros(300), 200);
        m.observe(Endpoint::Other, 0, Duration::from_micros(50), 404);
        m.observe_rejected();
        assert_eq!(m.requests_total(), 3);
        assert_eq!(m.rows_served(), 10);
        let text = m.render(2, 7, &[("a".to_string(), "f64"), ("b".to_string(), "f32")]);
        assert!(text.contains("ifair_requests_total 3"));
        assert!(text.contains("ifair_transform_requests_total 1"));
        assert!(text.contains("ifair_predict_requests_total 1"));
        assert!(text.contains("ifair_rows_served_total 10"));
        assert!(text.contains("ifair_request_errors_total 1"));
        assert!(text.contains("ifair_requests_rejected_total 1"));
        assert!(text.contains("ifair_models_loaded 2"));
        assert!(text.contains("ifair_requests_shed_total 0"));
        assert!(text.contains("ifair_requests_throttled_total 0"));
        assert!(text.contains("ifair_requests_deadline_exceeded_total 0"));
        assert!(text.contains("ifair_requests_timed_out_total 0"));
        assert!(text.contains("ifair_socket_config_errors_total 0"));
        assert!(text.contains("ifair_connections_total 0"));
        assert!(text.contains("ifair_connections_active 0"));
        assert!(text.contains("ifair_keepalive_requests_total 0"));
        assert!(text.contains("ifair_thread_restarts_total{kind=\"reactor\"} 0"));
        assert!(text.contains("ifair_registry_generation 7"));
        assert!(text.contains("ifair_model_precision{model=\"a\",precision=\"f64\"} 1"));
        assert!(text.contains("ifair_model_precision{model=\"b\",precision=\"f32\"} 1"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("ifair_request_latency_seconds_count 3"));
    }

    #[test]
    fn robustness_counters_accumulate_and_render() {
        let m = Metrics::new();
        m.observe_shed();
        m.observe_shed();
        m.observe_deadline_exceeded();
        m.observe_timed_out();
        m.observe_socket_config_error();
        m.observe_thread_restart(ThreadKind::Batcher);
        m.observe_thread_restart(ThreadKind::Batcher);
        m.observe_thread_restart(ThreadKind::Reactor);
        assert_eq!(m.shed_total(), 2);
        assert_eq!(m.deadline_exceeded_total(), 1);
        assert_eq!(m.timed_out_total(), 1);
        assert_eq!(m.thread_restarts(ThreadKind::Batcher), 2);
        assert_eq!(m.thread_restarts(ThreadKind::Reactor), 1);
        let text = m.render(0, 0, &[]);
        assert!(text.contains("ifair_requests_shed_total 2"));
        assert!(text.contains("ifair_requests_deadline_exceeded_total 1"));
        assert!(text.contains("ifair_requests_timed_out_total 1"));
        assert!(text.contains("ifair_socket_config_errors_total 1"));
        assert!(text.contains("ifair_thread_restarts_total{kind=\"batcher\"} 2"));
        assert!(text.contains("ifair_thread_restarts_total{kind=\"reactor\"} 1"));
    }

    #[test]
    fn connection_lifecycle_counters_track_opens_reuse_and_throttling() {
        let m = Metrics::new();
        m.observe_connection_opened();
        m.observe_connection_opened();
        m.observe_keepalive_reuse();
        m.observe_throttled();
        m.observe_connection_closed();
        assert_eq!(m.connections_total(), 2);
        assert_eq!(m.connections_active(), 1);
        assert_eq!(m.keepalive_requests_total(), 1);
        assert_eq!(m.throttled_total(), 1);
        let text = m.render(0, 0, &[]);
        assert!(text.contains("ifair_connections_total 2"));
        assert!(text.contains("ifair_connections_active 1"));
        assert!(text.contains("ifair_keepalive_requests_total 1"));
        assert!(text.contains("ifair_requests_throttled_total 1"));
        // The gauge saturates at zero instead of wrapping.
        m.observe_connection_closed();
        m.observe_connection_closed();
        assert_eq!(m.connections_active(), 0);
    }

    #[test]
    fn certify_counters_and_fraction_gauge_render() {
        let m = Metrics::new();
        m.observe(Endpoint::Certify, 4, Duration::from_micros(80), 200);
        m.observe_certified_fraction("credit", 0.05, 0.75);
        m.observe_certified_fraction("credit", 0.05, 0.5); // latest wins
        m.observe_certified_fraction("income", 0.1, 1.0);
        let text = m.render(1, 1, &[]);
        assert!(text.contains("ifair_certify_requests_total 1"));
        assert!(text.contains("ifair_certified_fraction{model=\"credit\",eps=\"0.05\"} 0.5"));
        assert!(text.contains("ifair_certified_fraction{model=\"income\",eps=\"0.1\"} 1"));
        // Without any thresholded certify request the gauge family is absent
        // (but the counter still renders for doc_lint).
        let empty = Metrics::new().render(0, 0, &[]);
        assert!(empty.contains("ifair_certify_requests_total 0"));
        assert!(!empty.contains("ifair_certified_fraction{"));
    }

    #[test]
    fn inline_counter_accumulates_and_renders() {
        let m = Metrics::new();
        assert!(m
            .render(0, 0, &[])
            .contains("ifair_requests_inline_total 0"));
        m.observe_inline();
        m.observe_inline();
        assert_eq!(m.inline_total(), 2);
        assert!(m
            .render(0, 0, &[])
            .contains("ifair_requests_inline_total 2"));
    }

    #[test]
    fn percentiles_track_the_window() {
        let ring = {
            let mut r = LatencyRing::default();
            for ns in 1..=100u64 {
                r.push(ns);
            }
            r
        };
        let (p50, p99) = ring.percentiles().unwrap();
        assert_eq!(p50, 51); // round(99 * 0.5) = 50 -> sorted[50] = 51
        assert_eq!(p99, 99);
        assert!(LatencyRing::default().percentiles().is_none());
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let mut r = LatencyRing::default();
        for ns in 0..(LATENCY_WINDOW as u64 + 10) {
            r.push(ns);
        }
        assert_eq!(r.samples.len(), LATENCY_WINDOW);
        // The first ten slots now hold the newest samples.
        assert_eq!(r.samples[0], LATENCY_WINDOW as u64);
    }
}
