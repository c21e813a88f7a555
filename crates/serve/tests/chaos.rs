//! Deterministic chaos tests (`--features fault-injection`).
//!
//! Each test installs a seeded [`FaultPlan`] — scheduled panics, I/O
//! errors, slow reads, torn writes — hammers a live server through real
//! sockets, and asserts the failure contract: every request gets a
//! well-formed HTTP response or a typed client error (never a garbled
//! "success"), supervised threads respawn and are counted in `/metrics`,
//! no thread leaks, and once the plan is cleared the server's answers are
//! **bit-identical** to a healthy run. Same seed, same fault sequence,
//! same outcome — a failing chaos run replays exactly.

#![cfg(feature = "fault-injection")]

use ifair::api::faults::{self, FaultPlan};
use ifair::core::IFairConfig;
use ifair::data::Dataset;
use ifair::linalg::Matrix;
use ifair::Pipeline;
use ifair_serve::client::{self, RetryPolicy};
use ifair_serve::supervisor::ThreadKind;
use ifair_serve::{ModelRegistry, ModelSpec, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// The fault plan is process-global, so chaos tests must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const BODY: &str = "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]]}";
/// The certify-op storm payload: same rows, a fixed radius and threshold.
const CERTIFY_BODY: &str = "{\"rows\":[[0.3,0.7,1.0],[0.6,0.4,0.0]],\"eps\":0.05,\"delta\":0.5}";

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
    let path = std::env::temp_dir().join(format!(
        "ifair-serve-chaos-{tag}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, pipeline.to_json().unwrap()).unwrap();
    path
}

fn boot(path: &std::path::Path) -> ifair_serve::ServerHandle {
    let registry = ModelRegistry::load(vec![ModelSpec {
        name: "m".into(),
        path: path.to_path_buf(),
        precision: ifair_serve::Precision::F64,
    }])
    .unwrap();
    Server::bind(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            n_threads: 1,
            queue_capacity: 32,
            max_batch_rows: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
}

/// Live threads of this process, from `/proc/self/status`.
fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Posts one transform; OK responses must be parseable with a sane status.
fn fire(addr: std::net::SocketAddr) -> Result<(u16, String), std::io::Error> {
    client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[],
        Some(BODY),
        Some(Duration::from_secs(10)),
    )
}

/// Posts one certify round (the storm table's newest op).
fn fire_certify(addr: std::net::SocketAddr) -> Result<(u16, String), std::io::Error> {
    client::request_with(
        addr,
        "POST",
        "/v1/models/m/certify",
        &[],
        Some(CERTIFY_BODY),
        Some(Duration::from_secs(10)),
    )
}

/// The healthy-run reference bits for `BODY` against the artifact.
fn healthy_bits(addr: std::net::SocketAddr) -> String {
    let (status, body) = fire(addr).expect("healthy request");
    assert_eq!(status, 200, "{body}");
    body
}

/// The healthy-run reference bits for `CERTIFY_BODY`.
fn healthy_certify_bits(addr: std::net::SocketAddr) -> String {
    let (status, body) = fire_certify(addr).expect("healthy certify request");
    assert_eq!(status, 200, "{body}");
    body
}

/// Waits (bounded) for a restart counter to reach `want`: the supervisor
/// bumps it after unwinding, which can race a sibling thread already
/// serving the next request.
fn await_restarts(handle: &ifair_serve::ServerHandle, kind: ThreadKind, want: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let got = handle.metrics().thread_restarts(kind);
        if got >= want || std::time::Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The full storm at one seed: panics in every supervised thread, a torn
/// write, a slow read, and an artifact-read error, at seed-drawn call
/// numbers, with rounds alternating transform and certify ops so every
/// fault can land mid-certify too. Every outcome must be well-formed; the
/// server must end the storm answering bit-identically to its healthy self
/// on both ops.
fn chaos_storm(seed: u64) {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact(&format!("storm{seed}"), 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let reference = healthy_bits(addr);
    let certify_reference = healthy_certify_bits(addr);
    let threads_before = thread_count();

    const ROUNDS: u64 = 40;
    let mut plan = FaultPlan::new(seed);
    // Each site faults once, at a call number drawn from the seed. Call
    // counters only advance when traffic reaches the site — the reactor's
    // panic site ticks once per event-loop wakeup, the batcher's once per
    // batch — so the draws stay within the early rounds to guarantee every
    // fault really fires.
    let reactor_call = plan.draw(4, 12);
    let batcher_call = plan.draw(2, 10);
    let compute_call = plan.draw(12, 20);
    let torn_call = plan.draw(2, 20);
    let read_delay_call = plan.draw(2, 20);
    let plan = plan
        .panic_on("serve.reactor", &[reactor_call])
        .panic_on("serve.batcher", &[batcher_call])
        .panic_on("serve.batch.compute", &[compute_call])
        .torn_write_on("serve.conn.write", &[torn_call])
        .delay_on("serve.conn.read", &[read_delay_call], 30);
    faults::install(plan);

    let mut outcomes = [0u64; 3]; // ok / http error / transport error
    for round in 0..ROUNDS {
        // Alternate ops so the scheduled faults (reactor respawn included)
        // land mid-certify on half the storm.
        let certify_round = round % 2 == 1;
        let expected = if certify_round {
            &certify_reference
        } else {
            &reference
        };
        let shot = if certify_round {
            fire_certify(addr)
        } else {
            fire(addr)
        };
        match shot {
            Ok((200, body)) => {
                assert_eq!(&body, expected, "seed {seed}: garbled 200");
                outcomes[0] += 1;
            }
            Ok((status, body)) => {
                assert!(
                    (400..=599).contains(&status),
                    "seed {seed}: nonsense status {status}: {body}"
                );
                assert!(body.contains("error"), "seed {seed}: untyped error {body}");
                outcomes[1] += 1;
            }
            // Torn write / dropped connection: the client sees a transport
            // error, never a short-but-parseable success.
            Err(_) => outcomes[2] += 1,
        }
    }

    // Every scheduled fault actually fired (the schedule wasn't skipped).
    for site in [
        "serve.reactor",
        "serve.batcher",
        "serve.batch.compute",
        "serve.conn.write",
        "serve.conn.read",
    ] {
        assert_eq!(
            faults::fault_count(site),
            1,
            "seed {seed}: {site} never fired"
        );
    }
    faults::clear();

    // The supervisors counted their respawns...
    assert!(
        await_restarts(&handle, ThreadKind::Reactor, 1) >= 1,
        "seed {seed}: reactor restart missing"
    );
    assert!(
        await_restarts(&handle, ThreadKind::Batcher, 1) >= 1,
        "seed {seed}: batcher restart missing"
    );
    // ...and /metrics exposes them.
    let (status, rendered) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        rendered.contains("ifair_thread_restarts_total{kind=\"reactor\"}"),
        "{rendered}"
    );

    // Post-storm: bit-identical to the healthy run, and no thread leaked —
    // every respawn replaced a death, never added a sibling.
    for _ in 0..3 {
        let (status, body) = fire(addr).expect("post-storm request");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, reference, "seed {seed}: post-storm bits diverged");
        let (status, body) = fire_certify(addr).expect("post-storm certify");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, certify_reference,
            "seed {seed}: post-storm certify bits diverged"
        );
    }
    assert_eq!(
        thread_count(),
        threads_before,
        "seed {seed}: thread count drifted"
    );
    assert!(
        outcomes[0] >= ROUNDS / 2,
        "seed {seed}: too few successes: {outcomes:?}"
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn chaos_storm_seed_1() {
    chaos_storm(0xc4a0_5001);
}

#[test]
fn chaos_storm_seed_2() {
    chaos_storm(0xc4a0_5002);
}

#[test]
fn chaos_storm_seed_3() {
    chaos_storm(0xc4a0_5003);
}

/// Satellite check, per thread kind: kill exactly one thread of each kind
/// and verify its supervisor respawned it (counter + continued service).
#[test]
fn each_thread_kind_respawns_after_a_kill() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("respawn", 3);

    for (site, kind) in [
        ("serve.reactor", ThreadKind::Reactor),
        ("serve.batcher", ThreadKind::Batcher),
    ] {
        let handle = boot(&path);
        let addr = handle.addr();
        let reference = healthy_bits(addr);
        let threads_before = thread_count();

        faults::install(FaultPlan::new(9).panic_on(site, &[1]));
        // The request that trips the fault may die with the thread — any
        // well-formed error is acceptable; a garbled 200 is not.
        match fire(addr) {
            Ok((200, body)) => assert_eq!(body, reference, "{site}: garbled 200"),
            Ok((status, _)) => assert!((400..=599).contains(&status), "{site}: {status}"),
            Err(_) => {}
        }
        assert_eq!(faults::fault_count(site), 1, "{site} never fired");
        faults::clear();

        // The supervisor replaced the dead thread: service continues,
        // the restart is counted, and the thread census is unchanged.
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            attempt_timeout: Duration::from_secs(5),
            seed: 1,
        };
        let (status, body) = policy
            .request(addr, "POST", "/v1/models/m/transform", &[], Some(BODY))
            .expect("post-kill request");
        assert_eq!(status, 200, "{site}: {body}");
        assert_eq!(body, reference, "{site}: post-kill bits diverged");
        assert_eq!(
            await_restarts(&handle, kind, 1),
            1,
            "{site}: restart not counted"
        );
        assert_eq!(thread_count(), threads_before, "{site}: thread leak");
        handle.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

/// The reactor panics while holding the shared reactor-state mutex (it
/// holds it for the whole loop), poisoning it; the respawned loop must
/// recover the lock — connections, poller, and completion queue intact —
/// and keep serving rather than cascading the panic forever.
#[test]
fn poisoned_reactor_state_is_recovered_not_fatal() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("poison", 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let reference = healthy_bits(addr);

    faults::install(FaultPlan::new(5).panic_on("serve.reactor", &[2]));
    // The first post-install wakeup passes (call 1); a later wakeup panics
    // mid-loop with the state mutex held, poisoning it.
    let _ = fire(addr);
    let _ = fire(addr);
    assert_eq!(faults::fault_count("serve.reactor"), 1);
    faults::clear();

    for _ in 0..4 {
        let (status, body) = fire(addr).expect("post-poison request");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, reference, "post-poison bits diverged");
    }
    assert!(await_restarts(&handle, ThreadKind::Reactor, 1) >= 1);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A panic *inside* batch compute is trapped per-batch: the requester gets
/// a typed 500, the batcher thread survives (no restart counted).
#[test]
fn compute_panic_is_a_500_not_a_batcher_death() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("trap", 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let reference = healthy_bits(addr);

    faults::install(FaultPlan::new(6).panic_on("serve.batch.compute", &[1]));
    let (status, body) = fire(addr).expect("a trapped panic still answers");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("internal error"), "{body}");
    faults::clear();

    assert_eq!(handle.metrics().thread_restarts(ThreadKind::Batcher), 0);
    let (status, body) = fire(addr).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, reference);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// An injected I/O error while re-reading artifacts fails the reload with
/// a 500 and leaves the previous generation serving, bit-for-bit.
#[test]
fn artifact_read_fault_fails_reload_cleanly() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("reload", 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let reference = healthy_bits(addr);

    faults::install(FaultPlan::new(7).io_error_on("serve.artifact.read", &[1]));
    let (status, body) = client::post(addr, "/admin/reload", "").unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("injected fault"), "{body}");
    faults::clear();

    // Generation 1 still serves, untouched; a clean reload then succeeds.
    let (status, body) = fire(addr).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, reference);
    let (status, body) = client::post(addr, "/admin/reload", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":2"), "{body}");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A torn response never parses as success, and the retrying client rides
/// it out to the bit-identical answer.
#[test]
fn retry_policy_rides_out_torn_writes() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("torn", 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let reference = healthy_bits(addr);

    faults::install(FaultPlan::new(8).torn_write_on("serve.conn.write", &[1]));
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        attempt_timeout: Duration::from_secs(5),
        seed: 2,
    };
    let (status, body) = policy
        .request(addr, "POST", "/v1/models/m/transform", &[], Some(BODY))
        .expect("retry rides out the torn write");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, reference, "post-tear bits diverged");
    assert_eq!(faults::fault_count("serve.conn.write"), 1);
    faults::clear();
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Reads `n` Content-Length-framed responses off one socket, in arrival
/// order, returning `(status, body)` pairs.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<(u16, String)> {
    let mut buf: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        // Frame as many responses as the buffer already holds.
        while let Some(header_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8(buf[..header_end].to_vec()).unwrap();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .expect("status line")
                .parse()
                .expect("numeric status");
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    if name.eq_ignore_ascii_case("content-length") {
                        value.trim().parse().ok()
                    } else {
                        None
                    }
                })
                .unwrap_or(0);
            let total = header_end + 4 + content_length;
            if buf.len() < total {
                break;
            }
            let body = String::from_utf8(buf[header_end + 4..total].to_vec()).unwrap();
            out.push((status, body));
            buf.drain(..total);
            if out.len() == n {
                return out;
            }
        }
        let got = stream.read(&mut scratch).expect("mid-pipeline read");
        assert!(got > 0, "connection closed before all responses arrived");
        buf.extend_from_slice(&scratch[..got]);
    }
}

/// The ISSUE satellite: a reactor panic mid-pipeline must not lose or
/// cross-wire connections. Two keep-alive connections each pipeline three
/// distinct requests; the panic fires while they are in flight; every
/// connection still receives its own three responses, in order,
/// bit-identical to a healthy run, and the restart is counted.
#[test]
fn reactor_panic_mid_pipeline_keeps_connections_and_order() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("pipeline", 3);
    let handle = boot(&path);
    let addr = handle.addr();

    // Three distinct payloads, so an answer delivered to the wrong request
    // (or the wrong connection) cannot be bit-identical by accident.
    let bodies: Vec<String> = (0..3)
        .map(|i| format!("{{\"rows\":[[0.{i}1,0.5,1.0],[0.3,0.{i}2,0.0]]}}"))
        .collect();
    let references: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, reply) = client::post(addr, "/v1/models/m/transform", body).unwrap();
            assert_eq!(status, 200, "{reply}");
            reply
        })
        .collect();
    assert_ne!(references[0], references[1], "payloads not distinct");

    // The reactor ticks its panic site once per wakeup; two connects plus
    // their reads guarantee call 2 lands while the pipeline is in flight.
    faults::install(FaultPlan::new(11).panic_on("serve.reactor", &[2]));
    let mut conns: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for stream in &mut conns {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut wire = String::new();
        for body in &bodies {
            wire.push_str(&format!(
                "POST /v1/models/m/transform HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        stream.write_all(wire.as_bytes()).unwrap();
    }

    for (c, stream) in conns.iter_mut().enumerate() {
        let got = read_responses(stream, 3);
        for (i, (status, body)) in got.iter().enumerate() {
            assert_eq!(*status, 200, "conn {c} response {i}: {body}");
            assert_eq!(
                body, &references[i],
                "conn {c} response {i} out of order or cross-wired"
            );
        }
    }
    assert_eq!(faults::fault_count("serve.reactor"), 1, "panic never fired");
    faults::clear();
    assert!(await_restarts(&handle, ThreadKind::Reactor, 1) >= 1);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A single-row body: with the batcher idle, the reactor computes it.
const ONE_ROW_BODY: &str = "{\"rows\":[[0.3,0.7,1.0]]}";

/// Posts one single-row transform.
fn fire_one_row(addr: std::net::SocketAddr) -> Result<(u16, String), std::io::Error> {
    client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[],
        Some(ONE_ROW_BODY),
        Some(Duration::from_secs(10)),
    )
}

/// A panic inside the compute of a single-row request, which runs on the
/// reactor thread, is trapped there: the requester gets a typed 500, no
/// thread restarts, and the next single-row reply keeps its bits.
#[test]
fn inline_compute_panic_is_a_500_not_a_reactor_death() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("inline-trap", 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let (status, reference) = fire_one_row(addr).expect("healthy single-row request");
    assert_eq!(status, 200, "{reference}");
    let inline_before = handle.metrics().inline_total();
    assert_eq!(inline_before, 1, "the reference was answered inline");

    faults::install(FaultPlan::new(12).panic_on("serve.batch.compute", &[1]));
    let (status, body) = fire_one_row(addr).expect("a trapped panic still answers");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("internal error"), "{body}");
    assert_eq!(faults::fault_count("serve.batch.compute"), 1);
    faults::clear();
    assert_eq!(handle.metrics().inline_total(), inline_before + 1);

    let (status, body) = fire_one_row(addr).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, reference, "post-panic bits diverged");
    assert_eq!(handle.metrics().inline_total(), inline_before + 2);
    assert_eq!(handle.metrics().thread_restarts(ThreadKind::Reactor), 0);
    assert_eq!(handle.metrics().thread_restarts(ThreadKind::Batcher), 0);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The batcher dies holding a 2-row job. The job is dropped while the
/// thread unwinds, and its ticket goes back with it: the next single-row
/// request finds no job outstanding and is answered inline. A leaked
/// ticket would switch the inline path off for good.
#[test]
fn a_job_lost_with_the_batcher_gives_its_ticket_back() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let path = write_artifact("lost-ticket", 3);
    let handle = boot(&path);
    let addr = handle.addr();
    let (status, reference) = fire_one_row(addr).expect("healthy single-row request");
    assert_eq!(status, 200, "{reference}");

    faults::install(FaultPlan::new(13).panic_on("serve.batcher", &[1]));
    // Nobody answers the lost job, so the client gives up quickly.
    let _ = client::request_with(
        addr,
        "POST",
        "/v1/models/m/transform",
        &[],
        Some(BODY),
        Some(Duration::from_millis(300)),
    );
    assert_eq!(
        faults::fault_count("serve.batcher"),
        1,
        "batcher never died"
    );
    faults::clear();
    assert_eq!(await_restarts(&handle, ThreadKind::Batcher, 1), 1);

    let inline_before = handle.metrics().inline_total();
    let (status, body) = fire_one_row(addr).expect("post-kill single-row request");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, reference, "post-kill bits diverged");
    assert_eq!(
        handle.metrics().inline_total(),
        inline_before + 1,
        "the lost job kept its ticket"
    );
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
