//! Micro-batching of concurrent inference requests.
//!
//! The reactor hands a [`Job`] carrying a completion callback to a single
//! batcher thread, which drains the queue, coalesces whatever is pending
//! (up to `max_batch_rows` rows) into one stacked `Matrix` per
//! `(model, op)` group, runs **one** pooled forward pass on the shared
//! [`WorkerPool`], and scatters the row ranges back through each job's
//! callback (which posts a completion to the reactor and wakes it).
//! Because every stage of every artifact is row-independent, the stacked
//! pass is bit-identical to running each request alone — batching is
//! purely a throughput optimization.
//!
//! The one exception to the hand-off: a single-row transform or predict
//! that arrives while no job is outstanding is computed on the reactor
//! thread by the same [`compute`] function, without the pool. Every
//! dispatched job holds a [`Ticket`] on the outstanding-job count the
//! reactor reads to decide that.

use crate::metrics::Metrics;
use crate::registry::LoadedModel;
use crate::supervisor::{recover_lock, supervise, ThreadKind};
use ifair::core::par::WorkerPool;
use ifair::linalg::Matrix;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Which model call a job wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Map rows through the transform stages.
    Transform,
    /// Run the full chain and score with the terminal predictor.
    Predict,
    /// Certify each row's ε-box. Carries the radius as raw bits so the op
    /// stays `Copy + Eq` and only jobs with the **same** ε coalesce — a
    /// stacked certify pass is row-independent and ε-uniform, so batching
    /// stays bit-identical to per-request calls.
    Certify {
        /// `f64::to_bits` of the (validated, finite, non-negative) radius.
        eps_bits: u64,
    },
}

/// What a completed job hands back to its connection handler.
#[derive(Debug)]
pub(crate) enum JobOutput {
    /// Transformed rows, one per input row.
    Rows(Vec<Vec<f64>>),
    /// `(predict_proba, predict)` of the terminal predictor.
    Scored {
        /// Continuous scores, one per input row.
        scores: Vec<f64>,
        /// Hard decisions, one per input row.
        decisions: Vec<f64>,
    },
    /// Per-row fairness certificates, one per input row.
    Certified(Vec<ifair::Certificate>),
}

/// Why a job came back without an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobError {
    /// The batch computation failed (validation slip, trapped panic).
    Failed(String),
    /// The job's deadline budget was exhausted before compute started; the
    /// handler maps this to a 503 with `Retry-After`.
    DeadlineExceeded,
}

/// One queued inference request.
pub(crate) struct Job {
    /// The model snapshot resolved at enqueue time — a reload swapping the
    /// registry cannot invalidate a job already in flight.
    pub model: Arc<LoadedModel>,
    pub op: Op,
    /// Validated, rectangular, non-empty rows.
    pub rows: Vec<Vec<f64>>,
    /// Per-row group membership (empty = all zeros).
    pub group: Vec<u8>,
    /// Absolute compute deadline (from `X-Ifair-Deadline-Ms`), if any. A
    /// job past its deadline is shed before compute, never after.
    pub deadline: Option<Instant>,
    /// Set by the requester when it stops waiting (reply timeout, deadline,
    /// connection closed): the job is orphaned, and the batcher drops it
    /// instead of computing for — or replying to — nobody.
    pub cancelled: Arc<AtomicBool>,
    /// Completion callback. The reactor passes a closure that posts a
    /// completion message and wakes the poller; tests pass a channel
    /// sender. Must never block (the batcher thread is shared). Call it
    /// through [`Job::finish`].
    pub reply: Box<dyn FnOnce(Result<JobOutput, JobError>) + Send>,
    /// This job's share of the outstanding-job count.
    pub ticket: Ticket,
}

impl Job {
    /// Hands the result to the requester. The ticket goes back first, so
    /// by the time the reply reaches the reactor the count no longer
    /// includes this job: a client that sends its next request after
    /// reading the reply finds the batcher idle if nothing else is queued.
    pub fn finish(self, result: Result<JobOutput, JobError>) {
        let Job { reply, ticket, .. } = self;
        drop(ticket);
        reply(result);
    }
}

/// One unit of the outstanding-job count: taken when a job is built,
/// given back when it is dropped, whatever the path — answered, cancelled,
/// shed at gather, refused by a full queue, or lost to a batcher panic.
/// The reactor reads the count to decide whether a request may skip the
/// batcher; a leaked ticket would switch that path off for good.
pub(crate) struct Ticket(Arc<AtomicUsize>);

impl Ticket {
    /// Takes one ticket on `count`. The reactor takes it before `try_send`
    /// because the batcher may finish the job before `try_send` returns;
    /// a refused job comes back inside the error and gives it back on drop.
    pub fn take(count: &Arc<AtomicUsize>) -> Ticket {
        count.fetch_add(1, Ordering::SeqCst);
        Ticket(Arc::clone(count))
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawns the supervised batcher thread. Returns the job sender (clone one
/// per worker) and the thread handle; the batcher exits when every sender
/// is dropped, and is respawned (restart counted in `metrics`) if a panic
/// escapes the per-batch trap.
pub(crate) fn spawn_batcher(
    pool: Arc<WorkerPool>,
    queue_capacity: usize,
    max_batch_rows: usize,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
) -> (SyncSender<Job>, JoinHandle<()>) {
    let (tx, rx) = sync_channel::<Job>(queue_capacity.max(1));
    // The receiver sits behind a mutex so the supervisor can re-enter the
    // loop after a panic; `recover_lock` absorbs the poison that panic left.
    let rx = Mutex::new(rx);
    let handle = supervise(
        "ifair-serve-batcher".into(),
        ThreadKind::Batcher,
        shutdown,
        metrics,
        move || batcher_loop(&rx, &pool, max_batch_rows.max(1)),
    );
    (tx, handle)
}

fn batcher_loop(rx: &Mutex<Receiver<Job>>, pool: &WorkerPool, max_batch_rows: usize) {
    let rx = recover_lock(rx);
    while let Ok(first) = rx.recv() {
        // Fault site: a scheduled panic here escapes the per-batch trap and
        // kills the batcher thread — exercising the supervisor respawn.
        ifair::api::faults::check_panic("serve.batcher");
        let mut total = first.rows.len();
        let mut jobs = vec![first];
        // Opportunistic coalescing: take whatever is already queued, up to
        // the row cap — no artificial latency is added waiting for peers.
        while total < max_batch_rows {
            match rx.try_recv() {
                Ok(job) => {
                    total += job.rows.len();
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        // Deadline triage before any compute: orphaned jobs (whose handler
        // stopped waiting) are dropped outright, jobs past their deadline
        // are shed with a typed error while their handler is still there to
        // translate it into a 503.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.cancelled.load(Ordering::SeqCst) {
                continue;
            }
            if job.deadline.is_some_and(|d| now >= d) {
                job.finish(Err(JobError::DeadlineExceeded));
                continue;
            }
            live.push(job);
        }
        for group in group_jobs(live) {
            execute_group(pool, group);
        }
    }
}

/// Groups jobs by `(model snapshot, op)`, preserving arrival order — only
/// requests against the same loaded artifact and endpoint can share a
/// forward pass.
fn group_jobs(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<((*const LoadedModel, Op), Vec<Job>)> = Vec::new();
    for job in jobs {
        let key = (Arc::as_ptr(&job.model), job.op);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// Stacks a group into one matrix, runs one pooled pass, scatters replies.
fn execute_group(pool: &WorkerPool, mut jobs: Vec<Job>) {
    let model = Arc::clone(&jobs[0].model);
    let op = jobs[0].op;
    let sizes: Vec<usize> = jobs.iter().map(|j| j.rows.len()).collect();
    let mut stacked = Vec::with_capacity(sizes.iter().sum());
    let mut group = Vec::with_capacity(stacked.capacity());
    for (job, &size) in jobs.iter_mut().zip(&sizes) {
        // Move, don't clone: the jobs own their rows and the scatter below
        // only touches the reply channels.
        stacked.append(&mut job.rows);
        if job.group.is_empty() {
            group.extend(std::iter::repeat_n(0u8, size));
        } else {
            group.append(&mut job.group);
        }
    }

    match compute(&model, op, stacked, group, Some(pool)) {
        Ok(output) => scatter(jobs, &sizes, &output),
        Err(msg) => {
            for job in jobs {
                // A requester that gave up (timed out, disconnected) has
                // no one listening; skip the dead letter.
                if job.cancelled.load(Ordering::SeqCst) {
                    continue;
                }
                job.finish(Err(JobError::Failed(msg.clone())));
            }
        }
    }
}

/// Runs `rows` through `op` on `model`: on `pool` for a batch, on the
/// calling thread (`None`) for a request the reactor answers itself. Rows
/// are independent and every stage gives the same bits for any pool size,
/// so both callers agree bit for bit.
///
/// The handlers validated shape and capability, so failures here are
/// defensive. A panic must not kill the thread it runs on (the batcher
/// would starve every future request, the reactor every connection), so
/// it is trapped and reported as an error, which the handler answers 500.
pub(crate) fn compute(
    model: &LoadedModel,
    op: Op,
    rows: Vec<Vec<f64>>,
    group: Vec<u8>,
    pool: Option<&WorkerPool>,
) -> Result<BatchOutput, String> {
    catch_unwind(AssertUnwindSafe(|| {
        // Fault site: a scheduled panic here stays inside the trap and
        // becomes a per-request 500 — the calling thread survives.
        ifair::api::faults::check_panic("serve.batch.compute");
        let matrix = Matrix::from_rows(rows).map_err(|e| e.to_string())?;
        match op {
            Op::Transform => model
                .artifact
                .transform(matrix, group, pool, model.precision)
                .map(BatchOutput::Matrix)
                .map_err(|e| e.to_string()),
            Op::Predict => model
                .artifact
                .predict(matrix, group, pool, model.precision)
                .map(|(scores, decisions)| BatchOutput::Scored { scores, decisions })
                .map_err(|e| e.to_string()),
            Op::Certify { eps_bits } => model
                .artifact
                .certify(matrix, f64::from_bits(eps_bits), pool, model.precision)
                .map(BatchOutput::Certified)
                .map_err(|e| e.to_string()),
        }
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        Err(format!("internal error during batch execution: {msg}"))
    })
}

/// The stacked result of one [`compute`] call, before scattering.
pub(crate) enum BatchOutput {
    Matrix(Matrix),
    Scored {
        scores: Vec<f64>,
        decisions: Vec<f64>,
    },
    Certified(Vec<ifair::Certificate>),
}

impl BatchOutput {
    /// The output of the stacked rows `rows`, as one job's reply.
    pub(crate) fn slice(&self, rows: Range<usize>) -> JobOutput {
        match self {
            BatchOutput::Matrix(m) => JobOutput::Rows(rows.map(|i| m.row(i).to_vec()).collect()),
            BatchOutput::Scored { scores, decisions } => JobOutput::Scored {
                scores: scores[rows.clone()].to_vec(),
                decisions: decisions[rows].to_vec(),
            },
            BatchOutput::Certified(certs) => JobOutput::Certified(certs[rows].to_vec()),
        }
    }
}

/// Splits the stacked output back into per-job row ranges, in job order.
/// Jobs whose handler cancelled them mid-compute are skipped — their slice
/// of the output has no one left to read it.
fn scatter(jobs: Vec<Job>, sizes: &[usize], output: &BatchOutput) {
    let mut offset = 0usize;
    for (job, &size) in jobs.into_iter().zip(sizes) {
        if !job.cancelled.load(Ordering::SeqCst) {
            job.finish(Ok(output.slice(offset..offset + size)));
        }
        offset += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;
    use ifair::core::{IFair, IFairConfig};
    use std::path::PathBuf;
    use std::sync::mpsc::TrySendError;

    fn loaded_model(seed: u64) -> Arc<LoadedModel> {
        let x = Matrix::from_rows(
            (0..16)
                .map(|i| vec![i as f64 / 16.0, 1.0 - i as f64 / 16.0, (i % 2) as f64])
                .collect(),
        )
        .unwrap();
        let config = IFairConfig {
            k: 2,
            max_iters: 10,
            n_restarts: 1,
            seed,
            ..Default::default()
        };
        let model = IFair::fit(&x, &[false, false, true], &config).unwrap();
        Arc::new(LoadedModel {
            name: "m".into(),
            path: PathBuf::from("in-memory"),
            artifact: Artifact::Model(Box::new(model)),
            precision: ifair::core::Precision::F64,
            generation: 1,
        })
    }

    type ReplyFn = Box<dyn FnOnce(Result<JobOutput, JobError>) + Send>;

    /// Wraps a capacity-1 channel in the callback form [`Job::reply`]
    /// takes, so tests can still block on a receiver.
    fn channel_reply() -> (ReplyFn, Receiver<Result<JobOutput, JobError>>) {
        let (tx, rx) = sync_channel(1);
        (
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
            rx,
        )
    }

    fn job(
        model: &Arc<LoadedModel>,
        rows: Vec<Vec<f64>>,
    ) -> (Job, Receiver<Result<JobOutput, JobError>>) {
        counted_job(model, rows, &Arc::new(AtomicUsize::new(0)))
    }

    /// A transform job whose ticket is taken on `count`.
    fn counted_job(
        model: &Arc<LoadedModel>,
        rows: Vec<Vec<f64>>,
        count: &Arc<AtomicUsize>,
    ) -> (Job, Receiver<Result<JobOutput, JobError>>) {
        let (reply, rx) = channel_reply();
        (
            Job {
                model: Arc::clone(model),
                op: Op::Transform,
                rows,
                group: vec![],
                deadline: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                reply,
                ticket: Ticket::take(count),
            },
            rx,
        )
    }

    #[test]
    fn stacked_batch_matches_individual_transforms_bitwise() {
        let model = loaded_model(3);
        let pool = WorkerPool::new(2);
        let rows_a = vec![vec![0.1, 0.9, 0.0], vec![0.7, 0.3, 1.0]];
        let rows_b = vec![vec![0.5, 0.5, 1.0]];
        let (job_a, rx_a) = job(&model, rows_a.clone());
        let (job_b, rx_b) = job(&model, rows_b.clone());
        execute_group(&pool, vec![job_a, job_b]);

        let expect = |rows: Vec<Vec<f64>>| {
            let m = match &model.artifact {
                Artifact::Model(m) => m,
                _ => unreachable!(),
            };
            let out = m.transform(&Matrix::from_rows(rows).unwrap());
            (0..out.rows())
                .map(|i| out.row(i).to_vec())
                .collect::<Vec<_>>()
        };
        match rx_a.recv().unwrap().unwrap() {
            JobOutput::Rows(rows) => assert_eq!(rows, expect(rows_a)),
            other => panic!("unexpected output {other:?}"),
        }
        match rx_b.recv().unwrap().unwrap() {
            JobOutput::Rows(rows) => assert_eq!(rows, expect(rows_b)),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn groups_split_by_model_and_op() {
        let a = loaded_model(1);
        let b = loaded_model(2);
        let (ja, _ra) = job(&a, vec![vec![0.0; 3]]);
        let (jb, _rb) = job(&b, vec![vec![0.0; 3]]);
        let (ja2, _ra2) = job(&a, vec![vec![1.0; 3]]);
        let groups = group_jobs(vec![ja, jb, ja2]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2, "same-model jobs coalesce");
        assert_eq!(groups[1].len(), 1);
    }

    #[test]
    fn batcher_thread_drains_and_exits_on_disconnect() {
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, Arc::clone(&metrics));
        let model = loaded_model(5);
        let (job, rx) = job(&model, vec![vec![0.2, 0.8, 1.0]]);
        tx.send(job).unwrap();
        assert!(matches!(rx.recv().unwrap(), Ok(JobOutput::Rows(_))));
        drop(tx);
        handle.join().unwrap();
        assert_eq!(metrics.thread_restarts(ThreadKind::Batcher), 0);
    }

    #[test]
    fn predict_on_bare_model_reports_an_error_not_a_crash() {
        let pool = WorkerPool::new(1);
        let model = loaded_model(7);
        let (reply, rx) = channel_reply();
        execute_group(
            &pool,
            vec![Job {
                model,
                op: Op::Predict,
                rows: vec![vec![0.1, 0.2, 1.0]],
                group: vec![],
                deadline: None,
                cancelled: Arc::new(AtomicBool::new(false)),
                reply,
                ticket: Ticket::take(&Arc::new(AtomicUsize::new(0))),
            }],
        );
        match rx.recv().unwrap().unwrap_err() {
            JobError::Failed(msg) => assert!(msg.contains("no predictor")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn expired_jobs_are_shed_before_compute() {
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, metrics);
        let model = loaded_model(11);
        let (mut expired, rx_expired) = job(&model, vec![vec![0.3, 0.7, 0.0]]);
        expired.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        let (fresh, rx_fresh) = job(&model, vec![vec![0.6, 0.4, 1.0]]);
        tx.send(expired).unwrap();
        tx.send(fresh).unwrap();
        assert!(matches!(
            rx_expired.recv().unwrap(),
            Err(JobError::DeadlineExceeded)
        ));
        assert!(matches!(rx_fresh.recv().unwrap(), Ok(JobOutput::Rows(_))));
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn cancelled_jobs_are_dropped_without_a_reply() {
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, metrics);
        let model = loaded_model(13);
        let (orphan, rx_orphan) = job(&model, vec![vec![0.2, 0.8, 0.0]]);
        orphan.cancelled.store(true, Ordering::SeqCst);
        let (fresh, rx_fresh) = job(&model, vec![vec![0.9, 0.1, 1.0]]);
        tx.send(orphan).unwrap();
        tx.send(fresh).unwrap();
        // The live job completes; the orphan's channel sees only disconnect.
        assert!(matches!(rx_fresh.recv().unwrap(), Ok(JobOutput::Rows(_))));
        drop(tx);
        handle.join().unwrap();
        assert!(rx_orphan.try_recv().is_err(), "orphan got no reply");
    }

    #[test]
    fn compute_without_a_pool_matches_the_pooled_batch_bitwise() {
        let model = loaded_model(17);
        let pool = WorkerPool::new(2);
        let rows = vec![
            vec![0.4, 0.6, 1.0],
            vec![0.1, 0.2, 0.0],
            vec![0.8, 0.5, 1.0],
        ];
        let (batched, rx) = job(&model, rows.clone());
        execute_group(&pool, vec![batched]);
        let Ok(JobOutput::Rows(pooled)) = rx.recv().unwrap() else {
            panic!("batched transform failed");
        };
        for (i, row) in rows.into_iter().enumerate() {
            let inline = compute(&model, Op::Transform, vec![row], vec![], None)
                .map(|out| out.slice(0..1))
                .unwrap();
            let JobOutput::Rows(got) = inline else {
                panic!("transform gave {inline:?}");
            };
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[0]), bits(&pooled[i]), "row {i}");
        }
    }

    #[test]
    fn the_ticket_goes_back_before_the_reply_runs() {
        let model = loaded_model(19);
        let pool = WorkerPool::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = sync_channel(1);
        let seen = Arc::clone(&count);
        let mut job = counted_job(&model, vec![vec![0.3, 0.3, 0.0]], &count).0;
        job.reply = Box::new(move |result| {
            let _ = tx.send((seen.load(Ordering::SeqCst), result.is_ok()));
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
        execute_group(&pool, vec![job]);
        assert_eq!(rx.recv().unwrap(), (0, true), "count seen by the reply");
    }

    #[test]
    fn every_way_a_job_ends_gives_its_ticket_back() {
        let model = loaded_model(23);
        let count = Arc::new(AtomicUsize::new(0));

        // Refused by a full queue: the job comes back in the error.
        let (tx, rx) = sync_channel::<Job>(1);
        tx.try_send(counted_job(&model, vec![vec![0.1; 3]], &count).0)
            .unwrap();
        let refused = tx.try_send(counted_job(&model, vec![vec![0.2; 3]], &count).0);
        assert!(matches!(refused, Err(TrySendError::Full(_))));
        drop(refused);
        assert_eq!(count.load(Ordering::SeqCst), 1, "only the queued job");
        drop((tx, rx));
        assert_eq!(count.load(Ordering::SeqCst), 0, "queued job dropped");

        // Answered, shed at gather, cancelled, and failed in compute.
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Metrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, handle) = spawn_batcher(pool, 8, 64, shutdown, metrics);
        let (answered, rx_answered) = counted_job(&model, vec![vec![0.5; 3]], &count);
        let (mut shed, rx_shed) = counted_job(&model, vec![vec![0.6; 3]], &count);
        shed.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        let (cancelled, _rx_cancelled) = counted_job(&model, vec![vec![0.7; 3]], &count);
        cancelled.cancelled.store(true, Ordering::SeqCst);
        let (mut failed, rx_failed) = counted_job(&model, vec![vec![0.8; 3]], &count);
        failed.op = Op::Predict;
        assert_eq!(count.load(Ordering::SeqCst), 4);
        for job in [answered, shed, cancelled, failed] {
            tx.send(job).unwrap();
        }
        assert!(matches!(
            rx_answered.recv().unwrap(),
            Ok(JobOutput::Rows(_))
        ));
        assert!(matches!(
            rx_shed.recv().unwrap(),
            Err(JobError::DeadlineExceeded)
        ));
        assert!(matches!(
            rx_failed.recv().unwrap(),
            Err(JobError::Failed(_))
        ));
        drop(tx);
        handle.join().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }
}
