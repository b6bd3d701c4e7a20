//! Dynamic micro-batching: requests land on a bounded queue; a free worker
//! takes the first waiting job plus everything already queued behind it, up
//! to `max_batch`, stacks their windows into one tensor, and runs a single
//! batched forward pass at once. The dispatch is work-conserving: no worker
//! idles while a job waits, and batches grow from the backlog that builds
//! while the workers compute. A nonzero `max_wait` makes a worker linger
//! that long for the batch to fill instead.
//!
//! Backpressure is explicit: a full queue fails `submit` immediately (the
//! HTTP layer turns that into `503 Service Unavailable`) instead of letting
//! latency grow without bound. Shutdown is graceful: dropping the sender
//! disconnects the channel, workers drain every job already queued, answer
//! it, and only then exit.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bikecap_tensor::Tensor;

use crate::metrics::Metrics;
use crate::registry::ModelEntry;

/// Tuning knobs for the batching queue and worker pool.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum requests waiting in the queue before submits are rejected.
    pub queue_cap: usize,
    /// Largest number of requests fused into one forward pass.
    pub max_batch: usize,
    /// How long a worker lingers for more jobs before running a batch that
    /// is not yet full. Zero (the default) runs the first job plus whatever
    /// is already queued at once; a nonzero linger trades that much latency
    /// for larger batches when arrivals are sparse.
    pub max_wait: Duration,
    /// Worker threads (each runs one batch at a time; batches from distinct
    /// workers execute concurrently).
    pub workers: usize,
    /// Total compute-thread budget shared by the whole serving process.
    ///
    /// Each worker's batched forward pass additionally fans out over the
    /// process-global `bikecap-rt` pool, so the real thread demand is
    /// `workers × compute_threads`, not `workers`. When set, the pool is
    /// resized to [`compute_threads_per_worker`] at startup so that product
    /// never exceeds the budget — one knob caps oversubscription under
    /// load. `None` leaves the pool as configured by `BIKECAP_THREADS` /
    /// `--threads` (which then bounds *each* worker's fan-out, not the
    /// total).
    pub total_threads: Option<usize>,
    /// Artificial pause before each batch executes. Zero in production; tests
    /// raise it to hold the queue full deterministically (and it doubles as a
    /// crude pacing knob when replaying traffic).
    pub worker_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            queue_cap: 256,
            max_batch: 16,
            max_wait: Duration::ZERO,
            workers: 2,
            worker_delay: Duration::ZERO,
            total_threads: None,
        }
    }
}

/// Splits a total compute-thread budget across `workers` batch workers:
/// `max(1, total / workers)` `bikecap-rt` threads each, so the combined
/// demand `workers × compute_threads` never exceeds the budget's capacity
/// (a budget smaller than the worker count degrades each worker to serial
/// compute rather than oversubscribing the machine).
pub fn compute_threads_per_worker(total_threads: usize, workers: usize) -> usize {
    (total_threads / workers.max(1)).max(1)
}

/// One queued prediction request.
pub struct PredictJob {
    /// Request-scoped trace id (from [`Metrics::next_trace_id`]); rides the
    /// job through every stage and comes back on the [`JobResult`] so the
    /// HTTP layer can stitch the full breakdown.
    pub trace_id: u64,
    /// Which model slot serves this request.
    pub entry: Arc<ModelEntry>,
    /// A single input window `(F, h, H, W)`, already validated.
    pub input: Tensor,
    /// When the job entered the queue (for latency accounting).
    pub enqueued: Instant,
    /// When the client stops waiting. Workers drop jobs that expire in the
    /// queue instead of spending a forward pass on an abandoned request
    /// (dropping the responder makes the HTTP side answer `504`), and use
    /// the batch's latest deadline to bound fault-retry loops.
    pub deadline: Instant,
    /// Where the worker sends the result.
    pub respond: mpsc::Sender<JobResult>,
}

/// What a worker sends back for one job.
pub struct JobResult {
    /// The prediction `(p, H, W)`, or a worker-side failure message.
    pub output: Result<Tensor, String>,
    /// How many requests shared the forward pass that produced this result.
    pub batch_size: usize,
    /// How long this job sat on the queue before its batch was drained, µs.
    pub queue_wait_us: u64,
    /// How long the draining worker spent assembling the batch, µs.
    pub batch_assembly_us: u64,
    /// How long the batched forward pass took (including fault retries), µs.
    pub compute_us: u64,
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed load now, retry later.
    QueueFull,
    /// The batcher is draining for shutdown.
    ShuttingDown,
}

/// The bounded queue plus its worker pool.
pub struct Batcher {
    tx: Mutex<Option<SyncSender<PredictJob>>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    metrics: Arc<Metrics>,
}

impl Batcher {
    /// Starts `config.workers` threads draining a queue of `config.queue_cap`.
    pub fn start(config: BatchConfig, metrics: Arc<Metrics>) -> Self {
        assert!(config.queue_cap >= 1, "queue_cap must be >= 1");
        assert!(config.max_batch >= 1, "max_batch must be >= 1");
        assert!(config.workers >= 1, "need at least one worker");
        if let Some(total) = config.total_threads {
            bikecap_rt::set_threads(compute_threads_per_worker(total, config.workers));
        }
        let (tx, rx) = mpsc::sync_channel::<PredictJob>(config.queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let metrics = Arc::clone(&metrics);
                let config = config.clone();
                thread::Builder::new()
                    .name(format!("bikecap-batch-{i}"))
                    .spawn(move || worker_loop(&rx, &config, &metrics))
                    .expect("spawn batch worker")
            })
            .collect();
        Batcher {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            metrics,
        }
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] once [`Batcher::shutdown`] has begun.
    pub fn submit(&self, job: PredictJob) -> Result<(), SubmitError> {
        self.submit_or_return(job).map_err(|(e, _)| e)
    }

    /// Like [`Batcher::submit`], but hands a rejected job back so the
    /// caller can retry with backoff without rebuilding (or cloning) the
    /// input tensor.
    ///
    /// # Errors
    ///
    /// The same conditions as [`Batcher::submit`], paired with the job.
    pub fn submit_or_return(&self, job: PredictJob) -> Result<(), (SubmitError, PredictJob)> {
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            return Err((SubmitError::ShuttingDown, job));
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(job)) => Err((SubmitError::QueueFull, job)),
            Err(TrySendError::Disconnected(job)) => Err((SubmitError::ShuttingDown, job)),
        }
    }

    /// Stops accepting jobs, waits for workers to drain and answer everything
    /// already queued, then joins them. Idempotent.
    pub fn shutdown(&self) {
        // Dropping the sender disconnects the channel; workers keep receiving
        // buffered jobs until it reports empty+disconnected, so nothing
        // accepted is ever dropped.
        drop(
            self.tx
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take(),
        );
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Mutex<Receiver<PredictJob>>, config: &BatchConfig, metrics: &Metrics) {
    loop {
        // Collection phase: hold the receiver while assembling one batch.
        // Prediction happens after the lock drops, so another worker can
        // assemble the next batch while this one computes.
        let (batch, assembly) = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            // Blocks until a job arrives; an error means the sender is gone
            // and the queue is drained, i.e. shutdown.
            let Ok(first) = rx.recv() else { return };
            let assembly_start = Instant::now();
            let _assembly_span = bikecap_obs::span("serve.batch.assemble");
            let mut batch = vec![first];
            let deadline = Instant::now() + config.max_wait;
            while batch.len() < config.max_batch {
                let remaining = deadline.saturating_duration_since(Instant::now());
                // try_recv first: already-queued jobs join the batch without
                // paying any wait at all.
                if let Ok(job) = rx.try_recv() {
                    batch.push(job);
                    continue;
                }
                if remaining.is_zero() {
                    break;
                }
                match rx.recv_timeout(remaining) {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            (batch, assembly_start.elapsed())
        };
        metrics
            .queue_depth
            .fetch_sub(batch.len(), Ordering::Relaxed);
        metrics.stage_batch_assembly.observe(assembly);
        // Queue wait is measured at drain time: how long each job sat on
        // the queue before a worker picked its batch up.
        let drained = Instant::now();
        for job in &batch {
            metrics
                .stage_queue_wait
                .observe(drained.saturating_duration_since(job.enqueued));
        }
        if bikecap_obs::enabled() {
            bikecap_obs::value("serve.batch.size", batch.len() as f64);
        }
        if !config.worker_delay.is_zero() {
            thread::sleep(config.worker_delay);
        }
        run_batch(batch, drained, assembly, metrics);
    }
}

/// Runs one collected batch: sheds jobs whose deadline already passed,
/// groups the rest by model slot (requests for different models can
/// interleave on the queue), executes one forward pass per group, and
/// answers every surviving job. Transient worker faults (the
/// `serve.worker.predict` failpoint) are retried with deterministic
/// jittered backoff for as long as any job in the group still has
/// deadline budget; a group that runs out of budget is dropped, which the
/// waiting HTTP threads observe as a disconnected responder and answer
/// with `504`.
/// `drained` is when the worker picked the batch up (per-job queue wait is
/// measured against it) and `assembly` how long collecting the batch took;
/// both come back to the client on every [`JobResult`].
fn run_batch(batch: Vec<PredictJob>, drained: Instant, assembly: Duration, metrics: &Metrics) {
    let now = Instant::now();
    let (live, expired): (Vec<_>, Vec<_>) = batch.into_iter().partition(|j| j.deadline > now);
    if !expired.is_empty() {
        metrics
            .deadline_expired_total
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        // Dropping `expired` here drops the responders: the HTTP side's
        // recv_timeout fails fast instead of waiting out its full timer.
    }
    let mut groups: Vec<(Arc<ModelEntry>, Vec<PredictJob>)> = Vec::new();
    for job in live {
        match groups
            .iter_mut()
            .find(|(entry, _)| Arc::ptr_eq(entry, &job.entry))
        {
            Some((_, jobs)) => jobs.push(job),
            None => {
                let entry = Arc::clone(&job.entry);
                groups.push((entry, vec![job]));
            }
        }
    }
    for (entry, jobs) in groups {
        let size = jobs.len();
        let model = entry.current();
        let inputs: Vec<Tensor> = jobs.iter().map(|j| j.input.clone()).collect();
        // The group's budget is its most patient request: retrying up to
        // that point can still answer at least one job in time.
        let budget = jobs
            .iter()
            .map(|j| j.deadline)
            .max()
            .unwrap_or_else(Instant::now);
        enum Outcome {
            Done(Vec<Tensor>),
            Panicked,
            Expired,
        }
        let compute_start = Instant::now();
        let _compute_span = bikecap_obs::span("serve.batch.compute");
        let mut attempt = 0u32;
        let outcome = loop {
            if let Some(fault) = bikecap_faults::hit("serve.worker.predict") {
                metrics.worker_faults_total.fetch_add(1, Ordering::Relaxed);
                let pause = crate::backoff::jittered(
                    Duration::from_millis(2),
                    attempt,
                    fault.hit ^ ((size as u64) << 32),
                );
                if Instant::now() + pause >= budget {
                    break Outcome::Expired;
                }
                thread::sleep(pause);
                attempt += 1;
                continue;
            }
            break match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.predict_batch(&inputs)
            })) {
                Ok(outputs) => Outcome::Done(outputs),
                Err(_) => Outcome::Panicked,
            };
        };
        match outcome {
            Outcome::Done(outputs) => {
                let compute = compute_start.elapsed();
                metrics.stage_compute.observe(compute);
                metrics.record_batch(size);
                for (job, output) in jobs.into_iter().zip(outputs) {
                    let _ = job.respond.send(JobResult {
                        output: Ok(output),
                        batch_size: size,
                        queue_wait_us: stage_us(drained.saturating_duration_since(job.enqueued)),
                        batch_assembly_us: stage_us(assembly),
                        compute_us: stage_us(compute),
                    });
                }
            }
            // Budget exhausted mid-retry: drop the group, the waiting HTTP
            // threads observe the hang-up and answer 504.
            Outcome::Expired => {
                metrics
                    .deadline_expired_total
                    .fetch_add(size as u64, Ordering::Relaxed);
            }
            // A model panic answers explicitly so the client gets a 500
            // with a reason instead of waiting out its deadline.
            Outcome::Panicked => {
                for job in jobs {
                    let _ = job.respond.send(JobResult {
                        output: Err("model panicked during prediction".to_string()),
                        batch_size: size,
                        queue_wait_us: stage_us(drained.saturating_duration_since(job.enqueued)),
                        batch_assembly_us: stage_us(assembly),
                        compute_us: stage_us(compute_start.elapsed()),
                    });
                }
            }
        }
    }
}

/// Saturating µs conversion for stage reporting.
fn stage_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, DEFAULT_MODEL};
    use bikecap_core::{BikeCap, BikeCapConfig};

    fn tiny_entry() -> (ModelRegistry, Arc<ModelEntry>) {
        let config = BikeCapConfig::new(4, 4)
            .history(4)
            .horizon(2)
            .pyramid_size(2)
            .capsule_dim(2)
            .out_capsule_dim(2)
            .decoder_channels(2);
        let reg = ModelRegistry::new();
        let entry = reg.insert(DEFAULT_MODEL, BikeCap::seeded(config, 3));
        (reg, entry)
    }

    #[test]
    fn thread_budget_splits_across_workers_without_oversubscribing() {
        // workers × compute_threads never exceeds the budget…
        for total in 1..=16 {
            for workers in 1..=8 {
                let per = compute_threads_per_worker(total, workers);
                assert!(per >= 1);
                if per > 1 {
                    assert!(workers * per <= total, "{workers}×{per} > {total}");
                }
            }
        }
        // …with exact division when the budget is a multiple.
        assert_eq!(compute_threads_per_worker(8, 2), 4);
        assert_eq!(compute_threads_per_worker(7, 2), 3);
        // A budget below the worker count degrades to serial compute.
        assert_eq!(compute_threads_per_worker(1, 4), 1);
        // Degenerate worker count is clamped rather than dividing by zero.
        assert_eq!(compute_threads_per_worker(4, 0), 4);
    }

    fn job(entry: &Arc<ModelEntry>, seed: f32) -> (PredictJob, mpsc::Receiver<JobResult>) {
        let (tx, rx) = mpsc::channel();
        let input = Tensor::full(&[4, 4, 4, 4], seed);
        (
            PredictJob {
                trace_id: seed.to_bits() as u64,
                entry: Arc::clone(entry),
                input,
                enqueued: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(60),
                respond: tx,
            },
            rx,
        )
    }

    #[test]
    fn answers_jobs_and_batches_them() {
        let (_reg, entry) = tiny_entry();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(100),
                workers: 1,
                worker_delay: Duration::from_millis(30),
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );
        let mut receivers = Vec::new();
        for i in 0..4 {
            let (j, rx) = job(&entry, 0.1 + i as f32 * 0.1);
            batcher.submit(j).unwrap();
            receivers.push((i, rx));
        }
        for (i, rx) in receivers {
            let res = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let out = res.output.expect("prediction should succeed");
            assert_eq!(out.shape(), &[2, 4, 4]);
            let solo = entry
                .current()
                .predict(&Tensor::full(&[4, 4, 4, 4], 0.1 + i as f32 * 0.1));
            assert_eq!(out.as_slice(), solo.as_slice(), "job {i}");
        }
        assert!(metrics.batches_total.load(Ordering::Relaxed) >= 1);
        batcher.shutdown();
    }

    #[test]
    fn zero_linger_batches_form_from_the_backlog() {
        // Without a linger a lone job runs by itself at once, but jobs that
        // queue up while the worker computes still share one forward pass.
        let (_reg, entry) = tiny_entry();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(
            BatchConfig {
                max_wait: Duration::ZERO,
                workers: 1,
                worker_delay: Duration::from_millis(300),
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );
        let (j, first) = job(&entry, 0.5);
        batcher.submit(j).unwrap();
        // Drained: the worker has taken the job and is now held by the delay.
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.queue_depth.load(Ordering::Relaxed) != 0 {
            assert!(Instant::now() < deadline, "the first job was never drained");
            thread::sleep(Duration::from_millis(1));
        }
        let receivers: Vec<_> = (0..8)
            .map(|i| {
                let (j, rx) = job(&entry, 0.1 + i as f32 * 0.1);
                batcher.submit(j).unwrap();
                rx
            })
            .collect();
        let res = first.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(res.batch_size, 1, "a lone job must not wait for company");
        for rx in receivers {
            let res = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(res.output.is_ok());
            assert_eq!(res.batch_size, 8, "the backlog must form one batch");
        }
        batcher.shutdown();
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let (_reg, entry) = tiny_entry();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(
            BatchConfig {
                queue_cap: 2,
                max_batch: 1,
                max_wait: Duration::ZERO,
                workers: 1,
                worker_delay: Duration::from_millis(500),
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );
        // Saturate: the worker sleeps on the first job while these queue up.
        let mut receivers = Vec::new();
        let mut rejected = 0;
        for i in 0..8 {
            let (j, rx) = job(&entry, i as f32 * 0.05);
            match batcher.submit(j) {
                Ok(()) => receivers.push(rx),
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(rejected >= 1, "a bounded queue must shed load");
        // Everything accepted still completes.
        for rx in receivers {
            let res = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert!(res.output.is_ok());
        }
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let (_reg, entry) = tiny_entry();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::start(
            BatchConfig {
                queue_cap: 16,
                max_batch: 2,
                max_wait: Duration::from_millis(1),
                workers: 1,
                worker_delay: Duration::from_millis(50),
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );
        let receivers: Vec<_> = (0..5)
            .map(|i| {
                let (j, rx) = job(&entry, i as f32 * 0.1);
                batcher.submit(j).unwrap();
                rx
            })
            .collect();
        batcher.shutdown();
        // Post-shutdown: everything already accepted was answered…
        for rx in receivers {
            assert!(rx.try_recv().unwrap().output.is_ok());
        }
        // …and new submissions are refused.
        let (j, _rx) = job(&entry, 0.9);
        assert_eq!(batcher.submit(j).unwrap_err(), SubmitError::ShuttingDown);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    }
}
