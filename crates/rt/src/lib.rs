//! `bikecap-rt` — deterministic parallel execution runtime.
//!
//! A scoped chunk-stealing thread pool for the conv/routing hot paths, built
//! so that **parallel results are bitwise-identical to serial results
//! regardless of thread count**:
//!
//! * Work is split by [`ChunkPlan`], whose decomposition depends only on the
//!   problem size (and the caller's minimum chunk), never on the number of
//!   threads or the schedule. The same input always produces the same chunk
//!   boundaries.
//! * Chunks only ever write to locations they own ([`parallel_items_mut`])
//!   or feed a reduction; either way no float is ever accumulated across a
//!   racing boundary.
//! * Reductions ([`reduce`]) combine chunk partials in a fixed binary tree
//!   over the chunk boundaries, pairwise per round, on the calling thread.
//!   [`Backend::Serial`] evaluates the *same* chunks and the *same* tree
//!   sequentially, so `serial == parallel` holds bitwise, not just
//!   approximately.
//!
//! Workers steal chunk indices from a shared atomic cursor (idle workers
//! drain whatever chunks remain, so an uneven chunk doesn't stall the job on
//! one thread). The submitting thread participates too, which keeps a
//! one-thread pool deadlock-free and makes nested submissions safe: the
//! inner job's submitter runs its own chunks while it waits.
//!
//! Panics inside a chunk are contained per worker: the pool survives, the
//! remaining chunks of the failed job are skipped, and the failure is
//! reported on the submitting thread — as a typed [`RtError`] from the
//! `try_*` entry points, or re-raised with the original payload (exactly
//! like serial code) from the infallible ones. The failpoint
//! `rt.worker.chunk` (armed via `bikecap-faults` with the `faultline`
//! feature) injects the same failure path on demand.
//!
//! The process-global pool sizes itself from `BIKECAP_THREADS`, the
//! `--threads` CLI flag (via [`set_threads`]), or available parallelism, in
//! that order; `BIKECAP_BACKEND=serial` (or [`set_backend`]) forces every
//! entry point inline for debugging. Because decomposition is
//! thread-count-independent, reconfiguring the pool never changes results.
//!
//! Workers emit `bikecap-obs` spans (`rt.worker{i}`, and `rt.parallel_for`
//! with a `rt.parallel_for.chunks` value event on the submitter) so
//! `bikecap profile` shows per-worker utilization. Span naming is documented
//! in DESIGN.md Appendix E.

#![deny(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::thread;

/// The failpoint checked once per chunk on the execution path (DESIGN.md
/// Appendix C site grammar). Armed only with the `faultline` feature.
pub const CHUNK_FAILPOINT: &str = "rt.worker.chunk";

/// Fixed fan-out of a [`ChunkPlan`]: a job is split into at most this many
/// chunks. Deliberately a constant — never derived from the thread count —
/// so decompositions (and therefore reduction trees) are a pure function of
/// the problem size.
pub const MAX_CHUNKS: usize = 64;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Failure of a parallel job, reported on the submitting thread by the
/// `try_*` entry points.
#[derive(Debug)]
pub enum RtError {
    /// A chunk panicked on a worker. The pool survives; the message is the
    /// stringified panic payload.
    WorkerPanic {
        /// Index of the chunk that panicked.
        chunk: usize,
        /// Stringified panic payload.
        message: String,
    },
    /// The `rt.worker.chunk` failpoint fired (faultline builds only).
    Injected {
        /// The failpoint site that fired.
        site: &'static str,
        /// Index of the chunk the fault was injected into.
        chunk: usize,
        /// The injected fault's description.
        message: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::WorkerPanic { chunk, message } => {
                write!(f, "worker panicked on chunk {chunk}: {message}")
            }
            RtError::Injected {
                site,
                chunk,
                message,
            } => write!(f, "fault injected at {site} on chunk {chunk}: {message}"),
        }
    }
}

impl std::error::Error for RtError {}

/// Internal failure record; keeps the raw panic payload so the infallible
/// wrappers can re-raise it unchanged.
enum JobFailure {
    Panic {
        chunk: usize,
        payload: Box<dyn Any + Send>,
    },
    Injected {
        chunk: usize,
        message: String,
    },
}

impl JobFailure {
    fn into_error(self) -> RtError {
        match self {
            JobFailure::Panic { chunk, payload } => RtError::WorkerPanic {
                chunk,
                // `as_ref` (not `&payload`): the Box must deref to the dyn
                // payload, or the Box itself would be the `Any`.
                message: payload_message(payload.as_ref()),
            },
            JobFailure::Injected { chunk, message } => RtError::Injected {
                site: CHUNK_FAILPOINT,
                chunk,
                message,
            },
        }
    }

    /// Re-raise on the submitting thread, matching what serial execution
    /// would have done with the same panic.
    fn resume(self) -> ! {
        match self {
            JobFailure::Panic { payload, .. } => resume_unwind(payload),
            JobFailure::Injected { chunk, message } => {
                resume_unwind(Box::new(format!("injected fault on chunk {chunk}: {message}")))
            }
        }
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Backend switch
// ---------------------------------------------------------------------------

/// How parallel entry points execute. Results are bitwise-identical either
/// way; `Serial` exists for debugging and for A/B benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Run chunks on the process-global pool (the default).
    Parallel,
    /// Run the same chunks, in index order, inline on the calling thread.
    Serial,
}

fn backend_cell() -> &'static AtomicU8 {
    static BACKEND: OnceLock<AtomicU8> = OnceLock::new();
    BACKEND.get_or_init(|| {
        let serial = std::env::var("BIKECAP_BACKEND")
            .map(|v| v.trim().eq_ignore_ascii_case("serial"))
            .unwrap_or(false);
        AtomicU8::new(u8::from(serial))
    })
}

/// The currently selected [`Backend`] (initially from `BIKECAP_BACKEND`,
/// defaulting to [`Backend::Parallel`]).
pub fn backend() -> Backend {
    if backend_cell().load(Ordering::Relaxed) == 1 {
        Backend::Serial
    } else {
        Backend::Parallel
    }
}

/// Selects the execution [`Backend`] process-wide. Safe to flip at any time:
/// outputs do not depend on it.
pub fn set_backend(backend: Backend) {
    backend_cell().store(u8::from(backend == Backend::Serial), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Chunk decomposition
// ---------------------------------------------------------------------------

/// A deterministic decomposition of `0..len` into contiguous chunks.
///
/// The chunk length is `max(min_chunk, ceil(len / MAX_CHUNKS))` — a pure
/// function of the problem size, never of the thread count — so the same
/// input always yields the same boundaries, and any reduction tree built
/// over them is reproducible on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    len: usize,
    chunk: usize,
}

impl ChunkPlan {
    /// Plans chunks over `0..len` with at least `min_chunk` items per chunk
    /// (a `min_chunk` of 0 is treated as 1).
    pub fn new(len: usize, min_chunk: usize) -> ChunkPlan {
        let chunk = min_chunk.max(1).max(len.div_ceil(MAX_CHUNKS));
        ChunkPlan { len, chunk }
    }

    /// Total items covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the plan covers nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items per chunk (the final chunk may be shorter).
    pub fn chunk_len(&self) -> usize {
        self.chunk
    }

    /// Number of chunks.
    pub fn count(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    /// Half-open item range of chunk `index`.
    pub fn range(&self, index: usize) -> Range<usize> {
        let start = (index * self.chunk).min(self.len);
        let end = (start + self.chunk).min(self.len);
        start..end
    }
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Type-erased pointer to the job closure. Valid for the lifetime of the
/// job: the submitter blocks until every chunk has completed before its
/// stack frame (and the closure) can go away.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the submitter keeps it alive until the job fully completes.
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

struct Job {
    run: TaskRef,
    total: usize,
    /// Next chunk index to claim; claims past `total` mean "nothing left".
    next: AtomicUsize,
    /// Chunks finished (run, skipped, or failed). The job is done when this
    /// reaches `total`.
    completed: AtomicUsize,
    /// Fail-fast flag: once set, remaining chunks are skipped.
    failed: AtomicBool,
    failure: Mutex<Option<JobFailure>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    fn record_failure(&self, failure: JobFailure) {
        let mut slot = lock(&self.failure);
        if slot.is_none() {
            *slot = Some(failure);
        }
        drop(slot);
        self.failed.store(true, Ordering::Release);
    }

    fn complete_one(&self) {
        // AcqRel so the last completer's acquire sees every other chunk's
        // writes (each completion is a release in the same RMW chain), and
        // the submitter inherits that visibility through the mutex below.
        if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            let mut done = lock(&self.done);
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }
}

/// Claim and run chunks of `job` until none remain. `worker` is `Some` on
/// pool threads (names the obs span) and `None` on the submitting thread,
/// whose `rt.parallel_for` span already covers its participation.
///
/// # Safety
///
/// Dereferences the job's [`TaskRef`], a `'static`-laundered borrow of the
/// submitter's closure. Sound because the submitter blocks in [`run_job`]
/// until `completed == total`, and every chunk claimed here completes (and
/// so counts toward `completed`) before this loop returns — the closure is
/// alive for every dereference.
fn run_chunks(job: &Job, worker: Option<usize>) {
    let _span = worker.map(|idx| bikecap_obs::span_with(|| format!("rt.worker{idx}")));
    loop {
        let chunk = job.next.fetch_add(1, Ordering::Relaxed);
        if chunk >= job.total {
            return;
        }
        if !job.failed.load(Ordering::Acquire) {
            if let Some(fault) = bikecap_faults::hit(CHUNK_FAILPOINT) {
                job.record_failure(JobFailure::Injected {
                    chunk,
                    message: fault.to_string(),
                });
            } else {
                let run = job.run;
                // SAFETY: see `TaskRef` — alive until the job completes.
                let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*run.0 })(chunk)));
                if let Err(payload) = result {
                    job.record_failure(JobFailure::Panic { chunk, payload });
                }
            }
        }
        job.complete_one();
    }
}

/// Completed [`Job`] shells parked for reuse, per pool. Bounded: distinct
/// jobs only pile up under nested submission, which is at most a few deep.
const JOB_FREELIST_CAP: usize = 8;

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Recycled job shells. Every entry is unique (`strong_count == 1`) by
    /// construction — [`release_job`] waits out straggler workers before
    /// parking — so [`acquire_job`] can always reset one through
    /// `Arc::get_mut` without touching memory another thread can observe.
    free: Mutex<Vec<Arc<Job>>>,
}

struct PoolCore {
    shared: Arc<PoolShared>,
    threads: usize,
}

impl PoolCore {
    fn start(threads: usize) -> PoolCore {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            free: Mutex::new(Vec::with_capacity(JOB_FREELIST_CAP)),
        });
        // With one thread every entry point runs inline; don't spawn.
        if threads > 1 {
            // Start-up handshake: each worker drops its clone of `ready` once
            // its thread is running, so the thread's own start-up work (its
            // name, its runtime bookkeeping) is finished before `start`
            // returns and never lands inside a caller's later measurement.
            let (ready, all_ready) = mpsc::channel::<()>();
            for idx in 0..threads {
                let shared = Arc::clone(&shared);
                let ready = ready.clone();
                let spawned = thread::Builder::new()
                    .name(format!("bikecap-rt-{idx}"))
                    .spawn(move || {
                        drop(ready);
                        worker_loop(shared, idx);
                    });
                // Spawn failure (resource exhaustion) degrades to fewer
                // workers; the submitter always participates, so jobs still
                // complete. The failed closure drops its `ready` with it.
                drop(spawned);
            }
            drop(ready);
            // Disconnects once every worker has dropped its sender.
            let _ = all_ready.recv();
        }
        PoolCore { shared, threads }
    }

    /// Signal workers to exit once the queue drains. In-flight jobs finish
    /// normally (their submitters participate regardless).
    fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pop a recycled job shell and reset it for a new dispatch, or allocate a
/// fresh one. Reuse goes through `Arc::get_mut`: it only succeeds while the
/// shell is unique, which proves no worker (or queue entry) can still read
/// the old `run`/`total`, so the reset is plain safe mutation — a stale
/// reference racing a reset is structurally impossible, not just unlikely.
///
/// This is why steady-state parallel dispatch performs zero heap
/// allocations (gated by tests/ir_zero_alloc.rs at threads 1/2/4): the
/// first few dispatches populate the freelist and everything after recycles.
fn acquire_job(shared: &PoolShared, run: TaskRef, total: usize) -> Arc<Job> {
    let recycled = {
        let mut free = lock(&shared.free);
        free.pop()
    };
    if let Some(mut job) = recycled {
        if let Some(shell) = Arc::get_mut(&mut job) {
            shell.run = run;
            shell.total = total;
            *shell.next.get_mut() = 0;
            *shell.completed.get_mut() = 0;
            *shell.failed.get_mut() = false;
            *shell
                .failure
                .get_mut()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
            *shell
                .done
                .get_mut()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = false;
            return job;
        }
        // Unreachable in practice (release_job parks only unique shells);
        // fall through to a fresh allocation rather than spin here.
    }
    Arc::new(Job {
        run,
        total,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        failed: AtomicBool::new(false),
        failure: Mutex::new(None),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    })
}

/// Park a completed job's shell on the pool freelist for reuse.
///
/// Two steps make the parked shell provably unique: drop the queue's clone
/// (under the queue lock, so no worker can take a new clone afterwards —
/// the job is exhausted and would be skipped anyway), then wait out the
/// straggler window: a worker that claimed the failing `chunk >= total` is
/// between that claim and dropping its clone, a handful of instructions.
/// The wait is bounded because nothing can re-clone the job once it has
/// left the queue.
fn release_job(shared: &PoolShared, job: Arc<Job>) {
    {
        let mut queue = lock(&shared.queue);
        if let Some(pos) = queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
            queue.remove(pos);
        }
    }
    let mut spins = 0u32;
    while Arc::strong_count(&job) > 1 {
        spins = spins.saturating_add(1);
        if spins > 128 {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    let mut free = lock(&shared.free);
    if free.len() < JOB_FREELIST_CAP {
        free.push(job);
    }
}

fn worker_loop(shared: Arc<PoolShared>, idx: usize) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                while queue.front().is_some_and(|j| j.exhausted()) {
                    queue.pop_front();
                }
                if let Some(job) = queue.front() {
                    break Some(Arc::clone(job));
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        match job {
            Some(job) => run_chunks(&job, Some(idx)),
            None => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool configuration
// ---------------------------------------------------------------------------

/// Available hardware parallelism (fallback 1).
pub fn available() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn env_threads() -> Option<usize> {
    std::env::var("BIKECAP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn pool_slot() -> &'static RwLock<Arc<PoolCore>> {
    static POOL: OnceLock<RwLock<Arc<PoolCore>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = env_threads().unwrap_or_else(available);
        RwLock::new(Arc::new(PoolCore::start(threads)))
    })
}

fn current_pool() -> Arc<PoolCore> {
    Arc::clone(
        &pool_slot()
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    )
}

/// Current pool size (threads participating in parallel jobs).
pub fn threads() -> usize {
    current_pool().threads
}

/// Resizes the process-global pool. `0` means "auto": `BIKECAP_THREADS` if
/// set, otherwise available parallelism. The old pool drains its queue and
/// retires; because chunk decomposition never depends on the thread count,
/// resizing cannot change any result.
pub fn set_threads(threads: usize) {
    let target = if threads == 0 {
        env_threads().unwrap_or_else(available)
    } else {
        threads
    };
    let mut slot = pool_slot()
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if slot.threads == target {
        return;
    }
    // Replacing the Arc retires the old core: its workers exit once their
    // queue is empty (Drop signals shutdown when the last job's submitter
    // releases its reference).
    *slot = Arc::new(PoolCore::start(target));
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn run_serial(total: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), JobFailure> {
    for chunk in 0..total {
        if let Some(fault) = bikecap_faults::hit(CHUNK_FAILPOINT) {
            return Err(JobFailure::Injected {
                chunk,
                message: fault.to_string(),
            });
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(chunk))) {
            return Err(JobFailure::Panic { chunk, payload });
        }
    }
    Ok(())
}

/// Fan `f` out over `total` chunks through the pool (or serially when the
/// pool would not help), blocking until every chunk has completed.
///
/// # Safety
///
/// Transmutes `f` to a `'static` borrow so pool threads can hold it in the
/// shared [`Job`]. Sound because this function does not return until
/// `completed == total` — no thread can touch the closure after the real
/// lifetime ends — and chunk failure/panic paths still count their chunk as
/// completed.
fn run_job(total: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), JobFailure> {
    if total == 0 {
        return Ok(());
    }
    // Miri has no real parallelism and flags leaked pool threads; the serial
    // path is bitwise-identical anyway.
    let force_serial = cfg!(miri) || total == 1 || backend() == Backend::Serial;
    let pool = if force_serial { None } else { Some(current_pool()) };
    let pool = match pool {
        Some(pool) if pool.threads > 1 => pool,
        _ => return run_serial(total, f),
    };

    let _span = bikecap_obs::span("rt.parallel_for");
    bikecap_obs::value("rt.parallel_for.chunks", total as f64);

    // SAFETY: the closure outlives the job — this function does not return
    // until `completed == total`, and every claim of a chunk `< total`
    // happens before that point.
    let run = TaskRef(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    });
    let job = acquire_job(&pool.shared, run, total);
    {
        let mut queue = lock(&pool.shared.queue);
        queue.push_back(Arc::clone(&job));
    }
    pool.shared.work_cv.notify_all();

    // The submitter steals chunks too: a saturated (or shut down) pool can
    // never deadlock a job, and nested submissions make progress.
    run_chunks(&job, None);

    let mut done = lock(&job.done);
    while !*done {
        done = job
            .done_cv
            .wait(done)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    drop(done);

    let failure = lock(&job.failure).take();
    release_job(&pool.shared, job);
    match failure {
        Some(failure) => Err(failure),
        None => Ok(()),
    }
}

/// Runs `f(chunk)` for every `chunk in 0..chunks` on the pool, returning the
/// first failure as a typed [`RtError`].
///
/// `f` must confine its writes to locations owned by its chunk; under that
/// contract the result is bitwise-identical to running the chunks serially,
/// for any thread count.
///
/// # Errors
///
/// [`RtError::WorkerPanic`] if a chunk panicked (the pool survives), or
/// [`RtError::Injected`] when the `rt.worker.chunk` failpoint fires.
pub fn try_parallel_for<F>(chunks: usize, f: F) -> Result<(), RtError>
where
    F: Fn(usize) + Sync,
{
    run_job(chunks, &f).map_err(JobFailure::into_error)
}

/// [`try_parallel_for`], but a chunk panic is re-raised on the calling
/// thread with its original payload — the exact behaviour of a serial loop.
pub fn parallel_for<F>(chunks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if let Err(failure) = run_job(chunks, &f) {
        failure.resume();
    }
}

/// Splits `0..len` with a [`ChunkPlan`] and runs `f` once per chunk range.
///
/// # Errors
///
/// As [`try_parallel_for`].
pub fn try_for_each_chunk<F>(len: usize, min_chunk: usize, f: F) -> Result<(), RtError>
where
    F: Fn(Range<usize>) + Sync,
{
    let plan = ChunkPlan::new(len, min_chunk);
    try_parallel_for(plan.count(), move |chunk| f(plan.range(chunk)))
}

/// [`try_for_each_chunk`] with serial panic semantics.
pub fn for_each_chunk<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let plan = ChunkPlan::new(len, min_chunk);
    parallel_for(plan.count(), move |chunk| f(plan.range(chunk)))
}

/// Pointer wrapper that lets disjoint sub-slices be written from many
/// threads. Disjointness is established by [`ChunkPlan`]'s non-overlapping
/// ranges.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: only ever dereferenced for disjoint ranges (one chunk each).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper — 2021 disjoint capture would otherwise grab the bare
    /// `*mut T`, which is not `Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}

/// Treats `data` as `data.len() / item_len` fixed-size items, chunks the
/// items with a [`ChunkPlan`] (`min_items` per chunk minimum), and calls
/// `f(first_item_index, items)` on each chunk's mutable sub-slice.
///
/// This is the workhorse for the row-disjoint kernels: each "item" is an
/// output row (or plane), chunks never overlap, and each element is produced
/// by exactly the code the serial loop would have run — hence bitwise
/// equality.
///
/// `data.len()` must be a multiple of `item_len`.
///
/// # Errors
///
/// As [`try_parallel_for`].
pub fn try_parallel_items_mut<T, F>(
    data: &mut [T],
    item_len: usize,
    min_items: usize,
    f: F,
) -> Result<(), RtError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() || item_len == 0 {
        return Ok(());
    }
    debug_assert_eq!(data.len() % item_len, 0, "data not a whole number of items");
    let items = data.len() / item_len;
    let plan = ChunkPlan::new(items, min_items);
    let base = SendPtr(data.as_mut_ptr());
    try_parallel_for(plan.count(), move |chunk| {
        let range = plan.range(chunk);
        // SAFETY: chunk ranges are disjoint and in-bounds, so each call gets
        // exclusive access to its own sub-slice.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(
                base.get().add(range.start * item_len),
                range.len() * item_len,
            )
        };
        f(range.start, slice);
    })
}

/// [`try_parallel_items_mut`] with serial panic semantics.
pub fn parallel_items_mut<T, F>(data: &mut [T], item_len: usize, min_items: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if let Err(err) = try_parallel_items_mut(data, item_len, min_items, f) {
        match err {
            // try_parallel_items_mut only surfaces failures produced by
            // run_job, which the infallible path re-raises; reconstruct the
            // serial behaviour here.
            RtError::WorkerPanic { message, .. } => resume_unwind(Box::new(message)),
            RtError::Injected { chunk, message, .. } => {
                resume_unwind(Box::new(format!("injected fault on chunk {chunk}: {message}")))
            }
        }
    }
}

/// One chunk's share of [`parallel_columns_mut`]: the columns
/// [`ColumnsMut::cols`] of every row of a row-major matrix.
pub struct ColumnsMut<'a, T> {
    base: *mut T,
    row_len: usize,
    rows: usize,
    cols: Range<usize>,
    _data: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> ColumnsMut<'_, T> {
    /// The column range this chunk owns.
    pub fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Row `r`'s owned columns, `cols().len()` elements.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row of the matrix.
    pub fn row(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of {} rows", self.rows);
        // SAFETY: the column ranges of distinct chunks are disjoint, so no
        // other chunk can reach these elements; `&mut self` keeps a chunk
        // from holding two rows at once.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.base.add(r * self.row_len + self.cols.start),
                self.cols.len(),
            )
        }
    }
}

/// Treats `data` as a row-major matrix of `row_len` columns, chunks the
/// *columns* with a [`ChunkPlan`] (`min_cols` per chunk minimum), and calls
/// `f` with each chunk's [`ColumnsMut`] view: the chunk's columns of every
/// row.
///
/// The column split is for kernels whose independent work items are
/// columns spread over many rows — a conv output position across all
/// `(batch, channel)` planes, or a weight-gradient column across all
/// output channels — so the parallelism does not come from the row axis.
/// Every element still has exactly one owner, hence bitwise equality with
/// the serial loop. Panics in `f` are re-raised as in [`parallel_for`].
///
/// `data.len()` must be a multiple of `row_len`.
pub fn parallel_columns_mut<T, F>(data: &mut [T], row_len: usize, min_cols: usize, f: F)
where
    T: Send,
    F: Fn(ColumnsMut<'_, T>) + Sync,
{
    if data.is_empty() || row_len == 0 {
        return;
    }
    debug_assert_eq!(data.len() % row_len, 0, "data not a whole number of rows");
    let rows = data.len() / row_len;
    let plan = ChunkPlan::new(row_len, min_cols);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(plan.count(), move |chunk| {
        f(ColumnsMut {
            base: base.get(),
            row_len,
            rows,
            cols: plan.range(chunk),
            _data: std::marker::PhantomData,
        })
    });
}

/// Deterministic parallel reduction: maps each [`ChunkPlan`] range with
/// `map` (in parallel), then folds the chunk partials with `fold` in a
/// **fixed binary tree** — pairwise per round, `(0,1)(2,3)…`, on the calling
/// thread. The tree shape depends only on the chunk count, so the result is
/// bitwise-identical for any thread count and for [`Backend::Serial`].
///
/// Returns `None` for an empty range.
///
/// Note the contract is `serial tree == parallel tree`; a plain left-fold
/// over individual elements may differ in the last float bits, which is why
/// callers must use this entry point for *both* modes rather than keeping a
/// hand-rolled serial loop.
///
/// # Errors
///
/// As [`try_parallel_for`].
pub fn try_reduce<T, M, F>(
    len: usize,
    min_chunk: usize,
    map: M,
    fold: F,
) -> Result<Option<T>, RtError>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: Fn(T, T) -> T,
{
    if len == 0 {
        return Ok(None);
    }
    let plan = ChunkPlan::new(len, min_chunk);
    let mut parts: Vec<Option<T>> = Vec::new();
    parts.resize_with(plan.count(), || None);
    try_parallel_items_mut(&mut parts, 1, 1, |first, slots| {
        for (offset, slot) in slots.iter_mut().enumerate() {
            *slot = Some(map(plan.range(first + offset)));
        }
    })?;
    let mut level: Vec<T> = parts.into_iter().flatten().collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut pairs = level.into_iter();
        while let Some(a) = pairs.next() {
            match pairs.next() {
                Some(b) => next.push(fold(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    Ok(level.pop())
}

/// [`try_reduce`] with serial panic semantics.
pub fn reduce<T, M, F>(len: usize, min_chunk: usize, map: M, fold: F) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: Fn(T, T) -> T,
{
    match try_reduce(len, min_chunk, map, fold) {
        Ok(out) => out,
        Err(RtError::WorkerPanic { message, .. }) => resume_unwind(Box::new(message)),
        Err(RtError::Injected { chunk, message, .. }) => {
            resume_unwind(Box::new(format!("injected fault on chunk {chunk}: {message}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_plan_covers_range_exactly_once() {
        for len in [0usize, 1, 7, 64, 65, 1000, 4096] {
            for min in [1usize, 3, 64, 100_000] {
                let plan = ChunkPlan::new(len, min);
                let mut seen = vec![0u8; len];
                for c in 0..plan.count() {
                    for i in plan.range(c) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "len={len} min={min}");
                if len > 0 {
                    assert!(plan.chunk_len() >= min.max(1));
                    assert!(plan.count() <= MAX_CHUNKS);
                }
            }
        }
    }

    #[test]
    fn chunk_plan_is_thread_count_independent() {
        // The plan is a pure function of (len, min_chunk); poke the pool
        // size around it to document that nothing else feeds in.
        let before = ChunkPlan::new(12345, 7);
        set_threads(3);
        let after = ChunkPlan::new(12345, 7);
        set_threads(0);
        assert_eq!(before, after);
    }

    #[test]
    fn parallel_for_runs_every_chunk_exactly_once() {
        set_threads(4);
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(counts.len(), |c| {
            counts[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn items_mut_matches_serial_fill() {
        let fill = |data: &mut [u64]| {
            for (i, v) in data.iter_mut().enumerate() {
                *v = (i as u64).wrapping_mul(2654435761);
            }
        };
        let mut expect = vec![0u64; 10_000];
        fill(&mut expect);

        for threads in [1usize, 2, 7] {
            set_threads(threads);
            let mut got = vec![0u64; 10_000];
            parallel_items_mut(&mut got, 4, 1, |first, items| {
                for (offset, v) in items.iter_mut().enumerate() {
                    let i = first * 4 + offset;
                    *v = (i as u64).wrapping_mul(2654435761);
                }
            });
            assert_eq!(got, expect, "threads={threads}");
        }
        set_threads(0);
    }

    #[test]
    fn columns_mut_writes_every_element_once() {
        let (rows, cols) = (5usize, 203usize);
        for threads in [1usize, 2, 7] {
            set_threads(threads);
            let mut got = vec![0u32; rows * cols];
            parallel_columns_mut(&mut got, cols, 3, |mut block| {
                for r in 0..rows {
                    let first = block.cols().start;
                    for (offset, v) in block.row(r).iter_mut().enumerate() {
                        *v += (r * cols + first + offset) as u32 + 1;
                    }
                }
            });
            let want: Vec<u32> = (1..=(rows * cols) as u32).collect();
            assert_eq!(got, want, "threads={threads}");
        }
        set_threads(0);
        let mut empty: Vec<u8> = Vec::new();
        parallel_columns_mut(&mut empty, 4, 1, |_| unreachable!());
    }

    #[test]
    fn reduce_is_bitwise_stable_across_threads_and_backend() {
        // f32 sums expose any associativity change immediately.
        let xs: Vec<f32> = (0..12_345)
            .map(|i| ((i as f32) * 0.37).sin() * 1e3)
            .collect();
        let run = || {
            reduce(
                xs.len(),
                8,
                |r| xs[r].iter().sum::<f32>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        set_backend(Backend::Serial);
        let serial = run();
        set_backend(Backend::Parallel);
        for threads in [1usize, 2, 4, 7] {
            set_threads(threads);
            assert_eq!(run().to_bits(), serial.to_bits(), "threads={threads}");
        }
        set_threads(0);
    }

    #[test]
    fn empty_and_tiny_jobs() {
        parallel_for(0, |_| unreachable!());
        assert_eq!(reduce(0, 1, |_| 0u32, |a, b| a + b), None);
        let mut empty: Vec<u8> = Vec::new();
        parallel_items_mut(&mut empty, 1, 1, |_, _| unreachable!());
        parallel_for(1, |c| assert_eq!(c, 0));
    }

    #[test]
    fn worker_panic_is_contained_and_typed() {
        set_threads(4);
        let err = try_parallel_for(16, |c| {
            if c == 11 {
                panic!("chunk 11 exploded");
            }
        })
        .unwrap_err();
        match err {
            RtError::WorkerPanic { message, .. } => assert!(message.contains("exploded")),
            other => panic!("unexpected error: {other}"),
        }
        // The pool survives and keeps executing jobs.
        let hits = AtomicUsize::new(0);
        parallel_for(8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        set_threads(0);
    }

    #[test]
    fn infallible_wrapper_resumes_the_panic() {
        set_threads(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(4, |c| {
                if c == 3 {
                    panic!("original payload");
                }
            })
        }))
        .unwrap_err();
        assert_eq!(payload_message(&*caught), "original payload");
        set_threads(0);
    }

    #[test]
    fn job_shells_are_recycled() {
        // Acquire → release → acquire on a private pool must hand back the
        // same shell, fully reset — the mechanism behind the zero-alloc
        // steady state at threads > 1.
        let core = PoolCore::start(2);
        let f: &(dyn Fn(usize) + Sync) = &|_| {};
        // SAFETY: the laundered borrow never escapes this test and the jobs
        // built from it are never dispatched, only acquired and released.
        let run = TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        let first = acquire_job(&core.shared, run, 4);
        first.failed.store(true, Ordering::Release);
        first.record_failure(JobFailure::Injected {
            chunk: 0,
            message: "stale".to_string(),
        });
        let parked = Arc::as_ptr(&first);
        release_job(&core.shared, first);
        let second = acquire_job(&core.shared, run, 2);
        assert_eq!(Arc::as_ptr(&second), parked, "shell was not recycled");
        assert_eq!(second.total, 2);
        assert_eq!(second.next.load(Ordering::Relaxed), 0);
        assert_eq!(second.completed.load(Ordering::Relaxed), 0);
        assert!(!second.failed.load(Ordering::Relaxed), "failed flag not reset");
        assert!(lock(&second.failure).is_none(), "stale failure survived reset");
    }

    #[test]
    fn nested_submission_completes() {
        set_threads(2);
        let total = AtomicUsize::new(0);
        parallel_for(4, |_| {
            for_each_chunk(100, 10, |r| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 400);
        set_threads(0);
    }
}
