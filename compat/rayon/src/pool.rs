//! The execution engine behind the `par_iter` shim.
//!
//! Two execution policies live here, selectable at runtime through
//! [`set_execution_policy`]:
//!
//! * [`ExecutionPolicy::WorkStealing`] (the default) — a lazily-initialized
//!   **persistent worker pool**, spawned once per process and reused by
//!   every `collect`. Idle workers park on a condvar; work is dealt
//!   dynamically: each worker claims the next small index range from a
//!   shared atomic cursor and writes results into pre-allocated slots, so
//!   input order is preserved exactly no matter which worker computes which
//!   item. The submitting thread drives the job too, which is what makes
//!   nested `par_iter` calls deadlock-free: an inner `collect` issued from
//!   a worker always makes progress on its own job even when every other
//!   worker is busy.
//! * [`ExecutionPolicy::Serial`] — the calling thread runs everything: the
//!   oracle the determinism tests compare the pool against.
//!
//! The thread count honors the `LOSSBURST_THREADS` environment variable
//! (see [`current_num_threads`]); a value of `1` forces the inline serial
//! path and the pool is never spawned. Worker panics are caught per item
//! and re-raised on the submitting thread with their original payload.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Environment variable overriding the worker-thread count. `1` forces the
/// inline serial path; unset or invalid falls back to
/// `std::thread::available_parallelism()`.
pub const THREADS_ENV: &str = "LOSSBURST_THREADS";

/// How `par_iter().map().collect()` fans work out over threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecutionPolicy {
    /// Run every item on the calling thread, in order.
    Serial,
    /// Persistent pool, dynamic cursor-based work dealing (the default).
    WorkStealing,
}

static POLICY: AtomicU8 = AtomicU8::new(ExecutionPolicy::WorkStealing as u8);

/// Select the policy used by subsequent `collect` calls (process-wide).
pub fn set_execution_policy(policy: ExecutionPolicy) {
    POLICY.store(policy as u8, Ordering::SeqCst);
}

/// The policy currently in effect.
pub fn execution_policy() -> ExecutionPolicy {
    match POLICY.load(Ordering::SeqCst) {
        0 => ExecutionPolicy::Serial,
        _ => ExecutionPolicy::WorkStealing,
    }
}

fn env_threads() -> Option<usize> {
    let v = std::env::var(THREADS_ENV).ok()?;
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The target worker-thread count: `LOSSBURST_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism. The
/// persistent pool is sized from this at its first use and keeps that size
/// for the life of the process.
pub fn current_num_threads() -> usize {
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Per-worker busy-time accounting (drives the bench's load-imbalance metric).
// ---------------------------------------------------------------------------

/// Busy slots: pool workers use their id, and external submitting threads
/// share the last slot.
const MAX_SLOTS: usize = 65;
static BUSY: [AtomicU64; MAX_SLOTS] = [const { AtomicU64::new(0) }; MAX_SLOTS];
static CPU: [AtomicU64; MAX_SLOTS] = [const { AtomicU64::new(0) }; MAX_SLOTS];

/// CPU time (user + system) consumed so far by the calling thread, when
/// the platform exposes it. Linux: `/proc/thread-self/stat` utime+stime in
/// USER_HZ (100 Hz) ticks — 10 ms granularity, which is fine for the
/// simulation-scale items the benchmarks time.
fn thread_cpu_nanos() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // comm (field 2) is parenthesized and may contain spaces; fields 14
    // (utime) and 15 (stime) are the 11th and 12th after the closing paren.
    let rest = stat.rsplit_once(')')?.1;
    let mut it = rest.split_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / 100))
}

/// A scope timer: measures both wall time and thread CPU time spent in one
/// `execute` call and credits them to `slot` on drop.
struct BusyTimer {
    slot: usize,
    t0: Instant,
    cpu0: Option<u64>,
}

impl BusyTimer {
    fn start(slot: usize) -> BusyTimer {
        BusyTimer {
            slot: slot.min(MAX_SLOTS - 1),
            t0: Instant::now(),
            cpu0: thread_cpu_nanos(),
        }
    }
}

impl Drop for BusyTimer {
    fn drop(&mut self) {
        BUSY[self.slot].fetch_add(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let (Some(c0), Some(c1)) = (self.cpu0, thread_cpu_nanos()) {
            CPU[self.slot].fetch_add(c1.saturating_sub(c0), Ordering::Relaxed);
        }
    }
}

/// Wall-clock nanoseconds each worker slot has spent executing map items
/// since the last [`reset_worker_busy`]. Zero entries are slots that never
/// ran. On an oversubscribed machine these include time spent preempted;
/// see [`worker_cpu_nanos`] for the scheduling-independent view.
pub fn worker_busy_nanos() -> Vec<u64> {
    BUSY.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// CPU nanoseconds each worker slot has consumed executing map items since
/// the last [`reset_worker_busy`] (all zeros where the platform has no
/// thread CPU clock). This is the load-imbalance measure: max/mean across
/// workers ≈ 1.0 means the schedule kept work even; the max entry is the
/// critical path a fully parallel machine could not go below.
pub fn worker_cpu_nanos() -> Vec<u64> {
    CPU.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Zero the per-worker busy counters (benchmarks call this between runs).
pub fn reset_worker_busy() {
    for a in &BUSY {
        a.store(0, Ordering::Relaxed);
    }
    for a in &CPU {
        a.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------------

/// A data-parallel job the pool can help execute. `execute` is the claim
/// loop: it returns once no more work can be claimed. Any number of threads
/// may run `execute` on the same job concurrently.
trait SharedJob: Sync {
    fn execute(&self, slot: usize);
    fn has_work(&self) -> bool;
    fn executors(&self) -> &AtomicUsize;
}

/// A lifetime-erased pointer to a job living on its submitter's stack. The
/// submitter blocks in [`run_on_pool`] until `executors` drains to zero, so
/// the pointee outlives every dereference.
#[derive(Clone, Copy)]
struct JobHandle(*const (dyn SharedJob + 'static));

// SAFETY: the pointee is Sync and kept alive by the submitting thread until
// every worker has unregistered (see run_on_pool's completion protocol).
unsafe impl Send for JobHandle {}

impl JobHandle {
    fn job(&self) -> &(dyn SharedJob + 'static) {
        unsafe { &*self.0 }
    }

    fn same(&self, other: &JobHandle) -> bool {
        std::ptr::addr_eq(self.0, other.0)
    }
}

struct Shared {
    /// Jobs with possibly-unclaimed work. A job stays here until its cursor
    /// is exhausted; many workers may serve one job concurrently.
    jobs: Mutex<Vec<JobHandle>>,
    /// Workers park here when no job has claimable work.
    work_cv: Condvar,
    /// Submitters park here until their job's executor count drains.
    done_cv: Condvar,
}

struct Pool {
    shared: &'static Shared,
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static POOL_LAUNCHES: AtomicUsize = AtomicUsize::new(0);

/// Worker threads currently in the persistent pool (0 before first use).
pub fn pool_thread_count() -> usize {
    POOL.get().map(|p| p.threads).unwrap_or(0)
}

/// How many times the pool has been constructed. Guaranteed ≤ 1 per
/// process by the `OnceLock`; exposed so tests can assert the guarantee.
pub fn pool_launches() -> usize {
    POOL_LAUNCHES.load(Ordering::SeqCst)
}

thread_local! {
    /// Set for pool workers: their id, which doubles as their busy slot.
    static WORKER_SLOT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = current_num_threads().max(1);
        POOL_LAUNCHES.fetch_add(1, Ordering::SeqCst);
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            jobs: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        for id in 0..threads {
            std::thread::Builder::new()
                .name(format!("lossburst-worker-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("failed to spawn lossburst worker thread");
        }
        Pool { shared, threads }
    })
}

fn worker_loop(shared: &'static Shared, id: usize) {
    WORKER_SLOT.with(|s| s.set(Some(id)));
    let mut jobs = lock(&shared.jobs);
    loop {
        if let Some(pos) = jobs.iter().position(|h| h.job().has_work()) {
            let handle = jobs[pos];
            // Register under the queue lock: the submitter removes the job
            // under the same lock before waiting for executors to drain, so
            // it either sees this registration or we never found the job.
            handle.job().executors().fetch_add(1, Ordering::SeqCst);
            drop(jobs);
            handle.job().execute(id);
            jobs = lock(&shared.jobs);
            if let Some(pos) = jobs.iter().position(|h| h.same(&handle)) {
                if !jobs[pos].job().has_work() {
                    jobs.remove(pos);
                }
            }
            // Last touch of the job: after this the submitter may return
            // and the job memory goes away.
            handle.job().executors().fetch_sub(1, Ordering::SeqCst);
            shared.done_cv.notify_all();
        } else {
            jobs = shared.work_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Publish `job` to the pool, help execute it, and block until every
/// worker has let go of it.
fn run_on_pool(job: &dyn SharedJob) {
    let pool = pool();
    let shared = pool.shared;
    // SAFETY: the handle never outlives this call — workers only reach the
    // job through the queue, the job is removed from the queue below before
    // waiting, and the wait ends only when no worker remains registered.
    let handle = JobHandle(unsafe {
        std::mem::transmute::<*const (dyn SharedJob + '_), *const (dyn SharedJob + 'static)>(job)
    });
    {
        let mut jobs = lock(&shared.jobs);
        jobs.push(handle);
        shared.work_cv.notify_all();
    }
    // The submitter drives the job too. This is the nested-call guarantee:
    // a worker issuing an inner collect completes it inline even if every
    // other worker is occupied.
    let slot = WORKER_SLOT.with(|s| s.get()).unwrap_or(pool.threads);
    job.execute(slot);
    let mut jobs = lock(&shared.jobs);
    if let Some(pos) = jobs.iter().position(|h| h.same(&handle)) {
        jobs.remove(pos);
    }
    while job.executors().load(Ordering::SeqCst) > 0 {
        jobs = shared.done_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
    }
}

// ---------------------------------------------------------------------------
// The order-preserving parallel map jobs.
// ---------------------------------------------------------------------------

/// Items and result slots share an index: whoever claims index `i` from the
/// cursor takes `items[i]` and fills `out[i]`, so the collected output is
/// in input order regardless of scheduling.
struct MapJob<'f, T, R, F> {
    items: Vec<Mutex<Option<T>>>,
    out: Vec<Mutex<Option<R>>>,
    cursor: AtomicUsize,
    grain: usize,
    executors: AtomicUsize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    f: &'f F,
}

impl<T, R, F> SharedJob for MapJob<'_, T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    fn execute(&self, slot: usize) {
        let _busy = BusyTimer::start(slot);
        let n = self.items.len();
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                break;
            }
            let start = self.cursor.fetch_add(self.grain, Ordering::SeqCst);
            if start >= n {
                break;
            }
            let end = (start + self.grain).min(n);
            for i in start..end {
                if self.poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let item = lock(&self.items[i]).take().expect("map item claimed twice");
                match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                    Ok(r) => *lock(&self.out[i]) = Some(r),
                    Err(payload) => {
                        let mut first = lock(&self.panic);
                        if first.is_none() {
                            *first = Some(payload);
                        }
                        self.poisoned.store(true, Ordering::SeqCst);
                    }
                }
            }
        }
    }

    fn has_work(&self) -> bool {
        !self.poisoned.load(Ordering::Relaxed)
            && self.cursor.load(Ordering::SeqCst) < self.items.len()
    }

    fn executors(&self) -> &AtomicUsize {
        &self.executors
    }
}

/// Run an order-preserving map on the persistent pool.
pub(crate) fn work_stealing_map<T, R, F>(items: Vec<T>, f: &F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    // Small contiguous ranges for cheap items amortize the cursor; the
    // expensive-simulation case (n comparable to threads) gets grain 1.
    let grain = (n / (threads.max(1) * 8)).max(1);
    let job = MapJob {
        items: items.into_iter().map(|x| Mutex::new(Some(x))).collect(),
        out: (0..n).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicUsize::new(0),
        grain,
        executors: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        f,
    };
    run_on_pool(&job);
    if let Some(payload) = lock(&job.panic).take() {
        resume_unwind(payload);
    }
    job.out
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("work-stealing map lost an item")
        })
        .collect()
}
