//! The execution engine behind the `par_iter` shim.
//!
//! Two execution policies live here, selectable at runtime through
//! [`set_execution_policy`]:
//!
//! * [`ExecutionPolicy::WorkStealing`] (the default) — one scoped fan-out
//!   per `collect`: the calling thread works, plus up to `threads − 1`
//!   helper threads spawned with `std::thread::scope` for that call and
//!   joined before it returns. Helpers come out of one process-wide budget
//!   of `current_num_threads() − 1`, so concurrent and nested `collect`s
//!   never hold more than that between them; a call that gets none runs
//!   inline. Work is dealt dynamically: each thread claims the next
//!   contiguous chunk from a shared queue, and the results are put back in
//!   input order by each chunk's start index, no matter which thread
//!   computed which chunk.
//! * [`ExecutionPolicy::Serial`] — the calling thread runs everything: the
//!   oracle the determinism tests compare the fan-out against.
//!
//! The thread count honors the `LOSSBURST_THREADS` environment variable
//! (see [`current_num_threads`]); a value of `1` forces the inline serial
//! path and no thread is spawned. A panicking item stops further claims,
//! and its payload is re-raised on the calling thread.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
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
    /// Scoped helper threads, dynamic chunk dealing (the default).
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

/// The target thread count, calling thread included: `LOSSBURST_THREADS`
/// when set to a positive integer, otherwise the machine's available
/// parallelism. Read at every `collect`.
pub fn current_num_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Busy slots: a fan-out's calling thread is slot 0 and its helper `k` is
/// slot `k`; higher helpers share the last slot.
const MAX_SLOTS: usize = 65;
static BUSY: [AtomicU64; MAX_SLOTS] = [const { AtomicU64::new(0) }; MAX_SLOTS];

/// Wall-clock nanoseconds each slot has spent executing its share of a
/// fan-out since the last [`reset_worker_busy`]. Zero entries are slots
/// that never ran; inline calls are not counted. On an oversubscribed
/// machine these include time spent preempted.
pub fn worker_busy_nanos() -> Vec<u64> {
    BUSY.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

/// Zero the per-slot busy counters (benchmarks call this between runs).
pub fn reset_worker_busy() {
    for a in &BUSY {
        a.store(0, Ordering::Relaxed);
    }
}

/// Helper threads held by every fan-out in the process.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Helpers claimed from the budget; handed back on drop, unwinding too.
struct Lease(usize);

impl Lease {
    /// Claim up to `want` helpers, as many as the budget of `threads − 1`
    /// has left.
    fn claim(want: usize, threads: usize) -> Lease {
        let cap = threads.saturating_sub(1);
        let mut take = 0;
        let _ = HELPERS.fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
            take = want.min(cap.saturating_sub(held));
            (take > 0).then_some(held + take)
        });
        Lease(take)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        HELPERS.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// One thread's share of a fan-out: credits its wall time to `slot` and,
/// if the thread unwinds out of an item, stops further claims.
struct Share<'a> {
    slot: usize,
    t0: Instant,
    stop: &'a AtomicBool,
}

impl Drop for Share<'_> {
    fn drop(&mut self) {
        BUSY[self.slot.min(MAX_SLOTS - 1)]
            .fetch_add(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if std::thread::panicking() {
            self.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// Order-preserving map over `items` on the calling thread plus the
/// helpers the budget grants, `threads` being the target thread count.
pub(crate) fn scoped_map<T, R, F>(items: Vec<T>, f: &F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    let lease = Lease::claim(workers.saturating_sub(1), threads);
    if lease.0 == 0 {
        return items.into_iter().map(f).collect();
    }
    // Small contiguous chunks for cheap items amortize the queue lock; the
    // expensive-simulation case (n comparable to threads) gets grain 1.
    let grain = (n / (workers * 8)).max(1);
    // The unclaimed tail of the input and the index of its first item.
    let queue = Mutex::new((0, items.into_iter()));
    let stop = AtomicBool::new(false);
    let work = |slot: usize| {
        let _share = Share {
            slot,
            t0: Instant::now(),
            stop: &stop,
        };
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let (start, chunk) = {
                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                let chunk: Vec<T> = q.1.by_ref().take(grain).collect();
                q.0 += chunk.len();
                (q.0 - chunk.len(), chunk)
            };
            if chunk.is_empty() {
                break;
            }
            done.push((start, chunk.into_iter().map(f).collect::<Vec<R>>()));
        }
        done
    };
    let mut chunks = std::thread::scope(|s| {
        let work = &work;
        let helpers: Vec<_> = (1..=lease.0)
            .filter_map(|k| {
                std::thread::Builder::new()
                    .name(format!("lossburst-helper-{k}"))
                    .spawn_scoped(s, move || work(k))
                    .ok()
            })
            .collect();
        let mut chunks = work(0);
        for helper in helpers {
            match helper.join() {
                Ok(done) => chunks.extend(done),
                Err(payload) => resume_unwind(payload),
            }
        }
        chunks
    });
    drop(lease);
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, results) in chunks {
        out.extend(results);
    }
    out
}
