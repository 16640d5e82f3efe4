//! Offline drop-in subset of the `rayon` API used by this workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the one pattern it actually uses:
//! `collection.par_iter().map(f).collect::<Vec<_>>()` (and the
//! `into_par_iter` variant) — backed by a real parallel-execution engine
//! in the private `pool` module: a persistent worker pool with dynamic, order-preserving
//! work dealing (the default), plus a serial path, selectable through
//! [`set_execution_policy`]. Input order is preserved exactly under both
//! policies — the guarantee real rayon's indexed parallel iterators give,
//! which the campaign determinism tests rely on.
//!
//! Thread count honors the `LOSSBURST_THREADS` environment variable
//! ([`THREADS_ENV`]); `LOSSBURST_THREADS=1` forces everything inline on
//! the calling thread and the pool is never spawned.

mod pool;

pub use pool::{
    current_num_threads, execution_policy, pool_launches, pool_thread_count, reset_worker_busy,
    set_execution_policy, worker_busy_nanos, worker_cpu_nanos, ExecutionPolicy, THREADS_ENV,
};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

/// Number of worker threads to fan out over for `len` items: the
/// `LOSSBURST_THREADS` override when set, otherwise available parallelism,
/// never more than one per item.
fn worker_count(len: usize) -> usize {
    pool::current_num_threads().min(len).max(1)
}

/// Order-preserving parallel map over an owned vector, dispatched through
/// the current [`ExecutionPolicy`]. Worker panics are re-raised here with
/// their original payload.
fn parallel_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    match pool::execution_policy() {
        ExecutionPolicy::Serial => items.into_iter().map(f).collect(),
        ExecutionPolicy::WorkStealing => pool::work_stealing_map(items, f, workers),
    }
}

/// A materialized parallel iterator: items are staged in a vector, and the
/// pipeline runs when `collect` is called.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A `ParIter` with a pending `map` stage.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send> ParIter<T> {
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        parallel_map(self.items, &self.f).into_iter().collect()
    }
}

/// `into_par_iter()` for owned collections.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_iter()` for borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let owned: Vec<u64> = v.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(owned, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_maps_work() {
        let grid: Vec<Vec<usize>> = (0..8usize)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&i| {
                (0..8usize)
                    .collect::<Vec<_>>()
                    .into_par_iter()
                    .map(move |j| i * 8 + j)
                    .collect()
            })
            .collect();
        let flat: Vec<usize> = grid.into_iter().flatten().collect();
        assert_eq!(flat, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one: Vec<u32> = vec![5].into_par_iter().map(|x| x * x).collect();
        assert_eq!(one, vec![25]);
    }
}
