//! Stress tests for the scoped fan-out. They live in their own
//! integration-test binary so this process can pin `LOSSBURST_THREADS`
//! before its first parallel call; every test calls `init()` first and
//! serializes on `GUARD` because the execution policy, the busy counters
//! and the helper budget are process-wide.

use rayon::prelude::*;
use rayon::{
    current_num_threads, reset_worker_busy, set_execution_policy, worker_busy_nanos,
    ExecutionPolicy, THREADS_ENV,
};
use std::collections::{HashMap, HashSet};
use std::sync::{Barrier, Mutex, MutexGuard, Once};
use std::thread::ThreadId;
use std::time::Duration;

fn init() -> MutexGuard<'static, ()> {
    static ONCE: Once = Once::new();
    static GUARD: Mutex<()> = Mutex::new(());
    ONCE.call_once(|| std::env::set_var(THREADS_ENV, "4"));
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_execution_policy(ExecutionPolicy::WorkStealing);
    g
}

fn distinct(ids: &[ThreadId]) -> usize {
    ids.iter().collect::<HashSet<_>>().len()
}

/// Threads running an item right now (with their nesting depth), and the
/// most threads outside `submitters` seen running items at once.
#[derive(Default)]
struct Running {
    depth: HashMap<ThreadId, usize>,
    submitters: HashSet<ThreadId>,
    peak_helpers: usize,
}

impl Running {
    /// Run `item` on the calling thread as one tracked item; returns the
    /// thread's id.
    fn track(running: &Mutex<Running>, item: impl FnOnce()) -> ThreadId {
        let me = std::thread::current().id();
        {
            let mut r = running.lock().unwrap();
            *r.depth.entry(me).or_insert(0) += 1;
            let helpers = r
                .depth
                .keys()
                .filter(|id| !r.submitters.contains(id))
                .count();
            r.peak_helpers = r.peak_helpers.max(helpers);
        }
        item();
        let mut r = running.lock().unwrap();
        let depth = r.depth.get_mut(&me).unwrap();
        *depth -= 1;
        if *depth == 0 {
            r.depth.remove(&me);
        }
        me
    }
}

#[test]
fn helpers_stay_within_the_budget_under_concurrent_nested_submitters() {
    let _g = init();
    let threads = current_num_threads();
    assert_eq!(threads, 4, "env override not honored");
    let running = Mutex::new(Running::default());
    let ready = Barrier::new(4);
    let nap = || std::thread::sleep(Duration::from_millis(2));
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                running
                    .lock()
                    .unwrap()
                    .submitters
                    .insert(std::thread::current().id());
                ready.wait();
                let outer: Vec<ThreadId> = (0..8usize)
                    .into_par_iter()
                    .map(|_| {
                        Running::track(&running, || {
                            let inner: Vec<ThreadId> = (0..6usize)
                                .into_par_iter()
                                .map(|_| Running::track(&running, nap))
                                .collect();
                            assert!(distinct(&inner) <= threads, "inner fan-out: {inner:?}");
                        })
                    })
                    .collect();
                assert!(distinct(&outer) <= threads, "outer fan-out: {outer:?}");
            });
        }
    });
    let peak = running.lock().unwrap().peak_helpers;
    assert!(
        (1..threads).contains(&peak),
        "{peak} helpers ran items at once; the budget is {}",
        threads - 1
    );
    // Every helper was handed back: a fresh fan-out gets all of them.
    let ids: Vec<ThreadId> = (0..4usize)
        .into_par_iter()
        .map(|_| {
            std::thread::sleep(Duration::from_millis(200));
            std::thread::current().id()
        })
        .collect();
    assert_eq!(distinct(&ids), 4, "{ids:?}");
}

#[test]
fn nested_three_levels_deep() {
    let _g = init();
    let out: Vec<Vec<Vec<usize>>> = (0..4usize)
        .into_par_iter()
        .map(|i| {
            (0..3usize)
                .into_par_iter()
                .map(move |j| {
                    (0..5usize)
                        .into_par_iter()
                        .map(move |k| i * 100 + j * 10 + k)
                        .collect()
                })
                .collect()
        })
        .collect();
    let flat: Vec<usize> = out.into_iter().flatten().flatten().collect();
    let expect: Vec<usize> = (0..4)
        .flat_map(|i| (0..3).flat_map(move |j| (0..5).map(move |k| i * 100 + j * 10 + k)))
        .collect();
    assert_eq!(flat, expect);
}

#[test]
fn skewed_cost_map_preserves_order_and_spreads_load() {
    let _g = init();
    reset_worker_busy();
    // One item ~100x the others: dynamic dealing must neither reorder the
    // output nor leave the busy counters untouched.
    let out: Vec<usize> = (0..48usize)
        .into_par_iter()
        .map(|i| {
            let us = if i == 0 { 20_000 } else { 200 };
            std::thread::sleep(Duration::from_micros(us));
            i * 7
        })
        .collect();
    assert_eq!(out, (0..48).map(|i| i * 7).collect::<Vec<_>>());
    let busy = worker_busy_nanos();
    assert!(
        busy.iter().filter(|&&b| b > 0).count() >= 2,
        "at least two workers should have executed items: {busy:?}"
    );
}

#[test]
fn panic_payload_is_propagated_verbatim() {
    let _g = init();
    for policy in [ExecutionPolicy::WorkStealing, ExecutionPolicy::Serial] {
        set_execution_policy(policy);
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<u64> = (0..32u64)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| {
                    if x == 13 {
                        panic!("simulated path failure at seed {x}");
                    }
                    x
                })
                .collect();
        })
        .expect_err("collect over a panicking map must unwind");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload should be the original panic message");
        assert_eq!(
            msg, "simulated path failure at seed 13",
            "{policy:?}: payload rewritten"
        );
    }
    set_execution_policy(ExecutionPolicy::WorkStealing);
}

#[test]
fn all_policies_agree_on_results() {
    let _g = init();
    let input: Vec<u64> = (0..257).collect();
    let reference: Vec<u64> = input
        .iter()
        .map(|x| x.wrapping_mul(0x9E3779B9) >> 7)
        .collect();
    for policy in [ExecutionPolicy::Serial, ExecutionPolicy::WorkStealing] {
        set_execution_policy(policy);
        let out: Vec<u64> = input
            .par_iter()
            .map(|x| x.wrapping_mul(0x9E3779B9) >> 7)
            .collect();
        assert_eq!(out, reference, "{policy:?} diverged");
    }
    set_execution_policy(ExecutionPolicy::WorkStealing);
}

#[test]
fn empty_and_single_item_inputs_stay_inline() {
    let _g = init();
    let empty: Vec<u32> = Vec::new();
    let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
    assert!(out.is_empty());
    let one: Vec<u32> = vec![9].into_par_iter().map(|x| x * x).collect();
    assert_eq!(one, vec![81]);
}
