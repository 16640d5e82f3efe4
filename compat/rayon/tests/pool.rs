//! Stress tests for the persistent work-stealing pool. They live in their
//! own integration-test binary so this process can pin `LOSSBURST_THREADS`
//! before the pool's one-time initialization; every test calls `init()`
//! first and serializes on `GUARD` because the execution policy and the
//! busy counters are process-wide.

use rayon::prelude::*;
use rayon::{
    current_num_threads, pool_launches, pool_thread_count, reset_worker_busy, set_execution_policy,
    worker_busy_nanos, ExecutionPolicy, THREADS_ENV,
};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Duration;

fn init() -> MutexGuard<'static, ()> {
    static ONCE: Once = Once::new();
    static GUARD: Mutex<()> = Mutex::new(());
    ONCE.call_once(|| std::env::set_var(THREADS_ENV, "4"));
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    set_execution_policy(ExecutionPolicy::WorkStealing);
    g
}

#[test]
fn pool_is_spawned_once_and_reused() {
    let _g = init();
    assert_eq!(current_num_threads(), 4, "env override not honored");
    // Many collects, including from freshly spawned submitter threads: the
    // pool must be built exactly once and sized from LOSSBURST_THREADS.
    for round in 0..20u64 {
        let v: Vec<u64> = (0..64).map(|i| i + round).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 3).collect();
        assert_eq!(out, v.iter().map(|x| x * 3).collect::<Vec<_>>());
    }
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let out: Vec<usize> = (0..100usize).into_par_iter().map(|x| x + 1).collect();
                assert_eq!(out.len(), 100);
            });
        }
    });
    assert_eq!(pool_launches(), 1, "pool must be constructed exactly once");
    assert_eq!(pool_thread_count(), 4, "pool must be sized from the env");
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
    assert_eq!(pool_launches(), 1);
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
