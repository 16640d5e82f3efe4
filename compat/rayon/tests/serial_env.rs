//! `LOSSBURST_THREADS=1` must force the inline serial path: every item,
//! nested ones included, runs on the calling thread. Own binary (own
//! process) so the env var can be pinned before any parallel call.

use rayon::prelude::*;
use rayon::{current_num_threads, THREADS_ENV};
use std::sync::Once;
use std::thread::ThreadId;

fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var(THREADS_ENV, "1"));
}

#[test]
fn threads_1_runs_inline_without_a_pool() {
    init();
    assert_eq!(current_num_threads(), 1);
    let me = std::thread::current().id();
    let v: Vec<u64> = (0..500).collect();
    let out: Vec<(u64, ThreadId)> = v
        .par_iter()
        .map(|&x| (x * x, std::thread::current().id()))
        .collect();
    assert_eq!(
        out,
        v.iter().map(|&x| (x * x, me)).collect::<Vec<_>>(),
        "every item must run on the calling thread"
    );
    // Nested calls also stay inline.
    let nested: Vec<Vec<(u64, ThreadId)>> = (0..4usize)
        .into_par_iter()
        .map(|i| {
            (0..4u64)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(move |j| (i as u64 * 4 + j, std::thread::current().id()))
                .collect()
        })
        .collect();
    assert_eq!(
        nested.into_iter().flatten().collect::<Vec<_>>(),
        (0..16).map(|k| (k, me)).collect::<Vec<_>>()
    );
}

#[test]
fn inline_path_propagates_panic_payload() {
    init();
    let caught = std::panic::catch_unwind(|| {
        let _: Vec<u32> = vec![1u32, 2, 3]
            .into_par_iter()
            .map(|x| if x == 2 { panic!("inline boom {x}") } else { x })
            .collect();
    })
    .expect_err("must unwind");
    let msg = caught
        .downcast_ref::<String>()
        .cloned()
        .expect("payload should be the formatted panic message");
    assert_eq!(msg, "inline boom 2");
}
