//! CI smoke for the campaign supervisor: a quick-scale Fig 4 campaign
//! with two persistent injected faults (one simulator panic, one
//! wall-clock timeout) must complete with partial results and the
//! expected outcome ledger, then resume from its own checkpoint to a
//! byte-identical product.
//!
//! Usage: `supervisor_smoke --out DIR [--seed N]`. Writes the checkpoint,
//! the ledger, and a summary under DIR (uploaded as a CI artifact) and
//! exits non-zero if any expectation fails.

use lossburst_bench::cli;
use lossburst_core::prelude::*;
use lossburst_core::supervisor::PathRecord;
use lossburst_inet::campaign::CampaignConfig;
use lossburst_netsim::time::SimDuration;
use std::path::PathBuf;

const PANIC_PATH: usize = 2;
const TIMEOUT_PATH: usize = 5;

fn parse_args() -> (PathBuf, u64) {
    const USAGE: &str = "usage: supervisor_smoke [--out DIR] [--seed N]";
    let mut out = PathBuf::from("target/supervisor-smoke");
    let mut seed = 2006u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = cli::value(&mut it, "--out", "a directory", USAGE),
            "--seed" => seed = cli::value(&mut it, "--seed", "an integer", USAGE),
            other => cli::unknown_flag(other, USAGE),
        }
    }
    (out, seed)
}

fn dump(run: &SupervisedStreamCampaign) -> String {
    let mut s = String::new();
    for e in &run.ledger {
        s.push_str(&format!("{} {:?}\n", e.index, e.outcome));
    }
    for m in &run.result.measurements {
        s.push_str(&m.encode());
        s.push('\n');
    }
    for iv in run.result.intervals_rtt() {
        s.push_str(&format!("{:016x} ", iv.to_bits()));
    }
    s
}

fn main() {
    let (out, seed) = parse_args();
    std::fs::create_dir_all(&out).expect("create --out dir");
    let ck = out.join("campaign.ckpt");
    std::fs::remove_file(&ck).ok();

    let cfg = CampaignConfig {
        seed,
        n_paths: 10,
        probe_pps: 2000.0,
        duration: SimDuration::from_secs(10),
        background: lossburst_netsim::fluid::BackgroundMode::Packet,
    };
    let sup = SupervisorConfig {
        max_retries: 1,
        checkpoint: Some(ck.clone()),
        faults: FaultPlan::new(seed)
            .always(PANIC_PATH, FaultKind::Panic)
            .always(TIMEOUT_PATH, FaultKind::Timeout),
        ..Default::default()
    };
    println!(
        "# supervised smoke campaign: {} paths, persistent panic at {PANIC_PATH}, persistent timeout at {TIMEOUT_PATH}",
        cfg.n_paths
    );

    // The injected panic is caught by the supervisor's fault boundary, but
    // the default hook would still print its backtrace; keep the CI log
    // readable while the campaign runs.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = run_grid_streaming_supervised(&cfg, &sup);
    std::panic::set_hook(prev_hook);
    let run = run.expect("supervised campaign");
    for e in &run.ledger {
        let (src, dst) = run.pairs[e.index];
        println!(
            "path {:>2} ({src:>2} -> {dst:>2}): {:?}",
            e.index, e.outcome
        );
    }
    let counts = run.counts();
    println!(
        "# ok {} retried {} failed {} skipped {} | validated {} rejected {} | restored {}",
        counts.ok,
        counts.retried,
        counts.failed,
        counts.skipped,
        run.result.validated,
        run.result.rejected,
        run.restored
    );

    // The ledger contract: exactly the two injected paths fail, with the
    // expected reasons, and every other path measures cleanly.
    assert_eq!(counts.failed, 2, "exactly the two injected faults fail");
    assert_eq!(counts.ok, cfg.n_paths - 2);
    assert_eq!((counts.retried, counts.skipped), (0, 0));
    match &run.ledger[PANIC_PATH].outcome {
        PathOutcome::Failed(r) => assert!(
            r.contains("injected fault: simulator panic at event"),
            "panic path reason: {r}"
        ),
        other => panic!("panic path outcome: {other:?}"),
    }
    assert_eq!(
        run.ledger[TIMEOUT_PATH].outcome,
        PathOutcome::Failed("wall-clock budget exceeded (injected)".into())
    );
    assert_eq!(
        run.result.measurements.len(),
        cfg.n_paths - 2,
        "partial results cover the surviving paths"
    );
    assert!(
        !run.result.intervals_rtt().is_empty(),
        "surviving paths still pool intervals for Fig 4"
    );

    // Resume from the checkpoint the run just wrote: everything restores,
    // nothing re-measures, and the product is byte-identical.
    let resumed = run_grid_streaming_supervised(&cfg, &sup).expect("resumed campaign");
    assert_eq!(resumed.restored, cfg.n_paths, "all paths restored");
    assert_eq!(dump(&resumed), dump(&run), "resume is byte-identical");

    let ledger_path = out.join("ledger.txt");
    let mut ledger = String::new();
    for e in &run.ledger {
        ledger.push_str(&format!("{} {:?}\n", e.index, e.outcome));
    }
    std::fs::write(&ledger_path, ledger).expect("write ledger");
    std::fs::write(
        out.join("summary.txt"),
        format!(
            "paths {}\nok {}\nfailed {}\nvalidated {}\nrejected {}\npooled_intervals {}\nresume byte-identical: yes\n",
            cfg.n_paths,
            counts.ok,
            counts.failed,
            run.result.validated,
            run.result.rejected,
            run.result.intervals_rtt().len()
        ),
    )
    .expect("write summary");
    println!(
        "# wrote {} and {} (checkpoint: {})",
        ledger_path.display(),
        out.join("summary.txt").display(),
        ck.display()
    );
    println!("supervisor smoke: OK");
}
