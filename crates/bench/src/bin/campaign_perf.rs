//! `campaign_perf` — campaign-scale execution-engine benchmark.
//!
//! The paper's headline numbers come from *campaigns*: hundreds of
//! directional paths and ablation grids fanned out over `par_iter`. This
//! bin runs two deliberately adversarial campaign workloads under all
//! three schedulers of the vendored rayon shim — serial, static-chunk
//! (the legacy fresh-threads-per-collect scheduler), and the persistent
//! work-stealing pool — asserts the results are byte-identical, and
//! writes `BENCH_CAMPAIGN.json` (override with `--out PATH`).
//!
//! Workloads:
//!
//! * `inet-skewed` — one big fan-out over inet campaign paths with
//!   heterogeneous RTT/duration: a quarter of the paths run ~6x longer
//!   and sit *contiguously* at the front, so static chunking hands one
//!   worker the whole expensive block (the Fig 8 straggler, recreated in
//!   the build farm). Work stealing deals those paths across workers.
//! * `grid-fanout` — the ablation-grid fan-out *pattern*: hundreds of
//!   small `collect` calls over cheap analysis cells. Here the cost that
//!   matters is per-collect scheduler overhead — fresh OS threads per
//!   call versus waking the parked persistent pool.
//!
//! Reported per scheduler: wall time, events/sec (inet workload), and the
//! load-imbalance metric max/mean of per-worker **CPU** time (1.0 = the
//! schedule kept every worker equally busy). The max per-worker CPU time
//! is the critical path: the wall time a machine with at least `threads`
//! idle cores could not go below, so `critical_path_speedup` is the
//! projected multicore wall-time gain even when the benchmarking host
//! (like the 1-CPU container this repo is grown in) timeslices the
//! workers; on such a host the wall-time speedup shows up only where
//! scheduler overhead itself dominates (`grid-fanout`).

use lossburst_analysis::burstiness;
use lossburst_analysis::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use lossburst_analysis::poisson;
use lossburst_inet::path::PathScenario;
use lossburst_inet::probe::{run_probe_streaming, ProbeConfig};
use lossburst_inet::sites::all_directed_pairs;
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use rayon::prelude::*;
use rayon::{
    current_num_threads, reset_worker_busy, set_execution_policy, worker_cpu_nanos,
    ExecutionPolicy, THREADS_ENV,
};
use std::time::Instant;

/// FNV-1a accumulator: a cheap byte-identity fingerprint.
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One scheduler's run of one workload.
struct SchedRun {
    wall_secs: f64,
    /// Per-worker CPU nanos (empty for the serial policy — it runs inline).
    cpu: Vec<u64>,
    fingerprint: u64,
    events: u64,
}

/// max/mean of the participating workers' CPU time; 1.0 when fewer than
/// two workers took part (serial, or no CPU clock).
fn imbalance(cpu: &[u64]) -> f64 {
    let active: Vec<u64> = cpu.iter().copied().filter(|&c| c > 0).collect();
    if active.len() < 2 {
        return 1.0;
    }
    let max = *active.iter().max().unwrap() as f64;
    let mean = active.iter().sum::<u64>() as f64 / active.len() as f64;
    max / mean
}

/// The busiest worker's CPU time: the schedule's critical path.
fn critical_path_nanos(cpu: &[u64]) -> u64 {
    cpu.iter().copied().max().unwrap_or(0)
}

fn run_under<F: Fn() -> (u64, u64)>(policy: ExecutionPolicy, work: &F) -> SchedRun {
    set_execution_policy(policy);
    reset_worker_busy();
    let t0 = Instant::now();
    let (fingerprint, events) = work();
    let wall_secs = t0.elapsed().as_secs_f64();
    set_execution_policy(ExecutionPolicy::WorkStealing);
    SchedRun {
        wall_secs,
        cpu: worker_cpu_nanos().into_iter().filter(|&c| c > 0).collect(),
        fingerprint,
        events,
    }
}

/// Workload A: skewed inet campaign paths. Returns (fingerprint, events).
fn inet_skewed(
    paths: &[(usize, usize, f64)],
    base: SimDuration,
    pps: f64,
    seed: u64,
) -> (u64, u64) {
    let outcomes: Vec<(u64, u64, u64, u64)> = paths
        .par_iter()
        .map(|&(src, dst, factor)| {
            let scenario = PathScenario::derive(seed, src, dst);
            let probe = ProbeConfig {
                packet_bytes: 48,
                pps,
                duration: SimDuration::from_secs_f64(base.as_secs_f64() * factor),
                seed: seed ^ ((src as u64) << 32 | dst as u64),
                background: BackgroundMode::Packet,
            };
            let out = run_probe_streaming(&scenario, &probe);
            let mut h = FNV_SEED;
            fnv(&mut h, out.sent);
            fnv(&mut h, out.received);
            for &s in &out.lost {
                fnv(&mut h, s);
            }
            (out.sent, out.received, h, out.events)
        })
        .collect();
    let mut h = FNV_SEED;
    let mut events = 0u64;
    for &(sent, received, ph, ev) in &outcomes {
        fnv(&mut h, sent);
        fnv(&mut h, received);
        fnv(&mut h, ph);
        events += ev;
    }
    (h, events)
}

/// Workload B: the ablation-grid fan-out pattern — `collects` small
/// `par_iter` calls over `cells` cheap analysis cells each. Returns
/// (fingerprint, cells processed).
fn grid_fanout(collects: usize, cells: usize, seed: u64) -> (u64, u64) {
    let mut h = FNV_SEED;
    for round in 0..collects as u64 {
        let reports: Vec<u64> = (0..cells)
            .into_par_iter()
            .map(|cell| {
                // Deterministic synthetic inter-loss intervals (xorshift →
                // exponential-ish with a per-cell rate), run through the
                // real analysis pipeline an ablation cell would use.
                let mut s = seed ^ (round << 8) ^ cell as u64 ^ 0x9E37_79B9_7F4A_7C15;
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                let lambda = 1.0 + (cell as f64) * 3.0;
                let intervals: Vec<f64> = (0..1500)
                    .map(|_| {
                        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                        -(1.0 - u).ln() / lambda
                    })
                    .collect();
                let hist = Histogram::from_values(&intervals, PAPER_BIN_WIDTH, PAPER_RANGE);
                let rate = poisson::rate_from_intervals(&intervals);
                let pdf = poisson::reference_pdf(rate, &hist);
                let rep = burstiness::analyze(&intervals);
                let mut ch = FNV_SEED;
                fnv(&mut ch, rep.n_losses as u64);
                fnv(&mut ch, rep.frac_below_001.to_bits());
                fnv(&mut ch, rep.index_of_dispersion.to_bits());
                fnv(
                    &mut ch,
                    pdf.iter().map(|p| p.to_bits()).fold(0, u64::wrapping_add),
                );
                ch
            })
            .collect();
        for r in reports {
            fnv(&mut h, r);
        }
    }
    (h, (collects * cells) as u64)
}

fn json_sched(run: &SchedRun, events_label: &str) -> String {
    format!(
        "{{ \"wall_ms\": {:.1}, \"{events_label}\": {:.0}, \"imbalance\": {:.3}, \"critical_path_ms\": {:.1} }}",
        run.wall_secs * 1e3,
        run.events as f64 / run.wall_secs,
        imbalance(&run.cpu),
        critical_path_nanos(&run.cpu) as f64 / 1e6,
    )
}

struct WorkloadReport {
    json: String,
    wall_speedup: f64,
    critical_speedup: f64,
}

fn bench_workload<F: Fn() -> (u64, u64)>(
    name: &str,
    detail: &str,
    events_label: &str,
    work: F,
) -> WorkloadReport {
    let serial = run_under(ExecutionPolicy::Serial, &work);
    let stat = run_under(ExecutionPolicy::StaticChunk, &work);
    let ws = run_under(ExecutionPolicy::WorkStealing, &work);
    assert_eq!(
        (serial.fingerprint, serial.events),
        (stat.fingerprint, stat.events),
        "{name}: static-chunk result diverged from serial"
    );
    assert_eq!(
        (serial.fingerprint, serial.events),
        (ws.fingerprint, ws.events),
        "{name}: work-stealing result diverged from serial"
    );
    let wall_speedup = stat.wall_secs / ws.wall_secs;
    let crit_s = critical_path_nanos(&stat.cpu);
    let crit_w = critical_path_nanos(&ws.cpu);
    let critical_speedup = if crit_w > 0 {
        crit_s as f64 / crit_w as f64
    } else {
        1.0
    };
    println!(
        "# {:<12} serial {:>8.0} ms | static {:>8.0} ms (imb {:.2}) | steal {:>8.0} ms (imb {:.2}) | ws-vs-static wall {:.2}x crit {:.2}x",
        name,
        serial.wall_secs * 1e3,
        stat.wall_secs * 1e3,
        imbalance(&stat.cpu),
        ws.wall_secs * 1e3,
        imbalance(&ws.cpu),
        wall_speedup,
        critical_speedup,
    );
    let json = format!
    (
        "    {{ \"name\": \"{name}\", \"detail\": \"{detail}\",\n      \"serial\": {},\n      \"static\": {},\n      \"workstealing\": {},\n      \"ws_vs_static\": {{ \"wall_speedup\": {wall_speedup:.3}, \"critical_path_speedup\": {critical_speedup:.3} }} }}",
        json_sched(&serial, events_label),
        json_sched(&stat, events_label),
        json_sched(&ws, events_label),
    );
    WorkloadReport {
        json,
        wall_speedup,
        critical_speedup,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_CAMPAIGN.json");
    let mut quick = false;
    let mut seed = 2006u64;
    let mut threads_flag: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out requires a path"),
            "--quick" => quick = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires an integer")
            }
            "--threads" => threads_flag = Some(it.next().expect("--threads requires a count")),
            "--help" | "-h" => {
                eprintln!("usage: campaign_perf [--quick] [--seed N] [--threads N] [--out PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // Pin the fan-out width before the pool's one-time initialization:
    // --threads wins, then an existing LOSSBURST_THREADS, then 4 (so the
    // scheduler comparison is meaningful even on a small host).
    if let Some(t) = threads_flag {
        std::env::set_var(THREADS_ENV, t);
    } else if std::env::var(THREADS_ENV).is_err() {
        std::env::set_var(THREADS_ENV, "4");
    }
    let threads = current_num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Skewed path set: a quarter of the paths at ~6x duration, contiguous
    // at the front — the worst case for static contiguous chunks.
    let (n_paths, base_secs, pps) = if quick {
        (8, 2.0, 500.0)
    } else {
        (16, 5.0, 800.0)
    };
    let pairs = all_directed_pairs();
    let stride = pairs.len() / n_paths;
    let paths: Vec<(usize, usize, f64)> = (0..n_paths)
        .map(|i| {
            let (s, d) = pairs[i * stride];
            let factor = if i < n_paths / 4 { 6.0 } else { 1.0 };
            (s, d, factor)
        })
        .collect();
    let (collects, cells) = if quick { (60, 8) } else { (400, 8) };

    println!("# campaign-engine perf: serial vs static-chunk vs work-stealing");
    println!("# threads {threads} (LOSSBURST_THREADS), host cpus {host_cpus}, seed {seed}");

    let base = SimDuration::from_secs_f64(base_secs);
    let inet = bench_workload(
        "inet-skewed",
        &format!(
            "{n_paths} campaign paths, first {} at 6x duration (base {base_secs}s, {pps} pps), contiguous",
            n_paths / 4
        ),
        "events_per_sec",
        || inet_skewed(&paths, base, pps, seed),
    );
    let grid = bench_workload(
        "grid-fanout",
        &format!("{collects} par_iter collects x {cells} analysis cells"),
        "cells_per_sec",
        || grid_fanout(collects, cells, seed),
    );

    let prov = lossburst_bench::provenance::capture().json_fields();
    let max_wall = inet.wall_speedup.max(grid.wall_speedup);
    let max_crit = inet.critical_speedup.max(grid.critical_speedup);
    let max_speedup = max_wall.max(max_crit);
    let json = format!
    (
        "{{\n  \"bench\": \"campaign\",\n  \"seed\": {seed},\n  {prov},\n  \"schedulers\": [\"serial\", \"static\", \"workstealing\"],\n  \"imbalance_metric\": \"max/mean per-worker CPU time (1.0 = perfectly even)\",\n  \"critical_path_metric\": \"busiest worker's CPU time = wall-time floor on a >=threads-core machine\",\n  \"workloads\": [\n{},\n{}\n  ],\n  \"max_wall_speedup\": {max_wall:.3},\n  \"max_critical_path_speedup\": {max_crit:.3},\n  \"max_speedup\": {max_speedup:.3}\n}}\n",
        inet.json, grid.json,
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!(
        "# wrote {out_path} (ws-vs-static: wall {max_wall:.2}x, critical path {max_crit:.2}x)"
    );
}
