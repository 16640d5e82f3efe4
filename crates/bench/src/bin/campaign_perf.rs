//! `campaign_perf` — campaign-scale execution-engine benchmark.
//!
//! The paper's headline numbers come from *campaigns*: hundreds of
//! directional paths and ablation grids fanned out over `par_iter`. This
//! bin runs two deliberately adversarial campaign workloads under both
//! execution policies of the vendored rayon shim — serial and the
//! persistent work-stealing pool — asserts the results are byte-identical,
//! and writes `BENCH_CAMPAIGN.json` (override with `--out PATH`).
//!
//! Workloads:
//!
//! * `inet-skewed` — one big fan-out over inet campaign paths with
//!   heterogeneous RTT/duration: a quarter of the paths run ~6x longer
//!   and sit *contiguously* at the front, so a dealer that pre-cut
//!   contiguous chunks would hand one worker the whole expensive block
//!   (the Fig 8 straggler, recreated in the build farm). Work stealing
//!   deals those paths across workers.
//! * `grid-fanout` — the ablation-grid fan-out *pattern*: hundreds of
//!   small `collect` calls over cheap analysis cells. Here the cost that
//!   matters is per-collect overhead: waking the parked persistent pool.
//!
//! Reported per policy: wall time, events/sec (inet workload), and the
//! load-imbalance metric max/mean of per-worker **CPU** time (1.0 = the
//! pool kept every worker equally busy). The max per-worker CPU time is
//! the critical path: the wall time a machine with at least `threads`
//! idle cores could not go below, reported beside the wall time because
//! a benchmarking host with fewer cores than workers timeslices them.

use lossburst_analysis::burstiness;
use lossburst_analysis::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use lossburst_analysis::poisson;
use lossburst_bench::{cli, provenance};
use lossburst_inet::path::PathScenario;
use lossburst_inet::probe::{run_probe_streaming, ProbeConfig};
use lossburst_inet::sites::all_directed_pairs;
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use rayon::prelude::*;
use rayon::{reset_worker_busy, set_execution_policy, worker_cpu_nanos, ExecutionPolicy};
use std::time::Instant;

/// FNV-1a accumulator: a cheap byte-identity fingerprint.
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One policy's run of one workload.
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

/// Run one workload under both policies, check they agree, print its row;
/// returns its JSON object and the serial / work-stealing wall-time ratio.
fn bench_workload<F: Fn() -> (u64, u64)>(
    name: &str,
    detail: &str,
    events_label: &str,
    work: F,
) -> (String, f64) {
    let serial = run_under(ExecutionPolicy::Serial, &work);
    let ws = run_under(ExecutionPolicy::WorkStealing, &work);
    assert_eq!(
        (serial.fingerprint, serial.events),
        (ws.fingerprint, ws.events),
        "{name}: work-stealing result diverged from serial"
    );
    let wall_speedup = serial.wall_secs / ws.wall_secs;
    println!(
        "# {:<12} serial {:>8.0} ms | steal {:>8.0} ms (imb {:.2}, crit {:.0} ms) | ws-vs-serial wall {:.2}x",
        name,
        serial.wall_secs * 1e3,
        ws.wall_secs * 1e3,
        imbalance(&ws.cpu),
        critical_path_nanos(&ws.cpu) as f64 / 1e6,
        wall_speedup,
    );
    let json = format!(
        "    {{ \"name\": \"{name}\", \"detail\": \"{detail}\",\n      \"serial\": {},\n      \"workstealing\": {},\n      \"ws_vs_serial_wall_speedup\": {wall_speedup:.3} }}",
        json_sched(&serial, events_label),
        json_sched(&ws, events_label),
    );
    (json, wall_speedup)
}

fn main() {
    const USAGE: &str = "usage: campaign_perf [--quick] [--seed N] [--threads N] [--out PATH]";
    let mut out_path = String::from("BENCH_CAMPAIGN.json");
    let mut quick = false;
    let mut seed = 2006u64;
    let mut threads_flag: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = cli::value(&mut it, "--out", "a path", USAGE),
            "--quick" => quick = true,
            "--seed" => seed = cli::value(&mut it, "--seed", "an integer", USAGE),
            "--threads" => threads_flag = Some(cli::value(&mut it, "--threads", "a count", USAGE)),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => cli::unknown_flag(other, USAGE),
        }
    }
    let prov = provenance::capture_with_threads(threads_flag);

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

    println!("# campaign-engine perf: serial vs work-stealing");
    println!(
        "# threads {} (LOSSBURST_THREADS), host cpus {}, seed {seed}",
        prov.threads, prov.host_cpus
    );

    let base = SimDuration::from_secs_f64(base_secs);
    let (inet_json, inet_speedup) = bench_workload(
        "inet-skewed",
        &format!(
            "{n_paths} campaign paths, first {} at 6x duration (base {base_secs}s, {pps} pps), contiguous",
            n_paths / 4
        ),
        "events_per_sec",
        || inet_skewed(&paths, base, pps, seed),
    );
    let (grid_json, grid_speedup) = bench_workload(
        "grid-fanout",
        &format!("{collects} par_iter collects x {cells} analysis cells"),
        "cells_per_sec",
        || grid_fanout(collects, cells, seed),
    );

    let prov = prov.json_fields();
    let max_wall = inet_speedup.max(grid_speedup);
    let json = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"seed\": {seed},\n  {prov},\n  \"schedulers\": [\"serial\", \"workstealing\"],\n  \"imbalance_metric\": \"max/mean per-worker CPU time (1.0 = perfectly even)\",\n  \"critical_path_metric\": \"busiest worker's CPU time = wall-time floor on a >=threads-core machine\",\n  \"workloads\": [\n{inet_json},\n{grid_json}\n  ],\n  \"max_wall_speedup\": {max_wall:.3}\n}}\n",
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!("# wrote {out_path} (ws-vs-serial wall {max_wall:.2}x)");
}
