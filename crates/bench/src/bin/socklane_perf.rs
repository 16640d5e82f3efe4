//! `socklane_perf` — the real-socket transport lane, benchmarked against
//! its two simulated siblings.
//!
//! One cross-validation cell per controller (NewReno, CUBIC, BBR): the
//! identical (controller, seed, loss-plan) triple runs through the
//! discrete-event simulator, the `emu::Testbed` dumbbell, and the
//! `lossburst-sock` UDP-loopback lane, and the same
//! [`check_cross_lane_agreement`] gate the test suite uses is enforced in
//! the run that reports the numbers — a fast socket lane whose loss
//! process drifted statistically aborts the benchmark.
//!
//! Reported per controller: socket-lane datagrams/second (data + ACK
//! datagrams actually moved through the loopback shim), bytes delivered,
//! and the worst pairwise loss-interval-distribution delta across the
//! three lanes ([`hybrid_max_frac_delta`]). Results go to
//! `BENCH_SOCKLANE.json` (override with `--out PATH`). `--quick` runs
//! NewReno only for CI. On runners that forbid loopback sockets the
//! benchmark writes a `"skipped": true` report instead of failing.

use lossburst_bench::{cli, provenance};
use lossburst_sock::lane::socket_lane_available;
use lossburst_testkit::prelude::*;
use lossburst_transport::cc::CcAlgorithm;
use std::time::Instant;

struct CellReport {
    json: String,
    datagrams_per_sec: f64,
}

/// Run one controller's cell through all three lanes and gate it.
fn bench_cell(cc: CcAlgorithm, seed: u64) -> CellReport {
    let sc = CrossLaneScenario::quick(cc, seed);
    let plan = sc.plan();

    let t0 = Instant::now();
    let netsim = run_netsim_lane(&sc);
    let netsim_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let emu = run_emu_lane(&sc);
    let emu_ms = t0.elapsed().as_secs_f64() * 1e3;

    let sock_res = lossburst_sock::lane::run(&sc.sock_config()).expect("socket lane run");
    let sock = run_sock_stats(&sc, &sock_res);

    let lanes = [netsim, emu, sock];
    check_cross_lane_agreement(
        &format!("socklane_perf {}", cc.name()),
        &plan,
        &lanes,
        &CrossLaneTolerance::default(),
    )
    .expect("socket lane failed the cross-lane agreement gate");

    let max_delta = lanes
        .iter()
        .flat_map(|a| {
            lanes
                .iter()
                .map(move |b| hybrid_max_frac_delta(&a.report, &b.report))
        })
        .fold(0.0f64, f64::max);

    let datagrams_per_sec = sock_res.datagrams_sent as f64 / sock_res.elapsed_secs;
    println!(
        "# {:>7}: sock {:>7.0} dgram/s over {:>4.1} s wall ({} fwd arrivals, {} drops) | netsim {:>6.0} ms, emu {:>6.0} ms | max pairwise delta {:.3}",
        cc.name(),
        datagrams_per_sec,
        sock_res.elapsed_secs,
        sock_res.forward_arrivals,
        sock_res.forward_drops,
        netsim_ms,
        emu_ms,
        max_delta,
    );
    let lanes_json: Vec<String> = lanes
        .iter()
        .map(|l| {
            format!(
                "{{ \"lane\": \"{}\", \"arrivals\": {}, \"losses\": {}, \"episodes\": {} }}",
                l.lane, l.arrivals, l.drops, l.episodes
            )
        })
        .collect();
    let json = format!(
        "    {{ \"controller\": \"{}\", \"seed\": {seed},\n      \"datagrams_per_sec\": {datagrams_per_sec:.0}, \"wall_s\": {:.2}, \"bytes_delivered\": {},\n      \"netsim_ms\": {netsim_ms:.1}, \"emu_ms\": {emu_ms:.1},\n      \"lanes\": [{}],\n      \"max_stat_delta\": {max_delta:.4}, \"gate\": \"pass\" }}",
        cc.name(),
        sock_res.elapsed_secs,
        sock_res.progress.bytes_delivered,
        lanes_json.join(", "),
    );
    CellReport {
        json,
        datagrams_per_sec,
    }
}

/// Lane statistics for a completed socket-lane run.
fn run_sock_stats(sc: &CrossLaneScenario, res: &lossburst_sock::lane::SockLaneResult) -> LaneStats {
    lossburst_testkit::cross_lane::lane_stats(
        "sock",
        &res.loss_times,
        sc.rtt.as_secs_f64(),
        res.forward_arrivals,
        &sc.plan(),
    )
}

fn main() {
    const USAGE: &str = "usage: socklane_perf [--quick] [--seed N] [--threads N] [--out PATH]";
    let mut out_path = String::from("BENCH_SOCKLANE.json");
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

    println!("# real-socket transport lane vs netsim vs emu");
    println!(
        "# threads {} (LOSSBURST_THREADS), host cpus {}, seed {seed}",
        prov.threads, prov.host_cpus
    );

    let prov = prov.json_fields();
    if !socket_lane_available() {
        println!("# loopback UDP unavailable on this runner; writing a skip report");
        let json = format!(
            "{{\n  \"bench\": \"socklane\",\n  \"seed\": {seed},\n  {prov},\n  \"skipped\": true,\n  \"reason\": \"loopback UDP sockets unavailable on this runner\"\n}}\n",
        );
        std::fs::write(&out_path, &json).expect("cannot write results file");
        println!("# wrote {out_path} (skipped)");
        return;
    }

    let controllers: &[CcAlgorithm] = if quick {
        &[CcAlgorithm::NewReno]
    } else {
        &[CcAlgorithm::NewReno, CcAlgorithm::Cubic, CcAlgorithm::Bbr]
    };
    let entries: Vec<CellReport> = controllers.iter().map(|&cc| bench_cell(cc, seed)).collect();
    let headline = entries
        .iter()
        .map(|e| e.datagrams_per_sec)
        .fold(0.0f64, f64::max);

    let cells: Vec<String> = entries.iter().map(|e| e.json.clone()).collect();
    let json = format!(
        "{{\n  \"bench\": \"socklane\",\n  \"seed\": {seed},\n  {prov},\n  \"skipped\": false,\n  \"scenario\": \"quick cross-lane cell: 40 Mbit/s, 10 ms RTT loopback path with a seeded Gilbert loss plan replayed by the impairment shim, one sender per controller\",\n  \"gate\": \"check_cross_lane_agreement over (netsim, emu, sock) — plan-replay consistency, Gilbert-fit recovery, and pairwise loss-process agreement — enforced in this same run\",\n  \"cells\": [\n{}\n  ],\n  \"datagrams_per_sec\": {headline:.0}\n}}\n",
        cells.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!("# wrote {out_path} (best lane {headline:.0} datagrams/s)");
}
