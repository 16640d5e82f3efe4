//! `bsp_perf` — the lossy-BSP straggler benchmark (ROADMAP item 4).
//!
//! Sweeps superstep width N ∈ {10^2, 10^3, 10^4} (quick: {10^2, 10^3})
//! and Gilbert mean burst length ∈ {1, 4, 16} packets at a fixed 1% mean
//! loss rate, measuring per-superstep completion-time distributions and
//! the straggler tail mass (P99/median of per-worker slowdowns). At the
//! headline width and the burstiest setting it then prices the three
//! mitigations (path diversity, redundant transfers, burst-aware
//! chunking).
//!
//! Three correctness gates run in-process and are asserted before the
//! JSON is written:
//!
//! * **Tail monotonicity.** At every width, pooled tail mass at burst 16
//!   must exceed burst 1 — burstiness, not mean loss, fattens the tail.
//! * **Mitigation payoff.** At the burstiest headline leg, at least one
//!   mitigation must reduce the pooled tail mass.
//! * **Shard identity.** The headline leg re-run with K ∈ {2, 4}
//!   in-process shards must reproduce the K = 1 fingerprint bit-for-bit.
//!
//! Writes `BENCH_BSP.json` (override with `--out PATH`).

use lossburst_bench::cli;
use lossburst_core::bsp::{run_bsp, run_bsp_sharded, BspConfig, BspReport, Mitigation};
use std::time::Instant;

const MEAN_LOSS: f64 = 0.01;
const BURSTS: [f64; 3] = [1.0, 4.0, 16.0];

fn config(seed: u64, n_workers: usize, burst: f64) -> BspConfig {
    BspConfig {
        n_workers,
        supersteps: 2,
        bytes_per_worker: 1024 * 1024,
        mean_loss_rate: MEAN_LOSS,
        mean_burst_pkts: burst,
        seed,
        mitigation: Mitigation::None,
    }
}

struct Leg {
    n_workers: usize,
    burst: f64,
    report: BspReport,
    wall_secs: f64,
    workers_per_sec: f64,
}

fn run_leg(cfg: &BspConfig) -> Leg {
    let t0 = Instant::now();
    let report = run_bsp(cfg).expect("valid bsp config");
    let wall = t0.elapsed().as_secs_f64();
    let transfers = (cfg.n_workers * cfg.supersteps) as f64;
    println!(
        "# N={:>6} burst={:>4.0}: tail {:>6.3} barrier {:>7.2}s median {:>6.2}s p99 {:>7.2}s | {:>8.0} transfers/s",
        cfg.n_workers,
        cfg.mean_burst_pkts,
        report.pooled_tail_mass,
        report.stats[0].barrier_secs,
        report.stats[0].median_secs,
        report.stats[0].p99_secs,
        transfers / wall,
    );
    Leg {
        n_workers: cfg.n_workers,
        burst: cfg.mean_burst_pkts,
        report,
        wall_secs: wall,
        workers_per_sec: transfers / wall,
    }
}

fn main() {
    const USAGE: &str = "usage: bsp_perf [--quick] [--seed N] [--out PATH]";
    let mut out_path = String::from("BENCH_BSP.json");
    let mut quick = false;
    let mut seed = 2006u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = cli::value(&mut it, "--out", "a path", USAGE),
            "--quick" => quick = true,
            "--seed" => seed = cli::value(&mut it, "--seed", "an integer", USAGE),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => cli::unknown_flag(other, USAGE),
        }
    }

    let widths: Vec<usize> = if quick {
        vec![100, 1_000]
    } else {
        vec![100, 1_000, 10_000]
    };
    let headline = *widths.last().expect("widths non-empty");

    // Burstiness sweep: N x burst at fixed mean loss.
    println!("# lossy-BSP superstep grid: width x burst at {MEAN_LOSS} mean loss");
    let mut legs: Vec<Leg> = Vec::new();
    for &n in &widths {
        for &burst in &BURSTS {
            legs.push(run_leg(&config(seed, n, burst)));
        }
    }

    // Gate 1: tail monotone in burst length at every width.
    for &n in &widths {
        let tail = |b: f64| {
            legs.iter()
                .find(|l| l.n_workers == n && l.burst == b)
                .expect("leg")
                .report
                .pooled_tail_mass
        };
        assert!(
            tail(BURSTS[2]) > tail(BURSTS[0]),
            "tail mass must grow with burst length at N={n}: {} (burst {}) <= {} (burst {})",
            tail(BURSTS[2]),
            BURSTS[2],
            tail(BURSTS[0]),
            BURSTS[0],
        );
    }
    println!("# gate: tail mass grows with burst length at every width");

    // Mitigation pricing at the burstiest headline leg.
    let baseline_tail = legs
        .iter()
        .find(|l| l.n_workers == headline && l.burst == BURSTS[2])
        .expect("headline leg")
        .report
        .pooled_tail_mass;
    let mitigations = [
        Mitigation::Diversity { alts: 3 },
        Mitigation::Redundancy { fraction: 0.1 },
        Mitigation::BurstAware,
    ];
    let mut priced: Vec<(String, f64, f64)> = Vec::new();
    for m in mitigations {
        let mut cfg = config(seed, headline, BURSTS[2]);
        cfg.mitigation = m;
        let t0 = Instant::now();
        let rep = run_bsp(&cfg).expect("valid mitigation config");
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "# mitigation {:>12}: tail {:>6.3} (baseline {:.3}) barrier {:>7.2}s in {:.3}s",
            m.label(),
            rep.pooled_tail_mass,
            baseline_tail,
            rep.stats[0].barrier_secs,
            wall,
        );
        priced.push((m.label(), rep.pooled_tail_mass, rep.stats[0].barrier_secs));
    }
    let best = priced
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("mitigations non-empty");
    let mitigation_delta = baseline_tail - best.1;
    // Gate 2: at least one mitigation reduces the tail.
    assert!(
        mitigation_delta > 0.0,
        "no mitigation reduced tail mass: baseline {baseline_tail}, best {} ({})",
        best.1,
        best.0,
    );
    println!(
        "# gate: {} cuts tail mass {baseline_tail:.3} -> {:.3}",
        best.0, best.1
    );

    // Gate 3: byte-identical across shard counts at the headline leg.
    let parity_cfg = config(seed, headline, BURSTS[2]);
    let fp1 = run_bsp_sharded(&parity_cfg, 1)
        .expect("parity leg")
        .fingerprint;
    let mut parity = vec![(1usize, fp1)];
    for k in [2usize, 4] {
        let fpk = run_bsp_sharded(&parity_cfg, k)
            .expect("parity leg")
            .fingerprint;
        assert_eq!(
            fpk, fp1,
            "shard count {k} diverged from 1-shard at N={headline}"
        );
        parity.push((k, fpk));
    }
    println!(
        "# gate: N={headline} byte-identical across shard counts 1/2/4 (fingerprint {fp1:016x})"
    );

    let prov = lossburst_bench::provenance::capture().json_fields();
    let legs_json: Vec<String> = legs
        .iter()
        .map(|l| {
            let s0 = &l.report.stats[0];
            format!(
                "    {{ \"n_workers\": {}, \"mean_burst_pkts\": {:.0}, \"tail_mass\": {:.4}, \"barrier_secs\": {:.3}, \"median_secs\": {:.3}, \"p99_secs\": {:.3}, \"mean_secs\": {:.3}, \"wall_secs\": {:.4}, \"transfers_per_sec\": {:.0} }}",
                l.n_workers,
                l.burst,
                l.report.pooled_tail_mass,
                s0.barrier_secs,
                s0.median_secs,
                s0.p99_secs,
                s0.mean_secs,
                l.wall_secs,
                l.workers_per_sec,
            )
        })
        .collect();
    let mit_json: Vec<String> = priced
        .iter()
        .map(|(label, tail, barrier)| {
            format!(
                "    {{ \"mitigation\": \"{label}\", \"tail_mass\": {tail:.4}, \"barrier_secs\": {barrier:.3} }}"
            )
        })
        .collect();
    let parity_json: Vec<String> = parity
        .iter()
        .map(|(k, fp)| format!("    {{ \"shards\": {k}, \"fingerprint\": \"{fp:016x}\" }}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"bsp\",\n  \"seed\": {seed},\n  {prov},\n  \"scenario\": \"lossy-BSP supersteps: N parallel 1 MiB transfers over heterogeneous Gilbert paths (1% mean loss), barrier per superstep; burst length swept at fixed mean loss; mitigations priced at the burstiest headline leg\",\n  \"mean_loss_rate\": {MEAN_LOSS},\n  \"legs\": [\n{}\n  ],\n  \"tail_monotone_in_burst\": true,\n  \"headline_workers\": {headline},\n  \"baseline_tail_mass\": {baseline_tail:.4},\n  \"mitigations\": [\n{}\n  ],\n  \"best_mitigation\": \"{}\",\n  \"best_mitigation_tail_mass\": {:.4},\n  \"mitigation_delta\": {mitigation_delta:.4},\n  \"shard_parity\": [\n{}\n  ],\n  \"shard_parity_identical\": true\n}}\n",
        legs_json.join(",\n"),
        mit_json.join(",\n"),
        best.0,
        best.1,
        parity_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!(
        "# wrote {out_path} (headline N={headline}: baseline tail {baseline_tail:.3}, best {} {:.3}, delta {mitigation_delta:.3})",
        best.0, best.1
    );
}
