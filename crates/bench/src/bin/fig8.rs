//! Figure 8 — latency of parallel flows (GridFTP / GFS style) transferring
//! 64 MB total over a 100 Mbps bottleneck, normalized by the theoretic
//! lower bound, swept over flow counts {2,4,8,16,32} and RTTs
//! {2,10,50,200 ms}.
//!
//! The paper: the bound (~5.39 s with its overheads) is approached at
//! small RTTs, but "with 200ms RTT \[latency\] varies from 11 seconds to 50
//! seconds, depending on how many flows enter the congestion avoidance
//! phase prematurely" — and the variance at (RTT=200 ms, 4 flows) is too
//! large to display.

use lossburst_bench::{cli, or_exit, verdict};
use lossburst_core::impact::{parallel_study, try_theoretic_lower_bound, ParallelConfig};
use lossburst_core::registry;

fn main() {
    let args = cli::parse();
    let mut cfg = ParallelConfig::paper(if args.full { 10 } else { 4 });
    cfg.seeds = cfg.seeds.iter().map(|s| s ^ args.seed).collect();
    let bound = or_exit(
        "fig8",
        try_theoretic_lower_bound(cfg.total_bytes, cfg.bottleneck_bps),
    );
    println!(
        "# Fig 8: 64 MB over 100 Mbps, {} replications per cell; lower bound {:.2} s (paper: 5.39 s)",
        cfg.seeds.len(),
        bound
    );

    let cells = or_exit("fig8", parallel_study(&cfg));
    println!(
        "{:>6} {:>9} {:>14} {:>12} {:>16}",
        "flows", "rtt(ms)", "latency(s)", "normalized", "stddev(norm)"
    );
    for c in &cells {
        let mean_lat: f64 = c.latencies.iter().sum::<f64>() / c.latencies.len() as f64;
        println!(
            "{:>6} {:>9.0} {:>14.2} {:>12.2} {:>16.2}",
            c.flows,
            c.rtt.as_secs_f64() * 1000.0,
            mean_lat,
            c.mean_normalized,
            c.std_normalized
        );
    }

    // The footer quotes four cells; the claim judges the whole grid.
    let cell = |flows: usize, rtt_ms: u64| {
        cells
            .iter()
            .find(|c| c.flows == flows && (c.rtt.as_secs_f64() * 1000.0).round() as u64 == rtt_ms)
            .expect("cell")
    };
    verdict(
        "fig8",
        "latency near bound at small RTT; at 200 ms RTT far above it (paper: 2x-9x) with very large variance (worst at 4 flows)",
        format!(
            "norm latency (8 flows): {:.2} @2ms -> {:.2} @200ms; stddev @ (4 flows,200ms) = {:.2} vs {:.2} @2ms",
            cell(8, 2).mean_normalized,
            cell(8, 200).mean_normalized,
            cell(4, 200).std_normalized,
            cell(4, 2).std_normalized
        ),
        registry::fig8(&cells),
    );
}
