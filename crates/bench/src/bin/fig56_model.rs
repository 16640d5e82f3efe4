//! Figures 5/6 and equations (1), (2) — the loss-detection model.
//!
//! During a loss event dropping `M` packets out of an RTT of arrivals from
//! `N` flows (`K` packets per flow per RTT):
//!
//!   L_rate = min(M, N)     (eq 1, Fig 5: evenly interleaved arrivals)
//!   L_win  = max(M/K, 1)   (eq 2, Fig 6: contiguous per-flow trunks)
//!
//! The table cross-validates both equations against a Monte-Carlo placement
//! simulation with a uniformly random burst offset.

use lossburst_bench::{cli, verdict};
use lossburst_core::model::DetectionRow;
use lossburst_core::registry;

fn main() {
    let args = cli::parse();
    let trials = if args.full { 20_000 } else { 4_000 };
    let (n, k) = (16u64, 50u64); // 16 flows, 50 packets per RTT each

    println!("# Detection model: N={n} flows, K={k} packets/flow/RTT, {trials} Monte-Carlo trials");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>11}",
        "M", "L_rate(eq1)", "L_rate(sim)", "L_win(eq2)", "L_win(sim)", "unfairness"
    );
    let rows: Vec<DetectionRow> = [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        .iter()
        .map(|&m| DetectionRow::compute(m, n, k, trials, args.seed))
        .collect();
    for row in &rows {
        println!(
            "{:>5} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>10.1}x",
            row.m,
            row.rate_analytic,
            row.rate_simulated,
            row.window_analytic,
            row.window_simulated,
            row.unfairness()
        );
    }
    let m32 = rows
        .iter()
        .find(|r| r.m == 32)
        .map_or(f64::NAN, |r| r.unfairness());

    verdict(
        "fig5/6 + eq(1),(2)",
        "L_rate = min(M,N) >> L_win = max(M/K,1): rate-based flows detect nearly every event",
        format!("Monte-Carlo matches both equations; at M=32 the asymmetry is {m32:.0}x"),
        registry::fig56(&rows),
    );
}
