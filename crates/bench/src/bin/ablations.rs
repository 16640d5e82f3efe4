//! Ablation sweeps behind the paper's robustness claims:
//!
//! 1. buffer size cannot remove sub-RTT loss clustering (§4.1);
//! 2. neither can multiplexing level (§4.1, citing Jiang & Dovrolis);
//! 3. slow start of short flows is an independent burstiness source (§3.3);
//! 4. RED de-bursts the loss process but its parameters are touchy (§5);
//! 5. it survives a path that crosses several congested hops, where the
//!    paper measured a single bottleneck (parking-lot topology);
//! 6. the Fig 8 straggler problem under different recovery mechanics
//!    (NewReno vs SACK vs delay-based, and the minimum RTO).

use lossburst_bench::{cli, verdict};
use lossburst_core::ablation::*;
use lossburst_core::impact::predictability;
use lossburst_emu::clock::clock_ablation;
use lossburst_emu::testbed::{self, TestbedConfig};
use lossburst_netsim::time::SimDuration;
use lossburst_transport::cc::CcAlgorithm;

fn print_rows(title: &str, rows: &[BurstinessRow]) {
    println!("\n## {title}");
    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>6}",
        "variant", "losses", "<0.01 RTT", "IDC", "util"
    );
    for r in rows {
        println!(
            "{:<28} {:>8} {:>11.1}% {:>10.1} {:>5.0}%",
            r.label,
            r.losses,
            r.frac_below_001 * 100.0,
            r.index_of_dispersion,
            r.utilization * 100.0
        );
    }
}

fn main() {
    let args = cli::parse();
    let dur = if args.full {
        SimDuration::from_secs(30)
    } else {
        SimDuration::from_secs(12)
    };

    let buffers = buffer_sweep(dur, args.seed);
    print_rows("Buffer sweep (16 flows, DropTail)", &buffers);

    let flows = flow_sweep(dur, args.seed ^ 1);
    print_rows("Flow-count sweep (0.25 BDP buffer)", &flows);

    let sources = source_decomposition(dur, args.seed ^ 2);
    print_rows("Burstiness sources (Section 3.3)", &sources);

    let red = red_sensitivity(dur, args.seed ^ 3);
    print_rows("RED parameter sensitivity", &red);

    let hops = multi_bottleneck(dur, args.seed ^ 5);
    print_rows("Multi-bottleneck paths (parking lot)", &hops);

    // Clock-resolution ablation: re-record one NS-2 trace under coarser
    // clocks (the Fig 2 -> Fig 3 methodology difference, isolated).
    println!("\n## Recording-clock resolution (one 16-flow trace re-recorded)");
    let mut tb = TestbedConfig::ns2_baseline(16, 312, args.seed ^ 4);
    tb.duration = dur;
    let res = testbed::run_streaming(&tb);
    let rows = clock_ablation(
        &res.loss_times,
        res.mean_rtt.as_secs_f64(),
        &[
            SimDuration::ZERO,
            SimDuration::from_micros(100),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        ],
    );
    println!(
        "{:<12} {:>14} {:>12}",
        "clock tick", "zero intervals", "<0.01 RTT"
    );
    for r in &rows {
        println!(
            "{:<12} {:>13.1}% {:>11.1}%",
            format!("{:?}", r.tick),
            r.zero_fraction * 100.0,
            r.frac_below_001 * 100.0
        );
    }

    println!("\n## Straggler mechanics (64 MB over 4 flows, 200 ms RTT)");
    println!(
        "{:<22} {:>9} {:>10} {:>9}",
        "sender", "min RTO", "mean (s)", "stddev"
    );
    let seeds: Vec<u64> = (0..if args.full { 6 } else { 3 })
        .map(|i| args.seed + i)
        .collect();
    let stragglers =
        straggler_ablation(64 * 1024 * 1024, 4, &seeds).expect("4 flows is a valid cell");
    for r in &stragglers {
        println!(
            "{:<22} {:>8.1}s {:>10.2} {:>9.2}",
            format!("{:?}", r.sender),
            r.min_rto.as_secs_f64(),
            r.mean,
            r.stddev
        );
    }

    // Predictability (Section 4.2 / lesson 2): completion dispersion of 8
    // parallel 8 MB transfers at 200 ms RTT, window-based vs rate-based.
    println!("\n## Predictability (8 x 8 MB at 200 ms RTT, 3 seeds)");
    println!(
        "{:<22} {:>12} {:>14}",
        "sender", "mean (s)", "completion CV"
    );
    for paced in [false, true] {
        let runs: Vec<_> = (0..3)
            .map(|s| {
                predictability(
                    8,
                    paced,
                    8 * 1024 * 1024,
                    SimDuration::from_millis(200),
                    args.seed + s,
                )
            })
            .collect();
        let mean = runs.iter().map(|r| r.mean_completion).sum::<f64>() / runs.len() as f64;
        let cv = runs.iter().map(|r| r.completion_cv).sum::<f64>() / runs.len() as f64;
        println!(
            "{:<22} {:>12.1} {:>14.3}",
            if paced {
                "TCP Pacing (rate)"
            } else {
                "NewReno (window)"
            },
            mean,
            cv
        );
    }

    let min_cluster = buffers
        .iter()
        .chain(flows.iter())
        .map(|r| r.frac_below_001)
        .fold(f64::INFINITY, f64::min);
    let red_best = red
        .iter()
        .skip(1)
        .map(|r| r.frac_below_001)
        .fold(f64::INFINITY, f64::min);
    let delay_row = stragglers
        .iter()
        .find(|r| r.sender == CcAlgorithm::Fast)
        .unwrap();
    let newreno_row = stragglers
        .iter()
        .find(|r| r.sender == CcAlgorithm::NewReno && r.min_rto == SimDuration::from_secs(1))
        .unwrap();
    verdict(
        "ablations",
        "burstiness survives buffer/multiplexing sweeps; RED reduces it; non-loss signals fix the stragglers",
        format!(
            "worst-case clustering across sweeps still {:.0}%; best RED variant {:.0}%; delay-based stragglers {:.1}s vs NewReno {:.1}s",
            min_cluster * 100.0,
            red_best * 100.0,
            delay_row.mean,
            newreno_row.mean
        ),
        min_cluster > 0.5 && red_best < min_cluster && delay_row.mean < newreno_row.mean,
    );
}
