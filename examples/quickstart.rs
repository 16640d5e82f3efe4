//! Quickstart: run the paper's Fig 1 testbed once, measure the timing of
//! every packet drop at the bottleneck router, and see the headline result
//! — packet loss is extremely bursty at sub-RTT timescale.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lossburst::analysis::report::{ascii_pdf_plot, burstiness_summary};
use lossburst::core::campaign::LossStudy;
use lossburst::emu::testbed::{self, TestbedConfig};
use lossburst::netsim::time::SimDuration;

fn main() {
    // The paper's NS-2 baseline: 100 Mbps DropTail bottleneck, 1 Gbps
    // access, 8 NewReno flows with RTTs drawn from 2–200 ms, 50 on-off
    // noise flows carrying 10% of capacity.
    let mut cfg = TestbedConfig::ns2_baseline(
        /*tcp_flows=*/ 8, /*buffer=*/ 312, /*seed=*/ 7,
    );
    cfg.duration = SimDuration::from_secs(30);

    println!("running 30 s of the Fig 1 dumbbell (8 TCP flows + noise)...");
    let res = testbed::run_streaming(&cfg);
    println!(
        "bottleneck: {} drops, utilization {:.0}%, mean flow RTT {:.0} ms",
        res.drops,
        res.utilization * 100.0,
        res.mean_rtt.as_secs_f64() * 1000.0
    );
    println!("\nper-flow outcome (the loss lottery in action):");
    println!(
        "{:>6} {:>10} {:>12} {:>8} {:>12}",
        "flow", "MB acked", "pkts sent", "rtx", "loss events"
    );
    for (i, p) in res.tcp_progress.iter().enumerate() {
        println!(
            "{:>6} {:>10.1} {:>12} {:>8} {:>12}",
            i,
            p.bytes_delivered as f64 / 1e6,
            p.packets_sent,
            p.retransmits,
            p.loss_events
        );
    }

    // The paper's analysis pipeline: normalize inter-loss intervals by the
    // RTT, bin at 0.02 RTT, compare against Poisson at the same rate.
    let intervals = lossburst::analysis::intervals::normalized_intervals(
        &res.loss_times,
        res.mean_rtt.as_secs_f64(),
    );
    let study = LossStudy::from_intervals("quickstart", intervals);

    println!("\n{}", burstiness_summary("quickstart", &study.report));
    println!("\nPDF of inter-loss intervals (log scale), vs Poisson at the same rate:\n");
    print!(
        "{}",
        ascii_pdf_plot(&study.histogram, &study.poisson_pdf, 20)
    );
    println!(
        "\nThe '*' mass piled on the first rows IS the paper: almost every drop\n\
         happens within a hundredth of an RTT of another drop, while a Poisson\n\
         process ('o') would spread them out."
    );
}
