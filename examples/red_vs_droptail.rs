//! Router remedies: RED and persistent ECN versus DropTail.
//!
//! Section 3.3 blames DropTail for the sub-RTT loss clustering; Section 5
//! discusses RED ("perhaps RED should be deployed if one wants to eliminate
//! loss burstiness" — with a tuning caveat) and proposes the persistent-ECN
//! signal of reference [22]. This example measures all three on the same
//! workload.
//!
//! ```sh
//! cargo run --release --example red_vs_droptail
//! ```

use lossburst::analysis::burstiness;
use lossburst::analysis::intervals;
use lossburst::core::ecn::{ecn_vs_droptail, EcnConfig};
use lossburst::emu::testbed::{self, TestbedConfig};
use lossburst::netsim::prelude::*;

fn burstiness_under(disc: QueueDisc, label: &str) {
    let mut cfg = TestbedConfig::ns2_baseline(16, 312, 11);
    cfg.bottleneck_disc = disc;
    cfg.duration = SimDuration::from_secs(30);
    let res = testbed::run_streaming(&cfg);
    let iv = intervals::normalized_intervals(&res.loss_times, res.mean_rtt.as_secs_f64());
    let rep = burstiness::analyze(&iv);
    println!(
        "{label:<22} drops {:>6}  <0.01 RTT: {:>5.1}%  index of dispersion {:>7.1}  util {:>4.0}%",
        res.drops,
        rep.frac_below_001 * 100.0,
        rep.index_of_dispersion,
        res.utilization * 100.0
    );
}

fn main() {
    println!(
        "16 NewReno flows + noise on 100 Mbps, 30 s; loss-process burstiness by discipline:\n"
    );
    burstiness_under(QueueDisc::drop_tail(312), "DropTail");
    burstiness_under(QueueDisc::red(312), "RED (gentle, auto)");

    println!(
        "\nRED randomizes the drop decision, so losses spread out: the sub-RTT\n\
         cluster fraction and the dispersion index both fall — at the price of\n\
         parameters that the paper warns are hard to tune in general.\n"
    );

    println!("And the paper's own proposal, persistent ECN (one-RTT marking epoch):\n");
    let cmp = ecn_vs_droptail(&EcnConfig::default_setup(23));
    println!(
        "  DropTail:        {:>6} drops, per-episode signal coverage {:>4.0}%, util {:>4.0}%",
        cmp.droptail.drops,
        cmp.droptail.signal_coverage * 100.0,
        cmp.droptail.utilization * 100.0
    );
    println!(
        "  Persistent ECN:  {:>6} drops, per-episode signal coverage {:>4.0}%, util {:>4.0}%",
        cmp.persistent_ecn.drops,
        cmp.persistent_ecn.signal_coverage * 100.0,
        cmp.persistent_ecn.utilization * 100.0
    );
    println!(
        "\nThe one-RTT marking epoch reaches every flow (coverage -> 100%), so\n\
         congestion control becomes fair without dropping a single packet."
    );
}
