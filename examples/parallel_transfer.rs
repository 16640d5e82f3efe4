//! Parallel bulk transfer (GridFTP / GFS style): move 64 MB over a shared
//! 100 Mbps bottleneck with k parallel TCP flows and watch the straggler
//! effect the paper's Fig 8 quantifies — then ask the Section 5 advisor
//! what to do about it.
//!
//! ```sh
//! cargo run --release --example parallel_transfer
//! ```

use lossburst::core::advisor::{advise, AppProfile};
use lossburst::core::impact::{try_parallel_once, try_theoretic_lower_bound};
use lossburst::netsim::time::SimDuration;

fn main() -> lossburst::core::error::Result<()> {
    let total = 64 * 1024 * 1024u64;
    let bound = try_theoretic_lower_bound(total, 100e6)?;
    println!("64 MB over 100 Mbps; theoretic lower bound {bound:.2} s\n");
    println!(
        "{:>6} {:>9} {:>12} {:>12}",
        "flows", "rtt(ms)", "latency(s)", "x bound"
    );
    for &rtt_ms in &[10u64, 50, 200] {
        for &flows in &[4usize, 16] {
            let rtt = SimDuration::from_millis(rtt_ms);
            let lat = try_parallel_once(total, flows, rtt, 100e6, 625, 42)?;
            println!("{flows:>6} {rtt_ms:>9} {lat:>12.2} {:>12.2}", lat / bound);
        }
    }

    println!(
        "\nAt 200 ms RTT the transfer takes several times the wire time: the\n\
         flows that happened to observe the bursty loss events halved their\n\
         rates (or timed out) and the barrier waits for them.\n"
    );

    // What does the paper say a designer should do?
    let profile = AppProfile {
        needs_predictable_latency: true,
        controlled_environment: false,
        short_flows_dominate: false,
        ..Default::default()
    };
    println!("Section 5 advisor for an uncontrolled, latency-sensitive app:");
    for rec in advise(&profile) {
        println!("  - {rec:?}: {}", rec.rationale());
    }
    Ok(())
}
