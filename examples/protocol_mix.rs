//! "Rate-based and window-based implementations should not mix."
//!
//! This example reproduces Section 5's first lesson twice over:
//!
//! 1. TFRC (rate-based, as used for UDP media) sharing a bottleneck with
//!    TCP NewReno (window-based) — TFRC is starved;
//! 2. the same mix with NewReno replaced by TCP Pacing — the paper's
//!    recommended remedy — which restores a reasonable share.
//!
//! ```sh
//! cargo run --release --example protocol_mix
//! ```

use lossburst::netsim::prelude::*;
use lossburst::transport::prelude::*;

fn run_mix(paced_tcp: bool) -> (f64, f64) {
    let rtt = SimDuration::from_millis(50);
    let mut b = SimBuilder::new(5).trace(TraceConfig::all());
    let cfg = DumbbellConfig {
        pairs: 8,
        bottleneck_bps: 50e6,
        access_bps: 1e9,
        bottleneck_disc: QueueDisc::drop_tail(312),
        access_buffer_pkts: 10_000,
        rtt: RttAssignment::Fixed(rtt),
    };
    let db = build_dumbbell(&mut b, &cfg);
    let horizon = SimDuration::from_secs(40);

    // 4 TFRC flows and 4 TCP flows, interleaved.
    let mut tfrc_ids = Vec::new();
    let mut tcp_ids = Vec::new();
    for i in 0..8 {
        let (s, r) = (db.senders[i], db.receivers[i]);
        let start = SimTime::ZERO + SimDuration::from_millis(i as u64 * 20);
        if i % 2 == 0 {
            tfrc_ids.push(b.flow(start, Box::new(TfrcSender::new(s, r, 1000, rtt))));
        } else {
            let tcp: Box<dyn Transport> = if paced_tcp {
                Box::new(Sender::pacing(s, r, TcpConfig::default(), rtt))
            } else {
                Box::new(Sender::newreno(s, r, TcpConfig::default()))
            };
            tcp_ids.push(b.flow(start, tcp));
        }
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + horizon);

    let secs = horizon.as_secs_f64();
    let mbps = |bytes: u64| bytes as f64 * 8.0 / secs / 1e6;
    let tfrc = tfrc_ids
        .iter()
        .map(|&h| sim.flow(h).progress().bytes_delivered);
    let tcp = tcp_ids
        .iter()
        .map(|&h| sim.flow(h).progress().bytes_delivered);
    (mbps(tfrc.sum()), mbps(tcp.sum()))
}

fn main() {
    println!("4 TFRC + 4 TCP flows sharing 50 Mbps, 50 ms RTT, 40 s runs\n");

    let (tfrc, tcp) = run_mix(false);
    println!("vs window-based TCP NewReno:");
    println!("  TFRC aggregate    {tfrc:6.1} Mbps");
    println!("  NewReno aggregate {tcp:6.1} Mbps");
    println!(
        "  TFRC share of the pair: {:.0}%\n",
        100.0 * tfrc / (tfrc + tcp)
    );

    let (tfrc_p, tcp_p) = run_mix(true);
    println!("vs rate-based TCP Pacing (the paper's remedy):");
    println!("  TFRC aggregate    {tfrc_p:6.1} Mbps");
    println!("  Pacing aggregate  {tcp_p:6.1} Mbps");
    println!(
        "  TFRC share of the pair: {:.0}%\n",
        100.0 * tfrc_p / (tfrc_p + tcp_p)
    );

    println!(
        "Against bursty window-based TCP, the evenly-spaced TFRC packets see\n\
         nearly every loss event and the equation throttles the flow. With both\n\
         classes rate-based, the loss events are shared and so is the link."
    );
}
