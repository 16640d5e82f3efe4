//! MapReduce-style all-to-all shuffle — the paper's future-work scenario
//! ("we plan to simulate more complicated scenarios such as a complete
//! graph topology in MapReduce").
//!
//! `n` workers hang off one switch; every worker sends a chunk to every
//! other worker. All of a receiver's inbound flows contend on its single
//! access link (incast), so the shuffle finishes when the unluckiest
//! receiver drains — and with bursty DropTail losses, which receiver that
//! is varies run to run. Delay-based senders (the paper's reference [23])
//! avoid the loss lottery entirely.
//!
//! ```sh
//! cargo run --release --example mapreduce_shuffle
//! ```

use lossburst::netsim::prelude::*;
use lossburst::transport::prelude::*;

fn shuffle(n: usize, chunk_bytes: u64, delay_based: bool, seed: u64) -> (f64, u64) {
    let mut b = SimBuilder::new(seed);
    let star = build_star(&mut b, n, 1e9, SimDuration::from_micros(50), 128);
    let mut stagger = Sampler::child_rng(seed, 1);
    let mut flows = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (s, r) = (star.hosts[i], star.hosts[j]);
            let start = SimTime::ZERO
                + Sampler::uniform_duration(
                    &mut stagger,
                    SimDuration::ZERO,
                    SimDuration::from_millis(1),
                );
            let flow: Box<dyn Transport> = if delay_based {
                Box::new(
                    Sender::fast(s, r, TcpConfig::default(), 4.0, 0.5)
                        .with_limit_bytes(chunk_bytes),
                )
            } else {
                Box::new(Sender::newreno(s, r, TcpConfig::default()).with_limit_bytes(chunk_bytes))
            };
            flows.push(b.flow(start, flow));
        }
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
    let finish = flows
        .iter()
        .map(|&f| sim.completed_at(f).map_or(120.0, |t| t.as_secs_f64()))
        .fold(0.0f64, f64::max);
    (finish, sim.total_drops())
}

fn main() {
    let n = 8;
    let chunk = 4 * 1024 * 1024u64; // 4 MB per (src,dst) pair
                                    // Ideal: each receiver drains (n-1)*chunk over its 1 Gbps access link.
    let ideal = (n as u64 - 1) as f64 * chunk as f64 * 8.0 * 1.04 / 1e9;
    println!(
        "{n} workers, {} MB per pair ({} flows total); ideal shuffle time {ideal:.2} s\n",
        chunk / (1024 * 1024),
        n * (n - 1)
    );

    println!(
        "{:>18} {:>6} {:>12} {:>9} {:>8}",
        "sender", "seed", "shuffle(s)", "x ideal", "drops"
    );
    for seed in [1u64, 2, 3] {
        let (t, drops) = shuffle(n, chunk, false, seed);
        println!(
            "{:>18} {seed:>6} {t:>12.2} {:>9.2} {drops:>8}",
            "NewReno (loss)",
            t / ideal
        );
    }
    for seed in [1u64, 2, 3] {
        let (t, drops) = shuffle(n, chunk, true, seed);
        println!(
            "{:>18} {seed:>6} {t:>12.2} {:>9.2} {drops:>8}",
            "FAST (delay)",
            t / ideal
        );
    }

    println!(
        "\nWith loss-based senders the incast losses at the receivers' access\n\
         links are bursty, so stragglers appear and the completion time is both\n\
         inflated and variable; the delay-based sender observes the queue\n\
         directly and converges without the lottery."
    );
}
