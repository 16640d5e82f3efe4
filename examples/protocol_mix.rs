//! "Rate-based and window-based implementations should not mix."
//!
//! Section 5's first lesson, run through the product's
//! `core::impact::protocol_mix`: 4 TFRC flows (rate-based, as used for UDP
//! media) share a bottleneck with 4 TCP flows, first TCP NewReno
//! (window-based), then TCP Pacing, the paper's recommended remedy.
//!
//! At this seed TFRC takes 52 % of the link against NewReno and 48 %
//! against Pacing: the reverse of the paper's claim that TFRC is starved
//! by window-based TCP. Seed 2006 gives 46 % / 53 %. The row is an open
//! finding until it is replicated over seeds (ROADMAP item 7).
//!
//! ```sh
//! cargo run --release --example protocol_mix
//! ```

use lossburst::core::impact::{protocol_mix, MixConfig};

fn main() {
    println!("4 TFRC + 4 TCP flows sharing 50 Mbps, 50 ms RTT, 40 s runs\n");
    for (paced, tcp) in [(false, "NewReno"), (true, "Pacing")] {
        let mix = protocol_mix(&MixConfig::default_setup(paced, 5));
        println!("vs TCP {tcp}:");
        println!("  {:<18}{:6.1} Mbps", "TFRC aggregate", mix.tfrc_mbps);
        println!(
            "  {:<18}{:6.1} Mbps",
            format!("{tcp} aggregate"),
            mix.tcp_mbps
        );
        println!("  TFRC share of the pair: {:.0}%\n", 100.0 * mix.tfrc_share);
    }
    println!(
        "The paper expects TFRC to under-share against bursty window-based TCP\n\
         and to recover a near-fair split against Pacing; compare the shares\n\
         above with that claim."
    );
}
