//! "Rate-based and window-based implementations should not mix."
//!
//! Section 5's first lesson, run through the product's
//! `core::impact::protocol_mix`: 4 TFRC flows (rate-based, as used for UDP
//! media) share a bottleneck with 4 TCP flows, first TCP NewReno
//! (window-based), then TCP Pacing, the paper's recommended remedy.
//!
//! Over seeds 1–10 at these 40 s runs the paper's claim holds on 9 of 10:
//! TFRC takes less than half the link against NewReno (median 46 %, range
//! 40–52 %), more against Pacing (median 51 %, range 46–53 %, within 4
//! points of fair on all 10). The unit test
//! `tfrc_fares_better_against_pacing_than_against_newreno` asserts that
//! rule at 25 s. This example's seed, 5, is the one exception: TFRC takes
//! 52 % against NewReno and 48 % against Pacing.
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
