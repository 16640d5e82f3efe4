//! Bit-level pin of the fairness matrix's most expensive cell.
//!
//! NewReno × BBR on a droptail bottleneck without noise is the cell where
//! a lost retransmission parks the cumulative ACK while BBR keeps sending,
//! so the SACK scoreboard and the receiver's reassembly buffer hold
//! thousands of sequences for seconds at a time. Any change to the
//! scoreboard's arithmetic (pipe, hole order, SACK-block rotation) moves
//! these bits; a change that only makes it faster does not.

use lossburst_core::fairness::{fairness_cell, Discipline, FairnessConfig};
use lossburst_netsim::time::SimDuration;
use lossburst_transport::cc::CcAlgorithm;

/// `(jain, goodput_a_mbps, goodput_b_mbps, utilization)` as `f64::to_bits`
/// (0.3291, 0.1408 Mbps, 7.0612 Mbps, 0.9536) and the bottleneck's drops.
const PINNED: ([u64; 4], u64) = (
    [
        0x3fd5_1006_cc8e_45cb,
        0x3fc2_05bc_01a3_6e2f,
        0x401c_3eab_367a_0f90,
        0x3fee_8386_31dd_c89e,
    ],
    8130,
);

/// A droptail cell without on-off noise draws nothing from the RNG, so
/// every seed must land on the same bits.
const SEEDS: [u64; 3] = [1, 2006, 42];

#[test]
fn newreno_vs_bbr_droptail_cell_is_pinned_to_the_bit() {
    for seed in SEEDS {
        let mut cfg = FairnessConfig::full(seed);
        cfg.duration = SimDuration::from_secs(10);
        let c = fairness_cell(
            &cfg,
            CcAlgorithm::NewReno,
            CcAlgorithm::Bbr,
            Discipline::DropTail,
            0.0,
            seed,
        );
        let got = (
            [c.jain, c.goodput_a_mbps, c.goodput_b_mbps, c.utilization].map(f64::to_bits),
            c.drops,
        );
        assert_eq!(got, PINNED, "seed {seed}: cell moved to {c:?} ({got:#x?})");
    }
}
