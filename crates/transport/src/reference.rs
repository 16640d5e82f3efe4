//! Test-only reference models: the per-sequence `BTreeSet` scoreboard and
//! reassembly buffer that [`crate::runset::RunSet`] replaced, kept
//! line-for-line as the oracle the run-length versions are checked against
//! on generated arrival scripts.

use crate::receiver::{AckInfo, TcpReceiver};
use crate::sender::SackState;
use lossburst_netsim::packet::{FlowId, NodeId, Packet};
use lossburst_netsim::time::SimTime;
use lossburst_testkit::sweep::{sweep, RngExt, SmallRng};
use std::collections::BTreeSet;

/// [`SackState`] over one `BTreeSet` entry per SACKed sequence.
struct SetScoreboard {
    sacked: BTreeSet<u64>,
    recovery_point: Option<u64>,
    rtx_next: u64,
}

impl SetScoreboard {
    fn new() -> SetScoreboard {
        SetScoreboard {
            sacked: BTreeSet::new(),
            recovery_point: None,
            rtx_next: 0,
        }
    }

    fn pipe(&self, next_seq: u64, high_ack: u64) -> u64 {
        let outstanding = next_seq.saturating_sub(high_ack);
        let sacked = self.sacked.len() as u64;
        let lost = match self.sacked.iter().next_back() {
            Some(&highest) if highest >= high_ack + 3 => {
                let end = highest - 2;
                let start = self.rtx_next.max(high_ack);
                if end > start {
                    let total = end - start;
                    let sacked_in = self.sacked.range(start..end).count() as u64;
                    total - sacked_in
                } else {
                    0
                }
            }
            _ => 0,
        };
        outstanding.saturating_sub(sacked).saturating_sub(lost)
    }

    fn next_hole(&self, high_ack: u64) -> Option<u64> {
        let end = self.recovery_point?;
        let mut s = self.rtx_next.max(high_ack);
        while s < end {
            if !self.sacked.contains(&s) {
                return Some(s);
            }
            s += 1;
        }
        None
    }

    fn absorb(&mut self, blocks: impl Iterator<Item = (u64, u64)>, floor: u64) -> bool {
        let mut new_sack_info = false;
        for (a, b) in blocks {
            for s in a..b {
                if s >= floor && self.sacked.insert(s) {
                    new_sack_info = true;
                }
            }
        }
        new_sack_info
    }

    fn on_cumulative_ack(&mut self, high_ack: u64) {
        self.rtx_next = self.rtx_next.max(high_ack);
        self.sacked = self.sacked.split_off(&high_ack);
    }
}

/// [`TcpReceiver`] over one `BTreeSet` entry per buffered sequence,
/// re-deriving the ranges from scratch for every ACK.
#[derive(Default)]
struct SetReceiver {
    rcv_nxt: u64,
    out_of_order: BTreeSet<u64>,
    sack_rotation: usize,
}

impl SetReceiver {
    fn on_data(&mut self, pkt: &Packet) -> AckInfo {
        if pkt.seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            while self.out_of_order.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
            }
        } else if pkt.seq > self.rcv_nxt {
            self.out_of_order.insert(pkt.seq);
        }
        AckInfo {
            ack: self.rcv_nxt,
            echo: pkt.sent_at,
            ecn_echo: pkt.ecn_ce,
            sack: self.sack_blocks_for(pkt.seq),
        }
    }

    fn ooo_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges = Vec::new();
        let mut iter = self.out_of_order.iter().copied().peekable();
        while let Some(start) = iter.next() {
            let mut end = start + 1;
            while iter.peek() == Some(&end) {
                iter.next();
                end += 1;
            }
            ranges.push((start, end));
        }
        ranges
    }

    fn sack_blocks_for(&mut self, recent_seq: u64) -> [(u64, u64); 3] {
        let ranges = self.ooo_ranges();
        let mut blocks = [(0u64, 0u64); 3];
        if ranges.is_empty() {
            return blocks;
        }
        let first = ranges
            .iter()
            .position(|&(a, b)| recent_seq >= a && recent_seq < b)
            .unwrap_or(0);
        blocks[0] = ranges[first];
        let mut n = 1;
        for k in 0..ranges.len() {
            if n >= 3 {
                break;
            }
            let idx = (first + 1 + k + self.sack_rotation) % ranges.len();
            if idx == first || blocks[..n].contains(&ranges[idx]) {
                continue;
            }
            blocks[n] = ranges[idx];
            n += 1;
        }
        self.sack_rotation = self.sack_rotation.wrapping_add(1) % ranges.len().max(1);
        blocks
    }
}

/// Arrival order of `n` sequences sent back to back over a channel with
/// Gilbert-style loss bursts, retransmissions an "RTT" later (a third of
/// them lost again, so some holes outlive several rounds), reordering
/// jitter and duplicates.
fn arrival_script(n: u64, gen: &mut SmallRng) -> Vec<u64> {
    let mut arrivals: Vec<(u64, u64)> = Vec::new();
    let mut bad = false;
    for seq in 0..n {
        bad = gen.random::<f64>() < if bad { 0.6 } else { 0.08 };
        let mut at = seq * 10;
        let mut lost = bad;
        while lost {
            at += gen.random_range(200..3_000u64);
            lost = gen.random::<f64>() < 0.3;
        }
        if gen.random::<f64>() < 0.1 {
            at += gen.random_range(0..100u64);
        }
        arrivals.push((at, seq));
        if gen.random::<f64>() < 0.05 {
            arrivals.push((at + gen.random_range(0..500u64), seq));
        }
    }
    arrivals.sort_unstable();
    arrivals.into_iter().map(|(_, seq)| seq).collect()
}

fn data(seq: u64, nth: u64) -> Packet {
    let mut p = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1040, seq);
    p.sent_at = SimTime::from_nanos(nth);
    p.ecn_ce = nth.is_multiple_of(7);
    p
}

/// Every ACK the run-length receiver emits equals the per-sequence
/// receiver's, and the run-length scoreboard fed that ACK stream agrees
/// with the per-sequence scoreboard on `new_sack_info`, `pipe` and
/// `next_hole` after every step.
#[test]
fn receiver_and_scoreboard_match_the_btreeset_models() {
    let mut most_ranges = 0;
    let mut holes_repaired = 0u64;
    sweep(0x5AC4, 120, |case, gen| {
        let n = gen.random_range(50..700u64);
        let mut rx = TcpReceiver::default();
        let mut rx_model = SetReceiver::default();
        let mut sb = SackState::new();
        let mut sb_model = SetScoreboard::new();
        // The sender-side context the scoreboard lives in: everything has
        // been sent once; `next_seq` drops back on a simulated RTO.
        let mut high_ack = 0u64;
        let mut next_seq = n;

        for (nth, seq) in arrival_script(n, gen).into_iter().enumerate() {
            let pkt = data(seq, nth as u64);
            let ack = rx.on_data(&pkt);
            assert_eq!(
                ack,
                rx_model.on_data(&pkt),
                "case {case}: ACK for arrival #{nth} (seq {seq})"
            );
            assert_eq!(rx.rcv_nxt(), rx_model.rcv_nxt);
            most_ranges = most_ranges.max(rx_model.ooo_ranges().len());

            let blocks = || ack.sack.into_iter().filter(|&(a, b)| b > a);
            let floor = high_ack.max(ack.ack);
            assert_eq!(
                sb.absorb(blocks(), floor, n),
                sb_model.absorb(blocks(), floor),
                "case {case}: new_sack_info at arrival #{nth}"
            );
            if ack.ack > high_ack {
                high_ack = ack.ack;
                next_seq = next_seq.max(high_ack);
                sb.on_cumulative_ack(high_ack);
                sb_model.on_cumulative_ack(high_ack);
                if sb.recovery_point.is_some_and(|rp| high_ack >= rp) {
                    sb.recovery_point = None;
                    sb_model.recovery_point = None;
                }
            }
            // Recovery entry, hole-by-hole repair, and RTO pull-back, on
            // both boards alike.
            match gen.random_range(0..10u32) {
                0 if sb.recovery_point.is_none() => {
                    (sb.recovery_point, sb.rtx_next) = (Some(next_seq), high_ack);
                    (sb_model.recovery_point, sb_model.rtx_next) = (Some(next_seq), high_ack);
                }
                1 => {
                    (sb.recovery_point, sb_model.recovery_point) = (None, None);
                    next_seq = high_ack;
                }
                2..=5 => {
                    if let Some(hole) = sb.next_hole(high_ack) {
                        (sb.rtx_next, sb_model.rtx_next) = (hole + 1, hole + 1);
                        holes_repaired += 1;
                    }
                }
                _ => next_seq = (next_seq + gen.random_range(0..20u64)).min(n),
            }

            assert_eq!(sb.sacked.len(), sb_model.sacked.len() as u64);
            assert_eq!(
                sb.next_hole(high_ack),
                sb_model.next_hole(high_ack),
                "case {case}: next_hole at arrival #{nth}"
            );
            for ns in [next_seq, n, high_ack, gen.random_range(high_ack..=n)] {
                assert_eq!(
                    sb.pipe(ns, high_ack),
                    sb_model.pipe(ns, high_ack),
                    "case {case}: pipe({ns}, {high_ack}) at arrival #{nth}"
                );
            }
        }
        assert_eq!(rx.rcv_nxt(), n, "case {case}: every sequence arrives");
        assert_eq!(high_ack, n, "case {case}: the last ACK covers everything");
        assert_eq!(sb.sacked.len(), 0);
    });
    assert!(most_ranges > 3, "no script made the SACK rotation wrap");
    assert!(holes_repaired > 100, "recovery path barely exercised");
}
