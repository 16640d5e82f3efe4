//! The TCP receiver half: one cumulative acknowledgment per arriving
//! segment (duplicate ACKs for out-of-order arrivals), SACK blocks, and
//! ECN echo.

use crate::runset::RunSet;
use lossburst_netsim::packet::Packet;
use lossburst_netsim::time::SimTime;

/// Instruction to emit one acknowledgment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AckInfo {
    /// Cumulative acknowledgment (next expected sequence).
    pub ack: u64,
    /// Timestamp echo for the sender's RTT sample.
    pub(crate) echo: SimTime,
    /// ECN-echo flag.
    pub(crate) ecn_echo: bool,
    /// Up to three SACK blocks `[start, end)` describing out-of-order data
    /// held by the receiver (`(0,0)` = empty slot).
    pub sack: [(u64, u64); 3],
}

/// Receiver-side state for one TCP flow. It acknowledges every segment:
/// in-order ones advance the cumulative ACK, out-of-order ones repeat it
/// (the duplicate ACKs fast retransmit needs).
#[derive(Debug, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Sequences above `rcv_nxt` already received, as contiguous runs —
    /// which are exactly the SACK blocks to advertise.
    out_of_order: RunSet,
    sack_rotation: usize,
}

impl TcpReceiver {
    /// Next expected sequence number.
    #[inline]
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Process an arriving data segment; returns the ACK to emit.
    pub fn on_data(&mut self, pkt: &Packet) -> AckInfo {
        if pkt.seq == self.rcv_nxt {
            self.rcv_nxt += 1;
            // Consume any buffered continuation.
            if let Some(end) = self.out_of_order.take_run_at(self.rcv_nxt) {
                self.rcv_nxt = end;
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

    /// Up to three SACK blocks, RFC 2018 style: the block containing the
    /// most recently received segment first, then the remaining ranges in
    /// rotation — so over consecutive ACKs every range gets reported even
    /// when more than three holes exist.
    pub(crate) fn sack_blocks_for(&mut self, recent_seq: u64) -> [(u64, u64); 3] {
        let ranges = self.out_of_order.runs();
        let mut blocks = [(0u64, 0u64); 3];
        if ranges.is_empty() {
            return blocks;
        }
        let first = self.out_of_order.find(recent_seq).unwrap_or(0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_netsim::packet::{FlowId, NodeId};

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), 1040, seq)
    }

    #[test]
    fn in_order_stream_acks_cumulatively() {
        let mut rx = TcpReceiver::default();
        for seq in 0..5 {
            let ack = rx.on_data(&data(seq));
            assert_eq!(ack.ack, seq + 1);
        }
        assert_eq!(rx.rcv_nxt(), 5);
    }

    #[test]
    fn gap_generates_duplicate_acks() {
        let mut rx = TcpReceiver::default();
        rx.on_data(&data(0));
        // Packet 1 lost; 2, 3, 4 arrive.
        for seq in [2, 3, 4] {
            let ack = rx.on_data(&data(seq));
            assert_eq!(ack.ack, 1, "cumulative ack frozen at the hole");
        }
        // Retransmitted 1 arrives: ack jumps over the buffered segments.
        let ack = rx.on_data(&data(1));
        assert_eq!(ack.ack, 5);
    }

    #[test]
    fn duplicate_data_is_acked_but_not_advanced() {
        let mut rx = TcpReceiver::default();
        rx.on_data(&data(0));
        let ack = rx.on_data(&data(0));
        assert_eq!(ack.ack, 1);
        assert_eq!(rx.rcv_nxt(), 1);
    }

    #[test]
    fn ecn_mark_is_echoed() {
        let mut rx = TcpReceiver::default();
        let mut p = data(0);
        p.ecn_ce = true;
        let ack = rx.on_data(&p);
        assert!(ack.ecn_echo);
        let ack2 = rx.on_data(&data(1));
        assert!(!ack2.ecn_echo);
    }

    #[test]
    fn sack_blocks_describe_out_of_order_runs() {
        let mut rx = TcpReceiver::default();
        rx.on_data(&data(0)); // rcv_nxt = 1
                              // Holes at 1 and 4; runs {2,3} and {5}.
        rx.on_data(&data(2));
        rx.on_data(&data(3));
        rx.on_data(&data(5));
        let ack = rx.on_data(&data(7));
        assert_eq!(ack.ack, 1);
        // Most recent block (containing seq 7) first, per RFC 2018.
        assert_eq!(ack.sack[0], (7, 8));
        let rest: Vec<_> = ack.sack[1..].to_vec();
        assert!(rest.contains(&(2, 4)) && rest.contains(&(5, 6)), "{rest:?}");
    }

    #[test]
    fn sack_rotation_eventually_reports_every_range() {
        let mut rx = TcpReceiver::default();
        rx.on_data(&data(0)); // rcv_nxt = 1
                              // Six isolated out-of-order segments -> six ranges.
        for seq in [2u64, 4, 6, 8, 10, 12] {
            rx.on_data(&data(seq));
        }
        // Collect blocks over repeated duplicate arrivals.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let ack = rx.on_data(&data(2));
            for (a, b) in ack.sack.iter().copied() {
                if b > a {
                    seen.insert((a, b));
                }
            }
        }
        assert!(
            seen.len() >= 6,
            "rotation failed to cover all ranges: {seen:?}"
        );
    }

    #[test]
    fn sack_blocks_empty_when_in_order() {
        let mut rx = TcpReceiver::default();
        let ack = rx.on_data(&data(0));
        assert_eq!(ack.sack, [(0, 0); 3]);
    }

    #[test]
    fn echo_carries_sent_timestamp() {
        let mut rx = TcpReceiver::default();
        let mut p = data(0);
        p.sent_at = SimTime::from_nanos(123456);
        let ack = rx.on_data(&p);
        assert_eq!(ack.echo, SimTime::from_nanos(123456));
    }
}
