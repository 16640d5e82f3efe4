//! The impaired path, as a value.
//!
//! [`ImpairedPath`] is the dumbbell between the flow's two endpoints,
//! reduced to what a packet experiences on it. The lane offers every
//! packet its transport emits and gets back a [`Verdict`]:
//!
//! * **drop** — the `index`-th forward data arrival is dropped iff the
//!   [`LossPlan`] says so. Decisions are by arrival *index*, not time, so
//!   the same plan replayed by the simulated lanes' scripted bottleneck
//!   queues yields the same drop set. A drop is stamped with the instant
//!   the packet was offered, as the scripted queue stamps it;
//! * **delay** — FIFO serialization per direction (`size_bytes` at the
//!   bottleneck rate, from `max(busy_until, now)`: the expression of
//!   netsim's `Link::tx_duration`) plus the fixed one-way propagation
//!   delay, so delay-based machinery (BBR's bandwidth filter, RTT
//!   sampling) sees the path the simulator presents.
//!
//! Every forward verdict is appended to a byte ledger (`'1'` drop, `'0'`
//! pass): the ledger of any run is a prefix of the plan's.

use crate::plan::LossPlan;
use lossburst_netsim::packet::{Packet, PacketKind};
use lossburst_netsim::time::{SimDuration, SimTime};

/// The endpoint a packet leaves from, which is also its direction: data
/// leaves the sender (forward), ACKs and feedback leave the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The sending endpoint; its packets travel forward.
    Sender,
    /// The receiving endpoint; its packets travel in reverse.
    Receiver,
}

impl Side {
    /// The side `pkt` leaves from.
    pub(crate) fn of(pkt: &Packet) -> Side {
        match pkt.kind {
            PacketKind::Data => Side::Sender,
            PacketKind::Ack | PacketKind::Feedback => Side::Receiver,
        }
    }
}

/// What the path does with one offered packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The plan drops it.
    Drop,
    /// It reaches the far endpoint at this instant.
    DeliverAt(SimTime),
}

/// The emulated path and what it has observed so far.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ImpairedPath {
    plan: LossPlan,
    rate_bps: f64,
    one_way_delay: SimDuration,
    /// Per [`Side`]: the next instant that direction's link is free.
    busy_until: [SimTime; 2],
    /// Forward data packets offered.
    pub(crate) forward_arrivals: u64,
    /// Of those, how many the plan dropped.
    pub(crate) forward_drops: u64,
    /// Reverse (ack/feedback) packets carried.
    pub(crate) reverse_relayed: u64,
    /// Lane-timeline instants (seconds) of each drop.
    pub(crate) loss_times: Vec<f64>,
    /// Byte-per-verdict drop ledger (`'1'`/`'0'`).
    pub(crate) ledger: Vec<u8>,
}

impl ImpairedPath {
    /// A path replaying `plan`, serializing at `rate_bps` (which must be
    /// finite and positive) in both directions, `one_way_delay` each way.
    pub(crate) fn new(plan: LossPlan, rate_bps: f64, one_way_delay: SimDuration) -> ImpairedPath {
        ImpairedPath {
            plan,
            rate_bps,
            one_way_delay,
            busy_until: [SimTime::ZERO; 2],
            forward_arrivals: 0,
            forward_drops: 0,
            reverse_relayed: 0,
            loss_times: Vec::new(),
            ledger: Vec::new(),
        }
    }

    /// Offer `pkt` to the path at `now`.
    pub(crate) fn offer(&mut self, now: SimTime, pkt: &Packet) -> Verdict {
        let side = Side::of(pkt);
        match side {
            Side::Sender => {
                let dropped = self.plan.decide(self.forward_arrivals);
                self.forward_arrivals += 1;
                self.ledger.push(if dropped { b'1' } else { b'0' });
                if dropped {
                    self.forward_drops += 1;
                    self.loss_times.push(now.as_secs_f64());
                    return Verdict::Drop;
                }
            }
            Side::Receiver => self.reverse_relayed += 1,
        }
        // Serialization: the link transmits declared sizes back-to-back.
        let busy_until = &mut self.busy_until[side as usize];
        let tx = SimDuration::from_secs_f64(f64::from(pkt.size_bytes) * 8.0 / self.rate_bps);
        *busy_until = (*busy_until).max(now) + tx;
        Verdict::DeliverAt(*busy_until + self.one_way_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_analysis::gilbert::GilbertParams;
    use lossburst_netsim::packet::{FlowId, NodeId};

    /// 100 Mbit/s (a 1000-byte packet serializes in 80 µs), 200 µs each way.
    fn path(plan: LossPlan) -> ImpairedPath {
        ImpairedPath::new(plan, 100e6, SimDuration::from_micros(200))
    }

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, seq)
    }

    #[test]
    fn applies_the_plan_and_serializes_each_direction_fifo() {
        let plan = LossPlan {
            seed: 0,
            params: GilbertParams { p: 0.0, r: 1.0 },
            decisions: vec![false, true, false, true, false],
        };
        let mut path = path(plan);
        let at = SimTime::from_nanos(1_000);
        let us = |n| Verdict::DeliverAt(at + SimDuration::from_micros(n));
        // A burst offered at one instant: survivors leave back to back,
        // the dropped packets take no link time.
        let verdicts: Vec<Verdict> = (0..5).map(|i| path.offer(at, &data(i))).collect();
        assert_eq!(
            verdicts,
            [us(280), Verdict::Drop, us(360), Verdict::Drop, us(440)],
            "indices 1 and 3 dropped by plan"
        );
        // The reverse direction has its own link: 40 bytes, 3.2 µs.
        let ack = Packet::ack(FlowId(0), NodeId(1), NodeId(0), 40, 3);
        assert_eq!(
            path.offer(at, &ack),
            Verdict::DeliverAt(at + SimDuration::from_nanos(203_200))
        );
        assert_eq!(path.forward_arrivals, 5);
        assert_eq!(path.forward_drops, 2);
        assert_eq!(path.reverse_relayed, 1);
        assert_eq!(path.ledger, b"01010".to_vec());
        assert_eq!(path.loss_times, vec![at.as_secs_f64(); 2]);

        // An idle link starts serializing at the offer instant.
        let later = at + SimDuration::from_millis(1);
        assert_eq!(
            path.offer(later, &data(5)),
            Verdict::DeliverAt(later + SimDuration::from_micros(280))
        );
    }

    #[test]
    fn ledger_is_the_plan_prefix_whatever_the_timing() {
        let plan = LossPlan::gilbert(2006, GilbertParams { p: 0.1, r: 0.5 }, 64);
        let ledgers: Vec<Vec<u8>> = [1u64, 977]
            .iter()
            .map(|&spacing_ns| {
                let mut path = path(plan.clone());
                for i in 0..64u64 {
                    path.offer(SimTime::from_nanos(i * spacing_ns), &data(i));
                }
                path.ledger
            })
            .collect();
        assert_eq!(ledgers[0], ledgers[1]);
        assert_eq!(ledgers[0], plan.ledger_prefix(64));
    }
}
