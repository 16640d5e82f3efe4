//! Constant-bit-rate UDP source — the paper's Internet measurement probe.
//!
//! The paper's key methodological move is to probe paths with CBR traffic
//! instead of TCP, so that the measured loss pattern is not contaminated by
//! TCP's own sub-RTT burstiness. The receiver half detects sequence gaps
//! as packets arrive ([`Cbr::streaming`]); post-processing reconstructs
//! when each lost packet was sent (its nominal send time is known exactly
//! because the source is constant-rate).

use crate::timer::{token, untoken, TimerKind};
use lossburst_netsim::event::TimerToken;
use lossburst_netsim::iface::{Ctx, FlowProgress, Transport};
use lossburst_netsim::packet::{NodeId, Packet, PacketKind};
use lossburst_netsim::time::{SimDuration, SimTime};
use std::any::Any;

/// A CBR flow: fixed-size packets at fixed intervals.
pub struct Cbr {
    src: NodeId,
    dst: NodeId,
    packet_bytes: u32,
    interval: SimDuration,
    /// Stop after this many packets (None = run until the horizon).
    limit: Option<u64>,

    seq: u64,
    send_gen: u64,
    first_send: Option<SimTime>,

    received: u64,

    // Streaming gap detection (see [`Cbr::streaming`]).
    track_gaps: bool,
    next_expected: u64,
    gap_lost: Vec<u64>,
}

impl Cbr {
    /// A CBR source of `rate_bps` using `packet_bytes`-sized packets.
    pub fn new(src: NodeId, dst: NodeId, packet_bytes: u32, rate_bps: f64) -> Cbr {
        assert!(rate_bps > 0.0, "CBR rate must be positive");
        let interval = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
        Cbr::with_interval(src, dst, packet_bytes, interval)
    }

    /// A CBR source emitting one packet every `interval`.
    pub fn with_interval(
        src: NodeId,
        dst: NodeId,
        packet_bytes: u32,
        interval: SimDuration,
    ) -> Cbr {
        assert!(
            interval > SimDuration::ZERO,
            "CBR interval must be positive"
        );
        Cbr {
            src,
            dst,
            packet_bytes,
            interval,
            limit: None,
            seq: 0,
            send_gen: 0,
            first_send: None,
            received: 0,
            track_gaps: false,
            next_expected: 0,
            gap_lost: Vec::new(),
        }
    }

    /// Stop after `n` packets.
    pub fn with_limit(mut self, n: u64) -> Cbr {
        self.limit = Some(n);
        self
    }

    /// Probe receiver mode (noise flows don't need it): detect sequence
    /// gaps online. Delivery over this simulator's FIFO queues is in
    /// sequence order, so each arrival whose sequence number jumps past
    /// `next_expected` reveals the skipped packets as losses, in increasing
    /// order. Receiver state is O(losses), not O(packets received).
    pub fn streaming(mut self) -> Cbr {
        self.track_gaps = true;
        self
    }

    /// The inter-packet interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }

    /// Packets received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Sequence numbers sent but never received — the lost packets,
    /// assuming the run has fully drained: the gaps a [`Cbr::streaming`]
    /// receiver detected online plus the tail of packets never seen
    /// (`next_expected..sent`), in increasing order. Empty for a receiver
    /// that is not streaming.
    pub fn lost_seqs(&self) -> Vec<u64> {
        if !self.track_gaps {
            return Vec::new();
        }
        self.gap_lost
            .iter()
            .copied()
            .chain(self.next_expected..self.seq)
            .collect()
    }

    /// Bytes committed to the receiver-side gap list (its capacity).
    pub fn receiver_buffer_bytes(&self) -> usize {
        self.gap_lost.capacity() * std::mem::size_of::<u64>()
    }

    /// The nominal emission time of packet `seq` (CBR makes this exact).
    pub fn nominal_send_time(&self, seq: u64) -> Option<SimTime> {
        self.first_send.map(|t0| t0 + self.interval * seq)
    }

    fn fire(&mut self, ctx: &mut Ctx) {
        if let Some(l) = self.limit {
            if self.seq >= l {
                return;
            }
        }
        if self.first_send.is_none() {
            self.first_send = Some(ctx.now);
        }
        let pkt = Packet::data(ctx.flow, self.src, self.dst, self.packet_bytes, self.seq);
        ctx.send_from(self.src, pkt);
        self.seq += 1;
        self.send_gen += 1;
        ctx.set_timer(self.interval, token(TimerKind::Send, self.send_gen));
    }
}

impl Transport for Cbr {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.fire(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
        if pkt.kind == PacketKind::Data {
            self.received += 1;
            if self.track_gaps && pkt.seq >= self.next_expected {
                for missed in self.next_expected..pkt.seq {
                    self.gap_lost.push(missed);
                }
                self.next_expected = pkt.seq + 1;
            }
        }
    }

    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx) {
        if let (Some(TimerKind::Send), generation) = untoken(t) {
            if generation == self.send_gen {
                self.fire(ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        // A probe over a lossy path can never confirm completion (losses are
        // the point); runs are bounded by the simulation horizon instead.
        false
    }

    fn progress(&self) -> FlowProgress {
        FlowProgress {
            bytes_delivered: self.received * self.packet_bytes as u64,
            packets_sent: self.seq,
            ..Default::default()
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::queue::{DropScript, QueueDisc};
    use lossburst_netsim::sim::Simulator;
    use lossburst_netsim::trace::TraceConfig;

    fn net() -> (Simulator, NodeId, NodeId) {
        let mut bld = SimBuilder::new(2).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            1_000_000.0,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(100),
        );
        let sim = bld.build();
        (sim, a, b)
    }

    #[test]
    fn sends_at_configured_rate() {
        let (mut sim, a, b) = net();
        // 400-byte packets at 64 kbps -> one packet per 50 ms.
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Cbr::new(a, b, 400, 64_000.0).with_limit(20).streaming()),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let cbr = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Cbr>()
            .unwrap();
        // t=0,50ms,...,950ms -> 20 packets.
        assert_eq!(cbr.sent(), 20);
        assert_eq!(cbr.received(), 20);
        assert!(cbr.lost_seqs().is_empty());
    }

    #[test]
    fn limit_stops_the_source() {
        let (mut sim, a, b) = net();
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Cbr::new(a, b, 400, 64_000.0).with_limit(5)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let cbr = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Cbr>()
            .unwrap();
        assert_eq!(cbr.sent(), 5);
        assert_eq!(cbr.received(), 5);
    }

    #[test]
    fn losses_appear_in_lost_seqs() {
        let mut bld = SimBuilder::new(2).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        // 1-packet buffer and a rate far above the link: drops guaranteed.
        bld.link(
            a,
            b,
            100_000.0,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(1),
        );
        let mut sim = bld.build();
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Cbr::new(a, b, 400, 1_000_000.0).with_limit(50).streaming()),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let cbr = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Cbr>()
            .unwrap();
        assert_eq!(cbr.sent(), 50);
        let lost = cbr.lost_seqs();
        assert!(!lost.is_empty());
        assert_eq!(lost.len() as u64 + cbr.received(), 50);
        // Drop trace agrees with receiver-side inference.
        assert_eq!(sim.total_drops() as usize, lost.len());
    }

    #[test]
    fn streaming_counts_tail_losses_after_last_arrival() {
        // Drop-all script: nothing arrives, so the whole sent range is the
        // un-acknowledged tail (next_expected..sent).
        let mut bld = SimBuilder::new(2).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.link(
            a,
            b,
            1_000_000.0,
            SimDuration::from_millis(5),
            QueueDisc::scripted(64, DropScript::at(0..10)),
        );
        let mut sim = bld.build();
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Cbr::new(a, b, 400, 64_000.0).with_limit(10).streaming()),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let cbr = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Cbr>()
            .unwrap();
        assert_eq!(cbr.sent(), 10);
        assert_eq!(cbr.received(), 0);
        assert_eq!(cbr.lost_seqs(), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn nominal_send_times_reconstruct() {
        let (mut sim, a, b) = net();
        let start = SimTime::ZERO + SimDuration::from_millis(123);
        let flow = sim.add_flow(
            a,
            b,
            start,
            Box::new(Cbr::new(a, b, 400, 64_000.0).with_limit(3)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let cbr = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Cbr>()
            .unwrap();
        assert_eq!(cbr.nominal_send_time(0), Some(start));
        assert_eq!(
            cbr.nominal_send_time(2),
            Some(start + SimDuration::from_millis(100))
        );
    }
}
