//! Unidirectional links: serialization at link rate, a queue discipline in
//! front, propagation delay behind, and an optional per-packet processing
//! jitter used by the Dummynet-style emulation substrate.
//!
//! The lifecycle of a packet on a link is:
//!
//! 1. `enqueue` — the queue discipline admits, admits-with-mark, or drops it;
//! 2. when it reaches the head of the FIFO the link *serializes* it for
//!    `size * 8 / bandwidth` seconds (plus jitter, if configured);
//! 3. on completion it *propagates* for the link delay and arrives at the
//!    next node.
//!
//! Jitter is added to the serialization phase rather than the propagation
//! phase so that a link can never reorder packets, matching how a real
//! router's noisy packet-processing time behaves.

use crate::fluid::FluidState;
use crate::packet::{LinkId, NodeId, Packet};
use crate::queue::{QueueDisc, Verdict};
use crate::rng::Sampler;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::collections::VecDeque;

/// Distribution of extra per-packet processing time.
#[derive(Clone, Debug)]
pub enum JitterModel {
    /// No jitter (ideal router, NS-2 style).
    None,
    /// Uniform between the two bounds.
    Uniform(SimDuration, SimDuration),
    /// Exponential with the given mean.
    Exponential(SimDuration),
}

impl JitterModel {
    fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        match self {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform(lo, hi) => Sampler::uniform_duration(rng, *lo, *hi),
            JitterModel::Exponential(mean) => Sampler::exponential_duration(rng, *mean),
        }
    }
}

/// Per-link counters, updated by the link as packets move through it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets offered to the queue (admitted ones are `arrived − dropped`).
    pub arrived: u64,
    /// Packets discarded by the discipline.
    pub dropped: u64,
    /// Packets admitted with an ECN mark.
    pub marked: u64,
    /// Packets that finished transmission.
    pub transmitted: u64,
    /// Bytes that finished transmission.
    pub transmitted_bytes: u64,
}

/// Result of offering a packet to a link.
#[derive(Debug)]
pub struct EnqueueOutcome {
    /// What the discipline decided.
    pub verdict: Verdict,
    /// If the link was idle and should begin serializing its head-of-line
    /// packet, the serialization time to schedule `LinkTxComplete` after.
    pub begin_tx: Option<SimDuration>,
}

/// Result of completing one serialization.
#[derive(Debug)]
pub struct TxOutcome {
    /// The packet now on the wire; it arrives at [`Link::to`] after
    /// `TxOutcome::arrival_in`.
    pub packet: Packet,
    /// Propagation delay until arrival at the downstream node.
    pub(crate) arrival_in: SimDuration,
    /// If more packets are queued, the serialization time of the next one.
    pub next_tx: Option<SimDuration>,
}

const _: () = assert!(std::mem::size_of::<TxOutcome>() <= 32);

/// A unidirectional link between two nodes.
///
/// What the per-packet path reads and writes is inline; state most links
/// never have — fluid background, a RED estimator, a drop script — is
/// behind one pointer (`fluid`, and inside [`QueueDisc`]), and the FIFO
/// ring is allocated by the first packet that queues. A dense testbed has
/// thousands of access links that never hold more than a packet, so the
/// size is pinned: a field added inline fails the build.
#[derive(Debug)]
pub struct Link {
    /// This link's identity.
    pub(crate) id: LinkId,
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Capacity in bits per second.
    pub(crate) bandwidth_bps: f64,
    /// Propagation delay.
    pub(crate) delay: SimDuration,
    /// Queue discipline guarding the buffer.
    pub(crate) disc: QueueDisc,
    /// Per-packet processing jitter model.
    pub jitter: JitterModel,
    /// Counters.
    pub stats: LinkStats,
    buffer: VecDeque<Packet>,
    buffered_bytes: usize,
    transmitting: bool,
    fluid: Option<Box<FluidState>>,
}

const _: () = assert!(std::mem::size_of::<Link>() <= 176);

impl Link {
    /// Create a link. `bandwidth_bps` is in bits/second. Allocates nothing.
    pub fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: f64,
        delay: SimDuration,
        disc: QueueDisc,
    ) -> Link {
        assert!(bandwidth_bps > 0.0, "link bandwidth must be positive");
        Link {
            id,
            from,
            to,
            bandwidth_bps,
            delay,
            disc,
            jitter: JitterModel::None,
            stats: LinkStats::default(),
            buffer: VecDeque::new(),
            buffered_bytes: 0,
            transmitting: false,
            fluid: None,
        }
    }

    /// Attach fluid background state to this link (see [`crate::fluid`]).
    /// `mean_pkt_bytes` converts the virtual byte backlog into the
    /// packet-denominated occupancy queue disciplines reason in.
    pub fn enable_fluid(&mut self, mean_pkt_bytes: f64) {
        self.fluid = Some(Box::new(FluidState::new(mean_pkt_bytes)));
    }

    /// The fluid background state, if enabled.
    pub fn fluid(&self) -> Option<&FluidState> {
        self.fluid.as_deref()
    }

    /// Apply a background rate change (ON/OFF toggle) at `now`: the fluid
    /// backlog is integrated up to the toggle instant first, so the old
    /// rate applies exactly until it.
    ///
    /// # Panics
    /// Panics if fluid state was never enabled on this link.
    pub fn add_fluid_rate(&mut self, now: SimTime, delta_bps: f64) {
        self.advance_fluid(now);
        self.fluid
            .as_mut()
            .expect("fluid rate change on a link without fluid state")
            .add_rate(delta_bps);
    }

    /// Lazily integrate the fluid backlog up to `now`. Residual drain is
    /// zero while a packet is serializing and the full line rate while the
    /// link is idle; `transmitting` only changes inside `enqueue` /
    /// `complete_tx`, which are themselves update points, so the drain rate
    /// is constant over the elapsed interval and the integral is exact.
    #[inline]
    fn advance_fluid(&mut self, now: SimTime) {
        if let Some(f) = self.fluid.as_mut() {
            let drain = if self.transmitting {
                0.0
            } else {
                self.bandwidth_bps
            };
            let cap =
                (self.disc.capacity_bytes(f.mean_pkt_bytes) - self.buffered_bytes as f64).max(0.0);
            f.advance(now, drain, cap);
        }
    }

    /// Time to serialize `bytes` at the link rate (jitter not included).
    #[inline]
    pub fn tx_duration(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Current buffer occupancy in packets (including the packet in service).
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.buffer.len()
    }

    /// Drain rate in mean-sized packets/second (the discipline's configured
    /// mean packet size, 1000 bytes by default); used by RED to age its
    /// average over idle periods.
    #[inline]
    fn service_rate_pps(&self) -> f64 {
        self.bandwidth_bps / 8.0 / self.disc.mean_pkt_bytes()
    }

    /// Offer a packet to the link at time `now`.
    pub fn enqueue(&mut self, now: SimTime, mut pkt: Packet, rng: &mut SmallRng) -> EnqueueOutcome {
        self.advance_fluid(now);
        self.stats.arrived += 1;
        let mut fluid_pkts = self.fluid.as_ref().map_or(0.0, |f| f.backlog_pkts());
        // FIFO slot contention during fluid overload. With the backlog
        // pinned at capacity, a pure occupancy comparison would reject
        // every packet arrival — but in the packet-level system an
        // overloaded FIFO admits arrivals in proportion to the service
        // share (a departure frees a slot, and packet and background
        // arrivals race for it). Emulate that race: the arrival wins a
        // just-freed slot with probability service_rate / offered_rate.
        if let Some(f) = self.fluid.as_ref() {
            let cap =
                (self.disc.capacity_bytes(f.mean_pkt_bytes) - self.buffered_bytes as f64).max(0.0);
            if f.backlog_bytes >= cap - 1e-9
                && f.rate_bps > self.bandwidth_bps
                && rng.random::<f64>() < self.bandwidth_bps / f.rate_bps
            {
                fluid_pkts = (fluid_pkts - 1.0).max(0.0);
            }
        }
        let verdict = self.disc.decide_hybrid(
            now,
            &pkt,
            self.buffer.len(),
            fluid_pkts,
            self.service_rate_pps(),
            rng,
        );
        match verdict {
            Verdict::Drop => {
                self.stats.dropped += 1;
                EnqueueOutcome {
                    verdict,
                    begin_tx: None,
                }
            }
            Verdict::Enqueue | Verdict::EnqueueMarked => {
                if verdict == Verdict::EnqueueMarked {
                    pkt.ecn_ce = true;
                    self.stats.marked += 1;
                }
                let size = pkt.size_bytes;
                self.buffered_bytes += size as usize;
                self.buffer.push_back(pkt);
                let begin_tx = if !self.transmitting {
                    self.transmitting = true;
                    Some(self.tx_duration(size) + self.jitter.sample(rng))
                } else {
                    None
                };
                EnqueueOutcome { verdict, begin_tx }
            }
        }
    }

    /// The head-of-line packet finished serializing at `now`.
    ///
    /// # Panics
    /// Panics if the link was not transmitting (a scheduling bug).
    pub fn complete_tx(&mut self, now: SimTime, rng: &mut SmallRng) -> TxOutcome {
        assert!(
            self.transmitting,
            "LinkTxComplete on idle link {:?}",
            self.id
        );
        self.advance_fluid(now);
        let packet = self
            .buffer
            .pop_front()
            .expect("transmitting link has an empty buffer");
        self.buffered_bytes -= packet.size_bytes as usize;
        self.stats.transmitted += 1;
        self.stats.transmitted_bytes += packet.size_bytes as u64;
        let next_tx = match self.buffer.front() {
            Some(next) => Some(self.tx_duration(next.size_bytes) + self.jitter.sample(rng)),
            None => {
                self.transmitting = false;
                // The buffer is only *idle* for RED's aging purposes when no
                // fluid backlog remains either; with less than a byte of
                // fluid the queue is empty for all practical purposes.
                if self.fluid.as_ref().is_none_or(|f| f.backlog_bytes < 1.0) {
                    self.disc.on_idle(now);
                }
                None
            }
        };
        TxOutcome {
            packet,
            arrival_in: self.delay,
            next_tx,
        }
    }

    /// Conservation check: everything offered is accounted for.
    pub(crate) fn conserves_packets(&self) -> bool {
        self.stats.arrived == self.stats.dropped + self.stats.transmitted + self.buffer.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use rand::SeedableRng;

    fn mk_link(limit: usize) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            8_000_000.0, // 8 Mbps -> 1000-byte packet = 1 ms
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(limit),
        )
    }

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, seq)
    }

    #[test]
    fn tx_duration_matches_rate() {
        let l = mk_link(10);
        assert_eq!(l.tx_duration(1000), SimDuration::from_millis(1));
    }

    #[test]
    fn idle_link_starts_transmitting_immediately() {
        let mut l = mk_link(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = l.enqueue(SimTime::ZERO, pkt(0), &mut rng);
        assert_eq!(out.verdict, Verdict::Enqueue);
        assert_eq!(out.begin_tx, Some(SimDuration::from_millis(1)));
        // Second packet queues behind; no new tx start.
        let out2 = l.enqueue(SimTime::ZERO, pkt(1), &mut rng);
        assert!(out2.begin_tx.is_none());
        assert_eq!(l.occupancy(), 2);
    }

    #[test]
    fn complete_tx_delivers_in_fifo_order_and_chains() {
        let mut l = mk_link(10);
        let mut rng = SmallRng::seed_from_u64(1);
        l.enqueue(SimTime::ZERO, pkt(0), &mut rng);
        l.enqueue(SimTime::ZERO, pkt(1), &mut rng);
        let o1 = l.complete_tx(SimTime::from_nanos(1_000_000), &mut rng);
        assert_eq!(o1.packet.seq, 0);
        assert_eq!(o1.arrival_in, SimDuration::from_millis(5));
        assert_eq!(o1.next_tx, Some(SimDuration::from_millis(1)));
        let o2 = l.complete_tx(SimTime::from_nanos(2_000_000), &mut rng);
        assert_eq!(o2.packet.seq, 1);
        assert!(o2.next_tx.is_none());
        assert!(l.conserves_packets());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut l = mk_link(2);
        let mut rng = SmallRng::seed_from_u64(1);
        l.enqueue(SimTime::ZERO, pkt(0), &mut rng);
        l.enqueue(SimTime::ZERO, pkt(1), &mut rng);
        let out = l.enqueue(SimTime::ZERO, pkt(2), &mut rng);
        assert_eq!(out.verdict, Verdict::Drop);
        assert_eq!(l.stats.dropped, 1);
        assert!(l.conserves_packets());
    }

    #[test]
    #[should_panic(expected = "LinkTxComplete on idle link")]
    fn completing_idle_link_panics() {
        let mut l = mk_link(2);
        let mut rng = SmallRng::seed_from_u64(1);
        l.complete_tx(SimTime::ZERO, &mut rng);
    }

    #[test]
    fn byte_occupancy_tracks_buffered_sizes() {
        // `buffered_bytes` is what the fluid backlog is clipped against, so
        // it follows mixed sizes in and out of a packet-limited queue.
        let mut l = mk_link(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut small = pkt(0);
        small.size_bytes = 500;
        l.enqueue(SimTime::ZERO, small.clone(), &mut rng);
        assert_eq!(l.buffered_bytes, 500);
        l.enqueue(SimTime::ZERO, pkt(1), &mut rng);
        l.enqueue(SimTime::ZERO, small.clone(), &mut rng);
        l.enqueue(SimTime::ZERO, small.clone(), &mut rng);
        assert_eq!(l.buffered_bytes, 2500);
        // A fifth packet meets the 4-packet limit and adds no bytes.
        let out = l.enqueue(SimTime::ZERO, small, &mut rng);
        assert_eq!(out.verdict, Verdict::Drop);
        assert_eq!(l.buffered_bytes, 2500);
        // Draining the 500-byte head restores the byte count.
        l.complete_tx(SimTime::from_nanos(500_000), &mut rng);
        assert_eq!(l.buffered_bytes, 2000);
        assert!(l.conserves_packets());
    }

    #[test]
    fn fluid_backlog_fills_the_buffer_and_drops_packets() {
        // 8 Mbps link, 4-packet buffer, fluid arriving at 2x line rate with
        // the link otherwise idle: backlog grows at (16-8) Mbps = 1000 B/ms.
        let mut l = mk_link(4);
        let mut rng = SmallRng::seed_from_u64(1);
        l.enable_fluid(1000.0);
        l.add_fluid_rate(SimTime::ZERO, 16_000_000.0);
        // After 3 ms the backlog is 3 packets; one slot left, so a real
        // packet is admitted...
        let t3 = SimTime::ZERO + SimDuration::from_millis(3);
        let out = l.enqueue(t3, pkt(0), &mut rng);
        assert_eq!(out.verdict, Verdict::Enqueue);
        let backlog = l.fluid().unwrap().backlog_pkts();
        assert!((backlog - 3.0).abs() < 1e-9, "backlog {backlog} != 3");
        // ...but the combined occupancy is now 4 == limit: the next packet
        // drops even though only one real packet is buffered. While the
        // admitted packet serializes, fluid drains nothing and its backlog
        // is clipped at the 3 packets of room left.
        let t3_1 = t3 + SimDuration::from_micros(100);
        let out2 = l.enqueue(t3_1, pkt(1), &mut rng);
        assert_eq!(out2.verdict, Verdict::Drop);
        assert!(l.fluid().unwrap().dropped_bytes > 0.0);
        assert!(l.conserves_packets());
    }

    #[test]
    fn fluid_drains_at_line_rate_while_idle() {
        let mut l = mk_link(100);
        l.enable_fluid(1000.0);
        // Rate on for 10 ms at 2x line rate: 1000 B/ms net growth.
        l.add_fluid_rate(SimTime::ZERO, 16_000_000.0);
        let t10 = SimTime::ZERO + SimDuration::from_millis(10);
        l.add_fluid_rate(t10, -16_000_000.0);
        assert!((l.fluid().unwrap().backlog_pkts() - 10.0).abs() < 1e-9);
        // Source off, link idle: 10 packets of backlog drain at line rate
        // (1 pkt/ms) and are gone by t = 20 ms.
        let t25 = SimTime::ZERO + SimDuration::from_millis(25);
        l.add_fluid_rate(t25, 0.0);
        let f = l.fluid().unwrap();
        assert_eq!(f.backlog_bytes, 0.0);
        // 20 KB arrived in total: 10 KB drained concurrently with the ON
        // period, the backlogged 10 KB drained during the idle tail.
        assert!((f.drained_bytes - 20_000.0).abs() < 1e-6);
        assert_eq!(f.dropped_bytes, 0.0);
    }

    #[test]
    fn packet_mode_links_are_untouched_by_fluid_plumbing() {
        // Without enable_fluid the accessor stays None and enqueue behaves
        // exactly as before (same RNG draws, same verdicts).
        let mut l = mk_link(2);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(l.fluid().is_none());
        l.enqueue(SimTime::ZERO, pkt(0), &mut rng);
        l.enqueue(SimTime::ZERO, pkt(1), &mut rng);
        let out = l.enqueue(SimTime::ZERO, pkt(2), &mut rng);
        assert_eq!(out.verdict, Verdict::Drop);
    }

    #[test]
    fn jitter_extends_serialization() {
        let mut l = mk_link(10);
        l.jitter =
            JitterModel::Uniform(SimDuration::from_micros(100), SimDuration::from_micros(100));
        let mut rng = SmallRng::seed_from_u64(1);
        let out = l.enqueue(SimTime::ZERO, pkt(0), &mut rng);
        assert_eq!(
            out.begin_tx,
            Some(SimDuration::from_millis(1) + SimDuration::from_micros(100))
        );
    }
}
