//! Packets and entity identifiers.

use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Identifies a node (host or router) in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a unidirectional link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Identifies an end-to-end flow (one sender/receiver pair under one
/// transport protocol instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

impl NodeId {
    /// Index into dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Index into dense per-link arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FlowId {
    /// Index into dense per-flow arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// What a packet is carrying. The simulator forwards all kinds identically;
/// transports dispatch on the kind when a packet reaches an endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// A data segment (TCP segment or UDP datagram).
    Data,
    /// A cumulative acknowledgment.
    Ack,
    /// TFRC receiver feedback report.
    Feedback,
}

/// The fields of a simulated packet; [`Packet`] is the owning handle that
/// moves through the simulator and dereferences to this.
#[derive(Clone, Debug)]
pub struct PacketBody {
    /// Globally unique packet identity (assigned at send time).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Origin host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Size on the wire in bytes (headers included).
    pub size_bytes: u32,
    /// Data sequence number, in packets (for `Data`), or the highest
    /// in-order sequence received for feedback packets.
    pub seq: u64,
    /// Cumulative acknowledgment: the next sequence number expected by the
    /// receiver (meaningful for `Ack`).
    pub ack: u64,
    /// Kind of payload.
    pub kind: PacketKind,
    /// When the packet was emitted by its origin (timestamp option).
    pub sent_at: SimTime,
    /// Timestamp echoed back by the receiver (for RTT sampling). For `Ack`
    /// packets this is the `sent_at` of the data packet being acknowledged.
    pub echo: SimTime,
    /// The sender's current RTT estimate, carried in data packets (TFRC
    /// receivers use it to group losses into loss events and to pace
    /// feedback, exactly as RFC 5348 prescribes).
    pub rtt_hint: SimDuration,
    /// Whether the flow is ECN-capable (ECT codepoint set).
    pub ecn_capable: bool,
    /// Congestion-experienced mark set by a router.
    pub ecn_ce: bool,
    /// ECN-echo flag carried back to the sender on acknowledgments.
    pub ecn_echo: bool,
    /// Loss-event rate reported by a TFRC receiver (fraction, 0..=1).
    pub fb_loss_rate: f64,
    /// Receive rate reported by a TFRC receiver (bytes/second).
    pub fb_recv_rate: f64,
    /// SACK blocks carried on acknowledgments: up to three `[start, end)`
    /// ranges of sequence numbers held out-of-order by the receiver.
    /// `(0, 0)` entries are empty.
    pub sack: [(u64, u64); 3],
}

/// A simulated packet: an 8-byte owning handle to its [`PacketBody`].
///
/// A packet is allocated once, when a transport builds it, and freed once,
/// when it is delivered or dropped; every hand-off in between — into a
/// link's queue, out of it, into the [`Arrival`](crate::event::Event::Arrival)
/// event that carries it to the next node, through the outbox — moves the
/// pointer. Moving the 136-byte body by value instead (about six copies a
/// hop, three or more hops a packet) was a quarter of a 650-path campaign's
/// run time; the `malloc`/`free` pair costs about a fifth of that. Fields
/// are reached through `Deref`, so `pkt.seq` and `pkt.ecn_ce = true` read
/// as they would on the body itself. `clone` is a deep copy, a second
/// body: nothing on the simulator's packet path clones; tests and harnesses
/// that offer one packet several times do.
#[derive(Clone)]
pub struct Packet(Box<PacketBody>);

const _: () = assert!(std::mem::size_of::<Packet>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Packet>>() == 8);
const _: () = assert!(std::mem::size_of::<PacketBody>() <= 136);

impl Packet {
    /// A blank packet of `kind` carrying `seq` / `ack`; transports fill in
    /// what else they need.
    fn blank(
        kind: PacketKind,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size_bytes: u32,
        seq: u64,
        ack: u64,
    ) -> Packet {
        PacketBody {
            id: 0,
            flow,
            src,
            dst,
            size_bytes,
            seq,
            ack,
            kind,
            sent_at: SimTime::ZERO,
            echo: SimTime::ZERO,
            rtt_hint: SimDuration::ZERO,
            ecn_capable: false,
            ecn_ce: false,
            ecn_echo: false,
            fb_loss_rate: 0.0,
            fb_recv_rate: 0.0,
            sack: [(0, 0); 3],
        }
        .into()
    }

    /// A blank data packet; transports fill in what they need.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, size_bytes: u32, seq: u64) -> Packet {
        Packet::blank(PacketKind::Data, flow, src, dst, size_bytes, seq, 0)
    }

    /// A blank acknowledgment from `src` back to `dst`.
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, size_bytes: u32, ack: u64) -> Packet {
        Packet::blank(PacketKind::Ack, flow, src, dst, size_bytes, 0, ack)
    }

    /// SACK blocks present on this packet (non-empty ranges).
    pub fn sack_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sack.iter().copied().filter(|&(a, b)| b > a)
    }
}

impl From<PacketBody> for Packet {
    /// Box `body`: the packet's one allocation.
    fn from(body: PacketBody) -> Packet {
        Packet(Box::new(body))
    }
}

impl Deref for Packet {
    type Target = PacketBody;

    #[inline]
    fn deref(&self) -> &PacketBody {
        &self.0
    }
}

impl DerefMut for Packet {
    #[inline]
    fn deref_mut(&mut self) -> &mut PacketBody {
        &mut self.0
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let d = Packet::data(FlowId(1), NodeId(0), NodeId(5), 1000, 42);
        assert_eq!(d.kind, PacketKind::Data);
        assert_eq!(d.seq, 42);
        let a = Packet::ack(FlowId(1), NodeId(5), NodeId(0), 40, 43);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.ack, 43);
    }

    #[test]
    fn sack_blocks_skips_empty_entries() {
        let mut p = Packet::ack(FlowId(0), NodeId(0), NodeId(1), 40, 5);
        p.sack = [(7, 9), (0, 0), (12, 13)];
        let blocks: Vec<_> = p.sack_blocks().collect();
        assert_eq!(blocks, vec![(7, 9), (12, 13)]);
    }
}
