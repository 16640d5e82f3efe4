//! Frame codec: the in-sim [`Packet`] ↔ a UDP datagram.
//!
//! Every field a transport reads — sequence and cumulative-ACK numbers,
//! the range-set SACK blocks, send/echo timestamps, the RTT hint, ECN
//! flags, TFRC feedback rates — crosses the wire, so the `Sender` state
//! machines behave identically whether a packet arrived through the
//! simulator's links or through a socket. The declared `size_bytes` also
//! crosses: the impaired path serializes *that* size at the bottleneck
//! rate (the datagram itself stays header-sized, which keeps loopback
//! cheap while the emulated path behaves like full-MTU packets).
//!
//! Layout (little-endian, fixed [`WIRE_HEADER_BYTES`] bytes):
//!
//! ```text
//! magic u16 | version u8 | kind u8 | flow u32 | src u32 | dst u32
//! size_bytes u32 | id u64 | seq u64 | ack u64
//! sent_at u64 | echo u64 | rtt_hint u64      (nanoseconds)
//! flags u8 | pad [u8;7]
//! fb_loss_rate f64 | fb_recv_rate f64
//! sack [(u64,u64);3]
//! ```

use lossburst_netsim::packet::{FlowId, NodeId, Packet, PacketBody, PacketKind};
use lossburst_netsim::time::{SimDuration, SimTime};

/// Fixed encoded size of one packet header on the wire.
pub(crate) const WIRE_HEADER_BYTES: usize = 140;

const MAGIC: u16 = 0x4C42; // "LB"
const VERSION: u8 = 1;

fn kind_code(kind: PacketKind) -> u8 {
    match kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
        PacketKind::Feedback => 2,
    }
}

fn kind_from(code: u8) -> Option<PacketKind> {
    Some(match code {
        0 => PacketKind::Data,
        1 => PacketKind::Ack,
        2 => PacketKind::Feedback,
        _ => return None,
    })
}

struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }
    fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.at..self.at + N]);
        self.at += N;
        out
    }
    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }
    fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }
    fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

/// Encode `pkt` into `buf` (must hold [`WIRE_HEADER_BYTES`]); returns the
/// encoded length.
pub(crate) fn encode_packet(pkt: &Packet, buf: &mut [u8]) -> usize {
    assert!(buf.len() >= WIRE_HEADER_BYTES, "encode buffer too small");
    let mut w = Writer { buf, at: 0 };
    w.u16(MAGIC);
    w.u8(VERSION);
    w.u8(kind_code(pkt.kind));
    w.u32(pkt.flow.0);
    w.u32(pkt.src.0);
    w.u32(pkt.dst.0);
    w.u32(pkt.size_bytes);
    w.u64(pkt.id);
    w.u64(pkt.seq);
    w.u64(pkt.ack);
    w.u64(pkt.sent_at.as_nanos());
    w.u64(pkt.echo.as_nanos());
    w.u64(pkt.rtt_hint.as_nanos());
    let flags = (pkt.ecn_capable as u8) | (pkt.ecn_ce as u8) << 1 | (pkt.ecn_echo as u8) << 2;
    w.u8(flags);
    w.put(&[0u8; 7]);
    w.f64(pkt.fb_loss_rate);
    w.f64(pkt.fb_recv_rate);
    for &(a, b) in &pkt.sack {
        w.u64(a);
        w.u64(b);
    }
    debug_assert_eq!(w.at, WIRE_HEADER_BYTES);
    WIRE_HEADER_BYTES
}

/// Decode a datagram back into a [`Packet`]. `None` for anything that is
/// not a well-formed frame of this codec's version (stray datagrams on a
/// reused port must not crash the lane).
pub(crate) fn decode_packet(buf: &[u8]) -> Option<Packet> {
    if buf.len() < WIRE_HEADER_BYTES {
        return None;
    }
    let mut r = Reader { buf, at: 0 };
    if r.u16() != MAGIC || r.u8() != VERSION {
        return None;
    }
    let kind = kind_from(r.u8())?;
    let flow = FlowId(r.u32());
    let src = NodeId(r.u32());
    let dst = NodeId(r.u32());
    let size_bytes = r.u32();
    let id = r.u64();
    let seq = r.u64();
    let ack = r.u64();
    let sent_at = SimTime::from_nanos(r.u64());
    let echo = SimTime::from_nanos(r.u64());
    let rtt_hint = SimDuration::from_nanos(r.u64());
    let flags = r.u8();
    let _pad = r.take::<7>();
    let fb_loss_rate = r.f64();
    let fb_recv_rate = r.f64();
    let mut sack = [(0u64, 0u64); 3];
    for s in &mut sack {
        *s = (r.u64(), r.u64());
    }
    Some(Packet::from(PacketBody {
        id,
        flow,
        src,
        dst,
        size_bytes,
        seq,
        ack,
        kind,
        sent_at,
        echo,
        rtt_hint,
        ecn_capable: flags & 1 != 0,
        ecn_ce: flags & 2 != 0,
        ecn_echo: flags & 4 != 0,
        fb_loss_rate,
        fb_recv_rate,
        sack,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplar() -> Packet {
        let mut p = Packet::data(FlowId(9), NodeId(3), NodeId(4), 1500, 77);
        p.id = u64::MAX - 5;
        p.ack = 12;
        p.sent_at = SimTime::from_nanos(123_456_789);
        p.echo = SimTime::from_nanos(42);
        p.rtt_hint = SimDuration::from_micros(250);
        p.ecn_capable = true;
        p.ecn_echo = true;
        p.fb_loss_rate = 0.015625;
        p.fb_recv_rate = 1.25e6;
        p.sack = [(100, 110), (0, 0), (200, 201)];
        p
    }

    #[test]
    fn round_trips_every_field() {
        for kind in [PacketKind::Data, PacketKind::Ack, PacketKind::Feedback] {
            let mut p = exemplar();
            p.kind = kind;
            let mut buf = [0u8; WIRE_HEADER_BYTES];
            assert_eq!(encode_packet(&p, &mut buf), WIRE_HEADER_BYTES);
            let q = decode_packet(&buf).expect("own frames decode");
            assert_eq!(q.id, p.id);
            assert_eq!(q.flow, p.flow);
            assert_eq!(q.src, p.src);
            assert_eq!(q.dst, p.dst);
            assert_eq!(q.size_bytes, p.size_bytes);
            assert_eq!(q.seq, p.seq);
            assert_eq!(q.ack, p.ack);
            assert_eq!(q.kind, p.kind);
            assert_eq!(q.sent_at, p.sent_at);
            assert_eq!(q.echo, p.echo);
            assert_eq!(q.rtt_hint, p.rtt_hint);
            assert_eq!(q.ecn_capable, p.ecn_capable);
            assert_eq!(q.ecn_ce, p.ecn_ce);
            assert_eq!(q.ecn_echo, p.ecn_echo);
            assert_eq!(q.fb_loss_rate.to_bits(), p.fb_loss_rate.to_bits());
            assert_eq!(q.fb_recv_rate.to_bits(), p.fb_recv_rate.to_bits());
            assert_eq!(q.sack, p.sack);
        }
    }

    /// The decoder passes SACK blocks through unchecked (any `u64` pair is
    /// a well-formed frame); the sender must bound what it absorbs. A
    /// forged `(0, u64::MAX)` block once meant one scoreboard insert per
    /// claimed sequence.
    #[test]
    fn forged_sack_datagram_does_not_stall_the_sender() {
        use lossburst_netsim::driver::HostDriver;
        use lossburst_netsim::iface::Transport;
        use lossburst_transport::config::TcpConfig;
        use lossburst_transport::sender::Sender;

        let (a, b) = (NodeId(0), NodeId(1));
        let mut sender = Sender::cubic(a, b, TcpConfig::default());
        let mut drv = HostDriver::new(1, FlowId(0));
        let first_flight = drv.start(&mut sender, SimTime::ZERO).len() as u64;

        let mut forged = Packet::ack(FlowId(0), b, a, 40, 0);
        forged.sack = [(0, u64::MAX), (1, u64::MAX - 1), (u64::MAX - 1, u64::MAX)];
        let mut buf = [0u8; WIRE_HEADER_BYTES];
        encode_packet(&forged, &mut buf);
        let on_wire = decode_packet(&buf).expect("well-formed frame");
        assert_eq!(on_wire.sack[0], (0, u64::MAX));

        let at = SimTime::from_nanos(20_000_000);
        let out = drv.deliver(&mut sender, &on_wire, at);
        // Only the first flight can have been SACKed: the sender answers
        // with at most a window of new data, starting right behind it.
        assert!(!out.is_empty() && out.len() as f64 <= sender.cwnd());
        assert!(out.iter().all(|(_, p)| p.seq >= first_flight));
        assert_eq!(sender.progress().retransmits, 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        let p = exemplar();
        let mut a = [0u8; WIRE_HEADER_BYTES];
        let mut b = [0u8; WIRE_HEADER_BYTES];
        encode_packet(&p, &mut a);
        encode_packet(&p, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn junk_and_truncation_decode_to_none() {
        let p = exemplar();
        let mut buf = [0u8; WIRE_HEADER_BYTES];
        encode_packet(&p, &mut buf);
        assert!(decode_packet(&buf[..WIRE_HEADER_BYTES - 1]).is_none());
        assert!(decode_packet(&[]).is_none());
        let mut bad_magic = buf;
        bad_magic[0] ^= 0xFF;
        assert!(decode_packet(&bad_magic).is_none());
        let mut bad_version = buf;
        bad_version[2] = 99;
        assert!(decode_packet(&bad_version).is_none());
        let mut bad_kind = buf;
        bad_kind[3] = 7;
        assert!(decode_packet(&bad_kind).is_none());
    }

    #[test]
    fn sack_blocks_survive_the_wire() {
        let mut p = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 40, 5);
        p.sack = [(7, 9), (12, 13), (0, 0)];
        let mut buf = [0u8; WIRE_HEADER_BYTES];
        encode_packet(&p, &mut buf);
        let q = decode_packet(&buf).unwrap();
        assert_eq!(q.sack_blocks().collect::<Vec<_>>(), vec![(7, 9), (12, 13)]);
    }
}
