//! Standalone transport driving.
//!
//! [`HostDriver`] is the public seam that lets code *outside* the
//! simulator — the real-socket lane in `lossburst-sock`, protocol unit
//! tests, fuzz harnesses — drive a [`Transport`] state machine without
//! building a topology. It owns the pieces a [`Ctx`] borrows (event queue,
//! outbox, RNG, trace set, packet-id counter), so the exact same
//! `on_start`/`on_packet`/`on_timer` hooks the simulator calls can be
//! called from a thread that moves packets over UDP datagrams instead of
//! simulated links.
//!
//! Time is supplied by the caller on every call: the simulator passes
//! simulated time, the socket lane passes a monotonic-clock reading
//! converted to [`SimTime`]. Timers armed through [`Ctx::set_timer`] land
//! in the driver's own [`EventQueue`]; the caller polls
//! [`HostDriver::next_timer_at`] and fires due timers with
//! [`HostDriver::fire_timers_until`].

use crate::event::{Event, EventQueue, TimerToken};
use crate::iface::{Ctx, Transport};
use crate::packet::{FlowId, LinkId, NodeId, Packet};
use crate::time::SimTime;
use crate::trace::{TraceConfig, TraceSet};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Drives one [`Transport`] outside the simulator; see the
/// [module docs](self).
pub struct HostDriver {
    flow: FlowId,
    rng: SmallRng,
    trace: TraceSet,
    events: EventQueue,
    outbox: Vec<(NodeId, Packet)>,
    fluid_outbox: Vec<(LinkId, f64)>,
    next_packet_id: u64,
}

impl HostDriver {
    /// A driver for `flow` with its own RNG stream seeded by `seed`.
    /// Traces are kept unbuffered ([`TraceConfig::none`]).
    pub fn new(seed: u64, flow: FlowId) -> HostDriver {
        HostDriver {
            flow,
            rng: SmallRng::seed_from_u64(seed),
            trace: TraceSet::new(TraceConfig::none()),
            events: EventQueue::new(),
            outbox: Vec::new(),
            fluid_outbox: Vec::new(),
            next_packet_id: 0,
        }
    }

    fn with_ctx<R>(
        &mut self,
        now: SimTime,
        t: &mut dyn Transport,
        f: impl FnOnce(&mut dyn Transport, &mut Ctx) -> R,
    ) -> R {
        let mut ctx = Ctx {
            now,
            flow: self.flow,
            rng: &mut self.rng,
            trace: &mut self.trace,
            events: &mut self.events,
            outbox: &mut self.outbox,
            fluid_outbox: &mut self.fluid_outbox,
            next_packet_id: &mut self.next_packet_id,
        };
        f(t, &mut ctx)
    }

    fn drain(&mut self) -> Vec<(NodeId, Packet)> {
        // Fluid-rate requests make no sense without links; drop them.
        self.fluid_outbox.clear();
        std::mem::take(&mut self.outbox)
    }

    /// Start the flow at `now`; returns the packets the transport emitted,
    /// each tagged with the endpoint it left from.
    pub fn start(&mut self, t: &mut dyn Transport, now: SimTime) -> Vec<(NodeId, Packet)> {
        self.with_ctx(now, t, |t, ctx| t.on_start(ctx));
        self.drain()
    }

    /// Deliver `pkt` to the transport at `now` (the packet reached one of
    /// the flow's endpoints); returns the response packets.
    pub fn deliver(
        &mut self,
        t: &mut dyn Transport,
        pkt: &Packet,
        now: SimTime,
    ) -> Vec<(NodeId, Packet)> {
        self.with_ctx(now, t, |t, ctx| t.on_packet(pkt, ctx));
        self.drain()
    }

    /// When the earliest pending timer is due, if any.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Fire every timer due at or before `now`, in schedule order, each at
    /// its own due time (so a late poll still replays the timer sequence
    /// the transport asked for); returns all packets emitted.
    pub fn fire_timers_until(
        &mut self,
        t: &mut dyn Transport,
        now: SimTime,
    ) -> Vec<(NodeId, Packet)> {
        let mut out = Vec::new();
        while let Some((at, ev)) = self.events.pop_before(now) {
            if let Event::Timer { token, .. } = ev {
                self.fire_one(t, at, token);
                out.append(&mut self.outbox);
            }
        }
        self.fluid_outbox.clear();
        out
    }

    fn fire_one(&mut self, t: &mut dyn Transport, at: SimTime, token: TimerToken) {
        self.with_ctx(at, t, |t, ctx| t.on_timer(token, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::FlowProgress;
    use crate::packet::PacketKind;
    use crate::time::SimDuration;

    /// Echoes every data packet as an ACK and re-arms a keepalive timer.
    struct Echo {
        src: NodeId,
        dst: NodeId,
        acked: u64,
        timer_fires: u64,
    }

    impl Transport for Echo {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send_from(
                self.src,
                Packet::data(ctx.flow, self.src, self.dst, 1000, 0),
            );
            ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
        }
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
            if pkt.kind == PacketKind::Data {
                let mut a = Packet::ack(ctx.flow, self.dst, self.src, 40, pkt.seq + 1);
                a.echo = pkt.sent_at;
                ctx.send_from(self.dst, a);
            } else {
                self.acked = self.acked.max(pkt.ack);
            }
        }
        fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx) {
            self.timer_fires += 1;
            if self.timer_fires < 3 {
                ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
            }
        }
        fn progress(&self) -> FlowProgress {
            FlowProgress::default()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn drives_a_transport_end_to_end() {
        let (a, b) = (NodeId(0), NodeId(1));
        let mut t = Echo {
            src: a,
            dst: b,
            acked: 0,
            timer_fires: 0,
        };
        let mut d = HostDriver::new(7, FlowId(3));
        let now = SimTime::ZERO;
        let sent = d.start(&mut t, now);
        assert_eq!(sent.len(), 1);
        let (origin, data) = &sent[0];
        assert_eq!(*origin, a);
        assert_eq!(data.flow, FlowId(3));
        assert_eq!(data.sent_at, now);

        // Deliver at the receiver endpoint; the ACK comes back from dst.
        let later = now + SimDuration::from_millis(5);
        let acks = d.deliver(&mut t, data, later);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].0, b);
        assert_eq!(acks[0].1.kind, PacketKind::Ack);
        assert_eq!(acks[0].1.echo, now, "echo preserved for RTT sampling");
        // Packet ids stay unique across calls.
        assert_ne!(sent[0].1.id, acks[0].1.id);
        d.deliver(&mut t, &acks[0].1, later + SimDuration::from_millis(5));
        assert_eq!(t.acked, 1);
    }

    #[test]
    fn timers_fire_at_their_due_times_in_order() {
        let (a, b) = (NodeId(0), NodeId(1));
        let mut t = Echo {
            src: a,
            dst: b,
            acked: 0,
            timer_fires: 0,
        };
        let mut d = HostDriver::new(7, FlowId(0));
        d.start(&mut t, SimTime::ZERO);
        let due = d.next_timer_at().expect("keepalive armed");
        assert_eq!(due, SimTime::ZERO + SimDuration::from_millis(10));
        // Nothing due before 10 ms.
        d.fire_timers_until(&mut t, SimTime::ZERO + SimDuration::from_millis(9));
        assert_eq!(t.timer_fires, 0);
        // A late poll catches up: the 10 ms and 20 ms fires both replay.
        d.fire_timers_until(&mut t, SimTime::ZERO + SimDuration::from_millis(25));
        assert_eq!(t.timer_fires, 2);
        assert_eq!(
            d.next_timer_at(),
            Some(SimTime::ZERO + SimDuration::from_millis(30))
        );
    }
}
