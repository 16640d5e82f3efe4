//! The transport interface.
//!
//! A [`Transport`] is the per-flow protocol state machine (both endpoints of
//! one flow live in the same object; they communicate only through packets,
//! so the abstraction stays honest). The simulator drives it with three
//! callbacks — flow start, packet delivery, timer fire — and the transport
//! responds through the [`Ctx`] handle: emitting packets from either
//! endpoint and arming timers.
//!
//! Timer cancellation is *lazy*: the simulator never removes a scheduled
//! timer. Transports encode a generation counter in their [`TimerToken`]s
//! (or re-check state on fire) and ignore stale ones. This keeps the event
//! queue insert-and-pop only.

use crate::event::{Event, EventQueue, TimerToken};
use crate::packet::{FlowId, LinkId, NodeId, Packet};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceSet;
use rand::rngs::SmallRng;
use std::any::Any;

/// Handle given to transport callbacks for interacting with the simulator.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The flow being driven.
    pub flow: FlowId,
    /// Shared simulation RNG.
    pub rng: &'a mut SmallRng,
    /// Trace sinks (transports record goodput events here).
    pub trace: &'a mut TraceSet,
    pub(crate) events: &'a mut EventQueue,
    pub(crate) outbox: &'a mut Vec<(NodeId, Packet)>,
    pub(crate) fluid_outbox: &'a mut Vec<(LinkId, f64)>,
    pub(crate) next_packet_id: &'a mut u64,
}

impl Ctx<'_> {
    /// Emit `pkt` from `origin` (one of the flow's endpoint hosts). The
    /// packet is stamped with a fresh id, the current time, and this flow's
    /// id, then injected into the network after the callback returns.
    pub fn send_from(&mut self, origin: NodeId, mut pkt: Packet) {
        pkt.id = *self.next_packet_id;
        *self.next_packet_id += 1;
        pkt.flow = self.flow;
        pkt.sent_at = self.now;
        self.outbox.push((origin, pkt));
    }

    /// Change the fluid background arrival rate on `link` by `delta_bps`
    /// (positive on an ON toggle, the matching negative on OFF). Applied by
    /// the simulator after the callback returns, like packet sends; the
    /// link must have fluid state enabled (see
    /// [`crate::link::Link::enable_fluid`]).
    pub fn add_fluid_rate(&mut self, link: LinkId, delta_bps: f64) {
        self.fluid_outbox.push((link, delta_bps));
    }

    /// Arm a timer to fire after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.events.schedule(
            self.now + delay,
            Event::Timer {
                flow: self.flow,
                token,
            },
        );
    }
}

/// Progress counters every transport exposes, used for completion records
/// and end-of-run summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowProgress {
    /// Application bytes confirmed delivered (acked for TCP, received for UDP).
    pub bytes_delivered: u64,
    /// Data packets sent (including retransmissions).
    pub packets_sent: u64,
    /// Retransmitted packets (TCP only).
    pub retransmits: u64,
    /// Loss events detected by the sender's congestion controller.
    pub loss_events: u64,
    /// Retransmission timeouts (sender stalls the fast path could not
    /// repair); zero for transports without an RTO.
    pub timeouts: u64,
}

/// A per-flow protocol state machine.
pub trait Transport {
    /// The flow begins (scheduled start time reached).
    fn on_start(&mut self, ctx: &mut Ctx);

    /// A packet belonging to this flow arrived at one of its endpoints.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx);

    /// A timer armed through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx);

    /// Whether the flow has finished its work (bulk transfer complete).
    /// Infinite sources always return `false`.
    fn is_done(&self) -> bool {
        false
    }

    /// Progress counters.
    fn progress(&self) -> FlowProgress;

    /// Downcast support so experiments can read protocol-specific results
    /// (for example a probe receiver's arrival log) after a run.
    fn as_any(&self) -> &dyn Any;
}
