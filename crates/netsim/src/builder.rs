//! Staged simulator construction.
//!
//! [`SimBuilder`] is the one way to obtain a runnable [`Simulator`]. It
//! stages construction in the only order that makes sense — nodes, then
//! links between them, then flows across them — and finishes the job at
//! [`SimBuilder::build`]: routes are computed from the complete topology
//! (shortest path by hop count) and every flow's start event is
//! scheduled. The classic footgun of the old free-form API (computing
//! routes before the last link existed, or forgetting to compute them at
//! all) is unrepresentable: you cannot run a simulator you haven't built,
//! and building routes it for you.
//!
//! ```
//! use lossburst_netsim::prelude::*;
//!
//! let mut b = SimBuilder::new(42).trace(TraceConfig::all());
//! let a = b.host();
//! let c = b.host();
//! b.duplex(a, c, 8e6, SimDuration::from_millis(5), QueueDisc::drop_tail(64));
//! let mut sim = b.build(); // routes computed here
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
//! ```

use crate::iface::{FlowType, Transport};
use crate::link::Link;
use crate::node::NodeKind;
use crate::packet::{FlowId, LinkId, NodeId};
use crate::queue::QueueDisc;
use crate::sim::{FlowHandle, Simulator};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceConfig, TraceSet};
use rand::rngs::SmallRng;

struct PendingFlow {
    start_at: SimTime,
    transport: Box<dyn Transport>,
}

/// Staged builder for [`Simulator`]; see the [module docs](self).
pub struct SimBuilder {
    sim: Simulator,
    pending_flows: Vec<PendingFlow>,
}

impl SimBuilder {
    /// Start building a simulation with the given RNG seed and the default
    /// trace gating ([`TraceConfig::default`]).
    pub fn new(seed: u64) -> SimBuilder {
        SimBuilder {
            sim: Simulator::empty(seed, TraceConfig::default()),
            pending_flows: Vec::new(),
        }
    }

    /// Select which record streams the run keeps.
    pub fn trace(mut self, config: TraceConfig) -> SimBuilder {
        self.sim.trace = TraceSet::new(config);
        self
    }

    /// Add a node of the given kind; returns its id.
    pub(crate) fn node(&mut self, kind: NodeKind) -> NodeId {
        self.sim.add_node(kind)
    }

    /// Add an end host.
    pub fn host(&mut self) -> NodeId {
        self.node(NodeKind::Host)
    }

    /// Add a router.
    pub fn router(&mut self) -> NodeId {
        self.node(NodeKind::Router)
    }

    /// Add a unidirectional link; returns its id.
    pub fn link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: f64,
        delay: SimDuration,
        disc: QueueDisc,
    ) -> LinkId {
        self.sim.add_link(from, to, bandwidth_bps, delay, disc)
    }

    /// Add a pair of symmetric links; returns `(a->b, b->a)`.
    pub fn duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_bps: f64,
        delay: SimDuration,
        disc: QueueDisc,
    ) -> (LinkId, LinkId) {
        self.sim.add_duplex(a, b, bandwidth_bps, delay, disc)
    }

    /// Mutable access to an already-added link, for pre-run tweaks like
    /// the emulation substrate's processing-jitter model.
    pub(crate) fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.sim.links[id.index()]
    }

    /// Enable fluid background state on `id` (hybrid fluid/packet mode;
    /// see [`crate::fluid`]). Background sources then steer the link's
    /// aggregate rate through [`crate::iface::Ctx::add_fluid_rate`].
    pub fn fluid_link(&mut self, id: LinkId, mean_pkt_bytes: f64) {
        self.link_mut(id).enable_fluid(mean_pkt_bytes);
    }

    /// Register a flow starting at `start_at`; the handle reads it back as
    /// `T` once built. The flow's start event is scheduled at
    /// [`SimBuilder::build`].
    pub fn flow<T: FlowType + ?Sized>(
        &mut self,
        start_at: SimTime,
        transport: Box<T>,
    ) -> FlowHandle<T> {
        let id = FlowId((self.sim.flows.len() + self.pending_flows.len()) as u32);
        self.pending_flows.push(PendingFlow {
            start_at,
            transport: T::boxed(transport),
        });
        self.sim.handle(id)
    }

    /// The simulation RNG, for topology builders that draw randomized
    /// parameters (e.g. per-pair RTTs) during construction. Draws consume
    /// the same stream the simulation itself will use, exactly like the
    /// old free-form API.
    pub(crate) fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// Finish construction: compute shortest-path routes over the complete
    /// topology, schedule every flow's start event, and hand over a
    /// ready-to-run [`Simulator`].
    pub fn build(mut self) -> Simulator {
        self.sim.compute_routes();
        for f in self.pending_flows.drain(..) {
            self.sim.add_flow(f.start_at, f.transport);
        }
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{Ctx, FlowProgress};
    use crate::packet::{Packet, PacketKind};
    use crate::prelude::TimerToken;

    struct Pinger {
        src: NodeId,
        dst: NodeId,
        got: u64,
    }

    impl Transport for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let p = Packet::data(ctx.flow, self.src, self.dst, 1000, 0);
            ctx.send_from(self.src, p);
        }
        fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
            if pkt.kind == PacketKind::Data {
                self.got += 1;
            }
        }
        fn on_timer(&mut self, _t: TimerToken, _c: &mut Ctx) {}
        fn is_done(&self) -> bool {
            self.got > 0
        }
        fn progress(&self) -> FlowProgress {
            FlowProgress::default()
        }
    }

    #[test]
    fn build_computes_routes_and_runs() {
        let mut b = SimBuilder::new(7);
        let a = b.host();
        let r = b.router();
        let c = b.host();
        b.duplex(
            a,
            r,
            8e6,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(32),
        );
        b.duplex(
            r,
            c,
            8e6,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(32),
        );
        let f = b.flow(
            SimTime::ZERO,
            Box::new(Pinger {
                src: a,
                dst: c,
                got: 0,
            }),
        );
        let mut sim = b.build();
        assert!(
            sim.nodes[a.index()].route_to(c).is_some(),
            "routes not computed"
        );
        sim.run_to_quiescence();
        assert!(sim.flow(f).is_done(), "packet never delivered");
    }

    #[test]
    fn flows_added_in_any_order_relative_to_links_work() {
        // The footgun the old API documented away: flows registered before
        // the topology is finished. The builder makes this safe because
        // routing happens at build().
        let mut b = SimBuilder::new(7);
        let a = b.host();
        let c = b.host();
        let f = b.flow(
            SimTime::ZERO,
            Box::new(Pinger {
                src: a,
                dst: c,
                got: 0,
            }),
        );
        b.duplex(
            a,
            c,
            8e6,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(32),
        );
        let mut sim = b.build();
        sim.run_to_quiescence();
        assert!(sim.flow(f).is_done());
    }

    #[test]
    fn flow_ids_are_assigned_in_registration_order() {
        let mut b = SimBuilder::new(1);
        let a = b.host();
        let c = b.host();
        b.duplex(
            a,
            c,
            8e6,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(32),
        );
        let f0 = b.flow(
            SimTime::ZERO,
            Box::new(Pinger {
                src: a,
                dst: c,
                got: 0,
            }),
        );
        let f1 = b.flow(
            SimTime::ZERO,
            Box::new(Pinger {
                src: c,
                dst: a,
                got: 0,
            }),
        );
        assert_eq!((f0.id(), f1.id()), (FlowId(0), FlowId(1)));
        let sim = b.build();
        assert_eq!(sim.flows.len(), 2);
    }
}
