//! Exponential on-off UDP noise source.
//!
//! The paper's Fig 1 setup loads the bottleneck with "50 flows, avg rate:
//! 10% of c, two way exponential on-off traffic". During an ON period the
//! source emits CBR at its peak rate; ON and OFF durations are independent
//! exponentials. The long-run average rate is
//! `peak * mean_on / (mean_on + mean_off)`.
//!
//! Two envelopes of the same process live here: [`OnOff`] emits real
//! packets (the reference model), while [`FluidOnOff`] drives the hybrid
//! fluid/packet engine by pushing the identical ON/OFF rate square wave
//! into a link's fluid backlog — same parameterization, same RNG sampler
//! stream shape (one exponential draw per toggle), but zero per-packet
//! events.

use crate::timer::{token, untoken, TimerKind};
use lossburst_netsim::event::TimerToken;
use lossburst_netsim::iface::{Ctx, FlowProgress, Transport};
use lossburst_netsim::packet::{LinkId, NodeId, Packet, PacketKind};
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::time::SimDuration;
use std::any::Any;

/// An exponential on-off source.
pub struct OnOff {
    src: NodeId,
    dst: NodeId,
    packet_bytes: u32,
    packet_interval: SimDuration,
    mean_on: SimDuration,
    mean_off: SimDuration,

    on: bool,
    toggle_gen: u64,
    send_gen: u64,

    packets_sent: u64,
    packets_received: u64,
}

impl OnOff {
    /// A source with the given *peak* rate and ON/OFF means.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        packet_bytes: u32,
        peak_rate_bps: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> OnOff {
        assert!(peak_rate_bps > 0.0);
        let packet_interval = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / peak_rate_bps);
        OnOff {
            src,
            dst,
            packet_bytes,
            packet_interval,
            mean_on,
            mean_off,
            on: false,
            toggle_gen: 0,
            send_gen: 0,
            packets_sent: 0,
            packets_received: 0,
        }
    }

    /// A source with a target *average* rate: the peak is set to
    /// `avg * (on + off) / on`.
    pub fn with_average_rate(
        src: NodeId,
        dst: NodeId,
        packet_bytes: u32,
        avg_rate_bps: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> OnOff {
        let duty = mean_on.as_secs_f64() / (mean_on.as_secs_f64() + mean_off.as_secs_f64());
        OnOff::new(
            src,
            dst,
            packet_bytes,
            avg_rate_bps / duty,
            mean_on,
            mean_off,
        )
    }

    fn schedule_toggle(&mut self, ctx: &mut Ctx) {
        let mean = if self.on { self.mean_on } else { self.mean_off };
        let d = Sampler::exponential_duration(ctx.rng, mean);
        self.toggle_gen += 1;
        ctx.set_timer(d, token(TimerKind::Toggle, self.toggle_gen));
    }

    fn send_one(&mut self, ctx: &mut Ctx) {
        let pkt = Packet::data(
            ctx.flow,
            self.src,
            self.dst,
            self.packet_bytes,
            self.packets_sent,
        );
        ctx.send_from(self.src, pkt);
        self.packets_sent += 1;
        self.send_gen += 1;
        ctx.set_timer(self.packet_interval, token(TimerKind::Send, self.send_gen));
    }
}

impl Transport for OnOff {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // Random initial phase: start OFF for an exponential time so a
        // population of sources desynchronizes naturally.
        self.on = false;
        self.schedule_toggle(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
        if pkt.kind == PacketKind::Data {
            self.packets_received += 1;
        }
    }

    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx) {
        match untoken(t) {
            (Some(TimerKind::Toggle), generation) if generation == self.toggle_gen => {
                self.on = !self.on;
                if self.on {
                    self.send_one(ctx);
                } else {
                    self.send_gen += 1; // cancel pending send tick
                }
                self.schedule_toggle(ctx);
            }
            (Some(TimerKind::Send), generation) if generation == self.send_gen && self.on => {
                self.send_one(ctx);
            }
            _ => {}
        }
    }

    fn progress(&self) -> FlowProgress {
        FlowProgress {
            bytes_delivered: self.packets_received * self.packet_bytes as u64,
            packets_sent: self.packets_sent,
            ..Default::default()
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The fluid twin of [`OnOff`]: instead of emitting packets during ON
/// periods, it toggles a rate contribution of `peak_rate_bps` on a link's
/// fluid background state (see `lossburst_netsim::fluid`). The toggle
/// process is sampled exactly like [`OnOff`]'s — one
/// [`Sampler::exponential_duration`] draw per transition, starting OFF —
/// so the aggregate rate square wave has the same law, and the long-run
/// average rate is the same `peak * mean_on / (mean_on + mean_off)`
/// calibration anchor.
pub struct FluidOnOff {
    link: LinkId,
    peak_rate_bps: f64,
    mean_on: SimDuration,
    mean_off: SimDuration,

    on: bool,
    toggle_gen: u64,
    toggles: u64,
}

impl FluidOnOff {
    /// A fluid source with the given *peak* rate feeding `link`.
    pub(crate) fn new(
        link: LinkId,
        peak_rate_bps: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> FluidOnOff {
        assert!(peak_rate_bps > 0.0);
        FluidOnOff {
            link,
            peak_rate_bps,
            mean_on,
            mean_off,
            on: false,
            toggle_gen: 0,
            toggles: 0,
        }
    }

    /// A fluid source with a target *average* rate: the peak is set to
    /// `avg * (on + off) / on`, mirroring [`OnOff::with_average_rate`].
    pub fn with_average_rate(
        link: LinkId,
        avg_rate_bps: f64,
        mean_on: SimDuration,
        mean_off: SimDuration,
    ) -> FluidOnOff {
        let duty = mean_on.as_secs_f64() / (mean_on.as_secs_f64() + mean_off.as_secs_f64());
        FluidOnOff::new(link, avg_rate_bps / duty, mean_on, mean_off)
    }

    fn schedule_toggle(&mut self, ctx: &mut Ctx) {
        let mean = if self.on { self.mean_on } else { self.mean_off };
        let d = Sampler::exponential_duration(ctx.rng, mean);
        self.toggle_gen += 1;
        ctx.set_timer(d, token(TimerKind::Toggle, self.toggle_gen));
    }
}

impl Transport for FluidOnOff {
    fn on_start(&mut self, ctx: &mut Ctx) {
        // Same initial phase as OnOff: start OFF for an exponential time.
        self.on = false;
        self.schedule_toggle(ctx);
    }

    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx) {
        if let (Some(TimerKind::Toggle), generation) = untoken(t) {
            if generation == self.toggle_gen {
                self.on = !self.on;
                self.toggles += 1;
                let delta = if self.on {
                    self.peak_rate_bps
                } else {
                    -self.peak_rate_bps
                };
                ctx.add_fluid_rate(self.link, delta);
                self.schedule_toggle(ctx);
            }
        }
    }

    fn progress(&self) -> FlowProgress {
        FlowProgress::default()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::queue::QueueDisc;

    use lossburst_netsim::time::SimTime;

    #[test]
    fn average_rate_is_close_to_target() {
        let mut bld = SimBuilder::new(99);
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            100_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(10_000),
        );
        let mut sim = bld.build();
        // Target 1 Mbps average with 100/100 ms on/off.
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(OnOff::with_average_rate(
                a,
                b,
                500,
                1_000_000.0,
                SimDuration::from_millis(100),
                SimDuration::from_millis(100),
            )),
        );
        let horizon = 200.0;
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(horizon as u64));
        let onoff = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<OnOff>()
            .unwrap();
        let rate = onoff.packets_sent as f64 * 500.0 * 8.0 / horizon;
        assert!(
            (rate - 1e6).abs() < 0.15e6,
            "measured average {rate:.0} bps, wanted ~1 Mbps"
        );
    }

    #[test]
    fn long_run_rate_converges_to_duty_cycle_formula() {
        // The doc-comment claim — average rate = peak * on / (on + off) —
        // verified from the *peak* parameterization over a long horizon.
        // This is the calibration anchor the fluid envelope must match.
        let mut bld = SimBuilder::new(2006);
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            100_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(10_000),
        );
        let mut sim = bld.build();
        let peak = 4_000_000.0;
        let mean_on = SimDuration::from_millis(100);
        let mean_off = SimDuration::from_millis(300); // asymmetric duty: 25%
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(OnOff::new(a, b, 1000, peak, mean_on, mean_off)),
        );
        let horizon = 500.0;
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(horizon as u64));
        let onoff = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<OnOff>()
            .unwrap();
        let measured = onoff.packets_sent as f64 * 1000.0 * 8.0 / horizon;
        let expected = peak * 0.25;
        let rel = (measured - expected).abs() / expected;
        assert!(
            rel < 0.05,
            "measured {measured:.0} bps vs expected {expected:.0} bps ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn fluid_envelope_integrates_to_the_same_average_rate() {
        // The fluid twin, seeded identically, must deliver the same long-run
        // byte volume into the link's fluid state that the packet source's
        // duty-cycle formula predicts.
        let mut bld = SimBuilder::new(2006);
        let a = bld.host();
        let b = bld.host();
        let (ab, _) = bld.duplex(
            a,
            b,
            100_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(10_000),
        );
        bld.fluid_link(ab, 1000.0);
        let peak = 4_000_000.0;
        let mean_on = SimDuration::from_millis(100);
        let mean_off = SimDuration::from_millis(300);
        let f = FluidOnOff::new(ab, peak, mean_on, mean_off);
        let flow = bld.flow(a, b, SimTime::ZERO, Box::new(f));
        let mut sim = bld.build();
        let horizon = 500.0;
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(horizon as u64));
        // Settle the lazy integration to the horizon with a no-op delta.
        let now = sim.now;
        sim.links[ab.index()].add_fluid_rate(now, 0.0);
        let fluid = sim.links[ab.index()].fluid().unwrap();
        let measured = fluid.arrived_bytes * 8.0 / horizon;
        let rel = (measured - 1_000_000.0).abs() / 1_000_000.0;
        assert!(
            rel < 0.05,
            "fluid arrived {measured:.0} bps vs expected 1 Mbps ({:.1}% off)",
            rel * 100.0
        );
        let src = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<FluidOnOff>()
            .unwrap();
        assert!(src.toggles > 100, "toggle process barely ran");
        assert_eq!(
            sim.event_counts().rate_changes,
            src.toggles,
            "every toggle must reach the link as a rate change"
        );
    }

    #[test]
    fn off_periods_produce_gaps() {
        let mut bld = SimBuilder::new(7);
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            100_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(10_000),
        );
        let mut sim = bld.build();
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(OnOff::new(
                a,
                b,
                500,
                10_000_000.0, // peak 10 Mbps: 0.4 ms per packet
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            )),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        let onoff = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<OnOff>()
            .unwrap();
        // Roughly half the time ON at 2500 pkt/s -> ~25k packets in 20 s;
        // if OFF periods were ignored we'd see ~50k.
        let sent = onoff.packets_sent;
        assert!(
            (15_000..=35_000).contains(&sent),
            "sent {sent}, duty cycle looks wrong"
        );
    }
}
