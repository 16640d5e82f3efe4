//! Behaviour tests for delay-based congestion control (the paper's
//! reference [23], FAST TCP): [`Sender::fast`].
//!
//! The paper's closing suggestion is to sidestep the loss-burstiness problem
//! entirely by using queueing *delay* as the congestion signal: every flow
//! observes the queue continuously, so the signal is not a rare bursty event
//! that only some flows witness. The FAST window law lives in
//! [`crate::cc::fast`] and runs over the unified [`Sender`] core, which
//! drives the once-per-RTT update through the controller's clock tick.

use crate::config::TcpConfig;
use crate::sender::Sender;

mod tests {
    use super::*;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::iface::Transport;
    use lossburst_netsim::queue::QueueDisc;
    use lossburst_netsim::time::{SimDuration, SimTime};
    use lossburst_netsim::trace::TraceConfig;

    #[test]
    fn delay_flow_stabilizes_near_alpha_queued_packets() {
        let mut bld = SimBuilder::new(13).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        // 10 Mbps, 20 ms one-way: BDP ≈ 50 packets of 1040 B round trip.
        bld.duplex(
            a,
            b,
            10_000_000.0,
            SimDuration::from_millis(20),
            QueueDisc::drop_tail(500),
        );
        let mut sim = bld.build();
        let flow = sim.add_flow(
            SimTime::ZERO,
            Box::new(Sender::fast(a, b, TcpConfig::default(), 10.0, 0.5)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        let t = sim.flow(flow);
        // Equilibrium window ≈ BDP + alpha ≈ 48 + 10. Allow slack.
        assert!(
            (40.0..80.0).contains(&t.cwnd()),
            "cwnd {} not near equilibrium",
            t.cwnd()
        );
        // Delay-based control should not overflow this deep buffer.
        assert_eq!(sim.total_drops(), 0);
    }

    #[test]
    fn bulk_transfer_completes() {
        let mut bld = SimBuilder::new(14).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            10_000_000.0,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(200),
        );
        let mut sim = bld.build();
        let flow = sim.add_flow(
            SimTime::ZERO,
            Box::new(Sender::fast(a, b, TcpConfig::default(), 8.0, 0.5).with_limit_bytes(500_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        assert!(sim.flow(flow).is_done());
        assert_eq!(sim.flow(flow).progress().bytes_delivered, 500_000);
    }
}
