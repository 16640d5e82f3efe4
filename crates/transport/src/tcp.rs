//! Behaviour tests for loss-based window TCP (Reno/NewReno/Tahoe and TCP
//! Pacing) over the unified [`Sender`]: the [`crate::sender`] core owns the
//! mechanics (sequencing, loss detection, timers) and a
//! [`crate::cc::Controller`] owns the window law.
//!
//! The window/rate distinction the paper draws (Section 4.1) is the
//! [`SendMode`] axis of the sender:
//!
//! * a **window-based** sender ([`SendMode::Burst`]) transmits
//!   `w(t) − pif(t)` packets back-to-back the moment the window opens;
//! * a **rate-based** sender ([`SendMode::Paced`]) spreads the same window
//!   evenly over the RTT, releasing one packet every `srtt / cwnd`.

use crate::sender::{RenoVariant, SendMode, Sender};

mod tests {
    use super::*;
    use crate::config::TcpConfig;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::iface::Transport;
    use lossburst_netsim::packet::NodeId;
    use lossburst_netsim::queue::QueueDisc;
    use lossburst_netsim::sim::Simulator;
    use lossburst_netsim::time::{SimDuration, SimTime};
    use lossburst_netsim::trace::TraceConfig;

    /// Two hosts joined by a duplex link: 8 Mbps, 10 ms one-way.
    fn simple_net(buffer: usize) -> (Simulator, NodeId, NodeId) {
        let mut bld = SimBuilder::new(11).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            8_000_000.0,
            SimDuration::from_millis(10),
            QueueDisc::drop_tail(buffer),
        );
        let sim = bld.build();
        (sim, a, b)
    }

    #[test]
    fn lossless_bulk_transfer_completes() {
        let (mut sim, a, b) = simple_net(1000);
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(200_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let entry = &sim.flows[flow.index()];
        assert!(entry.transport.is_done(), "transfer did not finish");
        let p = entry.transport.progress();
        assert_eq!(p.bytes_delivered, 200_000);
        assert_eq!(p.retransmits, 0, "no losses expected");
        assert_eq!(sim.total_drops(), 0);
    }

    #[test]
    fn slow_start_doubles_window_each_rtt() {
        let (mut sim, a, b) = simple_net(1000);
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::newreno(a, b, TcpConfig::default())),
        );
        // RTT ≈ 21 ms. After ~4 RTTs of slow start cwnd should be ≈ 2^5.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(90));
        let tcp = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Sender>()
            .unwrap();
        assert!(
            tcp.cwnd() >= 16.0 && tcp.cwnd() <= 64.0,
            "cwnd {} after ~4 RTTs",
            tcp.cwnd()
        );
    }

    #[test]
    fn loss_triggers_fast_retransmit_not_timeout() {
        // Small buffer so slow start overflows it quickly.
        let (mut sim, a, b) = simple_net(10);
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(2_000_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let entry = &sim.flows[flow.index()];
        assert!(entry.transport.is_done());
        let tcp = entry.transport.as_any().downcast_ref::<Sender>().unwrap();
        assert!(sim.total_drops() > 0, "buffer should have overflowed");
        assert!(tcp.retransmits > 0);
        assert!(
            tcp.loss_events >= 1,
            "sender must have detected the loss events"
        );
        // All drops recovered via fast retransmit in this gentle scenario.
        assert_eq!(
            tcp.progress().bytes_delivered,
            2_000_000,
            "delivered exactly the requested bytes"
        );
    }

    #[test]
    fn throughput_is_near_link_rate() {
        let (mut sim, a, b) = simple_net(100);
        // 8 Mbps * 10 s = 10 MB ceiling; ask for 4 MB.
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(4_000_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let entry = &sim.flows[flow.index()];
        assert!(entry.transport.is_done());
        let secs = entry.completed_at.unwrap().as_secs_f64();
        let rate = 4_000_000.0 * 8.0 / secs;
        // Expect at least 60% of the 8 Mbps link (overheads + recovery).
        assert!(
            rate > 0.6 * 8e6,
            "goodput {:.2} Mbps too low (took {secs:.1}s)",
            rate / 1e6
        );
    }

    #[test]
    fn paced_sender_spreads_packets() {
        // Clamp the window to 10 packets on a fast link with RTT 20 ms.
        // A window-based sender then emits 10 back-to-back packets per RTT
        // (ack arrivals cluster at the bottleneck serialization time,
        // ~0.1 ms), while a paced sender spreads them ~2 ms apart. The
        // fraction of sub-millisecond gaps between goodput events cleanly
        // separates the two.
        let run = |mode: SendMode| {
            let mut bld = SimBuilder::new(11).trace(TraceConfig::all());
            let a = bld.host();
            let b = bld.host();
            bld.duplex(
                a,
                b,
                100_000_000.0,
                SimDuration::from_millis(10),
                QueueDisc::drop_tail(4000),
            );
            let mut sim = bld.build();
            let cfg = TcpConfig {
                max_cwnd: 10.0,
                ..Default::default()
            };
            sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(Sender::new(a, b, cfg, RenoVariant::NewReno, mode)),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
            let evs: Vec<f64> = sim
                .trace
                .goodput
                .iter()
                .filter(|e| e.time.as_secs_f64() > 1.0)
                .map(|e| e.time.as_secs_f64())
                .collect();
            assert!(
                evs.len() > 100,
                "expected steady progress, got {}",
                evs.len()
            );
            let gaps: Vec<f64> = evs.windows(2).map(|w| w[1] - w[0]).collect();
            let tiny = gaps.iter().filter(|g| **g < 0.0005).count();
            tiny as f64 / gaps.len() as f64
        };
        let bursty = run(SendMode::Burst);
        let paced = run(SendMode::Paced {
            rtt_hint: SimDuration::from_millis(20),
        });
        assert!(
            bursty > 0.5,
            "window-based sender should cluster acks (got {bursty:.2})"
        );
        assert!(
            paced < 0.2,
            "paced sender should spread acks (got {paced:.2})"
        );
        assert!(paced < bursty);
    }

    #[test]
    fn reno_and_newreno_differ_on_partial_acks() {
        // Run both through an identical lossy start and compare recovery
        // counters; NewReno should see fewer timeouts on multi-loss windows.
        let run = |variant: RenoVariant| {
            let (mut sim, a, b) = simple_net(6);
            let flow = sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(
                    Sender::new(a, b, TcpConfig::default(), variant, SendMode::Burst)
                        .with_limit_bytes(1_000_000),
                ),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
            let entry = &sim.flows[flow.index()];
            assert!(entry.transport.is_done(), "{variant:?} did not finish");
            let tcp = entry.transport.as_any().downcast_ref::<Sender>().unwrap();
            (tcp.timeouts(), entry.completed_at.unwrap())
        };
        let (nr_timeouts, _) = run(RenoVariant::NewReno);
        let (r_timeouts, _) = run(RenoVariant::Reno);
        assert!(
            nr_timeouts <= r_timeouts,
            "NewReno ({nr_timeouts}) should not time out more than Reno ({r_timeouts})"
        );
    }

    #[test]
    fn tahoe_completes_and_slow_starts_after_loss() {
        let (mut sim, a, b) = simple_net(8);
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::tahoe(a, b, TcpConfig::default()).with_limit_bytes(1_000_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
        let entry = &sim.flows[flow.index()];
        assert!(entry.transport.is_done(), "Tahoe transfer stalled");
        let tcp = entry.transport.as_any().downcast_ref::<Sender>().unwrap();
        assert!(tcp.loss_events > 0);
        assert!(!tcp.in_recovery(), "Tahoe must never be in fast recovery");
        assert_eq!(entry.transport.progress().bytes_delivered, 1_000_000);
    }

    #[test]
    fn tahoe_is_not_faster_than_newreno_under_loss() {
        let run = |variant: RenoVariant| {
            let (mut sim, a, b) = simple_net(8);
            let f = sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(
                    Sender::new(a, b, TcpConfig::default(), variant, SendMode::Burst)
                        .with_limit_bytes(1_500_000),
                ),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
            assert!(sim.flows[f.index()].transport.is_done());
            sim.flows[f.index()].completed_at.unwrap().as_secs_f64()
        };
        let tahoe = run(RenoVariant::Tahoe);
        let newreno = run(RenoVariant::NewReno);
        assert!(
            tahoe >= newreno * 0.95,
            "Tahoe ({tahoe:.2}s) should not beat NewReno ({newreno:.2}s)"
        );
    }

    #[test]
    fn ecn_capable_flow_reacts_without_loss() {
        let mut bld = SimBuilder::new(5).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        // Persistent-ECN queue with a low mark threshold.
        bld.link(
            a,
            b,
            8_000_000.0,
            SimDuration::from_millis(10),
            QueueDisc::persistent_ecn(100, 5, SimDuration::from_millis(25)),
        );
        bld.link(
            b,
            a,
            8_000_000.0,
            SimDuration::from_millis(10),
            QueueDisc::drop_tail(100),
        );
        let mut sim = bld.build();
        let cfg = TcpConfig {
            ecn: true,
            ..Default::default()
        };
        let flow = sim.add_flow(a, b, SimTime::ZERO, Box::new(Sender::newreno(a, b, cfg)));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let tcp = sim.flows[flow.index()]
            .transport
            .as_any()
            .downcast_ref::<Sender>()
            .unwrap();
        assert!(tcp.loss_events > 0, "ECN echoes should cause back-off");
        assert_eq!(sim.total_drops(), 0, "no packets should be dropped");
        assert!(!sim.trace.marks.is_empty() || sim.links[0].stats.marked > 0);
    }

    #[test]
    fn delayed_acks_halve_ack_traffic_without_breaking_transfer() {
        let run = |ack_every: u32| {
            let (mut sim, a, b) = simple_net(1000);
            let cfg = TcpConfig {
                ack_every,
                ..Default::default()
            };
            let f = sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(Sender::newreno(a, b, cfg).with_limit_bytes(500_000)),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
            assert!(sim.flows[f.index()].transport.is_done());
            // ACKs are the packets on the reverse link (link index 1).
            sim.links[1].stats.transmitted
        };
        let acks_every = run(1);
        let acks_delayed = run(2);
        assert!(
            (acks_delayed as f64) < 0.7 * acks_every as f64,
            "delayed ACKs should cut reverse traffic: {acks_delayed} vs {acks_every}"
        );
    }

    #[test]
    fn bulk_limit_rounds_up_to_whole_segments() {
        let t = Sender::newreno(NodeId(0), NodeId(1), TcpConfig::default()).with_limit_bytes(1500);
        assert_eq!(t.limit, Some(2));
        let t2 = Sender::newreno(NodeId(0), NodeId(1), TcpConfig::default()).with_limit_bytes(1);
        assert_eq!(t2.limit, Some(1));
    }
}
