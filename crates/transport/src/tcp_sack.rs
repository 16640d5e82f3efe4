//! Behaviour tests for SACK TCP (RFC 2018 blocks + an RFC 6675-style
//! scoreboard sender): [`Sender::sack`], the unified sender core with its
//! [`crate::sender::RepairKind::Sack`] repair path under the NewReno-style
//! halving of [`crate::cc::reno::RenoConfig::sack`].

use crate::config::TcpConfig;
use crate::sender::Sender;
use lossburst_netsim::packet::NodeId;

mod tests {
    use super::*;
    use crate::sender::SackState;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::queue::QueueDisc;
    use lossburst_netsim::sim::Simulator;
    use lossburst_netsim::time::{SimDuration, SimTime};
    use lossburst_netsim::trace::TraceConfig;

    fn net(buffer: usize, seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut bld = SimBuilder::new(seed).trace(TraceConfig::all());
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
    fn lossless_transfer_completes() {
        let (mut sim, a, b) = net(1000, 1);
        let f = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::sack(a, b, TcpConfig::default()).with_limit_bytes(500_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
        let e = &sim.flows[f.index()];
        assert!(e.transport.is_done());
        assert_eq!(e.transport.progress().retransmits, 0);
    }

    #[test]
    fn lossy_transfer_completes_and_uses_sack() {
        let (mut sim, a, b) = net(8, 2);
        let f = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Sender::sack(a, b, TcpConfig::default()).with_limit_bytes(2_000_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
        let e = &sim.flows[f.index()];
        assert!(e.transport.is_done(), "SACK transfer stalled");
        assert_eq!(e.transport.progress().bytes_delivered, 2_000_000);
        assert!(sim.total_drops() > 0);
        assert!(e.transport.progress().retransmits > 0);
    }

    #[test]
    fn sack_beats_newreno_on_high_bdp_paths() {
        // 50 Mbps, 100 ms RTT (BDP ~600 packets), small buffer: slow-start
        // overshoot drops many packets from one window, exactly where
        // selective repair helps. Identical path and seed for both.
        let run = |sack: bool| {
            let mut bld = SimBuilder::new(3).trace(TraceConfig::all());
            let a = bld.host();
            let b = bld.host();
            bld.duplex(
                a,
                b,
                50_000_000.0,
                SimDuration::from_millis(50),
                QueueDisc::drop_tail(60),
            );
            let mut sim = bld.build();
            let bytes = 8 * 1024 * 1024;
            let transport = if sack {
                Sender::sack(a, b, TcpConfig::default())
            } else {
                Sender::newreno(a, b, TcpConfig::default())
            };
            let f = sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(transport.with_limit_bytes(bytes)),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
            let e = &sim.flows[f.index()];
            assert!(e.transport.is_done(), "transfer stalled (sack={sack})");
            e.completed_at.unwrap().as_secs_f64()
        };
        let sack_time = run(true);
        let nr_time = run(false);
        assert!(
            sack_time < nr_time,
            "SACK ({sack_time:.2}s) should beat NewReno ({nr_time:.2}s) at high BDP"
        );
    }

    #[test]
    fn scoreboard_pipe_math() {
        let mut t = Sender::sack(NodeId(0), NodeId(1), TcpConfig::default());
        t.next_seq = 10;
        t.high_ack = 2;
        let sb: &mut SackState = t.sack.as_mut().unwrap();
        sb.rtx_next = 2;
        sb.sacked.insert_range(4, 6);
        sb.sacked.insert(7);
        // Outstanding 8, SACKed 3; highest SACK = 7, so seqs in [2, 5) with
        // 3 SACKed above and unsacked ({2, 3}) are judged lost: pipe = 3.
        assert_eq!(sb.pipe(10, 2), 8 - 3 - 2);
        sb.recovery_point = Some(10);
        sb.rtx_next = 2;
        assert_eq!(sb.next_hole(2), Some(2));
        sb.rtx_next = 4;
        assert_eq!(sb.next_hole(2), Some(6));
        sb.rtx_next = 8;
        assert_eq!(sb.next_hole(2), Some(8));
        sb.rtx_next = 10;
        assert_eq!(sb.next_hole(2), None);
    }
}
