//! Deterministic failure injection: drive the TCP variants through exact
//! loss patterns with [`lossburst_netsim::queue::DropScript`] and check
//! each recovery path fires as designed.

use lossburst_netsim::prelude::*;
use lossburst_transport::prelude::*;
use std::any::Any;

/// Two hosts, data path with a drop script, clean ACK path.
fn scripted_net(script: DropScript) -> (Simulator, NodeId, NodeId) {
    let mut bld = SimBuilder::new(1).trace(TraceConfig::all());
    let a = bld.host();
    let b = bld.host();
    bld.link(
        a,
        b,
        8_000_000.0,
        SimDuration::from_millis(10),
        QueueDisc::scripted(10_000, script),
    );
    bld.link(
        b,
        a,
        8_000_000.0,
        SimDuration::from_millis(10),
        QueueDisc::drop_tail(10_000),
    );
    (bld.build(), a, b)
}

fn run_tcp(sim: &mut Simulator, tcp: Sender, horizon_s: u64) -> FlowHandle<Sender> {
    let f = sim.add_flow(SimTime::ZERO, Box::new(tcp));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(horizon_s));
    f
}

#[test]
fn single_loss_is_repaired_by_fast_retransmit() {
    // Drop the 5th data arrival only. With a healthy window behind it,
    // three dupacks repair it without any timeout.
    let (mut sim, a, b) = scripted_net(DropScript::at([4]));
    let f = run_tcp(
        &mut sim,
        Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(100_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done());
    assert_eq!(t.timeouts(), 0, "fast retransmit should have repaired it");
    assert_eq!(t.progress().retransmits, 1);
    assert_eq!(t.progress().loss_events, 1);
}

#[test]
fn loss_of_retransmission_falls_back_to_rto() {
    // Drop the first TWO copies of seq 4: the original transmission and
    // NewReno's fast retransmission. Only the retransmission timer can then
    // finish the job.
    let (mut sim, a, b) = scripted_net(DropScript::seqs([(4u64, 2u32)]));
    let f = run_tcp(
        &mut sim,
        Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(60_000),
        60,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "must recover via RTO eventually");
    assert!(t.timeouts() >= 1, "expected an RTO fallback");
    assert_eq!(t.progress().bytes_delivered, 60_000);
}

#[test]
fn tail_loss_recovers_by_timeout() {
    // A 10-packet transfer whose last two packets are dropped: no dupacks
    // possible, only the RTO can finish the job.
    let (mut sim, a, b) = scripted_net(DropScript::at([8, 9]));
    let f = run_tcp(
        &mut sim,
        Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(10_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "tail loss not recovered");
    assert!(t.timeouts() >= 1);
    // Completion takes at least the 1 s minimum RTO.
    assert!(sim.completed_at(f).unwrap().as_secs_f64() >= 1.0);
}

#[test]
fn sack_survives_a_comb_loss_pattern() {
    // Drop every third arrival among 30: a comb that punches many separate
    // holes in one window — SACK's worst-friendly case.
    let drops: Vec<u64> = (0..30u64).filter(|i| i % 3 == 2).collect();
    let (mut sim, a, b) = scripted_net(DropScript::at(drops));
    let f = sim.add_flow(
        SimTime::ZERO,
        Box::new(Sender::sack(a, b, TcpConfig::default()).with_limit_bytes(100_000)),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let tcp = sim.flow(f);
    assert!(tcp.is_done(), "SACK did not survive the comb");
    assert_eq!(tcp.progress().bytes_delivered, 100_000);
    assert_eq!(sim.total_drops(), 10);
}

#[test]
fn ack_path_loss_is_tolerated_by_cumulative_acks() {
    // Drop a large fraction of ACKs instead of data: cumulative acking
    // means later ACKs cover earlier ones, so the transfer still completes
    // without data retransmissions (at most the tail needs a timeout).
    let mut bld = SimBuilder::new(1).trace(TraceConfig::all());
    let a = bld.host();
    let b = bld.host();
    bld.link(
        a,
        b,
        8_000_000.0,
        SimDuration::from_millis(10),
        QueueDisc::drop_tail(10_000),
    );
    // Drop every other ACK.
    let acks_to_drop: Vec<u64> = (0..200u64).filter(|i| i % 2 == 0).collect();
    bld.link(
        b,
        a,
        8_000_000.0,
        SimDuration::from_millis(10),
        QueueDisc::scripted(10_000, DropScript::at(acks_to_drop)),
    );
    let mut sim = bld.build();
    let f = sim.add_flow(
        SimTime::ZERO,
        Box::new(Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(100_000)),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let tcp = sim.flow(f);
    assert!(tcp.is_done(), "ACK loss should not kill the transfer");
    assert_eq!(tcp.progress().bytes_delivered, 100_000);
}

#[test]
fn paced_tcp_single_loss_recovers_without_timeout() {
    // Pacing spreads transmissions across the RTT but must not weaken loss
    // recovery: a single dropped arrival still yields three dupacks and one
    // fast retransmission, no RTO.
    let (mut sim, a, b) = scripted_net(DropScript::at([4]));
    let f = run_tcp(
        &mut sim,
        Sender::pacing(a, b, TcpConfig::default(), SimDuration::from_millis(20))
            .with_limit_bytes(100_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "paced transfer stalled");
    assert_eq!(t.timeouts(), 0, "fast retransmit should have repaired it");
    assert_eq!(t.progress().retransmits, 1);
    assert_eq!(t.progress().loss_events, 1);
    assert_eq!(t.progress().bytes_delivered, 100_000);
}

#[test]
fn paced_tcp_tail_loss_falls_back_to_rto() {
    // The last two packets of a paced 10-packet transfer are dropped: no
    // dupacks are possible, so the pacer's RTO must finish the job.
    let (mut sim, a, b) = scripted_net(DropScript::at([8, 9]));
    let f = run_tcp(
        &mut sim,
        Sender::pacing(a, b, TcpConfig::default(), SimDuration::from_millis(20))
            .with_limit_bytes(10_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "paced tail loss not recovered");
    assert!(t.timeouts() >= 1, "expected an RTO fallback");
    assert_eq!(t.progress().bytes_delivered, 10_000);
    assert!(sim.completed_at(f).unwrap().as_secs_f64() >= 1.0);
}

#[test]
fn paced_tcp_survives_a_mid_transfer_burst() {
    // A contiguous 5-arrival burst in the middle of the window: the paced
    // sender must register the loss event(s), retransmit every hole, and
    // deliver the full payload.
    let (mut sim, a, b) = scripted_net(DropScript::at([10, 11, 12, 13, 14]));
    let f = run_tcp(
        &mut sim,
        Sender::pacing(a, b, TcpConfig::default(), SimDuration::from_millis(20))
            .with_limit_bytes(100_000),
        60,
    );
    let tcp = sim.flow(f);
    assert!(tcp.is_done(), "paced burst recovery failed");
    let p = tcp.progress();
    assert!(p.loss_events >= 1);
    assert!(p.retransmits >= 5, "every hole needs a retransmission");
    assert_eq!(p.bytes_delivered, 100_000);
}

#[test]
fn tfrc_backs_off_and_resumes_after_a_loss_burst() {
    // Drop a contiguous burst of nine data arrivals under a TFRC sender.
    // Recovery invariants: the WALI history registers the burst as at least
    // one loss event, the equation-driven rate stays finite and positive,
    // and delivery continues well past the burst.
    let (mut sim, a, b) = scripted_net(DropScript::at([50, 51, 52, 53, 54, 55, 56, 57, 58]));
    let f = sim.add_flow(
        SimTime::ZERO,
        Box::new(TfrcSender::new(a, b, 1000, SimDuration::from_millis(20))),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let t = sim.flow(f);
    assert!(
        t.loss_events() >= 1,
        "burst never registered as a loss event"
    );
    assert!(
        t.loss_event_rate() > 0.0,
        "loss-event rate must be positive after losses"
    );
    assert!(
        t.rate_bps().is_finite() && t.rate_bps() > 0.0,
        "allowed rate must stay finite and positive, got {}",
        t.rate_bps()
    );
    let p = t.progress();
    assert_eq!(sim.total_drops(), 9, "the script drops exactly the burst");
    assert!(
        p.bytes_delivered > 59 * 1000,
        "delivery stalled at the burst: {} bytes",
        p.bytes_delivered
    );
    assert!(
        p.packets_sent > 100,
        "sender stopped transmitting after back-off"
    );
}

#[test]
fn tfrc_feedback_starvation_halves_the_rate() {
    // Drop a long run of feedback packets on the reverse path: the
    // no-feedback timer must repeatedly halve the rate rather than let the
    // sender blast open-loop, and the sender must keep transmitting at its
    // floor rather than deadlock.
    let mut bld = SimBuilder::new(1).trace(TraceConfig::all());
    let a = bld.host();
    let b = bld.host();
    bld.link(
        a,
        b,
        8_000_000.0,
        SimDuration::from_millis(10),
        QueueDisc::drop_tail(10_000),
    );
    // Kill the first 400 reverse-path (feedback) arrivals.
    let fb_drops: Vec<u64> = (0..400u64).collect();
    bld.link(
        b,
        a,
        8_000_000.0,
        SimDuration::from_millis(10),
        QueueDisc::scripted(10_000, DropScript::at(fb_drops)),
    );
    let mut sim = bld.build();
    let f = sim.add_flow(
        SimTime::ZERO,
        Box::new(TfrcSender::new(a, b, 1000, SimDuration::from_millis(20))),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
    let t = sim.flow(f);
    let p = t.progress();
    assert!(p.packets_sent > 0, "sender never started");
    assert!(
        t.rate_bps() < 8_000_000.0 / 2.0,
        "starved sender should be far below the link rate, got {}",
        t.rate_bps()
    );
    assert!(
        t.rate_bps() > 0.0,
        "rate floor must keep the sender probing"
    );
}

#[test]
fn cubic_single_loss_backs_off_without_timeout() {
    // Conformance: CUBIC must register the loss as a congestion event
    // (multiplicative decrease, a new epoch anchored at w_max) and repair
    // it with fast retransmission, not an RTO.
    let (mut sim, a, b) = scripted_net(DropScript::at([4]));
    let f = run_tcp(
        &mut sim,
        Sender::cubic(a, b, TcpConfig::default()).with_limit_bytes(100_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "cubic transfer stalled");
    assert_eq!(t.timeouts(), 0, "fast retransmit should have repaired it");
    assert_eq!(t.progress().loss_events, 1);
    let cc: &dyn Any = t.controller();
    let cc = cc
        .downcast_ref::<lossburst_transport::cc::cubic::CubicCc>()
        .unwrap();
    assert!(
        cc.w_max() > 0.0,
        "the loss must have anchored a cubic epoch at w_max"
    );
    assert_eq!(t.progress().bytes_delivered, 100_000);
}

#[test]
fn cubic_tail_loss_falls_back_to_rto() {
    let (mut sim, a, b) = scripted_net(DropScript::at([8, 9]));
    let f = run_tcp(
        &mut sim,
        Sender::cubic(a, b, TcpConfig::default()).with_limit_bytes(10_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "cubic tail loss not recovered");
    assert!(t.timeouts() >= 1, "expected an RTO fallback");
    assert_eq!(t.progress().bytes_delivered, 10_000);
}

#[test]
fn bbr_single_loss_repairs_while_the_model_keeps_pacing() {
    // BBR treats loss as a repair problem, not a model input: the SACK
    // layer retransmits the hole while delivery samples keep feeding the
    // bandwidth filter, and no RTO fires.
    let (mut sim, a, b) = scripted_net(DropScript::at([4]));
    let f = run_tcp(
        &mut sim,
        Sender::bbr(a, b, TcpConfig::default(), SimDuration::from_millis(20))
            .with_limit_bytes(100_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "bbr transfer stalled");
    assert_eq!(t.timeouts(), 0, "selective repair should avoid the RTO");
    assert!(t.progress().loss_events >= 1);
    let cc: &dyn Any = t.controller();
    let cc = cc
        .downcast_ref::<lossburst_transport::cc::bbr::BbrCc>()
        .unwrap();
    assert!(
        cc.btlbw() > 0.0,
        "delivery-rate samples must have built a bandwidth model"
    );
    assert_eq!(t.progress().bytes_delivered, 100_000);
}

#[test]
fn bbr_tail_loss_recovers_by_timeout_and_collapses_the_window() {
    let (mut sim, a, b) = scripted_net(DropScript::at([8, 9]));
    let f = run_tcp(
        &mut sim,
        Sender::bbr(a, b, TcpConfig::default(), SimDuration::from_millis(20))
            .with_limit_bytes(10_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "bbr tail loss not recovered");
    assert!(t.timeouts() >= 1, "tail loss can only end in an RTO");
    assert_eq!(t.progress().bytes_delivered, 10_000);
}

#[test]
fn fast_controller_halves_its_window_on_loss() {
    // The delay-based controller still must answer packet loss: its
    // congestion-event hook halves the window, and go-back-N repair plus
    // the periodic window update finish the transfer.
    let (mut sim, a, b) = scripted_net(DropScript::at([4]));
    let f = run_tcp(
        &mut sim,
        Sender::fast(a, b, TcpConfig::default(), 8.0, 0.5).with_limit_bytes(100_000),
        30,
    );
    let t = sim.flow(f);
    assert!(t.is_done(), "fast transfer stalled");
    assert_eq!(t.timeouts(), 0, "single loss should not need the RTO");
    assert_eq!(t.progress().loss_events, 1);
    assert_eq!(t.progress().bytes_delivered, 100_000);
}

#[test]
fn identical_scripts_yield_identical_traces() {
    let run = || {
        let (mut sim, a, b) = scripted_net(DropScript::at([3, 7, 11, 30]));
        let f = run_tcp(
            &mut sim,
            Sender::newreno(a, b, TcpConfig::default()).with_limit_bytes(80_000),
            60,
        );
        (
            sim.events_processed,
            sim.trace.losses.len(),
            sim.completed_at(f),
        )
    };
    assert_eq!(run(), run());
}
