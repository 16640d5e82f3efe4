//! Property-style tests of the transport layer, driven by seeded
//! pseudo-random sweeps (deterministic: every case is a fixed function of
//! its seed, so a failure reproduces exactly).

use lossburst_netsim::packet::Packet;
use lossburst_netsim::prelude::*;
use lossburst_testkit::sweep::{sweep, with_rng, RngExt};
use lossburst_transport::prelude::*;
use lossburst_transport::receiver::TcpReceiver;
use lossburst_transport::timer::{token, untoken, TimerKind};

/// The RTT estimator: srtt stays within the range of observed samples,
/// and the RTO never drops below the configured minimum.
#[test]
fn rtt_estimator_bounds() {
    sweep(0x277E, 50, |case, gen| {
        let n = gen.random_range(1..100usize);
        let samples: Vec<u64> = (0..n).map(|_| gen.random_range(1..2_000_000u64)).collect();
        let min_rto = SimDuration::from_millis(200);
        let mut est = RttEstimator::new(SimDuration::from_secs(1), min_rto);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &us in &samples {
            est.on_sample(SimDuration::from_micros(us));
            lo = lo.min(us);
            hi = hi.max(us);
        }
        let srtt = est.srtt().unwrap().as_nanos();
        assert!(
            srtt >= lo * 1000 && srtt <= hi * 1000,
            "srtt {srtt} outside sample range [{}, {}] (case {case})",
            lo * 1000,
            hi * 1000
        );
        assert!(est.rto() >= min_rto);
    });
}

/// The TCP receiver's cumulative ACK is monotone and never exceeds the
/// highest delivered-prefix under an arbitrary arrival order.
#[test]
fn receiver_ack_is_monotone() {
    sweep(0xACC0, 50, |case, gen| {
        let n = gen.random_range(1..200usize);
        let mut seqs: Vec<u64> = (0..n).map(|_| gen.random_range(0..64u64)).collect();
        let mut rx = TcpReceiver::default();
        let mut prev_ack = 0u64;
        let mut delivered = std::collections::HashSet::new();
        for &s in &seqs {
            delivered.insert(s);
            let info = rx.on_data(&Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, s));
            assert!(info.ack >= prev_ack, "ack went backwards (case {case})");
            prev_ack = info.ack;
            // ack-1 must be the contiguous delivered prefix.
            for k in 0..info.ack {
                assert!(delivered.contains(&k), "acked undelivered seq {k}");
            }
            // SACK blocks never overlap the acked prefix and are sorted
            // within themselves.
            for (a, b) in info.sack.iter().copied().filter(|&(a, b)| b > a) {
                assert!(a >= info.ack, "sack block below cumulative ack");
                assert!(b > a);
            }
        }
        // Deliver everything: ack must reach max+1.
        seqs.sort_unstable();
        let max = *seqs.last().unwrap();
        for s in 0..=max {
            rx.on_data(&Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, s));
        }
        assert_eq!(rx.rcv_nxt(), max + 1);
    });
}

/// Timer tokens round-trip through encode/decode for every kind and
/// generation.
#[test]
fn timer_tokens_round_trip() {
    let kinds = [
        TimerKind::Rto,
        TimerKind::Send,
        TimerKind::Feedback,
        TimerKind::NoFeedback,
        TimerKind::Toggle,
        TimerKind::WindowUpdate,
    ];
    with_rng(0x707E, |gen| {
        for _ in 0..200 {
            let generation = gen.random_range(0..1u64 << 50);
            let kind = kinds[gen.random_range(0..kinds.len())];
            let (k, g) = untoken(token(kind, generation));
            assert_eq!(k, Some(kind));
            assert_eq!(g, generation);
        }
    });
}

fn two_hosts(seed: u64, buffer: usize) -> (SimBuilder, NodeId, NodeId) {
    let mut b = SimBuilder::new(seed);
    let src = b.host();
    let dst = b.host();
    b.duplex(
        src,
        dst,
        2e6,
        SimDuration::from_millis(5),
        QueueDisc::drop_tail(buffer),
    );
    (b, src, dst)
}

/// Both go-back-N senders (NewReno, bursty and paced) finish any small
/// transfer over any lossy-enough link eventually, delivering exactly the
/// requested payload.
#[test]
fn go_back_n_senders_complete_transfers() {
    sweep(0x7C9, 9, |case, gen| {
        let paced = case % 2 == 1;
        let seed = gen.random_range(0..300u64);
        let kb = gen.random_range(1..64u64);
        let buffer = gen.random_range(3..20usize);

        let (mut b, src, dst) = two_hosts(seed, buffer);
        let bytes = kb * 1024;
        let tcp = if paced {
            Sender::pacing(src, dst, TcpConfig::default(), SimDuration::from_millis(10))
        } else {
            Sender::newreno(src, dst, TcpConfig::default())
        };
        let f = b.flow(SimTime::ZERO, Box::new(tcp.with_limit_bytes(bytes)));
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(900));
        let tcp = sim.flow(f);
        assert!(tcp.is_done(), "paced {paced} stalled (case {case})");
        assert!(tcp.progress().bytes_delivered >= bytes);
    });
}

/// SACK TCP also always completes, and never delivers less than asked.
#[test]
fn sack_always_completes() {
    sweep(0x5ACC, 8, |_case, gen| {
        let seed = gen.random_range(0..300u64);
        let kb = gen.random_range(1..64u64);
        let buffer = gen.random_range(3..20usize);

        let (mut b, src, dst) = two_hosts(seed, buffer);
        let bytes = kb * 1024;
        let f = b.flow(
            SimTime::ZERO,
            Box::new(Sender::sack(src, dst, TcpConfig::default()).with_limit_bytes(bytes)),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(900));
        let tcp = sim.flow(f);
        assert!(
            tcp.is_done(),
            "SACK stalled (seed {seed}, {kb} KB, buf {buffer})"
        );
        assert!(tcp.progress().bytes_delivered >= bytes);
    });
}

/// CBR accounting: sent = received + lost, and nominal send times are
/// exactly interval-spaced.
#[test]
fn cbr_accounting() {
    sweep(0xCB4, 8, |_case, gen| {
        let seed = gen.random_range(0..200u64);
        let pps = gen.random_range(10.0..500.0);
        let buffer = gen.random_range(1..10usize);

        let mut b = SimBuilder::new(seed);
        let src = b.host();
        let dst = b.host();
        b.link(
            src,
            dst,
            100_000.0,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(buffer),
        );
        let f = b.flow(
            SimTime::ZERO,
            Box::new(
                Cbr::new(src, dst, 200, pps * 200.0 * 8.0)
                    .with_limit(200)
                    .streaming(),
            ),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
        let cbr = sim.flow(f);
        assert_eq!(cbr.sent(), 200);
        assert_eq!(cbr.received() + cbr.lost_seqs().len() as u64, 200);
        if let (Some(t0), Some(t5)) = (cbr.nominal_send_time(0), cbr.nominal_send_time(5)) {
            let gap = (t5 - t0).as_secs_f64();
            assert!((gap - 5.0 * cbr.interval().as_secs_f64()).abs() < 1e-9);
        }
    });
}
