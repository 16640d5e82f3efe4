//! Bit-level pins of every sender `CcAlgorithm::build_flow` composes.
//!
//! Each case runs one bulk flow of the algorithm under test beside one
//! unlimited NewReno flow over a lossy droptail dumbbell (10 Mbps, 20
//! packets of buffer, 40 ms RTT: both flows overshoot in slow start and
//! keep losing packets after), plus NewReno with a 200 ms minimum RTO and
//! NewReno with ECN over a persistent-ECN bottleneck. A fixed RTT draws
//! nothing from the RNG, so the runs are exact. What is pinned: every
//! `FlowProgress` field of both flows, the tested flow's `Sender::timeouts`
//! (`None` for TFRC, which is no `Sender`), its completion time in
//! nanoseconds and the forward bottleneck's drop count. A change to how a
//! sender is built or how it repairs losses moves these numbers; a change
//! that only reorganises the code does not.

use lossburst_netsim::prelude::*;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::sender::Sender;
use std::any::Any;

/// Bytes the tested flow transfers (TFRC ignores the limit).
const TRANSFER_BYTES: u64 = 3_000_000;

/// What one run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// The tested flow's `FlowProgress`: bytes delivered, packets sent,
    /// retransmits, loss events, timeouts.
    tested: [u64; 5],
    /// The competing NewReno flow's `FlowProgress`, same order.
    competitor: [u64; 5],
    /// `Sender::timeouts` of the tested flow.
    sender_timeouts: Option<u64>,
    /// When the tested flow completed, in nanoseconds.
    completed_ns: Option<u64>,
    /// Packets the forward bottleneck dropped.
    drops: u64,
}

fn fields(p: FlowProgress) -> [u64; 5] {
    [
        p.bytes_delivered,
        p.packets_sent,
        p.retransmits,
        p.loss_events,
        p.timeouts,
    ]
}

fn run(alg: CcAlgorithm, spec: &FlowSpec, disc: QueueDisc) -> Pin {
    let mut b = SimBuilder::new(2006);
    let mut cfg =
        DumbbellConfig::paper_baseline(2, 20, RttAssignment::Fixed(SimDuration::from_millis(40)));
    cfg.bottleneck_bps = 10e6;
    cfg.bottleneck_disc = disc;
    let d = build_dumbbell(&mut b, &cfg);
    let tested = b.flow(
        SimTime::ZERO,
        alg.build_flow(d.senders[0], d.receivers[0], spec),
    );
    let competitor = b.flow(
        SimTime::ZERO,
        CcAlgorithm::NewReno.build_flow(
            d.senders[1],
            d.receivers[1],
            &FlowSpec::new(SimDuration::from_millis(40)),
        ),
    );
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(12));
    let flow = sim.flow(tested);
    let as_any: &dyn Any = flow;
    Pin {
        tested: fields(flow.progress()),
        competitor: fields(sim.flow(competitor).progress()),
        sender_timeouts: as_any.downcast_ref::<Sender>().map(Sender::timeouts),
        completed_ns: sim
            .completed_at(tested)
            .map(|t| t.since(SimTime::ZERO).as_nanos()),
        drops: sim.links[d.bottleneck.0 as usize].stats.dropped,
    }
}

fn bulk_spec() -> FlowSpec {
    let mut spec = FlowSpec::new(SimDuration::from_millis(40));
    spec.limit_bytes = Some(TRANSFER_BYTES);
    spec
}

#[test]
fn every_algorithm_beside_newreno_is_pinned_to_the_bit() {
    let moved: Vec<String> = PINNED_ALGORITHMS
        .into_iter()
        .filter_map(|(alg, want)| {
            let got = run(alg, &bulk_spec(), QueueDisc::drop_tail(20));
            (got != want).then(|| format!("{}: run moved to {got:?}", alg.name()))
        })
        .collect();
    assert!(moved.is_empty(), "{moved:#?}");
}

#[test]
fn newreno_with_a_200_ms_minimum_rto_is_pinned_to_the_bit() {
    let mut spec = bulk_spec();
    spec.tcp.min_rto = SimDuration::from_millis(200);
    let got = run(CcAlgorithm::NewReno, &spec, QueueDisc::drop_tail(20));
    assert_eq!(got, PINNED_MIN_RTO, "run moved to {got:?}");
}

#[test]
fn newreno_with_ecn_over_persistent_ecn_is_pinned_to_the_bit() {
    let mut spec = bulk_spec();
    spec.tcp.ecn = true;
    let disc = QueueDisc::persistent_ecn(20, 5, SimDuration::from_millis(40));
    let got = run(CcAlgorithm::NewReno, &spec, disc);
    assert_eq!(got, PINNED_ECN, "run moved to {got:?}");
}

const fn pin(
    tested: [u64; 5],
    competitor: [u64; 5],
    sender_timeouts: Option<u64>,
    completed_ns: Option<u64>,
    drops: u64,
) -> Pin {
    Pin {
        tested,
        competitor,
        sender_timeouts,
        completed_ns,
        drops,
    }
}

#[rustfmt::skip]
const PINNED_ALGORITHMS: [(CcAlgorithm, Pin); 7] = [
    (CcAlgorithm::NewReno, pin([3000000, 3015, 15, 5, 0], [9998000, 10131, 31, 9, 0], Some(0), Some(4948978240), 46)),
    (CcAlgorithm::Pacing, pin([3000000, 3011, 11, 5, 0], [9595000, 9752, 111, 12, 1], Some(0), Some(5695797873), 52)),
    (CcAlgorithm::Sack, pin([3000000, 3099, 99, 6, 0], [9969000, 10064, 30, 8, 0], Some(0), Some(5513041920), 48)),
    (CcAlgorithm::Cubic, pin([3000000, 3115, 115, 10, 2], [10006000, 10082, 30, 8, 0], Some(2), Some(9326235200), 74)),
    (CcAlgorithm::Bbr, pin([3000000, 3291, 291, 9, 2], [9925000, 10093, 114, 13, 1], Some(2), Some(3996779823), 133)),
    (CcAlgorithm::Fast, pin([1812000, 2816, 910, 26, 6], [9048000, 9195, 122, 13, 1], Some(6), None, 606)),
    (CcAlgorithm::Tfrc, pin([6516000, 6557, 0, 252, 0], [5861000, 6057, 169, 20, 2], None, None, 103)),
];

const PINNED_MIN_RTO: Pin = pin(
    [3000000, 3045, 45, 10, 1],
    [9554000, 9628, 31, 9, 0],
    Some(1),
    Some(5964486720),
    47,
);

const PINNED_ECN: Pin = pin(
    [1416000, 1418, 0, 231, 0],
    [11625000, 11782, 100, 10, 1],
    Some(0),
    None,
    39,
);
