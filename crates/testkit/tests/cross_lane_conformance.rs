//! Three-way sim/emu/socket cross-validation conformance.
//!
//! For (NewReno, CUBIC, BBR) × seeds {1, 2006, 42}, the same
//! (controller, seed, loss-plan) triple runs through the netsim
//! two-host path and the stripped-down `emu::Testbed` dumbbell, gated
//! statistically by [`check_cross_lane_agreement`], and through the
//! `lossburst-sock` lane on a stepped clock, which must equal the netsim
//! lane exactly ([`check_stepped_lane_equals_netsim`]: no socket, no
//! sleep). The wall-clock part is one cell per controller: at seed 2006
//! the lane also runs over real UDP loopback and joins the statistical
//! gate as the third lane, with per-lane Gilbert-parameter recovery.
//!
//! Environments that forbid loopback sockets skip the real-socket cells
//! with a visible notice. Perturbation tests prove the gate can fail (a
//! lane replaying the wrong plan, a lane with a mis-scaled path), and a
//! determinism test pins the real-socket lane's drop ledger byte-for-byte
//! across repeated runs.

use lossburst_analysis::gilbert::GilbertParams;
use lossburst_sock::lane::{self, socket_lane_available};
use lossburst_testkit::prelude::*;
use lossburst_transport::cc::CcAlgorithm;

const CROSS_LANE_SEEDS: [u64; 3] = [1, 2006, 42];

/// The seed whose cell also runs over real sockets, in wall-clock time.
const REAL_SOCKET_SEED: u64 = 2006;

fn run_triple(controller: CcAlgorithm) {
    let have_sockets = socket_lane_available();
    if !have_sockets {
        eprintln!(
            "NOTICE: loopback UDP unavailable; no real-socket cell for {}",
            controller.name()
        );
    }
    for seed in CROSS_LANE_SEEDS {
        let sc = CrossLaneScenario::quick(controller, seed);
        let plan = sc.plan();
        let mut lanes = vec![run_netsim_lane(&sc), run_emu_lane(&sc)];
        if have_sockets && seed == REAL_SOCKET_SEED {
            lanes.push(run_sock_lane(&sc).expect("socket lane run"));
        }
        check_cross_lane_agreement(
            &format!("{}:{seed}", controller.name()),
            &plan,
            &lanes,
            &CrossLaneTolerance::default(),
        )
        .unwrap();
        check_stepped_lane_equals_netsim(&sc).unwrap();
    }
}

#[test]
fn newreno_agrees_across_lanes() {
    run_triple(CcAlgorithm::NewReno);
}

#[test]
fn cubic_agrees_across_lanes() {
    run_triple(CcAlgorithm::Cubic);
}

#[test]
fn bbr_agrees_across_lanes() {
    run_triple(CcAlgorithm::Bbr);
}

/// A lane replaying a different (4x hotter) plan than the one the gate
/// was told about must be rejected by the plan-consistency check.
#[test]
fn gate_rejects_a_lane_replaying_the_wrong_plan() {
    let sc = CrossLaneScenario::quick(CcAlgorithm::NewReno, 2006);
    let mut hot = sc.clone();
    hot.gilbert = GilbertParams { p: 0.06, r: 0.4 };
    let bad = run_netsim_lane(&hot);
    let good = run_emu_lane(&sc);
    let err = check_cross_lane_agreement(
        "wrong-plan",
        &sc.plan(),
        &[bad, good],
        &CrossLaneTolerance::default(),
    )
    .expect_err("a lane off the shared plan must fail the gate");
    assert!(err.contains("not replaying"), "unexpected rejection: {err}");
}

/// A lane whose path is mis-scaled (bottleneck at a fifth of the rate)
/// replays the plan faithfully — so plan consistency and the Gilbert fit
/// pass — but its loss process diverges and the pairwise statistical
/// gate must catch it.
#[test]
fn gate_rejects_a_mis_scaled_lane() {
    let sc = CrossLaneScenario::quick(CcAlgorithm::NewReno, 2006);
    let mut slow = sc.clone();
    slow.rate_bps = sc.rate_bps / 5.0;
    let bad = run_netsim_lane(&slow);
    let good = run_emu_lane(&sc);
    let err = check_cross_lane_agreement(
        "mis-scaled",
        &sc.plan(),
        &[bad, good],
        &CrossLaneTolerance::default(),
    )
    .expect_err("a mis-scaled lane must fail the gate");
    // Depending on where the mis-scaling bites first the gate rejects on
    // queue-overflow drops off the plan, on divergent loss statistics,
    // or on a Gilbert fit over too short an arrival window.
    assert!(
        err.contains("not replaying")
            || err.contains("loss counts")
            || err.contains("too few losses")
            || err.contains("fractions disagree")
            || err.contains("fitted Gilbert"),
        "unexpected rejection: {err}"
    );
}

/// Identical seeds and loss plans must produce identical impairment
/// decisions: over a window both runs certainly cover, whatever the
/// wall-clock jitter, the path's drop ledger is byte-identical across
/// repeated real-socket runs and equal to the plan prefix.
#[test]
fn sock_ledger_is_byte_identical_across_runs() {
    if !socket_lane_available() {
        eprintln!("NOTICE: loopback UDP unavailable; skipping socket-lane determinism test");
        return;
    }
    let sc = CrossLaneScenario::quick(CcAlgorithm::NewReno, 42);
    const HORIZON: usize = 300;
    let mut cfg = sc.sock_config();
    cfg.duration = lossburst_netsim::time::SimDuration::from_secs(2);
    let a = lane::run(&cfg).expect("first run");
    let b = lane::run(&cfg).expect("second run");
    assert!(
        a.forward_arrivals >= HORIZON as u64 && b.forward_arrivals >= HORIZON as u64,
        "both runs must cover the ledger horizon (got {} and {})",
        a.forward_arrivals,
        b.forward_arrivals
    );
    assert_eq!(a.ledger.len() as u64, a.forward_arrivals);
    assert_eq!(
        a.ledger[..HORIZON],
        b.ledger[..HORIZON],
        "ledgers diverged across runs"
    );
    assert_eq!(
        a.ledger[..HORIZON],
        sc.plan().ledger_prefix(HORIZON),
        "ledger diverged from the shared plan"
    );
}
