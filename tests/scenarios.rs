//! End-to-end scenario tests across the whole stack: the Section 5
//! recommendations must actually hold when executed on the simulator.

use lossburst::netsim::prelude::*;
use lossburst::transport::prelude::*;

/// An 6-worker incast shuffle: loss-based senders straggle, the delay-based
/// sender (the paper's reference [23] suggestion) does not.
#[test]
fn shuffle_scenario_delay_based_beats_loss_based() {
    let shuffle = |delay_based: bool| -> (f64, u64) {
        let n = 6;
        let chunk = 1024 * 1024u64;
        let mut b = SimBuilder::new(3);
        let star = build_star(&mut b, n, 1e9, SimDuration::from_micros(50), 96);
        let mut stagger = Sampler::child_rng(3, 1);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (s, r) = (star.hosts[i], star.hosts[j]);
                let start = SimTime::ZERO
                    + Sampler::uniform_duration(
                        &mut stagger,
                        SimDuration::ZERO,
                        SimDuration::from_millis(1),
                    );
                let flow: Box<dyn Transport> = if delay_based {
                    Box::new(
                        Sender::fast(s, r, TcpConfig::default(), 4.0, 0.5).with_limit_bytes(chunk),
                    )
                } else {
                    Box::new(Sender::newreno(s, r, TcpConfig::default()).with_limit_bytes(chunk))
                };
                b.flow(s, r, start, flow);
            }
        }
        let mut sim = b.build();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let finish = sim
            .flows
            .iter()
            .map(|f| f.completed_at.map(|t| t.as_secs_f64()).unwrap_or(60.0))
            .fold(0.0f64, f64::max);
        (finish, sim.total_drops())
    };
    let (loss_time, loss_drops) = shuffle(false);
    let (delay_time, delay_drops) = shuffle(true);
    assert!(loss_drops > 0, "incast should overflow the access buffers");
    assert_eq!(delay_drops, 0, "delay-based flows should never overflow");
    assert!(
        delay_time < loss_time,
        "delay-based shuffle ({delay_time:.2}s) should beat loss-based ({loss_time:.2}s)"
    );
}

/// RED measurably de-clusters the loss process relative to DropTail on the
/// same workload (the Section 5 RED discussion).
#[test]
fn red_reduces_sub_rtt_clustering() {
    use lossburst::emu::testbed::{self, TestbedConfig};
    let run = |disc: QueueDisc| {
        let mut cfg = TestbedConfig::ns2_baseline(12, 312, 19);
        cfg.bottleneck_disc = disc;
        cfg.duration = SimDuration::from_secs(10);
        let res = testbed::run_streaming(&cfg);
        let iv = lossburst::analysis::intervals::normalized_intervals(
            &res.loss_times,
            res.mean_rtt.as_secs_f64(),
        );
        lossburst::analysis::burstiness::analyze(&iv).frac_below_001
    };
    let droptail = run(QueueDisc::drop_tail(312));
    let red = run(QueueDisc::red(312));
    assert!(
        red < droptail - 0.1,
        "RED should de-cluster losses: {red:.2} vs DropTail {droptail:.2}"
    );
}

/// The advisor's recommendations are consistent across the full profile
/// space: never empty advice for a profile with at least one concern, and
/// the RED recommendations are mutually exclusive.
#[test]
fn advisor_is_total_and_consistent() {
    use lossburst::core::advisor::{advise, AppProfile, Recommendation};
    for bits in 0u32..128 {
        let p = AppProfile {
            mixes_rate_and_window: bits & 1 != 0,
            controlled_environment: bits & 2 != 0,
            short_flows_dominate: bits & 4 != 0,
            can_deploy_red: bits & 8 != 0,
            red_scenario_simple: bits & 16 != 0,
            can_use_ecn: bits & 32 != 0,
            needs_predictable_latency: bits & 64 != 0,
        };
        let recs = advise(&p);
        let has_concern = p.mixes_rate_and_window
            || p.controlled_environment
            || p.short_flows_dominate
            || p.can_deploy_red
            || p.can_use_ecn
            || p.needs_predictable_latency;
        if has_concern {
            assert!(!recs.is_empty(), "no advice for profile {bits:07b}");
        }
        let red_yes = recs.contains(&Recommendation::DeployRed);
        let red_no = recs.contains(&Recommendation::RedTooHardToTune);
        assert!(
            !(red_yes && red_no),
            "contradictory RED advice for {bits:07b}"
        );
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for r in &recs {
            assert!(
                seen.insert(format!("{r:?}")),
                "duplicate advice for {bits:07b}"
            );
        }
    }
}

/// The experiment registry matches the repo's actual regenerators and every
/// entry's module path names a crate that exists in this workspace.
#[test]
fn registry_module_paths_are_plausible() {
    use lossburst::core::registry::EXPERIMENTS;
    for e in &EXPERIMENTS {
        assert!(
            e.module.starts_with("lossburst_"),
            "{}: module {} not in workspace",
            e.id,
            e.module
        );
        assert!(!e.paper_claim.is_empty() && !e.description.is_empty());
    }
}
