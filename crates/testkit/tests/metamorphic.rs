//! Metamorphic properties: relations that must hold between *pairs* of
//! runs, independent of any golden value.
//!
//! * doubling the bottleneck buffer must not increase the loss rate
//!   (averaged over the seed matrix to wash out single-run noise);
//! * permuting the order paths are measured in must not change any
//!   per-path result, under both execution policies;
//! * in fluid mode, doubling the background flow count at fixed aggregate
//!   rate must leave the Fig 2 loss statistics within tolerance — the
//!   mean-field substitution cares about the aggregate rate process, not
//!   how many sources compose it.

use lossburst_analysis::intervals::normalized_intervals;
use lossburst_core::campaign::LossStudy;
use lossburst_emu::testbed::{self, TestbedConfig};
use lossburst_inet::path::PathScenario;
use lossburst_inet::probe::{run_probe_streaming, ProbeConfig};
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::determinism::{assert_policies_agree, SEED_MATRIX};
use lossburst_testkit::prelude::*;
use lossburst_testkit::scenarios::EPISODE_GAP_RTT;
use rayon::prelude::*;

/// Queue-drop rate of one baseline testbed run.
fn testbed_loss_rate(buffer_pkts: usize, seed: u64) -> f64 {
    let mut cfg = TestbedConfig::ns2_baseline(16, buffer_pkts, seed);
    cfg.duration = SimDuration::from_secs(8);
    let res = testbed::run_streaming(&cfg);
    let sent: u64 = res.tcp_progress.iter().map(|p| p.packets_sent).sum();
    assert!(sent > 0, "no packets sent at buffer {buffer_pkts}");
    res.drops as f64 / sent as f64
}

/// Doubling the bottleneck buffer must not increase the drop rate. Single
/// runs can wobble, so the relation is asserted on the seed-matrix mean
/// with a small multiplicative slack.
#[test]
fn metamorphic_doubling_buffer_does_not_increase_loss_rate() {
    let mean = |buffer: usize| {
        SEED_MATRIX
            .iter()
            .map(|&s| testbed_loss_rate(buffer, s))
            .sum::<f64>()
            / SEED_MATRIX.len() as f64
    };
    let small = mean(160);
    let large = mean(320);
    assert!(
        small > 0.0,
        "baseline produced no drops — the relation is vacuous"
    );
    assert!(
        large <= small * 1.05,
        "doubling the buffer raised the mean loss rate: {small:.5} -> {large:.5}"
    );
}

/// Fig 2 testbed in fluid mode with `noise_flows` background sources
/// sharing a fixed 30% aggregate noise rate, losses pooled across the
/// seed matrix into one study.
fn fluid_pooled_study(noise_flows: usize) -> LossStudy {
    let mut intervals = Vec::new();
    for &seed in SEED_MATRIX.iter() {
        let mut cfg = TestbedConfig::ns2_baseline(8, 200, seed);
        cfg.duration = SimDuration::from_secs(8);
        cfg.background = BackgroundMode::Fluid;
        cfg.noise_flows = noise_flows;
        cfg.noise_fraction = 0.30;
        let res = testbed::run_streaming(&cfg);
        intervals.extend(normalized_intervals(
            &res.loss_times,
            res.mean_rtt.as_secs_f64(),
        ));
    }
    LossStudy::from_intervals("metamorphic-fluid", intervals)
}

/// Doubling the fluid background flow count at fixed aggregate rate must
/// leave the Fig 2 loss statistics within the hybrid-gate tolerance: the
/// composition of the aggregate changes (twice as many rate toggles, half
/// the step size), its statistics must not.
#[test]
fn metamorphic_doubling_fluid_flows_at_fixed_rate_preserves_fig2_stats() {
    let base = fluid_pooled_study(50);
    let doubled = fluid_pooled_study(100);
    check_hybrid_agreement(
        "noise-flows-2x",
        &base.report,
        &doubled.report,
        base.episode_count(EPISODE_GAP_RTT),
        doubled.episode_count(EPISODE_GAP_RTT),
        HybridTolerance::default(),
    )
    .unwrap();
}

/// Measure a fixed path set in the given order and dump the results sorted
/// by path, so any order- or scheduling-dependence shows up as a byte
/// difference.
fn sorted_path_dump(pairs: &[(usize, usize)], seed: u64) -> Vec<u8> {
    let mut rows: Vec<(usize, usize, String)> = pairs
        .par_iter()
        .map(|&(src, dst)| {
            let scenario = PathScenario::derive(seed, src, dst);
            let out = run_probe_streaming(
                &scenario,
                &ProbeConfig {
                    packet_bytes: 48,
                    pps: 1500.0,
                    duration: SimDuration::from_secs(2),
                    seed: seed ^ ((src as u64) << 32 | dst as u64) ^ 0x5A11,
                    background: BackgroundMode::Packet,
                },
            );
            (src, dst, format!("{out:?}"))
        })
        .collect();
    rows.sort();
    format!("{rows:?}").into_bytes()
}

/// Permuting the measurement order changes nothing, under every execution
/// policy — and all policies agree with each other.
#[test]
fn metamorphic_path_order_permutation_is_invariant_under_all_policies() {
    let order: [(usize, usize); 6] = [(0, 5), (3, 9), (7, 2), (12, 20), (1, 18), (22, 4)];
    assert_policies_agree("path permutation", |seed| {
        let forward = sorted_path_dump(&order, seed);
        let mut reversed = order;
        reversed.reverse();
        assert_eq!(
            forward,
            sorted_path_dump(&reversed, seed),
            "seed {seed}: reversing the measurement order changed a per-path result"
        );
        let mut rotated = order;
        rotated.rotate_left(2);
        assert_eq!(
            forward,
            sorted_path_dump(&rotated, seed),
            "seed {seed}: rotating the measurement order changed a per-path result"
        );
        forward
    });
}
