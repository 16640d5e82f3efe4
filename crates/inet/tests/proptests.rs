//! Property-style tests of the synthetic-Internet substrate, driven by
//! seeded pseudo-random sweeps (deterministic: every case is a fixed
//! function of its seed, so a failure reproduces exactly).

use lossburst_inet::geo::{base_rtt, distance_km};
use lossburst_inet::path::PathScenario;
use lossburst_inet::probe::{
    run_probe_streaming, validate_streaming, ProbeConfig, StreamProbeOutcome,
};
use lossburst_inet::sites::SITES;
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::sweep::{with_rng, RngExt};

/// Every scenario over every site pair and many seeds stays within its
/// declared parameter envelope.
#[test]
fn scenarios_always_in_envelope() {
    with_rng(0x5CE0, |gen| {
        for _ in 0..200 {
            let seed = gen.random_range(0..10_000u64);
            let src = gen.random_range(0..26usize);
            let dst = gen.random_range(0..26usize);
            if src == dst {
                continue;
            }
            let p = PathScenario::derive(seed, src, dst);
            assert!(p.rtt >= SimDuration::from_millis(2));
            assert!(p.rtt.as_secs_f64() < 0.4);
            assert!((10e6..=30e6).contains(&p.bottleneck_bps));
            assert!(p.buffer_pkts >= 20);
            assert!((1..=24).contains(&p.long_flows));
            assert_eq!(p.long_flow_rtts.len(), p.long_flows);
            for r in &p.long_flow_rtts {
                assert!(*r >= SimDuration::from_millis(2) && *r <= SimDuration::from_millis(300));
            }
            assert!(p.noise_flows >= 5 && p.noise_flows < 20);
            assert!(p.episodic_fraction > 0.0 && p.episodic_fraction < 0.5);
        }
    });
}

/// Geography: the triangle inequality holds for great-circle distances,
/// and RTT is monotone in distance plus a floor.
#[test]
#[allow(clippy::needless_range_loop)] // a and b are site indices, not positions
fn geography_is_metric_like() {
    let d = |x: usize, y: usize| distance_km(&SITES[x], &SITES[y]);
    for a in 0..26usize {
        for b in 0..26usize {
            // Symmetry and identity.
            assert!((d(a, b) - d(b, a)).abs() < 1e-9);
            assert!(d(a, a).abs() < 1e-9);
            // RTT floor.
            assert!(base_rtt(&SITES[a], &SITES[b]).as_secs_f64() >= 0.002 || a == b);
            // Triangle inequality (with fp slack) over a third site sweep.
            for c in [0usize, 7, 13, 19, 25] {
                assert!(d(a, c) <= d(a, b) + d(b, c) + 1e-6);
            }
        }
    }
}

/// The validation rule is symmetric in its two runs.
#[test]
fn validation_is_symmetric() {
    let mk = |losses: usize| StreamProbeOutcome {
        sent: 10_000,
        received: 10_000 - losses as u64,
        n_lost: losses,
        lost: (0..losses as u64).collect(),
        loss_rate: losses as f64 / 10_000.0,
        intervals_rtt: vec![],
        stats: lossburst_analysis::streaming::LossStreamStats::with_rtt(0.05),
        events: 0,
        counts: Default::default(),
        trace_bytes: 0,
    };
    with_rng(0x5E77, |gen| {
        for _ in 0..100 {
            let l1 = gen.random_range(0..200usize);
            let l2 = gen.random_range(0..200usize);
            assert_eq!(
                validate_streaming(&mk(l1), &mk(l2)),
                validate_streaming(&mk(l2), &mk(l1))
            );
        }
    });
}

/// Probe conservation over several real (small) paths — bounded in count
/// because each run costs real simulation time.
#[test]
fn probe_conservation_over_sampled_paths() {
    for (seed, src, dst) in [(1u64, 0usize, 13usize), (2, 5, 21), (3, 24, 7)] {
        let scenario = PathScenario::derive(seed, src, dst);
        let out = run_probe_streaming(
            &scenario,
            &ProbeConfig {
                packet_bytes: 48,
                pps: 500.0,
                duration: SimDuration::from_secs(6),
                seed: seed ^ 0xFF,
                background: lossburst_netsim::fluid::BackgroundMode::Packet,
            },
        );
        assert_eq!(out.sent, out.received + out.lost.len() as u64);
        assert!(out.loss_rate >= 0.0 && out.loss_rate <= 1.0);
        // Losses are in emission order, of packets actually sent, and
        // span no more than the run window.
        assert!(out.lost.windows(2).all(|w| w[0] < w[1]));
        assert!(out.lost.iter().all(|&s| s < out.sent));
        assert!(out.intervals_rtt.iter().all(|&iv| iv >= 0.0));
        let span_secs = out.intervals_rtt.iter().sum::<f64>() * scenario.rtt.as_secs_f64();
        assert!(span_secs <= 6.0);
    }
}
