//! Cross-crate integration: the three measurement campaigns produce the
//! paper's qualitative ordering of burstiness.

use lossburst::core::campaign::{dummynet_study, internet_study, ns2_study, LabCampaignConfig};
use lossburst::core::supervisor::SupervisorConfig;
use lossburst::inet::campaign::CampaignConfig;
use lossburst::netsim::time::SimDuration;
use lossburst_testkit::scenarios::measured_study;

fn small_lab(seed: u64) -> LabCampaignConfig {
    LabCampaignConfig {
        flow_counts: vec![8],
        buffer_bdp_fractions: vec![0.25],
        reference_rtt: SimDuration::from_millis(100),
        duration: SimDuration::from_secs(12),
        seed,
        background: lossburst::netsim::fluid::BackgroundMode::Packet,
        cc: lossburst::transport::cc::CcAlgorithm::NewReno,
    }
}

#[test]
fn lab_campaigns_are_sub_rtt_bursty_and_ordered() {
    let ns2 = measured_study(
        "ns2",
        ns2_study(&small_lab(42), &SupervisorConfig::default()),
    );
    let dummynet = measured_study("dummynet", dummynet_study(&small_lab(42)));

    // Both far burstier than Poisson would allow.
    assert!(ns2.report.frac_below_001 > 0.8, "ns2 {:?}", ns2.report);
    assert!(
        dummynet.report.frac_below_001 > 0.5,
        "dummynet {:?}",
        dummynet.report
    );
    // The ideal simulator shows (weakly) more clustering than the noisy,
    // clock-quantized emulation, as in the paper (>95% vs ~80%).
    assert!(
        ns2.report.frac_below_001 >= dummynet.report.frac_below_001 - 0.05,
        "ordering violated: ns2 {} vs dummynet {}",
        ns2.report.frac_below_001,
        dummynet.report.frac_below_001
    );
}

#[test]
fn internet_campaign_sits_between_lab_and_poisson() {
    let cfg = CampaignConfig {
        seed: 9,
        n_paths: 8,
        probe_pps: 1500.0,
        duration: SimDuration::from_secs(12),
        background: lossburst::netsim::fluid::BackgroundMode::Packet,
    };
    let inet = measured_study("internet", internet_study(&cfg));
    assert!(
        inet.report.n_intervals > 50,
        "too few intervals: {}",
        inet.report.n_intervals
    );
    // Less clustered than the lab's ~0.9+ but still clustered — the
    // heterogeneity effect of Fig 4.
    assert!(
        inet.report.frac_below_001 < 0.9,
        "internet unexpectedly as bursty as the lab: {}",
        inet.report.frac_below_001
    );
    assert!(
        inet.report.frac_below_1 > 0.3,
        "no sub-RTT clustering at all: {}",
        inet.report.frac_below_1
    );
    // Above the rate-matched Poisson in the sub-RTT region.
    let lambda = lossburst::analysis::poisson::rate_from_intervals(&inet.intervals_rtt);
    let poisson_below = lossburst::analysis::poisson::reference_cdf(lambda, 0.25);
    assert!(
        inet.report.frac_below_025 > poisson_below,
        "not burstier than Poisson: {} vs {}",
        inet.report.frac_below_025,
        poisson_below
    );
}

#[test]
fn campaigns_are_deterministic_end_to_end() {
    let ns2 = |seed| {
        measured_study(
            "ns2",
            ns2_study(&small_lab(seed), &SupervisorConfig::default()),
        )
    };
    let a = ns2(7);
    let b = ns2(7);
    assert_eq!(a.intervals_rtt, b.intervals_rtt);
    assert_eq!(a.report.n_losses, b.report.n_losses);
    let c = ns2(8);
    assert_ne!(
        a.report.n_losses, c.report.n_losses,
        "different seeds should explore different traces"
    );
}
