//! Cross-crate integration: the impact studies (Figs 7 and 8) and the
//! detection model agree with the paper's directions.

use lossburst::core::error::Result;
use lossburst::core::impact::{
    competition, try_parallel_once, try_theoretic_lower_bound, CompetitionConfig,
};
use lossburst::core::model::{rate_based_detections, window_based_detections, DetectionRow};
use lossburst::netsim::time::SimDuration;

#[test]
fn fig7_pacing_loses_to_newreno() {
    let mut cfg = CompetitionConfig::paper(33);
    cfg.duration = SimDuration::from_secs(20);
    let res = competition(&cfg);
    assert!(
        res.pacing_deficit > 0.05,
        "pacing should lose: deficit {}",
        res.pacing_deficit
    );
    // Link is actually used.
    assert!(res.pacing_mean_mbps + res.newreno_mean_mbps > 55.0);
}

#[test]
fn fig8_latency_grows_with_rtt_and_shrinks_with_flows() -> Result<()> {
    let total = 16 * 1024 * 1024u64;
    let bound = try_theoretic_lower_bound(total, 100e6)?;
    let lat = |flows: usize, rtt_ms: u64, seed: u64| {
        let rtt = SimDuration::from_millis(rtt_ms);
        try_parallel_once(total, flows, rtt, 100e6, 625, seed)
    };
    let fast = lat(8, 2, 1)?;
    let slow = lat(8, 200, 1)?;
    assert!(fast >= bound * 0.95, "beat the bound: {fast} < {bound}");
    assert!(fast < bound * 2.0, "small-RTT run too slow: {fast}");
    assert!(
        slow > fast * 1.5,
        "200 ms RTT should be much slower: {slow} vs {fast}"
    );
    // More parallel flows tame the 200 ms case (smaller per-flow windows,
    // faster recovery), as in the paper's Fig 8 trend.
    let slow_many = lat(32, 200, 1)?;
    assert!(
        slow_many < slow * 1.2,
        "32 flows ({slow_many}) should not be much worse than 8 ({slow})"
    );
    Ok(())
}

#[test]
fn detection_model_matches_paper_equations() {
    // The exact numbers quoted in the paper's reasoning.
    assert_eq!(rate_based_detections(10, 16), 10.0);
    assert_eq!(rate_based_detections(100, 16), 16.0);
    assert_eq!(window_based_detections(10, 50), 1.0);
    assert_eq!(window_based_detections(100, 50), 2.0);
    // And the Monte-Carlo agrees within tolerance.
    let row = DetectionRow::compute(16, 16, 50, 3000, 5);
    assert!((row.rate_simulated - 16.0).abs() < 1.0);
    assert!(row.window_simulated < 2.5);
}
