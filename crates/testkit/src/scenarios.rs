//! The shared quick-scale scenario generator: every conformance and golden
//! test drives the same seeded reference runs, sized so the whole suite
//! finishes in tens of seconds in release mode while still exhibiting each
//! paper figure's shape.
//!
//! Per-figure accessors (`fig2_data()` …) memoize their run process-wide,
//! so a test binary that checks both conformance and golden fixtures pays
//! for each scenario once.

use crate::golden::GoldenSummary;
use lossburst_core::campaign::{dummynet_study, ns2_study, LabCampaignConfig, LossStudy};
use lossburst_core::impact::{
    competition, parallel_study, protocol_mix, CompetitionConfig, CompetitionResult, MixConfig,
    MixResult, ParallelCell, ParallelConfig,
};
use lossburst_core::model::DetectionRow;
use lossburst_core::registry::ks_vs_rate_matched_poisson;
use lossburst_core::shard::run_grid_streaming_supervised;
use lossburst_core::supervisor::{LedgerEntry, SupervisedStudy, SupervisorConfig};
use lossburst_emu::testbed::{self, TestbedConfig};
use lossburst_inet::campaign::{CampaignConfig, StreamCampaignResult};
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use std::sync::OnceLock;

/// The reference seed for all cached scenario runs (the measurement year).
pub const QUICK_SEED: u64 = 2006;

/// Episode gap used by golden summaries, in RTT units: the streaming
/// accumulator's own.
pub use lossburst_analysis::streaming::EPISODE_GAP_RTT;

/// How many 0.02-RTT bins are pooled per coarse golden-PDF bin.
pub const COARSE_GROUP: usize = 10;

/// Fig 2 reference data: the pooled NS-2 study plus one baseline testbed
/// run's per-flow throughputs.
#[derive(Debug)]
pub struct Fig2Data {
    /// Pooled quick-scale NS-2 campaign study.
    pub study: LossStudy,
    /// Per-flow goodput (Mbps) of an 8-flow baseline run — the fairness
    /// fingerprint the golden fixture pins.
    pub(crate) flow_throughputs_mbps: Vec<f64>,
}

/// Fig 4 reference data: the raw campaign (validation counts, per-path
/// rates) plus the pooled study.
#[derive(Debug)]
pub struct Fig4Data {
    /// Raw campaign result.
    pub campaign: StreamCampaignResult,
    /// Study assembled from the pooled validated intervals.
    pub study: LossStudy,
}

/// The quick-scale Fig 2 lab-campaign configuration: two flow counts, one
/// buffer, 10 s runs. Exposed so hybrid-mode suites can rerun the exact
/// scenario with a different [`BackgroundMode`].
pub fn fig2_lab_config(seed: u64) -> LabCampaignConfig {
    let mut cfg = LabCampaignConfig::quick(seed);
    cfg.flow_counts = vec![2, 8];
    cfg.buffer_bdp_fractions = vec![0.25];
    cfg.duration = SimDuration::from_secs(10);
    cfg
}

/// A reference run's ledger, held to "every row measured": a reference
/// scenario that lost a cell or a path is a broken fixture, not a sample.
fn assert_all_measured(label: &str, ledger: &[LedgerEntry]) {
    let failed: Vec<&LedgerEntry> = ledger.iter().filter(|e| !e.outcome.is_ok()).collect();
    assert!(
        failed.is_empty(),
        "{label}: rows did not measure: {failed:?}"
    );
}

/// The study of a paper sweep (Figs 2–4) whose every row measured.
pub fn measured_study(
    label: &str,
    run: lossburst_core::error::Result<SupervisedStudy>,
) -> LossStudy {
    let run = run.unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_all_measured(label, &run.ledger);
    run.study
}

/// Quick-scale NS-2 campaign (Fig 2): two flow counts, one buffer, 10 s
/// runs, plus an 8-flow baseline for per-flow throughput.
pub(crate) fn fig2_quick(seed: u64) -> Fig2Data {
    let cfg = fig2_lab_config(seed);
    let study = measured_study("fig2", ns2_study(&cfg, &SupervisorConfig::default()));

    let mut tb = TestbedConfig::ns2_baseline(8, 200, seed);
    tb.duration = SimDuration::from_secs(10);
    let res = testbed::run_streaming(&tb);
    let secs = tb.duration.as_secs_f64();
    let flow_throughputs_mbps = res
        .tcp_progress
        .iter()
        .map(|p| p.bytes_delivered as f64 * 8.0 / secs / 1e6)
        .collect();
    Fig2Data {
        study,
        flow_throughputs_mbps,
    }
}

/// The quick-scale Fig 3 lab-campaign configuration: one 8-flow cell.
pub fn fig3_lab_config(seed: u64) -> LabCampaignConfig {
    let mut cfg = LabCampaignConfig::quick(seed);
    cfg.flow_counts = vec![8];
    cfg.buffer_bdp_fractions = vec![0.5];
    cfg.duration = SimDuration::from_secs(10);
    cfg
}

/// Quick-scale Dummynet campaign (Fig 3): one 8-flow cell through the
/// 1 ms recording clock and processing jitter.
pub(crate) fn fig3_quick(seed: u64) -> LossStudy {
    measured_study("fig3", dummynet_study(&fig3_lab_config(seed)))
}

/// The quick-scale Fig 4 Internet-campaign configuration: 16 paths,
/// paired probes at 2000 pps for 12 s each.
pub fn fig4_campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        n_paths: 16,
        probe_pps: 2000.0,
        duration: SimDuration::from_secs(12),
        background: BackgroundMode::Packet,
    }
}

/// The campaign of a supervised Internet sweep whose every path measured:
/// the runner `internet_study` pools, with the per-path measurements its
/// study drops.
pub fn measured_campaign(cfg: &CampaignConfig) -> StreamCampaignResult {
    let run = run_grid_streaming_supervised(cfg, &SupervisorConfig::default())
        .unwrap_or_else(|e| panic!("internet campaign: {e}"));
    assert_all_measured("internet campaign", &run.ledger);
    run.result
}

/// Quick-scale Internet campaign (Fig 4): 16 paths, paired 48 B / 400 B
/// probes at 2000 pps for 12 s each — the smallest sweep whose pooled
/// intervals still show the paper's intermediate burstiness band.
pub(crate) fn fig4_quick(seed: u64) -> Fig4Data {
    let campaign = measured_campaign(&fig4_campaign_config(seed));
    let study = LossStudy::from_intervals("internet", campaign.intervals_rtt());
    Fig4Data { campaign, study }
}

/// The burst sizes the detection-model grid sweeps (Figs 5/6).
pub(crate) const FIG56_BURSTS: [u64; 5] = [4, 16, 32, 64, 140];
/// Flows sharing the bottleneck in the detection model.
pub(crate) const FIG56_FLOWS: u64 = 16;
/// Packets per flow per RTT in the detection model.
pub(crate) const FIG56_PKTS_PER_RTT: u64 = 50;

/// Detection-model grid (Figs 5/6): Monte-Carlo rows across burst sizes at
/// the paper's N=16, K=50 operating point.
pub(crate) fn fig56_quick(seed: u64) -> Vec<DetectionRow> {
    FIG56_BURSTS
        .iter()
        .map(|&m| DetectionRow::compute(m, FIG56_FLOWS, FIG56_PKTS_PER_RTT, 2000, seed))
        .collect()
}

/// Quick-scale competition run (Fig 7): the paper's 16 + 16 setup cut to
/// 20 simulated seconds.
pub(crate) fn fig7_quick(seed: u64) -> CompetitionResult {
    let mut cfg = CompetitionConfig::paper(seed);
    cfg.duration = SimDuration::from_secs(20);
    competition(&cfg)
}

/// Seeds pinned by the legacy Reno-vs-TFRC pairing fixture. The golden
/// summary must stay byte-identical across transport-internal refactors
/// for every one of these seeds.
pub(crate) const MIX_SEEDS: [u64; 3] = [1, 2006, 42];

/// Quick-scale protocol-mix run (the Fig 7 rate-vs-window pairing with
/// TFRC): 4 + 4 flows on 50 Mbps / 50 ms cut to 10 simulated seconds.
pub(crate) fn fig7_mix_quick(paced_tcp: bool, seed: u64) -> MixResult {
    let mut cfg = MixConfig::default_setup(paced_tcp, seed);
    cfg.duration = SimDuration::from_secs(10);
    protocol_mix(&cfg)
}

/// Golden summary pinning the legacy Reno-vs-TFRC (and Pacing-vs-TFRC)
/// pairing across `MIX_SEEDS`: per-class goodput and the TFRC share.
pub fn fig7_mix_summary() -> GoldenSummary {
    let mut sum = GoldenSummary::new("fig7_mix");
    for &seed in &MIX_SEEDS {
        for paced in [false, true] {
            let res = fig7_mix_quick(paced, seed);
            let tag = if paced { "paced" } else { "reno" };
            sum = sum
                .scalar(&format!("tfrc_mbps_{tag}_s{seed}"), res.tfrc_mbps)
                .scalar(&format!("tcp_mbps_{tag}_s{seed}"), res.tcp_mbps)
                .scalar(&format!("tfrc_share_{tag}_s{seed}"), res.tfrc_share);
        }
    }
    sum
}

/// Quick-scale parallel-transfer grid (Fig 8): 8 MB over {2, 8} flows ×
/// {10, 200 ms} RTT, two replications.
pub(crate) fn fig8_quick(seed: u64) -> Vec<ParallelCell> {
    parallel_study(&ParallelConfig {
        total_bytes: 8 * 1024 * 1024,
        flow_counts: vec![2, 8],
        rtts: vec![SimDuration::from_millis(10), SimDuration::from_millis(200)],
        bottleneck_bps: 100e6,
        buffer_pkts: 625,
        seeds: vec![seed ^ 0xA, seed ^ 0xB],
    })
    .expect("fig8 quick grid is valid")
}

/// Memoized `fig2_quick` at [`QUICK_SEED`].
pub fn fig2_data() -> &'static Fig2Data {
    static CACHE: OnceLock<Fig2Data> = OnceLock::new();
    CACHE.get_or_init(|| fig2_quick(QUICK_SEED))
}

/// Memoized `fig3_quick` at [`QUICK_SEED`].
pub fn fig3_study() -> &'static LossStudy {
    static CACHE: OnceLock<LossStudy> = OnceLock::new();
    CACHE.get_or_init(|| fig3_quick(QUICK_SEED))
}

/// Memoized `fig4_quick` at [`QUICK_SEED`].
pub fn fig4_data() -> &'static Fig4Data {
    static CACHE: OnceLock<Fig4Data> = OnceLock::new();
    CACHE.get_or_init(|| fig4_quick(QUICK_SEED))
}

/// Memoized `fig56_quick` at [`QUICK_SEED`].
pub fn fig56_rows() -> &'static Vec<DetectionRow> {
    static CACHE: OnceLock<Vec<DetectionRow>> = OnceLock::new();
    CACHE.get_or_init(|| fig56_quick(QUICK_SEED))
}

/// Memoized `fig7_quick` at [`QUICK_SEED`].
pub fn fig7_result() -> &'static CompetitionResult {
    static CACHE: OnceLock<CompetitionResult> = OnceLock::new();
    CACHE.get_or_init(|| fig7_quick(QUICK_SEED))
}

/// Memoized `fig8_quick` at [`QUICK_SEED`].
pub fn fig8_cells() -> &'static Vec<ParallelCell> {
    static CACHE: OnceLock<Vec<ParallelCell>> = OnceLock::new();
    CACHE.get_or_init(|| fig8_quick(QUICK_SEED))
}

/// The golden summary of one loss study: cluster fractions, dispersion,
/// KS-vs-Poisson, episode count, and the coarse interval PDF.
pub(crate) fn study_summary(name: &str, study: &LossStudy) -> GoldenSummary {
    GoldenSummary::new(name)
        .scalar("n_losses", study.report.n_losses as f64)
        .scalar("frac_below_001", study.report.frac_below_001)
        .scalar("frac_below_01", study.report.frac_below_01)
        .scalar("frac_below_1", study.report.frac_below_1)
        .scalar("index_of_dispersion", study.report.index_of_dispersion)
        .scalar(
            "ks_vs_poisson",
            ks_vs_rate_matched_poisson(&study.intervals_rtt),
        )
        .scalar("episodes", study.episode_count(EPISODE_GAP_RTT) as f64)
        .scalar("overflow_fraction", study.histogram.overflow_fraction())
        .series("coarse_pdf", study.histogram.coarse_pdf(COARSE_GROUP))
}

/// Golden summary for Fig 2 (study + per-flow throughputs).
pub fn fig2_summary(data: &Fig2Data) -> GoldenSummary {
    study_summary("fig2", &data.study)
        .series("flow_throughput_mbps", data.flow_throughputs_mbps.clone())
}

/// Golden summary for Fig 3.
pub fn fig3_summary(study: &LossStudy) -> GoldenSummary {
    study_summary("fig3", study)
}

/// Golden summary for Fig 4 (study + validation outcome + per-path loss
/// rates).
pub fn fig4_summary(data: &Fig4Data) -> GoldenSummary {
    study_summary("fig4", &data.study)
        .scalar("validated_fraction", data.campaign.validated_fraction())
        .series("path_loss_rates", data.campaign.loss_rates())
}

/// Golden summary for Fig 7 (means, deficit, and both 1-second throughput
/// series).
pub fn fig7_summary(res: &CompetitionResult) -> GoldenSummary {
    GoldenSummary::new("fig7")
        .scalar("pacing_mean_mbps", res.pacing_mean_mbps)
        .scalar("newreno_mean_mbps", res.newreno_mean_mbps)
        .scalar("pacing_deficit", res.pacing_deficit)
        .series("pacing_series_mbps", res.pacing_series_mbps.clone())
        .series("newreno_series_mbps", res.newreno_series_mbps.clone())
}

/// Golden summary for Fig 8 (per-cell normalized mean and dispersion).
pub fn fig8_summary(cells: &[ParallelCell]) -> GoldenSummary {
    let mut sum = GoldenSummary::new("fig8");
    for c in cells {
        let ms = c.rtt.as_nanos() / 1_000_000;
        sum = sum
            .scalar(
                &format!("mean_norm_f{}_rtt{}ms", c.flows, ms),
                c.mean_normalized,
            )
            .scalar(
                &format!("std_norm_f{}_rtt{}ms", c.flows, ms),
                c.std_normalized,
            );
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_carry_the_expected_shape() {
        let study = LossStudy::from_intervals("x", vec![0.004, 0.004, 0.9, 1.4, 0.002]);
        let sum = study_summary("x", &study);
        assert_eq!(sum.name, "x");
        assert!(sum.scalars.iter().any(|(k, _)| k == "frac_below_001"));
        let (_, pdf) = &sum.series[0];
        assert_eq!(pdf.len(), 10, "100 paper bins pooled by {COARSE_GROUP}");
        // The summary is a pure function of the study.
        let again = study_summary("x", &study);
        assert_eq!(sum.render(), again.render());
    }

    #[test]
    fn fig56_grid_is_deterministic_and_seed_sensitive() {
        let a = fig56_quick(9);
        let b = fig56_quick(9);
        assert_eq!(a.len(), FIG56_BURSTS.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.rate_simulated, y.rate_simulated);
            assert_eq!(x.window_simulated, y.window_simulated);
        }
        // Rate detection saturates at exactly min(M, N), so seed
        // sensitivity shows up in the window estimate only.
        let c = fig56_quick(10);
        assert!(
            a.iter()
                .zip(c.iter())
                .any(|(x, y)| x.window_simulated != y.window_simulated),
            "different seeds must explore different placements"
        );
    }
}
