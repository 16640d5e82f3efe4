//! Statistical conformance checks: every EXPERIMENTS.md shape verdict as a
//! reusable assertion over plain data.
//!
//! Each check takes already-computed statistics and returns
//! `Result<(), String>` — the `Err` names the violated bound. Taking data
//! rather than running scenarios keeps the checks cheap and lets the
//! perturbation suite (`tests/perturbation.rs`) prove that each one fails
//! when its statistic is deliberately broken.

use lossburst_analysis::burstiness::BurstinessReport;
use lossburst_analysis::gilbert::GilbertParams;
use lossburst_analysis::poisson;
use lossburst_analysis::stats::ks_statistic;
use lossburst_core::impact::{CompetitionResult, ParallelCell};
use lossburst_core::model::DetectionRow;

fn fail(msg: String) -> Result<(), String> {
    Err(msg)
}

/// Kolmogorov–Smirnov distance between an inter-loss-interval sample and
/// the Poisson (exponential-interval) process with the same rate — the
/// paper's "≫ Poisson" claim as one number (0 = indistinguishable,
/// → 1 = completely clustered).
pub(crate) fn ks_vs_rate_matched_poisson(intervals_rtt: &[f64]) -> f64 {
    let lambda = poisson::rate_from_intervals(intervals_rtt);
    if lambda <= 0.0 {
        return 0.0;
    }
    ks_statistic(intervals_rtt, |x| poisson::reference_cdf(lambda, x))
}

/// Table 1: the PlanetLab deployment — 26 sites, 650 directed paths, RTTs
/// from ≤`min_rtt_ms_bound` up past 200 ms.
pub fn check_table1(
    n_sites: usize,
    n_paths: usize,
    min_rtt_ms: f64,
    max_rtt_ms: f64,
    paths_above_200ms: usize,
) -> Result<(), String> {
    if n_sites != 26 {
        return fail(format!("expected 26 sites, got {n_sites}"));
    }
    if n_paths != 650 {
        return fail(format!("expected 650 directed paths, got {n_paths}"));
    }
    if min_rtt_ms > 3.0 {
        return fail(format!("shortest path RTT {min_rtt_ms:.1} ms > 3 ms"));
    }
    if max_rtt_ms <= 200.0 {
        return fail(format!("longest path RTT {max_rtt_ms:.1} ms ≤ 200 ms"));
    }
    if paths_above_200ms == 0 {
        return fail("no path above 200 ms RTT".into());
    }
    Ok(())
}

/// Figs 2/3: lab campaigns must show sub-RTT clustering — a large
/// `frac_below_001` and an index of dispersion far above the Poisson
/// value of 1.
pub fn check_lab_clustering(
    label: &str,
    report: &BurstinessReport,
    min_frac_below_001: f64,
    min_index_of_dispersion: f64,
) -> Result<(), String> {
    if report.n_losses < 50 {
        return fail(format!(
            "{label}: only {} losses — too few to judge the shape",
            report.n_losses
        ));
    }
    if report.frac_below_001 < min_frac_below_001 {
        return fail(format!(
            "{label}: frac below 0.01 RTT = {:.3} < {min_frac_below_001}",
            report.frac_below_001
        ));
    }
    if report.index_of_dispersion < min_index_of_dispersion {
        return fail(format!(
            "{label}: index of dispersion {:.1} < {min_index_of_dispersion} (Poisson = 1)",
            report.index_of_dispersion
        ));
    }
    Ok(())
}

/// The "≫ Poisson" divergence itself: the KS distance from the
/// rate-matched exponential must exceed `min_ks`.
pub fn check_poisson_divergence(intervals_rtt: &[f64], min_ks: f64) -> Result<(), String> {
    let d = ks_vs_rate_matched_poisson(intervals_rtt);
    if d < min_ks {
        return fail(format!(
            "KS distance from rate-matched Poisson {d:.3} < {min_ks} — sample is too Poisson-like"
        ));
    }
    Ok(())
}

/// Fig 4: the Internet campaign sits *between* the lab (≈1.0) and Poisson
/// (≈0.01): an intermediate `frac_below_001`, additional mass out to 1
/// RTT, and more mass below 0.25 RTT than the rate-matched Poisson puts
/// there.
pub fn check_internet_shape(report: &BurstinessReport) -> Result<(), String> {
    let f001 = report.frac_below_001;
    if !(0.15..=0.85).contains(&f001) {
        return fail(format!(
            "frac below 0.01 RTT = {f001:.3} outside the intermediate band (0.15, 0.85) — \
             looks like a lab trace (≈1) or Poisson (≈0)"
        ));
    }
    if report.frac_below_1 < f001 + 0.05 {
        return fail(format!(
            "no extra mass between 0.01 and 1 RTT ({:.3} vs {f001:.3})",
            report.frac_below_1
        ));
    }
    let poisson_below_025 = poisson::reference_cdf(1.0 / report.mean_interval_rtt.max(1e-12), 0.25);
    if report.frac_below_025 <= poisson_below_025 {
        return fail(format!(
            "mass below 0.25 RTT ({:.3}) does not exceed the rate-matched Poisson ({:.3})",
            report.frac_below_025, poisson_below_025
        ));
    }
    Ok(())
}

/// Tolerances for the hybrid fluid/packet background conformance gate
/// ([`check_hybrid_agreement`]). The defaults are the gate the
/// `hybrid_conformance` suite enforces: the fluid model replaces individual
/// background packets with a rate process, so runs agree statistically,
/// not sample for sample.
#[derive(Clone, Copy, Debug)]
pub struct HybridTolerance {
    /// Largest allowed multiplicative disagreement in loss-event counts
    /// (equal horizons, so this is a loss-rate band).
    pub(crate) loss_count_ratio: f64,
    /// Largest allowed additive disagreement in the interval-distribution
    /// fractions (below 0.01/0.1/0.25/1 RTT).
    pub(crate) frac_delta: f64,
    /// Largest allowed multiplicative disagreement in the index of
    /// dispersion (a variance ratio — noisier than the fractions).
    pub(crate) dispersion_ratio: f64,
    /// Largest allowed multiplicative disagreement in episode counts.
    pub(crate) episode_ratio: f64,
}

impl Default for HybridTolerance {
    fn default() -> Self {
        HybridTolerance {
            loss_count_ratio: 2.0,
            frac_delta: 0.15,
            dispersion_ratio: 4.0,
            episode_ratio: 2.0,
        }
    }
}

/// Largest additive disagreement across the four interval-distribution
/// fractions — the "max stat delta" the hybrid gate bounds.
pub fn hybrid_max_frac_delta(a: &BurstinessReport, b: &BurstinessReport) -> f64 {
    [
        a.frac_below_001 - b.frac_below_001,
        a.frac_below_01 - b.frac_below_01,
        a.frac_below_025 - b.frac_below_025,
        a.frac_below_1 - b.frac_below_1,
    ]
    .iter()
    .fold(0.0, |m, d| m.max(d.abs()))
}

fn ratio_of(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        f64::INFINITY
    } else {
        (a / b).max(b / a)
    }
}

/// The hybrid fluid/packet gate: a packet-mode and a fluid-mode run of the
/// same scenario must agree on loss rate (loss counts over equal
/// horizons), the loss-interval distribution, burstiness (index of
/// dispersion), and episode counts, all within `tol`.
pub fn check_hybrid_agreement(
    label: &str,
    packet: &BurstinessReport,
    fluid: &BurstinessReport,
    packet_episodes: usize,
    fluid_episodes: usize,
    tol: HybridTolerance,
) -> Result<(), String> {
    if packet.n_losses < 50 || fluid.n_losses < 50 {
        return fail(format!(
            "{label}: too few losses to judge agreement (packet {}, fluid {})",
            packet.n_losses, fluid.n_losses
        ));
    }
    let loss_ratio = ratio_of(packet.n_losses as f64, fluid.n_losses as f64);
    if loss_ratio > tol.loss_count_ratio {
        return fail(format!(
            "{label}: loss counts disagree by {loss_ratio:.2}x (packet {}, fluid {}) > {}x",
            packet.n_losses, fluid.n_losses, tol.loss_count_ratio
        ));
    }
    let frac_delta = hybrid_max_frac_delta(packet, fluid);
    if frac_delta > tol.frac_delta {
        return fail(format!(
            "{label}: interval-distribution fractions disagree by {frac_delta:.3} > {}",
            tol.frac_delta
        ));
    }
    let disp_ratio = ratio_of(packet.index_of_dispersion, fluid.index_of_dispersion);
    if disp_ratio > tol.dispersion_ratio {
        return fail(format!(
            "{label}: index of dispersion disagrees by {disp_ratio:.2}x \
             (packet {:.1}, fluid {:.1}) > {}x",
            packet.index_of_dispersion, fluid.index_of_dispersion, tol.dispersion_ratio
        ));
    }
    let ep_ratio = ratio_of(packet_episodes as f64, fluid_episodes as f64);
    if ep_ratio > tol.episode_ratio {
        return fail(format!(
            "{label}: episode counts disagree by {ep_ratio:.2}x \
             (packet {packet_episodes}, fluid {fluid_episodes}) > {}x",
            tol.episode_ratio
        ));
    }
    Ok(())
}

/// Gilbert-model parameter recovery: a fit of a synthetic trace must land
/// within `tol_p`/`tol_r` of the generating parameters.
pub fn check_gilbert_recovery(
    truth: GilbertParams,
    fitted: GilbertParams,
    tol_p: f64,
    tol_r: f64,
) -> Result<(), String> {
    if (fitted.p - truth.p).abs() > tol_p {
        return fail(format!(
            "fitted p = {:.4} vs truth {:.4} (tolerance {tol_p})",
            fitted.p, truth.p
        ));
    }
    if (fitted.r - truth.r).abs() > tol_r {
        return fail(format!(
            "fitted r = {:.4} vs truth {:.4} (tolerance {tol_r})",
            fitted.r, truth.r
        ));
    }
    Ok(())
}

/// Figs 5/6, equations (1)(2): one Monte-Carlo row must straddle its
/// analytic values — rate within 10 %, window within `[L_win, L_win + 1]`
/// (a random burst offset can straddle one trunk boundary).
pub fn check_detection_row(row: &DetectionRow) -> Result<(), String> {
    let rate_tol = 0.10 * row.rate_analytic.max(1.0);
    if (row.rate_simulated - row.rate_analytic).abs() > rate_tol {
        return fail(format!(
            "M={}: simulated L_rate {:.2} vs analytic min(M,N) = {:.2}",
            row.m, row.rate_simulated, row.rate_analytic
        ));
    }
    if row.window_simulated < row.window_analytic - 1e-9
        || row.window_simulated > row.window_analytic + 1.0
    {
        return fail(format!(
            "M={}: simulated L_win {:.2} outside [max(M/K,1), +1] = [{:.2}, {:.2}]",
            row.m,
            row.window_simulated,
            row.window_analytic,
            row.window_analytic + 1.0
        ));
    }
    Ok(())
}

/// The rate-vs-window detection asymmetry at one operating point: both the
/// analytic ratio `min(M,N)/max(M/K,1)` and the simulated counterpart must
/// reach `min_ratio`.
pub fn check_detection_asymmetry(row: &DetectionRow, min_ratio: f64) -> Result<(), String> {
    if row.unfairness() < min_ratio {
        return fail(format!(
            "M={}: analytic asymmetry {:.1}x < {min_ratio}x",
            row.m,
            row.unfairness()
        ));
    }
    let sim_ratio = row.rate_simulated / row.window_simulated.max(1e-12);
    if sim_ratio < min_ratio {
        return fail(format!(
            "M={}: simulated asymmetry {sim_ratio:.1}x < {min_ratio}x",
            row.m
        ));
    }
    Ok(())
}

/// Fig 7: paced flows must lose to window-based flows sharing the
/// bottleneck (deficit above `min_deficit`), on a link that is actually
/// loaded (combined throughput above `min_total_mbps`).
pub fn check_competition(
    res: &CompetitionResult,
    min_deficit: f64,
    min_total_mbps: f64,
) -> Result<(), String> {
    let total = res.pacing_mean_mbps + res.newreno_mean_mbps;
    if total < min_total_mbps {
        return fail(format!(
            "link underused: pacing {:.1} + newreno {:.1} = {total:.1} Mbps < {min_total_mbps}",
            res.pacing_mean_mbps, res.newreno_mean_mbps
        ));
    }
    if res.pacing_deficit < min_deficit {
        return fail(format!(
            "pacing deficit {:.3} < {min_deficit} (newreno {:.1} Mbps vs pacing {:.1} Mbps)",
            res.pacing_deficit, res.newreno_mean_mbps, res.pacing_mean_mbps
        ));
    }
    Ok(())
}

/// Fig 8: the parallel-transfer grid must (i) approach the theoretic bound
/// at the shortest RTT, (ii) sit far above it at the longest RTT, and
/// (iii) concentrate run-to-run dispersion in the long-RTT cells.
pub fn check_parallel_grid(
    cells: &[ParallelCell],
    short_rtt_max_norm: f64,
    long_rtt_min_norm: f64,
) -> Result<(), String> {
    if cells.is_empty() {
        return fail("empty parallel grid".into());
    }
    let short = cells.iter().map(|c| c.rtt).min().expect("non-empty");
    let long = cells.iter().map(|c| c.rtt).max().expect("non-empty");
    if short == long {
        return fail("grid needs at least two RTT columns".into());
    }
    let best_short = cells
        .iter()
        .filter(|c| c.rtt == short)
        .map(|c| c.mean_normalized)
        .fold(f64::INFINITY, f64::min);
    if best_short > short_rtt_max_norm {
        return fail(format!(
            "best short-RTT cell at {best_short:.2}x bound > {short_rtt_max_norm}x — \
             transfers never approach the bound"
        ));
    }
    let worst_long = cells
        .iter()
        .filter(|c| c.rtt == long)
        .map(|c| c.mean_normalized)
        .fold(0.0f64, f64::max);
    if worst_long < long_rtt_min_norm {
        return fail(format!(
            "worst long-RTT cell at {worst_long:.2}x bound < {long_rtt_min_norm}x — \
             no straggler penalty at long RTT"
        ));
    }
    let max_std = |rtt| {
        cells
            .iter()
            .filter(|c| c.rtt == rtt)
            .map(|c| c.std_normalized)
            .fold(0.0f64, f64::max)
    };
    if max_std(long) <= max_std(short) {
        return fail(format!(
            "dispersion not concentrated at long RTT: std {:.3} (long) ≤ {:.3} (short)",
            max_std(long),
            max_std(short)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_separates_clustered_from_exponential() {
        // A point mass is maximally un-exponential even after rate
        // matching: the empirical CDF jumps 0 → 1 where the reference sits
        // at 1 − 1/e.
        let clustered = vec![1e-4; 400];
        assert!(ks_vs_rate_matched_poisson(&clustered) > 0.5);
        let mut mixed = vec![1e-4; 380];
        mixed.extend(std::iter::repeat_n(5.0, 20));
        assert!(ks_vs_rate_matched_poisson(&mixed) > 0.5);
        let n = 3000;
        let expo: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        assert!(ks_vs_rate_matched_poisson(&expo) < 0.05);
        assert_eq!(ks_vs_rate_matched_poisson(&[]), 0.0);
    }

    #[test]
    fn table1_check_accepts_the_deployment_and_rejects_perturbations() {
        check_table1(26, 650, 2.0, 321.0, 48).unwrap();
        assert!(check_table1(25, 650, 2.0, 321.0, 48).is_err());
        assert!(check_table1(26, 649, 2.0, 321.0, 48).is_err());
        assert!(check_table1(26, 650, 5.0, 321.0, 48).is_err());
        assert!(check_table1(26, 650, 2.0, 150.0, 0).is_err());
    }
}
