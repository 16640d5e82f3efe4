//! Statistical conformance gates that judge two runs against each other
//! rather than one run against the paper: the hybrid fluid/packet gate and
//! Gilbert parameter recovery. The paper rows' shape claims live in
//! `lossburst_core::registry`, beside the rows.
//!
//! Each gate takes already-computed statistics and returns
//! `Result<(), String>` — the `Err` names the violated bound. Taking data
//! rather than running scenarios keeps the gates cheap and lets the
//! perturbation suite (`tests/perturbation.rs`) prove that each one fails
//! when its statistic is deliberately broken.

use lossburst_analysis::burstiness::BurstinessReport;
use lossburst_analysis::gilbert::GilbertParams;

fn fail(msg: String) -> Result<(), String> {
    Err(msg)
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
