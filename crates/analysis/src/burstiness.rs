//! Burstiness metrics for loss processes.
//!
//! The paper's headline numbers are cluster fractions: "more than 95% of the
//! packet losses cluster within short time periods smaller than 0.01 RTT"
//! (NS-2), "about 80%" (Dummynet), "40% … within 0.01 RTT and 60% … within
//! 1 RTT" (Internet). This module computes those fractions plus two
//! standard burstiness statistics the paper's future-work section calls
//! for: the ratio against the Poisson process with the same rate, and the
//! index of dispersion for counts.

use crate::poisson;
use crate::stats;

/// Burstiness characterization of one RTT-normalized inter-loss-interval
/// sample.
#[derive(Clone, Copy, Debug)]
pub struct BurstinessReport {
    /// Number of loss events in the trace.
    pub n_losses: usize,
    /// Number of intervals (`n_losses − 1`).
    pub n_intervals: usize,
    /// Mean interval in RTT units.
    pub mean_interval_rtt: f64,
    /// Fraction of intervals below 0.01 RTT (the paper's tightest bucket).
    pub frac_below_001: f64,
    /// Fraction below 0.1 RTT.
    pub frac_below_01: f64,
    /// Fraction below 0.25 RTT (the paper's Fig 4 comparison window).
    pub frac_below_025: f64,
    /// Fraction below 1 RTT.
    pub frac_below_1: f64,
    /// Observed `frac_below_001` divided by the same fraction under the
    /// rate-matched Poisson process (≫ 1 means bursty).
    pub burstiness_ratio: f64,
    /// Index of dispersion for counts over 1-RTT windows
    /// (variance/mean of per-window loss counts; 1 for Poisson).
    pub index_of_dispersion: f64,
}

/// Compute the report from RTT-normalized intervals.
pub fn analyze(intervals_rtt: &[f64]) -> BurstinessReport {
    let n_intervals = intervals_rtt.len();
    let mean = stats::mean(intervals_rtt);
    let f001 = stats::fraction_below(intervals_rtt, 0.01);
    let f01 = stats::fraction_below(intervals_rtt, 0.1);
    let f025 = stats::fraction_below(intervals_rtt, 0.25);
    let f1 = stats::fraction_below(intervals_rtt, 1.0);
    let lambda = poisson::rate_from_intervals(intervals_rtt);
    let poisson_f001 = poisson::reference_cdf(lambda, 0.01);
    let ratio = if poisson_f001 > 0.0 {
        f001 / poisson_f001
    } else {
        0.0
    };
    BurstinessReport {
        n_losses: if n_intervals == 0 { 0 } else { n_intervals + 1 },
        n_intervals,
        mean_interval_rtt: mean,
        frac_below_001: f001,
        frac_below_01: f01,
        frac_below_025: f025,
        frac_below_1: f1,
        burstiness_ratio: ratio,
        index_of_dispersion: index_of_dispersion_from_intervals(intervals_rtt, 1.0),
    }
}

/// Event counts in consecutive windows of `window` (same unit as `times`).
pub fn counts_in_windows(times: &[f64], window: f64) -> Vec<u64> {
    assert!(window > 0.0);
    if times.is_empty() {
        return Vec::new();
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN timestamp"));
    let t0 = sorted[0];
    let span = sorted[sorted.len() - 1] - t0;
    let nwin = (span / window).floor() as usize + 1;
    let mut counts = vec![0u64; nwin];
    for t in sorted {
        let idx = (((t - t0) / window) as usize).min(nwin - 1);
        counts[idx] += 1;
    }
    counts
}

/// Index of dispersion for counts: variance/mean of per-window counts.
/// Equals 1 for a Poisson process; ≫ 1 for clustered (bursty) processes.
pub(crate) fn index_of_dispersion(counts: &[u64]) -> f64 {
    if counts.len() < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let m = stats::mean(&xs);
    if m <= 0.0 {
        0.0
    } else {
        stats::variance(&xs) / m
    }
}

/// Index of dispersion computed by reconstructing event times from
/// intervals (events at the cumulative sums).
fn index_of_dispersion_from_intervals(intervals_rtt: &[f64], window: f64) -> f64 {
    if intervals_rtt.is_empty() {
        return 0.0;
    }
    let mut t = 0.0;
    let mut times = Vec::with_capacity(intervals_rtt.len() + 1);
    times.push(0.0);
    for iv in intervals_rtt {
        t += iv;
        times.push(t);
    }
    index_of_dispersion(&counts_in_windows(&times, window))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_intervals_read_as_bursty() {
        // 99 tiny intervals then one huge one, repeated: extreme clustering.
        let mut iv = Vec::new();
        for _ in 0..10 {
            iv.extend(std::iter::repeat_n(0.001, 99));
            iv.push(50.0);
        }
        let rep = analyze(&iv);
        assert!(rep.frac_below_001 > 0.9);
        assert!(
            rep.burstiness_ratio > 10.0,
            "ratio {}",
            rep.burstiness_ratio
        );
        assert!(
            rep.index_of_dispersion > 5.0,
            "IDC {}",
            rep.index_of_dispersion
        );
    }

    #[test]
    fn exponential_intervals_read_as_poisson() {
        // Deterministic exponential quantiles with mean 1 RTT.
        let n = 20_000;
        let iv: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                -(1.0f64 - u).ln()
            })
            .collect();
        let rep = analyze(&iv);
        assert!(
            (rep.burstiness_ratio - 1.0).abs() < 0.25,
            "ratio {}",
            rep.burstiness_ratio
        );
        assert!((rep.mean_interval_rtt - 1.0).abs() < 0.05);
        // A Poisson process puts ~1% of mass below 0.01 RTT at rate 1.
        assert!(rep.frac_below_001 < 0.03);
    }

    #[test]
    fn counts_in_windows_partitions_all_events() {
        let times = [0.0, 0.1, 0.2, 1.5, 3.9];
        let counts = counts_in_windows(&times, 1.0);
        assert_eq!(counts.iter().sum::<u64>(), 5);
        assert_eq!(counts[0], 3);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[3], 1);
    }

    #[test]
    fn dispersion_of_regular_process_is_low() {
        // Perfectly regular events: variance of counts ~ 0.
        let times: Vec<f64> = (0..1000).map(|i| i as f64 * 0.1).collect();
        let idc = index_of_dispersion(&counts_in_windows(&times, 1.0));
        assert!(idc < 0.2, "IDC {idc}");
    }

    #[test]
    fn empty_input_is_all_zeros() {
        let rep = analyze(&[]);
        assert_eq!(rep.n_losses, 0);
        assert_eq!(rep.frac_below_1, 0.0);
        assert_eq!(rep.index_of_dispersion, 0.0);
    }
}
