//! Burstiness metrics for loss processes.
//!
//! The paper's headline numbers are cluster fractions: "more than 95% of the
//! packet losses cluster within short time periods smaller than 0.01 RTT"
//! (NS-2), "about 80%" (Dummynet), "40% … within 0.01 RTT and 60% … within
//! 1 RTT" (Internet). This module computes those fractions plus two
//! standard burstiness statistics the paper's future-work section calls
//! for: the ratio against the Poisson process with the same rate, and the
//! index of dispersion for counts.

use crate::intervals::time_order;
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

/// Compute the report from RTT-normalized intervals. The only extra memory
/// is the window counts of the index of dispersion.
///
/// A NaN interval poisons what sums the intervals — the mean, the ratio and
/// the index of dispersion read NaN — while the cluster fractions count it
/// below no threshold.
pub fn analyze(intervals_rtt: &[f64]) -> BurstinessReport {
    let n_intervals = intervals_rtt.len();
    let mean = stats::mean(intervals_rtt);
    let mut below = [0usize; 4];
    for &iv in intervals_rtt {
        below[0] += usize::from(iv < 0.01);
        below[1] += usize::from(iv < 0.1);
        below[2] += usize::from(iv < 0.25);
        below[3] += usize::from(iv < 1.0);
    }
    let [f001, f01, f025, f1] = below.map(|c| {
        if n_intervals == 0 {
            0.0
        } else {
            c as f64 / n_intervals as f64
        }
    });
    let lambda = poisson::rate_from_intervals(intervals_rtt);
    let poisson_f001 = poisson::reference_cdf(lambda, 0.01);
    let ratio = if poisson_f001 <= 0.0 {
        0.0
    } else {
        f001 / poisson_f001
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
        index_of_dispersion: if mean.is_nan() {
            f64::NAN
        } else {
            index_of_dispersion_from_intervals(intervals_rtt, 1.0)
        },
    }
}

/// Event counts in consecutive windows of `window` (same unit as `times`),
/// the first anchored at the earliest finite instant. Counting does not
/// depend on order, so the input is read where it lies: one pass for the
/// first and last finite instant, one to count.
///
/// A non-finite instant counts in the window at its end of the
/// [time order](crate::intervals#time-order) — −∞ and −NaN in the first,
/// +∞ and NaN in the last — and with no finite instant at all every event
/// shares one window.
pub fn counts_in_windows(times: &[f64], window: f64) -> Vec<u64> {
    window_counts(times.iter().copied(), window)
}

/// [`counts_in_windows`] over any sequence that can be walked twice.
fn window_counts(times: impl Iterator<Item = f64> + Clone, window: f64) -> Vec<u64> {
    assert!(window > 0.0);
    let mut finite = times.clone().filter(|t| t.is_finite());
    let Some(first) = finite.next() else {
        let n = times.count() as u64;
        return if n == 0 { Vec::new() } else { vec![n] };
    };
    let (t0, t1) = finite.fold((first, first), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let nwin = ((t1 - t0) / window).floor() as usize + 1;
    let mut counts = vec![0u64; nwin];
    for t in times {
        let idx = if t.is_finite() {
            (((t - t0) / window) as usize).min(nwin - 1)
        } else if time_order(&t, &t0).is_lt() {
            0
        } else {
            nwin - 1
        };
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
    // `stats::mean` and `stats::variance`, summing the counts as they lie.
    let xs = counts.iter().map(|&c| c as f64);
    let m = xs.clone().sum::<f64>() / counts.len() as f64;
    if m <= 0.0 {
        0.0
    } else {
        xs.map(|x| (x - m) * (x - m)).sum::<f64>() / (counts.len() - 1) as f64 / m
    }
}

/// Index of dispersion of the events at the intervals' cumulative sums
/// (the first at 0). The sums are rebuilt on each pass, in the same
/// `t += iv` order, instead of being stored.
fn index_of_dispersion_from_intervals(intervals_rtt: &[f64], window: f64) -> f64 {
    if intervals_rtt.is_empty() {
        return 0.0;
    }
    let sums = intervals_rtt.iter().scan(0.0, |t, iv| {
        *t += iv;
        Some(*t)
    });
    index_of_dispersion(&window_counts(std::iter::once(0.0).chain(sums), window))
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

    #[test]
    fn cluster_fractions_count_strictly_below() {
        let rep = analyze(&[0.005, 0.01, 0.5, 1.5]);
        assert_eq!(rep.frac_below_001, 0.25);
        assert_eq!(rep.frac_below_1, 0.75);
    }

    #[test]
    fn non_finite_instants_count_at_their_end_of_the_time_order() {
        let nan = f64::NAN;
        let neg_nan = -f64::NAN;
        let inf = f64::INFINITY;
        // Length 1 and 2: no finite instant, or one.
        assert_eq!(counts_in_windows(&[nan], 1.0), [1]);
        assert_eq!(counts_in_windows(&[nan, nan], 1.0), [2]);
        assert_eq!(counts_in_windows(&[nan, 0.5], 1.0), [2]);
        assert_eq!(counts_in_windows(&[0.5, nan], 1.0), [2]);
        // First, middle, last: NaN and +∞ in the last window, −NaN and −∞
        // in the first, whatever their place in the input.
        for times in [
            [nan, 0.0, 2.5],
            [0.0, nan, 2.5],
            [0.0, 2.5, nan],
            [inf, 2.5, 0.0],
        ] {
            assert_eq!(counts_in_windows(&times, 1.0), [1, 0, 2], "{times:?}");
        }
        for times in [[neg_nan, 0.0, 2.5], [0.0, -inf, 2.5]] {
            assert_eq!(counts_in_windows(&times, 1.0), [2, 0, 1], "{times:?}");
        }
    }

    #[test]
    fn a_nan_interval_poisons_the_report_instead_of_panicking() {
        for iv in [
            vec![f64::NAN],
            vec![f64::NAN, 0.5],
            vec![0.5, f64::NAN],
            vec![f64::NAN, 0.005, 3.0],
            vec![0.005, f64::NAN, 3.0],
            vec![0.005, 3.0, f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ] {
            let rep = analyze(&iv);
            assert_eq!(rep.n_intervals, iv.len());
            assert!(rep.mean_interval_rtt.is_nan(), "{iv:?}");
            assert!(rep.burstiness_ratio.is_nan(), "{iv:?}");
            assert!(rep.index_of_dispersion.is_nan(), "{iv:?}");
            // A NaN is below no threshold; the fractions stay counts.
            let finite_below_1 = iv.iter().filter(|&&x| x < 1.0).count();
            assert_eq!(rep.frac_below_1, finite_below_1 as f64 / iv.len() as f64);
        }
        // Infinite but not NaN: finite statistics, and still no panic.
        let rep = analyze(&[0.5, f64::INFINITY, 0.5]);
        assert_eq!(rep.mean_interval_rtt, f64::INFINITY);
        assert_eq!(rep.burstiness_ratio, 0.0);
        assert!(rep.index_of_dispersion.is_finite());
    }
}
