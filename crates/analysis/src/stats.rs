//! Basic descriptive statistics used throughout the analysis toolkit.

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (0 for n < 2).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on the sorted sample.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// NaN-rejecting quantiles, one per entry of `qs` and in that order:
/// `quantile`'s interpolation rule, but the sort uses `f64::total_cmp`
/// and any NaN in the sample makes the whole estimate `None` instead of
/// panicking (or silently mis-sorting). The sample is scanned and sorted
/// once however many quantiles are asked for.
///
/// This is the estimator the straggler statistics are built on: a single
/// NaN completion time must surface as a rejected estimate, never as a
/// plausible-looking percentile.
pub fn try_quantiles(xs: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    // `total_cmp` calls two values equal only when their bits are, so the
    // unstable sort yields the same sequence a stable one would.
    sorted.sort_unstable_by(f64::total_cmp);
    Some(
        qs.iter()
            .map(|q| {
                let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                if lo == hi {
                    sorted[lo]
                } else {
                    let frac = pos - lo as f64;
                    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
                }
            })
            .collect(),
    )
}

/// The single-quantile form of [`try_quantiles`].
pub fn try_quantile(xs: &[f64], q: f64) -> Option<f64> {
    try_quantiles(xs, &[q]).map(|v| v[0])
}

/// Straggler tail mass: the P99/median ratio of a sample of (positive)
/// completion times or slowdowns. 1 means no tail at all; large values
/// mean the slowest 1% dominate the barrier. `None` on an empty sample,
/// any NaN, or a non-positive median (the ratio would be meaningless).
pub fn tail_mass(xs: &[f64]) -> Option<f64> {
    let q = try_quantiles(xs, &[0.99, 0.5])?;
    let (p99, median) = (q[0], q[1]);
    if median <= 0.0 {
        return None;
    }
    Some(p99 / median)
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when all shares are equal,
/// `1/n` when one member takes everything.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 <= 0.0 {
        0.0
    } else {
        s * s / (xs.len() as f64 * s2)
    }
}

/// Kolmogorov–Smirnov statistic between the empirical distribution of
/// `xs` and a continuous reference CDF: `sup_x |F_n(x) − F(x)|`.
///
/// The conformance suite uses this to measure how far a loss-interval
/// sample sits from the rate-matched Poisson (exponential-interval)
/// reference — the paper's central "≫ Poisson" claim as one number.
pub fn ks_statistic(xs: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        d = d.max(((i as f64 + 1.0) / n - f).max(f - i as f64 / n));
    }
    d
}

/// Percentile bootstrap confidence interval for an arbitrary statistic.
///
/// Resamples `xs` with replacement `resamples` times using a deterministic
/// xorshift stream seeded by `seed`, computes `stat` on each resample, and
/// returns the `(lo, hi)` quantiles at `1−level` (e.g. `level = 0.95` gives
/// the 2.5th and 97.5th percentiles). Used to put error bars on the
/// cluster-fraction numbers in EXPERIMENTS.md.
pub fn bootstrap_ci(
    xs: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
    stat: impl Fn(&[f64]) -> f64,
) -> (f64, f64) {
    if xs.is_empty() || resamples == 0 {
        return (0.0, 0.0);
    }
    let mut s = seed.max(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let n = xs.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; n];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = xs[(next() as usize) % n];
        }
        stats.push(stat(&buf));
    }
    let alpha = (1.0 - level.clamp(0.0, 1.0)) / 2.0;
    (quantile(&stats, alpha), quantile(&stats, 1.0 - alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        // Order must not matter.
        let sh = [3.0, 1.0, 4.0, 2.0];
        assert!((quantile(&sh, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn try_quantile_is_exact_on_known_samples() {
        // Same interpolation rule as `quantile`, verified against hand
        // computation on small samples.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(try_quantile(&xs, 0.0), Some(1.0));
        assert_eq!(try_quantile(&xs, 1.0), Some(4.0));
        assert!((try_quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
        // P99 of 4 points: pos = 0.99 * 3 = 2.97 → 3 + 0.97 * (4 − 3).
        assert!((try_quantile(&xs, 0.99).unwrap() - 3.97).abs() < 1e-12);
        // Order must not matter (total_cmp sort).
        let sh = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(try_quantile(&sh, 0.99), try_quantile(&xs, 0.99));
        // Agrees with the legacy estimator on clean data.
        assert_eq!(try_quantile(&xs, 0.37), Some(quantile(&xs, 0.37)));
    }

    #[test]
    fn try_quantiles_equals_per_call_estimates_bit_for_bit() {
        // One scan and one sort for many quantiles must change no bit of
        // any of them. `quantile` sorts and interpolates on its own, one
        // call per quantile; samples cover ties, length 1 and length 2.
        let mut s = 2006u64;
        let mut noisy: Vec<f64> = (0..997)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Coarse values, so the sample is full of ties.
                ((s >> 40) % 64) as f64 / 7.0 + 0.5
            })
            .collect();
        noisy.push(1e9);
        let samples: [&[f64]; 5] = [
            &[7.5],
            &[3.0, 1.0],
            &[2.0, 2.0, 2.0, 9.0, 2.0, 9.0],
            &[4.0, 1.0, 3.0, 2.0],
            &noisy,
        ];
        let qs = [0.0, 0.1, 0.37, 0.5, 0.9, 0.99, 0.999, 1.0, -1.0, 2.0];
        for xs in samples {
            let together = try_quantiles(xs, &qs).unwrap();
            for (&q, &got) in qs.iter().zip(&together) {
                assert_eq!(got.to_bits(), quantile(xs, q).to_bits(), "q = {q}");
                assert_eq!(got.to_bits(), try_quantile(xs, q).unwrap().to_bits());
            }
            let tail = tail_mass(xs).unwrap();
            assert_eq!(
                tail.to_bits(),
                (quantile(xs, 0.99) / quantile(xs, 0.5)).to_bits()
            );
        }
        assert_eq!(try_quantiles(&[], &qs), None);
        assert_eq!(try_quantiles(&[1.0, f64::NAN], &qs), None);
        assert_eq!(try_quantiles(&[1.0], &[]), Some(vec![]));
    }

    #[test]
    fn try_quantile_degenerate_samples() {
        // Single element: every quantile is that element.
        assert_eq!(try_quantile(&[7.5], 0.0), Some(7.5));
        assert_eq!(try_quantile(&[7.5], 0.5), Some(7.5));
        assert_eq!(try_quantile(&[7.5], 0.99), Some(7.5));
        // All-equal: flat everywhere.
        let flat = [2.0; 9];
        assert_eq!(try_quantile(&flat, 0.5), Some(2.0));
        assert_eq!(try_quantile(&flat, 0.99), Some(2.0));
        // Empty: no estimate.
        assert_eq!(try_quantile(&[], 0.5), None);
    }

    #[test]
    fn try_quantile_rejects_nan() {
        assert_eq!(try_quantile(&[1.0, f64::NAN, 3.0], 0.5), None);
        assert_eq!(try_quantile(&[f64::NAN], 0.5), None);
        // Infinities are ordered by total_cmp and pass through.
        assert_eq!(
            try_quantile(&[1.0, f64::INFINITY], 1.0),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn tail_mass_known_values() {
        // Single element and all-equal samples have no tail.
        assert_eq!(tail_mass(&[3.0]), Some(1.0));
        assert_eq!(tail_mass(&[2.0; 20]), Some(1.0));
        // 98 ones plus one huge straggler: median 1; P99 sits at
        // pos = 0.99 · 98 = 97.02, interpolating between sorted[97] = 1
        // and sorted[98] = 101 → 1 + 0.02 · 100 = 3 → tail mass 3.
        let mut xs = vec![1.0; 98];
        xs.push(101.0);
        let t = tail_mass(&xs).unwrap();
        assert!((t - 3.0).abs() < 1e-9, "tail mass {t}");
        // A second straggler doubles the tail's weight in the window.
        xs.push(101.0);
        let t2 = tail_mass(&xs).unwrap();
        assert!(t2 > t, "heavier tail must raise the ratio: {t2} vs {t}");
    }

    #[test]
    fn tail_mass_rejects_nan_and_degenerate_medians() {
        assert_eq!(tail_mass(&[]), None);
        assert_eq!(tail_mass(&[1.0, f64::NAN]), None);
        // Non-positive median: ratio undefined.
        assert_eq!(tail_mass(&[0.0, 0.0, 5.0]), None);
        assert_eq!(tail_mass(&[-1.0, -1.0, -1.0]), None);
    }

    #[test]
    fn jain_fairness_endpoints() {
        assert!((jain_fairness(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 0.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 0.0);
        // Scale-invariant.
        let a = jain_fairness(&[1.0, 2.0, 3.0]);
        let b = jain_fairness(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_ci_brackets_the_point_estimate() {
        let xs: Vec<f64> = (0..500)
            .map(|i| if i % 10 == 0 { 1.0 } else { 0.0 })
            .collect();
        // Statistic: fraction of ones (true value 0.1).
        let frac = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (lo, hi) = bootstrap_ci(&xs, 0.95, 400, 42, frac);
        assert!(lo <= 0.1 && 0.1 <= hi, "CI [{lo}, {hi}] misses 0.1");
        assert!(hi - lo < 0.1, "CI too wide: [{lo}, {hi}]");
        // Deterministic.
        let again = bootstrap_ci(&xs, 0.95, 400, 42, frac);
        assert_eq!((lo, hi), again);
        // Degenerate inputs.
        assert_eq!(bootstrap_ci(&[], 0.95, 100, 1, frac), (0.0, 0.0));
    }

    #[test]
    fn ks_statistic_of_matching_sample_is_small() {
        // Exponential quantiles against the exponential CDF: the only
        // deviation is the 1/n staircase granularity.
        let n = 2000;
        let xs: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        let d = ks_statistic(&xs, |x| 1.0 - (-x).exp());
        assert!(d < 2.0 / n as f64 + 1e-9, "d = {d}");
    }

    #[test]
    fn ks_statistic_of_clustered_sample_is_large() {
        // All mass at ~0 against an exponential with mean 1.
        let xs = vec![1e-4; 500];
        let d = ks_statistic(&xs, |x| 1.0 - (-x).exp());
        assert!(d > 0.9, "d = {d}");
        assert_eq!(ks_statistic(&[], |_| 0.5), 0.0);
        // Order must not matter.
        let a = ks_statistic(&[0.3, 0.1, 0.9], |x| x);
        let b = ks_statistic(&[0.1, 0.3, 0.9], |x| x);
        assert_eq!(a, b);
    }
}
