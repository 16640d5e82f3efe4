//! Deterministic random sampling helpers.
//!
//! Every stochastic element of a simulation draws from one seeded
//! [`SmallRng`]; these helpers implement the distributions the paper's
//! workloads need (exponential on-off periods, uniform latencies, Pareto
//! flow sizes for heterogeneous Internet cross-traffic) without pulling in
//! `rand_distr`.

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Namespaced sampling functions over a caller-provided RNG.
pub struct Sampler;

impl Sampler {
    /// Exponential variate with the given mean, by inverse transform.
    #[inline]
    pub(crate) fn exponential(rng: &mut SmallRng, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        // Avoid ln(0); u is in (0, 1].
        let u: f64 = 1.0 - rng.random::<f64>();
        -mean * u.ln()
    }

    /// Exponentially distributed duration with the given mean.
    #[inline]
    pub fn exponential_duration(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(Self::exponential(rng, mean.as_secs_f64()))
    }

    /// Uniform duration in `[lo, hi]`.
    #[inline]
    pub fn uniform_duration(rng: &mut SmallRng, lo: SimDuration, hi: SimDuration) -> SimDuration {
        if hi <= lo {
            return lo;
        }
        SimDuration::from_nanos(rng.random_range(lo.as_nanos()..=hi.as_nanos()))
    }

    /// Bounded Pareto variate (shape `alpha`, minimum `xmin`), the classic
    /// heavy-tailed model for Internet flow sizes.
    #[inline]
    pub fn pareto(rng: &mut SmallRng, xmin: f64, alpha: f64) -> f64 {
        debug_assert!(xmin > 0.0 && alpha > 0.0);
        let u: f64 = 1.0 - rng.random::<f64>();
        xmin / u.powf(1.0 / alpha)
    }

    /// Derive an independent child RNG from a parent seed and a stream
    /// index. Used to give each flow / path / replication its own stream so
    /// that adding one flow does not perturb another's draws.
    #[inline]
    pub fn child_rng(seed: u64, stream: u64) -> SmallRng {
        // SplitMix64 finalizer to decorrelate (seed, stream) pairs.
        let mut z =
            seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SmallRng::seed_from_u64(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let mean = 0.25;
        let sum: f64 = (0..n).map(|_| Sampler::exponential(&mut rng, mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.01, "estimated mean {est}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(Sampler::exponential(&mut rng, 1.0) >= 0.0);
        }
    }

    #[test]
    fn uniform_duration_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        let lo = SimDuration::from_millis(2);
        let hi = SimDuration::from_millis(200);
        for _ in 0..10_000 {
            let d = Sampler::uniform_duration(&mut rng, lo, hi);
            assert!(d >= lo && d <= hi);
        }
        // Degenerate range returns lo.
        assert_eq!(Sampler::uniform_duration(&mut rng, hi, lo), hi);
    }

    #[test]
    fn pareto_exceeds_minimum() {
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..10_000 {
            assert!(Sampler::pareto(&mut rng, 3.0, 1.2) >= 3.0);
        }
    }

    #[test]
    fn child_rngs_differ_by_stream() {
        let mut a = Sampler::child_rng(42, 0);
        let mut b = Sampler::child_rng(42, 1);
        let xa: u64 = a.random();
        let xb: u64 = b.random();
        assert_ne!(xa, xb);
        // Same (seed, stream) replays identically.
        let mut a2 = Sampler::child_rng(42, 0);
        let xa2: u64 = a2.random();
        assert_eq!(xa, xa2);
    }
}
