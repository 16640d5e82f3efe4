//! Coarse-clock timestamp models.
//!
//! The paper's Dummynet router ran FreeBSD with a 1 ms clock: "all Dummynet
//! records have a resolution of 1ms". The visible effect in Fig 3 is that
//! loss timestamps collapse onto clock ticks — many intervals become
//! exactly zero and the rest multiples of 1 ms. [`ClockModel`] reproduces
//! that quantization over any recorded trace.

use lossburst_netsim::time::{SimDuration, SimTime};

/// A recording clock with finite resolution.
#[derive(Clone, Copy, Debug)]
pub struct ClockModel {
    /// Tick length; timestamps are floored to multiples of this.
    pub tick: SimDuration,
}

impl ClockModel {
    /// The paper's FreeBSD Dummynet clock: 1 ms ticks.
    pub(crate) fn freebsd_1ms() -> ClockModel {
        ClockModel {
            tick: SimDuration::from_millis(1),
        }
    }

    /// An ideal (infinite-resolution) clock.
    pub(crate) fn ideal() -> ClockModel {
        ClockModel {
            tick: SimDuration::ZERO,
        }
    }

    /// Quantize one instant.
    pub fn stamp(&self, t: SimTime) -> SimTime {
        t.quantize(self.tick)
    }

    /// Quantize one timestamp in seconds — the per-event form streaming
    /// sinks apply as losses surface. Bitwise-identical to what
    /// [`ClockModel::stamp_secs`] does to the same element.
    #[inline]
    pub(crate) fn stamp_one_secs(&self, t: f64) -> f64 {
        if self.tick == SimDuration::ZERO {
            return t;
        }
        let tick = self.tick.as_secs_f64();
        (t / tick).floor() * tick
    }

    /// Quantize a trace of timestamps in seconds.
    pub fn stamp_secs(&self, times: &[f64]) -> Vec<f64> {
        if self.tick == SimDuration::ZERO {
            return times.to_vec();
        }
        times.iter().map(|&t| self.stamp_one_secs(t)).collect()
    }
}

/// One row of a clock-resolution ablation: how measurement clock
/// granularity distorts the inter-loss interval PDF (the systematic
/// difference between the paper's Fig 2 and Fig 3).
#[derive(Clone, Debug)]
pub struct ClockAblationRow {
    /// Clock tick used for the trace.
    pub tick: SimDuration,
    /// Fraction of recorded intervals that collapse to exactly zero.
    pub zero_fraction: f64,
    /// Fraction below 0.01 RTT (including the zeros).
    pub frac_below_001: f64,
}

/// Re-record one loss trace (seconds) under several clock resolutions and
/// report how the headline fraction moves. `rtt_secs` normalizes.
pub fn clock_ablation(
    times: &[f64],
    rtt_secs: f64,
    ticks: &[SimDuration],
) -> Vec<ClockAblationRow> {
    ticks
        .iter()
        .map(|&tick| {
            let clock = ClockModel { tick };
            let stamped = clock.stamp_secs(times);
            let mut sorted = stamped;
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
            let intervals: Vec<f64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
            let n = intervals.len().max(1) as f64;
            let zero = intervals.iter().filter(|&&x| x == 0.0).count() as f64 / n;
            let below = intervals.iter().filter(|&&x| x < 0.01 * rtt_secs).count() as f64 / n;
            ClockAblationRow {
                tick,
                zero_fraction: zero,
                frac_below_001: below,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizes_to_tick_multiples() {
        let c = ClockModel::freebsd_1ms();
        let t = SimTime::from_nanos(5_700_000); // 5.7 ms
        assert_eq!(c.stamp(t), SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn ideal_clock_is_identity() {
        let c = ClockModel::ideal();
        let times = [0.00123, 4.56789];
        assert_eq!(c.stamp_secs(&times), times.to_vec());
    }

    #[test]
    fn stamp_secs_floors() {
        let c = ClockModel::freebsd_1ms();
        let out = c.stamp_secs(&[0.0017, 0.0021, 0.0029]);
        assert!((out[0] - 0.001).abs() < 1e-12);
        assert!((out[1] - 0.002).abs() < 1e-12);
        assert!((out[2] - 0.002).abs() < 1e-12);
    }

    #[test]
    fn quantization_collapses_sub_tick_intervals_to_zero() {
        let c = ClockModel::freebsd_1ms();
        // Two losses 0.3 ms apart within one tick.
        let out = c.stamp_secs(&[0.0102, 0.0105]);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn clock_ablation_coarser_clock_more_zeros() {
        // A bursty trace: clusters of 5 drops 0.2 ms apart every 100 ms.
        let mut times = Vec::new();
        for c in 0..50 {
            for k in 0..5 {
                times.push(c as f64 * 0.1 + k as f64 * 0.0002);
            }
        }
        let rows = clock_ablation(
            &times,
            0.1, // 100 ms RTT
            &[
                SimDuration::ZERO,
                SimDuration::from_micros(100),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
            ],
        );
        // Zero-interval fraction is monotone in tick size.
        for w in rows.windows(2) {
            assert!(
                w[1].zero_fraction >= w[0].zero_fraction,
                "zeros not monotone: {:?}",
                rows
            );
        }
        // The ideal clock has no zeros; the 10 ms clock collapses whole
        // clusters.
        assert_eq!(rows[0].zero_fraction, 0.0);
        assert!(rows[3].zero_fraction > 0.7);
        // The sub-0.01-RTT fraction stays high throughout — quantization
        // does not *hide* the burstiness (Fig 3's point).
        for r in &rows {
            assert!(r.frac_below_001 > 0.7, "{r:?}");
        }
    }
}
