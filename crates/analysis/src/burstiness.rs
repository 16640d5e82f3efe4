//! Burstiness metrics for loss processes.
//!
//! The paper's headline numbers are cluster fractions: "more than 95% of the
//! packet losses cluster within short time periods smaller than 0.01 RTT"
//! (NS-2), "about 80%" (Dummynet), "40% … within 0.01 RTT and 60% … within
//! 1 RTT" (Internet). This module computes those fractions plus two
//! standard burstiness statistics the paper's future-work section calls
//! for: the ratio against the Poisson process with the same rate, and the
//! index of dispersion for counts.
//!
//! One engine computes them, whether the intervals come as a slice
//! ([`analyze`]) or one loss at a time from a trace sink
//! ([`LossStreamStats`](crate::streaming::LossStreamStats)): an
//! `IntervalHist` folds the intervals, a `WindowSums` folds the loss
//! instants of their stitched timeline, and `IntervalHist::report` builds
//! every [`BurstinessReport`] from the two. Both hold O(bins + lags) state;
//! an empty window of the span costs nothing.

use crate::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use crate::intervals::time_order;
use crate::poisson;
use crate::streaming::{MAX_LAG, WINDOW_RTT};

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

/// Compute the report from RTT-normalized intervals: one fold of the
/// intervals and of their stitched timeline (the first loss at 0, each
/// later one at its predecessor plus the interval). Time-ordered input
/// allocates nothing but the histogram's bins, whatever its span; a
/// timeline that steps back (a negative interval) is windowed from a copy
/// in the [time order](crate::intervals#time-order).
///
/// A NaN interval poisons what sums the intervals — the mean, the ratio and
/// the index of dispersion read NaN — while the cluster fractions count it
/// below no threshold.
pub fn analyze(intervals_rtt: &[f64]) -> BurstinessReport {
    let mut hist = IntervalHist::paper_geometry();
    let mut steps_back = false;
    for &iv in intervals_rtt {
        hist.push(iv);
        steps_back |= iv < 0.0;
    }
    let first = (!intervals_rtt.is_empty()).then_some(0.0);
    let timeline = first
        .into_iter()
        .chain(intervals_rtt.iter().scan(0.0, |t, iv| {
            *t += iv;
            Some(*t)
        }));
    let mut windows = WindowSums::default();
    if steps_back {
        let mut times: Vec<f64> = timeline.collect();
        times.sort_by(time_order);
        times.into_iter().for_each(|t| windows.push(t));
    } else {
        timeline.for_each(|t| windows.push(t));
    }
    hist.report(&windows)
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
    assert!(window > 0.0);
    let mut finite = times.iter().copied().filter(|t| t.is_finite());
    let Some(first) = finite.next() else {
        return if times.is_empty() {
            Vec::new()
        } else {
            vec![times.len() as u64]
        };
    };
    let (t0, t1) = finite.fold((first, first), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let nwin = ((t1 - t0) / window).floor() as usize + 1;
    let mut counts = vec![0u64; nwin];
    for &t in times {
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

/// The thresholds (RTT units) of the report's cluster fractions.
const THRESHOLDS: [f64; 4] = [0.01, 0.1, 0.25, 1.0];

/// The interval side of the engine: the RTT-normalized inter-loss-interval
/// histogram on the paper's geometry, the interval sum and count, and how
/// many intervals fall strictly below each of [`THRESHOLDS`]. The sum
/// starts at −0.0, where `Iterator::sum` does, and adds in push order, so
/// the mean keeps the bits of [`crate::stats::mean`] over the same
/// sequence.
#[derive(Clone, Debug)]
pub(crate) struct IntervalHist {
    hist: Histogram,
    sum: f64,
    n: u64,
    below: [u64; 4],
}

impl IntervalHist {
    /// An empty accumulator on the paper's geometry (0.02 RTT bins, 0–2
    /// RTT).
    pub(crate) fn paper_geometry() -> IntervalHist {
        IntervalHist {
            hist: Histogram::new(PAPER_BIN_WIDTH, PAPER_RANGE),
            sum: -0.0,
            n: 0,
            below: [0; 4],
        }
    }

    /// Add one RTT-normalized interval.
    #[inline]
    pub(crate) fn push(&mut self, iv_rtt: f64) {
        self.hist.add(iv_rtt);
        self.sum += iv_rtt;
        self.n += 1;
        for (below, x) in self.below.iter_mut().zip(THRESHOLDS) {
            *below += u64::from(iv_rtt < x);
        }
    }

    /// Intervals consumed so far.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// The histogram accumulated so far.
    pub(crate) fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Mean interval (0 when empty).
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Implied Poisson rate `1 / mean` (0 when empty or degenerate),
    /// matching [`crate::poisson::rate_from_intervals`].
    pub(crate) fn lambda(&self) -> f64 {
        let mean = self.mean();
        if self.n == 0 || mean <= 0.0 {
            0.0
        } else {
            1.0 / mean
        }
    }

    /// The one [`BurstinessReport`] builder: these intervals' statistics
    /// and the index of dispersion of `windows`, the windowed loss instants
    /// of the same trace. A NaN mean makes the ratio and the dispersion
    /// NaN.
    pub(crate) fn report(&self, windows: &WindowSums) -> BurstinessReport {
        let n_intervals = self.n as usize;
        let [f001, f01, f025, f1] = self.below.map(|c| {
            if self.n == 0 {
                0.0
            } else {
                c as f64 / self.n as f64
            }
        });
        let mean = self.mean();
        let poisson_f001 = poisson::reference_cdf(self.lambda(), 0.01);
        BurstinessReport {
            n_losses: if n_intervals == 0 { 0 } else { n_intervals + 1 },
            n_intervals,
            mean_interval_rtt: mean,
            frac_below_001: f001,
            frac_below_01: f01,
            frac_below_025: f025,
            frac_below_1: f1,
            burstiness_ratio: if poisson_f001 <= 0.0 {
                0.0
            } else {
                f001 / poisson_f001
            },
            index_of_dispersion: if mean.is_nan() {
                f64::NAN
            } else {
                windows.index_of_dispersion()
            },
        }
    }
}

/// The window side of the engine: a time-ordered feed of loss instants,
/// counted in [`WINDOW_RTT`] windows anchored at the first finite instant,
/// kept as the integer sums that the index of dispersion and the lag-k
/// autocorrelation over all `W` windows of the span need. An empty window
/// adds nothing to any sum, so only an occupied one costs anything, and
/// `W` is the last window's index plus one. The state is O([`MAX_LAG`]).
///
/// A non-finite instant joins window 0 before the first finite one and the
/// open (last) window after it, as [`counts_in_windows`] counts a
/// time-ordered trace; an instant that steps back joins the open window
/// too. The sums are exact while `W·Σc²` stays below 2¹²⁷, which any span
/// holding fewer than 2³¹ losses does.
#[derive(Clone, Debug, Default)]
pub(crate) struct WindowSums {
    /// The first finite instant: where window 0 starts.
    t0: Option<f64>,
    /// The open window's index and loss count.
    open: u64,
    open_count: u64,
    /// Σc over the closed windows.
    sum: u64,
    /// `co[k] = Σ cᵢ·cᵢ₊ₖ` over the closed windows (`co[0] = Σc²`).
    co: [u128; MAX_LAG + 1],
    /// The counts of windows `0..MAX_LAG`.
    head: [u64; MAX_LAG],
    /// The last `MAX_LAG` occupied windows closed, oldest first, as
    /// (index, count); a count of 0 marks a slot not yet used.
    recent: [(u64, u64); MAX_LAG],
}

impl WindowSums {
    /// Consume one loss instant (RTT units).
    #[inline]
    pub(crate) fn push(&mut self, t: f64) {
        if t.is_finite() {
            let t0 = *self.t0.get_or_insert(t);
            let win = ((t - t0) / WINDOW_RTT) as u64;
            if win > self.open {
                self.close();
                self.open = win;
            }
        }
        self.open_count += 1;
    }

    /// Fold the open window into the sums. Every window within
    /// [`MAX_LAG`] of it is among the last `MAX_LAG` occupied ones, since
    /// indices only grow.
    fn close(&mut self) {
        let (w, c) = (self.open, u128::from(self.open_count));
        if c == 0 {
            return;
        }
        self.sum += self.open_count;
        self.co[0] += c * c;
        for &(j, cj) in &self.recent {
            let lag = w - j;
            if lag <= MAX_LAG as u64 {
                self.co[lag as usize] += u128::from(cj) * c;
            }
        }
        if w < MAX_LAG as u64 {
            self.head[w as usize] = self.open_count;
        }
        self.recent.rotate_left(1);
        self.recent[MAX_LAG - 1] = (w, self.open_count);
        self.open_count = 0;
    }

    /// The sums with the open window folded in, with `W` and `Σc`.
    fn closed(&self) -> (WindowSums, u128, u128) {
        let mut fin = self.clone();
        fin.close();
        let w = if fin.sum == 0 {
            0
        } else {
            u128::from(fin.open) + 1
        };
        let s = u128::from(fin.sum);
        (fin, w, s)
    }

    /// Index of dispersion of the per-window counts, variance over mean,
    /// in closed form: `(W·Σc² − (Σc)²) / ((W − 1)·Σc)`, both integers
    /// exact. 0 with fewer than two windows.
    pub(crate) fn index_of_dispersion(&self) -> f64 {
        let (fin, w, s) = self.closed();
        if w < 2 {
            return 0.0;
        }
        (w * fin.co[0] - s * s) as f64 / ((w - 1) * s) as f64
    }

    /// Sample autocorrelation of the per-window counts at lags
    /// `0..=MAX_LAG` (clamped to `W − 1`), as
    /// [`crate::autocorr::autocorrelation`] defines it: empty without
    /// windows, `[1, 0, 0, …]` for a constant series.
    pub(crate) fn acf(&self) -> Vec<f64> {
        let (fin, w, s) = self.closed();
        if w == 0 {
            return Vec::new();
        }
        let lags = (w - 1).min(MAX_LAG as u128) as usize;
        // W times Σ(c − m)², m = Σc / W.
        let d = w * fin.co[0] - s * s;
        if d == 0 {
            let mut v = vec![0.0; lags + 1];
            v[0] = 1.0;
            return v;
        }
        // W² times Σᵢ (cᵢ − m)(cᵢ₊ₖ − m) is W·A − k·(Σc)², where
        // A = W·co[k] + Σc·(head_k + tail_k) − (Σc)² and head_k / tail_k
        // sum the first / last k counts.
        let (mut head, mut tail) = (0u128, 0u128);
        (0..=lags)
            .map(|k| {
                if k > 0 {
                    head += u128::from(fin.head[k - 1]);
                    tail += (fin.recent.iter())
                        .filter(|&&(j, _)| u128::from(j) + k as u128 == w)
                        .map(|&(_, c)| u128::from(c))
                        .sum::<u128>();
                }
                let a = (w * fin.co[k] + s * (head + tail)) as i128 - (s * s) as i128;
                (a as f64 - k as f64 * (s * s) as f64 / w as f64) / d as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::LossStreamStats;

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
        let idc = analyze(&[0.1; 999]).index_of_dispersion;
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

    /// `analyze` and a [`LossStreamStats`] fed the same intervals.
    fn both(iv: &[f64]) -> [BurstinessReport; 2] {
        let mut stream = LossStreamStats::with_rtt(1.0);
        iv.iter().for_each(|&x| stream.push_interval(x));
        [analyze(iv), stream.report()]
    }

    #[test]
    fn a_nan_interval_poisons_the_report_instead_of_panicking() {
        for iv in [
            vec![f64::NAN],
            vec![f64::NAN, 0.5],
            vec![0.5, f64::NAN],
            vec![0.5, f64::NAN, 0.5],
            vec![f64::NAN, 0.005, 3.0],
            vec![0.005, f64::NAN, 3.0],
            vec![0.005, 3.0, f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ] {
            for rep in both(&iv) {
                assert_eq!(rep.n_intervals, iv.len());
                assert!(rep.mean_interval_rtt.is_nan(), "{iv:?}");
                assert!(rep.burstiness_ratio.is_nan(), "{iv:?}");
                assert!(rep.index_of_dispersion.is_nan(), "{iv:?}");
                // A NaN is below no threshold; the fractions stay counts.
                let finite_below_1 = iv.iter().filter(|&&x| x < 1.0).count();
                assert_eq!(rep.frac_below_1, finite_below_1 as f64 / iv.len() as f64);
            }
        }
        // Infinite but not NaN: finite statistics, and still no panic.
        for rep in both(&[0.5, f64::INFINITY, 0.5]) {
            assert_eq!(rep.mean_interval_rtt, f64::INFINITY);
            assert_eq!(rep.burstiness_ratio, 0.0);
            assert!(rep.index_of_dispersion.is_finite());
        }
    }

    /// Two losses in window 0 and one in window W − 1: the index of
    /// dispersion is (5W − 9) / (3(W − 1)) exactly, and the W − 3 empty
    /// windows between cost nothing.
    #[test]
    fn a_sparse_span_costs_its_losses_not_its_windows() {
        for w in [1_000_001u64, 100_000_001, 10_000_000_001] {
            let exact = (5 * w - 9) as f64 / (3 * (w - 1)) as f64;
            let start = std::time::Instant::now();
            let reports = both(&[0.5, (w - 1) as f64 - 0.5]);
            let elapsed = start.elapsed();
            for rep in reports {
                let ulps = rep.index_of_dispersion.to_bits().abs_diff(exact.to_bits());
                assert!(ulps <= 4, "W = {w}: {} vs {exact}", rep.index_of_dispersion);
            }
            assert!(elapsed.as_secs_f64() < 1.0, "W = {w}: {elapsed:?}");
        }
    }

    /// At a 10⁻³⁰³ s RTT a one-second trace spans more windows than a
    /// `u64` counts: the window index saturates, and nothing panics.
    #[test]
    fn a_vanishing_rtt_timeline_returns() {
        let times = [0.0, 0.0005, 0.001, 0.25, 0.2502, 0.6];
        let iv: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) / 1e-303).collect();
        for rep in both(&iv) {
            assert_eq!(rep.n_losses, times.len());
            assert!(rep.index_of_dispersion.is_finite());
        }
    }
}
