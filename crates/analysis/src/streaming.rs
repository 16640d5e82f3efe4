//! Single-pass, constant-memory loss analysis.
//!
//! The batch pipeline ([`crate::burstiness::analyze`], [`crate::episodes`],
//! [`crate::autocorr`]) reads the whole trace where it lies, one pass per
//! statistic, so campaign memory scales with packet count: the caller holds
//! every interval. Every statistic the paper derives from a loss trace is,
//! however, computable *online*: the accumulators in this module consume
//! one loss event at a time, hold O(bins + lags) state, and reproduce the
//! batch results to within rounding (integer counts exactly; means
//! bit-for-bit, since they accumulate in the same order; variance-like
//! quantities to ~1e-12 relative).
//!
//! The types mirror the batch decomposition:
//!
//! * `IntervalHist` — the RTT-normalized inter-loss-interval histogram
//!   with a running sum and count and the paper's cluster fractions;
//! * `EpisodeTracker` — gap-based loss episodes;
//! * `WindowCounter` — per-window loss counts driving the index of
//!   dispersion and the loss-count autocorrelation;
//! * `AutocorrRing` — fixed-lag autocorrelation over a ring buffer;
//! * [`LossStreamStats`] — the fused accumulator a trace sink drives, on
//!   the fixed geometry [`WINDOW_RTT`], [`EPISODE_GAP_RTT`] and
//!   [`MAX_LAG`].
//!
//! An accumulator belongs to one stream and is never merged with another.
//! Campaigns pool by feeding one accumulator every path's intervals in path
//! order, and sharded campaigns replay their checkpointed intervals the
//! same way, so a K-shard campaign pools exactly as one process does.

use crate::burstiness::BurstinessReport;
use crate::episodes::EpisodeReport;
use crate::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use crate::poisson;

/// Window width (RTT units) for the index of dispersion and the loss-count
/// autocorrelation — the batch pipeline's 1 RTT.
pub const WINDOW_RTT: f64 = 1.0;

/// Episode gap threshold (RTT units), the one the golden summaries use.
pub const EPISODE_GAP_RTT: f64 = 1.0;

/// Autocorrelation lag budget over per-window loss counts.
pub const MAX_LAG: usize = 8;

/// Welford's online mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub(crate) fn new() -> Welford {
        Welford::default()
    }

    /// Add one observation.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Observations so far.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for n < 2), matching
    /// [`crate::stats::variance`].
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// Streaming RTT-normalized inter-loss-interval histogram: the paper's PDF
/// geometry plus the cluster fractions and a running mean, all in one
/// pass. The histogram bins are integer counts and match
/// [`Histogram::from_values`] exactly; the mean accumulates a plain running
/// sum in push order, so it is bit-identical to [`crate::stats::mean`] over
/// the same sequence.
#[derive(Clone, Debug)]
pub(crate) struct IntervalHist {
    hist: Histogram,
    sum: f64,
    n: u64,
    below_001: u64,
    below_01: u64,
    below_025: u64,
    below_1: u64,
}

impl IntervalHist {
    /// An empty accumulator on the paper's geometry (0.02 RTT bins, 0–2
    /// RTT).
    pub(crate) fn paper_geometry() -> IntervalHist {
        IntervalHist {
            hist: Histogram::new(PAPER_BIN_WIDTH, PAPER_RANGE),
            sum: 0.0,
            n: 0,
            below_001: 0,
            below_01: 0,
            below_025: 0,
            below_1: 0,
        }
    }

    /// Add one RTT-normalized interval.
    #[inline]
    pub(crate) fn push(&mut self, iv_rtt: f64) {
        self.hist.add(iv_rtt);
        self.sum += iv_rtt;
        self.n += 1;
        if iv_rtt < 0.01 {
            self.below_001 += 1;
        }
        if iv_rtt < 0.1 {
            self.below_01 += 1;
        }
        if iv_rtt < 0.25 {
            self.below_025 += 1;
        }
        if iv_rtt < 1.0 {
            self.below_1 += 1;
        }
    }

    /// Intervals consumed so far.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Mean interval, accumulated as a running sum in push order
    /// (bit-identical to the batch mean; 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    /// Fraction of intervals strictly below `0.01/0.1/0.25/1.0` RTT, in
    /// that order (all 0 when empty), matching
    /// [`crate::burstiness::analyze`].
    pub(crate) fn fractions(&self) -> [f64; 4] {
        let n = self.count();
        if n == 0 {
            return [0.0; 4];
        }
        let n = n as f64;
        [
            self.below_001 as f64 / n,
            self.below_01 as f64 / n,
            self.below_025 as f64 / n,
            self.below_1 as f64 / n,
        ]
    }

    /// The histogram accumulated so far.
    pub(crate) fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Implied Poisson rate `1 / mean` (0 when empty or degenerate),
    /// matching [`crate::poisson::rate_from_intervals`].
    pub(crate) fn lambda(&self) -> f64 {
        let mean = self.mean();
        if self.count() == 0 || mean <= 0.0 {
            0.0
        } else {
            1.0 / mean
        }
    }
}

/// Streaming gap-based loss-episode clustering: consecutive events closer
/// than `gap` are one episode. Feed event times in non-decreasing order
/// (router traces are time-ordered); [`EpisodeTracker::report`] reproduces
/// [`crate::episodes::episode_report`] on the same sequence.
#[derive(Clone, Debug)]
pub(crate) struct EpisodeTracker {
    gap: f64,
    // Current (open) episode.
    start: f64,
    last: f64,
    size: usize,
    open: bool,
    // Closed-episode accumulators, in episode order.
    count: usize,
    sum_sizes: f64,
    sum_durations: f64,
    max_size: usize,
    total_losses: usize,
    in_bursts: usize,
}

impl EpisodeTracker {
    /// An empty tracker with the given gap threshold (same unit as the
    /// event times it will consume).
    pub(crate) fn new(gap: f64) -> EpisodeTracker {
        assert!(gap >= 0.0, "gap must be non-negative");
        EpisodeTracker {
            gap,
            start: 0.0,
            last: 0.0,
            size: 0,
            open: false,
            count: 0,
            sum_sizes: 0.0,
            sum_durations: 0.0,
            max_size: 0,
            total_losses: 0,
            in_bursts: 0,
        }
    }

    fn close(&mut self) {
        if !self.open {
            return;
        }
        self.count += 1;
        self.sum_sizes += self.size as f64;
        self.sum_durations += self.last - self.start;
        self.max_size = self.max_size.max(self.size);
        self.total_losses += self.size;
        if self.size >= 2 {
            self.in_bursts += self.size;
        }
        self.open = false;
    }

    /// Consume one event time (non-decreasing).
    #[inline]
    pub(crate) fn push(&mut self, t: f64) {
        if self.open && t - self.last <= self.gap {
            self.last = t;
            self.size += 1;
            return;
        }
        self.close();
        self.start = t;
        self.last = t;
        self.size = 1;
        self.open = true;
    }

    /// Episodes so far, counting the still-open one.
    pub(crate) fn count(&self) -> usize {
        self.count + usize::from(self.open)
    }

    /// Summary over all episodes (the open one included), matching
    /// [`crate::episodes::episode_report`].
    pub(crate) fn report(&self) -> EpisodeReport {
        let mut fin = self.clone();
        fin.close();
        if fin.count == 0 {
            return EpisodeReport::default();
        }
        EpisodeReport {
            count: fin.count,
            mean_size: fin.sum_sizes / fin.count as f64,
            max_size: fin.max_size,
            mean_duration: fin.sum_durations / fin.count as f64,
            fraction_in_bursts: fin.in_bursts as f64 / fin.total_losses.max(1) as f64,
        }
    }
}

/// Streaming fixed-lag autocorrelation over a ring buffer of the last
/// `max_lag` observations. Holds O(max_lag) state; [`AutocorrRing::acf`]
/// reproduces [`crate::autocorr::autocorrelation`] to float rounding via
/// the algebraic expansion of the mean-centered sums.
#[derive(Clone, Debug)]
pub(crate) struct AutocorrRing {
    max_lag: usize,
    n: u64,
    sum: f64,
    /// Co-moments `co[lag] = Σ x_i · x_{i+lag}` (co[0] = Σ x²).
    co: Vec<f64>,
    /// First `max_lag` observations (prefix sums need them).
    head: Vec<f64>,
    /// Ring of the last `max_lag` observations.
    ring: Vec<f64>,
}

impl AutocorrRing {
    /// An empty accumulator for lags `0..=max_lag`.
    pub(crate) fn new(max_lag: usize) -> AutocorrRing {
        AutocorrRing {
            max_lag,
            n: 0,
            sum: 0.0,
            co: vec![0.0; max_lag + 1],
            head: Vec::with_capacity(max_lag),
            ring: vec![0.0; max_lag.max(1)],
        }
    }

    /// Consume one observation.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) {
        let n = self.n as usize;
        self.co[0] += x * x;
        let reach = self.max_lag.min(n);
        for lag in 1..=reach {
            // x pairs with the observation `lag` steps back.
            let prev = self.ring[(n - lag) % self.ring.len()];
            self.co[lag] += prev * x;
        }
        if self.head.len() < self.max_lag {
            self.head.push(x);
        }
        if self.max_lag > 0 {
            let len = self.ring.len();
            self.ring[n % len] = x;
        }
        self.sum += x;
        self.n += 1;
    }

    /// Sample autocorrelation at lags `0..=max_lag` (clamped to `n − 1`),
    /// matching [`crate::autocorr::autocorrelation`]: empty input gives an
    /// empty vector, a constant series gives `[1, 0, 0, …]`.
    pub(crate) fn acf(&self) -> Vec<f64> {
        let n = self.n as usize;
        if n == 0 {
            return Vec::new();
        }
        let nf = n as f64;
        let m = self.sum / nf;
        let denom = self.co[0] - nf * m * m;
        let max_lag = self.max_lag.min(n - 1);
        if denom <= 0.0 {
            let mut v = vec![0.0; max_lag + 1];
            v[0] = 1.0;
            return v;
        }
        // Σ_{i<n−lag} (x_i − m)(x_{i+lag} − m)
        //   = co[lag] − m·(S − tail(lag)) − m·(S − head(lag)) + (n−lag)·m²
        // where head(lag)/tail(lag) are the sums of the first/last `lag`
        // observations.
        let mut head_sum = 0.0;
        (0..=max_lag)
            .map(|lag| {
                if lag == 0 {
                    return 1.0;
                }
                head_sum += self.head[lag - 1];
                let tail_sum: f64 = (1..=lag)
                    .map(|k| self.ring[(n - k) % self.ring.len()])
                    .sum();
                let num = self.co[lag] - m * (self.sum - head_sum) - m * (self.sum - tail_sum)
                    + (n - lag) as f64 * m * m;
                num / denom
            })
            .collect()
    }
}

/// Streaming per-window event counts: partitions a non-decreasing event
/// stream into consecutive windows anchored at the first event and feeds
/// each completed count downstream (index-of-dispersion Welford and the
/// loss-count autocorrelation ring). Reproduces
/// [`crate::burstiness::counts_in_windows`] including its empty windows.
#[derive(Clone, Debug)]
pub(crate) struct WindowCounter {
    window: f64,
    t0: Option<f64>,
    cur_win: u64,
    cur_count: u64,
    counts: Welford,
    acf: AutocorrRing,
}

impl WindowCounter {
    /// An empty counter with the given window width and autocorrelation
    /// lag budget.
    pub(crate) fn new(window: f64, max_lag: usize) -> WindowCounter {
        assert!(window > 0.0, "window must be positive");
        WindowCounter {
            window,
            t0: None,
            cur_win: 0,
            cur_count: 0,
            counts: Welford::new(),
            acf: AutocorrRing::new(max_lag),
        }
    }

    fn emit(&mut self, c: u64) {
        self.counts.push(c as f64);
        self.acf.push(c as f64);
    }

    /// Consume one event time (non-decreasing).
    #[inline]
    pub(crate) fn push(&mut self, t: f64) {
        let t0 = *self.t0.get_or_insert(t);
        let win = ((t - t0) / self.window) as u64;
        while self.cur_win < win {
            let c = self.cur_count;
            self.emit(c);
            self.cur_count = 0;
            self.cur_win += 1;
        }
        self.cur_count += 1;
    }

    /// Index of dispersion for counts (variance/mean of per-window counts,
    /// the open window included), matching
    /// [`crate::burstiness::index_of_dispersion`]: 0 with fewer than two
    /// windows or a zero mean.
    pub(crate) fn index_of_dispersion(&self) -> f64 {
        let mut fin = self.clone();
        if fin.t0.is_some() {
            let c = fin.cur_count;
            fin.emit(c);
        }
        if fin.counts.count() < 2 {
            return 0.0;
        }
        let m = fin.counts.mean();
        if m <= 0.0 {
            0.0
        } else {
            fin.counts.variance() / m
        }
    }

    /// Autocorrelation of the per-window counts (open window included),
    /// matching [`crate::autocorr::autocorrelation`] over
    /// [`crate::burstiness::counts_in_windows`].
    pub(crate) fn acf(&self) -> Vec<f64> {
        let mut fin = self.clone();
        if fin.t0.is_some() {
            let c = fin.cur_count;
            fin.emit(c);
        }
        fin.acf.acf()
    }
}

/// The fused single-pass loss analyzer: one of these per loss trace
/// replaces the buffered `Vec<f64>` + multi-pass batch pipeline. Drive it
/// with loss timestamps ([`LossStreamStats::push_loss_at`]) or
/// pre-normalized intervals ([`LossStreamStats::push_interval`]). State is
/// O(bins + lags), independent of trace length.
///
/// All statistics operate on the *stitched RTT-normalized timeline* — the
/// cumulative sum of normalized intervals with the first loss at 0 —
/// exactly like the batch pipeline
/// ([`crate::burstiness::analyze`] / `LossStudy::loss_times_rtt`), so a
/// streaming run and a batch run over the same trace agree.
#[derive(Clone, Debug)]
pub struct LossStreamStats {
    rtt_secs: f64,
    intervals: IntervalHist,
    episodes: EpisodeTracker,
    windows: WindowCounter,
    /// Stitched time of the latest loss (RTT units).
    t_rtt: f64,
    /// Raw timestamp of the latest loss (seconds).
    last_secs: Option<f64>,
    n_losses: u64,
}

impl LossStreamStats {
    /// A fresh accumulator for a path with the given RTT (seconds), on the
    /// paper's histogram geometry, [`WINDOW_RTT`] windows, an
    /// [`EPISODE_GAP_RTT`] episode gap and [`MAX_LAG`] autocorrelation lags.
    pub fn with_rtt(rtt_secs: f64) -> LossStreamStats {
        assert!(rtt_secs > 0.0, "RTT must be positive");
        LossStreamStats {
            rtt_secs,
            intervals: IntervalHist::paper_geometry(),
            episodes: EpisodeTracker::new(EPISODE_GAP_RTT),
            windows: WindowCounter::new(WINDOW_RTT, MAX_LAG),
            t_rtt: 0.0,
            last_secs: None,
            n_losses: 0,
        }
    }

    fn push_event_rtt(&mut self, t_rtt: f64) {
        self.n_losses += 1;
        self.episodes.push(t_rtt);
        self.windows.push(t_rtt);
    }

    /// Consume one loss at `t_secs` (non-decreasing). The first loss
    /// anchors the stitched timeline at 0; each later one contributes the
    /// RTT-normalized interval since its predecessor.
    #[inline]
    pub fn push_loss_at(&mut self, t_secs: f64) {
        match self.last_secs {
            None => {
                self.last_secs = Some(t_secs);
                self.push_event_rtt(0.0);
            }
            Some(last) => {
                let iv = (t_secs - last) / self.rtt_secs;
                self.last_secs = Some(t_secs);
                self.push_interval(iv);
            }
        }
    }

    /// Consume one pre-normalized interval (RTT units). When fed intervals
    /// directly the accumulator injects the anchoring loss at t = 0 first,
    /// mirroring `LossStudy::loss_times_rtt`.
    #[inline]
    pub fn push_interval(&mut self, iv_rtt: f64) {
        if self.n_losses == 0 {
            self.push_event_rtt(0.0);
        }
        self.intervals.push(iv_rtt);
        self.t_rtt += iv_rtt;
        let t = self.t_rtt;
        self.push_event_rtt(t);
    }

    /// Losses consumed so far.
    pub fn n_losses(&self) -> u64 {
        self.n_losses
    }

    /// Intervals consumed so far (`n_losses − 1`, or 0).
    pub fn n_intervals(&self) -> u64 {
        self.intervals.count()
    }

    /// The interval histogram accumulated so far.
    pub fn histogram(&self) -> &Histogram {
        self.intervals.histogram()
    }

    /// Episode summary so far (matches
    /// [`crate::episodes::episode_report`] over the stitched timeline).
    pub fn episode_report(&self) -> EpisodeReport {
        self.episodes.report()
    }

    /// Episodes so far (matches `LossStudy::episode_count`).
    pub fn episode_count(&self) -> usize {
        self.episodes.count()
    }

    /// Autocorrelation of per-window loss counts.
    pub fn acf(&self) -> Vec<f64> {
        self.windows.acf()
    }

    /// Rate-matched Poisson reference PDF over the histogram's bins
    /// (matches `LossStudy::poisson_pdf`).
    pub fn poisson_pdf(&self) -> Vec<f64> {
        poisson::reference_pdf(self.intervals.lambda(), self.histogram())
    }

    /// The batch [`BurstinessReport`] equivalent, from streaming state
    /// only. Matches [`crate::burstiness::analyze`] over the same interval
    /// sequence (integer fields and fractions exactly; the index of
    /// dispersion to float rounding).
    pub fn report(&self) -> BurstinessReport {
        let n_intervals = self.intervals.count() as usize;
        let [f001, f01, f025, f1] = self.intervals.fractions();
        let lambda = self.intervals.lambda();
        let poisson_f001 = poisson::reference_cdf(lambda, 0.01);
        let ratio = if poisson_f001 > 0.0 {
            f001 / poisson_f001
        } else {
            0.0
        };
        BurstinessReport {
            n_losses: if n_intervals == 0 { 0 } else { n_intervals + 1 },
            n_intervals,
            mean_interval_rtt: self.intervals.mean(),
            frac_below_001: f001,
            frac_below_01: f01,
            frac_below_025: f025,
            frac_below_1: f1,
            burstiness_ratio: ratio,
            index_of_dispersion: if n_intervals == 0 {
                0.0
            } else {
                self.windows.index_of_dispersion()
            },
        }
    }

    /// Approximate resident size of this accumulator in bytes — the
    /// constant that replaces the O(packets) trace buffers.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<LossStreamStats>()
            + self.intervals.hist.bins.capacity() * std::mem::size_of::<u64>()
            + (self.windows.acf.co.capacity()
                + self.windows.acf.head.capacity()
                + self.windows.acf.ring.capacity())
                * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autocorr::autocorrelation;
    use crate::burstiness::{self, counts_in_windows};
    use crate::episodes;
    use crate::intervals::normalized_intervals;

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 + 1e-9 * b.abs(),
            "{what}: streaming {a} vs batch {b}"
        );
    }

    /// Compare the fused accumulator against the full batch pipeline on a
    /// given loss-time trace.
    fn check_against_batch(times: &[f64], rtt: f64) {
        let mut s = LossStreamStats::with_rtt(rtt);
        for &t in times {
            s.push_loss_at(t);
        }
        let iv = normalized_intervals(times, rtt);
        let batch = burstiness::analyze(&iv);
        let stream = s.report();
        assert_eq!(stream.n_losses, batch.n_losses);
        assert_eq!(stream.n_intervals, batch.n_intervals);
        assert_eq!(stream.mean_interval_rtt, batch.mean_interval_rtt);
        assert_eq!(stream.frac_below_001, batch.frac_below_001);
        assert_eq!(stream.frac_below_01, batch.frac_below_01);
        assert_eq!(stream.frac_below_025, batch.frac_below_025);
        assert_eq!(stream.frac_below_1, batch.frac_below_1);
        assert_close(
            stream.burstiness_ratio,
            batch.burstiness_ratio,
            "burstiness_ratio",
        );
        assert_close(
            stream.index_of_dispersion,
            batch.index_of_dispersion,
            "index_of_dispersion",
        );
        // Histogram: integer counts, exactly equal.
        let bh = Histogram::from_values(&iv, PAPER_BIN_WIDTH, PAPER_RANGE);
        assert_eq!(s.histogram().bins, bh.bins);
        assert_eq!(s.histogram().overflow, bh.overflow);
        assert_eq!(s.histogram().total, bh.total);
        // Episodes over the stitched timeline.
        if !iv.is_empty() {
            let mut stitched = vec![0.0];
            let mut t = 0.0;
            for &x in &iv {
                t += x;
                stitched.push(t);
            }
            let be = episodes::episode_report(&stitched, EPISODE_GAP_RTT);
            let se = s.episode_report();
            assert_eq!(se.count, be.count);
            assert_eq!(se.max_size, be.max_size);
            assert_eq!(se.mean_size, be.mean_size);
            assert_close(se.mean_duration, be.mean_duration, "mean_duration");
            assert_eq!(se.fraction_in_bursts, be.fraction_in_bursts);
            assert_eq!(
                s.episode_count(),
                episodes::episodes(&stitched, EPISODE_GAP_RTT).len()
            );
            // Loss-count autocorrelation.
            let counts: Vec<f64> = counts_in_windows(&stitched, WINDOW_RTT)
                .iter()
                .map(|&c| c as f64)
                .collect();
            let ba = autocorrelation(&counts, MAX_LAG);
            let sa = s.acf();
            assert_eq!(sa.len(), ba.len());
            for (i, (x, y)) in sa.iter().zip(ba.iter()).enumerate() {
                assert_close(*x, *y, &format!("acf lag {i}"));
            }
        }
    }

    #[test]
    fn welford_matches_two_pass_stats() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_close(w.mean(), crate::stats::mean(&xs), "mean");
        assert_close(w.variance(), crate::stats::variance(&xs), "variance");
        assert_eq!(w.count(), 8);
        assert_eq!(Welford::new().mean(), 0.0);
        assert_eq!(Welford::new().variance(), 0.0);
    }

    #[test]
    fn fused_matches_batch_on_clustered_trace() {
        // Three clusters of sub-RTT losses, cluster gaps of seconds.
        let mut times = Vec::new();
        for c in 0..3 {
            for k in 0..20 {
                times.push(c as f64 * 5.0 + k as f64 * 0.0004);
            }
        }
        check_against_batch(&times, 0.1);
    }

    #[test]
    fn fused_matches_batch_on_degenerate_traces() {
        check_against_batch(&[], 0.1); // empty
        check_against_batch(&[3.2], 0.1); // single loss
        check_against_batch(&[0.0, 0.0, 0.0, 0.0], 0.1); // all at one instant
        check_against_batch(&[1.0, 1.25], 0.05); // one interval
    }

    #[test]
    fn fused_matches_batch_on_regular_trace() {
        let times: Vec<f64> = (0..500).map(|i| i as f64 * 0.03).collect();
        check_against_batch(&times, 0.1);
    }

    #[test]
    fn interval_feed_matches_time_feed() {
        let times: Vec<f64> = vec![0.5, 0.5004, 0.51, 2.0, 2.0001, 9.0];
        let rtt = 0.1;
        let mut by_time = LossStreamStats::with_rtt(rtt);
        for &t in &times {
            by_time.push_loss_at(t);
        }
        let mut by_iv = LossStreamStats::with_rtt(rtt);
        for iv in normalized_intervals(&times, rtt) {
            by_iv.push_interval(iv);
        }
        assert_eq!(by_time.n_losses(), by_iv.n_losses());
        assert_eq!(by_time.histogram().bins, by_iv.histogram().bins);
        assert_eq!(
            by_time.report().index_of_dispersion,
            by_iv.report().index_of_dispersion
        );
        assert_eq!(by_time.episode_count(), by_iv.episode_count());
    }

    #[test]
    fn autocorr_ring_matches_batch_autocorrelation() {
        let xs: Vec<f64> = (0..200)
            .map(|i| ((i % 7) as f64) * 1.3 - ((i % 3) as f64))
            .collect();
        for max_lag in [0, 1, 3, 8] {
            let mut r = AutocorrRing::new(max_lag);
            for &x in &xs {
                r.push(x);
            }
            let batch = autocorrelation(&xs, max_lag);
            let stream = r.acf();
            assert_eq!(stream.len(), batch.len());
            for (i, (a, b)) in stream.iter().zip(batch.iter()).enumerate() {
                assert_close(*a, *b, &format!("lag {i} (max {max_lag})"));
            }
        }
        // Lag clamping and constant/empty series.
        let mut short = AutocorrRing::new(50);
        for &x in &[1.0, 2.0, 1.5] {
            short.push(x);
        }
        assert_eq!(short.acf().len(), 3);
        let mut flat = AutocorrRing::new(3);
        for _ in 0..10 {
            flat.push(2.0);
        }
        assert_eq!(flat.acf(), vec![1.0, 0.0, 0.0, 0.0]);
        assert!(AutocorrRing::new(5).acf().is_empty());
    }

    #[test]
    fn window_counter_matches_counts_in_windows() {
        let times = [0.0, 0.1, 0.2, 1.5, 3.9, 3.95, 7.0];
        let mut w = WindowCounter::new(1.0, 4);
        for &t in &times {
            w.push(t);
        }
        let counts = counts_in_windows(&times, 1.0);
        assert_eq!(w.cur_win + 1, counts.len() as u64);
        let batch_idc = burstiness::index_of_dispersion(&counts);
        assert_close(w.index_of_dispersion(), batch_idc, "idc");
    }

    #[test]
    fn episode_tracker_matches_batch_episodes() {
        let times = [0.0, 0.001, 0.002, 1.0, 1.0005, 5.0];
        let mut e = EpisodeTracker::new(0.01);
        for &t in &times {
            e.push(t);
        }
        let batch = episodes::episode_report(&times, 0.01);
        let stream = e.report();
        assert_eq!(stream.count, batch.count);
        assert_eq!(stream.max_size, batch.max_size);
        assert_eq!(stream.mean_size, batch.mean_size);
        assert_eq!(stream.mean_duration, batch.mean_duration);
        assert_eq!(stream.fraction_in_bursts, batch.fraction_in_bursts);
        // Zero-gap clustering makes singletons, like the batch version.
        let mut z = EpisodeTracker::new(0.0);
        for &t in &[0.0, 0.1, 0.2] {
            z.push(t);
        }
        assert_eq!(z.count(), 3);
        // Empty tracker reports zeros.
        let none = EpisodeTracker::new(0.5).report();
        assert_eq!(none.count, 0);
        assert_eq!(none.fraction_in_bursts, 0.0);
    }

    #[test]
    fn state_is_constant_in_trace_length() {
        let mut s = LossStreamStats::with_rtt(0.1);
        let before = s.state_bytes();
        for i in 0..200_000 {
            s.push_loss_at(i as f64 * 0.001);
        }
        assert_eq!(s.state_bytes(), before, "accumulator grew with the trace");
        assert!(before < 4096, "state unexpectedly large: {before} bytes");
    }

    #[test]
    fn poisson_pdf_matches_batch_reference() {
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 0.07).collect();
        let rtt = 0.1;
        let mut s = LossStreamStats::with_rtt(rtt);
        for &t in &times {
            s.push_loss_at(t);
        }
        let iv = normalized_intervals(&times, rtt);
        let h = Histogram::from_values(&iv, PAPER_BIN_WIDTH, PAPER_RANGE);
        let batch = poisson::reference_pdf(poisson::rate_from_intervals(&iv), &h);
        let stream = s.poisson_pdf();
        assert_eq!(stream.len(), batch.len());
        for (a, b) in stream.iter().zip(batch.iter()) {
            assert_eq!(a, b);
        }
    }
}
