//! Single-pass, constant-memory loss analysis.
//!
//! The batch functions ([`crate::burstiness::analyze`], [`crate::episodes`],
//! [`crate::autocorr`]) read a whole trace where it lies, so campaign
//! memory scales with packet count: the caller holds every interval.
//! [`LossStreamStats`] consumes one loss at a time instead and holds
//! O(bins + lags) state, whatever the trace's length or span. It is the
//! other feeder of the one engine in [`crate::burstiness`]: it folds the
//! same interval and window accumulators [`crate::burstiness::analyze`]
//! folds and builds its report with the same function, so on a
//! time-ordered trace the two agree bit for bit. Beside them it tracks
//! gap-based loss episodes (`EpisodeTracker`, matching
//! [`crate::episodes::episode_report`]) and exposes the loss-count
//! autocorrelation, on the fixed geometry [`WINDOW_RTT`],
//! [`EPISODE_GAP_RTT`] and [`MAX_LAG`].
//!
//! An accumulator belongs to one stream and is never merged with another.
//! Campaigns pool by feeding one accumulator every path's intervals in path
//! order, and sharded campaigns replay their checkpointed intervals the
//! same way, so a K-shard campaign pools exactly as one process does.

use crate::burstiness::{BurstinessReport, IntervalHist, WindowSums};
use crate::episodes::EpisodeReport;
use crate::histogram::Histogram;
use crate::poisson;

/// Window width (RTT units) for the index of dispersion and the loss-count
/// autocorrelation — the batch pipeline's 1 RTT.
pub const WINDOW_RTT: f64 = 1.0;

/// Episode gap threshold (RTT units), the one the golden summaries use.
pub const EPISODE_GAP_RTT: f64 = 1.0;

/// Autocorrelation lag budget over per-window loss counts.
pub const MAX_LAG: usize = 8;

/// Streaming gap-based loss-episode clustering: consecutive events closer
/// than `gap` are one episode. Feed event times in non-decreasing order
/// (router traces are time-ordered); [`EpisodeTracker::report`] reproduces
/// [`crate::episodes::episode_report`] on the same sequence bit for bit:
/// its sums start at −0.0 and add in episode order, and a gap from or to a
/// NaN exceeds no `gap`.
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
            sum_sizes: -0.0,
            sum_durations: -0.0,
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
        if !self.open || t - self.last > self.gap {
            self.close();
            self.start = t;
            self.size = 0;
            self.open = true;
        }
        self.last = t;
        self.size += 1;
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

/// The fused single-pass loss analyzer: one of these per loss trace
/// replaces the buffered `Vec<f64>` + batch analysis. Drive it with loss
/// timestamps ([`LossStreamStats::push_loss_at`]) or pre-normalized
/// intervals ([`LossStreamStats::push_interval`]). State is O(bins + lags),
/// independent of the trace's length and span.
///
/// All statistics operate on the *stitched RTT-normalized timeline* — the
/// cumulative sum of normalized intervals with the first loss at 0 —
/// exactly like [`crate::burstiness::analyze`] and
/// `LossStudy::loss_times_rtt`, so on a time-ordered trace a streaming run
/// and a batch run agree bit for bit. A loss that steps back in time joins
/// the open window, where `analyze` would window a sorted copy.
#[derive(Clone, Debug)]
pub struct LossStreamStats {
    rtt_secs: f64,
    intervals: IntervalHist,
    episodes: EpisodeTracker,
    windows: WindowSums,
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
            windows: WindowSums::default(),
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

    /// Autocorrelation of per-window loss counts at lags `0..=MAX_LAG`
    /// (clamped to the window count less one), as
    /// [`crate::autocorr::autocorrelation`] defines it over
    /// [`crate::burstiness::counts_in_windows`] of the stitched timeline.
    pub fn acf(&self) -> Vec<f64> {
        self.windows.acf()
    }

    /// Implied Poisson rate per RTT, `1 / mean interval` (0 when empty or
    /// degenerate), matching [`crate::poisson::rate_from_intervals`].
    pub fn poisson_rate(&self) -> f64 {
        self.intervals.lambda()
    }

    /// Rate-matched Poisson reference PDF over the histogram's bins
    /// (matches `LossStudy::poisson_pdf`).
    pub fn poisson_pdf(&self) -> Vec<f64> {
        poisson::reference_pdf(self.poisson_rate(), self.histogram())
    }

    /// The [`BurstinessReport`] of the losses so far, built by the same
    /// function as [`crate::burstiness::analyze`]'s.
    pub fn report(&self) -> BurstinessReport {
        self.intervals.report(&self.windows)
    }

    /// Approximate resident size of this accumulator in bytes — the
    /// constant that replaces the O(packets) trace buffers.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<LossStreamStats>()
            + self.histogram().bins.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autocorr::autocorrelation;
    use crate::burstiness::{self, counts_in_windows};
    use crate::episodes;
    use crate::histogram::{PAPER_BIN_WIDTH, PAPER_RANGE};
    use crate::intervals::normalized_intervals;

    fn report_bits(r: &BurstinessReport) -> [u64; 9] {
        [
            r.n_losses as u64,
            r.n_intervals as u64,
            r.mean_interval_rtt.to_bits(),
            r.frac_below_001.to_bits(),
            r.frac_below_01.to_bits(),
            r.frac_below_025.to_bits(),
            r.frac_below_1.to_bits(),
            r.burstiness_ratio.to_bits(),
            r.index_of_dispersion.to_bits(),
        ]
    }

    fn episode_bits(r: &EpisodeReport) -> [u64; 5] {
        [
            r.count as u64,
            r.max_size as u64,
            r.mean_size.to_bits(),
            r.mean_duration.to_bits(),
            r.fraction_in_bursts.to_bits(),
        ]
    }

    /// Compare the fused accumulator against the batch functions on a
    /// time-ordered loss-time trace: the report, histogram and episodes bit
    /// for bit, the autocorrelation against the two-pass formula over
    /// [`counts_in_windows`] to 1e-12.
    fn check_against_batch(times: &[f64], rtt: f64) {
        let mut s = LossStreamStats::with_rtt(rtt);
        for &t in times {
            s.push_loss_at(t);
        }
        let iv = normalized_intervals(times, rtt);
        assert_eq!(
            report_bits(&s.report()),
            report_bits(&burstiness::analyze(&iv))
        );
        let bh = Histogram::from_values(&iv, PAPER_BIN_WIDTH, PAPER_RANGE);
        assert_eq!(s.histogram().bins, bh.bins);
        assert_eq!(s.histogram().overflow, bh.overflow);
        assert_eq!(s.histogram().total, bh.total);
        if iv.is_empty() {
            return;
        }
        let mut stitched = vec![0.0];
        let mut t = 0.0;
        for &x in &iv {
            t += x;
            stitched.push(t);
        }
        assert_eq!(
            episode_bits(&s.episode_report()),
            episode_bits(&episodes::episode_report(&stitched, EPISODE_GAP_RTT))
        );
        assert_eq!(
            s.episode_count(),
            episodes::episodes(&stitched, EPISODE_GAP_RTT).len()
        );
        let counts: Vec<f64> = (counts_in_windows(&stitched, WINDOW_RTT).iter())
            .map(|&c| c as f64)
            .collect();
        let (ba, sa) = (autocorrelation(&counts, MAX_LAG), s.acf());
        assert_eq!(sa.len(), ba.len());
        for (lag, (x, y)) in sa.iter().zip(&ba).enumerate() {
            assert!((x - y).abs() <= 1e-12, "acf[{lag}]: {x} vs {y}");
        }
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
        assert_eq!(report_bits(&by_time.report()), report_bits(&by_iv.report()));
        assert_eq!(by_time.episode_count(), by_iv.episode_count());
    }

    #[test]
    fn window_sums_match_counts_in_windows() {
        // Counts [3, 1, 0, 2, 0, 0, 0, 1]: W = 8, Σc = 7, Σc² = 15.
        let times = [0.0, 0.1, 0.2, 1.5, 3.9, 3.95, 7.0];
        let mut w = WindowSums::default();
        times.iter().for_each(|&t| w.push(t));
        assert_eq!(counts_in_windows(&times, 1.0), [3, 1, 0, 2, 0, 0, 0, 1]);
        assert_eq!(w.index_of_dispersion(), (8.0 * 15.0 - 49.0) / (7.0 * 7.0));
        // Lags clamp to W − 1, a constant series reads [1, 0, …], and no
        // windows read no lags.
        let mut short = WindowSums::default();
        [0.0, 1.0, 2.5].iter().for_each(|&t| short.push(t));
        assert_eq!(short.acf().len(), 3);
        let mut flat = WindowSums::default();
        (0..10).for_each(|i| flat.push(i as f64 + 0.5));
        assert_eq!(flat.acf(), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(WindowSums::default().acf().is_empty());
    }

    #[test]
    fn episode_tracker_matches_batch_episodes() {
        let times = [0.0, 0.001, 0.002, 1.0, 1.0005, 5.0];
        let mut e = EpisodeTracker::new(0.01);
        for &t in &times {
            e.push(t);
        }
        assert_eq!(
            episode_bits(&e.report()),
            episode_bits(&episodes::episode_report(&times, 0.01))
        );
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

    /// One interval of 10¹² RTT, as a hostile checkpoint record can carry:
    /// the empty windows it spans cost nothing.
    #[test]
    fn a_huge_interval_returns_a_finite_report() {
        let mut s = LossStreamStats::with_rtt(1.0);
        for iv in [0.5, 1e12, 0.001] {
            s.push_interval(iv);
        }
        let rep = s.report();
        assert_eq!(rep.n_losses, 4);
        assert!(rep.mean_interval_rtt.is_finite());
        assert!(rep.index_of_dispersion.is_finite());
        assert!(s.acf().iter().all(|x| x.is_finite()));
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
