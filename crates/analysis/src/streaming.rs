//! Single-pass, constant-memory loss analysis.
//!
//! The batch pipeline ([`crate::burstiness::analyze`], [`crate::episodes`],
//! [`crate::gilbert::fit`], [`crate::autocorr`]) reads the whole trace where
//! it lies, one pass per statistic, so campaign memory scales with packet
//! count: the caller holds every interval. Every statistic
//! the paper derives from a loss trace is, however, computable *online*: the
//! accumulators in this module consume one loss event at a time, hold
//! O(bins + lags) state, and reproduce the batch results to within rounding
//! (integer counts exactly; means bit-for-bit, since they accumulate in the
//! same order; variance-like quantities to ~1e-12 relative).
//!
//! The types mirror the batch decomposition:
//!
//! * `IntervalHist` — the RTT-normalized inter-loss-interval histogram
//!   with a running sum and count and the paper's cluster fractions;
//! * `EpisodeTracker` — gap-based loss episodes;
//! * `WindowCounter` — per-window loss counts driving the index of
//!   dispersion and the loss-count autocorrelation;
//! * `AutocorrRing` — fixed-lag autocorrelation over a ring buffer;
//! * `GilbertFit` — two-state (Gilbert) transition counting from a
//!   per-packet deliver/drop stream;
//! * [`LossStreamStats`] — the fused accumulator a trace sink drives.
//!
//! Every accumulator additionally supports `merge`, folding a second
//! accumulator in as if its stream had been pushed afterwards — the basis
//! for sharded campaign execution. See [`LossStreamStats::merge`] for the
//! exactness contract (integer state bit-exact, float moments to
//! reassociation rounding, windowed statistics per-segment).

use crate::burstiness::BurstinessReport;
use crate::episodes::EpisodeReport;
use crate::gilbert::GilbertParams;
use crate::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use crate::poisson;

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

    /// Fold `other` into `self` (Chan's parallel combination), as if
    /// `other`'s observations had been pushed after `self`'s. The count is
    /// exact; `mean`/`m2` agree with single-pass accumulation up to float
    /// reassociation (≲ 1 ulp per merge — see the module-level merge
    /// contract). Merging with an empty operand is bit-exact.
    pub(crate) fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let nf = n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64 / nf);
        self.mean += d * (other.n as f64 / nf);
        self.n = n;
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
        IntervalHist::new(PAPER_BIN_WIDTH, PAPER_RANGE)
    }

    /// An empty accumulator over `[0, max)` with the given bin width.
    pub(crate) fn new(bin_width: f64, max: f64) -> IntervalHist {
        IntervalHist {
            hist: Histogram::new(bin_width, max),
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

    /// Fold `other` into `self`, as if `other`'s intervals had been pushed
    /// after `self`'s. Integer state (histogram bins, overflow/total, the
    /// cluster-fraction counters, the count) is bit-exact versus single-pass
    /// accumulation over the concatenated sequence; `sum` agrees up to float
    /// reassociation (see the crate-level merge contract). Merging with an empty operand is bit-exact. Panics if the
    /// histogram geometries differ.
    pub(crate) fn merge(&mut self, other: &IntervalHist) {
        self.hist.merge(&other.hist);
        self.sum += other.sum;
        self.n += other.n;
        self.below_001 += other.below_001;
        self.below_01 += other.below_01;
        self.below_025 += other.below_025;
        self.below_1 += other.below_1;
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
    // Snapshot of the *first* episode (frozen once it closes) plus the max
    // size over closed episodes *excluding* the first. Together these let
    // `merge_impl` stitch another tracker's first episode
    // into this tracker's open one and still account the remainder exactly.
    first_start: f64,
    first_last: f64,
    first_size: usize,
    max_size_rest: usize,
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
            first_start: 0.0,
            first_last: 0.0,
            first_size: 0,
            max_size_rest: 0,
        }
    }

    fn close(&mut self) {
        if !self.open {
            return;
        }
        if self.count == 0 {
            self.first_start = self.start;
            self.first_last = self.last;
            self.first_size = self.size;
        } else {
            self.max_size_rest = self.max_size_rest.max(self.size);
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

    /// The first episode seen — `(start, last, size)` — whether already
    /// closed or still the open one. `None` while no event has arrived.
    fn first_episode(&self) -> Option<(f64, f64, usize)> {
        if self.count >= 1 {
            Some((self.first_start, self.first_last, self.first_size))
        } else if self.open {
            Some((self.start, self.last, self.size))
        } else {
            None
        }
    }

    /// A copy with every absolute-time field translated by `offset`.
    fn shifted(&self, offset: f64) -> EpisodeTracker {
        let mut c = self.clone();
        c.start += offset;
        c.last += offset;
        c.first_start += offset;
        c.first_last += offset;
        c
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

    /// `drop_anchor` skips `other`'s very first event (the synthetic t = 0
    /// anchor [`LossStreamStats::push_interval`] injects), which dissolves
    /// into the merged timeline: its would-be position coincides with the
    /// gap decision already encoded in `other`'s first-episode size.
    fn merge_impl(&mut self, other: &EpisodeTracker, offset: f64, drop_anchor: bool) {
        assert!(
            self.gap == other.gap,
            "episode merge requires identical gap"
        );
        let Some((fs, fl, fsz)) = other.first_episode() else {
            return; // `other` saw no events
        };
        if !self.open && self.count == 0 {
            debug_assert!(!drop_anchor, "anchor drop requires a non-empty self");
            *self = other.shifted(offset);
            return;
        }
        let fe_closed = other.count >= 1;
        // Whether `other`'s first episode joins `self`'s open one. With the
        // anchor dropped, the bridging gap is the anchor→second-event gap,
        // which is the same comparison that made them one episode locally —
        // so "first episode has ≥ 2 members" IS the sequential decision.
        let bridge = if drop_anchor {
            fsz >= 2
        } else {
            self.open && (offset + fs) - self.last <= self.gap
        };
        if bridge {
            debug_assert!(self.open);
            self.size += fsz - usize::from(drop_anchor);
            self.last = offset + fl;
            if !fe_closed {
                return; // the combined episode is still open
            }
            // It closes where `other`'s second episode began.
            self.close();
        } else if drop_anchor && !fe_closed {
            return; // `other` held only the anchor event
        } else {
            self.close(); // sequential: a beyond-gap event closes the open episode
            if !fe_closed {
                // `other`'s sole (still open) episode becomes ours.
                self.open = true;
                self.start = offset + fs;
                self.last = offset + fl;
                self.size = fsz;
                return;
            }
        }
        // Append `other`'s closed episodes — minus the first where the
        // bridge consumed it or the anchor drop deleted it.
        if bridge || drop_anchor {
            self.count += other.count - 1;
            // Sizes are integers, so these f64 subtractions are exact.
            self.sum_sizes += other.sum_sizes - fsz as f64;
            self.sum_durations += other.sum_durations - (fl - fs);
            self.max_size = self.max_size.max(other.max_size_rest);
            self.max_size_rest = self.max_size_rest.max(other.max_size_rest);
            self.total_losses += other.total_losses - fsz;
            self.in_bursts += other.in_bursts - if fsz >= 2 { fsz } else { 0 };
        } else {
            self.count += other.count;
            self.sum_sizes += other.sum_sizes;
            self.sum_durations += other.sum_durations;
            self.max_size = self.max_size.max(other.max_size);
            // `other`'s first episode is not *our* first.
            self.max_size_rest = self.max_size_rest.max(other.max_size);
            self.total_losses += other.total_losses;
            self.in_bursts += other.in_bursts;
        }
        // Adopt `other`'s open episode (live trackers always have one).
        self.open = other.open;
        self.start = offset + other.start;
        self.last = offset + other.last;
        self.size = other.size;
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

    /// The k-th observation from the end (k = 1 is the most recent). Only
    /// the last `max_lag` observations are retained, so `k` must satisfy
    /// `1 ≤ k ≤ min(n, max_lag)`.
    fn nth_from_end(&self, k: u64) -> f64 {
        debug_assert!(k >= 1 && k <= self.n.min(self.max_lag as u64));
        self.ring[((self.n - k) % self.ring.len() as u64) as usize]
    }

    /// Fold `other` into `self`, as if `other`'s observations had been
    /// pushed after `self`'s. The count, head, and ring contents are
    /// bit-exact; `sum` and the co-moments agree up to float reassociation:
    /// the cross-boundary products — `self`'s ring tail paired with
    /// `other`'s head, exactly the pairs a single pass forms — are summed
    /// in a different order. Panics if the lag budgets differ.
    pub(crate) fn merge(&mut self, other: &AutocorrRing) {
        assert!(
            self.max_lag == other.max_lag,
            "autocorr merge requires identical max_lag"
        );
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let l = self.max_lag;
        for lag in 1..=l {
            // Pairs (x_i, x_{i+lag}) spanning the boundary: `self`'s t-th
            // observation from the end pairs with `other`'s (lag − t)-th
            // from the start.
            let mut c = other.co[lag];
            let t_max = (lag as u64).min(self.n);
            let mut t = (lag as u64).saturating_sub(other.n) + 1;
            while t <= t_max {
                c += self.nth_from_end(t) * other.head[lag - t as usize];
                t += 1;
            }
            self.co[lag] += c;
        }
        self.co[0] += other.co[0];
        if l > 0 {
            // Ring: the last `min(n, max_lag)` observations of the
            // concatenation, re-laid-out for the merged global index.
            let len = self.ring.len();
            let n = self.n + other.n;
            let mut ring = vec![0.0; len];
            for k in 1..=(l as u64).min(n) {
                let x = if k <= other.n {
                    other.nth_from_end(k)
                } else {
                    self.nth_from_end(k - other.n)
                };
                ring[((n - k) % len as u64) as usize] = x;
            }
            self.ring = ring;
        }
        // Head: the first `max_lag` observations of the concatenation.
        for &x in &other.head {
            if self.head.len() >= l {
                break;
            }
            self.head.push(x);
        }
        self.sum += other.sum;
        self.n += other.n;
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

    /// Fold `other` into `self` as *adjacent segments*: `self`'s open
    /// window closes and emits, `other`'s emitted window-count series is
    /// appended, and `other`'s open window becomes the merged open window.
    /// This concatenates the two per-window count series exactly; it is NOT
    /// a time-translation of `other`'s events onto `self`'s window grid —
    /// window phase is not recoverable from O(1) state (see the
    /// [`LossStreamStats::merge`] contract). Pushing further events after a
    /// merge is unsupported. Panics if the window widths or lag budgets
    /// differ.
    pub(crate) fn merge(&mut self, other: &WindowCounter) {
        assert!(
            self.window == other.window,
            "window merge requires identical widths"
        );
        if other.t0.is_none() {
            return;
        }
        if self.t0.is_none() {
            *self = other.clone();
            return;
        }
        let c = self.cur_count;
        self.emit(c);
        self.counts.merge(&other.counts);
        self.acf.merge(&other.acf);
        self.cur_win += 1 + other.cur_win;
        self.cur_count = other.cur_count;
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

/// Streaming two-state Gilbert-model transition counting over a per-packet
/// deliver/drop stream. [`GilbertFit::fit`] reproduces
/// [`crate::gilbert::fit`] exactly (the counts are integers).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GilbertFit {
    /// First packet state seen — lets [`GilbertFit::merge`] reconstruct the
    /// boundary transition when two segment accumulators are concatenated.
    first: Option<bool>,
    prev: Option<bool>,
    good_to_bad: u64,
    good_stay: u64,
    bad_to_good: u64,
    bad_stay: u64,
}

impl GilbertFit {
    /// An empty accumulator.
    pub(crate) fn new() -> GilbertFit {
        GilbertFit::default()
    }

    /// Consume one per-packet indicator (`true` = lost).
    #[inline]
    pub(crate) fn push(&mut self, lost: bool) {
        if let Some(prev) = self.prev {
            match (prev, lost) {
                (false, true) => self.good_to_bad += 1,
                (false, false) => self.good_stay += 1,
                (true, false) => self.bad_to_good += 1,
                (true, true) => self.bad_stay += 1,
            }
        } else {
            self.first = Some(lost);
        }
        self.prev = Some(lost);
    }

    /// Fold `other` into `self`, as if `other`'s packet stream had been
    /// pushed after `self`'s. All state is integer transition counts plus
    /// the remembered first/last states, so the merge is *fully* bit-exact:
    /// the boundary transition (`self`'s last packet → `other`'s first) is
    /// counted exactly as a single pass over the concatenated stream would.
    pub(crate) fn merge(&mut self, other: &GilbertFit) {
        let Some(first) = other.first else {
            return; // `other` saw no packets
        };
        // Counts the self.prev → other.first boundary transition (or just
        // records `first` when `self` is empty).
        self.push(first);
        self.good_to_bad += other.good_to_bad;
        self.good_stay += other.good_stay;
        self.bad_to_good += other.bad_to_good;
        self.bad_stay += other.bad_stay;
        self.prev = other.prev;
    }

    /// Maximum-likelihood parameters, or `None` while a state is unvisited
    /// (identical to [`crate::gilbert::fit`]).
    pub fn fit(&self) -> Option<GilbertParams> {
        let from_good = self.good_to_bad + self.good_stay;
        let from_bad = self.bad_to_good + self.bad_stay;
        if from_good == 0 || from_bad == 0 {
            return None;
        }
        Some(GilbertParams {
            p: self.good_to_bad as f64 / from_good as f64,
            r: self.bad_to_good as f64 / from_bad as f64,
        })
    }
}

/// Configuration for [`LossStreamStats`].
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Window width (RTT units) for the index of dispersion and the
    /// loss-count autocorrelation (the batch pipeline uses 1 RTT).
    pub window_rtt: f64,
    /// Episode gap threshold (RTT units; the golden summaries use 1 RTT).
    pub episode_gap_rtt: f64,
    /// Autocorrelation lag budget over per-window loss counts.
    pub max_lag: usize,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            window_rtt: 1.0,
            episode_gap_rtt: 1.0,
            max_lag: 8,
        }
    }
}

/// The fused single-pass loss analyzer: one of these per loss trace
/// replaces the buffered `Vec<f64>` + multi-pass batch pipeline. Drive it
/// with loss timestamps ([`LossStreamStats::push_loss_at`]) or
/// pre-normalized intervals ([`LossStreamStats::push_interval`]), and
/// optionally with every packet outcome ([`LossStreamStats::push_packet`])
/// for the Gilbert fit. State is O(bins + lags), independent of trace
/// length.
///
/// All statistics operate on the *stitched RTT-normalized timeline* — the
/// cumulative sum of normalized intervals with the first loss at 0 —
/// exactly like the batch pipeline
/// ([`crate::burstiness::analyze`] / `LossStudy::loss_times_rtt`), so a
/// streaming run and a batch run over the same trace agree.
#[derive(Clone, Debug)]
pub struct LossStreamStats {
    rtt_secs: f64,
    cfg: StreamConfig,
    intervals: IntervalHist,
    episodes: EpisodeTracker,
    windows: WindowCounter,
    gilbert: GilbertFit,
    /// Stitched time of the latest loss (RTT units).
    t_rtt: f64,
    /// Raw timestamp of the latest loss (seconds).
    last_secs: Option<f64>,
    n_losses: u64,
}

impl LossStreamStats {
    /// A fresh accumulator for a path with the given RTT (seconds), on the
    /// paper's histogram geometry.
    pub(crate) fn new(rtt_secs: f64, cfg: StreamConfig) -> LossStreamStats {
        assert!(rtt_secs > 0.0, "RTT must be positive");
        LossStreamStats {
            rtt_secs,
            cfg,
            intervals: IntervalHist::paper_geometry(),
            episodes: EpisodeTracker::new(cfg.episode_gap_rtt),
            windows: WindowCounter::new(cfg.window_rtt, cfg.max_lag),
            gilbert: GilbertFit::new(),
            t_rtt: 0.0,
            last_secs: None,
            n_losses: 0,
        }
    }

    /// A fresh accumulator with the default [`StreamConfig`].
    pub fn with_rtt(rtt_secs: f64) -> LossStreamStats {
        LossStreamStats::new(rtt_secs, StreamConfig::default())
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

    /// Consume one per-packet outcome (`true` = lost) for the Gilbert fit.
    /// Independent of the loss-timing stream: drive it from a per-packet
    /// source (receiver arrival order, or enqueue/drop order at a queue).
    #[inline]
    pub fn push_packet(&mut self, lost: bool) {
        self.gilbert.push(lost);
    }

    /// Fold `other` into `self`, as if `other`'s pooled interval stream had
    /// been replayed through [`LossStreamStats::push_interval`] after
    /// `self`'s own. `other`'s synthetic anchor event (its first loss,
    /// injected at local t = 0) dissolves into the merged timeline, so the
    /// merged loss count is `a + b − 1` when both operands are non-empty.
    ///
    /// Merge contract (shared by every accumulator in this module):
    ///
    /// * **Bit-exact:** all integer state — histogram bins, overflow/total,
    ///   cluster-fraction counters, Gilbert transition counts (including
    ///   the shard-boundary transition), episode counts/sizes/max (their
    ///   `f64` size sums hold integers, so they are exact too), and every
    ///   count. Merging with an empty operand is bit-exact in *all* state.
    /// * **Reassociation-rounding:** float moments (interval sum, Welford
    ///   mean/m2, episode duration sums, autocorrelation co-moments) match
    ///   single-pass accumulation up to float reassociation, ≲ 1e-12
    ///   relative per merge.
    /// * **Segment semantics:** windowed statistics (index of dispersion,
    ///   loss-count ACF) concatenate each operand's per-window count
    ///   series — each anchored at that operand's own first event,
    ///   including its anchor — rather than re-phasing `other`'s events
    ///   onto `self`'s window grid, which O(1) state cannot do.
    ///
    /// Campaign-level *byte*-identity across shards is therefore not built
    /// on these merges: `core`'s shard driver replays checkpointed per-path
    /// intervals through the ordinary aggregation path instead (same
    /// operation order as one process), and uses these merges only where
    /// the contract above suffices.
    ///
    /// Designed for interval-fed (pooled) accumulators: merging discards
    /// the seconds-clock anchor, so `push_loss_at` must not be used
    /// afterwards (`push_interval` remains fine). Panics if the RTTs or
    /// stream configurations differ.
    pub fn merge(&mut self, other: &LossStreamStats) {
        assert!(
            self.rtt_secs == other.rtt_secs
                && self.cfg.window_rtt == other.cfg.window_rtt
                && self.cfg.episode_gap_rtt == other.cfg.episode_gap_rtt
                && self.cfg.max_lag == other.cfg.max_lag,
            "stream-stats merge requires identical RTT and config"
        );
        // The per-packet Gilbert stream is independent of the loss-timing
        // stream, so it merges unconditionally — an operand with packets
        // but no losses still contributes transitions.
        self.gilbert.merge(&other.gilbert);
        if other.n_losses == 0 {
            return;
        }
        if self.n_losses == 0 {
            let gilbert = self.gilbert;
            *self = other.clone();
            self.gilbert = gilbert;
            return;
        }
        self.intervals.merge(&other.intervals);
        self.episodes.merge_impl(&other.episodes, self.t_rtt, true);
        self.windows.merge(&other.windows);
        self.n_losses += other.n_losses - 1;
        self.t_rtt += other.t_rtt;
        self.last_secs = None;
    }

    /// Losses consumed so far.
    pub fn n_losses(&self) -> u64 {
        self.n_losses
    }

    /// Intervals consumed so far (`n_losses − 1`, or 0).
    pub fn n_intervals(&self) -> u64 {
        self.intervals.count()
    }

    /// The window/gap/lag configuration this accumulator was built with.
    pub fn config(&self) -> StreamConfig {
        self.cfg
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

    /// Gilbert parameters from the per-packet stream, if identifiable.
    pub fn gilbert(&self) -> Option<GilbertParams> {
        self.gilbert.fit()
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
    use crate::gilbert;
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
            let be = episodes::episode_report(&stitched, 1.0);
            let se = s.episode_report();
            assert_eq!(se.count, be.count);
            assert_eq!(se.max_size, be.max_size);
            assert_eq!(se.mean_size, be.mean_size);
            assert_close(se.mean_duration, be.mean_duration, "mean_duration");
            assert_eq!(se.fraction_in_bursts, be.fraction_in_bursts);
            assert_eq!(s.episode_count(), episodes::episodes(&stitched, 1.0).len());
            // Loss-count autocorrelation.
            let counts: Vec<f64> = counts_in_windows(&stitched, 1.0)
                .iter()
                .map(|&c| c as f64)
                .collect();
            let ba = autocorrelation(&counts, 8);
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
    fn gilbert_streaming_matches_batch_fit() {
        let mut s = 0x2006_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let seq = gilbert::generate(GilbertParams { p: 0.03, r: 0.4 }, 5000, &mut next);
        let mut g = GilbertFit::new();
        for &lost in &seq {
            g.push(lost);
        }
        assert_eq!(g.fit(), gilbert::fit(&seq));
        // Unidentifiable streams mirror the batch `None`s.
        let mut never_lost = GilbertFit::new();
        never_lost.push(false);
        never_lost.push(false);
        assert!(never_lost.fit().is_none());
        assert!(GilbertFit::new().fit().is_none());
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
            s.push_packet(i % 17 == 0);
        }
        assert_eq!(s.state_bytes(), before, "accumulator grew with the trace");
        assert!(before < 4096, "state unexpectedly large: {before} bytes");
    }

    /// Deterministic xorshift for merge sweeps.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let mut next = rng(7);
        let xs: Vec<f64> = (0..257).map(|_| next() * 3.0 - 1.0).collect();
        for split in [0, 1, 100, 256, 257] {
            let mut a = Welford::new();
            let mut b = Welford::new();
            let mut whole = Welford::new();
            for (i, &x) in xs.iter().enumerate() {
                if i < split {
                    a.push(x);
                } else {
                    b.push(x);
                }
                whole.push(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count(), "split {split}");
            assert_close(a.mean(), whole.mean(), &format!("mean split {split}"));
            assert_close(
                a.variance(),
                whole.variance(),
                &format!("var split {split}"),
            );
            // Empty-operand merges are bit-exact.
            if split == 0 || split == xs.len() {
                assert_eq!(a.mean().to_bits(), whole.mean().to_bits());
                assert_eq!(a.variance().to_bits(), whole.variance().to_bits());
            }
        }
    }

    #[test]
    fn interval_hist_merge_is_integer_exact() {
        let mut next = rng(2006);
        let iv: Vec<f64> = (0..400).map(|_| next() * 2.5).collect();
        for split in [0, 3, 200, 400] {
            let mut a = IntervalHist::paper_geometry();
            let mut b = IntervalHist::paper_geometry();
            let mut whole = IntervalHist::paper_geometry();
            for (i, &x) in iv.iter().enumerate() {
                if i < split {
                    a.push(x);
                } else {
                    b.push(x);
                }
                whole.push(x);
            }
            a.merge(&b);
            assert_eq!(a.histogram().bins, whole.histogram().bins, "split {split}");
            assert_eq!(a.histogram().overflow, whole.histogram().overflow);
            assert_eq!(a.histogram().total, whole.histogram().total);
            assert_eq!(a.count(), whole.count());
            assert_eq!(a.fractions(), whole.fractions(), "fractions split {split}");
            assert_close(a.mean(), whole.mean(), "mean");
        }
    }

    #[test]
    fn gilbert_merge_is_fully_exact() {
        let mut next = rng(42);
        let seq: Vec<bool> = (0..1000).map(|_| next() < 0.2).collect();
        for split in [0, 1, 500, 999, 1000] {
            let mut a = GilbertFit::new();
            let mut b = GilbertFit::new();
            let mut whole = GilbertFit::new();
            for (i, &lost) in seq.iter().enumerate() {
                if i < split {
                    a.push(lost);
                } else {
                    b.push(lost);
                }
                whole.push(lost);
            }
            a.merge(&b);
            // The boundary transition is reconstructed, so ALL state
            // matches, not just totals.
            assert_eq!(a.fit(), whole.fit(), "split {split}");
            assert_eq!(a.good_to_bad, whole.good_to_bad);
            assert_eq!(a.good_stay, whole.good_stay);
            assert_eq!(a.bad_to_good, whole.bad_to_good);
            assert_eq!(a.bad_stay, whole.bad_stay);
            assert_eq!(a.prev, whole.prev);
            assert_eq!(a.first, whole.first);
        }
    }

    #[test]
    fn autocorr_merge_matches_single_pass() {
        let mut next = rng(11);
        let xs: Vec<f64> = (0..300).map(|_| (next() * 6.0).floor()).collect();
        for max_lag in [0, 1, 4, 8] {
            for split in [0, 2, 5, 150, 299, 300] {
                let mut a = AutocorrRing::new(max_lag);
                let mut b = AutocorrRing::new(max_lag);
                let mut whole = AutocorrRing::new(max_lag);
                for (i, &x) in xs.iter().enumerate() {
                    if i < split {
                        a.push(x);
                    } else {
                        b.push(x);
                    }
                    whole.push(x);
                }
                a.merge(&b);
                assert_eq!(a.n, whole.n);
                // Head and ring are reconstructions, not approximations.
                assert_eq!(a.head, whole.head, "head lag {max_lag} split {split}");
                assert_eq!(a.ring, whole.ring, "ring lag {max_lag} split {split}");
                let (ma, mw) = (a.acf(), whole.acf());
                assert_eq!(ma.len(), mw.len());
                for (i, (x, y)) in ma.iter().zip(mw.iter()).enumerate() {
                    assert_close(
                        *x,
                        *y,
                        &format!("acf lag {i} (max {max_lag}, split {split})"),
                    );
                }
            }
        }
    }

    #[test]
    fn episode_merge_matches_sequential_pushes() {
        // Clustered times with inter-cluster gaps around the threshold.
        let mut next = rng(9);
        let mut times = Vec::new();
        let mut t = 0.0;
        for _ in 0..120 {
            t += if next() < 0.6 {
                next() * 0.8
            } else {
                1.0 + next() * 4.0
            };
            times.push(t);
        }
        for split in [0, 1, 60, 119, 120] {
            for offset in [0.0, 7.5] {
                let mut a = EpisodeTracker::new(1.0);
                let mut whole = EpisodeTracker::new(1.0);
                let mut b = EpisodeTracker::new(1.0);
                for (i, &x) in times.iter().enumerate() {
                    if i < split {
                        a.push(x);
                        whole.push(x);
                    } else {
                        // b sees its own local clock; the merge translates.
                        b.push(x - offset);
                        whole.push(x);
                    }
                }
                a.merge_impl(&b, offset, false);
                assert_eq!(a.count(), whole.count(), "split {split} off {offset}");
                let (ra, rw) = (a.report(), whole.report());
                assert_eq!(ra.count, rw.count);
                assert_eq!(ra.max_size, rw.max_size);
                assert_eq!(ra.mean_size, rw.mean_size, "sizes are integer-exact");
                assert_eq!(ra.fraction_in_bursts, rw.fraction_in_bursts);
                assert_close(ra.mean_duration, rw.mean_duration, "mean_duration");
            }
        }
    }

    #[test]
    fn episode_merge_chains_across_three_shards() {
        let times: Vec<f64> = vec![0.0, 0.2, 0.4, 3.0, 3.1, 3.2, 3.3, 9.0, 9.05, 20.0];
        let mut whole = EpisodeTracker::new(1.0);
        for &t in &times {
            whole.push(t);
        }
        let mut acc = EpisodeTracker::new(1.0);
        for chunk in times.chunks(3) {
            let mut part = EpisodeTracker::new(1.0);
            for &t in chunk {
                part.push(t);
            }
            acc.merge_impl(&part, 0.0, false);
        }
        let (ra, rw) = (acc.report(), whole.report());
        assert_eq!(ra.count, rw.count);
        assert_eq!(ra.max_size, rw.max_size);
        assert_eq!(ra.mean_size, rw.mean_size);
        assert_eq!(ra.fraction_in_bursts, rw.fraction_in_bursts);
        assert_close(ra.mean_duration, rw.mean_duration, "mean_duration");
    }

    #[test]
    fn window_merge_concatenates_segments() {
        let mut a = WindowCounter::new(1.0, 4);
        let mut b = WindowCounter::new(1.0, 4);
        let mut whole = WindowCounter::new(1.0, 4);
        let first = [0.0, 0.1, 1.5, 2.2, 2.3];
        let second = [0.0, 0.4, 0.5, 3.0];
        for &t in &first {
            a.push(t);
            whole.push(t);
        }
        for &t in &second {
            b.push(t);
            // The segment contract: b's series re-anchors at its own first
            // event, so the equivalent single counter sees b's windows
            // appended after a's open window closes (a spans windows 0–2,
            // so b's local window w lands at global window 3 + w).
            whole.push(3.0 + t);
        }
        a.merge(&b);
        assert_eq!(a.cur_win, whole.cur_win);
        assert_close(
            a.index_of_dispersion(),
            whole.index_of_dispersion(),
            "merged idc",
        );
        let (ma, mw) = (a.acf(), whole.acf());
        assert_eq!(ma.len(), mw.len());
        for (i, (x, y)) in ma.iter().zip(mw.iter()).enumerate() {
            assert_close(*x, *y, &format!("merged acf lag {i}"));
        }
    }

    /// Merge two pooled (interval-fed) accumulators and compare against one
    /// accumulator that consumed the concatenated interval stream.
    fn check_pooled_merge(iv_a: &[f64], iv_b: &[f64]) {
        let rtt = 0.1;
        let mut a = LossStreamStats::with_rtt(rtt);
        let mut b = LossStreamStats::with_rtt(rtt);
        let mut whole = LossStreamStats::with_rtt(rtt);
        for &x in iv_a {
            a.push_interval(x);
            whole.push_interval(x);
        }
        for &x in iv_b {
            b.push_interval(x);
            whole.push_interval(x);
        }
        a.merge(&b);
        assert_eq!(a.n_losses(), whole.n_losses());
        assert_eq!(a.n_intervals(), whole.n_intervals());
        assert_eq!(a.histogram().bins, whole.histogram().bins);
        assert_eq!(a.histogram().overflow, whole.histogram().overflow);
        let (ea, ew) = (a.episode_report(), whole.episode_report());
        assert_eq!(ea.count, ew.count);
        assert_eq!(ea.max_size, ew.max_size);
        assert_eq!(ea.mean_size, ew.mean_size);
        assert_eq!(ea.fraction_in_bursts, ew.fraction_in_bursts);
        assert_close(ea.mean_duration, ew.mean_duration, "mean_duration");
        let (ra, rw) = (a.report(), whole.report());
        assert_eq!(ra.n_losses, rw.n_losses);
        assert_eq!(ra.frac_below_001, rw.frac_below_001);
        assert_eq!(ra.frac_below_1, rw.frac_below_1);
        assert_close(ra.mean_interval_rtt, rw.mean_interval_rtt, "mean iv");
        assert_close(ra.burstiness_ratio, rw.burstiness_ratio, "ratio");
    }

    #[test]
    fn stream_stats_merge_matches_concatenated_stream() {
        let mut next = rng(1);
        let iv: Vec<f64> = (0..200)
            .map(|_| {
                if next() < 0.5 {
                    next() * 0.3
                } else {
                    next() * 30.0
                }
            })
            .collect();
        for split in [0, 1, 100, 199, 200] {
            check_pooled_merge(&iv[..split], &iv[split..]);
        }
        // Degenerate operands.
        check_pooled_merge(&[], &[]);
        check_pooled_merge(&[0.0], &[0.0]); // all losses at one instant
        check_pooled_merge(&[5.0], &[]);
        check_pooled_merge(&[], &[5.0]);
    }

    #[test]
    fn stream_stats_merge_with_empty_operand_is_bit_exact() {
        let mut s = LossStreamStats::with_rtt(0.1);
        for iv in [0.01, 4.0, 0.2, 0.02] {
            s.push_interval(iv);
        }
        s.push_packet(true);
        s.push_packet(false);
        let reference = s.clone();
        s.merge(&LossStreamStats::with_rtt(0.1));
        assert_eq!(s.n_losses(), reference.n_losses());
        assert_eq!(
            s.report().index_of_dispersion.to_bits(),
            reference.report().index_of_dispersion.to_bits()
        );
        assert_eq!(
            s.intervals.mean().to_bits(),
            reference.intervals.mean().to_bits()
        );
        let mut empty = LossStreamStats::with_rtt(0.1);
        empty.merge(&reference);
        assert_eq!(empty.n_losses(), reference.n_losses());
        assert_eq!(
            empty.report().index_of_dispersion.to_bits(),
            reference.report().index_of_dispersion.to_bits()
        );
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
