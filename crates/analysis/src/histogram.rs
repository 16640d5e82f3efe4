//! Fixed-width histograms / empirical PDFs.
//!
//! The paper plots the PDF of RTT-normalized inter-loss intervals with a
//! bin size of 0.02 RTT over the range 0–2 RTT, with the Y axis in log
//! scale. "PDF" there (and here) is probability *mass per bin*: the bin
//! values of a Poisson (exponential-interval) process then fall on a
//! straight line in log scale, which is the visual reference the paper
//! compares against.

/// Bin width the paper uses (RTT units).
pub const PAPER_BIN_WIDTH: f64 = 0.02;
/// Upper edge of the paper's plots (RTT units).
pub const PAPER_RANGE: f64 = 2.0;

/// A fixed-width histogram over `[0, max)` with an overflow count.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bin width.
    pub(crate) bin_width: f64,
    /// Upper edge of the binned range.
    pub(crate) max: f64,
    /// Raw counts per bin.
    pub bins: Vec<u64>,
    /// Observations ≥ `max`.
    pub overflow: u64,
    /// Total observations offered (binned + overflow).
    pub total: u64,
}

impl Histogram {
    /// An empty histogram over `[0, max)` with the given bin width.
    pub fn new(bin_width: f64, max: f64) -> Histogram {
        assert!(bin_width > 0.0 && max > 0.0, "bad histogram geometry");
        let nbins = (max / bin_width).ceil() as usize;
        Histogram {
            bin_width,
            max,
            bins: vec![0; nbins],
            overflow: 0,
            total: 0,
        }
    }

    /// Build from a sample.
    pub fn from_values(values: &[f64], bin_width: f64, max: f64) -> Histogram {
        let mut h = Histogram::new(bin_width, max);
        for &v in values {
            h.add(v);
        }
        h
    }

    /// Add one observation (negative values clamp into the first bin).
    pub(crate) fn add(&mut self, v: f64) {
        self.total += 1;
        if v >= self.max {
            self.overflow += 1;
            return;
        }
        let idx = if v <= 0.0 {
            0
        } else {
            ((v / self.bin_width) as usize).min(self.bins.len() - 1)
        };
        self.bins[idx] += 1;
    }

    /// Fold `other`'s counts into `self`. All state is integer counts, so
    /// the merge is exact: merging per-shard histograms yields bit-for-bit
    /// the histogram a single pass over the concatenated observations
    /// builds. Panics if the two histograms' geometries differ.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bin_width == other.bin_width
                && self.max == other.max
                && self.bins.len() == other.bins.len(),
            "histogram merge requires identical geometry"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Probability mass per bin (sums to 1 − overflow fraction).
    pub fn pdf(&self) -> Vec<f64> {
        let n = self.total.max(1) as f64;
        self.bins.iter().map(|&c| c as f64 / n).collect()
    }

    /// Centers of the bins.
    pub fn bin_centers(&self) -> Vec<f64> {
        (0..self.bins.len())
            .map(|i| (i as f64 + 0.5) * self.bin_width)
            .collect()
    }

    /// Empirical CDF evaluated at `x` (counts observations strictly below
    /// the bin containing `x`, plus a linear share of that bin).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if x >= self.max {
            return (self.total - self.overflow) as f64 / self.total as f64;
        }
        let n = self.total as f64;
        let idx = ((x / self.bin_width) as usize).min(self.bins.len() - 1);
        let below: u64 = self.bins[..idx].iter().sum();
        let within = self.bins[idx] as f64 * ((x - idx as f64 * self.bin_width) / self.bin_width);
        (below as f64 + within) / n
    }

    /// Probability mass re-binned into groups of `group` consecutive bins
    /// (the last group may be narrower). Golden fixtures store this coarse
    /// geometry: a full 100-bin PDF churns on every harmless jitter, while
    /// a handful of coarse bins pins the distribution's *shape*.
    pub fn coarse_pdf(&self, group: usize) -> Vec<f64> {
        assert!(group > 0, "group must be positive");
        self.pdf().chunks(group).map(|c| c.iter().sum()).collect()
    }

    /// Fraction of total mass in the overflow region.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_binning() {
        let mut h = Histogram::new(0.5, 2.0);
        assert_eq!(h.bins.len(), 4);
        h.add(0.0);
        h.add(0.49);
        h.add(0.5);
        h.add(1.99);
        h.add(2.0); // overflow
        h.add(5.0); // overflow
        assert_eq!(h.bins, vec![2, 1, 0, 1]);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total, 6);
    }

    #[test]
    fn pdf_mass_sums_to_one_minus_overflow() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64 * 0.003).collect();
        let h = Histogram::from_values(&values, 0.02, 2.0);
        let mass: f64 = h.pdf().iter().sum();
        assert!((mass + h.overflow_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let values = [0.01, 0.01, 0.5, 0.7, 1.5, 3.0];
        let h = Histogram::from_values(&values, 0.02, 2.0);
        let mut prev = 0.0;
        for i in 0..=40 {
            let x = i as f64 * 0.05;
            let c = h.cdf_at(x);
            assert!(c >= prev - 1e-12, "CDF decreased at {x}");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        // The observation at 3.0 is overflow: CDF tops out at 5/6.
        assert!((h.cdf_at(2.0) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn negative_values_clamp_to_first_bin() {
        let h = Histogram::from_values(&[-0.5, 0.0], 0.02, 2.0);
        assert_eq!(h.bins[0], 2);
    }

    #[test]
    fn coarse_pdf_preserves_mass() {
        let values: Vec<f64> = (0..500).map(|i| i as f64 * 0.004).collect();
        let h = Histogram::from_values(&values, 0.02, 2.0);
        for group in [1, 5, 7, 100] {
            let coarse = h.coarse_pdf(group);
            assert_eq!(coarse.len(), h.bins.len().div_ceil(group));
            let fine: f64 = h.pdf().iter().sum();
            let sum: f64 = coarse.iter().sum();
            assert!((sum - fine).abs() < 1e-12, "group {group}");
        }
    }

    #[test]
    fn bin_centers_are_midpoints() {
        let h = Histogram::new(0.5, 2.0);
        assert_eq!(h.bin_centers(), vec![0.25, 0.75, 1.25, 1.75]);
    }
}
