//! Order statistics over small samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the benchmark
//! contract's spread check computes: a spread printed here is the number
//! the driver will see.

/// Five-number summary plus the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median — the contract's
    /// run-to-run spread. `None` when the median is zero.
    pub fn spread(&self) -> Option<f64> {
        (self.median != 0.0).then(|| (self.q3 - self.q1) / self.median.abs())
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `[q1, q2, q3]` exactly as `statistics.quantiles(values, n=4)` returns
/// them. A single sample is its own quartiles (Python raises there; a
/// one-repeat run still needs a printable summary). `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Exact integer interpolation weights; delta is negative or above
        // 4 only at the clamped ends, where Python extrapolates the same.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Summarize a sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    // The middle quartile of the exclusive method is the median.
    let [q1, median, q3] = quartiles(values)?;
    Some(Summary {
        n: values.len(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median,
        q3,
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics — used for per-unit span percentiles (path p99, cell p50).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}
