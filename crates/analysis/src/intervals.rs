//! Inter-loss intervals — the paper's primary derived quantity.
//!
//! "For each loss trace, we calculate the time interval between each two
//! consecutive lost packets … In analysis, we normalize the loss interval by
//! the RTT of the path."
//!
//! # Time order
//!
//! Every batch function that takes loss timestamps — here, in
//! [`crate::burstiness`] and in [`crate::episodes`] — takes them in one
//! order: numeric, equal values (−0 and +0 among them) in input order, and
//! NaN where [`f64::total_cmp`] puts it, after +∞ (or before −∞ when its
//! sign bit is set). Input already in that order is read where it lies;
//! other input is sorted into a copy. The order is total, so no timestamp
//! panics a sort or a count.
//!
//! The two difference functions here, [`inter_event_intervals`] and
//! [`normalized_intervals`], sort unordered input by [`f64::total_cmp`]
//! instead, which puts −0 before +0, so the zero interval between them is
//! +0.

use std::borrow::Cow;
use std::cmp::Ordering;

/// The module's time order.
pub(crate) fn time_order(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).unwrap_or_else(|| a.total_cmp(b))
}

/// `times` in [`time_order`].
pub(crate) fn in_time_order(times: &[f64]) -> Cow<'_, [f64]> {
    in_order(times, time_order)
}

/// `times` sorted by `order`. Router traces arrive already time-ordered and
/// are borrowed; only genuinely unordered input (e.g. merged multi-queue
/// traces) pays for a sorted copy. NaN compares as out of order, so
/// NaN-bearing input takes the copy.
fn in_order(times: &[f64], order: fn(&f64, &f64) -> Ordering) -> Cow<'_, [f64]> {
    if times.windows(2).all(|w| w[0] <= w[1]) {
        return Cow::Borrowed(times);
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(order);
    Cow::Owned(sorted)
}

/// Time intervals between consecutive events.
///
/// A NaN timestamp never panics here: it orders after every finite time
/// and the poison propagates into the output intervals, where a campaign
/// supervisor can detect it (via [`has_nan`]) and fail the one trace
/// instead of aborting the process.
pub fn inter_event_intervals(times: &[f64]) -> Vec<f64> {
    in_order(times, f64::total_cmp)
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect()
}

/// Whether any value in a trace is NaN — the check campaign supervisors run
/// on loss times and derived intervals before pooling a path's results.
#[inline]
pub fn has_nan(values: &[f64]) -> bool {
    values.iter().any(|v| v.is_nan())
}

/// Normalize raw intervals (seconds) by a path RTT (seconds) in place,
/// yielding intervals in RTT units; for callers that own the
/// interval buffer and don't need the raw seconds afterwards.
pub fn normalize_by_rtt_in_place(intervals: &mut [f64], rtt_secs: f64) {
    assert!(rtt_secs > 0.0, "RTT must be positive");
    for iv in intervals {
        *iv /= rtt_secs;
    }
}

/// Convenience: loss timestamps (seconds) → RTT-normalized inter-loss
/// intervals, differenced and normalized in one pass with a single output
/// allocation; each element is computed as `(t[i+1] − t[i]) / rtt`, the
/// exact operation sequence of the two-pass version, so results are
/// bit-identical.
pub fn normalized_intervals(times: &[f64], rtt_secs: f64) -> Vec<f64> {
    assert!(rtt_secs > 0.0, "RTT must be positive");
    in_order(times, f64::total_cmp)
        .windows(2)
        .map(|w| (w[1] - w[0]) / rtt_secs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_are_consecutive_differences() {
        let times = [0.0, 0.1, 0.4, 1.0];
        let iv = inter_event_intervals(&times);
        let expect = [0.1, 0.3, 0.6];
        assert_eq!(iv.len(), 3);
        for (a, b) in iv.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let times = [1.0, 0.0, 0.4, 0.1];
        let iv = inter_event_intervals(&times);
        assert_eq!(iv.len(), 3);
        assert!(iv.iter().all(|&x| x >= 0.0));
        assert!((iv.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_divides_by_rtt() {
        let mut iv = [0.05, 0.1];
        normalize_by_rtt_in_place(&mut iv, 0.05);
        assert_eq!(iv, [1.0, 2.0]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(inter_event_intervals(&[]).is_empty());
        assert!(inter_event_intervals(&[5.0]).is_empty());
    }

    /// The pre-refactor implementation: unconditional clone + sort, then a
    /// separate normalization pass.
    fn old_behaviour(times: &[f64], rtt_secs: f64) -> Vec<f64> {
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN timestamp"));
        let iv: Vec<f64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
        iv.iter().map(|i| i / rtt_secs).collect()
    }

    #[test]
    fn sorted_fast_path_is_byte_identical_to_old_behaviour() {
        // Awkward magnitudes on purpose: rounding must match bit-for-bit.
        let times: Vec<f64> = (0..500)
            .map(|i| 1e-7 + i as f64 * 0.0371 + (i % 13) as f64 * 1e-9)
            .collect();
        for rtt in [0.0123, 0.1, 1.0 / 3.0] {
            let new = normalized_intervals(&times, rtt);
            let old = old_behaviour(&times, rtt);
            assert_eq!(
                new.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                old.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "rtt {rtt}"
            );
            let raw_new = inter_event_intervals(&times);
            let mut sorted = times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let raw_old: Vec<f64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
            assert_eq!(
                raw_new.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                raw_old.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn unsorted_input_still_matches_old_behaviour() {
        let times = [4.0, 0.1, 2.7, 0.10001, 3.0, 0.0];
        let new = normalized_intervals(&times, 0.05);
        let old = old_behaviour(&times, 0.05);
        assert_eq!(
            new.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            old.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nan_timestamps_sort_instead_of_panicking() {
        // A NaN anywhere makes `is_sorted` false (NaN comparisons are all
        // false), so this exercises the defensive-sort path that previously
        // panicked on `partial_cmp(..).expect("NaN timestamp")`.
        let times = [0.3, f64::NAN, 0.0, 0.1];
        let iv = inter_event_intervals(&times);
        assert_eq!(iv.len(), 3);
        // total_cmp orders positive NaN after every finite value, so only
        // the last interval is poisoned; the finite prefix is intact.
        assert_eq!(iv[0].to_bits(), (0.1f64 - 0.0).to_bits());
        assert_eq!(iv[1].to_bits(), (0.3f64 - 0.1).to_bits());
        assert!(iv[2].is_nan());
        assert!(has_nan(&iv));
    }

    #[test]
    fn nan_detection_helper() {
        assert!(!has_nan(&[]));
        assert!(!has_nan(&[0.0, 1.5, f64::INFINITY]));
        assert!(has_nan(&[0.0, f64::NAN]));
    }

    #[test]
    fn normalization_is_shift_invariant() {
        // Shifting all timestamps must not change the normalized intervals.
        let a = [0.0, 0.3, 0.35];
        let b = [10.0, 10.3, 10.35];
        let na = normalized_intervals(&a, 0.1);
        let nb = normalized_intervals(&b, 0.1);
        for (x, y) in na.iter().zip(nb.iter()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }
}
