//! A run-length set of sequence numbers.
//!
//! Both places the transport remembers "which sequences above the
//! cumulative point have arrived" — the sender's SACK scoreboard and the
//! receiver's reassembly buffer — hold contiguous stretches separated by
//! holes, far fewer runs than sequences. [`RunSet`] stores exactly that: sorted,
//! disjoint, non-adjacent half-open runs `[start, end)` in a `VecDeque`,
//! plus the cached element count. Every operation costs O(runs) at worst
//! (lookups O(log runs)), independent of how many sequences the runs
//! cover, and an empty set owns no heap memory.

use std::collections::VecDeque;

/// Sorted disjoint runs of `u64` sequence numbers.
///
/// The half-open representation cannot hold `u64::MAX` itself;
/// [`RunSet::insert`] ignores it (no transfer gets within reach of it, and
/// hostile input must not wrap).
#[derive(Clone, Debug, Default)]
pub(crate) struct RunSet {
    /// `(start, end)` with `start < end`, ascending, and each run's `end`
    /// strictly below the next run's `start` (adjacent runs are merged).
    runs: VecDeque<(u64, u64)>,
    /// Total sequences covered by `runs`.
    len: u64,
}

impl RunSet {
    /// An empty set (allocates nothing).
    pub(crate) fn new() -> RunSet {
        RunSet::default()
    }

    /// Number of sequences in the set.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set holds nothing.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs, ascending.
    #[inline]
    pub(crate) fn runs(&self) -> &VecDeque<(u64, u64)> {
        &self.runs
    }

    /// The largest sequence in the set.
    #[inline]
    pub(crate) fn highest(&self) -> Option<u64> {
        self.runs.back().map(|&(_, end)| end - 1)
    }

    /// Index of the run containing `s`.
    #[inline]
    pub(crate) fn find(&self, s: u64) -> Option<usize> {
        let i = self.runs.partition_point(|&(_, end)| end <= s);
        (self.runs.get(i)?.0 <= s).then_some(i)
    }

    /// Whether `s` is in the set.
    #[cfg(test)]
    pub(crate) fn contains(&self, s: u64) -> bool {
        self.find(s).is_some()
    }

    /// If `s` is in the set, the end of its run: the first sequence above
    /// `s` that is *not* in the set.
    #[inline]
    pub(crate) fn run_end(&self, s: u64) -> Option<u64> {
        self.find(s).map(|i| self.runs[i].1)
    }

    /// How many sequences of `[a, b)` are in the set.
    pub(crate) fn count_in(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            return 0;
        }
        let first = self.runs.partition_point(|&(_, end)| end <= a);
        self.runs
            .range(first..)
            .take_while(|&&(start, _)| start < b)
            .map(|&(start, end)| end.min(b) - start.max(a))
            .sum()
    }

    /// Add one sequence; `true` if it was not there before.
    #[inline]
    pub(crate) fn insert(&mut self, s: u64) -> bool {
        match s.checked_add(1) {
            Some(end) => self.insert_range(s, end),
            None => false,
        }
    }

    /// Add every sequence of `[a, b)`; `true` if any of them was new.
    pub(crate) fn insert_range(&mut self, a: u64, b: u64) -> bool {
        if a >= b {
            return false;
        }
        // Runs `lo..hi` overlap or touch `[a, b)` and fuse with it.
        let lo = self.runs.partition_point(|&(_, end)| end < a);
        let mut hi = lo;
        let (mut start, mut end, mut absorbed) = (a, b, 0u64);
        while let Some(&(s, e)) = self.runs.get(hi) {
            if s > b {
                break;
            }
            start = start.min(s);
            end = end.max(e);
            absorbed += e - s;
            hi += 1;
        }
        let added = (end - start) - absorbed;
        if added == 0 {
            return false;
        }
        if hi == lo {
            self.runs.insert(lo, (start, end));
        } else {
            self.runs[lo] = (start, end);
            self.runs.drain(lo + 1..hi);
        }
        self.len += added;
        true
    }

    /// Drop every sequence below `floor`.
    pub(crate) fn remove_below(&mut self, floor: u64) {
        while let Some(front) = self.runs.front_mut() {
            if front.1 <= floor {
                self.len -= front.1 - front.0;
                self.runs.pop_front();
            } else {
                if front.0 < floor {
                    self.len -= floor - front.0;
                    front.0 = floor;
                }
                break;
            }
        }
    }

    /// If a run starts exactly at `s`, remove that run and return its end.
    pub(crate) fn take_run_at(&mut self, s: u64) -> Option<u64> {
        let i = self.runs.partition_point(|&(start, _)| start < s);
        if self.runs.get(i)?.0 != s {
            return None;
        }
        let (start, end) = self.runs.remove(i)?;
        self.len -= end - start;
        Some(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_testkit::sweep::{sweep, RngExt};
    use std::collections::BTreeSet;

    fn assert_well_formed(set: &RunSet) {
        let runs: Vec<_> = set.runs().iter().copied().collect();
        assert!(runs.iter().all(|&(a, b)| a < b), "empty run in {runs:?}");
        assert!(
            runs.windows(2).all(|w| w[0].1 < w[1].0),
            "runs out of order, overlapping or adjacent: {runs:?}"
        );
        assert_eq!(set.len(), runs.iter().map(|&(a, b)| b - a).sum::<u64>());
    }

    /// The run set against a `BTreeSet<u64>` holding the same sequences,
    /// under one random script of every mutating operation.
    #[test]
    fn matches_a_btreeset_under_random_scripts() {
        const SPAN: u64 = 400;
        sweep(0x52C5, 150, |case, gen| {
            let mut set = RunSet::new();
            let mut model: BTreeSet<u64> = BTreeSet::new();
            let mut floor = 0u64;
            for step in 0..300 {
                let at = |what: &str| format!("case {case} step {step}: {what}");
                match gen.random_range(0..10u32) {
                    0..=2 => {
                        let s = gen.random_range(floor..floor + SPAN);
                        assert_eq!(set.insert(s), model.insert(s), "{}", at("insert"));
                    }
                    3..=7 => {
                        // Short ranges leave holes; long ones contain,
                        // overlap and bridge existing runs; starting at a
                        // run's end or ending at a run's start makes them
                        // adjacent.
                        let mut a = gen.random_range(floor..floor + SPAN);
                        let mut b = a + gen.random_range(0..40u64);
                        if let Some(&(start, end)) = set.runs().get(gen.random_range(0..8usize)) {
                            match gen.random_range(0..4u32) {
                                0 => (a, b) = (end, end + (b - a)),
                                1 => (a, b) = (start.saturating_sub(b - a), start),
                                _ => {}
                            }
                        }
                        let before = model.len();
                        model.extend(a..b);
                        assert_eq!(
                            set.insert_range(a, b),
                            model.len() > before,
                            "{}",
                            at(&format!("insert_range({a}, {b}) return value"))
                        );
                    }
                    8 => {
                        floor += gen.random_range(0..60u64);
                        set.remove_below(floor);
                        model = model.split_off(&floor);
                    }
                    _ => {
                        let s = gen.random_range(floor..floor + SPAN);
                        let is_run_start =
                            model.contains(&s) && !model.contains(&(s.wrapping_sub(1)));
                        let end = set.take_run_at(s);
                        assert_eq!(end.is_some(), is_run_start, "{}", at("take_run_at"));
                        for gone in s..end.unwrap_or(s) {
                            assert!(model.remove(&gone), "{}", at("take_run_at removed a hole"));
                        }
                        assert!(end.is_none_or(|e| !model.contains(&e)));
                    }
                }

                assert_well_formed(&set);
                assert_eq!(set.len(), model.len() as u64, "{}", at("len"));
                assert_eq!(set.is_empty(), model.is_empty());
                assert_eq!(set.highest(), model.last().copied(), "{}", at("highest"));
                let top = model.last().map_or(0, |&h| h + 2).max(floor + SPAN);
                let span = floor.saturating_sub(5)..top;
                let mut gap = top; // first sequence at or above `s` not in the model
                for s in span.clone().rev() {
                    if !model.contains(&s) {
                        gap = s;
                    }
                    assert_eq!(set.contains(s), model.contains(&s), "{}", at("contains"));
                    assert_eq!(
                        set.run_end(s).unwrap_or(s),
                        gap,
                        "{}",
                        at(&format!("first gap at or above {s}"))
                    );
                }
                for _ in 0..8 {
                    let a = gen.random_range(span.clone());
                    let b = gen.random_range(span.clone());
                    assert_eq!(
                        set.count_in(a, b),
                        model.range(a..b.max(a)).count() as u64,
                        "{}",
                        at(&format!("count_in({a}, {b})"))
                    );
                }
            }
        });
    }

    #[test]
    fn empty_and_backwards_ranges_add_nothing() {
        let mut set = RunSet::new();
        assert!(!set.insert_range(5, 5));
        assert!(!set.insert_range(9, 3));
        assert!(set.is_empty() && set.highest().is_none());
        assert_eq!(set.count_in(0, u64::MAX), 0);
        assert_eq!(set.runs().capacity(), 0, "an empty set owns no heap memory");
    }

    #[test]
    fn the_top_of_the_sequence_space_does_not_wrap() {
        let mut set = RunSet::new();
        assert!(!set.insert(u64::MAX), "unrepresentable, ignored");
        assert!(set.insert(u64::MAX - 1));
        assert!(set.insert_range(10, u64::MAX));
        assert_eq!(set.runs().len(), 1);
        assert_eq!(set.len(), u64::MAX - 10);
        assert_eq!(set.highest(), Some(u64::MAX - 1));
        set.remove_below(u64::MAX);
        assert!(set.is_empty());
    }
}
