//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call into a product layer in a span (name,
//! start, end, the span that caused it, and the unit of work it served).
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines afterwards. A span's *self time* is its duration minus the
//! part of its interval that its direct children cover.

use crate::json::{obj, Json};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `inet.path`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The unit of work served (path index, cell index, superstep…);
    /// spans of one unit share it.
    pub unit: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        unit: Option<u64>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }
}

/// Self time of every span, index-aligned: duration minus the union of its
/// direct children's intervals, each clipped to the parent. Children may
/// nest, touch or overlap one another (spans gathered from several
/// threads do); overlapping cover is counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Render spans as JSON lines (one object per span, with its self time).
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let line = obj([
            ("id", id.into()),
            ("name", s.name.into()),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
            ("self_ns", self_ns.into()),
            ("parent", s.parent.into()),
            ("unit", s.unit.into()),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

/// Total and self seconds per span name, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => r,
            None => {
                rows.push((s.name, 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.dur_ns() as f64 / 1e9;
        row.3 += self_ns as f64 / 1e9;
    }
    rows
}

/// `spans` as a JSON summary table (name, count, total, self).
pub fn summary_json(spans: &[Span]) -> Json {
    by_name(spans)
        .into_iter()
        .map(|(name, count, total_s, self_s)| {
            obj([
                ("name", name.into()),
                ("count", count.into()),
                ("total_s", total_s.into()),
                ("self_s", self_s.into()),
            ])
        })
        .collect::<Vec<Json>>()
        .into()
}
