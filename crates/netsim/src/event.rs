//! The discrete-event queue.
//!
//! Two interchangeable schedulers live behind [`EventQueue`], selected by
//! [`SchedulerKind`]:
//!
//! * [`SchedulerKind::Calendar`] (the default) — a calendar queue in the
//!   style of Brown (CACM 1988): events hash into power-of-two-width time
//!   buckets, the queue walks the current "day" forward, and bucket count
//!   and width adapt to the live event population. Packet simulation
//!   schedules overwhelmingly into the near future (serialization
//!   completions, propagation arrivals, RTO timers), which is exactly the
//!   access pattern calendar queues turn into O(1) amortized
//!   enqueue/dequeue.
//! * [`SchedulerKind::Heap`] — the original `BinaryHeap` implementation,
//!   kept as a fallback and as the reference ordering for equivalence
//!   tests.
//!
//! Both schedulers implement the same total order: events pop sorted by
//! `(time, sequence)`, where the insertion sequence number breaks ties
//! between events scheduled for the same instant. Event delivery order is
//! therefore a deterministic function of scheduling order alone, two runs
//! with identical inputs replay identically, and the two schedulers are
//! byte-for-byte interchangeable (asserted by tests here and by the
//! cross-crate determinism suite).

use crate::packet::{FlowId, LinkId, NodeId, PacketRef};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque timer payload interpreted by the transport that armed it.
/// Transports typically encode a timer kind and a generation counter so that
/// stale (logically cancelled) timers can be recognized and ignored on fire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerToken(pub u64);

/// Something that will happen at a simulated instant.
///
/// Kept deliberately small (a packet in flight is a 4-byte [`PacketRef`]
/// into the simulator's pool, not an inline `Packet`): the scheduler moves
/// `Scheduled` values around constantly, and narrow events keep that
/// traffic inside cache lines.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A link finished serializing the packet it was transmitting.
    LinkTxComplete {
        /// The link whose head-of-line transmission completed.
        link: LinkId,
    },
    /// A packet finished propagating and arrives at `node`.
    Arrival {
        /// The node the packet arrives at.
        node: NodeId,
        /// Handle to the arriving packet in the simulator's packet pool.
        packet: PacketRef,
    },
    /// A transport timer fires.
    Timer {
        /// The flow whose timer fires.
        flow: FlowId,
        /// The transport-defined token.
        token: TimerToken,
    },
    /// A flow begins.
    FlowStart {
        /// The starting flow.
        flow: FlowId,
    },
    /// Periodic queue-occupancy sampling tick (self-rescheduling).
    QueueSample,
    /// Stop the simulation at this instant even if events remain.
    Horizon,
}

/// Which event scheduler backs the [`EventQueue`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Adaptive calendar queue (fast path, default).
    #[default]
    Calendar,
    /// Binary heap (reference implementation / fallback).
    Heap,
}

#[derive(Clone, Copy, Debug)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Scheduled {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap and we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// Adaptive calendar queue.
///
/// Buckets are `Vec`s kept sorted *descending* by `(time, seq)` so the
/// bucket minimum is always at the tail: dequeue is `Vec::pop`, enqueue is
/// a binary-search insert (near-future events land at or near the tail, so
/// the memmove is short in the common case). Bucket index for time `t` is
/// `(t >> shift) & (nbuckets - 1)`; one bucket therefore spans
/// `2^shift` ns (a "day") and the whole wheel spans `nbuckets << shift` ns
/// (a "year"). Events beyond the current year simply wait in their bucket
/// until the wheel comes round to their day.
struct CalendarQueue {
    buckets: Vec<Vec<Scheduled>>,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Total events stored.
    len: usize,
    /// Virtual clock in bucket-width units: no event lives below this day.
    cur_day: u64,
}

const MIN_BUCKETS: usize = 32;
const MAX_BUCKETS: usize = 1 << 20;
/// Default bucket width: 2^13 ns = 8.192 µs, a good match for the µs-scale
/// serialization/propagation gaps of the Fig-1 dumbbell workloads.
const DEFAULT_SHIFT: u32 = 13;

impl CalendarQueue {
    fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: DEFAULT_SHIFT,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            cur_day: 0,
        }
    }

    #[inline]
    fn day_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.shift
    }

    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        (self.day_of(t) & self.mask) as usize
    }

    fn insert(&mut self, s: Scheduled) {
        let day = self.day_of(s.time);
        // Defensive: scheduling below the virtual clock (can only happen if
        // a caller rewinds time) just rewinds the clock; correctness is
        // preserved, the next pop scans a little more.
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let idx = self.bucket_of(s.time);
        let bucket = &mut self.buckets[idx];
        // Descending sort: find the first element with key < s.key() and
        // insert before it. Near-future inserts hit the tail immediately.
        let key = s.key();
        let pos = bucket.partition_point(|e| e.key() > key);
        bucket.insert(pos, s);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    fn pop(&mut self) -> Option<Scheduled> {
        self.pop_before(SimTime::MAX)
    }

    /// Remove the earliest event if it is due at or before `horizon`. One
    /// day-walk serves both the lookup and the removal; a walk that stops
    /// at an event past the horizon still advances the virtual clock over
    /// the empty days it crossed.
    fn pop_before(&mut self, horizon: SimTime) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Walk day by day from the virtual clock; an event whose day
            // matches the clock is the global minimum (no earlier day holds
            // anything).
            let nbuckets = self.buckets.len() as u64;
            for _ in 0..nbuckets {
                let idx = (self.cur_day & self.mask) as usize;
                if let Some(tail) = self.buckets[idx].last() {
                    if self.day_of(tail.time) == self.cur_day {
                        return self.take_tail_before(idx, horizon);
                    }
                }
                self.cur_day += 1;
            }
            // A full year went by without an event: the bucket geometry no
            // longer matches the pending population. This happens when the
            // width was sized during a transient burst (e.g. hundreds of
            // same-instant flow starts → span ≈ 0 → ns-wide buckets) and the
            // population then settled into a deadband where neither the grow
            // nor the shrink trigger fires — every pop would pay a full-year
            // walk plus an O(nbuckets) scan. Rebuild around the live span so
            // the next walk lands on an occupied day; if the rebuild leaves
            // the geometry unchanged (events genuinely further apart than a
            // maximal year), fall back to a direct minimum scan.
            let before = (self.shift, self.buckets.len());
            self.resize();
            if (self.shift, self.buckets.len()) == before {
                let (idx, (time, _)) = self.min_position().expect("non-empty queue has a minimum");
                self.cur_day = self.day_of(time);
                return self.take_tail_before(idx, horizon);
            }
        }
    }

    /// Pop bucket `idx`'s tail — the global minimum, on day `cur_day` —
    /// unless it is due after `horizon`.
    fn take_tail_before(&mut self, idx: usize, horizon: SimTime) -> Option<Scheduled> {
        if self.buckets[idx].last()?.time > horizon {
            return None;
        }
        let s = self.buckets[idx].pop();
        self.len -= 1;
        self.maybe_shrink();
        s
    }

    /// Bucket index and key of the globally earliest event, by scanning
    /// every bucket tail. O(nbuckets); used for peeks and year-overflow.
    fn min_position(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(tail) = b.last() {
                if best.is_none_or(|(_, k)| tail.key() < k) {
                    best = Some((i, tail.key()));
                }
            }
        }
        best
    }

    fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Fast path mirroring pop(): the first occupied day at or after the
        // virtual clock. Fall back to the full scan after one year.
        let nbuckets = self.buckets.len() as u64;
        for day in self.cur_day..self.cur_day + nbuckets {
            let idx = (day & self.mask) as usize;
            if let Some(tail) = self.buckets[idx].last() {
                if self.day_of(tail.time) == day {
                    return Some(tail.time);
                }
            }
        }
        self.min_position().map(|(_, (t, _))| t)
    }

    fn maybe_shrink(&mut self) {
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
    }

    /// Rebuild with a bucket count proportional to the population and a
    /// bucket width matched to the current event span, so that a year
    /// covers the whole pending horizon and days hold O(1) events.
    fn resize(&mut self) {
        let events: Vec<Scheduled> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let target = events
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let (min_t, max_t) = events.iter().fold((u64::MAX, 0u64), |(lo, hi), e| {
            (lo.min(e.time.as_nanos()), hi.max(e.time.as_nanos()))
        });
        let span = max_t.saturating_sub(min_t).max(1);
        // Width ≈ 2 * span / population, i.e. a year ≈ twice the span.
        let width = (2 * span / events.len().max(1) as u64).max(1);
        self.shift = width.ilog2().min(40);
        self.mask = (target - 1) as u64;
        self.buckets = (0..target).map(|_| Vec::new()).collect();
        self.len = 0;
        self.cur_day = if events.is_empty() {
            0
        } else {
            min_t >> self.shift
        };
        for e in events {
            // Re-insert without triggering a recursive resize: target was
            // sized for the population, so the grow condition can't fire.
            let idx = self.bucket_of(e.time);
            let key = e.key();
            let bucket = &mut self.buckets[idx];
            let pos = bucket.partition_point(|x| x.key() > key);
            bucket.insert(pos, e);
            self.len += 1;
        }
    }
}

enum QueueImpl {
    Heap(BinaryHeap<Scheduled>),
    Calendar(CalendarQueue),
}

/// Deterministic future-event list.
pub struct EventQueue {
    imp: QueueImpl,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue backed by the default scheduler (calendar queue).
    pub fn new() -> Self {
        EventQueue::with_kind(SchedulerKind::Calendar)
    }

    /// An empty queue backed by the given scheduler.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        let imp = match kind {
            SchedulerKind::Heap => QueueImpl::Heap(BinaryHeap::with_capacity(1024)),
            SchedulerKind::Calendar => QueueImpl::Calendar(CalendarQueue::new()),
        };
        EventQueue { imp, next_seq: 0 }
    }

    /// Which scheduler backs this queue.
    pub fn kind(&self) -> SchedulerKind {
        match self.imp {
            QueueImpl::Heap(_) => SchedulerKind::Heap,
            QueueImpl::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Schedule `event` at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled {
            time: at,
            seq,
            event,
        };
        match &mut self.imp {
            QueueImpl::Heap(h) => h.push(s),
            QueueImpl::Calendar(c) => c.insert(s),
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        match &mut self.imp {
            QueueImpl::Heap(h) => h.pop().map(|s| (s.time, s.event)),
            QueueImpl::Calendar(c) => c.pop().map(|s| (s.time, s.event)),
        }
    }

    /// Remove and return the earliest event if it is due at or before
    /// `horizon`. The event loop's one-call combination of
    /// [`EventQueue::peek_time`] and [`EventQueue::pop`]: the calendar
    /// queue locates its minimum with one day-walk instead of two.
    #[inline]
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        match &mut self.imp {
            QueueImpl::Heap(h) => {
                if h.peek().is_some_and(|s| s.time <= horizon) {
                    h.pop().map(|s| (s.time, s.event))
                } else {
                    None
                }
            }
            QueueImpl::Calendar(c) => c.pop_before(horizon).map(|s| (s.time, s.event)),
        }
    }

    /// Time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.imp {
            QueueImpl::Heap(h) => h.peek().map(|s| s.time),
            QueueImpl::Calendar(c) => c.peek_time(),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Heap(h) => h.len(),
            QueueImpl::Calendar(c) => c.len,
        }
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn both() -> [EventQueue; 2] {
        [
            EventQueue::with_kind(SchedulerKind::Calendar),
            EventQueue::with_kind(SchedulerKind::Heap),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.schedule(t(30), Event::Horizon);
            q.schedule(t(10), Event::Horizon);
            q.schedule(t(20), Event::Horizon);
            let times: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(tm, _)| tm.as_nanos())
                .collect();
            assert_eq!(times, vec![10, 20, 30]);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for mut q in both() {
            q.schedule(t(5), Event::FlowStart { flow: FlowId(0) });
            q.schedule(t(5), Event::FlowStart { flow: FlowId(1) });
            q.schedule(t(5), Event::FlowStart { flow: FlowId(2) });
            let mut order = Vec::new();
            while let Some((_, ev)) = q.pop() {
                if let Event::FlowStart { flow } = ev {
                    order.push(flow.0);
                }
            }
            assert_eq!(order, vec![0, 1, 2]);
        }
    }

    #[test]
    fn peek_matches_pop() {
        for mut q in both() {
            q.schedule(t(42), Event::Horizon);
            assert_eq!(q.peek_time(), Some(t(42)));
            assert_eq!(q.len(), 1);
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn pop_before_respects_horizon() {
        for mut q in both() {
            q.schedule(t(100), Event::Horizon);
            q.schedule(t(200), Event::Horizon);
            assert!(q.pop_before(t(99)).is_none());
            assert_eq!(q.pop_before(t(100)).map(|(tm, _)| tm), Some(t(100)));
            assert_eq!(q.pop_before(t(1_000_000)).map(|(tm, _)| tm), Some(t(200)));
            assert!(q.pop_before(SimTime::MAX).is_none());
        }
    }

    /// The heart of the fallback guarantee: both schedulers produce the
    /// exact same (time, flow) pop sequence for an arbitrary interleaving
    /// of schedules, pops and horizon-bounded pops, including far-future
    /// spreads that force the calendar queue through year-overflow scans
    /// and resizes, and horizons that fall between events (where the
    /// calendar's walk advances its clock without popping).
    #[test]
    fn calendar_and_heap_agree_on_ordering() {
        let flow_of = |popped: Option<(SimTime, Event)>| match popped {
            Some((tm, Event::FlowStart { flow })) => Some((tm, flow)),
            Some(_) => panic!("unexpected event kind"),
            None => None,
        };
        for seed in [1u64, 2006, 42, 0xDEAD] {
            let mut cal = EventQueue::with_kind(SchedulerKind::Calendar);
            let mut heap = EventQueue::with_kind(SchedulerKind::Heap);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut bounded_hits = 0u32;
            let mut bounded_misses = 0u32;
            let mut clock = 0u64;
            for i in 0..5000u32 {
                let r = next();
                match r % 6 {
                    0 => assert_eq!(flow_of(cal.pop()), flow_of(heap.pop()), "seed {seed}"),
                    1 => {
                        // Around the head of the queue: half the
                        // horizons fall short of every pending event.
                        let head = heap.peek_time().map_or(clock, |tm| tm.as_nanos());
                        let horizon = t((head + next() % 20_000).saturating_sub(10_000));
                        let got = flow_of(cal.pop_before(horizon));
                        assert_eq!(got, flow_of(heap.pop_before(horizon)), "seed {seed}");
                        assert!(got.is_none_or(|(tm, _)| tm <= horizon));
                        match got {
                            Some(_) => bounded_hits += 1,
                            None => bounded_misses += 1,
                        }
                    }
                    _ => {
                        // Mostly near-future, occasionally seconds out: the
                        // distribution a packet simulator actually produces.
                        let delta = match r % 16 {
                            0 => next() % 10_000_000_000,
                            1..=3 => next() % 10_000_000,
                            _ => next() % 20_000,
                        };
                        let at = t(clock + delta);
                        cal.schedule(at, Event::FlowStart { flow: FlowId(i) });
                        heap.schedule(at, Event::FlowStart { flow: FlowId(i) });
                    }
                }
                if r % 97 == 0 {
                    // Advance the base clock like a running simulation.
                    clock += next() % 5_000_000;
                }
            }
            assert_eq!(cal.len(), heap.len());
            assert!(bounded_hits > 50 && bounded_misses > 50, "seed {seed}");
            // Drain by horizon alone, as `run_until` does: each horizon is
            // either just short of the next event (nothing may pop, even
            // when that event is seconds away) or a random stretch past it.
            while let Some(head) = heap.peek_time() {
                let horizon = match next() % 3 {
                    0 => t(head.as_nanos().saturating_sub(1)),
                    1 => head,
                    _ => t(head.as_nanos() + next() % 50_000_000),
                };
                loop {
                    let got = flow_of(heap.pop_before(horizon));
                    assert_eq!(flow_of(cal.pop_before(horizon)), got, "seed {seed}");
                    if got.is_none() {
                        break;
                    }
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.peek_time(), heap.peek_time());
            }
            assert!(cal.pop().is_none());
        }
    }

    #[test]
    fn calendar_survives_heavy_same_instant_bursts() {
        let mut q = EventQueue::with_kind(SchedulerKind::Calendar);
        for i in 0..10_000u32 {
            q.schedule(t(7), Event::FlowStart { flow: FlowId(i) });
        }
        let mut prev = None;
        let mut n = 0u32;
        while let Some((tm, Event::FlowStart { flow })) = q.pop() {
            assert_eq!(tm, t(7));
            if let Some(p) = prev {
                assert!(flow.0 > p, "insertion order violated");
            }
            prev = Some(flow.0);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}
