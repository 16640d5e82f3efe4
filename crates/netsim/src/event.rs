//! The discrete-event queue.
//!
//! [`EventQueue`] is a calendar queue in the style of Brown (CACM 1988):
//! events hash into power-of-two-width time buckets, the queue walks the
//! current "day" forward, the bucket count follows the pending population
//! and the day width follows the separation of the events about to be
//! dequeued. Packet simulation dequeues from a dense near-term mode
//! (serialization completions, propagation arrivals) while hundreds of
//! far-future events (flow starts, stale RTO timers) wait; sized from its
//! head, the calendar turns that into O(1) amortized enqueue/dequeue, and
//! [`SchedulerStats`] reports whether it did.
//!
//! Events pop sorted by `(time, sequence)`, where the insertion sequence
//! number breaks ties between events scheduled for the same instant. Event
//! delivery order is therefore a deterministic function of scheduling order
//! alone, and two runs with identical inputs replay identically. That total
//! order is the queue's whole contract: the tests here and in
//! `tests/proptests.rs` check it operation for operation against
//! `lossburst_testkit::schedule::HeapOracle`, a plain binary heap over
//! `(time, seq, id)`.

use crate::packet::{FlowId, LinkId, NodeId, Packet};
use crate::time::SimTime;

/// Opaque timer payload interpreted by the transport that armed it.
/// Transports typically encode a timer kind and a generation counter so that
/// stale (logically cancelled) timers can be recognized and ignored on fire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerToken(pub u64);

/// Something that will happen at a simulated instant.
///
/// Kept deliberately small — a packet in flight rides in its event as the
/// 8-byte owning [`Packet`] handle, so an event is 16 bytes whatever it
/// carries: the scheduler moves `Scheduled` values around constantly, and
/// narrow events keep that traffic inside cache lines. Owning the packet
/// makes an event neither `Copy` nor `Clone`; dropping a queue with
/// arrivals pending frees their packets.
#[derive(Debug)]
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
        /// The arriving packet.
        packet: Packet,
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

const _: () = assert!(std::mem::size_of::<Event>() <= 16);

#[derive(Debug)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

const _: () = assert!(std::mem::size_of::<Scheduled>() <= 32);

impl Scheduled {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Read-only scheduler counters: "is this run's calendar tuned?" answered
/// from the run itself. Always on (integer adds, like
/// [`crate::sim::EventCounts`]).
///
/// A tuned calendar shifts about one element per insert and walks under
/// one day per pop; either ratio in the tens means the day width does not
/// match the events being dequeued, and the queue is working as a sorted
/// array (many shifted) or a linear scan (many days).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Events scheduled.
    pub inserts: u64,
    /// Bucket elements moved aside to keep buckets sorted, summed over all
    /// inserts.
    pub shifted: u64,
    /// Events dequeued.
    pub pops: u64,
    /// Days the dequeue walk stepped over, summed over all pops.
    pub days_walked: u64,
    /// Times the calendar was rebuilt (re-bucketed with a new width or
    /// bucket count).
    pub rebuilds: u64,
    /// Current bucket count.
    pub buckets: usize,
    /// Current day width in nanoseconds.
    pub day_ns: u64,
}

impl SchedulerStats {
    /// Mean bucket elements moved per insert (0 before the first insert).
    pub fn shifted_per_insert(&self) -> f64 {
        self.shifted as f64 / self.inserts.max(1) as f64
    }

    /// Mean days walked per pop (0 before the first pop).
    pub fn days_per_pop(&self) -> f64 {
        self.days_walked as f64 / self.pops.max(1) as f64
    }
}

/// One day's events, ascending by `(time, seq)`, with the popped prefix
/// left in place: `items[..head]` are gone — each slot holds the
/// [`Event::Horizon`] placeholder `pop_front` swapped in for the event it
/// moved out, which nothing reads — and `items[head..]` are live. Both
/// ends are O(1) — dequeue advances `head`, and an event later than
/// everything in the bucket (every same-instant insert, since `seq` only
/// grows) is a `push`.
#[derive(Default)]
struct Bucket {
    items: Vec<Scheduled>,
    head: usize,
}

impl Bucket {
    #[inline]
    fn front(&self) -> Option<&Scheduled> {
        self.items.get(self.head)
    }

    #[inline]
    fn pop_front(&mut self) -> Option<Scheduled> {
        let slot = self.items.get_mut(self.head)?;
        let s = Scheduled {
            time: slot.time,
            seq: slot.seq,
            event: std::mem::replace(&mut slot.event, Event::Horizon),
        };
        self.head += 1;
        if self.head == self.items.len() {
            self.items.clear();
            self.head = 0;
        }
        Some(s)
    }

    /// Insert in key order; returns how many elements had to move.
    #[inline]
    fn insert(&mut self, s: Scheduled) -> usize {
        // Out of room with half of it already popped: reclaim that half
        // instead of growing (a bucket that always holds a far-future
        // event never empties, and would otherwise creep through memory).
        if self.items.len() == self.items.capacity() && self.head * 2 >= self.items.len() {
            self.items.drain(..self.head);
            self.head = 0;
        }
        let key = s.key();
        let live = &self.items[self.head..];
        if live.last().is_none_or(|last| last.key() < key) {
            self.items.push(s);
            return 0;
        }
        let pos = live.partition_point(|e| e.key() < key);
        if pos == 0 && self.head > 0 {
            self.head -= 1;
            self.items[self.head] = s;
            return 0;
        }
        let moved = live.len() - pos;
        self.items.insert(self.head + pos, s);
        moved
    }

    /// Empty the bucket, releasing its allocation, and yield what was live.
    fn take(&mut self) -> impl Iterator<Item = Scheduled> {
        let Bucket { items, head } = std::mem::take(self);
        items.into_iter().skip(head)
    }
}

/// Deterministic future-event list: an adaptive calendar queue.
///
/// Bucket index for time `t` is `(t >> shift) & (nbuckets - 1)`; one
/// bucket therefore spans `2^shift` ns (a "day") and the whole wheel
/// spans `nbuckets << shift` ns (a "year"). Events beyond the current year
/// simply wait in their bucket until the wheel comes round to their day.
///
/// The day width is sized from the events about to be dequeued (Brown's
/// rule, in `day_shift`), not from the whole pending span: a packet
/// simulation's pending set is bimodal — a few near-term tx/arrival events
/// beside hundreds of far-future flow starts and stale RTO timers — and a
/// width of `span / len` puts the whole near-term mode into one day, a
/// sorted array with a calendar's overhead. Three things rebuild the
/// calendar: the population doubling or quartering against the bucket
/// count; a dequeue walk that crosses an empty year; and a window of
/// inserts that wasted more than `WASTE_THRESHOLD` steps each — elements
/// shifted (days too wide for the events arriving) plus days walked (too
/// narrow for the events leaving) — so the width follows the head of the
/// queue through regime changes instead of waiting for the population to
/// change.
pub struct EventQueue {
    buckets: Vec<Bucket>,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Total events stored.
    len: usize,
    /// Insertion sequence number of the next event scheduled.
    next_seq: u64,
    /// Virtual clock in bucket-width units: no event lives below this day.
    cur_day: u64,
    /// The counters of [`SchedulerStats`]; its geometry fields are filled
    /// in on read.
    counts: SchedulerStats,
    /// Length in inserts of the current tuning window: [`TUNE_WINDOW`],
    /// doubled for every wasteful window in a row.
    window: u64,
    /// `counts.inserts` value at which the current window closes.
    window_end: u64,
    /// [`EventQueue::waste`] when the current window opened.
    window_waste: u64,
}

const MIN_BUCKETS: usize = 32;
const MAX_BUCKETS: usize = 1 << 20;
/// Default bucket width: 2^13 ns = 8.192 µs, a good match for the µs-scale
/// serialization/propagation gaps of the Fig-1 dumbbell workloads.
const DEFAULT_SHIFT: u32 = 13;
/// How many of the earliest pending events size the day width.
const HEAD_SAMPLE: usize = 32;
/// Inserts per tuning window.
const TUNE_WINDOW: u64 = 1024;
/// Mean wasted steps per insert, over a window, above which the day width
/// no longer fits. A calendar at Brown's width wastes about one (a day
/// holds three head events: an insert shifts one of them, a pop walks a
/// third of a day).
const WASTE_THRESHOLD: u64 = 2;

/// log2 of the day width for a pending set given in `(time, seq)` order.
///
/// Brown (CACM 1988): average the separations of the first few events,
/// drop separations above twice that average (the jump from the near-term
/// mode to the next one), and make a day three of the remaining average
/// separations wide. When the sample says nothing — fewer than two events,
/// or all of them at one instant — fall back to a year of twice the whole
/// pending span.
fn day_shift(sorted: &[Scheduled]) -> u32 {
    let head = &sorted[..sorted.len().min(HEAD_SAMPLE)];
    let gaps = || {
        head.windows(2)
            .map(|w| (w[1].time.as_nanos() - w[0].time.as_nanos()) as f64)
    };
    let mean = gaps().sum::<f64>() / gaps().count().max(1) as f64;
    let (sum, n) = gaps()
        .filter(|&g| g <= 2.0 * mean)
        .fold((0.0, 0u32), |(sum, n), g| (sum + g, n + 1));
    let width = if sum > 0.0 {
        (3.0 * sum / n as f64) as u64
    } else {
        let span = match (sorted.first(), sorted.last()) {
            (Some(first), Some(last)) => last.time.as_nanos() - first.time.as_nanos(),
            _ => 0,
        };
        span.saturating_mul(2) / sorted.len().max(1) as u64
    };
    width.max(1).ilog2().min(40)
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            shift: DEFAULT_SHIFT,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            next_seq: 0,
            cur_day: 0,
            counts: SchedulerStats::default(),
            window: TUNE_WINDOW,
            window_end: TUNE_WINDOW,
            window_waste: 0,
        }
    }

    /// The calendar's tuning counters and current geometry.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            buckets: self.buckets.len(),
            day_ns: 1 << self.shift,
            ..self.counts
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

    /// Schedule `event` at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let s = Scheduled {
            time: at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        let day = self.day_of(s.time);
        // Defensive: scheduling below the virtual clock (can only happen if
        // a caller rewinds time) just rewinds the clock; correctness is
        // preserved, the next pop scans a little more.
        if self.len == 0 || day < self.cur_day {
            self.cur_day = day;
        }
        let idx = self.bucket_of(s.time);
        self.counts.shifted += self.buckets[idx].insert(s) as u64;
        self.counts.inserts += 1;
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        } else if self.counts.inserts >= self.window_end {
            self.close_window();
        }
    }

    /// Steps spent beyond one per operation: elements shifted by inserts
    /// plus days walked by pops.
    fn waste(&self) -> u64 {
        self.counts.shifted + self.counts.days_walked
    }

    /// End of a tuning window: rebuild if it was wasteful, and then judge
    /// the result over a window twice as long — so that waste a rebuild
    /// cannot relieve (crowding beyond the head sample, say) costs a
    /// logarithmic number of rebuilds, not one per window. A quiet window
    /// restores the base length.
    #[cold]
    fn close_window(&mut self) {
        if self.waste() - self.window_waste > WASTE_THRESHOLD * self.window {
            self.window = self.window.saturating_mul(2);
            self.rebuild();
        } else {
            self.window = TUNE_WINDOW;
            self.open_window();
        }
    }

    fn open_window(&mut self) {
        self.window_end = self.counts.inserts.saturating_add(self.window);
        self.window_waste = self.waste();
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if it is due at or before
    /// `horizon`: the event loop's one-call combination of
    /// [`EventQueue::peek_time`] and [`EventQueue::pop`]. One day-walk
    /// serves both the lookup and the removal; a walk that stops at an
    /// event past the horizon still advances the virtual clock over the
    /// empty days it crossed.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Walk day by day from the virtual clock; an event whose day
            // matches the clock is the global minimum (no earlier day holds
            // anything).
            let nbuckets = self.buckets.len() as u64;
            for walked in 0..nbuckets {
                let idx = (self.cur_day & self.mask) as usize;
                if let Some(head) = self.buckets[idx].front() {
                    if self.day_of(head.time) == self.cur_day {
                        self.counts.days_walked += walked;
                        return self.take_head_before(idx, horizon);
                    }
                }
                self.cur_day += 1;
            }
            self.counts.days_walked += nbuckets;
            // A full year went by without an event: the days are too
            // narrow for what is pending now (the width was sized during a
            // burst, or the near-term mode has drained and only far-future
            // events remain). Rebuild around the current head; that also
            // puts the clock on the earliest event's day, so the next walk
            // finds it at its first step even when the geometry could not
            // change (events genuinely further apart than a maximal year).
            self.rebuild();
        }
    }

    /// Pop bucket `idx`'s head — the global minimum, on day `cur_day` —
    /// unless it is due after `horizon`.
    fn take_head_before(&mut self, idx: usize, horizon: SimTime) -> Option<(SimTime, Event)> {
        if self.buckets[idx].front()?.time > horizon {
            return None;
        }
        let s = self.buckets[idx].pop_front()?;
        self.len -= 1;
        self.counts.pops += 1;
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.rebuild();
        }
        Some((s.time, s.event))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Fast path mirroring pop(): the first occupied day at or after the
        // virtual clock. Fall back to scanning every bucket head after one
        // year.
        let nbuckets = self.buckets.len() as u64;
        for day in self.cur_day..self.cur_day + nbuckets {
            let idx = (day & self.mask) as usize;
            if let Some(head) = self.buckets[idx].front() {
                if self.day_of(head.time) == day {
                    return Some(head.time);
                }
            }
        }
        self.buckets
            .iter()
            .filter_map(|b| b.front())
            .map(|head| head.time)
            .min()
    }

    /// Re-bucket every pending event: bucket count proportional to the
    /// population, day width from [`day_shift`], clock on the earliest
    /// event's day. Opens a fresh tuning window.
    fn rebuild(&mut self) {
        let mut events: Vec<Scheduled> = self.buckets.iter_mut().flat_map(Bucket::take).collect();
        events.sort_unstable_by_key(Scheduled::key);
        // Sized for the population, so the grow condition cannot fire on
        // the way back in.
        let target = events
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if target != self.buckets.len() {
            self.buckets = (0..target).map(|_| Bucket::default()).collect();
            self.mask = (target - 1) as u64;
        }
        self.shift = day_shift(&events);
        self.cur_day = events.first().map_or(0, |e| self.day_of(e.time));
        // In key order, so every bucket fills in ascending order.
        for e in events {
            let idx = self.bucket_of(e.time);
            self.buckets[idx].items.push(e);
        }
        self.counts.rebuilds += 1;
        self.open_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_testkit::schedule::{
        campaign_schedule, far_cluster_schedule, hold_schedule, HeapOracle, QueueOp, Schedule,
        HOLD_BACKLOG, SCHEDULES,
    };

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), Event::Horizon);
        q.schedule(t(10), Event::Horizon);
        q.schedule(t(20), Event::Horizon);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(tm, _)| tm.as_nanos())
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
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

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(42), Event::Horizon);
        assert_eq!(q.peek_time(), Some(t(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(100), Event::Horizon);
        q.schedule(t(200), Event::Horizon);
        assert!(q.pop_before(t(99)).is_none());
        assert_eq!(q.pop_before(t(100)).map(|(tm, _)| tm), Some(t(100)));
        assert_eq!(q.pop_before(t(1_000_000)).map(|(tm, _)| tm), Some(t(200)));
        assert!(q.pop_before(SimTime::MAX).is_none());
    }

    /// The queue's whole contract: it produces the exact `(time, id)` pop
    /// sequence of [`HeapOracle`] for an arbitrary interleaving of
    /// schedules, pops and horizon-bounded pops, including far-future
    /// spreads that force the calendar through year-overflow scans and
    /// resizes, and horizons that fall between events (where the
    /// calendar's walk advances its clock without popping).
    #[test]
    fn calendar_agrees_with_the_heap_oracle() {
        let flow_of = |popped: Option<(SimTime, Event)>| match popped {
            Some((tm, Event::FlowStart { flow })) => Some((tm.as_nanos(), flow.0)),
            Some(_) => panic!("unexpected event kind"),
            None => None,
        };
        for seed in [1u64, 2006, 42, 0xDEAD] {
            let mut cal = EventQueue::new();
            let mut heap = HeapOracle::new();
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
                    0 => assert_eq!(flow_of(cal.pop()), heap.pop(), "seed {seed}"),
                    1 => {
                        // Around the head of the queue: half the
                        // horizons fall short of every pending event.
                        let head = heap.peek_time().unwrap_or(clock);
                        let horizon = (head + next() % 20_000).saturating_sub(10_000);
                        let got = flow_of(cal.pop_before(t(horizon)));
                        assert_eq!(got, heap.pop_before(horizon), "seed {seed}");
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
                        cal.schedule(t(clock + delta), Event::FlowStart { flow: FlowId(i) });
                        heap.schedule(clock + delta, i);
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
                    0 => head.saturating_sub(1),
                    1 => head,
                    _ => head + next() % 50_000_000,
                };
                loop {
                    let got = heap.pop_before(horizon);
                    assert_eq!(flow_of(cal.pop_before(t(horizon))), got, "seed {seed}");
                    if got.is_none() {
                        break;
                    }
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.peek_time().map(SimTime::as_nanos), heap.peek_time());
            }
            assert!(cal.pop().is_none());

            // The campaign-shaped, far-cluster and deep-backlog schedules
            // put the calendar's tuning inside the differential:
            // head-sampled rebuilds through the regime changes,
            // waste-triggered ones, the back-off when re-sampling cannot
            // help, and growth to 2^18 buckets.
            for schedule in SCHEDULES {
                let mut cal = EventQueue::new();
                let mut heap = HeapOracle::new();
                let mut id = 0u32;
                schedule(seed, 30_000, &mut |op| match op {
                    QueueOp::Schedule(at) => {
                        id += 1;
                        cal.schedule(t(at), Event::FlowStart { flow: FlowId(id) });
                        heap.schedule(at, id);
                        None
                    }
                    QueueOp::Pop => {
                        let got = flow_of(cal.pop());
                        assert_eq!(got, heap.pop(), "seed {seed}");
                        got.map(|(tm, _)| tm)
                    }
                });
                assert!(cal.stats().rebuilds >= 3, "seed {seed}: tuning never ran");
                while let Some(got) = heap.pop() {
                    assert_eq!(flow_of(cal.pop()), Some(got), "seed {seed}");
                }
                assert!(cal.pop().is_none());
            }
        }
    }

    /// Drive a calendar through `schedule` and return its counters.
    fn calendar_stats(schedule: Schedule, seed: u64, churn: usize) -> SchedulerStats {
        let mut q = EventQueue::new();
        schedule(seed, churn, &mut |op| match op {
            QueueOp::Schedule(at) => {
                q.schedule(t(at), Event::Horizon);
                None
            }
            QueueOp::Pop => q.pop().map(|(tm, _)| tm.as_nanos()),
        });
        q.stats()
    }

    /// The width follows the head of the queue: on a pending set shaped
    /// like a campaign path simulation — a thin near-term mode under
    /// hundreds of far-future events, with an idle spell mid-run — inserts
    /// land in nearly empty buckets and pops find their day at once. (A
    /// width of `span / len` puts the near-term mode into a single day:
    /// ten elements shifted per insert on this schedule.) The same holds
    /// at the other end of the depth range, on the stationary hold model
    /// under a 200 000-event backlog.
    #[test]
    fn calendar_stays_tuned_on_a_campaign_shaped_schedule() {
        let cases: [(Schedule, usize); 2] =
            [(campaign_schedule, 364), (hold_schedule, HOLD_BACKLOG)];
        for (schedule, backlog) in cases {
            for seed in [7u64, 2006, 12345] {
                let s = calendar_stats(schedule, seed, 300_000);
                assert_eq!((s.inserts, s.pops), (300_000 + backlog as u64, 300_000));
                assert!(
                    s.shifted_per_insert() <= 2.0 && s.days_per_pop() <= 2.0,
                    "backlog {backlog}, seed {seed}: {s:?}"
                );
                // A few rebuilds per regime change (or while the backlog
                // fills), not one per window.
                assert!(s.rebuilds <= 12, "backlog {backlog}, seed {seed}: {s:?}");
            }
        }
    }

    /// When the crowding is beyond the head sample a rebuild cannot fix
    /// it, and the calendar must stop trying every window.
    #[test]
    fn calendar_backs_off_when_a_rebuild_cannot_help() {
        let s = calendar_stats(far_cluster_schedule, 7, 200_000);
        assert!(s.shifted_per_insert() > 20.0, "not adversarial: {s:?}");
        // 199 windows of TUNE_WINDOW inserts, nearly all of them wasteful.
        assert!(s.rebuilds <= 30, "no back-off: {s:?}");
    }

    /// A bucket that never empties (a far-future event sits at its back
    /// while near-term events come and go in front) reuses its popped
    /// space instead of growing with the traffic through it.
    #[test]
    fn bucket_reclaims_popped_space() {
        let at = |time, seq| Scheduled {
            time: t(time),
            seq,
            event: Event::Horizon,
        };
        let mut b = Bucket::default();
        b.insert(at(u64::MAX, 0));
        for i in 1..10_000u64 {
            // One at the front (into popped space, once there is some),
            // one between it and the far event.
            assert!(b.insert(at(2 * i, i)) <= 1);
            assert_eq!(b.insert(at(2 * i + 1, i)), 1);
            assert_eq!(b.pop_front().map(|s| s.time), Some(t(2 * i)));
            assert_eq!(b.pop_front().map(|s| s.time), Some(t(2 * i + 1)));
        }
        assert!(b.items.capacity() <= 8, "capacity {}", b.items.capacity());
        assert_eq!(b.take().count(), 1);
    }

    /// An `Arrival` owns its packet, so the queue moves events where it
    /// used to copy them, and `pop_front` leaves an [`Event::Horizon`]
    /// placeholder in the slot it emptied. Every packet scheduled must come
    /// out exactly once, in `(time, seq)` order, and no placeholder ever:
    /// not from a front insert over one, not past the `drain(..head)`
    /// reclaim, not through `take` or the `rebuild` (and its `day_shift`)
    /// built on it. Only arrivals go in, so anything else coming out is a
    /// placeholder. (That dropping the queue frees the packets still in it
    /// is counted by the root test `tests/packet_path.rs`.)
    #[test]
    fn arrivals_come_out_exactly_once_and_placeholders_never() {
        fn arrival(id: u64) -> Event {
            let mut packet = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, 0);
            packet.id = id;
            Event::Arrival {
                node: NodeId(1),
                packet,
            }
        }
        fn id_of(event: &Event) -> u64 {
            match event {
                Event::Arrival { packet, .. } => packet.id,
                other => panic!("a placeholder escaped: {other:?}"),
            }
        }

        // One bucket, as in `bucket_reclaims_popped_space`: a far event
        // keeps it from emptying, so the popped prefix builds up, the next
        // near event lands on the placeholder at `head - 1`, and a full
        // vector sheds its prefix by `drain(..head)`.
        let at = |id| Scheduled {
            time: t(id),
            seq: id,
            event: arrival(id),
        };
        let mut b = Bucket::default();
        b.insert(at(u64::MAX));
        let (mut front_inserts, mut reclaims) = (0, 0);
        for i in 1..1_000u64 {
            let head = b.head;
            b.insert(at(2 * i));
            front_inserts += u32::from(head > 0 && b.head == head - 1);
            reclaims += u32::from(head > 1 && b.head == 0);
            b.insert(at(2 * i + 1));
            assert_eq!(b.front().map(|s| id_of(&s.event)), Some(2 * i));
            assert_eq!(b.pop_front().map(|s| id_of(&s.event)), Some(2 * i));
            assert_eq!(b.pop_front().map(|s| id_of(&s.event)), Some(2 * i + 1));
        }
        assert!(front_inserts > 100 && reclaims > 100);
        b.insert(at(5_000));
        assert!(b.head > 0, "no popped prefix for `take` to skip");
        let live: Vec<u64> = b.take().map(|s| id_of(&s.event)).collect();
        assert_eq!(live, [5_000, u64::MAX]);

        // The whole queue against the oracle, on the schedule that takes it
        // through regime changes and their rebuilds.
        let mut cal = EventQueue::new();
        let mut heap = HeapOracle::new();
        let mut out = Vec::new();
        let mut pop = |cal: &mut EventQueue, heap: &mut HeapOracle| {
            let got = cal.pop().map(|(tm, ev)| (tm.as_nanos(), id_of(&ev) as u32));
            assert_eq!(got, heap.pop());
            out.extend(got.map(|(_, id)| id));
            got
        };
        let mut id = 0u32;
        campaign_schedule(2006, 30_000, &mut |op| match op {
            QueueOp::Schedule(at) => {
                cal.schedule(t(at), arrival(id.into()));
                heap.schedule(at, id);
                id += 1;
                None
            }
            QueueOp::Pop => pop(&mut cal, &mut heap).map(|(tm, _)| tm),
        });
        assert!(cal.stats().rebuilds >= 3, "tuning never ran");
        // A rebuild with popped prefixes in place, then half of the rest.
        assert!(cal.buckets.iter().any(|b| b.head > 0));
        cal.rebuild();
        assert_eq!(cal.len(), heap.len());
        for _ in 0..heap.len() / 2 {
            pop(&mut cal, &mut heap);
        }
        assert_eq!(cal.peek_time().map(SimTime::as_nanos), heap.peek_time());
        let popped = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), popped, "a packet came out twice");
        // The rest is dropped with the queue.
        assert_eq!(popped + cal.len(), id as usize);
        assert!(!cal.is_empty());
    }

    #[test]
    fn calendar_survives_heavy_same_instant_bursts() {
        const N: u32 = 100_000;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.schedule(t(7), Event::FlowStart { flow: FlowId(i) });
        }
        // Each lands behind its predecessors without moving them (front
        // insertion would have shifted N^2 / 2 elements).
        assert_eq!(q.stats().shifted, 0);
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
        assert_eq!(n, N);
    }
}
