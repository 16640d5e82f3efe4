//! The discrete-event queue.
//!
//! [`EventQueue`] is a hierarchical timing wheel of fixed geometry that
//! keeps order only where the clock is. Packet simulation dequeues from a
//! dense near-term mode (serialization completions, propagation arrivals)
//! while thousands of RTT- and RTO-scale timers wait, most of them to be
//! superseded before they matter; so only the 8 µs "day" being dequeued is
//! kept sorted, a later day of the current 4 ms "year" and each of the
//! next 255 years is an unsorted bucket an insert appends to, and what
//! lies further out waits in a binary heap. A day is sorted once, when the
//! clock enters it. Enqueue and dequeue are O(1) amortized whatever the
//! pending population, and [`SchedulerStats`] reports whether the geometry
//! fitted the run.
//!
//! Events pop sorted by `(time, sequence)`, where the insertion sequence
//! number breaks ties between events scheduled for the same instant. Event
//! delivery order is therefore a deterministic function of scheduling order
//! alone, and two runs with identical inputs replay identically. That total
//! order is the queue's whole contract: the tests here, in
//! `tests/proptests.rs` and in the root package's `tests/scheduler.rs`
//! check it operation for operation against
//! `lossburst_testkit::schedule::HeapOracle`, a plain binary heap over
//! `(time, seq, id)`.

use crate::packet::{FlowId, LinkId, NodeId, Packet};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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

    /// The day this event is due on, counted from time zero.
    #[inline]
    fn day(&self) -> u64 {
        day_of(self.time)
    }
}

// Ordered by key alone (keys are unique: `seq` is), for the far heap.
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
        self.key().cmp(&other.key())
    }
}

/// Read-only scheduler counters: "did the fixed geometry fit this run?"
/// answered from the run itself. Always on (integer adds, like
/// [`crate::sim::EventCounts`]).
///
/// On traffic the wheel fits, an insert moves about one element of the
/// day being dequeued, an event is dealt down a tier at most once, and
/// under a percent of inserts lands beyond the year wheel. `shifted` per
/// insert in the tens means the day is too wide for the events around the
/// clock (the queue is working as a sorted array); `beyond` or `cascaded`
/// near `inserts` means the wheels are too short for the timers, and the
/// heap is doing the work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Events scheduled.
    pub inserts: u64,
    /// Elements of the day being dequeued moved aside to keep it sorted,
    /// summed over all inserts.
    pub(crate) shifted: u64,
    /// Events dequeued.
    pub pops: u64,
    /// Days the clock entered (each is sorted once, on entry).
    pub(crate) days_walked: u64,
    /// Times the whole pending set was placed again because an event was
    /// scheduled below the clock. No simulation does that: 0 on every
    /// workload.
    pub rebuilds: u64,
    /// Bucket count: days plus years, a constant.
    pub buckets: usize,
    /// Day width in nanoseconds, a constant.
    pub day_ns: u64,
    /// Events dealt down a tier: from a year's bucket into its days, or
    /// from the heap into the wheels.
    pub cascaded: u64,
    /// Inserts due beyond the year wheel, which went to the heap.
    pub beyond: u64,
}

impl SchedulerStats {
    /// Mean elements moved per insert (0 before the first insert).
    pub fn shifted_per_insert(&self) -> f64 {
        self.shifted as f64 / self.inserts.max(1) as f64
    }
}

/// log2 of the day width in nanoseconds: 8.192 µs, the scale of the
/// serialization and propagation gaps the clock moves through.
const DAY_SHIFT: u32 = 13;
/// log2 of the days in a year: 512 days, 4.19 ms.
const YEAR_DAYS_LOG2: u32 = 9;
const YEAR_DAYS: usize = 1 << YEAR_DAYS_LOG2;
/// Years the year wheel reaches ahead of the current one, its own slot
/// staying empty: 1.07 s in all, past which an RTO timer is rare.
const YEARS: usize = 256;
/// Slots a drained bucket may keep allocated.
const KEEP_SLOTS: usize = 64;

#[inline]
fn day_of(t: SimTime) -> u64 {
    t.as_nanos() >> DAY_SHIFT
}

#[inline]
fn year_of(day: u64) -> u64 {
    day >> YEAR_DAYS_LOG2
}

#[inline]
fn day_slot(day: u64) -> usize {
    (day % YEAR_DAYS as u64) as usize
}

#[inline]
fn year_slot(year: u64) -> usize {
    (year % YEARS as u64) as usize
}

/// Index of the first set bit at or after `from`, one word per 64 buckets.
#[inline]
fn next_set(bits: &[u64], from: usize) -> Option<usize> {
    let mut i = from / 64;
    let mut word = *bits.get(i)? & (!0 << (from % 64));
    while word == 0 {
        i += 1;
        word = *bits.get(i)?;
    }
    Some(i * 64 + word.trailing_zeros() as usize)
}

/// Empty a drained bucket, keeping at most [`KEEP_SLOTS`] of its
/// allocation, so that 768 buckets do not creep through memory.
#[inline]
fn release(bucket: &mut Vec<Scheduled>) {
    bucket.clear();
    bucket.shrink_to(KEEP_SLOTS);
}

/// Deterministic future-event list: a two-level timing wheel over a heap.
///
/// Time is cut into days of `2^DAY_SHIFT` ns and aligned years of
/// `YEAR_DAYS` days. `days` covers exactly the year the clock is in, one
/// bucket a day with no wrap-around, so a bucket never holds another
/// year's events; `years` holds the next `YEARS - 1` years, one bucket
/// each; `beyond` holds the rest. The three tiers are ordered — everything
/// in `days` is due before everything in `years`, and that before
/// everything in `beyond` — so the earliest event is always in the first
/// occupied bucket after the clock, which the occupancy bitmaps find
/// without touching an empty one.
///
/// Only today's bucket is sorted (ascending, with the popped prefix left
/// in place); every other bucket is in insertion order and an insert
/// there is a `push`. Entering a day sorts it; entering a year deals its
/// bucket into the days and pulls the years that came within reach out of
/// the heap. The geometry is constants, sized from the insert horizons the
/// workloads were measured to have (DESIGN.md §3), not tuned at run time.
pub struct EventQueue {
    days: Vec<Vec<Scheduled>>,
    years: Vec<Vec<Scheduled>>,
    beyond: BinaryHeap<Reverse<Scheduled>>,
    /// Which `days` buckets after today's hold events.
    day_bits: [u64; YEAR_DAYS / 64],
    /// Which `years` buckets hold events.
    year_bits: [u64; YEARS / 64],
    /// The clock: today, counted from time zero. No event is due on an
    /// earlier day.
    today: u64,
    /// First live element of today's bucket; the ones before are popped.
    head: usize,
    /// Total events stored.
    len: usize,
    /// Insertion sequence number of the next event scheduled.
    next_seq: u64,
    /// The counters of [`SchedulerStats`]; its geometry fields are filled
    /// in on read.
    counts: SchedulerStats,
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
            days: (0..YEAR_DAYS).map(|_| Vec::new()).collect(),
            years: (0..YEARS).map(|_| Vec::new()).collect(),
            beyond: BinaryHeap::new(),
            day_bits: [0; YEAR_DAYS / 64],
            year_bits: [0; YEARS / 64],
            today: 0,
            head: 0,
            len: 0,
            next_seq: 0,
            counts: SchedulerStats::default(),
        }
    }

    /// The wheel's fit counters and its (constant) geometry.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            buckets: YEAR_DAYS + YEARS,
            day_ns: 1 << DAY_SHIFT,
            ..self.counts
        }
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
        self.counts.inserts += 1;
        self.len += 1;
        match s.day().cmp(&self.today) {
            Ordering::Greater => self.park(s),
            Ordering::Equal => self.insert_today(s),
            Ordering::Less => self.rewind(s),
        }
    }

    /// File `s`, due today or later, unsorted in the tier its distance
    /// from the clock selects.
    #[inline]
    fn park(&mut self, s: Scheduled) {
        let day = s.day();
        let years_ahead = year_of(day) - year_of(self.today);
        if years_ahead == 0 {
            let slot = day_slot(day);
            self.day_bits[slot / 64] |= 1 << (slot % 64);
            self.days[slot].push(s);
        } else if years_ahead < YEARS as u64 {
            let slot = year_slot(year_of(day));
            self.year_bits[slot / 64] |= 1 << (slot % 64);
            self.years[slot].push(s);
        } else {
            self.counts.beyond += 1;
            self.beyond.push(Reverse(s));
        }
    }

    /// Insert into the sorted day being dequeued: a `push` when `s` is due
    /// after everything in it (every same-instant insert, since `seq` only
    /// grows), otherwise a shift of whichever side of its place is shorter
    /// — the earlier side moves down into the popped prefix.
    fn insert_today(&mut self, s: Scheduled) {
        let bucket = &mut self.days[day_slot(self.today)];
        let key = s.key();
        if bucket.last().is_none_or(|last| last.key() < key) {
            bucket.push(s);
            return;
        }
        let live = &bucket[self.head..];
        let before = live.partition_point(|e| e.key() < key);
        let after = live.len() - before;
        if self.head > 0 && before < after {
            // The placeholder at `head - 1` travels up to `s`'s place.
            bucket[self.head - 1..self.head + before].rotate_left(1);
            self.head -= 1;
            bucket[self.head + before] = s;
            self.counts.shifted += before as u64;
        } else {
            bucket.insert(self.head + before, s);
            self.counts.shifted += after as u64;
        }
    }

    /// `s` is due below the clock, which only a caller that rewinds time
    /// can ask for: turn the clock back to its day and place the whole
    /// pending set again. Correct, not fast.
    #[cold]
    fn rewind(&mut self, s: Scheduled) {
        self.days[day_slot(self.today)].drain(..self.head);
        let buckets = self.days.iter_mut().chain(&mut self.years);
        let mut pending: Vec<Scheduled> = buckets.flat_map(std::mem::take).collect();
        pending.extend(std::mem::take(&mut self.beyond).into_iter().map(|r| r.0));
        self.day_bits = [0; YEAR_DAYS / 64];
        self.year_bits = [0; YEARS / 64];
        self.today = s.day();
        self.park(s);
        for s in pending {
            self.park(s);
        }
        self.enter_day(self.today);
        self.counts.rebuilds += 1;
    }

    /// Put the clock on `day` and sort its bucket (keys are unique, so an
    /// unstable sort is exact).
    fn enter_day(&mut self, day: u64) {
        let slot = day_slot(day);
        self.today = day;
        self.head = 0;
        self.day_bits[slot / 64] &= !(1 << (slot % 64));
        self.days[slot].sort_unstable_by_key(Scheduled::key);
        self.counts.days_walked += 1;
    }

    /// Put the clock on the first day of `year`, every day of the year
    /// before being drained: deal the year's bucket into the days, and
    /// pull out of the heap what the year wheel now reaches.
    fn enter_year(&mut self, year: u64) {
        self.today = year << YEAR_DAYS_LOG2;
        let slot = year_slot(year);
        self.year_bits[slot / 64] &= !(1 << (slot % 64));
        let mut bucket = std::mem::take(&mut self.years[slot]);
        self.counts.cascaded += bucket.len() as u64;
        for s in bucket.drain(..) {
            self.park(s);
        }
        release(&mut bucket);
        self.years[slot] = bucket;
        while let Some(s) = self.pop_beyond_before(year + YEARS as u64) {
            self.counts.cascaded += 1;
            self.park(s);
        }
        self.enter_day(self.today);
    }

    /// Take the heap's earliest event if it is due before `year`.
    fn pop_beyond_before(&mut self, year: u64) -> Option<Scheduled> {
        let far = self.beyond.peek_mut()?;
        (year_of(far.0.day()) < year).then(|| PeekMut::pop(far).0)
    }

    /// The first occupied bucket of the year wheel after the clock's year,
    /// as `(year, slot)`.
    #[inline]
    fn next_year(&self) -> Option<(u64, usize)> {
        let next = year_of(self.today) + 1;
        let from = year_slot(next);
        let slot = next_set(&self.year_bits, from).or_else(|| next_set(&self.year_bits, 0))?;
        Some((next + ((slot + YEARS - from) % YEARS) as u64, slot))
    }

    /// Today is drained: move the clock to the next day, or failing that
    /// the next year, that holds an event — unless it lies past `limit`,
    /// the horizon's day. Look before committing: the caller schedules at
    /// the horizon it just polled, which must not end up below the clock.
    /// Returns whether the clock moved.
    fn advance(&mut self, limit: u64) -> bool {
        let slot = day_slot(self.today);
        if let Some(next) = next_set(&self.day_bits, slot + 1) {
            let day = self.today + (next - slot) as u64;
            if day > limit {
                return false;
            }
            self.enter_day(day);
            return true;
        }
        let year = match (self.next_year(), self.beyond.peek()) {
            (Some((year, _)), _) => year,
            (None, Some(Reverse(far))) => year_of(far.day()),
            (None, None) => return false,
        };
        if year > year_of(limit) {
            return false;
        }
        self.enter_year(year);
        true
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if it is due at or before
    /// `horizon`: the event loop's one-call combination of
    /// [`EventQueue::peek_time`] and [`EventQueue::pop`]. A miss never
    /// moves the clock past `horizon`'s day.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        loop {
            let bucket = &mut self.days[day_slot(self.today)];
            if let Some(slot) = bucket.get_mut(self.head) {
                if slot.time > horizon {
                    return None;
                }
                // `Horizon` is the placeholder a popped slot holds; nothing
                // reads it.
                let popped = (
                    slot.time,
                    std::mem::replace(&mut slot.event, Event::Horizon),
                );
                self.head += 1;
                if self.head == bucket.len() {
                    release(bucket);
                    self.head = 0;
                }
                self.len -= 1;
                self.counts.pops += 1;
                return Some(popped);
            }
            if !self.advance(day_of(horizon)) {
                return None;
            }
        }
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

    /// Time of the earliest pending event, if any. It cannot sort through
    /// `&self`, so past today it reads the minimum of the next occupied
    /// bucket.
    pub fn peek_time(&self) -> Option<SimTime> {
        let slot = day_slot(self.today);
        if let Some(head) = self.days[slot].get(self.head) {
            return Some(head.time);
        }
        let earliest = |bucket: &Vec<Scheduled>| bucket.iter().map(|s| s.time).min();
        if let Some(next) = next_set(&self.day_bits, slot + 1) {
            return earliest(&self.days[next]);
        }
        if let Some((_, slot)) = self.next_year() {
            return earliest(&self.years[slot]);
        }
        self.beyond.peek().map(|Reverse(far)| far.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_testkit::schedule::{
        campaign_schedule, dense_lab_schedule, hold_schedule, HeapOracle, QueueOp, Schedule,
        DENSE_LAB_BACKLOG, HOLD_BACKLOG,
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
    /// schedules, pops and horizon-bounded pops, with horizons from
    /// nanoseconds to ten seconds (every tier of the wheel) and bounds
    /// that fall between events, where a miss must leave the clock at or
    /// before the bound. (The four `testkit` schedules are replayed
    /// against the oracle by the root package's `tests/scheduler.rs` and,
    /// on random seeds, by `tests/proptests.rs`.)
    #[test]
    fn wheel_agrees_with_the_heap_oracle() {
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
            let s = cal.stats();
            assert!(s.cascaded > 0 && s.beyond > 0, "seed {seed}: a tier idle");
        }
    }

    /// Drive a queue through `schedule` and return its counters.
    fn wheel_stats(schedule: Schedule, seed: u64, churn: usize) -> SchedulerStats {
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

    /// The fixed geometry fits the traffic, from a campaign path
    /// simulation's few hundred pending events (a thin near-term mode
    /// under far-future timers, with an idle spell mid-run) through the
    /// dense testbed's 10 000 under its measured horizons to a
    /// 200 000-event hold model: an insert moves at most two elements of
    /// the day being dequeued, an event is dealt down about once, a
    /// percent of inserts at most waits in the heap, and nothing is ever
    /// scheduled below the clock. Counts, so the same on every host.
    #[test]
    fn calendar_stays_tuned_on_a_campaign_shaped_schedule() {
        let cases: [(Schedule, usize); 3] = [
            (campaign_schedule, 364),
            (dense_lab_schedule, DENSE_LAB_BACKLOG),
            (hold_schedule, HOLD_BACKLOG),
        ];
        for (schedule, backlog) in cases {
            for seed in [7u64, 2006, 12345] {
                let s = wheel_stats(schedule, seed, 300_000);
                assert_eq!((s.inserts, s.pops), (300_000 + backlog as u64, 300_000));
                assert!(
                    s.shifted_per_insert() <= 2.0
                        && s.beyond * 100 <= s.inserts
                        && s.cascaded <= s.inserts
                        && s.rebuilds == 0,
                    "backlog {backlog}, seed {seed}: {s:?}"
                );
            }
        }
    }

    /// A drained bucket gives back all but [`KEEP_SLOTS`] of its
    /// allocation: two days of 10 000 events each — one filled while it
    /// is today, one parked a second out and dealt down through its
    /// year's bucket — leave no day or year bucket larger than that.
    #[test]
    fn drained_buckets_keep_a_bounded_capacity() {
        const N: u64 = 10_000;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.schedule(t(N - i), Event::Horizon);
            q.schedule(t(1_000_000_000 + (N - i)), Event::Horizon);
        }
        let largest = |q: &EventQueue| {
            let buckets = q.days.iter().chain(&q.years);
            buckets.map(Vec::capacity).max().unwrap_or(0)
        };
        assert!(largest(&q) >= N as usize);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(tm, _)| tm.as_nanos())
            .collect();
        assert_eq!(times.len(), 2 * N as usize);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(largest(&q) <= KEEP_SLOTS, "{} slots", largest(&q));
    }

    /// An `Arrival` owns its packet, so the queue moves events where it
    /// used to copy them, and a pop leaves an [`Event::Horizon`]
    /// placeholder in the slot it emptied. Every packet scheduled must come
    /// out exactly once, in `(time, seq)` order, and no placeholder ever:
    /// not from an insert that shifts the front of the day down over one,
    /// not past the `release` of a drained day, not through a `rewind`
    /// with a popped prefix in place. Only arrivals go in, so anything
    /// else coming out is a placeholder. (That dropping the queue frees
    /// the packets still in it is counted by the root test
    /// `tests/packet_path.rs`.)
    #[test]
    fn arrivals_come_out_exactly_once_and_placeholders_never() {
        fn arrival(id: u32) -> Event {
            let mut packet = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, 0);
            packet.id = id.into();
            Event::Arrival {
                node: NodeId(1),
                packet,
            }
        }
        fn id_of(event: &Event) -> u32 {
            match event {
                Event::Arrival { packet, .. } => packet.id as u32,
                other => panic!("a placeholder escaped: {other:?}"),
            }
        }

        // The whole queue against the oracle.
        let mut cal = EventQueue::new();
        let mut heap = HeapOracle::new();
        let mut out = Vec::new();
        let mut pop = |cal: &mut EventQueue, heap: &mut HeapOracle| {
            let got = cal.pop().map(|(tm, ev)| (tm.as_nanos(), id_of(&ev)));
            assert_eq!(got, heap.pop());
            out.extend(got.map(|(_, id)| id));
            got
        };
        let mut id = 0u32;
        let mut front_shifts = 0u32;
        let mut schedule = |cal: &mut EventQueue, heap: &mut HeapOracle, at: u64| {
            let head = cal.head;
            cal.schedule(t(at), arrival(id));
            heap.schedule(at, id);
            id += 1;
            front_shifts += u32::from(cal.head + 1 == head);
        };
        let mut now = 0;
        campaign_schedule(2006, 30_000, &mut |op| match op {
            QueueOp::Schedule(at) => {
                schedule(&mut cal, &mut heap, at);
                None
            }
            QueueOp::Pop => {
                now = pop(&mut cal, &mut heap)?.0;
                Some(now)
            }
        });
        // One crowded day: an insert lands anywhere among its live events,
        // below the last one popped included, and shifts the shorter side.
        let day = ((now >> DAY_SHIFT) + 2) << DAY_SHIFT;
        for i in 0..3_000u64 {
            schedule(&mut cal, &mut heap, day + i * 7919 % (1 << DAY_SHIFT));
            if i >= 500 && i % 3 != 0 {
                pop(&mut cal, &mut heap);
            }
        }
        // Below the clock, with a popped prefix in place: a rewind.
        assert!(cal.head > 0, "no popped prefix for `rewind` to skip");
        schedule(&mut cal, &mut heap, 5);
        assert_eq!(cal.stats().rebuilds, 1);
        assert!(front_shifts > 100, "{front_shifts} front shifts");
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

    /// 10^5 events at one instant cost linear time wherever they wait:
    /// in today's bucket each lands behind its predecessors without moving
    /// them (front insertion would have shifted N^2 / 2 elements), and in
    /// a year's bucket they are appended, dealt and sorted in order.
    #[test]
    fn calendar_survives_heavy_same_instant_bursts() {
        const N: u32 = 100_000;
        for instant in [7, 700_000_007] {
            let mut q = EventQueue::new();
            for i in 0..N {
                q.schedule(t(instant), Event::FlowStart { flow: FlowId(i) });
            }
            assert_eq!(q.stats().shifted, 0);
            let mut prev = None;
            let mut n = 0u32;
            while let Some((tm, Event::FlowStart { flow })) = q.pop() {
                assert_eq!(tm, t(instant));
                if let Some(p) = prev {
                    assert!(flow.0 > p, "insertion order violated");
                }
                prev = Some(flow.0);
                n += 1;
            }
            assert_eq!(n, N);
        }
    }
}
