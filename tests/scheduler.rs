//! The event queue against its oracle, in tier-1. `EventQueue` is a timing
//! wheel that keeps order only where the clock is; its contract is the pop
//! order of a plain binary heap over `(time, seq)`, so every test here
//! performs each operation on both and compares what comes back.

use lossburst::netsim::event::{Event, EventQueue};
use lossburst::netsim::prelude::*;
use lossburst_testkit::schedule::{HeapOracle, QueueOp, SCHEDULES};

/// The wheel's geometry (`crates/netsim/src/event.rs`): 8.192 µs days, 512
/// of them to a year, 256 year buckets, a heap beyond. `pair` checks these
/// against `stats()`, so a change of geometry fails here until the edges
/// below are moved with it.
const DAY: u64 = 1 << 13;
const YEAR: u64 = 512 * DAY;
const REACH: u64 = 256 * YEAR;

/// A queue and its oracle, driven together; every result is compared.
struct Pair {
    queue: EventQueue,
    oracle: HeapOracle,
    scheduled: u32,
}

fn pair() -> Pair {
    let queue = EventQueue::new();
    let s = queue.stats();
    assert_eq!((s.day_ns, s.buckets), (DAY, 512 + 256), "edges need moving");
    Pair {
        queue,
        oracle: HeapOracle::new(),
        scheduled: 0,
    }
}

impl Pair {
    fn schedule(&mut self, at: u64) {
        let flow = FlowId(self.scheduled);
        self.queue
            .schedule(SimTime::from_nanos(at), Event::FlowStart { flow });
        self.oracle.schedule(at, self.scheduled);
        self.scheduled += 1;
        self.agree();
    }

    fn schedule_all(&mut self, times: &[u64]) {
        for &at in times {
            self.schedule(at);
        }
    }

    /// The earliest event due by `horizon`, as `(time, id)`.
    fn pop_before(&mut self, horizon: u64) -> Option<(u64, u32)> {
        let got = match self.queue.pop_before(SimTime::from_nanos(horizon)) {
            Some((at, Event::FlowStart { flow })) => Some((at.as_nanos(), flow.0)),
            Some((_, other)) => panic!("never scheduled: {other:?}"),
            None => None,
        };
        assert_eq!(got, self.oracle.pop_before(horizon), "horizon {horizon}");
        self.agree();
        got
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        self.pop_before(u64::MAX)
    }

    /// Pop everything, returning the times.
    fn drain(&mut self) -> Vec<u64> {
        std::iter::from_fn(|| self.pop())
            .map(|(at, _)| at)
            .collect()
    }

    fn agree(&self) {
        assert_eq!(self.queue.len(), self.oracle.len());
        assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
        let peeked = self.queue.peek_time().map(SimTime::as_nanos);
        assert_eq!(peeked, self.oracle.peek_time());
    }

    fn rebuilds(&self) -> u64 {
        self.queue.stats().rebuilds
    }
}

/// `EventQueue` ≡ `HeapOracle`, operation for operation, on every
/// schedule `testkit` has: the campaign path's few hundred pending events
/// with an idle spell, the far clusters ten seconds out, the 200 000-event
/// hold model and the dense testbed's measured horizons.
#[test]
fn event_queue_matches_the_heap_oracle_on_every_schedule() {
    for schedule in SCHEDULES {
        let mut p = pair();
        schedule(2006, 40_000, &mut |op| match op {
            QueueOp::Schedule(at) => {
                p.schedule(at);
                None
            }
            QueueOp::Pop => p.pop().map(|(at, _)| at),
        });
        let rest = p.drain();
        assert!(!rest.is_empty() && rest.windows(2).all(|w| w[0] <= w[1]));
        let s = p.queue.stats();
        assert!(s.cascaded > 0 && s.beyond > 0, "a tier sat idle: {s:?}");
        assert_eq!(s.rebuilds, 0);
    }
}

/// The edges a wheel has and a heap has not.
#[test]
fn event_queue_matches_the_heap_oracle_at_the_wheel_edges() {
    // Either side of a day boundary, out of order and with ties: a later
    // day is an unsorted bucket until the clock enters it.
    let mut p = pair();
    p.schedule_all(&[2 * DAY, 2 * DAY - 1, DAY + 1, DAY, DAY, DAY - 1, 3, DAY]);
    assert_eq!(p.pop(), Some((3, 6)));
    // Into the day being dequeued: before, among and after what is live.
    p.schedule_all(&[DAY - 2, DAY - 1, 5, 4, DAY - 1]);
    assert_eq!(p.drain().len(), 12);

    // Either side of a year boundary: a later year is dealt into its days
    // only when the clock gets there.
    let mut p = pair();
    p.schedule_all(&[2 * YEAR, YEAR + 1, 2 * YEAR - 1, YEAR, YEAR - 1, YEAR, 7]);
    assert_eq!(p.pop_before(YEAR - 1).map(|(at, _)| at), Some(7));
    assert_eq!(p.pop_before(YEAR - 1).map(|(at, _)| at), Some(YEAR - 1));
    assert_eq!(p.pop_before(YEAR - 1), None);
    p.schedule_all(&[YEAR - 1, YEAR + 2]);
    assert_eq!(p.drain().len(), 7);
    // ... and where the year wheel wraps: from year 250, year 260 sits in
    // a lower slot than year 251.
    p.schedule_all(&[300 * YEAR, 260 * YEAR, 250 * YEAR + 1, 260 * YEAR - 1]);
    assert_eq!(p.pop().map(|(at, _)| at), Some(250 * YEAR + 1));
    p.schedule(505 * YEAR);
    assert_eq!(p.drain().len(), 4);

    // Either side of the year wheel's reach. Seen from year 0 the last
    // instant of year 255 is inside and year 256 is beyond; once the clock
    // is in year 1, year 256 is inside, and what went to the heap for it
    // has to come out ahead of what is scheduled for it now.
    let mut p = pair();
    p.schedule_all(&[REACH, REACH - 1]);
    assert_eq!(p.queue.stats().beyond, 1);
    assert_eq!(p.drain(), [REACH - 1, REACH]);
    let mut p = pair();
    p.schedule_all(&[REACH + 9, REACH, REACH + YEAR, YEAR + 5]);
    assert_eq!(p.queue.stats().beyond, 3);
    assert_eq!(p.pop().map(|(at, _)| at), Some(YEAR + 5));
    p.schedule_all(&[REACH + 4, REACH + YEAR - 1, REACH + YEAR + 1, REACH + 9]);
    assert_eq!(p.queue.stats().beyond, 4);
    let order: Vec<u32> = std::iter::from_fn(|| p.pop()).map(|(_, id)| id).collect();
    assert_eq!(order, [1, 4, 0, 7, 5, 2, 6]);

    // A year entered through the heap, both wheels empty: a miss short of
    // it must leave the clock where the caller's next event still fits.
    let mut p = pair();
    let far = 10 * REACH;
    p.schedule_all(&[far + 3 * YEAR, far + DAY + 1, far + DAY, far + 2]);
    assert_eq!(p.pop_before(far - 1), None);
    p.schedule(far - 1);
    assert_eq!(p.pop_before(far - 1), Some((far - 1, 4)));
    assert_eq!(p.pop_before(far + 1), None);
    assert_eq!(p.pop_before(far + DAY), Some((far + 2, 3)));
    assert_eq!(p.drain(), [far + DAY, far + DAY + 1, far + 3 * YEAR]);
    assert_eq!(p.rebuilds(), 0);

    // The end of time, beside something near.
    let mut p = pair();
    p.schedule_all(&[u64::MAX, u64::MAX - 1, 1, u64::MAX]);
    assert_eq!(p.pop_before(u64::MAX - 2), Some((1, 2)));
    assert_eq!(p.pop_before(u64::MAX - 2), None);
    assert_eq!(p.drain(), [u64::MAX - 1, u64::MAX, u64::MAX]);

    // A bounded miss, then a nearer event: `run_until` and
    // `fire_timers_until` schedule at the horizon they just polled, with
    // the next event a later day of this year, a later year, or in the
    // horizon's own year but past it.
    let mut p = pair();
    p.schedule_all(&[40 * DAY, 3 * YEAR + 9 * DAY, 200 * YEAR]);
    for horizon in [DAY + 1, 2 * DAY, YEAR + 7, 3 * YEAR + 2, 3 * YEAR + 8 * DAY] {
        while p.pop_before(horizon).is_some() {}
        p.schedule(horizon);
        p.schedule(horizon + 1);
        assert_eq!(p.pop_before(horizon).map(|(at, _)| at), Some(horizon));
    }
    assert_eq!(p.drain().len(), 3);
    assert_eq!(p.rebuilds(), 0, "a miss moved the clock past its horizon");

    // Below the clock, which no simulation asks for: still the oracle's
    // order, at the price of placing the pending set again.
    let mut p = pair();
    p.schedule_all(&[REACH + 5, 3 * YEAR, YEAR + DAY, YEAR + 2]);
    assert_eq!(p.pop().map(|(at, _)| at), Some(YEAR + 2));
    p.schedule_all(&[YEAR + 1, DAY, 2 * YEAR]);
    assert_eq!(p.rebuilds(), 1);
    let rest = [DAY, YEAR + 1, YEAR + DAY, 2 * YEAR, 3 * YEAR, REACH + 5];
    assert_eq!(p.drain(), rest);
}
