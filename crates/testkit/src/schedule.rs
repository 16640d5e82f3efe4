//! Scheduler workloads shaped like the simulations the campaigns run, as
//! plain data: a driver feeds [`QueueOp`]s to whatever queue (or pair of
//! queues) it holds, so `netsim`'s unit tests and its integration tests
//! exercise the one population — and [`HeapOracle`], the reference queue
//! they compare `netsim`'s event queue against.

use crate::sweep::{with_rng, RngExt};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference future-event list: a binary heap over `(time_ns,
/// insertion seq, id)`. An event queue's contract is that total order, so
/// its pop sequence is a pure function of its operation sequence, and
/// driving this model with the same operations predicts every pop. Plain
/// integers, because `netsim`'s own unit tests use it.
#[derive(Default)]
pub struct HeapOracle {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
}

impl HeapOracle {
    /// An empty queue.
    pub fn new() -> HeapOracle {
        HeapOracle::default()
    }

    /// Schedule event `id` at `at` nanoseconds.
    pub fn schedule(&mut self, at: u64, id: u32) {
        self.heap.push(Reverse((at, self.next_seq, id)));
        self.next_seq += 1;
    }

    /// Remove the earliest event: `(time_ns, id)`.
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        self.pop_before(u64::MAX)
    }

    /// Remove the earliest event if it is due at or before `horizon`.
    pub fn pop_before(&mut self, horizon: u64) -> Option<(u64, u32)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.heap.pop().map(|Reverse((at, _, id))| (at, id))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One step of a schedule. Times are absolute nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// Schedule an event at this instant.
    Schedule(u64),
    /// Dequeue the earliest event and report its time.
    Pop,
}

/// Performs one [`QueueOp`] on the queue under test; returns the popped
/// time for [`QueueOp::Pop`] (`None` once empty), anything for a `Schedule`.
pub(crate) type Apply<'a> = &'a mut dyn FnMut(QueueOp) -> Option<u64>;

/// A schedule generator: `(seed, churn, apply)`.
pub type Schedule = fn(u64, usize, Apply);

/// Every schedule here, for differentials that should hold on all of them.
pub const SCHEDULES: [Schedule; 4] = [
    campaign_schedule,
    far_cluster_schedule,
    hold_schedule,
    dense_lab_schedule,
];

/// The pending set of one campaign path simulation, as a hold model.
///
/// A block of far-future events goes in first (the short-flow
/// `FlowStart`s a probe run schedules at build time), then `churn`
/// pop-and-reschedule steps whose horizons are 70 % under 100 µs
/// (serialization, propagation), 20 % 1–10 ms (RTT-scale) and 10 %
/// 0.1–1 s (RTO timers, which lazy cancellation leaves behind) — so most
/// of the few hundred pending events are far-future while nearly every
/// dequeue comes from a thin near-term mode. The middle third of the run
/// is an idle spell (nothing under 1 ms), a dense → sparse → dense
/// regime change a calendar sized once would not survive.
pub fn campaign_schedule(seed: u64, churn: usize, apply: Apply) {
    with_rng(seed, |gen| {
        for _ in 0..300 {
            apply(QueueOp::Schedule(
                gen.random_range(100_000_000..30_000_000_000u64),
            ));
        }
        for _ in 0..64 {
            apply(QueueOp::Schedule(gen.random_range(0..100_000u64)));
        }
        for step in 0..churn {
            let now = apply(QueueOp::Pop).expect("a hold model never drains");
            let idle = (churn / 3..2 * churn / 3).contains(&step);
            let delta = match gen.random_range(0..10u32) {
                0..=6 if !idle => gen.random_range(0..100_000u64),
                0..=8 => gen.random_range(1_000_000..10_000_000u64),
                _ => gen.random_range(100_000_000..1_000_000_000u64),
            };
            apply(QueueOp::Schedule(now + delta));
        }
    })
}

/// A pending set no single day width can serve: half of the reschedules
/// form a well-separated head (1–64 ms out), the other half pile into one
/// 64 µs window per simulated second, ten seconds out, in random order.
/// Every insert into the far window lies beyond a one-second timing
/// wheel, so it waits in the overflow heap and is dealt down twice — and
/// when the window reaches the head ten seconds later its events come
/// due within eight 8 µs days of each other.
pub(crate) fn far_cluster_schedule(seed: u64, churn: usize, apply: Apply) {
    const SECOND: u64 = 1_000_000_000;
    with_rng(seed, |gen| {
        for _ in 0..4_000 {
            apply(QueueOp::Schedule(gen.random_range(0..10 * SECOND)));
        }
        for _ in 0..churn {
            let now = apply(QueueOp::Pop).expect("a hold model never drains");
            let at = if gen.random() {
                now + gen.random_range(1_000_000..64_000_000u64)
            } else {
                (now / SECOND + 10) * SECOND + gen.random_range(0..64_000u64)
            };
            apply(QueueOp::Schedule(at));
        }
    })
}

/// Events [`hold_schedule`] keeps pending.
pub const HOLD_BACKLOG: usize = 200_000;

/// One stationary hold model under a deep backlog: [`HOLD_BACKLOG`] events
/// spread over the first 10 ms, then `churn` pop-and-reschedule steps with
/// [`campaign_schedule`]'s mix of horizons (70 % under 100 µs, 20 %
/// 1–10 ms, 10 % 0.1–1 s) and no regime change. Deep where the campaign
/// schedule is shallow: the dense testbeds' pending set, and further.
pub fn hold_schedule(seed: u64, churn: usize, apply: Apply) {
    with_rng(seed, |gen| {
        for _ in 0..HOLD_BACKLOG {
            apply(QueueOp::Schedule(gen.random_range(0..10_000_000u64)));
        }
        for _ in 0..churn {
            let now = apply(QueueOp::Pop).expect("a hold model never drains");
            let delta = match gen.random_range(0..10u32) {
                0..=6 => gen.random_range(0..100_000u64),
                7 | 8 => gen.random_range(1_000_000..11_000_000u64),
                _ => gen.random_range(100_000_000..1_100_000_000u64),
            };
            apply(QueueOp::Schedule(now + delta));
        }
    })
}

/// Events [`dense_lab_schedule`] keeps pending.
pub const DENSE_LAB_BACKLOG: usize = 10_000;

/// The pending set of the dense testbed (`lab_dense`: 1 024 TCP pairs +
/// 1 024 noise flows), as a hold model: [`DENSE_LAB_BACKLOG`] events
/// spread over the first second, then `churn` pop-and-reschedule steps
/// under the insert horizons measured on that run (DESIGN.md §3) — 44 %
/// under 16 µs, 28 % from there to 4 ms, 27.5 % to 1 s and 0.5 % beyond,
/// log-uniform within each band as the measured histogram roughly is. A
/// pop advances the clock by about 7 µs, as the testbed's does (7.5 µs),
/// so the backlog is a second's worth of RTT- and RTO-scale timers over a
/// head of about one event per 8 µs. Between [`campaign_schedule`]'s 364
/// pending events and [`hold_schedule`]'s 200 000.
pub fn dense_lab_schedule(seed: u64, churn: usize, apply: Apply) {
    with_rng(seed, |gen| {
        for _ in 0..DENSE_LAB_BACKLOG {
            apply(QueueOp::Schedule(gen.random_range(0..1u64 << 30)));
        }
        for _ in 0..churn {
            let now = apply(QueueOp::Pop).expect("a hold model never drains");
            let octave = match gen.random_range(0..1000u32) {
                0..=439 => None,
                440..=719 => Some(gen.random_range(14..22u32)),
                720..=994 => Some(gen.random_range(22..30u32)),
                _ => Some(gen.random_range(30..32u32)),
            };
            let delta = match octave {
                None => gen.random_range(0..1u64 << 14),
                Some(k) => gen.random_range(1u64 << k..2 << k),
            };
            apply(QueueOp::Schedule(now + delta));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops, peak population and final clock of a schedule run on a heap.
    fn run(schedule: Schedule, churn: usize) -> (usize, usize, u64) {
        let mut heap = HeapOracle::new();
        let (mut pops, mut peak, mut clock) = (0, 0, 0);
        schedule(7, churn, &mut |op| match op {
            QueueOp::Schedule(at) => {
                heap.schedule(at, 0);
                peak = peak.max(heap.len());
                None
            }
            QueueOp::Pop => {
                let (at, _) = heap.pop()?;
                assert!(at >= clock, "scheduled into the past");
                (pops, clock) = (pops + 1, at);
                Some(at)
            }
        });
        (pops, peak, clock)
    }

    #[test]
    fn oracle_pops_by_time_then_insertion_and_respects_horizons() {
        let mut q = HeapOracle::new();
        for (id, at) in [30, 10, 10, 20].into_iter().enumerate() {
            q.schedule(at, id as u32);
        }
        assert_eq!((q.len(), q.peek_time()), (4, Some(10)));
        assert_eq!(q.pop_before(9), None);
        assert_eq!(q.pop_before(10), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop_before(25), Some((20, 3)));
        assert_eq!(q.pop_before(25), None);
        assert_eq!(q.pop(), Some((30, 0)));
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn campaign_schedule_holds_a_few_hundred_events() {
        let (pops, peak, _) = run(campaign_schedule, 10_000);
        assert_eq!((pops, peak), (10_000, 364));
    }

    #[test]
    fn hold_schedules_hold_their_backlog() {
        let (pops, peak, _) = run(hold_schedule, 10_000);
        assert_eq!((pops, peak), (10_000, HOLD_BACKLOG));
        // The dense lab's clock moves 5-10 µs a pop, like the testbed's.
        let (pops, peak, clock) = run(dense_lab_schedule, 100_000);
        assert_eq!((pops, peak), (100_000, DENSE_LAB_BACKLOG));
        assert!(
            (500_000_000..1_000_000_000).contains(&clock),
            "clock {clock}"
        );
    }

    #[test]
    fn far_cluster_schedule_runs_into_its_own_clusters() {
        let (pops, peak, clock) = run(far_cluster_schedule, 40_000);
        assert_eq!((pops, peak), (40_000, 4_000));
        assert!(
            clock > 20_000_000_000,
            "clock {clock} never reached a cluster"
        );
    }
}
