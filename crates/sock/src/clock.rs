//! Monotonic clock adapter.
//!
//! The transport state machines keep time as [`SimTime`] (integer
//! nanoseconds from an arbitrary zero). In simulation that zero is the
//! run's start; on the socket lane it is the instant `lane::run` started.
//! [`MonoClock`] pins an [`Instant`] at construction and converts every
//! later reading into the same nanosecond timeline, so RTO backoff,
//! pacing intervals, and BBR's update clock run against real elapsed time
//! without the transports knowing the difference.

use lossburst_netsim::time::SimTime;
use std::time::Instant;

/// Wall-free monotonic clock anchored at its construction instant.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    /// A clock whose [`SimTime::ZERO`] is now.
    pub(crate) fn start() -> MonoClock {
        MonoClock {
            epoch: Instant::now(),
        }
    }

    /// Current time on the lane's timeline.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clock_is_monotonic_and_anchored() {
        let c = MonoClock::start();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a, "time went backwards: {a:?} -> {b:?}");
        assert!(b.as_nanos() >= 2_000_000, "slept 2 ms, read {b:?}");
    }
}
