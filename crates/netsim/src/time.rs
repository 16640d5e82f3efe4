//! Simulation time.
//!
//! Time is represented as an integer number of nanoseconds since the start of
//! the simulation. Integer time gives the simulator a total order on events
//! with no floating-point comparison hazards, which is what makes replays
//! deterministic: two runs with the same seed produce bit-identical traces.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled here.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Quantize this instant down to a multiple of `tick` (used by the
    /// emulation substrate to model coarse operating-system clocks).
    #[inline]
    pub fn quantize(self, tick: SimDuration) -> SimTime {
        if tick.0 == 0 {
            self
        } else {
            SimTime(self.0 - self.0 % tick.0)
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds, saturating at `u64::MAX` nanoseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds, saturating at `u64::MAX` nanoseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds, saturating at `u64::MAX` nanoseconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds. Negative or non-finite inputs
    /// are clamped to zero; this keeps protocol arithmetic (for example a
    /// rate computation that briefly divides by zero) from poisoning the
    /// event queue.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration(0);
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Multiply by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor (clamped to be non-negative).
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Div for SimDuration {
    /// Ratio of two durations.
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0.max(1) as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_add_duration() {
        let t = SimTime::from_nanos(100);
        assert_eq!((t + SimDuration::from_nanos(50)).as_nanos(), 150);
    }

    #[test]
    fn time_difference_saturates() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(400);
        assert_eq!((b - a).as_nanos(), 300);
        assert_eq!((a - b).as_nanos(), 0, "negative spans clamp to zero");
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.001).as_nanos(), 1_000_000);
    }

    #[test]
    fn integer_constructors_saturate_at_the_boundary() {
        // Largest inputs that still fit in u64 nanoseconds…
        assert_eq!(
            SimDuration::from_micros(u64::MAX / 1_000).as_nanos(),
            (u64::MAX / 1_000) * 1_000
        );
        assert_eq!(
            SimDuration::from_millis(u64::MAX / 1_000_000).as_nanos(),
            (u64::MAX / 1_000_000) * 1_000_000
        );
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000_000_000).as_nanos(),
            (u64::MAX / 1_000_000_000) * 1_000_000_000
        );
        // …and one past them saturates instead of overflowing (panic in
        // debug, silent wrap in release — both violated the documented
        // saturating semantics before).
        assert_eq!(
            SimDuration::from_micros(u64::MAX / 1_000 + 1),
            SimDuration::from_nanos(u64::MAX)
        );
        assert_eq!(
            SimDuration::from_millis(u64::MAX / 1_000_000 + 1),
            SimDuration::from_nanos(u64::MAX)
        );
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000_000_000 + 1),
            SimDuration::from_nanos(u64::MAX)
        );
        assert_eq!(
            SimDuration::from_secs(u64::MAX),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn quantize_floors_to_tick() {
        let tick = SimDuration::from_millis(1);
        let t = SimTime::from_nanos(2_700_000);
        assert_eq!(t.quantize(tick).as_nanos(), 2_000_000);
        // A zero tick is the identity (infinite clock resolution).
        assert_eq!(t.quantize(SimDuration::ZERO), t);
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(40);
        assert!((a / b - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(50));
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
    }
}
