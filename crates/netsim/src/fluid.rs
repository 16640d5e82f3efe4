//! Fluid background-traffic state for the hybrid fluid/packet engine.
//!
//! The mean-field literature (McDonald–Reynier's RED mean-field limit,
//! Lautenschlaeger's weak convergence of TCP bandwidth sharing) shows that
//! the aggregate of many independent background flows through a bottleneck
//! queue converges to a *fluid* process: a piecewise-constant arrival rate
//! whose only events are rate changes. This module models that aggregate as
//! a virtual byte backlog attached to a [`crate::link::Link`]:
//!
//! * background sources push **rate deltas** (ON/OFF toggles) instead of
//!   packets, so only rate-change events enter the calendar queue;
//! * the link integrates the backlog **lazily and exactly** between its own
//!   discrete events (packet arrivals, transmission completions, rate
//!   changes): inflow at the current aggregate rate, drain at the residual
//!   link capacity — zero while a real packet is serializing, full line
//!   rate while the link is idle. Both rates are constant between update
//!   points, so the integral is closed-form with no approximation error;
//! * queue disciplines see the **combined occupancy** `packets +
//!   fluid_backlog / mean_pkt_bytes`, so droptail overflow and RED marking
//!   probabilities respond to background load exactly as they would to the
//!   equivalent packet stream's time-averaged occupancy;
//! * backlog above the buffer's remaining capacity is clipped and counted
//!   as fluid drops — the analogue of tail-dropped background packets.
//!
//! Packets are strictly prioritized over fluid at the transmitter. This is
//! the one modeling approximation (a real FIFO would interleave), and it is
//! why hybrid-mode conformance is gated *statistically* (loss rate,
//! interval distribution, episode statistics, Gilbert fit within testkit
//! tolerance) rather than byte-wise. With no fluid state attached, every
//! code path reduces to the packet-mode arithmetic bit-for-bit.

use crate::time::SimTime;

/// Which representation the background traffic of a scenario uses.
///
/// Threaded through the lab/testbed/path/campaign configs so every figure
/// entry point can run either mode; `Packet` is the default everywhere,
/// keeping golden fixtures byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackgroundMode {
    /// Simulate every background flow packet by packet (the reference
    /// NS-2-style model; bit-exact, expensive).
    #[default]
    Packet,
    /// Replace background flows with the fluid aggregate described in the
    /// [module docs](self); probe and foreground flows stay packet-level.
    Fluid,
}

/// Virtual background backlog attached to a link.
///
/// All byte quantities are `f64`: the fluid model is continuous, and the
/// fractional part matters at the overflow boundary.
#[derive(Clone, Debug)]
pub struct FluidState {
    /// Current aggregate background arrival rate in bits/second.
    pub(crate) rate_bps: f64,
    /// Current virtual backlog in bytes.
    pub(crate) backlog_bytes: f64,
    /// Mean background packet size in bytes; converts the byte backlog to
    /// the packet-denominated occupancy queue disciplines reason in.
    pub(crate) mean_pkt_bytes: f64,
    /// Total fluid bytes that arrived (integrated rate).
    pub arrived_bytes: f64,
    /// Total fluid bytes clipped at the buffer boundary (fluid drops).
    pub(crate) dropped_bytes: f64,
    /// Total fluid bytes drained through the link.
    pub drained_bytes: f64,
    last_update: SimTime,
}

impl FluidState {
    /// Fresh fluid state with zero rate and backlog.
    ///
    /// # Panics
    /// Panics if `mean_pkt_bytes` is not positive and finite.
    pub(crate) fn new(mean_pkt_bytes: f64) -> FluidState {
        assert!(
            mean_pkt_bytes > 0.0 && mean_pkt_bytes.is_finite(),
            "fluid mean_pkt_bytes must be positive and finite, got {mean_pkt_bytes}"
        );
        FluidState {
            rate_bps: 0.0,
            backlog_bytes: 0.0,
            mean_pkt_bytes,
            arrived_bytes: 0.0,
            dropped_bytes: 0.0,
            drained_bytes: 0.0,
            last_update: SimTime::ZERO,
        }
    }

    /// Current backlog expressed in mean-sized packets.
    #[inline]
    pub(crate) fn backlog_pkts(&self) -> f64 {
        self.backlog_bytes / self.mean_pkt_bytes
    }

    /// Integrate the backlog forward to `now`.
    ///
    /// `drain_bps` is the residual capacity available to fluid over the
    /// elapsed interval (zero while a packet serializes, line rate while
    /// idle) and `cap_bytes` the room left in the buffer; both are constant
    /// between update points, so the piecewise-linear trajectory is exact:
    /// the backlog moves at `rate - drain`, saturating at zero from below
    /// (fluid drains no more than arrives) and at `cap_bytes` from above
    /// (the excess is dropped, exactly the integral of the overflow).
    pub(crate) fn advance(&mut self, now: SimTime, drain_bps: f64, cap_bytes: f64) {
        let dt = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if dt > 0.0 {
            let inflow = self.rate_bps / 8.0 * dt;
            let drain_cap = drain_bps / 8.0 * dt;
            self.arrived_bytes += inflow;
            let drained = drain_cap.min(self.backlog_bytes + inflow);
            self.drained_bytes += drained;
            self.backlog_bytes += inflow - drained;
        }
        // Clip to the buffer's remaining room even when no time elapsed:
        // a packet admission may have shrunk `cap_bytes` since last time.
        if self.backlog_bytes > cap_bytes {
            self.dropped_bytes += self.backlog_bytes - cap_bytes;
            self.backlog_bytes = cap_bytes.max(0.0);
        }
    }

    /// Apply a rate change (ON/OFF toggle). The caller must have advanced
    /// the state to the current time first; rates never go below zero
    /// (float drift from paired ± deltas is clamped away).
    pub(crate) fn add_rate(&mut self, delta_bps: f64) {
        self.rate_bps = (self.rate_bps + delta_bps).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn backlog_grows_at_rate_minus_drain() {
        let mut f = FluidState::new(1000.0);
        f.add_rate(8_000_000.0); // 1 MB/s inflow
        f.advance(at(100), 4_000_000.0, 1e12); // 0.5 MB/s drain, 100 ms
        assert!((f.backlog_bytes - 50_000.0).abs() < 1e-6);
        assert!((f.arrived_bytes - 100_000.0).abs() < 1e-6);
        assert!((f.drained_bytes - 50_000.0).abs() < 1e-6);
        assert_eq!(f.dropped_bytes, 0.0);
        assert!((f.backlog_pkts() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn drain_saturates_at_zero_backlog() {
        let mut f = FluidState::new(1000.0);
        f.add_rate(8_000.0); // 1 KB/s
        f.advance(at(1000), 8_000_000.0, 1e12); // vastly faster drain
        assert_eq!(f.backlog_bytes, 0.0);
        // Drained exactly what arrived, not the full drain capacity.
        assert!((f.drained_bytes - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_is_clipped_and_counted() {
        let mut f = FluidState::new(1000.0);
        f.add_rate(8_000_000.0); // 1 MB/s, no drain
        f.advance(at(100), 0.0, 30_000.0); // 100 KB arrives, 30 KB cap
        assert!((f.backlog_bytes - 30_000.0).abs() < 1e-6);
        assert!((f.dropped_bytes - 70_000.0).abs() < 1e-6);
    }

    #[test]
    fn shrinking_cap_clips_without_time_passing() {
        let mut f = FluidState::new(1000.0);
        f.add_rate(8_000_000.0);
        f.advance(at(100), 0.0, 1e12);
        assert!((f.backlog_bytes - 100_000.0).abs() < 1e-6);
        // Same instant, a packet admission halves the room.
        f.advance(at(100), 0.0, 50_000.0);
        assert!((f.backlog_bytes - 50_000.0).abs() < 1e-6);
        assert!((f.dropped_bytes - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn rate_never_goes_negative() {
        let mut f = FluidState::new(1000.0);
        f.add_rate(1e6);
        f.add_rate(-1e6 - 1e-4); // paired toggle with float drift
        assert_eq!(f.rate_bps, 0.0);
    }

    #[test]
    fn conservation_arrived_equals_drained_dropped_backlog() {
        let mut f = FluidState::new(1000.0);
        f.add_rate(80_000_000.0);
        f.advance(at(50), 10_000_000.0, 200_000.0);
        f.add_rate(-40_000_000.0);
        f.advance(at(250), 60_000_000.0, 200_000.0);
        let sum = f.drained_bytes + f.dropped_bytes + f.backlog_bytes;
        assert!(
            (f.arrived_bytes - sum).abs() < 1e-6,
            "arrived {} != drained+dropped+backlog {}",
            f.arrived_bytes,
            sum
        );
    }
}
