//! FAST-style delay-based congestion control.
//!
//! Once per RTT the window moves toward the fixed point of
//!
//! ```text
//! w ← (1 − γ)·w + γ·(baseRTT/RTT · w + α)
//! ```
//!
//! which stabilises with roughly `α` packets queued at the bottleneck. The
//! controller reads queueing delay, not loss, so under the paper's bursty
//! loss episodes it backs off as queues build *before* drops cluster — the
//! delay-based point on the window-vs-rate axis.

use super::{AckEvent, CcConfig, CongestionEvent, Controller, ControllerFactory};
use lossburst_netsim::time::{SimDuration, SimTime};
use std::any::Any;

/// Config (and [`ControllerFactory`]) for FAST.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FastConfig {
    /// Target number of packets queued at the bottleneck.
    pub(crate) alpha: f64,
    /// Smoothing gain `γ` of the per-RTT update.
    pub(crate) gamma: f64,
}

impl Default for FastConfig {
    fn default() -> FastConfig {
        FastConfig {
            alpha: 20.0,
            gamma: 0.5,
        }
    }
}

impl ControllerFactory for FastConfig {
    fn build(&self, cc: &CcConfig) -> Box<dyn Controller> {
        Box::new(FastCc::new(*self, cc))
    }
}

/// FAST window law: periodic delay-driven multiplicative smoothing.
#[derive(Clone, Debug)]
pub(crate) struct FastCc {
    cfg: FastConfig,
    cwnd: f64,
    initial_cwnd: f64,
    max_cwnd: f64,
    last_rtt: Option<SimDuration>,
    base_rtt: Option<SimDuration>,
    srtt: Option<SimDuration>,
}

impl FastCc {
    /// A fresh controller seeded from the flow config.
    pub(crate) fn new(cfg: FastConfig, cc: &CcConfig) -> FastCc {
        FastCc {
            cfg,
            cwnd: cc.initial_cwnd,
            initial_cwnd: cc.initial_cwnd,
            max_cwnd: cc.max_cwnd,
            last_rtt: None,
            base_rtt: None,
            srtt: None,
        }
    }
}

impl Controller for FastCc {
    fn on_ack(&mut self, ev: &AckEvent) {
        // Delay-based: absorb the RTT sample whatever the phase; growth
        // happens only on the periodic update tick.
        if let Some(rtt) = ev.rtt_sample {
            self.last_rtt = Some(rtt);
            if self.base_rtt.is_none() || Some(rtt) < self.base_rtt {
                self.base_rtt = Some(rtt);
            }
        }
        if ev.srtt.is_some() {
            self.srtt = ev.srtt;
        }
    }

    fn on_congestion_event(&mut self, _ev: &CongestionEvent) {
        self.cwnd = (self.cwnd / 2.0).max(self.initial_cwnd);
    }

    fn on_rto(&mut self, _now: SimTime, _flight: f64, _in_recovery: bool) {
        self.cwnd = self.initial_cwnd;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn update_interval(&self) -> Option<SimDuration> {
        Some(self.srtt.unwrap_or(SimDuration::from_millis(100)))
    }

    fn on_update(&mut self, _now: SimTime) {
        let (Some(base), Some(last)) = (self.base_rtt, self.last_rtt) else {
            return; // no samples yet: hold the window
        };
        let ratio = base.as_secs_f64() / last.as_secs_f64().max(1e-9);
        let target = ratio * self.cwnd + self.cfg.alpha;
        let g = self.cfg.gamma;
        self.cwnd = ((1.0 - g) * self.cwnd + g * target).clamp(self.initial_cwnd, self.max_cwnd);
    }

    fn name(&self) -> &'static str {
        "fast"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::AckPhase;

    fn ack_with_rtt(ms: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO + SimDuration::from_millis(ms),
            newly_acked: 1,
            rtt_sample: Some(SimDuration::from_millis(ms)),
            srtt: Some(SimDuration::from_millis(ms)),
            min_rtt: None,
            flight: 10,
            delivered: 1,
            delivery_rate: None,
            phase: AckPhase::Open,
        }
    }

    #[test]
    fn converges_toward_alpha_queued_packets() {
        let mut f = FastCc::new(FastConfig::default(), &CcConfig::default());
        f.on_ack(&ack_with_rtt(40)); // base
                                     // Queueing doubles the RTT: the fixed point is w with
                                     // base/last·w + α = w  ⇒  w = α/(1 − base/last) = 40.
        f.last_rtt = Some(SimDuration::from_millis(80));
        for _ in 0..64 {
            f.on_update(SimTime::ZERO);
        }
        assert!(
            (f.window() - 40.0).abs() < 1e-6,
            "fixed point α/(1−base/RTT), got {}",
            f.window()
        );
    }

    #[test]
    fn no_growth_without_samples_and_resets_on_rto() {
        let mut f = FastCc::new(FastConfig::default(), &CcConfig::default());
        let w0 = f.window();
        f.on_update(SimTime::ZERO);
        assert_eq!(f.window(), w0, "no samples: hold");
        f.on_ack(&ack_with_rtt(40));
        f.on_update(SimTime::ZERO);
        assert!(f.window() > w0, "equal base/last grows by γ·α");
        f.on_rto(SimTime::ZERO, 5.0, false);
        assert_eq!(f.window(), w0);
    }
}
