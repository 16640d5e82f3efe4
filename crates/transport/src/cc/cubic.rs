//! CUBIC congestion control (RFC 8312).
//!
//! The window grows as a cubic function of the time since the last
//! congestion event,
//!
//! ```text
//! W_cubic(t) = C·(t − K)³ + W_max,   K = ∛(W_max·(1 − β)/C)
//! ```
//!
//! concave below the pre-loss plateau `W_max`, flat around it, then convex
//! while probing beyond — which makes its growth RTT-independent and its
//! plateau sticky. A TCP-friendly estimate keeps it no slower than Reno on
//! short-RTT paths, and *fast convergence* releases bandwidth early when a
//! flow's share is shrinking.

use super::{AckEvent, AckPhase, CcConfig, CongestionEvent, Controller, ControllerFactory};
use lossburst_netsim::time::SimTime;
use std::any::Any;

/// Config (and [`ControllerFactory`]) for CUBIC.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CubicConfig {
    /// The cubic scaling constant `C` (RFC 8312: 0.4).
    pub(crate) c: f64,
    /// Multiplicative decrease factor `β` (RFC 8312: 0.7).
    pub(crate) beta: f64,
    /// Enable fast convergence (shrink `W_max` when losses repeat below
    /// the previous plateau).
    pub(crate) fast_convergence: bool,
}

impl Default for CubicConfig {
    fn default() -> CubicConfig {
        CubicConfig {
            c: 0.4,
            beta: 0.7,
            fast_convergence: true,
        }
    }
}

impl ControllerFactory for CubicConfig {
    fn build(&self, cc: &CcConfig) -> Box<dyn Controller> {
        Box::new(CubicCc::new(*self, cc))
    }
}

/// RFC 8312 CUBIC window law.
#[derive(Clone, Debug)]
pub struct CubicCc {
    cfg: CubicConfig,
    cwnd: f64,
    ssthresh: f64,
    max_cwnd: f64,
    /// Window just before the last reduction (the cubic plateau).
    w_max: f64,
    /// Time from epoch start to the plateau, seconds.
    k: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// RTT assumed for the TCP-friendly estimate until samples exist.
    rtt_secs: f64,
}

impl CubicCc {
    /// A fresh controller seeded from the flow config.
    pub(crate) fn new(cfg: CubicConfig, cc: &CcConfig) -> CubicCc {
        CubicCc {
            cfg,
            cwnd: cc.initial_cwnd,
            ssthresh: cc.initial_ssthresh,
            max_cwnd: cc.max_cwnd,
            w_max: cc.initial_cwnd,
            k: 0.0,
            epoch_start: None,
            rtt_secs: 0.1,
        }
    }

    /// The closed-form cubic window at `t` seconds into the current epoch.
    pub(crate) fn w_cubic(&self, t: f64) -> f64 {
        self.cfg.c * (t - self.k) * (t - self.k) * (t - self.k) + self.w_max
    }

    /// The TCP-friendly (AIMD-equivalent) window at `t` seconds into the
    /// epoch (RFC 8312 §4.2).
    pub(crate) fn w_est(&self, t: f64) -> f64 {
        let b = self.cfg.beta;
        self.w_max * b + 3.0 * (1.0 - b) / (1.0 + b) * (t / self.rtt_secs.max(1e-6))
    }

    /// The current cubic plateau `W_max`, packets.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        // K = cbrt(W_max·(1 − β)/C), zero when starting above the plateau.
        let gap = (self.w_max - self.cwnd).max(0.0);
        self.k = (gap / self.cfg.c).cbrt();
    }

    fn reduce(&mut self) {
        self.epoch_start = None;
        if self.cfg.fast_convergence && self.cwnd < self.w_max {
            // The share is shrinking: release the plateau early so the
            // newcomer converges faster.
            self.w_max = self.cwnd * (2.0 - self.cfg.beta) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * self.cfg.beta).max(2.0);
        self.ssthresh = self.cwnd;
    }
}

impl Controller for CubicCc {
    fn on_ack(&mut self, ev: &AckEvent) {
        if let Some(srtt) = ev.srtt {
            self.rtt_secs = srtt.as_secs_f64();
        }
        if ev.phase != AckPhase::Open {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd = (self.cwnd + 1.0).min(self.max_cwnd); // slow start
            return;
        }
        if self.epoch_start.is_none() {
            self.begin_epoch(ev.now);
        }
        let t = (ev.now - self.epoch_start.unwrap()).as_secs_f64();
        // Aim one RTT ahead, per the RFC's per-ACK target.
        let target = self.w_cubic(t + self.rtt_secs);
        let friendly = self.w_est(t);
        if self.w_cubic(t) < friendly {
            // TCP-friendly region: never slower than AIMD.
            self.cwnd = friendly;
        } else if target > self.cwnd {
            self.cwnd += (target - self.cwnd) / self.cwnd;
        } else {
            // At or beyond target: probe very gently (RFC 8312 §4.4).
            self.cwnd += 0.01 / self.cwnd;
        }
        self.cwnd = self.cwnd.min(self.max_cwnd);
    }

    fn on_congestion_event(&mut self, _ev: &CongestionEvent) {
        self.reduce();
    }

    fn on_rto(&mut self, _now: SimTime, _flight: f64, in_recovery: bool) {
        if !in_recovery {
            self.reduce();
        }
        self.epoch_start = None;
        self.cwnd = 1.0;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "cubic"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CongestionKind;
    use lossburst_netsim::time::SimDuration;

    fn ack_at(now: SimTime, srtt_ms: u64) -> AckEvent {
        AckEvent {
            now,
            newly_acked: 1,
            rtt_sample: Some(SimDuration::from_millis(srtt_ms)),
            srtt: Some(SimDuration::from_millis(srtt_ms)),
            min_rtt: Some(SimDuration::from_millis(srtt_ms)),
            flight: 50,
            delivered: 1,
            delivery_rate: None,
            phase: AckPhase::Open,
        }
    }

    /// Drive the controller ack-by-ack and check the realized window tracks
    /// the RFC 8312 closed form W(t) = C(t−K)³ + W_max.
    #[test]
    fn window_growth_tracks_rfc8312_closed_form() {
        let mut c = CubicCc::new(CubicConfig::default(), &CcConfig::default());
        // Establish a plateau at 100 packets, then back off.
        c.cwnd = 100.0;
        c.ssthresh = 50.0; // force congestion avoidance
        c.reduce();
        assert!((c.w_max() - 100.0).abs() < 1e-12);
        assert!((c.cwnd - 70.0).abs() < 1e-12, "β = 0.7 reduction");

        // K = cbrt(W_max(1−β)/C) = cbrt(100·0.3/0.4) = cbrt(75) ≈ 4.217 s.
        // A long RTT keeps the TCP-friendly estimate (which grows ~1 packet
        // per RTT) far below the cubic curve, so the run exercises the pure
        // RFC 8312 window shape.
        let mut now = SimTime::ZERO;
        c.on_ack(&ack_at(now, 500)); // starts the epoch
        let expected_k = (100.0 * 0.3 / 0.4f64).cbrt();
        assert!(
            (c.k - expected_k).abs() < 1e-9,
            "K = {} expected {expected_k}",
            c.k
        );

        // Ack-clock it forward (one ACK per 10 ms); at each point the
        // realized cwnd must stay close to the closed form (it aims one RTT
        // ahead and moves 1/cwnd of the gap per ACK, so allow modest slack).
        for step in 1..=600u64 {
            now = SimTime::ZERO + SimDuration::from_secs_f64(step as f64 * 0.01);
            c.on_ack(&ack_at(now, 500));
        }
        let t = (now - SimTime::ZERO).as_secs_f64();
        let closed = c.w_cubic(t);
        let err = (c.window() - closed).abs() / closed;
        assert!(
            err < 0.10,
            "cwnd {} vs closed-form {closed} at t={t} (err {err:.3})",
            c.window()
        );
        // At t = K the closed form returns exactly the plateau.
        assert!((c.w_cubic(c.k) - c.w_max()).abs() < 1e-9);
        // And the plateau was genuinely crossed by the end of the run.
        assert!(c.window() > c.w_max(), "convex probing beyond W_max");
    }

    #[test]
    fn fast_convergence_shrinks_the_plateau_on_repeat_loss() {
        let mut c = CubicCc::new(CubicConfig::default(), &CcConfig::default());
        c.cwnd = 100.0;
        c.ssthresh = 50.0;
        c.reduce(); // w_max = 100, cwnd = 70
        c.reduce(); // cwnd (70) < w_max (100): fast convergence path
        assert!(
            (c.w_max() - 70.0 * (2.0 - 0.7) / 2.0).abs() < 1e-12,
            "w_max {} should shrink below the last cwnd",
            c.w_max()
        );

        let mut plain = CubicCc::new(
            CubicConfig {
                fast_convergence: false,
                ..CubicConfig::default()
            },
            &CcConfig::default(),
        );
        plain.cwnd = 100.0;
        plain.ssthresh = 50.0;
        plain.reduce();
        plain.reduce();
        assert!((plain.w_max() - 70.0).abs() < 1e-12, "no shrink when off");
    }

    #[test]
    fn backs_off_on_congestion_and_collapses_on_rto() {
        let mut c = CubicCc::new(CubicConfig::default(), &CcConfig::default());
        c.cwnd = 40.0;
        c.ssthresh = 20.0;
        c.on_congestion_event(&CongestionEvent {
            now: SimTime::ZERO,
            kind: CongestionKind::DupAck,
            flight: 40.0,
        });
        assert!((c.window() - 28.0).abs() < 1e-12);
        c.on_rto(SimTime::ZERO, 10.0, false);
        assert_eq!(c.window(), 1.0);
        assert!(c.ssthresh() < 28.0, "RTO re-halves outside recovery");
    }
}
