//! The loss-based AIMD family: Tahoe, Reno/NewReno, and the SACK sender's
//! plain-halving response, as one controller parameterised by its
//! loss response.
//!
//! Every float operation here is a line-for-line transliteration of the
//! pre-refactor `Tcp`/`SackTcp` window arithmetic: the golden fixtures pin
//! the refactor to byte-identical traces, so the order of operations is
//! load-bearing.

use super::{AckEvent, AckPhase, CcConfig, CongestionEvent, Controller, ControllerFactory};
use lossburst_netsim::time::SimTime;
use std::any::Any;

/// How the window responds to a dupack-detected loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LossResponse {
    /// Reno/NewReno fast recovery: `cwnd = ssthresh + 3` (the three dupacks
    /// that triggered detection have left the network).
    HalvePlus3,
    /// RFC 6675 SACK: `cwnd = ssthresh`, no inflation — the scoreboard's
    /// pipe estimate already discounts delivered segments.
    Halve,
    /// Tahoe: collapse to one packet and slow-start again.
    CollapseToOne,
}

/// Config (and [`ControllerFactory`]) for the Reno family.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RenoConfig {
    /// Dupack loss response.
    pub(crate) response: LossResponse,
}

impl RenoConfig {
    /// NewReno / classic-Reno response (go-back-N repair).
    pub(crate) fn newreno() -> RenoConfig {
        RenoConfig {
            response: LossResponse::HalvePlus3,
        }
    }

    /// SACK response (scoreboard repair).
    pub(crate) fn sack() -> RenoConfig {
        RenoConfig {
            response: LossResponse::Halve,
        }
    }
}

impl Default for RenoConfig {
    fn default() -> RenoConfig {
        RenoConfig::newreno()
    }
}

impl ControllerFactory for RenoConfig {
    fn build(&self, cc: &CcConfig) -> Box<dyn Controller> {
        Box::new(RenoCc::new(*self, cc))
    }
}

/// AIMD window law with a pluggable loss response.
#[derive(Clone, Debug)]
pub(crate) struct RenoCc {
    cfg: RenoConfig,
    cwnd: f64,
    ssthresh: f64,
    max_cwnd: f64,
}

impl RenoCc {
    /// A fresh controller seeded from the flow config.
    pub(crate) fn new(cfg: RenoConfig, cc: &CcConfig) -> RenoCc {
        RenoCc {
            cfg,
            cwnd: cc.initial_cwnd,
            ssthresh: cc.initial_ssthresh,
            max_cwnd: cc.max_cwnd,
        }
    }
}

impl Controller for RenoCc {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.phase != AckPhase::Open {
            return; // recovery ACKs are handled by the recovery hooks
        }
        // Classic packet-counting increments (NS-2 style): one unit per
        // ACK, not per acknowledged packet — a jump ACK must not rebuild a
        // whole window at once.
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0; // slow start
        } else {
            self.cwnd += 1.0 / self.cwnd; // congestion avoidance
        }
        self.cwnd = self.cwnd.min(self.max_cwnd);
    }

    fn on_congestion_event(&mut self, ev: &CongestionEvent) {
        self.ssthresh = (ev.flight / 2.0).max(2.0);
        match ev.kind {
            super::CongestionKind::Ecn => self.cwnd = self.ssthresh,
            super::CongestionKind::DupAck => match self.cfg.response {
                LossResponse::HalvePlus3 => self.cwnd = self.ssthresh + 3.0,
                LossResponse::Halve => self.cwnd = self.ssthresh,
                LossResponse::CollapseToOne => self.cwnd = 1.0,
            },
        }
    }

    fn on_rto(&mut self, _now: SimTime, flight: f64, in_recovery: bool) {
        // Halve once per loss event: an RTO that interrupts an ongoing
        // fast recovery keeps the ssthresh set at the event's start.
        if !in_recovery {
            self.ssthresh = (flight / 2.0).max(2.0);
        }
        self.cwnd = 1.0;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_partial_ack(&mut self, _now: SimTime, newly_acked: u64) {
        // NewReno deflation: remove what the partial ACK delivered, plus
        // one for the hole just retransmitted.
        self.cwnd = (self.cwnd - newly_acked as f64 + 1.0).max(1.0);
    }

    fn on_dupack_in_recovery(&mut self) {
        self.cwnd += 1.0; // inflation
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        self.cwnd = self.ssthresh;
    }

    fn name(&self) -> &'static str {
        match self.cfg.response {
            LossResponse::HalvePlus3 => "newreno",
            LossResponse::Halve => "sack",
            LossResponse::CollapseToOne => "tahoe",
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CongestionKind;

    fn open_ack(now_ms: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO + lossburst_netsim::time::SimDuration::from_millis(now_ms),
            newly_acked: 1,
            rtt_sample: None,
            srtt: None,
            min_rtt: None,
            flight: 10,
            delivered: 1,
            delivery_rate: None,
            phase: AckPhase::Open,
        }
    }

    #[test]
    fn slow_start_then_congestion_avoidance() {
        let cc = CcConfig {
            initial_cwnd: 2.0,
            initial_ssthresh: 4.0,
            max_cwnd: 1e9,
        };
        let mut c = RenoCc::new(RenoConfig::newreno(), &cc);
        c.on_ack(&open_ack(1)); // 3.0
        c.on_ack(&open_ack(2)); // 4.0
        assert_eq!(c.window(), 4.0);
        c.on_ack(&open_ack(3)); // CA: 4 + 1/4
        assert_eq!(c.window(), 4.25);
    }

    #[test]
    fn responses_differ_only_in_cwnd() {
        for (resp, expect) in [
            (LossResponse::HalvePlus3, 8.0),
            (LossResponse::Halve, 5.0),
            (LossResponse::CollapseToOne, 1.0),
        ] {
            let mut c = RenoCc::new(RenoConfig { response: resp }, &CcConfig::default());
            c.on_congestion_event(&CongestionEvent {
                now: SimTime::ZERO,
                kind: CongestionKind::DupAck,
                flight: 10.0,
            });
            assert_eq!(c.ssthresh(), 5.0);
            assert_eq!(c.window(), expect, "{resp:?}");
        }
    }

    #[test]
    fn rto_in_recovery_keeps_ssthresh() {
        let mut c = RenoCc::new(RenoConfig::newreno(), &CcConfig::default());
        c.on_congestion_event(&CongestionEvent {
            now: SimTime::ZERO,
            kind: CongestionKind::DupAck,
            flight: 20.0,
        });
        assert_eq!(c.ssthresh(), 10.0);
        c.on_rto(SimTime::ZERO, 3.0, true);
        assert_eq!(c.ssthresh(), 10.0, "no re-halving mid-recovery");
        assert_eq!(c.window(), 1.0);
        c.on_rto(SimTime::ZERO, 3.0, false);
        assert_eq!(c.ssthresh(), 2.0, "fresh RTO halves against flight");
    }

    #[test]
    fn recovery_acks_do_not_grow_the_window() {
        let mut c = RenoCc::new(RenoConfig::newreno(), &CcConfig::default());
        let before = c.window();
        let mut ev = open_ack(5);
        ev.phase = AckPhase::Recovery;
        c.on_ack(&ev);
        ev.phase = AckPhase::RecoveryExit;
        c.on_ack(&ev);
        assert_eq!(c.window(), before);
    }
}
