//! The loss-based AIMD family: NewReno and the SACK sender's plain-halving
//! response, as one controller parameterised by its loss response.
//!
//! Every float operation here is a line-for-line transliteration of the
//! pre-refactor `Tcp`/`SackTcp` window arithmetic: the golden fixtures pin
//! the refactor to byte-identical traces, so the order of operations is
//! load-bearing.

use super::{
    AckEvent, AckPhase, CongestionEvent, Controller, INITIAL_CWND, INITIAL_SSTHRESH, MAX_CWND,
};
use lossburst_netsim::time::SimTime;

/// How the window responds to a dupack-detected loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LossResponse {
    /// NewReno fast recovery: `cwnd = ssthresh + 3` (the three dupacks
    /// that triggered detection have left the network).
    HalvePlus3,
    /// RFC 6675 SACK: `cwnd = ssthresh`, no inflation — the scoreboard's
    /// pipe estimate already discounts delivered segments.
    Halve,
}

/// AIMD window law with a pluggable loss response.
#[derive(Clone, Debug)]
pub(crate) struct RenoCc {
    response: LossResponse,
    cwnd: f64,
    ssthresh: f64,
}

impl RenoCc {
    /// A fresh controller at the initial window, in slow start.
    pub(crate) fn new(response: LossResponse) -> RenoCc {
        RenoCc {
            response,
            cwnd: INITIAL_CWND,
            ssthresh: INITIAL_SSTHRESH,
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
        self.cwnd = self.cwnd.min(MAX_CWND);
    }

    fn on_congestion_event(&mut self, ev: &CongestionEvent) {
        self.ssthresh = (ev.flight / 2.0).max(2.0);
        match ev.kind {
            super::CongestionKind::Ecn => self.cwnd = self.ssthresh,
            super::CongestionKind::DupAck => match self.response {
                LossResponse::HalvePlus3 => self.cwnd = self.ssthresh + 3.0,
                LossResponse::Halve => self.cwnd = self.ssthresh,
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
        match self.response {
            LossResponse::HalvePlus3 => "newreno",
            LossResponse::Halve => "sack",
        }
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
        let mut c = RenoCc::new(LossResponse::HalvePlus3);
        c.ssthresh = 4.0;
        c.on_ack(&open_ack(1)); // 3.0
        c.on_ack(&open_ack(2)); // 4.0
        assert_eq!(c.window(), 4.0);
        c.on_ack(&open_ack(3)); // CA: 4 + 1/4
        assert_eq!(c.window(), 4.25);
    }

    #[test]
    fn responses_differ_only_in_cwnd() {
        for (resp, expect) in [(LossResponse::HalvePlus3, 8.0), (LossResponse::Halve, 5.0)] {
            let mut c = RenoCc::new(resp);
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
        let mut c = RenoCc::new(LossResponse::HalvePlus3);
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
        let mut c = RenoCc::new(LossResponse::HalvePlus3);
        let before = c.window();
        let mut ev = open_ack(5);
        ev.phase = AckPhase::Recovery;
        c.on_ack(&ev);
        ev.phase = AckPhase::RecoveryExit;
        c.on_ack(&ev);
        assert_eq!(c.window(), before);
    }
}
