//! A BBR-v1-style model-based controller.
//!
//! Instead of reacting to loss, BBR estimates the path's bottleneck
//! bandwidth (windowed max over delivery-rate samples) and round-trip
//! propagation delay (windowed min over RTT samples) and paces at their
//! product. A four-state machine probes the two model parameters:
//!
//! ```text
//! Startup ──(bw plateau 3 rounds)──▶ Drain ──(flight ≤ BDP)──▶ ProbeBW
//!    ▲                                                            │
//!    └──────────── ProbeRtt ◀──(rtprop stale 10 s)────────────────┘
//! ```
//!
//! `ProbeBW` cycles eight pacing-gain phases `[1.25, 0.75, 1, 1, 1, 1, 1,
//! 1]`, one per rtprop. Loss is *not* a model input — under the paper's
//! bursty-loss episodes this is the extreme end of the rate-based axis:
//! the flow keeps pacing at the estimated bottleneck rate straight through
//! an episode, and only an RTO collapses it to a conservative window.

use super::{AckEvent, CongestionEvent, Controller, INITIAL_CWND, MAX_CWND};
use lossburst_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The ProbeBW pacing-gain cycle (RFC-draft BBR v1).
pub(crate) const PROBE_BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup pacing gain (2/ln 2 ≈ 2.885: doubles the rate each round).
const STARTUP_GAIN: f64 = 2.885;
/// Drain pacing gain (the reciprocal: empties the startup queue).
const DRAIN_GAIN: f64 = 1.0 / 2.885;
/// Window gain over the estimated BDP.
const CWND_GAIN: f64 = 2.0;
/// Rounds of < 25 % bandwidth growth that declare the pipe full.
const FULL_BW_ROUNDS: u32 = 3;
/// Rounds the bottleneck-bandwidth max filter spans.
const BTLBW_FILTER_ROUNDS: u64 = 10;
/// Age after which the rtprop estimate is considered stale.
const RTPROP_FILTER: SimDuration = SimDuration::from_secs(10);
/// Floor window during ProbeRTT (and after an RTO), packets.
const MIN_PIPE_CWND: f64 = 4.0;
/// How long ProbeRTT sits at the floor window.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

/// The probing state machine's current state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BbrState {
    /// Exponential rate growth until the bandwidth estimate plateaus.
    Startup,
    /// Drain the queue built during startup.
    Drain,
    /// Steady state: cycle pacing gains around the estimated bandwidth.
    ProbeBw {
        /// Index into [`PROBE_BW_GAINS`].
        phase: usize,
    },
    /// Periodically shrink the window to re-measure propagation delay.
    ProbeRtt,
}

/// BBR-v1-style bandwidth/RTT probing controller.
#[derive(Clone, Debug)]
pub struct BbrCc {
    state: BbrState,
    /// (round, rate) delivery-rate samples; max over the filter window is
    /// the bottleneck-bandwidth estimate.
    btlbw_samples: VecDeque<(u64, f64)>,
    rtprop: Option<SimDuration>,
    rtprop_stamp: SimTime,
    /// Packet-timed rounds: one round per flight's worth of deliveries.
    round: u64,
    next_round_delivered: u64,
    round_advanced: bool,
    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,
    pacing_gain: f64,
    cycle_stamp: SimTime,
    probe_rtt_done: Option<SimTime>,
    cwnd: f64,
}

impl BbrCc {
    /// A fresh controller in Startup, at the floor window.
    pub(crate) fn new() -> BbrCc {
        BbrCc {
            state: BbrState::Startup,
            btlbw_samples: VecDeque::new(),
            rtprop: None,
            rtprop_stamp: SimTime::ZERO,
            round: 0,
            next_round_delivered: 0,
            round_advanced: false,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            pacing_gain: STARTUP_GAIN,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done: None,
            cwnd: INITIAL_CWND.max(MIN_PIPE_CWND),
        }
    }

    /// Bottleneck-bandwidth estimate, packets/second (0 until sampled).
    pub fn btlbw(&self) -> f64 {
        self.btlbw_samples
            .iter()
            .map(|&(_, r)| r)
            .fold(0.0, f64::max)
    }

    /// Estimated bandwidth-delay product, packets.
    pub(crate) fn bdp(&self) -> f64 {
        match self.rtprop {
            Some(rt) => self.btlbw() * rt.as_secs_f64(),
            None => 0.0,
        }
    }

    fn update_round(&mut self, ev: &AckEvent) {
        self.round_advanced = false;
        if ev.delivered >= self.next_round_delivered {
            self.round += 1;
            self.next_round_delivered = ev.delivered + ev.flight;
            self.round_advanced = true;
        }
    }

    fn update_model(&mut self, ev: &AckEvent) {
        if let Some(rate) = ev.delivery_rate {
            self.btlbw_samples.push_back((self.round, rate));
            let horizon = self.round.saturating_sub(BTLBW_FILTER_ROUNDS);
            while matches!(self.btlbw_samples.front(), Some(&(r, _)) if r < horizon) {
                self.btlbw_samples.pop_front();
            }
        }
        if let Some(rtt) = ev.rtt_sample {
            let stale = ev.now - self.rtprop_stamp > RTPROP_FILTER;
            if self.rtprop.is_none() || stale || Some(rtt) <= self.rtprop {
                self.rtprop = Some(rtt);
                self.rtprop_stamp = ev.now;
            }
        }
    }

    fn check_full_pipe(&mut self) {
        if self.filled_pipe || !self.round_advanced {
            return;
        }
        let bw = self.btlbw();
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= FULL_BW_ROUNDS {
            self.filled_pipe = true;
        }
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        // Enter at a cruise phase (deterministically — no RNG in the sim's
        // transports) so the first act is neither probing up nor draining.
        self.state = BbrState::ProbeBw { phase: 2 };
        self.pacing_gain = PROBE_BW_GAINS[2];
        self.cycle_stamp = now;
    }

    fn advance_machine(&mut self, ev: &AckEvent) {
        match self.state {
            BbrState::Startup => {
                self.check_full_pipe();
                if self.filled_pipe {
                    self.state = BbrState::Drain;
                    self.pacing_gain = DRAIN_GAIN;
                }
            }
            BbrState::Drain => {
                if (ev.flight as f64) <= self.bdp() {
                    self.enter_probe_bw(ev.now);
                }
            }
            BbrState::ProbeBw { phase } => {
                let rt = self.rtprop.unwrap_or(SimDuration::from_millis(100));
                if ev.now - self.cycle_stamp > rt {
                    let next = (phase + 1) % PROBE_BW_GAINS.len();
                    self.state = BbrState::ProbeBw { phase: next };
                    self.pacing_gain = PROBE_BW_GAINS[next];
                    self.cycle_stamp = ev.now;
                }
            }
            BbrState::ProbeRtt => {
                if self.probe_rtt_done.is_none() && (ev.flight as f64) <= MIN_PIPE_CWND {
                    self.probe_rtt_done = Some(ev.now + PROBE_RTT_DURATION);
                }
                if matches!(self.probe_rtt_done, Some(t) if ev.now >= t) {
                    self.probe_rtt_done = None;
                    self.rtprop_stamp = ev.now;
                    if self.filled_pipe {
                        self.enter_probe_bw(ev.now);
                    } else {
                        self.state = BbrState::Startup;
                        self.pacing_gain = STARTUP_GAIN;
                    }
                }
            }
        }
        // rtprop stale and not already re-probing: dip the window.
        if self.state != BbrState::ProbeRtt
            && self.rtprop.is_some()
            && ev.now - self.rtprop_stamp > RTPROP_FILTER
        {
            self.state = BbrState::ProbeRtt;
            self.probe_rtt_done = None;
        }
    }

    fn update_cwnd(&mut self) {
        self.cwnd = match self.state {
            BbrState::ProbeRtt => MIN_PIPE_CWND,
            BbrState::Startup if self.bdp() <= 0.0 => {
                // No model yet: grow like slow start off the ack clock.
                (self.cwnd + 1.0).min(MAX_CWND)
            }
            BbrState::Startup => (STARTUP_GAIN * self.bdp()).max(MIN_PIPE_CWND),
            _ => (CWND_GAIN * self.bdp()).max(MIN_PIPE_CWND),
        }
        .min(MAX_CWND);
    }
}

impl Controller for BbrCc {
    fn on_ack(&mut self, ev: &AckEvent) {
        // Model-based: absorb every delivery sample, whatever the phase.
        self.update_round(ev);
        self.update_model(ev);
        self.advance_machine(ev);
        self.update_cwnd();
    }

    fn on_congestion_event(&mut self, _ev: &CongestionEvent) {
        // BBR v1 does not treat packet loss as a model input; the repair
        // layer retransmits while the model keeps pacing.
    }

    fn on_rto(&mut self, _now: SimTime, _flight: f64, _in_recovery: bool) {
        // Conservation on timeout: collapse to the floor window and let the
        // next delivery samples rebuild the model's confidence.
        self.cwnd = MIN_PIPE_CWND;
    }

    fn window(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Option<f64> {
        let bw = self.btlbw();
        if bw > 0.0 {
            Some(self.pacing_gain * bw)
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::AckPhase;

    /// Scripted delivery: acknowledge `newly` packets at `now`, reporting a
    /// measured delivery rate and RTT.
    fn sample(now_ms: u64, delivered: u64, flight: u64, rate_pps: f64, rtt_ms: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO + SimDuration::from_millis(now_ms),
            newly_acked: 1,
            rtt_sample: Some(SimDuration::from_millis(rtt_ms)),
            srtt: Some(SimDuration::from_millis(rtt_ms)),
            min_rtt: Some(SimDuration::from_millis(rtt_ms)),
            flight,
            delivered,
            delivery_rate: Some(rate_pps),
            phase: AckPhase::Open,
        }
    }

    /// The tentpole state-machine test: scripted delivery samples walk the
    /// controller startup → drain → probe_bw.
    #[test]
    fn startup_drain_probe_bw_transitions() {
        let mut b = BbrCc::new();
        assert_eq!(b.state, BbrState::Startup);

        // Rounds of growing bandwidth: stay in startup. Each ack delivers
        // more than a flight's worth so every ack advances the packet-timed
        // round and the full-pipe detector tracks the growing estimate.
        let mut now = 0;
        let mut delivered = 0;
        for rate in [100.0, 200.0, 400.0, 800.0] {
            now += 50;
            delivered += 150;
            b.on_ack(&sample(now, delivered, 100, rate, 50));
            assert_eq!(b.state, BbrState::Startup, "bw still growing");
        }
        assert!(b.btlbw() >= 800.0);

        // Bandwidth plateaus: after `full_bw_rounds` rounds with < 25 %
        // growth the pipe is declared full and the state drops to drain.
        let mut flight = 100;
        for _ in 0..FULL_BW_ROUNDS {
            assert_eq!(b.state, BbrState::Startup);
            now += 50;
            delivered += 150; // enough to advance the packet-timed round
            b.on_ack(&sample(now, delivered, flight, 810.0, 50));
        }
        assert_eq!(b.state, BbrState::Drain, "plateau must end startup");

        // Drain holds until the flight drops to the estimated BDP
        // (810 pps × 50 ms ≈ 40 packets), then probe_bw begins.
        now += 50;
        delivered += 150;
        b.on_ack(&sample(now, delivered, flight, 810.0, 50));
        assert_eq!(b.state, BbrState::Drain, "flight still above BDP");
        flight = 30;
        now += 50;
        delivered += 150;
        b.on_ack(&sample(now, delivered, flight, 810.0, 50));
        assert!(matches!(b.state, BbrState::ProbeBw { .. }));

        // The steady-state window is cwnd_gain × BDP.
        let bdp = b.bdp();
        assert!((b.window() - 2.0 * bdp).abs() < 1e-9);
        // And the pacing rate follows the gain cycle around btlbw.
        let rate = b.pacing_rate().unwrap();
        assert!(rate > 0.5 * b.btlbw() && rate < 1.5 * b.btlbw());
    }

    #[test]
    fn probe_bw_cycles_through_all_gain_phases() {
        let mut b = BbrCc::new();
        // Jump straight to probe_bw via the scripted startup walk.
        b.filled_pipe = true;
        b.state = BbrState::Drain;
        b.rtprop = Some(SimDuration::from_millis(10));
        b.rtprop_stamp = SimTime::ZERO + SimDuration::from_millis(1);
        b.btlbw_samples.push_back((0, 1000.0));
        b.on_ack(&sample(20, 10, 5, 1000.0, 10));
        assert!(matches!(b.state, BbrState::ProbeBw { .. }));

        let mut seen = std::collections::HashSet::new();
        let mut now = 20;
        let mut delivered = 10;
        for _ in 0..40 {
            if let BbrState::ProbeBw { phase } = b.state {
                seen.insert(phase);
            }
            now += 11; // just over one rtprop per ack
            delivered += 5;
            b.on_ack(&sample(now, delivered, 10, 1000.0, 10));
        }
        assert_eq!(seen.len(), PROBE_BW_GAINS.len(), "all 8 phases visited");
    }

    #[test]
    fn stale_rtprop_forces_probe_rtt_and_recovers() {
        let mut b = BbrCc::new();
        b.filled_pipe = true;
        b.rtprop = Some(SimDuration::from_millis(10));
        b.rtprop_stamp = SimTime::ZERO;
        b.btlbw_samples.push_back((0, 1000.0));
        b.enter_probe_bw(SimTime::ZERO);

        // 11 s later the rtprop sample is stale (no lower sample arrived).
        let mut ev = sample(11_000, 100, 50, 1000.0, 10);
        ev.rtt_sample = None; // no fresh sample on this ack
        b.on_ack(&ev);
        assert_eq!(b.state, BbrState::ProbeRtt);
        assert_eq!(b.window(), MIN_PIPE_CWND);

        // Flight drains to the floor; 200 ms at the floor ends the probe.
        b.on_ack(&sample(11_100, 104, 4, 1000.0, 10));
        b.on_ack(&sample(11_400, 108, 4, 1000.0, 10));
        assert!(
            matches!(b.state, BbrState::ProbeBw { .. }),
            "returns to steady state"
        );
    }

    #[test]
    fn rto_collapses_to_floor_window() {
        let mut b = BbrCc::new();
        b.btlbw_samples.push_back((0, 1000.0));
        b.rtprop = Some(SimDuration::from_millis(50));
        b.update_cwnd();
        assert!(b.window() > 4.0);
        b.on_rto(SimTime::ZERO, 10.0, false);
        assert_eq!(b.window(), MIN_PIPE_CWND);
    }
}
