//! RFC 6298 round-trip-time estimation and retransmission timeout.

use lossburst_netsim::time::SimDuration;

/// Smoothed RTT estimator with Karn-style exponential RTO backoff.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    backoff: u32,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// New estimator with the given RTO clamps and initial RTO. The initial
    /// RTO is clamped into `[min_rto, max_rto]` so a misconfigured (zero or
    /// oversized) value cannot wedge the pre-sample timeout outside the
    /// bounds every later computation respects.
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial_rto.max(min_rto).min(max_rto),
            backoff: 0,
            min_rto,
            max_rto,
        }
    }

    /// Feed one RTT measurement (RFC 6298 §2). Also resets any backoff.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
            }
        }
        let srtt = self.srtt.unwrap();
        let var4 = self.rttvar * 4;
        self.rto = (srtt + var4).max(self.min_rto).min(self.max_rto);
        self.backoff = 0;
    }

    /// Smoothed RTT, if at least one sample has been taken.
    #[inline]
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Current retransmission timeout including backoff.
    #[inline]
    pub fn rto(&self) -> SimDuration {
        let backed = self.rto.saturating_mul(1u64 << self.backoff.min(16));
        backed.min(self.max_rto)
    }

    /// Double the RTO (called on each retransmission timeout).
    pub(crate) fn backoff(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        e.on_sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = srtt + 4*rttvar = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn srtt_smooths_towards_samples() {
        let mut e = est();
        e.on_sample(SimDuration::from_millis(100));
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(50));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_secs_f64() - 0.050).abs() < 0.002,
            "srtt converged to {srtt:?}"
        );
    }

    #[test]
    fn rto_respects_min() {
        let mut e = est();
        for _ in 0..50 {
            e.on_sample(SimDuration::from_millis(1));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200), "clamped to min_rto");
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = est();
        e.on_sample(SimDuration::from_millis(100));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto(), base * 2);
        e.backoff();
        assert_eq!(e.rto(), base * 4);
        e.on_sample(SimDuration::from_millis(100));
        assert!(e.rto() <= base * 2, "sample resets backoff");
    }

    #[test]
    fn initial_rto_is_clamped_into_bounds() {
        // Zero (or any sub-minimum) initial RTO must not produce a zero
        // timeout before the first sample: an RTO of zero fires instantly
        // and livelocks the sender in pure retransmission.
        let low = RttEstimator::new(
            SimDuration::ZERO,
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        );
        assert_eq!(low.rto(), SimDuration::from_millis(200));
        // Oversized initial RTO is pulled down to max_rto.
        let high = RttEstimator::new(
            SimDuration::from_secs(600),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        );
        assert_eq!(high.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn backoff_saturates_without_overflow() {
        let mut e = est();
        // No samples taken: rto is the initial 1 s. Hammer backoff far past
        // the shift cap; the multiply must saturate, not overflow, and the
        // result must stay clamped to max_rto.
        for _ in 0..1000 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
        // A fresh sample fully resets the backoff.
        e.on_sample(SimDuration::from_millis(100));
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn rto_respects_max() {
        let mut e = est();
        e.on_sample(SimDuration::from_secs(10));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }
}
