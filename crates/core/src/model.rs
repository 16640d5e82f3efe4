//! The analytic loss-detection model of Section 4.1 (equations (1) and
//! (2), illustrated by the paper's Figures 5 and 6), plus a Monte-Carlo
//! cross-validation of both idealizations.
//!
//! During one bursty loss event, `M` consecutive arrivals at the
//! bottleneck are dropped, out of the roughly one-RTT's-worth of traffic
//! from `N` flows (each contributing `K` packets per RTT):
//!
//! * **rate-based** senders interleave evenly, so the `M` dropped slots hit
//!   `min(M, N)` distinct flows — essentially everyone once `M ≥ N`;
//! * **window-based** senders occupy contiguous trunks of `K` packets, so
//!   the burst lands inside `max(M/K, 1)` trunks — very few flows.
//!
//! This asymmetry is the mechanism behind Fig 7's unfairness.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Equation (1): expected number of rate-based flows observing a loss event
/// that drops `m` packets, with `n` flows sharing the bottleneck.
pub fn rate_based_detections(m: u64, n: u64) -> f64 {
    m.min(n) as f64
}

/// Equation (2): expected number of window-based flows observing the same
/// event, where each flow sends `k` packets back-to-back per RTT.
pub fn window_based_detections(m: u64, k: u64) -> f64 {
    (m as f64 / k.max(1) as f64).max(1.0)
}

/// Monte-Carlo estimate of how many distinct flows lose at least one packet
/// when `m` consecutive packets are dropped out of an RTT's arrival
/// pattern of `n` flows × `k` packets each.
///
/// `interleaved = true` models rate-based senders (round-robin arrival
/// order); `false` models window-based senders (contiguous per-flow
/// trunks). The drop window starts at a uniformly random arrival slot.
pub(crate) fn simulate_detections(
    m: u64,
    n: u64,
    k: u64,
    interleaved: bool,
    trials: u32,
    seed: u64,
) -> f64 {
    assert!(n > 0 && k > 0 && m > 0);
    let total = n * k;
    let m = m.min(total);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sum = 0u64;
    let mut hit = vec![false; n as usize];
    for _ in 0..trials {
        hit.iter_mut().for_each(|h| *h = false);
        let start = rng.random_range(0..total);
        let mut distinct = 0u64;
        for off in 0..m {
            let slot = (start + off) % total;
            let flow = if interleaved {
                // Round-robin: slot s belongs to flow s mod n.
                (slot % n) as usize
            } else {
                // Contiguous trunks: slot s belongs to flow s / k.
                (slot / k) as usize
            };
            if !hit[flow] {
                hit[flow] = true;
                distinct += 1;
            }
        }
        sum += distinct;
    }
    sum as f64 / trials as f64
}

/// One row of the detection-model table: analytic and simulated detections
/// for both sender classes, plus the unfairness ratio.
#[derive(Clone, Copy, Debug)]
pub struct DetectionRow {
    /// Dropped packets in the event.
    pub m: u64,
    /// Flows sharing the bottleneck.
    pub n: u64,
    /// Packets per flow per RTT.
    pub k: u64,
    /// Equation (1).
    pub rate_analytic: f64,
    /// Monte-Carlo, interleaved arrivals.
    pub rate_simulated: f64,
    /// Equation (2).
    pub window_analytic: f64,
    /// Monte-Carlo, contiguous trunks.
    pub window_simulated: f64,
}

impl DetectionRow {
    /// Compute one row.
    pub fn compute(m: u64, n: u64, k: u64, trials: u32, seed: u64) -> DetectionRow {
        DetectionRow {
            m,
            n,
            k,
            rate_analytic: rate_based_detections(m, n),
            rate_simulated: simulate_detections(m, n, k, true, trials, seed),
            window_analytic: window_based_detections(m, k),
            window_simulated: simulate_detections(m, n, k, false, trials, seed ^ 1),
        }
    }

    /// `L_rate / L_win` — how many times more rate-based flows see the event.
    pub fn unfairness(&self) -> f64 {
        self.rate_analytic / self.window_analytic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equations_match_paper_limits() {
        // M >> N: every rate-based flow sees it.
        assert_eq!(rate_based_detections(1000, 16), 16.0);
        // M < N: only M flows can possibly lose a packet.
        assert_eq!(rate_based_detections(4, 16), 4.0);
        // Window-based: a burst smaller than one trunk hits one flow.
        assert_eq!(window_based_detections(4, 100), 1.0);
        // A burst spanning trunks hits M/K flows.
        assert_eq!(window_based_detections(300, 100), 3.0);
    }

    #[test]
    fn simulation_validates_rate_based_equation() {
        for (m, n, k) in [(4u64, 16u64, 50u64), (16, 16, 50), (64, 16, 50)] {
            let sim = simulate_detections(m, n, k, true, 2000, 9);
            let analytic = rate_based_detections(m, n);
            assert!(
                (sim - analytic).abs() <= 0.05 * analytic.max(1.0),
                "m={m}: sim {sim} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn simulation_validates_window_based_equation() {
        for (m, n, k) in [(4u64, 16u64, 50u64), (60, 16, 50), (140, 16, 50)] {
            let sim = simulate_detections(m, n, k, false, 2000, 9);
            let analytic = window_based_detections(m, k);
            // Random offset straddles trunk boundaries, so the simulated
            // count sits between M/K and M/K + 1.
            assert!(
                sim >= analytic - 1e-9 && sim <= analytic + 1.0,
                "m={m}: sim {sim} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn rate_based_flows_see_far_more_loss_events() {
        let row = DetectionRow::compute(32, 16, 50, 2000, 3);
        assert!(row.rate_simulated > 5.0 * row.window_simulated);
        assert!(row.unfairness() > 5.0);
    }

    #[test]
    fn burst_capped_at_total_packets() {
        // m larger than n*k must not panic or exceed n.
        let sim = simulate_detections(10_000, 8, 10, true, 100, 5);
        assert!(sim <= 8.0 + 1e-9);
    }
}
