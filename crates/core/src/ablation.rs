//! Ablation studies over the design choices and robustness claims.
//!
//! The paper asserts that sub-RTT loss burstiness is *structural* — "its
//! effect cannot be eliminated by a large buffer size or high multiplexing
//! level" — and that RED, while able to randomize the loss process, "suffers
//! from difficult parameter settings". These sweeps check each claim on the
//! reproduction, and add two modern ablations: what SACK and what the
//! minimum RTO do to the Fig 8 straggler problem.

use crate::impact::{completion_times, even_chunk, ChunkedTransfer};
use lossburst_analysis::intervals;
use lossburst_emu::testbed::{self, ShortFlowConfig, TestbedConfig};
use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::queue::{QueueDisc, RedConfig};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::bdp_packets;
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::cc::CcAlgorithm;
use lossburst_transport::config::TcpConfig;
use lossburst_transport::sender::Sender;
use rayon::prelude::*;

/// One row of a burstiness sweep.
#[derive(Clone, Debug)]
pub struct BurstinessRow {
    /// Sweep label (buffer fraction, flow count, ...).
    pub label: String,
    /// Drops observed.
    pub losses: usize,
    /// Fraction of inter-loss intervals below 0.01 RTT.
    pub frac_below_001: f64,
    /// Index of dispersion for counts.
    pub index_of_dispersion: f64,
    /// Bottleneck utilization.
    pub utilization: f64,
}

fn testbed_row(cfg: &TestbedConfig, label: String) -> BurstinessRow {
    let res = testbed::run_streaming(cfg);
    let iv = intervals::normalized_intervals(&res.loss_times, res.mean_rtt.as_secs_f64());
    let rep = lossburst_analysis::burstiness::analyze(&iv);
    BurstinessRow {
        label,
        losses: rep.n_losses,
        frac_below_001: rep.frac_below_001,
        index_of_dispersion: rep.index_of_dispersion,
        utilization: res.utilization,
    }
}

/// Claim: buffer size does not remove sub-RTT burstiness. Sweep ⅛–2 BDP.
/// (All sweeps in this module fan out over the worker pool; rows come back
/// in sweep order regardless of which worker ran which cell.)
pub fn buffer_sweep(duration: SimDuration, seed: u64) -> Vec<BurstinessRow> {
    let fractions = [0.125, 0.25, 0.5, 1.0, 2.0];
    fractions
        .par_iter()
        .map(|&f| {
            let bdp = bdp_packets(100e6, SimDuration::from_millis(100), 1000);
            let buffer = ((bdp as f64 * f) as usize).max(8);
            let mut cfg = TestbedConfig::ns2_baseline(16, buffer, seed);
            cfg.duration = duration;
            testbed_row(&cfg, format!("{f:.3} BDP ({buffer} pkts)"))
        })
        .collect()
}

/// Claim: multiplexing level does not remove sub-RTT burstiness.
/// Sweep the paper's flow counts.
pub fn flow_sweep(duration: SimDuration, seed: u64) -> Vec<BurstinessRow> {
    [2usize, 4, 8, 16, 32]
        .par_iter()
        .map(|&n| {
            let mut cfg = TestbedConfig::ns2_baseline(n, 312, seed);
            cfg.duration = duration;
            testbed_row(&cfg, format!("{n} flows"))
        })
        .collect()
}

/// Section 3.3's two sources of burstiness, isolated: long flows only
/// (DropTail + window bursts), short flows only (slow-start overshoot),
/// and the combination.
pub fn source_decomposition(duration: SimDuration, seed: u64) -> Vec<BurstinessRow> {
    let base = || {
        let mut cfg = TestbedConfig::ns2_baseline(8, 312, seed);
        cfg.duration = duration;
        cfg.noise_flows = 0;
        cfg
    };
    let mut rows = Vec::new();
    // Long-lived flows only.
    rows.push(testbed_row(&base(), "long flows only".into()));
    // Short flows only (slow start dominates).
    let mut short_only = base();
    short_only.tcp_flows = 0;
    short_only.short_flows = Some(ShortFlowConfig {
        rate_per_sec: 40.0,
        min_bytes: 30_000.0,
        alpha: 1.2,
    });
    rows.push(testbed_row(&short_only, "short flows only".into()));
    // Both.
    let mut both = base();
    both.short_flows = Some(ShortFlowConfig {
        rate_per_sec: 20.0,
        min_bytes: 30_000.0,
        alpha: 1.2,
    });
    rows.push(testbed_row(&both, "long + short flows".into()));
    rows
}

/// Claim: RED works but is touchy to tune. Sweep `max_p` and the threshold
/// span and report burstiness *and* utilization — the tension between the
/// two is the tuning difficulty.
pub fn red_sensitivity(duration: SimDuration, seed: u64) -> Vec<BurstinessRow> {
    let buffer = 312;
    let mut variants: Vec<(String, QueueDisc)> =
        vec![("DropTail (reference)".into(), QueueDisc::drop_tail(buffer))];
    for max_p in [0.02, 0.1, 0.5] {
        for (lo, hi) in [(0.1, 0.4), (0.25, 0.75)] {
            let cfg = RedConfig {
                min_th: buffer as f64 * lo,
                max_th: buffer as f64 * hi,
                max_p,
                w_q: 0.002,
                gentle: true,
                ecn: false,
                mean_pkt_bytes: 1000.0,
            };
            variants.push((
                format!("RED p={max_p} th=[{lo},{hi}]xB"),
                QueueDisc::red_with(buffer, cfg),
            ));
        }
    }
    variants
        .into_par_iter()
        .map(|(label, disc)| {
            let mut cfg = TestbedConfig::ns2_baseline(16, buffer, seed);
            cfg.bottleneck_disc = disc;
            cfg.duration = duration;
            testbed_row(&cfg, label)
        })
        .collect()
}

/// The paper measures a *single* ideal bottleneck. Does sub-RTT clustering
/// survive when the path crosses several congested hops (parking-lot
/// topology, one long-haul flow + local cross traffic per hop)?
pub fn multi_bottleneck(duration: SimDuration, seed: u64) -> Vec<BurstinessRow> {
    use lossburst_netsim::topology::build_parking_lot;
    [1usize, 2, 4]
        .par_iter()
        .map(|&hops| {
            let mut b = SimBuilder::new(seed ^ hops as u64).trace(TraceConfig::all());
            let pl = build_parking_lot(
                &mut b,
                hops,
                30e6,
                SimDuration::from_millis(10),
                QueueDisc::drop_tail(100),
            );
            // Long-haul flows crossing everything.
            for k in 0..4u64 {
                let start = SimTime::ZERO + SimDuration::from_millis(k * 37);
                b.flow(
                    pl.long_src,
                    pl.long_dst,
                    start,
                    Box::new(Sender::newreno(
                        pl.long_src,
                        pl.long_dst,
                        TcpConfig::default(),
                    )),
                );
            }
            // Per-hop local congestion: 4 local flows per hop.
            for i in 0..hops {
                for k in 0..4u64 {
                    let start = SimTime::ZERO + SimDuration::from_millis(100 + k * 53);
                    b.flow(
                        pl.local_srcs[i],
                        pl.local_dsts[i],
                        start,
                        Box::new(Sender::newreno(
                            pl.local_srcs[i],
                            pl.local_dsts[i],
                            TcpConfig::default(),
                        )),
                    );
                }
            }
            let mut sim = b.build();
            sim.run_until(SimTime::ZERO + duration);
            // Pool drops across every hop link; normalize by the long-haul
            // RTT (2 * hops * 10 ms + access).
            let mut times = Vec::new();
            for &l in &pl.hop_links {
                times.extend(sim.trace.loss_times_on(l));
            }
            let rtt = 2.0 * (hops as f64 * 0.010 + 0.0002);
            let iv = intervals::normalized_intervals(&times, rtt);
            let rep = lossburst_analysis::burstiness::analyze(&iv);
            let bl = &sim.links[pl.hop_links[0].index()];
            BurstinessRow {
                label: format!("{hops} bottleneck hop(s)"),
                losses: rep.n_losses,
                frac_below_001: rep.frac_below_001,
                index_of_dispersion: rep.index_of_dispersion,
                utilization: bl.stats.transmitted_bytes as f64 * 8.0
                    / (30e6 * duration.as_secs_f64()),
            }
        })
        .collect()
}

/// One row of the straggler ablation.
#[derive(Clone, Debug)]
pub struct StragglerRow {
    /// Protocol used (delay-based is [`CcAlgorithm::Fast`]).
    pub sender: CcAlgorithm,
    /// Minimum RTO configured.
    pub min_rto: SimDuration,
    /// Completion latencies over the seeds, seconds.
    pub latencies: Vec<f64>,
    /// Mean latency.
    pub mean: f64,
    /// Standard deviation.
    pub stddev: f64,
}

/// The Fig 8 worst cell (parallel transfer at 200 ms RTT), re-run with
/// different senders and minimum RTOs: how much of the straggler problem is
/// the congestion controller's recovery mechanics? Zero `flows` is a
/// configuration error.
pub fn straggler_ablation(
    total_bytes: u64,
    flows: usize,
    seeds: &[u64],
) -> crate::error::Result<Vec<StragglerRow>> {
    let chunk_bytes = even_chunk(total_bytes, flows)?;
    let rtt = SimDuration::from_millis(200);
    let cases = [
        (CcAlgorithm::NewReno, SimDuration::from_secs(1)),
        (CcAlgorithm::NewReno, SimDuration::from_millis(200)),
        (CcAlgorithm::Sack, SimDuration::from_secs(1)),
        (CcAlgorithm::Fast, SimDuration::from_secs(1)),
    ];
    Ok(cases
        .par_iter()
        .map(|&(sender, min_rto)| {
            let cell = ChunkedTransfer {
                flows,
                chunk_bytes,
                rtt,
                bottleneck_bps: 100e6,
                buffer_pkts: 625,
                cc: sender,
                tcp: TcpConfig {
                    min_rto,
                    ..Default::default()
                },
                stagger: (0xAB1A, rtt),
                horizon: SimDuration::from_secs(600),
            };
            let latencies: Vec<f64> = seeds
                .iter()
                .map(|&seed| {
                    let times = completion_times(&cell, seed);
                    times.into_iter().fold(0.0, f64::max)
                })
                .collect();
            let mean = lossburst_analysis::stats::mean(&latencies);
            let stddev = lossburst_analysis::stats::variance(&latencies).sqrt();
            StragglerRow {
                sender,
                min_rto,
                latencies,
                mean,
                stddev,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: SimDuration = SimDuration::from_secs(8);

    #[test]
    fn buffer_sweep_burstiness_never_collapses() {
        let rows = buffer_sweep(SHORT, 51);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.losses > 10, "{}: too few losses", row.label);
            // The paper's claim: buffers cannot remove sub-RTT clustering.
            assert!(
                row.frac_below_001 > 0.5,
                "{}: clustering vanished ({:.2})",
                row.label,
                row.frac_below_001
            );
        }
    }

    #[test]
    fn flow_sweep_burstiness_never_collapses() {
        let rows = flow_sweep(SHORT, 52);
        for row in &rows {
            assert!(
                row.frac_below_001 > 0.5,
                "{}: multiplexing removed clustering ({:.2})",
                row.label,
                row.frac_below_001
            );
        }
    }

    #[test]
    fn short_flows_are_an_independent_burstiness_source() {
        let rows = source_decomposition(SHORT, 53);
        assert_eq!(rows.len(), 3);
        // Slow-start-only traffic still produces clustered losses.
        let short_only = &rows[1];
        assert!(short_only.losses > 10, "short flows produced no loss");
        assert!(
            short_only.frac_below_001 > 0.3,
            "slow-start losses not bursty: {:.2}",
            short_only.frac_below_001
        );
    }

    #[test]
    fn red_reduces_clustering_but_tuning_matters() {
        let rows = red_sensitivity(SHORT, 54);
        let droptail = &rows[0];
        let best_red = rows[1..]
            .iter()
            .min_by(|a, b| a.frac_below_001.partial_cmp(&b.frac_below_001).unwrap())
            .unwrap();
        assert!(
            best_red.frac_below_001 < droptail.frac_below_001,
            "no RED variant beat DropTail"
        );
        // Tuning difficulty: the RED variants disagree with each other
        // substantially in either burstiness or utilization.
        let spread_burst = rows[1..]
            .iter()
            .map(|r| r.frac_below_001)
            .fold(f64::NEG_INFINITY, f64::max)
            - rows[1..]
                .iter()
                .map(|r| r.frac_below_001)
                .fold(f64::INFINITY, f64::min);
        let spread_util = rows[1..]
            .iter()
            .map(|r| r.utilization)
            .fold(f64::NEG_INFINITY, f64::max)
            - rows[1..]
                .iter()
                .map(|r| r.utilization)
                .fold(f64::INFINITY, f64::min);
        assert!(
            spread_burst > 0.1 || spread_util > 0.05,
            "RED variants all behave identically (burst spread {spread_burst:.2}, util spread {spread_util:.2})"
        );
    }

    #[test]
    fn multi_bottleneck_burstiness_persists() {
        let rows = multi_bottleneck(SHORT, 61);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.losses > 10, "{}: too few losses", row.label);
            // The discriminating claim: the loss process stays far from
            // Poisson (IDC >> 1) no matter how many bottlenecks the path
            // crosses.
            assert!(
                row.index_of_dispersion > 5.0,
                "{}: loss process became Poisson-like (IDC {:.1})",
                row.label,
                row.index_of_dispersion
            );
        }
        // And adding hops must not collapse the sub-RTT clustering relative
        // to the single-hop baseline.
        let single = rows[0].frac_below_001;
        let multi = rows[2].frac_below_001;
        assert!(
            multi > 0.5 * single,
            "clustering collapsed with hops: {multi:.2} vs single-hop {single:.2}"
        );
    }

    #[test]
    fn straggler_ablation_delay_based_wins() {
        let rows = straggler_ablation(8 * 1024 * 1024, 4, &[1, 2]).unwrap();
        let newreno = rows
            .iter()
            .find(|r| r.sender == CcAlgorithm::NewReno && r.min_rto == SimDuration::from_secs(1))
            .unwrap();
        let delay = rows.iter().find(|r| r.sender == CcAlgorithm::Fast).unwrap();
        assert!(
            delay.mean < newreno.mean,
            "delay-based ({:.1}s) should beat NewReno ({:.1}s) at 200 ms",
            delay.mean,
            newreno.mean
        );
        let sack = rows.iter().find(|r| r.sender == CcAlgorithm::Sack).unwrap();
        assert!(
            sack.mean <= newreno.mean * 1.25,
            "SACK ({:.1}s) should be competitive with NewReno ({:.1}s)",
            sack.mean,
            newreno.mean
        );
    }

    #[test]
    fn straggler_ablation_rejects_zero_flows() {
        let err = straggler_ablation(8 * 1024 * 1024, 0, &[1]).unwrap_err();
        assert!(matches!(err, crate::error::Error::Config(_)), "{err}");
    }
}
