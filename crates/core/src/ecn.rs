//! The persistent-ECN experiment (Section 5 / reference \[22\]).
//!
//! The paper's proposed escape from the loss-burstiness trap: have the
//! router raise an ECN signal and *hold it up for one RTT*, so that every
//! flow — not just the unlucky ones whose packets sat at the overflow
//! instant — observes each congestion event. This module compares a
//! DropTail bottleneck against a persistent-ECN bottleneck on three axes:
//! drops, utilization, and uniformity of congestion detection across flows.

use crate::impact::{shared_bottleneck, utilization};
use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::RttAssignment;
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::config::TcpConfig;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct EcnConfig {
    /// Number of NewReno flows.
    pub(crate) flows: usize,
    /// Smallest per-flow RTT (flows get diverse RTTs, as in the paper's
    /// setups; with identical RTTs DropTail synchronizes globally and the
    /// coverage asymmetry disappears).
    pub(crate) min_rtt: SimDuration,
    /// Largest per-flow RTT; also the persistent-ECN epoch and the episode
    /// clustering gap.
    pub(crate) max_rtt: SimDuration,
    /// Bottleneck capacity.
    pub(crate) bottleneck_bps: f64,
    /// Buffer, packets.
    pub(crate) buffer_pkts: usize,
    /// Run length.
    pub(crate) duration: SimDuration,
    /// Seed.
    pub(crate) seed: u64,
}

impl EcnConfig {
    /// A representative mid-scale setup.
    pub fn default_setup(seed: u64) -> EcnConfig {
        EcnConfig {
            flows: 16,
            min_rtt: SimDuration::from_millis(10),
            max_rtt: SimDuration::from_millis(200),
            bottleneck_bps: 100e6,
            buffer_pkts: 625,
            duration: SimDuration::from_secs(30),
            seed,
        }
    }
}

/// Per-discipline outcome.
#[derive(Clone, Copy, Debug)]
pub struct GroupStats {
    /// Mean per-congestion-episode *signal coverage*: the fraction of flows
    /// whose packets were dropped/marked in each episode (episodes are
    /// router-side drop/mark records clustered at one-RTT gaps). This is
    /// the quantity Figures 5/6 reason about: DropTail episodes touch few
    /// window-based flows; a persistent ECN epoch touches nearly all.
    pub signal_coverage: f64,
    /// Packets dropped at the bottleneck.
    pub drops: u64,
    /// Bottleneck utilization.
    pub utilization: f64,
}

/// Cluster `(time, flow)` signal records into episodes separated by more
/// than `gap_secs`, and return the mean fraction of the `n_flows` flows
/// touched per episode.
pub(crate) fn signal_coverage(mut records: Vec<(f64, u32)>, n_flows: usize, gap_secs: f64) -> f64 {
    if records.is_empty() || n_flows == 0 {
        return 0.0;
    }
    records.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut fractions = Vec::new();
    let mut current: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut last_t = records[0].0;
    for (t, f) in records {
        if t - last_t > gap_secs && !current.is_empty() {
            fractions.push(current.len() as f64 / n_flows as f64);
            current.clear();
        }
        current.insert(f);
        last_t = t;
    }
    if !current.is_empty() {
        fractions.push(current.len() as f64 / n_flows as f64);
    }
    lossburst_analysis::stats::mean(&fractions)
}

/// DropTail vs persistent ECN.
#[derive(Clone, Copy, Debug)]
pub struct EcnComparison {
    /// Plain DropTail.
    pub droptail: GroupStats,
    /// Persistent-ECN marking.
    pub persistent_ecn: GroupStats,
}

fn run_one(cfg: &EcnConfig, ecn: bool) -> GroupStats {
    let disc = if ecn {
        // Mark early (30% occupancy): the signal needs a full RTT of lead
        // time, because between the mark and the senders' reaction another
        // RTT's worth of (possibly slow-start-doubling) arrivals lands.
        QueueDisc::persistent_ecn(
            cfg.buffer_pkts,
            (cfg.buffer_pkts as f64 * 0.3) as usize,
            cfg.max_rtt,
        )
    } else {
        QueueDisc::drop_tail(cfg.buffer_pkts)
    };
    // Stagger starts widely so the coverage measurement reflects
    // steady-state congestion episodes rather than a synchronized
    // slow-start pile-up (which trivially touches every flow).
    let starts: Vec<SimTime> = (0..cfg.flows)
        .map(|i| SimTime::ZERO + SimDuration::from_millis(i as u64 * 300))
        .collect();
    let spec = FlowSpec {
        tcp: TcpConfig {
            ecn,
            ..Default::default()
        },
        ..FlowSpec::new(cfg.max_rtt)
    };
    let (sim, _, bottleneck) = shared_bottleneck(
        SimBuilder::new(cfg.seed).trace(TraceConfig::all()),
        cfg.bottleneck_bps,
        RttAssignment::Uniform(cfg.min_rtt, cfg.max_rtt),
        disc,
        cfg.duration,
        &starts,
        |_, s, r| CcAlgorithm::NewReno.build_flow(s, r, &spec),
    );

    // Router-side signal records: drops for DropTail, marks for ECN.
    // Only steady-state episodes count (skip the start-up third of the run).
    let secs = cfg.duration.as_secs_f64();
    let warmup = secs / 3.0;
    let mut records: Vec<(f64, u32)> = sim
        .trace
        .losses
        .iter()
        .filter(|l| l.link == bottleneck && l.time.as_secs_f64() > warmup)
        .map(|l| (l.time.as_secs_f64(), l.flow.0))
        .collect();
    records.extend(
        sim.trace
            .marks
            .iter()
            .filter(|m| m.link == bottleneck && m.time.as_secs_f64() > warmup)
            .map(|m| (m.time.as_secs_f64(), m.flow.0)),
    );
    let coverage = signal_coverage(records, cfg.flows, cfg.max_rtt.as_secs_f64());
    GroupStats {
        signal_coverage: coverage,
        drops: sim.links[bottleneck.index()].stats.dropped,
        utilization: utilization(&sim, bottleneck, cfg.bottleneck_bps, secs),
    }
}

/// Run both disciplines on the identical workload.
pub fn ecn_vs_droptail(cfg: &EcnConfig) -> EcnComparison {
    EcnComparison {
        droptail: run_one(cfg, false),
        persistent_ecn: run_one(cfg, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_clusters_episodes() {
        // Two episodes 1 s apart: first touches flows {0,1}, second {2}.
        let recs = vec![(0.00, 0u32), (0.001, 1), (0.002, 0), (1.0, 2)];
        let c = signal_coverage(recs, 4, 0.1);
        assert!((c - (0.5 + 0.25) / 2.0).abs() < 1e-12, "coverage {c}");
        assert_eq!(signal_coverage(vec![], 4, 0.1), 0.0);
    }

    #[test]
    fn ecn_vs_droptail_is_pinned_to_the_bit() {
        // `(signal_coverage, utilization)` as `f64::to_bits` and the
        // bottleneck's drops, DropTail then persistent ECN, for 8 flows
        // over 6 s (0.625 / 0.438 / 3849 drops, 1.0 / 0.341 / none).
        const PINNED: [([u64; 2], u64); 2] = [
            ([0x3fe4_0000_0000_0000, 0x3fdc_03fa_efae_318f], 3849),
            ([0x3ff0_0000_0000_0000, 0x3fd5_cd69_aabe_850b], 0),
        ];
        let mut cfg = EcnConfig::default_setup(23);
        cfg.flows = 8;
        cfg.duration = SimDuration::from_secs(6);
        let cmp = ecn_vs_droptail(&cfg);
        let got = [cmp.droptail, cmp.persistent_ecn].map(|g| {
            (
                [g.signal_coverage, g.utilization].map(f64::to_bits),
                g.drops,
            )
        });
        assert_eq!(got, PINNED, "moved to {cmp:?} ({got:#x?})");
    }

    #[test]
    fn persistent_ecn_eliminates_drops_and_improves_coverage() {
        let mut cfg = EcnConfig::default_setup(23);
        cfg.duration = SimDuration::from_secs(15);
        let cmp = ecn_vs_droptail(&cfg);
        assert!(cmp.droptail.drops > 0, "DropTail run saw no congestion");
        assert!(
            cmp.persistent_ecn.drops < cmp.droptail.drops / 2,
            "ECN should remove most drops: {} vs {}",
            cmp.persistent_ecn.drops,
            cmp.droptail.drops
        );
        // Signal coverage: a persistent ECN epoch touches (nearly) every
        // flow, while a DropTail loss episode touches only the flows whose
        // bursts straddled the overflow.
        assert!(
            cmp.persistent_ecn.signal_coverage > cmp.droptail.signal_coverage,
            "ECN coverage {} vs DropTail coverage {}",
            cmp.persistent_ecn.signal_coverage,
            cmp.droptail.signal_coverage
        );
        assert!(
            cmp.persistent_ecn.signal_coverage > 0.6,
            "persistent ECN should cover most flows per episode, got {}",
            cmp.persistent_ecn.signal_coverage
        );
        // Throughput survives, at a modest cost: the universal signal makes
        // *every* flow back off each epoch, trading some utilization for
        // zero drops and full coverage.
        assert!(
            cmp.persistent_ecn.utilization > 0.45,
            "utilization {}",
            cmp.persistent_ecn.utilization
        );
    }
}
