//! The persistent-ECN experiment (Section 5 / reference \[22\]).
//!
//! The paper's proposed escape from the loss-burstiness trap: have the
//! router raise an ECN signal and *hold it up for one RTT*, so that every
//! flow — not just the unlucky ones whose packets sat at the overflow
//! instant — observes each congestion event. This module compares a
//! DropTail bottleneck against a persistent-ECN bottleneck on three axes:
//! drops, fairness, and uniformity of congestion detection across flows.

use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::{build_dumbbell, DumbbellConfig, RttAssignment};
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::config::TcpConfig;
use lossburst_transport::sender::Sender;

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
    /// Jain fairness index over per-flow delivered bytes (1 = perfectly fair).
    pub jain_fairness: f64,
    /// Mean congestion (loss or ECN) events detected per flow.
    pub detections_mean: f64,
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
    records.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN time"));
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

use lossburst_analysis::stats::jain_fairness as jain;

fn run_one(cfg: &EcnConfig, ecn: bool) -> GroupStats {
    let mut b = SimBuilder::new(cfg.seed).trace(TraceConfig::all());
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
    let dcfg = DumbbellConfig {
        pairs: cfg.flows,
        bottleneck_bps: cfg.bottleneck_bps,
        access_bps: 1e9,
        bottleneck_disc: disc,
        access_buffer_pkts: 10_000,
        rtt: RttAssignment::Uniform(cfg.min_rtt, cfg.max_rtt),
    };
    let db = build_dumbbell(&mut b, &dcfg);
    let mut ids = Vec::new();
    for i in 0..cfg.flows {
        let (s, r) = (db.senders[i], db.receivers[i]);
        let tcp_cfg = TcpConfig {
            ecn,
            ..Default::default()
        };
        // Stagger starts widely so the coverage measurement reflects
        // steady-state congestion episodes rather than a synchronized
        // slow-start pile-up (which trivially touches every flow).
        let start = SimTime::ZERO + SimDuration::from_millis(i as u64 * 300);
        ids.push(b.flow(s, r, start, Box::new(Sender::newreno(s, r, tcp_cfg))));
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + cfg.duration);

    let delivered: Vec<f64> = ids
        .iter()
        .map(|id| sim.flows[id.index()].transport.progress().bytes_delivered as f64)
        .collect();
    let detections: Vec<f64> = ids
        .iter()
        .map(|id| sim.flows[id.index()].transport.progress().loss_events as f64)
        .collect();
    let dm = lossburst_analysis::stats::mean(&detections);
    // Router-side signal records: drops for DropTail, marks for ECN.
    // Only steady-state episodes count (skip the start-up third of the run).
    let warmup = cfg.duration.as_secs_f64() / 3.0;
    let bottleneck = db.bottleneck;
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
    let bl = &sim.links[db.bottleneck.index()];
    GroupStats {
        jain_fairness: jain(&delivered),
        detections_mean: dm,
        signal_coverage: coverage,
        drops: bl.stats.dropped,
        utilization: bl.stats.transmitted_bytes as f64 * 8.0
            / (cfg.bottleneck_bps * cfg.duration.as_secs_f64()),
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
    fn jain_index_basics() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One flow hogging everything among n gives 1/n.
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[]), 0.0);
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

    #[test]
    fn fairness_is_reported_in_unit_range() {
        let mut cfg = EcnConfig::default_setup(29);
        cfg.flows = 8;
        cfg.duration = SimDuration::from_secs(10);
        let cmp = ecn_vs_droptail(&cfg);
        for g in [cmp.droptail, cmp.persistent_ecn] {
            assert!((0.0..=1.0 + 1e-9).contains(&g.jain_fairness));
        }
    }
}
