//! The bursty-loss fairness matrix: every pair of congestion controllers
//! competing on a shared bottleneck, across queue disciplines and
//! burstiness levels.
//!
//! The paper's Section 4 shows one such pairing (Pacing vs NewReno, Fig 7)
//! and argues the mechanism generalizes: controllers that *spread* packets
//! see more of each bursty loss episode and back off more, so they lose
//! capacity to controllers that *burst*. With the pluggable
//! [`CcAlgorithm`] API the whole cross-product becomes one experiment:
//! each cell runs `flows_per_class` flows of controller A against the same
//! number of controller B (A = B on the diagonal), injects exponential
//! on-off noise to modulate how bursty the loss process is, and reports
//! Jain's fairness index over all foreground flows plus per-class goodput.

use crate::impact::{class, goodput_mbps, shared_bottleneck, utilization};
use lossburst_analysis::stats::jain_fairness;
use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::RttAssignment;
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::onoff::OnOff;
use rayon::prelude::*;
use std::fmt::Write as _;

/// Bottleneck queue discipline for a fairness cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Tail-drop FIFO: the paper's baseline, maximally bursty losses.
    DropTail,
    /// Random Early Detection: probabilistic drops spread the signal.
    Red,
}

impl Discipline {
    /// Short name used in CSV rows.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::DropTail => "droptail",
            Discipline::Red => "red",
        }
    }

    fn queue(self, buffer_pkts: usize) -> QueueDisc {
        match self {
            Discipline::DropTail => QueueDisc::drop_tail(buffer_pkts),
            Discipline::Red => QueueDisc::red(buffer_pkts),
        }
    }
}

/// Grid parameters.
#[derive(Clone, Debug)]
pub struct FairnessConfig {
    /// Controllers to pair up (all unordered pairs, including self-pairs).
    pub algorithms: Vec<CcAlgorithm>,
    /// Bottleneck disciplines to sweep.
    pub disciplines: Vec<Discipline>,
    /// On-off noise loads as a fraction of bottleneck capacity; higher
    /// noise makes overflow episodes burstier and less predictable.
    pub noise_levels: Vec<f64>,
    /// Foreground flows per controller class.
    pub(crate) flows_per_class: usize,
    /// Bottleneck capacity.
    pub(crate) bottleneck_bps: f64,
    /// Path RTT (both classes get the same RTT: any goodput asymmetry is
    /// then attributable to the controllers, not the paths).
    pub(crate) rtt: SimDuration,
    /// Bottleneck buffer, packets.
    pub(crate) buffer_pkts: usize,
    /// Run length per cell.
    pub duration: SimDuration,
    /// Base seed; each cell derives its own deterministic child seed.
    pub seed: u64,
}

impl FairnessConfig {
    /// CI-scale grid: {NewReno, CUBIC} × {DropTail, RED}, no noise — four
    /// controller pairings over two disciplines in a few seconds.
    pub fn quick(seed: u64) -> FairnessConfig {
        FairnessConfig {
            algorithms: vec![CcAlgorithm::NewReno, CcAlgorithm::Cubic],
            disciplines: vec![Discipline::DropTail, Discipline::Red],
            noise_levels: vec![0.0],
            flows_per_class: 2,
            bottleneck_bps: 20e6,
            rtt: SimDuration::from_millis(40),
            buffer_pkts: 100,
            duration: SimDuration::from_secs(8),
            seed,
        }
    }

    /// Full matrix: the window/rate axis end to end — NewReno, SACK,
    /// CUBIC, BBR, and TFRC — across both disciplines and two noise
    /// levels.
    pub fn full(seed: u64) -> FairnessConfig {
        FairnessConfig {
            algorithms: vec![
                CcAlgorithm::NewReno,
                CcAlgorithm::Sack,
                CcAlgorithm::Cubic,
                CcAlgorithm::Bbr,
                CcAlgorithm::Tfrc,
            ],
            disciplines: vec![Discipline::DropTail, Discipline::Red],
            noise_levels: vec![0.0, 0.25],
            flows_per_class: 2,
            bottleneck_bps: 20e6,
            rtt: SimDuration::from_millis(40),
            buffer_pkts: 100,
            duration: SimDuration::from_secs(15),
            seed,
        }
    }
}

/// One grid cell: a controller pairing under one discipline and noise
/// level.
#[derive(Clone, Copy, Debug)]
pub struct FairnessCell {
    /// First controller class.
    pub alg_a: CcAlgorithm,
    /// Second controller class (equal to `alg_a` on the diagonal).
    pub alg_b: CcAlgorithm,
    /// Bottleneck discipline.
    pub discipline: Discipline,
    /// On-off noise load, fraction of bottleneck capacity.
    pub noise: f64,
    /// Jain's fairness index over all foreground flows' goodput.
    pub jain: f64,
    /// Mean per-flow goodput of class A, Mbps.
    pub goodput_a_mbps: f64,
    /// Mean per-flow goodput of class B, Mbps.
    pub goodput_b_mbps: f64,
    /// Packets dropped at the bottleneck.
    pub drops: u64,
    /// Bottleneck utilization over the run.
    pub utilization: f64,
}

/// The completed grid.
#[derive(Clone, Debug)]
pub struct FairnessMatrix {
    /// One cell per (pair, discipline, noise) combination.
    pub cells: Vec<FairnessCell>,
}

impl FairnessMatrix {
    /// Smallest Jain index in the grid (the worst pairing).
    pub fn min_jain(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.jain)
            .fold(f64::INFINITY, f64::min)
    }

    /// Render as CSV (header + one row per cell).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "alg_a,alg_b,discipline,noise,jain,goodput_a_mbps,goodput_b_mbps,drops,utilization\n",
        );
        for c in &self.cells {
            writeln!(
                out,
                "{},{},{},{:.2},{:.6},{:.4},{:.4},{},{:.4}",
                c.alg_a.name(),
                c.alg_b.name(),
                c.discipline.name(),
                c.noise,
                c.jain,
                c.goodput_a_mbps,
                c.goodput_b_mbps,
                c.drops,
                c.utilization,
            )
            .expect("write to String cannot fail");
        }
        out
    }
}

/// Run one cell: `flows_per_class` of `alg_a` vs the same of `alg_b`.
pub fn fairness_cell(
    cfg: &FairnessConfig,
    alg_a: CcAlgorithm,
    alg_b: CcAlgorithm,
    discipline: Discipline,
    noise: f64,
    cell_seed: u64,
) -> FairnessCell {
    // Interleave classes across pairs (as in the Fig 7 competition) so
    // construction order cannot privilege either class, and stagger starts
    // so slow starts do not synchronize. Exponential on-off noise runs on
    // dedicated pairs after them: bursty arrivals that cluster the queue's
    // overflow episodes.
    let foreground = 2 * cfg.flows_per_class;
    let n_noise = if noise > 0.0 { 4 } else { 0 };
    let starts: Vec<SimTime> = (0..foreground)
        .map(|i| SimDuration::from_millis(13 * i as u64))
        .chain((0..n_noise).map(|j| SimDuration::from_millis(5 * j as u64)))
        .map(|d| SimTime::ZERO + d)
        .collect();
    let spec = FlowSpec::new(cfg.rtt);
    let (sim, flows, bottleneck) = shared_bottleneck(
        SimBuilder::new(cell_seed).trace(TraceConfig::none()),
        cfg.bottleneck_bps,
        RttAssignment::Fixed(cfg.rtt),
        discipline.queue(cfg.buffer_pkts),
        cfg.duration,
        &starts,
        |i, s, r| {
            if i < foreground {
                return [alg_a, alg_b][i % 2].build_flow(s, r, &spec);
            }
            Box::new(OnOff::with_average_rate(
                s,
                r,
                500,
                cfg.bottleneck_bps * noise / n_noise as f64,
                SimDuration::from_millis(100),
                SimDuration::from_millis(300),
            ))
        },
    );
    let secs = cfg.duration.as_secs_f64();
    let class_mbps = |k| -> Vec<f64> {
        let bytes = class(&flows[..foreground], k).map(|h| sim.flow(h).progress().bytes_delivered);
        bytes.map(|b| goodput_mbps(b, secs)).collect()
    };
    let (a, b) = (class_mbps(0), class_mbps(1));
    let mean = |g: &[f64]| g.iter().sum::<f64>() / g.len().max(1) as f64;
    FairnessCell {
        alg_a,
        alg_b,
        discipline,
        noise,
        jain: jain_fairness(&[a.as_slice(), &b].concat()),
        goodput_a_mbps: mean(&a),
        goodput_b_mbps: mean(&b),
        drops: sim.links[bottleneck.index()].stats.dropped,
        utilization: utilization(&sim, bottleneck, cfg.bottleneck_bps, secs),
    }
}

/// Run the full grid: all unordered controller pairs (including
/// self-pairs) × disciplines × noise levels, in parallel. Cell seeds are
/// derived deterministically from the base seed and the cell's grid
/// coordinates, so the matrix is byte-identical across execution policies.
pub fn fairness_matrix(cfg: &FairnessConfig) -> FairnessMatrix {
    let mut jobs: Vec<(CcAlgorithm, CcAlgorithm, Discipline, f64, u64)> = Vec::new();
    for (i, &a) in cfg.algorithms.iter().enumerate() {
        for &b in &cfg.algorithms[i..] {
            for &d in &cfg.disciplines {
                for &n in &cfg.noise_levels {
                    // Stable coordinate-derived child seed (splitmix-style
                    // odd multiplier keeps cells decorrelated).
                    let idx = jobs.len() as u64;
                    let cell_seed = cfg
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(idx.wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1);
                    jobs.push((a, b, d, n, cell_seed));
                }
            }
        }
    }
    let cells: Vec<FairnessCell> = jobs
        .par_iter()
        .map(|&(a, b, d, n, s)| fairness_cell(cfg, a, b, d, n, s))
        .collect();
    FairnessMatrix { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_reports_unit_range_jain_for_every_cell() {
        let mut cfg = FairnessConfig::quick(7);
        cfg.duration = SimDuration::from_secs(5);
        let m = fairness_matrix(&cfg);
        // {NewReno, Cubic} → 3 unordered pairs × 2 disciplines × 1 noise.
        assert_eq!(m.cells.len(), 6);
        for c in &m.cells {
            assert!(
                c.jain > 0.0 && c.jain <= 1.0 + 1e-9,
                "jain {} out of range for {}/{}",
                c.jain,
                c.alg_a.name(),
                c.alg_b.name()
            );
            assert!(c.goodput_a_mbps > 0.0 && c.goodput_b_mbps > 0.0);
            assert!(c.utilization > 0.2, "bottleneck idle: {}", c.utilization);
        }
    }

    #[test]
    fn self_pairing_is_fair() {
        // Identical controllers over identical paths must split the link
        // evenly; allow slack for loss-phase luck in a short run.
        let mut cfg = FairnessConfig::quick(11);
        cfg.duration = SimDuration::from_secs(8);
        let c = fairness_cell(
            &cfg,
            CcAlgorithm::NewReno,
            CcAlgorithm::NewReno,
            Discipline::DropTail,
            0.0,
            1101,
        );
        assert!(c.jain > 0.7, "self-pairing jain {}", c.jain);
    }

    #[test]
    fn matrix_is_deterministic_for_a_seed() {
        let mut cfg = FairnessConfig::quick(3);
        cfg.duration = SimDuration::from_secs(3);
        let a = fairness_matrix(&cfg).to_csv();
        let b = fairness_matrix(&cfg).to_csv();
        assert_eq!(a, b);
    }

    #[test]
    fn csv_has_header_and_one_row_per_cell() {
        let mut cfg = FairnessConfig::quick(5);
        cfg.duration = SimDuration::from_secs(2);
        let m = fairness_matrix(&cfg);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), m.cells.len() + 1);
        assert!(lines[0].starts_with("alg_a,alg_b,discipline"));
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), 9);
        }
    }

    #[test]
    fn noise_levels_multiply_the_grid() {
        let mut cfg = FairnessConfig::quick(9);
        cfg.duration = SimDuration::from_secs(2);
        cfg.noise_levels = vec![0.0, 0.3];
        cfg.disciplines = vec![Discipline::DropTail];
        let m = fairness_matrix(&cfg);
        assert_eq!(m.cells.len(), 3 * 2);
        assert!(m.cells.iter().any(|c| c.noise > 0.0));
    }
}
