//! `fairness_grid` — the 60-cell controller-pair fairness matrix: every
//! unordered pair of {NewReno, SACK, CUBIC, BBR, TFRC} × {droptail, RED} ×
//! two noise levels, each cell a four-flow dumbbell with full tracing.
//! Transport-heavy where the campaign is event-loop-heavy, and cell cost
//! spans two orders of magnitude, so on a pool the slowest cell bounds the
//! fan-out.

use super::{Fnv, Job, JobOutput, Scale, TracedOutput};
use crate::span::Recorder;
use crate::stats::percentile;
use lossburst_core::fairness::{
    fairness_cell, fairness_matrix, Discipline, FairnessCell, FairnessConfig,
};
use lossburst_netsim::time::SimDuration;
use lossburst_transport::cc::CcAlgorithm;

/// Per-cell simulated duration at [`Scale::Full`], milliseconds.
const FULL_DURATION_MS: u64 = 30_000;

/// The prepared grid.
pub struct FairnessJob {
    cfg: FairnessConfig,
}

/// The grid's cells in matrix order with their seeds — the enumeration
/// `fairness_matrix` performs internally. The traced run checks its cells
/// against the product's bit for bit, so a drift here fails the run.
fn cell_jobs(cfg: &FairnessConfig) -> Vec<(CcAlgorithm, CcAlgorithm, Discipline, f64, u64)> {
    let mut jobs = Vec::new();
    for (i, &a) in cfg.algorithms.iter().enumerate() {
        for &b in &cfg.algorithms[i..] {
            for &d in &cfg.disciplines {
                for &n in &cfg.noise_levels {
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
    jobs
}

fn digest(cells: &[FairnessCell]) -> JobOutput {
    let mut out = JobOutput {
        work: cells.len() as f64,
        attempted: cells.len() as u64,
        ..JobOutput::default()
    };
    let mut h = Fnv::default();
    let mut drops = 0u64;
    for c in cells {
        h.eat_f64(c.jain);
        h.eat_f64(c.goodput_a_mbps);
        h.eat_f64(c.goodput_b_mbps);
        h.eat(c.drops);
        h.eat_f64(c.utilization);
        drops += c.drops;
        if !(c.jain > 0.0 && c.jain <= 1.0) {
            out.failed += 1;
            out.problems.push(format!(
                "cell {}x{} {} noise {}: Jain index {} outside (0, 1]",
                c.alg_a.name(),
                c.alg_b.name(),
                c.discipline.name(),
                c.noise,
                c.jain
            ));
        }
    }
    out.fingerprint = h.0;
    out.counts.push(("drops", drops));
    out
}

impl FairnessJob {
    /// Derive the grid from `seed`.
    pub fn prepare(seed: u64, scale: Scale) -> FairnessJob {
        let mut cfg = FairnessConfig::full(seed);
        cfg.duration = SimDuration::from_millis(FULL_DURATION_MS / scale.divisor());
        FairnessJob { cfg }
    }
}

impl Job for FairnessJob {
    fn run(&self) -> JobOutput {
        digest(&fairness_matrix(&self.cfg).cells)
    }

    fn run_traced(&self, rec: &mut Recorder) -> TracedOutput {
        let cells: Vec<FairnessCell> = rec.time("fairness_grid", None, |rec| {
            cell_jobs(&self.cfg)
                .into_iter()
                .enumerate()
                .map(|(i, (a, b, d, n, seed))| {
                    rec.time("core.fairness.cell", Some(i as u64), |_| {
                        fairness_cell(&self.cfg, a, b, d, n, seed)
                    })
                })
                .collect()
        });
        let cell_ms: Vec<f64> = rec
            .durations_s("core.fairness.cell")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let total: f64 = cell_ms.iter().sum();
        let max = percentile(&cell_ms, 1.0).unwrap_or(0.0);
        let layer = vec![
            (
                "core.fairness.cell_ms_p50",
                percentile(&cell_ms, 0.5).unwrap_or(0.0),
            ),
            ("core.fairness.cell_ms_max", max),
            (
                "core.fairness.straggler_share",
                if total > 0.0 {
                    100.0 * max / total
                } else {
                    0.0
                },
            ),
        ];
        TracedOutput {
            output: digest(&cells),
            layer,
        }
    }
}
