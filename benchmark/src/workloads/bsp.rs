//! `bsp_barrier` — the lossy-BSP superstep engine at 10^4 workers: 1 MiB
//! transfers at 1 % mean loss and 16-packet mean bursts, once per
//! straggler mitigation. No `netsim` at all: Gilbert chain stepping, the
//! ARQ automaton, the barrier close, and 400 fan-outs of 10^4 tiny tasks
//! — inline in the timed one-thread jobs; in the traced run's pooled job,
//! the one place pool dispatch granularity is visible.

use super::{timed, Fnv, Job, JobOutput, Scale, TracedOutput};
use crate::span::Recorder;
use lossburst_core::bsp::{
    finalize_superstep, fingerprint_outcomes, run_bsp, superstep_workers, BspConfig, Mitigation,
};

/// Supersteps per mitigation at [`Scale::Full`].
const FULL_SUPERSTEPS: u64 = 100;

const MITIGATIONS: [Mitigation; 4] = [
    Mitigation::None,
    Mitigation::Diversity { alts: 3 },
    Mitigation::Redundancy { fraction: 0.1 },
    Mitigation::BurstAware,
];

/// The prepared machine: one config per mitigation.
pub struct BspJob {
    cfgs: Vec<BspConfig>,
}

impl BspJob {
    /// Derive the four runs from `seed`.
    pub fn prepare(seed: u64, scale: Scale) -> BspJob {
        let cfgs = MITIGATIONS
            .into_iter()
            .map(|mitigation| BspConfig {
                n_workers: 10_000,
                supersteps: (FULL_SUPERSTEPS / scale.divisor()) as usize,
                bytes_per_worker: 1024 * 1024,
                mean_loss_rate: 0.01,
                mean_burst_pkts: 16.0,
                seed,
                mitigation,
            })
            .collect();
        BspJob { cfgs }
    }
}

fn transfers(cfg: &BspConfig) -> u64 {
    (cfg.n_workers * cfg.supersteps) as u64
}

/// Accumulates the four runs' results into one output.
#[derive(Default)]
struct Digest {
    out: JobOutput,
    hash: Fnv,
}

impl Digest {
    /// One mitigation's run ended with `result`: (fingerprint, pooled tail
    /// mass) or the engine's error.
    fn add(&mut self, cfg: &BspConfig, result: Result<(u64, f64), String>) {
        let n = transfers(cfg);
        self.out.attempted += n;
        match result {
            Ok((fingerprint, tail)) => {
                self.hash.eat(fingerprint);
                self.hash.eat_f64(tail);
                self.out.work += n as f64;
                self.out.check(tail.is_finite() && tail >= 1.0, || {
                    format!(
                        "{}: pooled tail mass {tail} is not a finite ratio >= 1",
                        cfg.mitigation.label()
                    )
                });
            }
            Err(e) => {
                self.out.failed += n;
                self.out
                    .problems
                    .push(format!("{}: {e}", cfg.mitigation.label()));
            }
        }
    }

    fn finish(mut self) -> JobOutput {
        self.out.fingerprint = self.hash.0;
        self.out.counts.push(("transfers", self.out.work as u64));
        self.out
    }
}

impl Job for BspJob {
    fn run(&self) -> JobOutput {
        let mut digest = Digest::default();
        for cfg in &self.cfgs {
            let result = run_bsp(cfg)
                .map(|r| (r.fingerprint, r.pooled_tail_mass))
                .map_err(|e| e.to_string());
            digest.add(cfg, result);
        }
        digest.finish()
    }

    fn run_traced(&self, rec: &mut Recorder) -> TracedOutput {
        let mut digest = Digest::default();
        let mut layer = Vec::new();
        rec.time("bsp_barrier", None, |rec| {
            for cfg in &self.cfgs {
                let (result, secs) =
                    timed(|| rec.time("core.bsp.run", None, |rec| traced_bsp(cfg, rec)));
                digest.add(cfg, result);
                let name = match cfg.mitigation {
                    Mitigation::None => "core.bsp.ns_per_transfer.none",
                    Mitigation::Diversity { .. } => "core.bsp.ns_per_transfer.diversity3",
                    Mitigation::Redundancy { .. } => "core.bsp.ns_per_transfer.redundancy10",
                    Mitigation::BurstAware => "core.bsp.ns_per_transfer.burstaware",
                };
                layer.push((name, secs * 1e9 / transfers(cfg).max(1) as f64));
            }
        });
        layer.push(("core.bsp.workers_s", rec.total_s("core.bsp.workers")));
        layer.push(("core.bsp.finalize_s", rec.total_s("core.bsp.finalize")));
        TracedOutput {
            output: digest.finish(),
            layer,
        }
    }
}

/// `run_bsp` as its two public phases per superstep, a span around each.
/// Chains the per-superstep fingerprints exactly as the engine does, so
/// the result must equal `run_bsp`'s.
fn traced_bsp(cfg: &BspConfig, rec: &mut Recorder) -> Result<(u64, f64), String> {
    let workers: Vec<usize> = (0..cfg.n_workers).collect();
    let mut pooled: Vec<f64> = Vec::with_capacity(cfg.supersteps * cfg.n_workers);
    let mut chain = Fnv::default();
    for s in 0..cfg.supersteps {
        let mut outcomes = rec
            .time("core.bsp.workers", Some(s as u64), |_| {
                superstep_workers(cfg, s, &workers)
            })
            .map_err(|e| e.to_string())?;
        rec.time("core.bsp.finalize", Some(s as u64), |_| {
            finalize_superstep(cfg, s, &mut outcomes)
        })
        .map_err(|e| e.to_string())?;
        pooled.extend(outcomes.iter().map(|o| o.slowdown));
        chain.eat(fingerprint_outcomes(&outcomes));
    }
    let tail = lossburst_analysis::stats::tail_mass(&pooled)
        .ok_or_else(|| "pooled slowdowns are degenerate".to_string())?;
    Ok((chain.0, tail))
}
