//! The five workloads.
//!
//! Each workload is a closed-loop batch job: [`prepare`] derives its
//! configuration from the seed (set-up), [`Job::run`] is the timed region
//! the end-to-end metrics come from, and [`Job::run_traced`] replaces each
//! product fan-out with a serial loop over the same public per-unit calls,
//! one span per call. Product code only ever sees generated configs.

pub mod bsp;
pub mod campaign;
pub mod fairness;
pub mod lab;
pub mod pipeline;

use crate::span::Recorder;
use std::path::Path;

/// How large a job is. `Full` is the size each workload is documented at;
/// every other scale divides the simulated duration (or superstep count)
/// by one factor, leaving populations — 650 paths, 1024 pairs, 60 cells,
/// 10^4 workers — untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The documented size: a 10–25 s job on one thread.
    Full,
    /// What the contract's time-boxed runs use: `Full` shortened 3x, which
    /// fits a warm-up and [`crate::harness::MIN_REPEATS`] one-thread
    /// repeats of the longest job into one `--seconds` window. It is also
    /// the most the campaign bears: its 2.67 s runs still overflow buffers
    /// and record loss, 2 s runs would not.
    Bench,
    /// Pre-flight only: `Full` shortened 50x. Never a reference number.
    Smoke,
}

impl Scale {
    /// The shortening factor relative to [`Scale::Full`].
    pub fn divisor(self) -> u64 {
        match self {
            Scale::Full => 1,
            Scale::Bench => 3,
            Scale::Smoke => 50,
        }
    }

    /// The command-line token.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Bench => "bench",
            Scale::Smoke => "smoke",
        }
    }

    /// Parse the command-line token.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Full, Scale::Bench, Scale::Smoke]
            .into_iter()
            .find(|v| v.as_str() == s)
    }
}

/// What one job produced, beyond its timings.
#[derive(Clone, Debug, Default)]
pub struct JobOutput {
    /// Work units completed (paths, simulated seconds, cells, records,
    /// transfers) — the numerator of `work_per_s`.
    pub work: f64,
    /// Operations attempted (paths, runs, cells, pipelines, transfers).
    pub attempted: u64,
    /// Operations that failed their own success criterion.
    pub failed: u64,
    /// FNV-1a over the simulated results. Identical across repeats of one
    /// seed; a pure speed-up must not change it, a behaviour fix may.
    pub fingerprint: u64,
    /// Exact counts that must repeat (events, drops, records…).
    pub counts: Vec<(&'static str, u64)>,
    /// Output checks that did not hold; empty on a correct run.
    pub problems: Vec<String>,
    /// FNV-1a of the job's on-disk artifact, where it writes one.
    pub artifact: Option<u64>,
}

impl JobOutput {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// A traced job's results: the same output plus the per-layer metrics its
/// spans yielded.
pub struct TracedOutput {
    /// What the traced loop produced; must equal the untraced run's.
    pub output: JobOutput,
    /// Per-layer metric values derived from the spans.
    pub layer: Vec<(&'static str, f64)>,
}

/// A prepared workload.
pub trait Job {
    /// The timed region: the product's own entry points, fan-outs and all.
    fn run(&self) -> JobOutput;
    /// The same work as a serial loop over per-unit public calls, with a
    /// span around each call into a layer.
    fn run_traced(&self, rec: &mut Recorder) -> TracedOutput;
}

/// Set up workload `name` for `seed` at `scale`; `dir` is a scratch
/// directory the job may write under. `None` for an unknown name.
pub fn prepare(name: &str, seed: u64, scale: Scale, dir: &Path) -> Option<Box<dyn Job>> {
    Some(match name {
        "campaign_650" => Box::new(campaign::CampaignJob::prepare(seed, scale, dir)),
        "lab_dense" => Box::new(lab::LabJob::prepare(seed, scale)),
        "fairness_grid" => Box::new(fairness::FairnessJob::prepare(seed, scale)),
        "trace_pipeline" => Box::new(pipeline::PipelineJob::prepare(seed, scale, dir)),
        "bsp_barrier" => Box::new(bsp::BspJob::prepare(seed, scale)),
        _ => return None,
    })
}

/// FNV-1a, the fingerprint accumulator every workload shares.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold in one 64-bit value.
    pub fn eat(&mut self, v: u64) {
        self.eat_bytes(&v.to_le_bytes());
    }

    /// Fold in a float's bit pattern.
    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    /// Fold in raw bytes.
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Run `f` and return its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
