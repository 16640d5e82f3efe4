//! The lossy Bulk Synchronous Parallel (BSP) superstep engine — ROADMAP
//! item 4, and the paper's Section 5 implication pushed to a scale the
//! 2007 measurement could not touch.
//!
//! A BSP superstep runs N parallel transfers over heterogeneous lossy
//! paths and closes with a barrier, so the superstep time is the *max*
//! over workers: one bursty path stalls the whole machine. The paper shows
//! this for k ≤ 32 parallel flows (Fig 8); here N reaches 10^4 workers,
//! each with its own path scenario and its own Gilbert–Elliott loss
//! process, so the straggler tail can be measured as a function of loss
//! *burstiness* at fixed mean loss rate — and three mitigations (path
//! diversity, redundant transfers, burst-aware chunking) can be priced.
//!
//! ## The transfer automaton
//!
//! Packet-level simulation of 10^4 concurrent transfers per superstep is
//! out of reach, and emergent netsim loss cannot hold the mean loss rate
//! fixed while the burst length sweeps. The engine therefore walks a
//! chunk-level ARQ automaton over an explicit Gilbert chain
//! ([`lossburst_analysis::gilbert::Chain`]):
//!
//! * every packet costs one wire time (`MTU · 8 · 1.04 / bottleneck_bps`,
//!   the same 4% header overhead as [`crate::impact::try_theoretic_lower_bound`]);
//! * each chunk costs one RTT of handshake (request + completion);
//! * a loss run of ≤ `DUPACK_RUN` packets is repaired by fast recovery
//!   (one extra RTT); a longer run forces a timeout —
//!   `max(0.2 s, 4·RTT)` plus go-back retransmission of everything
//!   delivered since the last loss event or chunk boundary (chunks bound
//!   the go-back window; that is the whole point of chunking).
//!
//! The walk is over the chain's *sojourns*, not its packets. The cost
//! model above reads nothing of a Good run but its length and the chunk
//! boundaries inside it, and nothing of a Bad run but its length, so the
//! automaton asks the chain for whole runs ([`Chain::sojourn`], one draw
//! each) and prices a Good run of `m` packets in closed form. A two-state
//! Markov chain's run lengths are geometric and independent, so this is
//! the per-packet process exactly, in distribution — at ~4 draws per 1 MiB
//! transfer (1 % loss, 16-packet bursts: the state changes ~1.3 times in
//! 1 049 packets) where stepping every packet took ~1 060. The automaton
//! accumulates four integer counts (transmission attempts, RTTs, timeouts,
//! go-back packets) and turns them into seconds once; a test-only
//! per-packet walk fed the same runs must produce the same four integers.
//!
//! Burstiness enters *only* through the run-length distribution: at fixed
//! mean loss rate, longer bursts turn many cheap fast recoveries into few
//! expensive timeouts, which is exactly the overdispersion that fattens
//! the barrier tail. Worker slowdowns are completion time over the
//! *model-expected* time of the plan the scheduler actually executed
//! (chosen path, chosen chunking), so the tail mass (P99 / median of
//! slowdowns) measures residual unpredictability — how far the realized
//! distribution spreads around what the mean loss rate predicts — rather
//! than static path heterogeneity or a uniform speed-up the plan already
//! priced in.
//!
//! ## Determinism and sharding
//!
//! Worker `w`'s path alternatives are grid indices `w·MAX_ALTS + a` of the
//! campaign [`GridSample`] — the identical identity rule
//! `try_measure_path_grid_streaming` uses — and every random draw comes
//! from a stream keyed by `(seed, superstep, worker, alt)` coordinates alone.
//! Striping workers across shards therefore reproduces the 1-shard run
//! byte-for-byte at any shard count.
//!
//! A sharded run is a supervised campaign whose paths are records: worker
//! `w` of superstep `s` is record `s·n_workers + w`, a [`WorkerOutcome`]
//! ([`crate::supervisor::PathRecord`]). A shard ([`run_bsp_shard`]) plans
//! its stripe of workers once and supervises its records into its own
//! checkpoint; [`collect_bsp`] merges the shard files, restores every
//! record (re-running any a shard did not finish) and closes the run
//! through the same [`run_bsp`] close. [`run_bsp_sharded`] is that
//! shard → merge → collect sequence in one process, and the `shard` bin's
//! `bsp` verb runs it across processes.

use lossburst_analysis::gilbert::{Chain, GilbertParams};
use lossburst_analysis::stats::{tail_mass_in_place, try_quantile, try_quantiles_in_place};
use lossburst_inet::campaign::GridSample;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::sim::RunLimits;
use rand::RngExt;
use rayon::prelude::*;
use std::path::Path;

use crate::error::{Error, Result};
use crate::shard::{merge_shard_files, merged_checkpoint_path, shard_checkpoint_path};
use crate::shard::{shard_indices, ShardReport, ShardSpec};
use crate::supervisor::Tokens;
use crate::supervisor::{campaign_fingerprint, supervise, supervise_subset, SupervisedRun};
use crate::supervisor::{LedgerEntry, PathFailure, PathOutcome, PathRecord, SupervisorConfig};

/// Path alternatives derived per worker (alternative 0 is the default
/// path; diversity and redundancy may use the others).
pub(crate) const MAX_ALTS: usize = 4;

/// Packet size of the automaton, matching the netsim MTU.
pub(crate) const MTU_BYTES: u64 = 1000;

/// Header overhead multiplier, matching `try_theoretic_lower_bound`'s 4%.
pub(crate) const WIRE_OVERHEAD: f64 = 1.04;

/// Loss runs up to this length are repaired by fast recovery (one RTT);
/// longer runs force a retransmission timeout.
pub(crate) const DUPACK_RUN: u64 = 2;

/// Floor of the retransmission timeout, seconds (RFC-style minimum RTO).
pub(crate) const MIN_RTO_SECS: f64 = 0.2;

/// Smallest chunk the burst-aware scheduler will consider.
pub const MIN_CHUNK_BYTES: u64 = 8 * MTU_BYTES;

/// A straggler mitigation strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mitigation {
    /// Every worker uses its default path, whole-transfer chunks.
    None,
    /// Each worker pilots its first `alts` path alternatives with the
    /// closed-form cost model and transfers over the cheapest.
    Diversity {
        /// Alternatives considered, `2..=MAX_ALTS`.
        alts: usize,
    },
    /// After the primary transfers, the slowest `fraction` of workers get
    /// a duplicate transfer on their backup path, started at the
    /// `1 − fraction` completion quantile, with cancel-on-first-finish.
    Redundancy {
        /// Fraction of workers duplicated, `(0, 0.5]`.
        fraction: f64,
    },
    /// Each worker picks its chunk size (halvings of the whole transfer,
    /// down to [`MIN_CHUNK_BYTES`]) by the cost model: burstier paths get
    /// smaller chunks, bounding go-back waste at the price of handshakes.
    BurstAware,
}

impl Mitigation {
    /// Short stable label for reports and JSON keys.
    pub fn label(&self) -> String {
        match self {
            Mitigation::None => "none".into(),
            Mitigation::Diversity { alts } => format!("diversity{alts}"),
            Mitigation::Redundancy { fraction } => {
                format!("redundancy{}", (fraction * 100.0).round() as u64)
            }
            Mitigation::BurstAware => "burstaware".into(),
        }
    }
}

/// The exact argument form, which [`Mitigation`]'s `FromStr` reads back
/// bit for bit: [`Mitigation::label`] but for redundancy, which writes its
/// fraction (`redundancy=0.004`) where the label rounds a percentage.
impl std::fmt::Display for Mitigation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mitigation::Redundancy { fraction } => write!(f, "redundancy={fraction}"),
            m => f.write_str(&m.label()),
        }
    }
}

impl std::str::FromStr for Mitigation {
    type Err = String;

    /// Parse `none`, `diversityK`, `redundancyPCT` (a percentage),
    /// `redundancy=F` (the fraction itself, as `Display` writes it) or
    /// `burstaware`. Ranges are [`BspConfig::validate`]'s to check.
    fn from_str(label: &str) -> std::result::Result<Mitigation, String> {
        let diversity = |alts: &str| {
            Some(Mitigation::Diversity {
                alts: alts.parse().ok()?,
            })
        };
        let redundancy = |amount: &str| {
            let fraction = match amount.strip_prefix('=') {
                Some(fraction) => fraction.parse().ok()?,
                None => amount.parse::<f64>().ok()? / 100.0,
            };
            Some(Mitigation::Redundancy { fraction })
        };
        match label {
            "none" => Some(Mitigation::None),
            "burstaware" => Some(Mitigation::BurstAware),
            _ => (label.strip_prefix("diversity").and_then(diversity))
                .or_else(|| label.strip_prefix("redundancy").and_then(redundancy)),
        }
        .ok_or_else(|| {
            format!("unknown mitigation {label:?}; try none, diversity3, redundancy10, burstaware")
        })
    }
}

/// Configuration of a lossy-BSP run.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Parallel workers per superstep (the sweep axis: 10^2–10^4).
    pub n_workers: usize,
    /// Supersteps to run (each re-draws loss processes, not paths).
    pub supersteps: usize,
    /// Bytes each worker must move per superstep.
    pub bytes_per_worker: u64,
    /// Mean packet loss rate, held fixed while burstiness sweeps.
    pub mean_loss_rate: f64,
    /// Mean loss-burst length in packets (1 ⇒ memoryless).
    pub mean_burst_pkts: f64,
    /// Master seed: paths, Gilbert jitter, and chain draws all derive
    /// from it by coordinates.
    pub seed: u64,
    /// Straggler mitigation in force.
    pub mitigation: Mitigation,
}

impl BspConfig {
    /// Reject configurations the engine cannot run: a 0-worker superstep
    /// has no barrier max, a 0-byte transfer no wire time, and loss
    /// parameters outside their domains would produce a degenerate chain.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(Error::Config(msg));
        if self.n_workers == 0 {
            return fail("n_workers must be positive (a 0-worker superstep has no barrier)".into());
        }
        if self.supersteps == 0 {
            return fail("supersteps must be positive".into());
        }
        if self.bytes_per_worker == 0 {
            return fail("bytes_per_worker must be positive".into());
        }
        if !(self.mean_loss_rate > 0.0 && self.mean_loss_rate < 0.5) {
            return fail(format!(
                "mean_loss_rate must be in (0, 0.5), got {}",
                self.mean_loss_rate
            ));
        }
        if !(self.mean_burst_pkts.is_finite() && self.mean_burst_pkts >= 1.0) {
            return fail(format!(
                "mean_burst_pkts must be finite and >= 1, got {}",
                self.mean_burst_pkts
            ));
        }
        match self.mitigation {
            Mitigation::Diversity { alts } if !(2..=MAX_ALTS).contains(&alts) => fail(format!(
                "diversity alts must be in 2..={MAX_ALTS}, got {alts}"
            )),
            Mitigation::Redundancy { fraction } if !(fraction > 0.0 && fraction <= 0.5) => fail(
                format!("redundancy fraction must be in (0, 0.5], got {fraction}"),
            ),
            _ => Ok(()),
        }
    }
}

/// One worker's completion of one superstep.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerOutcome {
    /// Global worker index (shard-invariant identity).
    pub worker: usize,
    /// Completion time, seconds (after any redundancy rescue).
    pub secs: f64,
    /// `secs` over the *model-expected* time of the transfer the
    /// scheduler actually planned (chosen path, chosen chunking). A value
    /// near 1 means the transfer took about what its mean loss rate
    /// predicts; the spread of this ratio across workers is the
    /// unpredictability bursty loss creates — the quantity a barrier
    /// converts into straggler wait, and the one mitigations exist to
    /// shrink.
    pub slowdown: f64,
    /// Path alternative the primary transfer used.
    pub alt: usize,
    /// Chunk size the transfer used.
    pub chunk_bytes: u64,
}

/// Distributional summary of one superstep.
#[derive(Clone, Debug)]
pub struct SuperstepStats {
    /// Workers in the superstep.
    pub n_workers: usize,
    /// Barrier time: max completion over workers, seconds.
    pub barrier_secs: f64,
    /// Median completion, seconds.
    pub median_secs: f64,
    /// 99th-percentile completion, seconds.
    pub p99_secs: f64,
    /// Straggler tail mass: P99 / median of per-worker *slowdowns*
    /// (completion over the plan's model-expected time). Normalizing per
    /// worker removes static path heterogeneity (RTT, capacity) and any
    /// speed-up the plan already priced in, so the ratio isolates what
    /// the loss process itself does to the tail.
    pub tail_mass: f64,
}

/// Aggregate report of a full lossy-BSP run.
#[derive(Clone, Debug)]
pub struct BspReport {
    /// Per-superstep summaries, in superstep order.
    pub stats: Vec<SuperstepStats>,
    /// Tail mass of the pooled per-worker slowdowns across all
    /// supersteps.
    pub pooled_tail_mass: f64,
    /// Order-sensitive FNV-1a fingerprint over every worker completion
    /// time's bits — byte-identical runs have equal fingerprints.
    pub fingerprint: u64,
}

/// A worker path alternative: the grid scenario's wire parameters plus
/// the jittered Gilbert loss process.
#[derive(Clone, Copy, Debug)]
struct WorkerPath {
    rtt: f64,
    bps: f64,
    gilbert: GilbertParams,
}

/// Stream id for per-path quantities (jitter): independent of superstep,
/// so a worker keeps its paths for the whole run.
fn path_stream(worker: usize, alt: usize, tag: u64) -> u64 {
    0xB5F0_0000_0000 | (worker as u64) << 8 | (alt as u64) << 3 | tag
}

/// Stream id for per-superstep draws (the chain walk, redundancy backup).
fn walk_stream(superstep: usize, worker: usize, alt: usize, tag: u64) -> u64 {
    (superstep as u64 + 1) << 44 ^ ((worker as u64) << 8 | (alt as u64) << 3 | tag)
}

/// Log-uniform factor in [0.5, 2]: `2^(2u − 1)`.
fn log_uniform_half_to_double(rng: &mut rand::rngs::SmallRng) -> f64 {
    let u: f64 = rng.random();
    (2.0f64).powf(2.0 * u - 1.0)
}

fn worker_path(book: &GridSample, cfg: &BspConfig, worker: usize, alt: usize) -> WorkerPath {
    let sc = book.scenario(worker * MAX_ALTS + alt);
    // Per-path jitter makes the grid heterogeneous around the configured
    // means. The loss-rate jitter and the burst jitter come from separate
    // streams so the per-worker loss rates are invariant when the burst
    // sweep changes `mean_burst_pkts` — "fixed mean loss" holds per worker,
    // not just in aggregate.
    let mut jl = Sampler::child_rng(cfg.seed, path_stream(worker, alt, 0));
    let mut jb = Sampler::child_rng(cfg.seed, path_stream(worker, alt, 1));
    let loss = (cfg.mean_loss_rate * log_uniform_half_to_double(&mut jl)).clamp(1e-4, 0.3);
    let burst = (cfg.mean_burst_pkts * log_uniform_half_to_double(&mut jb)).max(1.0);
    let r = 1.0 / burst;
    let p = loss * r / (1.0 - loss);
    WorkerPath {
        rtt: sc.rtt.as_secs_f64(),
        bps: sc.bottleneck_bps,
        gilbert: GilbertParams { p, r },
    }
}

fn pkt_wire_secs(bps: f64) -> f64 {
    MTU_BYTES as f64 * 8.0 * WIRE_OVERHEAD / bps
}

fn rto_secs(rtt: f64) -> f64 {
    (4.0 * rtt).max(MIN_RTO_SECS)
}

/// Loss-free transfer time: every packet's wire time plus one RTT of
/// handshake per chunk. This is the automaton with the chain forced Good.
fn base_secs(bytes: u64, chunk_bytes: u64, path: &WorkerPath) -> f64 {
    let n_pkts = packets(bytes);
    let n_chunks = n_pkts.div_ceil(packets(chunk_bytes));
    n_pkts as f64 * pkt_wire_secs(path.bps) + n_chunks as f64 * path.rtt
}

/// Packets that carry `bytes` (≥ 1): a transfer's, or a chunk's.
fn packets(bytes: u64) -> u64 {
    bytes.div_ceil(MTU_BYTES).max(1)
}

/// What one transfer cost, in the automaton's four integer currencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TransferCounts {
    /// Packet transmissions, lost or delivered: one wire time each.
    attempts: u64,
    /// Chunk handshakes plus fast recoveries: one RTT each.
    rtts: u64,
    /// Retransmission timeouts: one RTO each.
    rtos: u64,
    /// Packets re-sent by go-back after timeouts: one wire time each.
    goback_pkts: u64,
}

/// The transfer automaton: deliver `n_pkts` packets over a loss process
/// given as alternating run lengths — `sojourn()` returns how many packets
/// (≥ 1) share the current state, the first state being Bad iff
/// `starts_bad`, each call flipping it.
fn walk_sojourns(
    n_pkts: u64,
    pkts_per_chunk: u64,
    starts_bad: bool,
    mut sojourn: impl FnMut() -> u64,
) -> TransferCounts {
    let mut c = TransferCounts::default();
    let mut delivered = 0u64;
    // Delivered packets since the last loss event (or chunk boundary):
    // the go-back window a timeout re-sends.
    let mut since_event = 0u64;
    // The loss run in front of the next delivered packet.
    let mut lost_run = if starts_bad { sojourn() } else { 0 };
    while delivered < n_pkts {
        let mut good = sojourn().min(n_pkts - delivered);
        if lost_run > 0 {
            // The Good run's first packet is the one the lost attempts
            // were for: it opens its chunk if it is the chunk's first,
            // gets through, and pays for the run behind it.
            if delivered.is_multiple_of(pkts_per_chunk) {
                c.rtts += 1; // chunk handshake: request + completion
                since_event = 0;
            }
            c.attempts = c.attempts.saturating_add(lost_run).saturating_add(1);
            if lost_run <= DUPACK_RUN {
                // Short run: duplicate ACKs trigger fast recovery.
                c.rtts += 1;
            } else {
                // Long run: retransmission timeout, then go-back over the
                // un-acked window. The window is everything delivered
                // since the last ack point, so chunk size bounds it.
                c.rtos += 1;
                c.goback_pkts += since_event;
            }
            since_event = 0;
            delivered += 1;
            good -= 1;
        }
        if good > 0 {
            // `good` first-try deliveries, a handshake at every chunk
            // boundary among them. No delivery is un-acked going in (the
            // transfer just began, or a loss event just cleared the
            // window), so the go-back window opens at the run's first
            // packet or at the last boundary inside it.
            let end = delivered + good;
            let last_boundary = (end - 1) / pkts_per_chunk * pkts_per_chunk;
            c.attempts = c.attempts.saturating_add(good);
            c.rtts += end.div_ceil(pkts_per_chunk) - delivered.div_ceil(pkts_per_chunk);
            since_event = end - last_boundary.max(delivered);
            delivered = end;
        }
        if delivered < n_pkts {
            lost_run = sojourn();
        }
    }
    c
}

/// Everything a transfer over one path in one chunking reads that no draw
/// changes, computed once: the path's run-length law (a [`Chain`] whose
/// start state every transfer redraws), its RTT, wire time and RTO, and
/// the packets per chunk. A transfer then only draws and prices.
#[derive(Clone, Copy, Debug)]
struct Transfer {
    law: Chain,
    rtt: f64,
    wire_secs: f64,
    rto_secs: f64,
    pkts_per_chunk: u64,
}

impl Transfer {
    fn new(path: &WorkerPath, chunk_bytes: u64) -> Transfer {
        Transfer {
            // Started Good on a u = 1 draw; each walk restarts it.
            law: Chain::new(path.gilbert, || 1.0),
            rtt: path.rtt,
            wire_secs: pkt_wire_secs(path.bps),
            rto_secs: rto_secs(path.rtt),
            pkts_per_chunk: packets(chunk_bytes),
        }
    }

    /// Walk the automaton over the law drawn from `next_u01`: one draw for
    /// the start state, one per run.
    fn counts(&self, n_pkts: u64, mut next_u01: impl FnMut() -> f64) -> TransferCounts {
        let mut chain = self.law;
        chain.restart(&mut next_u01);
        walk_sojourns(n_pkts, self.pkts_per_chunk, chain.is_bad(), || {
            chain.sojourn(&mut next_u01)
        })
    }

    /// Completion time of `n_pkts` packets over a chain seeded from `rng`.
    fn secs(&self, n_pkts: u64, rng: &mut rand::rngs::SmallRng) -> f64 {
        let c = self.counts(n_pkts, || rng.random::<f64>());
        c.attempts.saturating_add(c.goback_pkts) as f64 * self.wire_secs
            + c.rtts as f64 * self.rtt
            + c.rtos as f64 * self.rto_secs
    }
}

/// Closed-form pilot of the automaton's expected time, used by the
/// diversity and burst-aware policies to choose a path / chunk size
/// without spending chain draws. Mirrors the automaton's cost model:
/// loss runs start at rate `ℓ·r` per packet, a run is a timeout with
/// probability `(1−r)²`, and go-back waste is bounded by the chunk, the
/// cap, and the event spacing.
fn expected_secs(bytes: u64, chunk_bytes: u64, path: &WorkerPath) -> f64 {
    let wire = pkt_wire_secs(path.bps);
    let rto = rto_secs(path.rtt);
    let n_pkts = bytes.div_ceil(MTU_BYTES) as f64;
    let pkts_per_chunk = chunk_bytes.div_ceil(MTU_BYTES).max(1) as f64;
    let l = path.gilbert.loss_rate();
    let r = path.gilbert.r;
    let base = base_secs(bytes, chunk_bytes, path);
    let events = n_pkts * l * r;
    let retx = n_pkts * l / (1.0 - l).max(1e-9) * wire;
    let p_timeout = (1.0 - r).powi(2);
    let spacing = if l * r > 0.0 {
        1.0 / (l * r)
    } else {
        f64::INFINITY
    };
    let waste = spacing.min(pkts_per_chunk) * 0.5;
    base + retx + events * ((1.0 - p_timeout) * path.rtt + p_timeout * (rto + waste * wire))
}

/// Dispersion pilot: one standard deviation of the automaton's time under
/// Poisson timeout counts — `sqrt(expected timeouts) · timeout cost`. The
/// straggler tail is a variance phenomenon, so the diversity policy scores
/// paths by `expected + 2·risk` rather than expectation alone: a smooth
/// slightly-slower path beats a bursty nominally-faster one.
fn risk_secs(bytes: u64, chunk_bytes: u64, path: &WorkerPath) -> f64 {
    let wire = pkt_wire_secs(path.bps);
    let rto = rto_secs(path.rtt);
    let n_pkts = bytes.div_ceil(MTU_BYTES) as f64;
    let pkts_per_chunk = chunk_bytes.div_ceil(MTU_BYTES).max(1) as f64;
    let l = path.gilbert.loss_rate();
    let r = path.gilbert.r;
    let timeouts = n_pkts * l * r * (1.0 - r).powi(2);
    let spacing = if l * r > 0.0 {
        1.0 / (l * r)
    } else {
        f64::INFINITY
    };
    let waste = spacing.min(pkts_per_chunk) * 0.5;
    timeouts.sqrt() * (rto + waste * wire)
}

/// Chunk sizes the burst-aware policy considers: the whole transfer,
/// halved repeatedly down to [`MIN_CHUNK_BYTES`].
fn chunk_candidates(bytes: u64) -> Vec<u64> {
    let mut out = vec![bytes];
    let mut c = bytes / 2;
    while c >= MIN_CHUNK_BYTES {
        out.push(c);
        c /= 2;
    }
    out
}

/// Everything about a worker's primary transfer that is decided before a
/// chain draw: the path and chunking its mitigation chose, the transfer
/// over them, and what the cost model expects of it. Pure in
/// `(cfg, worker)` — the superstep only keys the loss draws — so a run
/// plans each worker once.
#[derive(Clone, Copy, Debug)]
struct WorkerPlan {
    transfer: Transfer,
    alt: usize,
    chunk_bytes: u64,
    /// Model-expected time of this plan: the slowdown denominator.
    expected_secs: f64,
}

// A run holds one plan per worker; a field added inline fails the build.
const _: () = assert!(std::mem::size_of::<WorkerPlan>() <= 104);

fn plan_worker(book: &GridSample, cfg: &BspConfig, worker: usize) -> WorkerPlan {
    let default_path = worker_path(book, cfg, worker, 0);
    let (alt, path, chunk_bytes) = match cfg.mitigation {
        Mitigation::None | Mitigation::Redundancy { .. } => (0, default_path, cfg.bytes_per_worker),
        Mitigation::Diversity { alts } => {
            let score = |p: &WorkerPath| {
                expected_secs(cfg.bytes_per_worker, cfg.bytes_per_worker, p)
                    + 2.0 * risk_secs(cfg.bytes_per_worker, cfg.bytes_per_worker, p)
            };
            let best = (0..alts)
                .map(|a| {
                    let p = if a == 0 {
                        default_path
                    } else {
                        worker_path(book, cfg, worker, a)
                    };
                    (a, p)
                })
                .min_by(|(_, pa), (_, pb)| score(pa).total_cmp(&score(pb)))
                .expect("alts >= 2");
            (best.0, best.1, cfg.bytes_per_worker)
        }
        Mitigation::BurstAware => {
            let chunk =
                chunk_candidates(cfg.bytes_per_worker)
                    .into_iter()
                    .min_by(|&a, &b| {
                        expected_secs(cfg.bytes_per_worker, a, &default_path)
                            .total_cmp(&expected_secs(cfg.bytes_per_worker, b, &default_path))
                    })
                    .expect("candidates non-empty");
            (0, default_path, chunk)
        }
    };
    WorkerPlan {
        transfer: Transfer::new(&path, chunk_bytes),
        alt,
        chunk_bytes,
        expected_secs: expected_secs(cfg.bytes_per_worker, chunk_bytes, &path),
    }
}

/// Run one worker's primary transfer of one superstep over its `plan`.
/// Pure in the coordinates `(cfg, superstep, worker)` — never in
/// scheduling or sharding.
fn run_planned(
    cfg: &BspConfig,
    superstep: usize,
    worker: usize,
    plan: &WorkerPlan,
) -> WorkerOutcome {
    let mut rng = Sampler::child_rng(cfg.seed, walk_stream(superstep, worker, plan.alt, 0));
    let secs = plan.transfer.secs(packets(cfg.bytes_per_worker), &mut rng);
    // Denominator: the model-expected time of the plan the scheduler
    // actually executed (chosen path, chosen chunking). The ratio is then
    // pure residual unpredictability — exactly what a barrier converts
    // into straggler wait — and P99/median of it is scale-invariant, so a
    // mitigation is credited only for tightening the spread, never for a
    // uniform speed-up it already knew about when it planned.
    WorkerOutcome {
        worker,
        secs,
        slowdown: secs / plan.expected_secs,
        alt: plan.alt,
        chunk_bytes: plan.chunk_bytes,
    }
}

/// Run the primary transfers of the given *global* worker indices for one
/// superstep, fanning out over `par_iter`. Outcomes depend only on
/// `(cfg, superstep, worker)`, so any split of the indices reassembles
/// byte-identically.
///
/// Stateless, so it plans every worker it is given; [`run_bsp`] and a
/// shard ([`run_bsp_shard`]) plan once per run instead.
pub fn superstep_workers(
    cfg: &BspConfig,
    superstep: usize,
    workers: &[usize],
) -> Result<Vec<WorkerOutcome>> {
    cfg.validate()?;
    let book = GridSample::new(cfg.seed);
    Ok(workers
        .par_iter()
        .map(|&w| run_planned(cfg, superstep, w, &plan_worker(&book, cfg, w)))
        .collect())
}

/// Close the barrier over the global outcome vector: apply the
/// redundancy rescue (the only mitigation that needs a global quantile)
/// and summarize the distribution. Deterministic in the outcomes alone,
/// so it gives the same result whether the vector came from one process
/// or many shards.
pub fn finalize_superstep(
    cfg: &BspConfig,
    superstep: usize,
    outcomes: &mut [WorkerOutcome],
) -> Result<SuperstepStats> {
    close_barrier(&GridSample::new(cfg.seed), cfg, superstep, outcomes)
}

/// [`finalize_superstep`] over a path book the caller already holds.
fn close_barrier(
    book: &GridSample,
    cfg: &BspConfig,
    superstep: usize,
    outcomes: &mut [WorkerOutcome],
) -> Result<SuperstepStats> {
    if outcomes.is_empty() {
        return Err(Error::Config(
            "0-worker superstep has no barrier to close".into(),
        ));
    }
    let nan_secs = || Error::Config("completion times contain NaN".into());
    let mut secs: Vec<f64> = outcomes.iter().map(|o| o.secs).collect();
    if let Mitigation::Redundancy { fraction } = cfg.mitigation {
        let tau = try_quantile(&secs, 1.0 - fraction).ok_or_else(nan_secs)?;
        for (o, secs) in outcomes.iter_mut().zip(&mut secs) {
            if o.secs <= tau {
                continue;
            }
            // Straggler: start a duplicate on the backup path (alt 1) at
            // the quantile instant; the first copy to finish wins.
            let backup = Transfer::new(&worker_path(book, cfg, o.worker, 1), cfg.bytes_per_worker);
            let mut rng = Sampler::child_rng(cfg.seed, walk_stream(superstep, o.worker, 1, 1));
            let backup = tau + backup.secs(packets(cfg.bytes_per_worker), &mut rng);
            if backup < o.secs {
                let base = o.secs / o.slowdown;
                o.secs = backup;
                o.slowdown = backup / base;
                *secs = backup;
            }
        }
    }
    // One selection pass, in place, answers every order statistic, the
    // barrier's max included.
    let q = try_quantiles_in_place(&mut secs, &[0.5, 0.99, 1.0]).ok_or_else(nan_secs)?;
    let mut slow: Vec<f64> = outcomes.iter().map(|o| o.slowdown).collect();
    let tail = tail_mass_in_place(&mut slow)
        .ok_or_else(|| Error::Config("slowdowns are degenerate".into()))?;
    Ok(SuperstepStats {
        n_workers: outcomes.len(),
        barrier_secs: q[2],
        median_secs: q[0],
        p99_secs: q[1],
        tail_mass: tail,
    })
}

/// Run one full superstep in-process: all workers, then the barrier.
pub fn run_superstep(
    cfg: &BspConfig,
    superstep: usize,
) -> Result<(Vec<WorkerOutcome>, SuperstepStats)> {
    cfg.validate()?;
    let workers: Vec<usize> = (0..cfg.n_workers).collect();
    let mut outcomes = superstep_workers(cfg, superstep, &workers)?;
    let stats = finalize_superstep(cfg, superstep, &mut outcomes)?;
    Ok((outcomes, stats))
}

/// FNV-1a's starting state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Feed the eight little-endian bytes of `word` to the FNV-1a state `h`.
fn fnv_eat(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Order-sensitive FNV-1a over the bit patterns of every completion time;
/// two runs agree on this iff their outcome vectors are byte-identical.
pub fn fingerprint_outcomes(outcomes: &[WorkerOutcome]) -> u64 {
    let [h] = fingerprint_lanes([outcomes]);
    h
}

/// [`fingerprint_outcomes`] of `L` vectors at once. Each hash is one
/// serial chain of 24 multiplies per outcome; walking the vectors in
/// lockstep lets the CPU overlap the chains, so two supersteps hash in
/// about the time of one.
fn fingerprint_lanes<const L: usize>(lanes: [&[WorkerOutcome]; L]) -> [u64; L] {
    let mut hs = [FNV_OFFSET; L];
    let rounds = lanes.iter().map(|lane| lane.len()).max().unwrap_or(0);
    for i in 0..rounds {
        for (h, lane) in hs.iter_mut().zip(lanes) {
            if let Some(o) = lane.get(i) {
                fnv_eat(h, o.worker as u64);
                fnv_eat(h, o.secs.to_bits());
                fnv_eat(h, o.slowdown.to_bits());
            }
        }
    }
    hs
}

/// Close a run's supersteps in order: take each superstep's
/// outcomes from `superstep`, close its barrier, pool its slowdowns and
/// chain its fingerprint. The one close of [`run_bsp`] and
/// [`collect_bsp`], so a sharded run is byte-identical to a 1-process one.
fn close_run(
    book: &GridSample,
    cfg: &BspConfig,
    mut superstep: impl FnMut(usize) -> Result<Vec<WorkerOutcome>>,
) -> Result<BspReport> {
    let mut stats = Vec::with_capacity(cfg.supersteps);
    let mut pooled: Vec<f64> = Vec::with_capacity(cfg.supersteps * cfg.n_workers);
    // Chain the per-superstep fingerprints order-sensitively, hashing the
    // supersteps two at a time (`fingerprint_lanes`).
    let mut h = FNV_OFFSET;
    let mut held: Option<Vec<WorkerOutcome>> = None;
    for s in 0..cfg.supersteps {
        let mut outcomes = superstep(s)?;
        stats.push(close_barrier(book, cfg, s, &mut outcomes)?);
        pooled.extend(outcomes.iter().map(|o| o.slowdown));
        match held.take() {
            None => held = Some(outcomes),
            Some(prev) => {
                for fp in fingerprint_lanes([&prev, &outcomes]) {
                    fnv_eat(&mut h, fp);
                }
            }
        }
    }
    if let Some(last) = held {
        fnv_eat(&mut h, fingerprint_outcomes(&last));
    }
    let pooled_tail = tail_mass_in_place(&mut pooled)
        .ok_or_else(|| Error::Config("pooled slowdowns are degenerate".into()))?;
    Ok(BspReport {
        stats,
        pooled_tail_mass: pooled_tail,
        fingerprint: h,
    })
}

/// Run the full lossy-BSP machine in one process: every worker planned
/// once, then `cfg.supersteps` supersteps in sequence, each closing with a
/// barrier.
pub fn run_bsp(cfg: &BspConfig) -> Result<BspReport> {
    cfg.validate()?;
    let book = GridSample::new(cfg.seed);
    let workers: Vec<usize> = (0..cfg.n_workers).collect();
    let plans: Vec<WorkerPlan> = workers
        .par_iter()
        .map(|&w| plan_worker(&book, cfg, w))
        .collect();
    close_run(&book, cfg, |s| {
        Ok(workers
            .par_iter()
            .map(|&w| run_planned(cfg, s, w, &plans[w]))
            .collect())
    })
}

// ---------------------------------------------------------------------------
// Sharded runs: workers as supervised checkpoint records
// ---------------------------------------------------------------------------

/// A sharded run's checkpoint record, `bsp <worker> <alt> <chunk_bytes>
/// <secs> <slowdown>` with the floats as the 16 hex digits of their bits,
/// at index `superstep·n_workers + worker`. A transfer leaves no loss
/// trace: [`FaultKind::NanTrace`] poisons its completion time, and
/// [`FaultKind::EmptyTrace`] leaves it as it is.
///
/// [`FaultKind::NanTrace`]: crate::supervisor::FaultKind::NanTrace
/// [`FaultKind::EmptyTrace`]: crate::supervisor::FaultKind::EmptyTrace
impl PathRecord for WorkerOutcome {
    fn encode(&self) -> String {
        format!(
            "bsp {} {} {} {:016x} {:016x}",
            self.worker,
            self.alt,
            self.chunk_bytes,
            self.secs.to_bits(),
            self.slowdown.to_bits()
        )
    }

    fn decode(line: &str) -> Option<WorkerOutcome> {
        let mut t = Tokens::new(line.strip_prefix("bsp ")?);
        let outcome = WorkerOutcome {
            worker: t.usize()?,
            alt: t.usize()?,
            chunk_bytes: t.u64()?,
            secs: t.f64()?,
            slowdown: t.f64()?,
        };
        t.end()?;
        Some(outcome)
    }

    fn poison_nan(&mut self) {
        self.secs = f64::NAN;
    }

    fn clear_losses(&mut self) {}

    fn has_nan(&self) -> bool {
        self.secs.is_nan() || self.slowdown.is_nan()
    }
}

/// Records in a sharded run: one per worker and superstep.
fn records(cfg: &BspConfig) -> usize {
    cfg.supersteps * cfg.n_workers
}

/// A sharded run's checkpoint identity: every [`BspConfig`] field, the
/// floats by their bits, so no checkpoint of another run restores.
fn bsp_fingerprint(cfg: &BspConfig) -> u64 {
    let fraction = match cfg.mitigation {
        Mitigation::Redundancy { fraction } => fraction.to_bits(),
        _ => 0,
    };
    let label = format!(
        "bsp {} {} {} {:016x} {:016x} {} {fraction:016x}",
        cfg.n_workers,
        cfg.supersteps,
        cfg.bytes_per_worker,
        cfg.mean_loss_rate.to_bits(),
        cfg.mean_burst_pkts.to_bits(),
        cfg.mitigation.label(),
    );
    campaign_fingerprint(&label, cfg.seed, records(cfg))
}

/// Record `index`'s primary transfer, over its worker's `plan`. The walk
/// has no event loop for an injected [`FaultKind::Panic`] to fire in, so
/// it fires here.
///
/// [`FaultKind::Panic`]: crate::supervisor::FaultKind::Panic
fn run_record(
    cfg: &BspConfig,
    index: usize,
    limits: RunLimits,
    plan: &WorkerPlan,
) -> std::result::Result<WorkerOutcome, PathFailure> {
    if limits.panic_at_event.is_some() {
        panic!("injected panic at record {index}");
    }
    let (superstep, worker) = (index / cfg.n_workers, index % cfg.n_workers);
    Ok(run_planned(cfg, superstep, worker, plan))
}

/// Run shard `spec` of a sharded run: plan its stripe of workers once,
/// then supervise its records — every superstep of each stripe worker —
/// into its checkpoint under `dir`. Records already there are restored,
/// not re-run, so a killed shard resumes where it stopped, and a worker
/// that fails every attempt is one `Failed` row while the shard finishes
/// the rest.
pub fn run_bsp_shard(
    cfg: &BspConfig,
    sup: &SupervisorConfig,
    spec: ShardSpec,
    dir: &Path,
) -> Result<ShardReport> {
    cfg.validate()?;
    let book = GridSample::new(cfg.seed);
    let stripe = shard_indices(cfg.n_workers, spec);
    let plans: Vec<WorkerPlan> = stripe
        .par_iter()
        .map(|&w| plan_worker(&book, cfg, w))
        .collect();
    let n = cfg.n_workers;
    let subset: Vec<usize> = (0..cfg.supersteps)
        .flat_map(|s| stripe.iter().map(move |&w| s * n + w))
        .collect();
    let mut sup = sup.clone();
    sup.checkpoint = Some(shard_checkpoint_path(dir, spec));
    let run = supervise_subset(
        records(cfg),
        &subset,
        bsp_fingerprint(cfg),
        &sup,
        |i, limits| {
            // Worker `w` is entry `w / count` of its stripe.
            run_record(cfg, i, limits, &plans[i % n / spec.count])
        },
    )?;
    Ok(ShardReport {
        owned: subset.len(),
        counts: run.counts(),
        restored: run.restored,
    })
}

/// What a sharded run produced.
#[derive(Debug)]
pub struct ShardedBsp {
    /// The run's report, fingerprint included: [`run_bsp`]'s, bit for bit.
    pub report: BspReport,
    /// Per-record outcomes, at index `superstep·n_workers + worker`.
    pub ledger: Vec<LedgerEntry>,
    /// Records restored from the merged checkpoint instead of run.
    pub restored: usize,
}

/// Collect a sharded run: merge the `count` shard checkpoints under `dir`,
/// restore every record from the merged file through [`supervise`] (a
/// record no shard finished runs here, under `sup`), and close the run as
/// [`run_bsp`] does. A record that failed every attempt, or whose worker
/// is not its index's, is an error naming the superstep and the worker.
pub fn collect_bsp(
    cfg: &BspConfig,
    sup: &SupervisorConfig,
    count: usize,
    dir: &Path,
) -> Result<ShardedBsp> {
    cfg.validate()?;
    let fp = bsp_fingerprint(cfg);
    merge_shard_files::<WorkerOutcome>(dir, count, fp, records(cfg))?;
    let book = GridSample::new(cfg.seed);
    let n = cfg.n_workers;
    let mut sup = sup.clone();
    sup.checkpoint = Some(merged_checkpoint_path(dir));
    let SupervisedRun {
        results,
        ledger,
        restored,
    } = supervise(records(cfg), fp, &sup, |i, limits| {
        run_record(cfg, i, limits, &plan_worker(&book, cfg, i % n))
    })?;
    let mut results = results.into_iter();
    let report = close_run(&book, cfg, |s| {
        (0..n)
            .map(|w| match results.next().flatten() {
                Some(o) if o.worker == w => Ok(o),
                Some(o) => Err(Error::Config(format!(
                    "checkpoint record {} (superstep {s}, worker {w}) holds worker {}",
                    s * n + w,
                    o.worker
                ))),
                None => Err(Error::Config(match &ledger[s * n + w].outcome {
                    PathOutcome::Failed(reason) => format!("superstep {s} worker {w}: {reason}"),
                    _ => format!("superstep {s} worker {w} did not run"),
                })),
            })
            .collect()
    })?;
    Ok(ShardedBsp {
        report,
        ledger,
        restored,
    })
}

/// [`run_bsp`] as a sharded run in one process: each of `count` shards in
/// turn ([`run_bsp_shard`]), then [`collect_bsp`], all under `dir` — the
/// steps the `shard` bin's `bsp` verb runs across processes. Byte-identical
/// to `run_bsp` at any shard count.
pub fn run_bsp_sharded(
    cfg: &BspConfig,
    sup: &SupervisorConfig,
    count: usize,
    dir: &Path,
) -> Result<ShardedBsp> {
    for i in 0..count {
        run_bsp_shard(cfg, sup, ShardSpec::new(i, count), dir)?;
    }
    collect_bsp(cfg, sup, count, dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> BspConfig {
        BspConfig {
            n_workers: 60,
            supersteps: 1,
            bytes_per_worker: 1024 * 1024,
            mean_loss_rate: 0.01,
            mean_burst_pkts: 4.0,
            seed,
            mitigation: Mitigation::None,
        }
    }

    #[test]
    fn lossless_automaton_matches_base_formula() {
        let path = WorkerPath {
            rtt: 0.05,
            bps: 10e6,
            gilbert: GilbertParams { p: 0.0, r: 1.0 },
        };
        let mut rng = Sampler::child_rng(1, 0);
        let bytes = 100 * MTU_BYTES;
        let secs = Transfer::new(&path, bytes).secs(packets(bytes), &mut rng);
        let base = base_secs(bytes, bytes, &path);
        assert!((secs - base).abs() < 1e-12, "{secs} vs {base}");
        // Chunking only adds handshakes when loss-free.
        let chunked = Transfer::new(&path, 10 * MTU_BYTES).secs(packets(bytes), &mut rng);
        assert!((chunked - (base + 9.0 * path.rtt)).abs() < 1e-9);
    }

    /// A transfer over a 10 Mbps, 50 ms path with loss law `gilbert`,
    /// `pkts_per_chunk` packets a chunk.
    fn transfer(gilbert: GilbertParams, pkts_per_chunk: u64) -> Transfer {
        let path = WorkerPath {
            rtt: 0.05,
            bps: 10e6,
            gilbert,
        };
        Transfer::new(&path, pkts_per_chunk * MTU_BYTES)
    }

    #[test]
    fn automaton_time_exceeds_wire_lower_bound() {
        // The same physics bound the netsim transfer engine obeys.
        let cfg = tiny(7);
        let book = GridSample::new(cfg.seed);
        for w in 0..10 {
            let path = worker_path(&book, &cfg, w, 0);
            let o = run_planned(&cfg, 0, w, &plan_worker(&book, &cfg, w));
            let wire_bound = cfg.bytes_per_worker as f64 * 8.0 * WIRE_OVERHEAD / path.bps;
            assert!(
                o.secs > wire_bound,
                "worker {w}: {} <= {wire_bound}",
                o.secs
            );
            assert!(
                o.slowdown.is_finite() && o.slowdown > 0.0,
                "slowdown {}",
                o.slowdown
            );
        }
    }

    /// The per-packet walk the sojourn automaton replaced, kept as its
    /// reference: one loss indicator per transmission attempt, the same
    /// cost model, the same four counts.
    fn reference_counts(
        n_pkts: u64,
        pkts_per_chunk: u64,
        mut lost: impl Iterator<Item = bool>,
    ) -> TransferCounts {
        let mut c = TransferCounts::default();
        let mut delivered = 0u64;
        let mut since_event = 0u64;
        while delivered < n_pkts {
            if delivered.is_multiple_of(pkts_per_chunk) {
                c.rtts += 1;
                since_event = 0;
            }
            let mut run = 0u64;
            loop {
                c.attempts += 1;
                if lost
                    .next()
                    .expect("the loss sequence outlasts the transfer")
                {
                    run += 1;
                } else {
                    break;
                }
            }
            delivered += 1;
            if run == 0 {
                since_event += 1;
                continue;
            }
            if run <= DUPACK_RUN {
                c.rtts += 1;
            } else {
                c.rtos += 1;
                c.goback_pkts += since_event;
            }
            since_event = 0;
        }
        c
    }

    /// Alternating run lengths holding at least `n_pkts` Good packets, so
    /// any transfer of `n_pkts` ends inside them. `style` picks the mix:
    /// short runs, runs sized around the chunk (to straddle boundaries),
    /// or long runs that swallow chunks and the end of the transfer.
    fn sojourn_sequence(
        rng: &mut rand::rngs::SmallRng,
        n_pkts: u64,
        pkts_per_chunk: u64,
        starts_bad: bool,
        style: u64,
    ) -> Vec<u64> {
        let mut runs = Vec::new();
        let mut bad = starts_bad;
        let mut good_total = 0u64;
        while good_total < n_pkts {
            let len = if bad {
                // Loss runs on both sides of DUPACK_RUN.
                rng.random_range(1..=2 * DUPACK_RUN + 1)
            } else {
                match style {
                    0 => rng.random_range(1..=3u64),
                    1 => pkts_per_chunk.saturating_sub(1).max(1) + rng.random_range(0..=2u64),
                    _ => rng.random_range(1..=2 * n_pkts + 2),
                }
            };
            if !bad {
                good_total += len;
            }
            runs.push(len);
            bad = !bad;
        }
        runs
    }

    #[test]
    fn sojourn_automaton_equals_the_per_packet_walk_exactly() {
        let mut rng = Sampler::child_rng(2006, 0);
        let mut cases = 0;
        for n_pkts in [1u64, 2, 7, 8, 9, 26, 100, 257] {
            for pkts_per_chunk in [1, 8, 13, n_pkts, n_pkts + 5] {
                for starts_bad in [false, true] {
                    for style in 0..3 {
                        for _ in 0..8 {
                            let runs = sojourn_sequence(
                                &mut rng,
                                n_pkts,
                                pkts_per_chunk,
                                starts_bad,
                                style,
                            );
                            let mut next = runs.iter().copied();
                            let fast = walk_sojourns(n_pkts, pkts_per_chunk, starts_bad, || {
                                next.next().expect("the runs outlast the transfer")
                            });
                            let packets = runs.iter().enumerate().flat_map(|(i, &len)| {
                                std::iter::repeat_n((i % 2 == 1) ^ starts_bad, len as usize)
                            });
                            let slow = reference_counts(n_pkts, pkts_per_chunk, packets);
                            assert_eq!(
                                fast, slow,
                                "n {n_pkts} chunk {pkts_per_chunk} starts_bad {starts_bad} runs {runs:?}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 8 * 5 * 2 * 3 * 8);
    }

    #[test]
    fn chain_driven_transfers_equal_the_per_packet_walk_exactly() {
        // The same identity through `Transfer::counts`, on runs the chain
        // itself draws: record the draws, replay them through a second
        // chain to recover the runs, expand, and walk packet by packet.
        let workload = GilbertParams {
            p: 0.01 / 16.0,
            r: 1.0 / 16.0,
        };
        let lossy = GilbertParams { p: 0.08, r: 0.4 };
        for (gilbert, n_pkts, pkts_per_chunk) in [
            (workload, 1049, 1049),
            (workload, 1049, 33),
            (lossy, 300, 8),
        ] {
            for seed in 0..200 {
                let mut rng = Sampler::child_rng(seed, 1);
                let mut draws = Vec::new();
                let fast = transfer(gilbert, pkts_per_chunk).counts(n_pkts, || {
                    draws.push(rng.random::<f64>());
                    *draws.last().expect("just pushed")
                });
                let mut replay = draws.iter().copied();
                let mut u01 = || replay.next().expect("one draw per run");
                let mut chain = Chain::new(gilbert, &mut u01);
                let mut packets = Vec::new();
                for _ in 1..draws.len() {
                    let lost = chain.is_bad();
                    // The last Good run may be far longer than the transfer.
                    let len = chain.sojourn(&mut u01).min(n_pkts);
                    packets.extend(std::iter::repeat_n(lost, len as usize));
                }
                let slow = reference_counts(n_pkts, pkts_per_chunk, packets.into_iter());
                assert_eq!(fast, slow, "seed {seed} chunk {pkts_per_chunk}");
            }
        }
    }

    #[test]
    fn draws_scale_with_loss_runs_not_packets() {
        // One draw for the initial state and one per run: a transfer with
        // L loss runs has at most L + 1 Good runs around them. Stepping
        // every packet would draw > 1 049 times here.
        let gilbert = GilbertParams {
            p: 0.01 / 16.0,
            r: 1.0 / 16.0,
        };
        let (n_pkts, pkts_per_chunk) = (packets(1024 * 1024), packets(64 * 1024));
        let law = transfer(gilbert, pkts_per_chunk);
        let mut most = 0;
        for seed in 0..500 {
            let mut rng = Sampler::child_rng(seed, 2);
            let mut draws = 0u64;
            let c = law.counts(n_pkts, || {
                draws += 1;
                rng.random::<f64>()
            });
            let handshakes = n_pkts.div_ceil(pkts_per_chunk);
            let loss_runs = c.rtts - handshakes + c.rtos;
            assert!(
                draws <= 2 + 2 * (loss_runs + 1),
                "seed {seed}: {draws} draws for {loss_runs} loss runs"
            );
            most = most.max(draws);
        }
        assert!(most > 2, "some transfer must have met a loss run");
    }

    #[test]
    fn burstier_loss_fattens_the_tail() {
        // Fixed mean loss, growing burst length: the pooled tail mass must
        // grow. Small-scale version of `testkit/tests/bsp.rs`'s
        // `tail_mass_grows_with_burst_length_at_fixed_mean_loss`.
        let mut cfg = tiny(42);
        cfg.n_workers = 150;
        cfg.mean_burst_pkts = 1.0;
        let smooth = run_bsp(&cfg).unwrap();
        cfg.mean_burst_pkts = 16.0;
        let bursty = run_bsp(&cfg).unwrap();
        assert!(
            bursty.pooled_tail_mass > smooth.pooled_tail_mass,
            "tail {} (burst 16) vs {} (burst 1)",
            bursty.pooled_tail_mass,
            smooth.pooled_tail_mass
        );
    }

    #[test]
    fn mitigations_change_only_what_they_should() {
        let mut cfg = tiny(11);
        cfg.mean_burst_pkts = 12.0;
        let baseline = run_bsp(&cfg).unwrap();
        cfg.mitigation = Mitigation::Diversity { alts: 3 };
        let div = run_bsp(&cfg).unwrap();
        cfg.mitigation = Mitigation::Redundancy { fraction: 0.1 };
        let red = run_bsp(&cfg).unwrap();
        cfg.mitigation = Mitigation::BurstAware;
        let chunked = run_bsp(&cfg).unwrap();
        // Redundancy can only help: rescued workers take min(primary, backup).
        assert!(red.stats[0].barrier_secs <= baseline.stats[0].barrier_secs + 1e-12);
        // Each mitigation produces a distinct, valid distribution.
        for r in [&baseline, &div, &red, &chunked] {
            assert!(r.pooled_tail_mass >= 1.0);
            assert!(r.stats[0].barrier_secs >= r.stats[0].p99_secs - 1e-12);
        }
        assert_ne!(baseline.fingerprint, div.fingerprint);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut cfg = tiny(1);
        cfg.n_workers = 0;
        assert!(run_bsp(&cfg).is_err());
        let mut cfg = tiny(1);
        cfg.bytes_per_worker = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny(1);
        cfg.supersteps = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny(1);
        cfg.mean_loss_rate = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny(1);
        cfg.mean_burst_pkts = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = tiny(1);
        cfg.mitigation = Mitigation::Diversity { alts: 1 };
        assert!(cfg.validate().is_err());
        let mut cfg = tiny(1);
        cfg.mitigation = Mitigation::Redundancy { fraction: 0.9 };
        assert!(cfg.validate().is_err());
        // A 0-worker slice can be computed (empty), but no barrier closes
        // over it.
        let cfg = tiny(1);
        assert!(superstep_workers(&cfg, 0, &[]).unwrap().is_empty());
        assert!(finalize_superstep(&cfg, 0, &mut []).is_err());
    }

    #[test]
    fn mitigation_argument_form_reads_back_bit_for_bit() {
        let mut gen = Sampler::child_rng(31, 0);
        let fractions = (0..2_000).map(|_| 0.5 - gen.random_range(0.0..0.5));
        let redundancy = [0.004, 0.125, 0.5, f64::MIN_POSITIVE, 0.1]
            .into_iter()
            .chain(fractions)
            .map(|fraction| Mitigation::Redundancy { fraction });
        let others = [Mitigation::None, Mitigation::Diversity { alts: 3 }];
        for m in redundancy.chain(others).chain([Mitigation::BurstAware]) {
            // `PartialEq` on the fraction is bit equality for non-NaN values.
            assert_eq!(m.to_string().parse(), Ok(m));
        }
        // The typed form is a percentage; the label stays a rounded one.
        let typed = |s: &str| s.parse::<Mitigation>();
        assert_eq!(
            typed("redundancy0.4"),
            Ok(Mitigation::Redundancy { fraction: 0.004 })
        );
        assert_eq!(
            typed("redundancy12.5").map(|m| m.label()),
            Ok("redundancy13".into())
        );
        for bad in [
            "",
            "diversity",
            "redundancy",
            "redundancy=",
            "redundancyx",
            "fast",
        ] {
            assert!(typed(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Shard files and the merged checkpoint are read by one strict field
    /// reader. A torn final float, a sixth field, a `+`, an out-of-range
    /// index or a record holding another index's worker is an error, never
    /// a wrong value or a panic downstream.
    #[test]
    fn worker_records_round_trip_and_are_read_strictly() -> Result<()> {
        let dir = std::env::temp_dir().join(format!("lossburst_bsp_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (cfg, sup, spec) = (tiny(5), SupervisorConfig::default(), ShardSpec::new(0, 1));
        run_bsp_shard(&cfg, &sup, spec, &dir)?;
        let file = shard_checkpoint_path(&dir, spec);
        let text = std::fs::read_to_string(&file)?;
        let (outcomes, _) = run_superstep(&cfg, 0)?;
        for o in &outcomes {
            assert_eq!(WorkerOutcome::decode(&o.encode()).as_ref(), Some(o));
        }
        let clean = collect_bsp(&cfg, &sup, 1, &dir)?;
        assert_eq!(clean.report.fingerprint, run_bsp(&cfg)?.fingerprint);
        assert_eq!(clean.restored, cfg.n_workers);
        let last = format!("ok 7 0 {}", outcomes[7].encode());
        let plus = format!("{}+{}", &last[..last.len() - 16], &last[last.len() - 15..]);
        let misplaced = format!("ok 3 0 {}", outcomes[4].encode());
        for (line, why) in [
            (&last[..last.len() - 3], "undecodable payload"),
            (&format!("{last} 0"), "undecodable payload"),
            (&plus, "undecodable payload"),
            ("ok 1 0 not a record", "undecodable payload"),
            (&format!("ok 60 0 {}", outcomes[0].encode()), "out of range"),
            (
                &misplaced,
                "record 3 (superstep 0, worker 3) holds worker 4",
            ),
        ] {
            std::fs::write(&file, format!("{text}{line}\n"))?;
            let err = collect_bsp(&cfg, &sup, 1, &dir)
                .expect_err(line)
                .to_string();
            assert!(err.contains(why), "{line}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn lockstep_fingerprints_equal_one_at_a_time() -> Result<()> {
        let (outcomes, _) = run_superstep(&tiny(5), 0)?;
        let short: Vec<WorkerOutcome> = outcomes.iter().skip(1).step_by(4).cloned().collect();
        for (a, b) in [
            (&outcomes[..], &outcomes[..]),
            (&outcomes, &short),
            (&short, &[]),
        ] {
            let want = [fingerprint_outcomes(a), fingerprint_outcomes(b)];
            assert_eq!(fingerprint_lanes([a, b]), want);
        }
        Ok(())
    }

    /// The iid limit, an oracle that owes nothing to the automaton's walk:
    /// with `r = 1 − p` every transmission attempt is an independent
    /// Bernoulli(p) loss, so the run of losses in front of each delivered
    /// packet is geometric and independent of the others, and the four
    /// counts have closed forms. Handshakes are exact; the means lie within
    /// 4 standard errors.
    #[test]
    fn iid_loss_meets_the_closed_forms() {
        const TRANSFERS: usize = 20_000;
        let n = packets(1024 * 1024);
        assert_eq!(n, 1049);
        let t = TRANSFERS as f64;
        for (i, p) in [0.001, 0.01, 0.05].into_iter().enumerate() {
            let gilbert = GilbertParams { p, r: 1.0 - p };
            for c in [n, 8] {
                let law = transfer(gilbert, c);
                let handshakes = n.div_ceil(c);
                let mut rng = Sampler::child_rng(2006, (i as u64) << 16 | c);
                let (mut attempts, mut fast, mut rtos) = (0u64, 0u64, 0u64);
                let mut goback = Vec::with_capacity(TRANSFERS);
                for _ in 0..TRANSFERS {
                    let mut draws = Vec::new();
                    let counts = law.counts(n, || {
                        let u = rng.random::<f64>();
                        draws.push(u);
                        u
                    });
                    // Replay the draws to read the loss runs the walk paid
                    // for: each precedes a delivered packet.
                    let mut chain = Chain::new(gilbert, || draws[0]);
                    let (mut short, mut long) = (0, 0);
                    for &u in &draws[1..] {
                        let bad = chain.is_bad();
                        let len = chain.sojourn(|| u);
                        if bad && len <= DUPACK_RUN {
                            short += 1;
                        } else if bad {
                            long += 1;
                        }
                    }
                    assert_eq!(counts.rtts - short, handshakes, "p {p} c {c}");
                    assert_eq!(counts.rtos, long, "p {p} c {c}");
                    attempts += counts.attempts;
                    fast += short;
                    rtos += counts.rtos;
                    goback.push(counts.goback_pkts as f64);
                }
                let nf = n as f64;
                let within = |what: &str, sum: f64, mean: f64, sd: f64| {
                    let z = (sum / t - mean) / (sd / t.sqrt());
                    assert!(z.abs() < 4.0, "p {p} c {c} {what}: z = {z:.2}");
                };
                // Attempts: n independent geometric trial counts.
                within(
                    "attempts",
                    attempts as f64,
                    nf / (1.0 - p),
                    (nf * p).sqrt() / (1.0 - p),
                );
                // A loss run of 1–2 is a fast recovery, ≥ 3 a timeout.
                let q_fast = (1.0 - p) * (p + p * p);
                let binomial = |q: f64| (nf * q * (1.0 - q)).sqrt();
                within(
                    "fast recoveries",
                    fast as f64,
                    nf * q_fast,
                    binomial(q_fast),
                );
                let q_rto = p.powi(3);
                within("timeouts", rtos as f64, nf * q_rto, binomial(q_rto));
                // Go-back: a timeout at packet i re-sends the unbroken run
                // of first-try deliveries behind it, back to its chunk's
                // start: E = Σ_k (1 − p)^k over k = 1..(i mod c).
                if t * nf * q_rto >= 10.0 {
                    let a = 1.0 - p;
                    let window: f64 = (0..n).map(|i| a * (1.0 - a.powi((i % c) as i32)) / p).sum();
                    let mean = goback.iter().sum::<f64>() / t;
                    let var = goback.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (t - 1.0);
                    within("go-back", mean * t, q_rto * window, var.sqrt());
                }
            }
        }
    }
}
