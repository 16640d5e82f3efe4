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
//!   the same 4% header overhead as [`crate::impact::theoretic_lower_bound`]);
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
//! byte-for-byte at any shard count; [`run_bsp_sharded`] and the
//! `bsp_study` multi-process driver both rely on this.

use lossburst_analysis::gilbert::{Chain, GilbertParams};
use lossburst_analysis::stats::{tail_mass, try_quantile, try_quantiles};
use lossburst_inet::campaign::GridSample;
use lossburst_netsim::rng::Sampler;
use rand::RngExt;
use rayon::prelude::*;

use crate::error::{Error, Result};
use crate::shard::{shard_indices, ShardSpec};

/// Path alternatives derived per worker (alternative 0 is the default
/// path; diversity and redundancy may use the others).
pub(crate) const MAX_ALTS: usize = 4;

/// Packet size of the automaton, matching the netsim MTU.
pub(crate) const MTU_BYTES: u64 = 1000;

/// Header overhead multiplier, matching `theoretic_lower_bound`'s 4%.
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
    /// Mean completion, seconds.
    pub mean_secs: f64,
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
    let (n_pkts, pkts_per_chunk) = packetize(bytes, chunk_bytes);
    let n_chunks = n_pkts.div_ceil(pkts_per_chunk);
    n_pkts as f64 * pkt_wire_secs(path.bps) + n_chunks as f64 * path.rtt
}

/// Packets in the transfer and packets per chunk (≥ 1).
fn packetize(bytes: u64, chunk_bytes: u64) -> (u64, u64) {
    (
        bytes.div_ceil(MTU_BYTES),
        chunk_bytes.div_ceil(MTU_BYTES).max(1),
    )
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

impl TransferCounts {
    fn secs(&self, path: &WorkerPath) -> f64 {
        self.attempts.saturating_add(self.goback_pkts) as f64 * pkt_wire_secs(path.bps)
            + self.rtts as f64 * path.rtt
            + self.rtos as f64 * rto_secs(path.rtt)
    }
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

/// Walk the automaton over a Gilbert chain drawn from `next_u01`: one draw
/// for the initial state, one per run.
fn transfer_counts(
    n_pkts: u64,
    pkts_per_chunk: u64,
    gilbert: GilbertParams,
    mut next_u01: impl FnMut() -> f64,
) -> TransferCounts {
    let mut chain = Chain::new(gilbert, &mut next_u01);
    let starts_bad = chain.is_bad();
    walk_sojourns(n_pkts, pkts_per_chunk, starts_bad, || {
        chain.sojourn(&mut next_u01)
    })
}

/// Completion time of one transfer over a chain seeded from `rng`.
fn transfer_secs(
    bytes: u64,
    chunk_bytes: u64,
    path: &WorkerPath,
    rng: &mut rand::rngs::SmallRng,
) -> f64 {
    let (n_pkts, pkts_per_chunk) = packetize(bytes, chunk_bytes);
    transfer_counts(n_pkts, pkts_per_chunk, path.gilbert, || rng.random::<f64>()).secs(path)
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
/// chain draw: the path and chunking its mitigation chose, and what the
/// cost model expects of them. Pure in `(cfg, worker)` — the superstep
/// only keys the loss draws — so a run plans each worker once.
#[derive(Clone, Copy, Debug)]
struct WorkerPlan {
    path: WorkerPath,
    alt: usize,
    chunk_bytes: u64,
    /// Model-expected time of this plan: the slowdown denominator.
    expected_secs: f64,
}

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
        path,
        alt,
        chunk_bytes,
        expected_secs: expected_secs(cfg.bytes_per_worker, chunk_bytes, &path),
    }
}

/// Run one worker's primary transfer of one superstep. Pure in the
/// coordinates `(cfg, superstep, worker)` — never in scheduling or
/// sharding.
fn run_worker(
    book: &GridSample,
    cfg: &BspConfig,
    superstep: usize,
    worker: usize,
) -> WorkerOutcome {
    run_planned(cfg, superstep, worker, &plan_worker(book, cfg, worker))
}

/// [`run_worker`] for a worker already planned.
fn run_planned(
    cfg: &BspConfig,
    superstep: usize,
    worker: usize,
    plan: &WorkerPlan,
) -> WorkerOutcome {
    let mut rng = Sampler::child_rng(cfg.seed, walk_stream(superstep, worker, plan.alt, 0));
    let secs = transfer_secs(cfg.bytes_per_worker, plan.chunk_bytes, &plan.path, &mut rng);
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
/// superstep, fanning out over the worker pool. This is the shardable
/// phase: outcomes depend only on `(cfg, superstep, worker)`, so any
/// striping of indices across processes stitches back byte-identically.
///
/// Stateless, so it plans every worker it is given; [`run_bsp`] plans once
/// per run instead.
pub fn superstep_workers(
    cfg: &BspConfig,
    superstep: usize,
    workers: &[usize],
) -> Result<Vec<WorkerOutcome>> {
    cfg.validate()?;
    let book = GridSample::new(cfg.seed);
    Ok(workers
        .par_iter()
        .map(|&w| run_worker(&book, cfg, superstep, w))
        .collect())
}

/// Close the barrier over the stitched global outcome vector: apply the
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
            let backup_path = worker_path(book, cfg, o.worker, 1);
            let mut rng = Sampler::child_rng(cfg.seed, walk_stream(superstep, o.worker, 1, 1));
            let backup = tau
                + transfer_secs(
                    cfg.bytes_per_worker,
                    cfg.bytes_per_worker,
                    &backup_path,
                    &mut rng,
                );
            if backup < o.secs {
                let base = o.secs / o.slowdown;
                o.secs = backup;
                o.slowdown = backup / base;
                *secs = backup;
            }
        }
    }
    let slow: Vec<f64> = outcomes.iter().map(|o| o.slowdown).collect();
    // One sorted copy answers every order statistic, the barrier's max
    // included.
    let q = try_quantiles(&secs, &[0.5, 0.99, 1.0]).ok_or_else(nan_secs)?;
    let tail = tail_mass(&slow).ok_or_else(|| Error::Config("slowdowns are degenerate".into()))?;
    Ok(SuperstepStats {
        n_workers: outcomes.len(),
        barrier_secs: q[2],
        median_secs: q[0],
        p99_secs: q[1],
        tail_mass: tail,
        mean_secs: secs.iter().sum::<f64>() / secs.len() as f64,
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

/// A validated run with every worker planned: what the supersteps of one
/// run share.
struct Machine<'a> {
    cfg: &'a BspConfig,
    shard_count: usize,
    book: GridSample,
    plans: Vec<WorkerPlan>,
}

impl Machine<'_> {
    fn plan(cfg: &BspConfig, shard_count: usize) -> Result<Machine<'_>> {
        cfg.validate()?;
        if shard_count == 0 {
            return Err(Error::Config("shard_count must be positive".into()));
        }
        let book = GridSample::new(cfg.seed);
        let plans = (0..cfg.n_workers)
            .into_par_iter()
            .map(|w| plan_worker(&book, cfg, w))
            .collect();
        Ok(Machine {
            cfg,
            shard_count,
            book,
            plans,
        })
    }

    /// One superstep, shard by shard, stitched and closed.
    fn superstep(&self, superstep: usize) -> Result<(Vec<WorkerOutcome>, SuperstepStats)> {
        let cfg = self.cfg;
        let mut outcomes: Vec<Option<WorkerOutcome>> = vec![None; cfg.n_workers];
        for i in 0..self.shard_count {
            let indices = shard_indices(cfg.n_workers, ShardSpec::new(i, self.shard_count));
            let stripe: Vec<WorkerOutcome> = indices
                .par_iter()
                .map(|&w| run_planned(cfg, superstep, w, &self.plans[w]))
                .collect();
            for o in stripe {
                let slot = o.worker;
                outcomes[slot] = Some(o);
            }
        }
        let mut outcomes: Vec<WorkerOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("shards partition the workers"))
            .collect();
        let stats = close_barrier(&self.book, cfg, superstep, &mut outcomes)?;
        Ok((outcomes, stats))
    }
}

/// Order-sensitive FNV-1a over the bit patterns of every completion time;
/// two runs agree on this iff their outcome vectors are byte-identical.
pub fn fingerprint_outcomes(outcomes: &[WorkerOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in outcomes {
        eat(o.worker as u64);
        eat(o.secs.to_bits());
        eat(o.slowdown.to_bits());
    }
    h
}

/// Run the full lossy-BSP machine: `cfg.supersteps` supersteps in
/// sequence, each closing with a barrier.
pub fn run_bsp(cfg: &BspConfig) -> Result<BspReport> {
    run_bsp_sharded(cfg, 1)
}

/// [`run_bsp`] with every superstep striped over `shard_count` in-process
/// shards. Byte-identical to `run_bsp` for any shard count.
pub fn run_bsp_sharded(cfg: &BspConfig, shard_count: usize) -> Result<BspReport> {
    let machine = Machine::plan(cfg, shard_count)?;
    let mut stats = Vec::with_capacity(cfg.supersteps);
    let mut pooled: Vec<f64> = Vec::with_capacity(cfg.supersteps * cfg.n_workers);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in 0..cfg.supersteps {
        let (outcomes, st) = machine.superstep(s)?;
        pooled.extend(outcomes.iter().map(|o| o.slowdown));
        // Chain the per-superstep fingerprints order-sensitively.
        let fp = fingerprint_outcomes(&outcomes);
        for b in fp.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        stats.push(st);
    }
    let pooled_tail = tail_mass(&pooled)
        .ok_or_else(|| Error::Config("pooled slowdowns are degenerate".into()))?;
    Ok(BspReport {
        stats,
        pooled_tail_mass: pooled_tail,
        fingerprint: h,
    })
}

/// Serialize outcomes for the `bsp_study` multi-process driver: one line
/// per worker, f64s as bit-exact hex so the merge is byte-faithful.
pub fn encode_outcomes(outcomes: &[WorkerOutcome]) -> String {
    let mut out = String::with_capacity(outcomes.len() * 48);
    for o in outcomes {
        out.push_str(&format!(
            "{} {} {} {:016x} {:016x}\n",
            o.worker,
            o.alt,
            o.chunk_bytes,
            o.secs.to_bits(),
            o.slowdown.to_bits()
        ));
    }
    out
}

/// Parse [`encode_outcomes`] output back into outcomes.
pub fn decode_outcomes(text: &str) -> Result<Vec<WorkerOutcome>> {
    let bad = |line: &str| Error::Config(format!("malformed outcome line: {line:?}"));
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let mut t = line.split_ascii_whitespace();
        let mut next = || t.next().ok_or_else(|| bad(line));
        let worker: usize = next()?.parse().map_err(|_| bad(line))?;
        let alt: usize = next()?.parse().map_err(|_| bad(line))?;
        let chunk_bytes: u64 = next()?.parse().map_err(|_| bad(line))?;
        let secs = f64::from_bits(u64::from_str_radix(next()?, 16).map_err(|_| bad(line))?);
        let slowdown = f64::from_bits(u64::from_str_radix(next()?, 16).map_err(|_| bad(line))?);
        out.push(WorkerOutcome {
            worker,
            secs,
            slowdown,
            alt,
            chunk_bytes,
        });
    }
    Ok(out)
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
        let secs = transfer_secs(bytes, bytes, &path, &mut rng);
        let base = base_secs(bytes, bytes, &path);
        assert!((secs - base).abs() < 1e-12, "{secs} vs {base}");
        // Chunking only adds handshakes when loss-free.
        let chunked = transfer_secs(bytes, 10 * MTU_BYTES, &path, &mut rng);
        assert!((chunked - (base + 9.0 * path.rtt)).abs() < 1e-9);
    }

    #[test]
    fn automaton_time_exceeds_wire_lower_bound() {
        // The same physics bound the netsim transfer engine obeys.
        let cfg = tiny(7);
        let book = GridSample::new(cfg.seed);
        for w in 0..10 {
            let path = worker_path(&book, &cfg, w, 0);
            let o = run_worker(&book, &cfg, 0, w);
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
        // The same identity through `transfer_counts`, on runs the chain
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
                let fast = transfer_counts(n_pkts, pkts_per_chunk, gilbert, || {
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
        let (n_pkts, pkts_per_chunk) = packetize(1024 * 1024, 64 * 1024);
        let mut most = 0;
        for seed in 0..500 {
            let mut rng = Sampler::child_rng(seed, 2);
            let mut draws = 0u64;
            let c = transfer_counts(n_pkts, pkts_per_chunk, gilbert, || {
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
    fn outcome_codec_round_trips_bit_exactly() {
        let cfg = tiny(5);
        let (outcomes, _) = run_superstep(&cfg, 0).unwrap();
        let decoded = decode_outcomes(&encode_outcomes(&outcomes)).unwrap();
        assert_eq!(outcomes, decoded);
        assert!(decode_outcomes("not a line").is_err());
        assert!(decode_outcomes("1 0 10 zz zz").is_err());
    }
}
