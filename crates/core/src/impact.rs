//! The impact studies of Section 4: protocol competition (Fig 7) and
//! parallel-transfer latency predictability (Fig 8).

use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::packet::FlowId;
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::{build_dumbbell, DumbbellConfig, RttAssignment};
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::config::TcpConfig;
use lossburst_transport::sender::Sender;
use rayon::prelude::*;

/// Fig 7 setup: equal populations of TCP Pacing and TCP NewReno flows
/// sharing one bottleneck.
#[derive(Clone, Debug)]
pub struct CompetitionConfig {
    /// Flows per class (the paper: 16 + 16).
    pub(crate) flows_per_class: usize,
    /// Bottleneck capacity (paper: 100 Mbps).
    pub(crate) bottleneck_bps: f64,
    /// Path RTT (paper: 50 ms).
    pub(crate) rtt: SimDuration,
    /// Bottleneck buffer in packets (paper-era default: one BDP).
    pub(crate) buffer_pkts: usize,
    /// Run length (paper plots 0–40 s).
    pub duration: SimDuration,
    /// Throughput-series bin, seconds.
    pub(crate) bin_secs: f64,
    /// Seed.
    pub(crate) seed: u64,
}

impl CompetitionConfig {
    /// The paper's Fig 7 parameters.
    pub fn paper(seed: u64) -> CompetitionConfig {
        CompetitionConfig {
            flows_per_class: 16,
            bottleneck_bps: 100e6,
            rtt: SimDuration::from_millis(50),
            buffer_pkts: 625, // 100 Mbps × 50 ms at 1000 B
            duration: SimDuration::from_secs(40),
            bin_secs: 1.0,
            seed,
        }
    }
}

/// Fig 7 output.
#[derive(Clone, Debug)]
pub struct CompetitionResult {
    /// Aggregate TCP Pacing throughput per bin, Mbps.
    pub pacing_series_mbps: Vec<f64>,
    /// Aggregate TCP NewReno throughput per bin, Mbps.
    pub newreno_series_mbps: Vec<f64>,
    /// Steady-state mean (bins after the first 5 s), Mbps.
    pub pacing_mean_mbps: f64,
    /// Steady-state mean, Mbps.
    pub newreno_mean_mbps: f64,
    /// `1 − pacing/newreno` (the paper reports ≈ 17%).
    pub pacing_deficit: f64,
}

/// Run the Fig 7 competition experiment.
pub fn competition(cfg: &CompetitionConfig) -> CompetitionResult {
    let mut b = SimBuilder::new(cfg.seed).trace(TraceConfig::all());
    let pairs = 2 * cfg.flows_per_class;
    let dcfg = DumbbellConfig {
        pairs,
        bottleneck_bps: cfg.bottleneck_bps,
        access_bps: 1e9,
        bottleneck_disc: QueueDisc::drop_tail(cfg.buffer_pkts),
        access_buffer_pkts: 10_000,
        rtt: RttAssignment::Fixed(cfg.rtt),
    };
    let db = build_dumbbell(&mut b, &dcfg);

    let mut newreno_ids: Vec<FlowId> = Vec::new();
    let mut pacing_ids: Vec<FlowId> = Vec::new();
    let mut stagger_rng = lossburst_netsim::rng::Sampler::child_rng(cfg.seed, 0xF1607);
    for i in 0..pairs {
        // Interleave classes across pairs so construction order cannot
        // privilege either class; random start offsets within one RTT so
        // different seeds explore different loss phasings.
        let (s, r) = (db.senders[i], db.receivers[i]);
        let start = SimTime::ZERO
            + lossburst_netsim::rng::Sampler::uniform_duration(
                &mut stagger_rng,
                SimDuration::ZERO,
                cfg.rtt,
            );
        if i % 2 == 0 {
            let id = b.flow(
                s,
                r,
                start,
                Box::new(Sender::newreno(s, r, TcpConfig::default())),
            );
            newreno_ids.push(id);
        } else {
            let id = b.flow(
                s,
                r,
                start,
                Box::new(Sender::pacing(s, r, TcpConfig::default(), cfg.rtt)),
            );
            pacing_ids.push(id);
        }
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + cfg.duration);

    let end = cfg.duration.as_secs_f64();
    let to_mbps = |series: Vec<f64>| -> Vec<f64> { series.iter().map(|b| b / 1e6).collect() };
    let pacing_series_mbps = to_mbps(sim.trace.throughput_series(&pacing_ids, cfg.bin_secs, end));
    let newreno_series_mbps = to_mbps(sim.trace.throughput_series(&newreno_ids, cfg.bin_secs, end));

    let skip = (5.0 / cfg.bin_secs) as usize;
    let mean_after = |s: &[f64]| -> f64 {
        let tail = &s[skip.min(s.len())..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    };
    let pacing_mean_mbps = mean_after(&pacing_series_mbps);
    let newreno_mean_mbps = mean_after(&newreno_series_mbps);
    let pacing_deficit = if newreno_mean_mbps > 0.0 {
        1.0 - pacing_mean_mbps / newreno_mean_mbps
    } else {
        0.0
    };
    CompetitionResult {
        pacing_series_mbps,
        newreno_series_mbps,
        pacing_mean_mbps,
        newreno_mean_mbps,
        pacing_deficit,
    }
}

/// Section 4.2 / Section 5 lesson 2, quantified on the transfer pattern
/// where it matters (the Fig 8 setting): `flows` identical senders each
/// move a fixed chunk; how dispersed are their completion times?
///
/// Window-based flows share each bursty loss event unevenly — the unlucky
/// ones halve (or time out) and straggle — while paced flows observe every
/// event and slow down *together*: higher mean at long RTTs, but far lower
/// variance. That trade is the paper's "better predictability of
/// throughput" claim.
#[derive(Clone, Copy, Debug)]
pub struct PredictabilityResult {
    /// Mean per-flow completion time, seconds.
    pub mean_completion: f64,
    /// Coefficient of variation of per-flow completion times
    /// (lower = more predictable).
    pub completion_cv: f64,
}

/// Run the predictability experiment: `flows` senders (all NewReno if
/// `paced` is false, all Pacing otherwise) each transfer `chunk_bytes`
/// over a shared 100 Mbps bottleneck at `rtt`.
pub fn predictability(
    flows: usize,
    paced: bool,
    chunk_bytes: u64,
    rtt: SimDuration,
    seed: u64,
) -> PredictabilityResult {
    let times = completion_times(
        &ChunkedTransfer {
            flows,
            chunk_bytes,
            rtt,
            bottleneck_bps: 100e6,
            buffer_pkts: 625,
            cc: if paced {
                CcAlgorithm::Pacing
            } else {
                CcAlgorithm::NewReno
            },
            tcp: TcpConfig::default(),
            stagger: (0x93ED, rtt),
            horizon: SimDuration::from_secs(900),
        },
        seed,
    );
    let mean = lossburst_analysis::stats::mean(&times);
    let cv = if mean > 0.0 {
        lossburst_analysis::stats::variance(&times).sqrt() / mean
    } else {
        0.0
    };
    PredictabilityResult {
        mean_completion: mean,
        completion_cv: cv,
    }
}

/// TFRC-vs-TCP mix (Section 5, lesson 1; Rhee & Xu's observation): equal
/// populations of TFRC and a chosen TCP implementation share a bottleneck.
#[derive(Clone, Debug)]
pub struct MixConfig {
    /// Flows per class.
    pub(crate) flows_per_class: usize,
    /// Whether the TCP class paces (the paper's remedy) or bursts.
    pub(crate) paced_tcp: bool,
    /// Bottleneck capacity.
    pub(crate) bottleneck_bps: f64,
    /// Path RTT.
    pub(crate) rtt: SimDuration,
    /// Bottleneck buffer, packets.
    pub(crate) buffer_pkts: usize,
    /// Run length.
    pub duration: SimDuration,
    /// Seed.
    pub(crate) seed: u64,
}

impl MixConfig {
    /// A representative mix: 4 + 4 flows on 50 Mbps / 50 ms.
    pub fn default_setup(paced_tcp: bool, seed: u64) -> MixConfig {
        MixConfig {
            flows_per_class: 4,
            paced_tcp,
            bottleneck_bps: 50e6,
            rtt: SimDuration::from_millis(50),
            buffer_pkts: 312,
            duration: SimDuration::from_secs(40),
            seed,
        }
    }
}

/// Outcome of a protocol-mix run.
#[derive(Clone, Copy, Debug)]
pub struct MixResult {
    /// Aggregate TFRC goodput, Mbps.
    pub tfrc_mbps: f64,
    /// Aggregate TCP goodput, Mbps.
    pub tcp_mbps: f64,
    /// TFRC's share of the combined goodput (0.5 = fair).
    pub tfrc_share: f64,
}

/// Run the TFRC/TCP mix experiment.
pub fn protocol_mix(cfg: &MixConfig) -> MixResult {
    use lossburst_transport::tfrc::TfrcSender;
    let mut b = SimBuilder::new(cfg.seed).trace(TraceConfig::all());
    let pairs = 2 * cfg.flows_per_class;
    let dcfg = DumbbellConfig {
        pairs,
        bottleneck_bps: cfg.bottleneck_bps,
        access_bps: 1e9,
        bottleneck_disc: QueueDisc::drop_tail(cfg.buffer_pkts),
        access_buffer_pkts: 10_000,
        rtt: RttAssignment::Fixed(cfg.rtt),
    };
    let db = build_dumbbell(&mut b, &dcfg);
    let mut tfrc_ids = Vec::new();
    let mut tcp_ids = Vec::new();
    let mut stagger = lossburst_netsim::rng::Sampler::child_rng(cfg.seed, 0x317C);
    for i in 0..pairs {
        let (s, r) = (db.senders[i], db.receivers[i]);
        let start = SimTime::ZERO
            + lossburst_netsim::rng::Sampler::uniform_duration(
                &mut stagger,
                SimDuration::ZERO,
                cfg.rtt,
            );
        if i % 2 == 0 {
            tfrc_ids.push(b.flow(s, r, start, Box::new(TfrcSender::new(s, r, 1000, cfg.rtt))));
        } else {
            let tcp: Box<dyn lossburst_netsim::iface::Transport> = if cfg.paced_tcp {
                Box::new(Sender::pacing(s, r, TcpConfig::default(), cfg.rtt))
            } else {
                Box::new(Sender::newreno(s, r, TcpConfig::default()))
            };
            tcp_ids.push(b.flow(s, r, start, tcp));
        }
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + cfg.duration);
    let secs = cfg.duration.as_secs_f64();
    let rate = |ids: &[FlowId]| -> f64 {
        ids.iter()
            .map(|id| sim.flows[id.index()].transport.progress().bytes_delivered)
            .sum::<u64>() as f64
            * 8.0
            / secs
            / 1e6
    };
    let tfrc_mbps = rate(&tfrc_ids);
    let tcp_mbps = rate(&tcp_ids);
    MixResult {
        tfrc_mbps,
        tcp_mbps,
        tfrc_share: tfrc_mbps / (tfrc_mbps + tcp_mbps).max(1e-9),
    }
}

/// Fig 8 setup: `total_bytes` split evenly over k parallel flows
/// (GridFTP / GFS style), swept over flow counts and RTTs, replicated over
/// seeds.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Total data to move (paper: 64 MB).
    pub total_bytes: u64,
    /// Parallel-flow counts to sweep (paper: 2–32).
    pub flow_counts: Vec<usize>,
    /// RTTs to sweep (paper: 2/10/50/200 ms).
    pub rtts: Vec<SimDuration>,
    /// Bottleneck capacity (paper: 100 Mbps).
    pub bottleneck_bps: f64,
    /// Bottleneck buffer, packets.
    pub buffer_pkts: usize,
    /// Replication seeds (the paper reports mean and deviation).
    pub seeds: Vec<u64>,
}

impl ParallelConfig {
    /// The paper's Fig 8 grid with a given replication count.
    pub fn paper(replications: u64) -> ParallelConfig {
        ParallelConfig {
            total_bytes: 64 * 1024 * 1024,
            flow_counts: vec![2, 4, 8, 16, 32],
            rtts: vec![
                SimDuration::from_millis(2),
                SimDuration::from_millis(10),
                SimDuration::from_millis(50),
                SimDuration::from_millis(200),
            ],
            bottleneck_bps: 100e6,
            buffer_pkts: 625,
            seeds: (0..replications).map(|i| 0xF18_0000 + i).collect(),
        }
    }

    /// Reject configurations that would divide by zero (flows, bandwidth)
    /// or reduce an empty axis — the same contract `RedConfig::validate`
    /// gives the queue layer. `bsp` drives this path with generated
    /// configs, so the failure has to be an error, not a NaN.
    pub(crate) fn validate(&self) -> crate::error::Result<()> {
        let fail = |msg: String| Err(crate::error::Error::Config(msg));
        if self.total_bytes == 0 {
            return fail("total_bytes must be positive".into());
        }
        if !(self.bottleneck_bps.is_finite() && self.bottleneck_bps > 0.0) {
            return fail(format!(
                "bottleneck_bps must be finite and positive, got {}",
                self.bottleneck_bps
            ));
        }
        if self.flow_counts.is_empty() {
            return fail("flow_counts must be non-empty".into());
        }
        if let Some(&f) = self.flow_counts.iter().find(|&&f| f == 0) {
            return fail(format!("flow_counts entries must be positive, got {f}"));
        }
        if self.rtts.is_empty() {
            return fail("rtts must be non-empty".into());
        }
        if self.seeds.is_empty() {
            return fail("seeds must be non-empty".into());
        }
        Ok(())
    }
}

/// One (flow count, RTT) cell of Fig 8.
#[derive(Clone, Debug)]
pub struct ParallelCell {
    /// Parallel flows used.
    pub flows: usize,
    /// Path RTT.
    pub rtt: SimDuration,
    /// Completion latency of each replication, seconds (time until the
    /// *last* flow finishes — the straggler defines the transfer).
    pub latencies: Vec<f64>,
    /// Mean latency normalized by the theoretic lower bound.
    pub mean_normalized: f64,
    /// Standard deviation of the normalized latency.
    pub std_normalized: f64,
}

/// The theoretic lower bound: the wire time of the payload at bottleneck
/// rate (the paper's "5.39 seconds" for 64 MB over 100 Mbps, which includes
/// its header overhead; with our 4% headers the bound is
/// `total · 8 · 1.04 / rate`).
pub fn theoretic_lower_bound(total_bytes: u64, bottleneck_bps: f64) -> f64 {
    try_theoretic_lower_bound(total_bytes, bottleneck_bps)
        .expect("theoretic_lower_bound: invalid bandwidth")
}

/// Fallible form of [`theoretic_lower_bound`]: zero/negative/NaN bandwidth
/// is a configuration error, not an inf/NaN that silently propagates into
/// Fig 8 cell ratios.
pub fn try_theoretic_lower_bound(
    total_bytes: u64,
    bottleneck_bps: f64,
) -> crate::error::Result<f64> {
    if !(bottleneck_bps.is_finite() && bottleneck_bps > 0.0) {
        return Err(crate::error::Error::Config(format!(
            "bottleneck_bps must be finite and positive, got {bottleneck_bps}"
        )));
    }
    Ok(total_bytes as f64 * 8.0 * 1.04 / bottleneck_bps)
}

/// Run one replication of one cell; returns the completion latency in
/// seconds (or the horizon if a straggler never finished). Panics on an
/// invalid cell; use [`try_parallel_once`] when the inputs are generated.
pub fn parallel_once(
    total_bytes: u64,
    flows: usize,
    rtt: SimDuration,
    bottleneck_bps: f64,
    buffer_pkts: usize,
    seed: u64,
) -> f64 {
    try_parallel_once(total_bytes, flows, rtt, bottleneck_bps, buffer_pkts, seed)
        .expect("parallel_once: invalid cell")
}

/// Fallible form of [`parallel_once`]: rejects `flows == 0` (the even byte
/// split would divide by zero and the final straggler `max` would reduce an
/// empty set to 0.0 — a 0-worker transfer must be an error, not a
/// zero-latency success) and `total_bytes == 0` / bad bandwidth likewise.
pub fn try_parallel_once(
    total_bytes: u64,
    flows: usize,
    rtt: SimDuration,
    bottleneck_bps: f64,
    buffer_pkts: usize,
    seed: u64,
) -> crate::error::Result<f64> {
    let chunk_bytes = even_chunk(total_bytes, flows)?;
    if total_bytes == 0 {
        return Err(crate::error::Error::Config(
            "total_bytes must be positive".into(),
        ));
    }
    // Validate the bandwidth before the topology is built: the link layer
    // panics on a non-positive rate, and the bound divides by it.
    let bound = try_theoretic_lower_bound(total_bytes, bottleneck_bps)?;
    let times = completion_times(
        &ChunkedTransfer {
            flows,
            chunk_bytes,
            rtt,
            bottleneck_bps,
            buffer_pkts,
            cc: CcAlgorithm::NewReno,
            tcp: TcpConfig::default(),
            // Start jitter within one RTT: real cluster nodes never launch
            // in the same microsecond, and without it every replication is
            // identical.
            stagger: (0xF168, rtt.max(SimDuration::from_millis(10))),
            horizon: SimDuration::from_secs_f64(bound * 60.0),
        },
        seed,
    );
    // `flows > 0` was checked above, so this max is over a non-empty set
    // and cannot silently report a 0-second transfer.
    Ok(times.into_iter().fold(0.0f64, f64::max))
}

/// `total_bytes` split evenly over `flows`. Zero flows is a configuration
/// error: the split would divide by zero, and the straggler `max` would
/// reduce an empty set to a 0-second transfer.
pub(crate) fn even_chunk(total_bytes: u64, flows: usize) -> crate::error::Result<u64> {
    if flows == 0 {
        return Err(crate::error::Error::Config(
            "flows must be positive (a 0-flow transfer has no straggler to time)".into(),
        ));
    }
    Ok(total_bytes / flows as u64)
}

/// One replication of the Fig 8 experiment: `flows` senders of one
/// algorithm each move `chunk_bytes` across a fixed-RTT dumbbell.
pub(crate) struct ChunkedTransfer {
    pub(crate) flows: usize,
    pub(crate) chunk_bytes: u64,
    pub(crate) rtt: SimDuration,
    pub(crate) bottleneck_bps: f64,
    pub(crate) buffer_pkts: usize,
    pub(crate) cc: CcAlgorithm,
    pub(crate) tcp: TcpConfig,
    /// Starts are drawn uniformly from `[0, .1)` on child stream `.0` of
    /// the seed.
    pub(crate) stagger: (u64, SimDuration),
    pub(crate) horizon: SimDuration,
}

/// Run `x` and return each flow's completion time in seconds (the horizon
/// for a flow that never finished) — what [`try_parallel_once`],
/// [`predictability`] and [`crate::ablation::straggler_ablation`] each
/// reduce their own way.
pub(crate) fn completion_times(x: &ChunkedTransfer, seed: u64) -> Vec<f64> {
    let mut b = SimBuilder::new(seed);
    let dcfg = DumbbellConfig {
        pairs: x.flows,
        bottleneck_bps: x.bottleneck_bps,
        access_bps: 1e9,
        bottleneck_disc: QueueDisc::drop_tail(x.buffer_pkts),
        access_buffer_pkts: 10_000,
        rtt: RttAssignment::Fixed(x.rtt),
    };
    let db = build_dumbbell(&mut b, &dcfg);
    let spec = FlowSpec {
        tcp: x.tcp.clone(),
        rtt_hint: x.rtt,
        limit_bytes: Some(x.chunk_bytes),
    };
    let mut stagger = Sampler::child_rng(seed, x.stagger.0);
    for i in 0..x.flows {
        let (s, r) = (db.senders[i], db.receivers[i]);
        let start =
            SimTime::ZERO + Sampler::uniform_duration(&mut stagger, SimDuration::ZERO, x.stagger.1);
        b.flow(s, r, start, x.cc.build_flow(s, r, &spec));
    }
    let horizon = SimTime::ZERO + x.horizon;
    let mut sim = b.build();
    sim.run_until(horizon);
    sim.flows
        .iter()
        .map(|f| f.completed_at.unwrap_or(horizon).as_secs_f64())
        .collect()
}

/// Run the full Fig 8 grid (cells × seeds over the worker pool; the inner
/// per-seed fan-out nests inside the per-cell one, which the pool supports
/// without deadlock — the submitting worker helps drive the inner job).
pub fn parallel_study(cfg: &ParallelConfig) -> crate::error::Result<Vec<ParallelCell>> {
    cfg.validate()?;
    let bound = try_theoretic_lower_bound(cfg.total_bytes, cfg.bottleneck_bps)?;
    let mut cells: Vec<(usize, SimDuration)> = Vec::new();
    for &f in &cfg.flow_counts {
        for &r in &cfg.rtts {
            cells.push((f, r));
        }
    }
    Ok(cells
        .par_iter()
        .map(|&(flows, rtt)| {
            let latencies: Vec<f64> = cfg
                .seeds
                .par_iter()
                .map(|&seed| {
                    parallel_once(
                        cfg.total_bytes,
                        flows,
                        rtt,
                        cfg.bottleneck_bps,
                        cfg.buffer_pkts,
                        seed ^ ((flows as u64) << 20) ^ rtt.as_nanos(),
                    )
                })
                .collect();
            let norm: Vec<f64> = latencies.iter().map(|l| l / bound).collect();
            let mean = lossburst_analysis::stats::mean(&norm);
            let std = lossburst_analysis::stats::variance(&norm).sqrt();
            ParallelCell {
                flows,
                rtt,
                latencies,
                mean_normalized: mean,
                std_normalized: std,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_loses_to_newreno() {
        let mut cfg = CompetitionConfig::paper(17);
        cfg.duration = SimDuration::from_secs(20);
        let res = competition(&cfg);
        assert!(
            res.newreno_mean_mbps + res.pacing_mean_mbps > 60.0,
            "link underused: {} + {}",
            res.newreno_mean_mbps,
            res.pacing_mean_mbps
        );
        assert!(
            res.pacing_deficit > 0.03,
            "pacing deficit only {:.3}",
            res.pacing_deficit
        );
        assert_eq!(res.pacing_series_mbps.len(), 20);
    }

    #[test]
    fn pacing_makes_long_rtt_transfers_predictable() {
        // Section 5, lesson 2, in the Fig 8 regime (200 ms RTT): paced
        // flows slow down together, so completion dispersion collapses —
        // even though the mean is higher. At long RTTs window-based flows
        // straggle (some halve/time out, others do not).
        let rtt = SimDuration::from_millis(200);
        let chunk = 8 * 1024 * 1024;
        let avg = |paced: bool| {
            let runs: Vec<PredictabilityResult> = (0..3)
                .map(|s| predictability(8, paced, chunk, rtt, 700 + s))
                .collect();
            (
                runs.iter().map(|r| r.mean_completion).sum::<f64>() / runs.len() as f64,
                runs.iter().map(|r| r.completion_cv).sum::<f64>() / runs.len() as f64,
            )
        };
        let (win_mean, win_cv) = avg(false);
        let (rate_mean, rate_cv) = avg(true);
        assert!(
            rate_cv < win_cv * 0.7,
            "pacing should collapse completion dispersion: {rate_cv:.3} vs {win_cv:.3}"
        );
        // The honest cost: uniform back-off is slower on average.
        assert!(
            rate_mean > win_mean * 0.8,
            "sanity: paced mean {rate_mean:.1}s vs window {win_mean:.1}s"
        );
    }

    #[test]
    fn tfrc_fares_better_against_pacing_than_against_newreno() {
        // Section 5, lesson 1, quantified: TFRC's share of the link is
        // closer to fair when the TCP class is rate-based.
        let mut shares = [0.0f64; 2];
        for (k, paced) in [false, true].into_iter().enumerate() {
            let mut cfg = MixConfig::default_setup(paced, 77);
            cfg.duration = SimDuration::from_secs(25);
            shares[k] = protocol_mix(&cfg).tfrc_share;
        }
        let (vs_newreno, vs_pacing) = (shares[0], shares[1]);
        assert!(
            vs_newreno < 0.5,
            "TFRC should under-share against window-based TCP ({vs_newreno:.2})"
        );
        assert!(
            vs_pacing > vs_newreno,
            "pacing should improve TFRC's share: {vs_pacing:.2} vs {vs_newreno:.2}"
        );
        assert!(
            (vs_pacing - 0.5).abs() < 0.15,
            "against pacing the share should be near fair ({vs_pacing:.2})"
        );
    }

    #[test]
    fn lower_bound_matches_paper_number() {
        // 64 MB over 100 Mbps with 4% header overhead ≈ 5.6 s; the paper's
        // own figure (with its overheads) is 5.39 s. Same ballpark.
        let b = theoretic_lower_bound(64 * 1024 * 1024, 100e6);
        assert!((5.0..6.0).contains(&b), "bound {b}");
    }

    #[test]
    fn single_cell_parallel_transfer_completes_near_bound() {
        // 8 flows, 10 ms RTT, small transfer for test speed.
        let lat = parallel_once(
            8 * 1024 * 1024,
            8,
            SimDuration::from_millis(10),
            100e6,
            625,
            3,
        );
        let bound = theoretic_lower_bound(8 * 1024 * 1024, 100e6);
        assert!(lat >= bound * 0.95, "faster than physics: {lat} < {bound}");
        assert!(lat < bound * 6.0, "wildly slow: {lat} vs bound {bound}");
    }

    #[test]
    fn long_rtt_transfers_are_much_slower_than_bound() {
        let lat = parallel_once(
            8 * 1024 * 1024,
            4,
            SimDuration::from_millis(200),
            100e6,
            625,
            5,
        );
        let bound = theoretic_lower_bound(8 * 1024 * 1024, 100e6);
        // At 200 ms RTT slow-start alone takes ~10 RTT = 2 s; normalized
        // latency must be well above 1.
        assert!(lat / bound > 1.5, "normalized {}", lat / bound);
    }

    #[test]
    fn parallel_study_grid_shape() {
        let cfg = ParallelConfig {
            total_bytes: 4 * 1024 * 1024,
            flow_counts: vec![2, 4],
            rtts: vec![SimDuration::from_millis(10), SimDuration::from_millis(50)],
            bottleneck_bps: 100e6,
            buffer_pkts: 300,
            seeds: vec![1, 2],
        };
        let cells = parallel_study(&cfg).expect("valid grid");
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert_eq!(c.latencies.len(), 2);
            assert!(c.mean_normalized >= 0.95);
        }
    }

    #[test]
    fn lower_bound_rejects_bad_bandwidth() {
        for bad in [0.0, -100e6, f64::NAN, f64::INFINITY] {
            let e = try_theoretic_lower_bound(1024, bad).unwrap_err();
            assert!(
                e.to_string().contains("bottleneck_bps"),
                "unexpected message: {e}"
            );
        }
        // Boundary: any strictly positive finite rate is accepted.
        assert!(try_theoretic_lower_bound(1024, f64::MIN_POSITIVE).is_ok());
        assert!(
            (try_theoretic_lower_bound(64 * 1024 * 1024, 100e6).unwrap()
                - theoretic_lower_bound(64 * 1024 * 1024, 100e6))
            .abs()
                == 0.0
        );
    }

    #[test]
    fn parallel_once_rejects_degenerate_cells() {
        let rtt = SimDuration::from_millis(10);
        assert!(try_parallel_once(1024, 0, rtt, 100e6, 625, 1).is_err());
        assert!(try_parallel_once(0, 2, rtt, 100e6, 625, 1).is_err());
        assert!(try_parallel_once(1024, 2, rtt, 0.0, 625, 1).is_err());
        assert!(try_parallel_once(1024, 2, rtt, f64::NAN, 625, 1).is_err());
    }

    #[test]
    fn parallel_config_validate_catches_each_field() {
        let good = ParallelConfig {
            total_bytes: 1024,
            flow_counts: vec![2],
            rtts: vec![SimDuration::from_millis(10)],
            bottleneck_bps: 100e6,
            buffer_pkts: 100,
            seeds: vec![1],
        };
        assert!(good.validate().is_ok());
        let cases: Vec<(&str, ParallelConfig)> = vec![
            (
                "total_bytes",
                ParallelConfig {
                    total_bytes: 0,
                    ..good.clone()
                },
            ),
            (
                "bottleneck_bps",
                ParallelConfig {
                    bottleneck_bps: 0.0,
                    ..good.clone()
                },
            ),
            (
                "bottleneck_bps",
                ParallelConfig {
                    bottleneck_bps: f64::NAN,
                    ..good.clone()
                },
            ),
            (
                "flow_counts",
                ParallelConfig {
                    flow_counts: vec![],
                    ..good.clone()
                },
            ),
            (
                "flow_counts",
                ParallelConfig {
                    flow_counts: vec![2, 0],
                    ..good.clone()
                },
            ),
            (
                "rtts",
                ParallelConfig {
                    rtts: vec![],
                    ..good.clone()
                },
            ),
            (
                "seeds",
                ParallelConfig {
                    seeds: vec![],
                    ..good.clone()
                },
            ),
        ];
        for (field, cfg) in cases {
            let e = cfg.validate().unwrap_err();
            assert!(e.to_string().contains(field), "{field}: {e}");
            assert!(parallel_study(&cfg).is_err(), "{field} reached the grid");
        }
    }
}
