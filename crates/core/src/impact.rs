//! The impact studies of Section 4: protocol competition (Fig 7) and
//! parallel-transfer latency predictability (Fig 8).

use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::iface::Transport;
use lossburst_netsim::packet::{FlowId, LinkId, NodeId};
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::sim::{FlowHandle, Simulator};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::{build_dumbbell, DumbbellConfig, RttAssignment};
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::config::TcpConfig;
use rayon::prelude::*;

/// The one shared-bottleneck run of Sections 4–5: Fig 7's [`competition`],
/// the [`protocol_mix`], Fig 8's transfers, the fairness cell and the ECN
/// comparison. It builds the Fig 1 dumbbell in `b` (which carries the seed
/// and the trace streams) on [`DumbbellConfig::paper_baseline`]'s access
/// links, with a `bottleneck_bps` bottleneck under `disc`, and one flow per
/// pair: pair `i` runs `flow(i, sender, receiver)` from `starts[i]`. The
/// run lasts `horizon`. Returns the simulator, the flow handles in pair
/// order and the forward bottleneck.
pub(crate) fn shared_bottleneck(
    mut b: SimBuilder,
    bottleneck_bps: f64,
    rtt: RttAssignment,
    disc: QueueDisc,
    horizon: SimDuration,
    starts: &[SimTime],
    mut flow: impl FnMut(usize, NodeId, NodeId) -> Box<dyn Transport>,
) -> (Simulator, Vec<FlowHandle<dyn Transport>>, LinkId) {
    let dcfg = DumbbellConfig {
        bottleneck_bps,
        bottleneck_disc: disc,
        ..DumbbellConfig::paper_baseline(starts.len(), 0, rtt)
    };
    let db = build_dumbbell(&mut b, &dcfg);
    let flows = starts
        .iter()
        .enumerate()
        .map(|(i, &start)| b.flow(start, flow(i, db.senders[i], db.receivers[i])))
        .collect();
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + horizon);
    (sim, flows, db.bottleneck)
}

/// `n` start times drawn uniformly from `[0, span]` on child stream `tag`
/// of `seed`: start jitter, so different seeds explore different loss
/// phasings.
fn staggered_starts(seed: u64, tag: u64, span: SimDuration, n: usize) -> Vec<SimTime> {
    let mut rng = Sampler::child_rng(seed, tag);
    (0..n)
        .map(|_| SimTime::ZERO + Sampler::uniform_duration(&mut rng, SimDuration::ZERO, span))
        .collect()
}

/// Class `k` (0 or 1) of two classes interleaved across pairs: every
/// second item from `k`.
pub(crate) fn class<T: Copy>(flows: &[T], k: usize) -> impl Iterator<Item = T> + '_ {
    flows.iter().skip(k).step_by(2).copied()
}

/// `bytes` delivered over `secs`, in Mbps.
pub(crate) fn goodput_mbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 * 8.0 / secs / 1e6
}

/// The share of `link`'s capacity `bps` that its transmissions used over
/// `secs`.
pub(crate) fn utilization(sim: &Simulator, link: LinkId, bps: f64, secs: f64) -> f64 {
    sim.links[link.index()].stats.transmitted_bytes as f64 * 8.0 / (bps * secs)
}

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
    // Interleave classes across pairs (NewReno on even pairs) so
    // construction order cannot privilege either class; random start
    // offsets within one RTT.
    let spec = FlowSpec::new(cfg.rtt);
    let (sim, flows, _) = shared_bottleneck(
        SimBuilder::new(cfg.seed).trace(TraceConfig::all()),
        cfg.bottleneck_bps,
        RttAssignment::Fixed(cfg.rtt),
        QueueDisc::drop_tail(cfg.buffer_pkts),
        cfg.duration,
        &staggered_starts(cfg.seed, 0xF1607, cfg.rtt, 2 * cfg.flows_per_class),
        |i, s, r| [CcAlgorithm::NewReno, CcAlgorithm::Pacing][i % 2].build_flow(s, r, &spec),
    );
    let end = cfg.duration.as_secs_f64();
    let series_mbps = |k| -> Vec<f64> {
        let ids: Vec<FlowId> = class(&flows, k).map(|h| h.id()).collect();
        let series = sim.trace.throughput_series(&ids, cfg.bin_secs, end);
        series.iter().map(|b| b / 1e6).collect()
    };
    let (newreno_series_mbps, pacing_series_mbps) = (series_mbps(0), series_mbps(1));

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
/// over a shared 100 Mbps bottleneck at `rtt`. The cell is checked as
/// Fig 8 checks its grid, so zero `flows` or zero `chunk_bytes` is a
/// configuration error, not a 0-second transfer.
pub fn predictability(
    flows: usize,
    paced: bool,
    chunk_bytes: u64,
    rtt: SimDuration,
    seed: u64,
) -> crate::error::Result<PredictabilityResult> {
    ParallelConfig {
        total_bytes: chunk_bytes,
        flow_counts: vec![flows],
        rtts: vec![rtt],
        bottleneck_bps: 100e6,
        buffer_pkts: 625,
        seeds: vec![seed],
    }
    .validate()?;
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
    Ok(PredictabilityResult {
        mean_completion: mean,
        completion_cv: cv,
    })
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
    // TFRC on even pairs, TCP on odd ones, with the competition's start
    // jitter.
    let tcp = if cfg.paced_tcp {
        CcAlgorithm::Pacing
    } else {
        CcAlgorithm::NewReno
    };
    let spec = FlowSpec::new(cfg.rtt);
    let (sim, flows, _) = shared_bottleneck(
        SimBuilder::new(cfg.seed).trace(TraceConfig::all()),
        cfg.bottleneck_bps,
        RttAssignment::Fixed(cfg.rtt),
        QueueDisc::drop_tail(cfg.buffer_pkts),
        cfg.duration,
        &staggered_starts(cfg.seed, 0x317C, cfg.rtt, 2 * cfg.flows_per_class),
        |i, s, r| [CcAlgorithm::Tfrc, tcp][i % 2].build_flow(s, r, &spec),
    );
    let secs = cfg.duration.as_secs_f64();
    let class_mbps = |k| {
        let bytes = class(&flows, k).map(|h| sim.flow(h).progress().bytes_delivered);
        goodput_mbps(bytes.sum(), secs)
    };
    let (tfrc_mbps, tcp_mbps) = (class_mbps(0), class_mbps(1));
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
    /// configs, so the failure has to be an error, not a NaN. A 0-flow
    /// transfer in particular has no byte split and no straggler to time,
    /// so it is an error, not a 0-second success. Returns the theoretic
    /// lower bound the cells are normalized by.
    pub(crate) fn validate(&self) -> crate::error::Result<f64> {
        let fail = |msg: String| Err(crate::error::Error::Config(msg));
        if self.total_bytes == 0 {
            return fail("total_bytes must be positive".into());
        }
        let bound = try_theoretic_lower_bound(self.total_bytes, self.bottleneck_bps)?;
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
        Ok(bound)
    }

    /// One replication of one cell on a validated config: `flows` NewReno
    /// senders each move an even share of `total_bytes`, and the latency
    /// is the time the last one finishes (the horizon, 60 × `bound`, if a
    /// straggler never does).
    fn replication(&self, flows: usize, rtt: SimDuration, bound: f64, seed: u64) -> f64 {
        let transfer = ChunkedTransfer {
            flows,
            chunk_bytes: self.total_bytes / flows as u64,
            rtt,
            bottleneck_bps: self.bottleneck_bps,
            buffer_pkts: self.buffer_pkts,
            cc: CcAlgorithm::NewReno,
            tcp: TcpConfig::default(),
            // Start jitter within one RTT: real cluster nodes never launch
            // in the same microsecond, and without it every replication is
            // identical.
            stagger: (0xF168, rtt.max(SimDuration::from_millis(10))),
            horizon: SimDuration::from_secs_f64(bound * 60.0),
        };
        completion_times(&transfer, seed)
            .into_iter()
            .fold(0.0f64, f64::max)
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
/// `total · 8 · 1.04 / rate`). Zero/negative/NaN bandwidth is a
/// configuration error, not an inf/NaN that silently propagates into Fig 8
/// cell ratios.
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
/// seconds (or the horizon if a straggler never finished). The cell is
/// checked as a one-cell, one-seed [`ParallelConfig`] and run exactly as
/// [`parallel_study`] runs its replications, with `seed` used as given.
pub fn try_parallel_once(
    total_bytes: u64,
    flows: usize,
    rtt: SimDuration,
    bottleneck_bps: f64,
    buffer_pkts: usize,
    seed: u64,
) -> crate::error::Result<f64> {
    let cfg = ParallelConfig {
        total_bytes,
        flow_counts: vec![flows],
        rtts: vec![rtt],
        bottleneck_bps,
        buffer_pkts,
        seeds: vec![seed],
    };
    let bound = cfg.validate()?;
    Ok(cfg.replication(flows, rtt, bound, seed))
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
    /// Starts are drawn uniformly from `[0, .1]` on child stream `.0` of
    /// the seed.
    pub(crate) stagger: (u64, SimDuration),
    pub(crate) horizon: SimDuration,
}

/// Run `x` and return each flow's completion time in seconds (the horizon
/// for a flow that never finished) — what [`try_parallel_once`],
/// [`predictability`] and [`crate::ablation::straggler_ablation`] each
/// reduce their own way.
pub(crate) fn completion_times(x: &ChunkedTransfer, seed: u64) -> Vec<f64> {
    let spec = FlowSpec {
        tcp: x.tcp.clone(),
        rtt_hint: x.rtt,
        limit_bytes: Some(x.chunk_bytes),
    };
    let (sim, flows, _) = shared_bottleneck(
        SimBuilder::new(seed),
        x.bottleneck_bps,
        RttAssignment::Fixed(x.rtt),
        QueueDisc::drop_tail(x.buffer_pkts),
        x.horizon,
        &staggered_starts(seed, x.stagger.0, x.stagger.1, x.flows),
        |_, s, r| x.cc.build_flow(s, r, &spec),
    );
    let horizon = SimTime::ZERO + x.horizon;
    flows
        .into_iter()
        .map(|h| sim.completed_at(h).unwrap_or(horizon).as_secs_f64())
        .collect()
}

/// Run the full Fig 8 grid: every (cell, seed) replication in one fan-out
/// over `par_iter`, then each cell's row, in flow-count-major order.
/// A replication runs on `seed ^ (flows << 20) ^ rtt` in nanoseconds.
pub fn parallel_study(cfg: &ParallelConfig) -> crate::error::Result<Vec<ParallelCell>> {
    let bound = cfg.validate()?;
    let cells: Vec<(usize, SimDuration)> = cfg
        .flow_counts
        .iter()
        .flat_map(|&f| cfg.rtts.iter().map(move |&r| (f, r)))
        .collect();
    let runs: Vec<(usize, SimDuration, u64)> = cells
        .iter()
        .flat_map(|&(f, r)| {
            let cell_seed = ((f as u64) << 20) ^ r.as_nanos();
            cfg.seeds.iter().map(move |&s| (f, r, s ^ cell_seed))
        })
        .collect();
    let latencies: Vec<f64> = runs
        .par_iter()
        .map(|&(flows, rtt, seed)| cfg.replication(flows, rtt, bound, seed))
        .collect();
    Ok(cells
        .into_iter()
        .zip(latencies.chunks(cfg.seeds.len()))
        .map(|((flows, rtt), latencies)| {
            let norm: Vec<f64> = latencies.iter().map(|l| l / bound).collect();
            ParallelCell {
                flows,
                rtt,
                latencies: latencies.to_vec(),
                mean_normalized: lossburst_analysis::stats::mean(&norm),
                std_normalized: lossburst_analysis::stats::variance(&norm).sqrt(),
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
    fn pacing_makes_long_rtt_transfers_predictable() -> crate::error::Result<()> {
        // Section 5, lesson 2, in the Fig 8 regime (200 ms RTT): paced
        // flows slow down together, so completion dispersion collapses —
        // even though the mean is higher. At long RTTs window-based flows
        // straggle (some halve/time out, others do not).
        let rtt = SimDuration::from_millis(200);
        let chunk = 8 * 1024 * 1024;
        let avg = |paced: bool| -> crate::error::Result<(f64, f64)> {
            let runs = (0..3)
                .map(|s| predictability(8, paced, chunk, rtt, 700 + s))
                .collect::<crate::error::Result<Vec<_>>>()?;
            Ok((
                runs.iter().map(|r| r.mean_completion).sum::<f64>() / runs.len() as f64,
                runs.iter().map(|r| r.completion_cv).sum::<f64>() / runs.len() as f64,
            ))
        };
        let (win_mean, win_cv) = avg(false)?;
        let (rate_mean, rate_cv) = avg(true)?;
        assert!(
            rate_cv < win_cv * 0.7,
            "pacing should collapse completion dispersion: {rate_cv:.3} vs {win_cv:.3}"
        );
        // The honest cost: uniform back-off is slower on average.
        assert!(
            rate_mean > win_mean * 0.8,
            "sanity: paced mean {rate_mean:.1}s vs window {win_mean:.1}s"
        );
        Ok(())
    }

    #[test]
    fn predictability_is_pinned_to_the_bit() -> crate::error::Result<()> {
        // `(mean_completion, completion_cv)` as `f64::to_bits` for 4 × 1 MB
        // at 50 ms, window-based then paced (2.19 s / 0.050, 5.66 s / 0.046).
        const PINNED: [[u64; 2]; 2] = [
            [0x4001_81b8_036f_a9ba, 0x3fa9_b3a9_5280_68a8],
            [0x4016_a10e_90d6_4058, 0x3fa7_ba84_da4c_a30a],
        ];
        let rtt = SimDuration::from_millis(50);
        let mut got = [[0; 2]; 2];
        for (paced, bits) in [false, true].into_iter().zip(&mut got) {
            let r = predictability(4, paced, 1 << 20, rtt, 9)?;
            *bits = [r.mean_completion, r.completion_cv].map(f64::to_bits);
        }
        assert_eq!(got, PINNED, "moved to {got:#x?}");
        Ok(())
    }

    #[test]
    fn predictability_rejects_degenerate_cells() {
        // Zero flows have no straggler to time and zero bytes no transfer:
        // each is a configuration error, not a 0-second success.
        let rtt = SimDuration::from_millis(200);
        for (flows, chunk_bytes) in [(0, 8 << 20), (8, 0)] {
            let err = predictability(flows, false, chunk_bytes, rtt, 1).unwrap_err();
            assert!(matches!(err, crate::error::Error::Config(_)), "{err}");
        }
    }

    #[test]
    fn tfrc_fares_better_against_pacing_than_against_newreno() {
        // Section 5, lesson 1, quantified over seeds 1..=10 (ROADMAP 7(a)'s
        // rule): TFRC's share of the link is closer to fair when the TCP
        // class is rate-based. The first two claims reverse on an
        // occasional seed (seed 5 gives TFRC 0.549 against NewReno), so
        // each must hold on 9 of 10; the third holds on all 10.
        let share = |paced, seed| {
            let mut cfg = MixConfig::default_setup(paced, seed);
            cfg.duration = SimDuration::from_secs(25);
            protocol_mix(&cfg).tfrc_share
        };
        let runs: Vec<(f64, f64)> = (1..=10)
            .map(|seed| (share(false, seed), share(true, seed)))
            .collect();
        let holds = |claim: fn(f64, f64) -> bool| runs.iter().filter(|r| claim(r.0, r.1)).count();
        assert!(
            holds(|vs_newreno, _| vs_newreno < 0.5) >= 9,
            "TFRC should under-share against window-based TCP: {runs:.3?}"
        );
        assert!(
            holds(|vs_newreno, vs_pacing| vs_pacing > vs_newreno) >= 9,
            "pacing should improve TFRC's share: {runs:.3?}"
        );
        assert_eq!(
            holds(|_, vs_pacing| (vs_pacing - 0.5).abs() < 0.15),
            10,
            "against pacing the share should be near fair: {runs:.3?}"
        );
    }

    #[test]
    fn lower_bound_matches_paper_number() -> crate::error::Result<()> {
        // 64 MB over 100 Mbps with 4% header overhead ≈ 5.6 s; the paper's
        // own figure (with its overheads) is 5.39 s. Same ballpark.
        let b = try_theoretic_lower_bound(64 * 1024 * 1024, 100e6)?;
        assert!((5.0..6.0).contains(&b), "bound {b}");
        Ok(())
    }

    #[test]
    fn single_cell_parallel_transfer_completes_near_bound() -> crate::error::Result<()> {
        // 8 flows, 10 ms RTT, small transfer for test speed.
        let rtt = SimDuration::from_millis(10);
        let lat = try_parallel_once(8 * 1024 * 1024, 8, rtt, 100e6, 625, 3)?;
        let bound = try_theoretic_lower_bound(8 * 1024 * 1024, 100e6)?;
        assert!(lat >= bound * 0.95, "faster than physics: {lat} < {bound}");
        assert!(lat < bound * 6.0, "wildly slow: {lat} vs bound {bound}");
        Ok(())
    }

    #[test]
    fn long_rtt_transfers_are_much_slower_than_bound() -> crate::error::Result<()> {
        let rtt = SimDuration::from_millis(200);
        let lat = try_parallel_once(8 * 1024 * 1024, 4, rtt, 100e6, 625, 5)?;
        let bound = try_theoretic_lower_bound(8 * 1024 * 1024, 100e6)?;
        // At 200 ms RTT slow-start alone takes ~10 RTT = 2 s; normalized
        // latency must be well above 1.
        assert!(lat / bound > 1.5, "normalized {}", lat / bound);
        Ok(())
    }

    #[test]
    fn parallel_study_grid_shape() -> crate::error::Result<()> {
        let cfg = ParallelConfig {
            total_bytes: 4 * 1024 * 1024,
            flow_counts: vec![2, 4],
            rtts: vec![SimDuration::from_millis(10), SimDuration::from_millis(50)],
            bottleneck_bps: 100e6,
            buffer_pkts: 300,
            seeds: vec![1, 2],
        };
        let cells = parallel_study(&cfg)?;
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert_eq!(c.latencies.len(), 2);
            assert!(c.mean_normalized >= 0.95);
        }
        // A one-cell, one-seed grid is `try_parallel_once` on the cell's
        // derived seed, bit for bit.
        let (flows, rtt, seed) = (4, SimDuration::from_millis(50), 2);
        let one = ParallelConfig {
            flow_counts: vec![flows],
            rtts: vec![rtt],
            seeds: vec![seed],
            ..cfg.clone()
        };
        let cell = &parallel_study(&one)?[0];
        let derived = seed ^ ((flows as u64) << 20) ^ rtt.as_nanos();
        let once = try_parallel_once(cfg.total_bytes, flows, rtt, 100e6, 300, derived)?;
        assert_eq!(cell.latencies[0].to_bits(), once.to_bits());
        assert_eq!(cell.latencies[0].to_bits(), cells[3].latencies[1].to_bits());
        Ok(())
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
