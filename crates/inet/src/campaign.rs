//! The Internet measurement campaign (paper §3.1): periodically probe
//! randomly chosen directed site pairs with paired 48 B / 400 B CBR runs,
//! keep only validated measurements, and pool the RTT-normalized
//! inter-loss intervals.
//!
//! This module owns the campaign's pieces, not its runner: the path grid
//! ([`grid_pairs`], [`GridSample`]), the per-path measurement
//! ([`try_measure_path_grid_streaming`], single-threaded and seeded by the
//! path's grid coordinate alone) and the pooling rule
//! ([`aggregate_streaming`]). The one runner is the campaign supervisor in
//! `lossburst-core` (`core::shard::run_grid_streaming_supervised`), which
//! fans the paths out over `par_iter` inside a per-path fault
//! boundary and hands the measurements back in path order.

use crate::path::PathScenario;
use crate::probe::{
    run_probe_streaming_limited, validate_streaming, ProbeConfig, ProbeError, StreamProbeOutcome,
};
use crate::sites::{all_directed_pairs, DIRECTED_PATHS};
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::sim::RunLimits;
use lossburst_netsim::time::SimDuration;
use rand::seq::SliceRandom;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed (path selection, scenarios, run seeds).
    pub seed: u64,
    /// How many of the 650 directed paths to measure.
    pub n_paths: usize,
    /// Probe rate for both packet sizes.
    pub probe_pps: f64,
    /// Duration of each probe run (the paper used 5 minutes).
    pub duration: SimDuration,
    /// Background-noise model for every path run: packet-by-packet
    /// (the reference) or a fluid rate process at each bottleneck.
    pub background: BackgroundMode,
}

impl CampaignConfig {
    /// A laptop-scale default: 24 paths, 20-second runs.
    pub fn quick(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            n_paths: 24,
            probe_pps: 2000.0,
            duration: SimDuration::from_secs(20),
            background: BackgroundMode::Packet,
        }
    }

    /// The paper-scale campaign: every directed site pair (650 paths) with
    /// the paper's 5-minute paired runs. Hours of CPU; use [`Self::quick`]
    /// unless you mean it.
    pub fn full(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            n_paths: 650,
            probe_pps: 2000.0,
            duration: SimDuration::from_secs(300),
            background: BackgroundMode::Packet,
        }
    }

    /// A micro-scale per-path preset for huge synthetic grids (10^5–10^6
    /// paths, see [`grid_pairs`]): short runs at a low probe rate over the
    /// fluid background model — orders of magnitude cheaper per path than
    /// [`Self::full`]. Statistical power per path is deliberately tiny;
    /// campaigns at this scale measure the *driver* (sharding,
    /// checkpointing, merge throughput), with the grid supplying scale.
    pub fn micro(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            n_paths: 100_000,
            probe_pps: 50.0,
            duration: SimDuration::from_secs(2),
            background: BackgroundMode::Fluid,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The effective campaign seed of grid replica `replica`. Replica 0 keeps
/// the campaign seed untouched — so the first [`DIRECTED_PATHS`] grid
/// paths are the campaign seed's own scenarios — and each later replica
/// derives a fresh seed, turning the same 650 directed pairs into new
/// synthetic paths (new scenarios, new run seeds).
pub(crate) fn replica_seed(seed: u64, replica: usize) -> u64 {
    if replica == 0 {
        seed
    } else {
        seed ^ splitmix64(0x9E1D_C0DE ^ replica as u64)
    }
}

/// The shuffled directed-pair sample a seed induces, queryable at any grid
/// index without materializing the whole grid. This is the single source
/// of path identity for grid consumers: [`grid_pairs`] renders its prefix,
/// [`try_measure_path_grid_streaming`] measures through the same `(pair,
/// replica seed)` rule, and the lossy-BSP engine derives per-worker path
/// scenarios from it — all guaranteed to agree because they share this
/// shuffle.
pub struct GridSample {
    seed: u64,
    base: Vec<(usize, usize)>,
}

impl GridSample {
    /// Shuffle the [`DIRECTED_PATHS`] directed pairs once under `seed`.
    pub fn new(seed: u64) -> GridSample {
        let mut base = all_directed_pairs();
        let mut rng = Sampler::child_rng(seed, 0xCA3F);
        base.shuffle(&mut rng);
        GridSample { seed, base }
    }

    /// The directed pair of grid index `i` (the sample cycles past
    /// [`DIRECTED_PATHS`]).
    pub(crate) fn pair(&self, index: usize) -> (usize, usize) {
        self.base[index % DIRECTED_PATHS]
    }

    /// The fully derived path scenario of grid index `i`: the index's pair
    /// under its replica's effective seed — exactly the scenario
    /// [`try_measure_path_grid_streaming`] probes. Identity depends only on
    /// `(seed, index)`, never on sharding.
    pub fn scenario(&self, index: usize) -> PathScenario {
        let (src, dst) = self.pair(index);
        PathScenario::derive(replica_seed(self.seed, index / DIRECTED_PATHS), src, dst)
    }
}

/// The synthetic path grid for campaigns beyond the [`DIRECTED_PATHS`]
/// directed pairs: the shuffled pair sample cycles, and path index `i`
/// belongs to replica `i / 650`, whose scenarios and run seeds derive from
/// `replica_seed`. For `cfg.n_paths ≤ 650` it is the seed's shuffled
/// sample truncated to `n_paths` pairs. Path identity depends only on
/// `(cfg.seed, i)`, never on how the grid is sharded.
pub fn grid_pairs(cfg: &CampaignConfig) -> Vec<(usize, usize)> {
    let sample = GridSample::new(cfg.seed);
    (0..cfg.n_paths).map(|i| sample.pair(i)).collect()
}

/// Measure grid path `index` (whose directed pair is `(src, dst)` from
/// [`grid_pairs`]): paired 48 B / 400 B runs plus validation, seeded by
/// `(replica seed, src, dst)` alone, never by scheduling. The limits apply
/// to each of the paired runs independently; the first run to exhaust its
/// event budget fails the whole path measurement. This is the per-path
/// primitive the `core` campaign supervisor wraps in its fault boundary.
pub fn try_measure_path_grid_streaming(
    cfg: &CampaignConfig,
    index: usize,
    src: usize,
    dst: usize,
    limits: RunLimits,
) -> Result<StreamPathMeasurement, ProbeError> {
    let seed = replica_seed(cfg.seed, index / DIRECTED_PATHS);
    let scenario = PathScenario::derive(seed, src, dst);
    let base = (src as u64) << 32 | dst as u64;
    let run = |packet_bytes, salt| {
        let probe = ProbeConfig {
            packet_bytes,
            pps: cfg.probe_pps,
            duration: cfg.duration,
            seed: seed ^ base ^ salt,
            background: cfg.background,
        };
        run_probe_streaming_limited(&scenario, &probe, limits)
    };
    let small = run(48, 0x5A11)?;
    let large = run(400, 0x1A46E)?;
    let validated = validate_streaming(&small, &large);
    Ok(StreamPathMeasurement {
        src,
        dst,
        rtt: scenario.rtt,
        small,
        large,
        validated,
    })
}

/// One path's paired measurement.
#[derive(Clone, Debug)]
pub struct StreamPathMeasurement {
    /// Source site index.
    pub src: usize,
    /// Destination site index.
    pub dst: usize,
    /// Path RTT used for normalization.
    pub rtt: SimDuration,
    /// The 48-byte run.
    pub small: StreamProbeOutcome,
    /// The 400-byte run.
    pub large: StreamProbeOutcome,
    /// Whether the two traces agreed (paper's validation).
    pub validated: bool,
}

/// Aggregated campaign output.
#[derive(Debug)]
pub struct StreamCampaignResult {
    /// All per-path measurements, validated or not.
    pub measurements: Vec<StreamPathMeasurement>,
    /// Pooled accumulator over the validated paths' RTT-normalized
    /// intervals (both packet sizes contribute, as both traces were
    /// accepted), fed in measurement order — the online form of
    /// [`StreamCampaignResult::intervals_rtt`].
    pub pooled: LossStreamStats,
    /// Number of validated paths.
    pub validated: usize,
    /// Number of rejected paths.
    pub rejected: usize,
    /// Largest per-path buffer commitment observed (both runs' trace
    /// streams plus receiver gap lists) — the campaign's per-worker memory
    /// high-water mark. With trace buffering off and gap-detecting
    /// receivers this stays near-constant in run duration.
    pub peak_trace_bytes: usize,
}

impl StreamCampaignResult {
    /// Fraction of measured paths whose paired traces validated
    /// (0 when nothing was measured).
    pub fn validated_fraction(&self) -> f64 {
        if self.measurements.is_empty() {
            0.0
        } else {
            self.validated as f64 / self.measurements.len() as f64
        }
    }

    /// Per-path loss rates of the small-packet probe runs, in measurement
    /// order — the compact per-path series golden fixtures record.
    pub fn loss_rates(&self) -> Vec<f64> {
        self.measurements
            .iter()
            .map(|m| m.small.loss_rate)
            .collect()
    }

    /// Pooled RTT-normalized inter-loss intervals from validated paths, in
    /// the order [`aggregate_streaming`] fed them to `pooled` — the input
    /// the batch analysis functions take.
    pub fn intervals_rtt(&self) -> Vec<f64> {
        pooled_intervals(&self.measurements).collect()
    }
}

/// The campaign's pooling order: validated paths in measurement order, each
/// contributing its 48 B run's intervals and then its 400 B run's.
fn pooled_intervals(measurements: &[StreamPathMeasurement]) -> impl Iterator<Item = f64> + '_ {
    measurements
        .iter()
        .filter(|m| m.validated)
        .flat_map(|m| m.small.intervals_rtt.iter().chain(&m.large.intervals_rtt))
        .copied()
}

/// Fold per-path measurements (in path order) into a
/// [`StreamCampaignResult`], pooling validated intervals into one
/// [`LossStreamStats`]. Public so the supervised runner can aggregate a
/// mix of freshly measured and checkpoint-restored measurements.
pub fn aggregate_streaming(measurements: Vec<StreamPathMeasurement>) -> StreamCampaignResult {
    // rtt = 1.0: campaign intervals are already RTT-normalized per path.
    let mut pooled = LossStreamStats::with_rtt(1.0);
    for iv in pooled_intervals(&measurements) {
        pooled.push_interval(iv);
    }
    let validated = measurements.iter().filter(|m| m.validated).count();
    let peak_trace_bytes = measurements
        .iter()
        .map(|m| m.small.trace_bytes + m.large.trace_bytes)
        .max()
        .unwrap_or(0);
    StreamCampaignResult {
        rejected: measurements.len() - validated,
        measurements,
        pooled,
        validated,
        peak_trace_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every grid path measured in turn and pooled: the campaign a
    /// supervised run with nothing going wrong produces.
    fn measure_grid(cfg: &CampaignConfig) -> Result<StreamCampaignResult, ProbeError> {
        let measurements = grid_pairs(cfg)
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| {
                try_measure_path_grid_streaming(cfg, i, src, dst, RunLimits::NONE)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(aggregate_streaming(measurements))
    }

    #[test]
    fn small_campaign_produces_validated_intervals() -> Result<(), ProbeError> {
        let cfg = CampaignConfig {
            seed: 6,
            n_paths: 6,
            probe_pps: 1000.0,
            duration: SimDuration::from_secs(10),
            background: BackgroundMode::Packet,
        };
        let res = measure_grid(&cfg)?;
        assert_eq!(res.measurements.len(), 6);
        assert_eq!(res.validated + res.rejected, 6);
        assert!(res.validated >= 1, "everything rejected");
        // Intervals must be non-negative and not absurd.
        let intervals = res.intervals_rtt();
        assert!(!intervals.is_empty(), "want a lossy fixture");
        assert!(intervals.iter().all(|&x| x >= 0.0));
        // The pooled accumulator consumed exactly the pooled interval vector.
        assert_eq!(res.pooled.n_losses(), intervals.len() as u64 + 1);
        // Summary accessors agree with the raw fields.
        assert!((res.validated_fraction() - res.validated as f64 / 6.0).abs() < 1e-12);
        let rates = res.loss_rates();
        assert_eq!(rates.len(), 6);
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
        Ok(())
    }

    /// A restored record is rejected for NaN only, so one can carry an
    /// interval of 10¹² RTT: pooling it returns, with a finite report.
    #[test]
    fn a_huge_restored_interval_pools_to_a_finite_report() {
        let run = |intervals_rtt: Vec<f64>| StreamProbeOutcome {
            sent: 1000,
            received: 1000 - intervals_rtt.len() as u64 - 1,
            n_lost: intervals_rtt.len() + 1,
            lost: Vec::new(),
            loss_rate: (intervals_rtt.len() + 1) as f64 / 1000.0,
            intervals_rtt,
            trace_bytes: 0,
            events: 0,
            counts: Default::default(),
        };
        let res = aggregate_streaming(vec![StreamPathMeasurement {
            src: 0,
            dst: 1,
            rtt: SimDuration::from_millis(50),
            small: run(vec![0.5, 1e12]),
            large: run(vec![0.001]),
            validated: true,
        }]);
        let rep = res.pooled.report();
        assert_eq!(rep.n_intervals, 3);
        assert!(rep.mean_interval_rtt.is_finite());
        assert!(rep.index_of_dispersion.is_finite());
    }

    #[test]
    fn per_path_buffers_do_not_grow_with_run_duration() -> Result<(), ProbeError> {
        // Constant-memory claim: at 10 s and at 20 s alike a path commits a
        // few kB of finished-flow records plus its receivers' O(losses) gap
        // lists — where a buffered arrival log alone would cost
        // 16 B x pps x duration x 2 runs: 320 kB at 10 s, 640 kB at 20 s.
        for secs in [10, 20] {
            let res = measure_grid(&CampaignConfig {
                seed: 6,
                n_paths: 6,
                probe_pps: 1000.0,
                duration: SimDuration::from_secs(secs),
                background: BackgroundMode::Packet,
            })?;
            for m in &res.measurements {
                let bytes = m.small.trace_bytes + m.large.trace_bytes;
                let lost = m.small.n_lost + m.large.n_lost;
                assert!(
                    bytes <= 16 * 1024 + 16 * lost,
                    "{bytes} B held for {lost} losses over {secs} s"
                );
                assert!(bytes <= res.peak_trace_bytes);
            }
        }
        Ok(())
    }

    #[test]
    fn grid_cycles_the_seed_shuffle_beyond_650() {
        let mut cfg = CampaignConfig::quick(11);
        cfg.n_paths = 30;
        // Below 650 the grid is the seed's shuffle of the directed pairs,
        // truncated: the sample the golden Fig 4 fixture was measured on.
        let mut shuffled = all_directed_pairs();
        shuffled.shuffle(&mut Sampler::child_rng(cfg.seed, 0xCA3F));
        assert_eq!(grid_pairs(&cfg), shuffled[..30]);
        // Beyond 650 the sample cycles, replica by replica.
        cfg.n_paths = DIRECTED_PATHS + 3;
        let grid = grid_pairs(&cfg);
        assert_eq!(grid.len(), DIRECTED_PATHS + 3);
        assert_eq!(grid[DIRECTED_PATHS], grid[0]);
        assert_eq!(grid[DIRECTED_PATHS + 2], grid[2]);
        // Replica seeds: 0 is the campaign seed, later ones differ from it
        // and from each other.
        assert_eq!(replica_seed(11, 0), 11);
        assert_ne!(replica_seed(11, 1), 11);
        assert_ne!(replica_seed(11, 1), replica_seed(11, 2));
    }

    #[test]
    fn grid_sample_agrees_with_grid_pairs_and_measurement_identity() {
        let mut cfg = CampaignConfig::quick(17);
        cfg.n_paths = DIRECTED_PATHS + 5;
        let sample = GridSample::new(cfg.seed);
        let pairs = grid_pairs(&cfg);
        for (i, &pair) in pairs.iter().enumerate() {
            assert_eq!(sample.pair(i), pair, "index {i}");
        }
        // scenario() uses the replica-seed rule the grid measurement uses:
        // replica 0 is the campaign seed's scenario, replica 1 a fresh one.
        let (src, dst) = sample.pair(0);
        let classic = PathScenario::derive(cfg.seed, src, dst);
        let s0 = sample.scenario(0);
        assert_eq!(s0.rtt, classic.rtt);
        assert_eq!(s0.bottleneck_bps, classic.bottleneck_bps);
        assert_eq!(s0.buffer_pkts, classic.buffer_pkts);
        let s1 = sample.scenario(DIRECTED_PATHS);
        assert_eq!(
            (s1.src_site, s1.dst_site),
            (s0.src_site, s0.dst_site),
            "same pair, next replica"
        );
        assert!(
            s1.bottleneck_bps != s0.bottleneck_bps || s1.buffer_pkts != s0.buffer_pkts,
            "replica 1 should derive a fresh scenario"
        );
    }

    #[test]
    fn grid_replica_zero_is_classic_and_replicas_differ() -> Result<(), ProbeError> {
        let cfg = CampaignConfig {
            seed: 4,
            n_paths: 2,
            probe_pps: 500.0,
            duration: SimDuration::from_secs(5),
            background: BackgroundMode::Packet,
        };
        let (src, dst) = grid_pairs(&cfg)[0];
        let grid = |index| try_measure_path_grid_streaming(&cfg, index, src, dst, RunLimits::NONE);
        // Replica 0 probes the campaign seed's own scenario.
        let grid0 = grid(0)?;
        assert_eq!(grid0.rtt, PathScenario::derive(cfg.seed, src, dst).rtt);
        assert_eq!((grid0.src, grid0.dst), (src, dst));
        // The same pair one replica later is a different synthetic path.
        let grid1 = grid(DIRECTED_PATHS)?;
        assert!(
            grid1.rtt != grid0.rtt || grid1.small.intervals_rtt != grid0.small.intervals_rtt,
            "replica 1 should derive a fresh scenario"
        );
        Ok(())
    }

    #[test]
    fn campaign_is_deterministic() -> Result<(), ProbeError> {
        let cfg = CampaignConfig {
            seed: 8,
            n_paths: 3,
            probe_pps: 500.0,
            duration: SimDuration::from_secs(6),
            background: BackgroundMode::Packet,
        };
        let a = measure_grid(&cfg)?;
        let b = measure_grid(&cfg)?;
        assert_eq!(a.intervals_rtt(), b.intervals_rtt());
        assert_eq!(a.validated, b.validated);
        let pa: Vec<(usize, usize)> = a.measurements.iter().map(|m| (m.src, m.dst)).collect();
        let pb: Vec<(usize, usize)> = b.measurements.iter().map(|m| (m.src, m.dst)).collect();
        assert_eq!(pa, pb);
        Ok(())
    }
}
