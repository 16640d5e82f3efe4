//! The three measurement campaigns of Section 3: NS-2 simulation, Dummynet
//! emulation, and the Internet — each producing a [`LossStudy`]: the
//! RTT-normalized inter-loss intervals, their PDF on the paper's geometry,
//! the rate-matched Poisson reference, and the burstiness report.

use crate::supervisor::{LabCellRecord, PathFailure};
use lossburst_analysis::burstiness::{self, BurstinessReport};
use lossburst_analysis::histogram::Histogram;
use lossburst_analysis::intervals;
use lossburst_analysis::poisson;
use lossburst_emu::testbed::{self, TestbedConfig};
use lossburst_inet::campaign::{run_campaign_streaming, CampaignConfig};
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::sim::RunLimits;
use lossburst_netsim::time::SimDuration;
use lossburst_transport::cc::CcAlgorithm;

/// One campaign's complete analysis product.
#[derive(Debug)]
pub struct LossStudy {
    /// Campaign label ("ns2", "dummynet", "internet").
    pub label: String,
    /// RTT-normalized inter-loss intervals.
    pub intervals_rtt: Vec<f64>,
    /// PDF on the paper's geometry (0.02 RTT bins over 0–2 RTT).
    pub histogram: Histogram,
    /// Rate-matched Poisson reference PDF over the same bins.
    pub poisson_pdf: Vec<f64>,
    /// Burstiness metrics.
    pub report: BurstinessReport,
}

impl LossStudy {
    /// Write the study's PDF series (measured + Poisson) and raw intervals
    /// as plain-text files `<label>_pdf.tsv` and `<label>_intervals.txt`
    /// under `dir`, ready for gnuplot/matplotlib.
    pub fn export(&self, dir: impl AsRef<std::path::Path>) -> crate::error::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let centers = self.histogram.bin_centers();
        let measured = self.histogram.pdf();
        lossburst_analysis::io::write_series_columns(
            dir.join(format!("{}_pdf.tsv", self.label)),
            &format!(
                "{} inter-loss PDF (RTT units) vs rate-matched Poisson",
                self.label
            ),
            &["interval_rtt", "pdf_measured", "pdf_poisson"],
            &[&centers, &measured, &self.poisson_pdf],
        )?;
        lossburst_analysis::io::write_loss_trace(
            dir.join(format!("{}_intervals.txt", self.label)),
            &format!("{} RTT-normalized inter-loss intervals", self.label),
            &self.intervals_rtt,
        )?;
        Ok(())
    }

    /// Loss-event times in RTT units, reconstructed from the intervals:
    /// the k-th loss sits at the cumulative sum of the first k intervals
    /// (the first loss anchors t = 0). Summary accessors like
    /// [`LossStudy::episode_count`] and the testkit's golden fixtures work
    /// off this pooled event sequence.
    pub(crate) fn loss_times_rtt(&self) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.intervals_rtt.len() + 1);
        let mut t = 0.0;
        times.push(t);
        for iv in &self.intervals_rtt {
            t += iv;
            times.push(t);
        }
        times
    }

    /// Number of loss episodes when events closer than `gap_rtt` (RTT
    /// units) belong to the same episode. Zero for an empty study.
    pub fn episode_count(&self, gap_rtt: f64) -> usize {
        if self.intervals_rtt.is_empty() {
            return 0;
        }
        lossburst_analysis::episodes::episodes(&self.loss_times_rtt(), gap_rtt).len()
    }

    /// Assemble a study from normalized intervals.
    pub fn from_intervals(label: &str, intervals_rtt: Vec<f64>) -> LossStudy {
        let histogram = Histogram::from_values(
            &intervals_rtt,
            lossburst_analysis::histogram::PAPER_BIN_WIDTH,
            lossburst_analysis::histogram::PAPER_RANGE,
        );
        let lambda = poisson::rate_from_intervals(&intervals_rtt);
        let poisson_pdf = poisson::reference_pdf(lambda, &histogram);
        let report = burstiness::analyze(&intervals_rtt);
        LossStudy {
            label: label.to_string(),
            intervals_rtt,
            histogram,
            poisson_pdf,
            report,
        }
    }
}

/// Parameters for the lab campaigns (Figs 2 and 3). The paper sweeps flow
/// counts {2,4,8,16,32} and buffers ⅛–2 BDP and pools the loss traces.
#[derive(Clone, Debug)]
pub struct LabCampaignConfig {
    /// Flow counts to sweep.
    pub flow_counts: Vec<usize>,
    /// Buffer sizes as fractions of a reference BDP.
    pub buffer_bdp_fractions: Vec<f64>,
    /// Reference RTT for buffer sizing (the mean of the 2–200 ms range).
    pub reference_rtt: SimDuration,
    /// Duration of each run.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Background-noise model for every testbed cell: packet-by-packet
    /// (the reference) or a fluid rate process at the bottlenecks.
    pub background: BackgroundMode,
    /// Congestion controller for every testbed cell's TCP senders.
    pub cc: CcAlgorithm,
}

impl LabCampaignConfig {
    /// The paper's sweep at laptop scale: all five flow counts, three
    /// buffer sizes spanning the paper's ⅛–2 BDP range, 30 s runs.
    pub fn quick(seed: u64) -> LabCampaignConfig {
        LabCampaignConfig {
            flow_counts: vec![2, 4, 8, 16, 32],
            buffer_bdp_fractions: vec![0.125, 0.5, 2.0],
            reference_rtt: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(30),
            seed,
            background: BackgroundMode::Packet,
            cc: CcAlgorithm::NewReno,
        }
    }

    fn buffer_pkts(&self, frac: f64) -> usize {
        let bdp = lossburst_netsim::topology::bdp_packets(100e6, self.reference_rtt, 1000);
        ((bdp as f64 * frac) as usize).max(8)
    }
}

/// The independent execution cells of a lab sweep, in pooling order:
/// `(flow count, buffer packets, cell seed)` per (flow count, buffer
/// fraction) combination. Both built-in runners and the campaign
/// supervisor enumerate work through this function, so a supervised run's
/// cell index `i` always refers to the same experiment.
pub fn lab_cells(cfg: &LabCampaignConfig) -> Vec<(usize, usize, u64)> {
    let mut cells = Vec::new();
    let mut run_idx = 0u64;
    for &flows in &cfg.flow_counts {
        for &frac in &cfg.buffer_bdp_fractions {
            let seed = cfg.seed.wrapping_add(run_idx.wrapping_mul(0x9E37_79B9));
            run_idx += 1;
            cells.push((flows, cfg.buffer_pkts(frac), seed));
        }
    }
    cells
}

/// Run cell `index` of [`lab_cells`]: one sink-driven testbed run under
/// `limits`, reduced to the RTT-normalized intervals it pools. The plain
/// and the supervised lab sweeps both measure through this function, so a
/// cell is the same experiment whichever sweep runs it.
pub(crate) fn lab_cell(
    cfg: &LabCampaignConfig,
    dummynet: bool,
    index: usize,
    limits: RunLimits,
) -> Result<LabCellRecord, PathFailure> {
    let (flows, buffer, seed) = lab_cells(cfg)[index];
    let mut tb = if dummynet {
        TestbedConfig::dummynet_baseline(flows, buffer, seed)
    } else {
        TestbedConfig::ns2_baseline(flows, buffer, seed)
    };
    tb.duration = cfg.duration;
    tb.background = cfg.background;
    tb.cc = cfg.cc;
    let res = testbed::run_streaming_limited(&tb, limits)?;
    let rtt = res.mean_rtt.as_secs_f64();
    Ok(LabCellRecord {
        intervals_rtt: intervals::normalized_intervals(&res.loss_times, rtt),
        trace_bytes: res.trace_bytes,
    })
}

/// The lab sweeps' campaign label.
pub(crate) fn lab_label(dummynet: bool) -> &'static str {
    if dummynet {
        "dummynet"
    } else {
        "ns2"
    }
}

fn run_lab(cfg: &LabCampaignConfig, dummynet: bool) -> LossStudy {
    use rayon::prelude::*;
    // One independent, seeded cell per (flow count, buffer); cells fan out
    // over the persistent worker pool and land in input-order result
    // slots, so the pooled result is identical to a serial run.
    let per_cell: Vec<Vec<f64>> = (0..lab_cells(cfg).len())
        .into_par_iter()
        .map(|i| {
            lab_cell(cfg, dummynet, i, RunLimits::NONE)
                .expect("unlimited run cannot exhaust")
                .intervals_rtt
        })
        .collect();
    let all_intervals: Vec<f64> = per_cell.into_iter().flatten().collect();
    LossStudy::from_intervals(lab_label(dummynet), all_intervals)
}

/// The NS-2 simulation campaign (Fig 2): ideal DropTail bottleneck, random
/// access latencies 2–200 ms, flow-count and buffer sweeps.
pub fn ns2_study(cfg: &LabCampaignConfig) -> LossStudy {
    run_lab(cfg, false)
}

/// The Dummynet emulation campaign (Fig 3): fixed RTT classes, 1 ms
/// recording clock, processing jitter.
pub fn dummynet_study(cfg: &LabCampaignConfig) -> LossStudy {
    run_lab(cfg, true)
}

/// The Internet campaign (Fig 4): CBR probes over synthetic heterogeneous
/// paths with paired-packet-size validation.
pub fn internet_study(cfg: &CampaignConfig) -> LossStudy {
    let res = run_campaign_streaming(cfg);
    LossStudy::from_intervals("internet", res.intervals_rtt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lab() -> LabCampaignConfig {
        LabCampaignConfig {
            flow_counts: vec![8],
            buffer_bdp_fractions: vec![0.25],
            reference_rtt: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(15),
            seed: 42,
            background: BackgroundMode::Packet,
            cc: CcAlgorithm::NewReno,
        }
    }

    #[test]
    fn ns2_study_is_sub_rtt_bursty() {
        let study = ns2_study(&tiny_lab());
        assert!(
            study.report.n_losses > 50,
            "losses {}",
            study.report.n_losses
        );
        // The paper's headline: the bulk of the losses cluster at sub-RTT
        // timescale, far beyond what Poisson predicts.
        assert!(
            study.report.frac_below_001 > 0.8,
            "only {:.2} below 0.01 RTT (paper: >0.95 at full scale)",
            study.report.frac_below_001
        );
        // When losses are this dense the Poisson-ratio statistic saturates
        // (the rate-matched Poisson also has mass below 0.01 RTT); the
        // index of dispersion is the discriminating burstiness measure.
        assert!(
            study.report.index_of_dispersion > 10.0,
            "index of dispersion {:.1}",
            study.report.index_of_dispersion
        );
    }

    #[test]
    fn dummynet_study_quantized_but_still_bursty() {
        let study = dummynet_study(&tiny_lab());
        assert!(study.report.n_losses > 50);
        // 1 ms quantization collapses many sub-tick intervals to exactly 0,
        // which still lands in the first bin.
        assert!(study.report.frac_below_1 > 0.5);
    }

    #[test]
    fn export_writes_plottable_files() {
        let study = LossStudy::from_intervals("exporttest", vec![0.004, 0.004, 0.9, 1.4]);
        let dir = std::env::temp_dir().join(format!("lossburst_export_{}", std::process::id()));
        study.export(&dir).unwrap();
        let pdf = std::fs::read_to_string(dir.join("exporttest_pdf.tsv")).unwrap();
        assert!(pdf.lines().count() > 50, "PDF rows missing");
        assert!(pdf.contains("interval_rtt\tpdf_measured\tpdf_poisson"));
        let iv = std::fs::read_to_string(dir.join("exporttest_intervals.txt")).unwrap();
        assert_eq!(iv.lines().filter(|l| !l.starts_with('#')).count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn study_assembly_consistency() {
        let study = LossStudy::from_intervals("x", vec![0.005, 0.005, 0.005, 1.2]);
        assert_eq!(study.report.n_intervals, 4);
        assert_eq!(study.histogram.total, 4);
        assert_eq!(study.poisson_pdf.len(), study.histogram.bins.len());
    }

    #[test]
    fn loss_times_and_episodes_follow_the_intervals() {
        // Two tight clusters separated by 5 RTT.
        let study = LossStudy::from_intervals("x", vec![0.005, 0.005, 5.0, 0.004]);
        let times = study.loss_times_rtt();
        assert_eq!(times.len(), 5);
        assert!((times[2] - 0.01).abs() < 1e-12);
        assert!((times[4] - 5.014).abs() < 1e-12);
        assert_eq!(study.episode_count(1.0), 2);
        assert_eq!(study.episode_count(10.0), 1);
        let empty = LossStudy::from_intervals("e", vec![]);
        assert_eq!(empty.episode_count(1.0), 0);
    }
}
