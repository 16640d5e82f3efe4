//! Streaming-vs-batch conformance: the single-pass accumulators must
//! reproduce the batch analysis functions' statistics on the figure
//! fixtures (within 1e-9) and on randomized traces, including the
//! degenerate empty / single-loss / all-loss shapes. The batch functions
//! are the oracle; each fixture is measured once and analyzed both ways.

use lossburst_analysis::burstiness::{self, BurstinessReport};
use lossburst_analysis::episodes::episode_report;
use lossburst_analysis::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use lossburst_analysis::intervals::normalized_intervals;
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_analysis::{autocorr, gilbert, poisson};
use lossburst_core::campaign::LossStudy;
use lossburst_testkit::scenarios::{
    fig2_data, fig3_study, fig4_data, COARSE_GROUP, EPISODE_GAP_RTT,
};
use lossburst_testkit::sweep::sweep;
use rand::RngExt;

const TOL: f64 = 1e-9;

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= TOL,
        "{what}: batch {a} vs streaming {b} (diff {})",
        (a - b).abs()
    );
}

fn assert_reports_match(batch: &BurstinessReport, stream: &BurstinessReport) {
    assert_eq!(batch.n_losses, stream.n_losses, "n_losses");
    assert_eq!(batch.n_intervals, stream.n_intervals, "n_intervals");
    assert_close(batch.mean_interval_rtt, stream.mean_interval_rtt, "mean");
    assert_close(batch.frac_below_001, stream.frac_below_001, "frac_001");
    assert_close(batch.frac_below_01, stream.frac_below_01, "frac_01");
    assert_close(batch.frac_below_025, stream.frac_below_025, "frac_025");
    assert_close(batch.frac_below_1, stream.frac_below_1, "frac_1");
    assert_close(batch.burstiness_ratio, stream.burstiness_ratio, "ratio");
    assert_close(
        batch.index_of_dispersion,
        stream.index_of_dispersion,
        "index_of_dispersion",
    );
}

fn assert_hists_match(batch: &Histogram, stream: &Histogram) {
    assert_eq!(batch.bins, stream.bins, "histogram bins");
    assert_eq!(batch.overflow, stream.overflow, "histogram overflow");
    assert_eq!(batch.total, stream.total, "histogram total");
}

/// Every number a golden study summary pins: the batch analysis of the
/// study's pooled intervals vs a pooled accumulator over the same run.
fn assert_study_matches(batch: &LossStudy, stream: &LossStreamStats) {
    assert_reports_match(&batch.report, &stream.report());
    assert_hists_match(&batch.histogram, stream.histogram());
    let spdf = stream.poisson_pdf();
    assert_eq!(batch.poisson_pdf.len(), spdf.len());
    for (i, (a, b)) in batch.poisson_pdf.iter().zip(&spdf).enumerate() {
        assert_close(*a, *b, &format!("poisson_pdf[{i}]"));
    }
    assert_eq!(
        batch.episode_count(EPISODE_GAP_RTT),
        stream.episode_count(),
        "episodes"
    );
    let b_coarse = batch.histogram.coarse_pdf(COARSE_GROUP);
    let s_coarse = stream.histogram().coarse_pdf(COARSE_GROUP);
    for (i, (a, b)) in b_coarse.iter().zip(&s_coarse).enumerate() {
        assert_close(*a, *b, &format!("coarse_pdf[{i}]"));
    }
    assert_close(
        batch.histogram.overflow_fraction(),
        stream.histogram().overflow_fraction(),
        "overflow_fraction",
    );
}

/// The accumulator a lab sweep's cells pool into: every cell's
/// RTT-normalized intervals, in cell order (rtt = 1.0, as the intervals
/// are already normalized).
fn pooled(study: &LossStudy) -> LossStreamStats {
    let mut stats = LossStreamStats::with_rtt(1.0);
    for &iv in &study.intervals_rtt {
        stats.push_interval(iv);
    }
    stats
}

#[test]
fn fig2_streaming_matches_batch_fixture() {
    let study = &fig2_data().study;
    assert_study_matches(study, &pooled(study));
}

#[test]
fn fig3_streaming_matches_batch_fixture() {
    let study = fig3_study();
    assert_study_matches(study, &pooled(study));
}

#[test]
fn fig4_streaming_matches_batch_fixture() {
    let data = fig4_data();
    assert_study_matches(&data.study, &data.campaign.pooled);
    // The constant-memory side of the bargain, on the real fixture: a
    // path commits a few kB plus its receivers' O(losses) gap lists, where
    // buffered arrival logs alone would cost 16 B x 2000 pps x 12 s x 2
    // runs = 768 kB.
    let worst_lost = data
        .campaign
        .measurements
        .iter()
        .map(|m| m.small.n_lost + m.large.n_lost)
        .max()
        .unwrap_or(0);
    assert!(
        data.campaign.peak_trace_bytes <= 16 * 1024 + 16 * worst_lost,
        "peak {} B with at most {worst_lost} losses per path",
        data.campaign.peak_trace_bytes
    );
}

/// Feed one loss-time trace through both pipelines and compare everything.
fn check_trace(times: &[f64], rtt: f64) {
    let mut stats = LossStreamStats::with_rtt(rtt);
    for &t in times {
        stats.push_loss_at(t);
    }
    let intervals = normalized_intervals(times, rtt);
    assert_reports_match(&burstiness::analyze(&intervals), &stats.report());
    assert_hists_match(
        &Histogram::from_values(&intervals, PAPER_BIN_WIDTH, PAPER_RANGE),
        stats.histogram(),
    );
    // Stitched timeline: first loss anchors t = 0.
    let mut times_rtt = Vec::with_capacity(times.len());
    let mut t_acc = 0.0;
    if !times.is_empty() {
        times_rtt.push(0.0);
    }
    for &iv in &intervals {
        t_acc += iv;
        times_rtt.push(t_acc);
    }
    let cfg = stats.config();
    let b_ep = episode_report(&times_rtt, cfg.episode_gap_rtt);
    let s_ep = stats.episode_report();
    assert_eq!(b_ep.count, s_ep.count, "episode count");
    assert_eq!(b_ep.max_size, s_ep.max_size, "episode max_size");
    assert_close(b_ep.mean_size, s_ep.mean_size, "episode mean_size");
    assert_close(
        b_ep.mean_duration,
        s_ep.mean_duration,
        "episode mean_duration",
    );
    assert_close(
        b_ep.fraction_in_bursts,
        s_ep.fraction_in_bursts,
        "episode fraction_in_bursts",
    );
    let b_counts: Vec<f64> = burstiness::counts_in_windows(&times_rtt, cfg.window_rtt)
        .iter()
        .map(|&c| c as f64)
        .collect();
    let b_acf = autocorr::autocorrelation(&b_counts, cfg.max_lag);
    let s_acf = stats.acf();
    assert_eq!(b_acf.len(), s_acf.len(), "acf length");
    for (i, (a, b)) in b_acf.iter().zip(&s_acf).enumerate() {
        assert_close(*a, *b, &format!("acf[{i}]"));
    }
}

#[test]
fn streaming_matches_batch_on_random_traces() {
    sweep(0x57AE, 32, |case, gen| {
        let rtt = 0.01 + gen.random::<f64>() * 0.2;
        let times: Vec<f64> = match case {
            // The degenerate shapes the accumulators must not trip over.
            0 => Vec::new(),                      // empty: no losses at all
            1 => vec![gen.random::<f64>() * 5.0], // a single loss
            2 => (0..200).map(|i| i as f64 * 0.0005).collect(), // all-loss CBR
            _ => {
                let n = 2 + gen.random_range(0..80usize);
                let mut t = gen.random::<f64>();
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(t);
                    // Mix sub-RTT clustering, coarse-clock collapses
                    // (exactly-zero intervals), and long gaps.
                    let r = gen.random::<f64>();
                    t += if r < 0.2 {
                        0.0
                    } else if r < 0.7 {
                        rtt * 0.002 * gen.random::<f64>()
                    } else {
                        rtt * 4.0 * gen.random::<f64>()
                    };
                }
                v
            }
        };
        check_trace(&times, rtt);
    });
}

#[test]
fn streaming_gilbert_fit_matches_batch_on_random_sequences() {
    sweep(0x61_1B, 16, |case, gen| {
        let seq: Vec<bool> = match case {
            0 => Vec::new(),
            1 => vec![true],       // single packet, lost
            2 => vec![true; 300],  // all-loss
            3 => vec![false; 300], // loss-free
            _ => {
                let p = gen.random::<f64>() * 0.5;
                (0..500).map(|_| gen.random::<f64>() < p).collect()
            }
        };
        let mut stats = LossStreamStats::with_rtt(0.1);
        for &lost in &seq {
            stats.push_packet(lost);
        }
        let batch = gilbert::fit(&seq);
        let stream = stats.gilbert();
        match (batch, stream) {
            (None, None) => {}
            (Some(b), Some(s)) => {
                assert_close(b.p, s.p, "gilbert p");
                assert_close(b.r, s.r, "gilbert r");
            }
            (b, s) => panic!("gilbert fit disagrees: batch {b:?} vs streaming {s:?}"),
        }
    });
}

#[test]
fn pooled_accumulator_matches_interval_feed_order() {
    // Pooling semantics: pushing pre-normalized interval pools (rtt = 1)
    // must equal a batch analyze() over the concatenated pool — the
    // contract the campaign aggregators rely on.
    sweep(0x900D, 12, |_case, gen| {
        let n_runs = gen.random_range(1..5usize);
        let mut pooled = LossStreamStats::with_rtt(1.0);
        let mut flat = Vec::new();
        for _ in 0..n_runs {
            let n = gen.random_range(0..30usize);
            for _ in 0..n {
                let iv = gen.random::<f64>() * 2.5;
                pooled.push_interval(iv);
                flat.push(iv);
            }
        }
        assert_reports_match(&burstiness::analyze(&flat), &pooled.report());
        let lambda = poisson::rate_from_intervals(&flat);
        let hist = Histogram::from_values(&flat, PAPER_BIN_WIDTH, PAPER_RANGE);
        let b_pdf = poisson::reference_pdf(lambda, &hist);
        for (a, b) in b_pdf.iter().zip(&pooled.poisson_pdf()) {
            assert_close(*a, *b, "pooled poisson pdf");
        }
    });
}
