//! Property-style tests of the analysis toolkit, driven by seeded
//! pseudo-random sweeps (deterministic: every case is a fixed function of
//! its seed, so a failure reproduces exactly).

use lossburst_analysis::burstiness::{counts_in_windows, BurstinessReport};
use lossburst_analysis::episodes::{Episode, EpisodeReport};
use lossburst_analysis::intervals::inter_event_intervals;
use lossburst_analysis::prelude::*;
use lossburst_analysis::stats::variance;
use lossburst_analysis::streaming::{LossStreamStats, EPISODE_GAP_RTT, MAX_LAG, WINDOW_RTT};
use lossburst_testkit::sweep::{sweep, with_rng, RngExt, SmallRng};

fn times(gen: &mut SmallRng, lo: usize, hi: usize, span: f64) -> Vec<f64> {
    let n = gen.random_range(lo..hi);
    (0..n).map(|_| gen.random_range(0.0..span)).collect()
}

/// Loss instants (seconds) of a Gilbert chain stepped once per packet slot.
fn gilbert_trace(gen: &mut SmallRng) -> Vec<f64> {
    let params = GilbertParams {
        p: gen.random_range(0.005..0.05),
        r: gen.random_range(0.05..0.6),
    };
    let slot = gen.random_range(1e-4..2e-3);
    let packets = gen.random_range(100..3000usize);
    let lost = gilbert_generate(params, packets, || gen.random());
    (lost.iter().enumerate())
        .filter(|&(_, &l)| l)
        .map(|(k, _)| k as f64 * slot)
        .collect()
}

fn shuffle(xs: &mut [f64], gen: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, gen.random_range(0..i + 1));
    }
}

/// One generated loss trace, from the family `case` picks: empty, one and
/// two losses, Gilbert-bursty, a shuffled copy of one, ties on a coarse
/// clock, −0.0 mixed with +0.0, and a walk whose intervals go negative.
fn trace_case(case: u64, gen: &mut SmallRng) -> Vec<f64> {
    match case % 8 {
        0 => Vec::new(),
        1 => vec![gen.random_range(-1.0..5.0)],
        2 => vec![gen.random_range(0.0..5.0), gen.random_range(0.0..5.0)],
        3 => gilbert_trace(gen),
        4 => {
            let mut t = gilbert_trace(gen);
            shuffle(&mut t, gen);
            t
        }
        5 => {
            let clock = gen.random_range(1e-3..2e-2);
            let t = gilbert_trace(gen);
            t.iter().map(|t| (t / clock).floor() * clock).collect()
        }
        6 => {
            // Short, so that often every value, interval or episode
            // duration is a zero whose sign decides the bits of a sum.
            let picks = [0.0, -0.0, 0.0, -0.0, 1e-3, 0.25];
            let n = gen.random_range(2..8usize);
            (0..n)
                .map(|_| picks[gen.random_range(0..picks.len())])
                .collect()
        }
        _ => {
            let mut t = gen.random_range(-5.0..5.0);
            let n = gen.random_range(2..60usize);
            (0..n)
                .map(|_| {
                    t += gen.random_range(-1.0..2.0);
                    t
                })
                .collect()
        }
    }
}

// The parent's copy-sort-count formulas, inline: each statistic from a
// sorted copy and per-statistic vectors, as before it read its input where
// it lies.

fn sorted_copy(times: &[f64]) -> Vec<f64> {
    let mut s = times.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("generated cases hold no NaN"));
    s
}

fn copy_sort_counts(times: &[f64], window: f64) -> Vec<u64> {
    let s = sorted_copy(times);
    let Some(&t0) = s.first() else {
        return Vec::new();
    };
    let nwin = ((s[s.len() - 1] - t0) / window).floor() as usize + 1;
    let mut counts = vec![0u64; nwin];
    for t in s {
        counts[(((t - t0) / window) as usize).min(nwin - 1)] += 1;
    }
    counts
}

fn copy_sort_analyze(iv: &[f64]) -> BurstinessReport {
    let n = iv.len();
    let mean = |xs: &[f64]| match xs.len() {
        0 => 0.0,
        len => xs.iter().sum::<f64>() / len as f64,
    };
    let below = |x: f64| match n {
        0 => 0.0,
        _ => iv.iter().filter(|&&v| v < x).count() as f64 / n as f64,
    };
    let m = mean(iv);
    let lambda = if n == 0 || m <= 0.0 { 0.0 } else { 1.0 / m };
    let pf = reference_cdf(lambda, 0.01);
    let mut timeline = vec![0.0];
    let mut t = 0.0;
    for x in iv {
        t += x;
        timeline.push(t);
    }
    let idc = closed_form_dispersion(&copy_sort_counts(&timeline, 1.0));
    BurstinessReport {
        n_losses: if n == 0 { 0 } else { n + 1 },
        n_intervals: n,
        mean_interval_rtt: m,
        frac_below_001: below(0.01),
        frac_below_01: below(0.1),
        frac_below_025: below(0.25),
        frac_below_1: below(1.0),
        burstiness_ratio: if pf > 0.0 { below(0.01) / pf } else { 0.0 },
        index_of_dispersion: idc,
    }
}

/// Σc and Σc² of dense window counts, as exact integers.
fn count_sums(counts: &[u64]) -> (u128, u128) {
    let c = counts.iter().map(|&c| u128::from(c));
    (c.clone().sum(), c.map(|c| c * c).sum())
}

/// Variance over mean of dense window counts in the engine's closed form,
/// `(W·Σc² − (Σc)²) / ((W − 1)·Σc)` with both integers exact; 0 with fewer
/// than two windows.
fn closed_form_dispersion(counts: &[u64]) -> f64 {
    let w = counts.len() as u128;
    if w < 2 {
        return 0.0;
    }
    let (s, s2) = count_sums(counts);
    (w * s2 - s * s) as f64 / ((w - 1) * s) as f64
}

/// The autocorrelation of dense window counts at lags `0..=max_lag` in the
/// engine's closed form: for lag k, `(A − k·(Σc)²/W) / (W·Σc² − (Σc)²)`
/// with `A = W·Σᵢ cᵢcᵢ₊ₖ + Σc·(head_k + tail_k) − (Σc)²`, the sums of the
/// first and last k counts, every integer exact.
fn closed_form_acf(counts: &[u64], max_lag: usize) -> Vec<f64> {
    let Some(lags) = counts.len().checked_sub(1).map(|l| l.min(max_lag)) else {
        return Vec::new();
    };
    let c = |i: usize| u128::from(counts[i]);
    let w = counts.len();
    let wu = w as u128;
    let (s, s2) = count_sums(counts);
    let d = wu * s2 - s * s;
    if d == 0 {
        return (0..=lags).map(|k| if k == 0 { 1.0 } else { 0.0 }).collect();
    }
    (0..=lags)
        .map(|k| {
            let co: u128 = (0..w - k).map(|i| c(i) * c(i + k)).sum();
            let ends: u128 = (0..k).map(c).chain((w - k..w).map(c)).sum();
            let a = (wu * co + s * ends) as i128 - (s * s) as i128;
            (a as f64 - k as f64 * (s * s) as f64 / wu as f64) / d as f64
        })
        .collect()
}

fn copy_sort_episodes(times: &[f64], gap: f64) -> Vec<Episode> {
    let mut eps: Vec<Episode> = Vec::new();
    for t in sorted_copy(times) {
        match eps.last_mut() {
            Some(e) if t - e.end <= gap => (e.end, e.size) = (t, e.size + 1),
            _ => eps.push(Episode {
                start: t,
                end: t,
                size: 1,
            }),
        }
    }
    eps
}

fn copy_sort_episode_report(times: &[f64], gap: f64) -> EpisodeReport {
    let eps = copy_sort_episodes(times, gap);
    if eps.is_empty() {
        return EpisodeReport::default();
    }
    let sizes: Vec<f64> = eps.iter().map(|e| e.size as f64).collect();
    let durations: Vec<f64> = eps.iter().map(|e| e.end - e.start).collect();
    let total: usize = eps.iter().map(|e| e.size).sum();
    let in_bursts: usize = eps.iter().filter(|e| e.size >= 2).map(|e| e.size).sum();
    EpisodeReport {
        count: eps.len(),
        mean_size: sizes.iter().sum::<f64>() / sizes.len() as f64,
        max_size: eps.iter().map(|e| e.size).max().unwrap_or(0),
        mean_duration: durations.iter().sum::<f64>() / durations.len() as f64,
        fraction_in_bursts: in_bursts as f64 / total.max(1) as f64,
    }
}

fn copy_sort_conditional(times: &[f64], deltas: &[f64]) -> Vec<f64> {
    if times.len() < 2 {
        return vec![0.0; deltas.len()];
    }
    let s = sorted_copy(times);
    let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
    (deltas.iter())
        .map(|&d| gaps.iter().filter(|&&g| g <= d).count() as f64 / gaps.len() as f64)
        .collect()
}

/// Differences of sorted input as it lies, of other input after a
/// `total_cmp` sort.
fn copy_sort_intervals(times: &[f64]) -> Vec<f64> {
    let mut s = times.to_vec();
    if !times.windows(2).all(|w| w[0] <= w[1]) {
        s.sort_by(f64::total_cmp);
    }
    s.windows(2).map(|w| w[1] - w[0]).collect()
}

fn report_bits(r: &BurstinessReport) -> [u64; 9] {
    [
        r.n_losses as u64,
        r.n_intervals as u64,
        r.mean_interval_rtt.to_bits(),
        r.frac_below_001.to_bits(),
        r.frac_below_01.to_bits(),
        r.frac_below_025.to_bits(),
        r.frac_below_1.to_bits(),
        r.burstiness_ratio.to_bits(),
        r.index_of_dispersion.to_bits(),
    ]
}

fn episodes_bits(eps: &[Episode]) -> Vec<(u64, u64, usize)> {
    (eps.iter())
        .map(|e| (e.start.to_bits(), e.end.to_bits(), e.size))
        .collect()
}

fn episode_bits(r: &EpisodeReport) -> [u64; 5] {
    [
        r.count as u64,
        r.max_size as u64,
        r.mean_size.to_bits(),
        r.mean_duration.to_bits(),
        r.fraction_in_bursts.to_bits(),
    ]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Reading the trace where it lies changes no bit of any statistic: on
/// every generated case — unsorted, tied, signed-zero and negative-interval
/// ones included — the batch functions equal the copy-sort-count formulas.
#[test]
fn batch_statistics_equal_the_copy_sort_count_formulas_bit_for_bit() {
    sweep(0xB17E, 240, |case, gen| {
        let times = trace_case(case, gen);
        let rtt = gen.random_range(0.01..0.3);
        // Intervals in input order: negative wherever the trace steps back.
        let iv: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) / rtt).collect();
        assert_eq!(
            report_bits(&analyze(&iv)),
            report_bits(&copy_sort_analyze(&iv)),
            "analyze, case {case}"
        );
        for window in [0.05, 1.0] {
            assert_eq!(
                counts_in_windows(&times, window),
                copy_sort_counts(&times, window),
                "counts_in_windows({window}), case {case}"
            );
        }
        for gap in [0.0, rtt, 1.0] {
            assert_eq!(
                episodes_bits(&episodes(&times, gap)),
                episodes_bits(&copy_sort_episodes(&times, gap)),
                "episodes({gap}), case {case}"
            );
            assert_eq!(
                episode_bits(&episode_report(&times, gap)),
                episode_bits(&copy_sort_episode_report(&times, gap)),
                "episode_report({gap}), case {case}"
            );
        }
        let deltas = [0.0, 0.01 * rtt, rtt, 10.0 * rtt];
        assert_eq!(
            bits(&conditional_loss_probability(&times, &deltas)),
            bits(&copy_sort_conditional(&times, &deltas)),
            "conditional_loss_probability, case {case}"
        );
        let diffs = copy_sort_intervals(&times);
        assert_eq!(
            bits(&inter_event_intervals(&times)),
            bits(&diffs),
            "inter_event_intervals, case {case}"
        );
        let normalized: Vec<f64> = diffs.iter().map(|d| d / rtt).collect();
        assert_eq!(
            bits(&normalized_intervals(&times, rtt)),
            bits(&normalized),
            "normalized_intervals, case {case}"
        );
    });
}

/// The largest relative difference the closed forms may show from the
/// mean-centred two-pass formulas (`stats::variance`-style dispersion over
/// [`counts_in_windows`], [`autocorrelation`]): relative to the larger of
/// the two-pass value and 1, since an autocorrelation near 0 has no
/// relative scale of its own.
const TWO_PASS_REL: f64 = 1e-12;

fn assert_near_two_pass(closed: f64, two_pass: f64, what: &str) {
    assert!(
        (closed - two_pass).abs() <= TWO_PASS_REL * two_pass.abs().max(1.0),
        "{what}: closed form {closed} vs two-pass {two_pass}"
    );
}

/// What a trace sink computes equals the batch analysis bit for bit on the
/// same generated cases, put in time order as a sink receives drops: every
/// report field, the histogram, the episodes, and the autocorrelation of
/// the dense window counts in the same closed form. The closed forms stay
/// within [`TWO_PASS_REL`] of the two-pass formulas they replaced.
#[test]
fn sink_fed_stream_stats_equal_the_batch_analysis() {
    sweep(0x57AF, 240, |case, gen| {
        let mut times = trace_case(case, gen);
        times.sort_by(f64::total_cmp);
        let rtt = gen.random_range(0.01..0.3);
        let mut stats = LossStreamStats::with_rtt(rtt);
        for &t in &times {
            stats.push_loss_at(t);
        }
        let iv = normalized_intervals(&times, rtt);
        let b = analyze(&iv);
        assert_eq!(
            report_bits(&b),
            report_bits(&stats.report()),
            "report, case {case}"
        );
        let h = Histogram::from_values(&iv, PAPER_BIN_WIDTH, PAPER_RANGE);
        let sh = stats.histogram();
        assert_eq!(
            (&h.bins, h.overflow, h.total),
            (&sh.bins, sh.overflow, sh.total),
            "histogram, case {case}"
        );
        // The stitched timeline the accumulator runs on: first loss at 0.
        let stitched: Vec<f64> = (times.first().map(|_| 0.0).into_iter())
            .chain(iv.iter().scan(0.0, |t, x| {
                *t += x;
                Some(*t)
            }))
            .collect();
        assert_eq!(
            episode_bits(&episode_report(&stitched, EPISODE_GAP_RTT)),
            episode_bits(&stats.episode_report()),
            "episodes, case {case}"
        );
        let counts = counts_in_windows(&stitched, WINDOW_RTT);
        let acf = stats.acf();
        assert_eq!(
            bits(&closed_form_acf(&counts, MAX_LAG)),
            bits(&acf),
            "acf, case {case}"
        );
        let xs: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let two_pass_acf = autocorrelation(&xs, MAX_LAG);
        assert_eq!(acf.len(), two_pass_acf.len(), "acf length, case {case}");
        for (lag, (x, y)) in acf.iter().zip(&two_pass_acf).enumerate() {
            assert_near_two_pass(*x, *y, &format!("acf[{lag}], case {case}"));
        }
        if !iv.is_empty() && xs.len() >= 2 {
            let two_pass_idc = variance(&xs) / mean(&xs);
            assert_near_two_pass(b.index_of_dispersion, two_pass_idc, "dispersion");
        }
    });
}

/// Episodes partition the trace: sizes sum to the number of losses, and
/// episode spans never overlap.
#[test]
fn episodes_partition_losses() {
    sweep(0xE915, 50, |case, gen| {
        let mut ts = times(gen, 1, 300, 100.0);
        let gap = gen.random_range(0.001..5.0);
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let eps = episodes(&ts, gap);
        let total: usize = eps.iter().map(|e| e.size).sum();
        assert_eq!(total, ts.len());
        for w in eps.windows(2) {
            assert!(w[1].start - w[0].end > gap, "episodes touch (case {case})");
            assert!(w[0].end >= w[0].start);
        }
    });
}

/// Growing the gap can only merge episodes (monotone coarsening).
#[test]
fn episode_count_monotone_in_gap() {
    sweep(0xE96A, 50, |case, gen| {
        let ts = times(gen, 2, 200, 50.0);
        let g1 = gen.random_range(0.01..1.0);
        let g2 = g1 * gen.random_range(1.1..10.0);
        let n1 = episodes(&ts, g1).len();
        let n2 = episodes(&ts, g2).len();
        assert!(
            n2 <= n1,
            "larger gap split episodes: {n1} -> {n2} (case {case})"
        );
    });
}

/// Conditional loss probability is monotone in delta and bounded by 1.
#[test]
fn conditional_probability_monotone() {
    sweep(0xC09D, 50, |_case, gen| {
        let ts = times(gen, 2, 200, 100.0);
        let d1 = gen.random_range(0.0001..1.0);
        let d2 = d1 * gen.random_range(1.0..50.0);
        let p = conditional_loss_probability(&ts, &[d1, d2]);
        assert!(p[0] <= p[1] + 1e-12);
        assert!(p[1] <= 1.0);
    });
}

/// The Poisson reference PDF sums to its own CDF over the binned range,
/// for any rate and geometry.
#[test]
fn poisson_reference_consistent() {
    with_rng(0x9015, |gen| {
        for _ in 0..100 {
            let lambda = gen.random_range(0.01..50.0);
            let bin = gen.random_range(0.005..0.1);
            let h = Histogram::new(bin, 2.0);
            let mass: f64 = reference_pdf(lambda, &h).iter().sum();
            let cdf = reference_cdf(lambda, h.bins.len() as f64 * bin);
            assert!((mass - cdf).abs() < 1e-6, "mass {mass} vs cdf {cdf}");
        }
    });
}

/// Autocorrelation is bounded by 1 in magnitude at every lag.
#[test]
fn autocorrelation_bounded() {
    sweep(0xAC0F, 50, |case, gen| {
        let n = gen.random_range(2..200usize);
        let xs: Vec<f64> = (0..n).map(|_| gen.random_range(-10.0..10.0)).collect();
        for (lag, v) in autocorrelation(&xs, 20).iter().enumerate() {
            assert!(v.abs() <= 1.0 + 1e-9, "acf[{lag}] = {v} (case {case})");
        }
    });
}

/// Bootstrap CI of the mean contains the sample mean for well-behaved
/// samples.
#[test]
fn bootstrap_mean_ci_contains_sample_mean() {
    sweep(0xB007, 30, |case, gen| {
        let n = gen.random_range(10..200usize);
        let xs: Vec<f64> = (0..n).map(|_| gen.random_range(0.0..10.0)).collect();
        let seed = gen.random_range(1..1000u64);
        let m = mean(&xs);
        let (lo, hi) = bootstrap_ci(&xs, 0.99, 300, seed, mean);
        assert!(
            lo <= m + 1e-9 && m <= hi + 1e-9,
            "CI [{lo}, {hi}] vs mean {m} (case {case})"
        );
    });
}

/// Gilbert fit, when identifiable, always yields probabilities in (0, 1].
#[test]
fn gilbert_fit_yields_probabilities() {
    sweep(0x61B7, 60, |_case, gen| {
        let n = gen.random_range(2..500usize);
        let seq: Vec<bool> = (0..n).map(|_| gen.random::<bool>()).collect();
        if let Some(g) = gilbert_fit(&seq) {
            assert!((0.0..=1.0).contains(&g.p));
            assert!((0.0..=1.0).contains(&g.r));
            assert!((0.0..=1.0).contains(&g.loss_rate()));
        }
    });
}
