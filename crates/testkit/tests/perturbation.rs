//! Deliberate-perturbation suite: every paper row's shape claim in
//! `lossburst_core::registry` and every conformance gate must *fail* when
//! one of its bounds is broken, naming that bound, and the golden diff
//! must name the drifted bin. This is what makes the conformance tests
//! evidence rather than tautologies.

use lossburst_analysis::gilbert::GilbertParams;
use lossburst_core::campaign::LossStudy;
use lossburst_core::impact::{CompetitionResult, ParallelCell};
use lossburst_core::model::DetectionRow;
use lossburst_core::registry::{self, Verdict};
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::golden::{compare, GoldenSummary, Tolerance};
use lossburst_testkit::prelude::*;

/// Assert that `verdict` holds, or, given a `broken` bound, that it fails
/// naming that bound.
fn judged(verdict: Verdict, broken: Option<&str>) {
    match (verdict, broken) {
        (Ok(()), None) => {}
        (Err(e), Some(bound)) if e.contains(bound) => {}
        (v, b) => panic!("expected the claim to break {b:?}, got {v:?}"),
    }
}

/// A study of the intervals `parts` lists as `(count, interval)` runs,
/// repeated `reps` times.
fn study(reps: usize, parts: &[(usize, f64)]) -> LossStudy {
    let one = parts.iter().flat_map(|&(n, x)| std::iter::repeat_n(x, n));
    let iv: Vec<f64> = one.collect();
    LossStudy::from_intervals("synthetic", iv.repeat(reps))
}

/// Exponential quantile grid — the rate-matched Poisson process itself.
fn exponential_intervals() -> Vec<f64> {
    let n = 3000;
    (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
        .collect()
}

#[test]
fn lab_claims_fail_on_each_bound() {
    let frac = Some("frac below 0.01 RTT");
    let dispersion = Some("index of dispersion");
    for (s, fig2, fig3) in [
        // Four bursts of 100 losses 10 RTT apart: index of dispersion ≈ 77.
        (study(4, &[(99, 0.004), (1, 10.0)]), None, None),
        (study(1, &[(10, 0.004)]), Some("too few"), Some("too few")),
        // Two thirds of the intervals below 0.01 RTT.
        (study(4, &[(66, 0.004), (33, 0.05), (1, 10.0)]), frac, None),
        (study(10, &[(39, 0.02), (1, 3.0)]), frac, frac),
        // Ten bursts of 40, 3 RTT apart: index of dispersion ≈ 25.
        (study(10, &[(39, 0.004), (1, 3.0)]), dispersion, None),
        // Twenty bursts of 20, 1.5 RTT apart: index of dispersion ≈ 7.
        (study(20, &[(19, 0.004), (1, 1.5)]), dispersion, dispersion),
    ] {
        judged(registry::fig2(&s), fig2);
        judged(registry::fig3(&s), fig3);
    }
}

#[test]
fn internet_claim_fails_on_each_bound() {
    let poisson = LossStudy::from_intervals("poisson", exponential_intervals());
    for (s, broken) in [
        // 30 % below 0.01 RTT, extra mass to 1 RTT, a heavy tail.
        (
            study(1, &[(120, 0.004), (160, 0.1), (80, 0.5), (40, 3.0)]),
            None,
        ),
        (study(1, &[(400, 0.004)]), Some("intermediate band")),
        (poisson, Some("intermediate band")),
        // Half below 0.01 RTT, the other half beyond 1 RTT.
        (study(1, &[(200, 0.004), (200, 2.0)]), Some("no extra mass")),
        // A 0.24-RTT mean interval puts 65 % of the Poisson mass below
        // 0.25 RTT, where this sample has 20 %.
        (
            study(1, &[(80, 0.004), (320, 0.3)]),
            Some("rate-matched Poisson"),
        ),
    ] {
        judged(registry::fig4(&s), broken);
    }
}

#[test]
fn gilbert_recovery_check_rejects_off_parameters() {
    let truth = GilbertParams { p: 0.02, r: 0.3 };
    check_gilbert_recovery(truth, GilbertParams { p: 0.021, r: 0.31 }, 0.01, 0.05).unwrap();
    assert!(check_gilbert_recovery(truth, GilbertParams { p: 0.05, r: 0.3 }, 0.01, 0.05).is_err());
    assert!(check_gilbert_recovery(truth, GilbertParams { p: 0.02, r: 0.45 }, 0.01, 0.05).is_err());
}

/// An M = 32 row of the N = 16 model with `k` packets a flow per RTT.
fn row(k: u64, rate_simulated: f64, window_simulated: f64) -> DetectionRow {
    DetectionRow {
        m: 32,
        n: 16,
        k,
        rate_analytic: 16.0,
        rate_simulated,
        window_analytic: (32.0 / k as f64).max(1.0),
        window_simulated,
    }
}

#[test]
fn detection_claim_fails_on_each_bound() {
    let m16 = DetectionRow {
        m: 16,
        ..row(50, 16.0, 1.5)
    };
    let weak = DetectionRow {
        rate_analytic: 4.0,
        ..row(50, 4.0, 1.0)
    };
    for (r, broken) in [
        (row(50, 16.0, 1.5), None),
        (row(50, 10.0, 1.5), Some("simulated L_rate")),
        (row(50, 16.0, 2.5), Some("simulated L_win")),
        // A window estimate below max(M/K, 1) is impossible.
        (row(50, 16.0, 0.9), Some("simulated L_win")),
        (m16, Some("no M=32 row")),
        (weak, Some("analytic asymmetry")),
        // K = 16: analytic 16 / 2 = 8x holds, simulated 15 / 2.5 = 6x not.
        (row(16, 15.0, 2.5), Some("simulated asymmetry")),
    ] {
        judged(registry::fig56(&[r]), broken);
    }
}

#[test]
fn competition_claim_fails_on_each_bound() {
    let run = |pacing: f64, newreno: f64| CompetitionResult {
        pacing_series_mbps: vec![],
        newreno_series_mbps: vec![],
        pacing_mean_mbps: pacing,
        newreno_mean_mbps: newreno,
        pacing_deficit: 1.0 - pacing / newreno,
    };
    judged(registry::fig7(&run(40.0, 56.0)), None);
    judged(registry::fig7(&run(55.0, 56.0)), Some("pacing deficit"));
    judged(registry::fig7(&run(10.0, 14.0)), Some("link underused"));
}

fn cell(flows: usize, rtt_ms: u64, mean: f64, std: f64) -> ParallelCell {
    ParallelCell {
        flows,
        rtt: SimDuration::from_millis(rtt_ms),
        latencies: vec![],
        mean_normalized: mean,
        std_normalized: std,
    }
}

#[test]
fn parallel_claim_fails_on_each_bound() {
    // The quick grid's shape (`fig8.golden`).
    let grid = |short_mean: f64, long_mean: f64, short_std: f64| {
        vec![
            cell(2, 10, 2.0, 0.002),
            cell(2, 200, 27.0, 0.003),
            cell(8, 10, short_mean, short_std),
            cell(8, 200, long_mean, 0.3),
        ]
    };
    let mut falls = grid(1.9, 16.0, 0.004);
    // Eight flows slow down from 10 to 50 ms, then speed up to 200 ms.
    falls.push(cell(8, 50, 17.0, 0.01));
    let mut never_near = grid(3.5, 16.0, 0.004);
    never_near[0].mean_normalized = 3.5;
    let mut no_straggler = grid(1.9, 2.1, 0.004);
    no_straggler[1].mean_normalized = 2.1;
    for (cells, broken) in [
        (grid(1.9, 16.0, 0.004), None),
        (falls, Some("falls as RTT grows")),
        (never_near, Some("never approach")),
        (no_straggler, Some("no straggler penalty")),
        (grid(1.9, 16.0, 0.5), Some("dispersion")),
        (vec![cell(2, 10, 1.9, 0.004)], Some("two RTT columns")),
        (vec![], Some("empty")),
    ] {
        judged(registry::fig8(&cells), broken);
    }
}

#[test]
fn golden_diff_names_the_drifted_bin() {
    let expected = GoldenSummary::new("p")
        .scalar("n_losses", 100.0)
        .series("coarse_pdf", vec![0.5, 0.3, 0.2]);
    let round_tripped = GoldenSummary::parse(&expected.render()).unwrap();

    // Within tolerance of the 9-digit fixture encoding: no diff.
    compare(&round_tripped, &expected, |_| Tolerance::exact()).unwrap();

    // Perturb one bin: the diff must name the key and the bin index.
    let drifted = GoldenSummary::new("p")
        .scalar("n_losses", 100.0)
        .series("coarse_pdf", vec![0.5, 0.42, 0.2]);
    let diff = compare(&expected, &drifted, |_| Tolerance::exact()).unwrap_err();
    let msg = format!("{diff}");
    assert!(
        msg.contains("coarse_pdf") && msg.contains("bin 1"),
        "diff must name the drifted bin, got: {msg}"
    );
    assert!(
        !msg.contains("bin 0"),
        "bins within tolerance must not drift"
    );

    // Structural perturbations are reported as such.
    let missing = GoldenSummary::new("p").series("coarse_pdf", vec![0.5, 0.3, 0.2]);
    assert!(compare(&expected, &missing, |_| Tolerance::exact()).is_err());
    let short = GoldenSummary::new("p")
        .scalar("n_losses", 100.0)
        .series("coarse_pdf", vec![0.5, 0.3]);
    assert!(compare(&expected, &short, |_| Tolerance::exact()).is_err());

    // A loose per-key tolerance accepts the same drift.
    compare(&expected, &drifted, |_| Tolerance::loose(0.5)).unwrap();
}
