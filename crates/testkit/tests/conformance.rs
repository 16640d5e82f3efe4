//! The seven EXPERIMENTS.md shape verdicts as named pass/fail tests on the
//! shared quick-scale scenarios, plus Gilbert parameter recovery. Each
//! paper row asserts its claim in `lossburst_core::registry`, the same
//! function the row's figure bin prints; each test name is referenced
//! from the EXPERIMENTS.md results table.

use lossburst_analysis::gilbert::{self, GilbertParams};
use lossburst_core::registry;
use lossburst_testkit::prelude::*;
use lossburst_testkit::scenarios::{
    fig2_data, fig3_study, fig4_data, fig56_rows, fig7_result, fig8_cells,
};
use lossburst_testkit::sweep::RngExt;

/// Table 1: 26 PlanetLab sites, 650 directed paths, derived RTTs spanning
/// ≤3 ms to beyond 200 ms.
#[test]
fn conformance_table1_sites_and_path_rtts() {
    registry::table1().unwrap();
}

/// Fig 2: NS-2 campaign losses cluster far below one RTT and diverge
/// strongly from the rate-matched Poisson process.
#[test]
fn conformance_fig2_ns2_sub_rtt_clustering() {
    registry::fig2(&fig2_data().study).unwrap();
}

/// Fig 3: the Dummynet campaign keeps its sub-RTT clustering through the
/// 1 ms recording clock and processing jitter.
#[test]
fn conformance_fig3_dummynet_clustering_survives_quantization() {
    registry::fig3(fig3_study()).unwrap();
}

/// Fig 4: the Internet campaign sits between the lab traces and Poisson —
/// intermediate sub-0.01-RTT mass, extra mass out to 1 RTT, and more mass
/// below 0.25 RTT than a rate-matched Poisson process would put there.
#[test]
fn conformance_fig4_internet_intermediate_burstiness() {
    let data = fig4_data();
    registry::fig4(&data.study).unwrap();
    assert!(
        data.campaign.validated_fraction() >= 0.75,
        "too few paths passed small/large-probe validation: {:.2}",
        data.campaign.validated_fraction()
    );
    assert!(
        data.study.report.frac_below_001 < fig2_data().study.report.frac_below_001,
        "Internet trace must be less clustered than the lab trace"
    );
}

/// Figs 5/6, equations (1)(2): every Monte-Carlo row straddles its
/// analytic `L_rate = min(M, N)` / `L_win = max(M/K, 1)` values, and the
/// detection asymmetry between the two estimators is large.
#[test]
fn conformance_fig56_rate_window_asymmetry() {
    registry::fig56(fig56_rows()).unwrap();
}

/// Fig 7: paced flows lose throughput to NewReno flows sharing the
/// bottleneck.
#[test]
fn conformance_fig7_pacing_throughput_deficit() {
    registry::fig7(fig7_result()).unwrap();
}

/// Fig 8: parallel transfers approach the theoretic lower bound at short
/// RTT, sit far above it at long RTT, slow down as RTT grows, and
/// concentrate run-to-run dispersion in the long-RTT cells.
#[test]
fn conformance_fig8_parallel_straggler_latency() {
    registry::fig8(fig8_cells()).unwrap();
}

/// The Gilbert–Elliott fitter recovers the generating parameters from a
/// long synthetic loss sequence.
#[test]
fn conformance_gilbert_parameter_recovery() {
    let truth = GilbertParams { p: 0.02, r: 0.3 };
    let seq = with_rng(0x611b, |rng| {
        gilbert::generate(truth, 200_000, || rng.random::<f64>())
    });
    let fitted = gilbert::fit(&seq).expect("identifiable sequence");
    check_gilbert_recovery(truth, fitted, 0.01, 0.05).unwrap();
}
