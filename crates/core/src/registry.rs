//! The experiment registry: a machine-readable index of every table and
//! figure the reproduction regenerates, mirroring DESIGN.md's experiment
//! table. Tooling (and tests) use it to verify that every claimed
//! experiment actually has a regenerator.
//!
//! Beside the index sit the paper rows' shape claims: one function per
//! row (Table 1, Figs 2–8) that says whether a measurement has the shape
//! the paper reports. The figure bins print its [`Verdict`] and the
//! conformance tests assert it, so a row has exactly one definition of
//! "the shape holds".

use crate::campaign::LossStudy;
use crate::impact::{CompetitionResult, ParallelCell};
use crate::model::DetectionRow;
use lossburst_analysis::poisson;
use lossburst_analysis::stats::ks_statistic;
use lossburst_inet::geo::base_rtt;
use lossburst_inet::sites::{all_directed_pairs, SITES};

/// Which part of the paper an experiment reproduces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    /// A table.
    Table,
    /// A figure.
    Figure,
    /// An extension beyond the paper (Section 5 / future work).
    Extension,
}

/// One registered experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Identifier, e.g. "fig2".
    pub id: &'static str,
    /// Table, figure, or extension.
    pub(crate) kind: Kind,
    /// What the paper shows there.
    pub description: &'static str,
    /// The module implementing it (rustdoc path).
    pub module: &'static str,
    /// The binary in `lossburst-bench` that regenerates it (None when the
    /// regenerator is an example or a bin of the root package instead).
    pub(crate) bench_bin: Option<&'static str>,
    /// The paper's headline claim, condensed.
    pub paper_claim: &'static str,
}

/// Every experiment in the reproduction.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        id: "table1",
        kind: Kind::Table,
        description: "PlanetLab sites and the 650-path RTT matrix",
        module: "lossburst_inet::sites / lossburst_inet::geo",
        bench_bin: Some("table1"),
        paper_claim: "26 sites; path RTTs from 2 ms to over 300 ms",
    },
    Experiment {
        id: "fig1",
        kind: Kind::Figure,
        description: "dumbbell testbed topology",
        module: "lossburst_netsim::topology::build_dumbbell",
        bench_bin: Some("fig2"),
        paper_claim: "100 Mbps bottleneck, 1 Gbps access, 2-32 flows, 50 noise flows at 10%",
    },
    Experiment {
        id: "fig2",
        kind: Kind::Figure,
        description: "inter-loss-interval PDF, NS-2 simulation",
        module: "lossburst_core::campaign::ns2_study",
        bench_bin: Some("fig2"),
        paper_claim: ">95% of losses within 0.01 RTT",
    },
    Experiment {
        id: "fig3",
        kind: Kind::Figure,
        description: "inter-loss-interval PDF, Dummynet emulation",
        module: "lossburst_core::campaign::dummynet_study",
        bench_bin: Some("fig3"),
        paper_claim: "~80% of losses within 0.01 RTT",
    },
    Experiment {
        id: "fig4",
        kind: Kind::Figure,
        description: "inter-loss-interval PDF, Internet (PlanetLab)",
        module: "lossburst_core::campaign::internet_study",
        bench_bin: Some("fig4"),
        paper_claim: "~40% within 0.01 RTT, ~60% within 1 RTT; >> Poisson below 0.25 RTT",
    },
    Experiment {
        id: "fig56",
        kind: Kind::Figure,
        description: "loss-detection model, equations (1) and (2)",
        module: "lossburst_core::model",
        bench_bin: Some("fig56_model"),
        paper_claim: "L_rate = min(M,N) >> L_win = max(M/K,1)",
    },
    Experiment {
        id: "fig7",
        kind: Kind::Figure,
        description: "TCP Pacing vs TCP NewReno competition",
        module: "lossburst_core::impact::competition",
        bench_bin: Some("fig7"),
        paper_claim: "Pacing ~17% lower aggregate throughput",
    },
    Experiment {
        id: "fig8",
        kind: Kind::Figure,
        description: "parallel 64 MB transfer latency grid",
        module: "lossburst_core::impact::parallel_study",
        bench_bin: Some("fig8"),
        paper_claim: "near bound at small RTT; 11-50 s at 200 ms RTT with huge variance",
    },
    Experiment {
        id: "ablations",
        kind: Kind::Extension,
        description: "buffer/multiplexing/source/RED/straggler sweeps",
        module: "lossburst_core::ablation",
        bench_bin: Some("ablations"),
        paper_claim: "burstiness is structural; RED helps but is hard to tune",
    },
    Experiment {
        id: "fairness",
        kind: Kind::Extension,
        description: "controller-pair fairness matrix over bursty bottlenecks",
        module: "lossburst_core::fairness",
        bench_bin: Some("fairness_matrix"),
        paper_claim: "burst-senders outcompete spread-senders; Fig 7 generalized",
    },
    Experiment {
        id: "ecn",
        kind: Kind::Extension,
        description: "persistent-ECN remedy (paper ref [22])",
        module: "lossburst_core::ecn",
        bench_bin: None,
        paper_claim: "a one-RTT signal reaches every flow",
    },
    Experiment {
        id: "sharding",
        kind: Kind::Extension,
        description: "multi-process sharded campaigns with mergeable checkpoints",
        module: "lossburst_core::shard",
        bench_bin: None,
        paper_claim: "the 650-path campaign scales to 10^5+ paths without changing results",
    },
];

/// Render the registry as a text table.
pub fn registry_table() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<10} {:<46} {:<18}\n",
        "id", "kind", "description", "regenerator"
    ));
    for e in &EXPERIMENTS {
        out.push_str(&format!(
            "{:<10} {:<10} {:<46} {:<18}\n",
            e.id,
            format!("{:?}", e.kind),
            e.description,
            e.bench_bin
                .map(|b| format!("--bin {b}"))
                .unwrap_or_else(|| "root package".into()),
        ));
    }
    out
}

/// A shape claim's verdict: `Err` names the bound the measurement broke.
pub type Verdict = Result<(), String>;

/// `Ok` where a bound holds, else `Err(broken)`. A NaN statistic holds no
/// bound.
fn bound(holds: bool, broken: String) -> Verdict {
    if holds {
        Ok(())
    } else {
        Err(broken)
    }
}

/// The derived RTT, in milliseconds, of each of the 650 directed paths
/// between the Table 1 sites.
pub fn path_rtts_ms() -> Vec<f64> {
    all_directed_pairs()
        .iter()
        .map(|&(a, b)| base_rtt(&SITES[a], &SITES[b]).as_secs_f64() * 1000.0)
        .collect()
}

/// Table 1: 26 PlanetLab sites, 650 directed paths, derived RTTs from
/// ≤ 3 ms to beyond 200 ms.
pub fn table1() -> Verdict {
    deployment(SITES.len(), &path_rtts_ms())
}

fn deployment(n_sites: usize, rtts_ms: &[f64]) -> Verdict {
    let min = rtts_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rtts_ms.iter().copied().fold(0.0, f64::max);
    bound(n_sites == 26, format!("expected 26 sites, got {n_sites}"))?;
    let n = rtts_ms.len();
    bound(n == 650, format!("expected 650 directed paths, got {n}"))?;
    bound(min <= 3.0, format!("shortest path RTT {min:.1} ms > 3 ms"))?;
    bound(
        max > 200.0,
        format!("longest path RTT {max:.1} ms ≤ 200 ms"),
    )
}

/// Kolmogorov–Smirnov distance between an inter-loss-interval sample and
/// the Poisson (exponential-interval) process with the same rate — the
/// paper's "≫ Poisson" claim as one number (0 = indistinguishable,
/// → 1 = completely clustered).
pub fn ks_vs_rate_matched_poisson(intervals_rtt: &[f64]) -> f64 {
    let lambda = poisson::rate_from_intervals(intervals_rtt);
    if lambda <= 0.0 {
        return 0.0;
    }
    ks_statistic(intervals_rtt, |x| poisson::reference_cdf(lambda, x))
}

/// The "≫ Poisson" divergence itself: KS distance ≥ 0.5 from the
/// rate-matched exponential.
fn diverges_from_poisson(intervals_rtt: &[f64]) -> Verdict {
    let d = ks_vs_rate_matched_poisson(intervals_rtt);
    bound(
        d >= 0.5,
        format!("KS distance from rate-matched Poisson {d:.3} < 0.5 — sample is too Poisson-like"),
    )
}

/// A lab campaign's sub-RTT clustering: at least 50 losses, at least
/// `min_frac` of the intervals below 0.01 RTT, an index of dispersion of
/// at least `min_dispersion` (Poisson = 1), and the Poisson divergence.
fn lab_clustering(study: &LossStudy, min_frac: f64, min_dispersion: f64) -> Verdict {
    let (label, r) = (&study.label, &study.report);
    let (n, f, d) = (r.n_losses, r.frac_below_001, r.index_of_dispersion);
    bound(
        n >= 50,
        format!("{label}: only {n} losses — too few to judge the shape"),
    )?;
    bound(
        f >= min_frac,
        format!("{label}: frac below 0.01 RTT = {f:.3} < {min_frac}"),
    )?;
    bound(
        d >= min_dispersion,
        format!("{label}: index of dispersion {d:.1} < {min_dispersion} (Poisson = 1)"),
    )?;
    diverges_from_poisson(&study.intervals_rtt)
}

/// Fig 2: the NS-2 campaign's losses cluster far below one RTT — ≥ 90 %
/// of the intervals below 0.01 RTT, an index of dispersion ≥ 50 — and
/// diverge from the rate-matched Poisson process.
pub fn fig2(study: &LossStudy) -> Verdict {
    lab_clustering(study, 0.9, 50.0)
}

/// Fig 3: the Dummynet campaign keeps its clustering through the 1 ms
/// recording clock and processing jitter — ≥ 50 % below 0.01 RTT, an
/// index of dispersion ≥ 10 — and still diverges from Poisson.
pub fn fig3(study: &LossStudy) -> Verdict {
    lab_clustering(study, 0.5, 10.0)
}

/// Fig 4: the Internet campaign sits between the lab (≈ 1) and Poisson
/// (≈ 0.01): an intermediate fraction below 0.01 RTT, extra mass out to
/// 1 RTT, and more mass below 0.25 RTT than the rate-matched Poisson puts
/// there.
pub fn fig4(study: &LossStudy) -> Verdict {
    let r = &study.report;
    let (f001, f1, f025) = (r.frac_below_001, r.frac_below_1, r.frac_below_025);
    bound(
        (0.15..=0.85).contains(&f001),
        format!(
            "frac below 0.01 RTT = {f001:.3} outside the intermediate band (0.15, 0.85) — \
             looks like a lab trace (≈1) or Poisson (≈0)"
        ),
    )?;
    bound(
        f1 >= f001 + 0.05,
        format!("no extra mass between 0.01 and 1 RTT ({f1:.3} vs {f001:.3})"),
    )?;
    let lambda = poisson::rate_from_intervals(&study.intervals_rtt);
    let poisson = poisson::reference_cdf(lambda, 0.25);
    bound(f025 > poisson, format!("mass below 0.25 RTT ({f025:.3}) does not exceed the rate-matched Poisson ({poisson:.3})"))
}

/// Figs 5/6, equations (1)(2): every Monte-Carlo row straddles its
/// analytic values — rate within 10 %, window within `[L_win, L_win + 1]`
/// (a random burst offset can straddle one trunk boundary) — and at
/// M = 32 both the analytic and the simulated rate-vs-window asymmetry
/// reach 8×.
pub fn fig56(rows: &[DetectionRow]) -> Verdict {
    for r in rows {
        let (rate, win) = (r.rate_simulated, r.window_simulated);
        let rate_ok = (rate - r.rate_analytic).abs() <= 0.1 * r.rate_analytic.max(1.0);
        let (m, analytic) = (r.m, r.rate_analytic);
        bound(
            rate_ok,
            format!("M={m}: simulated L_rate {rate:.2} vs analytic min(M,N) = {analytic:.2}"),
        )?;
        let (lo, hi) = (r.window_analytic, r.window_analytic + 1.0);
        bound(
            win >= lo - 1e-9 && win <= hi,
            format!(
                "M={m}: simulated L_win {win:.2} outside [max(M/K,1), +1] = [{lo:.2}, {hi:.2}]"
            ),
        )?;
    }
    let Some(m32) = rows.iter().find(|r| r.m == 32) else {
        return Err("no M=32 row to judge the asymmetry".into());
    };
    let analytic = m32.unfairness();
    bound(
        analytic >= 8.0,
        format!("M=32: analytic asymmetry {analytic:.1}x < 8x"),
    )?;
    let simulated = m32.rate_simulated / m32.window_simulated.max(1e-12);
    bound(
        simulated >= 8.0,
        format!("M=32: simulated asymmetry {simulated:.1}x < 8x"),
    )
}

/// Fig 7: paced flows lose at least 10 % throughput to the NewReno flows
/// sharing the bottleneck, on a link carrying at least 60 Mbps.
pub fn fig7(res: &CompetitionResult) -> Verdict {
    let (pacing, newreno) = (res.pacing_mean_mbps, res.newreno_mean_mbps);
    let total = pacing + newreno;
    bound(
        total >= 60.0,
        format!("link underused: pacing {pacing:.1} + newreno {newreno:.1} = {total:.1} Mbps < 60"),
    )?;
    bound(
        res.pacing_deficit >= 0.1,
        format!(
            "pacing deficit {:.3} < 0.1 (newreno {newreno:.1} Mbps vs pacing {pacing:.1} Mbps)",
            res.pacing_deficit
        ),
    )
}

/// Fig 8: the parallel-transfer grid's normalized latency never falls as
/// RTT grows at any flow count, its best cell in the shortest-RTT column
/// is within 2.5× of the bound, its worst in the longest-RTT column at
/// least 5× above it, and run-to-run dispersion is larger in the
/// longest-RTT column than in the shortest.
pub fn fig8(cells: &[ParallelCell]) -> Verdict {
    let rtts = || cells.iter().map(|c| c.rtt);
    let (Some(short), Some(long)) = (rtts().min(), rtts().max()) else {
        return Err("empty parallel grid".into());
    };
    bound(short < long, "grid needs at least two RTT columns".into())?;
    let ms = |c: &ParallelCell| c.rtt.as_secs_f64() * 1000.0;
    for a in cells {
        for b in cells.iter().filter(|b| b.flows == a.flows && b.rtt > a.rtt) {
            bound(a.mean_normalized <= b.mean_normalized, format!(
                    "{} flows: {:.2}x bound at {:.0} ms > {:.2}x at {:.0} ms — latency falls as RTT grows",
                    a.flows, a.mean_normalized, ms(a), b.mean_normalized, ms(b)
                ))?;
        }
    }
    let column = |rtt| cells.iter().filter(move |c| c.rtt == rtt);
    let best_short = column(short)
        .map(|c| c.mean_normalized)
        .fold(f64::INFINITY, f64::min);
    bound(best_short <= 2.5, format!("best short-RTT cell at {best_short:.2}x bound > 2.5x — transfers never approach the bound"))?;
    let worst_long = column(long).map(|c| c.mean_normalized).fold(0.0, f64::max);
    bound(
        worst_long >= 5.0,
        format!(
            "worst long-RTT cell at {worst_long:.2}x bound < 5x — no straggler penalty at long RTT"
        ),
    )?;
    let max_std = |rtt| column(rtt).map(|c| c.std_normalized).fold(0.0, f64::max);
    let (long_std, short_std) = (max_std(long), max_std(short));
    bound(long_std > short_std, format!("dispersion not concentrated at long RTT: std {long_std:.3} (long) ≤ {short_std:.3} (short)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_figure_and_table_is_registered() {
        for id in [
            "table1", "fig1", "fig2", "fig3", "fig4", "fig56", "fig7", "fig8",
        ] {
            assert!(
                EXPERIMENTS.iter().any(|e| e.id == id),
                "missing experiment {id}"
            );
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in &EXPERIMENTS {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
        }
    }

    #[test]
    fn every_figure_has_a_bench_regenerator() {
        for e in EXPERIMENTS.iter().filter(|e| e.kind != Kind::Extension) {
            assert!(e.bench_bin.is_some(), "{} lacks a bench binary", e.id);
        }
    }

    #[test]
    fn registered_bench_binaries_exist_on_disk() {
        // The registry must not drift from crates/bench/src/bin.
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .join("bench/src/bin");
        if !bin_dir.exists() {
            // Packaged builds may not carry the sibling crate; skip.
            return;
        }
        for e in &EXPERIMENTS {
            if let Some(bin) = e.bench_bin {
                let f = bin_dir.join(format!("{bin}.rs"));
                assert!(f.exists(), "bench binary {bin}.rs missing for {}", e.id);
            }
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let t = registry_table();
        assert_eq!(t.lines().count(), EXPERIMENTS.len() + 1);
    }

    #[test]
    fn ks_separates_clustered_from_exponential() {
        // A point mass is maximally un-exponential even after rate
        // matching: the empirical CDF jumps 0 → 1 where the reference sits
        // at 1 − 1/e.
        let clustered = vec![1e-4; 400];
        assert!(ks_vs_rate_matched_poisson(&clustered) > 0.5);
        let mut mixed = vec![1e-4; 380];
        mixed.extend(std::iter::repeat_n(5.0, 20));
        assert!(ks_vs_rate_matched_poisson(&mixed) > 0.5);
        assert_eq!(diverges_from_poisson(&mixed), Ok(()));
        let n = 3000;
        let expo: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
            .collect();
        assert!(ks_vs_rate_matched_poisson(&expo) < 0.05);
        let err = diverges_from_poisson(&expo).unwrap_err();
        assert!(err.contains("Poisson-like"), "{err}");
        assert_eq!(ks_vs_rate_matched_poisson(&[]), 0.0);
    }

    #[test]
    fn table1_holds_and_each_deployment_bound_can_fail() {
        assert_eq!(table1(), Ok(()));
        let rtts = path_rtts_ms();
        let clamped = |lo: f64, hi: f64| rtts.iter().map(|r| r.clamp(lo, hi)).collect::<Vec<_>>();
        for (n_sites, rtts, broken) in [
            (25, &rtts[..], "26 sites"),
            (26, &rtts[1..], "650 directed paths"),
            (26, &clamped(5.0, 400.0), "shortest path RTT"),
            (26, &clamped(0.0, 150.0), "longest path RTT"),
        ] {
            let err = deployment(n_sites, rtts).unwrap_err();
            assert!(err.contains(broken), "{err}");
        }
    }
}
