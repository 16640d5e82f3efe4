//! The experiment registry: a machine-readable index of every table and
//! figure the reproduction regenerates, mirroring DESIGN.md's experiment
//! table. Tooling (and tests) use it to verify that every claimed
//! experiment actually has a regenerator.

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
}
