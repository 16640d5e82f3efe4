//! Fig 7 generalized — the controller-pair fairness matrix: two flows of
//! controller A against two of controller B on a shared 20 Mbps / 40 ms
//! bottleneck, droptail vs RED, with and without on-off noise.
//!
//! The paper shows one pairing (Pacing vs NewReno) and argues the
//! mechanism is general: a sender that spreads its packets samples more of
//! every loss burst than one that sends them back to back, and backs off
//! more. The default run is the 6-cell {NewReno, CUBIC} grid; `--full` is
//! the 60-cell matrix over NewReno, SACK, CUBIC, BBR and TFRC (~2 s).
//! The cells are printed as CSV, byte-identical for a seed; `--export DIR`
//! also writes them to `DIR/fairness_matrix.csv`.

use lossburst_analysis::stats;
use lossburst_bench::{cli, verdict};
use lossburst_core::fairness::{fairness_matrix, write_fairness_csv, FairnessConfig};
use lossburst_transport::cc::CcAlgorithm;

fn main() {
    let args = cli::parse();
    let cfg = if args.full {
        FairnessConfig::full(args.seed)
    } else {
        FairnessConfig::quick(args.seed)
    };
    println!(
        "# Fairness matrix: {} controllers x {} disciplines x {} noise levels, {} s a cell",
        cfg.algorithms.len(),
        cfg.disciplines.len(),
        cfg.noise_levels.len(),
        cfg.duration.as_secs_f64()
    );
    let m = match &args.export {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("cannot create the export directory");
            let path = dir.join("fairness_matrix.csv");
            let m = write_fairness_csv(&cfg, &path).expect("export failed");
            println!("# exported {}", path.display());
            m
        }
        None => fairness_matrix(&cfg),
    };
    print!("{}", m.to_csv());

    let mean_jain = |same: bool| {
        let pairs = m.cells.iter().filter(|c| (c.alg_a == c.alg_b) == same);
        stats::mean(&pairs.map(|c| c.jain).collect::<Vec<_>>())
    };
    // TFRC paces by equation, the window-based three send ACK-clocked
    // bursts: the matrix's own Pacing-vs-NewReno cells. (`alg_a` is always
    // the earlier controller of the grid, so TFRC is `alg_b`.)
    let spread_vs_burst: Vec<_> = m
        .cells
        .iter()
        .filter(|c| c.alg_b == CcAlgorithm::Tfrc && !c.alg_a.is_rate_based())
        .collect();
    let spread_loses = spread_vs_burst
        .iter()
        .filter(|c| c.goodput_b_mbps < c.goodput_a_mbps)
        .count();
    let spread = match spread_vs_burst.len() {
        0 => "no TFRC cells in this grid (--full has them)".to_string(),
        n => format!(
            "TFRC gets the smaller share in {spread_loses} of {n} cells against NewReno/SACK/CUBIC"
        ),
    };
    verdict(
        "fairness",
        "equal controllers share equally; a sender that spreads its packets loses to one that bursts (Fig 7: Pacing 17% below NewReno)",
        format!(
            "mean Jain {:.3} over self-pairs vs {:.3} over mixed pairs, min {:.3} of {} cells; {spread}",
            mean_jain(true),
            mean_jain(false),
            m.min_jain(),
            m.cells.len(),
        ),
        mean_jain(true) >= 0.9 && 2 * spread_loses >= spread_vs_burst.len(),
    );
}
