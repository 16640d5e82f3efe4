//! `fairness_perf` — the controller-pair fairness matrix, timed.
//!
//! Runs the [`lossburst_core::fairness`] grid (the full matrix by default,
//! `--quick` for the CI-scale 2×2 variant), writes the per-cell results to
//! `fairness_matrix.csv`, and records wall time plus grid-level summaries
//! in `BENCH_FAIRNESS.json` (override with `--out PATH`, the CSV with
//! `--csv PATH`); see EXPERIMENTS.md for the schema.

use lossburst_bench::cli;
use lossburst_core::fairness::{fairness_matrix, FairnessConfig};
use std::time::Instant;

fn main() {
    const USAGE: &str = "usage: fairness_perf [--quick] [--out PATH] [--csv PATH]";
    let mut out_path = String::from("BENCH_FAIRNESS.json");
    let mut csv_path = String::from("fairness_matrix.csv");
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = cli::value(&mut it, "--out", "a path", USAGE),
            "--csv" => csv_path = cli::value(&mut it, "--csv", "a path", USAGE),
            other => cli::unknown_flag(other, USAGE),
        }
    }

    let seed = 2006;
    let cfg = if quick {
        FairnessConfig::quick(seed)
    } else {
        FairnessConfig::full(seed)
    };
    let variant = if quick { "quick" } else { "full" };
    println!(
        "# fairness matrix ({variant}): {} controllers x {} disciplines x {} noise levels",
        cfg.algorithms.len(),
        cfg.disciplines.len(),
        cfg.noise_levels.len()
    );

    let t0 = Instant::now();
    let m = fairness_matrix(&cfg);
    let wall_secs = t0.elapsed().as_secs_f64();

    println!(
        "# {:<10} {:<10} {:<9} {:>5} {:>8} {:>8} {:>8}",
        "alg_a", "alg_b", "disc", "noise", "jain", "a_mbps", "b_mbps"
    );
    for c in &m.cells {
        println!(
            "# {:<10} {:<10} {:<9} {:>5.2} {:>8.4} {:>8.3} {:>8.3}",
            c.alg_a.name(),
            c.alg_b.name(),
            c.discipline.name(),
            c.noise,
            c.jain,
            c.goodput_a_mbps,
            c.goodput_b_mbps
        );
        assert!(
            c.jain > 0.0 && c.jain <= 1.0 + 1e-9,
            "Jain index out of (0,1] for {}/{}: {}",
            c.alg_a.name(),
            c.alg_b.name(),
            c.jain
        );
    }

    std::fs::write(&csv_path, m.to_csv()).expect("cannot write fairness_matrix.csv");

    let min_jain = m.min_jain();
    let mean_jain = m.cells.iter().map(|c| c.jain).sum::<f64>() / m.cells.len().max(1) as f64;
    let entries: Vec<String> = m
        .cells
        .iter()
        .map(|c| {
            format!(
                "    {{ \"alg_a\": \"{}\", \"alg_b\": \"{}\", \"discipline\": \"{}\", \
                 \"noise\": {:.2}, \"jain\": {:.6}, \"goodput_a_mbps\": {:.4}, \
                 \"goodput_b_mbps\": {:.4}, \"drops\": {}, \"utilization\": {:.4} }}",
                c.alg_a.name(),
                c.alg_b.name(),
                c.discipline.name(),
                c.noise,
                c.jain,
                c.goodput_a_mbps,
                c.goodput_b_mbps,
                c.drops,
                c.utilization
            )
        })
        .collect();
    let prov = lossburst_bench::provenance::capture().json_fields();
    let json = format!(
        "{{\n  \"bench\": \"fairness\",\n  \"variant\": \"{variant}\",\n  \"seed\": {seed},\n  {prov},\n  \
         \"wall_secs\": {wall_secs:.3},\n  \"cells\": {},\n  \"min_jain\": {min_jain:.6},\n  \
         \"mean_jain\": {mean_jain:.6},\n  \"matrix\": [\n{}\n  ]\n}}\n",
        m.cells.len(),
        entries.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!(
        "# wrote {csv_path} and {out_path} ({} cells in {wall_secs:.1}s, min Jain {min_jain:.3})",
        m.cells.len()
    );
}
