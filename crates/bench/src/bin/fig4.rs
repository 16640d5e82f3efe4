//! Figure 4 — PDF of inter-loss time, Internet (PlanetLab) measurements.
//!
//! CBR probes (48 B and 400 B runs, validated against each other) over
//! randomly chosen directed paths between the Table 1 sites. The paper:
//! "40% of the packet losses cluster within short time periods of 0.01 RTT
//! and 60% of the packet losses cluster within time periods of 1 RTT" —
//! less bursty than the lab, because of Internet heterogeneity, but still
//! far burstier than Poisson in the 0–0.25 RTT range.

use lossburst_analysis::poisson;
use lossburst_analysis::report::{ascii_pdf_plot, burstiness_summary, pdf_table};
use lossburst_bench::{cli, measured, or_exit, verdict};
use lossburst_core::campaign::internet_study;
use lossburst_core::registry;
use lossburst_inet::campaign::CampaignConfig;
use lossburst_netsim::time::SimDuration;

fn main() {
    let args = cli::parse();
    let cfg = if args.full {
        CampaignConfig {
            seed: args.seed,
            n_paths: 120,
            probe_pps: 2000.0,
            duration: SimDuration::from_secs(60),
            background: lossburst_netsim::fluid::BackgroundMode::Packet,
        }
    } else {
        CampaignConfig::quick(args.seed)
    };
    println!(
        "# Internet campaign: {} of 650 directed paths, paired 48B/400B CBR probes at {} pps, {}s runs",
        cfg.n_paths,
        cfg.probe_pps,
        cfg.duration.as_secs_f64()
    );

    let study = measured("fig4", internet_study(&cfg));
    print!(
        "{}",
        pdf_table(
            "Figure 4: PDF of inter-loss time (Internet)",
            &study.histogram,
            &study.poisson_pdf
        )
    );
    println!();
    print!(
        "{}",
        ascii_pdf_plot(&study.histogram, &study.poisson_pdf, 25)
    );
    println!("\n{}", burstiness_summary("fig4/internet", &study.report));

    // The paper's Fig 4 comparison: measured vs Poisson below 0.25 RTT.
    let lambda = poisson::rate_from_intervals(&study.intervals_rtt);
    let poisson_below_025 = poisson::reference_cdf(lambda, 0.25);
    println!(
        "# below 0.25 RTT: measured {:.2} vs Poisson {:.2}",
        study.report.frac_below_025, poisson_below_025
    );

    if let Some(dir) = &args.export {
        or_exit("fig4", study.export(dir));
        println!(
            "# exported {}_pdf.tsv and {}_intervals.txt to {}",
            study.label,
            study.label,
            dir.display()
        );
    }

    let f001 = study.report.frac_below_001;
    let f1 = study.report.frac_below_1;
    verdict(
        "fig4",
        "~40% within 0.01 RTT, ~60% within 1 RTT; well above Poisson below 0.25 RTT",
        format!(
            "{:.0}% within 0.01 RTT, {:.0}% within 1 RTT; measured/Poisson below 0.25 RTT = {:.2}/{:.2}",
            f001 * 100.0,
            f1 * 100.0,
            study.report.frac_below_025,
            poisson_below_025
        ),
        registry::fig4(&study),
    );
}
