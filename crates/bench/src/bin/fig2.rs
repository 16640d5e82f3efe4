//! Figure 2 — PDF of inter-loss time, NS-2 simulation.
//!
//! Setup (paper §3.1 / Fig 1): dumbbell, 100 Mbps bottleneck, 1 Gbps
//! access, access latencies uniform 2–200 ms, buffers ⅛–2 BDP, TCP flow
//! counts {2,4,8,16,32}, 50 two-way exponential on-off noise flows at 10%
//! of capacity. Result: "more than 95% of the packet losses cluster within
//! short time periods smaller than 0.01 RTT", far burstier than the
//! rate-matched Poisson process.

use lossburst_analysis::report::{ascii_pdf_plot, burstiness_summary, pdf_table};
use lossburst_bench::{cli, measured, or_exit, verdict};
use lossburst_core::campaign::{ns2_study, LabCampaignConfig};
use lossburst_core::registry;
use lossburst_core::supervisor::SupervisorConfig;
use lossburst_netsim::time::SimDuration;

fn main() {
    let args = cli::parse();
    let mut cfg = LabCampaignConfig::quick(args.seed);
    if args.full {
        cfg.duration = SimDuration::from_secs(120);
    } else {
        cfg.flow_counts = vec![2, 8, 32];
        cfg.buffer_bdp_fractions = vec![0.125, 0.5, 2.0];
        cfg.duration = SimDuration::from_secs(30);
    }
    println!("# Figure 1 topology: 100 Mbps bottleneck, 1 Gbps access, RTTs 2-200 ms,");
    println!(
        "#   flows {:?}, buffers {:?} x BDP, 50 on-off noise flows @ 10% of c",
        cfg.flow_counts, cfg.buffer_bdp_fractions
    );

    let study = measured("fig2", ns2_study(&cfg, &SupervisorConfig::default()));
    print!(
        "{}",
        pdf_table(
            "Figure 2: PDF of inter-loss time (NS-2)",
            &study.histogram,
            &study.poisson_pdf
        )
    );
    println!();
    print!(
        "{}",
        ascii_pdf_plot(&study.histogram, &study.poisson_pdf, 25)
    );
    println!("\n{}", burstiness_summary("fig2/ns2", &study.report));

    if let Some(dir) = &args.export {
        or_exit("fig2", study.export(dir));
        println!(
            "# exported {}_pdf.tsv and {}_intervals.txt to {}",
            study.label,
            study.label,
            dir.display()
        );
    }

    let f = study.report.frac_below_001;
    verdict(
        "fig2",
        ">95% of losses within 0.01 RTT; far above the Poisson reference",
        format!(
            "{:.1}% within 0.01 RTT; index of dispersion {:.0}",
            f * 100.0,
            study.report.index_of_dispersion
        ),
        registry::fig2(&study),
    );
}
