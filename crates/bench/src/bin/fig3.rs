//! Figure 3 — PDF of inter-loss time, Dummynet emulation.
//!
//! Same dumbbell as Fig 2 but with the emulation testbed's non-idealities:
//! four fixed RTT classes (2/10/50/200 ms), a FreeBSD 1 ms recording
//! clock, and per-packet processing jitter in the router. The paper:
//! "about 80% of the packet losses cluster within short time periods
//! smaller than 0.01 RTT".

use lossburst_analysis::report::{ascii_pdf_plot, burstiness_summary, pdf_table};
use lossburst_bench::{cli, measured, or_exit, verdict};
use lossburst_core::campaign::{dummynet_study, LabCampaignConfig};
use lossburst_core::registry;
use lossburst_netsim::time::SimDuration;

fn main() {
    let args = cli::parse();
    let mut cfg = LabCampaignConfig::quick(args.seed);
    if args.full {
        cfg.duration = SimDuration::from_secs(120);
    } else {
        cfg.flow_counts = vec![2, 8, 32];
        cfg.duration = SimDuration::from_secs(30);
    }
    println!("# Dummynet testbed: RTT classes 2/10/50/200 ms, 1 ms clock, processing jitter");

    let study = measured("fig3", dummynet_study(&cfg));
    print!(
        "{}",
        pdf_table(
            "Figure 3: PDF of inter-loss time (Dummynet)",
            &study.histogram,
            &study.poisson_pdf
        )
    );
    println!();
    print!(
        "{}",
        ascii_pdf_plot(&study.histogram, &study.poisson_pdf, 25)
    );
    println!("\n{}", burstiness_summary("fig3/dummynet", &study.report));

    if let Some(dir) = &args.export {
        or_exit("fig3", study.export(dir));
        println!(
            "# exported {}_pdf.tsv and {}_intervals.txt to {}",
            study.label,
            study.label,
            dir.display()
        );
    }

    let f = study.report.frac_below_001;
    verdict(
        "fig3",
        "~80% of losses within 0.01 RTT; still far burstier than Poisson",
        format!(
            "{:.1}% within 0.01 RTT; index of dispersion {:.0}",
            f * 100.0,
            study.report.index_of_dispersion
        ),
        registry::fig3(&study),
    );
}
