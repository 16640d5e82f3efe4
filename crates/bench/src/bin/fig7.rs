//! Figure 7 — aggregate throughput of TCP Pacing (16 flows) vs TCP NewReno
//! (16 flows) sharing a 100 Mbps / 50 ms RTT path.
//!
//! The paper: "TCP Pacing uses exactly the same loss detection and
//! congestion reaction algorithms as TCP NewReno. However, since TCP
//! Pacing is a rate-based control protocol and it is easier to see packet
//! losses, it has a 17% lower throughput than TCP NewReno."

use lossburst_analysis::stats;
use lossburst_bench::{cli, verdict};
use lossburst_core::impact::{competition, CompetitionConfig};
use lossburst_core::registry;
use lossburst_netsim::time::SimDuration;

fn main() {
    let args = cli::parse();
    let seeds: Vec<u64> = if args.full {
        (0..5).map(|i| args.seed + i).collect()
    } else {
        vec![args.seed]
    };

    println!("# Fig 7: 16 TCP Pacing + 16 TCP NewReno, 100 Mbps bottleneck, 50 ms RTT, 40 s");
    let mut deficits = Vec::new();
    let mut holds = Ok(());
    for (run, &seed) in seeds.iter().enumerate() {
        let mut cfg = CompetitionConfig::paper(seed);
        cfg.duration = SimDuration::from_secs(40);
        let res = competition(&cfg);
        if run == 0 {
            println!("# time(s)  newreno(Mbps)  pacing(Mbps)");
            for (i, (n, p)) in res
                .newreno_series_mbps
                .iter()
                .zip(res.pacing_series_mbps.iter())
                .enumerate()
            {
                println!("{:>7}  {:>13.1}  {:>12.1}", i + 1, n, p);
            }
        }
        println!(
            "# seed {seed}: newreno {:.1} Mbps, pacing {:.1} Mbps, pacing deficit {:.1}%",
            res.newreno_mean_mbps,
            res.pacing_mean_mbps,
            res.pacing_deficit * 100.0
        );
        deficits.push(res.pacing_deficit);
        holds = holds.and_then(|()| registry::fig7(&res));
    }

    let mean_deficit = stats::mean(&deficits);
    verdict(
        "fig7",
        "TCP Pacing loses to TCP NewReno; ~17% lower aggregate throughput (same behavior across parameters)",
        format!(
            "pacing deficit {:.0}% (mean over {} seed(s)); NewReno wins in every run: {}",
            mean_deficit * 100.0,
            deficits.len(),
            deficits.iter().all(|&d| d > 0.0)
        ),
        holds,
    );
}
