//! Table 1 — the PlanetLab measurement sites, plus the derived path-RTT
//! matrix summary the paper describes in §3.1 ("The RTTs of these paths
//! have a range from 2ms to more than 200ms").

use lossburst_bench::verdict;
use lossburst_core::registry;
use lossburst_inet::sites::{Region, DIRECTED_PATHS, SITES};

fn main() {
    println!("# Table 1: PlanetLab sites in measurement");
    println!(
        "{:<48} {:<22} {:>8} {:>9}",
        "node", "location", "lat", "lon"
    );
    for s in &SITES {
        println!(
            "{:<48} {:<22} {:>8.2} {:>9.2}",
            s.host, s.location, s.lat, s.lon
        );
    }
    let count = |r: Region| SITES.iter().filter(|s| s.region == r).count();
    println!(
        "\n# sites: {} total — {} California, {} other US, {} Canada, {} Asia/Europe/S.America",
        SITES.len(),
        count(Region::California),
        count(Region::UsOther),
        count(Region::Canada),
        count(Region::Asia) + count(Region::Europe) + count(Region::SouthAmerica),
    );

    let rtts_ms = registry::path_rtts_ms();
    let min = rtts_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rtts_ms.iter().cloned().fold(0.0f64, f64::max);
    let mean = rtts_ms.iter().sum::<f64>() / rtts_ms.len() as f64;
    let above_200 = rtts_ms.iter().filter(|&&r| r > 200.0).count();
    println!(
        "# derived path RTTs over {} directed paths: min {:.1} ms, mean {:.1} ms, max {:.1} ms, {} paths above 200 ms",
        rtts_ms.len(),
        min,
        mean,
        max,
        above_200
    );

    verdict(
        "table1",
        "26 sites, 650 directed paths, RTTs from 2 ms to more than 200 ms (highest >300 ms)",
        format!(
            "26 sites, {} paths, RTTs {:.1}–{:.1} ms",
            DIRECTED_PATHS, min, max
        ),
        registry::table1(),
    );
}
