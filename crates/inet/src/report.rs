//! Campaign-level reporting: loss statistics aggregated by region pair,
//! validation bookkeeping, and a per-path table.

use crate::campaign::StreamCampaignResult;
use crate::sites::{Region, SITES};
use std::collections::BTreeMap;

/// Aggregate statistics for one (source-region, destination-region) bucket.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionPairStats {
    /// Measured paths in this bucket.
    pub paths: usize,
    /// Paths passing the paired-size validation.
    pub validated: usize,
    /// Mean probe loss rate over the validated paths (48-byte runs).
    pub mean_loss_rate: f64,
    /// Highest probe loss rate observed.
    pub max_loss_rate: f64,
}

fn region_name(r: Region) -> &'static str {
    match r {
        Region::California => "California",
        Region::UsOther => "US-other",
        Region::Canada => "Canada",
        Region::Asia => "Asia",
        Region::Europe => "Europe",
        Region::SouthAmerica => "S.America",
    }
}

/// Bucket a campaign's measurements by (source region, destination region).
pub fn by_region_pair(
    result: &StreamCampaignResult,
) -> BTreeMap<(String, String), RegionPairStats> {
    let mut sums: BTreeMap<(String, String), (RegionPairStats, f64)> = BTreeMap::new();
    for m in &result.measurements {
        let key = (
            region_name(SITES[m.src].region).to_string(),
            region_name(SITES[m.dst].region).to_string(),
        );
        let entry = sums.entry(key).or_default();
        entry.0.paths += 1;
        if m.validated {
            entry.0.validated += 1;
            entry.1 += m.small.loss_rate;
            entry.0.max_loss_rate = entry.0.max_loss_rate.max(m.small.loss_rate);
        }
    }
    sums.into_iter()
        .map(|(k, (mut stats, loss_sum))| {
            if stats.validated > 0 {
                stats.mean_loss_rate = loss_sum / stats.validated as f64;
            }
            (k, stats)
        })
        .collect()
}

/// Render the region-pair table as text.
pub fn region_table(result: &StreamCampaignResult) -> String {
    let buckets = by_region_pair(result);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<14} {:>6} {:>10} {:>11} {:>11}\n",
        "from", "to", "paths", "validated", "mean loss", "max loss"
    ));
    for ((src, dst), s) in &buckets {
        out.push_str(&format!(
            "{:<14} {:<14} {:>6} {:>10} {:>10.3}% {:>10.3}%\n",
            src,
            dst,
            s.paths,
            s.validated,
            s.mean_loss_rate * 100.0,
            s.max_loss_rate * 100.0
        ));
    }
    out
}

/// One line per measured path.
pub fn path_table(result: &StreamCampaignResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<26} {:>8} {:>9} {:>9} {:>6}\n",
        "src", "dst", "rtt(ms)", "loss48", "loss400", "valid"
    ));
    for m in &result.measurements {
        out.push_str(&format!(
            "{:<26} {:<26} {:>8.1} {:>8.3}% {:>8.3}% {:>6}\n",
            SITES[m.src].location,
            SITES[m.dst].location,
            m.rtt.as_secs_f64() * 1000.0,
            m.small.loss_rate * 100.0,
            m.large.loss_rate * 100.0,
            if m.validated { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign_streaming, CampaignConfig};
    use lossburst_netsim::time::SimDuration;

    fn small_campaign() -> StreamCampaignResult {
        run_campaign_streaming(&CampaignConfig {
            seed: 12,
            n_paths: 6,
            probe_pps: 800.0,
            duration: SimDuration::from_secs(8),
            background: lossburst_netsim::fluid::BackgroundMode::Packet,
        })
    }

    #[test]
    fn region_buckets_cover_all_measurements() {
        let res = small_campaign();
        let buckets = by_region_pair(&res);
        let total: usize = buckets.values().map(|s| s.paths).sum();
        assert_eq!(total, res.measurements.len());
        let validated: usize = buckets.values().map(|s| s.validated).sum();
        assert_eq!(validated, res.validated);
        for s in buckets.values() {
            assert!(s.mean_loss_rate <= s.max_loss_rate + 1e-12);
            assert!(s.validated <= s.paths);
        }
    }

    #[test]
    fn tables_render_every_row() {
        let res = small_campaign();
        let t = path_table(&res);
        // Header + one line per measurement.
        assert_eq!(t.lines().count(), res.measurements.len() + 1);
        let r = region_table(&res);
        assert!(r.lines().count() >= 2);
        assert!(r.contains("mean loss"));
    }
}
