//! Loss-episode statistics — the "more rigorous analysis" of the loss
//! trace the paper's future-work section calls for.
//!
//! Two complementary views:
//!
//! * **Episodes**: consecutive losses closer than a gap threshold are one
//!   episode (the router-side view of a loss burst). Their size and
//!   duration distributions quantify burst structure directly, where the
//!   interval PDF only shows it implicitly.
//! * **Conditional loss clustering** (after Paxson's end-to-end dynamics
//!   methodology): `P(another loss within Δ | a loss occurred)` as a
//!   function of Δ, compared to the unconditional Poisson value
//!   `1 − e^(−λΔ)`.

use crate::stats;

/// One loss episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Episode {
    /// Time of the first loss in the episode.
    pub start: f64,
    /// Time of the last loss.
    pub end: f64,
    /// Number of losses in the episode.
    pub size: usize,
}

impl Episode {
    /// Episode duration (0 for single-loss episodes).
    pub(crate) fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Cluster sorted-or-unsorted loss timestamps into episodes separated by
/// gaps larger than `gap`.
pub fn episodes(times: &[f64], gap: f64) -> Vec<Episode> {
    assert!(gap >= 0.0, "gap must be non-negative");
    if times.is_empty() {
        return Vec::new();
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN timestamp"));
    let mut out = Vec::new();
    let mut start = sorted[0];
    let mut last = sorted[0];
    let mut size = 1usize;
    for &t in &sorted[1..] {
        if t - last > gap {
            out.push(Episode {
                start,
                end: last,
                size,
            });
            start = t;
            size = 0;
        }
        last = t;
        size += 1;
    }
    out.push(Episode {
        start,
        end: last,
        size,
    });
    out
}

/// Summary of an episode decomposition.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeReport {
    /// Number of episodes.
    pub count: usize,
    /// Mean losses per episode.
    pub mean_size: f64,
    /// Largest episode.
    pub max_size: usize,
    /// Mean episode duration (seconds, or the unit of the input).
    pub mean_duration: f64,
    /// Fraction of all losses that belong to episodes of size ≥ 2.
    pub fraction_in_bursts: f64,
}

/// Summarize the episodes of a trace.
pub fn episode_report(times: &[f64], gap: f64) -> EpisodeReport {
    let eps = episodes(times, gap);
    if eps.is_empty() {
        return EpisodeReport {
            count: 0,
            mean_size: 0.0,
            max_size: 0,
            mean_duration: 0.0,
            fraction_in_bursts: 0.0,
        };
    }
    let sizes: Vec<f64> = eps.iter().map(|e| e.size as f64).collect();
    let durs: Vec<f64> = eps.iter().map(|e| e.duration()).collect();
    let total: usize = eps.iter().map(|e| e.size).sum();
    let in_bursts: usize = eps.iter().filter(|e| e.size >= 2).map(|e| e.size).sum();
    EpisodeReport {
        count: eps.len(),
        mean_size: stats::mean(&sizes),
        max_size: eps.iter().map(|e| e.size).max().unwrap_or(0),
        mean_duration: stats::mean(&durs),
        fraction_in_bursts: in_bursts as f64 / total.max(1) as f64,
    }
}

/// `P(next loss within delta | loss)` for each Δ in `deltas`, estimated
/// over consecutive loss pairs. The Poisson baseline at the trace's rate is
/// `1 − e^(−λΔ)`.
pub fn conditional_loss_probability(times: &[f64], deltas: &[f64]) -> Vec<f64> {
    if times.len() < 2 {
        return vec![0.0; deltas.len()];
    }
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN timestamp"));
    let gaps: Vec<f64> = sorted.windows(2).map(|w| w[1] - w[0]).collect();
    deltas
        .iter()
        .map(|&d| gaps.iter().filter(|&&g| g <= d).count() as f64 / gaps.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_cluster_by_gap() {
        let times = [0.0, 0.001, 0.002, 1.0, 1.0005, 5.0];
        let eps = episodes(&times, 0.01);
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[0].size, 3);
        assert_eq!(eps[1].size, 2);
        assert_eq!(eps[2].size, 1);
        assert!((eps[0].duration() - 0.002).abs() < 1e-12);
        assert_eq!(eps[2].duration(), 0.0);
    }

    #[test]
    fn zero_gap_makes_singletons() {
        let times = [0.0, 0.1, 0.2];
        let eps = episodes(&times, 0.0);
        assert_eq!(eps.len(), 3);
        assert!(eps.iter().all(|e| e.size == 1));
    }

    #[test]
    fn report_counts_burst_mass() {
        let times = [0.0, 0.001, 0.002, 1.0, 5.0];
        let rep = episode_report(&times, 0.01);
        assert_eq!(rep.count, 3);
        assert_eq!(rep.max_size, 3);
        // 3 of 5 losses sit in a multi-loss episode.
        assert!((rep.fraction_in_bursts - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let rep = episode_report(&[], 0.1);
        assert_eq!(rep.count, 0);
        assert_eq!(rep.fraction_in_bursts, 0.0);
        assert!(episodes(&[], 0.5).is_empty());
    }

    #[test]
    fn conditional_probability_is_monotone_in_delta() {
        let times: Vec<f64> = (0..200)
            .map(|i| i as f64 * 0.01 + (i % 3) as f64 * 0.0001)
            .collect();
        let deltas = [0.001, 0.005, 0.02, 0.1];
        let p = conditional_loss_probability(&times, &deltas);
        for w in p.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(p.last().copied().unwrap() <= 1.0);
    }

    #[test]
    fn clustered_trace_beats_poisson_at_small_delta() {
        // 10 clusters of 10 losses 0.1 ms apart, clusters 10 s apart.
        let mut times = Vec::new();
        for c in 0..10 {
            for k in 0..10 {
                times.push(c as f64 * 10.0 + k as f64 * 0.0001);
            }
        }
        let p = conditional_loss_probability(&times, &[0.001])[0];
        // 90 of 99 gaps are intra-cluster.
        assert!(p > 0.85, "conditional p {p}");
        // Poisson at the same mean rate (~1 per second) would give ~0.001.
        let lambda = 1.0 / (times.windows(2).map(|w| w[1] - w[0]).sum::<f64>() / 99.0);
        let poisson = 1.0 - (-lambda * 0.001f64).exp();
        assert!(p > 100.0 * poisson);
    }
}
