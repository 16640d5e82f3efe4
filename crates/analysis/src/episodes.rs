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

use crate::intervals::in_time_order;

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
    let mut out = Vec::new();
    for_each_episode(times, gap, |e| out.push(e));
    out
}

/// Hand `f` each episode of `times`, in the
/// [time order](crate::intervals#time-order): the one pass behind
/// [`episodes`] and [`episode_report`]. A gap from or to a NaN is NaN and
/// exceeds no `gap`, so a NaN joins the episode it sorts into.
fn for_each_episode(times: &[f64], gap: f64, mut f: impl FnMut(Episode)) {
    assert!(gap >= 0.0, "gap must be non-negative");
    let times = in_time_order(times);
    let Some((&first, rest)) = times.split_first() else {
        return;
    };
    let mut ep = Episode {
        start: first,
        end: first,
        size: 1,
    };
    for &t in rest {
        if t - ep.end > gap {
            f(ep);
            ep = Episode {
                start: t,
                end: t,
                size: 0,
            };
        }
        ep.end = t;
        ep.size += 1;
    }
    f(ep);
}

/// Summary of an episode decomposition (all zero for an empty trace).
#[derive(Clone, Copy, Debug, Default)]
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

/// Summarize the episodes of a trace, folding them as they are found.
pub fn episode_report(times: &[f64], gap: f64) -> EpisodeReport {
    let mut rep = EpisodeReport::default();
    let (mut losses, mut in_bursts) = (0usize, 0usize);
    // Both sums start where `Iterator::sum` does and add in episode order,
    // so the means keep the bits of `stats::mean` over per-episode vectors.
    let (mut sizes, mut durations) = (-0.0, -0.0);
    for_each_episode(times, gap, |e| {
        rep.count += 1;
        rep.max_size = rep.max_size.max(e.size);
        sizes += e.size as f64;
        durations += e.duration();
        losses += e.size;
        if e.size >= 2 {
            in_bursts += e.size;
        }
    });
    if rep.count > 0 {
        rep.mean_size = sizes / rep.count as f64;
        rep.mean_duration = durations / rep.count as f64;
        rep.fraction_in_bursts = in_bursts as f64 / losses as f64;
    }
    rep
}

/// `P(next loss within delta | loss)` for each Δ in `deltas`, estimated
/// over consecutive loss pairs in the
/// [time order](crate::intervals#time-order); a gap from or to a NaN is
/// within no Δ. The Poisson baseline at the trace's rate is `1 − e^(−λΔ)`.
pub fn conditional_loss_probability(times: &[f64], deltas: &[f64]) -> Vec<f64> {
    if times.len() < 2 {
        return vec![0.0; deltas.len()];
    }
    let times = in_time_order(times);
    let pairs = (times.len() - 1) as f64;
    deltas
        .iter()
        .map(|&d| times.windows(2).filter(|w| w[1] - w[0] <= d).count() as f64 / pairs)
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
    fn a_nan_timestamp_joins_the_episode_it_sorts_into() {
        let nan = f64::NAN;
        // Length 1 and 2.
        let one = episodes(&[nan], 1.0);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].size, 1);
        assert!(one[0].duration().is_nan());
        assert_eq!(episodes(&[nan, 0.5], 1.0).len(), 1);
        assert_eq!(episodes(&[0.5, nan], 1.0).len(), 1);
        // First, middle, last: +NaN sorts last and joins the last episode,
        // −NaN sorts first and joins the first.
        for times in [[nan, 0.0, 5.0], [0.0, nan, 5.0], [0.0, 5.0, nan]] {
            let eps = episodes(&times, 1.0);
            assert_eq!(eps.iter().map(|e| e.size).collect::<Vec<_>>(), [1, 2]);
            assert_eq!(eps[0].start, 0.0);
            assert!(eps[1].end.is_nan());
            let rep = episode_report(&times, 1.0);
            assert_eq!((rep.count, rep.max_size), (2, 2));
            assert!(rep.mean_duration.is_nan());
            assert!((rep.fraction_in_bursts - 2.0 / 3.0).abs() < 1e-12);
        }
        let eps = episodes(&[5.0, -nan, 0.0], 1.0);
        assert_eq!(eps.iter().map(|e| e.size).collect::<Vec<_>>(), [2, 1]);
        assert!(eps[0].start.is_nan());
    }

    #[test]
    fn a_gap_to_a_nan_is_within_no_delta() {
        let nan = f64::NAN;
        assert_eq!(conditional_loss_probability(&[nan], &[1.0]), [0.0]);
        assert_eq!(conditional_loss_probability(&[nan, 0.5], &[1.0]), [0.0]);
        for times in [[nan, 0.0, 0.5], [0.0, nan, 0.5], [0.0, 0.5, nan]] {
            let p = conditional_loss_probability(&times, &[0.1, 1.0, f64::INFINITY]);
            assert_eq!(p, [0.0, 0.5, 0.5], "{times:?}");
        }
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
