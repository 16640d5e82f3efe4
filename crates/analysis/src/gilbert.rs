//! Gilbert–Elliott two-state loss model fitting.
//!
//! The paper's future work promises "more rigorous analysis … with more
//! rigorous model". The Gilbert model is the standard next step beyond a
//! PDF: a two-state Markov chain (Good = deliver, Bad = drop) whose
//! parameters are identifiable directly from a per-packet loss indicator
//! sequence:
//!
//! * `p` = P(Good → Bad) — how often loss bursts begin;
//! * `r` = P(Bad → Good) — how quickly they end (mean burst = 1/r packets).
//!
//! Stationary loss rate is `p / (p + r)`; a memoryless (Bernoulli) loss
//! process has `r = 1 − p`, so `burstiness = (1 − p) / r` measures how much
//! longer bursts last than chance (1 for memoryless, ≫ 1 for bursty).

/// Fitted Gilbert–Elliott parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertParams {
    /// P(Good → Bad).
    pub p: f64,
    /// P(Bad → Good).
    pub r: f64,
}

impl GilbertParams {
    /// Stationary packet loss rate `p / (p + r)`.
    pub fn loss_rate(&self) -> f64 {
        if self.p + self.r <= 0.0 {
            0.0
        } else {
            self.p / (self.p + self.r)
        }
    }
}

/// Maximum-likelihood fit from a per-packet loss sequence
/// (`true` = lost). Transition probabilities are the empirical transition
/// frequencies of the observed chain. Returns `None` if the sequence never
/// visits one of the states (parameters unidentifiable).
pub fn fit(losses: &[bool]) -> Option<GilbertParams> {
    if losses.len() < 2 {
        return None;
    }
    let mut good_to_bad = 0u64;
    let mut good_stay = 0u64;
    let mut bad_to_good = 0u64;
    let mut bad_stay = 0u64;
    for w in losses.windows(2) {
        match (w[0], w[1]) {
            (false, true) => good_to_bad += 1,
            (false, false) => good_stay += 1,
            (true, false) => bad_to_good += 1,
            (true, true) => bad_stay += 1,
        }
    }
    let from_good = good_to_bad + good_stay;
    let from_bad = bad_to_good + bad_stay;
    if from_good == 0 || from_bad == 0 {
        return None;
    }
    Some(GilbertParams {
        p: good_to_bad as f64 / from_good as f64,
        r: bad_to_good as f64 / from_bad as f64,
    })
}

/// Generate a synthetic loss sequence from the model (for tests and for
/// building calibrated synthetic traces).
pub fn generate(params: GilbertParams, n: usize, mut next_u01: impl FnMut() -> f64) -> Vec<bool> {
    let mut out = Vec::with_capacity(n);
    let mut bad = next_u01() < params.loss_rate();
    for _ in 0..n {
        out.push(bad);
        let u = next_u01();
        bad = if bad { u >= params.r } else { u < params.p };
    }
    out
}

/// Streaming form of [`generate`]: walks the same chain without
/// materialising the whole sequence, through two coherent verbs.
///
/// * [`Chain::step`] emits one packet's loss indicator per u01 draw. Given
///   the same u01 stream, `Chain::new` + repeated `step` reproduces
///   `generate` bit-for-bit; the per-datagram consumers (the socket shim,
///   synthetic trace generation) use it.
/// * [`Chain::sojourn`] emits a whole run of equal indicators per draw:
///   how many packets the chain stays in its current state. A two-state
///   Markov chain's sojourns are geometric, so this is the same process in
///   distribution at one draw per *run* instead of one per *packet* — the
///   lossy-BSP engine, whose 10^4-worker supersteps would otherwise step
///   billions of mostly-Good packets, walks sojourns.
///
/// The verbs may be interleaved on one chain: both leave `is_bad` naming
/// the state of the next packet not yet emitted.
pub struct Chain {
    params: GilbertParams,
    bad: bool,
}

impl Chain {
    /// Start the chain from its stationary distribution, consuming one
    /// u01 draw exactly like `generate` does.
    pub fn new(params: GilbertParams, mut next_u01: impl FnMut() -> f64) -> Chain {
        let bad = next_u01() < params.loss_rate();
        Chain { params, bad }
    }

    /// The loss indicator of the next packet: what `step` would emit, and
    /// the state whose run `sojourn` would measure.
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Emit the current packet's loss indicator and advance the state,
    /// consuming one u01 draw.
    pub fn step(&mut self, mut next_u01: impl FnMut() -> f64) -> bool {
        let lost = self.bad;
        let u = next_u01();
        self.bad = if self.bad {
            u >= self.params.r
        } else {
            u < self.params.p
        };
        lost
    }

    /// Emit the length (≥ 1) of the current run — the next packet and every
    /// following packet that shares its state — and move to the other
    /// state, consuming one u01 draw.
    ///
    /// The chain leaves its state with probability `q` per packet (`p` in
    /// Good, `r` in Bad), so the run length is geometric on `{1, 2, …}`:
    /// `P(len > k) = (1 − q)^k`, drawn by inverse CDF as
    /// `1 + ⌊ln(1 − u) / ln(1 − q)⌋`. `q ≥ 1` always gives 1; `q ≤ 0` (an
    /// absorbing state) and lengths past `u64::MAX` saturate.
    pub fn sojourn(&mut self, mut next_u01: impl FnMut() -> f64) -> u64 {
        let q = if self.bad {
            self.params.r
        } else {
            self.params.p
        };
        let u = next_u01();
        self.bad = !self.bad;
        if q >= 1.0 {
            return 1;
        }
        if q <= 0.0 {
            return u64::MAX;
        }
        // Both logarithms are ≤ 0, so the ratio is in [0, +inf]; the cast
        // saturates (+inf → MAX) and maps a NaN from a u outside [0, 1] to 0.
        let extra = ((1.0 - u).ln() / (-q).ln_1p()) as u64;
        extra.saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for test reproducibility without rand.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn derived_quantities() {
        let g = GilbertParams { p: 0.01, r: 0.25 };
        assert!((g.loss_rate() - 0.01 / 0.26).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_generator_parameters() {
        let truth = GilbertParams { p: 0.02, r: 0.3 };
        let seq = generate(truth, 200_000, rng(42));
        let fit = fit(&seq).expect("identifiable");
        assert!((fit.p - truth.p).abs() < 0.005, "p {}", fit.p);
        assert!((fit.r - truth.r).abs() < 0.03, "r {}", fit.r);
    }

    #[test]
    fn memoryless_sequence_has_burstiness_near_one() {
        // Bernoulli(0.1) losses: r should be ≈ 0.9, (1 − p) / r ≈ 1.
        let mut u = rng(7);
        let seq: Vec<bool> = (0..200_000).map(|_| u() < 0.1).collect();
        let g = fit(&seq).unwrap();
        let b = (1.0 - g.p) / g.r;
        assert!((b - 1.0).abs() < 0.1, "b {b}");
    }

    #[test]
    fn unidentifiable_sequences_return_none() {
        assert!(fit(&[]).is_none());
        assert!(fit(&[true]).is_none());
        assert!(fit(&[false, false, false]).is_none(), "never lost");
        assert!(fit(&[true, true]).is_none(), "never delivered");
    }

    #[test]
    fn chain_matches_generate_bit_for_bit() {
        let params = GilbertParams { p: 0.03, r: 0.2 };
        let batch = generate(params, 10_000, rng(2006));
        let mut u = rng(2006);
        let mut chain = Chain::new(params, &mut u);
        let streamed: Vec<bool> = (0..10_000).map(|_| chain.step(&mut u)).collect();
        assert_eq!(batch, streamed);
    }

    /// Pearson chi-square of run lengths against the geometric law with
    /// exit probability `q`: bins 1..=8 plus the tail, 8 degrees of freedom.
    fn geometric_chi_square(lens: &[u64], q: f64) -> f64 {
        let mut observed = [0u64; 9];
        for &l in lens {
            observed[(l.min(9) - 1) as usize] += 1;
        }
        let n = lens.len() as f64;
        let mut chi2 = 0.0;
        for (k, &o) in observed.iter().enumerate() {
            let stay = (1.0 - q).powi(k as i32);
            let expected = n * if k < 8 { stay * q } else { stay };
            chi2 += (o as f64 - expected).powi(2) / expected;
        }
        chi2
    }

    /// `n` sojourns of the state named by `bad`, drawn by flipping a fresh
    /// chain back into that state before every draw.
    fn sojourns_of(params: GilbertParams, bad: bool, n: usize, seed: u64) -> Vec<u64> {
        let mut u = rng(seed);
        let mut chain = Chain::new(params, &mut u);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let was_bad = chain.is_bad();
            let len = chain.sojourn(&mut u);
            if was_bad == bad {
                out.push(len);
            }
        }
        out
    }

    #[test]
    fn sojourns_are_geometric_and_memoryless() {
        // Chi-square critical value, 8 degrees of freedom, alpha = 0.001.
        const CRIT: f64 = 26.12;
        let params = GilbertParams { p: 0.2, r: 0.35 };
        for (bad, q) in [(false, params.p), (true, params.r)] {
            let lens = sojourns_of(params, bad, 100_000, 2006);
            let mean = lens.iter().sum::<u64>() as f64 / lens.len() as f64;
            assert!(
                (mean * q - 1.0).abs() < 0.02,
                "mean {mean} vs 1/q {}",
                1.0 / q
            );
            let chi2 = geometric_chi_square(&lens, q);
            assert!(chi2 < CRIT, "bad={bad}: chi2 {chi2}");
            // Memoryless: what remains of the runs that outlive 3 packets
            // follows the same law.
            let rest: Vec<u64> = lens.iter().filter(|&&l| l > 3).map(|l| l - 3).collect();
            assert!(rest.len() > 10_000);
            let chi2 = geometric_chi_square(&rest, q);
            assert!(chi2 < CRIT, "bad={bad}: residual chi2 {chi2}");
        }
    }

    #[test]
    fn fit_recovers_parameters_from_expanded_sojourns() {
        // The same tolerances as `fit_recovers_generator_parameters`: a
        // sequence built run by run is the chain `generate` builds packet
        // by packet.
        let truth = GilbertParams { p: 0.02, r: 0.3 };
        let mut u = rng(42);
        let mut chain = Chain::new(truth, &mut u);
        let mut seq = Vec::with_capacity(200_000);
        while seq.len() < 200_000 {
            let lost = chain.is_bad();
            let len = chain.sojourn(&mut u);
            seq.extend(std::iter::repeat_n(lost, len as usize));
        }
        let fit = fit(&seq).expect("identifiable");
        assert!((fit.p - truth.p).abs() < 0.005, "p {}", fit.p);
        assert!((fit.r - truth.r).abs() < 0.03, "r {}", fit.r);
    }

    #[test]
    fn sojourn_edge_cases_saturate_and_never_return_zero() {
        let bad_first = |params| Chain { params, bad: true };
        let good_first = |params| Chain { params, bad: false };
        // Every draw the u01 contract allows, its closed upper end, and
        // values outside it.
        let draws = [
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            -0.5,
            1.5,
            f64::NAN,
        ];
        for u in draws {
            // r = 1: a loss run is always exactly one packet.
            let mut c = bad_first(GilbertParams { p: 0.1, r: 1.0 });
            assert_eq!(c.sojourn(|| u), 1, "u = {u}");
            assert!(!c.is_bad());
            // p = 0: Good is absorbing, the run never ends.
            let mut c = good_first(GilbertParams { p: 0.0, r: 0.5 });
            assert_eq!(c.sojourn(|| u), u64::MAX, "u = {u}");
            // A vanishing exit probability overflows u64: saturate.
            let mut c = good_first(GilbertParams { p: 1e-300, r: 0.5 });
            let len = c.sojourn(|| u);
            assert!(len >= 1, "u = {u}: {len}");
            if u == 0.5 {
                assert_eq!(len, u64::MAX);
            }
            // Ordinary parameters: at least one packet, whatever the draw.
            let mut c = good_first(GilbertParams { p: 0.01, r: 0.25 });
            assert!(c.sojourn(|| u) >= 1, "u = {u}");
        }
        // u = 0 is the shortest run, u -> 1 (ln 0) the longest.
        let mut c = good_first(GilbertParams { p: 0.01, r: 0.25 });
        assert_eq!(c.sojourn(|| 0.0), 1);
        let mut c = good_first(GilbertParams { p: 0.01, r: 0.25 });
        assert_eq!(c.sojourn(|| 1.0), u64::MAX);
    }

    #[test]
    fn step_and_sojourn_interleave_on_one_chain() {
        let params = GilbertParams { p: 0.1, r: 0.3 };
        let mut u = rng(7);
        let mut chain = Chain::new(params, &mut u);
        for i in 0..10_000 {
            let before = chain.is_bad();
            if i % 3 == 0 {
                // A sojourn ends the current run: the state always flips.
                assert!(chain.sojourn(&mut u) >= 1);
                assert_eq!(chain.is_bad(), !before);
            } else {
                // A step emits the state it found, whichever verb left it.
                assert_eq!(chain.step(&mut u), before);
            }
        }
    }

    #[test]
    fn fit_counts_simple_chain_exactly() {
        // G G B B G: transitions GG, GB, BB, BG → p = 1/2, r = 1/2.
        let seq = [false, false, true, true, false];
        let g = fit(&seq).unwrap();
        assert_eq!(g.p, 0.5);
        assert_eq!(g.r, 0.5);
    }
}
