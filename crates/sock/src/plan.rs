//! Deterministic loss plans shared by all three lanes.
//!
//! A [`LossPlan`] is a per-arrival-index sequence of drop decisions,
//! generated once from a seeded Gilbert two-state process. The *index
//! space* is "forward data packets arriving at the bottleneck", which is
//! identical across lanes even though arrival *times* differ: the netsim
//! and emu lanes replay the plan through a scripted [`QueueDisc`]
//! ([`LossPlan::to_drop_script`]), and the socket lane's impaired path
//! consults `LossPlan::decide` for each forward packet it is offered.
//! Same (seed, parameters) → same decisions in every lane, which is what
//! makes the cross-lane conformance gate meaningful.
//!
//! [`QueueDisc`]: lossburst_netsim::queue::QueueDisc

use lossburst_analysis::gilbert::{self, GilbertParams};
use lossburst_netsim::queue::DropScript;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A replayable per-arrival-index drop schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct LossPlan {
    /// Seed the plan was generated from (recorded for provenance).
    pub seed: u64,
    /// Gilbert parameters the plan was generated from.
    pub params: GilbertParams,
    /// `decisions[i]` is true when the i-th forward data arrival drops.
    pub decisions: Vec<bool>,
}

impl LossPlan {
    /// Generate a plan of `n` decisions from a Gilbert process with
    /// parameters `params`, seeded by `seed`. The same arguments always
    /// produce the same plan.
    pub fn gilbert(seed: u64, params: GilbertParams, n: usize) -> LossPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let decisions = gilbert::generate(params, n, || rng.random::<f64>());
        LossPlan {
            seed,
            params,
            decisions,
        }
    }

    /// Number of decisions in the plan.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the plan holds no decisions at all.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The verdict for the `index`-th forward arrival. Arrivals beyond the
    /// plan's horizon pass untouched.
    pub(crate) fn decide(&self, index: u64) -> bool {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.decisions.get(i).copied())
            .unwrap_or(false)
    }

    /// The plan as the [`DropScript`] the simulated lanes replay at their
    /// bottleneck queue.
    pub fn to_drop_script(&self) -> DropScript {
        DropScript::at(
            self.decisions
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(i, _)| i as u64),
        )
    }

    /// Serialize the first `horizon` decisions as a byte ledger: one byte
    /// per arrival, `b'1'` for drop, `b'0'` for pass. Two lanes (or two
    /// runs of one lane) that observed at least `horizon` forward arrivals
    /// under the same plan must produce byte-identical ledgers.
    pub fn ledger_prefix(&self, horizon: usize) -> Vec<u8> {
        self.decisions
            .iter()
            .take(horizon)
            .map(|&d| if d { b'1' } else { b'0' })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GilbertParams {
        GilbertParams { p: 0.015, r: 0.4 }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = LossPlan::gilbert(2006, params(), 5000);
        let b = LossPlan::gilbert(2006, params(), 5000);
        assert_eq!(a, b);
        assert_eq!(a.ledger_prefix(5000), b.ledger_prefix(5000));
    }

    #[test]
    fn different_seeds_differ() {
        let a = LossPlan::gilbert(1, params(), 5000);
        let b = LossPlan::gilbert(2, params(), 5000);
        assert_ne!(a.decisions, b.decisions);
    }

    #[test]
    fn stationary_loss_rate_is_respected() {
        let plan = LossPlan::gilbert(42, params(), 200_000);
        let drops = plan.decisions.iter().filter(|&&d| d).count();
        let rate = drops as f64 / plan.len() as f64;
        let expect = params().loss_rate();
        assert!(
            (rate - expect).abs() < 0.01,
            "empirical {rate:.4} vs stationary {expect:.4}"
        );
    }

    #[test]
    fn drop_script_matches_decisions() {
        use lossburst_netsim::packet::{FlowId, NodeId, Packet};
        use lossburst_netsim::queue::{QueueDisc, Verdict};
        use lossburst_netsim::time::SimTime;
        let plan = LossPlan::gilbert(7, params(), 300);
        let mut q = QueueDisc::scripted(1000, plan.to_drop_script());
        let mut rng = SmallRng::seed_from_u64(0);
        for (i, &drop) in plan.decisions.iter().enumerate() {
            let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, i as u64);
            let verdict = q.decide(SimTime::ZERO, &pkt, 0, 1000.0, &mut rng);
            assert_eq!(
                verdict == Verdict::Drop,
                drop,
                "arrival {i}: script and plan disagree"
            );
        }
    }

    #[test]
    fn decisions_beyond_horizon_pass() {
        let plan = LossPlan::gilbert(7, params(), 10);
        assert!(!plan.decide(10));
        assert!(!plan.decide(u64::MAX));
    }
}
