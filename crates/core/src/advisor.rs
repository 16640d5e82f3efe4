//! The implications engine (Section 5): turn the paper's lessons into a
//! mechanical recommendation for a distributed-application profile.
//!
//! The paper's advice, verbatim in spirit:
//!
//! 1. rate-based and window-based implementations should not mix — if they
//!    must, replace window-based TCP with TCP Pacing;
//! 2. in a tightly controlled environment, standardize on a rate-based
//!    implementation for fairness and predictability;
//! 3. RED can de-burst the loss process but only deploy it when the
//!    scenario is simple enough to tune;
//! 4. better: use a non-loss congestion signal (persistent ECN, or a
//!    delay-based algorithm).

/// What the distributed application looks like.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppProfile {
    /// The application mixes rate-based (TFRC/UDP) and window-based (TCP)
    /// transfers on shared bottlenecks.
    pub mixes_rate_and_window: bool,
    /// Every node's transport implementation can be dictated (a private
    /// cluster rather than the open Internet).
    pub controlled_environment: bool,
    /// Transfers are dominated by short flows (slow-start regime).
    pub short_flows_dominate: bool,
    /// The operator can reconfigure bottleneck routers to RED.
    pub can_deploy_red: bool,
    /// The traffic scenario is simple enough that RED parameters can be
    /// validated (the paper's precondition for recommending RED).
    pub red_scenario_simple: bool,
    /// Routers and hosts both support ECN.
    pub can_use_ecn: bool,
    /// The application needs predictable transfer latency (e.g. parallel
    /// bulk transfers with barriers).
    pub needs_predictable_latency: bool,
}

/// One recommendation with its rationale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recommendation {
    /// Replace window-based TCP with TCP Pacing so rate-based flows are not
    /// starved (Section 5, first lesson; Fig 7).
    ReplaceWindowTcpWithPacing,
    /// Standardize every node on a rate-based implementation (Section 5,
    /// second lesson).
    StandardizeOnRateBased,
    /// Deploy RED at the bottleneck to randomize the loss process.
    DeployRed,
    /// RED would help but the scenario is too complex to tune safely.
    RedTooHardToTune,
    /// Use the persistent-ECN signal instead of loss (\[22\]).
    UsePersistentEcn,
    /// Use a delay-based algorithm instead of loss (\[23\], FAST).
    UseDelayBased,
    /// Expect high variance in parallel-transfer latency; provision for
    /// stragglers (Section 4.2; Fig 8).
    ExpectStragglers,
    /// Short flows keep the loss process bursty regardless of router
    /// tuning; avoid designs that depend on uniform loss (Section 3.3).
    ShortFlowBurstinessUnavoidable,
}

impl Recommendation {
    /// Human-readable rationale, citing the paper's section.
    pub fn rationale(&self) -> &'static str {
        match self {
            Recommendation::ReplaceWindowTcpWithPacing => {
                "Mixed rate-based and window-based flows share bursty losses unevenly; the \
                 window-based flows under-observe loss and take unfair bandwidth (Fig 7, ~17% \
                 deficit). Replacing TCP with TCP Pacing equalizes the sub-RTT send pattern \
                 (Section 5, lesson 1)."
            }
            Recommendation::StandardizeOnRateBased => {
                "In a tightly controlled environment a rate-based implementation makes TCP \
                 fairer and throughput more predictable for concurrent flows (Section 5, \
                 lesson 2)."
            }
            Recommendation::DeployRed => {
                "RED randomizes drops and removes sub-RTT loss clustering; acceptable here \
                 because the traffic scenario is simple enough to validate its parameters \
                 (Section 5)."
            }
            Recommendation::RedTooHardToTune => {
                "RED would de-burst the loss process, but its parameter tuning is difficult; \
                 the paper advises against it unless the scenario is simple and well \
                 understood (Section 5)."
            }
            Recommendation::UsePersistentEcn => {
                "A persistent ECN signal held for one RTT reaches nearly every flow, fixing \
                 both the detection asymmetry and the fairness problem (Section 5, ref [22])."
            }
            Recommendation::UseDelayBased => {
                "Queueing delay is a continuous signal every flow observes, bypassing bursty \
                 loss entirely (Section 5, ref [23])."
            }
            Recommendation::ExpectStragglers => {
                "Only a few flows observe each loss event, so some parallel flows halve their \
                 rate while others do not: completion latency is dominated by unlucky \
                 stragglers and varies widely (Fig 8). Provision timeouts and chunk \
                 rebalancing."
            }
            Recommendation::ShortFlowBurstinessUnavoidable => {
                "Slow start of short flows fills the buffer within a few RTTs and produces \
                 loss bursts that no router tuning removes cheaply (Section 3.3)."
            }
        }
    }
}

/// Apply Section 5's decision rules.
pub fn advise(p: &AppProfile) -> Vec<Recommendation> {
    let mut out = Vec::new();
    if p.mixes_rate_and_window {
        out.push(Recommendation::ReplaceWindowTcpWithPacing);
    }
    if p.controlled_environment {
        out.push(Recommendation::StandardizeOnRateBased);
    }
    if p.can_deploy_red {
        if p.red_scenario_simple {
            out.push(Recommendation::DeployRed);
        } else {
            out.push(Recommendation::RedTooHardToTune);
        }
    }
    if p.can_use_ecn {
        out.push(Recommendation::UsePersistentEcn);
    }
    if p.controlled_environment && !p.can_use_ecn {
        out.push(Recommendation::UseDelayBased);
    }
    if p.needs_predictable_latency && !p.controlled_environment {
        out.push(Recommendation::ExpectStragglers);
    }
    if p.short_flows_dominate {
        out.push(Recommendation::ShortFlowBurstinessUnavoidable);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_protocols_get_pacing_advice() {
        let p = AppProfile {
            mixes_rate_and_window: true,
            ..Default::default()
        };
        let recs = advise(&p);
        assert!(recs.contains(&Recommendation::ReplaceWindowTcpWithPacing));
    }

    #[test]
    fn controlled_cluster_standardizes_and_may_use_delay() {
        let p = AppProfile {
            controlled_environment: true,
            ..Default::default()
        };
        let recs = advise(&p);
        assert!(recs.contains(&Recommendation::StandardizeOnRateBased));
        assert!(recs.contains(&Recommendation::UseDelayBased));
        // With ECN available, the delay recommendation yields to ECN.
        let p2 = AppProfile {
            controlled_environment: true,
            can_use_ecn: true,
            ..Default::default()
        };
        let recs2 = advise(&p2);
        assert!(recs2.contains(&Recommendation::UsePersistentEcn));
        assert!(!recs2.contains(&Recommendation::UseDelayBased));
    }

    #[test]
    fn red_advice_depends_on_scenario_complexity() {
        let simple = AppProfile {
            can_deploy_red: true,
            red_scenario_simple: true,
            ..Default::default()
        };
        assert!(advise(&simple).contains(&Recommendation::DeployRed));
        let complex = AppProfile {
            can_deploy_red: true,
            red_scenario_simple: false,
            ..Default::default()
        };
        assert!(advise(&complex).contains(&Recommendation::RedTooHardToTune));
    }

    #[test]
    fn uncontrolled_latency_sensitive_apps_warned_about_stragglers() {
        let p = AppProfile {
            needs_predictable_latency: true,
            ..Default::default()
        };
        assert!(advise(&p).contains(&Recommendation::ExpectStragglers));
        let controlled = AppProfile {
            needs_predictable_latency: true,
            controlled_environment: true,
            ..Default::default()
        };
        assert!(!advise(&controlled).contains(&Recommendation::ExpectStragglers));
    }

    #[test]
    fn every_recommendation_has_a_rationale() {
        for r in [
            Recommendation::ReplaceWindowTcpWithPacing,
            Recommendation::StandardizeOnRateBased,
            Recommendation::DeployRed,
            Recommendation::RedTooHardToTune,
            Recommendation::UsePersistentEcn,
            Recommendation::UseDelayBased,
            Recommendation::ExpectStragglers,
            Recommendation::ShortFlowBurstinessUnavoidable,
        ] {
            assert!(r.rationale().len() > 40);
        }
    }
}
