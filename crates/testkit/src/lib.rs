//! # lossburst-testkit
//!
//! Shared test infrastructure for the whole workspace. Every other crate
//! dev-depends on this one (dev-dependency cycles are legal in Cargo), so
//! the machinery below is defined exactly once:
//!
//! * [`golden`] — versioned golden fixtures under `fixtures/`: compact
//!   summaries of reference runs (coarse loss-interval PDFs, per-flow
//!   throughputs, episode counts) with tolerance-aware diffs that name the
//!   drifted bin. Regenerate with `LOSSBURST_BLESS=1`.
//! * `conformance` — the gates that judge one run against another over
//!   plain data: hybrid fluid/packet agreement and Gilbert parameter
//!   recovery. The paper rows' shape claims are `lossburst_core::registry`'s.
//! * `cross_lane` — three-way sim/emu/socket cross-validation: the
//!   same (controller, seed, loss-plan) triple through the netsim
//!   dumbbell, the `emu::Testbed`, and the `lossburst-sock` loopback
//!   lane, gated on statistical agreement of the loss processes.
//! * [`scenarios`] — the seeded quick-scale scenario generator the
//!   conformance and golden suites share, with process-wide memoization.
//! * [`schedule`] — campaign-shaped and adversarial scheduler workloads as
//!   plain op streams, and the `HeapOracle` reference queue, shared by
//!   `netsim`'s queue ≡ oracle differentials and its tuning-quality test.
//! * [`sweep`] — the seeded-sweep driver behind the per-crate property
//!   tests (replaces the copy-pasted `for case in 0..N` loops).
//! * [`determinism`] — the seed and execution-policy matrices and
//!   byte-identity helpers used by `tests/determinism.rs`.

#![warn(missing_docs)]

pub(crate) mod conformance;
pub(crate) mod cross_lane;
pub mod determinism;
pub mod golden;
pub mod scenarios;
pub mod schedule;
pub mod sweep;

/// Commonly used items.
pub mod prelude {
    pub use crate::conformance::{
        check_gilbert_recovery, check_hybrid_agreement, hybrid_max_frac_delta, HybridTolerance,
    };
    pub use crate::cross_lane::{
        check_cross_lane_agreement, check_stepped_lane_equals_netsim, run_emu_lane,
        run_netsim_lane, run_sock_lane, CrossLaneScenario, CrossLaneTolerance,
    };
    pub use crate::determinism::{assert_policies_agree, kill_after, SEED_MATRIX};
    pub use crate::sweep::{sweep, with_rng};
}
