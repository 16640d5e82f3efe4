//! Reusable byte-identity helpers: the seed and execution-policy matrices
//! that the determinism contract is checked over, plus the trace-dump
//! encoding shared by the root `tests/determinism.rs` and the per-crate
//! suites.

use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::{build_dumbbell, DumbbellConfig, RttAssignment};
use lossburst_netsim::trace::{TraceConfig, TraceSet};
use lossburst_transport::config::TcpConfig;
use lossburst_transport::sender::Sender;
use rayon::{execution_policy, set_execution_policy, ExecutionPolicy};
use std::path::Path;
use std::sync::Mutex;

/// The canonical replay seeds: a small seed, the paper's year, and the
/// everything seed. Every byte-identity matrix iterates these.
pub const SEED_MATRIX: [u64; 3] = [1, 2006, 42];

/// Both campaign execution policies, the serial oracle first; results must
/// not depend on the choice.
pub(crate) const POLICY_MATRIX: [ExecutionPolicy; 2] =
    [ExecutionPolicy::Serial, ExecutionPolicy::WorkStealing];

/// Render every record stream to bytes. Records hold integers, ids, and
/// f64s; Rust's shortest-round-trip Debug float formatting is injective,
/// so equal dumps mean bit-identical traces.
///
/// The dump keeps its five-line format, which pinned hashes were taken
/// over: the last two lines held queue samples and flow completions,
/// streams the trace no longer has. In every pinned workload they read
/// `[]` (no link was monitored, and no flow finished), so they are
/// written as that literal.
pub(crate) fn trace_bytes(t: &TraceSet) -> Vec<u8> {
    format!("{:?}\n{:?}\n{:?}\n[]\n[]", t.losses, t.marks, t.goodput).into_bytes()
}

/// The reference workload for event-loop byte-identity: a 6-pair
/// paper-baseline dumbbell run for 10 simulated seconds with full tracing,
/// dumped via `trace_bytes`.
pub fn dumbbell_trace(seed: u64) -> Vec<u8> {
    let mut b = SimBuilder::new(seed).trace(TraceConfig::all());
    let cfg = DumbbellConfig::paper_baseline(
        6,
        200,
        RttAssignment::Uniform(SimDuration::from_millis(10), SimDuration::from_millis(120)),
    );
    let db = build_dumbbell(&mut b, &cfg);
    for i in 0..6 {
        let (s, r) = (db.senders[i], db.receivers[i]);
        b.flow(
            SimTime::ZERO + SimDuration::from_millis(11 * i as u64),
            Box::new(Sender::newreno(s, r, TcpConfig::default())),
        );
    }
    let mut sim = b.build();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    trace_bytes(&sim.trace)
}

/// Assert a workload is byte-identical under both execution policies, for
/// every seed in [`SEED_MATRIX`]. The policy is process-global and the test
/// harness runs callers on concurrent threads, so the whole comparison
/// holds a lock, and each leg checks that the policy it set is the policy
/// it finished under. The default (work-stealing) is restored afterwards
/// even if the workload panics.
pub fn assert_policies_agree(label: &str, workload: impl Fn(u64) -> Vec<u8>) {
    static POLICY_LOCK: Mutex<()> = Mutex::new(());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_execution_policy(ExecutionPolicy::WorkStealing);
        }
    }
    // A caller that failed its comparison poisons the lock; the policy it
    // guards was still restored, so later callers go ahead.
    let _serialized = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore;
    for seed in SEED_MATRIX {
        let [serial, stealing] = POLICY_MATRIX.map(|policy| {
            set_execution_policy(policy);
            let dump = workload(seed);
            assert_eq!(
                execution_policy(),
                policy,
                "{label}: seed {seed}: policy changed under the {policy:?} leg"
            );
            dump
        });
        assert!(
            serial == stealing,
            "{label}: seed {seed}: work-stealing diverges from serial"
        );
        assert!(!serial.is_empty(), "{label}: seed {seed}: empty dump");
    }
}

/// Leave the finished supervisor checkpoint at `path` as a kill -9 would
/// have left it after `k` records: the header line and the first `k`
/// record lines. The resume drills restore exactly `k` paths from it.
pub fn kill_after(path: &Path, k: usize) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let kept: String = text.lines().take(1 + k).map(|l| format!("{l}\n")).collect();
    std::fs::write(path, kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumbbell_trace_replays_bit_identically() {
        let a = dumbbell_trace(42);
        let b = dumbbell_trace(42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn policy_harness_runs_and_restores_the_default() {
        assert_policies_agree("noop", |seed| {
            use rayon::prelude::*;
            let xs: Vec<u64> = (0..16u64).collect();
            let doubled: Vec<u64> = xs.par_iter().map(|x| x * 2 + seed).collect();
            format!("{doubled:?}").into_bytes()
        });
        assert_eq!(rayon::execution_policy(), ExecutionPolicy::WorkStealing);
    }
}
