//! Cross-crate determinism: the whole stack — topology construction, RNG
//! streams, protocol state machines, trace collection, analysis — must
//! replay bit-identically for a fixed seed, and distinct seeds must explore
//! distinct executions. These are the guarantees that make every figure in
//! EXPERIMENTS.md reproducible by command.
//!
//! The seed/policy matrices and byte-dump helpers live in
//! `lossburst-testkit::determinism`, shared with the per-crate suites.

use lossburst::core::campaign::{ns2_study, LabCampaignConfig};
use lossburst::core::impact::{competition, CompetitionConfig};
use lossburst::emu::testbed::{self, TestbedConfig};
use lossburst::inet::path::PathScenario;
use lossburst::inet::probe::{run_probe_streaming, ProbeConfig};
use lossburst::netsim::fluid::BackgroundMode;
use lossburst::netsim::time::SimDuration;
use lossburst_testkit::determinism::{assert_policies_agree, dumbbell_trace, SEED_MATRIX};

#[test]
fn testbed_runs_replay_bit_identically() {
    let run = || {
        let mut cfg = TestbedConfig::ns2_baseline(6, 200, 1234);
        cfg.duration = SimDuration::from_secs(8);
        let res = testbed::run_streaming(&cfg);
        (
            res.drops,
            res.loss_times.clone(),
            res.utilization.to_bits(),
            res.tcp_progress
                .iter()
                .map(|p| p.bytes_delivered)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn probe_runs_replay_bit_identically() {
    let scenario = PathScenario::derive(2006, 3, 17);
    let probe = ProbeConfig {
        packet_bytes: 48,
        pps: 800.0,
        duration: SimDuration::from_secs(6),
        seed: 99,
        background: BackgroundMode::Packet,
    };
    let a = run_probe_streaming(&scenario, &probe);
    let b = run_probe_streaming(&scenario, &probe);
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.lost, b.lost);
    assert_eq!(a.intervals_rtt, b.intervals_rtt);
}

#[test]
fn figure_pipelines_replay_bit_identically() {
    let study = |seed| {
        let mut cfg = LabCampaignConfig::quick(seed);
        cfg.flow_counts = vec![4];
        cfg.buffer_bdp_fractions = vec![0.25];
        cfg.duration = SimDuration::from_secs(6);
        ns2_study(&cfg)
    };
    let a = study(7);
    let b = study(7);
    assert_eq!(a.intervals_rtt, b.intervals_rtt);
    assert_eq!(a.histogram.bins, b.histogram.bins);

    let comp = |seed| {
        let mut cfg = CompetitionConfig::paper(seed);
        cfg.duration = SimDuration::from_secs(6);
        competition(&cfg)
    };
    let x = comp(5);
    let y = comp(5);
    assert_eq!(x.pacing_series_mbps, y.pacing_series_mbps);
    assert_eq!(x.newreno_series_mbps, y.newreno_series_mbps);
}

#[test]
fn different_seeds_explore_different_executions() {
    let run = |seed| {
        let mut cfg = TestbedConfig::ns2_baseline(6, 200, seed);
        cfg.duration = SimDuration::from_secs(8);
        testbed::run_streaming(&cfg).loss_times
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "seeds 1 and 2 produced identical loss traces");
}

#[test]
fn parallelism_does_not_affect_results() {
    // The pool-fanned campaign must equal a single-threaded run of the same
    // configuration: each path's simulation is seeded by (seed, src, dst)
    // alone, and `par_iter().map().collect()` preserves input order, so
    // thread scheduling must be invisible in the output — the pooled
    // intervals, the validation verdicts, and the path order alike.
    use lossburst::inet::campaign::{run_campaign_streaming, CampaignConfig};
    assert_policies_agree("campaign", |seed: u64| -> Vec<u8> {
        let res = run_campaign_streaming(&CampaignConfig {
            seed,
            n_paths: 4,
            probe_pps: 600.0,
            duration: SimDuration::from_secs(5),
            background: BackgroundMode::Packet,
        });
        let paths: Vec<_> = res.measurements.iter().map(|m| (m.src, m.dst)).collect();
        format!(
            "{:?}\n{} {}\n{paths:?}",
            res.intervals_rtt(),
            res.validated,
            res.rejected
        )
        .into_bytes()
    });
}

#[test]
fn all_execution_policies_agree_byte_identically() {
    // Scheduling is allowed to change *when* each item runs, never *what*
    // it computes: every campaign, ablation, and impact result must be
    // byte-identical under both execution policies — including a
    // deliberately skewed workload where dynamic dealing actually moves
    // items between workers. The policy/seed matrices live in the testkit.
    use lossburst::core::ablation;
    use lossburst::core::impact::{parallel_study, ParallelConfig};
    use lossburst::inet::campaign::{run_campaign_streaming, CampaignConfig};
    use rayon::prelude::*;

    assert_policies_agree("campaign+ablation+impact", |seed: u64| -> Vec<u8> {
        let camp = run_campaign_streaming(&CampaignConfig {
            seed,
            n_paths: 4,
            probe_pps: 400.0,
            duration: SimDuration::from_secs(3),
            background: BackgroundMode::Packet,
        });

        // Skewed fan-out: the first quarter of the paths run 4x longer,
        // so under dynamic dealing the cheap tail migrates to whichever
        // workers finish first.
        let paths: [(usize, usize, f64); 8] = [
            (0, 1, 4.0),
            (2, 3, 4.0),
            (4, 5, 1.0),
            (1, 0, 1.0),
            (3, 2, 1.0),
            (5, 4, 1.0),
            (0, 2, 1.0),
            (2, 0, 1.0),
        ];
        let skewed: Vec<(u64, u64, Vec<u64>)> = paths
            .par_iter()
            .map(|&(src, dst, factor)| {
                let scenario = PathScenario::derive(seed, src, dst);
                let probe = ProbeConfig {
                    packet_bytes: 48,
                    pps: 400.0,
                    duration: SimDuration::from_secs_f64(1.5 * factor),
                    seed: seed ^ ((src as u64) << 32 | dst as u64),
                    background: BackgroundMode::Packet,
                };
                let out = run_probe_streaming(&scenario, &probe);
                (out.sent, out.received, out.lost)
            })
            .collect();

        let abl = ablation::buffer_sweep(SimDuration::from_secs(2), seed);
        let imp = parallel_study(&ParallelConfig {
            total_bytes: 2_000_000,
            flow_counts: vec![2, 4],
            rtts: vec![SimDuration::from_millis(10)],
            bottleneck_bps: 100e6,
            buffer_pkts: 100,
            seeds: vec![seed],
        })
        .expect("valid impact grid");
        format!("{:?}\n{skewed:?}\n{abl:?}\n{imp:?}", camp.intervals_rtt()).into_bytes()
    });
}

#[test]
fn fairness_matrix_is_identical_under_all_execution_policies() {
    // The fairness grid fans one simulation out per cell; cell seeds are
    // derived from grid coordinates, so the rendered CSV must be
    // byte-identical whether cells run serially or work-stealing.
    use lossburst::core::fairness::{fairness_matrix, FairnessConfig};

    assert_policies_agree("fairness matrix", |seed: u64| -> Vec<u8> {
        let mut cfg = FairnessConfig::quick(seed);
        cfg.duration = SimDuration::from_secs(2);
        fairness_matrix(&cfg).to_csv().into_bytes()
    });
}

#[test]
fn calendar_and_heap_schedulers_produce_identical_traces() {
    // The event queue is an optimization, not a semantics change: for a
    // fixed seed the entire trace — every drop, mark, goodput event, queue
    // sample, and completion — is the one a binary-heap scheduler produces.
    // The constants are the FNV-1a of `dumbbell_trace` captured at the last
    // commit that could still run the simulator on the heap (e139ad5),
    // where the heap-backed and calendar-backed runs gave these same three
    // values. The calendar queue of the test's name is gone too: since
    // PR 20 it is the timing wheel of `netsim::event` that has to reproduce
    // them, and the queue-level differential against the heap is
    // `tests/scheduler.rs` here plus `netsim`'s
    // `wheel_agrees_with_the_heap_oracle` and proptests.
    const HEAP_TRACE_FNV1A: [u64; 3] = [
        0xd044_f224_1769_3612,
        0x281c_0a15_b170_f14b,
        0x7446_4b54_7941_eed6,
    ];
    for (seed, pinned) in SEED_MATRIX.into_iter().zip(HEAP_TRACE_FNV1A) {
        let fnv1a = dumbbell_trace(seed)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            });
        assert_eq!(
            fnv1a, pinned,
            "seed {seed}: dumbbell trace {fnv1a:#018x} left the heap-confirmed pin"
        );
    }
}
