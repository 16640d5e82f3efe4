//! Supervisor determinism contract: a fault-injected campaign that is
//! interrupted and resumed from its checkpoint must be byte-identical to
//! the same campaign run uninterrupted — for every seed in `SEED_MATRIX`,
//! under both execution policies.

use lossburst_analysis::intervals::normalized_intervals;
use lossburst_core::prelude::*;
use lossburst_core::supervisor::PathRecord;
use lossburst_emu::testbed::{self, TestbedConfig};
use lossburst_inet::campaign::{
    aggregate_streaming, grid_pairs, try_measure_path_grid_streaming, CampaignConfig,
    StreamCampaignResult,
};
use lossburst_netsim::sim::RunLimits;
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny_campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        n_paths: 6,
        probe_pps: 2000.0,
        duration: SimDuration::from_secs(5),
        background: lossburst_netsim::fluid::BackgroundMode::Packet,
    }
}

/// The fault schedule used throughout: one transient panic (recovers on
/// retry), one persistent panic (fails), one transient NaN trace
/// (recovers), one persistent empty trace (stays `Ok` — a loss-free path
/// is a valid measurement).
fn fault_plan() -> FaultPlan {
    FaultPlan::default()
        .once(1, FaultKind::Panic)
        .always(3, FaultKind::Panic)
        .once(2, FaultKind::NanTrace)
        .always(4, FaultKind::EmptyTrace)
}

/// Render a supervised campaign to bytes: the full ledger plus every
/// measurement through its checkpoint encoding (floats as bit patterns),
/// the pooled intervals and the pooled accumulator's report, so equal
/// dumps mean bit-identical results.
fn campaign_bytes(run: &SupervisedStreamCampaign) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(&format!("pairs {:?}\n", run.pairs));
    for e in &run.ledger {
        out.push_str(&format!("{} {:?}\n", e.index, e.outcome));
    }
    out.push_str(&result_dump(&run.result));
    out.into_bytes()
}

fn result_dump(r: &StreamCampaignResult) -> String {
    let mut out = String::new();
    for m in &r.measurements {
        out.push_str(&m.encode());
        out.push('\n');
    }
    out.push_str(&format!(
        "validated {} rejected {} peak {}\n",
        r.validated, r.rejected, r.peak_trace_bytes
    ));
    for iv in r.intervals_rtt() {
        out.push_str(&format!("{:016x} ", iv.to_bits()));
    }
    out.push_str(&format!("\n{:?}", r.pooled.report()));
    out
}

fn scratch_checkpoint(tag: usize) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "lossburst_testkit_sup_{}_{tag}.ckpt",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

/// The tentpole acceptance check. For each seed × policy: run the
/// fault-injected campaign uninterrupted, then again with a checkpoint
/// killed after 3 paths, then resume from the checkpoint — and require the
/// resumed product byte-identical to the uninterrupted one. The bytes are
/// then also compared across execution policies by the harness.
#[test]
fn interrupted_campaign_resumes_byte_identically() {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    assert_policies_agree("supervised inet campaign", |seed| {
        let cfg = tiny_campaign(seed);
        let base = SupervisorConfig {
            max_retries: 1,
            faults: fault_plan(),
            ..Default::default()
        };

        let reference = run_grid_streaming_supervised(&cfg, &base).unwrap();
        let counts = reference.counts();
        assert_eq!(counts.retried, 2, "panic + NaN paths recover on retry");
        assert_eq!(counts.failed, 1, "persistent panic path fails");
        assert_eq!(counts.ok, cfg.n_paths - 3);
        assert_eq!(
            reference.ledger[3].outcome,
            PathOutcome::Failed("panic: injected fault: simulator panic at event 1".into())
        );
        assert!(reference.ledger[4].outcome.is_ok(), "empty trace is valid");
        assert_eq!(
            reference.result.measurements.len(),
            cfg.n_paths - 1,
            "partial results cover the surviving paths"
        );
        assert!(!reference.result.intervals_rtt().is_empty());

        let ck = scratch_checkpoint(RUN.fetch_add(1, Ordering::Relaxed));
        let checkpointed = SupervisorConfig {
            checkpoint: Some(ck.clone()),
            ..base.clone()
        };
        // Killed after three records: the checkpoint keeps just those.
        run_grid_streaming_supervised(&cfg, &checkpointed).unwrap();
        kill_after(&ck, 3).unwrap();

        let resumed = run_grid_streaming_supervised(&cfg, &checkpointed).unwrap();
        assert_eq!(resumed.restored, 3, "the three records restore");
        assert_eq!(
            campaign_bytes(&resumed),
            campaign_bytes(&reference),
            "seed {seed}: resumed campaign diverges from uninterrupted"
        );
        // On the finished checkpoint nothing is measured again, failures
        // included.
        let restored = run_grid_streaming_supervised(&cfg, &checkpointed).unwrap();
        assert_eq!(restored.restored, cfg.n_paths);
        assert_eq!(campaign_bytes(&restored), campaign_bytes(&reference));
        std::fs::remove_file(&ck).ok();
        campaign_bytes(&resumed)
    });
}

/// The campaign written out as a serial loop, independent of the
/// supervisor: every grid path measured in turn, then pooled.
fn serial_campaign(cfg: &CampaignConfig) -> StreamCampaignResult {
    let measurements = grid_pairs(cfg)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            try_measure_path_grid_streaming(cfg, i, src, dst, RunLimits::NONE)
                .expect("an unlimited run has no budget to spend")
        })
        .collect();
    aggregate_streaming(measurements)
}

/// The NS-2 lab sweep written out as a serial loop over `lab_cells`,
/// independent of the product's cell runner: each cell's testbed built
/// here, run to its end, its loss times normalized by its mean RTT.
fn serial_lab(lab: &LabCampaignConfig) -> Vec<u64> {
    let mut pooled = Vec::new();
    for (flows, buffer, seed) in lab_cells(lab) {
        let mut tb = TestbedConfig::ns2_baseline(flows, buffer, seed);
        tb.duration = lab.duration;
        tb.background = lab.background;
        tb.cc = lab.cc;
        let res = testbed::run_streaming(&tb);
        pooled.extend(normalized_intervals(
            &res.loss_times,
            res.mean_rtt.as_secs_f64(),
        ));
    }
    pooled.iter().map(|x| x.to_bits()).collect()
}

fn bits(study: &LossStudy) -> Vec<u64> {
    study.intervals_rtt.iter().map(|x| x.to_bits()).collect()
}

/// A clean supervised campaign (empty fault plan, no budgets) must produce
/// exactly what the serial loop produces — the supervisor layer is
/// observationally free when nothing goes wrong.
#[test]
fn clean_supervised_campaign_matches_the_serial_loop() {
    let cfg = tiny_campaign(1);
    let sup = run_grid_streaming_supervised(&cfg, &SupervisorConfig::default()).unwrap();
    assert_eq!(sup.counts().ok, cfg.n_paths);
    assert_eq!(
        result_dump(&sup.result),
        result_dump(&serial_campaign(&cfg))
    );
}

/// The supervised lab sweep pools exactly the cells that survive, and a
/// fault that kills one cell removes only that cell's intervals.
#[test]
fn lab_sweep_degrades_cell_by_cell() {
    let lab = LabCampaignConfig {
        flow_counts: vec![2, 4],
        buffer_bdp_fractions: vec![0.25],
        reference_rtt: SimDuration::from_millis(100),
        duration: SimDuration::from_secs(5),
        seed: 42,
        background: lossburst_netsim::fluid::BackgroundMode::Packet,
        cc: lossburst_transport::cc::CcAlgorithm::NewReno,
    };
    let clean = ns2_study(&lab, &SupervisorConfig::default()).unwrap();
    assert_eq!(clean.counts().ok, lab_cells(&lab).len());
    assert_eq!(bits(&clean.study), serial_lab(&lab));

    // Panic cell 0's simulator: it must fail alone.
    let starved = ns2_study(
        &lab,
        &SupervisorConfig {
            max_retries: 0,
            faults: FaultPlan::default().always(0, FaultKind::Panic),
            ..Default::default()
        },
    )
    .unwrap();
    let c = starved.counts();
    assert_eq!((c.ok, c.failed), (1, 1));
    assert!(starved.study.intervals_rtt.len() < clean.study.intervals_rtt.len());
}

/// The lab sweep measures the cells a hand-built testbed loop does — the
/// configured congestion controller and background model included.
#[test]
fn supervised_lab_sweep_honours_cc_and_background() {
    use lossburst_netsim::fluid::BackgroundMode;
    use lossburst_transport::cc::CcAlgorithm;
    for (cc, background) in [
        (CcAlgorithm::Cubic, BackgroundMode::Packet),
        (CcAlgorithm::NewReno, BackgroundMode::Fluid),
    ] {
        let lab = LabCampaignConfig {
            flow_counts: vec![4],
            buffer_bdp_fractions: vec![0.25],
            reference_rtt: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(5),
            seed: 42,
            background,
            cc,
        };
        let oracle = serial_lab(&lab);
        let supervised = ns2_study(&lab, &SupervisorConfig::default()).unwrap();
        assert!(!oracle.is_empty(), "want a lossy cell");
        assert_eq!(
            bits(&supervised.study),
            oracle,
            "the lab sweep diverges under {cc:?} / {background:?}"
        );
    }
}
