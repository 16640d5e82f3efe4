//! `campaign_650` — the canonical seed → campaign → analysis → checkpoint
//! → report pipeline: 650 directed paths, paired 48 B / 400 B probes at
//! 2000 pps over packet-level background traffic, run as two supervised
//! shards whose checkpoints are merged and collected into the pooled
//! burstiness report.

use super::{Fnv, Job, JobOutput, Scale, TracedOutput};
use crate::span::Recorder;
use crate::stats::percentile;
use lossburst_core::shard::{
    collect_campaign_streaming, merge_shards_streaming, merged_checkpoint_path,
    run_shard_streaming, shard_checkpoint_path, shard_indices, ShardSpec,
};
use lossburst_core::supervisor::{
    campaign_fingerprint, CampaignCheckpoint, PathOutcome, SupervisedStreamCampaign,
    SupervisorConfig,
};
use lossburst_inet::campaign::{
    grid_pairs, try_measure_path_grid_streaming, CampaignConfig, StreamPathMeasurement,
};
use lossburst_netsim::sim::{EventCounts, RunLimits};
use lossburst_netsim::time::SimDuration;
use std::path::{Path, PathBuf};

/// Shards the campaign is split into (run one after the other in this
/// process; each fans its paths out over the pool, where there is one).
const SHARDS: usize = 2;

/// Per-run probe duration at [`Scale::Full`], milliseconds.
const FULL_DURATION_MS: u64 = 8_000;

/// The label `core::shard` fingerprints streaming campaigns under. It is
/// private there; the traced run must write checkpoints the product's
/// merge accepts, and asserts byte-identity with the product's own, so a
/// drift here fails the run instead of passing silently.
const STREAM_LABEL: &str = "inet-stream";

/// The prepared campaign.
pub struct CampaignJob {
    cfg: CampaignConfig,
    sup: SupervisorConfig,
    dir: PathBuf,
    /// Whether the runs are long enough (≈2.5 s) for the background
    /// traffic to overflow a buffer, so that probes must see loss.
    expect_loss: bool,
}

impl CampaignJob {
    /// Derive the campaign from `seed`.
    pub fn prepare(seed: u64, scale: Scale, dir: &Path) -> CampaignJob {
        let mut cfg = CampaignConfig::full(seed);
        cfg.duration = SimDuration::from_millis(FULL_DURATION_MS / scale.divisor());
        CampaignJob {
            cfg,
            sup: SupervisorConfig::default(),
            dir: dir.to_path_buf(),
            expect_loss: scale != Scale::Smoke,
        }
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        // A stale shard file would be resumed from, not re-measured.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create campaign scratch dir");
        dir
    }

    /// Merge + collect + report, shared by both run forms; `time` wraps
    /// each phase, so the traced form can put a span around it.
    fn finish(
        &self,
        dir: &Path,
        out: &mut JobOutput,
        mut time: impl FnMut(&'static str, &mut dyn FnMut()),
    ) {
        let n = self.cfg.n_paths;
        out.attempted = n as u64;
        out.failed = n as u64;

        let mut merged = None;
        time("core.shard.merge_s", &mut || {
            merged = Some(merge_shards_streaming(&self.cfg, dir, SHARDS));
        });
        match merged.expect("merge phase ran") {
            Ok(report) => out.check(report.records == n, || {
                format!("merge covered {} of {n} paths", report.records)
            }),
            Err(e) => return out.problems.push(format!("merge failed: {e}")),
        }

        let mut collected = None;
        time("core.shard.collect_s", &mut || {
            collected = Some(collect_campaign_streaming(&self.cfg, &self.sup, dir));
        });
        let campaign = match collected.expect("collect phase ran") {
            Ok(c) => c,
            Err(e) => return out.problems.push(format!("collect failed: {e}")),
        };
        let report = campaign.result.pooled.report();

        digest(&campaign, out);
        out.check(campaign.restored == n, || {
            format!(
                "collect restored {} of {n} paths (the rest were re-measured)",
                campaign.restored
            )
        });
        // Without loss records the drop, analysis and checkpoint-payload
        // paths run empty and every check below passes trivially; only the
        // pre-flight scale is short enough for that to be right.
        let lost = campaign.result.pooled.n_intervals();
        out.check(!self.expect_loss || lost > 0, || {
            "no probe saw a loss: the campaign's loss paths carried no data".into()
        });
        let finite = [
            report.mean_interval_rtt,
            report.frac_below_001,
            report.frac_below_1,
            report.burstiness_ratio,
            report.index_of_dispersion,
        ]
        .iter()
        .all(|v| v.is_finite());
        out.check(
            finite && report.n_intervals as u64 == campaign.result.pooled.n_intervals(),
            || format!("pooled report is malformed: {report:?}"),
        );
        match std::fs::read(merged_checkpoint_path(dir)) {
            Ok(bytes) => {
                let mut h = Fnv::default();
                h.eat_bytes(&bytes);
                out.artifact = Some(h.0);
                out.counts.push(("checkpoint_bytes", bytes.len() as u64));
            }
            Err(e) => out
                .problems
                .push(format!("merged checkpoint unreadable: {e}")),
        }
    }
}

/// Fold the campaign's simulated results into the output: the failure
/// count from the ledger, the exact event counts, and the fingerprint.
fn digest(campaign: &SupervisedStreamCampaign, out: &mut JobOutput) {
    out.failed = campaign
        .ledger
        .iter()
        .filter(|e| e.outcome != PathOutcome::Ok)
        .count() as u64;
    out.work = campaign.result.measurements.len() as f64;

    let mut h = Fnv::default();
    let (mut events, mut losses) = (0u64, 0u64);
    for m in &campaign.result.measurements {
        for run in [&m.small, &m.large] {
            h.eat(run.events);
            h.eat(run.sent);
            h.eat(run.received);
            h.eat(run.n_lost as u64);
            events += run.events;
            losses += run.n_lost as u64;
        }
        h.eat(m.validated as u64);
    }
    h.eat(campaign.result.pooled.n_intervals());
    out.fingerprint = h.0;
    let counts = campaign.counts();
    out.counts.extend([
        ("events", events),
        ("losses", losses),
        ("paths_ok", counts.ok as u64),
        ("paths_retried", counts.retried as u64),
        ("paths_failed", (counts.failed + counts.skipped) as u64),
        ("validated", campaign.result.validated as u64),
    ]);
}

impl Job for CampaignJob {
    fn run(&self) -> JobOutput {
        let dir = self.fresh_dir("untraced");
        let mut out = JobOutput::default();
        for i in 0..SHARDS {
            if let Err(e) =
                run_shard_streaming(&self.cfg, &self.sup, ShardSpec::new(i, SHARDS), &dir)
            {
                out.attempted = self.cfg.n_paths as u64;
                out.failed = out.attempted;
                out.problems.push(format!("shard {i}/{SHARDS} failed: {e}"));
                return out;
            }
        }
        self.finish(&dir, &mut out, |_, f| f());
        out
    }

    fn run_traced(&self, rec: &mut Recorder) -> TracedOutput {
        let dir = self.fresh_dir("traced");
        let mut out = JobOutput::default();
        let pairs = grid_pairs(&self.cfg);
        let n = pairs.len();
        let fp = campaign_fingerprint(STREAM_LABEL, self.cfg.seed, n);
        // Per-kind event counts exist only on freshly measured paths (the
        // checkpoint does not carry them), so they are summed here.
        let mut kinds = EventCounts::default();

        rec.time("campaign_650", None, |rec| {
            for shard in 0..SHARDS {
                let spec = ShardSpec::new(shard, SHARDS);
                rec.time("core.shard.run", Some(shard as u64), |rec| {
                    let opened = CampaignCheckpoint::open::<StreamPathMeasurement>(
                        &shard_checkpoint_path(&dir, spec),
                        fp,
                        n,
                    );
                    let ck = match opened {
                        Ok((ck, _)) => ck,
                        Err(e) => return out.problems.push(format!("checkpoint open: {e}")),
                    };
                    for i in shard_indices(n, spec) {
                        let (src, dst) = pairs[i];
                        let measured = rec.time("inet.path", Some(i as u64), |_| {
                            try_measure_path_grid_streaming(&self.cfg, i, src, dst, RunLimits::NONE)
                        });
                        match measured {
                            Ok(m) => {
                                for run in [&m.small, &m.large] {
                                    kinds.timers += run.counts.timers;
                                    kinds.arrivals += run.counts.arrivals;
                                    kinds.tx_completes += run.counts.tx_completes;
                                }
                                rec.time("core.ckpt.record_ok", Some(i as u64), |_| {
                                    ck.record_ok(i, 0, &m)
                                })
                            }
                            Err(e) => out.problems.push(format!("path {i}: {e}")),
                        }
                    }
                });
            }
            self.finish(&dir, &mut out, |name, f| rec.time(name, None, |_| f()));
        });

        let count = |name: &str| {
            out.counts
                .iter()
                .find(|c| c.0 == name)
                .map_or(0.0, |c| c.1 as f64)
        };
        let path_ms: Vec<f64> = rec
            .durations_s("inet.path")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let path_total_ns = rec.total_s("inet.path") * 1e9;
        let events = count("events");
        let layer = vec![
            ("netsim.sim.events", events),
            ("netsim.sim.timers", kinds.timers as f64),
            ("netsim.sim.arrivals", kinds.arrivals as f64),
            ("netsim.sim.tx_completes", kinds.tx_completes as f64),
            (
                "netsim.sim.ns_per_event",
                if events > 0.0 {
                    path_total_ns / events
                } else {
                    0.0
                },
            ),
            (
                "inet.campaign.path_ms_p50",
                percentile(&path_ms, 0.5).unwrap_or(0.0),
            ),
            (
                "inet.campaign.path_ms_p99",
                percentile(&path_ms, 0.99).unwrap_or(0.0),
            ),
            (
                "inet.campaign.path_ms_max",
                percentile(&path_ms, 1.0).unwrap_or(0.0),
            ),
            ("core.supervisor.paths_ok", count("paths_ok")),
            ("core.supervisor.paths_retried", count("paths_retried")),
            ("core.supervisor.paths_failed", count("paths_failed")),
            ("core.shard.merge_s", rec.total_s("core.shard.merge_s")),
            ("core.shard.collect_s", rec.total_s("core.shard.collect_s")),
        ];
        TracedOutput { output: out, layer }
    }
}
