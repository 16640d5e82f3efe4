//! Sharded multi-process campaign execution: 10^5–10^6 paths.
//!
//! The supervised campaign runner ([`crate::supervisor`]) scales across the
//! `par_iter` threads, but only within one OS process. This module
//! partitions a campaign's path grid across *processes* and merges the
//! per-shard results back into the single artifact a 1-process run would
//! have produced — byte-identically:
//!
//! * **Slicing.** Shard `i` of `N` owns the *striped* path-index set
//!   `{ j : j mod N == i }` ([`shard_indices`]). Striping balances the
//!   heavy-tailed per-path cost (long-RTT, lossy paths cluster anywhere in
//!   the shuffled order) where contiguous block slicing would straggle.
//! * **Determinism.** Path identity — the directed pair, the scenario, the
//!   run seeds — derives from the path's *global grid coordinate* alone
//!   ([`lossburst_inet::campaign::grid_pairs`] /
//!   [`lossburst_inet::campaign::try_measure_path_grid_streaming`]), never
//!   from which shard runs it or how many shards exist. A path measured under `K = 7`
//!   is bit-identical to the same path under `K = 1`.
//! * **Interchange.** Each shard appends finished paths to its own
//!   [`CampaignCheckpoint`] file, carrying global indices and the *same*
//!   campaign fingerprint as a 1-process run. [`merge_shards_streaming`]
//!   folds the shard files into one canonical checkpoint
//!   ([`CampaignCheckpoint::merge`]: fingerprint-checked, last record per
//!   index wins, output in index order).
//! * **Collection.** [`collect_campaign_streaming`] opens the merged checkpoint
//!   through the ordinary supervised-resume machinery and aggregates the
//!   restored paths in path order — the same proven replay path PR 5's
//!   resume tests pin down, which is what makes a K-shard campaign's final
//!   product byte-identical to the 1-process product (floats included:
//!   aggregation replays per-path intervals in the same order either way).
//!
//! Process orchestration is deliberately thin: [`spawn_shards`] runs one
//! worker per shard via `std::process::Command` (the `shard` bin
//! self-execs with `--shard i/N`), and [`run_campaign_sharded_streaming`]
//! runs the same shard loop in-process for tests and library callers. The
//! lossy-BSP engine shards through the same files: its workers are
//! checkpoint records too ([`crate::bsp::run_bsp_sharded`]).
//!
//! Every verb here measures through the one sink-driven path
//! ([`lossburst_inet::campaign::try_measure_path_grid_streaming`]); the
//! `_streaming` suffixes are historical (see the `lossburst-inet` crate
//! docs).

use crate::error::Error;
use crate::supervisor::{
    campaign_fingerprint, supervise_subset, CampaignCheckpoint, MergeReport, OutcomeCounts,
    PathRecord, SupervisedStreamCampaign, SupervisorConfig,
};
use lossburst_inet::campaign::{
    aggregate_streaming, grid_pairs, try_measure_path_grid_streaming, CampaignConfig,
    StreamPathMeasurement,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::str::FromStr;

/// The campaign fingerprint label. Fixed since the first checkpoints were
/// written, so files from earlier versions of this path still restore.
const STREAM_LABEL: &str = "inet-stream";

/// One shard's coordinate in a `count`-way split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Construct, panicking on an out-of-range index or zero count.
    pub fn new(index: usize, count: usize) -> ShardSpec {
        assert!(count > 0, "shard count must be positive");
        assert!(
            index < count,
            "shard index {index} out of range for {count}"
        );
        ShardSpec { index, count }
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    /// Parse the `--shard i/N` argv form.
    fn from_str(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("expected i/N, got {s:?}"))?;
        let index: usize = i.parse().map_err(|_| format!("bad shard index {i:?}"))?;
        let count: usize = n.parse().map_err(|_| format!("bad shard count {n:?}"))?;
        if count == 0 {
            return Err("shard count must be positive".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count}"));
        }
        Ok(ShardSpec { index, count })
    }
}

/// The striped path-index slice shard `spec` owns: global indices
/// `{ j : j mod count == index }`, strictly increasing — exactly the form
/// `supervise_subset` requires.
pub fn shard_indices(n_paths: usize, spec: ShardSpec) -> Vec<usize> {
    (spec.index..n_paths).step_by(spec.count).collect()
}

/// The checkpoint file shard `spec` appends to under `dir`.
pub fn shard_checkpoint_path(dir: &Path, spec: ShardSpec) -> PathBuf {
    dir.join(format!("shard-{}-of-{}.ckpt", spec.index, spec.count))
}

/// The canonical merged checkpoint under `dir`.
pub fn merged_checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("merged.ckpt")
}

/// What one shard worker did.
#[derive(Clone, Copy, Debug)]
pub struct ShardReport {
    /// Paths this shard owns.
    pub owned: usize,
    /// Outcome totals over the full ledger (paths outside the shard count
    /// as skipped).
    pub counts: OutcomeCounts,
    /// Paths restored from this shard's checkpoint instead of run.
    pub restored: usize,
}

/// Run one shard of the campaign: measure this shard's slice of the grid
/// under supervision, appending to the shard's own checkpoint file in
/// `dir`. Results live in the checkpoint; the in-memory measurements are
/// dropped (the coordinator re-reads them via
/// [`collect_campaign_streaming`]).
pub fn run_shard_streaming(
    cfg: &CampaignConfig,
    sup: &SupervisorConfig,
    spec: ShardSpec,
    dir: &Path,
) -> crate::error::Result<ShardReport> {
    let pairs = grid_pairs(cfg);
    let subset = shard_indices(pairs.len(), spec);
    let fp = campaign_fingerprint(STREAM_LABEL, cfg.seed, pairs.len());
    let mut sup = sup.clone();
    sup.checkpoint = Some(shard_checkpoint_path(dir, spec));
    let run = supervise_subset(pairs.len(), &subset, fp, &sup, |i, limits| {
        let (src, dst) = pairs[i];
        Ok(try_measure_path_grid_streaming(cfg, i, src, dst, limits)?)
    })?;
    Ok(ShardReport {
        owned: subset.len(),
        counts: run.counts(),
        restored: run.restored,
    })
}

/// Merge the `count` shard checkpoint files under `dir` into the canonical
/// [`merged_checkpoint_path`]. Strict: every shard file must exist, carry
/// the campaign's fingerprint, and parse cleanly (see
/// [`CampaignCheckpoint::merge`]).
pub fn merge_shards_streaming(
    cfg: &CampaignConfig,
    dir: &Path,
    count: usize,
) -> std::io::Result<MergeReport> {
    let fp = campaign_fingerprint(STREAM_LABEL, cfg.seed, cfg.n_paths);
    merge_shard_files::<StreamPathMeasurement>(dir, count, fp, cfg.n_paths)
}

/// Merge the `count` shard checkpoints under `dir` of a job with
/// `fingerprint` and `n_paths` records into [`merged_checkpoint_path`]
/// ([`CampaignCheckpoint::merge`]): the campaign's merge and the lossy-BSP
/// one.
pub(crate) fn merge_shard_files<T: PathRecord>(
    dir: &Path,
    count: usize,
    fingerprint: u64,
    n_paths: usize,
) -> std::io::Result<MergeReport> {
    let inputs: Vec<PathBuf> = (0..count)
        .map(|i| shard_checkpoint_path(dir, ShardSpec::new(i, count)))
        .collect();
    CampaignCheckpoint::merge::<T>(&inputs, &merged_checkpoint_path(dir), fingerprint, n_paths)
}

/// The supervised Internet campaign (Fig 4) at any path count: the paths
/// of [`grid_pairs`], each measured inside the fault boundary, while the
/// sweep checkpoints, retries, and degrades gracefully per
/// [`SupervisorConfig`]. With `sup.checkpoint` pointing at a merged shard
/// file, every path restores and this is the sharded campaign's *collect*
/// step. A restored record whose directed pair is not its index's grid
/// pair is an error naming the index, never pooled.
pub fn run_grid_streaming_supervised(
    cfg: &CampaignConfig,
    sup: &SupervisorConfig,
) -> crate::error::Result<SupervisedStreamCampaign> {
    let pairs = grid_pairs(cfg);
    let fp = campaign_fingerprint(STREAM_LABEL, cfg.seed, pairs.len());
    let run = crate::supervisor::supervise(pairs.len(), fp, sup, |i, limits| {
        let (src, dst) = pairs[i];
        Ok(try_measure_path_grid_streaming(cfg, i, src, dst, limits)?)
    })?;
    let mut measurements = Vec::with_capacity(pairs.len());
    for (i, m) in run.results.into_iter().enumerate() {
        let Some(m) = m else { continue };
        if (m.src, m.dst) != pairs[i] {
            return Err(Error::Config(format!(
                "checkpoint record {i} holds path {:?}, not its grid pair {:?}",
                (m.src, m.dst),
                pairs[i]
            )));
        }
        measurements.push(m);
    }
    Ok(SupervisedStreamCampaign {
        result: aggregate_streaming(measurements),
        ledger: run.ledger,
        pairs,
        restored: run.restored,
    })
}

/// Collect a sharded campaign: open the merged checkpoint through the
/// ordinary supervised-resume machinery and aggregate the restored paths
/// in path order. Any path no shard completed (a crashed shard, an
/// interrupted run) is simply re-measured here — the merge/collect pair
/// doubles as the recovery path. A merged record that holds another
/// index's path is an error naming the index.
pub fn collect_campaign_streaming(
    cfg: &CampaignConfig,
    sup: &SupervisorConfig,
    dir: &Path,
) -> crate::error::Result<SupervisedStreamCampaign> {
    let mut sup = sup.clone();
    sup.checkpoint = Some(merged_checkpoint_path(dir));
    run_grid_streaming_supervised(cfg, &sup)
}

/// Run the whole sharded campaign in-process: each shard in turn (worker
/// loop), then merge, then collect. Semantically identical to the
/// multi-process coordinator — the library form testkit pins byte-identity
/// on, and the fallback when spawning processes is unavailable.
pub fn run_campaign_sharded_streaming(
    cfg: &CampaignConfig,
    sup: &SupervisorConfig,
    count: usize,
    dir: &Path,
) -> crate::error::Result<SupervisedStreamCampaign> {
    for i in 0..count {
        run_shard_streaming(cfg, sup, ShardSpec::new(i, count), dir)?;
    }
    merge_shards_streaming(cfg, dir, count)?;
    collect_campaign_streaming(cfg, sup, dir)
}

/// Spawn one OS process per shard and wait for all of them. `make_args`
/// builds each worker's argv (the `shard` bin passes its verb,
/// `--shard i/N` and the job's flags). All workers are spawned before
/// any is waited on, so shards genuinely overlap.
///
/// Failure is fail-fast: the coordinator polls every live worker, and as
/// soon as one exits non-zero the survivors are killed and reaped rather
/// than run their (possibly hours-long) slices to completion. The error
/// names the first shard observed to fail.
pub fn spawn_shards(
    exe: &Path,
    count: usize,
    make_args: impl Fn(ShardSpec) -> Vec<String>,
) -> std::io::Result<()> {
    let mut children = Vec::with_capacity(count);
    for i in 0..count {
        let spec = ShardSpec::new(i, count);
        let child = Command::new(exe).args(make_args(spec)).spawn()?;
        children.push((spec, Some(child)));
    }
    let mut failed: Option<(ShardSpec, std::process::ExitStatus)> = None;
    let mut live = count;
    while live > 0 && failed.is_none() {
        let mut progressed = false;
        for (spec, slot) in children.iter_mut() {
            let Some(child) = slot.as_mut() else { continue };
            if let Some(status) = child.try_wait()? {
                slot.take();
                live -= 1;
                progressed = true;
                if !status.success() {
                    failed = Some((*spec, status));
                    break;
                }
            }
        }
        if live > 0 && failed.is_none() && !progressed {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
    if let Some((spec, status)) = failed {
        // Kill the survivors so a single bad shard doesn't leave the
        // coordinator blocked behind every healthy worker, then reap them
        // to avoid zombies. Kill/wait errors are secondary to the failure
        // being reported.
        for (_, slot) in children.iter_mut() {
            if let Some(child) = slot.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        return Err(std::io::Error::other(format!(
            "shard {spec} worker failed: {status}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!("0/1".parse::<ShardSpec>().unwrap(), ShardSpec::new(0, 1));
        assert_eq!("3/7".parse::<ShardSpec>().unwrap(), ShardSpec::new(3, 7));
        assert_eq!(ShardSpec::new(3, 7).to_string(), "3/7");
        for bad in ["", "3", "7/3", "3/0", "a/b", "1/2/3"] {
            assert!(bad.parse::<ShardSpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn striped_indices_partition_the_grid() {
        // A non-dividing count: every index appears in exactly one shard.
        let n = 23;
        let count = 7;
        let mut seen = vec![0usize; n];
        for i in 0..count {
            let idx = shard_indices(n, ShardSpec::new(i, count));
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
            for j in idx {
                seen[j] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "partition is exact: {seen:?}");
        // The 1-way split owns everything.
        assert_eq!(shard_indices(5, ShardSpec::new(0, 1)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[cfg(unix)]
    fn spawn_shards_fails_fast_when_one_shard_dies() {
        // Shard 0 exits 7 immediately; the other shards would sleep for
        // 30 s. The old spawn-all-then-wait coordinator blocked on every
        // sleeper before reporting; the fail-fast one must kill them and
        // return well under the sleep horizon.
        let started = std::time::Instant::now();
        let err = spawn_shards(Path::new("/bin/sh"), 3, |spec| {
            let cmd = if spec.index == 0 {
                "exit 7"
            } else {
                "sleep 30"
            };
            vec!["-c".to_string(), cmd.to_string()]
        })
        .expect_err("shard 0 exited non-zero");
        let elapsed = started.elapsed();
        assert!(
            err.to_string().contains("shard 0/3"),
            "error names the failing shard: {err}"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "coordinator waited on survivors: {elapsed:?}"
        );
    }

    #[test]
    #[cfg(unix)]
    fn spawn_shards_succeeds_when_all_shards_exit_zero() {
        spawn_shards(Path::new("/bin/sh"), 2, |_| {
            vec!["-c".to_string(), "exit 0".to_string()]
        })
        .expect("all shards clean");
    }

    #[test]
    fn checkpoint_paths_are_distinct_per_shard() {
        let dir = Path::new("/tmp/x");
        let a = shard_checkpoint_path(dir, ShardSpec::new(0, 4));
        let b = shard_checkpoint_path(dir, ShardSpec::new(1, 4));
        assert_ne!(a, b);
        assert!(a.to_string_lossy().ends_with("shard-0-of-4.ckpt"));
        assert_ne!(a, merged_checkpoint_path(dir));
    }
}
