//! Sharded-campaign determinism contract: a campaign split across K shard
//! processes, checkpointed per shard, merged, and collected must be
//! byte-identical to the same campaign run in one process — for K
//! including counts that do not divide the path count, for every seed in
//! `SEED_MATRIX`, and across a mid-shard interruption + resume. Plus the
//! checkpoint-merge edge cases and a seeded property sweep over the
//! streaming-accumulator merges the shard layer leans on.

use lossburst_analysis::streaming::LossStreamStats;
use lossburst_core::prelude::*;
use lossburst_core::shard::{merged_checkpoint_path, shard_checkpoint_path};
use lossburst_core::supervisor::PathRecord;
use lossburst_inet::campaign::{run_campaign_streaming, CampaignConfig, StreamCampaignResult};
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::prelude::*;
use std::path::PathBuf;

/// The micro-scale per-path recipe the 10^5-path benches use, at a path
/// count chosen so K ∈ {2, 7} does *not* divide it (the striping must
/// handle ragged tails).
fn grid_campaign(seed: u64, n_paths: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        n_paths,
        probe_pps: 50.0,
        duration: SimDuration::from_secs(2),
        background: BackgroundMode::Fluid,
    }
}

/// Render a supervised campaign to bytes (ledger + checkpoint-encoded
/// measurements + pooled intervals as bit patterns): equal dumps mean
/// bit-identical campaign products.
fn campaign_bytes(run: &SupervisedStreamCampaign) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(&format!("pairs {:?}\n", run.pairs));
    for e in &run.ledger {
        out.push_str(&format!("{} {:?}\n", e.index, e.outcome));
    }
    out.push_str(&result_dump(&run.result));
    out.into_bytes()
}

/// The measurement half of [`campaign_bytes`]: every path's checkpoint
/// line, the verdict totals, and the pooled intervals as bit patterns.
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
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "lossburst_testkit_shard_{}_{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).expect("scratch dir");
    p
}

/// The tentpole acceptance check: for every seed, a K-shard
/// run-merge-collect (K = 2, 4, 7 — 7 does not divide the 10-path grid)
/// is byte-identical to the 1-process supervised run.
#[test]
fn sharded_campaign_is_byte_identical_to_one_process() {
    for seed in SEED_MATRIX {
        let cfg = grid_campaign(seed, 10);
        let sup = SupervisorConfig::default();
        let reference = run_grid_streaming_supervised(&cfg, &sup).unwrap();
        assert_eq!(reference.counts().ok, cfg.n_paths);
        let want = campaign_bytes(&reference);
        for shards in [2usize, 4, 7] {
            let dir = scratch_dir(&format!("ident_{seed}_{shards}"));
            let sharded = run_campaign_sharded_streaming(&cfg, &sup, shards, &dir).unwrap();
            assert_eq!(
                sharded.restored, cfg.n_paths,
                "collect must restore every path from the merged checkpoint"
            );
            assert_eq!(
                campaign_bytes(&sharded),
                want,
                "seed {seed}: {shards}-shard campaign diverges from 1-process"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The grid runner is the classic campaign at classic scale: for n ≤ 650
/// the supervised grid measures the very paths `run_campaign_streaming`
/// does, in the same order, to the same bits.
#[test]
fn grid_campaign_matches_classic_below_650() {
    let cfg = grid_campaign(2006, 8);
    let grid = run_grid_streaming_supervised(&cfg, &SupervisorConfig::default()).unwrap();
    let classic = run_campaign_streaming(&cfg);
    assert_eq!(grid.pairs, lossburst_inet::campaign::campaign_pairs(&cfg));
    assert_eq!(result_dump(&grid.result), result_dump(&classic));
}

/// A shard killed mid-slice and resumed (same shard file) completes its
/// slice, and the merged campaign is still byte-identical to 1-process —
/// the interruption drill of PR 5, now across the shard boundary.
#[test]
fn interrupted_shard_resumes_and_merges_identically() {
    let seed = 2006;
    let cfg = grid_campaign(seed, 10);
    let sup = SupervisorConfig::default();
    let reference = run_grid_streaming_supervised(&cfg, &sup).unwrap();

    let shards = 4;
    let dir = scratch_dir("resume");
    for i in 0..shards {
        let spec = ShardSpec::new(i, shards);
        if i == 1 {
            // Kill shard 1 after a single path...
            let interrupted = SupervisorConfig {
                stop_after: Some(1),
                ..sup.clone()
            };
            let rep = run_shard_streaming(&cfg, &interrupted, spec, &dir).unwrap();
            assert_eq!(rep.counts.ok, 1);
            assert!(rep.counts.skipped > 0, "interruption must leave work");
            // ...then resume it: the finished path restores from the shard
            // checkpoint, the rest of the slice runs now.
            let resumed = run_shard_streaming(&cfg, &sup, spec, &dir).unwrap();
            assert_eq!(resumed.restored, 1, "one path restores after the kill");
            assert_eq!(resumed.counts.ok, rep.owned);
        } else {
            run_shard_streaming(&cfg, &sup, spec, &dir).unwrap();
        }
    }
    let merge = merge_shards_streaming(&cfg, &dir, shards).unwrap();
    assert_eq!(merge.records, cfg.n_paths);
    let collected = collect_campaign_streaming(&cfg, &sup, &dir).unwrap();
    assert_eq!(
        campaign_bytes(&collected),
        campaign_bytes(&reference),
        "interrupted+resumed shard diverges from 1-process"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- checkpoint-merge edge cases ------------------------------------------

fn rec(tag: u64) -> LabCellRecord {
    LabCellRecord {
        intervals_rtt: vec![tag as f64 * 0.25],
        trace_bytes: tag as usize,
    }
}

/// Write a shard-style checkpoint holding `records` as `(index, record)`.
fn write_ckpt(path: &std::path::Path, fp: u64, n: usize, records: &[(usize, LabCellRecord)]) {
    let (ck, _) = CampaignCheckpoint::open::<LabCellRecord>(path, fp, n).unwrap();
    for (i, r) in records {
        ck.record_ok(*i, 0, r);
    }
}

#[test]
fn merge_rejects_fingerprint_mismatch_by_name() {
    let dir = scratch_dir("fp_mismatch");
    let a = dir.join("a.ckpt");
    let b = dir.join("b.ckpt");
    write_ckpt(&a, 0x1111, 4, &[(0, rec(1))]);
    write_ckpt(&b, 0x2222, 4, &[(1, rec(2))]);
    let err = CampaignCheckpoint::merge::<LabCellRecord>(&[a, b], &dir.join("out.ckpt"), 0x1111, 4)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("fingerprint mismatch") && msg.contains("b.ckpt"),
        "error must name the offense and the file: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_overlapping_records_are_last_record_wins() {
    let dir = scratch_dir("overlap");
    let a = dir.join("a.ckpt");
    let b = dir.join("b.ckpt");
    // Index 2 appears in both files (and twice within the first): the
    // final occurrence in input order must win.
    write_ckpt(&a, 0xFEED, 4, &[(2, rec(10)), (2, rec(11)), (0, rec(1))]);
    write_ckpt(&b, 0xFEED, 4, &[(2, rec(12)), (3, rec(3))]);
    let out = dir.join("out.ckpt");
    let report = CampaignCheckpoint::merge::<LabCellRecord>(&[a, b], &out, 0xFEED, 4).unwrap();
    assert_eq!(report.inputs, 2);
    assert_eq!(report.records, 3, "indices 0, 2, 3");
    assert_eq!(report.superseded, 2, "two earlier copies of index 2 lost");
    let merged = std::fs::read_to_string(&out).unwrap();
    assert!(
        merged.contains(&format!("ok 2 0 {}", rec(12).encode())),
        "index 2 must carry the last-written record: {merged}"
    );
    // Output is in index order, ready for sequential restore.
    let indices: Vec<&str> = merged
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().nth(1).unwrap())
        .collect();
    assert_eq!(indices, ["0", "2", "3"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_accepts_header_only_shard_file() {
    let dir = scratch_dir("empty_shard");
    let a = dir.join("a.ckpt");
    let b = dir.join("b.ckpt");
    write_ckpt(&a, 0xABCD, 3, &[(1, rec(5))]);
    write_ckpt(&b, 0xABCD, 3, &[]); // a shard that finished nothing
    let report =
        CampaignCheckpoint::merge::<LabCellRecord>(&[a, b], &dir.join("out.ckpt"), 0xABCD, 3)
            .unwrap();
    assert_eq!((report.records, report.superseded), (1, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_headerless_and_truncated_files() {
    let dir = scratch_dir("corrupt");
    let out = dir.join("out.ckpt");

    // A zero-byte shard file (crashed before the header made it out).
    let empty = dir.join("empty.ckpt");
    std::fs::write(&empty, "").unwrap();
    let err = CampaignCheckpoint::merge::<LabCellRecord>(&[empty], &out, 0x1, 2).unwrap_err();
    assert!(
        err.to_string().contains("missing header"),
        "headerless file must be named: {err}"
    );

    // A valid file whose final record was cut mid-write: strict refusal,
    // naming the line (merge never guesses at torn records).
    let torn = dir.join("torn.ckpt");
    write_ckpt(&torn, 0x2, 2, &[(0, rec(1))]);
    let mut contents = std::fs::read_to_string(&torn).unwrap();
    let full = format!("ok 1 0 {}\n", rec(2).encode());
    contents.push_str(&full[..full.len() / 2]);
    std::fs::write(&torn, contents).unwrap();
    let err = CampaignCheckpoint::merge::<LabCellRecord>(&[torn], &out, 0x2, 2).unwrap_err();
    assert!(
        err.to_string().contains("corrupt checkpoint"),
        "truncated record must be rejected loudly: {err}"
    );

    // The merge output must not have been left behind by either failure.
    assert!(
        !out.exists(),
        "failed merge must not produce an output file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The shard driver names per-shard files so concurrent workers never
/// collide, and the merge consumes exactly those names.
#[test]
fn shard_and_merged_checkpoints_coexist_in_one_dir() {
    let dir = scratch_dir("paths");
    let cfg = grid_campaign(1, 5);
    let sup = SupervisorConfig::default();
    for i in 0..2 {
        run_shard_streaming(&cfg, &sup, ShardSpec::new(i, 2), &dir).unwrap();
        assert!(shard_checkpoint_path(&dir, ShardSpec::new(i, 2)).exists());
    }
    merge_shards_streaming(&cfg, &dir, 2).unwrap();
    assert!(merged_checkpoint_path(&dir).exists());
    std::fs::remove_dir_all(&dir).ok();
}

// --- accumulator-merge property sweep --------------------------------------

/// Every integer-state statistic of a merged accumulator pair, bit-for-bit
/// against the single-pass accumulator over the concatenated stream; float
/// moments to reassociation rounding. Cases include empty, single-loss,
/// and all-losses-coincident operands on both sides of the split.
#[test]
fn stream_merge_matches_single_pass_property_sweep() {
    sweep(0xA11CE, 24, |case, gen| {
        // Interval streams of varying burstiness; cases 0-5 exercise the
        // degenerate shapes explicitly.
        let intervals: Vec<f64> = match case {
            0 => vec![],              // empty stream
            1 => vec![0.0],           // a single coincident pair
            2 => vec![0.0, 0.0, 0.0], // all losses in one burst
            _ => {
                let n = 2 + (gen.next_u64() % 40) as usize;
                (0..n)
                    .map(|_| {
                        let u = (gen.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        if gen.next_u64() % 3 == 0 {
                            u * 0.004 // sub-gap: extends an episode
                        } else {
                            0.2 + u * 2.0 // super-gap: closes it
                        }
                    })
                    .collect()
            }
        };
        let split_at = if intervals.is_empty() {
            0
        } else {
            (gen.next_u64() as usize) % (intervals.len() + 1)
        };
        let packets: Vec<bool> = (0..40).map(|_| gen.next_u64() % 4 == 0).collect();
        let packet_split = (gen.next_u64() as usize) % (packets.len() + 1);

        let mut single = LossStreamStats::with_rtt(1.0);
        for &iv in &intervals {
            single.push_interval(iv);
        }
        for &p in &packets {
            single.push_packet(p);
        }

        let feed = |ivs: &[f64], pkts: &[bool]| {
            let mut s = LossStreamStats::with_rtt(1.0);
            for &iv in ivs {
                s.push_interval(iv);
            }
            for &p in pkts {
                s.push_packet(p);
            }
            s
        };
        let mut merged = feed(&intervals[..split_at], &packets[..packet_split]);
        merged.merge(&feed(&intervals[split_at..], &packets[packet_split..]));

        // Integer state: bit-for-bit.
        assert_eq!(merged.n_losses(), single.n_losses(), "case {case}");
        assert_eq!(merged.n_intervals(), single.n_intervals(), "case {case}");
        assert_eq!(
            merged.histogram().bins,
            single.histogram().bins,
            "case {case}"
        );
        assert_eq!(merged.histogram().overflow, single.histogram().overflow);
        assert_eq!(merged.histogram().total, single.histogram().total);
        assert_eq!(
            merged.episode_count(),
            single.episode_count(),
            "case {case}"
        );
        let (me, se) = (merged.episode_report(), single.episode_report());
        assert_eq!(me.count, se.count, "case {case}");
        assert_eq!(me.max_size, se.max_size, "case {case}");
        // mean_size and fraction_in_bursts derive from integer-valued
        // sums: exact.
        assert_eq!(
            me.mean_size.to_bits(),
            se.mean_size.to_bits(),
            "case {case}"
        );
        assert_eq!(
            me.fraction_in_bursts.to_bits(),
            se.fraction_in_bursts.to_bits(),
            "case {case}"
        );
        // Gilbert transition counts are integers, so the fit is bit-exact.
        assert_eq!(
            merged.gilbert().map(|g| (g.p.to_bits(), g.r.to_bits())),
            single.gilbert().map(|g| (g.p.to_bits(), g.r.to_bits())),
            "case {case}"
        );
        // Interval-count fractions divide integer counters: exact.
        let (mr, sr) = (merged.report(), single.report());
        assert_eq!(mr.frac_below_001.to_bits(), sr.frac_below_001.to_bits());
        assert_eq!(mr.frac_below_1.to_bits(), sr.frac_below_1.to_bits());
        // Float moments: reassociation rounding only.
        assert!(
            (mr.mean_interval_rtt - sr.mean_interval_rtt).abs()
                <= 1e-12 * sr.mean_interval_rtt.abs().max(1.0),
            "case {case}: mean {} vs {}",
            mr.mean_interval_rtt,
            sr.mean_interval_rtt
        );
        assert!(
            (me.mean_duration - se.mean_duration).abs() <= 1e-12 * se.mean_duration.abs().max(1.0),
            "case {case}: duration {} vs {}",
            me.mean_duration,
            se.mean_duration
        );
    });
}

/// Merging with an empty operand — either side — is bit-exact in *all*
/// state, floats included (the non-degenerate operand passes through).
#[test]
fn merge_with_empty_operand_is_fully_bit_exact() {
    let feed = |ivs: &[f64]| {
        let mut s = LossStreamStats::with_rtt(1.0);
        for &iv in ivs {
            s.push_interval(iv);
        }
        s
    };
    let ivs = [0.003, 0.7, 0.001, 0.0, 1.4, 0.02];
    let reference = feed(&ivs);
    let dump = |s: &LossStreamStats| {
        let r = s.report();
        let e = s.episode_report();
        format!(
            "{} {} {:?} {:016x} {:016x} {:016x} {:016x} {} {:016x}",
            s.n_losses(),
            s.n_intervals(),
            s.histogram().bins,
            r.mean_interval_rtt.to_bits(),
            r.index_of_dispersion.to_bits(),
            e.mean_duration.to_bits(),
            e.mean_size.to_bits(),
            e.count,
            r.frac_below_001.to_bits(),
        )
    };
    let mut left = feed(&ivs);
    left.merge(&feed(&[]));
    assert_eq!(dump(&left), dump(&reference), "non-empty . empty");
    let mut right = feed(&[]);
    right.merge(&feed(&ivs));
    assert_eq!(dump(&right), dump(&reference), "empty . non-empty");
}
