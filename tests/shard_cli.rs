//! The multi-process path, end to end: the `shard` bin's coordinator
//! spawns real worker processes, and what they merge must equal a
//! 1-process run byte for byte.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `shard <args…> --dir <a fresh directory named tag>`.
fn shard(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lossburst_shard_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_shard"))
        .args(args)
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("the shard bin runs");
    (out, dir)
}

/// Run it, require success, and return its stdout and merged checkpoint.
fn shard_ok(tag: &str, args: &[&str]) -> (String, Vec<u8>) {
    let (out, dir) = shard(tag, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "shard {args:?}: {stdout}{stderr}");
    let merged = std::fs::read(dir.join("merged.ckpt")).expect("a merged checkpoint");
    std::fs::remove_dir_all(dir).ok();
    (stdout, merged)
}

#[test]
fn three_campaign_shards_merge_to_the_one_process_checkpoint() {
    let flags = ["campaign", "--paths", "36", "--seed", "2006", "--shards"];
    let (_, three) = shard_ok("campaign3", &[&flags[..], &["3"]].concat());
    let (_, one) = shard_ok("campaign1", &[&flags[..], &["1"]].concat());
    assert!(three == one, "3-shard merged.ckpt differs from 1-shard");
    // Equal checkpoints prove nothing if they are empty: every path's
    // 48 B run sent probe packets (token 9 of an `ok … spm` line), and
    // some lost one (token 11).
    let text = String::from_utf8_lossy(&one);
    let runs: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split(' ').collect::<Vec<_>>())
        .filter(|t| t.len() > 10 && t[0] == "ok" && t[3] == "spm")
        .collect();
    let count = |i: usize| runs.iter().filter(|t| t[i] != "0").count();
    assert_eq!(runs.len(), 36, "{text}");
    assert_eq!(count(8), runs.len(), "a path sent no probe packet:\n{text}");
    assert!(count(10) > 0, "no path lost a probe packet:\n{text}");
}

#[test]
fn three_bsp_shards_pass_the_check_and_merge_to_the_one_process_checkpoint() {
    let flags = ["bsp", "--workers", "300", "--burst", "16", "--check"];
    let (out, three) = shard_ok("bsp3", &[&flags[..], &["--shards", "3"]].concat());
    assert!(out.contains("check: in-process re-run matches"), "{out}");
    let (_, one) = shard_ok("bsp1", &[&flags[..], &["--shards", "1"]].concat());
    assert!(three == one, "3-shard merged.ckpt differs from 1-shard");
}

/// A fractional percentage reaches the workers exactly: they once got the
/// report label's rounded `redundancy0` and exited 2.
#[test]
fn a_fractional_redundancy_percentage_reaches_the_workers_exactly() {
    let flags = ["bsp", "--workers", "200", "--shards", "2", "--check"];
    let (out, _) = shard_ok(
        "redundancy",
        &[&flags[..], &["--mitigation", "redundancy0.4"]].concat(),
    );
    assert!(out.contains("(redundancy=0.004)"), "{out}");
    for (bad, why) in [
        (["--workers", "0"], "n_workers must be positive"),
        (["--seed", "x"], "--seed requires a number"),
    ] {
        let (out, _) = shard("bad", &[&["bsp"], &bad[..]].concat());
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{stderr}");
    }
}
