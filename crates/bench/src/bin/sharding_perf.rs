//! `sharding_perf` — whole-campaign sharded-execution benchmark.
//!
//! The question this bin answers: what does the multi-process shard
//! driver (`lossburst_core::shard`) deliver, end to end, at grid scale?
//! It sweeps shard counts × path counts over the micro-scale grid
//! campaign (2 s runs at 50 pps, fluid background — the per-path recipe
//! sized for 10^5-path campaigns), timing the whole pipeline per leg:
//! spawn workers → shard checkpoints → merge → collect. Reported per leg:
//! whole-campaign paths/sec and simulator events/sec.
//!
//! Two built-in correctness gates run alongside the timings:
//!
//! * **Byte identity.** Within each path count, every multi-shard leg's
//!   merged checkpoint must be byte-identical to the 1-process leg's —
//!   asserted on the raw file bytes.
//! * **Full coverage.** Every leg must finish all paths `Ok`.
//!
//! A checkpoint-append microbench rides along, measuring the buffered
//! writer (one coalesced write + flush per record) against the
//! unbuffered `writeln!`-per-record baseline it replaced, at 10^5
//! records.
//!
//! Writes `BENCH_SHARDING.json` (override with `--out PATH`). The worker
//! form (`--worker i/N`, spawned internally) runs one shard and exits.

use lossburst_bench::cli;
use lossburst_core::prelude::*;
use lossburst_core::shard::merged_checkpoint_path;
use lossburst_inet::campaign::CampaignConfig;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn config(seed: u64, paths: usize) -> (CampaignConfig, SupervisorConfig) {
    let mut cfg = CampaignConfig::micro(seed);
    cfg.n_paths = paths;
    (cfg, SupervisorConfig::default())
}

/// Worker mode: run one shard of one leg, then exit.
fn worker(spec: ShardSpec, seed: u64, paths: usize, dir: &Path) {
    let (cfg, sup) = config(seed, paths);
    run_shard_streaming(&cfg, &sup, spec, dir).expect("shard worker failed");
}

struct Leg {
    paths: usize,
    shards: usize,
    workers_secs: f64,
    merge_secs: f64,
    collect_secs: f64,
    total_secs: f64,
    paths_per_sec: f64,
    events_per_sec: f64,
    merged_bytes: Vec<u8>,
}

/// One leg of the sweep: the full multi-process campaign at (`paths`,
/// `shards`), through the same worker binary this process runs as.
fn run_leg(seed: u64, paths: usize, shards: usize, scratch: &Path) -> Leg {
    let dir = scratch.join(format!("p{paths}-s{shards}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create leg scratch dir");
    let (cfg, sup) = config(seed, paths);
    let exe = std::env::current_exe().expect("cannot locate own binary");

    let t0 = Instant::now();
    spawn_shards(&exe, shards, |spec| {
        vec![
            "--worker".to_string(),
            spec.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--paths".to_string(),
            paths.to_string(),
            "--dir".to_string(),
            dir.display().to_string(),
        ]
    })
    .expect("shard workers failed");
    let workers_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let merge = merge_shards_streaming(&cfg, &dir, shards).expect("merge failed");
    let merge_secs = t1.elapsed().as_secs_f64();
    assert_eq!(merge.records, paths, "merge must cover every path");

    let t2 = Instant::now();
    let campaign = collect_campaign_streaming(&cfg, &sup, &dir).expect("collect failed");
    let collect_secs = t2.elapsed().as_secs_f64();
    let counts = campaign.counts();
    assert_eq!(counts.ok, paths, "every path must finish Ok: {counts:?}");
    assert_eq!(campaign.restored, paths, "collect must restore, not re-run");
    let events: u64 = campaign
        .result
        .measurements
        .iter()
        .map(|m| m.small.events + m.large.events)
        .sum();

    let merged_bytes = std::fs::read(merged_checkpoint_path(&dir)).expect("read merged");
    let _ = std::fs::remove_dir_all(&dir);

    let total_secs = workers_secs + merge_secs + collect_secs;
    let leg = Leg {
        paths,
        shards,
        workers_secs,
        merge_secs,
        collect_secs,
        total_secs,
        paths_per_sec: paths as f64 / total_secs,
        events_per_sec: events as f64 / total_secs,
        merged_bytes,
    };
    println!(
        "# {:>7} paths x {} shard(s): workers {:>7.1}s merge {:>5.2}s collect {:>6.2}s | {:>7.1} paths/s {:>9.0} ev/s",
        paths, shards, workers_secs, merge_secs, collect_secs, leg.paths_per_sec, leg.events_per_sec
    );
    leg
}

/// The buffered-vs-unbuffered checkpoint-append microbench: `n` records
/// of a representative size through (a) the production `CampaignCheckpoint`
/// (BufWriter, one coalesced write + flush per record) and (b) the
/// unbuffered baseline it replaced (`writeln!` straight at the `File`, one
/// syscall per format fragment). Returns (buffered_secs, unbuffered_secs).
fn append_bench(n: usize, scratch: &Path) -> (f64, f64) {
    let record = LabCellRecord {
        intervals_rtt: vec![0.25, 0.5, 0.75, 1.5],
        trace_bytes: 4096,
    };
    let fp = campaign_fingerprint("append-bench", 7, n);

    let path = scratch.join("append-buffered.ckpt");
    let _ = std::fs::remove_file(&path);
    let t0 = Instant::now();
    let (ck, _) = CampaignCheckpoint::open::<LabCellRecord>(&path, fp, n).expect("open");
    for i in 0..n {
        ck.record_ok(i, 0, &record);
    }
    drop(ck);
    let buffered = t0.elapsed().as_secs_f64();

    let path = scratch.join("append-unbuffered.ckpt");
    let _ = std::fs::remove_file(&path);
    let t1 = Instant::now();
    let mut file = std::fs::File::create(&path).expect("create");
    writeln!(file, "lossburst-checkpoint v1 {fp:016x}").expect("header");
    for i in 0..n {
        writeln!(file, "ok {i} 0 {}", record.encode()).expect("append");
    }
    drop(file);
    let unbuffered = t1.elapsed().as_secs_f64();
    (buffered, unbuffered)
}

fn main() {
    const USAGE: &str = "usage: sharding_perf [--quick] [--seed N] [--out PATH]";
    let mut out_path = String::from("BENCH_SHARDING.json");
    let mut quick = false;
    let mut seed = 2006u64;
    let mut worker_spec: Option<ShardSpec> = None;
    let mut paths_flag: Option<usize> = None;
    let mut dir_flag: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = cli::value(&mut it, "--out", "a path", USAGE),
            "--quick" => quick = true,
            "--seed" => seed = cli::value(&mut it, "--seed", "an integer", USAGE),
            "--worker" => worker_spec = Some(cli::value(&mut it, "--worker", "i/N", USAGE)),
            "--paths" => paths_flag = Some(cli::value(&mut it, "--paths", "a count", USAGE)),
            "--dir" => dir_flag = Some(cli::value(&mut it, "--dir", "a path", USAGE)),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => cli::unknown_flag(other, USAGE),
        }
    }
    if let Some(spec) = worker_spec {
        let (Some(paths), Some(dir)) = (paths_flag, dir_flag) else {
            cli::usage_error("--worker requires --paths and --dir", USAGE)
        };
        worker(spec, seed, paths, &dir);
        return;
    }

    let scratch = std::env::temp_dir().join(format!("lossburst-sharding-perf-{seed}"));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("cannot create scratch dir");

    // (path count, shard counts). The headline scale is 10^5 paths; the
    // smaller scale gets the finer shard sweep because its legs are cheap.
    let sweep: Vec<(usize, Vec<usize>)> = if quick {
        vec![(2_000, vec![1, 2, 4])]
    } else {
        vec![(10_000, vec![1, 2, 4]), (100_000, vec![1, 2, 4])]
    };

    println!("# sharded campaign driver: shard counts x path counts (micro-scale grid paths)");
    let mut legs: Vec<Leg> = Vec::new();
    for (paths, shard_counts) in &sweep {
        let mut baseline: Option<Vec<u8>> = None;
        for &shards in shard_counts {
            let leg = run_leg(seed, *paths, shards, &scratch);
            match &baseline {
                None => baseline = Some(leg.merged_bytes.clone()),
                Some(b) => assert!(
                    *b == leg.merged_bytes,
                    "{shards}-shard merged checkpoint diverged from 1-process at {paths} paths"
                ),
            }
            legs.push(leg);
        }
    }

    let append_n = 100_000;
    let (buffered, unbuffered) = append_bench(append_n, &scratch);
    let append_speedup = unbuffered / buffered;
    println!(
        "# checkpoint append x{append_n}: buffered {:.2}s ({:.0} rec/s) vs unbuffered {:.2}s ({:.0} rec/s) -> {append_speedup:.2}x",
        buffered,
        append_n as f64 / buffered,
        unbuffered,
        append_n as f64 / unbuffered,
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let max_paths = legs.iter().map(|l| l.paths).max().expect("legs");
    let single = legs
        .iter()
        .find(|l| l.paths == max_paths && l.shards == 1)
        .expect("1-process leg at headline scale");
    let best_multi = legs
        .iter()
        .filter(|l| l.paths == max_paths && l.shards > 1)
        .max_by(|a, b| a.paths_per_sec.total_cmp(&b.paths_per_sec))
        .expect("multi-shard leg at headline scale");
    let multi_vs_single = best_multi.paths_per_sec / single.paths_per_sec;

    let prov = lossburst_bench::provenance::capture().json_fields();
    let legs_json: Vec<String> = legs
        .iter()
        .map(|l| {
            format!(
                "    {{ \"paths\": {}, \"shards\": {}, \"workers_secs\": {:.2}, \"merge_secs\": {:.3}, \"collect_secs\": {:.3}, \"total_secs\": {:.2}, \"paths_per_sec\": {:.1}, \"events_per_sec\": {:.0} }}",
                l.paths,
                l.shards,
                l.workers_secs,
                l.merge_secs,
                l.collect_secs,
                l.total_secs,
                l.paths_per_sec,
                l.events_per_sec,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sharding\",\n  \"seed\": {seed},\n  {prov},\n  \"scenario\": \"micro-scale grid campaign (2 s probe runs at 50 pps, fluid background) driven by the multi-process shard coordinator: spawn workers -> per-shard checkpoints -> merge -> collect, timed end to end\",\n  \"byte_identity\": \"within each path count, every multi-shard merged checkpoint asserted byte-identical to the 1-process one in this same run\",\n  \"legs\": [\n{}\n  ],\n  \"checkpoint_append\": {{ \"records\": {append_n}, \"buffered_secs\": {buffered:.3}, \"unbuffered_secs\": {unbuffered:.3}, \"buffered_records_per_sec\": {:.0}, \"unbuffered_records_per_sec\": {:.0}, \"speedup\": {append_speedup:.3} }},\n  \"headline_paths\": {max_paths},\n  \"single_process_paths_per_sec\": {:.1},\n  \"best_multishard_paths_per_sec\": {:.1},\n  \"best_multishard_shards\": {},\n  \"multishard_vs_single\": {multi_vs_single:.3}\n}}\n",
        legs_json.join(",\n"),
        append_n as f64 / buffered,
        append_n as f64 / unbuffered,
        single.paths_per_sec,
        best_multi.paths_per_sec,
        best_multi.shards,
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!(
        "# wrote {out_path} ({max_paths} paths: single {:.1} paths/s, best multi x{} {:.1} paths/s, ratio {multi_vs_single:.2})",
        single.paths_per_sec, best_multi.shards, best_multi.paths_per_sec
    );
}
