//! `shard_campaign` — the multi-process sharded campaign driver.
//!
//! Coordinator mode (the default) spawns one worker per shard by
//! re-executing this same binary with `--shard i/N`, waits for all of
//! them, merges the shard checkpoints, and collects the final campaign:
//!
//! ```sh
//! cargo run --release --bin shard_campaign -- --shards 4 --paths 100000 --dir /tmp/camp
//! ```
//!
//! Worker mode (`--shard i/N`) runs one striped slice of the path grid
//! and appends finished paths to `shard-i-of-N.ckpt` under `--dir`. Every
//! worker derives path identity from the global grid coordinate, so the
//! merged product is byte-identical to a 1-process run of the same
//! campaign (same seed, same path count).

use lossburst::core::prelude::*;
use lossburst::inet::campaign::CampaignConfig;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

struct Args {
    shard: Option<ShardSpec>,
    shards: usize,
    paths: usize,
    seed: u64,
    dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        shard: None,
        shards: 1,
        paths: 1_000,
        seed: 2006,
        dir: PathBuf::from("shard-campaign"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--shard" => {
                args.shard = Some(val("--shard").parse().unwrap_or_else(|e: String| die(&e)));
            }
            "--shards" => {
                args.shards = val("--shards")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--shards requires a positive integer"));
            }
            "--paths" => {
                args.paths = val("--paths")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--paths requires a positive integer"));
            }
            "--seed" => {
                args.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed requires an integer"));
            }
            "--dir" => args.dir = PathBuf::from(val("--dir")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: shard_campaign [--shards N] [--paths N] [--seed S] \
                     [--dir PATH]\n\
                     worker form (spawned internally): shard_campaign --shard i/N ..."
                );
                exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

fn config(args: &Args) -> (CampaignConfig, SupervisorConfig) {
    let mut cfg = CampaignConfig::micro(args.seed);
    cfg.n_paths = args.paths;
    let sup = SupervisorConfig {
        max_retries: 1,
        backoff_base_ms: 0,
        ..Default::default()
    };
    (cfg, sup)
}

fn worker(args: &Args, spec: ShardSpec) -> lossburst::core::error::Result<()> {
    let (cfg, sup) = config(args);
    let started = Instant::now();
    let report = run_shard_streaming(&cfg, &sup, spec, &args.dir)?;
    eprintln!(
        "shard {spec}: {} paths ({} restored) in {:.1}s",
        report.owned,
        report.restored,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn coordinator(args: &Args) -> lossburst::core::error::Result<()> {
    let (cfg, sup) = config(args);
    std::fs::create_dir_all(&args.dir).map_err(lossburst::core::error::Error::from)?;
    let exe = std::env::current_exe().map_err(lossburst::core::error::Error::from)?;
    let started = Instant::now();
    spawn_shards(&exe, args.shards, |spec| {
        vec![
            "--shard".to_string(),
            spec.to_string(),
            "--paths".to_string(),
            args.paths.to_string(),
            "--seed".to_string(),
            args.seed.to_string(),
            "--dir".to_string(),
            args.dir.display().to_string(),
        ]
    })
    .map_err(lossburst::core::error::Error::from)?;
    let workers_done = started.elapsed();

    let merge = merge_shards_streaming(&cfg, &args.dir, args.shards)
        .map_err(lossburst::core::error::Error::from)?;
    let collected = collect_campaign_streaming(&cfg, &sup, &args.dir)?;
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "campaign: {} paths x {} shards -> {} merged records ({} superseded)",
        args.paths, args.shards, merge.records, merge.superseded
    );
    println!(
        "collect: {} restored, counts {:?}, checkpoint {}",
        collected.restored,
        collected.counts(),
        lossburst::core::shard::merged_checkpoint_path(&args.dir).display()
    );
    println!(
        "wall: workers {:.1}s, total {:.1}s, {:.1} paths/sec",
        workers_done.as_secs_f64(),
        elapsed,
        args.paths as f64 / elapsed
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    let out = match args.shard {
        Some(spec) => worker(&args, spec),
        None => coordinator(&args),
    };
    if let Err(e) = out {
        die(&e.to_string());
    }
}
