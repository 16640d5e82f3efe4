//! `shard` — the multi-process driver of the two sharded jobs: `campaign`
//! (the supervised Internet campaign at any path count) and `bsp` (the
//! lossy-BSP superstep engine).
//!
//! The coordinator (the default) spawns one worker per shard by
//! re-executing this binary with `--shard i/N`, waits for all of them,
//! merges the shard checkpoints and collects the job from the merged one:
//!
//! ```sh
//! cargo run --release --bin shard -- campaign --shards 4 --paths 100000 --dir /tmp/camp
//! cargo run --release --bin shard -- bsp --workers 10000 --shards 4 --burst 16 --check
//! ```
//!
//! A worker supervises its striped slice of the job's records — paths, or
//! (superstep, worker) transfers — into `shard-i-of-N.ckpt` under `--dir`,
//! restoring what an earlier run of the same shard finished. A record
//! derives from its global coordinate alone, so the merged product is
//! byte-identical to a 1-process run; `bsp --check` proves it against an
//! in-process re-run.

use lossburst::core::bsp::{collect_bsp, run_bsp, run_bsp_shard, BspConfig, Mitigation};
use lossburst::core::error::Result;
use lossburst::core::prelude::*;
use lossburst::core::shard::merged_checkpoint_path;
use lossburst::inet::campaign::CampaignConfig;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "usage: shard campaign [--paths N] [COMMON]\n       \
     shard bsp [--workers N] [--supersteps S] [--bytes B] [--loss L] [--burst PKTS] \
     [--mitigation none|diversityK|redundancyPCT|burstaware] [--check] [COMMON]\n\
     COMMON: [--shards K] [--seed S] [--dir PATH]\n\
     worker form (spawned internally): shard <verb> --shard i/N ...";

/// The command line. `paths` is the `campaign` verb's, `cfg` and `check`
/// the `bsp` verb's; `cfg.seed` is the seed of either.
struct Args {
    verb: String,
    shard: Option<ShardSpec>,
    shards: usize,
    dir: PathBuf,
    paths: usize,
    cfg: BspConfig,
    check: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

fn num<T: FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} requires a number, got {value:?}")))
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let verb = argv.next().unwrap_or_default();
    match verb.as_str() {
        "campaign" | "bsp" => {}
        "--help" | "-h" => {
            eprintln!("{USAGE}");
            exit(0);
        }
        _ => die(&format!(
            "unknown verb {verb:?}; want campaign or bsp\n{USAGE}"
        )),
    }
    let mut args = Args {
        dir: PathBuf::from(format!("shard-{verb}")),
        verb,
        shard: None,
        shards: 1,
        paths: 1_000,
        cfg: BspConfig {
            n_workers: 1_000,
            supersteps: 2,
            bytes_per_worker: 1024 * 1024,
            mean_loss_rate: 0.01,
            mean_burst_pkts: 4.0,
            seed: 2006,
            mitigation: Mitigation::None,
        },
        check: false,
    };
    while let Some(flag) = argv.next() {
        if (args.verb.as_str(), flag.as_str()) == ("bsp", "--check") {
            args.check = true;
            continue;
        }
        let Some(value) = argv.next() else {
            die(&format!("{flag} requires a value\n{USAGE}"))
        };
        let cfg = &mut args.cfg;
        match (args.verb.as_str(), flag.as_str()) {
            (_, "--shard") => {
                args.shard = Some(value.parse().unwrap_or_else(|e: String| die(&e)));
            }
            (_, "--shards") => args.shards = num(&flag, &value),
            (_, "--seed") => cfg.seed = num(&flag, &value),
            (_, "--dir") => args.dir = PathBuf::from(value),
            ("campaign", "--paths") => args.paths = num(&flag, &value),
            ("bsp", "--workers") => cfg.n_workers = num(&flag, &value),
            ("bsp", "--supersteps") => cfg.supersteps = num(&flag, &value),
            ("bsp", "--bytes") => cfg.bytes_per_worker = num(&flag, &value),
            ("bsp", "--loss") => cfg.mean_loss_rate = num(&flag, &value),
            ("bsp", "--burst") => cfg.mean_burst_pkts = num(&flag, &value),
            ("bsp", "--mitigation") => {
                cfg.mitigation = value.parse().unwrap_or_else(|e: String| die(&e));
            }
            (verb, _) => die(&format!("unknown argument {flag:?} for {verb}\n{USAGE}")),
        }
    }
    if args.shards == 0 || args.paths == 0 {
        die("--shards and --paths must be positive");
    }
    if let Err(e) = args.cfg.validate() {
        die(&e.to_string());
    }
    args
}

/// A worker's argv: the verb and every flag of the job, each in the form
/// [`parse_args`] reads back exactly.
fn worker_argv(args: &Args, spec: ShardSpec) -> Vec<String> {
    let cfg = &args.cfg;
    let mut flags = vec![
        ("--shard", spec.to_string()),
        ("--seed", cfg.seed.to_string()),
        ("--dir", args.dir.display().to_string()),
    ];
    if args.verb == "campaign" {
        flags.push(("--paths", args.paths.to_string()));
    } else {
        flags.extend([
            ("--workers", cfg.n_workers.to_string()),
            ("--supersteps", cfg.supersteps.to_string()),
            ("--bytes", cfg.bytes_per_worker.to_string()),
            ("--loss", cfg.mean_loss_rate.to_string()),
            ("--burst", cfg.mean_burst_pkts.to_string()),
            ("--mitigation", cfg.mitigation.to_string()),
        ]);
    }
    let flags = flags.into_iter().flat_map(|(f, v)| [f.to_string(), v]);
    std::iter::once(args.verb.clone()).chain(flags).collect()
}

fn campaign(args: &Args) -> CampaignConfig {
    CampaignConfig {
        n_paths: args.paths,
        ..CampaignConfig::micro(args.cfg.seed)
    }
}

fn worker(args: &Args, spec: ShardSpec) -> Result<()> {
    let started = Instant::now();
    let sup = SupervisorConfig::default();
    let report = match args.verb.as_str() {
        "campaign" => run_shard_streaming(&campaign(args), &sup, spec, &args.dir)?,
        _ => run_bsp_shard(&args.cfg, &sup, spec, &args.dir)?,
    };
    eprintln!(
        "shard {spec}: {} records ({} restored, {} failed) in {:.1}s",
        report.owned,
        report.restored,
        report.counts.failed,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn coordinator(args: &Args) -> Result<()> {
    std::fs::create_dir_all(&args.dir)?;
    let started = Instant::now();
    spawn_shards(&std::env::current_exe()?, args.shards, |spec| {
        worker_argv(args, spec)
    })?;
    let workers_done = started.elapsed().as_secs_f64();
    // The campaign's supervisor settings serve both jobs.
    let sup = SupervisorConfig::default();
    let merged = merged_checkpoint_path(&args.dir);
    let records = if args.verb == "campaign" {
        let cfg = campaign(args);
        let merge = merge_shards_streaming(&cfg, &args.dir, args.shards)?;
        let collected = collect_campaign_streaming(&cfg, &sup, &args.dir)?;
        println!(
            "campaign: {} paths x {} shards -> {} merged records ({} superseded)",
            cfg.n_paths, args.shards, merge.records, merge.superseded
        );
        println!(
            "collect: {} restored, counts {:?}, checkpoint {}",
            collected.restored,
            collected.counts(),
            merged.display()
        );
        cfg.n_paths
    } else {
        let cfg = &args.cfg;
        let run = collect_bsp(cfg, &sup, args.shards, &args.dir)?;
        let report = &run.report;
        for (s, stats) in report.stats.iter().enumerate() {
            println!(
                "superstep {s}: barrier {:.2}s median {:.2}s p99 {:.2}s tail {:.3}",
                stats.barrier_secs, stats.median_secs, stats.p99_secs, stats.tail_mass
            );
        }
        println!(
            "bsp: {} workers x {} supersteps x {} shards ({}), pooled tail {:.3}, \
             fingerprint {:016x}",
            cfg.n_workers,
            cfg.supersteps,
            args.shards,
            cfg.mitigation,
            report.pooled_tail_mass,
            report.fingerprint
        );
        println!(
            "collect: {} restored of {} records, checkpoint {}",
            run.restored,
            run.ledger.len(),
            merged.display()
        );
        if args.check {
            let reference = run_bsp(cfg)?.fingerprint;
            if reference != report.fingerprint {
                die(&format!(
                    "sharded fingerprint {:016x} != in-process {reference:016x}",
                    report.fingerprint
                ));
            }
            println!("check: in-process re-run matches bit-for-bit (fingerprint {reference:016x})");
        }
        run.ledger.len()
    };
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "wall: workers {workers_done:.1}s, total {elapsed:.1}s, {:.1} records/sec",
        records as f64 / elapsed
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
