//! `bsp_study` — the multi-process lossy-BSP superstep driver.
//!
//! Coordinator mode (the default) spawns one worker per shard by
//! re-executing this same binary with `--shard i/N`, waits for all of
//! them, stitches the per-shard outcome files back into global worker
//! order, closes each barrier, and prints the straggler statistics:
//!
//! ```sh
//! cargo run --release --bin bsp_study -- --workers 10000 --shards 4 --burst 16 --check
//! ```
//!
//! Worker mode (`--shard i/N`) runs its stripe of workers for every
//! superstep and writes one bit-exact outcome file per superstep under
//! `--dir`. Worker outcomes depend only on `(config, superstep, worker)`,
//! so the stitched product is byte-identical to a 1-process run —
//! `--check` proves it by re-running in-process and comparing the chained
//! fingerprint.

use lossburst::core::bsp::{
    decode_outcomes, encode_outcomes, finalize_superstep, fingerprint_outcomes, run_bsp,
    stitch_outcomes, superstep_workers, BspConfig, Mitigation,
};
use lossburst::core::error::{Error, Result};
use lossburst::core::shard::{shard_indices, spawn_shards, ShardSpec};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

struct Args {
    shard: Option<ShardSpec>,
    shards: usize,
    cfg: BspConfig,
    dir: PathBuf,
    check: bool,
}

fn parse_mitigation(label: &str) -> Mitigation {
    match label {
        "none" => Mitigation::None,
        "burstaware" => Mitigation::BurstAware,
        _ => {
            if let Some(alts) = label.strip_prefix("diversity") {
                let alts = alts.parse().unwrap_or_else(|_| {
                    die("diversity wants an alternative count, e.g. diversity3")
                });
                Mitigation::Diversity { alts }
            } else if let Some(pct) = label.strip_prefix("redundancy") {
                let pct: f64 = pct
                    .parse()
                    .unwrap_or_else(|_| die("redundancy wants a percentage, e.g. redundancy10"));
                Mitigation::Redundancy {
                    fraction: pct / 100.0,
                }
            } else {
                die(&format!(
                    "unknown mitigation {label:?}; try none, diversity3, redundancy10, burstaware"
                ))
            }
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        shard: None,
        shards: 1,
        cfg: BspConfig {
            n_workers: 1_000,
            supersteps: 2,
            bytes_per_worker: 1024 * 1024,
            mean_loss_rate: 0.01,
            mean_burst_pkts: 4.0,
            seed: 2006,
            mitigation: Mitigation::None,
        },
        dir: PathBuf::from("bsp-study"),
        check: false,
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
            "--workers" => {
                args.cfg.n_workers = val("--workers")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--workers requires a positive integer"));
            }
            "--supersteps" => {
                args.cfg.supersteps = val("--supersteps")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--supersteps requires a positive integer"));
            }
            "--bytes" => {
                args.cfg.bytes_per_worker = val("--bytes")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--bytes requires a positive integer"));
            }
            "--loss" => {
                args.cfg.mean_loss_rate = val("--loss")
                    .parse()
                    .unwrap_or_else(|_| die("--loss requires a number"));
            }
            "--burst" => {
                args.cfg.mean_burst_pkts = val("--burst")
                    .parse()
                    .unwrap_or_else(|_| die("--burst requires a number"));
            }
            "--seed" => {
                args.cfg.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed requires an integer"));
            }
            "--mitigation" => args.cfg.mitigation = parse_mitigation(&val("--mitigation")),
            "--dir" => args.dir = PathBuf::from(val("--dir")),
            "--check" => args.check = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: bsp_study [--workers N] [--supersteps S] [--bytes B] \
                     [--loss L] [--burst PKTS] [--seed S] \
                     [--mitigation none|diversityK|redundancyPCT|burstaware] \
                     [--shards K] [--dir PATH] [--check]\n\
                     worker form (spawned internally): bsp_study --shard i/N ..."
                );
                exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if let Err(e) = args.cfg.validate() {
        die(&e.to_string());
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

fn outcome_path(dir: &Path, superstep: usize, spec: ShardSpec) -> PathBuf {
    dir.join(format!(
        "step{superstep}-shard-{}-of-{}.bsp",
        spec.index, spec.count
    ))
}

fn worker(args: &Args, spec: ShardSpec) -> Result<()> {
    let started = Instant::now();
    let indices = shard_indices(args.cfg.n_workers, spec);
    for s in 0..args.cfg.supersteps {
        let outcomes = superstep_workers(&args.cfg, s, &indices)?;
        std::fs::write(outcome_path(&args.dir, s, spec), encode_outcomes(&outcomes))
            .map_err(Error::from)?;
    }
    eprintln!(
        "shard {spec}: {} workers x {} supersteps in {:.1}s",
        indices.len(),
        args.cfg.supersteps,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn coordinator(args: &Args) -> Result<()> {
    let cfg = &args.cfg;
    std::fs::create_dir_all(&args.dir).map_err(Error::from)?;
    let exe = std::env::current_exe().map_err(Error::from)?;
    let started = Instant::now();
    spawn_shards(&exe, args.shards, |spec| {
        vec![
            "--shard".to_string(),
            spec.to_string(),
            "--workers".to_string(),
            cfg.n_workers.to_string(),
            "--supersteps".to_string(),
            cfg.supersteps.to_string(),
            "--bytes".to_string(),
            cfg.bytes_per_worker.to_string(),
            "--loss".to_string(),
            cfg.mean_loss_rate.to_string(),
            "--burst".to_string(),
            cfg.mean_burst_pkts.to_string(),
            "--seed".to_string(),
            cfg.seed.to_string(),
            "--mitigation".to_string(),
            cfg.mitigation.label(),
            "--dir".to_string(),
            args.dir.display().to_string(),
        ]
    })
    .map_err(Error::from)?;
    let workers_done = started.elapsed();

    // Stitch every superstep back into global worker order and close its
    // barrier, chaining per-superstep fingerprints exactly as
    // `run_bsp_sharded` does so `--check` can compare like for like.
    let mut pooled: Vec<f64> = Vec::with_capacity(cfg.supersteps * cfg.n_workers);
    let mut chain = 0xcbf2_9ce4_8422_2325u64;
    for s in 0..cfg.supersteps {
        let stripes = (0..args.shards)
            .map(|i| {
                let path = outcome_path(&args.dir, s, ShardSpec::new(i, args.shards));
                let text = std::fs::read_to_string(path).map_err(Error::from)?;
                decode_outcomes(&text, cfg.n_workers)
            })
            .collect::<Result<Vec<_>>>()?;
        let mut outcomes = stitch_outcomes(cfg.n_workers, stripes)
            .map_err(|e| Error::Config(format!("superstep {s}: {e}")))?;
        let stats = finalize_superstep(cfg, s, &mut outcomes)?;
        pooled.extend(outcomes.iter().map(|o| o.slowdown));
        let fp = fingerprint_outcomes(&outcomes);
        for b in fp.to_le_bytes() {
            chain ^= b as u64;
            chain = chain.wrapping_mul(0x100_0000_01b3);
        }
        println!(
            "superstep {s}: barrier {:.2}s median {:.2}s p99 {:.2}s tail {:.3}",
            stats.barrier_secs, stats.median_secs, stats.p99_secs, stats.tail_mass
        );
    }
    let pooled_tail = lossburst::analysis::stats::tail_mass_in_place(&mut pooled)
        .unwrap_or_else(|| die("pooled slowdowns are degenerate"));
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "bsp: {} workers x {} supersteps x {} shards ({}), pooled tail {:.3}, fingerprint {:016x}",
        cfg.n_workers,
        cfg.supersteps,
        args.shards,
        cfg.mitigation.label(),
        pooled_tail,
        chain
    );
    println!(
        "wall: workers {:.1}s, total {:.1}s",
        workers_done.as_secs_f64(),
        elapsed
    );

    if args.check {
        let reference = run_bsp(cfg)?;
        if reference.fingerprint != chain {
            die(&format!(
                "sharded fingerprint {chain:016x} != in-process {:016x}",
                reference.fingerprint
            ));
        }
        println!(
            "check: in-process re-run matches bit-for-bit (fingerprint {:016x})",
            reference.fingerprint
        );
    }
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
