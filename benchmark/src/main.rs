//! Command line of the benchmark.
//!
//! ```text
//! lossburst-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     the contract form: one workload, time-boxed, one JSON line last
//! lossburst-benchmark run   [--seed N] [--scale S]
//! lossburst-benchmark trace [--seed N] [--scale S] [--seconds S]
//! lossburst-benchmark agree [--seed N] [--scale S]
//! lossburst-benchmark manifest        print BENCHMARK.json
//! ```

use lossburst_benchmark::child::{self, ChildArgs, ChildMode};
use lossburst_benchmark::harness;
use lossburst_benchmark::spec;
use lossburst_benchmark::workloads::Scale;
use std::process::ExitCode;

const USAGE: &str = "usage:
  lossburst-benchmark --workload NAME --seed N --seconds S --trace 0|1
  lossburst-benchmark run   [--seed N] [--scale full|bench|smoke]
  lossburst-benchmark trace [--seed N] [--scale full|bench|smoke] [--seconds S]
  lossburst-benchmark agree [--seed N] [--scale full|bench|smoke]
  lossburst-benchmark manifest";

/// Every flag any mode takes; a mode reads the ones it needs.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    spawned_at_ns: u128,
    child_mode: ChildMode,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 2006, // the measurement year
        seconds: None,
        trace: false,
        scale: Scale::Full,
        spawned_at_ns: child::unix_nanos(),
        child_mode: ChildMode::Job,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => f.scale = Scale::parse(value).ok_or_else(bad)?,
            "--spawned-at-ns" => f.spawned_at_ns = value.parse().map_err(|_| bad())?,
            "--trace-seconds" => {
                f.child_mode = ChildMode::Traced(value.parse().map_err(|_| bad())?)
            }
            "--setup-only" => f.child_mode = ChildMode::SetupOnly,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "agree" | "manifest" | "child")) => (m, &args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => ("contract", &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode {
        "manifest" => {
            print!("{}", spec::manifest().to_pretty());
            true
        }
        "run" => harness::run_all(flags.seed, flags.scale),
        "agree" => harness::agree(flags.seed, flags.scale),
        "trace" => harness::trace_all(
            flags.seed,
            flags.scale,
            flags.seconds.unwrap_or(spec::RUN_SECONDS as f64),
        ),
        "child" => {
            let Some(workload) = flags.workload else {
                eprintln!("child requires --workload\n{USAGE}");
                return ExitCode::from(2);
            };
            match child::run(&ChildArgs {
                workload,
                seed: flags.seed,
                scale: flags.scale,
                spawned_at_ns: flags.spawned_at_ns,
                mode: flags.child_mode,
            }) {
                Ok(report) => {
                    println!("{}", report.to_line());
                    true
                }
                Err(e) => {
                    eprintln!("{e}");
                    false
                }
            }
        }
        _ => {
            let (Some(workload), Some(seconds)) = (flags.workload, flags.seconds) else {
                eprintln!("--workload and --seconds are required\n{USAGE}");
                return ExitCode::from(2);
            };
            let code = harness::contract(&workload, flags.seed, seconds, flags.trace);
            return ExitCode::from(code);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
