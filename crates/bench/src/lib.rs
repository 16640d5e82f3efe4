//! # lossburst-bench
//!
//! The paper's regenerators: one binary per table/figure (`table1`,
//! `fig2`, `fig3`, `fig4`, `fig56_model`, `fig7`, `fig8`) that prints the
//! same rows/series the paper reports, plus `ablations` and
//! `fairness_matrix` for the extensions. Each accepts `--full` for a
//! paper-scale run and ends with a `paper-vs-measured` footer comparing
//! the reproduction against the numbers the paper states.
//!
//! `hybrid_perf` times the one layer the repo's benchmark (`benchmark/`,
//! its own package) has no workload for yet, the fluid background, and
//! writes `BENCH_HYBRID.json`.

/// Minimal flag parsing shared by the figure and bench binaries.
pub mod cli {
    /// Parsed common flags.
    #[derive(Clone, Debug)]
    pub struct Args {
        /// Run at paper scale instead of laptop scale.
        pub full: bool,
        /// Master seed.
        pub seed: u64,
        /// Directory to export plottable TSV series into, if requested.
        pub export: Option<std::path::PathBuf>,
    }

    /// Reject the command line: `"<problem>; <usage>"` on stderr, exit 2.
    pub fn usage_error(problem: &str, usage: &str) -> ! {
        eprintln!("{problem}; {usage}");
        std::process::exit(2)
    }

    /// Reject an argument no flag of this bin matches.
    pub fn unknown_flag(flag: &str, usage: &str) -> ! {
        usage_error(&format!("unknown flag {flag}"), usage)
    }

    /// The value that follows `flag`, parsed. A missing or unparsable one
    /// is a [`usage_error`]: `"<flag> requires <what>; <usage>"`.
    pub fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
        usage: &str,
    ) -> T {
        match args.next().and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => usage_error(&format!("{flag} requires {what}"), usage),
        }
    }

    /// Parse `--full`, `--seed N` and `--export DIR` from the process
    /// arguments.
    pub fn parse() -> Args {
        const USAGE: &str =
            "flags: --full (paper-scale run), --seed N (default 2006), --export DIR (write TSV series)";
        let mut full = false;
        let mut seed = 2006; // the measurement year
        let mut export = None;
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => full = true,
                "--seed" => seed = value(&mut it, "--seed", "an integer", USAGE),
                "--export" => export = Some(value(&mut it, "--export", "a directory", USAGE)),
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => unknown_flag(other, USAGE),
            }
        }
        Args { full, seed, export }
    }
}

/// Host/scheduler provenance stamped into the two `BENCH_*.json` headers,
/// so a committed bench artifact records the environment that produced it:
/// the host's CPU count, the effective worker-pool width, the raw
/// `LOSSBURST_THREADS` override (if any), and the active scheduler policy.
pub mod provenance {
    use rayon::{current_num_threads, execution_policy, ExecutionPolicy, THREADS_ENV};

    /// A snapshot of the benchmarking environment.
    #[derive(Clone, Debug)]
    pub struct Provenance {
        /// `std::thread::available_parallelism()` on the bench host.
        pub host_cpus: usize,
        /// Effective worker-pool width (`rayon::current_num_threads`).
        pub threads: usize,
        /// Raw `LOSSBURST_THREADS` value, if set.
        pub threads_env: Option<String>,
        /// Active scheduler policy at capture time.
        pub policy: ExecutionPolicy,
    }

    /// Pin the pool width before the pool's one-time initialization, then
    /// snapshot the environment: a `--threads` flag wins, then an existing
    /// `LOSSBURST_THREADS`, then 4 (so that a comparison across workers
    /// means something even on a small host).
    pub fn capture_with_threads(threads_flag: Option<usize>) -> Provenance {
        if let Some(t) = threads_flag {
            std::env::set_var(THREADS_ENV, t.to_string());
        } else if std::env::var(THREADS_ENV).is_err() {
            std::env::set_var(THREADS_ENV, "4");
        }
        Provenance {
            host_cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            threads: current_num_threads(),
            threads_env: std::env::var(THREADS_ENV).ok(),
            policy: execution_policy(),
        }
    }

    impl Provenance {
        /// The policy as the lowercase token the JSON headers use.
        fn policy_name(&self) -> &'static str {
            match self.policy {
                ExecutionPolicy::Serial => "serial",
                ExecutionPolicy::WorkStealing => "workstealing",
            }
        }

        /// The header fragment both `BENCH_*.json` files embed: four
        /// comma-separated JSON fields (no surrounding braces), e.g.
        /// `"host_cpus": 1, "threads": 4, "threads_env": "4",
        /// "scheduler_policy": "workstealing"`.
        pub fn json_fields(&self) -> String {
            let env = match &self.threads_env {
                Some(v) => format!("\"{}\"", v.escape_default()),
                None => "null".to_string(),
            };
            format!(
                "\"host_cpus\": {}, \"threads\": {}, \"threads_env\": {env}, \"scheduler_policy\": \"{}\"",
                self.host_cpus,
                self.threads,
                self.policy_name(),
            )
        }
    }
}

/// Print the standard paper-vs-measured footer line.
pub fn verdict(label: &str, paper: &str, measured: String, holds: bool) {
    println!("\n# paper-vs-measured [{label}]");
    println!("#   paper:    {paper}");
    println!("#   measured: {measured}");
    println!("#   shape holds: {}", if holds { "YES" } else { "NO" });
}
