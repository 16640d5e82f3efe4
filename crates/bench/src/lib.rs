//! # lossburst-bench
//!
//! The paper's regenerators: one binary per table/figure (`table1`,
//! `fig2`, `fig3`, `fig4`, `fig56_model`, `fig7`, `fig8`) that prints the
//! same rows/series the paper reports, plus `ablations` and
//! `fairness_matrix` for the extensions. Each accepts `--full` for a
//! paper-scale run and ends with a `paper-vs-measured` footer comparing
//! the reproduction against the numbers the paper states.

use lossburst_core::registry::Verdict;

/// Minimal flag parsing shared by the figure binaries.
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
    fn usage_error(problem: &str, usage: &str) -> ! {
        eprintln!("{problem}; {usage}");
        std::process::exit(2)
    }

    /// Reject an argument no flag of this bin matches.
    fn unknown_flag(flag: &str, usage: &str) -> ! {
        usage_error(&format!("unknown flag {flag}"), usage)
    }

    /// The value that follows `flag`, parsed. A missing or unparsable one
    /// is a [`usage_error`]: `"<flag> requires <what>; <usage>"`.
    fn value<T: std::str::FromStr>(
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

/// The value of a sweep or an export, or, on its error, `<label>: <error>`
/// on stderr and exit 1 — never a panic.
pub fn or_exit<T, E: std::fmt::Display>(label: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{label}: {e}");
        std::process::exit(1)
    })
}

/// The study of a paper sweep (Figs 2–4) whose every row measured. A
/// sweep error is [`or_exit`]'s; a ledger row that failed every attempt is
/// named on stderr (`<label>: row <index> failed: <reason>`) and the bin
/// exits 1.
pub fn measured(
    label: &str,
    run: lossburst_core::error::Result<lossburst_core::supervisor::SupervisedStudy>,
) -> lossburst_core::campaign::LossStudy {
    let run = or_exit(label, run);
    let mut failed = false;
    for row in &run.ledger {
        if let lossburst_core::supervisor::PathOutcome::Failed(reason) = &row.outcome {
            eprintln!("{label}: row {} failed: {reason}", row.index);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    run.study
}

/// Print the standard paper-vs-measured footer: `shape holds: YES`, or
/// `shape holds: NO (<the broken bound>)`.
pub fn verdict(label: &str, paper: &str, measured: String, holds: Verdict) {
    println!("\n# paper-vs-measured [{label}]");
    println!("#   paper:    {paper}");
    println!("#   measured: {measured}");
    match holds {
        Ok(()) => println!("#   shape holds: YES"),
        Err(bound) => println!("#   shape holds: NO ({bound})"),
    }
}
