//! A bad command line is a usage error — `"<problem>; <usage>"` on stderr,
//! exit 2 — in every bin, never a panic (exit 101).

use std::process::Command;

fn rejected(exe: &str, args: &[&str], problem: &str) {
    let out = Command::new(exe).args(args).output().expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        stderr.starts_with(problem) && stderr.contains("; "),
        "{exe} {args:?}: {stderr}"
    );
}

#[test]
fn missing_and_garbled_flag_values_exit_2() {
    let fairness = env!("CARGO_BIN_EXE_fairness_matrix");
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    rejected(fig2, &["--seed", "abc"], "--seed requires an integer");
    rejected(fig2, &["--export"], "--export requires a directory");
    rejected(fairness, &["--seed", "abc"], "--seed requires an integer");
    rejected(fairness, &["--nope"], "unknown flag --nope");
}
