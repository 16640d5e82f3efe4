//! A bad command line is a usage error — `"<problem>; <usage>"` on stderr,
//! exit 2 — and a run that cannot finish is `"<bin>: <error>"`, exit 1 —
//! in every bin, never a panic (exit 101).

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

/// An export that cannot be written is a run error — `"<bin>: <error>"` on
/// stderr, exit 1 — not a panic.
#[test]
fn an_unwritable_export_exits_1_naming_the_bin() {
    let dir = std::env::temp_dir().join(format!("lossburst_cli_export_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("a_file");
    std::fs::write(&file, "").expect("regular file");
    let under_file = file.join("export");
    let out = Command::new(env!("CARGO_BIN_EXE_fairness_matrix"))
        .arg("--export")
        .arg(&under_file)
        .output()
        .expect("bin runs");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("fairness_matrix: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
