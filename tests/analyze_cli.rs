//! `lossburst-analyze` on hostile input: a bad `--rtt-ms`, an output that
//! cannot be written and a trace spanning more RTT windows than an `f64`
//! tells apart each end in an `error:` line and an exit code, never a
//! panic or an abort. A trace spanning 10^10 windows is analyzed.

use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Write `lines` as a trace file named after `tag`.
fn trace(tag: &str, lines: &[&str]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lossburst_analyze_{}_{tag}.log",
        std::process::id()
    ));
    std::fs::write(&path, lines.join("\n")).expect("the trace file is written");
    path
}

/// A short trace of sub-RTT clusters.
fn clustered(tag: &str) -> PathBuf {
    trace(tag, &["0.0", "0.0005", "0.001", "0.25", "0.2502", "0.6"])
}

/// Run the bin on `path` with `args` and `stdout`, require exit `code` and
/// an `error:` line on stderr, and remove the trace.
fn rejects(path: PathBuf, args: &[&str], stdout: Stdio, code: i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_lossburst-analyze"))
        .arg(&path)
        .args(args)
        .stdout(stdout)
        .output()
        .expect("the analyze bin runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn a_zero_rtt_is_rejected() {
    rejects(clustered("zero"), &["--rtt-ms", "0"], Stdio::null(), 2);
}

#[test]
fn a_negative_rtt_is_rejected() {
    rejects(clustered("negative"), &["--rtt-ms", "-5"], Stdio::null(), 2);
}

#[test]
fn a_nan_rtt_is_rejected() {
    rejects(clustered("nan"), &["--rtt-ms", "nan"], Stdio::null(), 2);
}

#[test]
fn an_infinite_rtt_is_rejected() {
    rejects(clustered("inf"), &["--rtt-ms", "inf"], Stdio::null(), 2);
}

/// `/dev/full` fails every write, as a closed pipe does for `| head -1`.
#[test]
fn an_unwritable_output_is_an_error() {
    let full = || {
        File::options()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full")
    };
    rejects(clustered("tsv_full"), &["--tsv"], full().into(), 1);
    rejects(clustered("text_full"), &[], full().into(), 1);
}

/// 10^10 windows of 100 ms: the window counts of the dense analysis alone
/// were 80 GB. The analysis costs per loss, so the trace is analyzed.
#[test]
fn a_trace_spanning_ten_billion_windows_is_analyzed() {
    let path = trace("span", &["0", "0.0001", "1e9"]);
    let start = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lossburst-analyze"))
        .arg(&path)
        .output()
        .expect("the analyze bin runs");
    let elapsed = start.elapsed();
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dispersion = (stdout.split("index of dispersion ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok());
    assert!(
        dispersion.is_some_and(f64::is_finite),
        "no finite index of dispersion in:\n{stdout}"
    );
    assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
}

/// At 10^-300 ms even a one-second trace's window count overflows `usize`.
#[test]
fn a_vanishing_rtt_is_rejected() {
    rejects(
        clustered("tiny_rtt"),
        &["--rtt-ms", "1e-300"],
        Stdio::null(),
        2,
    );
}
