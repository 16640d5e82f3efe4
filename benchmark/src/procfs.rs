//! Process CPU time and peak resident memory from `/proc`.
//!
//! The parsers take the file text so tests can feed them fixtures; the
//! `read_*` wrappers return `None` where `/proc` does not exist, and the
//! caller reports the metric as unavailable instead of guessing.

use std::time::Duration;

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks.
///
/// The command name (field 2) is parenthesized and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.rsplit_once(')')?.1;
    // After the comm field: state is field 3, utime field 14, stime 15.
    let mut it = rest.split_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// On-CPU nanoseconds of a `/proc/<pid>/task/<tid>/schedstat` line (its
/// first field).
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = it.next()?.parse().ok()?;
    (it.next() == Some("kB")).then_some(kb)
}

/// Linux's USER_HZ; `/proc/self/stat` reports CPU time in these ticks.
const TICKS_PER_SEC: u64 = 100;

/// CPU time (user + system, every thread) this process has used so far.
///
/// Sums the per-thread scheduler clocks, which count nanoseconds; the
/// 10 ms ticks of `/proc/self/stat` are the fallback on kernels built
/// without scheduler statistics. The benchmark's threads (the worker
/// pool) live until exit, so no thread's time is lost between two reads.
pub fn read_cpu_time() -> Option<Duration> {
    let per_thread: Option<u64> = std::fs::read_dir("/proc/self/task").ok().and_then(|dir| {
        dir.map(|entry| {
            let path = entry.ok()?.path().join("schedstat");
            parse_schedstat_run_ns(&std::fs::read_to_string(path).ok()?)
        })
        .sum()
    });
    match per_thread {
        Some(ns) if ns > 0 => Some(Duration::from_nanos(ns)),
        _ => {
            let ticks = parse_stat_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
            Some(Duration::from_nanos(
                ticks.saturating_mul(1_000_000_000 / TICKS_PER_SEC),
            ))
        }
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn read_peak_rss_mb() -> Option<f64> {
    let kb = parse_status_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kb as f64 / 1024.0)
}
