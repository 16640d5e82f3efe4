//! The campaign supervisor: fault-isolated, budgeted, resumable sweeps.
//!
//! The paper's Internet study probed 650 directed PlanetLab paths and was
//! built around partial failure — paths whose paired traces disagreed were
//! simply discarded. The built-in campaign runners, by contrast, assume
//! every path run succeeds: one panic (a NaN timestamp, a simulator bug on
//! one scenario) aborts the whole sweep, and an interrupted multi-hour run
//! restarts from zero. This module adds the missing harness layer:
//!
//! * a **fault boundary** per path — `catch_unwind` inside the worker
//!   closure, so a panicking path becomes one `Failed` ledger row instead
//!   of tearing down the pool (the vendored pool re-propagates uncaught
//!   worker panics; catching *inside* the closure keeps it oblivious);
//! * **per-path retry** with deterministic seeded backoff;
//! * **budgets** — an event budget enforced inside the simulator's event
//!   loop (via [`RunLimits`], threaded through `SimBuilder`) plus a
//!   wall-clock budget checked when the path returns;
//! * **checkpoint/resume** — completed paths append to a
//!   [`CampaignCheckpoint`] file as they finish, and a rerun with the same
//!   checkpoint restores them (data, retry count, and failure reason all
//!   exact), so an interrupted sweep resumes where it left off and the
//!   resumed output is byte-identical to an uninterrupted run;
//! * a structured [`PathOutcome`] **ledger** instead of all-or-nothing
//!   output;
//! * a deterministic **[`FaultPlan`]** (panic / timeout / NaN-trace /
//!   empty-trace on chosen path indices) so all of the above is testable
//!   byte-for-byte.
//!
//! The generic engine is [`supervise`]. [`crate::shard`] applies it to the
//! Internet campaign ([`crate::shard::run_grid_streaming_supervised`] is
//! the supervised campaign at any path count), and
//! [`ns2_study_supervised`] applies it to the `emu::testbed` lab sweep.
//! Each sweep has one measurement path — the sink-driven probe or testbed
//! run — whether supervised or not.

use crate::campaign::{lab_cell, lab_cells, lab_label, LabCampaignConfig, LossStudy};
use lossburst_analysis::intervals;
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_emu::testbed::EventBudgetExceeded;
use lossburst_inet::campaign::{StreamCampaignResult, StreamPathMeasurement};
use lossburst_inet::probe::{validate_streaming, ProbeError};
use lossburst_netsim::sim::RunLimits;
use lossburst_netsim::time::SimDuration;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A deterministic fault to inject into a supervised path run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic out of the simulator's event loop (via
    /// [`RunLimits::panic_at_event`]), exactly where a genuine simulator
    /// bug would surface — on whatever worker thread runs the path.
    Panic,
    /// A wall-clock budget overrun. Synthesized deterministically, without
    /// sleeping: a real sleep would make which attempt trips the budget
    /// depend on machine speed, and the ledger must not.
    Timeout,
    /// Poison the path's loss trace with a NaN timestamp after the run —
    /// the failure mode that used to panic `inter_event_intervals`.
    NanTrace,
    /// Empty the path's loss trace after the run (a loss-free path is a
    /// valid measurement, so this must yield `Ok`, not a failure).
    EmptyTrace,
}

/// How a fault applies to one path index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FaultSpec {
    /// Which fault to inject.
    pub(crate) kind: FaultKind,
    /// How many leading attempts it strikes: `1` makes the first attempt
    /// fail and the retry succeed (outcome `Retried(1)`), [`u32::MAX`]
    /// makes the fault persistent (outcome `Failed` once retries are
    /// spent).
    pub(crate) attempts: u32,
}

/// A seeded, per-path-index fault schedule. Empty by default; campaigns
/// run it unchanged in production and populated in robustness tests.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for everything randomized under supervision (currently the
    /// retry backoff jitter).
    pub(crate) seed: u64,
    faults: BTreeMap<usize, FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: BTreeMap::new(),
        }
    }

    /// Inject `kind` at path `index` for the first `attempts` attempts.
    pub(crate) fn inject(mut self, index: usize, kind: FaultKind, attempts: u32) -> FaultPlan {
        self.faults.insert(index, FaultSpec { kind, attempts });
        self
    }

    /// Inject `kind` at path `index` on the first attempt only (a retry
    /// will succeed).
    pub fn once(self, index: usize, kind: FaultKind) -> FaultPlan {
        self.inject(index, kind, 1)
    }

    /// Inject `kind` at path `index` on every attempt (the path will end
    /// up `Failed`).
    pub fn always(self, index: usize, kind: FaultKind) -> FaultPlan {
        self.inject(index, kind, u32::MAX)
    }

    /// The fault active for `index` on 0-based `attempt`, if any.
    fn active(&self, index: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .get(&index)
            .filter(|s| attempt < s.attempts)
            .map(|s| s.kind)
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// Why a supervised path run failed. `Display` strings are stable: they
/// are recorded in checkpoints and compared across resumed runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathFailure {
    /// The path's simulation panicked (message attached).
    Panic(String),
    /// The per-path event budget was spent mid-run.
    EventBudget {
        /// Events processed when the budget tripped.
        events: u64,
    },
    /// The per-path wall-clock budget was exceeded (`injected` marks the
    /// deterministic [`FaultKind::Timeout`] variant).
    WallClock {
        /// Whether this overrun was injected by a [`FaultPlan`].
        injected: bool,
    },
    /// The path produced a NaN-bearing loss trace.
    NanTrace,
}

impl std::fmt::Display for PathFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathFailure::Panic(msg) => write!(f, "panic: {msg}"),
            PathFailure::EventBudget { events } => {
                write!(f, "event budget spent after {events} events")
            }
            PathFailure::WallClock { injected: true } => {
                write!(f, "wall-clock budget exceeded (injected)")
            }
            PathFailure::WallClock { injected: false } => {
                write!(f, "wall-clock budget exceeded")
            }
            PathFailure::NanTrace => write!(f, "NaN in loss trace"),
        }
    }
}

impl From<ProbeError> for PathFailure {
    fn from(e: ProbeError) -> PathFailure {
        match e {
            ProbeError::EventBudget { events } => PathFailure::EventBudget { events },
        }
    }
}

impl From<EventBudgetExceeded> for PathFailure {
    fn from(e: EventBudgetExceeded) -> PathFailure {
        PathFailure::EventBudget { events: e.events }
    }
}

/// The structured per-path verdict of a supervised sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathOutcome {
    /// Measured successfully on the first attempt.
    Ok,
    /// Measured successfully after this many retries.
    Retried(u32),
    /// All attempts failed; the final failure's reason string.
    Failed(String),
    /// Not executed: the run was interrupted (see
    /// [`SupervisorConfig::stop_after`]) before this path's turn.
    Skipped,
}

impl PathOutcome {
    /// Whether the path yielded a usable measurement.
    pub fn is_ok(&self) -> bool {
        matches!(self, PathOutcome::Ok | PathOutcome::Retried(_))
    }
}

/// One ledger row: path index plus its outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Path index in campaign execution order.
    pub index: usize,
    /// What happened to it.
    pub outcome: PathOutcome,
}

/// Outcome totals over a ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Paths measured on the first attempt.
    pub ok: usize,
    /// Paths measured after at least one retry.
    pub retried: usize,
    /// Paths that failed every attempt.
    pub failed: usize,
    /// Paths never executed (interrupted run).
    pub skipped: usize,
}

/// Tally a ledger.
pub(crate) fn count_outcomes(ledger: &[LedgerEntry]) -> OutcomeCounts {
    let mut c = OutcomeCounts::default();
    for e in ledger {
        match e.outcome {
            PathOutcome::Ok => c.ok += 1,
            PathOutcome::Retried(_) => c.retried += 1,
            PathOutcome::Failed(_) => c.failed += 1,
            PathOutcome::Skipped => c.skipped += 1,
        }
    }
    c
}

// ---------------------------------------------------------------------------
// Supervisor configuration
// ---------------------------------------------------------------------------

/// Knobs for a supervised sweep.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Retries after the first failed attempt (so a path is tried at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// Base backoff in milliseconds between retries (doubled per attempt,
    /// plus seeded jitter below one base unit). `0` disables sleeping —
    /// the right setting for tests and for purely CPU-bound local sweeps.
    pub backoff_base_ms: u64,
    /// Per-path event budget, enforced inside the simulator's event loop
    /// — the defense against runaway simulations that would otherwise hang
    /// a worker forever.
    pub max_events_per_path: Option<u64>,
    /// Per-path wall-clock budget, checked when the attempt returns. A
    /// path over budget is failed (and retried, subject to `max_retries`).
    pub wall_budget: Option<Duration>,
    /// Checkpoint file. When set, completed paths are appended as they
    /// finish and restored on the next run with the same campaign
    /// fingerprint.
    pub checkpoint: Option<PathBuf>,
    /// Deterministic fault schedule (empty in production).
    pub faults: FaultPlan,
    /// Execute at most this many paths this invocation, then mark the rest
    /// `Skipped` — the interruption drill used by resume tests (a real
    /// kill -9 leaves the checkpoint in the same state).
    pub stop_after: Option<usize>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 1,
            backoff_base_ms: 0,
            max_events_per_path: None,
            wall_budget: None,
            checkpoint: None,
            faults: FaultPlan::default(),
            stop_after: None,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic backoff before retry `attempt` (1-based) of `path`:
/// exponential in the attempt with seeded sub-base jitter, so identical
/// campaigns sleep identically. Zero when `base_ms` is zero.
pub(crate) fn backoff_delay(base_ms: u64, seed: u64, path: usize, attempt: u32) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let exp = base_ms.saturating_mul(1u64 << attempt.min(6));
    let jitter = splitmix64(seed ^ ((path as u64) << 8) ^ attempt as u64) % base_ms;
    Duration::from_millis(exp.saturating_add(jitter))
}

// ---------------------------------------------------------------------------
// Checkpointable path records
// ---------------------------------------------------------------------------

/// A per-path result that the supervisor can checkpoint and fault-inject.
///
/// `encode` must produce a single line (no `\n`) that `decode` restores
/// byte-exactly — floats round-trip as the hex of their bit patterns, so a
/// restored measurement is indistinguishable from a fresh one.
pub trait PathRecord: Sized + Send {
    /// Serialize to one checkpoint line (no newline).
    fn encode(&self) -> String;
    /// Restore from [`PathRecord::encode`]'s output; `None` on corrupt
    /// input (the record is then treated as never measured).
    fn decode(line: &str) -> Option<Self>;
    /// Poison the record's loss trace with a NaN timestamp
    /// ([`FaultKind::NanTrace`]).
    fn poison_nan(&mut self);
    /// Empty the record's loss trace ([`FaultKind::EmptyTrace`]).
    fn clear_losses(&mut self);
    /// Whether the record carries any NaN — checked on every successful
    /// attempt, so genuinely NaN-poisoned traces surface as
    /// [`PathFailure::NanTrace`] instead of panicking downstream analysis.
    fn has_nan(&self) -> bool;
}

// --- encode/decode helpers -------------------------------------------------

fn w_u64(out: &mut String, v: u64) {
    out.push(' ');
    out.push_str(&v.to_string());
}

fn w_f64(out: &mut String, v: f64) {
    out.push(' ');
    out.push_str(&format!("{:016x}", v.to_bits()));
}

fn w_vec_f64(out: &mut String, v: &[f64]) {
    w_u64(out, v.len() as u64);
    for &x in v {
        w_f64(out, x);
    }
}

struct Tokens<'a>(std::str::SplitAsciiWhitespace<'a>);

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Tokens<'a> {
        Tokens(line.split_ascii_whitespace())
    }
    fn u64(&mut self) -> Option<u64> {
        self.0.next()?.parse().ok()
    }
    fn usize(&mut self) -> Option<usize> {
        self.0.next()?.parse().ok()
    }
    fn bool(&mut self) -> Option<bool> {
        match self.0.next()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
    fn f64(&mut self) -> Option<f64> {
        // Floats are always written as exactly 16 hex digits (`{:016x}`);
        // a shorter token means a torn write, and accepting it would
        // silently restore a wrong value.
        let tok = self.0.next()?;
        if tok.len() != 16 {
            return None;
        }
        u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
    }
    fn vec_f64(&mut self) -> Option<Vec<f64>> {
        let n = self.usize()?;
        (0..n).map(|_| self.f64()).collect()
    }
}

fn encode_stream_outcome(out: &mut String, p: &lossburst_inet::probe::StreamProbeOutcome) {
    w_u64(out, p.sent);
    w_u64(out, p.received);
    w_u64(out, p.n_lost as u64);
    w_f64(out, p.loss_rate);
    w_u64(out, p.events);
    w_u64(out, p.trace_bytes as u64);
    w_vec_f64(out, &p.intervals_rtt);
}

fn decode_stream_outcome(
    t: &mut Tokens<'_>,
    rtt_secs: f64,
) -> Option<lossburst_inet::probe::StreamProbeOutcome> {
    let sent = t.u64()?;
    let received = t.u64()?;
    let n_lost = t.u64()? as usize;
    let loss_rate = t.f64()?;
    let events = t.u64()?;
    let trace_bytes = t.u64()? as usize;
    let intervals_rtt = t.vec_f64()?;
    // Rebuild the online accumulator from the checkpointed intervals,
    // anchoring the first loss at t = 0. Interval-derived statistics are
    // identical to the original's; absolute-time quantities shift with the
    // anchor. Campaign pooling consumes only `intervals_rtt`, so pooled
    // results are byte-identical either way.
    let mut stats = LossStreamStats::with_rtt(rtt_secs);
    if n_lost > 0 {
        let mut t_abs = 0.0;
        stats.push_loss_at(t_abs);
        for &iv in &intervals_rtt {
            t_abs += iv * rtt_secs;
            stats.push_loss_at(t_abs);
        }
    }
    Some(lossburst_inet::probe::StreamProbeOutcome {
        sent,
        received,
        n_lost,
        loss_rate,
        events,
        trace_bytes,
        intervals_rtt,
        stats,
        // The lost sequence numbers and the per-kind event breakdown are
        // fresh-run detail, not the measurement; neither is checkpointed,
        // so they restore empty.
        lost: Vec::new(),
        counts: Default::default(),
    })
}

impl PathRecord for StreamPathMeasurement {
    fn encode(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("spm");
        w_u64(&mut out, self.src as u64);
        w_u64(&mut out, self.dst as u64);
        w_u64(&mut out, self.rtt.as_nanos());
        w_u64(&mut out, self.validated as u64);
        encode_stream_outcome(&mut out, &self.small);
        encode_stream_outcome(&mut out, &self.large);
        out
    }

    fn decode(line: &str) -> Option<StreamPathMeasurement> {
        let mut t = Tokens::new(line);
        if t.0.next()? != "spm" {
            return None;
        }
        let src = t.usize()?;
        let dst = t.usize()?;
        let rtt = SimDuration::from_nanos(t.u64()?);
        let validated = t.bool()?;
        let rtt_secs = rtt.as_secs_f64();
        Some(StreamPathMeasurement {
            src,
            dst,
            rtt,
            validated,
            small: decode_stream_outcome(&mut t, rtt_secs)?,
            large: decode_stream_outcome(&mut t, rtt_secs)?,
        })
    }

    fn poison_nan(&mut self) {
        self.small.intervals_rtt.push(f64::NAN);
    }

    fn clear_losses(&mut self) {
        let rtt_secs = self.rtt.as_secs_f64();
        for p in [&mut self.small, &mut self.large] {
            p.intervals_rtt.clear();
            p.lost.clear();
            p.n_lost = 0;
            p.loss_rate = 0.0;
            p.received = p.sent;
            p.stats = LossStreamStats::with_rtt(rtt_secs);
        }
        self.validated = validate_streaming(&self.small, &self.large);
    }

    fn has_nan(&self) -> bool {
        intervals::has_nan(&self.small.intervals_rtt)
            || intervals::has_nan(&self.large.intervals_rtt)
    }
}

/// One lab-sweep cell's contribution: the RTT-normalized intervals it
/// pools plus its buffer high-water mark.
#[derive(Clone, Debug, PartialEq)]
pub struct LabCellRecord {
    /// RTT-normalized inter-loss intervals of the cell's run.
    pub intervals_rtt: Vec<f64>,
    /// Bytes the run held in trace buffers.
    pub trace_bytes: usize,
}

impl PathRecord for LabCellRecord {
    fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("lab");
        w_u64(&mut out, self.trace_bytes as u64);
        w_vec_f64(&mut out, &self.intervals_rtt);
        out
    }

    fn decode(line: &str) -> Option<LabCellRecord> {
        let mut t = Tokens::new(line);
        if t.0.next()? != "lab" {
            return None;
        }
        Some(LabCellRecord {
            trace_bytes: t.u64()? as usize,
            intervals_rtt: t.vec_f64()?,
        })
    }

    fn poison_nan(&mut self) {
        self.intervals_rtt.push(f64::NAN);
    }

    fn clear_losses(&mut self) {
        self.intervals_rtt.clear();
    }

    fn has_nan(&self) -> bool {
        intervals::has_nan(&self.intervals_rtt)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

const CHECKPOINT_MAGIC: &str = "lossburst-checkpoint v1";

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// A campaign's identity for checkpoint compatibility. A checkpoint with a
/// different fingerprint (different campaign label, seed, or path count)
/// is discarded and the file restarted rather than mixing incompatible
/// results.
pub fn campaign_fingerprint(label: &str, seed: u64, n_paths: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ splitmix64(seed) ^ splitmix64(n_paths as u64 ^ 0xA1CE)
}

/// A path restored from a checkpoint: the recorded outcome, exactly.
#[derive(Debug)]
pub enum RestoredPath<T> {
    /// The path had completed successfully after `retries` retries.
    Ok {
        /// Retries the original run needed.
        retries: u32,
        /// The decoded measurement.
        value: T,
    },
    /// The path had failed for the recorded reason after `retries`
    /// retries.
    Failed {
        /// Retries the original run spent.
        retries: u32,
        /// The recorded failure reason.
        reason: String,
    },
}

/// Append-only completed-path log with resume.
///
/// Plain text, one record per line, floats as hex bit patterns (restored
/// measurements are byte-identical to fresh ones):
///
/// ```text
/// lossburst-checkpoint v1 <fingerprint>
/// ok <index> <retries> <payload…>
/// failed <index> <retries> <hex-encoded reason>
/// ```
///
/// Records append and flush as each path finishes, so a killed process
/// loses at most the paths in flight. On open, a matching-fingerprint file
/// is parsed strictly (last record per index wins); a malformed header
/// fingerprint or any malformed record — unknown tag, unparseable index
/// or retry count, out-of-range index, undecodable payload, a final line
/// truncated by a crash mid-write — is an [`InvalidData`] error rather
/// than a silent partial resume. A missing or empty file, or one whose
/// (well-formed) fingerprint belongs to a different campaign, starts
/// fresh.
///
/// [`InvalidData`]: std::io::ErrorKind::InvalidData
pub struct CampaignCheckpoint {
    file: Mutex<std::io::BufWriter<File>>,
    warned: AtomicBool,
}

fn corrupt_record(path: &Path, line_no: usize, line: &str, why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "corrupt checkpoint {}: line {line_no} ({why}): {line:?}",
            path.display()
        ),
    )
}

/// Strictly parse the record lines of a checkpoint file body (everything
/// after the header), calling `sink(index, restored, raw_line)` per record
/// in file order. Shared between [`CampaignCheckpoint::open`] (resume) and
/// [`CampaignCheckpoint::merge`] (shard interchange); any malformed record
/// is an `InvalidData` error naming the line.
fn parse_checkpoint_records<T, F>(
    path: &Path,
    contents: &str,
    n_paths: usize,
    mut sink: F,
) -> std::io::Result<()>
where
    T: PathRecord,
    F: FnMut(usize, RestoredPath<T>, &str),
{
    for (n, line) in contents.lines().enumerate().skip(1) {
        let line_no = n + 1;
        let mut t = line.splitn(4, ' ');
        let tag = t.next().unwrap_or("");
        let idx: usize = t
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| corrupt_record(path, line_no, line, "bad or missing path index"))?;
        let retries: u32 = t
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| corrupt_record(path, line_no, line, "bad or missing retry count"))?;
        if idx >= n_paths {
            return Err(corrupt_record(
                path,
                line_no,
                line,
                "path index out of range",
            ));
        }
        let rest = t.next().unwrap_or("");
        match tag {
            "ok" => {
                let value = T::decode(rest)
                    .ok_or_else(|| corrupt_record(path, line_no, line, "undecodable payload"))?;
                sink(idx, RestoredPath::Ok { retries, value }, line);
            }
            "failed" => {
                let reason = hex_decode(rest.trim())
                    .and_then(|b| String::from_utf8(b).ok())
                    .ok_or_else(|| {
                        corrupt_record(path, line_no, line, "undecodable failure reason")
                    })?;
                sink(idx, RestoredPath::Failed { retries, reason }, line);
            }
            _ => return Err(corrupt_record(path, line_no, line, "unknown outcome tag")),
        }
    }
    Ok(())
}

/// What [`CampaignCheckpoint::merge`] combined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Shard files consumed.
    pub inputs: usize,
    /// Distinct path indices in the merged output.
    pub records: usize,
    /// Records overridden by a later one for the same index (within a file
    /// by position, across files by input order — last record wins).
    pub superseded: usize,
}

impl CampaignCheckpoint {
    /// Open (or create) `path` for a campaign with `fingerprint` and
    /// `n_paths` paths. Returns the checkpoint handle plus the restored
    /// state, index-aligned.
    #[allow(clippy::type_complexity)]
    pub fn open<T: PathRecord>(
        path: &Path,
        fingerprint: u64,
        n_paths: usize,
    ) -> std::io::Result<(CampaignCheckpoint, Vec<Option<RestoredPath<T>>>)> {
        let mut restored: Vec<Option<RestoredPath<T>>> = Vec::new();
        restored.resize_with(n_paths, || None);
        let header = format!("{CHECKPOINT_MAGIC} {fingerprint:016x}");

        let existing = match std::fs::File::open(path) {
            Ok(mut f) => {
                let mut s = String::new();
                f.read_to_string(&mut s)?;
                Some(s)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };

        // A file whose first line carries the magic IS a checkpoint and is
        // parsed strictly: resuming past corruption would silently re-run
        // (or worse, mis-attribute) completed paths. Anything else —
        // missing, empty, not ours — starts fresh.
        let first_line = existing.as_deref().and_then(|s| s.lines().next());
        let resumable = match first_line {
            Some(l) if l.starts_with(CHECKPOINT_MAGIC) => {
                let token = l[CHECKPOINT_MAGIC.len()..].trim();
                let fp = u64::from_str_radix(token, 16)
                    .map_err(|_| corrupt_record(path, 1, l, "corrupt fingerprint"))?;
                fp == fingerprint
            }
            _ => false,
        };
        // Buffered with an explicit flush per record: one write syscall per
        // append instead of one per format fragment, with crash-safety
        // unchanged (a record is durable before its result is reported).
        if resumable {
            parse_checkpoint_records::<T, _>(
                path,
                existing.as_deref().unwrap_or(""),
                n_paths,
                |idx, rp, _| restored[idx] = Some(rp),
            )?;
            let file = OpenOptions::new().append(true).open(path)?;
            Ok((
                CampaignCheckpoint {
                    file: Mutex::new(std::io::BufWriter::new(file)),
                    warned: AtomicBool::new(false),
                },
                restored,
            ))
        } else {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let mut file = std::io::BufWriter::new(File::create(path)?);
            writeln!(file, "{header}")?;
            file.flush()?;
            Ok((
                CampaignCheckpoint {
                    file: Mutex::new(file),
                    warned: AtomicBool::new(false),
                },
                restored,
            ))
        }
    }

    fn append(&self, line: &str) {
        let mut f = self.file.lock().expect("checkpoint lock");
        let res = writeln!(f, "{line}").and_then(|_| f.flush());
        if res.is_err() && !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!("warning: checkpoint append failed; resume will re-measure affected paths");
        }
    }

    /// Record a successful path (best-effort; a write failure only costs
    /// re-measurement on resume).
    pub fn record_ok<T: PathRecord>(&self, index: usize, retries: u32, value: &T) {
        self.append(&format!("ok {index} {retries} {}", value.encode()));
    }

    /// Record a failed path with its reason (best-effort).
    pub(crate) fn record_failed(&self, index: usize, retries: u32, reason: &str) {
        self.append(&format!(
            "failed {index} {retries} {}",
            hex_encode(reason.as_bytes())
        ));
    }

    /// Merge shard checkpoint files into one canonical checkpoint at `out`:
    /// the shared header plus each path's surviving record in index order.
    ///
    /// Unlike [`CampaignCheckpoint::open`] — where a foreign or missing
    /// file simply starts fresh — a merge set is an explicit claim that
    /// every input belongs to this campaign, so merging *refuses* loudly:
    ///
    /// * a missing input file is an error;
    /// * an input without the checkpoint header is an `InvalidData` error;
    /// * an input whose fingerprint differs is an `InvalidData` error
    ///   naming the file ("checkpoint fingerprint mismatch");
    /// * any malformed record — including a final line truncated by a
    ///   crashed shard — is an `InvalidData` error naming the line.
    ///
    /// A header-only input (a shard that completed no paths) is valid.
    /// Within a file the later record for an index wins (a resumed shard
    /// re-appends), and across files later inputs win; [`MergeReport`]
    /// counts the overridden records. The output is written via a
    /// temporary file and atomically renamed into place.
    pub fn merge<T: PathRecord>(
        inputs: &[PathBuf],
        out: &Path,
        fingerprint: u64,
        n_paths: usize,
    ) -> std::io::Result<MergeReport> {
        let mut lines: Vec<Option<String>> = Vec::new();
        lines.resize_with(n_paths, || None);
        let mut superseded = 0usize;
        for p in inputs {
            let contents = std::fs::read_to_string(p)?;
            let first = contents.lines().next().unwrap_or("");
            if !first.starts_with(CHECKPOINT_MAGIC) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("not a checkpoint (missing header): {}", p.display()),
                ));
            }
            let token = first[CHECKPOINT_MAGIC.len()..].trim();
            let fp = u64::from_str_radix(token, 16)
                .map_err(|_| corrupt_record(p, 1, first, "corrupt fingerprint"))?;
            if fp != fingerprint {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint fingerprint mismatch in {}: {fp:016x} != {fingerprint:016x}",
                        p.display()
                    ),
                ));
            }
            parse_checkpoint_records::<T, _>(p, &contents, n_paths, |idx, _, raw| {
                if lines[idx].replace(raw.to_string()).is_some() {
                    superseded += 1;
                }
            })?;
        }
        if let Some(dir) = out.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = out.with_extension("tmp");
        {
            let mut w = std::io::BufWriter::new(File::create(&tmp)?);
            writeln!(w, "{CHECKPOINT_MAGIC} {fingerprint:016x}")?;
            for line in lines.iter().flatten() {
                writeln!(w, "{line}")?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, out)?;
        Ok(MergeReport {
            inputs: inputs.len(),
            records: lines.iter().flatten().count(),
            superseded,
        })
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// What a supervised sweep produced.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Per-path results, index-aligned; `None` where the path failed or
    /// was skipped.
    pub(crate) results: Vec<Option<T>>,
    /// Per-path outcomes, index-aligned with the campaign's path order.
    pub(crate) ledger: Vec<LedgerEntry>,
    /// How many paths were restored from the checkpoint instead of run.
    pub restored: usize,
}

impl<T> SupervisedRun<T> {
    /// Outcome totals.
    pub(crate) fn counts(&self) -> OutcomeCounts {
        count_outcomes(&self.ledger)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `n_paths` independent path measurements under supervision: fault
/// boundary, retries with deterministic backoff, budgets, fault injection,
/// and checkpoint/resume. `runner(index, limits)` measures one path; it
/// must be deterministic in `index` (the supervisor may call it on any
/// worker thread, in any order, and once per attempt).
///
/// `fingerprint` identifies the campaign for checkpoint compatibility —
/// derive it from everything that determines the per-path work (see
/// [`campaign_fingerprint`]).
pub fn supervise<T, F>(
    n_paths: usize,
    fingerprint: u64,
    cfg: &SupervisorConfig,
    runner: F,
) -> crate::error::Result<SupervisedRun<T>>
where
    T: PathRecord,
    F: Fn(usize, RunLimits) -> Result<T, PathFailure> + Sync,
{
    supervise_impl(n_paths, None, fingerprint, cfg, runner)
}

/// [`supervise`] restricted to a subset of the campaign's path indices —
/// the shard worker's engine. The checkpoint, fingerprint, and ledger all
/// keep the *full* campaign geometry (`n_paths` entries, global indices),
/// so per-shard checkpoint files are directly mergeable
/// ([`CampaignCheckpoint::merge`]) and a merged file resumes through plain
/// [`supervise`]. Paths outside `subset` that the checkpoint does not
/// restore are marked [`PathOutcome::Skipped`]. `subset` must be strictly
/// increasing and in range.
pub(crate) fn supervise_subset<T, F>(
    n_paths: usize,
    subset: &[usize],
    fingerprint: u64,
    cfg: &SupervisorConfig,
    runner: F,
) -> crate::error::Result<SupervisedRun<T>>
where
    T: PathRecord,
    F: Fn(usize, RunLimits) -> Result<T, PathFailure> + Sync,
{
    assert!(
        subset.windows(2).all(|w| w[0] < w[1]),
        "subset must be strictly increasing"
    );
    if let Some(&last) = subset.last() {
        assert!(last < n_paths, "subset index {last} out of range");
    }
    supervise_impl(n_paths, Some(subset), fingerprint, cfg, runner)
}

fn supervise_impl<T, F>(
    n_paths: usize,
    subset: Option<&[usize]>,
    fingerprint: u64,
    cfg: &SupervisorConfig,
    runner: F,
) -> crate::error::Result<SupervisedRun<T>>
where
    T: PathRecord,
    F: Fn(usize, RunLimits) -> Result<T, PathFailure> + Sync,
{
    let (checkpoint, mut restored) = match &cfg.checkpoint {
        Some(path) => {
            let (ck, restored) = CampaignCheckpoint::open::<T>(path, fingerprint, n_paths)?;
            (Some(ck), restored)
        }
        None => {
            let mut v: Vec<Option<RestoredPath<T>>> = Vec::new();
            v.resize_with(n_paths, || None);
            (None, v)
        }
    };
    let n_restored = restored.iter().filter(|r| r.is_some()).count();

    let fresh: Vec<usize> = match subset {
        None => (0..n_paths).filter(|&i| restored[i].is_none()).collect(),
        Some(s) => s
            .iter()
            .copied()
            .filter(|&i| restored[i].is_none())
            .collect(),
    };
    let executed = AtomicUsize::new(0);

    let run_one = |index: usize| -> (Option<T>, PathOutcome) {
        if let Some(stop) = cfg.stop_after {
            // Counts execution *claims*, not completions: under work
            // stealing the skipped set varies between runs, but resume
            // re-measures whatever was skipped, so final outputs don't.
            if executed.fetch_add(1, Ordering::Relaxed) >= stop {
                return (None, PathOutcome::Skipped);
            }
        }
        let mut attempt: u32 = 0;
        loop {
            if attempt > 0 {
                let delay = backoff_delay(cfg.backoff_base_ms, cfg.faults.seed, index, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let fault = cfg.faults.active(index, attempt);
            let outcome: Result<T, PathFailure> = if fault == Some(FaultKind::Timeout) {
                Err(PathFailure::WallClock { injected: true })
            } else {
                let mut limits = RunLimits {
                    max_events: cfg.max_events_per_path,
                    panic_at_event: None,
                };
                if fault == Some(FaultKind::Panic) {
                    limits.panic_at_event = Some(1);
                }
                let started = Instant::now();
                // The fault boundary. Catching here — inside the worker
                // closure — keeps the pool's panic re-propagation machinery
                // out of the picture entirely.
                match catch_unwind(AssertUnwindSafe(|| runner(index, limits))) {
                    Err(payload) => Err(PathFailure::Panic(panic_message(payload))),
                    Ok(Err(failure)) => Err(failure),
                    Ok(Ok(mut value)) => {
                        match fault {
                            Some(FaultKind::NanTrace) => value.poison_nan(),
                            Some(FaultKind::EmptyTrace) => value.clear_losses(),
                            _ => {}
                        }
                        if value.has_nan() {
                            Err(PathFailure::NanTrace)
                        } else if cfg.wall_budget.is_some_and(|b| started.elapsed() > b) {
                            Err(PathFailure::WallClock { injected: false })
                        } else {
                            Ok(value)
                        }
                    }
                }
            };
            match outcome {
                Ok(value) => {
                    if let Some(ck) = &checkpoint {
                        ck.record_ok(index, attempt, &value);
                    }
                    let o = if attempt == 0 {
                        PathOutcome::Ok
                    } else {
                        PathOutcome::Retried(attempt)
                    };
                    return (Some(value), o);
                }
                Err(_) if attempt < cfg.max_retries => attempt += 1,
                Err(failure) => {
                    let reason = failure.to_string();
                    if let Some(ck) = &checkpoint {
                        ck.record_failed(index, attempt, &reason);
                    }
                    return (None, PathOutcome::Failed(reason));
                }
            }
        }
    };

    let fresh_results: Vec<(Option<T>, PathOutcome)> =
        fresh.par_iter().map(|&i| run_one(i)).collect();

    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(n_paths, || None);
    let mut ledger: Vec<LedgerEntry> = Vec::with_capacity(n_paths);
    let mut fresh_it = fresh.iter().zip(fresh_results);
    let mut next_fresh = fresh_it.next();
    for index in 0..n_paths {
        let outcome = match restored[index].take() {
            Some(RestoredPath::Ok { retries, value }) => {
                results[index] = Some(value);
                if retries == 0 {
                    PathOutcome::Ok
                } else {
                    PathOutcome::Retried(retries)
                }
            }
            Some(RestoredPath::Failed { reason, .. }) => PathOutcome::Failed(reason),
            None => match next_fresh.as_ref() {
                Some((&fi, _)) if fi == index => {
                    let (_, (value, outcome)) = next_fresh.take().expect("checked above");
                    next_fresh = fresh_it.next();
                    results[index] = value;
                    outcome
                }
                // Outside this invocation's subset: another shard's path.
                _ => PathOutcome::Skipped,
            },
        };
        ledger.push(LedgerEntry { index, outcome });
    }

    Ok(SupervisedRun {
        results,
        ledger,
        restored: n_restored,
    })
}

// ---------------------------------------------------------------------------
// Campaign entry points
// ---------------------------------------------------------------------------

/// A supervised Internet campaign's complete product.
#[derive(Debug)]
pub struct SupervisedStreamCampaign {
    /// Aggregated result over the successfully measured paths, in path
    /// order — exactly what `run_campaign_streaming` would produce
    /// restricted to those paths.
    pub result: StreamCampaignResult,
    /// Per-path outcome ledger (index-aligned with `pairs`).
    pub ledger: Vec<LedgerEntry>,
    /// The campaign's directed path sample, in execution order.
    pub pairs: Vec<(usize, usize)>,
    /// Paths restored from the checkpoint instead of re-measured.
    pub restored: usize,
}

impl SupervisedStreamCampaign {
    /// Outcome totals over the path ledger.
    pub fn counts(&self) -> OutcomeCounts {
        count_outcomes(&self.ledger)
    }
}

/// A supervised lab sweep's product: the pooled study over surviving
/// cells plus the cell outcome ledger.
#[derive(Debug)]
pub struct SupervisedStudy {
    /// The pooled study over successful cells, in cell order.
    pub study: LossStudy,
    /// Per-cell outcome ledger (index-aligned with
    /// [`crate::campaign::lab_cells`]).
    pub(crate) ledger: Vec<LedgerEntry>,
    /// Cells restored from the checkpoint instead of re-run.
    pub restored: usize,
}

impl SupervisedStudy {
    /// Outcome totals over the cell ledger.
    pub fn counts(&self) -> OutcomeCounts {
        count_outcomes(&self.ledger)
    }
}

/// The supervised NS-2 lab sweep (Fig 2): `ns2_study` with per-cell fault
/// isolation, budgets, and checkpoint/resume.
pub fn ns2_study_supervised(
    cfg: &LabCampaignConfig,
    sup: &SupervisorConfig,
) -> crate::error::Result<SupervisedStudy> {
    let n_cells = lab_cells(cfg).len();
    let label = lab_label(false);
    let fp = campaign_fingerprint(label, cfg.seed, n_cells);
    let run = supervise(n_cells, fp, sup, |i, limits| {
        lab_cell(cfg, false, i, limits)
    })?;
    let pooled: Vec<f64> = run
        .results
        .iter()
        .flatten()
        .flat_map(|c| c.intervals_rtt.iter().copied())
        .collect();
    Ok(SupervisedStudy {
        study: LossStudy::from_intervals(label, pooled),
        ledger: run.ledger,
        restored: run.restored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic runner: deterministic per-index payload, programmable
    /// failure schedule.
    fn payload(index: usize) -> LabCellRecord {
        LabCellRecord {
            intervals_rtt: vec![index as f64 * 0.25, 0.003, 1.0 / (index as f64 + 1.0)],
            trace_bytes: index * 10,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "lossburst_sup_{tag}_{}_{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_run_is_all_ok() {
        let cfg = SupervisorConfig::default();
        let run = supervise(5, 1, &cfg, |i, _| Ok(payload(i))).unwrap();
        assert_eq!(
            run.counts(),
            OutcomeCounts {
                ok: 5,
                ..Default::default()
            }
        );
        assert!(run.results.iter().all(|r| r.is_some()));
        assert_eq!(run.results[3].as_ref().unwrap(), &payload(3));
        assert_eq!(run.restored, 0);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let cfg = SupervisorConfig {
            max_retries: 1,
            ..Default::default()
        };
        // Path 2 panics on its first attempt only.
        let run = supervise(4, 1, &cfg, |i, _| {
            if i == 2 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("synthetic worker panic");
            }
            Ok(payload(i))
        })
        .unwrap();
        assert_eq!(run.ledger[2].outcome, PathOutcome::Retried(1));
        assert!(run.results[2].is_some());
        let c = run.counts();
        assert_eq!((c.ok, c.retried, c.failed), (3, 1, 0));
    }

    #[test]
    fn persistent_failure_exhausts_retries() {
        let cfg = SupervisorConfig {
            max_retries: 2,
            ..Default::default()
        };
        let run: SupervisedRun<LabCellRecord> = supervise(3, 1, &cfg, |i, _| {
            if i == 1 {
                Err(PathFailure::EventBudget { events: 99 })
            } else {
                Ok(payload(i))
            }
        })
        .unwrap();
        assert_eq!(
            run.ledger[1].outcome,
            PathOutcome::Failed("event budget spent after 99 events".into())
        );
        assert!(run.results[1].is_none());
    }

    #[test]
    fn wall_budget_fails_slow_paths() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            wall_budget: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let run = supervise(2, 1, &cfg, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            Ok(payload(i))
        })
        .unwrap();
        assert_eq!(
            run.ledger[0].outcome,
            PathOutcome::Failed("wall-clock budget exceeded".into())
        );
        assert_eq!(run.ledger[1].outcome, PathOutcome::Ok);
    }

    #[test]
    fn fault_plan_drives_all_four_kinds() {
        let cfg = SupervisorConfig {
            max_retries: 1,
            faults: FaultPlan::new(7)
                .always(0, FaultKind::Timeout)
                .once(1, FaultKind::NanTrace)
                .always(2, FaultKind::EmptyTrace)
                .always(3, FaultKind::NanTrace),
            ..Default::default()
        };
        let run = supervise(5, 1, &cfg, |i, _| Ok(payload(i))).unwrap();
        assert_eq!(
            run.ledger[0].outcome,
            PathOutcome::Failed("wall-clock budget exceeded (injected)".into())
        );
        assert_eq!(run.ledger[1].outcome, PathOutcome::Retried(1));
        // EmptyTrace is not a failure: a loss-free path is a valid result.
        assert_eq!(run.ledger[2].outcome, PathOutcome::Ok);
        assert!(run.results[2].as_ref().unwrap().intervals_rtt.is_empty());
        assert_eq!(
            run.ledger[3].outcome,
            PathOutcome::Failed("NaN in loss trace".into())
        );
        assert_eq!(run.ledger[4].outcome, PathOutcome::Ok);
    }

    #[test]
    fn injected_panic_goes_through_the_simulator() {
        // End-to-end: FaultKind::Panic must produce the event-loop panic
        // message, proving the fault is threaded through RunLimits into
        // netsim rather than synthesized at the supervisor layer.
        let lab = LabCampaignConfig {
            flow_counts: vec![4],
            buffer_bdp_fractions: vec![0.25],
            reference_rtt: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(3),
            seed: 5,
            background: Default::default(),
            cc: Default::default(),
        };
        let sup = SupervisorConfig {
            max_retries: 0,
            faults: FaultPlan::new(5).always(0, FaultKind::Panic),
            ..Default::default()
        };
        let out = ns2_study_supervised(&lab, &sup).unwrap();
        match &out.ledger[0].outcome {
            PathOutcome::Failed(reason) => assert!(
                reason.contains("injected fault: simulator panic at event"),
                "unexpected reason: {reason}"
            ),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(out.study.intervals_rtt.len(), 0, "single cell failed");
    }

    #[test]
    fn stop_after_skips_and_checkpoint_resumes_exactly() {
        let dir = tmpdir("resume");
        let ck = dir.join("run.ckpt");
        std::fs::remove_file(&ck).ok();
        let runner = |i: usize, _| {
            if i == 1 {
                Err(PathFailure::NanTrace)
            } else {
                Ok(payload(i))
            }
        };
        // Uninterrupted reference (no checkpoint).
        let reference = supervise(6, 9, &SupervisorConfig::default(), runner).unwrap();
        // Interrupted: only 2 paths execute, the rest are skipped.
        let interrupted = supervise(
            6,
            9,
            &SupervisorConfig {
                checkpoint: Some(ck.clone()),
                stop_after: Some(2),
                ..Default::default()
            },
            runner,
        )
        .unwrap();
        assert_eq!(interrupted.counts().skipped, 4);
        // Resume: restored paths come from the file, the rest run fresh.
        let resumed = supervise(
            6,
            9,
            &SupervisorConfig {
                checkpoint: Some(ck.clone()),
                ..Default::default()
            },
            runner,
        )
        .unwrap();
        assert_eq!(resumed.restored, 2);
        assert_eq!(resumed.ledger, reference.ledger);
        for (a, b) in resumed.results.iter().zip(&reference.results) {
            assert_eq!(a, b, "restored result differs from fresh");
        }
        // A third run restores everything and runs nothing.
        let third = supervise(
            6,
            9,
            &SupervisorConfig {
                checkpoint: Some(ck.clone()),
                ..Default::default()
            },
            runner,
        )
        .unwrap();
        assert_eq!(third.restored, 6);
        assert_eq!(third.ledger, reference.ledger);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_fingerprint_starts_fresh() {
        let dir = tmpdir("fp");
        let ck = dir.join("run.ckpt");
        std::fs::remove_file(&ck).ok();
        let cfg = SupervisorConfig {
            checkpoint: Some(ck.clone()),
            ..Default::default()
        };
        let first = supervise(3, 100, &cfg, |i, _| Ok(payload(i))).unwrap();
        assert_eq!(first.restored, 0);
        // Same file, different campaign identity: nothing restores.
        let second = supervise(3, 101, &cfg, |i, _| Ok(payload(i))).unwrap();
        assert_eq!(second.restored, 0);
        // And the file now belongs to fingerprint 101.
        let third = supervise(3, 101, &cfg, |i, _| Ok(payload(i))).unwrap();
        assert_eq!(third.restored, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write `contents` to a fresh checkpoint file and open it strictly.
    fn open_crafted(
        tag: &str,
        contents: &str,
        fingerprint: u64,
        n_paths: usize,
    ) -> std::io::Result<Vec<Option<RestoredPath<LabCellRecord>>>> {
        let dir = tmpdir(tag);
        let ck = dir.join("crafted.ckpt");
        std::fs::write(&ck, contents).unwrap();
        let res = CampaignCheckpoint::open::<LabCellRecord>(&ck, fingerprint, n_paths);
        std::fs::remove_dir_all(&dir).ok();
        res.map(|(_, restored)| restored)
    }

    fn header(fingerprint: u64) -> String {
        format!("{CHECKPOINT_MAGIC} {fingerprint:016x}")
    }

    #[test]
    fn corrupt_fingerprint_fails_loudly() {
        for bad in ["zzzz", "", "12345 extra"] {
            let err = open_crafted(
                "badfp",
                &format!("{CHECKPOINT_MAGIC} {bad}\nok 0 0 {}\n", payload(0).encode()),
                7,
                3,
            )
            .expect_err("malformed fingerprint must not open");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("corrupt fingerprint"),
                "unexpected message: {err}"
            );
        }
    }

    #[test]
    fn truncated_final_record_fails_loudly() {
        // A crash mid-append leaves a final line cut anywhere: after the
        // tag, after the index, or partway through the payload. All of
        // these must refuse to resume rather than silently re-measure.
        let ok_line = format!("ok 0 0 {}", payload(0).encode());
        let full = format!("{}\n{ok_line}\n", header(7));
        for cut in ["ok", "ok 1", "ok 1 0", "ok 1 0 lab 3", "failed 1 0 6f7"] {
            let err = open_crafted("trunc", &format!("{full}{cut}"), 7, 3)
                .expect_err(&format!("truncated record {cut:?} must not open"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("line 3"),
                "error should name the line: {err}"
            );
        }
        // The untruncated file, of course, still opens.
        let restored = open_crafted("trunc_ok", &full, 7, 3).unwrap();
        assert!(matches!(restored[0], Some(RestoredPath::Ok { .. })));
    }

    #[test]
    fn unknown_outcome_tag_fails_loudly() {
        let err = open_crafted(
            "badtag",
            &format!("{}\nmaybe 0 0 {}\n", header(7), payload(0).encode()),
            7,
            3,
        )
        .expect_err("unknown tag must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unknown outcome tag"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn out_of_range_index_fails_loudly() {
        let err = open_crafted(
            "badidx",
            &format!("{}\nok 9 0 {}\n", header(7), payload(9).encode()),
            7,
            3,
        )
        .expect_err("out-of-range index must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn record_roundtrips_are_byte_exact() {
        let rec = LabCellRecord {
            intervals_rtt: vec![0.1, f64::MIN_POSITIVE, 1e300, -0.0, 0.3 - 0.1],
            trace_bytes: 12345,
        };
        let back = LabCellRecord::decode(&rec.encode()).unwrap();
        assert_eq!(
            rec.intervals_rtt
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            back.intervals_rtt
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(rec.trace_bytes, back.trace_bytes);
        assert!(LabCellRecord::decode("garbage").is_none());
        assert!(LabCellRecord::decode("lab 3").is_none(), "truncated");
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let a = backoff_delay(10, 42, 3, 1);
        let b = backoff_delay(10, 42, 3, 1);
        assert_eq!(a, b);
        assert_eq!(backoff_delay(0, 42, 3, 1), Duration::ZERO);
        // Exponential envelope: attempt 3 >= 8x base, < 9x base.
        let d3 = backoff_delay(10, 42, 3, 3);
        assert!(d3 >= Duration::from_millis(80) && d3 < Duration::from_millis(90));
        // Jitter differs across paths.
        assert_ne!(backoff_delay(1000, 42, 1, 1), backoff_delay(1000, 42, 2, 1));
    }

    #[test]
    fn path_measurement_roundtrip_and_faults() {
        use lossburst_inet::probe::StreamProbeOutcome;
        let rtt = SimDuration::from_millis(50);
        let mk = |lost: Vec<u64>, times: Vec<f64>| {
            let mut stats = LossStreamStats::with_rtt(rtt.as_secs_f64());
            times.iter().for_each(|&t| stats.push_loss_at(t));
            StreamProbeOutcome {
                sent: 1000,
                received: 1000 - lost.len() as u64,
                n_lost: lost.len(),
                loss_rate: lost.len() as f64 / 1000.0,
                intervals_rtt: times.windows(2).map(|w| (w[1] - w[0]) / 0.05).collect(),
                lost,
                stats,
                events: 5000,
                counts: Default::default(),
                trace_bytes: 777,
            }
        };
        let m = StreamPathMeasurement {
            src: 3,
            dst: 17,
            rtt,
            small: mk(vec![5, 9, 200], vec![0.005, 0.009, 0.2]),
            large: mk(vec![7, 11, 300], vec![0.007, 0.011, 0.3]),
            validated: true,
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let back = StreamPathMeasurement::decode(&m.encode()).unwrap();
        assert_eq!((back.src, back.dst, back.rtt), (3, 17, m.rtt));
        assert!(back.validated);
        assert_eq!(back.small.n_lost, 3);
        assert_eq!(back.large.events, 5000);
        assert_eq!(
            bits(&back.large.intervals_rtt),
            bits(&m.large.intervals_rtt)
        );
        // The count is checkpointed; the sequence numbers are not.
        assert!(back.small.lost.is_empty());
        assert_eq!(back.small.stats.n_losses(), 3);
        // NaN poisoning is detected.
        let mut poisoned = back;
        assert!(!poisoned.has_nan());
        poisoned.poison_nan();
        assert!(poisoned.has_nan());
        // Clearing yields a valid loss-free measurement.
        let mut cleared = m.clone();
        cleared.clear_losses();
        assert!(!cleared.has_nan());
        assert_eq!(cleared.small.received, cleared.small.sent);
        assert!(cleared.small.lost.is_empty());
        assert!(cleared.validated, "two loss-free traces agree");
    }
}
