//! The campaign supervisor: fault-isolated, resumable sweeps.
//!
//! The paper's Internet study probed 650 directed PlanetLab paths and was
//! built around partial failure — paths whose paired traces disagreed were
//! simply discarded. A sweep that assumed every path run succeeds would
//! abort on one panic (a NaN timestamp, a simulator bug on one scenario)
//! and restart an interrupted multi-hour run from zero. This module is the
//! harness layer every paper sweep runs through:
//!
//! * a **fault boundary** per path — `catch_unwind` inside the worker
//!   closure, so a panicking path becomes one `Failed` ledger row instead
//!   of tearing down the fan-out (the vendored `par_iter` re-raises an
//!   uncaught panic on its caller; catching *inside* the closure keeps it
//!   oblivious);
//! * **per-path retry**;
//! * **run limits** handed to each attempt ([`RunLimits`], threaded
//!   through `SimBuilder`): the injected panic of a [`FaultPlan`], and a
//!   runner whose simulation spends an event budget reports
//!   [`PathFailure::EventBudget`];
//! * **checkpoint/resume** — completed paths append to a
//!   [`CampaignCheckpoint`] file as they finish, and a rerun with the same
//!   checkpoint restores them (data, retry count, and failure reason all
//!   exact), so an interrupted sweep resumes where it left off and the
//!   resumed output is byte-identical to an uninterrupted run;
//! * a structured [`PathOutcome`] **ledger** instead of all-or-nothing
//!   output;
//! * a deterministic **[`FaultPlan`]** (panic / NaN-trace /
//!   empty-trace on chosen path indices) so all of the above is testable
//!   byte-for-byte.
//!
//! The generic engine is [`supervise`], and it is the only runner of the
//! Fig 2–4 sweeps. [`crate::shard`] applies it to the Internet campaign
//! ([`crate::shard::run_grid_streaming_supervised`] is the campaign at any
//! path count), and [`crate::campaign::ns2_study`] /
//! [`crate::campaign::dummynet_study`] apply it to the `emu::testbed` lab
//! sweep. Each sweep has one measurement path — the sink-driven probe or
//! testbed run.

use crate::campaign::LossStudy;
use lossburst_analysis::intervals;
use lossburst_emu::testbed::EventBudgetExceeded;
use lossburst_inet::campaign::{StreamCampaignResult, StreamPathMeasurement};
use lossburst_inet::probe::{validate_streaming, ProbeError};
use lossburst_netsim::sim::RunLimits;
use lossburst_netsim::time::SimDuration;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A deterministic fault to inject into a supervised path run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic out of the simulator's event loop (via
    /// [`RunLimits::panic_at_event`]), exactly where a genuine simulator
    /// bug would surface — on whatever worker thread runs the path. A
    /// lossy-BSP worker, which has no event loop, panics before its walk.
    Panic,
    /// Poison the path's loss trace with a NaN timestamp after the run —
    /// the failure mode that used to panic `inter_event_intervals`. A
    /// lossy-BSP worker record has no trace; its completion time turns NaN.
    NanTrace,
    /// Empty the path's loss trace after the run (a loss-free path is a
    /// valid measurement, so this must yield `Ok`, not a failure). A
    /// lossy-BSP worker record has no trace to empty and stays as it is.
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

/// A per-path-index fault schedule. Empty by default; campaigns run it
/// empty in production and populated in robustness tests, starting from
/// `FaultPlan::default()`.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultSpec>,
}

impl FaultPlan {
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
    /// Not executed by this invocation: another shard's path that the
    /// checkpoint does not restore.
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
    /// Paths left to another shard.
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
    /// Checkpoint file. When set, completed paths are appended as they
    /// finish and restored on the next run with the same campaign
    /// fingerprint.
    pub checkpoint: Option<PathBuf>,
    /// Deterministic fault schedule (empty in production).
    pub faults: FaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 1,
            checkpoint: None,
            faults: FaultPlan::default(),
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    /// [`PathFailure::NanTrace`] instead of panicking downstream analysis,
    /// and on every restored `ok` record, which is corrupt if it holds one.
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

/// The whitespace-separated fields of one record line, read strictly. Every
/// checkpoint record (a campaign path, a lab cell, a lossy-BSP worker)
/// parses through it, so the torn-write rule for floats lives here alone.
pub(crate) struct Tokens<'a>(std::str::SplitAsciiWhitespace<'a>);

impl<'a> Tokens<'a> {
    pub(crate) fn new(line: &'a str) -> Tokens<'a> {
        Tokens(line.split_ascii_whitespace())
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.0.next()?.parse().ok()
    }
    pub(crate) fn usize(&mut self) -> Option<usize> {
        self.0.next()?.parse().ok()
    }
    fn bool(&mut self) -> Option<bool> {
        match self.0.next()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
    pub(crate) fn f64(&mut self) -> Option<f64> {
        // Floats are always written as exactly 16 hex digits (`{:016x}`);
        // a shorter token means a torn write, and accepting it would
        // silently restore a wrong value. `from_str_radix` alone would
        // also take a leading `+`.
        let tok = self.0.next()?;
        if tok.len() != 16 || !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
    }
    fn vec_f64(&mut self) -> Option<Vec<f64>> {
        let n = self.usize()?;
        (0..n).map(|_| self.f64()).collect()
    }
    /// `Some` when no field is left: a trailing field is as corrupt as a
    /// missing one.
    pub(crate) fn end(mut self) -> Option<()> {
        self.0.next().is_none().then_some(())
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

fn decode_stream_outcome(t: &mut Tokens<'_>) -> Option<lossburst_inet::probe::StreamProbeOutcome> {
    let sent = t.u64()?;
    let received = t.u64()?;
    let n_lost = t.u64()? as usize;
    let loss_rate = t.f64()?;
    let events = t.u64()?;
    let trace_bytes = t.u64()? as usize;
    let intervals_rtt = t.vec_f64()?;
    Some(lossburst_inet::probe::StreamProbeOutcome {
        sent,
        received,
        n_lost,
        loss_rate,
        events,
        trace_bytes,
        intervals_rtt,
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
        Some(StreamPathMeasurement {
            src,
            dst,
            rtt,
            validated,
            small: decode_stream_outcome(&mut t)?,
            large: decode_stream_outcome(&mut t)?,
        })
    }

    fn poison_nan(&mut self) {
        self.small.intervals_rtt.push(f64::NAN);
    }

    fn clear_losses(&mut self) {
        for p in [&mut self.small, &mut self.large] {
            p.intervals_rtt.clear();
            p.lost.clear();
            p.n_lost = 0;
            p.loss_rate = 0.0;
            p.received = p.sent;
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

/// [`hex_encode`]'s inverse over bytes, not chars: a record may hold any
/// UTF-8, and every byte must be a hex digit (`from_str_radix` alone would
/// also take a `+`).
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    fn digit(b: u8) -> Option<u8> {
        (b as char).to_digit(16).map(|d| d as u8)
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Some(digit(pair[0])? << 4 | digit(pair[1])?))
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
/// or retry count, out-of-range index, undecodable or NaN-bearing
/// payload, a final line truncated by a crash mid-write — is an
/// [`InvalidData`] error rather than a silent partial resume. A missing or empty file, or one whose
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

/// The fingerprint in the header of checkpoint file `contents`; `None` when
/// its first line lacks the magic (not a checkpoint), an `InvalidData`
/// error when the magic is there and the fingerprint after it is not hex.
fn header_fingerprint(path: &Path, contents: &str) -> std::io::Result<Option<u64>> {
    let first = contents.lines().next().unwrap_or("");
    let Some(token) = first.strip_prefix(CHECKPOINT_MAGIC) else {
        return Ok(None);
    };
    let fp = u64::from_str_radix(token.trim(), 16);
    fp.map(Some)
        .map_err(|_| corrupt_record(path, 1, first, "corrupt fingerprint"))
}

/// Create the directory `path` is to be written in, if it names one.
fn create_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

/// Strictly parse the record lines of a checkpoint file body (everything
/// after the header), calling `sink(index, restored, raw_line)` per record
/// in file order. Shared between [`CampaignCheckpoint::open`] (resume) and
/// [`CampaignCheckpoint::merge`] (shard interchange); any malformed record
/// is an `InvalidData` error naming the line. An `ok` payload holding a NaN
/// is malformed: a fresh attempt with one is failed, never recorded `ok`.
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
                if value.has_nan() {
                    return Err(corrupt_record(path, line_no, line, "NaN in payload"));
                }
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
        let existing = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        // A file whose first line carries the magic IS a checkpoint and is
        // parsed strictly: resuming past corruption would silently re-run
        // (or worse, mis-attribute) completed paths. Anything else —
        // missing, empty, not ours — starts fresh.
        //
        // Buffered with an explicit flush per record: one write syscall per
        // append instead of one per format fragment, with crash-safety
        // unchanged (a record is durable before its result is reported).
        let file = if header_fingerprint(path, &existing)? == Some(fingerprint) {
            parse_checkpoint_records::<T, _>(path, &existing, n_paths, |idx, rp, _| {
                restored[idx] = Some(rp)
            })?;
            std::io::BufWriter::new(OpenOptions::new().append(true).open(path)?)
        } else {
            create_parent_dir(path)?;
            let mut file = std::io::BufWriter::new(File::create(path)?);
            writeln!(file, "{CHECKPOINT_MAGIC} {fingerprint:016x}")?;
            file.flush()?;
            file
        };
        let checkpoint = CampaignCheckpoint {
            file: Mutex::new(file),
            warned: AtomicBool::new(false),
        };
        Ok((checkpoint, restored))
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
            match header_fingerprint(p, &contents)? {
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("not a checkpoint (missing header): {}", p.display()),
                    ))
                }
                Some(fp) if fp != fingerprint => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                        "checkpoint fingerprint mismatch in {}: {fp:016x} != {fingerprint:016x}",
                        p.display()
                    ),
                    ))
                }
                Some(_) => {}
            }
            parse_checkpoint_records::<T, _>(p, &contents, n_paths, |idx, _, raw| {
                if lines[idx].replace(raw.to_string()).is_some() {
                    superseded += 1;
                }
            })?;
        }
        create_parent_dir(out)?;
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
/// boundary, retries, fault injection and checkpoint/resume. `runner(index, limits)` measures one path; it
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

    let run_one = |index: usize| -> (Option<T>, PathOutcome) {
        let mut attempt: u32 = 0;
        loop {
            let fault = cfg.faults.active(index, attempt);
            let limits = RunLimits {
                panic_at_event: (fault == Some(FaultKind::Panic)).then_some(1),
                ..RunLimits::NONE
            };
            // The fault boundary. Catching here — inside the worker closure
            // — keeps the fan-out's panic re-propagation out of the picture
            // entirely.
            let outcome = match catch_unwind(AssertUnwindSafe(|| runner(index, limits))) {
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
                    } else {
                        Ok(value)
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
    let mut fresh = fresh.iter().zip(fresh_results).peekable();
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
            None => match fresh.next_if(|&(&fi, _)| fi == index) {
                Some((_, (value, outcome))) => {
                    results[index] = value;
                    outcome
                }
                // Outside this invocation's subset: another shard's path.
                None => PathOutcome::Skipped,
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
    /// order ([`lossburst_inet::campaign::aggregate_streaming`] of them).
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

/// A paper sweep's product (Figs 2–4): the pooled study over the rows
/// that measured plus the row outcome ledger.
#[derive(Debug)]
pub struct SupervisedStudy {
    /// The pooled study over successful rows, in row order.
    pub study: LossStudy,
    /// Per-row outcome ledger: index-aligned with
    /// [`crate::campaign::lab_cells`] for a lab study and with
    /// [`lossburst_inet::campaign::grid_pairs`] for the Internet study.
    pub ledger: Vec<LedgerEntry>,
}

impl SupervisedStudy {
    /// Outcome totals over the cell ledger.
    pub fn counts(&self) -> OutcomeCounts {
        count_outcomes(&self.ledger)
    }
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

    /// A runner with no simulator: `payload(index)`, or a panic where
    /// the plan injects one through [`RunLimits::panic_at_event`].
    fn run_payload(index: usize, limits: RunLimits) -> Result<LabCellRecord, PathFailure> {
        if limits.panic_at_event.is_some() {
            panic!("synthetic worker panic");
        }
        Ok(payload(index))
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let cfg = SupervisorConfig {
            max_retries: 1,
            // Path 2 panics on its first attempt only.
            faults: FaultPlan::default().once(2, FaultKind::Panic),
            ..Default::default()
        };
        let run = supervise(4, 1, &cfg, run_payload).unwrap();
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
    fn fault_plan_drives_all_three_kinds() {
        let cfg = SupervisorConfig {
            max_retries: 1,
            faults: FaultPlan::default()
                .always(0, FaultKind::Panic)
                .once(1, FaultKind::NanTrace)
                .always(2, FaultKind::EmptyTrace)
                .always(3, FaultKind::NanTrace),
            ..Default::default()
        };
        let run = supervise(5, 1, &cfg, run_payload).unwrap();
        assert_eq!(
            run.ledger[0].outcome,
            PathOutcome::Failed("panic: synthetic worker panic".into())
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
        let lab = crate::campaign::LabCampaignConfig {
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
            faults: FaultPlan::default().always(0, FaultKind::Panic),
            ..Default::default()
        };
        let out = crate::campaign::ns2_study(&lab, &sup).unwrap();
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
    fn killed_run_resumes_exactly_from_its_checkpoint() -> crate::error::Result<()> {
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
        let sup = SupervisorConfig {
            checkpoint: Some(ck.clone()),
            ..Default::default()
        };
        // Uninterrupted reference (no checkpoint).
        let reference = supervise(6, 9, &SupervisorConfig::default(), runner)?;
        // A run killed after two paths leaves the header and their two
        // records.
        supervise(6, 9, &sup, runner)?;
        let text = std::fs::read_to_string(&ck)?;
        let kept: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&ck, kept)?;
        // Resume: restored paths come from the file, the rest run fresh.
        let resumed = supervise(6, 9, &sup, runner)?;
        assert_eq!(resumed.restored, 2);
        assert_eq!(resumed.ledger, reference.ledger);
        for (a, b) in resumed.results.iter().zip(&reference.results) {
            assert_eq!(a, b, "restored result differs from fresh");
        }
        // A third run restores everything and runs nothing.
        let third = supervise(6, 9, &sup, runner)?;
        assert_eq!(third.restored, 6);
        assert_eq!(third.ledger, reference.ledger);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
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
    fn undecodable_failure_reason_fails_loudly() {
        // A reason is hex of UTF-8 bytes. A multi-byte char where a digit
        // pair belongs must not panic a byte-offset slice, and a `+` is no
        // hex digit, whatever `from_str_radix` accepts.
        let utf8 = "aéb".as_bytes();
        assert_eq!(hex_decode(&hex_encode(utf8)).as_deref(), Some(utf8));
        for (i, reason) in ["aéb", "é", "+a"].into_iter().enumerate() {
            let contents = format!("{}\nfailed 0 0 {reason}\n", header(7));
            let err = open_crafted(&format!("reason{i}"), &contents, 7, 3)
                .expect_err(&format!("reason {reason:?} must not open"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2"), "{err}");
            let dir = tmpdir(&format!("reason_merge{i}"));
            let shard = dir.join("shard.ckpt");
            std::fs::write(&shard, &contents).unwrap();
            let err =
                CampaignCheckpoint::merge::<LabCellRecord>(&[shard], &dir.join("m.ckpt"), 7, 3)
                    .expect_err(&format!("reason {reason:?} must not merge"));
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2"), "{err}");
        }
    }

    /// Open and merge a crafted checkpoint whose record 0 is `payload`:
    /// both must refuse it as `InvalidData` over a NaN, naming line 2.
    fn nan_refused<T: PathRecord>(tag: &str, payload: &str) -> std::io::Result<()> {
        let dir = tmpdir(tag);
        let file = dir.join("nan.ckpt");
        std::fs::write(&file, format!("{}\nok 0 0 {payload}\n", header(7)))?;
        let open = CampaignCheckpoint::open::<T>(&file, 7, 3).map(|_| ());
        let out = dir.join("m.ckpt");
        let merge = CampaignCheckpoint::merge::<T>(std::slice::from_ref(&file), &out, 7, 3);
        std::fs::remove_dir_all(&dir).ok();
        for err in [open.expect_err(payload), merge.expect_err(payload)] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2 (NaN in payload)"), "{err}");
        }
        Ok(())
    }

    /// A restored `ok` record passes the NaN check a fresh attempt gets: a
    /// hand-made NaN payload, of a lab cell or a campaign path, is
    /// `InvalidData` naming the line on open and on merge, never a NaN
    /// handed to the pooled analysis.
    #[test]
    fn a_nan_payload_is_refused_on_open_and_merge() -> std::io::Result<()> {
        nan_refused::<LabCellRecord>("nan_lab", "lab 0 1 7ff8000000000000")?;
        let negative = format!("lab 0 2 3ff0000000000000 {:016x}", (-f64::NAN).to_bits());
        nan_refused::<LabCellRecord>("nan_neg", &negative)?;
        let mut path = StreamPathMeasurement::decode(&format!(
            "spm 3 17 50000000 1 {0} {0}",
            "10 10 0 0000000000000000 40 0 1 3ff0000000000000"
        ))
        .ok_or(std::io::ErrorKind::InvalidData)?;
        path.poison_nan();
        nan_refused::<StreamPathMeasurement>("nan_spm", &path.encode())
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
    fn path_measurement_roundtrip_and_faults() {
        use lossburst_inet::probe::StreamProbeOutcome;
        let rtt = SimDuration::from_millis(50);
        let mk = |lost: Vec<u64>, times: Vec<f64>| StreamProbeOutcome {
            sent: 1000,
            received: 1000 - lost.len() as u64,
            n_lost: lost.len(),
            loss_rate: lost.len() as f64 / 1000.0,
            intervals_rtt: times.windows(2).map(|w| (w[1] - w[0]) / 0.05).collect(),
            lost,
            events: 5000,
            counts: Default::default(),
            trace_bytes: 777,
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
