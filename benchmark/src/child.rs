//! The child side: one fresh process per job.
//!
//! A repeat runs in its own process so that `VmHWM` is that job's peak and
//! nothing — allocator state, the pool, lazily built tables — carries over
//! from the previous repeat. The child prints one JSON object on its last
//! stdout line; the parent ([`crate::harness`]) aggregates.

use crate::harness::pool_threads;
use crate::json::{obj, Json};
use crate::layers;
use crate::procfs::{read_cpu_time, read_peak_rss_mb};
use crate::span::{self, Recorder};
use crate::workloads::{self, timed, JobOutput, Scale};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Where the benchmark writes: result files, span files and per-job
/// scratch all live under the package's own `out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Nanoseconds since the Unix epoch — the one clock parent and child can
/// both read, used only for the spawn → timed-region interval.
pub fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// The least the layer drives of a traced run share between them.
const MIN_DRIVE_SECONDS: f64 = 5.0;

/// What a child does once it is set up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChildMode {
    /// The untraced, timed job.
    Job,
    /// Nothing: report `setup_s` and exit — one more sample of set-up for
    /// the price of a process spawn.
    SetupOnly,
    /// The traced run, with this many seconds for the layer drives.
    Traced(f64),
}

/// What the child was asked to do.
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Job size.
    pub scale: Scale,
    /// When the parent spawned this process (Unix ns).
    pub spawned_at_ns: u128,
    /// What to do after set-up.
    pub mode: ChildMode,
}

/// A per-process scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Scratch {
        let dir = out_dir()
            .join("tmp")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("cannot create scratch dir under benchmark/out");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn output_json(out: &JobOutput) -> Vec<(&'static str, Json)> {
    vec![
        ("work", out.work.into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("fingerprint", format!("{:016x}", out.fingerprint).into()),
        ("artifact", out.artifact.map(|a| format!("{a:016x}")).into()),
        (
            "counts",
            Json::Obj(
                out.counts
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.into()))
                    .collect(),
            ),
        ),
        ("problems", out.problems.clone().into()),
    ]
}

/// Share of the executing threads' wall time spent inside map items, and
/// the busiest thread over the mean — from the pool's own busy clocks.
fn pool_balance(wall_s: f64) -> (f64, f64) {
    let busy: Vec<f64> = rayon::worker_busy_nanos()
        .into_iter()
        .filter(|&ns| ns > 0)
        .map(|ns| ns as f64 / 1e9)
        .collect();
    if busy.is_empty() || wall_s <= 0.0 {
        return (0.0, 0.0);
    }
    let total: f64 = busy.iter().sum();
    let mean = total / busy.len() as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    (100.0 * total / (wall_s * busy.len() as f64), max / mean)
}

/// Run the child and return the object it reports.
pub fn run(args: &ChildArgs) -> Result<Json, String> {
    let scratch = Scratch::new(&args.workload);
    let job = workloads::prepare(&args.workload, args.seed, args.scale, &scratch.0)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    Ok(match args.mode {
        ChildMode::Traced(budget) => run_traced(args, job.as_ref(), budget, &scratch.0),
        ChildMode::Job | ChildMode::SetupOnly => run_job(args, job.as_ref()),
    })
}

fn run_job(args: &ChildArgs, job: &dyn workloads::Job) -> Json {
    // Spawn the pool's threads before the clock starts: thread creation is
    // set-up, not work.
    let warm: Vec<usize> = (0..rayon::current_num_threads())
        .into_par_iter()
        .map(|i| i)
        .collect();
    std::hint::black_box(warm);
    rayon::reset_worker_busy();

    let setup_s = unix_nanos().saturating_sub(args.spawned_at_ns) as f64 / 1e9;
    if args.mode == ChildMode::SetupOnly {
        return obj([("setup_s", setup_s.into())]);
    }
    let cpu0 = read_cpu_time();
    let (out, wall_s) = timed(|| job.run());
    let cpu_s = cpu0
        .zip(read_cpu_time())
        .map(|(a, b)| b.saturating_sub(a).as_secs_f64());
    let (busy_share, imbalance) = pool_balance(wall_s);

    let mut fields = vec![
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("scale", args.scale.as_str().into()),
        ("threads", rayon::current_num_threads().into()),
        ("setup_s", setup_s.into()),
        ("wall_s", wall_s.into()),
        ("cpu_s", cpu_s.into()),
        ("peak_rss_mb", read_peak_rss_mb().into()),
        ("work_per_s", (out.work / wall_s).into()),
        ("busy_share", busy_share.into()),
        ("imbalance", imbalance.into()),
    ];
    fields.extend(output_json(&out));
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn run_traced(args: &ChildArgs, job: &dyn workloads::Job, budget_s: f64, scratch: &Path) -> Json {
    let started = Instant::now();
    // The parent starts this child with the pool off (one thread): the
    // untraced reference below and the traced loop are then both serial,
    // and their ratio is the cost of tracing alone.
    let (reference, wall_1thread_s) = timed(|| job.run());
    let mut rec = Recorder::new();
    let traced = job.run_traced(&mut rec);
    let traced_s = rec.spans().first().map_or(0.0, |s| s.dur_ns() as f64 / 1e9);

    let mut problems = traced.output.problems.clone();
    problems.extend(reference.problems.iter().cloned());
    let same = traced.output.fingerprint == reference.fingerprint
        && traced.output.counts == reference.counts
        && traced.output.artifact == reference.artifact;
    if !same {
        problems.push(format!(
            "traced run diverged from the untraced one: fingerprint {:016x} vs {:016x}, artifact {:?} vs {:?}",
            traced.output.fingerprint, reference.fingerprint, traced.output.artifact, reference.artifact
        ));
    }

    let span_file = out_dir().join(format!("trace-{}.jsonl", args.workload));
    if let Err(e) = std::fs::write(&span_file, span::to_jsonl(rec.spans())) {
        problems.push(format!("cannot write {}: {e}", span_file.display()));
    }

    let mut layer = traced.layer;
    layer.push((
        "bench.trace.overhead_ratio",
        if wall_1thread_s > 0.0 {
            traced_s / wall_1thread_s
        } else {
            0.0
        },
    ));
    layer.push(("bench.trace.spans", rec.spans().len() as f64));

    // Whatever is left of the window goes to the layer drives — but never
    // so little (a full-scale job outlasts any window) that a drive's three
    // batches are all it gets.
    let left = Duration::from_secs_f64(
        (budget_s - started.elapsed().as_secs_f64()).max(MIN_DRIVE_SECONDS),
    );
    layer.extend(layers::serial_drives(args.seed, left.mul_f64(0.9), scratch));
    // Only now may the pool come up, at the width of the pooled job.
    std::env::set_var(rayon::THREADS_ENV, pool_threads().to_string());
    layer.push(layers::pool_drive(left.mul_f64(0.1)));

    obj([
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("scale", args.scale.as_str().into()),
        ("wall_1thread_s", wall_1thread_s.into()),
        ("traced_s", traced_s.into()),
        ("attempted", traced.output.attempted.into()),
        ("failed", traced.output.failed.into()),
        (
            "fingerprint",
            format!("{:016x}", traced.output.fingerprint).into(),
        ),
        ("problems", problems.into()),
        (
            "layer",
            Json::Obj(
                layer
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.into()))
                    .collect(),
            ),
        ),
        ("span_file", span_file.display().to_string().into()),
        ("span_summary", span::summary_json(rec.spans())),
    ])
}
