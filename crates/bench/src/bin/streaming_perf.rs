//! `streaming_perf` — buffered-batch vs streaming loss-analysis benchmark.
//!
//! One workload, at a quick (CI smoke) and a full scale:
//!
//! * `trace-pipeline` — the measurement *pipeline* at the paper's full
//!   campaign trace volume (650 directed paths, 5-minute runs):
//!   deterministic bursty loss records replayed through the production
//!   [`TraceSet`] dispatch on both sides. The batch side buffers
//!   `LossRecord`s and runs the repo's real multi-pass analysis
//!   (clone/stamp/normalize, `analyze`, histogram, episodes,
//!   windowed-count autocorrelation, pooled re-analysis — several
//!   allocating passes, some re-sorting); the streaming side attaches a
//!   [`TraceSink`] that folds every record into [`LossStreamStats`] in a
//!   single pass with O(bins + lags) state. This is the layer where both
//!   forms still exist: the batch analysis functions are the reference
//!   implementation the accumulators are tested against.
//!
//! (The simulator-bound `campaign` workload this bin used to time — the
//! buffered campaign driver against the sink-driven one — went away with
//! the buffered driver; its last measurements are kept in EXPERIMENTS.md.)
//!
//! The workload asserts the two pipelines agree: identical loss accounting
//! and histogram bins, summary statistics within 1e-9. Results go to
//! `BENCH_STREAMING.json` (override with `--out PATH`). The headline
//! `speedup` is the largest scale's end-to-end (replay + analysis) ratio.
//! `--quick` runs only the quick scale.

use lossburst_analysis::autocorr::autocorrelation;
use lossburst_analysis::burstiness::{self, counts_in_windows, BurstinessReport};
use lossburst_analysis::episodes::{episode_report, EpisodeReport};
use lossburst_analysis::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use lossburst_analysis::intervals::normalized_intervals;
use lossburst_analysis::poisson;
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_netsim::packet::{FlowId, LinkId};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::trace::{LossRecord, TraceConfig, TraceSet, TraceSink};
use rayon::prelude::*;
use rayon::{current_num_threads, THREADS_ENV};
use std::any::Any;
use std::time::Instant;

/// FNV-1a accumulator: a cheap byte-identity fingerprint.
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One pipeline's run of one workload scale.
struct PipeRun {
    wall_secs: f64,
    /// Loss records replayed.
    events: u64,
    peak_bytes: usize,
    /// Fingerprint over the exact per-path loss accounting.
    fingerprint: u64,
    /// The pooled burstiness report — the pipeline's end product.
    report: BurstinessReport,
    /// Per-path summary statistics for the 1e-9 comparison.
    path_reports: Vec<BurstinessReport>,
}

/// Largest absolute difference across two reports' statistics.
fn report_delta(a: &BurstinessReport, b: &BurstinessReport) -> f64 {
    [
        (a.mean_interval_rtt, b.mean_interval_rtt),
        (a.frac_below_001, b.frac_below_001),
        (a.frac_below_01, b.frac_below_01),
        (a.frac_below_025, b.frac_below_025),
        (a.frac_below_1, b.frac_below_1),
        (a.burstiness_ratio, b.burstiness_ratio),
        (a.index_of_dispersion, b.index_of_dispersion),
    ]
    .iter()
    .map(|&(x, y)| (x - y).abs())
    .fold(0.0, f64::max)
}

/// Compare two pipeline runs: byte-identical loss accounting, statistics
/// within 1e-9. Returns the observed maximum statistic difference.
fn check_agreement(name: &str, batch: &PipeRun, stream: &PipeRun) -> f64 {
    assert_eq!(
        (batch.fingerprint, batch.events),
        (stream.fingerprint, stream.events),
        "{name}: streaming loss accounting diverged from batch"
    );
    assert_eq!(
        batch.path_reports.len(),
        stream.path_reports.len(),
        "{name}: path count diverged"
    );
    let mut delta = report_delta(&batch.report, &stream.report);
    for (b, s) in batch.path_reports.iter().zip(&stream.path_reports) {
        assert_eq!(b.n_losses, s.n_losses, "{name}: per-path loss count");
        delta = delta.max(report_delta(b, s));
    }
    assert!(
        delta <= 1e-9,
        "{name}: statistics diverged (max delta {delta:e})"
    );
    delta
}

// ---------------------------------------------------------------------------
// The trace pipeline at paper campaign trace volume.
// ---------------------------------------------------------------------------

/// One synthetic path: deterministic RTT, loss rate, and record stream.
#[derive(Clone, Copy)]
struct PathSpec {
    seed: u64,
    rtt: f64,
    /// Burst-arrival rate (bursts per second).
    rate: f64,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn unit(s: &mut u64) -> f64 {
    (xorshift(s) >> 11) as f64 / (1u64 << 53) as f64
}

fn path_specs(n: usize, seed: u64) -> Vec<PathSpec> {
    (0..n)
        .map(|i| {
            let mut s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..3 {
                xorshift(&mut s);
            }
            let rtt = 0.02 + unit(&mut s) * 0.18;
            let rate = 40.0 + unit(&mut s) * 120.0;
            PathSpec { seed: s, rtt, rate }
        })
        .collect()
}

/// Replay one path's bursty loss process into `f` (time in seconds,
/// non-decreasing): exponential gaps between bursts, with ~half of the
/// events clustered at sub-millisecond spacing — the paper's loss shape.
fn replay_losses(spec: &PathSpec, duration_secs: f64, mut f: impl FnMut(f64)) -> u64 {
    let mut s = spec.seed;
    let mut t = 0.0f64;
    let mut n = 0u64;
    loop {
        let u = unit(&mut s);
        let mean = if unit(&mut s) < 0.5 {
            2e-4 // intra-burst spacing
        } else {
            1.0 / spec.rate
        };
        t += -(1.0 - u).ln() * mean;
        if t >= duration_secs {
            return n;
        }
        f(t);
        n += 1;
    }
}

/// Dispatch one path's records through a [`TraceSet`] (the production
/// observation path both pipelines share).
fn dispatch_path(trace: &mut TraceSet, spec: &PathSpec, duration_secs: f64) -> u64 {
    let mut seq = 0u64;
    replay_losses(spec, duration_secs, |t| {
        trace.loss(LossRecord {
            time: SimTime::ZERO + SimDuration::from_secs_f64(t),
            link: LinkId(0),
            flow: FlowId(0),
            seq,
        });
        seq += 1;
    })
}

/// Everything the batch pipeline derives per path, for the comparison.
struct PathProducts {
    report: BurstinessReport,
    hist: Histogram,
    episodes: EpisodeReport,
    acf: Vec<f64>,
    intervals: Vec<f64>,
    peak_bytes: usize,
}

/// The buffered-batch pipeline for one path: buffer records in the
/// `TraceSet`, then run the repo's standard multi-pass analysis.
fn pipeline_path_batch(spec: &PathSpec, duration_secs: f64) -> PathProducts {
    let mut trace = TraceSet::new(TraceConfig::default());
    dispatch_path(&mut trace, spec, duration_secs);
    let times = trace.loss_times_on(LinkId(0));
    let intervals = normalized_intervals(&times, spec.rtt);
    let report = burstiness::analyze(&intervals);
    let hist = Histogram::from_values(&intervals, PAPER_BIN_WIDTH, PAPER_RANGE);
    // Stitched RTT timeline (first loss at 0) for episodes and the
    // windowed-count autocorrelation — as `LossStudy::loss_times_rtt`.
    let mut times_rtt = Vec::with_capacity(times.len());
    if !times.is_empty() {
        times_rtt.push(0.0);
    }
    let mut t_acc = 0.0;
    for &iv in &intervals {
        t_acc += iv;
        times_rtt.push(t_acc);
    }
    let episodes = episode_report(&times_rtt, 1.0);
    let counts: Vec<f64> = counts_in_windows(&times_rtt, 1.0)
        .iter()
        .map(|&c| c as f64)
        .collect();
    let acf = autocorrelation(&counts, 8);
    let peak_bytes = trace.buffer_bytes()
        + (times.capacity() + intervals.capacity() + times_rtt.capacity() + counts.capacity()) * 8;
    PathProducts {
        report,
        hist,
        episodes,
        acf,
        intervals,
        peak_bytes,
    }
}

/// The streaming pipeline's sink: folds each record into the fused
/// accumulator as it is dispatched, keeping only the O(losses) normalized
/// intervals needed for cross-path pooling.
struct ReplaySink {
    rtt: f64,
    stats: LossStreamStats,
    intervals: Vec<f64>,
    last: Option<f64>,
}

impl TraceSink for ReplaySink {
    fn on_loss(&mut self, rec: &LossRecord) {
        let t = rec.time.as_secs_f64();
        self.stats.push_loss_at(t);
        if let Some(p) = self.last {
            self.intervals.push((t - p) / self.rtt);
        }
        self.last = Some(t);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The streaming pipeline for one path: no buffering, one pass.
fn pipeline_path_streaming(spec: &PathSpec, duration_secs: f64) -> PathProducts {
    let mut trace = TraceSet::new(TraceConfig::none());
    trace.add_sink(Box::new(ReplaySink {
        rtt: spec.rtt,
        stats: LossStreamStats::with_rtt(spec.rtt),
        intervals: Vec::new(),
        last: None,
    }));
    dispatch_path(&mut trace, spec, duration_secs);
    let sink: &ReplaySink = trace.sink(0).expect("replay sink");
    let peak_bytes =
        trace.buffer_bytes() + sink.stats.state_bytes() + sink.intervals.capacity() * 8;
    PathProducts {
        report: sink.stats.report(),
        hist: sink.stats.histogram().clone(),
        episodes: sink.stats.episode_report(),
        acf: sink.stats.acf(),
        intervals: sink.intervals.clone(),
        peak_bytes,
    }
}

/// Cross-check the per-path products the two pipelines computed, fold them
/// into the run fingerprint, and return the max statistic delta.
fn digest_path(h: &mut u64, p: &PathProducts) {
    fnv(h, p.report.n_losses as u64);
    fnv(h, p.hist.total);
    fnv(h, p.hist.overflow);
    for &b in &p.hist.bins {
        fnv(h, b);
    }
    fnv(h, p.episodes.count as u64);
    fnv(h, p.acf.len() as u64);
}

fn path_products_delta(b: &PathProducts, s: &PathProducts) -> f64 {
    let mut d = report_delta(&b.report, &s.report);
    d = d.max((b.episodes.mean_size - s.episodes.mean_size).abs());
    d = d.max((b.episodes.fraction_in_bursts - s.episodes.fraction_in_bursts).abs());
    for (x, y) in b.acf.iter().zip(&s.acf) {
        d = d.max((x - y).abs());
    }
    d
}

/// Run the whole trace pipeline — per-path fan-out plus the pooled
/// campaign-level analysis — through one of the two implementations.
fn pipeline_run(
    specs: &[PathSpec],
    duration_secs: f64,
    per_path: fn(&PathSpec, f64) -> PathProducts,
    pooled_batch: bool,
) -> (PipeRun, Vec<PathProducts>) {
    let t0 = Instant::now();
    let products: Vec<PathProducts> = specs
        .par_iter()
        .map(|spec| per_path(spec, duration_secs))
        .collect();
    // Pool the validated intervals in path order and derive the campaign
    // summary, each pipeline its own way.
    let (report, pooled_bytes) = if pooled_batch {
        let mut pooled: Vec<f64> = Vec::new();
        for p in &products {
            pooled.extend_from_slice(&p.intervals);
        }
        let report = burstiness::analyze(&pooled);
        let hist = Histogram::from_values(&pooled, PAPER_BIN_WIDTH, PAPER_RANGE);
        let rate = poisson::rate_from_intervals(&pooled);
        let _pdf = poisson::reference_pdf(rate, &hist);
        (report, pooled.capacity() * 8)
    } else {
        let mut pooled = LossStreamStats::with_rtt(1.0);
        for p in &products {
            for &iv in &p.intervals {
                pooled.push_interval(iv);
            }
        }
        let _pdf = pooled.poisson_pdf();
        (pooled.report(), pooled.state_bytes())
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    let mut h = FNV_SEED;
    let mut events = 0u64;
    for p in &products {
        digest_path(&mut h, p);
        events += p.report.n_losses as u64;
    }
    let peak_path = products.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
    let path_reports = products.iter().map(|p| p.report).collect();
    (
        PipeRun {
            wall_secs,
            events,
            peak_bytes: peak_path + pooled_bytes,
            fingerprint: h,
            report,
            path_reports,
        },
        products,
    )
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

fn json_pipe(run: &PipeRun) -> String {
    format!(
        "{{ \"wall_ms\": {:.1}, \"records_per_sec\": {:.0}, \"peak_bytes\": {} }}",
        run.wall_secs * 1e3,
        run.events as f64 / run.wall_secs,
        run.peak_bytes,
    )
}

struct ScaleReport {
    json: String,
    speedup: f64,
    bytes_ratio: f64,
}

const WORKLOAD: &str = "trace-pipeline";

fn digest_scale(
    scale: &str,
    detail: &str,
    batch: PipeRun,
    stream: PipeRun,
    extra_delta: f64,
) -> ScaleReport {
    let delta = check_agreement(&format!("{WORKLOAD}/{scale}"), &batch, &stream).max(extra_delta);
    let speedup = batch.wall_secs / stream.wall_secs;
    let bytes_ratio = if stream.peak_bytes > 0 {
        batch.peak_bytes as f64 / stream.peak_bytes as f64
    } else {
        f64::INFINITY
    };
    println!(
        "# {WORKLOAD:<14} {scale:<5} batch {:>8.0} ms, peak {:>11} B | streaming {:>8.0} ms, peak {:>9} B | speedup {:.2}x, bytes {:.1}x, max delta {:.1e}",
        batch.wall_secs * 1e3,
        batch.peak_bytes,
        stream.wall_secs * 1e3,
        stream.peak_bytes,
        speedup,
        bytes_ratio,
        delta,
    );
    let json = format!(
        "    {{ \"workload\": \"{WORKLOAD}\", \"scale\": \"{scale}\", \"detail\": \"{detail}\",\n      \"batch\": {},\n      \"streaming\": {},\n      \"speedup\": {speedup:.3}, \"peak_bytes_ratio\": {bytes_ratio:.1}, \"max_stat_delta\": {delta:.3e} }}",
        json_pipe(&batch),
        json_pipe(&stream),
    );
    ScaleReport {
        json,
        speedup,
        bytes_ratio,
    }
}

fn bench_pipeline(scale: &str, n_paths: usize, duration_secs: f64, seed: u64) -> ScaleReport {
    let specs = path_specs(n_paths, seed ^ 0x7A9C_E11A);
    let (batch, batch_products) = pipeline_run(&specs, duration_secs, pipeline_path_batch, true);
    let (stream, stream_products) =
        pipeline_run(&specs, duration_secs, pipeline_path_streaming, false);
    // Histogram bins, episode structure, and autocorrelation must agree
    // per path as well — the fingerprint pins the integer parts, this
    // pins the float parts.
    let mut extra = 0.0f64;
    for (b, s) in batch_products.iter().zip(&stream_products) {
        extra = extra.max(path_products_delta(b, s));
    }
    digest_scale(
        scale,
        &format!(
            "{n_paths} replayed paths x {duration_secs:.0} s bursty loss records through TraceSet; batch buffers + multi-pass analysis vs sink + single-pass accumulators"
        ),
        batch,
        stream,
        extra,
    )
}

fn main() {
    let mut out_path = String::from("BENCH_STREAMING.json");
    let mut quick = false;
    let mut seed = 2006u64;
    let mut threads_flag: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out requires a path"),
            "--quick" => quick = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires an integer")
            }
            "--threads" => threads_flag = Some(it.next().expect("--threads requires a count")),
            "--help" | "-h" => {
                eprintln!("usage: streaming_perf [--quick] [--seed N] [--threads N] [--out PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    if let Some(t) = threads_flag {
        std::env::set_var(THREADS_ENV, t);
    } else if std::env::var(THREADS_ENV).is_err() {
        std::env::set_var(THREADS_ENV, "4");
    }
    let threads = current_num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# streaming vs buffered-batch loss analysis");
    println!("# threads {threads} (LOSSBURST_THREADS), host cpus {host_cpus}, seed {seed}");

    let mut entries = vec![bench_pipeline("quick", 64, 60.0, seed)];
    if !quick {
        // Paper-full trace volume: 650 directed paths, 5-minute runs.
        entries.push(bench_pipeline("full", 650, 300.0, seed));
    }
    let largest = entries.last().expect("at least the quick scale ran");
    let speedup = largest.speedup;
    let bytes_ratio = largest.bytes_ratio;

    let prov = lossburst_bench::provenance::capture().json_fields();
    let scales_json: Vec<String> = entries.iter().map(|r| r.json.clone()).collect();
    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"seed\": {seed},\n  {prov},\n  \"pipelines\": [\"batch\", \"streaming\"],\n  \"speedup_metric\": \"trace-pipeline workload, largest scale run: buffered TraceSet + multi-pass batch analysis vs TraceSink + single-pass accumulators, end to end (replay + analysis)\",\n  \"peak_bytes_metric\": \"largest simultaneous buffer commitment: per-path trace/analysis buffers at their max plus pooled materialization\",\n  \"workloads\": [\n{}\n  ],\n  \"speedup\": {speedup:.3},\n  \"trace_bytes_ratio\": {bytes_ratio:.1}\n}}\n",
        scales_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!("# wrote {out_path} (trace-pipeline speedup {speedup:.2}x / bytes {bytes_ratio:.1}x)");
}
