//! `trace_pipeline` — the measurement pipeline without a simulator under
//! it: 650 synthetic paths of Gilbert-bursty loss records dispatched
//! through the production `TraceSet`, once buffered and analysed in batch
//! passes, once through a `TraceSink` into `LossStreamStats`; then the
//! pooled trace goes out through `write_loss_trace` and back through
//! `read_loss_trace_file` (the `lossburst-analyze` path). It holds each
//! form beside its twin, so a gain for one that costs the other shows.

use super::{Fnv, Job, JobOutput, Scale, TracedOutput};
use crate::span::Recorder;
use lossburst_analysis::autocorr::autocorrelation;
use lossburst_analysis::burstiness::{self, counts_in_windows, BurstinessReport};
use lossburst_analysis::episodes::{episode_report, EpisodeReport};
use lossburst_analysis::gilbert::{Chain, GilbertParams};
use lossburst_analysis::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
use lossburst_analysis::intervals::{inter_event_intervals, normalize_by_rtt_in_place};
use lossburst_analysis::io::{read_loss_trace_file, write_loss_trace};
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_netsim::packet::{FlowId, LinkId};
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::time::SimTime;
use lossburst_netsim::trace::{LossRecord, TraceConfig, TraceSet, TraceSink};
use rand::RngExt;
use rayon::prelude::*;
use std::any::Any;
use std::path::{Path, PathBuf};

/// Synthetic paths — the paper's directed-pair count.
const PATHS: usize = 650;

/// Probe rate: one packet slot every 500 µs.
const PACKET_NS: u64 = 500_000;

/// Trace length per path at [`Scale::Full`], milliseconds.
const FULL_DURATION_MS: u64 = 300_000;

/// The text round trip covers every tenth path's trace. `write_loss_trace`
/// issues a write per line, so the full pooled trace would spend five
/// times longer in the kernel than both analysis forms take together and
/// the workload would measure syscalls; a tenth keeps I/O a visible but
/// minor share.
const IO_SAMPLE: usize = 10;

/// Streaming and batch statistics must agree to this.
const MAX_STAT_DELTA: f64 = 1e-9;

/// Lags of the windowed-count autocorrelation (the streaming default).
const ACF_LAGS: usize = 8;

/// One synthetic path: its RTT and its loss process.
#[derive(Clone, Copy)]
struct PathSpec {
    index: usize,
    rtt_secs: f64,
    gilbert: GilbertParams,
}

/// The prepared pipeline run.
pub struct PipelineJob {
    seed: u64,
    specs: Vec<PathSpec>,
    packets: u64,
    dir: PathBuf,
}

/// What either pipeline form derives for one path.
struct PathProducts {
    report: BurstinessReport,
    hist: Histogram,
    episodes: EpisodeReport,
    acf: Vec<f64>,
    intervals: Vec<f64>,
    /// Loss instants, ns — kept by the batch form only, for the pooled
    /// trace file.
    loss_ns: Vec<u64>,
}

/// The streaming form's observer: every record folds into the fused
/// accumulator as it is dispatched; only the O(losses) normalized
/// intervals needed for cross-path pooling are kept.
struct StatsSink {
    rtt_secs: f64,
    stats: LossStreamStats,
    intervals: Vec<f64>,
    last: Option<f64>,
}

impl TraceSink for StatsSink {
    fn on_loss(&mut self, rec: &LossRecord) {
        let t = rec.time.as_secs_f64();
        self.stats.push_loss_at(t);
        if let Some(p) = self.last {
            self.intervals.push((t - p) / self.rtt_secs);
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

impl PipelineJob {
    /// Derive the 650 path processes from `seed`: RTT 20–200 ms, mean loss
    /// 2–8 %, mean burst 2–16 packets.
    pub fn prepare(seed: u64, scale: Scale, dir: &Path) -> PipelineJob {
        let mut rng = Sampler::child_rng(seed, 0x7A9C_E11A);
        let specs = (0..PATHS)
            .map(|index| {
                let rtt_secs = rng.random_range(0.020..0.200);
                let loss = rng.random_range(0.02..0.08);
                let burst = rng.random_range(2.0..16.0);
                let r = 1.0 / burst;
                PathSpec {
                    index,
                    rtt_secs,
                    gilbert: GilbertParams {
                        p: loss * r / (1.0 - loss),
                        r,
                    },
                }
            })
            .collect();
        PipelineJob {
            seed,
            specs,
            packets: FULL_DURATION_MS / scale.divisor() * 1_000_000 / PACKET_NS,
            dir: dir.to_path_buf(),
        }
    }

    /// Step the path's Gilbert chain once per packet slot and dispatch a
    /// loss record for every lost one.
    fn dispatch(&self, spec: &PathSpec, trace: &mut TraceSet) {
        let mut rng = Sampler::child_rng(self.seed, 0x1055_0000 + spec.index as u64);
        let mut chain = Chain::new(spec.gilbert, || rng.random());
        for k in 0..self.packets {
            if chain.step(|| rng.random()) {
                trace.loss(LossRecord {
                    time: SimTime::from_nanos(k * PACKET_NS),
                    link: LinkId(0),
                    flow: FlowId(0),
                    seq: k,
                });
            }
        }
    }

    /// Buffer the records, then run the multi-pass batch analysis.
    fn path_batch(&self, spec: &PathSpec) -> PathProducts {
        let mut trace = TraceSet::new(TraceConfig::default());
        self.dispatch(spec, &mut trace);
        let times = trace.loss_times_on(LinkId(0));
        let mut intervals = inter_event_intervals(&times);
        normalize_by_rtt_in_place(&mut intervals, spec.rtt_secs);
        let hist = Histogram::from_values(&intervals, PAPER_BIN_WIDTH, PAPER_RANGE);
        // Stitched RTT timeline (first loss at 0) for episodes and the
        // windowed-count autocorrelation, as `LossStudy::loss_times_rtt`.
        let mut times_rtt = Vec::with_capacity(times.len());
        if !times.is_empty() {
            times_rtt.push(0.0);
        }
        let mut t_acc = 0.0;
        for &iv in &intervals {
            t_acc += iv;
            times_rtt.push(t_acc);
        }
        let counts: Vec<f64> = counts_in_windows(&times_rtt, 1.0)
            .iter()
            .map(|&c| c as f64)
            .collect();
        PathProducts {
            report: burstiness::analyze(&intervals),
            hist,
            episodes: episode_report(&times_rtt, 1.0),
            acf: autocorrelation(&counts, ACF_LAGS),
            intervals,
            loss_ns: trace.losses.iter().map(|l| l.time.as_nanos()).collect(),
        }
    }

    /// No buffering: one pass through a sink.
    fn path_streaming(&self, spec: &PathSpec) -> PathProducts {
        let mut trace = TraceSet::new(TraceConfig::none());
        let idx = trace.add_sink(Box::new(StatsSink {
            rtt_secs: spec.rtt_secs,
            stats: LossStreamStats::with_rtt(spec.rtt_secs),
            intervals: Vec::new(),
            last: None,
        }));
        self.dispatch(spec, &mut trace);
        let sink: &StatsSink = trace.sink(idx).expect("sink attached above");
        PathProducts {
            report: sink.stats.report(),
            hist: sink.stats.histogram().clone(),
            episodes: sink.stats.episode_report(),
            acf: sink.stats.acf(),
            intervals: sink.intervals.clone(),
            loss_ns: Vec::new(),
        }
    }

    /// Pooled campaign-level analysis, the batch way.
    fn pooled_batch(products: &[PathProducts]) -> BurstinessReport {
        let mut pooled: Vec<f64> = Vec::new();
        for p in products {
            pooled.extend_from_slice(&p.intervals);
        }
        burstiness::analyze(&pooled)
    }

    /// Pooled campaign-level analysis, the streaming way.
    fn pooled_streaming(products: &[PathProducts]) -> (BurstinessReport, usize) {
        let mut pooled = LossStreamStats::with_rtt(1.0);
        for p in products {
            for &iv in &p.intervals {
                pooled.push_interval(iv);
            }
        }
        (pooled.report(), pooled.state_bytes())
    }

    /// The pooled loss timeline of every [`IO_SAMPLE`]-th path: each
    /// sampled path's trace placed after its predecessor's, on the
    /// nanosecond grid the text format round-trips.
    fn pooled_times(&self, batch: &[PathProducts]) -> Vec<f64> {
        let span_ns = self.packets * PACKET_NS;
        batch
            .iter()
            .step_by(IO_SAMPLE)
            .enumerate()
            .flat_map(|(i, p)| {
                // Whole nanoseconds over 1e9, correctly rounded: exactly the
                // value nine printed decimals parse back to.
                p.loss_ns
                    .iter()
                    .map(move |&ns| (i as u64 * span_ns + ns) as f64 / 1e9)
            })
            .collect()
    }

    fn trace_file(&self) -> PathBuf {
        std::fs::create_dir_all(&self.dir).expect("cannot create pipeline scratch dir");
        self.dir.join("pooled.trace")
    }

    /// Cross-check the two forms and fill in the output.
    fn digest(
        &self,
        batch: &[PathProducts],
        stream: &[PathProducts],
        pooled: (&BurstinessReport, &BurstinessReport),
        io: Result<(Vec<f64>, Vec<f64>), String>,
    ) -> JobOutput {
        let mut out = JobOutput {
            attempted: batch.len() as u64 + 1,
            ..JobOutput::default()
        };
        let mut h = Fnv::default();
        let mut records = 0u64;
        for (i, (b, s)) in batch.iter().zip(stream).enumerate() {
            for p in [b, s] {
                h.eat(p.report.n_losses as u64);
                h.eat(p.hist.total);
                h.eat(p.hist.overflow);
                for &bin in &p.hist.bins {
                    h.eat(bin);
                }
                h.eat(p.episodes.count as u64);
                records += p.report.n_losses as u64;
            }
            let delta = products_delta(b, s);
            if b.report.n_losses != s.report.n_losses
                || b.hist.bins != s.hist.bins
                || delta.is_nan()
                || delta > MAX_STAT_DELTA
            {
                out.failed += 1;
                out.problems.push(format!(
                    "path {i}: streaming and batch disagree (max statistic delta {delta:e})"
                ));
            }
        }
        let pooled_delta = report_delta(pooled.0, pooled.1);
        out.check(pooled_delta <= MAX_STAT_DELTA, || {
            format!("pooled reports disagree (delta {pooled_delta:e})")
        });
        match io {
            Ok((written, read)) => {
                let equal = written.len() == read.len()
                    && written
                        .iter()
                        .zip(&read)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !equal {
                    out.failed += 1;
                    out.problems
                        .push("pooled trace did not round-trip bit-equal".into());
                }
                h.eat(read.len() as u64);
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(e);
            }
        }
        out.work = records as f64;
        out.fingerprint = h.0;
        out.counts.push(("records", records));
        out
    }
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

fn products_delta(b: &PathProducts, s: &PathProducts) -> f64 {
    let mut d = report_delta(&b.report, &s.report);
    d = d.max((b.episodes.mean_size - s.episodes.mean_size).abs());
    d = d.max((b.episodes.fraction_in_bursts - s.episodes.fraction_in_bursts).abs());
    for (x, y) in b.acf.iter().zip(&s.acf) {
        d = d.max((x - y).abs());
    }
    d
}

/// Write the pooled trace and read it back. Returns (written, read).
fn round_trip(file: &Path, times: Vec<f64>) -> Result<(Vec<f64>, Vec<f64>), String> {
    write_loss_trace(file, "trace_pipeline pooled loss trace", &times)
        .map_err(|e| format!("pooled trace write failed: {e}"))?;
    let read = read_loss_trace_file(file).map_err(|e| format!("pooled trace read failed: {e}"))?;
    Ok((times, read))
}

impl Job for PipelineJob {
    fn run(&self) -> JobOutput {
        let batch: Vec<PathProducts> = self.specs.par_iter().map(|s| self.path_batch(s)).collect();
        let pooled_b = Self::pooled_batch(&batch);
        let stream: Vec<PathProducts> = self
            .specs
            .par_iter()
            .map(|s| self.path_streaming(s))
            .collect();
        let (pooled_s, _) = Self::pooled_streaming(&stream);
        let io = round_trip(&self.trace_file(), self.pooled_times(&batch));
        self.digest(&batch, &stream, (&pooled_b, &pooled_s), io)
    }

    fn run_traced(&self, rec: &mut Recorder) -> TracedOutput {
        let file = self.trace_file();
        let mut state_bytes = 0;
        let mut file_bytes = 0u64;
        let out = rec.time("trace_pipeline", None, |rec| {
            let batch: Vec<PathProducts> = self
                .specs
                .iter()
                .map(|s| {
                    rec.time("analysis.batch.path", Some(s.index as u64), |_| {
                        self.path_batch(s)
                    })
                })
                .collect();
            let pooled_b = rec.time("analysis.batch.pooled", None, |_| {
                Self::pooled_batch(&batch)
            });
            let stream: Vec<PathProducts> = self
                .specs
                .iter()
                .map(|s| {
                    rec.time("analysis.streaming.path", Some(s.index as u64), |_| {
                        self.path_streaming(s)
                    })
                })
                .collect();
            let (pooled_s, bytes) = rec.time("analysis.streaming.pooled", None, |_| {
                Self::pooled_streaming(&stream)
            });
            state_bytes = bytes;
            let times = self.pooled_times(&batch);
            let written = rec.time("analysis.io.write", None, |_| {
                write_loss_trace(&file, "trace_pipeline pooled loss trace", &times)
                    .map_err(|e| format!("pooled trace write failed: {e}"))
            });
            file_bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
            let io = written.and_then(|()| {
                rec.time("analysis.io.read", None, |_| read_loss_trace_file(&file))
                    .map(|read| (times, read))
                    .map_err(|e| format!("pooled trace read failed: {e}"))
            });
            self.digest(&batch, &stream, (&pooled_b, &pooled_s), io)
        });

        // Each form handled half of the records.
        let losses = out.work / 2.0;
        let per_loss = |names: [&str; 2]| {
            let secs: f64 = names.iter().map(|n| rec.total_s(n)).sum();
            if losses > 0.0 {
                secs * 1e9 / losses
            } else {
                0.0
            }
        };
        let mb_per_s = |name: &str| {
            let secs = rec.total_s(name);
            if secs > 0.0 {
                file_bytes as f64 / 1e6 / secs
            } else {
                0.0
            }
        };
        let layer = vec![
            (
                "analysis.streaming.ns_per_loss",
                per_loss(["analysis.streaming.path", "analysis.streaming.pooled"]),
            ),
            ("analysis.streaming.state_bytes", state_bytes as f64),
            (
                "analysis.batch.ns_per_loss",
                per_loss(["analysis.batch.path", "analysis.batch.pooled"]),
            ),
            ("analysis.io.write_mb_per_s", mb_per_s("analysis.io.write")),
            ("analysis.io.read_mb_per_s", mb_per_s("analysis.io.read")),
        ];
        TracedOutput { output: out, layer }
    }
}
