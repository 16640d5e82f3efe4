//! The benchmark's declared surface: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`lossburst-benchmark manifest`), and a test keeps the two equal, so a
//! metric cannot be printed under a name the manifest does not declare.

use crate::json::{obj, Json};

/// One workload and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (≤ 200 characters, one line).
    pub why: &'static str,
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest token.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median, before a
    /// change counts as a regression. `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Absolute difference, in the metric's unit, below which `agree`
    /// never counts a worsening (a quarter of a 2 ms set-up is scheduler
    /// jitter). Not part of the manifest.
    pub floor: f64,
}

/// Seconds one contract run measures for.
pub const RUN_SECONDS: u64 = 24;

/// The five workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "campaign_650",
        why: "650-path paired-probe campaign: 2 supervised shards -> checkpoint merge -> collect -> pooled report; 1300 small simulations with shallow event queues, so the event loop sets the time",
    },
    WorkloadSpec {
        name: "lab_dense",
        why: "one Dummynet-style testbed simulation with 1024 TCP pairs + 1024 noise flows: deep event calendar and large flow table, where the campaign's are shallow and small",
    },
    WorkloadSpec {
        name: "fairness_grid",
        why: "60-cell controller-pair fairness matrix (NewReno/SACK/CUBIC/BBR/TFRC x droptail/RED x 2 noise levels): ACK-clocked senders behind dyn Controller, full trace buffering",
    },
    WorkloadSpec {
        name: "trace_pipeline",
        why: "650 synthetic Gilbert loss traces through TraceSet, buffered+batch analysis beside sink+streaming analysis, then a text trace write/read round trip: analysis and trace layers, no event loop",
    },
    WorkloadSpec {
        name: "bsp_barrier",
        why: "lossy-BSP supersteps of 10^4 tiny transfers under four mitigations: Gilbert chain stepping, the ARQ automaton and the barrier's finalize; no netsim at all",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        floor,
    }
}

/// End-to-end metrics, reported by every workload. `ops_failed_share` is
/// not listed: it is zero on a healthy run, so the contract carries it as
/// `failed / attempted` instead of a metric that could never be compared
/// by ratio.
///
/// The issue asked for 10 % throughout; this host cannot hold that. It is a
/// few virtual cores of a shared machine, and the same one-thread job takes
/// anything from its floor to 1.8x its floor depending on the neighbours,
/// in bursts of under a second and in phases of minutes alike (forty
/// back-to-back `bsp_barrier` jobs: 6.0–11.1 s). The driver rejects a
/// benchmark whose own spread or drift reaches its bound, so the bounds are
/// the widest the contract allows (README, "Time-boxed form").
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("wall_s", "s", Better::Lower, 0.25, 0.0),
    e2e("work_per_s", "1/s", Better::Higher, 0.25, 0.0),
    e2e("cpu_s", "s", Better::Lower, 0.25, 0.0),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, 8.0),
    e2e("setup_s", "s", Better::Lower, 0.25, 0.02),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, reported by every traced run. A metric of a layer
/// the workload never enters reads 0 there (no work done, no time spent).
pub const PER_LAYER: [MetricSpec; 53] = [
    layer("netsim.event.ns_per_op_shallow", "ns", Lower),
    layer("netsim.event.ns_per_op_deep", "ns", Lower),
    layer("netsim.link.ns_per_pkt_droptail", "ns", Lower),
    layer("netsim.link.ns_per_pkt_red", "ns", Lower),
    layer("netsim.sim.events", "count", Lower),
    layer("netsim.sim.timers", "count", Lower),
    layer("netsim.sim.arrivals", "count", Lower),
    layer("netsim.sim.tx_completes", "count", Lower),
    layer("netsim.sim.ns_per_event", "ns", Lower),
    layer("netsim.trace.ns_per_record_sink", "ns", Lower),
    layer("netsim.trace.ns_per_record_buffered", "ns", Lower),
    layer("netsim.trace.buffer_bytes", "bytes", Lower),
    layer("inet.probe.build_us_per_path", "us", Lower),
    layer("emu.testbed.build_ms", "ms", Lower),
    layer("inet.campaign.path_ms_p50", "ms", Lower),
    layer("inet.campaign.path_ms_p99", "ms", Lower),
    layer("inet.campaign.path_ms_max", "ms", Lower),
    layer("transport.sender.ns_per_ack.newreno", "ns", Lower),
    layer("transport.sender.ns_per_ack.sack", "ns", Lower),
    layer("transport.sender.ns_per_ack.cubic", "ns", Lower),
    layer("transport.sender.ns_per_ack.bbr", "ns", Lower),
    layer("transport.sender.ns_per_feedback.tfrc", "ns", Lower),
    layer("transport.sender.retransmits", "count", Lower),
    layer("analysis.streaming.ns_per_loss", "ns", Lower),
    layer("analysis.streaming.state_bytes", "bytes", Lower),
    layer("analysis.batch.ns_per_loss", "ns", Lower),
    layer("analysis.io.write_mb_per_s", "MB/s", Higher),
    layer("analysis.io.read_mb_per_s", "MB/s", Higher),
    layer("analysis.gilbert.ns_per_step", "ns", Lower),
    layer("core.supervisor.overhead_us_per_path", "us", Lower),
    layer("core.supervisor.ckpt_append_records_per_s", "1/s", Higher),
    layer("core.supervisor.ckpt_restore_records_per_s", "1/s", Higher),
    layer("core.supervisor.ckpt_bytes_per_record", "bytes", Lower),
    layer("core.supervisor.paths_ok", "count", Higher),
    layer("core.supervisor.paths_retried", "count", Lower),
    layer("core.supervisor.paths_failed", "count", Lower),
    layer("core.shard.merge_s", "s", Lower),
    layer("core.shard.collect_s", "s", Lower),
    layer("core.fairness.cell_ms_p50", "ms", Lower),
    layer("core.fairness.cell_ms_max", "ms", Lower),
    layer("core.fairness.straggler_share", "%", Lower),
    layer("core.bsp.workers_s", "s", Lower),
    layer("core.bsp.finalize_s", "s", Lower),
    layer("core.bsp.ns_per_transfer.none", "ns", Lower),
    layer("core.bsp.ns_per_transfer.diversity3", "ns", Lower),
    layer("core.bsp.ns_per_transfer.redundancy10", "ns", Lower),
    layer("core.bsp.ns_per_transfer.burstaware", "ns", Lower),
    layer("rayon.pool.dispatch_ns_per_task", "ns", Lower),
    layer("rayon.pool.busy_share", "%", Higher),
    layer("rayon.pool.imbalance", "ratio", Lower),
    layer("rayon.pool.speedup", "ratio", Higher),
    layer("bench.trace.overhead_ratio", "ratio", Lower),
    layer("bench.trace.spans", "count", Lower),
];

/// Whether `name` is a legal workload or metric name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a legal unit token: 1–16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// The declared workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn metric_json(m: &MetricSpec) -> Json {
    let mut fields = vec![
        ("name".to_string(), m.name.into()),
        ("unit".to_string(), m.unit.into()),
        ("better".to_string(), m.better.as_str().into()),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound".to_string(), b.into()));
    }
    Json::Obj(fields)
}

/// The `BENCHMARK.json` document these tables declare.
pub fn manifest() -> Json {
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Json::from)
    .collect();
    obj([
        ("command", command.into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                .collect::<Vec<Json>>()
                .into(),
        ),
        (
            "end_to_end",
            END_TO_END
                .iter()
                .map(metric_json)
                .collect::<Vec<Json>>()
                .into(),
        ),
        (
            "per_layer",
            PER_LAYER
                .iter()
                .map(metric_json)
                .collect::<Vec<Json>>()
                .into(),
        ),
    ])
}
