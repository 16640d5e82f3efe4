//! Isolated layer drives: each times one layer's public operations in a
//! tight loop, from outside, with nothing else running. They are the same
//! for every workload — a layer's cost per operation does not depend on
//! who calls it — so every traced run carries the full per-layer budget.
//!
//! A drive runs batches until its time slice is spent (at least three) and
//! reports the median batch, so one preempted batch does not move it.

use crate::stats::median;
use crate::workloads::lab::LabJob;
use crate::workloads::Scale;
use lossburst_analysis::gilbert::{Chain, GilbertParams};
use lossburst_core::supervisor::{
    campaign_fingerprint, supervise, CampaignCheckpoint, LabCellRecord, SupervisorConfig,
};
use lossburst_emu::testbed::run_streaming_limited;
use lossburst_inet::campaign::{
    grid_pairs, try_measure_path_grid_streaming, CampaignConfig, GridSample, StreamPathMeasurement,
};
use lossburst_inet::probe::{run_probe_streaming_limited, ProbeConfig};
use lossburst_netsim::driver::HostDriver;
use lossburst_netsim::event::{Event, EventQueue};
use lossburst_netsim::link::Link;
use lossburst_netsim::packet::{FlowId, LinkId, NodeId, Packet, PacketKind};
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::sim::RunLimits;
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::trace::{LossRecord, TraceConfig, TraceSet, TraceSink};
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use rand::rngs::SmallRng;
use rand::RngExt;
use rayon::prelude::*;
use std::any::Any;
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Run `batch` (which returns the operations it performed) until `slice`
/// is spent, at least three times; the median nanoseconds per operation.
fn median_ns_per_op(slice: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let deadline = Instant::now() + slice;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let t0 = Instant::now();
        let ops = batch();
        samples.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples).expect("at least three samples")
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Hold-model churn on the event queue at a fixed backlog: pop the
/// earliest event, reinsert one at a mixed near/RTT/RTO horizon — what a
/// simulation with short pacing timers and long RTO timers produces.
fn event_queue(slice: Duration, backlog: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut q = EventQueue::new();
    let mut s = 0x1234_5678_9abc_def0u64;
    for i in 0..backlog {
        q.schedule(
            SimTime::from_nanos(xorshift(&mut s) % 10_000_000),
            Event::FlowStart {
                flow: FlowId(i as u32),
            },
        );
    }
    median_ns_per_op(slice, || {
        for _ in 0..OPS {
            let (t, _) = q.pop().expect("backlog is held constant");
            let delta = match xorshift(&mut s) % 10 {
                0..=6 => xorshift(&mut s) % 100_000,
                7 | 8 => 1_000_000 + xorshift(&mut s) % 10_000_000,
                _ => 100_000_000 + xorshift(&mut s) % 1_000_000_000,
            };
            q.schedule(
                SimTime::from_nanos(t.as_nanos() + delta),
                Event::FlowStart { flow: FlowId(0) },
            );
        }
        black_box(q.len());
        OPS
    })
}

/// A 100 Mbit/s link offered 1000-byte packets at 1.25x its rate, so the
/// queue sits at its limit and the discipline decides on every arrival.
/// One operation is one packet offered (and, if admitted, transmitted).
fn link(slice: Duration, disc: QueueDisc) -> f64 {
    const OPS: u64 = 100_000;
    let mut link = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        100e6,
        SimDuration::from_millis(1),
        disc,
    );
    let mut rng = Sampler::child_rng(7, 0x11AC);
    let tx = link.tx_duration(1000);
    let gap = tx.mul_f64(0.8);
    let mut next_arrival = SimTime::ZERO;
    let mut tx_done: Option<SimTime> = None;
    let mut seq = 0u64;
    median_ns_per_op(slice, || {
        let mut offered = 0;
        while offered < OPS {
            match tx_done {
                Some(done) if done <= next_arrival => {
                    let out = link.complete_tx(done, &mut rng);
                    tx_done = out.next_tx.map(|d| done + d);
                    black_box(out.packet.seq);
                }
                _ => {
                    let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, seq);
                    seq += 1;
                    offered += 1;
                    let out = link.enqueue(next_arrival, pkt, &mut rng);
                    if let Some(d) = out.begin_tx {
                        tx_done = Some(next_arrival + d);
                    }
                    next_arrival += gap;
                }
            }
        }
        OPS
    })
}

/// The cheapest possible observer: the sink drive measures dispatch, not
/// analysis.
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn on_loss(&mut self, _rec: &LossRecord) {
        self.0 += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `TraceSet::loss` per record, into a fresh trace set each batch: either
/// unbuffered with a sink attached, or buffering every stream. Returns
/// (ns per record, buffer bytes a batch committed).
fn trace_records(slice: Duration, buffered: bool) -> (f64, usize) {
    const OPS: u64 = 200_000;
    let mut bytes = 0;
    let ns = median_ns_per_op(slice, || {
        let mut trace = if buffered {
            TraceSet::new(TraceConfig::all())
        } else {
            let mut t = TraceSet::new(TraceConfig::none());
            t.add_sink(Box::new(CountingSink(0)));
            t
        };
        for k in 0..OPS {
            trace.loss(LossRecord {
                time: SimTime::from_nanos(k * 1_000),
                link: LinkId(0),
                flow: FlowId(0),
                seq: k,
            });
        }
        bytes = trace.buffer_bytes();
        black_box(&trace);
        OPS
    });
    (ns, bytes)
}

/// One `Chain::step` with the workloads' RNG behind it.
fn gilbert_step(slice: Duration) -> f64 {
    const OPS: u64 = 1_000_000;
    let mut rng = Sampler::child_rng(7, 0x61B);
    let params = GilbertParams { p: 0.004, r: 0.4 };
    let mut chain = Chain::new(params, || rng.random());
    median_ns_per_op(slice, || {
        let mut lost = 0u64;
        for _ in 0..OPS {
            lost += u64::from(chain.step(|| rng.random()));
        }
        black_box(lost);
        OPS
    })
}

/// A transport state machine looped back on itself under a virtual clock:
/// data packets cross a 40 Mbit/s, 100-packet bottleneck and a scripted 1 %
/// Gilbert drop plan, acknowledgments come straight back, 10 ms RTT.
struct Loopback {
    transport: Box<dyn lossburst_netsim::iface::Transport>,
    driver: HostDriver,
    src: NodeId,
    now: SimTime,
    forward: VecDeque<(SimTime, Packet)>,
    reverse: VecDeque<(SimTime, Packet)>,
    link_free: SimTime,
    plan_rng: SmallRng,
    plan: Chain,
}

impl Loopback {
    const ONE_WAY: SimDuration = SimDuration::from_millis(5);
    const TX: SimDuration = SimDuration::from_micros(200); // 1000 B at 40 Mbit/s
    const QUEUE_PKTS: u64 = 100;

    fn new(alg: CcAlgorithm, seed: u64) -> Loopback {
        let (src, dst) = (NodeId(0), NodeId(1));
        let spec = FlowSpec::new(SimDuration::from_millis(10));
        let mut transport = alg.build_flow(src, dst, &spec);
        let mut driver = HostDriver::new(seed, FlowId(0));
        let mut plan_rng = Sampler::child_rng(seed, 0x9A7);
        let plan = Chain::new(GilbertParams { p: 0.004, r: 0.4 }, || plan_rng.random());
        let first = driver.start(transport.as_mut(), SimTime::ZERO);
        let mut lb = Loopback {
            transport,
            driver,
            src,
            now: SimTime::ZERO,
            forward: VecDeque::new(),
            reverse: VecDeque::new(),
            link_free: SimTime::ZERO,
            plan_rng,
            plan,
        };
        lb.emit(first);
        lb
    }

    fn emit(&mut self, out: Vec<(NodeId, Packet)>) {
        for (origin, pkt) in out {
            if origin != self.src {
                self.reverse.push_back((self.now + Self::ONE_WAY, pkt));
                continue;
            }
            let rng = &mut self.plan_rng;
            if self.plan.step(|| rng.random()) {
                continue; // the plan drops this forward arrival
            }
            let start = self.link_free.max(self.now);
            if start.since(self.now).as_nanos() > Self::QUEUE_PKTS * Self::TX.as_nanos() {
                continue; // bottleneck queue full
            }
            self.link_free = start + Self::TX;
            self.forward
                .push_back((self.link_free + Self::ONE_WAY, pkt));
        }
    }

    /// Advance to the next arrival or timer. Returns the kind of packet
    /// the sender's endpoint received, if that is what happened.
    fn step(&mut self) -> Option<PacketKind> {
        let fwd = self.forward.front().map(|e| e.0);
        let rev = self.reverse.front().map(|e| e.0);
        let timer = self.driver.next_timer_at();
        let next = [fwd, rev, timer].into_iter().flatten().min()?;
        self.now = self.now.max(next);
        if timer == Some(next) {
            let out = self
                .driver
                .fire_timers_until(self.transport.as_mut(), self.now);
            self.emit(out);
            return None;
        }
        let (queue, to_sender) = if fwd == Some(next) {
            (&mut self.forward, false)
        } else {
            (&mut self.reverse, true)
        };
        let (_, pkt) = queue.pop_front().expect("front was just inspected");
        let out = self.driver.deliver(self.transport.as_mut(), &pkt, self.now);
        self.emit(out);
        to_sender.then_some(pkt.kind)
    }
}

/// Nanoseconds of transport work (both endpoints, timers included) per
/// acknowledgment — or per feedback report for TFRC — the sender absorbed.
/// Also returns the retransmissions of one batch, which the virtual clock
/// and the scripted plan make an exact, repeatable count.
fn sender(slice: Duration, alg: CcAlgorithm, counted: PacketKind, per_batch: u64) -> (f64, u64) {
    let mut retransmits = 0;
    // Every batch drives a fresh flow through the same scripted history, so
    // batches repeat identical work and their median is a noise filter.
    let ns = median_ns_per_op(slice, || {
        let mut lb = Loopback::new(alg, 2006);
        let mut seen = 0;
        // The step cap ends a batch even if a sender stalls for good; the
        // division then shows it as an absurd cost instead of a hang.
        for _ in 0..per_batch * 1_000 {
            match lb.step() {
                Some(kind) if kind == counted => seen += 1,
                _ => {}
            }
            if seen == per_batch {
                break;
            }
        }
        retransmits = lb.transport.progress().retransmits;
        seen
    });
    (ns, retransmits)
}

/// `supervise` over a closure that does nothing, checkpoint on: what the
/// fault boundary, ledger and a minimal checkpoint append cost per path.
fn supervisor_overhead(slice: Duration, dir: &Path) -> f64 {
    const PATHS: usize = 2_000;
    let file = dir.join("overhead.ckpt");
    let sup = SupervisorConfig {
        checkpoint: Some(file.clone()),
        ..SupervisorConfig::default()
    };
    let fp = campaign_fingerprint("bench-overhead", 7, PATHS);
    let ns = median_ns_per_op(slice, || {
        let _ = std::fs::remove_file(&file);
        let run = supervise(PATHS, fp, &sup, |_, _| {
            Ok(LabCellRecord {
                intervals_rtt: Vec::new(),
                trace_bytes: 0,
            })
        })
        .expect("no-op sweep cannot fail");
        black_box(run.restored);
        PATHS as u64
    });
    ns / 1e3
}

/// Checkpoint append and strict restore on real campaign records: a few
/// genuinely measured paths, cycled to fill a file. Returns (appends/s,
/// restores/s, bytes per record).
fn checkpoint_io(slice: Duration, seed: u64, dir: &Path) -> (f64, f64, f64) {
    const RECORDS: usize = 2_000;
    let mut cfg = CampaignConfig::full(seed);
    cfg.n_paths = 8;
    // Long enough for the background traffic's first overflow, so the
    // records carry loss intervals like a real campaign's do.
    cfg.duration = SimDuration::from_secs(4);
    let sample: Vec<StreamPathMeasurement> = grid_pairs(&cfg)
        .into_iter()
        .enumerate()
        .filter_map(|(i, (src, dst))| {
            try_measure_path_grid_streaming(&cfg, i, src, dst, RunLimits::NONE).ok()
        })
        .collect();
    if sample.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let file = dir.join("records.ckpt");
    let fp = campaign_fingerprint("bench-records", seed, RECORDS);
    let open = || {
        CampaignCheckpoint::open::<StreamPathMeasurement>(&file, fp, RECORDS)
            .expect("checkpoint under the scratch dir opens")
    };
    let append_ns = median_ns_per_op(slice / 2, || {
        let _ = std::fs::remove_file(&file);
        let (ck, _) = open();
        for i in 0..RECORDS {
            ck.record_ok(i, 0, &sample[i % sample.len()]);
        }
        RECORDS as u64
    });
    let bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
    let restore_ns = median_ns_per_op(slice / 2, || {
        let (_, restored) = open();
        black_box(restored.iter().flatten().count()) as u64
    });
    (
        1e9 / append_ns,
        1e9 / restore_ns,
        bytes as f64 / RECORDS as f64,
    )
}

/// Topology + workload construction for one campaign path (both probe
/// sizes), microseconds: the run is cut off after a single event.
fn probe_build(slice: Duration, seed: u64) -> f64 {
    const SAMPLE: usize = 16;
    let grid = GridSample::new(seed);
    let duration = SimDuration::from_secs(1);
    let ns = median_ns_per_op(slice, || {
        for i in 0..SAMPLE {
            let scenario = grid.scenario(i);
            for probe in [
                ProbeConfig::small(duration, seed),
                ProbeConfig::large(duration, seed),
            ] {
                // Always `Err(EventBudget)`: the budget is the point.
                let _ = black_box(run_probe_streaming_limited(
                    &scenario,
                    &probe,
                    RunLimits::max_events(1),
                ));
            }
        }
        SAMPLE as u64
    });
    ns / 1e3
}

/// Construction of the `lab_dense` testbed (1024 pairs + 1024 noise
/// flows), milliseconds.
fn testbed_build(slice: Duration, seed: u64) -> f64 {
    let job = LabJob::prepare(seed, Scale::Full);
    let ns = median_ns_per_op(slice, || {
        let _ = black_box(run_streaming_limited(
            job.config(),
            RunLimits::max_events(1),
        ));
        1
    });
    ns / 1e6
}

/// Pool dispatch per task: a fan-out of 10^5 items that do nothing.
fn pool_dispatch(slice: Duration) -> f64 {
    const TASKS: usize = 100_000;
    median_ns_per_op(slice, || {
        let out: Vec<usize> = (0..TASKS).into_par_iter().map(|i| i ^ 1).collect();
        black_box(out.len()) as u64
    })
}

/// Number of drives [`serial_drives`] runs, for splitting a time budget.
const SERIAL_DRIVES: u32 = 16;

/// Every drive that must run without the pool, `budget` split evenly.
pub fn serial_drives(seed: u64, budget: Duration, dir: &Path) -> Vec<(&'static str, f64)> {
    let slice = budget / SERIAL_DRIVES;
    let mut m: Vec<(&'static str, f64)> = vec![
        ("netsim.event.ns_per_op_shallow", event_queue(slice, 64)),
        ("netsim.event.ns_per_op_deep", event_queue(slice, 200_000)),
        (
            "netsim.link.ns_per_pkt_droptail",
            link(slice, QueueDisc::drop_tail(100)),
        ),
        (
            "netsim.link.ns_per_pkt_red",
            link(slice, QueueDisc::red(100)),
        ),
    ];
    let (sink_ns, _) = trace_records(slice, false);
    let (buffered_ns, buffer_bytes) = trace_records(slice, true);
    m.push(("netsim.trace.ns_per_record_sink", sink_ns));
    m.push(("netsim.trace.ns_per_record_buffered", buffered_ns));
    m.push(("netsim.trace.buffer_bytes", buffer_bytes as f64));
    m.push(("analysis.gilbert.ns_per_step", gilbert_step(slice)));

    let mut retransmits = 0;
    for (name, alg) in [
        ("transport.sender.ns_per_ack.newreno", CcAlgorithm::NewReno),
        ("transport.sender.ns_per_ack.sack", CcAlgorithm::Sack),
        ("transport.sender.ns_per_ack.cubic", CcAlgorithm::Cubic),
        ("transport.sender.ns_per_ack.bbr", CcAlgorithm::Bbr),
    ] {
        let (ns, rtx) = sender(slice, alg, PacketKind::Ack, 20_000);
        m.push((name, ns));
        retransmits += rtx;
    }
    let (tfrc_ns, _) = sender(slice, CcAlgorithm::Tfrc, PacketKind::Feedback, 2_000);
    m.push(("transport.sender.ns_per_feedback.tfrc", tfrc_ns));
    m.push(("transport.sender.retransmits", retransmits as f64));

    m.push((
        "core.supervisor.overhead_us_per_path",
        supervisor_overhead(slice, dir),
    ));
    let (append, restore, bytes) = checkpoint_io(slice, seed, dir);
    m.push(("core.supervisor.ckpt_append_records_per_s", append));
    m.push(("core.supervisor.ckpt_restore_records_per_s", restore));
    m.push(("core.supervisor.ckpt_bytes_per_record", bytes));
    m.push(("inet.probe.build_us_per_path", probe_build(slice, seed)));
    m.push(("emu.testbed.build_ms", testbed_build(slice, seed)));
    m
}

/// The one drive that needs the pool at its pinned width.
pub fn pool_drive(slice: Duration) -> (&'static str, f64) {
    ("rayon.pool.dispatch_ns_per_task", pool_dispatch(slice))
}
