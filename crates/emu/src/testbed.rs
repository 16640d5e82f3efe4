//! The Fig 1 testbed: a dumbbell bottleneck loaded with window-based TCP
//! flows, exponential on-off noise (50 flows, 10% of capacity, two-way),
//! and optionally a stream of short slow-start-dominated flows.
//!
//! Both measurement campaigns run through this module:
//!
//! * the **NS-2 simulation** campaign uses an ideal clock and no processing
//!   jitter;
//! * the **Dummynet emulation** campaign uses the FreeBSD 1 ms clock and
//!   per-packet processing jitter — the two non-idealities that distinguish
//!   the paper's emulation data from its simulation data.
//!
//! There is one run path, [`run_streaming`] / [`run_streaming_limited`]:
//! the trace is never buffered, a `ClockedLossSink` stamps each
//! forward-bottleneck drop as it happens. (The `_streaming` suffix is
//! history — a buffered twin existed until PR 24 — and stays until the
//! benchmark that imports these names can be renamed with them.)

use crate::clock::ClockModel;
use crate::sink::ClockedLossSink;
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::iface::FlowProgress;
use lossburst_netsim::link::JitterModel;
use lossburst_netsim::packet::FlowId;
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::sim::{RunLimits, Simulator};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::{build_dumbbell, Dumbbell, DumbbellConfig, RttAssignment};
use lossburst_netsim::trace::TraceConfig;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::config::TcpConfig;
use lossburst_transport::onoff::{FluidOnOff, OnOff};
use rand::RngExt;

/// A stream of short flows arriving as a Poisson process — the paper's
/// second burstiness source ("slow start of short flows").
#[derive(Clone, Debug)]
pub struct ShortFlowConfig {
    /// Mean arrivals per second.
    pub rate_per_sec: f64,
    /// Minimum transfer size in bytes (Pareto floor).
    pub min_bytes: f64,
    /// Pareto shape (1 < α ≤ 2 gives the heavy tail of real flow sizes).
    pub alpha: f64,
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Number of long-lived window-based TCP flows (the paper sweeps 2–32).
    pub tcp_flows: usize,
    /// Per-pair RTT assignment.
    pub rtt: RttAssignment,
    /// Bottleneck capacity, bits/second.
    pub bottleneck_bps: f64,
    /// Access capacity, bits/second.
    pub(crate) access_bps: f64,
    /// Bottleneck queue discipline.
    pub bottleneck_disc: QueueDisc,
    /// Number of on-off noise flows (half forward, half reverse).
    pub noise_flows: usize,
    /// Aggregate average noise rate as a fraction of bottleneck capacity.
    pub noise_fraction: f64,
    /// Mean ON period of a noise flow.
    pub(crate) noise_mean_on: SimDuration,
    /// Mean OFF period of a noise flow.
    pub(crate) noise_mean_off: SimDuration,
    /// Optional short-flow stream.
    pub short_flows: Option<ShortFlowConfig>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// TCP parameters for the long flows.
    pub tcp: TcpConfig,
    /// Congestion-control algorithm driving the TCP senders (long flows
    /// and the short-flow stream). The paper's campaigns use NewReno; the
    /// conformance suite also sweeps CUBIC and BBR through the same gate.
    pub cc: CcAlgorithm,
    /// Recording clock applied to the loss trace.
    pub(crate) clock: ClockModel,
    /// Per-packet processing jitter at the bottleneck router.
    pub(crate) jitter: JitterModel,
    /// How the noise flows are simulated: packet by packet (the reference
    /// model, default) or as a fluid aggregate at the two bottleneck links
    /// (the hybrid engine; see `lossburst_netsim::fluid`).
    pub background: BackgroundMode,
    /// RNG seed (controls RTT draws, noise phases, flow start stagger).
    pub(crate) seed: u64,
}

impl TestbedConfig {
    /// The paper's NS-2 baseline: ideal router, given flow count and
    /// buffer, RTTs uniform in 2–200 ms, 50 noise flows at 10% of c.
    pub fn ns2_baseline(tcp_flows: usize, buffer_pkts: usize, seed: u64) -> TestbedConfig {
        TestbedConfig {
            tcp_flows,
            rtt: RttAssignment::Uniform(SimDuration::from_millis(2), SimDuration::from_millis(200)),
            bottleneck_bps: 100e6,
            access_bps: 1e9,
            bottleneck_disc: QueueDisc::drop_tail(buffer_pkts),
            noise_flows: 50,
            noise_fraction: 0.10,
            noise_mean_on: SimDuration::from_millis(100),
            noise_mean_off: SimDuration::from_millis(100),
            short_flows: None,
            duration: SimDuration::from_secs(60),
            tcp: TcpConfig::default(),
            cc: CcAlgorithm::NewReno,
            clock: ClockModel::ideal(),
            jitter: JitterModel::None,
            background: BackgroundMode::Packet,
            seed,
        }
    }

    /// The paper's Dummynet setup: 4 fixed RTT classes (2/10/50/200 ms),
    /// 1 ms recording clock, and processing-time noise in the router.
    pub fn dummynet_baseline(tcp_flows: usize, buffer_pkts: usize, seed: u64) -> TestbedConfig {
        let mut cfg = TestbedConfig::ns2_baseline(tcp_flows, buffer_pkts, seed);
        cfg.rtt = RttAssignment::Classes(vec![
            SimDuration::from_millis(2),
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        ]);
        cfg.clock = ClockModel::freebsd_1ms();
        cfg.jitter = JitterModel::Exponential(SimDuration::from_micros(30));
        cfg
    }
}

/// What a testbed run produced: online burstiness statistics plus the
/// O(losses) stamped drop timeline; no trace is buffered.
#[derive(Clone, Debug)]
pub struct StreamTestbedResult {
    /// Online burstiness statistics over the forward-bottleneck drops,
    /// clock-stamped and normalized by the mean TCP RTT.
    pub stats: LossStreamStats,
    /// Drop timestamps (seconds) at the forward bottleneck, through the
    /// recording clock; kept for cross-run pooling.
    pub loss_times: Vec<f64>,
    /// RTT assigned to each TCP pair.
    pub pair_rtts: Vec<SimDuration>,
    /// Mean of the TCP pairs' RTTs — the normalization constant for the
    /// shared-bottleneck loss trace.
    pub mean_rtt: SimDuration,
    /// Forward-bottleneck drop count.
    pub drops: u64,
    /// Bottleneck utilization over the run (0..=1).
    pub utilization: f64,
    /// Progress of each long TCP flow.
    pub tcp_progress: Vec<FlowProgress>,
    /// Bytes still committed to trace buffers (near zero: buffering is off).
    pub trace_bytes: usize,
}

/// Build the testbed simulation — topology, jitter, and the full workload
/// — ready to run, with trace buffering off (drops reach a sink instead).
fn build_testbed(cfg: &TestbedConfig) -> (Simulator, Dumbbell, Vec<FlowId>) {
    let mut b = SimBuilder::new(cfg.seed).trace(TraceConfig::none());
    let pairs = cfg.tcp_flows + cfg.noise_flows + cfg.short_flows.as_ref().map(|_| 1).unwrap_or(0);
    let dcfg = DumbbellConfig {
        pairs,
        bottleneck_bps: cfg.bottleneck_bps,
        access_bps: cfg.access_bps,
        bottleneck_disc: cfg.bottleneck_disc.clone(),
        access_buffer_pkts: 10_000,
        rtt: cfg.rtt.clone(),
    };
    let db = build_dumbbell(&mut b, &dcfg);
    let mut sim = b.build();
    sim.links[db.bottleneck.index()].jitter = cfg.jitter.clone();
    sim.links[db.reverse_bottleneck.index()].jitter = cfg.jitter.clone();

    let mut wiring_rng = Sampler::child_rng(cfg.seed, 0xD0C5);

    // Long-lived TCP flows, starts staggered over the first 5% of the run
    // so slow starts do not synchronize artificially.
    let stagger = cfg.duration.mul_f64(0.05);
    let mut tcp_flow_ids = Vec::with_capacity(cfg.tcp_flows);
    for i in 0..cfg.tcp_flows {
        let start =
            SimTime::ZERO + Sampler::uniform_duration(&mut wiring_rng, SimDuration::ZERO, stagger);
        let spec = FlowSpec {
            tcp: cfg.tcp.clone(),
            rtt_hint: db.pair_rtts[i],
            limit_bytes: None,
        };
        let t = cfg.cc.build_flow(db.senders[i], db.receivers[i], &spec);
        let id = sim.add_flow(db.senders[i], db.receivers[i], start, t);
        tcp_flow_ids.push(id);
    }

    // Two-way on-off noise: per-packet sources, or their fluid twins
    // steering the two bottleneck links' aggregate background rate.
    if cfg.noise_flows > 0 {
        if cfg.background == BackgroundMode::Fluid {
            sim.links[db.bottleneck.index()].enable_fluid(1000.0);
            sim.links[db.reverse_bottleneck.index()].enable_fluid(1000.0);
        }
        let per_flow_avg = cfg.noise_fraction * cfg.bottleneck_bps / cfg.noise_flows as f64;
        for n in 0..cfg.noise_flows {
            let pair = cfg.tcp_flows + n;
            let (src, dst, through) = if n % 2 == 0 {
                (db.senders[pair], db.receivers[pair], db.bottleneck)
            } else {
                (db.receivers[pair], db.senders[pair], db.reverse_bottleneck)
            };
            match cfg.background {
                BackgroundMode::Packet => {
                    let noise = OnOff::with_average_rate(
                        src,
                        dst,
                        1000,
                        per_flow_avg,
                        cfg.noise_mean_on,
                        cfg.noise_mean_off,
                    );
                    sim.add_flow(src, dst, SimTime::ZERO, Box::new(noise));
                }
                BackgroundMode::Fluid => {
                    let noise = FluidOnOff::with_average_rate(
                        through,
                        per_flow_avg,
                        cfg.noise_mean_on,
                        cfg.noise_mean_off,
                    );
                    sim.add_flow(src, dst, SimTime::ZERO, Box::new(noise));
                }
            }
        }
    }

    // Short-flow stream on the last pair: Poisson arrivals, Pareto sizes.
    if let Some(sf) = &cfg.short_flows {
        let pair = pairs - 1;
        let mut t = SimTime::ZERO;
        loop {
            let gap = Sampler::exponential_duration(
                &mut wiring_rng,
                SimDuration::from_secs_f64(1.0 / sf.rate_per_sec),
            );
            t += gap;
            if t.since(SimTime::ZERO) >= cfg.duration {
                break;
            }
            let bytes = Sampler::pareto(&mut wiring_rng, sf.min_bytes, sf.alpha).min(1e8) as u64;
            let spec = FlowSpec {
                tcp: cfg.tcp.clone(),
                rtt_hint: db.pair_rtts[pair],
                limit_bytes: Some(bytes),
            };
            let flow = cfg
                .cc
                .build_flow(db.senders[pair], db.receivers[pair], &spec);
            sim.add_flow(db.senders[pair], db.receivers[pair], t, flow);
        }
        // Shuffle nothing: arrival order is already the schedule.
        let _ = wiring_rng.random::<u64>();
    }

    (sim, db, tcp_flow_ids)
}

fn mean_pair_rtt(pair_rtts: &[SimDuration]) -> SimDuration {
    if pair_rtts.is_empty() {
        SimDuration::from_millis(100)
    } else {
        let total: f64 = pair_rtts.iter().map(|r| r.as_secs_f64()).sum();
        SimDuration::from_secs_f64(total / pair_rtts.len() as f64)
    }
}

/// Integrate any fluid backlog forward to the end of the run (the link
/// advances lazily, so after the last event its counters lag the horizon).
fn settle_fluid(sim: &mut Simulator, db: &Dumbbell) {
    let now = sim.now;
    for l in [db.bottleneck, db.reverse_bottleneck] {
        if sim.links[l.index()].fluid().is_some() {
            sim.links[l.index()].add_fluid_rate(now, 0.0);
        }
    }
}

fn bottleneck_utilization(sim: &Simulator, db: &Dumbbell, cfg: &TestbedConfig) -> f64 {
    let bl = &sim.links[db.bottleneck.index()];
    // In fluid mode background bytes drain virtually; they occupy the link
    // just as transmitted packets do.
    let fluid_bytes = bl.fluid().map_or(0.0, |f| f.drained_bytes);
    (bl.stats.transmitted_bytes as f64 + fluid_bytes) * 8.0
        / (cfg.bottleneck_bps * cfg.duration.as_secs_f64())
}

/// A limited testbed run spent its event budget before reaching the
/// configured duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventBudgetExceeded {
    /// Events the simulator had processed when it aborted.
    pub events: u64,
}

impl std::fmt::Display for EventBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "testbed run aborted: event budget spent after {} events",
            self.events
        )
    }
}

impl std::error::Error for EventBudgetExceeded {}

/// Run one testbed experiment: trace buffering off, a `ClockedLossSink`
/// stamping and folding each forward-bottleneck drop into a
/// [`LossStreamStats`] as it happens.
pub fn run_streaming(cfg: &TestbedConfig) -> StreamTestbedResult {
    run_streaming_limited(cfg, RunLimits::NONE).expect("unlimited run cannot exhaust")
}

/// [`run_streaming`] under execution limits: the event budget aborts a
/// runaway configuration, and `panic_at_event` injects a deterministic
/// mid-run panic for supervisor fault-boundary testing.
pub fn run_streaming_limited(
    cfg: &TestbedConfig,
    limits: RunLimits,
) -> Result<StreamTestbedResult, EventBudgetExceeded> {
    let (mut sim, db, tcp_flow_ids) = build_testbed(cfg);
    let pair_rtts: Vec<SimDuration> = db.pair_rtts[..cfg.tcp_flows].to_vec();
    let mean_rtt = mean_pair_rtt(&pair_rtts);
    let sink_idx = sim.trace.add_sink(Box::new(ClockedLossSink::new(
        db.bottleneck,
        cfg.clock,
        mean_rtt.as_secs_f64(),
    )));

    sim.set_run_limits(limits);
    sim.run_until(SimTime::ZERO + cfg.duration);
    if sim.budget_exhausted() {
        return Err(EventBudgetExceeded {
            events: sim.events_processed,
        });
    }
    settle_fluid(&mut sim, &db);

    let utilization = bottleneck_utilization(&sim, &db, cfg);
    let drops = sim.links[db.bottleneck.index()].stats.dropped;
    let trace_bytes = sim.trace.buffer_bytes();
    let tcp_progress: Vec<FlowProgress> = tcp_flow_ids
        .iter()
        .map(|id| sim.flows[id.index()].transport.progress())
        .collect();
    let sink = sim
        .trace
        .sink_mut::<ClockedLossSink>(sink_idx)
        .expect("loss sink attached above");
    Ok(StreamTestbedResult {
        stats: sink.stats().clone(),
        loss_times: sink.take_times(),
        pair_rtts,
        mean_rtt,
        drops,
        utilization,
        tcp_progress,
        trace_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns2_baseline_produces_bursty_losses() {
        let mut cfg = TestbedConfig::ns2_baseline(8, 200, 42);
        cfg.duration = SimDuration::from_secs(20);
        let res = run_streaming(&cfg);
        assert!(res.drops > 20, "only {} drops", res.drops);
        assert_eq!(res.loss_times.len() as u64, res.drops);
        // With a 0.16-BDP buffer and 2–200 ms RTTs, 8 NewReno flows leave
        // the link partly idle after synchronized back-offs; ~50% is in the
        // expected range. Guard only against a broken (near-idle) setup.
        assert!(res.utilization > 0.35, "utilization {}", res.utilization);
        assert_eq!(res.pair_rtts.len(), 8);
        // The headline claim, in miniature: most inter-loss intervals are
        // far below one (mean) RTT.
        let iv = lossburst_analysis_like_intervals(&res.loss_times);
        let rtt = res.mean_rtt.as_secs_f64();
        let below = iv.iter().filter(|&&x| x < 0.25 * rtt).count();
        assert!(
            below as f64 / iv.len().max(1) as f64 > 0.5,
            "{}/{} intervals below 0.25 RTT",
            below,
            iv.len()
        );
    }

    #[test]
    fn dummynet_clock_quantizes_trace() {
        let mut cfg = TestbedConfig::dummynet_baseline(8, 200, 43);
        cfg.duration = SimDuration::from_secs(15);
        let res = run_streaming(&cfg);
        assert!(res.drops > 0);
        for t in &res.loss_times {
            let ms = t * 1000.0;
            assert!(
                (ms - ms.round()).abs() < 1e-6,
                "timestamp {t} not on a 1 ms tick"
            );
        }
    }

    #[test]
    fn event_budget_aborts_testbed_run() {
        let mut cfg = TestbedConfig::ns2_baseline(4, 100, 7);
        cfg.duration = SimDuration::from_secs(5);
        let err = run_streaming_limited(&cfg, RunLimits::max_events(1_000)).unwrap_err();
        assert_eq!(err, EventBudgetExceeded { events: 1_000 });
        // A generous budget reproduces the unlimited run exactly.
        let unlimited = run_streaming(&cfg);
        let limited = run_streaming_limited(&cfg, RunLimits::max_events(u64::MAX / 2)).unwrap();
        assert_eq!(unlimited.drops, limited.drops);
        assert_eq!(unlimited.loss_times, limited.loss_times);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = TestbedConfig::ns2_baseline(4, 100, 7);
        cfg.duration = SimDuration::from_secs(5);
        let a = run_streaming(&cfg);
        let b = run_streaming(&cfg);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.loss_times, b.loss_times);
    }

    #[test]
    fn short_flows_add_losses() {
        let mut cfg = TestbedConfig::ns2_baseline(2, 100, 11);
        cfg.duration = SimDuration::from_secs(10);
        let base = run_streaming(&cfg).drops;
        cfg.short_flows = Some(ShortFlowConfig {
            rate_per_sec: 20.0,
            min_bytes: 20_000.0,
            alpha: 1.3,
        });
        let with_short = run_streaming(&cfg).drops;
        assert!(
            with_short > base,
            "short flows should add pressure: {with_short} vs {base}"
        );
    }

    #[test]
    fn fluid_background_keeps_the_testbed_in_the_same_regime() {
        let mut cfg = TestbedConfig::ns2_baseline(8, 200, 42);
        cfg.duration = SimDuration::from_secs(20);
        let packet = run_streaming(&cfg);
        cfg.background = BackgroundMode::Fluid;
        let fluid = run_streaming(&cfg);
        // Same TCP population over the same bottleneck: the fluid noise
        // model must leave the run in the same loss/utilization regime as
        // the packet noise model, not reproduce it sample for sample.
        assert!(fluid.drops > 20, "only {} drops in fluid mode", fluid.drops);
        assert!(
            (fluid.utilization - packet.utilization).abs() < 0.20,
            "utilization diverged: fluid {} vs packet {}",
            fluid.utilization,
            packet.utilization
        );
        let ratio = fluid.drops as f64 / packet.drops as f64;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "drop counts diverged: fluid {} vs packet {}",
            fluid.drops,
            packet.drops
        );
        // And the fluid run is itself deterministic.
        let again = run_streaming(&cfg);
        assert_eq!(fluid.drops, again.drops);
        assert_eq!(fluid.loss_times, again.loss_times);
    }

    // Minimal local interval helper to avoid a dev-dependency cycle with
    // lossburst-analysis.
    fn lossburst_analysis_like_intervals(times: &[f64]) -> Vec<f64> {
        let mut s = times.to_vec();
        s.sort_by(f64::total_cmp);
        s.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn interval_helper_tolerates_nan_input() {
        // `partial_cmp(..).unwrap()` here used to panic on NaN; total_cmp
        // keeps the helper total (NaN sorts to the end) so a corrupted
        // trace degrades the statistics instead of aborting the test run.
        let iv = lossburst_analysis_like_intervals(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(iv.len(), 3);
        assert_eq!(iv[0], 1.0);
        assert_eq!(iv[1], 1.0);
        assert!(iv[2].is_nan());
    }
}
