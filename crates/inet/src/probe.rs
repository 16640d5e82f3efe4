//! The CBR probe methodology (paper §3.1, Internet measurements).
//!
//! A constant-bit-rate flow rides the synthetic path; the receiver logs
//! every arrival. Because the source is constant-rate, a lost packet's
//! emission time is known exactly, so the inter-loss intervals of the
//! *probe's own* loss process can be reconstructed without any clock at
//! the router — precisely the paper's trick for measuring loss timing
//! end-to-end without TCP's self-induced burstiness.

use crate::path::PathScenario;
use lossburst_netsim::builder::SimBuilder;
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::packet::FlowId;
use lossburst_netsim::queue::QueueDisc;
use lossburst_netsim::rng::Sampler;
use lossburst_netsim::sim::{EventCounts, FlowHandle, RunLimits, Simulator};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::topology::{build_chain, ChainConfig};
use lossburst_netsim::trace::{LossRecord, TraceConfig, TraceSink};
use lossburst_transport::cbr::Cbr;
use lossburst_transport::config::TcpConfig;
use lossburst_transport::onoff::{FluidOnOff, OnOff};
use lossburst_transport::sender::Sender;

/// One probe run's parameters.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Probe packet size on the wire (the paper used 48 B and 400 B).
    pub packet_bytes: u32,
    /// Probe packets per second. The default (2000) keeps the probe's own
    /// sampling resolution at or below 0.01 RTT for typical paths while
    /// loading the scaled-down bottleneck by well under 10%.
    pub pps: f64,
    /// Measurement duration (the paper used 5-minute runs).
    pub duration: SimDuration,
    /// Run seed (background traffic phase differs between the 48 B and
    /// 400 B runs, as it did on the real Internet).
    pub seed: u64,
    /// How the path's on-off noise aggregate is modelled: packet-by-packet
    /// ([`BackgroundMode::Packet`], the reference) or as a fluid rate
    /// process at the bottleneck ([`BackgroundMode::Fluid`]). Long TCP,
    /// episodic, and short flows stay packet-level in both modes.
    pub background: BackgroundMode,
}

impl ProbeConfig {
    /// A 48-byte probe run.
    pub fn small(duration: SimDuration, seed: u64) -> ProbeConfig {
        ProbeConfig {
            packet_bytes: 48,
            pps: 2000.0,
            duration,
            seed,
            background: BackgroundMode::Packet,
        }
    }

    /// A 400-byte probe run.
    pub fn large(duration: SimDuration, seed: u64) -> ProbeConfig {
        ProbeConfig {
            packet_bytes: 400,
            pps: 2000.0,
            duration,
            seed,
            background: BackgroundMode::Packet,
        }
    }
}

/// What one probe run measured: loss accounting plus the RTT-normalized
/// inter-loss intervals, the input of every burstiness statistic
/// ([`lossburst_analysis::burstiness::analyze`] for one run, the campaign's
/// pooled accumulator for many).
#[derive(Clone, Debug)]
pub struct StreamProbeOutcome {
    /// Probe packets sent (within the counted window).
    pub sent: u64,
    /// Probe packets received.
    pub received: u64,
    /// Lost probe packets (the checkpointed count).
    pub n_lost: usize,
    /// Lost probe sequence numbers. Like `counts`, a fresh-run field:
    /// checkpoints carry only `n_lost`, so it restores empty.
    pub lost: Vec<u64>,
    /// Probe loss rate.
    pub loss_rate: f64,
    /// Inter-loss intervals normalized by the path RTT (kept for campaign
    /// pooling; O(losses), not O(packets)).
    pub intervals_rtt: Vec<f64>,
    /// Bytes committed to run-long buffers: the receiver's gap list, which
    /// is O(losses) and independent of run duration (the probe buffers no
    /// trace stream).
    pub trace_bytes: usize,
    /// Simulator events processed until every probe packet resolved
    /// (delivered or dropped), or until the horizon or the event budget if
    /// one came first (throughput accounting for the campaign benchmark).
    pub events: u64,
    /// Per-kind breakdown of those events (timers, arrivals, transmit
    /// completions, fluid rate changes).
    pub counts: EventCounts,
}

/// Build the probe simulation: chain topology, cross traffic, and the CBR
/// probe flow, in the constant-memory configuration — no trace record
/// buffering and the gap-detecting probe receiver. Also returns how many
/// packets the probe sends.
pub(crate) fn build_probe(
    scenario: &PathScenario,
    probe: &ProbeConfig,
) -> (Simulator, FlowHandle<Cbr>, u64) {
    let mut b = SimBuilder::new(probe.seed).trace(TraceConfig::none());

    // Cross-flow access delays: each long flow i gets access segments that
    // bring its end-to-end RTT to scenario.long_flow_rtts[i].
    let half = scenario.rtt / 2; // bottleneck one-way share
    let cross_delays: Vec<SimDuration> = scenario
        .long_flow_rtts
        .iter()
        .map(|r| {
            let residual = r.as_secs_f64() / 2.0 - half.as_secs_f64() / 2.0;
            SimDuration::from_secs_f64(residual.max(0.0005) / 2.0)
        })
        .collect();
    // Lanes: long flows, noise flows, episodic flows, one short-flow lane.
    let cross_pairs = scenario.long_flows + scenario.noise_flows + scenario.episodic_flows + 1;
    let chain_cfg = ChainConfig {
        bottleneck_bps: scenario.bottleneck_bps,
        access_bps: 1e9,
        bottleneck_disc: QueueDisc::drop_tail(scenario.buffer_pkts),
        one_way_delay: scenario.rtt / 2,
        cross_pairs,
        cross_delays,
    };
    let chain = build_chain(&mut b, &chain_cfg);

    // Long-lived window-based cross flows.
    let mut wiring = Sampler::child_rng(probe.seed, 0x9A17);
    for i in 0..scenario.long_flows {
        let start = SimTime::ZERO
            + Sampler::uniform_duration(
                &mut wiring,
                SimDuration::ZERO,
                SimDuration::from_millis(500),
            );
        let t = Sender::newreno(
            chain.cross_senders[i],
            chain.cross_receivers[i],
            TcpConfig::default(),
        );
        b.flow(start, Box::new(t));
    }

    // On-off noise: packet-by-packet, or as a fluid rate process whose
    // ON/OFF toggles modulate the bottleneck's virtual occupancy.
    if scenario.noise_flows > 0 {
        if probe.background == BackgroundMode::Fluid {
            b.fluid_link(chain.bottleneck, 1000.0);
        }
        let per_flow =
            scenario.noise_fraction * scenario.bottleneck_bps / scenario.noise_flows as f64;
        for n in 0..scenario.noise_flows {
            let idx = scenario.long_flows + n;
            match probe.background {
                BackgroundMode::Packet => {
                    let noise = OnOff::with_average_rate(
                        chain.cross_senders[idx],
                        chain.cross_receivers[idx],
                        1000,
                        per_flow,
                        scenario.noise_mean_on,
                        scenario.noise_mean_off,
                    );
                    b.flow(SimTime::ZERO, Box::new(noise));
                }
                BackgroundMode::Fluid => {
                    let noise = FluidOnOff::with_average_rate(
                        chain.bottleneck,
                        per_flow,
                        scenario.noise_mean_on,
                        scenario.noise_mean_off,
                    );
                    b.flow(SimTime::ZERO, Box::new(noise));
                }
            }
        }
    }

    // Episodic heavy flows: seconds-scale regime switching. The fraction is
    // the *peak* rate — during an ON period the path tips into congestion
    // (the adaptive cross flows absorb most of it) without drowning.
    if scenario.episodic_flows > 0 {
        let per_flow_peak =
            scenario.episodic_fraction * scenario.bottleneck_bps / scenario.episodic_flows as f64;
        for e in 0..scenario.episodic_flows {
            let idx = scenario.long_flows + scenario.noise_flows + e;
            let heavy = OnOff::new(
                chain.cross_senders[idx],
                chain.cross_receivers[idx],
                1000,
                per_flow_peak,
                scenario.episodic_on,
                scenario.episodic_off,
            );
            b.flow(SimTime::ZERO, Box::new(heavy));
        }
    }

    // Short-flow stream on the last lane.
    if scenario.short_flow_rate > 0.0 {
        let lane = cross_pairs - 1;
        let mut t = SimTime::ZERO + SimDuration::from_millis(200);
        while t.since(SimTime::ZERO) < probe.duration {
            let bytes = Sampler::pareto(&mut wiring, 15_000.0, 1.2).min(5e7) as u64;
            let f = Sender::newreno(
                chain.cross_senders[lane],
                chain.cross_receivers[lane],
                TcpConfig::default(),
            )
            .with_limit_bytes(bytes);
            b.flow(t, Box::new(f));
            t += Sampler::exponential_duration(
                &mut wiring,
                SimDuration::from_secs_f64(1.0 / scenario.short_flow_rate),
            );
        }
    }

    // The probe itself, started after a 1 s warm-up so the cross traffic is
    // established, and stopped 1 s + RTT before the horizon: the most a
    // run simulates, since it ends once every probe packet has resolved.
    let warmup = SimDuration::from_secs(1);
    let tail_guard = SimDuration::from_secs(1) + scenario.rtt;
    let interval = SimDuration::from_secs_f64(1.0 / probe.pps);
    let count = ((probe.duration - warmup - tail_guard).as_secs_f64() / interval.as_secs_f64())
        .max(0.0) as u64;
    let cbr = Cbr::with_interval(chain.src, chain.dst, probe.packet_bytes, interval)
        .with_limit(count)
        .streaming();
    let probe_flow = b.flow(SimTime::ZERO + warmup, Box::new(cbr));

    (b.build(), probe_flow, count)
}

/// Counts one flow's drops. The probe's source cannot see its packets
/// dropped, so this is how a run learns that every one has resolved.
struct FlowDrops {
    flow: FlowId,
    dropped: u64,
}

impl TraceSink for FlowDrops {
    fn on_loss(&mut self, rec: &LossRecord) {
        self.dropped += u64::from(rec.flow == self.flow);
    }
}

/// Why a limited probe run did not produce a measurement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeError {
    /// The run hit the event budget in [`RunLimits::max_events`] before
    /// its measurement was final.
    EventBudget {
        /// Events the simulator had processed when it aborted.
        events: u64,
    },
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::EventBudget { events } => {
                write!(
                    f,
                    "probe run aborted: event budget spent after {events} events"
                )
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// Run one CBR probe in constant memory: trace buffering off and the
/// receiver detecting sequence gaps online, so the run holds O(losses), not
/// O(packets). The run ends once every probe packet is delivered or
/// dropped; the horizon only bounds it.
pub fn run_probe_streaming(scenario: &PathScenario, probe: &ProbeConfig) -> StreamProbeOutcome {
    run_probe_streaming_limited(scenario, probe, RunLimits::NONE)
        .expect("unlimited run cannot exhaust")
}

/// [`run_probe_streaming`] under execution limits: the event budget in
/// `limits` aborts a runaway simulation and surfaces as
/// [`ProbeError::EventBudget`]; `panic_at_event` (fault injection) panics
/// out of the event loop exactly as a genuine simulator bug would, for the
/// supervisor's fault boundary to catch.
pub fn run_probe_streaming_limited(
    scenario: &PathScenario,
    probe: &ProbeConfig,
    limits: RunLimits,
) -> Result<StreamProbeOutcome, ProbeError> {
    let (mut sim, probe_flow, count) = build_probe(scenario, probe);
    sim.set_run_limits(limits);
    let drops = sim.trace.add_sink(Box::new(FlowDrops {
        flow: probe_flow.id(),
        dropped: 0,
    }));
    // The measurement is final once every probe packet is delivered or
    // dropped: what the background does after that changes nothing the
    // run reports, so stop there instead of at the horizon.
    let horizon = SimTime::ZERO + probe.duration;
    let interval = sim.flow(probe_flow).interval();
    let mut until = SimTime::ZERO;
    while until < horizon {
        // Nothing resolves the run before its last packet is sent, and
        // each unsent packet is at least one interval away: step over
        // them in one call, then one interval at a time.
        let unsent = count - sim.flow(probe_flow).sent();
        until = (until + interval * unsent.max(1)).min(horizon);
        sim.run_until(until);
        if sim.budget_exhausted() {
            return Err(ProbeError::EventBudget {
                events: sim.events_processed,
            });
        }
        let cbr = sim.flow(probe_flow);
        let dropped = sim.trace.sink::<FlowDrops>(drops).map_or(0, |d| d.dropped);
        if cbr.sent() == count && cbr.received() + dropped == count {
            break;
        }
    }
    Ok(outcome(&sim, probe_flow, scenario.rtt))
}

/// What a finished probe run measured, read off its simulator.
fn outcome(sim: &Simulator, probe_flow: FlowHandle<Cbr>, rtt: SimDuration) -> StreamProbeOutcome {
    let cbr = sim.flow(probe_flow);
    let sent = cbr.sent();
    let lost = cbr.lost_seqs();
    let rtt_s = rtt.as_secs_f64();
    let mut intervals_rtt = Vec::with_capacity(lost.len().saturating_sub(1));
    let mut prev: Option<f64> = None;
    for &s in &lost {
        if let Some(t) = cbr.nominal_send_time(s) {
            let t = t.as_secs_f64();
            if let Some(p) = prev {
                intervals_rtt.push((t - p) / rtt_s);
            }
            prev = Some(t);
        }
    }
    let received = cbr.received();
    let trace_bytes = sim.trace.buffer_bytes() + cbr.receiver_buffer_bytes();
    StreamProbeOutcome {
        sent,
        received,
        n_lost: lost.len(),
        loss_rate: if sent == 0 {
            0.0
        } else {
            lost.len() as f64 / sent as f64
        },
        lost,
        intervals_rtt,
        trace_bytes,
        events: sim.events_processed,
        counts: sim.event_counts(),
    }
}

/// The paper's validation rule: a measurement is accepted only if the
/// 48-byte and 400-byte traces "exhibit similar loss patterns". We compare
/// loss rates (within a factor-of-2 band when both runs saw enough losses)
/// and require that one run does not see substantial loss while the other
/// sees none.
pub fn validate_streaming(small: &StreamProbeOutcome, large: &StreamProbeOutcome) -> bool {
    match (small.n_lost >= 5, large.n_lost >= 5) {
        (true, true) => {
            let hi = small.loss_rate.max(large.loss_rate);
            let lo = small.loss_rate.min(large.loss_rate);
            lo / hi > 0.33
        }
        (false, false) => true, // both effectively loss-free: consistent
        _ => false,             // one lossy, one clean: inconsistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathScenario;

    fn config(duration_secs: u64, seed: u64) -> ProbeConfig {
        ProbeConfig {
            packet_bytes: 48,
            pps: 1000.0,
            duration: SimDuration::from_secs(duration_secs),
            seed,
            background: BackgroundMode::Packet,
        }
    }

    fn quick(seed: u64, src: usize, dst: usize) -> StreamProbeOutcome {
        let sc = PathScenario::derive(seed, src, dst);
        run_probe_streaming(&sc, &config(8, seed ^ 0xAB))
    }

    /// The first few heavy-tier paths of seed 11's scenario space.
    fn heavy_paths(n: usize) -> Vec<PathScenario> {
        let out: Vec<PathScenario> = crate::sites::all_directed_pairs()
            .into_iter()
            .map(|(s, d)| PathScenario::derive(11, s, d))
            .filter(|sc| sc.tier == crate::path::LoadTier::Heavy)
            .take(n)
            .collect();
        assert!(!out.is_empty(), "no heavy paths in the scenario space");
        out
    }

    #[test]
    fn probe_accounting_is_consistent() {
        let out = quick(3, 0, 15);
        assert!(out.sent > 1000);
        assert_eq!(out.sent, out.received + out.lost.len() as u64);
        assert_eq!(out.n_lost, out.lost.len());
        if out.lost.len() >= 2 {
            assert_eq!(out.intervals_rtt.len(), out.lost.len() - 1);
            assert!(out.intervals_rtt.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn heavy_paths_lose_probe_packets() {
        // Confirm at least one heavy-tier path drops probe packets within a
        // short run.
        let paths = heavy_paths(5);
        let hits = paths
            .iter()
            .filter(|sc| !run_probe_streaming(sc, &config(10, 77)).lost.is_empty())
            .count();
        assert!(
            hits > 0,
            "none of {} heavy paths produced probe loss",
            paths.len()
        );
    }

    #[test]
    fn validation_accepts_similar_rejects_disparate() {
        let mk = |losses: usize, sent: u64| StreamProbeOutcome {
            sent,
            received: sent - losses as u64,
            n_lost: losses,
            lost: (0..losses as u64).collect(),
            loss_rate: losses as f64 / sent as f64,
            intervals_rtt: vec![],
            events: 0,
            counts: EventCounts::default(),
            trace_bytes: 0,
        };
        assert!(validate_streaming(&mk(100, 10_000), &mk(80, 10_000)));
        assert!(!validate_streaming(&mk(100, 10_000), &mk(10, 10_000)));
        assert!(validate_streaming(&mk(0, 10_000), &mk(2, 10_000)));
        assert!(!validate_streaming(&mk(0, 10_000), &mk(50, 10_000)));
    }

    #[test]
    fn probe_buffers_are_constant_in_run_duration() {
        // Nothing is buffered per packet, at 10 s or at 20 s: the trace
        // holds no buffer at all, the receiver an O(losses) gap list. (A
        // buffered arrival log alone would hold 16 B x pps x duration.)
        let mut lossy = 0;
        for sc in heavy_paths(3) {
            for secs in [10, 20] {
                let probe = config(secs, 77);
                let (mut sim, flow, _) = build_probe(&sc, &probe);
                sim.run_until(SimTime::ZERO + probe.duration);
                assert_eq!(sim.trace.buffer_bytes(), 0);
                let cbr = sim.flow(flow);
                let n_lost = cbr.lost_seqs().len();
                assert!(
                    cbr.receiver_buffer_bytes() <= 16 * n_lost.max(4),
                    "receiver holds {} B for {n_lost} losses over {secs} s",
                    cbr.receiver_buffer_bytes()
                );
                lossy += usize::from(n_lost > 0);
            }
        }
        assert!(lossy > 0, "no lossy heavy path exercised the gap list");
    }

    #[test]
    fn event_budget_surfaces_as_probe_error() {
        let sc = PathScenario::derive(3, 0, 15);
        let probe = config(8, 3 ^ 0xAB);
        let out = run_probe_streaming_limited(&sc, &probe, RunLimits::max_events(500));
        assert!(matches!(out, Err(ProbeError::EventBudget { events: 500 })));
        // A generous budget changes nothing about the measurement.
        let unlimited = run_probe_streaming(&sc, &probe);
        let limited = run_probe_streaming_limited(&sc, &probe, RunLimits::max_events(u64::MAX / 2))
            .expect("budget never reached");
        assert_eq!(unlimited.lost, limited.lost);
        assert_eq!(unlimited.sent, limited.sent);
        assert_eq!(unlimited.events, limited.events);
    }

    #[test]
    fn same_seed_reproduces_probe_outcome() {
        let a = quick(9, 5, 6);
        let b = quick(9, 5, 6);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.sent, b.sent);
    }

    /// The reference: the same probe run simulated all the way to its
    /// horizon.
    fn run_to_horizon(sc: &PathScenario, probe: &ProbeConfig) -> StreamProbeOutcome {
        let (mut sim, flow, _) = build_probe(sc, probe);
        sim.run_until(SimTime::ZERO + probe.duration);
        outcome(&sim, flow, sc.rtt)
    }

    #[test]
    fn early_stop_measures_what_a_run_to_the_horizon_measures() {
        let fluid = |secs, seed| ProbeConfig {
            background: BackgroundMode::Fluid,
            ..config(secs, seed)
        };
        // (path, run, whether its last probe packet is dropped): heavy
        // paths of seed 3 that lose their last packet, so the loss list
        // ends in the never-seen `next_expected..sent` tail, and a long
        // run on a quieter path.
        let cases = [
            (PathScenario::derive(3, 1, 10), config(3, 77), true),
            (PathScenario::derive(3, 0, 9), fluid(4, 77), true),
            (PathScenario::derive(3, 0, 15), config(12, 3 ^ 0xAB), false),
            (PathScenario::derive(3, 0, 15), fluid(12, 3 ^ 0xAB), false),
        ];
        for (sc, probe, tail) in &cases {
            let early = run_probe_streaming(sc, probe);
            let full = run_to_horizon(sc, probe);
            let at = format!("{}->{} {:?}", sc.src_site, sc.dst_site, probe);
            assert!(full.sent > 500, "{at}: sent {}", full.sent);
            assert_eq!(early.sent, full.sent, "{at}");
            assert_eq!(early.received, full.received, "{at}");
            assert_eq!(early.n_lost, full.n_lost, "{at}");
            assert_eq!(early.lost, full.lost, "{at}");
            assert_eq!(early.loss_rate.to_bits(), full.loss_rate.to_bits(), "{at}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&early.intervals_rtt),
                bits(&full.intervals_rtt),
                "{at}"
            );
            assert_eq!(early.trace_bytes, full.trace_bytes, "{at}");
            assert_eq!(
                full.lost.last() == Some(&(full.sent - 1)),
                *tail,
                "{at}: the last packet's fate moved"
            );
            // The 1 s + RTT tail guard lies past resolution: cut, not run.
            assert!(
                early.events < full.events,
                "{at}: {} events, {} to the horizon",
                early.events,
                full.events
            );
        }
    }
}
