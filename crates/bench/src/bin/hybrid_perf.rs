//! `hybrid_perf` — packet-level vs hybrid fluid/packet background traffic.
//!
//! One scenario family, swept over the background flow count N with
//! mean-field scaling (bottleneck capacity and buffer grow ∝ N, the noise
//! stays a fixed fraction of capacity), measured in both background modes:
//!
//! * `packet` — every noise source emits real packets through the
//!   bottleneck queue (the reference). Event count grows linearly in N.
//! * `fluid` — the same sources drive a piecewise-constant aggregate rate
//!   integrated analytically by the queue; only their ON/OFF toggles enter
//!   the calendar, so the event count is toggle-bound and (per flow)
//!   constant in time regardless of the per-flow packet rate.
//!
//! The sweep runs the *same* statistical-conformance gate the test suite
//! uses ([`check_hybrid_agreement`]): loss counts, the loss-interval
//! distribution, dispersion, and episode counts must agree at every scale,
//! in the same run that reports the speedup — a fast fluid model that
//! drifts statistically aborts the benchmark. The scenario is a sustained
//! overload (noise at 160% of capacity) because that is the regime where
//! the mean-field substitution is exact down to small N; near saturation
//! with few sources, packet-granularity losses dominate and the fluid
//! model legitimately undercounts (the gate catches exactly that).
//!
//! Results go to `BENCH_HYBRID.json` (override with `--out PATH`). The
//! headline `speedup` is the wall-clock ratio at the largest scale;
//! `effective_events_per_sec` is the packet-mode event count divided by
//! the fluid-mode wall time — how fast the hybrid run chews through
//! packet-equivalent work. `--quick` caps the sweep at N=500 for CI.

use lossburst_bench::{cli, provenance};
use lossburst_core::campaign::LossStudy;
use lossburst_inet::path::{LoadTier, PathScenario};
use lossburst_inet::probe::{run_probe_streaming, ProbeConfig, StreamProbeOutcome};
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::prelude::*;
use lossburst_testkit::scenarios::EPISODE_GAP_RTT;
use std::time::Instant;

/// Baseline flow count: the scenario at `N = BASE_FLOWS` is a 10 Mbps
/// bottleneck with a 60-packet buffer; everything scales from there.
const BASE_FLOWS: usize = 50;

/// Aggregate noise rate as a fraction of the (scaled) bottleneck.
const NOISE_FRACTION: f64 = 1.6;

/// Probe RTT in seconds, for interval normalization.
const RTT_SECS: f64 = 0.05;

/// The mean-field-scaled scenario: capacity and buffer grow with the flow
/// count so the per-flow rate — and therefore the loss process the probe
/// sees — stays put while the packet-mode event rate grows linearly.
fn scaled_path(n_flows: usize) -> PathScenario {
    let scale = n_flows as f64 / BASE_FLOWS as f64;
    PathScenario {
        src_site: 0,
        dst_site: 1,
        rtt: SimDuration::from_secs_f64(RTT_SECS),
        bottleneck_bps: 10e6 * scale,
        buffer_pkts: 60 * n_flows / BASE_FLOWS,
        tier: LoadTier::Heavy,
        long_flows: 0,
        long_flow_rtts: vec![],
        short_flow_rate: 0.0,
        noise_flows: n_flows,
        noise_fraction: NOISE_FRACTION,
        // Seconds-scale ON/OFF periods: the regime-switching timescale of
        // real background aggregates, and what makes the sweep measure the
        // models rather than the toggle calendar — packet-mode event count
        // is pps-bound either way, fluid-mode cost is toggle-bound.
        noise_mean_on: SimDuration::from_secs(1),
        noise_mean_off: SimDuration::from_secs(1),
        episodic_flows: 0,
        episodic_fraction: 0.0,
        episodic_on: SimDuration::from_secs(1),
        episodic_off: SimDuration::from_secs(1),
    }
}

/// One mode's run at one scale.
struct ModeRun {
    wall_secs: f64,
    out: StreamProbeOutcome,
    study: LossStudy,
}

fn run_mode(n_flows: usize, duration: SimDuration, seed: u64, mode: BackgroundMode) -> ModeRun {
    let cfg = ProbeConfig {
        packet_bytes: 48,
        pps: 2000.0,
        duration,
        seed,
        background: mode,
    };
    let t0 = Instant::now();
    let out = run_probe_streaming(&scaled_path(n_flows), &cfg);
    let wall_secs = t0.elapsed().as_secs_f64();
    let study = LossStudy::from_intervals("hybrid-perf", out.intervals_rtt.clone());
    ModeRun {
        wall_secs,
        out,
        study,
    }
}

fn json_mode(run: &ModeRun) -> String {
    let c = &run.out.counts;
    format!(
        "{{ \"wall_ms\": {:.1}, \"events\": {}, \"events_per_sec\": {:.0}, \"arrivals\": {}, \"tx_completes\": {}, \"timers\": {}, \"rate_changes\": {}, \"losses\": {} }}",
        run.wall_secs * 1e3,
        c.total(),
        c.total() as f64 / run.wall_secs,
        c.arrivals,
        c.tx_completes,
        c.timers,
        c.rate_changes,
        run.study.report.n_losses,
    )
}

struct ScaleReport {
    json: String,
    speedup: f64,
    effective_events_per_sec: f64,
}

/// Run one scale in both modes, enforce the conformance gate, and report.
fn bench_scale(n_flows: usize, duration: SimDuration, seed: u64) -> ScaleReport {
    let packet = run_mode(n_flows, duration, seed, BackgroundMode::Packet);
    let fluid = run_mode(n_flows, duration, seed, BackgroundMode::Fluid);

    // The gate: same tolerances as the conformance test suite. A speedup
    // whose statistics drifted is not a result — abort loudly.
    check_hybrid_agreement(
        &format!("hybrid_perf N={n_flows}"),
        &packet.study.report,
        &fluid.study.report,
        packet.study.episode_count(EPISODE_GAP_RTT),
        fluid.study.episode_count(EPISODE_GAP_RTT),
        HybridTolerance::default(),
    )
    .expect("fluid background failed the statistical-conformance gate");
    let delta = hybrid_max_frac_delta(&packet.study.report, &fluid.study.report);

    let speedup = packet.wall_secs / fluid.wall_secs;
    let event_ratio = packet.out.counts.total() as f64 / fluid.out.counts.total() as f64;
    let effective_events_per_sec = packet.out.counts.total() as f64 / fluid.wall_secs;
    println!(
        "# N {n_flows:>5}: packet {:>8.0} ms / {:>9} ev | fluid {:>7.0} ms / {:>8} ev | speedup {:>5.2}x, events {:>5.2}x, eff {:>9.0} ev/s, max delta {:.3}",
        packet.wall_secs * 1e3,
        packet.out.counts.total(),
        fluid.wall_secs * 1e3,
        fluid.out.counts.total(),
        speedup,
        event_ratio,
        effective_events_per_sec,
        delta,
    );
    let json = format!(
        "    {{ \"n_flows\": {n_flows}, \"bottleneck_bps\": {:.0}, \"duration_s\": {:.0},\n      \"packet\": {},\n      \"fluid\": {},\n      \"speedup\": {speedup:.3}, \"event_ratio\": {event_ratio:.3}, \"effective_events_per_sec\": {effective_events_per_sec:.0}, \"max_stat_delta\": {delta:.4}, \"gate\": \"pass\" }}",
        10e6 * n_flows as f64 / BASE_FLOWS as f64,
        duration.as_secs_f64(),
        json_mode(&packet),
        json_mode(&fluid),
    );
    ScaleReport {
        json,
        speedup,
        effective_events_per_sec,
    }
}

fn main() {
    const USAGE: &str = "usage: hybrid_perf [--quick] [--seed N] [--threads N] [--out PATH]";
    let mut out_path = String::from("BENCH_HYBRID.json");
    let mut quick = false;
    let mut seed = 2006u64;
    let mut threads_flag: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = cli::value(&mut it, "--out", "a path", USAGE),
            "--quick" => quick = true,
            "--seed" => seed = cli::value(&mut it, "--seed", "an integer", USAGE),
            "--threads" => threads_flag = Some(cli::value(&mut it, "--threads", "a count", USAGE)),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => cli::unknown_flag(other, USAGE),
        }
    }
    let prov = provenance::capture_with_threads(threads_flag);

    println!("# packet-level vs hybrid fluid/packet background traffic");
    println!(
        "# threads {} (LOSSBURST_THREADS), host cpus {}, seed {seed}",
        prov.threads, prov.host_cpus
    );

    let duration = SimDuration::from_secs(20);
    let scales: &[usize] = if quick { &[50, 500] } else { &[50, 500, 5000] };
    let entries: Vec<ScaleReport> = scales
        .iter()
        .map(|&n| bench_scale(n, duration, seed))
        .collect();
    let last = entries.last().expect("at least one scale");
    let speedup = last.speedup;
    let effective = last.effective_events_per_sec;

    let prov = prov.json_fields();
    let scales_json: Vec<String> = entries.iter().map(|r| r.json.clone()).collect();
    let json = format!(
        "{{\n  \"bench\": \"hybrid\",\n  \"seed\": {seed},\n  {prov},\n  \"modes\": [\"packet\", \"fluid\"],\n  \"scenario\": \"mean-field sweep: N on-off noise flows at {NOISE_FRACTION} x capacity over a bottleneck scaled 10 Mbps x N/{BASE_FLOWS} (buffer 60 x N/{BASE_FLOWS} pkts), 2 kpps CBR probe foreground\",\n  \"speedup_metric\": \"largest scale: packet-mode wall time / fluid-mode wall time, with the statistical-conformance gate (loss count, interval distribution, dispersion, episodes) enforced at every scale in this same run\",\n  \"effective_events_metric\": \"largest scale: packet-mode event count / fluid-mode wall time — packet-equivalent events the hybrid run delivers per second\",\n  \"scales\": [\n{}\n  ],\n  \"speedup\": {speedup:.3},\n  \"effective_events_per_sec\": {effective:.0}\n}}\n",
        scales_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("cannot write results file");
    println!("# wrote {out_path} (speedup {speedup:.2}x, effective {effective:.0} ev/s)");
}
