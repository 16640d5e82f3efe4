//! The hybrid fluid/packet conformance gate: every quick-scale lab and
//! Internet campaign (Figs 2/3/4) must produce statistically equivalent
//! loss processes whether the background noise is simulated packet by
//! packet or as a fluid rate process at the bottlenecks — loss rate,
//! loss-interval distribution, episode statistics, and Gilbert-fit
//! parameters all within [`HybridTolerance`]. A perturbation test proves
//! the gate can fail: a fluid model whose rate is mis-scaled 2x is
//! rejected.
//!
//! The packet side reuses the memoized quick-scale scenarios the golden
//! fixtures pin, so this suite simultaneously certifies that fluid mode
//! never leaked into the reference runs.

use lossburst_analysis::gilbert::{self, GilbertParams};
use lossburst_core::campaign::{dummynet_study, ns2_study, LossStudy};
use lossburst_core::registry;
use lossburst_core::supervisor::SupervisorConfig;
use lossburst_inet::path::{LoadTier, PathScenario};
use lossburst_inet::probe::{run_probe_streaming, ProbeConfig, StreamProbeOutcome};
use lossburst_netsim::fluid::BackgroundMode;
use lossburst_netsim::time::SimDuration;
use lossburst_testkit::prelude::*;
use lossburst_testkit::scenarios::{
    fig2_data, fig2_lab_config, fig3_lab_config, fig3_study, fig4_campaign_config, fig4_data,
    measured_campaign, measured_study, EPISODE_GAP_RTT, QUICK_SEED,
};
use lossburst_transport::cc::CcAlgorithm;

fn gate(label: &str, packet: &LossStudy, fluid: &LossStudy) -> Result<(), String> {
    check_hybrid_agreement(
        label,
        &packet.report,
        &fluid.report,
        packet.episode_count(EPISODE_GAP_RTT),
        fluid.episode_count(EPISODE_GAP_RTT),
        HybridTolerance::default(),
    )
}

/// Fig 2 (NS-2 lab campaign): fluid background agrees with the packet
/// reference and still shows the paper's sub-RTT clustering.
#[test]
fn hybrid_fig2_ns2_campaign_passes_the_gate() {
    let packet = &fig2_data().study;
    let mut cfg = fig2_lab_config(QUICK_SEED);
    cfg.background = BackgroundMode::Fluid;
    let fluid = measured_study("fig2-fluid", ns2_study(&cfg, &SupervisorConfig::default()));
    gate("fig2", packet, &fluid).unwrap();
    registry::fig2(&fluid).unwrap();
}

/// The Fig 2 gate again with a non-default congestion controller on the
/// foreground senders: the packet reference is re-run fresh (the memoized
/// [`fig2_data`] study is NewReno-only) and the fluid background must
/// still reproduce its loss process.
fn fig2_gate_with(cc: CcAlgorithm) {
    let mut pcfg = fig2_lab_config(QUICK_SEED);
    pcfg.cc = cc;
    let packet = measured_study(
        "fig2-packet",
        ns2_study(&pcfg, &SupervisorConfig::default()),
    );
    let mut fcfg = fig2_lab_config(QUICK_SEED);
    fcfg.cc = cc;
    fcfg.background = BackgroundMode::Fluid;
    let fluid = measured_study("fig2-fluid", ns2_study(&fcfg, &SupervisorConfig::default()));
    gate(&format!("fig2-{}", cc.name()), &packet, &fluid).unwrap();
}

/// Fig 2 with CUBIC foreground senders passes the hybrid gate.
#[test]
fn hybrid_fig2_cubic_campaign_passes_the_gate() {
    fig2_gate_with(CcAlgorithm::Cubic);
}

/// Fig 2 with BBR foreground senders passes the hybrid gate.
#[test]
fn hybrid_fig2_bbr_campaign_passes_the_gate() {
    fig2_gate_with(CcAlgorithm::Bbr);
}

/// Fig 3 (Dummynet lab campaign): the gate holds through the 1 ms
/// recording clock and processing jitter.
#[test]
fn hybrid_fig3_dummynet_campaign_passes_the_gate() {
    let packet = fig3_study();
    let mut cfg = fig3_lab_config(QUICK_SEED);
    cfg.background = BackgroundMode::Fluid;
    let fluid = measured_study("fig3-fluid", dummynet_study(&cfg));
    gate("fig3", packet, &fluid).unwrap();
    registry::fig3(&fluid).unwrap();
}

/// Fig 4 (Internet campaign): fluid noise preserves the intermediate
/// burstiness band and the small/large-probe validation rate.
#[test]
fn hybrid_fig4_internet_campaign_passes_the_gate() {
    let packet = &fig4_data().study;
    let mut cfg = fig4_campaign_config(QUICK_SEED);
    cfg.background = BackgroundMode::Fluid;
    let campaign = measured_campaign(&cfg);
    assert!(
        campaign.validated_fraction() >= 0.75,
        "fluid mode broke probe validation: {:.2}",
        campaign.validated_fraction()
    );
    let fluid = LossStudy::from_intervals("internet-fluid", campaign.intervals_rtt());
    gate("fig4", packet, &fluid).unwrap();
    registry::fig4(&fluid).unwrap();
}

/// Fit a Gilbert model to the probe's own loss indicator sequence.
fn gilbert_fit_of(out: &StreamProbeOutcome) -> GilbertParams {
    let mut indicator = vec![false; out.sent as usize];
    for &s in &out.lost {
        indicator[s as usize] = true;
    }
    gilbert::fit(&indicator).expect("probe run long enough to fit")
}

/// First heavy-tier path of the seed-11 scenario space — the same family
/// the probe unit tests sample for guaranteed losses.
fn heavy_path() -> PathScenario {
    for s in 0..26usize {
        for d in 0..26usize {
            if s == d {
                continue;
            }
            let sc = PathScenario::derive(11, s, d);
            if sc.tier == LoadTier::Heavy {
                return sc;
            }
        }
    }
    unreachable!("no heavy path in the scenario space")
}

fn heavy_probe(background: BackgroundMode) -> StreamProbeOutcome {
    let cfg = ProbeConfig {
        packet_bytes: 48,
        pps: 2000.0,
        duration: SimDuration::from_secs(30),
        seed: 77,
        background,
    };
    run_probe_streaming(&heavy_path(), &cfg)
}

/// Gilbert-fit parameters of the probe's loss process agree between the
/// two background models on a heavy path.
#[test]
fn hybrid_gilbert_fit_parameters_agree() {
    let packet = heavy_probe(BackgroundMode::Packet);
    let fluid = heavy_probe(BackgroundMode::Fluid);
    assert!(packet.lost.len() >= 50, "packet run too clean to fit");
    assert!(fluid.lost.len() >= 50, "fluid run too clean to fit");
    let p_fit = gilbert_fit_of(&packet);
    let f_fit = gilbert_fit_of(&fluid);
    // The packet fit is the "truth"; the fluid fit must land within a
    // proportional band of it — p tracks the loss rate, r the burst
    // lengths, both O(1e-2..1e-1) on a heavy path.
    let tol_p = (0.6 * p_fit.p).max(0.005);
    let tol_r = (0.6 * p_fit.r).max(0.10);
    check_gilbert_recovery(p_fit, f_fit, tol_p, tol_r).unwrap();
}

/// A path whose losses are governed by the background noise: 50 on-off
/// flows carrying `noise_fraction` of a 10 Mbps bottleneck, no TCP to
/// adapt around a modelling error, plus one seconds-scale episodic flow
/// (packet-level in both modes) whose ON periods tip the link into
/// overload. Losses happen only while the episodic flow is ON, on top of
/// whatever the noise model contributes — so both the loss *rate* during
/// episodes and the episode *count* are pinned to the noise scaling, and
/// a mis-scaled fluid rate cannot hide.
fn noise_dominated_path(noise_fraction: f64) -> PathScenario {
    PathScenario {
        src_site: 0,
        dst_site: 1,
        rtt: SimDuration::from_millis(50),
        bottleneck_bps: 10e6,
        buffer_pkts: 60,
        tier: LoadTier::Heavy,
        long_flows: 0,
        long_flow_rtts: vec![],
        short_flow_rate: 0.0,
        noise_flows: 50,
        noise_fraction,
        noise_mean_on: SimDuration::from_millis(100),
        noise_mean_off: SimDuration::from_millis(100),
        episodic_flows: 1,
        episodic_fraction: 0.7,
        episodic_on: SimDuration::from_secs(1),
        episodic_off: SimDuration::from_secs(1),
    }
}

fn noise_dominated_study(noise_fraction: f64, background: BackgroundMode) -> LossStudy {
    let cfg = ProbeConfig {
        packet_bytes: 48,
        pps: 2000.0,
        duration: SimDuration::from_secs(20),
        seed: QUICK_SEED,
        background,
    };
    let out = run_probe_streaming(&noise_dominated_path(noise_fraction), &cfg);
    LossStudy::from_intervals("noise-dominated", out.intervals_rtt)
}

/// The gate can fail: a fluid background whose aggregate rate is
/// mis-scaled 2x is rejected, while the correctly scaled fluid model on
/// the identical scenario passes — so a pass certifies the scaling, not
/// just the plumbing.
#[test]
fn hybrid_gate_rejects_a_mis_scaled_fluid_model() {
    let packet = noise_dominated_study(0.6, BackgroundMode::Packet);
    let fluid = noise_dominated_study(0.6, BackgroundMode::Fluid);
    gate("noise-honest", &packet, &fluid).unwrap();

    // Mis-scale the fluid aggregate 2x: the oversized model floods the
    // bottleneck and the loss process diverges beyond every tolerance.
    let skewed = noise_dominated_study(1.2, BackgroundMode::Fluid);
    let verdict = gate("noise-2x", &packet, &skewed);
    assert!(
        verdict.is_err(),
        "gate accepted a 2x mis-scaled fluid model: packet {} losses, skewed {} losses",
        packet.report.n_losses,
        skewed.report.n_losses
    );
    // Degenerate inputs are rejected too, not waved through.
    let empty = LossStudy::from_intervals("empty", vec![]);
    assert!(gate("noise-empty", &packet, &empty).is_err());
    // Print the margins so a tolerance change can be audited from test
    // output alone.
    println!(
        "# honest: losses {} vs {}, max frac delta {:.3}; skewed: {}",
        packet.report.n_losses,
        fluid.report.n_losses,
        hybrid_max_frac_delta(&packet.report, &fluid.report),
        verdict.unwrap_err()
    );
}
