//! Pluggable congestion control: the [`Controller`] trait and its
//! implementations.
//!
//! The redesign follows the quinn-proto shape: a congestion controller is a
//! trait object that owns *only* the window/rate law, while the
//! [`Sender`] core owns everything mechanical —
//! sequencing, dupack/SACK loss detection, the RTT estimator, RTO and
//! pacing timers. The core translates wire events into calls on the
//! controller:
//!
//! * every cumulative-ACK advance becomes one [`Controller::on_ack`] with an
//!   [`AckEvent`] carrying the RTT sample, the flight size, and a
//!   delivery-rate sample (for model-based controllers such as BBR);
//! * a loss detected by three duplicate ACKs (or three SACKed segments
//!   above a hole), or an ECN echo, becomes one
//!   [`Controller::on_congestion_event`] at the *start* of the loss
//!   episode — at most once per window of data;
//! * a retransmission timeout becomes one [`Controller::on_rto`].
//!
//! Event ordering guarantee: for any ACK that both advances the window and
//! participates in recovery, the recovery hook
//! ([`Controller::on_partial_ack`] or [`Controller::on_recovery_exit`])
//! fires *before* `on_ack`, and `on_ack` carries the matching
//! `AckPhase` so window-law controllers can ignore in-recovery ACKs while
//! model-based controllers still absorb every delivery sample.
//!
//! Controllers are built per flow through `ControllerFactory`, which every
//! `Clone`-able config type (e.g. `cubic::CubicConfig`,
//! `bbr::BbrConfig`) implements.

pub mod bbr;
pub mod cubic;
pub(crate) mod fast;
pub(crate) mod reno;

use lossburst_netsim::iface::Transport;
use lossburst_netsim::packet::NodeId;
use lossburst_netsim::time::{SimDuration, SimTime};
use std::any::Any;

use crate::config::TcpConfig;
use crate::sender::{RenoVariant, Sender};
use crate::tfrc::TfrcSender;

/// The slice of [`TcpConfig`] a controller is allowed to see: window seeds
/// and clamps. `Clone`-able so factories can stamp one per flow.
#[derive(Clone, Debug)]
pub(crate) struct CcConfig {
    /// Initial congestion window, packets.
    pub(crate) initial_cwnd: f64,
    /// Initial slow-start threshold, packets.
    pub(crate) initial_ssthresh: f64,
    /// Hard window clamp, packets.
    pub(crate) max_cwnd: f64,
}

impl CcConfig {
    /// Extract the controller-visible slice of a [`TcpConfig`].
    pub(crate) fn from_tcp(cfg: &TcpConfig) -> CcConfig {
        CcConfig {
            initial_cwnd: cfg.initial_cwnd,
            initial_ssthresh: cfg.initial_ssthresh,
            max_cwnd: cfg.max_cwnd,
        }
    }
}

impl Default for CcConfig {
    fn default() -> CcConfig {
        CcConfig::from_tcp(&TcpConfig::default())
    }
}

/// Where an acknowledged advance sits relative to loss recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AckPhase {
    /// No recovery in progress: the normal growth path.
    Open,
    /// A partial ACK inside an ongoing recovery.
    Recovery,
    /// The ACK that completed a recovery (the exit hook already fired).
    RecoveryExit,
}

/// One cumulative-ACK advance, as seen by a controller.
#[derive(Clone, Copy, Debug)]
pub struct AckEvent {
    /// Simulation time of the ACK.
    pub(crate) now: SimTime,
    /// Packets newly acknowledged by this ACK.
    pub newly_acked: u64,
    /// RTT sample carried by this ACK, if it echoed a send timestamp.
    pub(crate) rtt_sample: Option<SimDuration>,
    /// Smoothed RTT after absorbing this sample.
    pub(crate) srtt: Option<SimDuration>,
    /// Minimum RTT observed over the flow's lifetime.
    pub min_rtt: Option<SimDuration>,
    /// Packets in flight *after* this ACK.
    pub(crate) flight: u64,
    /// Cumulative packets delivered over the flow's lifetime.
    pub(crate) delivered: u64,
    /// Delivery-rate sample in packets/second (newly acked over the gap
    /// since the previous cumulative advance), when measurable.
    pub(crate) delivery_rate: Option<f64>,
    /// Recovery phase of this ACK.
    pub(crate) phase: AckPhase,
}

/// What signalled congestion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CongestionKind {
    /// Three duplicate ACKs (or three SACKed segments above a hole).
    DupAck,
    /// An ECN congestion-experienced echo (no packet was lost).
    Ecn,
}

/// One congestion signal, reported at most once per window of data.
#[derive(Clone, Copy, Debug)]
pub struct CongestionEvent {
    /// Simulation time of the detection.
    pub now: SimTime,
    /// What signalled the congestion.
    pub(crate) kind: CongestionKind,
    /// Packets in flight when the event was detected.
    pub(crate) flight: f64,
}

/// A congestion-control algorithm: owns the window/rate law and nothing
/// else. See the [module docs](self) for the event contract.
pub trait Controller {
    /// A cumulative ACK advanced; grow (or model) as the phase allows.
    fn on_ack(&mut self, ev: &AckEvent);

    /// Loss (or ECN) detected; reduce. Fires once per loss episode, before
    /// the core starts repairing.
    fn on_congestion_event(&mut self, ev: &CongestionEvent);

    /// Retransmission timeout fired with data outstanding. `in_recovery`
    /// is true when the timeout interrupted an ongoing fast recovery whose
    /// entry already reduced the window once — controllers should avoid
    /// reducing twice for the same episode.
    fn on_rto(&mut self, now: SimTime, flight: f64, in_recovery: bool);

    /// Current congestion window in packets. The core clamps and floors
    /// this to decide how many packets may be in flight.
    fn window(&self) -> f64;

    /// Slow-start threshold in packets, if the algorithm has one.
    fn ssthresh(&self) -> f64 {
        f64::INFINITY
    }

    /// Pacing rate in packets/second for paced senders. `None` falls back
    /// to spreading the window over one smoothed RTT.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    /// A partial ACK inside NewReno-style recovery (go-back-N repair only);
    /// fires before the matching [`Controller::on_ack`].
    fn on_partial_ack(&mut self, now: SimTime, newly_acked: u64) {
        let _ = (now, newly_acked);
    }

    /// A duplicate ACK while already in recovery (go-back-N repair only):
    /// the classic window-inflation hook.
    fn on_dupack_in_recovery(&mut self) {}

    /// Recovery completed; fires before the matching [`Controller::on_ack`].
    fn on_recovery_exit(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Period of the controller's clock tick, if it needs one (e.g. FAST's
    /// once-per-RTT window update). Re-read after every tick.
    fn update_interval(&self) -> Option<SimDuration> {
        None
    }

    /// The periodic clock tick requested via
    /// [`Controller::update_interval`].
    fn on_update(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Short algorithm name (`"newreno"`, `"cubic"`, …).
    fn name(&self) -> &'static str;

    /// Downcast support for tests and diagnostics.
    fn as_any(&self) -> &dyn Any;
}

/// Builds one [`Controller`] per flow. Implemented by each algorithm's
/// `Clone`-able config type.
pub(crate) trait ControllerFactory {
    /// Instantiate a controller for a flow with the given window config.
    fn build(&self, cc: &CcConfig) -> Box<dyn Controller>;
}

/// Every congestion-control algorithm the crate can instantiate, as a
/// value — the dynamic registry the fairness grid and CLI tools iterate
/// over. [`CcAlgorithm::build_flow`] composes the right controller,
/// repair style, and send mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Tahoe: slow start after every loss, go-back-N repair.
    Tahoe,
    /// Classic Reno fast recovery, go-back-N repair.
    Reno,
    /// RFC 2582 NewReno, go-back-N repair (the paper's window-based flow).
    #[default]
    NewReno,
    /// NewReno with rate-based pacing (the paper's paced flow).
    Pacing,
    /// NewReno window law over RFC 6675 SACK repair.
    Sack,
    /// RFC 8312 CUBIC over SACK repair.
    Cubic,
    /// BBR-v1-style model over SACK repair, paced.
    Bbr,
    /// FAST-style delay-based window law, go-back-N repair.
    Fast,
    /// TFRC (RFC 5348): equation-based rate control, unreliable.
    Tfrc,
}

/// Per-flow parameters for [`CcAlgorithm::build_flow`].
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// TCP-level configuration (windows, timers, segment size).
    pub tcp: TcpConfig,
    /// RTT assumed before the first sample (seeds pacing and TFRC).
    pub rtt_hint: SimDuration,
    /// Restrict to a bulk transfer of this many application bytes.
    /// Ignored by TFRC, which models an unreliable media stream.
    pub limit_bytes: Option<u64>,
}

impl FlowSpec {
    /// A spec with default TCP config, no transfer limit.
    pub fn new(rtt_hint: SimDuration) -> FlowSpec {
        FlowSpec {
            tcp: TcpConfig::default(),
            rtt_hint,
            limit_bytes: None,
        }
    }
}

impl CcAlgorithm {
    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgorithm::Tahoe => "tahoe",
            CcAlgorithm::Reno => "reno",
            CcAlgorithm::NewReno => "newreno",
            CcAlgorithm::Pacing => "pacing",
            CcAlgorithm::Sack => "sack",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::Bbr => "bbr",
            CcAlgorithm::Fast => "fast",
            CcAlgorithm::Tfrc => "tfrc",
        }
    }

    /// Whether the sender spreads packets in time (paced or equation-based)
    /// rather than bursting the window — the paper's central axis.
    pub fn is_rate_based(self) -> bool {
        matches!(
            self,
            CcAlgorithm::Pacing | CcAlgorithm::Bbr | CcAlgorithm::Tfrc
        )
    }

    /// Compose a ready-to-attach flow transport for this algorithm.
    pub fn build_flow(self, src: NodeId, dst: NodeId, spec: &FlowSpec) -> Box<dyn Transport> {
        let cfg = spec.tcp.clone();
        let sender = match self {
            CcAlgorithm::Tahoe => Sender::tahoe(src, dst, cfg),
            CcAlgorithm::Reno => Sender::reno(src, dst, cfg),
            CcAlgorithm::NewReno => Sender::newreno(src, dst, cfg),
            CcAlgorithm::Pacing => Sender::pacing(src, dst, cfg, spec.rtt_hint),
            CcAlgorithm::Sack => Sender::sack(src, dst, cfg),
            CcAlgorithm::Cubic => Sender::cubic(src, dst, cfg),
            CcAlgorithm::Bbr => Sender::bbr(src, dst, cfg, spec.rtt_hint),
            CcAlgorithm::Fast => Sender::fast(src, dst, cfg, 20.0, 0.5),
            CcAlgorithm::Tfrc => {
                return Box::new(TfrcSender::new(src, dst, spec.tcp.mss, spec.rtt_hint));
            }
        };
        let sender = match spec.limit_bytes {
            Some(bytes) => sender.with_limit_bytes(bytes),
            None => sender,
        };
        Box::new(sender)
    }
}

/// `RenoVariant`-to-response mapping used by the legacy constructors.
pub(crate) fn legacy_response(variant: RenoVariant) -> reno::LossResponse {
    match variant {
        RenoVariant::Tahoe => reno::LossResponse::CollapseToOne,
        RenoVariant::Reno | RenoVariant::NewReno => reno::LossResponse::HalvePlus3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_based_axis_matches_the_paper() {
        assert!(CcAlgorithm::Pacing.is_rate_based());
        assert!(CcAlgorithm::Tfrc.is_rate_based());
        assert!(CcAlgorithm::Bbr.is_rate_based());
        assert!(!CcAlgorithm::NewReno.is_rate_based());
        assert!(!CcAlgorithm::Cubic.is_rate_based());
    }
}
