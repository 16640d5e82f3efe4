//! Queue disciplines for router output buffers.
//!
//! The paper identifies DropTail FIFO routers as the principal source of
//! sub-RTT loss burstiness, discusses RED as the classic randomizing
//! counter-measure, and proposes (reference \[22\]) a persistent ECN marking
//! scheme that holds the congestion signal up for a full RTT so that every
//! flow sharing the bottleneck observes it. All three are implemented here.
//!
//! A discipline does not own the buffer; it renders an admission [`Verdict`]
//! for each arriving packet given the instantaneous occupancy, and the
//! [`crate::link::Link`] maintains the FIFO itself.

use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::RngExt;

/// Admission decision for an arriving packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Accept the packet into the buffer.
    Enqueue,
    /// Accept the packet and set the ECN congestion-experienced codepoint.
    EnqueueMarked,
    /// Discard the packet.
    Drop,
}

/// Configuration for Random Early Detection (Floyd & Jacobson 1993),
/// including the "gentle" variant in which the drop probability ramps from
/// `max_p` to 1 between `max_th` and `2*max_th` instead of jumping to 1.
#[derive(Clone, Debug)]
pub struct RedConfig {
    /// Minimum average-queue threshold, in packets.
    pub min_th: f64,
    /// Maximum average-queue threshold, in packets.
    pub max_th: f64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub w_q: f64,
    /// Use the gentle ramp above `max_th`.
    pub gentle: bool,
    /// Mark ECN-capable packets instead of dropping them (when not forced).
    pub ecn: bool,
    /// Mean packet size in bytes, used to age the average during idle periods.
    pub mean_pkt_bytes: f64,
}

impl RedConfig {
    /// The conventional auto-configuration for a buffer of `limit` packets:
    /// `min_th = limit/4`, `max_th = 3*limit/4`, `max_p = 0.1`, `w_q = 0.002`.
    pub(crate) fn for_buffer(limit_pkts: usize) -> RedConfig {
        let lim = limit_pkts as f64;
        RedConfig {
            min_th: (lim / 4.0).max(1.0),
            max_th: (3.0 * lim / 4.0).max(2.0),
            max_p: 0.1,
            w_q: 0.002,
            gentle: true,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        }
    }

    /// Check the configuration for the degeneracies that would otherwise
    /// surface mid-run as a NaN marking probability or a dead estimator:
    /// thresholds must be finite, non-negative, and strictly ordered
    /// (`min_th < max_th` — equal thresholds make the early-drop ramp
    /// `max_p * (avg - min_th) / (max_th - min_th)` divide by zero), and
    /// both `w_q` and `max_p` must lie in `(0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.min_th.is_finite() || !self.max_th.is_finite() || self.min_th < 0.0 {
            return Err(format!(
                "RED thresholds must be finite and non-negative (min_th {}, max_th {})",
                self.min_th, self.max_th
            ));
        }
        if self.min_th >= self.max_th {
            return Err(format!(
                "RED thresholds must satisfy min_th < max_th (got min_th {} >= max_th {}); \
                 equal thresholds make the drop probability 0/0 = NaN",
                self.min_th, self.max_th
            ));
        }
        if !(self.w_q > 0.0 && self.w_q <= 1.0) {
            return Err(format!("RED w_q must be in (0, 1], got {}", self.w_q));
        }
        if !(self.max_p > 0.0 && self.max_p <= 1.0) {
            return Err(format!("RED max_p must be in (0, 1], got {}", self.max_p));
        }
        if !(self.mean_pkt_bytes > 0.0 && self.mean_pkt_bytes.is_finite()) {
            return Err(format!(
                "RED mean_pkt_bytes must be positive and finite, got {}",
                self.mean_pkt_bytes
            ));
        }
        Ok(())
    }
}

/// Mutable RED estimator state.
#[derive(Clone, Debug)]
pub struct RedState {
    /// EWMA of the queue length in packets.
    pub(crate) avg: f64,
    /// Packets admitted since the last early drop (−1 right after a drop).
    count: i64,
    /// When the queue went idle (empty), if it is currently idle.
    idle_since: Option<SimTime>,
}

impl Default for RedState {
    fn default() -> Self {
        RedState {
            avg: 0.0,
            count: -1,
            idle_since: Some(SimTime::ZERO),
        }
    }
}

/// Configuration for the persistent-ECN discipline proposed by the paper's
/// reference \[22\]: once congestion is detected, keep marking every
/// ECN-capable packet for a whole epoch (about one RTT) so that the signal
/// reaches *all* flows rather than only the unlucky ones whose packets sat
/// at the overflow instant.
#[derive(Clone, Debug)]
pub struct PersistentEcnConfig {
    /// Occupancy (packets) at which a marking epoch begins.
    pub(crate) mark_threshold: usize,
    /// How long a marking epoch lasts once triggered.
    pub(crate) epoch: SimDuration,
}

/// Deterministic drop script for failure injection: drops the packets at
/// the given 0-based *arrival indices* (counting every packet offered to
/// the queue). Used by tests to force a protocol through exact loss
/// patterns — first-transmission losses, retransmission losses, ACK-path
/// losses — reproducibly.
#[derive(Clone, Debug, Default)]
pub struct DropScript {
    /// Arrival indices to drop.
    pub(crate) drop_arrivals: std::collections::BTreeSet<u64>,
    /// For each data sequence number, how many of its first copies to drop
    /// (2 = drop the original *and* the first retransmission).
    pub(crate) drop_seq_copies: std::collections::BTreeMap<u64, u32>,
    /// Packets seen so far.
    pub(crate) seen: u64,
}

impl DropScript {
    /// Drop the arrivals at these indices.
    pub fn at(indices: impl IntoIterator<Item = u64>) -> DropScript {
        DropScript {
            drop_arrivals: indices.into_iter().collect(),
            ..Default::default()
        }
    }

    /// Drop the first `copies` copies of each listed data sequence number.
    pub fn seqs(seqs: impl IntoIterator<Item = (u64, u32)>) -> DropScript {
        DropScript {
            drop_seq_copies: seqs.into_iter().collect(),
            ..Default::default()
        }
    }
}

/// A queue discipline plus its mutable state. Every buffer is limited in
/// packets. A variant's payload beyond its limit and a word or two of
/// state is behind a `Box`, so that a link, which holds its discipline by
/// value, pays for RED or a drop script only where one is configured.
#[derive(Clone, Debug)]
pub enum QueueDisc {
    /// Plain FIFO tail-drop with a buffer limit in packets.
    DropTail {
        /// Buffer capacity in packets.
        limit: usize,
    },
    /// Random Early Detection.
    Red {
        /// Hard buffer capacity in packets (forced drop above this).
        limit: usize,
        /// Static parameters.
        config: Box<RedConfig>,
        /// Estimator state.
        state: Box<RedState>,
    },
    /// DropTail plus a deterministic drop script (failure injection).
    Scripted {
        /// Buffer capacity in packets.
        limit: usize,
        /// The injection script.
        script: Box<DropScript>,
    },
    /// Persistent ECN marking over DropTail.
    PersistentEcn {
        /// Hard buffer capacity in packets.
        limit: usize,
        /// Static parameters.
        config: Box<PersistentEcnConfig>,
        /// End of the current marking epoch, if one is active.
        epoch_until: Option<SimTime>,
    },
}

impl QueueDisc {
    /// Plain DropTail with the given buffer capacity in packets.
    pub fn drop_tail(limit_pkts: usize) -> QueueDisc {
        QueueDisc::DropTail { limit: limit_pkts }
    }

    /// DropTail with a deterministic drop script (failure injection).
    pub fn scripted(limit_pkts: usize, script: DropScript) -> QueueDisc {
        QueueDisc::Scripted {
            limit: limit_pkts,
            script: Box::new(script),
        }
    }

    /// RED with conventional parameters for the given buffer capacity.
    pub fn red(limit_pkts: usize) -> QueueDisc {
        QueueDisc::Red {
            limit: limit_pkts,
            config: Box::new(RedConfig::for_buffer(limit_pkts)),
            state: Box::default(),
        }
    }

    /// RED with explicit parameters, validated at build time.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `RedConfig::validate`
    /// rejects the configuration (for example `min_th == max_th`, which
    /// would otherwise yield a NaN marking probability mid-run).
    pub fn red_with(limit_pkts: usize, config: RedConfig) -> QueueDisc {
        if let Err(why) = config.validate() {
            panic!("invalid RED configuration: {why}");
        }
        QueueDisc::Red {
            limit: limit_pkts,
            config: Box::new(config),
            state: Box::default(),
        }
    }

    /// Persistent-ECN marking (paper reference \[22\]) over a DropTail buffer.
    /// `epoch` should be on the order of the flows' round-trip time.
    pub fn persistent_ecn(
        limit_pkts: usize,
        mark_threshold: usize,
        epoch: SimDuration,
    ) -> QueueDisc {
        QueueDisc::PersistentEcn {
            limit: limit_pkts,
            config: Box::new(PersistentEcnConfig {
                mark_threshold,
                epoch,
            }),
            epoch_until: None,
        }
    }

    /// Hard buffer capacity in packets.
    pub(crate) fn limit(&self) -> usize {
        match self {
            QueueDisc::DropTail { limit } => *limit,
            QueueDisc::Scripted { limit, .. } => *limit,
            QueueDisc::Red { limit, .. } => *limit,
            QueueDisc::PersistentEcn { limit, .. } => *limit,
        }
    }

    /// Hard buffer capacity in bytes: the packet cap at the given mean
    /// packet size. Used by the fluid model to clip the virtual backlog at
    /// the buffer boundary.
    pub(crate) fn capacity_bytes(&self, mean_pkt_bytes: f64) -> f64 {
        self.limit() as f64 * mean_pkt_bytes
    }

    /// The mean packet size this discipline reasons in (RED's configured
    /// `mean_pkt_bytes`; 1000 bytes — the campaign-wide data-segment size —
    /// for the others). The link derives its RED idle-aging service rate
    /// from this instead of a hard-coded 1000 bytes.
    pub(crate) fn mean_pkt_bytes(&self) -> f64 {
        match self {
            QueueDisc::Red { config, .. } => config.mean_pkt_bytes,
            _ => 1000.0,
        }
    }

    /// Decide admission for `pkt` arriving at `now` with `occupancy` packets
    /// already buffered, including any packet in service.
    /// `service_rate_pps` is the link's drain rate in packets/second, used
    /// by RED to age its average across idle periods.
    pub fn decide(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        occupancy: usize,
        service_rate_pps: f64,
        rng: &mut SmallRng,
    ) -> Verdict {
        self.decide_hybrid(now, pkt, occupancy, 0.0, service_rate_pps, rng)
    }

    /// [`QueueDisc::decide`] with an additional fluid background backlog
    /// of `fluid_pkts` mean-sized packets sharing the buffer: every
    /// occupancy comparison — droptail overflow, RED average and forced
    /// drop, persistent-ECN thresholds — sees the *combined* occupancy
    /// `packets + fluid`. With no fluid this is arithmetically identical to
    /// the packet-only path (integer comparisons become exact `f64`
    /// comparisons on integer values), which keeps packet-mode golden
    /// fixtures byte-identical.
    pub(crate) fn decide_hybrid(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        occupancy: usize,
        fluid_pkts: f64,
        service_rate_pps: f64,
        rng: &mut SmallRng,
    ) -> Verdict {
        let occ = occupancy as f64 + fluid_pkts;
        match self {
            QueueDisc::DropTail { limit } => {
                if occ >= *limit as f64 {
                    Verdict::Drop
                } else {
                    Verdict::Enqueue
                }
            }
            QueueDisc::Scripted { limit, script } => {
                let idx = script.seen;
                script.seen += 1;
                if script.drop_arrivals.contains(&idx) || occ >= *limit as f64 {
                    return Verdict::Drop;
                }
                if let Some(copies) = script.drop_seq_copies.get_mut(&pkt.seq) {
                    if *copies > 0 && pkt.kind == crate::packet::PacketKind::Data {
                        *copies -= 1;
                        return Verdict::Drop;
                    }
                }
                Verdict::Enqueue
            }
            QueueDisc::Red {
                limit,
                config,
                state,
            } => red_decide(now, pkt, occ, *limit, config, state, service_rate_pps, rng),
            QueueDisc::PersistentEcn {
                limit,
                config,
                epoch_until,
            } => {
                if occ >= *limit as f64 {
                    // Genuine overflow: drop, and raise the persistent signal.
                    *epoch_until = Some(now + config.epoch);
                    return Verdict::Drop;
                }
                let in_epoch = epoch_until.map(|e| now < e).unwrap_or(false);
                let crossing = occ >= config.mark_threshold as f64;
                if crossing && !in_epoch {
                    *epoch_until = Some(now + config.epoch);
                }
                if (in_epoch || crossing) && pkt.ecn_capable {
                    Verdict::EnqueueMarked
                } else {
                    Verdict::Enqueue
                }
            }
        }
    }

    /// Inform the discipline that the buffer has drained to empty (RED ages
    /// its average over idle time from this point).
    pub(crate) fn on_idle(&mut self, now: SimTime) {
        if let QueueDisc::Red { state, .. } = self {
            state.idle_since = Some(now);
        }
    }
}

/// RED admission with a (possibly fractional) combined occupancy: fluid
/// backlog enters both the EWMA average and the forced-drop comparison as
/// fractions of a mean-sized packet. Integer-valued `occupancy` reproduces
/// the classic packet-only arithmetic exactly.
#[allow(clippy::too_many_arguments)]
fn red_decide(
    now: SimTime,
    pkt: &Packet,
    occupancy: f64,
    limit: usize,
    config: &RedConfig,
    state: &mut RedState,
    service_rate_pps: f64,
    rng: &mut SmallRng,
) -> Verdict {
    if occupancy >= limit as f64 {
        state.count = -1;
        return Verdict::Drop;
    }
    // Update the average queue estimate.
    if occupancy == 0.0 {
        if let Some(idle) = state.idle_since {
            // Pretend m small packets were serviced while idle.
            let m = (now - idle).as_secs_f64() * service_rate_pps;
            state.avg *= (1.0 - config.w_q).powf(m.max(0.0));
            state.idle_since = None;
        } else {
            state.avg *= 1.0 - config.w_q;
        }
    } else {
        state.idle_since = None;
        state.avg = (1.0 - config.w_q) * state.avg + config.w_q * occupancy;
    }

    let avg = state.avg;
    let hard_max = if config.gentle {
        2.0 * config.max_th
    } else {
        config.max_th
    };

    if avg < config.min_th {
        state.count = -1;
        return Verdict::Enqueue;
    }
    if avg >= hard_max {
        state.count = -1;
        return if config.ecn && pkt.ecn_capable && occupancy < limit as f64 {
            Verdict::EnqueueMarked
        } else {
            Verdict::Drop
        };
    }

    // Early-drop region: compute the marking probability. The span is
    // positive for any config admitted by `RedConfig::validate`; the guard
    // keeps a hand-built degenerate config (enum literal bypassing
    // `QueueDisc::red_with`) at `max_p` instead of NaN.
    let pb = if avg < config.max_th {
        let span = config.max_th - config.min_th;
        if span > 0.0 {
            config.max_p * (avg - config.min_th) / span
        } else {
            config.max_p
        }
    } else {
        // Gentle region: ramp from max_p to 1 between max_th and 2*max_th.
        config.max_p + (1.0 - config.max_p) * (avg - config.max_th) / config.max_th
    };
    state.count += 1;
    let denom = 1.0 - state.count as f64 * pb;
    let pa = if denom <= 0.0 {
        1.0
    } else {
        (pb / denom).min(1.0)
    };
    if rng.random::<f64>() < pa {
        state.count = -1;
        if config.ecn && pkt.ecn_capable {
            Verdict::EnqueueMarked
        } else {
            Verdict::Drop
        }
    } else {
        Verdict::Enqueue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet};
    use rand::SeedableRng;

    fn pkt() -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, 0)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn droptail_admits_below_limit_drops_at_limit() {
        let mut q = QueueDisc::drop_tail(3);
        let mut r = rng();
        let p = pkt();
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 0, 1000.0, &mut r),
            Verdict::Enqueue
        );
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 2, 1000.0, &mut r),
            Verdict::Enqueue
        );
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 3, 1000.0, &mut r),
            Verdict::Drop
        );
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 10, 1000.0, &mut r),
            Verdict::Drop
        );
    }

    #[test]
    fn scripted_drops_exact_arrivals() {
        let mut q = QueueDisc::scripted(100, DropScript::at([1, 3]));
        let mut r = rng();
        let p = pkt();
        let verdicts: Vec<Verdict> = (0..5)
            .map(|_| q.decide(SimTime::ZERO, &p, 0, 1000.0, &mut r))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Enqueue,
                Verdict::Drop,
                Verdict::Enqueue,
                Verdict::Drop,
                Verdict::Enqueue
            ]
        );
    }

    #[test]
    fn scripted_seq_copies_drop_then_pass() {
        let mut q = QueueDisc::scripted(100, DropScript::seqs([(7u64, 2u32)]));
        let mut r = rng();
        let mut p = pkt();
        p.seq = 7;
        // First two copies of seq 7 dropped, third passes.
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 0, 1000.0, &mut r),
            Verdict::Drop
        );
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 0, 1000.0, &mut r),
            Verdict::Drop
        );
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 0, 1000.0, &mut r),
            Verdict::Enqueue
        );
        // Other seqs pass.
        let other = pkt();
        assert_eq!(
            q.decide(SimTime::ZERO, &other, 0, 1000.0, &mut r),
            Verdict::Enqueue
        );
    }

    #[test]
    fn scripted_still_respects_buffer_limit() {
        let mut q = QueueDisc::scripted(2, DropScript::at([]));
        let mut r = rng();
        let p = pkt();
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 2, 1000.0, &mut r),
            Verdict::Drop
        );
    }

    #[test]
    fn red_never_early_drops_below_min_th() {
        let cfg = RedConfig {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            w_q: 1.0, // follow instantaneous queue exactly
            gentle: false,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(100, cfg);
        let mut r = rng();
        let p = pkt();
        for occ in 0..5 {
            assert_eq!(
                q.decide(SimTime::from_nanos(occ), &p, occ as usize, 1000.0, &mut r,),
                Verdict::Enqueue
            );
        }
    }

    #[test]
    fn red_always_drops_above_hard_max() {
        let cfg = RedConfig {
            min_th: 2.0,
            max_th: 4.0,
            max_p: 0.1,
            w_q: 1.0,
            gentle: false,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(100, cfg);
        let mut r = rng();
        let p = pkt();
        // avg follows occupancy with w_q = 1; at occupancy 50 >= max_th the
        // packet must be dropped.
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 50, 1000.0, &mut r),
            Verdict::Drop
        );
    }

    #[test]
    fn red_early_drop_rate_is_near_configured_probability() {
        let cfg = RedConfig {
            min_th: 0.0,
            max_th: 10.0,
            max_p: 0.2,
            w_q: 1.0,
            gentle: false,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(100, cfg);
        let mut r = rng();
        let p = pkt();
        // Hold occupancy at 5 packets: pb = 0.2 * 5/10 = 0.1. The
        // count-based spreading makes inter-drop gaps uniform on [1, 1/pb],
        // so the long-run drop rate is ~ 2/(1 + 1/pb) ≈ 0.18.
        let mut drops = 0;
        let n = 20000;
        for i in 0..n {
            if q.decide(SimTime::from_nanos(i), &p, 5, 1000.0, &mut r) == Verdict::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!(
            (0.13..=0.24).contains(&rate),
            "early-drop rate {rate} too far from expected ~0.18"
        );
    }

    #[test]
    fn red_marks_instead_of_dropping_when_ecn() {
        let cfg = RedConfig {
            min_th: 0.0,
            max_th: 10.0,
            max_p: 1.0,
            w_q: 1.0,
            gentle: false,
            ecn: true,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(100, cfg);
        let mut r = rng();
        let mut p = pkt();
        p.ecn_capable = true;
        let mut marked = 0;
        for i in 0..100 {
            match q.decide(SimTime::from_nanos(i), &p, 9, 1000.0, &mut r) {
                Verdict::EnqueueMarked => marked += 1,
                Verdict::Drop => panic!("ECN-capable packet dropped in early region"),
                Verdict::Enqueue => {}
            }
        }
        assert!(marked > 0);
    }

    #[test]
    fn red_idle_period_decays_average() {
        let cfg = RedConfig {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            w_q: 0.002,
            gentle: false,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(100, cfg);
        let mut r = rng();
        let p = pkt();
        // Pump the average up.
        for i in 0..5000 {
            q.decide(SimTime::from_nanos(i), &p, 14, 1000.0, &mut r);
        }
        let avg_before = match &q {
            QueueDisc::Red { state, .. } => state.avg,
            _ => unreachable!(),
        };
        assert!(avg_before > 5.0);
        // Queue drains; a long idle period passes.
        q.on_idle(SimTime::from_nanos(5000));
        q.decide(
            SimTime::from_nanos(5000) + crate::time::SimDuration::from_secs(10),
            &p,
            0,
            10000.0,
            &mut r,
        );
        let avg_after = match &q {
            QueueDisc::Red { state, .. } => state.avg,
            _ => unreachable!(),
        };
        assert!(
            avg_after < avg_before * 0.01,
            "avg {avg_after} did not decay"
        );
    }

    #[test]
    fn persistent_ecn_marks_for_a_full_epoch() {
        let epoch = SimDuration::from_millis(50);
        let mut q = QueueDisc::persistent_ecn(10, 8, epoch);
        let mut r = rng();
        let mut p = pkt();
        p.ecn_capable = true;
        // Below threshold: plain enqueue.
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 3, 1000.0, &mut r),
            Verdict::Enqueue
        );
        // Cross the threshold: epoch starts, packet marked.
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 8, 1000.0, &mut r),
            Verdict::EnqueueMarked
        );
        // Still inside the epoch even though occupancy fell: keep marking.
        let mid = SimTime::ZERO + SimDuration::from_millis(20);
        assert_eq!(q.decide(mid, &p, 1, 1000.0, &mut r), Verdict::EnqueueMarked);
        // After the epoch ends with low occupancy, marking stops.
        let late = SimTime::ZERO + SimDuration::from_millis(60);
        assert_eq!(q.decide(late, &p, 1, 1000.0, &mut r), Verdict::Enqueue);
    }

    #[test]
    fn persistent_ecn_still_drops_on_overflow() {
        let mut q = QueueDisc::persistent_ecn(5, 4, SimDuration::from_millis(10));
        let mut r = rng();
        let mut p = pkt();
        p.ecn_capable = true;
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 5, 1000.0, &mut r),
            Verdict::Drop
        );
    }

    #[test]
    fn persistent_ecn_does_not_mark_non_capable_flows() {
        let mut q = QueueDisc::persistent_ecn(10, 2, SimDuration::from_millis(10));
        let mut r = rng();
        let p = pkt(); // ecn_capable = false
        assert_eq!(
            q.decide(SimTime::ZERO, &p, 5, 1000.0, &mut r),
            Verdict::Enqueue
        );
    }

    fn sane_red() -> RedConfig {
        RedConfig {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            w_q: 0.002,
            gentle: true,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        }
    }

    #[test]
    fn red_validation_rejects_degenerate_configs() {
        assert!(sane_red().validate().is_ok());
        assert!(RedConfig::for_buffer(0).validate().is_ok());
        assert!(RedConfig::for_buffer(1).validate().is_ok());
        assert!(RedConfig::for_buffer(200).validate().is_ok());

        let equal = RedConfig {
            min_th: 10.0,
            max_th: 10.0,
            ..sane_red()
        };
        let err = equal.validate().unwrap_err();
        assert!(err.contains("min_th < max_th"), "unexpected message: {err}");

        for bad in [
            RedConfig {
                min_th: 20.0,
                max_th: 10.0,
                ..sane_red()
            },
            RedConfig {
                min_th: f64::NAN,
                ..sane_red()
            },
            RedConfig {
                max_th: f64::INFINITY,
                ..sane_red()
            },
            RedConfig {
                min_th: -1.0,
                ..sane_red()
            },
            RedConfig {
                w_q: 0.0,
                ..sane_red()
            },
            RedConfig {
                w_q: 1.5,
                ..sane_red()
            },
            RedConfig {
                w_q: f64::NAN,
                ..sane_red()
            },
            RedConfig {
                max_p: 0.0,
                ..sane_red()
            },
            RedConfig {
                max_p: 2.0,
                ..sane_red()
            },
            RedConfig {
                mean_pkt_bytes: 0.0,
                ..sane_red()
            },
        ] {
            assert!(bad.validate().is_err(), "accepted degenerate {bad:?}");
        }
    }

    #[test]
    fn hybrid_droptail_counts_fractional_fluid_at_the_boundary() {
        let mut q = QueueDisc::drop_tail(3);
        let mut r = rng();
        let p = pkt();
        // 2 packets + 0.5 fluid packets: combined 2.5 < 3, admit.
        assert_eq!(
            q.decide_hybrid(SimTime::ZERO, &p, 2, 0.5, 1000.0, &mut r),
            Verdict::Enqueue
        );
        // 2 packets + exactly 1.0 fluid packet: combined == limit, drop —
        // same closed boundary as the integer comparison.
        assert_eq!(
            q.decide_hybrid(SimTime::ZERO, &p, 2, 1.0, 1000.0, &mut r),
            Verdict::Drop
        );
        // 0 packets + 2.999 fluid: still room for one real packet.
        assert_eq!(
            q.decide_hybrid(SimTime::ZERO, &p, 0, 2.999, 1000.0, &mut r),
            Verdict::Enqueue
        );
    }

    #[test]
    fn hybrid_red_forced_drop_sees_combined_occupancy() {
        let cfg = RedConfig {
            min_th: 2.0,
            max_th: 4.0,
            max_p: 0.1,
            w_q: 1.0,
            gentle: false,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(10, cfg);
        let mut r = rng();
        let p = pkt();
        // 3 real packets alone would pass the hard cap; 7.5 fluid packets
        // push the combined occupancy over limit = 10.
        assert_eq!(
            q.decide_hybrid(SimTime::ZERO, &p, 3, 7.5, 1000.0, &mut r),
            Verdict::Drop
        );
    }

    #[test]
    fn hybrid_red_fluid_backlog_feeds_the_average() {
        let cfg = RedConfig {
            min_th: 5.0,
            max_th: 15.0,
            max_p: 0.1,
            w_q: 1.0, // avg follows the combined occupancy exactly
            gentle: false,
            ecn: false,
            mean_pkt_bytes: 1000.0,
        };
        let mut q = QueueDisc::red_with(100, cfg);
        let mut r = rng();
        let p = pkt();
        // Zero real packets but 8 packets of fluid: the estimator must see
        // a busy queue (avg 8 > min_th 5), not take the idle-decay branch.
        q.decide_hybrid(SimTime::ZERO, &p, 0, 8.0, 1000.0, &mut r);
        match &q {
            QueueDisc::Red { state, .. } => {
                assert!(
                    (state.avg - 8.0).abs() < 1e-12,
                    "avg {} did not track fluid occupancy",
                    state.avg
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn hybrid_zero_fluid_is_identical_to_packet_path() {
        // Replay the same decision sequence through both entry points with
        // identical RNG streams: the verdicts must match exactly.
        let mk = || QueueDisc::red(50);
        let mut a = mk();
        let mut b = mk();
        let mut ra = rng();
        let mut rb = rng();
        let p = pkt();
        for i in 0..2000u64 {
            let occ = (i % 40) as usize;
            let va = a.decide(SimTime::from_nanos(i), &p, occ, 1000.0, &mut ra);
            let vb = b.decide_hybrid(SimTime::from_nanos(i), &p, occ, 0.0, 1000.0, &mut rb);
            assert_eq!(va, vb, "diverged at arrival {i}");
        }
    }

    #[test]
    fn capacity_and_mean_pkt_helpers() {
        assert_eq!(QueueDisc::drop_tail(7).capacity_bytes(1000.0), 7000.0);
        assert_eq!(QueueDisc::red(10).capacity_bytes(500.0), 5000.0);
        assert_eq!(QueueDisc::drop_tail(7).mean_pkt_bytes(), 1000.0);
        let mut cfg = RedConfig::for_buffer(100);
        cfg.mean_pkt_bytes = 576.0;
        assert_eq!(QueueDisc::red_with(100, cfg).mean_pkt_bytes(), 576.0);
    }

    #[test]
    #[should_panic(expected = "invalid RED configuration")]
    fn red_with_panics_on_equal_thresholds_at_build_time() {
        let _ = QueueDisc::red_with(
            100,
            RedConfig {
                min_th: 10.0,
                max_th: 10.0,
                ..sane_red()
            },
        );
    }

    #[test]
    fn degenerate_red_built_by_hand_never_yields_nan_probability() {
        // Bypass `red_with` validation with an enum literal: the defensive
        // span guard must keep the drop decision well-defined (NaN pb would
        // make `rng < pa` always false, silently disabling early drops).
        let mut q = QueueDisc::Red {
            limit: 100,
            config: Box::new(RedConfig {
                min_th: 10.0,
                max_th: 10.0,
                max_p: 1.0,
                w_q: 1.0,
                gentle: true,
                ecn: false,
                mean_pkt_bytes: 1000.0,
            }),
            state: Box::default(),
        };
        let mut r = rng();
        let p = pkt();
        let mut early_drops = 0;
        for i in 0..200 {
            // Hold avg exactly at the degenerate threshold (w_q = 1).
            if q.decide(SimTime::from_nanos(i), &p, 10, 1000.0, &mut r) == Verdict::Drop {
                early_drops += 1;
            }
        }
        // avg == min_th == max_th sits in the gentle region with pb = max_p
        // = 1: every packet must be dropped, none lost to NaN comparisons.
        assert_eq!(early_drops, 200, "NaN probability disabled early drops");
    }
}
