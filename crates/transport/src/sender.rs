//! The unified reliable sender: one mechanical core, any
//! [`Controller`].
//!
//! [`Sender`] owns everything that is *not* a window law — sequencing,
//! duplicate-ACK and SACK-scoreboard loss detection, the RTT estimator,
//! the retransmission and pacing timers — and translates wire events into
//! the [`crate::cc`] event vocabulary. Composing it with a controller, a
//! repair style and a send mode reproduces every classic sender:
//!
//! | constructor        | controller | repair            | mode   |
//! |--------------------|------------|-------------------|--------|
//! | [`Sender::newreno`]| Reno AIMD  | go-back-N NewReno | burst  |
//! | [`Sender::pacing`] | Reno AIMD  | go-back-N NewReno | paced  |
//! | [`Sender::sack`]   | Reno AIMD  | RFC 6675 SACK     | burst  |
//! | [`Sender::cubic`]  | CUBIC      | RFC 6675 SACK     | burst  |
//! | [`Sender::bbr`]    | BBR        | RFC 6675 SACK     | paced  |
//! | [`Sender::fast`]   | FAST       | go-back-N NewReno | burst  |
//!
//! The go-back-N and SACK paths are line-for-line transliterations of the
//! pre-refactor `Tcp` and `SackTcp` senders (golden fixtures pin the
//! refactor to byte-identical traces), with the window arithmetic lifted
//! into the controller at exactly the old mutation points.

use crate::cc::{
    bbr::BbrCc,
    cubic::CubicCc,
    fast::FastCc,
    reno::{LossResponse, RenoCc},
    AckEvent, AckPhase, CongestionEvent, CongestionKind, Controller,
};
use crate::config::{TcpConfig, ACK_BYTES, MSS, SEGMENT_BYTES};
use crate::receiver::TcpReceiver;
use crate::rtt::RttEstimator;
use crate::runset::RunSet;
use crate::timer::{token, untoken, TimerKind};
use lossburst_netsim::event::TimerToken;
use lossburst_netsim::iface::{Ctx, FlowProgress, Transport};
use lossburst_netsim::packet::{NodeId, Packet, PacketKind};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::trace::GoodputEvent;

/// How the sender releases packets inside an RTT.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SendMode {
    /// Window-based: burst everything the window allows, back-to-back.
    Burst,
    /// Rate-based: spread transmissions evenly at `srtt / cwnd` (or the
    /// controller's [`pacing_rate`](Controller::pacing_rate), if any).
    Paced {
        /// RTT assumed before the first RTT sample exists.
        rtt_hint: SimDuration,
    },
}

/// How the sender detects and repairs losses, with that style's recovery
/// state.
pub(crate) enum Repair {
    /// Cumulative-ACK-only loss detection: RFC 6582 NewReno fast recovery,
    /// and NS-2-style go-back-N after an RTO.
    GoBackN {
        /// In fast recovery until the cumulative ACK passes this.
        recover: Option<u64>,
        /// Partial ACKs seen in the current recovery.
        partial_acks: u32,
    },
    /// RFC 2018 SACK blocks driving an RFC 6675 scoreboard: repair a
    /// many-loss window in one round trip.
    Sack(SackState),
}

impl Repair {
    /// Go-back-N repair, not in recovery.
    pub(crate) fn go_back_n() -> Repair {
        Repair::GoBackN {
            recover: None,
            partial_acks: 0,
        }
    }

    /// SACK repair with an empty scoreboard.
    pub(crate) fn sack() -> Repair {
        Repair::Sack(SackState::new())
    }
}

/// RFC 6675 scoreboard state of [`Repair::Sack`].
pub(crate) struct SackState {
    /// Sequences above `high_ack` known delivered, as runs: every query
    /// below costs O(holes), not O(SACKed packets).
    pub(crate) sacked: RunSet,
    /// In loss recovery until `high_ack` reaches this.
    pub(crate) recovery_point: Option<u64>,
    /// Next hole candidate to retransmit within the current recovery.
    pub(crate) rtx_next: u64,
}

impl SackState {
    pub(crate) fn new() -> SackState {
        SackState {
            sacked: RunSet::new(),
            recovery_point: None,
            rtx_next: 0,
        }
    }

    /// RFC 6675 pipe estimate: outstanding, minus known-delivered (SACKed),
    /// minus segments judged lost (IsLost: three SACKed segments above)
    /// that have not been retransmitted this recovery.
    pub(crate) fn pipe(&self, next_seq: u64, high_ack: u64) -> u64 {
        let outstanding = next_seq.saturating_sub(high_ack);
        let sacked = self.sacked.len();
        let lost = match self.sacked.highest() {
            Some(highest) if highest >= high_ack + 3 => {
                let end = highest - 2; // seqs with >= 3 SACKed above
                let start = self.rtx_next.max(high_ack);
                if end > start {
                    (end - start) - self.sacked.count_in(start, end)
                } else {
                    0
                }
            }
            _ => 0,
        };
        outstanding.saturating_sub(sacked).saturating_sub(lost)
    }

    /// Next unsacked hole in `[rtx_next, recovery_point)`, if any.
    pub(crate) fn next_hole(&self, high_ack: u64) -> Option<u64> {
        let end = self.recovery_point?;
        let s = self.rtx_next.max(high_ack);
        // Runs never touch, so the end of the run holding `s` is a hole.
        let hole = self.sacked.run_end(s).unwrap_or(s);
        (hole < end).then_some(hole)
    }

    /// Absorb one ACK's SACK blocks; `true` if any sequence is newly
    /// SACKed. Blocks are clamped to `[floor, ceiling)` — the cumulative
    /// point and the highest sequence ever sent — because a block is peer
    /// input: data never sent cannot have been received, and without the
    /// bound one forged `(0, u64::MAX)` block would claim the whole
    /// sequence space. An honest receiver never reports outside it.
    pub(crate) fn absorb(
        &mut self,
        blocks: impl Iterator<Item = (u64, u64)>,
        floor: u64,
        ceiling: u64,
    ) -> bool {
        let mut new_sack_info = false;
        for (a, b) in blocks {
            new_sack_info |= self.sacked.insert_range(a.max(floor), b.min(ceiling));
        }
        new_sack_info
    }

    /// The cumulative ACK reached `high_ack`: nothing below it needs
    /// tracking or repair any more.
    pub(crate) fn on_cumulative_ack(&mut self, high_ack: u64) {
        self.rtx_next = self.rtx_next.max(high_ack);
        self.sacked.remove_below(high_ack);
    }

    /// Enter loss recovery with everything below `next_seq` outstanding;
    /// returns the first hole, marked as retransmitted. RFC 6675 sends it
    /// at once, whatever the pipe (which right now still counts the whole
    /// pre-loss flight and would otherwise gate everything).
    fn enter_recovery(&mut self, next_seq: u64, high_ack: u64) -> Option<u64> {
        self.recovery_point = Some(next_seq);
        self.rtx_next = high_ack;
        let hole = self.next_hole(high_ack)?;
        self.rtx_next = hole + 1;
        Some(hole)
    }
}

/// A reliable flow (sender and receiver halves) driven by a pluggable
/// congestion [`Controller`].
pub struct Sender {
    ecn: bool,
    mode: SendMode,
    src: NodeId,
    dst: NodeId,

    ctrl: Box<dyn Controller>,

    // --- sequencing ---
    pub(crate) next_seq: u64,
    pub(crate) max_seq_sent: u64,
    pub(crate) high_ack: u64,
    dupacks: u32,
    pub(crate) repair: Repair,

    // --- clocks and timers ---
    rtt: RttEstimator,
    min_rtt: Option<SimDuration>,
    rto_gen: u64,
    rto_armed: bool,
    pace_gen: u64,
    pace_armed: bool,
    next_release: SimTime,
    update_gen: u64,
    cwr_until: u64,
    pub(crate) limit: Option<u64>,

    // --- delivery accounting (controller model inputs) ---
    delivered: u64,
    rate_epoch_at: Option<SimTime>,
    rate_epoch_delivered: u64,
    rate_epoch_dirty: bool,

    // --- stats ---
    packets_sent: u64,
    pub(crate) retransmits: u64,
    pub(crate) loss_events: u64,
    timeouts: u64,

    // --- receiver ---
    rx: TcpReceiver,
}

impl Sender {
    /// Compose a sender from an already-built controller.
    pub(crate) fn with_controller(
        src: NodeId,
        dst: NodeId,
        cfg: TcpConfig,
        ctrl: Box<dyn Controller>,
        mode: SendMode,
        repair: Repair,
    ) -> Sender {
        Sender {
            ecn: cfg.ecn,
            mode,
            src,
            dst,
            ctrl,
            next_seq: 0,
            max_seq_sent: 0,
            high_ack: 0,
            dupacks: 0,
            repair,
            rtt: RttEstimator::new(cfg.initial_rto, cfg.min_rto),
            min_rtt: None,
            rto_gen: 0,
            rto_armed: false,
            pace_gen: 0,
            pace_armed: false,
            next_release: SimTime::ZERO,
            update_gen: 0,
            cwr_until: 0,
            limit: None,
            delivered: 0,
            rate_epoch_at: None,
            rate_epoch_delivered: 0,
            rate_epoch_dirty: false,
            packets_sent: 0,
            retransmits: 0,
            loss_events: 0,
            timeouts: 0,
            rx: TcpReceiver::default(),
        }
    }

    /// A NewReno flow in the classic window-based (bursty) implementation.
    pub fn newreno(src: NodeId, dst: NodeId, cfg: TcpConfig) -> Sender {
        let ctrl = Box::new(RenoCc::new(LossResponse::HalvePlus3));
        Sender::with_controller(src, dst, cfg, ctrl, SendMode::Burst, Repair::go_back_n())
    }

    /// TCP Pacing: NewReno congestion control with rate-based transmission.
    /// `rtt_hint` seeds the pacing interval until the first RTT sample.
    pub fn pacing(src: NodeId, dst: NodeId, cfg: TcpConfig, rtt_hint: SimDuration) -> Sender {
        let ctrl = Box::new(RenoCc::new(LossResponse::HalvePlus3));
        let mode = SendMode::Paced { rtt_hint };
        Sender::with_controller(src, dst, cfg, ctrl, mode, Repair::go_back_n())
    }

    /// NewReno window law over RFC 6675 SACK repair.
    pub fn sack(src: NodeId, dst: NodeId, cfg: TcpConfig) -> Sender {
        let ctrl = Box::new(RenoCc::new(LossResponse::Halve));
        Sender::with_controller(src, dst, cfg, ctrl, SendMode::Burst, Repair::sack())
    }

    /// RFC 8312 CUBIC over SACK repair, window-based.
    pub fn cubic(src: NodeId, dst: NodeId, cfg: TcpConfig) -> Sender {
        let ctrl = Box::new(CubicCc::new());
        Sender::with_controller(src, dst, cfg, ctrl, SendMode::Burst, Repair::sack())
    }

    /// BBR-v1-style model-based control over SACK repair, paced.
    pub fn bbr(src: NodeId, dst: NodeId, cfg: TcpConfig, rtt_hint: SimDuration) -> Sender {
        let ctrl = Box::new(BbrCc::new());
        let mode = SendMode::Paced { rtt_hint };
        Sender::with_controller(src, dst, cfg, ctrl, mode, Repair::sack())
    }

    /// FAST-style delay-based window law over go-back-N repair.
    pub fn fast(src: NodeId, dst: NodeId, cfg: TcpConfig, alpha: f64, gamma: f64) -> Sender {
        let ctrl = Box::new(FastCc::new(alpha, gamma));
        Sender::with_controller(src, dst, cfg, ctrl, SendMode::Burst, Repair::go_back_n())
    }

    /// Restrict the flow to a bulk transfer of `bytes` application bytes
    /// (rounded up to whole segments). The flow reports done when all of it
    /// is acknowledged.
    pub fn with_limit_bytes(mut self, bytes: u64) -> Sender {
        let pkts = bytes.div_ceil(MSS as u64).max(1);
        self.limit = Some(pkts);
        self
    }

    /// Current congestion window in packets (the controller's view).
    pub fn cwnd(&self) -> f64 {
        self.ctrl.window()
    }

    /// Whether the sender is currently in loss recovery.
    fn in_recovery(&self) -> bool {
        match &self.repair {
            Repair::GoBackN { recover, .. } => recover.is_some(),
            Repair::Sack(sb) => sb.recovery_point.is_some(),
        }
    }

    /// Leave loss recovery, whichever repair style is running it.
    fn leave_recovery(&mut self) {
        match &mut self.repair {
            Repair::GoBackN {
                recover,
                partial_acks,
            } => {
                *recover = None;
                *partial_acks = 0;
            }
            Repair::Sack(sb) => sb.recovery_point = None,
        }
    }

    /// Timeout count (sender stalls recovered via RTO).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// The congestion controller driving this flow.
    pub fn controller(&self) -> &dyn Controller {
        &*self.ctrl
    }

    #[inline]
    fn pif(&self) -> u64 {
        // After a go-back-N pull-back, ACKs of packets still in flight can
        // advance `high_ack` past `next_seq`; saturate rather than wrap.
        self.next_seq.saturating_sub(self.high_ack)
    }

    /// Packets the repair layer counts as occupying the path.
    #[inline]
    fn flight(&self) -> u64 {
        match &self.repair {
            Repair::Sack(sb) => sb.pipe(self.next_seq, self.high_ack),
            Repair::GoBackN { .. } => self.pif(),
        }
    }

    #[inline]
    fn window(&self) -> u64 {
        self.ctrl.window().floor() as u64
    }

    #[inline]
    fn has_new_data(&self) -> bool {
        match self.limit {
            Some(l) => self.next_seq < l,
            None => true,
        }
    }

    fn can_send_new(&self) -> bool {
        match &self.repair {
            Repair::Sack(sb) => {
                sb.pipe(self.next_seq, self.high_ack) < self.window()
                    && (sb.next_hole(self.high_ack).is_some() || self.has_new_data())
            }
            Repair::GoBackN { .. } => self.has_new_data() && self.pif() < self.window(),
        }
    }

    fn emit(&mut self, seq: u64, retransmit: bool, ctx: &mut Ctx) {
        let mut pkt = Packet::data(ctx.flow, self.src, self.dst, SEGMENT_BYTES, seq);
        pkt.ecn_capable = self.ecn;
        if let Some(srtt) = self.rtt.srtt() {
            pkt.rtt_hint = srtt;
        }
        ctx.send_from(self.src, pkt);
        self.packets_sent += 1;
        if retransmit {
            self.retransmits += 1;
            // Loss repair makes the cumulative ACK jump when the hole
            // fills, crediting several RTTs' worth of past deliveries to
            // one sampling window; mark the window so it yields no
            // delivery-rate sample.
            self.rate_epoch_dirty = true;
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        self.rto_gen += 1;
        self.rto_armed = true;
        ctx.set_timer(self.rtt.rto(), token(TimerKind::Rto, self.rto_gen));
    }

    fn disarm_rto(&mut self) {
        self.rto_gen += 1; // outstanding timers become stale
        self.rto_armed = false;
    }

    fn pacing_interval(&self) -> SimDuration {
        let rtt_hint = match self.mode {
            SendMode::Paced { rtt_hint } => rtt_hint,
            SendMode::Burst => return SimDuration::ZERO,
        };
        // Rate-based controllers (BBR) pace at their model's rate; window
        // controllers spread the window over one smoothed RTT.
        if let Some(pps) = self.ctrl.pacing_rate() {
            if pps > 0.0 {
                return SimDuration::from_secs_f64(1.0 / pps);
            }
        }
        let rtt = self.rtt.srtt().unwrap_or(rtt_hint);
        let w = self.ctrl.window().max(1.0);
        SimDuration::from_secs_f64(rtt.as_secs_f64() / w)
    }

    /// Pop the next sequence the repair layer wants on the wire, if the
    /// window allows one.
    fn take_next_send(&mut self) -> Option<(u64, bool)> {
        let win = self.window();
        let (next_seq, high_ack) = (self.next_seq, self.high_ack);
        match &mut self.repair {
            Repair::Sack(sb) => {
                if sb.pipe(next_seq, high_ack) >= win {
                    return None;
                }
                if let Some(hole) = sb.next_hole(high_ack) {
                    sb.rtx_next = hole + 1;
                    return Some((hole, true));
                }
                let held_until = sb.sacked.run_end(next_seq);
                if !self.has_new_data() {
                    return None;
                }
                // Skip sequences the receiver already holds (possible after
                // a pull-back).
                if let Some(end) = held_until {
                    self.next_seq = end;
                    if !self.has_new_data() {
                        return None;
                    }
                }
            }
            Repair::GoBackN { .. } => {
                if !self.has_new_data() || self.pif() >= win {
                    return None;
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let is_rtx = seq < self.max_seq_sent;
        self.max_seq_sent = self.max_seq_sent.max(self.next_seq);
        Some((seq, is_rtx))
    }

    /// Send whatever the window and mode allow right now.
    fn pump(&mut self, ctx: &mut Ctx) {
        match self.mode {
            SendMode::Burst => {
                // The paper's window-based pattern: fill the w−pif gap in
                // one back-to-back burst.
                while let Some((seq, is_rtx)) = self.take_next_send() {
                    self.emit(seq, is_rtx, ctx);
                }
                // The RTO guards *outstanding* data, not the pipe estimate:
                // with a lost tail the pipe can read zero while segments
                // are still unacknowledged, and only the timer saves them.
                if self.pif() > 0 && !self.rto_armed {
                    self.arm_rto(ctx);
                }
            }
            SendMode::Paced { .. } => {
                if self.can_send_new() && !self.pace_armed {
                    self.schedule_pace(ctx);
                }
                if matches!(self.repair, Repair::Sack(_)) && self.pif() > 0 && !self.rto_armed {
                    self.arm_rto(ctx);
                }
            }
        }
    }

    fn schedule_pace(&mut self, ctx: &mut Ctx) {
        self.pace_gen += 1;
        self.pace_armed = true;
        let release_at = if self.next_release > ctx.now {
            self.next_release
        } else {
            ctx.now
        };
        ctx.set_timer(release_at - ctx.now, token(TimerKind::Send, self.pace_gen));
    }

    fn on_pace_timer(&mut self, ctx: &mut Ctx) {
        self.pace_armed = false;
        if let Some((seq, is_rtx)) = self.take_next_send() {
            self.emit(seq, is_rtx, ctx);
            self.next_release = ctx.now + self.pacing_interval();
            if self.pif() > 0 && !self.rto_armed {
                self.arm_rto(ctx);
            }
            if self.can_send_new() {
                self.schedule_pace(ctx);
            }
        }
    }

    fn schedule_update(&mut self, interval: SimDuration, ctx: &mut Ctx) {
        self.update_gen += 1;
        ctx.set_timer(interval, token(TimerKind::WindowUpdate, self.update_gen));
    }

    fn on_update_timer(&mut self, ctx: &mut Ctx) {
        self.ctrl.on_update(ctx.now);
        self.pump(ctx);
        if let Some(iv) = self.ctrl.update_interval() {
            self.schedule_update(iv, ctx);
        }
    }

    /// Build the controller's view of a cumulative advance and deliver it.
    fn notify_ack(
        &mut self,
        newly: u64,
        rtt_sample: Option<SimDuration>,
        phase: AckPhase,
        ctx: &mut Ctx,
    ) {
        self.delivered += newly;
        // Delivery rate is measured over a ~RTT window, not per ACK: when a
        // retransmission fills a hole the cumulative ACK jumps by a whole
        // recovery's worth of packets over one inter-ACK gap, and a
        // per-ACK sample would hand rate-based controllers a bandwidth
        // estimate tens of times above the path's (the max filter then
        // latches it and the flow floods the bottleneck). An advance far
        // beyond what one ACK can cover is such a jump — those packets
        // reached the receiver RTTs ago — so it poisons the whole window.
        if newly > 8 {
            self.rate_epoch_dirty = true;
        }
        let win = self
            .rtt
            .srtt()
            .unwrap_or_else(|| SimDuration::from_millis(1))
            .max(SimDuration::from_millis(1));
        let delivery_rate = match self.rate_epoch_at {
            Some(epoch) if ctx.now - epoch >= win => {
                let rate = (self.delivered - self.rate_epoch_delivered) as f64
                    / (ctx.now - epoch).as_secs_f64();
                let clean = !self.rate_epoch_dirty;
                self.rate_epoch_at = Some(ctx.now);
                self.rate_epoch_delivered = self.delivered;
                self.rate_epoch_dirty = false;
                clean.then_some(rate)
            }
            Some(_) => None,
            None => {
                self.rate_epoch_at = Some(ctx.now);
                self.rate_epoch_delivered = self.delivered;
                self.rate_epoch_dirty = false;
                None
            }
        };
        let ev = AckEvent {
            now: ctx.now,
            newly_acked: newly,
            rtt_sample,
            srtt: self.rtt.srtt(),
            min_rtt: self.min_rtt,
            flight: self.flight(),
            delivered: self.delivered,
            delivery_rate,
            phase,
        };
        self.ctrl.on_ack(&ev);
    }

    fn take_rtt_sample(&mut self, pkt: &Packet, ctx: &Ctx) -> Option<SimDuration> {
        if pkt.echo == SimTime::ZERO {
            return None;
        }
        let sample = ctx.now - pkt.echo;
        self.rtt.on_sample(sample);
        if self.min_rtt.is_none_or(|m| sample < m) {
            self.min_rtt = Some(sample);
        }
        Some(sample)
    }

    /// A loss was detected (three duplicate ACKs, or three SACKed segments
    /// above a hole): reduce, enter recovery and retransmit the first hole.
    fn enter_recovery(&mut self, ctx: &mut Ctx) {
        let flight = self.flight() as f64;
        self.ctrl.on_congestion_event(&CongestionEvent {
            now: ctx.now,
            kind: CongestionKind::DupAck,
            flight,
        });
        self.loss_events += 1;
        let (next_seq, high_ack) = (self.next_seq, self.high_ack);
        let first_hole = match &mut self.repair {
            Repair::GoBackN {
                recover,
                partial_acks,
            } => {
                *recover = Some(next_seq.saturating_sub(1));
                *partial_acks = 0;
                Some(high_ack)
            }
            Repair::Sack(sb) => sb.enter_recovery(next_seq, high_ack),
        };
        if let Some(hole) = first_hole {
            self.emit(hole, true, ctx);
        }
        self.arm_rto(ctx);
    }

    fn on_ecn_echo(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        // ECN reaction, at most once per window of data (RFC 3168 §6.1.2).
        if self.ecn && pkt.ecn_echo && pkt.ack >= self.cwr_until {
            let flight = self.pif() as f64;
            self.ctrl.on_congestion_event(&CongestionEvent {
                now: ctx.now,
                kind: CongestionKind::Ecn,
                flight,
            });
            self.cwr_until = self.next_seq;
            self.loss_events += 1;
        }
    }

    /// The repair layer's reading of a cumulative advance to `high_ack`:
    /// the recovery phase the ACK sits in, and whether it re-arms the RTO.
    fn on_advance(&mut self, newly: u64, ctx: &mut Ctx) -> (AckPhase, bool) {
        let high_ack = self.high_ack;
        let phase = match &mut self.repair {
            Repair::GoBackN { recover: None, .. } => AckPhase::Open,
            Repair::GoBackN {
                recover: Some(recover),
                ..
            } if high_ack > *recover => AckPhase::RecoveryExit,
            Repair::GoBackN { partial_acks, .. } => {
                // NewReno partial acknowledgment: retransmit the next hole,
                // deflate, stay in. RFC 6582 "Impatient": only the FIRST
                // partial ACK of a recovery resets the retransmit timer. A
                // window with many losses would otherwise crawl out one
                // hole per RTT for hundreds of RTTs; instead the RTO fires
                // and go-back-N resynchronizes in a few round trips.
                *partial_acks += 1;
                let first = *partial_acks == 1;
                self.emit(high_ack, true, ctx);
                self.ctrl.on_partial_ack(ctx.now, newly);
                return (AckPhase::Recovery, first);
            }
            Repair::Sack(sb) => {
                sb.on_cumulative_ack(high_ack);
                match sb.recovery_point {
                    None => AckPhase::Open,
                    Some(rp) if high_ack >= rp => AckPhase::RecoveryExit,
                    Some(_) => AckPhase::Recovery, // keep repairing holes
                }
            }
        };
        match phase {
            AckPhase::Open => self.dupacks = 0,
            AckPhase::RecoveryExit => {
                // Full acknowledgment: leave recovery.
                self.ctrl.on_recovery_exit(ctx.now);
                self.leave_recovery();
                self.dupacks = 0;
            }
            AckPhase::Recovery => {}
        }
        (phase, true)
    }

    fn on_ack(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        self.on_ecn_echo(pkt, ctx);
        let (floor, ceiling) = (self.high_ack.max(pkt.ack), self.max_seq_sent);
        let new_sack_info = match &mut self.repair {
            Repair::Sack(sb) => sb.absorb(pkt.sack_blocks(), floor, ceiling),
            Repair::GoBackN { .. } => false,
        };

        if pkt.ack > self.high_ack {
            let newly = pkt.ack - self.high_ack;
            self.high_ack = pkt.ack;
            // Everything below the cumulative ACK is delivered; never send
            // below it again (relevant after a go-back-N pull-back).
            self.next_seq = self.next_seq.max(self.high_ack);
            let rtt_sample = self.take_rtt_sample(pkt, ctx);
            ctx.trace.goodput(GoodputEvent {
                time: ctx.now,
                flow: ctx.flow,
                bytes: newly * MSS as u64,
            });
            let (phase, rearm_rto) = self.on_advance(newly, ctx);
            self.notify_ack(newly, rtt_sample, phase, ctx);
            if self.pif() > 0 {
                if rearm_rto {
                    self.arm_rto(ctx);
                }
            } else {
                self.disarm_rto();
            }
        } else if pkt.ack == self.high_ack && self.pif() > 0 {
            // Duplicate acknowledgment.
            match &self.repair {
                Repair::GoBackN { recover, .. } => {
                    self.dupacks += 1;
                    if recover.is_some() {
                        self.ctrl.on_dupack_in_recovery(); // inflation
                    } else if self.dupacks == 3 {
                        self.enter_recovery(ctx);
                    }
                }
                // RFC 6675: a duplicate counts only if it SACKs something
                // new; recovery starts at three SACKed segments.
                Repair::Sack(sb) if new_sack_info => {
                    self.dupacks += 1;
                    if self.dupacks >= 3 && sb.recovery_point.is_none() {
                        self.enter_recovery(ctx);
                    }
                }
                Repair::Sack(_) => {}
            }
        }
        self.pump(ctx);
    }

    fn on_rto(&mut self, ctx: &mut Ctx) {
        self.rto_armed = false;
        let idle = match &self.repair {
            Repair::Sack(_) => self.next_seq == self.high_ack && !self.has_new_data(),
            Repair::GoBackN { .. } => self.pif() == 0,
        };
        if idle {
            return; // nothing outstanding; leave disarmed
        }
        self.timeouts += 1;
        self.loss_events += 1;
        // Halve once per loss event: if this RTO interrupts an ongoing fast
        // recovery, ssthresh was already set to half the flight size at the
        // event's start — re-halving against the drained residual flight
        // would collapse it to the floor and cost hundreds of RTTs of
        // linear re-growth.
        let in_recovery = self.in_recovery();
        let flight = self.flight() as f64;
        self.ctrl.on_rto(ctx.now, flight, in_recovery);
        self.dupacks = 0;
        self.leave_recovery();
        self.rtt.backoff();
        // Go-back-N, as NS-2 does: pull the send pointer back to the first
        // unacked segment. Slow start then walks back over the old range;
        // the receiver's cumulative ACKs leap past any runs it already
        // buffered (SACK additionally skips scoreboard entries), so only
        // genuinely lost segments cost a round trip.
        self.next_seq = self.high_ack;
        self.pump(ctx);
        if !self.rto_armed {
            self.arm_rto(ctx);
        }
    }
}

impl Transport for Sender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some(iv) = self.ctrl.update_interval() {
            self.schedule_update(iv, ctx);
        }
        self.pump(ctx);
        if self.pif() > 0 && !self.rto_armed {
            self.arm_rto(ctx);
        }
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        match pkt.kind {
            PacketKind::Data => {
                let info = self.rx.on_data(pkt);
                let mut ack = Packet::ack(ctx.flow, self.dst, self.src, ACK_BYTES, info.ack);
                ack.echo = info.echo;
                ack.ecn_echo = info.ecn_echo;
                ack.sack = info.sack; // advertised even if the peer ignores it
                ctx.send_from(self.dst, ack);
            }
            // An ACK beyond what was ever sent is peer input no honest
            // receiver produces: it would claim undelivered bytes and
            // finish a bulk transfer early. Ignore it.
            PacketKind::Ack if pkt.ack <= self.max_seq_sent => self.on_ack(pkt, ctx),
            PacketKind::Ack | PacketKind::Feedback => {}
        }
    }

    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx) {
        match untoken(t) {
            (Some(TimerKind::Rto), generation) if generation == self.rto_gen => self.on_rto(ctx),
            (Some(TimerKind::Send), generation) if generation == self.pace_gen => {
                self.on_pace_timer(ctx)
            }
            (Some(TimerKind::WindowUpdate), generation) if generation == self.update_gen => {
                self.on_update_timer(ctx)
            }
            _ => {} // stale
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.limit, Some(l) if self.high_ack >= l)
    }

    fn progress(&self) -> FlowProgress {
        FlowProgress {
            bytes_delivered: self.high_ack * MSS as u64,
            packets_sent: self.packets_sent,
            retransmits: self.retransmits,
            loss_events: self.loss_events,
            timeouts: self.timeouts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::bbr::BbrCc;
    use crate::cc::cubic::CubicCc;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::queue::QueueDisc;
    use lossburst_netsim::sim::Simulator;
    use lossburst_netsim::trace::TraceConfig;
    use std::any::Any;

    fn simple_net(buffer: usize) -> (Simulator, NodeId, NodeId) {
        let mut bld = SimBuilder::new(11).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            8_000_000.0,
            SimDuration::from_millis(10),
            QueueDisc::drop_tail(buffer),
        );
        let sim = bld.build();
        (sim, a, b)
    }

    #[test]
    fn cubic_flow_completes_a_lossy_transfer() {
        let (mut sim, a, b) = simple_net(10);
        let f = sim.add_flow(
            SimTime::ZERO,
            Box::new(Sender::cubic(a, b, TcpConfig::default()).with_limit_bytes(2_000_000)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));
        let s = sim.flow(f);
        assert!(s.is_done(), "CUBIC transfer stalled");
        assert_eq!(s.progress().bytes_delivered, 2_000_000);
        assert!(sim.total_drops() > 0, "buffer should have overflowed");
        let cc: &dyn Any = s.controller();
        assert!(cc.is::<CubicCc>());
        assert!(s.loss_events > 0);
    }

    #[test]
    fn bbr_flow_completes_and_builds_a_model() {
        let (mut sim, a, b) = simple_net(100);
        let f = sim.add_flow(
            SimTime::ZERO,
            Box::new(
                Sender::bbr(a, b, TcpConfig::default(), SimDuration::from_millis(20))
                    .with_limit_bytes(1_000_000),
            ),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let s = sim.flow(f);
        assert!(s.is_done(), "BBR transfer stalled");
        let cc: &dyn Any = s.controller();
        let bbr = cc.downcast_ref::<BbrCc>().unwrap();
        // 8 Mbps / 1040-byte frames ≈ 960 pps; the windowed max should land
        // in that neighbourhood once the pipe fills.
        assert!(
            bbr.btlbw() > 400.0,
            "bottleneck estimate {} too low",
            bbr.btlbw()
        );
    }

    #[test]
    fn fast_flow_stabilizes_without_losses() {
        // 8 Mbps, 40 ms RTT, deep buffer: the delay law should settle with
        // ~alpha packets queued and never overflow.
        let mut bld = SimBuilder::new(7).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            8_000_000.0,
            SimDuration::from_millis(20),
            QueueDisc::drop_tail(400),
        );
        let mut sim = bld.build();
        let f = sim.add_flow(
            SimTime::ZERO,
            Box::new(Sender::fast(a, b, TcpConfig::default(), 20.0, 0.5)),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        let s = sim.flow(f);
        assert_eq!(sim.total_drops(), 0, "delay law should not overflow");
        // BDP ≈ 38 packets; fixed point sits at BDP + alpha-ish.
        assert!(
            s.cwnd() > 30.0 && s.cwnd() < 90.0,
            "cwnd {} outside the expected stable band",
            s.cwnd()
        );
    }

    /// A SACK block is peer input. One forged `(0, u64::MAX)` block used to
    /// be absorbed one sequence at a time, until memory ran out.
    #[test]
    fn forged_sack_block_is_clamped_to_what_was_sent() {
        use lossburst_netsim::driver::HostDriver;
        use lossburst_netsim::packet::FlowId;

        let (a, b) = (NodeId(0), NodeId(1));
        let mut s = Sender::cubic(a, b, TcpConfig::default());
        let mut drv = HostDriver::new(1, FlowId(0));
        let sent = drv.start(&mut s, SimTime::ZERO);
        assert!(!sent.is_empty() && s.max_seq_sent == sent.len() as u64);

        let mut forged = Packet::ack(FlowId(0), b, a, 40, 1);
        forged.sack = [(0, u64::MAX), (5, u64::MAX - 1), (u64::MAX - 9, u64::MAX)];
        let at = SimTime::ZERO + SimDuration::from_millis(20);
        let sent_before = s.max_seq_sent;
        let out = drv.deliver(&mut s, &forged, at);

        let Repair::Sack(sb) = &s.repair else {
            panic!("CUBIC repairs with SACK");
        };
        assert_eq!(s.high_ack, 1);
        // Exactly what was in flight when the forgery arrived — never
        // more than `max_seq_sent - high_ack`.
        assert_eq!(sb.sacked.len(), sent_before - s.high_ack);
        assert_eq!(sb.sacked.highest(), Some(sent_before - 1));
        // The sender carries on with new data from where it was.
        assert!(out.iter().all(|(_, p)| p.seq >= sent_before));
        assert!(out.len() as f64 <= s.cwnd());
    }

    /// The scoreboard's cost is its hole count: 5 489 SACKed sequences
    /// around eleven holes are eleven runs, and `pipe` / `next_hole` only
    /// ever walk runs.
    #[test]
    fn scoreboard_size_is_holes_not_sequences() {
        let mut sb = SackState::new();
        let high_ack = 100;
        // Holes at 100 (the stuck cumulative ACK), then one every 500.
        let mut blocks = Vec::new();
        for k in 0..11u64 {
            blocks.push((high_ack + 1 + 500 * k, high_ack + 500 * (k + 1)));
        }
        let next_seq = high_ack + 500 * 11 + 40;
        assert!(sb.absorb(blocks.iter().copied(), high_ack, next_seq));
        assert!(!sb.absorb(blocks.iter().copied(), high_ack, next_seq));
        assert_eq!(sb.sacked.runs().len(), 11);
        assert_eq!(sb.sacked.len(), 11 * 499);

        sb.recovery_point = Some(next_seq);
        sb.rtx_next = high_ack;
        let holes: Vec<u64> = std::iter::from_fn(|| {
            let hole = sb.next_hole(high_ack)?;
            sb.rtx_next = hole + 1;
            Some(hole)
        })
        .take(12)
        .collect();
        let mut want: Vec<u64> = (0..11).map(|k| high_ack + 500 * k).collect();
        want.push(high_ack + 500 * 11); // first never-SACKed sequence
        assert_eq!(holes, want);

        // Outstanding 5 540, SACKed 5 489; with every hole below the
        // highest SACK already retransmitted, only the unSACKed tail and
        // the retransmissions' slots remain in the pipe.
        sb.rtx_next = high_ack + 500 * 11;
        assert_eq!(sb.pipe(next_seq, high_ack), 5_540 - 5_489);
        sb.rtx_next = high_ack;
        assert_eq!(sb.pipe(next_seq, high_ack), 5_540 - 5_489 - 11);

        // A cumulative ACK into the middle of a run trims, not rebuilds.
        sb.on_cumulative_ack(high_ack + 750);
        assert_eq!(sb.sacked.runs().len(), 10);
        assert_eq!(sb.sacked.runs()[0], (high_ack + 750, high_ack + 1_000));
    }

    /// A cumulative ACK is peer input too. One beyond what was ever sent
    /// used to move `high_ack` and `next_seq` there, report bytes that
    /// were never sent as delivered, and finish a bulk transfer.
    #[test]
    fn forged_ack_beyond_what_was_sent_is_ignored() {
        use lossburst_netsim::driver::HostDriver;
        use lossburst_netsim::packet::FlowId;

        let (a, b) = (NodeId(0), NodeId(1));
        let build: [fn() -> Sender; 2] = [
            || Sender::newreno(NodeId(0), NodeId(1), TcpConfig::default()),
            || Sender::cubic(NodeId(0), NodeId(1), TcpConfig::default()),
        ];
        for make in build {
            let mut s = make().with_limit_bytes(100_000);
            let mut drv = HostDriver::new(1, FlowId(0));
            let sent = drv.start(&mut s, SimTime::ZERO).len() as u64;
            assert!(sent > 0 && s.max_seq_sent == sent);

            let forged = Packet::ack(FlowId(0), b, a, 40, 1_000_000_000_000);
            let at = SimTime::ZERO + SimDuration::from_millis(20);
            let out = drv.deliver(&mut s, &forged, at);
            let name = s.controller().name();
            assert!(out.is_empty(), "{name}: a forged ACK releases nothing");
            assert_eq!((s.high_ack, s.next_seq), (0, sent), "{name}");
            assert_eq!(s.progress().bytes_delivered, 0, "{name}");
            assert!(!s.is_done(), "{name}: the transfer is not finished");

            // An honest ACK for everything sent is still taken.
            let honest = Packet::ack(FlowId(0), b, a, 40, sent);
            drv.deliver(&mut s, &honest, at);
            assert_eq!(s.high_ack, sent, "{name}");
        }
    }

    #[test]
    fn constructors_compose_controller_repair_and_mode() {
        let (a, b) = (NodeId(0), NodeId(1));
        let hint = SimDuration::from_millis(20);
        let paced = SendMode::Paced { rtt_hint: hint };
        for (s, name, sack, mode) in [
            (
                Sender::newreno(a, b, TcpConfig::default()),
                "newreno",
                false,
                SendMode::Burst,
            ),
            (
                Sender::pacing(a, b, TcpConfig::default(), hint),
                "newreno",
                false,
                paced,
            ),
            (
                Sender::sack(a, b, TcpConfig::default()),
                "sack",
                true,
                SendMode::Burst,
            ),
            (
                Sender::cubic(a, b, TcpConfig::default()),
                "cubic",
                true,
                SendMode::Burst,
            ),
            (
                Sender::bbr(a, b, TcpConfig::default(), hint),
                "bbr",
                true,
                paced,
            ),
            (
                Sender::fast(a, b, TcpConfig::default(), 20.0, 0.5),
                "fast",
                false,
                SendMode::Burst,
            ),
        ] {
            assert_eq!(s.controller().name(), name);
            assert_eq!(matches!(s.repair, Repair::Sack(_)), sack, "{name}");
            assert_eq!(s.mode, mode, "{name}");
        }
    }
}
