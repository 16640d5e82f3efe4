//! TFRC — TCP-Friendly Rate Control (Floyd, Handley, Padhye, Widmer;
//! RFC 5348), the rate-based protocol the paper names as the standard
//! control for unreliable transfers.
//!
//! The sender paces packets at a rate set from the TCP throughput equation;
//! the receiver measures the *loss-event rate* with the weighted average
//! loss interval (WALI) estimator and reports it once per RTT. Because the
//! sender's packets are evenly spaced, a bursty loss episode at the
//! bottleneck hits TFRC flows with high probability — the mechanism behind
//! the paper's observation that rate-based flows lose to window-based ones.

use crate::timer::{token, untoken, TimerKind};
use lossburst_netsim::event::TimerToken;
use lossburst_netsim::iface::{Ctx, FlowProgress, Transport};
use lossburst_netsim::packet::{NodeId, Packet, PacketKind};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_netsim::trace::GoodputEvent;

/// WALI weights for the last eight closed loss intervals (RFC 5348 §5.4).
const WALI_WEIGHTS: [f64; 8] = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2];
/// Maximum back-off interval: never send slower than one packet per 64 s.
const T_MBI_SECS: f64 = 64.0;

/// The RFC 5348 / Padhye TCP throughput equation, in bytes per second.
///
/// `s` — segment size in bytes, `r` — round-trip time in seconds,
/// `p` — loss-event rate. Uses `b = 1` and `t_RTO = 4R`.
pub fn tcp_throughput_eq(s: f64, r: f64, p: f64) -> f64 {
    // NaN-safe: a NaN loss rate must not reach the denominator, so the
    // guard accepts only strictly-positive finite p.
    if p.is_nan() || p <= 0.0 {
        return f64::INFINITY;
    }
    // A degenerate RTT (zero, negative, or non-finite) would zero the
    // denominator and poison the caller's rate with inf/NaN; treat it like
    // the no-loss case and let the caller's receive-rate cap bound things.
    if r.is_nan() || r <= 0.0 || !r.is_finite() {
        return f64::INFINITY;
    }
    let p = p.min(1.0);
    let t_rto = 4.0 * r;
    let root1 = (2.0 * p / 3.0).sqrt();
    let root2 = (3.0 * p / 8.0).sqrt();
    let denom = r * root1 + t_rto * 3.0 * root2 * p * (1.0 + 32.0 * p * p);
    s / denom
}

/// Receiver-side loss-event history.
#[derive(Debug, Default)]
struct LossHistory {
    /// First-lost sequence of each loss event, oldest first (bounded).
    event_starts: Vec<u64>,
    /// Time each event started.
    event_times: Vec<SimTime>,
}

impl LossHistory {
    /// Record that `seq` was observed lost at `now`; returns true if this
    /// starts a new loss event (more than one RTT after the previous one).
    fn on_loss(&mut self, seq: u64, now: SimTime, rtt: SimDuration) -> bool {
        let new_event = match self.event_times.last() {
            Some(&t) => now - t > rtt,
            None => true,
        };
        if new_event {
            self.event_starts.push(seq);
            self.event_times.push(now);
            if self.event_starts.len() > 16 {
                self.event_starts.remove(0);
                self.event_times.remove(0);
            }
        }
        new_event
    }

    /// The open interval followed by the closed loss intervals, most recent
    /// first, in packets: `buf[0]` is the open one, `buf[1..=n]` the `n ≤ 8`
    /// closed ones; `None` before the first loss event. On the stack — this
    /// runs for every feedback packet.
    fn intervals(&self, highest_seq: u64) -> Option<([f64; 9], usize)> {
        let starts = &self.event_starts;
        let mut buf = [0.0; 9];
        buf[0] = highest_seq.saturating_sub(*starts.last()?) as f64;
        let mut n = 0;
        for i in (1..starts.len()).rev().take(8) {
            n += 1;
            buf[n] = (starts[i] - starts[i - 1]) as f64;
        }
        Some((buf, n))
    }

    /// WALI loss-event rate estimate (0 if no loss yet).
    fn loss_event_rate(&self, highest_seq: u64) -> f64 {
        let Some((buf, n)) = self.intervals(highest_seq) else {
            return 0.0;
        };
        let avg = |ints: &[f64]| -> f64 {
            if ints.is_empty() {
                return 0.0;
            }
            let mut num = 0.0;
            let mut den = 0.0;
            for (w, v) in WALI_WEIGHTS.iter().zip(ints) {
                num += w * v;
                den += w;
            }
            num / den
        };
        // Average of closed intervals vs. average including the open one as
        // most recent: take the larger mean interval (smaller p).
        let mean = avg(&buf[1..=n]).max(avg(&buf[..=n])).max(1.0);
        1.0 / mean
    }
}

/// A TFRC flow (sender and receiver halves).
pub struct TfrcSender {
    src: NodeId,
    dst: NodeId,
    packet_bytes: u32,
    feedback_bytes: u32,
    initial_rtt_hint: SimDuration,

    // --- sender ---
    rate_bps: f64,
    slow_start: bool,
    srtt: Option<SimDuration>,
    send_gen: u64,
    nofb_gen: u64,
    last_send: Option<SimTime>,
    seq: u64,
    packets_sent: u64,
    loss_events_seen: u64,

    // --- receiver ---
    history: LossHistory,
    highest_seq: u64,
    received: u64,
    bytes_since_fb: u64,
    last_fb_at: SimTime,
    fb_gen: u64,
    rtt_hint_rx: SimDuration,
    last_data_sent_at: SimTime,
}

impl TfrcSender {
    /// A TFRC flow with the given packet size. `rtt_hint` seeds pacing and
    /// feedback cadence before real RTT samples exist.
    pub fn new(src: NodeId, dst: NodeId, packet_bytes: u32, rtt_hint: SimDuration) -> TfrcSender {
        let s = packet_bytes as f64;
        // Initial rate: two packets per (hinted) RTT, mirroring TCP's
        // initial window.
        let rate = 2.0 * s * 8.0 / rtt_hint.as_secs_f64().max(1e-3);
        TfrcSender {
            src,
            dst,
            packet_bytes,
            feedback_bytes: 40,
            initial_rtt_hint: rtt_hint,
            rate_bps: rate,
            slow_start: true,
            srtt: None,
            send_gen: 0,
            nofb_gen: 0,
            last_send: None,
            seq: 0,
            packets_sent: 0,
            loss_events_seen: 0,
            history: LossHistory::default(),
            highest_seq: 0,
            received: 0,
            bytes_since_fb: 0,
            last_fb_at: SimTime::ZERO,
            fb_gen: 0,
            rtt_hint_rx: rtt_hint,
            last_data_sent_at: SimTime::ZERO,
        }
    }

    /// Current sending rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Receiver-side loss-event rate estimate.
    pub fn loss_event_rate(&self) -> f64 {
        self.history.loss_event_rate(self.highest_seq)
    }

    /// Loss events the sender has been told about.
    pub fn loss_events(&self) -> u64 {
        self.loss_events_seen
    }

    fn min_rate(&self) -> f64 {
        self.packet_bytes as f64 * 8.0 / T_MBI_SECS
    }

    fn send_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(
            self.packet_bytes as f64 * 8.0 / self.rate_bps.max(self.min_rate()),
        )
    }

    fn rtt(&self) -> SimDuration {
        self.srtt.unwrap_or(self.initial_rtt_hint)
    }

    fn send_data(&mut self, ctx: &mut Ctx) {
        let mut pkt = Packet::data(ctx.flow, self.src, self.dst, self.packet_bytes, self.seq);
        pkt.rtt_hint = self.rtt();
        ctx.send_from(self.src, pkt);
        self.seq += 1;
        self.packets_sent += 1;
        self.last_send = Some(ctx.now);
        self.reschedule_send(ctx);
    }

    /// (Re-)arm the send tick so the next packet leaves one interval after
    /// the previous one at the *current* rate. Called after every rate
    /// change: without this, a transient rate collapse (interval up to 64 s)
    /// would freeze the sender even after the rate recovers.
    fn reschedule_send(&mut self, ctx: &mut Ctx) {
        self.send_gen += 1;
        let next = match self.last_send {
            Some(t) => t + self.send_interval(),
            None => ctx.now,
        };
        let delay = if next > ctx.now {
            next - ctx.now
        } else {
            SimDuration::ZERO
        };
        ctx.set_timer(delay, token(TimerKind::Send, self.send_gen));
    }

    fn arm_no_feedback(&mut self, ctx: &mut Ctx) {
        self.nofb_gen += 1;
        let d = self
            .rtt()
            .saturating_mul(4)
            .max(SimDuration::from_millis(200));
        ctx.set_timer(d, token(TimerKind::NoFeedback, self.nofb_gen));
    }

    fn on_feedback(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        if pkt.echo != SimTime::ZERO {
            let sample = ctx.now - pkt.echo;
            self.srtt = Some(match self.srtt {
                None => sample,
                Some(s) => s.mul_f64(0.875) + sample.mul_f64(0.125),
            });
        }
        let p = pkt.fb_loss_rate;
        let x_recv = pkt.fb_recv_rate; // bytes/sec
        let s = self.packet_bytes as f64;
        let r = self.rtt().as_secs_f64().max(1e-6);

        if p <= 0.0 && self.slow_start {
            // Double per feedback (≈ per RTT), bounded by twice the rate
            // the receiver actually saw.
            let cap = (2.0 * x_recv * 8.0).max(2.0 * s * 8.0 / r);
            self.rate_bps = (2.0 * self.rate_bps).min(cap);
        } else {
            if self.slow_start && p > 0.0 {
                self.slow_start = false;
            }
            if p > 0.0 {
                self.loss_events_seen += 1;
                let x_calc = tcp_throughput_eq(s, r, p) * 8.0; // bits/sec
                let cap = 2.0 * x_recv * 8.0;
                self.rate_bps = x_calc.min(cap.max(self.min_rate()));
            }
        }
        self.rate_bps = self.rate_bps.max(self.min_rate());
        self.reschedule_send(ctx);
        self.arm_no_feedback(ctx);
    }

    // --- receiver side ---

    fn on_data(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        self.received += 1;
        self.bytes_since_fb += pkt.size_bytes as u64;
        self.rtt_hint_rx = if pkt.rtt_hint > SimDuration::ZERO {
            pkt.rtt_hint
        } else {
            self.rtt_hint_rx
        };
        self.last_data_sent_at = pkt.sent_at;
        let mut new_event = false;
        if pkt.seq >= self.highest_seq {
            // Any skipped sequences are losses. They are all seen at `now`,
            // so only the first can open a loss event: one call stands for
            // the whole gap, however wide a peer makes it.
            if pkt.seq > self.highest_seq {
                new_event = self
                    .history
                    .on_loss(self.highest_seq, ctx.now, self.rtt_hint_rx);
            }
            self.highest_seq = pkt.seq.saturating_add(1);
        }
        ctx.trace.goodput(GoodputEvent {
            time: ctx.now,
            flow: ctx.flow,
            bytes: pkt.size_bytes as u64,
        });
        if self.received == 1 {
            // First packet: start the feedback clock.
            self.schedule_feedback(ctx);
            self.send_feedback(ctx);
        } else if new_event {
            // RFC 5348: report a fresh loss event immediately.
            self.send_feedback(ctx);
            self.schedule_feedback(ctx);
        }
    }

    fn schedule_feedback(&mut self, ctx: &mut Ctx) {
        self.fb_gen += 1;
        ctx.set_timer(self.rtt_hint_rx, token(TimerKind::Feedback, self.fb_gen));
    }

    fn send_feedback(&mut self, ctx: &mut Ctx) {
        let elapsed = (ctx.now - self.last_fb_at).as_secs_f64();
        let x_recv = if self.last_fb_at == SimTime::ZERO || elapsed <= 0.0 {
            self.bytes_since_fb as f64 / self.rtt_hint_rx.as_secs_f64().max(1e-6)
        } else {
            self.bytes_since_fb as f64 / elapsed
        };
        let mut fb = Packet::ack(ctx.flow, self.dst, self.src, self.feedback_bytes, 0);
        fb.kind = PacketKind::Feedback;
        fb.fb_loss_rate = self.history.loss_event_rate(self.highest_seq);
        fb.fb_recv_rate = x_recv;
        fb.echo = self.last_data_sent_at;
        ctx.send_from(self.dst, fb);
        self.last_fb_at = ctx.now;
        self.bytes_since_fb = 0;
    }
}

impl Transport for TfrcSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_data(ctx);
        self.arm_no_feedback(ctx);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
        match pkt.kind {
            PacketKind::Data => self.on_data(pkt, ctx),
            PacketKind::Feedback => self.on_feedback(pkt, ctx),
            PacketKind::Ack => {}
        }
    }

    fn on_timer(&mut self, t: TimerToken, ctx: &mut Ctx) {
        match untoken(t) {
            (Some(TimerKind::Send), generation) if generation == self.send_gen => {
                self.send_data(ctx);
            }
            (Some(TimerKind::Feedback), generation) if generation == self.fb_gen => {
                if self.received > 0 {
                    self.send_feedback(ctx);
                }
                self.schedule_feedback(ctx);
            }
            (Some(TimerKind::NoFeedback), generation) if generation == self.nofb_gen => {
                // No feedback for 4 RTT: halve the rate.
                self.rate_bps = (self.rate_bps / 2.0).max(self.min_rate());
                self.reschedule_send(ctx);
                self.arm_no_feedback(ctx);
            }
            _ => {}
        }
    }

    fn progress(&self) -> FlowProgress {
        FlowProgress {
            bytes_delivered: self.received * self.packet_bytes as u64,
            packets_sent: self.packets_sent,
            retransmits: 0,
            loss_events: self.loss_events_seen,
            timeouts: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_netsim::builder::SimBuilder;
    use lossburst_netsim::queue::QueueDisc;
    use lossburst_netsim::sim::Simulator;
    use lossburst_netsim::trace::TraceConfig;

    #[test]
    fn throughput_equation_sane_points() {
        // p -> 0 gives unbounded rate; p = 1 gives a tiny rate.
        assert!(tcp_throughput_eq(1000.0, 0.1, 0.0).is_infinite());
        let near_zero = tcp_throughput_eq(1000.0, 0.1, 1.0);
        assert!(near_zero < 2000.0);
        // Monotone decreasing in p.
        let r1 = tcp_throughput_eq(1000.0, 0.1, 0.001);
        let r2 = tcp_throughput_eq(1000.0, 0.1, 0.01);
        let r3 = tcp_throughput_eq(1000.0, 0.1, 0.1);
        assert!(r1 > r2 && r2 > r3);
        // Sanity vs the simplified 1.22*s/(R*sqrt(p)) rule at small p.
        let simplified = 1.22 * 1000.0 / (0.1 * (0.001f64).sqrt());
        assert!((r1 - simplified).abs() / simplified < 0.25);
    }

    #[test]
    fn throughput_equation_guards_degenerate_inputs() {
        // A NaN loss rate must not leak NaN into the caller's rate math.
        assert!(tcp_throughput_eq(1000.0, 0.1, f64::NAN).is_infinite());
        // Negative p behaves like no loss.
        assert!(tcp_throughput_eq(1000.0, 0.1, -0.5).is_infinite());
        // Degenerate RTTs (zero denominator territory) return the same
        // "unbounded" sentinel instead of inf-by-division or NaN.
        assert!(tcp_throughput_eq(1000.0, 0.0, 0.01).is_infinite());
        assert!(tcp_throughput_eq(1000.0, -1.0, 0.01).is_infinite());
        assert!(tcp_throughput_eq(1000.0, f64::NAN, 0.01).is_infinite());
        assert!(tcp_throughput_eq(1000.0, f64::INFINITY, 0.01).is_infinite());
        // p above 1 is clamped, never amplified.
        let p_one = tcp_throughput_eq(1000.0, 0.1, 1.0);
        let p_ten = tcp_throughput_eq(1000.0, 0.1, 10.0);
        assert_eq!(p_one, p_ten);
        assert!(p_one.is_finite() && p_one > 0.0);
    }

    #[test]
    fn wali_counts_loss_events_not_packets() {
        let mut h = LossHistory::default();
        let rtt = SimDuration::from_millis(100);
        let t0 = SimTime::ZERO;
        // Three packets lost within one RTT: one loss event.
        assert!(h.on_loss(100, t0, rtt));
        assert!(!h.on_loss(101, t0 + SimDuration::from_millis(1), rtt));
        assert!(!h.on_loss(102, t0 + SimDuration::from_millis(2), rtt));
        assert_eq!(h.event_starts.len(), 1);
        // A loss two RTTs later starts a second event.
        assert!(h.on_loss(200, t0 + SimDuration::from_millis(250), rtt));
        assert_eq!(h.event_starts.len(), 2);
        // p ≈ 1/interval = 1/100.
        let p = h.loss_event_rate(300);
        assert!((p - 0.01).abs() < 0.005, "p = {p}");
    }

    #[test]
    fn no_loss_means_zero_rate() {
        let h = LossHistory::default();
        assert_eq!(h.loss_event_rate(1000), 0.0);
    }

    /// The WALI estimate as it was computed with two heap `Vec`s per call;
    /// the stack-array version must reproduce it to the bit.
    fn loss_event_rate_with_vecs(starts: &[u64], highest_seq: u64) -> f64 {
        let n = starts.len();
        if n == 0 {
            return 0.0;
        }
        let closed: Vec<f64> = (1..n)
            .rev()
            .take(8)
            .map(|i| (starts[i] - starts[i - 1]) as f64)
            .collect();
        let open = highest_seq.saturating_sub(starts[n - 1]) as f64;
        let avg = |ints: &[f64]| -> f64 {
            if ints.is_empty() {
                return 0.0;
            }
            let mut num = 0.0;
            let mut den = 0.0;
            for (i, v) in ints.iter().enumerate().take(8) {
                num += WALI_WEIGHTS[i] * v;
                den += WALI_WEIGHTS[i];
            }
            num / den
        };
        let mut with_open = vec![open];
        with_open.extend_from_slice(&closed);
        1.0 / avg(&closed).max(avg(&with_open)).max(1.0)
    }

    #[test]
    fn stack_wali_is_bit_equal_to_the_vec_formula() {
        use lossburst_testkit::sweep::{sweep, RngExt};
        let rtt = SimDuration::from_millis(10);
        sweep(0x7F2C, 200, |case, gen| {
            // 0 and 1 events have no closed interval, 8 has seven, 16 fills
            // the history (eight weighted, the rest ignored).
            let events = [0usize, 1, 8, 16][case as usize % 4];
            let mut h = LossHistory::default();
            let mut seq = gen.random_range(0..1_000u64);
            for k in 0..events {
                let at = SimTime::ZERO + SimDuration::from_millis(100 * (k as u64 + 1));
                assert!(h.on_loss(seq, at, rtt));
                seq += gen.random_range(1..5_000u64);
            }
            // Below the last event (the open interval saturates to 0),
            // shortly past it, and far past it.
            for highest in [0, seq, seq + gen.random_range(0..100_000u64)] {
                assert_eq!(
                    h.loss_event_rate(highest).to_bits(),
                    loss_event_rate_with_vecs(&h.event_starts, highest).to_bits(),
                    "case {case}: {events} events, highest_seq {highest}"
                );
            }
        });
    }

    fn duplex_net(rate_bps: f64, buffer: usize) -> (Simulator, NodeId, NodeId) {
        let mut bld = SimBuilder::new(21).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        bld.duplex(
            a,
            b,
            rate_bps,
            SimDuration::from_millis(10),
            QueueDisc::drop_tail(buffer),
        );
        let sim = bld.build();
        (sim, a, b)
    }

    #[test]
    fn no_feedback_timer_halves_the_rate() {
        // Sender only: the receiver host exists but the forward link drops
        // everything, so no feedback ever returns and the no-feedback
        // timer must halve the rate repeatedly.
        let mut bld = SimBuilder::new(31);
        let a = bld.host();
        let b = bld.host();
        // Zero-capacity-ish forward path: 1 packet buffer at a crawl.
        bld.link(
            a,
            b,
            1000.0,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(1),
        );
        bld.link(
            b,
            a,
            1e6,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(100),
        );
        let mut sim = bld.build();
        let f = sim.add_flow(
            lossburst_netsim::time::SimTime::ZERO,
            Box::new(TfrcSender::new(a, b, 1000, SimDuration::from_millis(20))),
        );
        let initial = {
            let t = sim.flow(f);
            t.rate_bps()
        };
        // Assert before the first packet crawls through the 1000 bps link
        // (8 s serialization) and produces real feedback.
        sim.run_until(lossburst_netsim::time::SimTime::ZERO + SimDuration::from_secs(5));
        let t = sim.flow(f);
        assert!(
            t.rate_bps() < initial / 4.0,
            "rate {:.0} bps did not halve repeatedly from {initial:.0}",
            t.rate_bps()
        );
    }

    #[test]
    fn wali_closed_intervals_are_most_recent_first() {
        // Events at seqs 0, 100, 150 -> closed intervals [50, 100] with the
        // most recent (50) first, so the WALI weights favour it.
        let mut h = LossHistory::default();
        let rtt = SimDuration::from_millis(10);
        h.on_loss(0, SimTime::ZERO + SimDuration::from_millis(100), rtt);
        h.on_loss(100, SimTime::ZERO + SimDuration::from_millis(300), rtt);
        h.on_loss(150, SimTime::ZERO + SimDuration::from_millis(500), rtt);
        let (buf, n) = h.intervals(160).unwrap();
        assert_eq!(buf[0], 10.0, "open interval leads");
        assert_eq!(buf[1..=n], [50.0, 100.0]);
    }

    #[test]
    fn wali_open_interval_only_lowers_p() {
        // A long loss-free stretch (large open interval) must reduce the
        // reported loss-event rate, never raise it (RFC 5348 history
        // discounting).
        let mut h = LossHistory::default();
        let rtt = SimDuration::from_millis(10);
        for (i, seq) in [0u64, 100, 200, 300].into_iter().enumerate() {
            h.on_loss(
                seq,
                SimTime::ZERO + SimDuration::from_millis(100 * (i as u64 + 1)),
                rtt,
            );
        }
        let p_now = h.loss_event_rate(310);
        let p_after_quiet = h.loss_event_rate(5_000);
        assert!(p_after_quiet < p_now, "{p_after_quiet} !< {p_now}");
        // And p never goes negative or above 1.
        assert!(p_after_quiet > 0.0 && p_now <= 1.0);
    }

    #[test]
    fn tfrc_ramps_up_without_loss() {
        let (mut sim, a, b) = duplex_net(10e6, 1000);
        let flow = sim.add_flow(
            lossburst_netsim::time::SimTime::ZERO,
            Box::new(TfrcSender::new(a, b, 1000, SimDuration::from_millis(20))),
        );
        // Stop before slow start overshoots the 1000-packet buffer.
        sim.run_until(lossburst_netsim::time::SimTime::ZERO + SimDuration::from_secs(1));
        let tfrc = sim.flow(flow);
        assert_eq!(
            tfrc.loss_events(),
            0,
            "no loss expected in the first second"
        );
        assert!(
            tfrc.rate_bps() > 5e6,
            "slow start only reached {:.0} bps",
            tfrc.rate_bps()
        );
        assert!(tfrc.progress().bytes_delivered > 100_000);
    }

    #[test]
    fn tfrc_backs_off_under_loss() {
        // Bottleneck far below the slow-start trajectory: must converge to
        // a modest rate, not blast at the cap.
        let (mut sim, a, b) = duplex_net(2e6, 25);
        let flow = sim.add_flow(
            lossburst_netsim::time::SimTime::ZERO,
            Box::new(TfrcSender::new(a, b, 1000, SimDuration::from_millis(20))),
        );
        sim.run_until(lossburst_netsim::time::SimTime::ZERO + SimDuration::from_secs(30));
        let tfrc = sim.flow(flow);
        assert!(tfrc.loss_events() > 0, "must have seen loss reports");
        assert!(
            tfrc.rate_bps() < 6e6,
            "rate {:.0} bps did not back off",
            tfrc.rate_bps()
        );
        // Still productive: delivered a meaningful share of 2 Mbps * 30 s
        // (slow convergence after the slow-start overshoot is expected).
        let delivered = tfrc.progress().bytes_delivered;
        assert!(
            delivered > 1_000_000,
            "only {delivered} bytes in 30 s over a 2 Mbps link"
        );
    }

    /// A sequence number is peer input. A gap of 2⁴⁰ used to run the
    /// loss-history loop once per missing sequence, and `u64::MAX` then
    /// overflowed `seq + 1`; a wide gap now costs one call and one event.
    #[test]
    fn a_huge_sequence_gap_is_one_loss_event() {
        use lossburst_netsim::driver::HostDriver;
        use lossburst_netsim::packet::FlowId;

        let (a, b) = (NodeId(0), NodeId(1));
        let mut t = TfrcSender::new(a, b, 1000, SimDuration::from_millis(20));
        let mut drv = HostDriver::new(1, FlowId(0));
        let at = SimTime::ZERO + SimDuration::from_millis(5);
        for seq in [0, 1 << 40, u64::MAX] {
            drv.deliver(&mut t, &Packet::data(FlowId(0), a, b, 1040, seq), at);
        }
        assert_eq!(t.history.event_starts, [1]);
        assert_eq!(t.highest_seq, u64::MAX);
    }
}
