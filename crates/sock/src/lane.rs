//! The socket lane: one I/O-free state machine, and the loop that gives
//! it sockets and a clock.
//!
//! [`Lane`] owns one congestion-controlled flow (both endpoints, driven
//! through netsim's [`HostDriver`]) and the `ImpairedPath` between them.
//! It never reads a clock or touches a socket: its caller passes `now` to
//! every call, hands it the datagrams that arrived
//! ([`Lane::on_datagram`]), tells it when a deadline it asked for has
//! come ([`Lane::poll_timeout`], [`Lane::on_timeout`]) and puts on the
//! wire the frames it releases ([`Lane::poll_transmit`]). What the path
//! has delayed waits inside the lane until its instant comes, so every
//! surviving packet still crosses the wire as a datagram.
//!
//! [`run`] is that caller for real: one thread, two loopback UDP sockets
//! connected to each other, a `MonoClock` — the only function in this
//! crate that touches a socket, reads the time or sleeps. Tests drive the
//! same `Lane` on a stepped clock and hand each released frame straight
//! back to it (`lossburst_testkit::cross_lane::run_stepped_lane`), which is
//! deterministic and equals the simulator drop for drop.
//!
//! The transport never inspects the plan — losses happen to it, just as
//! they happen to a sender in the simulator — which is what makes the
//! resulting loss process comparable across lanes.

use crate::clock::MonoClock;
use crate::path::{ImpairedPath, Side, Verdict};
use crate::plan::LossPlan;
use crate::wire::{decode_packet, encode_packet, WIRE_HEADER_BYTES};
use lossburst_netsim::driver::HostDriver;
use lossburst_netsim::iface::{FlowProgress, Transport};
use lossburst_netsim::packet::{FlowId, NodeId, Packet};
use lossburst_netsim::time::{SimDuration, SimTime};
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::config::TcpConfig;
use std::collections::VecDeque;
use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Configuration for one socket-lane run.
#[derive(Clone, Debug)]
pub struct SockLaneConfig {
    /// Congestion controller under test.
    pub(crate) controller: CcAlgorithm,
    /// Seed for the transport's RNG stream (timer fuzz, etc.).
    pub(crate) seed: u64,
    /// Drop schedule the path applies to forward data arrivals.
    pub plan: LossPlan,
    /// Bottleneck rate the path serializes at, bits/second.
    pub rate_bps: f64,
    /// Two-way propagation delay of the emulated path.
    pub rtt: SimDuration,
    /// TCP-level configuration (segment size, windows, timers).
    pub tcp: TcpConfig,
    /// Run length (wall-clock under [`run`]).
    pub duration: SimDuration,
}

impl SockLaneConfig {
    /// A lane for `controller` over a `rate_bps` / `rtt` path replaying
    /// `plan`, with defaults suitable for the conformance scenarios.
    pub fn new(controller: CcAlgorithm, seed: u64, plan: LossPlan) -> SockLaneConfig {
        SockLaneConfig {
            controller,
            seed,
            plan,
            rate_bps: 40e6,
            rtt: SimDuration::from_millis(10),
            tcp: TcpConfig::default(),
            duration: SimDuration::from_secs(4),
        }
    }
}

/// What a socket-lane run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct SockLaneResult {
    /// Lane-timeline instants (seconds) of each plan-scheduled drop,
    /// stamped by the path at decision time.
    pub loss_times: Vec<f64>,
    /// Forward data packets the path was offered.
    pub forward_arrivals: u64,
    /// Of those, how many were dropped.
    pub forward_drops: u64,
    /// Reverse (ack/feedback) packets the path carried.
    pub(crate) reverse_relayed: u64,
    /// The path's byte-per-verdict drop ledger.
    pub ledger: Vec<u8>,
    /// Transport-reported progress at the end of the run.
    pub progress: FlowProgress,
    /// Datagrams the lane released onto the wire (both directions).
    pub(crate) datagrams_sent: u64,
    /// Seconds the lane ran.
    pub(crate) elapsed_secs: f64,
}

/// The lane's flow and its two endpoints.
const FLOW: FlowId = FlowId(0);
const SENDER: NodeId = NodeId(0);
const RECEIVER: NodeId = NodeId(1);

/// One flow, the impaired path under it, and the packets in flight on that
/// path; see the [module docs](self).
pub struct Lane {
    transport: Box<dyn Transport>,
    driver: HostDriver,
    path: ImpairedPath,
    /// Per [`Side`], what the path has delayed, with its release instant.
    /// FIFO serialization and a fixed delay keep each direction in
    /// release order.
    held: [VecDeque<(SimTime, Packet)>; 2],
    datagrams_sent: u64,
}

impl Lane {
    /// A lane for `cfg`, not yet started. A `rate_bps` that cannot
    /// serialize a packet (zero, negative, not finite) is
    /// [`io::ErrorKind::InvalidInput`].
    pub fn new(cfg: &SockLaneConfig) -> io::Result<Lane> {
        if !(cfg.rate_bps.is_finite() && cfg.rate_bps > 0.0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("rate_bps must be finite and positive, got {}", cfg.rate_bps),
            ));
        }
        let spec = FlowSpec {
            tcp: cfg.tcp.clone(),
            rtt_hint: cfg.rtt,
            limit_bytes: None,
        };
        Ok(Lane {
            transport: cfg.controller.build_flow(SENDER, RECEIVER, &spec),
            driver: HostDriver::new(cfg.seed, FLOW),
            path: ImpairedPath::new(cfg.plan.clone(), cfg.rate_bps, cfg.rtt / 2),
            held: [VecDeque::new(), VecDeque::new()],
            datagrams_sent: 0,
        })
    }

    /// Offer what the transport just emitted to the path; hold survivors.
    fn emit(&mut self, now: SimTime, out: Vec<(NodeId, Packet)>) {
        for (_, pkt) in out {
            if let Verdict::DeliverAt(release) = self.path.offer(now, &pkt) {
                self.held[Side::of(&pkt) as usize].push_back((release, pkt));
            }
        }
    }

    /// Start the flow.
    pub fn start(&mut self, now: SimTime) {
        let out = self.driver.start(self.transport.as_mut(), now);
        self.emit(now, out);
    }

    /// Fire every transport timer due at or before `now`.
    pub fn on_timeout(&mut self, now: SimTime) {
        let out = self.driver.fire_timers_until(self.transport.as_mut(), now);
        self.emit(now, out);
    }

    /// A datagram arrived at one of the endpoints. Anything that is not a
    /// well-formed frame of this lane's flow, travelling between its two
    /// endpoints, is ignored.
    pub fn on_datagram(&mut self, now: SimTime, bytes: &[u8]) {
        let Some(pkt) = decode_packet(bytes) else {
            return;
        };
        let ends = match Side::of(&pkt) {
            Side::Sender => (SENDER, RECEIVER),
            Side::Receiver => (RECEIVER, SENDER),
        };
        if pkt.flow != FLOW || (pkt.src, pkt.dst) != ends {
            return;
        }
        let out = self.driver.deliver(self.transport.as_mut(), &pkt, now);
        self.emit(now, out);
    }

    /// The earliest head-of-line release among the held queues, and its
    /// side (the sender's on a tie).
    fn next_release(&self) -> Option<(SimTime, Side)> {
        [Side::Sender, Side::Receiver]
            .into_iter()
            .filter_map(|side| self.held[side as usize].front().map(|&(t, _)| (t, side)))
            .min_by_key(|&(t, _)| t)
    }

    /// The next frame whose release instant has come, and the side whose
    /// socket sends it.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<(Side, [u8; WIRE_HEADER_BYTES])> {
        let (_, side) = self.next_release().filter(|&(t, _)| t <= now)?;
        let (_, pkt) = self.held[side as usize].pop_front()?;
        let mut frame = [0u8; WIRE_HEADER_BYTES];
        encode_packet(&pkt, &mut frame);
        self.datagrams_sent += 1;
        Some((side, frame))
    }

    /// When the lane next needs [`Lane::on_timeout`] or
    /// [`Lane::poll_transmit`]: the earlier of the transport's next timer
    /// and the earliest held release.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        let release = self.next_release().map(|(t, _)| t);
        self.driver.next_timer_at().into_iter().chain(release).min()
    }

    /// End the run after `elapsed` on the caller's clock.
    pub fn finish(self, elapsed: SimDuration) -> SockLaneResult {
        SockLaneResult {
            loss_times: self.path.loss_times,
            forward_arrivals: self.path.forward_arrivals,
            forward_drops: self.path.forward_drops,
            reverse_relayed: self.path.reverse_relayed,
            ledger: self.path.ledger,
            progress: self.transport.progress(),
            datagrams_sent: self.datagrams_sent,
            elapsed_secs: elapsed.as_secs_f64(),
        }
    }
}

/// Whether this environment lets us bind and exchange loopback UDP
/// datagrams. Sandboxed CI runners sometimes forbid socket use; callers
/// should skip (with notice) rather than fail when this returns false.
pub fn socket_lane_available() -> bool {
    let Ok(a) = UdpSocket::bind("127.0.0.1:0") else {
        return false;
    };
    let Ok(b) = UdpSocket::bind("127.0.0.1:0") else {
        return false;
    };
    let Ok(addr) = b.local_addr() else {
        return false;
    };
    if a.send_to(&[0xA5], addr).is_err() {
        return false;
    }
    if b.set_read_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        return false;
    }
    let mut buf = [0u8; 8];
    matches!(b.recv_from(&mut buf), Ok((1, _))) && buf[0] == 0xA5
}

/// Longest park while a datagram this loop sent may still be in the kernel.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// Run the lane over loopback UDP to completion. Blocks the calling
/// thread for `cfg.duration` of wall-clock time.
pub fn run(cfg: &SockLaneConfig) -> io::Result<SockLaneResult> {
    let mut lane = Lane::new(cfg)?;
    // Connected to each other: the kernel discards any other source.
    let sender = UdpSocket::bind("127.0.0.1:0")?;
    let receiver = UdpSocket::bind("127.0.0.1:0")?;
    sender.connect(receiver.local_addr()?)?;
    receiver.connect(sender.local_addr()?)?;
    sender.set_nonblocking(true)?;
    receiver.set_nonblocking(true)?;

    let clock = MonoClock::start();
    let started = clock.now();
    let deadline = started + cfg.duration;
    lane.start(started);

    // Sent minus received. This loop is the only sender, so a socket can
    // become readable only while this is positive; a datagram the kernel
    // drops leaves it positive, which costs polling, never a hang.
    let mut in_kernel = 0u64;
    let mut rx = [0u8; 2048];
    loop {
        let now = clock.now();
        if now >= deadline {
            break;
        }
        lane.on_timeout(now);
        while let Some((side, frame)) = lane.poll_transmit(now) {
            let from = match side {
                Side::Sender => &sender,
                Side::Receiver => &receiver,
            };
            match from.send(&frame) {
                Ok(_) => in_kernel += 1,
                // A full socket buffer drops the datagram — exactly what a
                // congested real path does; the transport will recover.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }

        let mut received = false;
        for endpoint in [&sender, &receiver] {
            while let Ok(n) = endpoint.recv(&mut rx) {
                received = true;
                in_kernel = in_kernel.saturating_sub(1);
                lane.on_datagram(clock.now(), &rx[..n]);
            }
        }
        if received {
            continue; // more may be queued; poll again before sleeping
        }

        let wake = lane.poll_timeout().map_or(deadline, |t| t.min(deadline));
        let mut park = Duration::from_nanos(wake.since(now).as_nanos());
        if in_kernel > 0 {
            park = park.min(IDLE_PARK);
        }
        std::thread::sleep(park);
    }
    Ok(lane.finish(clock.now().since(started)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_analysis::gilbert::GilbertParams;

    fn quick_cfg(controller: CcAlgorithm, seed: u64) -> SockLaneConfig {
        let plan = LossPlan::gilbert(seed, GilbertParams { p: 0.015, r: 0.4 }, 100_000);
        let mut cfg = SockLaneConfig::new(controller, seed, plan);
        cfg.duration = SimDuration::from_millis(600);
        cfg
    }

    #[test]
    fn newreno_moves_data_over_loopback() {
        if !socket_lane_available() {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        }
        let res = run(&quick_cfg(CcAlgorithm::NewReno, 1)).expect("lane runs");
        assert!(
            res.progress.bytes_delivered > 50_000,
            "expected steady progress, got {} bytes",
            res.progress.bytes_delivered
        );
        assert!(res.forward_arrivals > 50);
        assert_eq!(res.forward_drops as usize, res.loss_times.len());
        assert_eq!(res.ledger.len() as u64, res.forward_arrivals);
        // The ledger is exactly the plan prefix for the observed arrivals.
        let plan_prefix = quick_cfg(CcAlgorithm::NewReno, 1)
            .plan
            .ledger_prefix(res.forward_arrivals as usize);
        assert_eq!(res.ledger, plan_prefix);
    }

    #[test]
    fn loss_events_track_plan_drops() {
        if !socket_lane_available() {
            eprintln!("skipping: loopback UDP unavailable in this environment");
            return;
        }
        let res = run(&quick_cfg(CcAlgorithm::NewReno, 2006)).expect("lane runs");
        assert!(
            res.forward_drops > 0,
            "plan with 3.6% stationary loss should drop something"
        );
        assert!(
            res.progress.loss_events > 0,
            "the controller should have noticed losses"
        );
    }

    /// The lane after its first flight reached the receiver and the ACKs
    /// are on their way back: both held queues and the timer set are live.
    fn lane_in_flight() -> (Lane, SimTime) {
        let mut lane = Lane::new(&quick_cfg(CcAlgorithm::NewReno, 1)).expect("valid config");
        let mut now = SimTime::ZERO;
        lane.start(now);
        for _ in 0..4 {
            now = lane.poll_timeout().expect("a started lane has work");
            lane.on_timeout(now);
            while let Some((_, frame)) = lane.poll_transmit(now) {
                lane.on_datagram(now, &frame);
            }
        }
        (lane, now)
    }

    #[test]
    fn forged_and_truncated_datagrams_are_ignored() {
        let (mut lane, now) = lane_in_flight();
        let before = (
            lane.poll_timeout(),
            lane.path.clone(),
            lane.transport.progress(),
        );
        assert!(before.0.is_some() && lane.path.reverse_relayed > 0);

        let frame_of = |pkt: &Packet| {
            let mut frame = [0u8; WIRE_HEADER_BYTES];
            encode_packet(pkt, &mut frame);
            frame
        };
        // Well-formed, but not this lane's flow, endpoints or direction.
        let forged = [
            Packet::data(FlowId(7), SENDER, RECEIVER, u32::MAX, 0),
            Packet::data(FLOW, NodeId(9), RECEIVER, u32::MAX, 0),
            Packet::data(FLOW, RECEIVER, SENDER, 1000, 0),
            Packet::ack(FLOW, SENDER, RECEIVER, 40, u64::MAX),
            Packet::ack(FLOW, RECEIVER, NodeId(9), 40, u64::MAX),
        ];
        for pkt in &forged {
            lane.on_datagram(now, &frame_of(pkt));
        }
        // Not frames at all.
        let good = frame_of(&Packet::ack(FLOW, RECEIVER, SENDER, 40, 1));
        lane.on_datagram(now, &good[..WIRE_HEADER_BYTES - 1]);
        lane.on_datagram(now, &[]);
        lane.on_datagram(now, &[0xA5; 2048]);

        let after = (
            lane.poll_timeout(),
            lane.path.clone(),
            lane.transport.progress(),
        );
        assert_eq!(after, before);
        assert!(lane.poll_transmit(now).is_none());
    }

    #[test]
    fn a_rate_that_cannot_serialize_is_invalid_input() {
        for rate_bps in [0.0, -40e6, f64::INFINITY, f64::NAN] {
            let mut cfg = quick_cfg(CcAlgorithm::NewReno, 1);
            cfg.rate_bps = rate_bps;
            let err = run(&cfg).expect_err("no run at an impossible rate");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{rate_bps}");
        }
    }
}
