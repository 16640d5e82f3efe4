//! The socket-lane harness.
//!
//! [`run`] drives one congestion-controlled flow over real UDP loopback
//! sockets: a harness loop on the calling thread owns the transport state
//! machine (via netsim's [`HostDriver`]) and the two endpoint sockets,
//! while the [`shim`](mod@crate::shim) thread impairs the path between them
//! according to a deterministic [`LossPlan`]. All timer-driven machinery
//! (RTO, pacing, BBR's update clock) runs against the shared
//! [`MonoClock`], so the transport experiences real elapsed time.
//!
//! The harness never inspects the plan itself — losses happen to it, just
//! as they happen to a sender in the simulator — which is what makes the
//! resulting loss process comparable across lanes.

use crate::clock::MonoClock;
use crate::plan::LossPlan;
use crate::shim::{self, ShimConfig, ShimReport};
use crate::wire::{decode_packet, encode_packet, WIRE_HEADER_BYTES};
use lossburst_netsim::driver::HostDriver;
use lossburst_netsim::iface::FlowProgress;
use lossburst_netsim::packet::{FlowId, NodeId, Packet};
use lossburst_netsim::time::SimDuration;
use lossburst_transport::cc::{CcAlgorithm, FlowSpec};
use lossburst_transport::config::TcpConfig;
use std::net::UdpSocket;
use std::time::Duration;

/// Configuration for one socket-lane run.
#[derive(Clone, Debug)]
pub struct SockLaneConfig {
    /// Congestion controller under test.
    pub controller: CcAlgorithm,
    /// Seed for the transport's RNG stream (timer fuzz, etc.).
    pub seed: u64,
    /// Drop schedule applied to forward data arrivals at the shim.
    pub plan: LossPlan,
    /// Bottleneck rate the shim serializes at, bits/second.
    pub rate_bps: f64,
    /// Two-way propagation delay of the emulated path.
    pub rtt: SimDuration,
    /// TCP-level configuration (segment size, windows, timers).
    pub tcp: TcpConfig,
    /// Wall-clock run length.
    pub duration: SimDuration,
    /// Optional extra path jitter (seeded from `seed`).
    pub jitter: SimDuration,
    /// Shim ledger cap; see [`ShimConfig::ledger_horizon`].
    pub ledger_horizon: usize,
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
            jitter: SimDuration::ZERO,
            ledger_horizon: usize::MAX,
        }
    }
}

/// What a socket-lane run produced.
#[derive(Clone, Debug)]
pub struct SockLaneResult {
    /// Lane-timeline instants (seconds) of each plan-scheduled drop,
    /// stamped by the shim at decision time.
    pub loss_times: Vec<f64>,
    /// Forward data datagrams the shim observed.
    pub forward_arrivals: u64,
    /// Of those, how many were dropped.
    pub forward_drops: u64,
    /// The shim's byte-per-verdict drop ledger.
    pub ledger: Vec<u8>,
    /// Transport-reported progress at the end of the run.
    pub progress: FlowProgress,
    /// Datagrams the harness sent into the path (both directions).
    pub datagrams_sent: u64,
    /// Wall-clock seconds the lane actually ran.
    pub elapsed_secs: f64,
    /// The raw shim report, for diagnostics.
    pub shim: ShimReport,
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

/// How long the harness parks when there is nothing to do right now.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// Run the lane to completion. Blocks the calling thread for roughly
/// `cfg.duration` wall-clock time.
pub fn run(cfg: &SockLaneConfig) -> std::io::Result<SockLaneResult> {
    let sock_a = UdpSocket::bind("127.0.0.1:0")?; // sender-side endpoint
    let sock_b = UdpSocket::bind("127.0.0.1:0")?; // receiver-side endpoint
    let shim_sock = UdpSocket::bind("127.0.0.1:0")?;
    let shim_addr = shim_sock.local_addr()?;
    sock_a.set_nonblocking(true)?;
    sock_b.set_nonblocking(true)?;

    let clock = MonoClock::start();
    let shim_handle = shim::spawn(
        shim_sock,
        sock_a.local_addr()?,
        sock_b.local_addr()?,
        ShimConfig {
            plan: cfg.plan.clone(),
            rate_bps: cfg.rate_bps,
            one_way_delay: SimDuration::from_nanos(cfg.rtt.as_nanos() / 2),
            jitter: cfg.jitter,
            jitter_seed: cfg.seed,
            ledger_horizon: cfg.ledger_horizon,
        },
        clock,
    )?;

    let (src, dst) = (NodeId(0), NodeId(1));
    let spec = FlowSpec {
        tcp: cfg.tcp.clone(),
        rtt_hint: cfg.rtt,
        limit_bytes: None,
    };
    let mut transport = cfg.controller.build_flow(src, dst, &spec);
    let mut driver = HostDriver::new(cfg.seed, FlowId(0));

    let mut datagrams_sent = 0u64;
    let mut frame = [0u8; WIRE_HEADER_BYTES];
    let mut send_out = |out: Vec<(NodeId, Packet)>, n_sent: &mut u64| -> std::io::Result<()> {
        for (origin, pkt) in out {
            encode_packet(&pkt, &mut frame);
            let from = if origin == src { &sock_a } else { &sock_b };
            match from.send_to(&frame, shim_addr) {
                Ok(_) => *n_sent += 1,
                // A full socket buffer drops the datagram — exactly what a
                // congested real path does; the transport will recover.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    };

    let started = clock.now();
    let deadline = started + cfg.duration;
    let out = driver.start(transport.as_mut(), started);
    send_out(out, &mut datagrams_sent)?;

    let mut rx = [0u8; 2048];
    loop {
        let now = clock.now();
        if now >= deadline {
            break;
        }

        // Fire due timers (each replayed at its own due time).
        let out = driver.fire_timers_until(transport.as_mut(), now);
        send_out(out, &mut datagrams_sent)?;

        // Drain both endpoints; deliveries may emit more packets.
        let mut delivered_any = false;
        for endpoint in [&sock_a, &sock_b] {
            while let Ok((n, _)) = endpoint.recv_from(&mut rx) {
                if let Some(pkt) = decode_packet(&rx[..n]) {
                    delivered_any = true;
                    let out = driver.deliver(transport.as_mut(), &pkt, clock.now());
                    send_out(out, &mut datagrams_sent)?;
                }
            }
        }
        if delivered_any {
            continue; // more may be queued; poll again before sleeping
        }

        // Nothing arrived: park until the next timer or the poll tick.
        let park = match driver.next_timer_at() {
            Some(due) if due > now => {
                Duration::from_nanos(due.since(now).as_nanos()).min(IDLE_PARK)
            }
            Some(_) => continue, // already due; fire on next iteration
            None => IDLE_PARK,
        };
        std::thread::sleep(park);
    }

    let elapsed_secs = clock.now().since(started).as_secs_f64();
    let shim_report = shim_handle.finish();
    Ok(SockLaneResult {
        loss_times: shim_report.loss_times.clone(),
        forward_arrivals: shim_report.forward_arrivals,
        forward_drops: shim_report.forward_drops,
        ledger: shim_report.ledger.clone(),
        progress: transport.progress(),
        datagrams_sent,
        elapsed_secs,
        shim: shim_report,
    })
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
    fn newreno_moves_data_through_the_shim() {
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
}
