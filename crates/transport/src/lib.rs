//! # lossburst-transport
//!
//! The congestion-control protocols under study in *"Packet Loss
//! Burstiness"* (Wei, Cao, Low; IPDPS 2007), implemented as
//! [`lossburst_netsim::iface::Transport`] state machines.
//!
//! Since 0.6 the crate is organised around a pluggable congestion-control
//! API: a single [`sender::Sender`] core owns sequencing, loss detection
//! (go-back-N dupacks or an RFC 6675 SACK scoreboard), RTT estimation, and
//! timers, and delegates all window/rate decisions to a
//! [`cc::Controller`]:
//!
//! | Controller | Class | Module |
//! |---|---|---|
//! | NewReno (and SACK's plain halving) | window-based (bursty) | `cc::reno` |
//! | CUBIC (RFC 8312) | window-based, cubic growth | [`cc::cubic`] |
//! | BBR v1 | model/rate-based | [`cc::bbr`] |
//! | FAST-style delay-based | delay-signal extension | `cc::fast` |
//! | TFRC (RFC 5348) | equation/rate-based | [`tfrc`] (own sender) |
//! | CBR probe | constant rate | [`cbr`] |
//! | Exponential on-off noise | background load | [`onoff`] |
//!
//! TCP Pacing ([`sender::Sender::pacing`]) is the NewReno window law with
//! its packets spread evenly over each round trip.
//!
//! The window/rate split is the paper's central axis: window-based senders
//! emit sub-RTT bursts and therefore *under-sample* bursty loss, while
//! rate-based senders spread packets evenly and observe nearly every loss
//! episode.

//!
//! ```
//! use lossburst_netsim::prelude::*;
//! use lossburst_transport::prelude::*;
//!
//! // A NewReno bulk transfer over a lossy 2 Mbps link completes exactly.
//! let mut b = SimBuilder::new(7);
//! let src = b.host();
//! let dst = b.host();
//! b.duplex(src, dst, 2e6, SimDuration::from_millis(10), QueueDisc::drop_tail(8));
//! let f = b.flow(SimTime::ZERO,
//!     Box::new(Sender::newreno(src, dst, TcpConfig::default()).with_limit_bytes(50_000)));
//! let mut sim = b.build();
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
//! // `f` is a `FlowHandle<Sender>`: the flow reads back as its own type.
//! let tcp: &Sender = sim.flow(f);
//! assert_eq!(tcp.progress().bytes_delivered, 50_000);
//! assert!(sim.completed_at(f).is_some());
//! ```

#![warn(missing_docs)]

pub mod cbr;
pub mod cc;
pub mod config;
#[cfg(test)]
mod delay;
pub mod onoff;
pub mod receiver;
#[cfg(test)]
mod reference;
pub(crate) mod rtt;
mod runset;
pub mod sender;
#[cfg(test)]
mod tcp;
#[cfg(test)]
mod tcp_sack;
pub mod tfrc;
pub mod timer;

/// Commonly used items.
pub mod prelude {
    pub use crate::cbr::Cbr;
    pub use crate::config::TcpConfig;
    pub use crate::onoff::OnOff;
    pub use crate::rtt::RttEstimator;
    pub use crate::sender::Sender;
    pub use crate::tfrc::{tcp_throughput_eq, TfrcSender};
}
