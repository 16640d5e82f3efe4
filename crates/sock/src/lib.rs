//! # lossburst-sock
//!
//! The real-socket transport lane: the same [`Transport`] state machines
//! the simulator drives (`lossburst-transport`'s NewReno, CUBIC, BBR, …)
//! running over `std::net::UdpSocket` on loopback against a monotonic
//! clock — one thread, no async runtime, per the workspace's offline
//! vendoring policy.
//!
//! The lane exists for *cross-validation*: simulator-only conclusions
//! about congestion-control behaviour routinely fail to transfer to real
//! stacks, so the conformance suite runs identical (controller, seed,
//! loss-plan) triples through the netsim dumbbell, the `emu::Testbed`,
//! and this lane, and gates on statistical agreement of the resulting
//! loss processes.
//!
//! Pieces:
//!
//! * `wire` — a frame codec mapping the in-sim [`Packet`] 1:1 onto UDP
//!   datagrams (range-set SACK blocks, timestamps, ECN flags included),
//!   so `Sender` hooks see exactly what they see in simulation;
//! * `clock` — the monotonic clock adapter translating `Instant`s into
//!   the [`SimTime`] the transport's RTO/pacing/update timers expect;
//! * [`plan`] — the deterministic loss plan: per-arrival-index drop
//!   decisions generated from a seeded Gilbert process, convertible to
//!   the [`DropScript`] the simulated lanes replay at their bottleneck
//!   queues;
//! * `path` — the impaired path as a value: per offered packet, the
//!   plan's verdict (drop) or a bottleneck serialization model plus
//!   propagation delay (deliver at), and a replayable decision ledger;
//! * [`lane`] — [`lane::Lane`], the I/O-free state machine that owns the
//!   `Transport`, the path and the packets the path has delayed, advanced
//!   by its caller with an explicit `now`; and [`lane::run`], the one
//!   function that gives it two connected loopback sockets and a clock.
//!   Tests drive the same `Lane` on a stepped clock, where it equals the
//!   simulator drop for drop.
//!
//! [`Transport`]: lossburst_netsim::iface::Transport
//! [`Packet`]: lossburst_netsim::packet::Packet
//! [`SimTime`]: lossburst_netsim::time::SimTime
//! [`DropScript`]: lossburst_netsim::queue::DropScript

#![warn(missing_docs)]

pub(crate) mod clock;
pub mod lane;
pub(crate) mod path;
pub mod plan;
pub(crate) mod wire;
