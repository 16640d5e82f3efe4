//! # lossburst-netsim
//!
//! A deterministic discrete-event packet-level network simulator — the NS-2
//! substitute for the reproduction of *"Packet Loss Burstiness: Measurements
//! and Implications for Distributed Applications"* (Wei, Cao, Low; IPDPS
//! 2007).
//!
//! The simulator models:
//!
//! * **links** with serialization at line rate, propagation delay, and an
//!   optional per-packet processing jitter (used by the Dummynet-style
//!   emulation substrate);
//! * **queue disciplines**: DropTail, RED (gentle), and the persistent-ECN
//!   scheme of the paper's reference \[22\];
//! * **nodes** (hosts and routers) with static shortest-path routing;
//! * **flows** driven by pluggable [`iface::Transport`] state machines (the
//!   congestion-control protocols live in the `lossburst-transport` crate);
//! * **traces**: per-drop records at router queues — the paper's core
//!   instrumentation — plus goodput events and transfer completions.
//!
//! Determinism: integer-nanosecond time, a tie-broken event scheduler (a
//! calendar queue popping in `(time, insertion)` order), and a single
//! seeded RNG make every run exactly replayable.
//!
//! Simulations are assembled with [`builder::SimBuilder`], which computes
//! routes when [`builder::SimBuilder::build`] is called:
//!
//! ```
//! use lossburst_netsim::prelude::*;
//!
//! let mut b = SimBuilder::new(42);
//! let cfg = DumbbellConfig::paper_baseline(
//!     8,
//!     128,
//!     RttAssignment::Uniform(SimDuration::from_millis(2), SimDuration::from_millis(200)),
//! );
//! let db = build_dumbbell(&mut b, &cfg);
//! let mut sim = b.build();
//! assert_eq!(db.senders.len(), 8);
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod driver;
pub mod event;
pub mod fluid;
pub mod iface;
pub mod link;
pub(crate) mod node;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

/// Commonly used items.
pub mod prelude {
    pub use crate::builder::SimBuilder;
    pub use crate::event::TimerToken;
    pub use crate::iface::{Ctx, FlowProgress, Transport};
    pub use crate::link::Link;
    pub use crate::node::NodeKind;
    pub use crate::packet::{FlowId, LinkId, NodeId, Packet};
    pub use crate::queue::{DropScript, QueueDisc, Verdict};
    pub use crate::rng::Sampler;
    pub use crate::sim::{RunLimits, Simulator};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{
        build_chain, build_dumbbell, build_star, ChainConfig, DumbbellConfig, RttAssignment,
    };
    pub use crate::trace::TraceConfig;
}
