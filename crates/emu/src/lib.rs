//! # lossburst-emu
//!
//! The Dummynet-style emulation substrate for the *"Packet Loss
//! Burstiness"* reproduction.
//!
//! The paper's emulation testbed differed from its NS-2 setup in exactly
//! three ways, all modeled here:
//!
//! 1. a **coarse recording clock** — FreeBSD's 1 ms tick, so every loss
//!    timestamp is quantized ([`clock::ClockModel`]);
//! 2. **packet-processing noise** in the router — reproduced as per-packet
//!    serialization jitter (`lossburst_netsim::link::JitterModel`, wired in
//!    by [`testbed`]);
//! 3. **four fixed RTT classes** (2/10/50/200 ms) instead of uniformly
//!    random access latencies.
//!
//! [`testbed`] also hosts the shared Fig 1 dumbbell workload runner used by
//! both the simulation and the emulation campaigns.
//!
//! ```
//! use lossburst_emu::testbed::{run_streaming, TestbedConfig};
//! use lossburst_netsim::time::SimDuration;
//!
//! let mut cfg = TestbedConfig::dummynet_baseline(4, 128, 3);
//! cfg.duration = SimDuration::from_secs(5);
//! let res = run_streaming(&cfg);
//! // Every recorded loss timestamp sits on a 1 ms FreeBSD clock tick.
//! assert!(res.loss_times.iter().all(|t| (t * 1000.0).fract().abs() < 1e-6));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub(crate) mod sink;
pub mod testbed;
