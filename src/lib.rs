//! # lossburst
//!
//! A full reproduction of **"Packet Loss Burstiness: Measurements and
//! Implications for Distributed Applications"** (David X. Wei, Pei Cao,
//! Steven H. Low; IPDPS 2007) as a Rust workspace.
//!
//! This facade crate re-exports the sub-crates:
//!
//! | Crate | Role |
//! |---|---|
//! | [`netsim`] | deterministic discrete-event packet simulator (NS-2 substitute) |
//! | [`transport`] | TCP Reno/NewReno, TCP Pacing, TFRC, CBR, on-off noise, delay-based TCP |
//! | [`emu`] | Dummynet-style emulation (1 ms clock, processing jitter) + the Fig 1 testbed |
//! | [`inet`] | synthetic PlanetLab: Table 1 sites, geographic RTTs, probe campaigns |
//! | [`analysis`] | inter-loss intervals, PDFs, Poisson references, burstiness metrics |
//! | [`core`] | the paper: campaigns (Figs 2–4), detection model (eqs 1–2), impact studies (Figs 7–8), ECN remedy, implications advisor |
//!
//! ## Quickstart
//!
//! ```
//! use lossburst::core::campaign::{ns2_study, LabCampaignConfig};
//! use lossburst::core::supervisor::SupervisorConfig;
//! use lossburst::netsim::time::SimDuration;
//!
//! let mut cfg = LabCampaignConfig::quick(42);
//! cfg.flow_counts = vec![8];            // one cell of the paper's sweep
//! cfg.buffer_bdp_fractions = vec![0.25];
//! cfg.duration = SimDuration::from_secs(10);
//! let run = ns2_study(&cfg, &SupervisorConfig::default())?;
//! assert_eq!(run.counts().failed, 0);
//! // The headline result: losses cluster at sub-RTT timescale.
//! assert!(run.study.report.frac_below_1 > 0.5);
//! # Ok::<(), lossburst::core::error::Error>(())
//! ```

pub use lossburst_analysis as analysis;
pub use lossburst_core as core;
pub use lossburst_emu as emu;
pub use lossburst_inet as inet;
pub use lossburst_netsim as netsim;
pub use lossburst_transport as transport;
