//! # lossburst-inet
//!
//! The synthetic PlanetLab/Internet substrate for the *"Packet Loss
//! Burstiness"* reproduction.
//!
//! The paper measured 650 directed paths between 26 PlanetLab sites with
//! paired constant-bit-rate probes (48 B and 400 B packets, 5-minute runs,
//! October–December 2006), accepting a measurement only when the two
//! traces showed similar loss patterns. None of that infrastructure exists
//! here, so this crate substitutes:
//!
//! * [`sites`] — Table 1 verbatim, with coordinates;
//! * [`geo`] — great-circle-derived base RTTs (2 ms floor, 300 ms+ ceiling,
//!   matching the paper's observed range);
//! * [`path`] — a deterministic per-path congestion scenario with
//!   heterogeneous cross traffic (the heterogeneity is what separates the
//!   Internet's Fig 4 from the lab's Figs 2–3);
//! * [`probe`] — the CBR probe methodology, including the paired-size
//!   validation rule;
//! * [`campaign`] — the randomized multi-path campaign's path grid,
//!   per-path measurement and pooling (`lossburst-core`'s supervisor runs
//!   the sweep).
//!
//! There is one measurement path: a probe runs sink-driven in constant
//! memory (trace buffering off, a gap-detecting receiver, statistics folded
//! online), and a campaign pools such runs. The surviving verbs keep the
//! `_streaming` / `Stream` affixes from when each had a buffered twin —
//! the repo's benchmark imports exactly these names, and dropping the affix
//! is a mechanical rename left to a benchmark-side change.
//!
//! ```
//! use lossburst_inet::geo::base_rtt;
//! use lossburst_inet::path::PathScenario;
//! use lossburst_inet::sites::{DIRECTED_PATHS, SITES};
//!
//! // Table 1 and the derived geography.
//! assert_eq!(SITES.len(), 26);
//! assert_eq!(DIRECTED_PATHS, 650);
//! let rtt = base_rtt(&SITES[0], &SITES[21]); // Los Angeles -> Beijing
//! assert!(rtt.as_secs_f64() > 0.1);
//! // Scenarios derive deterministically per (seed, src, dst).
//! let p = PathScenario::derive(2006, 0, 21);
//! assert!(p.bottleneck_bps >= 10e6);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod geo;
pub mod path;
pub mod probe;
pub mod sites;
