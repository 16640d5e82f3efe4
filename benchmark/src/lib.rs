//! # lossburst-benchmark
//!
//! The repo's single benchmark: five workloads, each a closed-loop batch
//! job run in a fresh child process per repeat, end-to-end metrics from
//! the untraced runs, per-layer metrics from a separate traced run whose
//! spans are recorded from outside the product, around its public calls.
//! See `README.md` in this directory for the tables and the commands.
//!
//! It drives only public functions of `netsim`, `transport`, `analysis`,
//! `emu`, `inet`, `core` and the vendored `rayon`, and edits none of them.

#![warn(missing_docs)]

pub mod child;
pub mod harness;
pub mod json;
pub mod layers;
pub mod procfs;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;
