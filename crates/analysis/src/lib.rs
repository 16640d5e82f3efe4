//! # lossburst-analysis
//!
//! The loss-trace analysis toolkit for the *"Packet Loss Burstiness"*
//! reproduction: exactly the methodology of the paper's Section 3.1 —
//! inter-loss intervals, RTT normalization, empirical PDFs with 0.02 RTT
//! bins, and a rate-matched Poisson reference — plus the "more rigorous"
//! statistics the paper's future-work section names (Gilbert–Elliott model
//! fitting, index of dispersion, autocorrelation).
//!
//! This crate is pure computation: no simulator types, no RNG dependency,
//! so it can analyze traces from any source (including real router logs).
//!
//! ```
//! use lossburst_analysis::prelude::*;
//!
//! // Loss timestamps in seconds on a 100 ms RTT path.
//! let times = [1.000, 1.0001, 1.0002, 2.5, 2.5001, 4.0];
//! let intervals = normalized_intervals(&times, 0.100);
//! let report = analyze(&intervals);
//! assert!(report.frac_below_001 > 0.5); // clusters dominate
//! ```

#![warn(missing_docs)]

pub mod autocorr;
pub mod burstiness;
pub mod episodes;
pub mod error;
pub mod gilbert;
pub mod histogram;
pub mod intervals;
pub mod io;
pub mod poisson;
pub mod report;
pub mod stats;
pub mod streaming;

/// Commonly used items.
pub mod prelude {
    pub use crate::autocorr::autocorrelation;
    pub use crate::burstiness::analyze;
    pub use crate::episodes::{conditional_loss_probability, episode_report, episodes};
    pub use crate::gilbert::{fit as gilbert_fit, generate as gilbert_generate, GilbertParams};
    pub use crate::histogram::{Histogram, PAPER_BIN_WIDTH, PAPER_RANGE};
    pub use crate::intervals::normalized_intervals;
    pub use crate::io::{read_loss_trace, write_series_to};
    pub use crate::poisson::{rate_from_intervals, reference_cdf, reference_pdf};
    pub use crate::report::{ascii_pdf_plot, burstiness_summary};
    pub use crate::stats::{bootstrap_ci, mean};
}
