//! # lossburst-core
//!
//! The paper itself: *"Packet Loss Burstiness: Measurements and
//! Implications for Distributed Applications"* (Wei, Cao, Low; IPDPS 2007),
//! reproduced end-to-end on the `lossburst-*` substrates.
//!
//! * [`campaign`] — the three measurement campaigns (Figs 2–4): NS-2
//!   simulation, Dummynet emulation, synthetic Internet, each supervised
//!   and yielding a [`campaign::LossStudy`] with the RTT-normalized
//!   inter-loss PDF, the rate-matched Poisson reference, and burstiness
//!   metrics, beside its outcome ledger.
//! * [`model`] — equations (1) and (2) of Section 4.1 (the Fig 5/6
//!   intuition) with Monte-Carlo validation.
//! * [`impact`] — Fig 7 (TCP Pacing vs NewReno competition) and Fig 8
//!   (parallel 64 MB transfer latency).
//! * [`ecn`] — the persistent-ECN remedy the paper proposes (ref \[22\]).
//! * [`fairness`] — the controller-pair fairness matrix: every
//!   [`lossburst_transport::cc::CcAlgorithm`] pairing sharing a bursty
//!   bottleneck, across queue disciplines and noise levels.
//! * [`advisor`] — Section 5's implications as a decision procedure.
//! * [`ablation`] — robustness sweeps behind the paper's claims (buffer,
//!   multiplexing, burstiness sources, RED tuning, straggler mechanics).
//! * [`supervisor`] — the one runner of every paper sweep: per-path fault
//!   isolation, retries, budgets, fault injection, and checkpoint/resume.
//! * [`shard`] — multi-process campaign execution: the path grid striped
//!   across shard workers, per-shard checkpoints merged back into one
//!   canonical artifact, byte-identical to a 1-process run.
//! * [`bsp`] — the lossy-BSP superstep engine: N parallel transfers over
//!   heterogeneous bursty paths closing with a barrier, straggler tail
//!   statistics, and the diversity/redundancy/chunking mitigations.

//!
//! ```
//! use lossburst_core::prelude::*;
//!
//! // Equations (1) and (2) and the unfairness they imply.
//! assert_eq!(rate_based_detections(32, 16), 16.0);
//! assert_eq!(window_based_detections(32, 50), 1.0);
//!
//! // Section 5's advice for a mixed TFRC + TCP deployment.
//! let recs = advise(&AppProfile { mixes_rate_and_window: true, ..Default::default() });
//! assert!(recs.contains(&Recommendation::ReplaceWindowTcpWithPacing));
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod advisor;
pub mod bsp;
pub mod campaign;
pub mod ecn;
pub mod error;
pub mod fairness;
pub mod impact;
pub mod model;
pub mod registry;
pub mod shard;
pub mod supervisor;

/// Commonly used items.
pub mod prelude {
    pub use crate::advisor::{advise, AppProfile, Recommendation};
    pub use crate::campaign::{lab_cells, ns2_study, LabCampaignConfig, LossStudy};
    pub use crate::model::{rate_based_detections, window_based_detections};
    pub use crate::shard::{
        collect_campaign_streaming, merge_shards_streaming, run_campaign_sharded_streaming,
        run_grid_streaming_supervised, run_shard_streaming, spawn_shards, ShardSpec,
    };
    pub use crate::supervisor::{
        CampaignCheckpoint, FaultKind, FaultPlan, LabCellRecord, PathOutcome,
        SupervisedStreamCampaign, SupervisorConfig,
    };
}
