//! `lab_dense` — one large Fig 2/3-style testbed simulation on a single
//! thread: 1024 NewReno pairs plus 1024 on-off noise flows through the
//! Dummynet-style router (1 ms recording clock, processing jitter). The
//! same `netsim` + `transport` layers as the campaign, used the other way
//! round: one deep event calendar and a big flow table instead of 1300
//! shallow ones, and no worker pool at all.

use super::{Fnv, Job, JobOutput, Scale, TracedOutput};
use crate::span::Recorder;
use lossburst_emu::testbed::{run_streaming, StreamTestbedResult, TestbedConfig};
use lossburst_netsim::time::SimDuration;

/// TCP pairs, and on-off noise flows, in the dumbbell.
const FLOWS: usize = 1024;

/// Bottleneck buffer, packets.
const BUFFER_PKTS: usize = 500;

/// Simulated duration at [`Scale::Full`], milliseconds.
const FULL_DURATION_MS: u64 = 360_000;

/// The prepared testbed run.
pub struct LabJob {
    cfg: TestbedConfig,
}

impl LabJob {
    /// Derive the testbed from `seed`.
    pub fn prepare(seed: u64, scale: Scale) -> LabJob {
        let mut cfg = TestbedConfig::dummynet_baseline(FLOWS, BUFFER_PKTS, seed);
        cfg.noise_flows = FLOWS;
        cfg.duration = SimDuration::from_millis(FULL_DURATION_MS / scale.divisor());
        LabJob { cfg }
    }

    /// The configuration, for the build-cost layer drive.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    fn digest(&self, res: &StreamTestbedResult) -> JobOutput {
        let mut out = JobOutput {
            work: self.cfg.duration.as_secs_f64(),
            attempted: 1,
            ..JobOutput::default()
        };
        let mut h = Fnv::default();
        h.eat(res.drops);
        h.eat_f64(res.utilization);
        for &t in &res.loss_times {
            h.eat_f64(t);
        }
        out.fingerprint = h.0;
        out.counts.push(("drops", res.drops));
        out.check(res.drops > 0, || {
            "a saturated bottleneck dropped nothing".into()
        });
        out.check(res.stats.n_losses() == res.drops, || {
            format!(
                "streaming accumulator saw {} of {} drops",
                res.stats.n_losses(),
                res.drops
            )
        });
        out.check(
            res.utilization > 0.0 && res.utilization <= 1.0 + 1e-9,
            || format!("bottleneck utilization {} outside (0, 1]", res.utilization),
        );
        out.failed = u64::from(!out.problems.is_empty());
        out
    }
}

impl Job for LabJob {
    fn run(&self) -> JobOutput {
        self.digest(&run_streaming(&self.cfg))
    }

    fn run_traced(&self, rec: &mut Recorder) -> TracedOutput {
        // One simulation is one unit: the only boundary visible from
        // outside is the call itself.
        let res = rec.time("lab_dense", None, |rec| {
            rec.time("emu.testbed.run", Some(0), |_| run_streaming(&self.cfg))
        });
        TracedOutput {
            output: self.digest(&res),
            layer: Vec::new(),
        }
    }
}
