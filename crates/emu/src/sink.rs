//! Streaming loss observation for the testbed.
//!
//! [`ClockedLossSink`] is a [`TraceSink`] that watches one link's drops as
//! the event loop produces them, stamps each timestamp through the
//! experiment's recording [`ClockModel`], and folds it straight into a
//! [`LossStreamStats`] — the per-event twin of the batch pipeline's
//! "buffer the trace, stamp it, normalize it, analyze it" sequence. The
//! per-element clock stamp and the RTT normalization apply the same
//! floating-point operations in the same order as the batch code, so a
//! streaming run reproduces the batch statistics exactly.

use crate::clock::ClockModel;
use lossburst_analysis::streaming::LossStreamStats;
use lossburst_netsim::packet::LinkId;
use lossburst_netsim::trace::{LossRecord, TraceSink};

/// A [`TraceSink`] that streams one link's drop timeline through a
/// recording clock into an online burstiness accumulator.
#[derive(Debug)]
pub(crate) struct ClockedLossSink {
    link: LinkId,
    clock: ClockModel,
    stats: LossStreamStats,
    /// Clock-stamped drop times, kept for cross-run pooling (O(losses),
    /// not O(packets)).
    times: Vec<f64>,
}

impl ClockedLossSink {
    /// Observe drops on `link`, stamping through `clock` and normalizing
    /// intervals by `rtt_secs`.
    pub(crate) fn new(link: LinkId, clock: ClockModel, rtt_secs: f64) -> ClockedLossSink {
        ClockedLossSink {
            link,
            clock,
            stats: LossStreamStats::with_rtt(rtt_secs),
            times: Vec::new(),
        }
    }

    /// The accumulated statistics.
    pub(crate) fn stats(&self) -> &LossStreamStats {
        &self.stats
    }

    /// Move the clock-stamped drop times out, leaving none behind.
    pub(crate) fn take_times(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.times)
    }
}

impl TraceSink for ClockedLossSink {
    fn on_loss(&mut self, rec: &LossRecord) {
        if rec.link == self.link {
            let t = self.clock.stamp_one_secs(rec.time.as_secs_f64());
            self.stats.push_loss_at(t);
            self.times.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_netsim::packet::FlowId;
    use lossburst_netsim::time::SimTime;

    fn rec(link: u32, nanos: u64) -> LossRecord {
        LossRecord {
            time: SimTime::from_nanos(nanos),
            link: LinkId(link),
            flow: FlowId(0),
            seq: 0,
        }
    }

    #[test]
    fn filters_by_link_and_stamps_through_clock() {
        let mut s = ClockedLossSink::new(LinkId(3), ClockModel::freebsd_1ms(), 0.1);
        s.on_loss(&rec(3, 1_700_000)); // 1.7 ms -> 1 ms
        s.on_loss(&rec(9, 2_000_000)); // other link: ignored
        s.on_loss(&rec(3, 2_300_000)); // 2.3 ms -> 2 ms
        assert_eq!(s.stats().n_losses(), 2);
        assert_eq!(s.take_times(), [0.001, 0.002]);
        assert!(s.times.is_empty());
    }

    #[test]
    fn matches_batch_stamp_then_normalize() {
        // The sink applies stamp_one_secs then push_loss_at per event; the
        // batch pipeline stamps the whole vector and then normalizes. Same
        // bits either way.
        use lossburst_analysis::intervals::normalized_intervals;
        let clock = ClockModel::freebsd_1ms();
        let rtt = 0.05;
        let raw_nanos: Vec<u64> = vec![1_234_567, 3_999_999, 4_000_001, 77_777_777];
        let mut sink = ClockedLossSink::new(LinkId(0), clock, rtt);
        for &n in &raw_nanos {
            sink.on_loss(&rec(0, n));
        }
        let raw_secs: Vec<f64> = raw_nanos
            .iter()
            .map(|&n| SimTime::from_nanos(n).as_secs_f64())
            .collect();
        let batch = normalized_intervals(&clock.stamp_secs(&raw_secs), rtt);
        let report = sink.stats().report();
        assert_eq!(report.n_losses, raw_nanos.len());
        // Mean interval must agree bitwise with the batch mean.
        let batch_mean = batch.iter().sum::<f64>() / batch.len() as f64;
        assert_eq!(report.mean_interval_rtt.to_bits(), batch_mean.to_bits());
    }
}
