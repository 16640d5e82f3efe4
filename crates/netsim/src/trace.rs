//! Trace collection.
//!
//! The paper's central measurement is the *timing of every packet drop* at
//! the bottleneck router; the mark and goodput streams support the impact
//! studies (ECN coverage, Fig 7's throughput series). Recording is gated by
//! a [`TraceConfig`] so that long runs only pay for what an experiment
//! needs, and a [`TraceSink`] observes every drop whatever the gating.

use crate::packet::{FlowId, LinkId};
use crate::time::SimTime;
use std::any::Any;
use std::fmt;

/// One dropped packet, recorded at the router that dropped it — exactly the
/// instrumentation the paper added to its NS-2 and Dummynet routers.
#[derive(Clone, Copy, Debug)]
pub struct LossRecord {
    /// When the drop happened.
    pub time: SimTime,
    /// The link whose queue dropped the packet.
    pub link: LinkId,
    /// The flow the packet belonged to.
    pub flow: FlowId,
    /// The packet's sequence number.
    pub seq: u64,
}

/// One ECN mark applied by a router.
#[derive(Clone, Copy, Debug)]
pub struct MarkRecord {
    /// When the mark was applied.
    pub time: SimTime,
    /// The marking link.
    pub link: LinkId,
    /// The marked flow.
    pub flow: FlowId,
}

/// Newly acknowledged application bytes observed by a sender, used to build
/// throughput-versus-time series (Fig 7).
#[derive(Clone, Copy, Debug)]
pub struct GoodputEvent {
    /// When the acknowledgment arrived at the sender.
    pub time: SimTime,
    /// The flow making progress.
    pub flow: FlowId,
    /// Bytes newly acknowledged.
    pub bytes: u64,
}

/// Which record streams to keep.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Keep per-drop records.
    pub(crate) losses: bool,
    /// Keep per-mark records.
    pub(crate) marks: bool,
    /// Keep goodput events.
    pub(crate) goodput: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            losses: true,
            marks: false,
            goodput: false,
        }
    }
}

impl TraceConfig {
    /// Record everything (used by impact studies and tests).
    pub fn all() -> TraceConfig {
        TraceConfig {
            losses: true,
            marks: true,
            goodput: true,
        }
    }

    /// Buffer nothing. The streaming mode: attached [`TraceSink`]s still
    /// see every drop, but no per-event `Vec` grows with the run.
    pub fn none() -> TraceConfig {
        TraceConfig {
            losses: false,
            marks: false,
            goodput: false,
        }
    }
}

/// A loss observer the event loop drives per drop, as the drop happens —
/// the streaming alternative to buffering a `Vec` and scanning it after
/// the run. Sinks see every drop regardless of the [`TraceConfig`]
/// gating, so a run can stream with buffering entirely off
/// ([`TraceConfig::none`]) and hold O(1) analysis state instead of
/// O(packets) of trace.
///
/// `Any` is a supertrait, so [`TraceSet::sink`] / [`TraceSet::sink_mut`]
/// hand a sink back as its concrete type after the run.
pub trait TraceSink: Any {
    /// A packet was dropped.
    fn on_loss(&mut self, rec: &LossRecord);
    /// Self as `Any`. Nothing needs to call or implement this:
    /// [`TraceSet::sink`] upcasts. Kept for sinks that still override it.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }
    /// Self as mutable `Any`; see [`TraceSink::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

/// The collected streams of one simulation run, plus any attached
/// [`TraceSink`] observers.
#[derive(Default)]
pub struct TraceSet {
    /// Gating configuration.
    pub(crate) config: TraceConfig,
    /// Drop records (if enabled).
    pub losses: Vec<LossRecord>,
    /// Mark records (if enabled).
    pub marks: Vec<MarkRecord>,
    /// Goodput events (if enabled).
    pub goodput: Vec<GoodputEvent>,
    /// Attached loss observers, driven per drop before buffering.
    sinks: Vec<Box<dyn TraceSink>>,
}

impl fmt::Debug for TraceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSet")
            .field("config", &self.config)
            .field("losses", &self.losses)
            .field("marks", &self.marks)
            .field("goodput", &self.goodput)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Default pre-sizing for enabled record streams, in records. Large enough
/// that a typical Fig-1 dumbbell run never reallocates mid-simulation,
/// small enough (a few hundred KiB) to be irrelevant when it goes unused.
const DEFAULT_STREAM_CAPACITY: usize = 4096;

impl TraceSet {
    /// A trace set with the given gating and default pre-sizing: enabled
    /// streams get room for `DEFAULT_STREAM_CAPACITY` records up front,
    /// disabled streams get no buffer at all.
    pub fn new(config: TraceConfig) -> TraceSet {
        TraceSet::with_capacity(config, DEFAULT_STREAM_CAPACITY)
    }

    /// A trace set with the given gating whose enabled streams are
    /// pre-sized for about `records` entries each, so the hot path appends
    /// without touching the allocator. Disabled streams allocate nothing.
    pub(crate) fn with_capacity(config: TraceConfig, records: usize) -> TraceSet {
        fn sized<T>(enabled: bool, records: usize) -> Vec<T> {
            if enabled {
                Vec::with_capacity(records)
            } else {
                Vec::new()
            }
        }
        TraceSet {
            config,
            losses: sized(config.losses, records),
            marks: sized(config.marks, records),
            goodput: sized(config.goodput, records),
            sinks: Vec::new(),
        }
    }

    /// Attach an observer; returns its index for post-run retrieval via
    /// [`TraceSet::sink`]. Sinks see each drop in attachment order, before
    /// it is buffered.
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) -> usize {
        self.sinks.push(sink);
        self.sinks.len() - 1
    }

    /// Downcast the sink at `idx` to its concrete type.
    pub fn sink<T: TraceSink>(&self, idx: usize) -> Option<&T> {
        let sink: &dyn Any = &**self.sinks.get(idx)?;
        sink.downcast_ref()
    }

    /// Downcast the sink at `idx` to its concrete type, mutably — to move
    /// what it accumulated out after the run instead of copying it.
    pub fn sink_mut<T: TraceSink>(&mut self, idx: usize) -> Option<&mut T> {
        let sink: &mut dyn Any = &mut **self.sinks.get_mut(idx)?;
        sink.downcast_mut()
    }

    /// Record a drop.
    #[inline]
    pub fn loss(&mut self, rec: LossRecord) {
        for s in &mut self.sinks {
            s.on_loss(&rec);
        }
        if self.config.losses {
            self.losses.push(rec);
        }
    }

    /// Record an ECN mark.
    #[inline]
    pub(crate) fn mark(&mut self, rec: MarkRecord) {
        if self.config.marks {
            self.marks.push(rec);
        }
    }

    /// Record sender progress.
    #[inline]
    pub fn goodput(&mut self, rec: GoodputEvent) {
        if self.config.goodput {
            self.goodput.push(rec);
        }
    }

    /// Bytes currently committed to record buffers (capacities, i.e. what
    /// the allocator handed over — the quantity the streaming mode keeps
    /// constant). Sink-internal state is not counted; sinks report their
    /// own footprint.
    pub fn buffer_bytes(&self) -> usize {
        self.losses.capacity() * std::mem::size_of::<LossRecord>()
            + self.marks.capacity() * std::mem::size_of::<MarkRecord>()
            + self.goodput.capacity() * std::mem::size_of::<GoodputEvent>()
    }

    /// Drop timestamps on one link, in seconds, in event order (the input to
    /// the paper's inter-loss-interval analysis).
    pub fn loss_times_on(&self, link: LinkId) -> Vec<f64> {
        self.losses
            .iter()
            .filter(|l| l.link == link)
            .map(|l| l.time.as_secs_f64())
            .collect()
    }

    /// Aggregate goodput (bits/second) of `flows` in fixed bins from time 0
    /// to `end`, as plotted in Fig 7.
    ///
    /// Degenerate geometry — a zero, negative, or NaN `bin_secs` or
    /// `end_secs`, or a ratio too large to index — yields an empty series
    /// rather than a panic or an absurd allocation.
    pub fn throughput_series(&self, flows: &[FlowId], bin_secs: f64, end_secs: f64) -> Vec<f64> {
        let positive_finite = |v: f64| v.is_finite() && v > 0.0;
        if !positive_finite(bin_secs) || !positive_finite(end_secs) {
            return Vec::new();
        }
        let nbins_f = (end_secs / bin_secs).ceil();
        if nbins_f < 1.0 || nbins_f > u32::MAX as f64 {
            return Vec::new();
        }
        let nbins = nbins_f as usize;
        let mut bins = vec![0.0f64; nbins];
        for ev in &self.goodput {
            if !flows.contains(&ev.flow) {
                continue;
            }
            let t = ev.time.as_secs_f64();
            if t >= end_secs {
                continue;
            }
            let idx = (t / bin_secs) as usize;
            if idx < nbins {
                bins[idx] += ev.bytes as f64 * 8.0;
            }
        }
        for b in &mut bins {
            *b /= bin_secs;
        }
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn gating_suppresses_disabled_streams() {
        let mut t = TraceSet::new(TraceConfig {
            losses: false,
            marks: false,
            goodput: false,
        });
        t.loss(LossRecord {
            time: SimTime::ZERO,
            link: LinkId(0),
            flow: FlowId(0),
            seq: 0,
        });
        t.goodput(GoodputEvent {
            time: SimTime::ZERO,
            flow: FlowId(0),
            bytes: 100,
        });
        t.mark(MarkRecord {
            time: SimTime::ZERO,
            link: LinkId(0),
            flow: FlowId(0),
        });
        assert!(t.losses.is_empty());
        assert!(t.marks.is_empty());
        assert!(t.goodput.is_empty());
    }

    #[test]
    fn enabled_streams_are_presized_disabled_cost_nothing() {
        let t = TraceSet::with_capacity(TraceConfig::default(), 1000);
        assert!(t.losses.capacity() >= 1000, "enabled stream not pre-sized");
        assert_eq!(t.marks.capacity(), 0, "disabled stream allocated");
        assert_eq!(t.goodput.capacity(), 0, "disabled stream allocated");
        let all = TraceSet::with_capacity(TraceConfig::all(), 64);
        assert!(all.marks.capacity() >= 64);
        assert!(all.goodput.capacity() >= 64);
    }

    #[test]
    fn loss_times_filters_by_link() {
        let mut t = TraceSet::new(TraceConfig::default());
        for (i, link) in [0u32, 1, 0, 0].iter().enumerate() {
            t.loss(LossRecord {
                time: SimTime::ZERO + SimDuration::from_millis(i as u64),
                link: LinkId(*link),
                flow: FlowId(0),
                seq: i as u64,
            });
        }
        let times = t.loss_times_on(LinkId(0));
        assert_eq!(times.len(), 3);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A counting sink used by the observer tests.
    #[derive(Default)]
    struct Counter {
        losses: u64,
    }

    impl TraceSink for Counter {
        fn on_loss(&mut self, _rec: &LossRecord) {
            self.losses += 1;
        }
    }

    #[test]
    fn sinks_see_every_loss_even_with_buffering_off() {
        let mut t = TraceSet::new(TraceConfig::none());
        let idx = t.add_sink(Box::<Counter>::default());
        t.loss(LossRecord {
            time: SimTime::ZERO,
            link: LinkId(0),
            flow: FlowId(0),
            seq: 0,
        });
        t.loss(LossRecord {
            time: SimTime::from_nanos(7),
            link: LinkId(1),
            flow: FlowId(0),
            seq: 1,
        });
        // The buffer stayed empty and committed nothing…
        assert!(t.losses.is_empty());
        assert_eq!(t.buffer_bytes(), 0);
        // …but the sink observed every drop.
        let c: &Counter = t.sink(idx).expect("sink downcast");
        assert_eq!(c.losses, 2);
    }

    #[test]
    fn wrong_type_sink_downcast_is_none() {
        let mut t2 = TraceSet::new(TraceConfig::default());
        let i2 = t2.add_sink(Box::<Counter>::default());
        t2.sink_mut::<Counter>(i2).expect("right type").losses = 7;
        assert_eq!(t2.sink::<Counter>(i2).map(|c| c.losses), Some(7));
        struct Other;
        impl TraceSink for Other {
            fn on_loss(&mut self, _rec: &LossRecord) {}
        }
        assert!(t2.sink::<Other>(i2).is_none());
        assert!(t2.sink_mut::<Other>(i2).is_none());
    }

    #[test]
    fn buffer_bytes_tracks_capacity_not_length() {
        let t = TraceSet::with_capacity(TraceConfig::default(), 1000);
        let expected_min = 1000 * std::mem::size_of::<LossRecord>();
        assert!(t.buffer_bytes() >= expected_min);
        // Streaming config commits nothing.
        let none = TraceSet::with_capacity(TraceConfig::none(), 1000);
        assert_eq!(none.buffer_bytes(), 0);
    }

    #[test]
    fn throughput_series_rejects_degenerate_geometry() {
        let mut t = TraceSet::new(TraceConfig::all());
        t.goodput(GoodputEvent {
            time: SimTime::from_nanos(500_000_000),
            flow: FlowId(1),
            bytes: 1000,
        });
        let flows = [FlowId(1)];
        assert!(t.throughput_series(&flows, 0.0, 2.0).is_empty());
        assert!(t.throughput_series(&flows, -1.0, 2.0).is_empty());
        assert!(t.throughput_series(&flows, f64::NAN, 2.0).is_empty());
        assert!(t.throughput_series(&flows, 1.0, 0.0).is_empty());
        assert!(t.throughput_series(&flows, 1.0, -3.0).is_empty());
        assert!(t.throughput_series(&flows, 1.0, f64::NAN).is_empty());
        assert!(t.throughput_series(&flows, 1.0, f64::INFINITY).is_empty());
        // A bin/end ratio beyond any plausible plot is refused, not
        // allocated.
        assert!(t.throughput_series(&flows, 1e-300, 1e300).is_empty());
        // Sane geometry still works.
        assert_eq!(t.throughput_series(&flows, 1.0, 2.0).len(), 2);
    }

    #[test]
    fn throughput_series_bins_goodput() {
        let mut t = TraceSet::new(TraceConfig::all());
        // 1000 bytes at t=0.5 and 2000 bytes at t=1.5, bins of 1 s.
        t.goodput(GoodputEvent {
            time: SimTime::from_nanos(500_000_000),
            flow: FlowId(1),
            bytes: 1000,
        });
        t.goodput(GoodputEvent {
            time: SimTime::from_nanos(1_500_000_000),
            flow: FlowId(1),
            bytes: 2000,
        });
        // A flow we are not asking about.
        t.goodput(GoodputEvent {
            time: SimTime::from_nanos(500_000_000),
            flow: FlowId(9),
            bytes: 999_999,
        });
        let series = t.throughput_series(&[FlowId(1)], 1.0, 2.0);
        assert_eq!(series.len(), 2);
        assert!((series[0] - 8000.0).abs() < 1e-9);
        assert!((series[1] - 16000.0).abs() < 1e-9);
    }
}
