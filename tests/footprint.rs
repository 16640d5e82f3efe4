//! A simulation's memory follows its traffic, not its topology. Building a
//! dumbbell costs each pair its links and nodes and nothing that grows
//! with the number of pairs: single-homed hosts behind one router share
//! one route set, and a link allocates its packet ring only when a packet
//! first queues. These tests count the heap bytes a build leaves live
//! under a counting global allocator, so a per-host copy of a route set
//! (O(pairs²) in all) or a ring allocated up front fails on a byte count.
//!
//! Batch loss analysis allocates per window, not per loss: it reads its
//! trace where it lies. A high-water mark of the same count catches a
//! copy, a sort or a rebuilt timeline that is freed before the call
//! returns.
//!
//! Counts are per thread: each test measures what its own thread allocates
//! and frees, so tests running beside it, and the harness printing their
//! results, do not enter its windows.

use lossburst::analysis::burstiness::{analyze, counts_in_windows};
use lossburst::analysis::episodes::episode_report;
use lossburst::netsim::link::Link;
use lossburst::netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated less the bytes it has freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`peak_above`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Forwards to [`System`], adding each request's size to the calling
/// thread's `LIVE` (and raising its `PEAK`) and subtracting it on free. `realloc` and
/// `alloc_zeroed` keep their default bodies, which go through `alloc` /
/// `dealloc` here, so a buffer that grows is counted at its new size.
struct CountingAlloc;

fn count(bytes: isize) {
    // A thread being torn down has no `LIVE` left; its frees go uncounted.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: both methods pass their arguments unchanged to `System`, whose
// contract is the one the caller was held to; the counter is a plain
// thread-local integer and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: `layout` is the caller's, valid by `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`, by `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Run `f`, returning its result and the most heap this thread held at
/// once during it beyond what it held before.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = live();
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// Heap bytes left live by building a `pairs`-pair dumbbell simulator, and
/// the size of one of its nodes.
fn built(pairs: usize) -> (isize, usize) {
    let before = live();
    let mut b = SimBuilder::new(1);
    let rtt = RttAssignment::Fixed(SimDuration::from_millis(50));
    let db = build_dumbbell(&mut b, &DumbbellConfig::paper_baseline(pairs, 100, rtt));
    let sim = b.build();
    let bytes = live() - before;
    let node = std::mem::size_of_val(&sim.nodes[0]);
    drop((sim, db));
    (bytes, node)
}

/// Bytes per pair at 256 and at 4 096 pairs. Both sizes sit just above a
/// power of two (514 / 8 194 nodes, 1 026 / 16 386 links), so the node and
/// link vectors have grown to about twice their length at both, and a
/// pair's share of that slack is the same.
#[test]
fn a_dumbbell_costs_the_same_per_pair_at_any_size() {
    let (base, node) = built(0);
    let per_pair = |pairs: usize| (built(pairs).0 - base) as f64 / pairs as f64;
    let (small, large) = (per_pair(256), per_pair(4096));
    assert!(
        large <= 1.1 * small,
        "{large:.0} B a pair at 4 096 pairs against {small:.0} B at 256: \
         something grows with the topology"
    );
    // A pair is four links and two hosts, at twice their size for the
    // vectors' doubling; the routers' two dense tables and everything else
    // fit in the last 128 bytes.
    let bound = 2 * (4 * std::mem::size_of::<Link>() + 2 * node) + 128;
    assert!(
        large <= bound as f64,
        "{large:.0} B a pair, more than the {bound} B its links and nodes explain"
    );
}

#[test]
fn a_link_that_never_queued_holds_no_ring() {
    let before = live();
    let mut link = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        8e6,
        SimDuration::from_millis(1),
        QueueDisc::drop_tail(4),
    );
    assert_eq!(live() - before, 0, "Link::new allocated");
    let mut rng = SmallRng::seed_from_u64(1);
    let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, 0);
    let with_packet = live();
    link.enqueue(SimTime::ZERO, pkt, &mut rng);
    assert!(
        live() > with_packet,
        "the first queued packet allocates the ring"
    );
    drop(link);
    assert_eq!(live(), before);
}

/// 10⁶ RTT-normalized intervals: clusters of sub-RTT losses a few RTTs
/// apart, as the Fig 2–4 pooled studies hold them.
fn clustered_intervals() -> Vec<f64> {
    (0..1_000_000)
        .map(|i| {
            if i % 50 == 49 {
                3.0 + (i % 7) as f64
            } else {
                0.002
            }
        })
        .collect()
}

/// The loss instants of those intervals, first at 0.
fn timeline(intervals: &[f64]) -> Vec<f64> {
    let mut t = 0.0;
    std::iter::once(0.0)
        .chain(intervals.iter().map(|iv| {
            t += iv;
            t
        }))
        .collect()
}

#[test]
fn batch_analysis_allocates_per_window_not_per_loss() {
    let intervals = clustered_intervals();
    let windows = counts_in_windows(&timeline(&intervals), 1.0).len();
    let (report, peak) = peak_above(|| analyze(&intervals));
    assert_eq!(report.n_intervals, intervals.len());
    let bound = 8 * windows as isize + 4096;
    assert!(
        peak <= bound,
        "analyze held {peak} B at once over 10^6 intervals and {windows} windows; \
         the window counts explain {bound} B"
    );
}

#[test]
fn sorted_input_is_read_where_it_lies() {
    let times = timeline(&clustered_intervals());
    let (report, peak) = peak_above(|| episode_report(&times, 1.0));
    assert!(report.count > 1);
    assert_eq!(peak, 0, "episode_report allocated on sorted input");
    let (counts, peak) = peak_above(|| counts_in_windows(&times, 1.0));
    let output = (counts.capacity() * std::mem::size_of::<u64>()) as isize;
    assert_eq!(
        peak, output,
        "counts_in_windows held more than its {output} B of counts"
    );
}
