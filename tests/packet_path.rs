//! A packet is one allocation from the transport that builds it to the
//! endpoint (or drop) that ends it: [`Packet`] is an owning pointer to its
//! `PacketBody`, and queues, events and the outbox move the pointer.
//! These tests count `PacketBody`-shaped allocations and frees under a
//! counting global allocator, so a `clone()` reintroduced on the hop path,
//! or a packet leaked by a simulator dropped mid-run, fails on a count
//! rather than on a stopwatch.
//!
//! The allocator recognises a body by its layout alone (136 bytes, align
//! 8), so everything is measured as deltas over a window, and a stray
//! allocation of that layout inside a window matters. It cannot make the
//! per-packet test pass wrongly: every packet built needs a body, so
//! `allocations >= packets sent` whatever else happens, and the test
//! asserts equality — a stray could only break it. That it does not was
//! checked by the tests passing on three seeds and two window lengths, and
//! by what a window allocates otherwise: event-queue buckets (32-byte
//! elements), the outbox (16), link queues (8, at power-of-two capacities)
//! and scoreboard runs (16) cannot make 136 = 17 × 8 bytes. One thing
//! outside the windows does: a boxed `Cbr` has a body's layout, so the
//! live-body checks take their baseline after the flows are built. They
//! compare the allocator's count with the packets the simulator says it
//! holds, at every window edge.

use lossburst::netsim::link::Link;
use lossburst::netsim::packet::PacketBody;
use lossburst::netsim::prelude::*;
use lossburst::transport::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

static BODY_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BODY_FREES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting requests shaped like a `PacketBody`.
/// `realloc` and `alloc_zeroed` keep their default bodies, which go through
/// `alloc` / `dealloc` here, so a buffer that grows through 136 bytes is
/// counted on both sides and the live count stays exact.
struct CountingAlloc;

// SAFETY: both methods pass their arguments unchanged to `System`, whose
// contract is the one the caller was held to; the counters are plain
// statics and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout == Layout::new::<PacketBody>() {
            BODY_ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `layout` is the caller's, valid by `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout == Layout::new::<PacketBody>() {
            BODY_FREES.fetch_add(1, Relaxed);
        }
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`, by `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-wide and the harness runs tests on parallel
/// threads: each test holds this for its whole body.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocator counters beside the simulator's own account of its packets.
#[derive(Clone, Copy, Debug)]
struct Tally {
    allocs: u64,
    live: u64,
    /// Packets transports have sent: arrivals at links that leave a host.
    sent: u64,
    /// Packet-hops: arrivals at any link.
    hops: u64,
    /// Packets waiting in link queues (or in service).
    queued: u64,
    /// Packets riding in `Arrival` events: every serialization completed
    /// schedules one, every arrival dispatched retires one.
    in_events: u64,
}

fn tally(sim: &Simulator) -> Tally {
    let from_host = |l: &&Link| sim.nodes[l.from.index()].kind == NodeKind::Host;
    let counts = sim.event_counts();
    Tally {
        allocs: BODY_ALLOCS.load(Relaxed),
        live: live_bodies(),
        sent: sim
            .links
            .iter()
            .filter(from_host)
            .map(|l| l.stats.arrived)
            .sum(),
        hops: sim.links.iter().map(|l| l.stats.arrived).sum(),
        queued: sim.links.iter().map(|l| l.occupancy() as u64).sum(),
        in_events: counts.tx_completes - counts.arrivals,
    }
}

fn live_bodies() -> u64 {
    BODY_ALLOCS.load(Relaxed) - BODY_FREES.load(Relaxed)
}

/// `src — left — (bottleneck) — right — dst`, three hops each way, with a
/// NewReno sender (windowed, ACK-clocked) and a CBR flow sharing them. The
/// bottleneck overflows, so some packets end at a drop and the rest at an
/// endpoint.
fn chain(seed: u64) -> Simulator {
    chain_beside(seed, &[]).0
}

/// [`chain`] and, beside it, one directly linked host pair per entry of
/// `delays` with a CBR flow over that link. Returns the chain's sending
/// host and each link beside it with its flow.
fn chain_beside(
    seed: u64,
    delays: &[SimDuration],
) -> (Simulator, NodeId, Vec<(LinkId, FlowHandle<Cbr>)>) {
    let mut b = SimBuilder::new(seed);
    let c = build_chain(
        &mut b,
        &ChainConfig {
            bottleneck_bps: 10e6,
            access_bps: 100e6,
            bottleneck_disc: QueueDisc::drop_tail(20),
            one_way_delay: SimDuration::from_millis(20),
            cross_pairs: 0,
            cross_delays: Vec::new(),
        },
    );
    let tcp = Sender::newreno(c.src, c.dst, TcpConfig::default());
    b.flow(SimTime::ZERO, Box::new(tcp));
    let cbr = Cbr::new(c.src, c.dst, 1000, 4e6);
    b.flow(SimTime::ZERO, Box::new(cbr));
    let links = delays
        .iter()
        .map(|&delay| {
            let (from, to) = (b.host(), b.host());
            let link = b.link(from, to, 100e6, delay, QueueDisc::drop_tail(100));
            let cbr = Cbr::new(from, to, 1000, 4e6);
            (link, b.flow(SimTime::ZERO, Box::new(cbr)))
        })
        .collect();
    (b.build(), c.src, links)
}

/// One body per packet sent, none per hop, and every body freed when its
/// packet is delivered or dropped.
#[test]
fn one_allocation_per_packet_and_none_per_hop() {
    let _guard = exclusive();
    for (seed, window_s) in [(1, 2), (2006, 2), (42, 5)] {
        let mut sim = chain(seed);
        let baseline = live_bodies();
        // Past slow start and the first losses: buffers have their size.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let before = tally(&sim);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3 + window_s));
        let after = tally(&sim);

        let sent = after.sent - before.sent;
        let hops = after.hops - before.hops;
        assert!(sent > 1_000, "seed {seed}: the window is empty: {after:?}");
        assert!(
            hops > 2 * sent && sim.total_drops() > 0,
            "seed {seed}: not a multi-hop, lossy window: {before:?} {after:?}"
        );
        assert_eq!(
            after.allocs - before.allocs,
            sent,
            "seed {seed}: {sent} packets over {hops} hops: {before:?} {after:?}"
        );
        for t in [before, after] {
            assert_eq!(
                t.live - baseline,
                t.queued + t.in_events,
                "seed {seed}: live bodies are not the packets in flight: {t:?}"
            );
        }
    }
}

/// A simulator stopped mid-run by its event budget holds packets in link
/// queues (fresh from their transport on the access link, waiting at the
/// bottleneck) and in `Arrival` events in every tier of the event queue:
/// 2 µs out on the `near` link (today's bucket or the next day's), 5–10 ms
/// out on the chain's links (a year or two ahead: the year wheel) and
/// 100 s out on the `far` link (the heap, for the whole run). Dropping it
/// frees them all.
#[test]
fn dropping_a_simulator_mid_run_frees_every_packet() {
    let _guard = exclusive();
    let before_build = live_bodies();
    let delays = [SimDuration::from_micros(2), SimDuration::from_secs(100)];
    let (mut sim, src, beside) = chain_beside(2006, &delays);
    let built = live_bodies();
    // Packets in propagation on the `i`th link beside the chain: those it
    // has transmitted less those its CBR flow has received.
    let propagating = |sim: &Simulator, i: usize| {
        let (link, flow) = beside[i];
        let received = sim.flow(flow).progress().bytes_delivered / 1000;
        sim.links[link.index()].stats.transmitted - received
    };
    // The first stop past 40 000 events that has packets in all those
    // places; the budget counts lifetime events, so raising it by one
    // dispatches one more.
    let mut budget = 40_000;
    let held = loop {
        sim.set_run_limits(RunLimits::max_events(budget));
        sim.run_until(SimTime::MAX);
        assert!(sim.budget_exhausted());
        let t = tally(&sim);
        let access = sim.links.iter().find(|l| l.from == src);
        let fresh = access.map_or(0, Link::occupancy) as u64;
        let (near, far) = (propagating(&sim, 0), propagating(&sim, 1));
        if fresh > 0 && t.queued > fresh && near > 0 && far > 0 && t.in_events > near + far {
            break t.queued + t.in_events;
        }
        budget += 1;
        assert!(budget < 50_000, "never held packets everywhere: {t:?}");
    };
    assert_eq!(live_bodies() - built, held);
    drop(sim);
    assert_eq!(live_bodies(), before_build);
}

/// A packet refused by a full droptail queue is freed by the refusal, not
/// parked until the link or the simulator goes away.
#[test]
fn a_dropped_packet_is_freed_at_the_drop() {
    let _guard = exclusive();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut link = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        8e6,
        SimDuration::from_millis(1),
        QueueDisc::drop_tail(2),
    );
    let baseline = live_bodies();
    let frees = BODY_FREES.load(Relaxed);
    for seq in 0..2 {
        let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, seq);
        assert_ne!(
            link.enqueue(SimTime::ZERO, pkt, &mut rng).verdict,
            Verdict::Drop
        );
    }
    assert_eq!(
        (live_bodies() - baseline, BODY_FREES.load(Relaxed) - frees),
        (2, 0)
    );
    let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, 2);
    assert_eq!(
        link.enqueue(SimTime::ZERO, pkt, &mut rng).verdict,
        Verdict::Drop
    );
    assert_eq!(
        (live_bodies() - baseline, BODY_FREES.load(Relaxed) - frees),
        (2, 1)
    );
    drop(link);
    assert_eq!(live_bodies(), baseline);
}
