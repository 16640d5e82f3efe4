//! Property-style tests of the simulator substrate, driven by seeded
//! pseudo-random sweeps (deterministic: every case is a fixed function of
//! its seed, so a failure reproduces exactly).

use lossburst_netsim::event::{Event, EventQueue};
use lossburst_netsim::prelude::*;
use lossburst_testkit::schedule::{HeapOracle, QueueOp, SCHEDULES};
use lossburst_testkit::sweep::{sweep, with_rng, RngExt};

/// The event queue is a stable priority queue: pops are sorted by time,
/// and equal times preserve insertion order — the sequence the heap
/// oracle pops.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    sweep(0xE0E0, 40, |case, gen| {
        let n = gen.random_range(1..200usize);
        let times: Vec<u64> = (0..n).map(|_| gen.random_range(0..1000u64)).collect();
        let mut q = EventQueue::new();
        let mut oracle = HeapOracle::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(
                SimTime::from_nanos(t),
                Event::FlowStart {
                    flow: FlowId(i as u32),
                },
            );
            oracle.schedule(t, i as u32);
        }
        let mut popped: Vec<(u64, u32)> = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Event::FlowStart { flow } = ev {
                popped.push((t.as_nanos(), flow.0));
            }
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "ordering violated (case {case}): {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        let expected: Vec<(u64, u32)> = std::iter::from_fn(|| oracle.pop()).collect();
        assert!(popped == expected, "queue and oracle diverge (case {case})");
    });
}

/// The same holds with every tier of the wheel in play: on each `testkit`
/// schedule, at a random seed and length, the queue pops the oracle's
/// `(time, id)` sequence in stable priority order, through the churn and
/// then down to empty — out of the sorted day, the unsorted days and
/// years, and the heap beyond them.
#[test]
fn queue_agrees_with_the_oracle_on_every_schedule() {
    sweep(0xCA1E, 6, |case, gen| {
        let seed = gen.random_range(0..u64::MAX);
        let churn = gen.random_range(5_000..40_000usize);
        for schedule in SCHEDULES {
            let mut q = EventQueue::new();
            let mut oracle = HeapOracle::new();
            let mut next_id = 0u32;
            let mut popped: Vec<(u64, u32)> = Vec::new();
            let mut pop = |q: &mut EventQueue, oracle: &mut HeapOracle| {
                let expected = oracle.pop();
                let Some((t, Event::FlowStart { flow })) = q.pop() else {
                    assert!(expected.is_none(), "queue drained early (case {case})");
                    return None;
                };
                assert!(
                    expected == Some((t.as_nanos(), flow.0)),
                    "queue and oracle diverge (case {case})"
                );
                popped.push((t.as_nanos(), flow.0));
                Some(t.as_nanos())
            };
            schedule(seed, churn, &mut |op| match op {
                QueueOp::Schedule(at) => {
                    let flow = FlowId(next_id);
                    q.schedule(SimTime::from_nanos(at), Event::FlowStart { flow });
                    oracle.schedule(at, next_id);
                    next_id += 1;
                    None
                }
                QueueOp::Pop => pop(&mut q, &mut oracle),
            });
            while pop(&mut q, &mut oracle).is_some() {}
            let s = q.stats();
            assert!(
                s.cascaded > 0 && s.beyond > 0 && s.rebuilds == 0,
                "case {case}: a tier sat idle: {s:?}"
            );
            assert_eq!(popped.len(), next_id as usize);
            assert!(
                popped.windows(2).all(|w| w[0] < w[1]),
                "ordering violated (case {case})"
            );
        }
    });
}

/// Time arithmetic: (t + d1) + d2 == (t + d2) + d1, and quantization is
/// idempotent and never increases the value.
#[test]
fn time_arithmetic_laws() {
    with_rng(0x71AE, |gen| {
        for _ in 0..500 {
            let t = gen.random_range(0..u64::MAX / 4);
            let d1 = gen.random_range(0..1u64 << 40);
            let d2 = gen.random_range(0..1u64 << 40);
            let tick = gen.random_range(1..1u64 << 30);
            let t0 = SimTime::from_nanos(t);
            let a = t0 + SimDuration::from_nanos(d1) + SimDuration::from_nanos(d2);
            let b = t0 + SimDuration::from_nanos(d2) + SimDuration::from_nanos(d1);
            assert_eq!(a, b);
            let tk = SimDuration::from_nanos(tick);
            let q = t0.quantize(tk);
            assert!(q <= t0);
            assert_eq!(q.quantize(tk), q);
            assert_eq!(q.as_nanos() % tick, 0);
        }
    });
}

struct Burst {
    src: NodeId,
    dst: NodeId,
    n: usize,
}

impl Transport for Burst {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for i in 0..self.n {
            ctx.send_from(
                self.src,
                Packet::data(ctx.flow, self.src, self.dst, 1000, i as u64),
            );
        }
    }
    fn on_packet(&mut self, _p: &Packet, _c: &mut Ctx) {}
    fn on_timer(&mut self, _t: TimerToken, _c: &mut Ctx) {}
    fn progress(&self) -> FlowProgress {
        FlowProgress::default()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A DropTail queue never exceeds its limit and conserves packets under
/// an arbitrary arrival burst.
#[test]
fn droptail_occupancy_bounded() {
    sweep(0xD707, 30, |case, gen| {
        let limit = gen.random_range(1..32usize);
        let count = gen.random_range(1..100usize);
        let seed = gen.random_range(0..1000u64);

        let mut b = SimBuilder::new(seed).trace(TraceConfig::all());
        let src = b.host();
        let dst = b.host();
        // Very slow link so arrivals mostly queue.
        let link = b.link(
            src,
            dst,
            80_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(limit),
        );
        b.flow(
            src,
            dst,
            SimTime::ZERO,
            Box::new(Burst { src, dst, n: count }),
        );
        let mut sim = b.build();
        sim.monitor_queues(&[link], SimDuration::from_millis(5));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
        for (_, occ) in sim.trace.occupancy_series(link) {
            assert!(
                occ as usize <= limit,
                "occupancy {occ} > limit {limit} (case {case})"
            );
        }
        assert!(sim.all_links_conserve());
    });
}

/// Shortest-path routing on a random connected graph: every node reaches
/// every other node, and walking the next hops terminates (no loops).
#[test]
fn routing_has_no_loops() {
    sweep(0x2007, 40, |case, gen| {
        let n = gen.random_range(2..10usize);
        let extra = gen.random_range(0..10usize);

        let mut b = SimBuilder::new(case);
        let nodes: Vec<NodeId> = (0..n).map(|_| b.router()).collect();
        // A spanning chain keeps it connected; extra random edges add cycles.
        for w in nodes.windows(2) {
            b.duplex(
                w[0],
                w[1],
                1e6,
                SimDuration::from_millis(1),
                QueueDisc::drop_tail(10),
            );
        }
        for _ in 0..extra {
            let i = gen.random_range(0..n);
            let j = gen.random_range(0..n);
            if i != j {
                b.duplex(
                    nodes[i],
                    nodes[j],
                    1e6,
                    SimDuration::from_millis(1),
                    QueueDisc::drop_tail(10),
                );
            }
        }
        let sim = b.build();
        for &src in &nodes {
            for &dst in &nodes {
                if src == dst {
                    continue;
                }
                let mut here = src;
                let mut hops = 0;
                while here != dst {
                    let link = sim.nodes[here.index()].route_to(dst);
                    assert!(link.is_some(), "no route {src:?}->{dst:?} at {here:?}");
                    here = sim.links[link.unwrap().index()].to;
                    hops += 1;
                    assert!(hops <= n, "routing loop {src:?}->{dst:?} (case {case})");
                }
            }
        }
    });
}

/// A link delivers packets in FIFO order regardless of sizes.
#[test]
fn links_deliver_in_order() {
    struct Order {
        src: NodeId,
        dst: NodeId,
        sizes: Vec<u32>,
        got: Vec<u64>,
    }
    impl Transport for Order {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, &sz) in self.sizes.iter().enumerate() {
                ctx.send_from(
                    self.src,
                    Packet::data(ctx.flow, self.src, self.dst, sz, i as u64),
                );
            }
        }
        fn on_packet(&mut self, p: &Packet, _c: &mut Ctx) {
            self.got.push(p.seq);
        }
        fn on_timer(&mut self, _t: TimerToken, _c: &mut Ctx) {}
        fn progress(&self) -> FlowProgress {
            FlowProgress::default()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    sweep(0xF1F0, 30, |case, gen| {
        let n = gen.random_range(1..80usize);
        let sizes: Vec<u32> = (0..n).map(|_| gen.random_range(40..1500u32)).collect();

        let mut b = SimBuilder::new(case);
        let src = b.host();
        let dst = b.host();
        b.link(
            src,
            dst,
            1e6,
            SimDuration::from_millis(2),
            QueueDisc::drop_tail(10_000),
        );
        let f = b.flow(
            src,
            dst,
            SimTime::ZERO,
            Box::new(Order {
                src,
                dst,
                sizes: sizes.clone(),
                got: vec![],
            }),
        );
        let mut sim = b.build();
        sim.run_to_quiescence();
        let t = sim.flows[f.index()]
            .transport
            .as_any()
            .downcast_ref::<Order>()
            .unwrap();
        assert_eq!(t.got.len(), sizes.len());
        for (i, &seq) in t.got.iter().enumerate() {
            assert_eq!(seq, i as u64, "delivery out of order (case {case})");
        }
    });
}
