//! The simulator: topology ownership, the event loop, and routing.

use crate::event::{Event, EventQueue, SchedulerStats, TimerToken};
use crate::iface::{Ctx, Transport};
use crate::link::Link;
use crate::node::{Node, NodeKind};
use crate::packet::{FlowId, LinkId, NodeId, Packet};
use crate::queue::{QueueDisc, Verdict};
use crate::time::{SimDuration, SimTime};
use crate::trace::{CompletionRecord, LossRecord, MarkRecord, QueueSample, TraceConfig, TraceSet};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One row of [`Simulator::flow_summaries`].
#[derive(Clone, Copy, Debug)]
pub struct FlowSummary {
    /// The flow.
    pub flow: FlowId,
    /// Application bytes confirmed delivered.
    pub bytes_delivered: u64,
    /// Data packets sent, including retransmissions.
    pub packets_sent: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Congestion events the sender detected.
    pub loss_events: u64,
    /// Completion instant, if the flow finished.
    pub completed_at: Option<SimTime>,
}

/// Execution limits enforced by the event loop.
///
/// Campaign supervisors use these to bound a single path's run: an event
/// budget turns a runaway simulation (for example a timer feedback loop
/// that never quiesces) into a clean mid-run abort that the caller can
/// observe via [`Simulator::budget_exhausted`], instead of a hung worker.
/// `panic_at_event` is the deterministic fault-injection hook: the panic
/// originates inside [`Simulator::run_until`], on whatever worker thread
/// happens to be executing the path, exactly where a genuine simulator bug
/// would surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Stop processing once this many events (lifetime total) have been
    /// dispatched. `None` means unbounded.
    pub max_events: Option<u64>,
    /// Panic deterministically once this many events have been dispatched.
    /// `None` (the default) injects nothing.
    pub panic_at_event: Option<u64>,
}

impl RunLimits {
    /// No limits: run to the horizon.
    pub const NONE: RunLimits = RunLimits {
        max_events: None,
        panic_at_event: None,
    };

    /// Limits with only an event budget set.
    pub const fn max_events(budget: u64) -> RunLimits {
        RunLimits {
            max_events: Some(budget),
            panic_at_event: None,
        }
    }

    /// The first event count at which either limit trips (`u64::MAX` when
    /// unlimited) — a single comparison for the hot loop.
    fn trip_point(self) -> u64 {
        let budget = self.max_events.unwrap_or(u64::MAX);
        let panic_at = self.panic_at_event.unwrap_or(u64::MAX);
        if budget < panic_at {
            budget
        } else {
            panic_at
        }
    }
}

/// Per-kind event accounting, incremented as the loop dispatches.
///
/// Cheap enough to keep always-on (one integer add per event), and the
/// basis for BENCH_HYBRID.json's attribution of where a run's events went:
/// in packet mode background traffic shows up as arrivals + transmission
/// completions, in fluid mode it collapses into `rate_changes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Flow start events.
    pub(crate) flow_starts: u64,
    /// Transport timer fires (sends, RTOs, ON/OFF toggles, ...).
    pub timers: u64,
    /// Packet arrivals at a node (delivery or forwarding).
    pub arrivals: u64,
    /// Link serialization completions.
    pub tx_completes: u64,
    /// Periodic queue-occupancy samples.
    pub(crate) queue_samples: u64,
    /// Fluid background rate changes applied (these arrive inside timer
    /// events, so they are *in addition to* the loop's event total).
    pub rate_changes: u64,
}

impl EventCounts {
    /// Total events dispatched by the loop (rate changes excluded: they
    /// ride inside timer events rather than being scheduled themselves).
    pub fn total(&self) -> u64 {
        self.flow_starts + self.timers + self.arrivals + self.tx_completes + self.queue_samples
    }
}

/// A flow registered with the simulator.
pub struct FlowEntry {
    /// The protocol state machine.
    pub transport: Box<dyn Transport>,
    /// Sender host.
    pub src: NodeId,
    /// Receiver host.
    pub dst: NodeId,
    /// Scheduled start time.
    pub start_at: SimTime,
    /// When the flow completed, if it has.
    pub completed_at: Option<SimTime>,
}

/// A deterministic discrete-event network simulator.
///
/// Obtain one from [`crate::builder::SimBuilder`], which stages
/// construction (nodes → links → flows) and computes routes at
/// [`crate::builder::SimBuilder::build`] so the simulator is always ready
/// to [`Simulator::run_until`] the moment you hold one.
pub struct Simulator {
    /// Current simulated time.
    pub now: SimTime,
    /// All nodes, dense by id.
    pub nodes: Vec<Node>,
    /// All links, dense by id.
    pub links: Vec<Link>,
    /// All flows, dense by id.
    pub flows: Vec<FlowEntry>,
    /// Collected traces.
    pub trace: TraceSet,
    /// The simulation RNG (all randomness flows through this).
    pub(crate) rng: SmallRng,
    /// Events processed so far.
    pub events_processed: u64,
    events: EventQueue,
    next_packet_id: u64,
    outbox: Vec<(NodeId, Packet)>,
    fluid_outbox: Vec<(LinkId, f64)>,
    event_counts: EventCounts,
    monitored_links: Vec<LinkId>,
    monitor_interval: SimDuration,
    limits: RunLimits,
    limit_at: u64,
    budget_exhausted: bool,
}

impl Simulator {
    /// Internal constructor used by [`crate::builder::SimBuilder`].
    pub(crate) fn empty(seed: u64, trace: TraceConfig) -> Simulator {
        Simulator {
            now: SimTime::ZERO,
            nodes: Vec::new(),
            links: Vec::new(),
            flows: Vec::new(),
            trace: TraceSet::new(trace),
            rng: SmallRng::seed_from_u64(seed),
            events_processed: 0,
            events: EventQueue::new(),
            next_packet_id: 0,
            outbox: Vec::with_capacity(64),
            fluid_outbox: Vec::new(),
            event_counts: EventCounts::default(),
            monitored_links: Vec::new(),
            monitor_interval: SimDuration::ZERO,
            limits: RunLimits::NONE,
            limit_at: u64::MAX,
            budget_exhausted: false,
        }
    }

    /// Install execution limits (see [`RunLimits`]). Limits apply to the
    /// simulator's lifetime event count, so set them before the first run.
    pub fn set_run_limits(&mut self, limits: RunLimits) {
        self.limits = limits;
        self.limit_at = limits.trip_point();
    }

    /// Whether a previous [`Simulator::run_until`] aborted because the
    /// event budget in [`RunLimits::max_events`] was spent.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// The event queue's tuning counters: elements shifted per insert,
    /// days walked per pop, rebuilds.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.events.stats()
    }

    /// Sample the occupancy of `links` every `interval` into
    /// [`TraceSet::queue_samples`], starting now.
    pub fn monitor_queues(&mut self, links: &[LinkId], interval: SimDuration) {
        assert!(
            interval > SimDuration::ZERO,
            "monitor interval must be positive"
        );
        self.monitored_links = links.to_vec();
        self.monitor_interval = interval;
        self.events.schedule(self.now, Event::QueueSample);
    }

    /// Add a node; returns its id.
    pub(crate) fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, kind));
        id
    }

    /// Add a unidirectional link; returns its id.
    pub(crate) fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth_bps: f64,
        delay: SimDuration,
        disc: QueueDisc,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links
            .push(Link::new(id, from, to, bandwidth_bps, delay, disc));
        id
    }

    /// Add a pair of symmetric links between `a` and `b`; returns
    /// `(a->b, b->a)`.
    pub(crate) fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_bps: f64,
        delay: SimDuration,
        disc: QueueDisc,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, bandwidth_bps, delay, disc.clone());
        let ba = self.add_link(b, a, bandwidth_bps, delay, disc);
        (ab, ba)
    }

    /// Register a flow between `src` and `dst`, starting at `start_at`.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        start_at: SimTime,
        transport: Box<dyn Transport>,
    ) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowEntry {
            transport,
            src,
            dst,
            start_at,
            completed_at: None,
        });
        self.events
            .schedule(start_at, Event::FlowStart { flow: id });
        id
    }

    /// Set every node's routes, once, to shortest (hop-count) paths over
    /// the finished topology. Ties are broken toward the lower link id so
    /// routing is deterministic.
    pub(crate) fn compute_routes(&mut self) {
        let n = self.nodes.len();
        // Adjacency: for each node, outgoing (link, to) in link-id order.
        let mut adj: Vec<Vec<(LinkId, NodeId)>> = vec![Vec::new(); n];
        for l in &self.links {
            adj[l.from.index()].push((l.id, l.to));
        }
        // A node with one way out reaches its neighbour and whatever the
        // neighbour reaches, all by that one link. When the neighbour runs
        // its own search (it has another way out, or none) the node's
        // routes follow from the neighbour's: no search from the node, and
        // one route set per neighbour, shared by every node behind it.
        let derives_from = |src: usize| match adj[src][..] {
            [(link, nbr)] if adj[nbr.index()].len() != 1 => Some((link, nbr.index())),
            _ => None,
        };
        let mut dist = vec![u32::MAX; n];
        let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
        let mut q = VecDeque::new();
        for src in (0..n).filter(|&src| derives_from(src).is_none()) {
            dist.fill(u32::MAX);
            first_hop.fill(None);
            dist[src] = 0;
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(link, to) in &adj[u] {
                    let v = to.index();
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        first_hop[v] = if u == src { Some(link) } else { first_hop[u] };
                        q.push_back(v);
                    }
                }
            }
            self.nodes[src].set_routes(&first_hop);
        }
        let words = n.div_ceil(64);
        let mut reached_by: HashMap<usize, Arc<[u64]>> = HashMap::new();
        for src in 0..n {
            let Some((link, nbr)) = derives_from(src) else {
                continue;
            };
            let dsts = reached_by.entry(nbr).or_insert_with(|| {
                let mut dsts = self.nodes[nbr].routed_dsts(words);
                dsts[nbr / 64] |= 1 << (nbr % 64);
                dsts.into()
            });
            self.nodes[src].set_routes_via(link, Arc::clone(dsts));
        }
    }

    /// Run the simulation until `horizon`, then stop (events after the
    /// horizon remain queued). Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start_count = self.events_processed;
        while let Some((t, ev)) = self.events.pop_before(horizon) {
            // Checked in release builds too, where the campaigns run: one
            // predictable compare, and what a scheduler bug looks like.
            assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.events_processed += 1;
            self.dispatch(ev);
            // One compare per event: `limit_at` is u64::MAX unless limits
            // are installed, so the unlimited case never branches into
            // `trip_limit`.
            if self.events_processed >= self.limit_at {
                self.trip_limit();
                return self.events_processed - start_count;
            }
        }
        self.now = horizon;
        self.events_processed - start_count
    }

    /// A limit in [`RunLimits`] fired: either inject the configured panic
    /// or record budget exhaustion. `self.now` stays at the last dispatched
    /// event, mid-run, because that is where execution genuinely stopped.
    #[cold]
    fn trip_limit(&mut self) {
        if let Some(p) = self.limits.panic_at_event {
            if self.events_processed >= p {
                panic!("injected fault: simulator panic at event {p}");
            }
        }
        self.budget_exhausted = true;
    }

    /// Run until the event queue drains completely (only safe for workloads
    /// that terminate, e.g. bulk transfers with no periodic samplers).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::FlowStart { flow } => {
                self.event_counts.flow_starts += 1;
                self.with_transport(flow, |tr, ctx| tr.on_start(ctx));
            }
            Event::Timer { flow, token } => {
                self.event_counts.timers += 1;
                self.with_transport_timer(flow, token);
            }
            Event::Arrival { node, packet } => {
                self.event_counts.arrivals += 1;
                if packet.dst == node && self.nodes[node.index()].kind == NodeKind::Host {
                    let flow = packet.flow;
                    self.with_transport(flow, |tr, ctx| tr.on_packet(&packet, ctx));
                } else {
                    self.forward(node, packet);
                }
            }
            Event::LinkTxComplete { link } => {
                self.event_counts.tx_completes += 1;
                let out = self.links[link.index()].complete_tx(self.now, &mut self.rng);
                let to = self.links[link.index()].to;
                self.events.schedule(
                    self.now + out.arrival_in,
                    Event::Arrival {
                        node: to,
                        packet: out.packet,
                    },
                );
                if let Some(next) = out.next_tx {
                    self.events
                        .schedule(self.now + next, Event::LinkTxComplete { link });
                }
            }
            Event::QueueSample => {
                self.event_counts.queue_samples += 1;
                for &link in &self.monitored_links {
                    self.trace.queue_sample(QueueSample {
                        time: self.now,
                        link,
                        occupancy: self.links[link.index()].occupancy() as u32,
                    });
                }
                if !self.monitored_links.is_empty() {
                    self.events
                        .schedule(self.now + self.monitor_interval, Event::QueueSample);
                }
            }
            Event::Horizon => {}
        }
    }

    /// Route `packet` out of `node` (also used to inject fresh packets at
    /// their origin host).
    fn forward(&mut self, node: NodeId, packet: Packet) {
        let Some(link_id) = self.nodes[node.index()].route_to(packet.dst) else {
            // No route: the packet is silently dropped. This indicates a
            // topology construction bug, so fail loudly in debug builds.
            debug_assert!(
                false,
                "no route from {:?} to {:?} for {:?}",
                node, packet.dst, packet.flow
            );
            return;
        };
        let flow = packet.flow;
        let seq = packet.seq;
        let link = &mut self.links[link_id.index()];
        let out = link.enqueue(self.now, packet, &mut self.rng);
        match out.verdict {
            Verdict::Drop => self.trace.loss(LossRecord {
                time: self.now,
                link: link_id,
                flow,
                seq,
            }),
            Verdict::EnqueueMarked => self.trace.mark(MarkRecord {
                time: self.now,
                link: link_id,
                flow,
            }),
            Verdict::Enqueue => {}
        }
        if let Some(tx) = out.begin_tx {
            self.events
                .schedule(self.now + tx, Event::LinkTxComplete { link: link_id });
        }
    }

    /// Invoke a transport callback with a properly wired [`Ctx`], then
    /// flush any packets it emitted and check for completion.
    fn with_transport<F>(&mut self, flow: FlowId, f: F)
    where
        F: FnOnce(&mut dyn Transport, &mut Ctx),
    {
        let entry = &mut self.flows[flow.index()];
        let mut ctx = Ctx {
            now: self.now,
            flow,
            rng: &mut self.rng,
            trace: &mut self.trace,
            events: &mut self.events,
            outbox: &mut self.outbox,
            fluid_outbox: &mut self.fluid_outbox,
            next_packet_id: &mut self.next_packet_id,
        };
        f(entry.transport.as_mut(), &mut ctx);
        // Apply fluid background rate changes (ON/OFF toggles) before
        // injecting packets, so an enqueue decision at this instant sees
        // the post-toggle rate (the backlog itself is integrated under the
        // pre-toggle rate up to `now` either way).
        if !self.fluid_outbox.is_empty() {
            let mut deltas = std::mem::take(&mut self.fluid_outbox);
            for (link, delta_bps) in deltas.drain(..) {
                self.links[link.index()].add_fluid_rate(self.now, delta_bps);
                self.event_counts.rate_changes += 1;
            }
            self.fluid_outbox = deltas; // keep the allocation
        }
        // Completion check (records once).
        if entry.completed_at.is_none() && entry.transport.is_done() {
            entry.completed_at = Some(self.now);
            let bytes = entry.transport.progress().bytes_delivered;
            self.trace.complete(CompletionRecord {
                flow,
                time: self.now,
                bytes,
            });
        }
        // Inject emitted packets in the order the transport sent them (a
        // window-based TCP's back-to-back burst must hit the access queue
        // in sequence order).
        let mut out = std::mem::take(&mut self.outbox);
        for (origin, pkt) in out.drain(..) {
            self.forward(origin, pkt);
        }
        self.outbox = out; // keep the allocation
    }

    fn with_transport_timer(&mut self, flow: FlowId, token: TimerToken) {
        self.with_transport(flow, |tr, ctx| tr.on_timer(token, ctx));
    }

    /// Per-flow end-of-run summary: `(flow, bytes delivered, packets sent,
    /// retransmits, loss events, completion time)`.
    pub fn flow_summaries(&self) -> Vec<FlowSummary> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let p = f.transport.progress();
                FlowSummary {
                    flow: FlowId(i as u32),
                    bytes_delivered: p.bytes_delivered,
                    packets_sent: p.packets_sent,
                    retransmits: p.retransmits,
                    loss_events: p.loss_events,
                    completed_at: f.completed_at,
                }
            })
            .collect()
    }

    /// Per-kind event accounting for the run so far.
    pub fn event_counts(&self) -> EventCounts {
        self.event_counts
    }

    /// Sum of drops across all links.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|l| l.stats.dropped).sum()
    }

    /// Check packet conservation on every link (testing aid).
    pub fn all_links_conserve(&self) -> bool {
        self.links.iter().all(|l| l.conserves_packets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use crate::iface::FlowProgress;
    use crate::packet::PacketKind;
    use std::any::Any;

    /// A toy transport: sends `n` packets at start, counts echoes.
    struct Blaster {
        src: NodeId,
        dst: NodeId,
        n: u64,
        received: u64,
        size: u32,
    }

    impl Transport for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for seq in 0..self.n {
                ctx.send_from(
                    self.src,
                    Packet::data(ctx.flow, self.src, self.dst, self.size, seq),
                );
            }
        }
        fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
            if pkt.kind == PacketKind::Data {
                self.received += 1;
            }
        }
        fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {}
        fn is_done(&self) -> bool {
            self.received == self.n
        }
        fn progress(&self) -> FlowProgress {
            FlowProgress {
                bytes_delivered: self.received * self.size as u64,
                packets_sent: self.n,
                ..Default::default()
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn two_hosts_one_router() -> (Simulator, NodeId, NodeId) {
        let mut bld = SimBuilder::new(1).trace(TraceConfig::all());
        let a = bld.host();
        let r = bld.router();
        let b = bld.host();
        bld.duplex(
            a,
            r,
            8_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(100),
        );
        bld.duplex(
            r,
            b,
            8_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(100),
        );
        (bld.build(), a, b)
    }

    #[test]
    fn routes_are_computed_both_ways() {
        let (sim, a, b) = two_hosts_one_router();
        assert!(sim.nodes[a.index()].route_to(b).is_some());
        assert!(sim.nodes[b.index()].route_to(a).is_some());
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (mut sim, a, b) = two_hosts_one_router();
        let flow = sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 10,
                received: 0,
                size: 1000,
            }),
        );
        sim.run_to_quiescence();
        let entry = &sim.flows[flow.index()];
        assert!(entry.transport.is_done());
        assert!(entry.completed_at.is_some());
        assert_eq!(sim.trace.completions.len(), 1);
        assert_eq!(sim.trace.completions[0].bytes, 10_000);
        assert!(sim.all_links_conserve());
        // Timing: 10 packets of 1 ms serialization each on the first link,
        // pipelined through the second, plus 2 ms propagation. The last
        // packet leaves link 1 at 10 ms, arrives router at 11 ms, leaves
        // link 2 at 12 ms, arrives at 13 ms.
        let done = entry.completed_at.unwrap();
        assert_eq!(done.as_nanos(), 13_000_000);
    }

    #[test]
    fn buffer_overflow_is_traced() {
        let mut bld = SimBuilder::new(1).trace(TraceConfig::all());
        let a = bld.host();
        let b = bld.host();
        // Tiny buffer: 2 packets.
        bld.link(
            a,
            b,
            8_000_000.0,
            SimDuration::from_millis(1),
            QueueDisc::drop_tail(2),
        );
        let mut sim = bld.build();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 10,
                received: 0,
                size: 1000,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        // 10 sent back-to-back into a 2-packet buffer: 8 dropped... but the
        // first begins transmitting immediately, so occupancy peaks lower.
        // Just assert conservation and that drops were traced.
        assert!(sim.total_drops() > 0);
        assert_eq!(sim.total_drops() as usize, sim.trace.losses.len());
        assert!(sim.all_links_conserve());
    }

    #[test]
    fn run_until_respects_horizon() {
        let (mut sim, a, b) = two_hosts_one_router();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 10,
                received: 0,
                size: 1000,
            }),
        );
        // Horizon before anything can arrive (first arrival at 1+1... ms).
        sim.run_until(SimTime::ZERO + SimDuration::from_micros(10));
        assert_eq!(sim.trace.completions.len(), 0);
        assert_eq!(sim.now, SimTime::ZERO + SimDuration::from_micros(10));
        // Continue to the end.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.trace.completions.len(), 1);
    }

    #[test]
    fn flow_summaries_report_each_flow() {
        let (mut sim, a, b) = two_hosts_one_router();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 5,
                received: 0,
                size: 1000,
            }),
        );
        sim.run_to_quiescence();
        let rows = sim.flow_summaries();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].packets_sent, 5);
        assert_eq!(rows[0].bytes_delivered, 5000);
        assert!(rows[0].completed_at.is_some());
    }

    #[test]
    fn queue_monitoring_samples_periodically() {
        let (mut sim, a, b) = two_hosts_one_router();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 20,
                received: 0,
                size: 1000,
            }),
        );
        let link = sim.nodes[a.index()].route_to(b).unwrap();
        sim.monitor_queues(&[link], SimDuration::from_millis(1));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        let series = sim.trace.occupancy_series(link);
        // t = 0, 1, ..., 10 ms inclusive.
        assert_eq!(series.len(), 11);
        // The 20-packet burst drains at 1 packet/ms: occupancy decreases.
        assert!(series[0].1 >= series[5].1);
        assert!(series.iter().any(|&(_, occ)| occ > 0));
        // Samples are evenly spaced.
        for w in series.windows(2) {
            assert!((w[1].0 - w[0].0 - 0.001).abs() < 1e-9);
        }
    }

    #[test]
    fn sink_driven_run_observes_what_a_buffered_run_records() {
        use crate::trace::TraceSink;

        /// Streams drop timestamps instead of buffering LossRecords.
        #[derive(Default)]
        struct DropTimes {
            times: Vec<f64>,
        }
        impl TraceSink for DropTimes {
            fn on_loss(&mut self, rec: &LossRecord) {
                self.times.push(rec.time.as_secs_f64());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let build = |streaming: bool| {
            let mut bld = SimBuilder::new(3).trace(if streaming {
                TraceConfig::none()
            } else {
                TraceConfig::all()
            });
            let a = bld.host();
            let b = bld.host();
            bld.link(
                a,
                b,
                8_000_000.0,
                SimDuration::from_millis(1),
                QueueDisc::drop_tail(2),
            );
            let mut sim = bld.build();
            let idx = sim.trace.add_sink(Box::<DropTimes>::default());
            sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(Blaster {
                    src: a,
                    dst: b,
                    n: 30,
                    received: 0,
                    size: 1000,
                }),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            (sim, idx)
        };

        let (buffered, bidx) = build(false);
        let (streamed, sidx) = build(true);
        let batch_times: Vec<f64> = buffered
            .trace
            .losses
            .iter()
            .map(|l| l.time.as_secs_f64())
            .collect();
        assert!(!batch_times.is_empty(), "workload produced no drops");
        // Both sinks saw the identical drop sequence…
        let bsink: &DropTimes = buffered.trace.sink(bidx).unwrap();
        let ssink: &DropTimes = streamed.trace.sink(sidx).unwrap();
        assert_eq!(bsink.times, batch_times);
        assert_eq!(ssink.times, batch_times);
        // …while the streaming run buffered nothing.
        assert!(streamed.trace.losses.is_empty());
        assert!(streamed.trace.buffer_bytes() < buffered.trace.buffer_bytes());
    }

    #[test]
    fn event_budget_aborts_mid_run() {
        let (mut sim, a, b) = two_hosts_one_router();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 50,
                received: 0,
                size: 1000,
            }),
        );
        sim.set_run_limits(RunLimits::max_events(7));
        let processed = sim.run_until(SimTime::MAX);
        assert_eq!(processed, 7, "stops exactly at the budget");
        assert!(sim.budget_exhausted());
        assert!(!sim.events.is_empty(), "an aborted run leaves work queued");
        // The clock stays at the last dispatched event, not the horizon.
        assert!(sim.now < SimTime::MAX);
    }

    #[test]
    fn unlimited_run_never_reports_exhaustion() {
        let (mut sim, a, b) = two_hosts_one_router();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 10,
                received: 0,
                size: 1000,
            }),
        );
        sim.run_to_quiescence();
        assert!(!sim.budget_exhausted());
    }

    #[test]
    #[should_panic(expected = "injected fault: simulator panic at event")]
    fn injected_panic_fires_inside_the_event_loop() {
        let (mut sim, a, b) = two_hosts_one_router();
        sim.add_flow(
            a,
            b,
            SimTime::ZERO,
            Box::new(Blaster {
                src: a,
                dst: b,
                n: 10,
                received: 0,
                size: 1000,
            }),
        );
        sim.set_run_limits(RunLimits {
            max_events: None,
            panic_at_event: Some(3),
        });
        sim.run_to_quiescence();
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut sim, a, b) = two_hosts_one_router();
            sim.add_flow(
                a,
                b,
                SimTime::ZERO,
                Box::new(Blaster {
                    src: a,
                    dst: b,
                    n: 50,
                    received: 0,
                    size: 700,
                }),
            );
            sim.run_to_quiescence();
            (
                sim.events_processed,
                sim.trace.completions[0].time,
                sim.links[0].stats.transmitted_bytes,
            )
        };
        assert_eq!(run(), run());
    }
}
