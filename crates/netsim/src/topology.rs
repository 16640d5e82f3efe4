//! Topology builders for the paper's experiment setups.
//!
//! * [`DumbbellConfig`] — the Fig 1 setup: N sender/receiver pairs sharing
//!   one bottleneck, with per-pair access latencies that set each flow's RTT.
//! * [`ChainConfig`] — a single end-to-end path with a bottleneck hop, used
//!   by the synthetic-Internet substrate (one instance per PlanetLab path).

use crate::builder::SimBuilder;
use crate::packet::{LinkId, NodeId};
use crate::queue::QueueDisc;
use crate::rng::Sampler;
use crate::time::SimDuration;
use rand::rngs::SmallRng;

/// How per-pair round-trip latencies are assigned in a dumbbell.
#[derive(Clone, Debug)]
pub enum RttAssignment {
    /// Each pair's RTT drawn uniformly from `[lo, hi]` (the paper's NS-2
    /// setup: 2 ms to 200 ms).
    Uniform(SimDuration, SimDuration),
    /// Pairs cycle through fixed classes (the paper's Dummynet setup:
    /// 2, 10, 50, 200 ms).
    Classes(Vec<SimDuration>),
    /// Every pair has the same RTT (the Fig 7 setup: 50 ms).
    Fixed(SimDuration),
}

impl RttAssignment {
    fn rtt_for(&self, pair: usize, rng: &mut SmallRng) -> SimDuration {
        match self {
            RttAssignment::Uniform(lo, hi) => Sampler::uniform_duration(rng, *lo, *hi),
            RttAssignment::Classes(classes) => classes[pair % classes.len()],
            RttAssignment::Fixed(rtt) => *rtt,
        }
    }
}

/// Configuration for the Fig 1 dumbbell.
#[derive(Clone, Debug)]
pub struct DumbbellConfig {
    /// Number of sender/receiver pairs.
    pub pairs: usize,
    /// Bottleneck capacity in bits/second (paper: 100 Mbps).
    pub bottleneck_bps: f64,
    /// Access link capacity in bits/second (paper: 1 Gbps).
    pub access_bps: f64,
    /// Queue discipline template for the two bottleneck directions.
    pub bottleneck_disc: QueueDisc,
    /// Buffer for access links, in packets (large; access is never the
    /// bottleneck in the paper's setup).
    pub access_buffer_pkts: usize,
    /// Per-pair round-trip latency assignment.
    pub rtt: RttAssignment,
}

impl DumbbellConfig {
    /// The paper's baseline: 100 Mbps bottleneck, 1 Gbps access links,
    /// DropTail with the given buffer.
    pub fn paper_baseline(pairs: usize, buffer_pkts: usize, rtt: RttAssignment) -> DumbbellConfig {
        DumbbellConfig {
            pairs,
            bottleneck_bps: 100e6,
            access_bps: 1e9,
            bottleneck_disc: QueueDisc::drop_tail(buffer_pkts),
            access_buffer_pkts: 10_000,
            rtt,
        }
    }
}

/// The constructed dumbbell: node/link handles for wiring up flows.
#[derive(Clone, Debug)]
pub struct Dumbbell {
    /// Sender hosts, one per pair.
    pub senders: Vec<NodeId>,
    /// Receiver hosts, one per pair.
    pub receivers: Vec<NodeId>,
    /// The forward (left→right) bottleneck — where the paper measures drops.
    pub bottleneck: LinkId,
    /// The reverse (right→left) bottleneck carrying acknowledgments.
    pub reverse_bottleneck: LinkId,
    /// Each pair's assigned round-trip propagation latency.
    pub pair_rtts: Vec<SimDuration>,
}

/// Build a dumbbell in `b`. Each pair's RTT is split evenly over its four
/// access segments so the end-to-end round-trip propagation equals the
/// assigned value (the bottleneck hop adds a negligible 10 µs each way).
/// Routes are computed when the builder's `build()` runs.
pub fn build_dumbbell(b: &mut SimBuilder, cfg: &DumbbellConfig) -> Dumbbell {
    let left = b.router();
    let right = b.router();
    let bottleneck_delay = SimDuration::from_micros(10);
    let bottleneck = b.link(
        left,
        right,
        cfg.bottleneck_bps,
        bottleneck_delay,
        cfg.bottleneck_disc.clone(),
    );
    let reverse_bottleneck = b.link(
        right,
        left,
        cfg.bottleneck_bps,
        bottleneck_delay,
        cfg.bottleneck_disc.clone(),
    );

    let mut senders = Vec::with_capacity(cfg.pairs);
    let mut receivers = Vec::with_capacity(cfg.pairs);
    let mut pair_rtts = Vec::with_capacity(cfg.pairs);
    for pair in 0..cfg.pairs {
        let rtt = cfg.rtt.rtt_for(pair, b.rng());
        let seg = rtt / 4;
        let s = b.host();
        let r = b.host();
        b.duplex(
            s,
            left,
            cfg.access_bps,
            seg,
            QueueDisc::drop_tail(cfg.access_buffer_pkts),
        );
        b.duplex(
            right,
            r,
            cfg.access_bps,
            seg,
            QueueDisc::drop_tail(cfg.access_buffer_pkts),
        );
        senders.push(s);
        receivers.push(r);
        pair_rtts.push(rtt);
    }
    Dumbbell {
        senders,
        receivers,
        bottleneck,
        reverse_bottleneck,
        pair_rtts,
    }
}

/// Configuration for a single end-to-end path (synthetic Internet).
#[derive(Clone, Debug)]
pub struct ChainConfig {
    /// Bottleneck capacity in bits/second.
    pub bottleneck_bps: f64,
    /// Access capacity in bits/second.
    pub access_bps: f64,
    /// Bottleneck queue discipline.
    pub bottleneck_disc: QueueDisc,
    /// One-way propagation delay of the whole path.
    pub one_way_delay: SimDuration,
    /// Number of extra host pairs attached at the routers for cross-traffic.
    pub cross_pairs: usize,
    /// One-way delays for the cross-traffic pairs (cycled).
    pub cross_delays: Vec<SimDuration>,
}

/// The constructed chain.
#[derive(Clone, Debug)]
pub struct Chain {
    /// Probe sender host.
    pub src: NodeId,
    /// Probe receiver host.
    pub dst: NodeId,
    /// The congested link.
    pub bottleneck: LinkId,
    /// Cross-traffic sender hosts (attached at the ingress router).
    pub cross_senders: Vec<NodeId>,
    /// Cross-traffic receiver hosts (attached at the egress router).
    pub cross_receivers: Vec<NodeId>,
}

/// Build a chain path: `src — left — (bottleneck) — right — dst` with
/// cross-traffic pairs hanging off the two routers.
pub fn build_chain(b: &mut SimBuilder, cfg: &ChainConfig) -> Chain {
    let left = b.router();
    let right = b.router();
    let src = b.host();
    let dst = b.host();
    let half = cfg.one_way_delay / 2;
    let bottleneck = b.link(
        left,
        right,
        cfg.bottleneck_bps,
        half,
        cfg.bottleneck_disc.clone(),
    );
    // Reverse direction is provisioned and uncongested (feedback path).
    b.link(
        right,
        left,
        cfg.access_bps,
        half,
        QueueDisc::drop_tail(10_000),
    );
    b.duplex(
        src,
        left,
        cfg.access_bps,
        half / 2,
        QueueDisc::drop_tail(10_000),
    );
    b.duplex(
        right,
        dst,
        cfg.access_bps,
        half / 2,
        QueueDisc::drop_tail(10_000),
    );
    let mut cross_senders = Vec::with_capacity(cfg.cross_pairs);
    let mut cross_receivers = Vec::with_capacity(cfg.cross_pairs);
    for i in 0..cfg.cross_pairs {
        let d = if cfg.cross_delays.is_empty() {
            half / 2
        } else {
            cfg.cross_delays[i % cfg.cross_delays.len()]
        };
        let cs = b.host();
        let cr = b.host();
        b.duplex(cs, left, cfg.access_bps, d, QueueDisc::drop_tail(10_000));
        b.duplex(right, cr, cfg.access_bps, d, QueueDisc::drop_tail(10_000));
        cross_senders.push(cs);
        cross_receivers.push(cr);
    }
    Chain {
        src,
        dst,
        bottleneck,
        cross_senders,
        cross_receivers,
    }
}

/// A star of `n` hosts around one core switch: every host has a single
/// duplex access link, so all-to-all transfers contend at the receivers'
/// access links (the incast pattern of a MapReduce shuffle — the paper's
/// future-work scenario).
#[derive(Clone, Debug)]
pub struct Star {
    /// The core switch.
    pub core: NodeId,
    /// The hosts.
    pub hosts: Vec<NodeId>,
}

/// Build a star: `n` hosts, each with a duplex `access_bps` link of
/// `access_delay` one-way and `buffer_pkts` of DropTail buffering in both
/// directions.
pub fn build_star(
    b: &mut SimBuilder,
    n: usize,
    access_bps: f64,
    access_delay: SimDuration,
    buffer_pkts: usize,
) -> Star {
    let core = b.router();
    let hosts: Vec<NodeId> = (0..n)
        .map(|_| {
            let h = b.host();
            b.duplex(
                h,
                core,
                access_bps,
                access_delay,
                QueueDisc::drop_tail(buffer_pkts),
            );
            h
        })
        .collect();
    Star { core, hosts }
}

/// A parking-lot topology: a chain of `hops + 1` routers with one
/// long-haul pair crossing every hop and one local pair per hop — the
/// canonical multi-bottleneck extension of the paper's single-bottleneck
/// dumbbell.
#[derive(Clone, Debug)]
pub struct ParkingLot {
    /// The long-haul sender (enters at the first router).
    pub long_src: NodeId,
    /// The long-haul receiver (exits at the last router).
    pub long_dst: NodeId,
    /// Per-hop local senders (local pair i crosses only hop i).
    pub local_srcs: Vec<NodeId>,
    /// Per-hop local receivers.
    pub local_dsts: Vec<NodeId>,
    /// The forward inter-router links (the potential bottlenecks), hop order.
    pub hop_links: Vec<LinkId>,
}

/// Build a parking lot with `hops` inter-router links of `hop_bps` each and
/// 1 Gbps access links. Every hop's forward link gets a clone of `disc`.
pub fn build_parking_lot(
    b: &mut SimBuilder,
    hops: usize,
    hop_bps: f64,
    hop_delay: SimDuration,
    disc: QueueDisc,
) -> ParkingLot {
    assert!(hops >= 1);
    let routers: Vec<NodeId> = (0..=hops).map(|_| b.router()).collect();
    let mut hop_links = Vec::with_capacity(hops);
    for w in routers.windows(2) {
        let fwd = b.link(w[0], w[1], hop_bps, hop_delay, disc.clone());
        b.link(w[1], w[0], hop_bps, hop_delay, QueueDisc::drop_tail(10_000));
        hop_links.push(fwd);
    }
    let access = |b: &mut SimBuilder, r: NodeId| {
        let h = b.host();
        b.duplex(
            h,
            r,
            1e9,
            SimDuration::from_micros(100),
            QueueDisc::drop_tail(10_000),
        );
        h
    };
    let long_src = access(b, routers[0]);
    let long_dst = access(b, routers[hops]);
    let mut local_srcs = Vec::with_capacity(hops);
    let mut local_dsts = Vec::with_capacity(hops);
    for i in 0..hops {
        local_srcs.push(access(b, routers[i]));
        local_dsts.push(access(b, routers[i + 1]));
    }
    ParkingLot {
        long_src,
        long_dst,
        local_srcs,
        local_dsts,
        hop_links,
    }
}

/// Packets in one bandwidth-delay product at the given packet size — the
/// unit the paper uses for buffer sizing (⅛ BDP to 2 BDP).
pub fn bdp_packets(bandwidth_bps: f64, rtt: SimDuration, pkt_bytes: u32) -> usize {
    let bits = bandwidth_bps * rtt.as_secs_f64();
    ((bits / 8.0 / pkt_bytes as f64).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_math() {
        // 100 Mbps * 100 ms = 10 Mbit = 1.25 MB = 1250 packets of 1000 B.
        assert_eq!(
            bdp_packets(100e6, SimDuration::from_millis(100), 1000),
            1250
        );
        // Never zero.
        assert_eq!(bdp_packets(1e3, SimDuration::from_micros(1), 1500), 1);
    }

    #[test]
    fn dumbbell_wires_all_pairs() {
        let mut b = SimBuilder::new(7);
        let cfg = DumbbellConfig::paper_baseline(
            4,
            100,
            RttAssignment::Classes(vec![
                SimDuration::from_millis(2),
                SimDuration::from_millis(10),
                SimDuration::from_millis(50),
                SimDuration::from_millis(200),
            ]),
        );
        let db = build_dumbbell(&mut b, &cfg);
        let sim = b.build();
        assert_eq!(db.senders.len(), 4);
        assert_eq!(db.receivers.len(), 4);
        assert_eq!(db.pair_rtts[3], SimDuration::from_millis(200));
        // Every sender can route to every receiver and back.
        for &s in &db.senders {
            for &r in &db.receivers {
                assert!(sim.nodes[s.index()].route_to(r).is_some());
                assert!(sim.nodes[r.index()].route_to(s).is_some());
            }
        }
        // 2 routers + 2 hosts per pair.
        assert_eq!(sim.nodes.len(), 2 + 8);
        // 2 bottleneck links + 4 access links per pair.
        assert_eq!(sim.links.len(), 2 + 16);
    }

    #[test]
    fn dumbbell_uniform_rtts_in_range() {
        let mut b = SimBuilder::new(9);
        let cfg = DumbbellConfig::paper_baseline(
            32,
            100,
            RttAssignment::Uniform(SimDuration::from_millis(2), SimDuration::from_millis(200)),
        );
        let db = build_dumbbell(&mut b, &cfg);
        for rtt in &db.pair_rtts {
            assert!(*rtt >= SimDuration::from_millis(2) && *rtt <= SimDuration::from_millis(200));
        }
    }

    #[test]
    fn chain_routes_src_to_dst_via_bottleneck() {
        let mut b = SimBuilder::new(3);
        let cfg = ChainConfig {
            bottleneck_bps: 10e6,
            access_bps: 1e9,
            bottleneck_disc: QueueDisc::drop_tail(50),
            one_way_delay: SimDuration::from_millis(40),
            cross_pairs: 3,
            cross_delays: vec![SimDuration::from_millis(5), SimDuration::from_millis(30)],
        };
        let ch = build_chain(&mut b, &cfg);
        let sim = b.build();
        // src routes toward dst through the ingress router, the
        // bottleneck's tail.
        let ingress = sim.links[ch.bottleneck.index()].from;
        let first = sim.nodes[ch.src.index()].route_to(ch.dst).unwrap();
        assert_eq!(sim.links[first.index()].to, ingress);
        // Cross-traffic senders route through the same bottleneck.
        let hop = sim.nodes[ingress.index()]
            .route_to(ch.cross_receivers[0])
            .unwrap();
        assert_eq!(hop, ch.bottleneck);
    }

    #[test]
    fn star_routes_through_core() {
        let mut b = SimBuilder::new(4);
        let star = build_star(&mut b, 5, 1e9, SimDuration::from_millis(1), 128);
        let sim = b.build();
        assert_eq!(star.hosts.len(), 5);
        // 5 duplex access links = 10 unidirectional.
        assert_eq!(sim.links.len(), 10);
        for &a in &star.hosts {
            for &b in &star.hosts {
                if a != b {
                    let first = sim.nodes[a.index()].route_to(b).unwrap();
                    assert_eq!(sim.links[first.index()].to, star.core);
                }
            }
        }
    }

    #[test]
    fn parking_lot_routes_cross_all_hops() {
        let mut b = SimBuilder::new(6);
        let pl = build_parking_lot(
            &mut b,
            3,
            10e6,
            SimDuration::from_millis(5),
            QueueDisc::drop_tail(64),
        );
        let sim = b.build();
        assert_eq!(pl.hop_links.len(), 3);
        assert_eq!(pl.local_srcs.len(), 3);
        // The long-haul path must traverse every hop link in order.
        let mut here = pl.long_src;
        let mut crossed = Vec::new();
        while here != pl.long_dst {
            let link = sim.nodes[here.index()].route_to(pl.long_dst).unwrap();
            if pl.hop_links.contains(&link) {
                crossed.push(link);
            }
            here = sim.links[link.index()].to;
        }
        assert_eq!(crossed, pl.hop_links);
        // Each local pair crosses exactly its own hop.
        for i in 0..3 {
            let mut here = pl.local_srcs[i];
            let mut crossed = Vec::new();
            while here != pl.local_dsts[i] {
                let link = sim.nodes[here.index()].route_to(pl.local_dsts[i]).unwrap();
                if pl.hop_links.contains(&link) {
                    crossed.push(link);
                }
                here = sim.links[link.index()].to;
            }
            assert_eq!(crossed, vec![pl.hop_links[i]]);
        }
    }

    /// The textbook dense table — BFS from every source, lower link id
    /// first — that `compute_routes`' compact per-node forms and derived
    /// single-homed routes must reproduce entry for entry.
    fn reference_routes(sim: &crate::sim::Simulator) -> Vec<Vec<Option<LinkId>>> {
        let n = sim.nodes.len();
        (0..n)
            .map(|src| {
                let mut first_hop = vec![None; n];
                let mut seen = vec![false; n];
                seen[src] = true;
                let mut q = std::collections::VecDeque::from([src]);
                while let Some(u) = q.pop_front() {
                    for l in sim.links.iter().filter(|l| l.from.index() == u) {
                        let v = l.to.index();
                        if !seen[v] {
                            seen[v] = true;
                            first_hop[v] = if u == src { Some(l.id) } else { first_hop[u] };
                            q.push_back(v);
                        }
                    }
                }
                first_hop
            })
            .collect()
    }

    fn assert_routes_match(name: &str, sim: &crate::sim::Simulator, want: &[Vec<Option<LinkId>>]) {
        for (src, row) in want.iter().enumerate() {
            for (dst, hop) in row.iter().enumerate() {
                assert_eq!(
                    sim.nodes[src].route_to(NodeId(dst as u32)),
                    *hop,
                    "{name}: route {src} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn routes_match_a_dense_reference_on_every_topology() {
        type Build = fn(&mut SimBuilder);
        let topologies: [(&str, Build); 6] = [
            ("dumbbell", |b| {
                let rtt = RttAssignment::Fixed(SimDuration::from_millis(50));
                build_dumbbell(b, &DumbbellConfig::paper_baseline(5, 100, rtt));
            }),
            ("chain", |b| {
                let cfg = ChainConfig {
                    bottleneck_bps: 10e6,
                    access_bps: 1e9,
                    bottleneck_disc: QueueDisc::drop_tail(50),
                    one_way_delay: SimDuration::from_millis(40),
                    cross_pairs: 3,
                    cross_delays: vec![SimDuration::from_millis(5)],
                };
                build_chain(b, &cfg);
            }),
            ("star", |b| {
                build_star(b, 6, 1e9, SimDuration::from_millis(1), 64);
            }),
            ("parking lot", |b| {
                let disc = QueueDisc::drop_tail(64);
                build_parking_lot(b, 3, 10e6, SimDuration::from_millis(5), disc);
            }),
            ("complete graph", |b| {
                let hosts: Vec<NodeId> = (0..5).map(|_| b.host()).collect();
                for (i, &x) in hosts.iter().enumerate() {
                    for &y in &hosts[i + 1..] {
                        let disc = QueueDisc::drop_tail(64);
                        b.duplex(x, y, 1e9, SimDuration::from_millis(1), disc);
                    }
                }
            }),
            // A star beside an island it cannot reach: two hosts joined to
            // each other (single-homed, each the other's only neighbour),
            // a one-way stub that can send into the star but not be reached,
            // and a node with no links at all.
            ("island", |b| {
                let star = build_star(b, 3, 1e9, SimDuration::from_millis(1), 64);
                let (x, y) = (b.host(), b.host());
                b.duplex(
                    x,
                    y,
                    1e9,
                    SimDuration::from_millis(1),
                    QueueDisc::drop_tail(8),
                );
                let stub = b.host();
                b.link(
                    stub,
                    star.core,
                    1e9,
                    SimDuration::from_millis(1),
                    QueueDisc::drop_tail(8),
                );
                b.host();
            }),
        ];
        for (name, build) in topologies {
            let mut b = SimBuilder::new(11);
            build(&mut b);
            let sim = b.build();
            let want = reference_routes(&sim);
            if name == "island" {
                assert!(want.iter().flatten().any(Option::is_none));
                assert!(want[0][4].is_none() && want[4][5].is_some() && want[6][1].is_some());
            }
            assert_routes_match(name, &sim, &want);
        }
    }
}
