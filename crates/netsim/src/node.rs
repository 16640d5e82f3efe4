//! Nodes: hosts (flow endpoints) and routers (forwarders).
//!
//! Routing is static: [`crate::sim::Simulator::compute_routes`] fills in
//! every node's next hops once, whole, when the simulator is built
//! (shortest path by hop count). A node whose routes all leave by one link
//! stores that link and a bitset of the destinations it reaches; only a
//! node that uses two or more links holds a dense table indexed by
//! destination. Single-homed hosts behind the same neighbour reach the
//! same destinations, so they share one bitset (the neighbour's reachable
//! set plus the neighbour) instead of a copy each: a 1024-pair dumbbell's
//! 4096 hosts hold two sets between them, where a copy per host was 2 MB
//! and a table per host would be 134 MB.

use crate::packet::{LinkId, NodeId};
use std::sync::Arc;

/// Whether a node terminates flows or only forwards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An end host: packets destined to it are delivered to their flow.
    Host,
    /// A router: packets are forwarded by the next-hop table.
    Router,
}

/// A node in the topology.
#[derive(Clone, Debug)]
pub struct Node {
    id: NodeId,
    /// Host or router.
    pub kind: NodeKind,
    routes: Routes,
}

const _: () = assert!(std::mem::size_of::<Node>() <= 32);

#[derive(Clone, Debug)]
enum Routes {
    /// Next hop by destination index.
    Table(Box<[Option<LinkId>]>),
    /// Every destination whose bit is set in `dsts` leaves by `link`; the
    /// set may be shared, and may hold the node itself, which has no route.
    Via { link: LinkId, dsts: Arc<[u64]> },
}

impl Node {
    /// Create a node with no routes.
    pub(crate) fn new(id: NodeId, kind: NodeKind) -> Node {
        Node {
            id,
            kind,
            routes: Routes::Table(Box::default()),
        }
    }

    /// Install the routes of a search from this node: `first_hop[d]` is
    /// the link towards destination `d`. One link in use gives the compact
    /// form, two or more the dense table.
    pub(crate) fn set_routes(&mut self, first_hop: &[Option<LinkId>]) {
        let mut hops = first_hop.iter().flatten();
        self.routes = match hops.next() {
            Some(&link) if hops.all(|&hop| hop == link) => Routes::Via {
                link,
                dsts: bitset(first_hop).into(),
            },
            _ => Routes::Table(first_hop.into()),
        };
    }

    /// Route every destination in the bitset `dsts` by `link`.
    pub(crate) fn set_routes_via(&mut self, link: LinkId, dsts: Arc<[u64]>) {
        self.routes = Routes::Via { link, dsts };
    }

    /// Next-hop link towards `dst`, if known.
    #[inline]
    pub fn route_to(&self, dst: NodeId) -> Option<LinkId> {
        match &self.routes {
            Routes::Table(table) => table.get(dst.index()).copied().flatten(),
            Routes::Via { link, dsts } => {
                (dst != self.id && dst_bit(dsts, dst.index())).then_some(*link)
            }
        }
    }

    /// The destinations a node set up by [`Node::set_routes`] has a route
    /// to, as a bitset `words` long.
    pub(crate) fn routed_dsts(&self, words: usize) -> Vec<u64> {
        let mut dsts = match &self.routes {
            Routes::Table(table) => bitset(table),
            Routes::Via { dsts, .. } => dsts.to_vec(),
        };
        dsts.resize(words, 0);
        dsts
    }
}

/// The destinations of `first_hop` that have a route, one bit each.
fn bitset(first_hop: &[Option<LinkId>]) -> Vec<u64> {
    let mut dsts = vec![0u64; first_hop.len().div_ceil(64)];
    for (dst, _) in first_hop
        .iter()
        .enumerate()
        .filter(|(_, hop)| hop.is_some())
    {
        dsts[dst / 64] |= 1 << (dst % 64);
    }
    dsts
}

#[inline]
fn dst_bit(dsts: &[u64], idx: usize) -> bool {
    dsts.get(idx / 64).is_some_and(|w| w >> (idx % 64) & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_link_in_use_is_compact_two_are_a_table() {
        let hop = |d: usize| [1, 70, 200].contains(&d).then_some(LinkId(4));
        let first_hop: Vec<Option<LinkId>> = (0..300).map(hop).collect();
        let mut n = Node::new(NodeId(0), NodeKind::Host);
        assert_eq!(n.route_to(NodeId(1)), None);
        n.set_routes(&first_hop);
        assert!(matches!(n.routes, Routes::Via { .. }));
        for d in 0..400u32 {
            assert_eq!(n.route_to(NodeId(d)), hop(d as usize), "dst {d}");
        }

        let mut two = first_hop.clone();
        two[70] = Some(LinkId(9));
        n.set_routes(&two);
        assert!(matches!(n.routes, Routes::Table(_)));
        for d in 0..400u32 {
            let want = two.get(d as usize).copied().flatten();
            assert_eq!(n.route_to(NodeId(d)), want, "dst {d}");
        }
    }

    #[test]
    fn a_shared_set_routes_everyone_but_its_holder() {
        // Hosts 1 and 2 behind one neighbour share the set {0, 1, 2, 65}:
        // each reaches the others, and neither routes to itself.
        let mut set = vec![0u64; 2];
        for d in [0, 1, 2, 65] {
            set[d / 64] |= 1 << (d % 64);
        }
        let set: Arc<[u64]> = set.into();
        let mut hosts = [1u32, 2].map(|h| Node::new(NodeId(h), NodeKind::Host));
        for h in &mut hosts {
            h.set_routes_via(LinkId(h.id.0), Arc::clone(&set));
        }
        assert_eq!(Arc::strong_count(&set), 3);
        for h in &hosts {
            for d in 0..130u32 {
                let want = ([0, 1, 2, 65].contains(&d) && d != h.id.0).then_some(LinkId(h.id.0));
                assert_eq!(h.route_to(NodeId(d)), want, "{:?} -> {d}", h.id);
            }
        }
    }
}
