//! Nodes: hosts (flow endpoints) and routers (forwarders).
//!
//! Routing is static: each node's next hops are filled in by
//! [`crate::sim::Simulator::compute_routes`] (shortest path by hop count)
//! or set explicitly by topology builders. A node whose routes all leave
//! by one link — every single-homed host — stores that link and a bitset
//! of the destinations it reaches; only a node that uses two or more links
//! holds a dense table indexed by destination. A 1024-pair dumbbell's
//! 4096 hosts would otherwise carry 134 MB of identical table entries.

use crate::packet::{LinkId, NodeId};

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
    /// This node's identity.
    pub id: NodeId,
    /// Host or router.
    pub kind: NodeKind,
    routes: Routes,
}

#[derive(Clone, Debug)]
enum Routes {
    /// Next hop by destination index; empty until a route is set.
    Table(Vec<Option<LinkId>>),
    /// Every destination routed so far leaves by `link`; bit `d` of `dsts`
    /// is set when destination `d` is one of them.
    Via { link: LinkId, dsts: Vec<u64> },
}

impl Node {
    /// Create a node with an empty routing table.
    pub(crate) fn new(id: NodeId, kind: NodeKind) -> Node {
        Node {
            id,
            kind,
            routes: Routes::Table(Vec::new()),
        }
    }

    /// Set the next-hop link towards `dst`.
    pub(crate) fn set_route(&mut self, dst: NodeId, link: LinkId) {
        let idx = dst.index();
        match &mut self.routes {
            Routes::Table(table) if table.is_empty() => {
                self.routes = Routes::Via {
                    link,
                    dsts: Vec::new(),
                };
                self.set_route(dst, link);
            }
            Routes::Via { link: via, dsts } if *via == link => {
                if dsts.len() <= idx / 64 {
                    dsts.resize(idx / 64 + 1, 0);
                }
                dsts[idx / 64] |= 1 << (idx % 64);
            }
            Routes::Via { link: via, dsts } => {
                // A second link: this node needs the dense table after all.
                let table = (0..(dsts.len() * 64).max(idx + 1))
                    .map(|d| dst_bit(dsts, d).then_some(*via))
                    .collect();
                self.routes = Routes::Table(table);
                self.set_route(dst, link);
            }
            Routes::Table(table) => {
                if table.len() <= idx {
                    table.resize(idx + 1, None);
                }
                table[idx] = Some(link);
            }
        }
    }

    /// Next-hop link towards `dst`, if known.
    #[inline]
    pub fn route_to(&self, dst: NodeId) -> Option<LinkId> {
        match &self.routes {
            Routes::Table(table) => table.get(dst.index()).copied().flatten(),
            Routes::Via { link, dsts } => dst_bit(dsts, dst.index()).then_some(*link),
        }
    }

    /// The destinations this node has a route to, as a bitset `words` long.
    pub(crate) fn routed_dsts(&self, words: usize) -> Vec<u64> {
        let mut dsts = vec![0u64; words];
        match &self.routes {
            Routes::Table(table) => {
                for (dst, _) in table.iter().enumerate().filter(|(_, hop)| hop.is_some()) {
                    dsts[dst / 64] |= 1 << (dst % 64);
                }
            }
            Routes::Via { dsts: own, .. } => dsts[..own.len()].copy_from_slice(own),
        }
        dsts
    }

    /// Replace all routes: every destination in the bitset `dsts` leaves by
    /// `link`.
    pub(crate) fn set_routes_via(&mut self, link: LinkId, dsts: Vec<u64>) {
        self.routes = Routes::Via { link, dsts };
    }

    /// Remove all routes (used when recomputing).
    pub(crate) fn clear_routes(&mut self) {
        self.routes = Routes::Table(Vec::new());
    }
}

#[inline]
fn dst_bit(dsts: &[u64], idx: usize) -> bool {
    dsts.get(idx / 64).is_some_and(|w| w >> (idx % 64) & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_set_and_get() {
        let mut n = Node::new(NodeId(0), NodeKind::Router);
        assert_eq!(n.route_to(NodeId(3)), None);
        n.set_route(NodeId(3), LinkId(7));
        assert_eq!(n.route_to(NodeId(3)), Some(LinkId(7)));
        assert_eq!(n.route_to(NodeId(2)), None);
        n.clear_routes();
        assert_eq!(n.route_to(NodeId(3)), None);
    }

    #[test]
    fn one_link_routes_stay_compact_until_a_second_link_appears() {
        let mut n = Node::new(NodeId(0), NodeKind::Host);
        for d in [1u32, 70, 200] {
            n.set_route(NodeId(d), LinkId(4));
        }
        assert!(matches!(n.routes, Routes::Via { .. }));
        for d in 0..300u32 {
            let want = [1, 70, 200].contains(&d).then_some(LinkId(4));
            assert_eq!(n.route_to(NodeId(d)), want, "dst {d}");
        }
        // An override through another link keeps every earlier answer.
        n.set_route(NodeId(70), LinkId(9));
        n.set_route(NodeId(500), LinkId(9));
        assert!(matches!(n.routes, Routes::Table(_)));
        for d in 0..600u32 {
            let want = match d {
                1 | 200 => Some(LinkId(4)),
                70 | 500 => Some(LinkId(9)),
                _ => None,
            };
            assert_eq!(n.route_to(NodeId(d)), want, "dst {d}");
        }
    }
}
