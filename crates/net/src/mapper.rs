//! The GM mapper: topology discovery and route computation.
//!
//! On a real Myrinet, one node runs the *GM mapper*, which floods probe
//! packets with trial routes, assembles a map of the network, computes a
//! route from every interface to every other interface, and distributes the
//! route tables to each interface's SRAM. The FTD later *restores* that
//! table from the host's copy after a card reset — which is why the route
//! table is part of the recovery state.
//!
//! We reproduce the mapper's *outcome* deterministically: a breadth-first
//! exploration of the cabled topology with lowest-port-first tie-breaking,
//! yielding minimal-hop source routes. (Probe-packet timing is irrelevant
//! to every experiment in the paper; mapping happens before traffic
//! starts.)

use std::collections::VecDeque;

use crate::topology::{Endpoint, NodeId, Topology};

/// A source route: one output-port byte per switch traversed.
pub type Route = Vec<u8>;

/// Routes from one interface to every reachable peer.
///
/// Node ids are small and dense, and the MCP looks a route up for every
/// frame it transmits, so the table is a vector indexed by node id.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// `routes[dst]`; trailing slots may be absent or `None`.
    routes: Vec<Option<Route>>,
}

impl PartialEq for RouteTable {
    fn eq(&self, other: &RouteTable) -> bool {
        // Same destinations, same routes — however long the slot vectors
        // happen to be.
        self.iter().eq(other.iter())
    }
}

impl Eq for RouteTable {}

impl RouteTable {
    /// The route to `dst`, if one was discovered.
    pub fn route(&self, dst: NodeId) -> Option<&Route> {
        self.routes.get(usize::from(dst.0))?.as_ref()
    }

    /// Number of reachable destinations.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` when no destinations are reachable.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterates over `(destination, route)` pairs in ascending
    /// destination order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Route)> {
        (0..=u16::MAX)
            .zip(&self.routes)
            .filter_map(|(i, r)| Some((NodeId(i), r.as_ref()?)))
    }

    /// Inserts a route (used when restoring a table from a host backup),
    /// replacing any previous route to `dst`.
    pub fn insert(&mut self, dst: NodeId, route: Route) {
        let i = usize::from(dst.0);
        if i >= self.routes.len() {
            self.routes.resize(i + 1, None);
        }
        if let Some(slot) = self.routes.get_mut(i) {
            *slot = Some(route);
        }
    }
}

/// The mapping engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mapper;

impl Mapper {
    /// Computes a route table for every interface in `topo`.
    ///
    /// Routes are minimal-hop; ties break toward lower switch ports, so the
    /// result is deterministic. Self-routes are not included. Unreachable
    /// pairs are simply absent.
    ///
    /// # Example
    ///
    /// ```
    /// use ftgm_net::{Mapper, NodeId, Topology};
    ///
    /// let tables = Mapper::map(&Topology::two_nodes_one_switch());
    /// assert_eq!(tables[0].route(NodeId(1)).unwrap(), &vec![1]);
    /// assert_eq!(tables[1].route(NodeId(0)).unwrap(), &vec![0]);
    /// ```
    pub fn map(topo: &Topology) -> Vec<RouteTable> {
        Self::map_avoiding(topo, |_| true)
    }

    /// Like [`Mapper::map`], but skipping links for which `link_up`
    /// returns `false` — the mapper's re-configuration pass after a link
    /// disappears ("the GM mapper can also reconfigure the network if
    /// links or nodes appear or disappear").
    pub fn map_avoiding(topo: &Topology, link_up: impl Fn(usize) -> bool) -> Vec<RouteTable> {
        (0..topo.node_count())
            .map(|n| Self::map_from_avoiding(topo, NodeId(n as u16), &link_up))
            .collect()
    }

    /// Computes the route table for a single source interface.
    pub fn map_from(topo: &Topology, src: NodeId) -> RouteTable {
        Self::map_from_avoiding(topo, src, &|_| true)
    }

    /// [`Mapper::map_from`] with a link filter.
    pub fn map_from_avoiding(
        topo: &Topology,
        src: NodeId,
        link_up: &impl Fn(usize) -> bool,
    ) -> RouteTable {
        let mut table = RouteTable::default();
        let Some(first_link) = topo.nic_link(src) else {
            return table;
        };
        if !link_up(first_link) {
            return table;
        }
        // BFS over endpoints we arrive at; state = endpoint we landed on
        // (a NIC, or a switch reached through one of its ports).
        let mut visited_switch = vec![false; topo.switch_count()];
        let mut visited_nic = vec![false; topo.node_count()];
        visited_nic[src.0 as usize] = true;
        let mut queue: VecDeque<(Endpoint, Route)> = VecDeque::new();
        let Some(entry) = topo.peer(first_link, Endpoint::Nic(src)) else {
            return table;
        };
        queue.push_back((entry, Vec::new()));
        while let Some((at, route)) = queue.pop_front() {
            match at {
                Endpoint::Nic(n) => {
                    if !visited_nic[n.0 as usize] {
                        visited_nic[n.0 as usize] = true;
                        table.insert(n, route);
                    }
                }
                Endpoint::SwitchPort { switch, .. } => {
                    if visited_switch[switch.0 as usize] {
                        continue;
                    }
                    visited_switch[switch.0 as usize] = true;
                    for port in 0..topo.switch_port_count(switch) {
                        let Some(link) = topo.switch_port_link(switch, port) else {
                            continue;
                        };
                        if !link_up(link) {
                            continue;
                        }
                        let here = Endpoint::SwitchPort { switch, port };
                        let Some(far) = topo.peer(link, here) else {
                            continue;
                        };
                        let mut r = route.clone();
                        r.push(port);
                        queue.push_back((far, r));
                    }
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricParams};
    use ftgm_sim::SimTime;

    #[test]
    fn two_node_routes() {
        let topo = Topology::two_nodes_one_switch();
        let tables = Mapper::map(&topo);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].route(NodeId(1)), Some(&vec![1]));
        assert_eq!(tables[1].route(NodeId(0)), Some(&vec![0]));
        assert_eq!(tables[0].route(NodeId(0)), None, "no self-route");
    }

    #[test]
    fn star_routes_are_single_hop() {
        let topo = Topology::star(6);
        let tables = Mapper::map(&topo);
        for s in 0..6u16 {
            for d in 0..6u16 {
                if s == d {
                    continue;
                }
                let r = tables[s as usize].route(NodeId(d)).expect("route exists");
                assert_eq!(r, &vec![d as u8]);
            }
        }
    }

    #[test]
    fn chain_routes_cross_switches() {
        let topo = Topology::switch_chain(3, 2);
        let tables = Mapper::map(&topo);
        // node0 (switch0) to node5 (switch2): 3 switch hops.
        let r = tables[0].route(NodeId(5)).expect("route exists");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn all_computed_routes_actually_deliver() {
        for topo in [
            Topology::two_nodes_one_switch(),
            Topology::star(5),
            Topology::switch_chain(3, 2),
            Topology::fat_tree(2, 2, 4),
            Topology::torus(3, 3),
        ] {
            let tables = Mapper::map(&topo);
            let mut fabric = Fabric::new(topo.clone(), FabricParams::default());
            for s in 0..topo.node_count() {
                for (dst, route) in tables[s].iter() {
                    let d = fabric
                        .inject(SimTime::ZERO, NodeId(s as u16), route, vec![0xEE; 32])
                        .unwrap_or_else(|e| {
                            panic!("route {route:?} from node{s} to {dst} dropped: {e:?}")
                        });
                    assert_eq!(d.dst, dst);
                }
            }
        }
    }

    #[test]
    fn unreachable_node_absent() {
        let mut b = Topology::builder();
        b.add_nodes(3);
        let sw = b.add_switch(8);
        b.connect(Endpoint::Nic(NodeId(0)), Endpoint::SwitchPort { switch: sw, port: 0 });
        b.connect(Endpoint::Nic(NodeId(1)), Endpoint::SwitchPort { switch: sw, port: 1 });
        // node2 left uncabled.
        let tables = Mapper::map(&b.build());
        assert!(tables[0].route(NodeId(2)).is_none());
        assert!(tables[2].is_empty());
        assert_eq!(tables[0].len(), 1);
    }

    #[test]
    fn routes_are_minimal_hop() {
        // Redundant topology: two switches, two parallel inter-switch links.
        let mut b = Topology::builder();
        b.add_nodes(2);
        let s0 = b.add_switch(8);
        let s1 = b.add_switch(8);
        b.connect(Endpoint::Nic(NodeId(0)), Endpoint::SwitchPort { switch: s0, port: 0 });
        b.connect(Endpoint::Nic(NodeId(1)), Endpoint::SwitchPort { switch: s1, port: 0 });
        b.connect(
            Endpoint::SwitchPort { switch: s0, port: 6 },
            Endpoint::SwitchPort { switch: s1, port: 6 },
        );
        b.connect(
            Endpoint::SwitchPort { switch: s0, port: 7 },
            Endpoint::SwitchPort { switch: s1, port: 7 },
        );
        let tables = Mapper::map(&b.build());
        let r = tables[0].route(NodeId(1)).unwrap();
        assert_eq!(r.len(), 2);
        // Deterministic tie-break: lowest port (6) wins.
        assert_eq!(r, &vec![6, 0]);
    }

    #[test]
    fn route_table_contracts_hold_on_the_dense_layout() {
        let mut t = RouteTable::default();
        assert!(t.is_empty());
        t.insert(NodeId(9), vec![3]);
        t.insert(NodeId(2), vec![1, 4]);
        t.insert(NodeId(9), vec![5]); // replaces, does not double count
        assert_eq!(t.len(), 2);
        assert_eq!(t.route(NodeId(9)), Some(&vec![5]));
        assert_eq!(t.route(NodeId(3)), None);
        assert_eq!(t.route(NodeId(4000)), None);
        let order: Vec<NodeId> = t.iter().map(|(d, _)| d).collect();
        assert_eq!(order, vec![NodeId(2), NodeId(9)], "ascending destination order");
        // Equality is about routes, not about how far the slots reach.
        let mut u = RouteTable::default();
        u.insert(NodeId(2), vec![1, 4]);
        assert_ne!(t, u);
        u.insert(NodeId(9), vec![5]);
        assert_eq!(t, u);
        let mut longer = u.clone();
        longer.insert(NodeId(40), vec![0]);
        assert_ne!(longer, u);
    }

    #[test]
    fn mapping_is_deterministic() {
        let topo = Topology::switch_chain(4, 3);
        assert_eq!(Mapper::map(&topo), Mapper::map(&topo));
    }
}
