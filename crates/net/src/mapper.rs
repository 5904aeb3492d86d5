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
//!
//! Every interface's routes begin with its own cable into its *entry
//! switch*, and from there a host affects the search only by being
//! skipped as a destination. So the mapper searches once per entry
//! switch, not once per interface: every host cabled to that switch
//! shares one route vector, with its own slot masked. Clones are O(1);
//! [`RouteTable::insert`] copies on write.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::topology::{Endpoint, NodeId, SwitchId, Topology};

/// A source route: one output-port byte per switch traversed.
pub type Route = Vec<u8>;

/// Routes from one interface to every reachable peer.
///
/// Node ids are small and dense, and the MCP looks a route up for every
/// frame it transmits, so the table is a vector indexed by node id. The
/// vector is shared with every interface on the same entry switch (and
/// with every clone: the MCP's copy and the host's backup), so cloning a
/// table is O(1).
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// `routes[dst]`; trailing slots may be absent or `None`.
    routes: Arc<Vec<Option<Route>>>,
    /// The slot this table hides: its own interface, which the shared
    /// vector holds a route to for the switch's other hosts.
    own: Option<NodeId>,
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
        if self.own == Some(dst) {
            return None;
        }
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
            .zip(self.routes.iter())
            .filter(|&(i, _)| self.own != Some(NodeId(i)))
            .filter_map(|(i, r)| Some((NodeId(i), r.as_ref()?)))
    }

    /// Inserts a route (used when restoring a table from a host backup),
    /// replacing any previous route to `dst`. Copies the shared vector
    /// first if anyone else holds it.
    pub fn insert(&mut self, dst: NodeId, route: Route) {
        if self.own == Some(dst) {
            self.own = None;
        }
        let routes = Arc::make_mut(&mut self.routes);
        let i = usize::from(dst.0);
        if i >= routes.len() {
            routes.resize(i + 1, None);
        }
        if let Some(slot) = routes.get_mut(i) {
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
    ///
    /// One search per entry switch: every interface cabled to a switch
    /// gets the same shared routes, with its own slot masked.
    pub fn map_avoiding(topo: &Topology, link_up: impl Fn(usize) -> bool) -> Vec<RouteTable> {
        let mut by_switch: Vec<Option<Arc<Vec<Option<Route>>>>> = vec![None; topo.switch_count()];
        (0..topo.node_count())
            .map(|n| {
                let src = NodeId(n as u16);
                let entry = topo
                    .nic_link(src)
                    .filter(|&l| link_up(l))
                    .and_then(|l| topo.peer(l, Endpoint::Nic(src)));
                match entry {
                    Some(Endpoint::SwitchPort { switch, .. }) => {
                        let Some(shared) = by_switch.get_mut(usize::from(switch.0)) else {
                            return RouteTable::default();
                        };
                        let routes = shared
                            .get_or_insert_with(|| Arc::new(Self::search(topo, switch, &link_up)));
                        RouteTable {
                            routes: Arc::clone(routes),
                            own: Some(src),
                        }
                    }
                    // Two NICs cabled back to back: one empty route.
                    Some(Endpoint::Nic(peer)) => {
                        let mut table = RouteTable::default();
                        table.insert(peer, Vec::new());
                        table
                    }
                    None => RouteTable::default(),
                }
            })
            .collect()
    }

    /// Breadth-first search from `root`, switches expanded in discovery
    /// order and ports ascending: the route to every host it reaches,
    /// indexed by node id. Each switch keeps a parent pointer, so a route
    /// is allocated once, when its host is first reached.
    fn search(
        topo: &Topology,
        root: SwitchId,
        link_up: &impl Fn(usize) -> bool,
    ) -> Vec<Option<Route>> {
        let switches = topo.switch_count();
        // parent[s] = (switch s was first reached from, the port out of it).
        let mut parent: Vec<Option<(SwitchId, u8)>> = vec![None; switches];
        let mut seen = vec![false; switches];
        let mut routes: Vec<Option<Route>> = vec![None; topo.node_count()];
        let mut queue = VecDeque::new();
        if let Some(s) = seen.get_mut(usize::from(root.0)) {
            *s = true;
            queue.push_back((root, 0));
        }
        // (switch, its hop count from the root).
        while let Some((switch, hops)) = queue.pop_front() {
            for port in 0..topo.switch_port_count(switch) {
                let Some(link) = topo.switch_port_link(switch, port) else {
                    continue;
                };
                if !link_up(link) {
                    continue;
                }
                match topo.peer(link, Endpoint::SwitchPort { switch, port }) {
                    Some(Endpoint::Nic(n)) => {
                        if let Some(slot @ None) = routes.get_mut(usize::from(n.0)) {
                            *slot = Some(Self::route_to(&parent, hops, switch, port));
                        }
                    }
                    Some(Endpoint::SwitchPort { switch: far, .. }) => {
                        let f = usize::from(far.0);
                        if let Some(s @ false) = seen.get_mut(f) {
                            *s = true;
                            if let Some(p) = parent.get_mut(f) {
                                *p = Some((switch, port));
                            }
                            queue.push_back((far, hops + 1));
                        }
                    }
                    None => {}
                }
            }
        }
        routes
    }

    /// The route from the search root through `switch` (reached in
    /// `hops` switch hops) and out of its `port`, read off the parent
    /// pointers in one allocation.
    fn route_to(
        parent: &[Option<(SwitchId, u8)>],
        hops: usize,
        switch: SwitchId,
        port: u8,
    ) -> Route {
        let mut route = Vec::with_capacity(hops + 1);
        route.push(port);
        let mut at = switch;
        // The parent chain is a tree rooted at the search root; `hops`
        // bounds the walk.
        for _ in 0..hops {
            let Some(&Some((up, out))) = parent.get(usize::from(at.0)) else {
                break;
            };
            route.push(out);
            at = up;
        }
        route.reverse();
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricParams};
    use ftgm_sim::{SimRng, SimTime};

    /// The per-source search the mapper ran before it searched once per
    /// entry switch, kept as the differential oracle: one BFS from every
    /// interface, carrying a cloned route on every queue push.
    fn oracle_map_from(
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

    /// node0 and node1 cabled NIC to NIC, node2 uncabled.
    fn back_to_back_and_uncabled() -> Topology {
        let mut b = Topology::builder();
        b.add_nodes(3);
        b.connect(Endpoint::Nic(NodeId(0)), Endpoint::Nic(NodeId(1)));
        b.build()
    }

    #[test]
    fn per_switch_search_matches_the_per_source_oracle() {
        let mut rng = SimRng::new(32);
        for topo in [
            Topology::two_nodes_one_switch(),
            Topology::star(6),
            Topology::ring(5),
            Topology::ring(8),
            Topology::switch_chain(4, 3),
            Topology::fat_tree(2, 2, 2),
            Topology::fat_tree(2, 5, 4),
            Topology::fat_tree(4, 17, 16),
            Topology::torus(4, 5),
            Topology::torus(16, 17),
            back_to_back_and_uncabled(),
        ] {
            let links = topo.links().len();
            // All links up, then 20 seeded masks taking down 1 to 8 links.
            let mut masks = vec![vec![true; links]];
            for _ in 0..20 {
                let mut up = vec![true; links];
                for _ in 0..=rng.gen_range(8) {
                    up[rng.gen_range(links as u64) as usize] = false;
                }
                masks.push(up);
            }
            for up in &masks {
                let link_up = |l: usize| up[l];
                let tables = Mapper::map_avoiding(&topo, link_up);
                assert_eq!(tables.len(), topo.node_count());
                for (n, table) in tables.iter().enumerate() {
                    let src = NodeId(n as u16);
                    let oracle = oracle_map_from(&topo, src, &link_up);
                    assert!(
                        table.iter().eq(oracle.iter()),
                        "{} hosts, {links} links: node{n}'s routes differ from the oracle",
                        topo.node_count()
                    );
                    assert_eq!(table.route(src), None, "no self-route");
                    assert_eq!(table.len(), oracle.len());
                }
            }
        }
    }

    #[test]
    fn insert_copies_the_shared_routes_on_write() {
        let topo = Topology::star(4);
        let tables = Mapper::map(&topo);
        let (mcp, backup) = (tables[1].clone(), tables[1].clone());
        let mut restored = mcp.clone();
        restored.insert(NodeId(3), vec![7, 7]);
        restored.insert(NodeId(1), vec![9]);
        assert_eq!(restored.route(NodeId(3)), Some(&vec![7, 7]));
        assert_eq!(restored.route(NodeId(1)), Some(&vec![9]), "an insert unmasks the own slot");
        // Neither the twins it was cloned from nor the switch-mates that
        // share its routes see the writes.
        for twin in [&mcp, &backup, &tables[1]] {
            assert_eq!(twin.route(NodeId(3)), Some(&vec![3]));
            assert_eq!(twin.route(NodeId(1)), None);
        }
        for (n, mate) in tables.iter().enumerate() {
            assert_eq!(mate, &oracle_map_from(&topo, NodeId(n as u16), &|_| true));
        }
        assert_eq!(tables[0].route(NodeId(1)), Some(&vec![1]));
    }

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
