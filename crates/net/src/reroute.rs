//! Mapper-driven reroute: BFS re-discovery over the residual fabric.
//!
//! The GM mapper "can also reconfigure the network if links or nodes
//! appear or disappear". This module reproduces that pass as a pure
//! planning step: given the cabled [`Topology`] and the current per-link
//! up/down state, [`plan`] re-runs the mapper's BFS with
//! [`Mapper::map_avoiding`] and returns a [`ReroutePlan`] — fresh source
//! routes for every interface plus the residual-reachability facts the
//! zone coordinator needs (which peers ended up unreachable).
//!
//! Installation into a live fabric is the world's job
//! (`World::install_routes`); keeping the planner side-effect free makes
//! it directly property-testable (routes never traverse an avoided link;
//! reachability matches residual connectivity).
//!
//! This module is recovery code: it runs from the FTD/coordinator path,
//! so it must never panic (the clippy denies below and ftgm-lint's
//! transitive-panic rule cover it).

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::mapper::{Mapper, RouteTable};
use crate::topology::{NodeId, SwitchId, Topology};

/// The outcome of one mapper re-discovery pass over the residual fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReroutePlan {
    avoided: Vec<usize>,
    tables: Vec<RouteTable>,
}

impl ReroutePlan {
    /// Link ids the mapper avoided (down at planning time).
    pub fn avoided(&self) -> &[usize] {
        &self.avoided
    }

    /// The fresh per-interface route tables, indexed by node id.
    pub fn tables(&self) -> &[RouteTable] {
        &self.tables
    }

    /// Consumes the plan, yielding the tables for installation.
    pub fn into_tables(self) -> Vec<RouteTable> {
        self.tables
    }

    /// Nodes the residual fabric cannot reach from anywhere: their table
    /// came back empty. (In a one-node fabric nobody has routes; that is
    /// not isolation, so the single-node case reports none.)
    pub fn isolated(&self) -> Vec<NodeId> {
        if self.tables.len() < 2 {
            return Vec::new();
        }
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_empty())
            .map(|(n, _)| NodeId(n as u16))
            .collect()
    }

    /// Ordered (source, destination) pairs that remain routable.
    pub fn reachable_pairs(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64).sum()
    }
}

/// Every link cabled to a port of `sw` (empty for an unknown switch).
pub fn switch_links(topo: &Topology, sw: SwitchId) -> Vec<usize> {
    if (sw.0 as usize) >= topo.switch_count() {
        return Vec::new();
    }
    (0..topo.switch_port_count(sw))
        .filter_map(|port| topo.switch_port_link(sw, port))
        .collect()
}

/// Re-runs mapper discovery avoiding every link marked down in
/// `link_up` (indexed by link id; missing entries count as down, so a
/// stale or truncated snapshot degrades to avoidance, never to reuse of
/// a dead link).
pub fn plan(topo: &Topology, link_up: &[bool]) -> ReroutePlan {
    let avoided: Vec<usize> = (0..topo.links().len())
        .filter(|&l| !link_up.get(l).copied().unwrap_or(false))
        .collect();
    let tables = Mapper::map_avoiding(topo, |l| link_up.get(l).copied().unwrap_or(false));
    ReroutePlan { avoided, tables }
}

/// [`plan`], additionally treating every link of `sw` as down — the
/// "route around a dead switch" pass, usable even before the per-link
/// state has caught up with the switch's death.
pub fn plan_around_switch(topo: &Topology, sw: SwitchId, link_up: &[bool]) -> ReroutePlan {
    let dead = switch_links(topo, sw);
    let up = |l: usize| link_up.get(l).copied().unwrap_or(false) && !dead.contains(&l);
    let avoided: Vec<usize> = (0..topo.links().len()).filter(|&l| !up(l)).collect();
    let tables = Mapper::map_avoiding(topo, up);
    ReroutePlan { avoided, tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_up(topo: &Topology) -> Vec<bool> {
        vec![true; topo.links().len()]
    }

    #[test]
    fn plan_with_all_links_up_matches_mapper() {
        let topo = Topology::ring(6);
        let p = plan(&topo, &all_up(&topo));
        assert!(p.avoided().is_empty());
        assert_eq!(p.tables(), Mapper::map(&topo).as_slice());
        assert!(p.isolated().is_empty());
        assert_eq!(p.reachable_pairs(), 6 * 5);
    }

    #[test]
    fn ring_survives_one_interswitch_link_loss() {
        // Ring(5): NIC links come first per switch; find an inter-switch
        // link by looking for one not attached to any NIC.
        let topo = Topology::ring(5);
        let nic_links: Vec<usize> = (0..5)
            .filter_map(|n| topo.nic_link(NodeId(n as u16)))
            .collect();
        let inter = (0..topo.links().len())
            .find(|l| !nic_links.contains(l))
            .expect("ring has inter-switch links");
        let mut up = all_up(&topo);
        up[inter] = false;
        let p = plan(&topo, &up);
        assert_eq!(p.avoided(), &[inter]);
        assert!(p.isolated().is_empty(), "cycle offers the other direction");
        assert_eq!(p.reachable_pairs(), 5 * 4, "full reachability restored");
    }

    #[test]
    fn switch_death_isolates_only_its_hosts() {
        // Ring(5): killing switch 2 cuts exactly node 2 off; everyone
        // else reroutes the long way around.
        let topo = Topology::ring(5);
        let p = plan_around_switch(&topo, SwitchId(2), &all_up(&topo));
        assert_eq!(p.isolated(), vec![NodeId(2)]);
        assert_eq!(p.reachable_pairs(), 4 * 3);
        for (n, table) in p.tables().iter().enumerate() {
            assert_eq!(table.route(NodeId(2)).is_some(), false, "node{n} cannot reach node2");
        }
    }

    #[test]
    fn fat_tree_spine_death_keeps_full_reachability() {
        // fat_tree(2, 4, 2): leaf switches 0..4, spines 4 and 5. Killing
        // spine 0 (switch id 4) leaves spine 1 carrying all cross-leaf
        // routes.
        let topo = Topology::fat_tree(2, 4, 2);
        let spine0 = SwitchId(4);
        let dead = switch_links(&topo, spine0);
        assert_eq!(dead.len(), 4, "one uplink per leaf");
        let p = plan_around_switch(&topo, spine0, &all_up(&topo));
        assert!(p.isolated().is_empty());
        assert_eq!(p.reachable_pairs(), 8 * 7);
        // No surviving route may traverse a dead link: every table still
        // resolves because map_avoiding already skips them; spot-check
        // that cross-leaf routes exist.
        let t0 = &p.tables()[0];
        assert!(t0.route(NodeId(7)).is_some(), "cross-leaf route via spine 1");
    }

    #[test]
    fn star_switch_death_isolates_everyone() {
        let topo = Topology::star(4);
        let p = plan_around_switch(&topo, SwitchId(0), &all_up(&topo));
        assert_eq!(p.isolated().len(), 4);
        assert_eq!(p.reachable_pairs(), 0);
    }

    #[test]
    fn unknown_switch_and_short_link_state_degrade_gracefully() {
        let topo = Topology::star(3);
        assert!(switch_links(&topo, SwitchId(9)).is_empty());
        // A truncated up-vector counts missing links as down.
        let p = plan(&topo, &[]);
        assert_eq!(p.avoided().len(), topo.links().len());
        assert_eq!(p.reachable_pairs(), 0);
    }
}
