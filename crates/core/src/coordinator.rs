//! DIR-net-style zone coordinator: a backup agent on a healthy node that
//! watches its peers' recovery progress and reroutes around correlated
//! damage.
//!
//! The FTD of §4 recovers a node from its *own* hang. It cannot help when
//! the damage is outside the node — a dead switch, a flapping link, or a
//! correlated multi-NIC hang that takes the local daemon down with the
//! fabric. De Florio's DIR net assigns that job to a *backup agent*: a
//! peer that observes recovery progress remotely and escalates when the
//! primary's recovery stalls or cascades. This module reproduces that
//! pattern on top of the simulated fabric:
//!
//! * **link-change watch** — every poll compares the fabric's per-link
//!   up/down state against the last snapshot; any change triggers a
//!   mapper re-discovery pass (`World::remap`) that installs alternate
//!   source routes around the damage,
//! * **stall watch** — a peer whose FTD has been busy longer than
//!   [`CoordinatorConfig::stall_bound`] is flagged
//!   (`TraceKind::PeerStallDetected`) and the zone is rerouted so traffic
//!   stops depending on it,
//! * **cascade watch** — when [`CoordinatorConfig::cascade_threshold`]
//!   or more FTDs are busy at once the coordinator assumes correlated
//!   damage and reroutes immediately instead of waiting for each node,
//! * **isolation escalation** — a peer whose route table stayed empty
//!   for [`CoordinatorConfig::isolation_grace`] after a reroute is
//!   unreachable in the residual fabric; the coordinator escalates it
//!   ([`FtSystem::escalate_isolated`]) so its applications get
//!   `InterfaceDead` instead of hanging silently. The grace window is
//!   what keeps a flapping link (down for a few tens of milliseconds)
//!   from being mistaken for a death.
//!
//! The coordinator is recovery code: it runs on the FTD path and must
//! never panic (the clippy denies below and ftgm-lint's transitive-panic
//! rule cover it). All decisions derive from
//! deterministic simulation state, so coordinated runs stay bit-stable.

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_gm::World;
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimTime, TraceKind, ZoneTrigger};

use crate::FtSystem;

/// Tuning knobs of the zone coordinator.
#[derive(Clone, Copy, Debug)]
pub struct CoordinatorConfig {
    /// How often the backup agent polls fabric and peer state.
    pub poll_interval: SimDuration,
    /// A peer busy recovering for longer than this has stalled (a single
    /// honest recovery completes in well under a second; the paper's
    /// bound for the whole outage is two).
    pub stall_bound: SimDuration,
    /// Simultaneously-busy FTDs at or above this count are treated as
    /// correlated damage and rerouted around immediately.
    pub cascade_threshold: usize,
    /// How long a peer must stay unreachable (empty route table) before
    /// the coordinator declares it isolated and escalates. Debounces
    /// link flaps.
    pub isolation_grace: SimDuration,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            poll_interval: SimDuration::from_ms(25),
            stall_bound: SimDuration::from_ms(2_000),
            cascade_threshold: 2,
            isolation_grace: SimDuration::from_ms(200),
        }
    }
}

/// Mutable watch state shared by the polling closure and the handle.
#[derive(Debug, Default)]
struct CoordState {
    /// Last observed per-link up/down snapshot.
    link_up: Vec<bool>,
    /// Per-node "stall already reported this episode" latch.
    stall_flagged: Vec<bool>,
    /// Since when each node's route table has been empty (None = reachable).
    isolated_since: Vec<Option<SimTime>>,
    /// Cascade latch: one report per correlated episode.
    cascade_active: bool,
    stalls: u64,
    cascades: u64,
    isolations: u64,
    zone_reroutes: u64,
}

/// Handle to an installed zone coordinator.
///
/// Installation arms a recurring poll; the handle exposes what the
/// backup agent observed (also visible as `coord`-category trace events).
#[derive(Clone)]
pub struct Coordinator {
    state: Rc<RefCell<CoordState>>,
}

impl Coordinator {
    /// Installs the backup agent into `world`, polling every
    /// [`CoordinatorConfig::poll_interval`].
    pub fn install(world: &mut World, ft: &FtSystem, config: CoordinatorConfig) -> Coordinator {
        let nodes = world.nodes.len();
        let state = Rc::new(RefCell::new(CoordState {
            link_up: world.link_state(),
            stall_flagged: vec![false; nodes],
            isolated_since: vec![None; nodes],
            ..CoordState::default()
        }));
        let handle = Coordinator { state: state.clone() };
        let ft = ft.clone();
        world.schedule_call(config.poll_interval, move |w| {
            Coordinator::tick(w, &ft, &state, config);
        });
        handle
    }

    /// The observer this poll reports as: the lowest-numbered node that
    /// is neither dead nor mid-recovery (every zone needs at least one
    /// healthy brain; if literally everyone is busy, node 0 stands in).
    fn observer(world: &World, ft: &FtSystem) -> u16 {
        (0..world.nodes.len())
            .map(|n| NodeId(n as u16))
            .find(|&n| !ft.interface_dead(n) && !ft.busy(n))
            .map(|n| n.0)
            .unwrap_or(0)
    }

    /// One poll: link-change, cascade, stall, then isolation checks.
    fn tick(
        world: &mut World,
        ft: &FtSystem,
        state: &Rc<RefCell<CoordState>>,
        config: CoordinatorConfig,
    ) {
        let now = world.now();
        let observer = Coordinator::observer(world, ft);
        let mut reroute = None;

        // 1. Fabric watch: any link transition (down *or* up) makes the
        //    current route tables stale; replan over the residual fabric.
        let up = world.link_state();
        {
            let mut st = state.borrow_mut();
            if up != st.link_up {
                st.link_up = up;
                reroute = Some(ZoneTrigger::LinkChange);
            }
        }

        // 2. Cascade watch: correlated recoveries in flight.
        let busy = ft.busy_count();
        {
            let mut st = state.borrow_mut();
            if busy >= config.cascade_threshold && !st.cascade_active {
                st.cascade_active = true;
                st.cascades += 1;
                reroute = Some(ZoneTrigger::Cascade);
            } else if busy == 0 {
                st.cascade_active = false;
            }
        }

        // 3. Stall watch: a peer stuck in recovery past the bound.
        for n in 0..world.nodes.len() {
            let peer = NodeId(n as u16);
            match ft.detected_at(peer) {
                Some(t0) if now.saturating_since(t0) > config.stall_bound => {
                    let mut st = state.borrow_mut();
                    if !st.stall_flagged.get(n).copied().unwrap_or(true) {
                        if let Some(flag) = st.stall_flagged.get_mut(n) {
                            *flag = true;
                        }
                        st.stalls += 1;
                        drop(st);
                        world.trace.emit(
                            now,
                            TraceKind::PeerStallDetected { observer, peer: peer.0 },
                        );
                        reroute = Some(ZoneTrigger::Stall);
                    }
                }
                Some(_) => {}
                None => {
                    if let Some(flag) = state.borrow_mut().stall_flagged.get_mut(n) {
                        *flag = false;
                    }
                }
            }
        }

        // Reroute (at most once per poll; the trigger records why).
        if let Some(trigger) = reroute {
            state.borrow_mut().zone_reroutes += 1;
            world
                .trace
                .emit(now, TraceKind::ZoneRerouteTriggered { observer, trigger });
            world.remap();
        }

        // 4. Isolation watch: a live peer whose (re)installed route table
        //    is empty cannot reach anyone. Give it the grace window, then
        //    escalate so its applications fail loudly.
        if world.nodes.len() >= 2 {
            for n in 0..world.nodes.len() {
                let peer = NodeId(n as u16);
                if ft.interface_dead(peer) {
                    continue;
                }
                let unreachable = world
                    .nodes
                    .get(n)
                    .map(|node| node.route_backup.is_empty())
                    .unwrap_or(false);
                let since = {
                    let mut st = state.borrow_mut();
                    match st.isolated_since.get_mut(n) {
                        Some(slot) => {
                            if unreachable {
                                if slot.is_none() {
                                    *slot = Some(now);
                                }
                            } else {
                                *slot = None;
                            }
                            *slot
                        }
                        None => None,
                    }
                };
                if let Some(t0) = since {
                    if now.saturating_since(t0) >= config.isolation_grace {
                        state.borrow_mut().isolations += 1;
                        world
                            .trace
                            .emit(now, TraceKind::PeerIsolated { observer, peer: peer.0 });
                        ft.escalate_isolated(world, peer);
                    }
                }
            }
        }

        // Re-arm.
        let ft = ft.clone();
        let state = state.clone();
        world.schedule_call(config.poll_interval, move |w| {
            Coordinator::tick(w, &ft, &state, config);
        });
    }

    /// Peers reported stalled.
    pub fn stalls(&self) -> u64 {
        self.state.borrow().stalls
    }

    /// Correlated-damage (cascade) episodes observed.
    pub fn cascades(&self) -> u64 {
        self.state.borrow().cascades
    }

    /// Peers escalated because the residual fabric could not reach them.
    pub fn isolations(&self) -> u64 {
        self.state.borrow().isolations
    }

    /// Zone-wide mapper reroute passes the coordinator triggered.
    pub fn zone_reroutes(&self) -> u64 {
        self.state.borrow().zone_reroutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
    use ftgm_gm::WorldConfig;

    fn coordinated_ring(n: usize) -> (World, FtSystem, Coordinator) {
        let mut config = WorldConfig::ftgm();
        config.trace = true;
        let mut w = World::ring(n, config);
        let ft = FtSystem::install(&mut w);
        let coord = Coordinator::install(&mut w, &ft, CoordinatorConfig::default());
        (w, ft, coord)
    }

    #[test]
    fn quiet_fabric_triggers_nothing() {
        let (mut w, _ft, coord) = coordinated_ring(4);
        w.run_for(SimDuration::from_ms(500));
        assert_eq!(coord.zone_reroutes(), 0);
        assert_eq!(coord.stalls(), 0);
        assert_eq!(coord.cascades(), 0);
        assert_eq!(coord.isolations(), 0);
    }

    #[test]
    fn link_loss_triggers_zone_reroute_and_traffic_survives() {
        let (mut w, _ft, coord) = coordinated_ring(4);
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(NodeId(2), 2, Box::new(PatternReceiver::new(512, 16, stats.clone())));
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(NodeId(2), 2, 256, 4, None, stats.clone())),
        );
        w.run_for(SimDuration::from_ms(20));
        // Cut one inter-switch ring link: the cycle offers the other way.
        let topo = w.fabric.topology();
        let nic: Vec<usize> = (0..4u16).filter_map(|n| topo.nic_link(NodeId(n))).collect();
        let inter = (0..topo.links().len())
            .find(|l| !nic.contains(l))
            .expect("ring has inter-switch links");
        w.fabric.set_link_up(inter, false);
        let before = stats.borrow().received_ok;
        w.run_for(SimDuration::from_ms(400));
        assert!(coord.zone_reroutes() >= 1, "link change seen");
        assert_eq!(coord.isolations(), 0, "nobody isolated by one ring link");
        let s = stats.borrow();
        assert!(s.received_ok > before, "traffic resumed on alternate route");
        assert!(s.clean(), "{s:?}");
    }

    #[test]
    fn unreachable_peer_is_escalated_after_grace() {
        let (mut w, ft, coord) = coordinatedring_with_dead_nic();
        // Its NIC hangs too. The grace (200 ms) is shorter than a recovery
        // (~760 ms), so the FTD's queued steps must stand down once the
        // node is escalated: no re-enabled interrupts, reload or reopen.
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_ms(600));
        assert!(coord.zone_reroutes() >= 1);
        assert_eq!(coord.isolations(), 1, "exactly the cut node");
        assert!(ft.interface_dead(NodeId(1)));
        assert!(!ft.interface_dead(NodeId(0)));
        // Idempotent: more polls don't re-escalate.
        w.run_for(SimDuration::from_ms(300));
        assert_eq!(coord.isolations(), 1);
        assert_eq!((ft.recoveries(NodeId(1)), ft.busy(NodeId(1))), (0, false));
        assert!(!w.nodes[1].host.driver.interrupts_enabled());
        // The trace shows the cut chain: each dropped step is a milestone.
        let dropped = |k: &TraceKind| matches!(k, TraceKind::FtdStepDroppedDead { node: 1 });
        assert!(w.trace.count_where(dropped) > 0, "the queued FTD steps stood down silently");
    }

    fn coordinatedring_with_dead_nic() -> (World, FtSystem, Coordinator) {
        let (mut w, ft, coord) = coordinated_ring(4);
        // Cut node 1's only NIC link: unreachable in any residual fabric.
        let nic = w
            .fabric
            .topology()
            .nic_link(NodeId(1))
            .expect("node 1 cabled");
        w.fabric.set_link_up(nic, false);
        (w, ft, coord)
    }

    #[test]
    fn brief_flap_stays_under_grace_and_never_escalates() {
        let (mut w, ft, coord) = coordinated_ring(4);
        let nic = w
            .fabric
            .topology()
            .nic_link(NodeId(1))
            .expect("node 1 cabled");
        // Flap: down for ~60ms (past a poll, under the 200ms grace).
        w.fabric.set_link_up(nic, false);
        w.schedule_call(SimDuration::from_ms(60), move |w| {
            w.fabric.set_link_up(nic, true);
        });
        w.run_for(SimDuration::from_ms(800));
        assert!(coord.zone_reroutes() >= 2, "down and up both reroute");
        assert_eq!(coord.isolations(), 0, "grace debounced the flap");
        assert!(!ft.interface_dead(NodeId(1)));
    }
}
