#![warn(missing_docs)]

//! **FTGM** — low-overhead fault-tolerant networking for Myrinet.
//!
//! This crate is the reproduction's *core*: the contribution of Lakamraju,
//! Koren & Krishna, "Low Overhead Fault Tolerant Networking in Myrinet"
//! (DSN 2003). It assembles the pieces the rest of the workspace provides
//! into the paper's complete fault-tolerance scheme:
//!
//! * **continuous host-side state backup** — token copies and host-owned
//!   sequence streams (maintained by `ftgm-gm`'s library when the FTGM
//!   variant is active; see [`ftgm_gm::backup`]),
//! * **firmware-level protocol changes** — per-(port, destination) streams
//!   and the delayed message-commit ACK (in `ftgm-mcp` behind
//!   [`ftgm_mcp::Variant::Ftgm`]),
//! * **software-watchdog fault detection** — the spare IT1 interval timer,
//!   re-armed by every `L_timer()` pass, whose expiry raises the FATAL
//!   host interrupt ([`ftgm_mcp`] + the driver path here),
//! * **the Fault Tolerance Daemon** ([`ftd`]) — reset, SRAM clear, MCP
//!   reload, table restores, `FAULT_DETECTED` posting,
//! * **transparent per-process recovery** ([`recovery`]) — the modified
//!   `gm_unknown()` that replays backed-up tokens and restores per-stream
//!   sequence state, requiring no application changes,
//! * **timeline extraction** ([`timeline`]) for Table 3 / Figure 9.
//!
//! # Quickstart
//!
//! ```
//! use ftgm_core::FtSystem;
//! use ftgm_gm::{World, WorldConfig};
//! use ftgm_net::NodeId;
//! use ftgm_sim::SimDuration;
//!
//! let mut world = World::two_node(WorldConfig::ftgm());
//! let ft = FtSystem::install(&mut world);
//! // … spawn apps, run traffic …
//! world.run_for(SimDuration::from_ms(1));
//! // Simulate a cosmic-ray hang of node 1's network processor:
//! ft.inject_forced_hang(&mut world, NodeId(1));
//! world.run_for(SimDuration::from_secs(3));
//! assert_eq!(ft.recoveries(NodeId(1)), 1);
//! ```

pub mod coordinator;
pub mod timeline;

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_gm::World;
use ftgm_net::NodeId;
use ftgm_sim::{SimTime, TraceKind};

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use ftgm_gm::ftd::{self, RetryPolicy};
pub use ftgm_gm::recovery::{self, restore_port_state, RestoreSummary, PER_PROCESS_RECOVERY};
pub use timeline::RecoveryReport;

/// Handle to the installed fault-tolerance system.
///
/// Installation spawns one FTD per node, wires the driver's FATAL path and
/// the library's `FAULT_DETECTED` path, and returns this handle for
/// observing recoveries.
#[derive(Clone)]
pub struct FtSystem {
    states: Rc<RefCell<Vec<ftd::FtdState>>>,
}

impl FtSystem {
    /// Installs the fault-tolerance machinery into `world` with the
    /// default [`RetryPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the world does not run the FTGM variant — the watchdog
    /// timer is armed by FTGM's `L_timer()`, so installing over stock GM
    /// would silently never detect anything.
    pub fn install(world: &mut World) -> FtSystem {
        FtSystem::install_with_policy(world, RetryPolicy::default())
    }

    /// [`FtSystem::install`] with an explicit retry/escalation policy.
    ///
    /// # Panics
    ///
    /// Panics if the world does not run the FTGM variant.
    pub fn install_with_policy(world: &mut World, policy: RetryPolicy) -> FtSystem {
        assert!(
            world.is_ftgm(),
            "FtSystem requires a world built with WorldConfig::ftgm()"
        );
        FtSystem {
            states: ftd::install(world, policy),
        }
    }

    /// Completed recoveries on `node`.
    pub fn recoveries(&self, node: NodeId) -> u64 {
        self.states.borrow()[node.0 as usize].recoveries
    }

    /// False alarms (probe cleared) on `node`.
    pub fn false_alarms(&self, node: NodeId) -> u64 {
        self.states.borrow()[node.0 as usize].false_alarms
    }

    /// Whether a recovery is currently in progress on `node`.
    pub fn busy(&self, node: NodeId) -> bool {
        self.states.borrow()[node.0 as usize].busy
    }

    /// Whether `node`'s interface escalated to dead.
    pub fn interface_dead(&self, node: NodeId) -> bool {
        self.states.borrow()[node.0 as usize].dead
    }

    /// Reload attempts in `node`'s current (or last) episode.
    pub fn attempts(&self, node: NodeId) -> u32 {
        self.states.borrow()[node.0 as usize].attempts
    }

    /// Reloads on `node` whose post-reload verification failed.
    pub fn failed_attempts(&self, node: NodeId) -> u64 {
        self.states.borrow()[node.0 as usize].failed_attempts
    }

    /// Escalations to `InterfaceDead` on `node`.
    pub fn escalations(&self, node: NodeId) -> u64 {
        self.states.borrow()[node.0 as usize].escalations
    }

    /// When the current recovery episode on `node` was detected
    /// (`None` while the FTD sleeps). The zone coordinator compares this
    /// against its stall bound.
    pub fn detected_at(&self, node: NodeId) -> Option<SimTime> {
        let st = self.states.borrow();
        match st.get(node.0 as usize) {
            Some(s) if s.busy => s.detected_at,
            _ => None,
        }
    }

    /// Number of nodes currently inside a recovery (busy FTDs). The zone
    /// coordinator's cascade detector watches this.
    pub fn busy_count(&self) -> usize {
        self.states.borrow().iter().filter(|s| s.busy).count()
    }

    /// Zone-coordinator escalation for a node the residual fabric can no
    /// longer reach: the FTD's own terminal transition ([`ftd::escalate`]),
    /// driven by *reachability*. Idempotent: a dead node is left alone.
    pub fn escalate_isolated(&self, world: &mut World, node: NodeId) {
        ftd::escalate(world, node);
    }

    /// Experiment helper: force-hang a node's network processor, recording
    /// the activation in the trace (the campaign's injected bit flips
    /// trace their own activation instead).
    pub fn inject_forced_hang(&self, world: &mut World, node: NodeId) {
        let now = world.now();
        world.trace.emit(now, TraceKind::ForcedHang { node: node.0 });
        world.nodes[node.0 as usize].mcp.force_hang();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
    use ftgm_gm::WorldConfig;
    use ftgm_sim::SimDuration;

    fn ft_world() -> (World, FtSystem) {
        let mut config = WorldConfig::ftgm();
        config.trace = true;
        let mut w = World::two_node(config);
        let ft = FtSystem::install(&mut w);
        (w, ft)
    }

    #[test]
    #[should_panic(expected = "WorldConfig::ftgm")]
    fn install_rejects_gm_world() {
        let mut w = World::two_node(WorldConfig::gm());
        FtSystem::install(&mut w);
    }

    #[test]
    fn idle_hang_is_detected_and_recovered() {
        let (mut w, ft) = ft_world();
        w.run_for(SimDuration::from_ms(5));
        ft.inject_forced_hang(&mut w, NodeId(0));
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(ft.recoveries(NodeId(0)), 1);
        assert!(!ft.busy(NodeId(0)));
        assert!(!w.nodes[0].mcp.chip.is_hung(), "chip reloaded");
        let confirmed = w
            .trace
            .first_where(|k| matches!(k, TraceKind::ProbeConfirmedHang { .. }));
        assert!(confirmed.is_some());
    }

    #[test]
    fn detection_time_is_under_a_millisecond_class() {
        let (mut w, ft) = ft_world();
        w.run_for(SimDuration::from_ms(5));
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_secs(3));
        // No ports open → no FAULT_DETECTED/port milestones; measure the
        // detection leg directly from the trace.
        let fault = w
            .trace
            .first_where(|k| matches!(k, TraceKind::ForcedHang { .. }))
            .unwrap()
            .at;
        let woken = w
            .trace
            .first_where(|k| matches!(k, TraceKind::FtdWoken { .. }))
            .unwrap()
            .at;
        let detection = woken.saturating_since(fault);
        let us = detection.as_micros_f64();
        // The derived detection-latency histogram must agree.
        let hist = w.trace.metrics().hist(ftgm_sim::HistId::DetectionLatency);
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, detection.as_nanos());
        assert!(
            (100.0..1_200.0).contains(&us),
            "detection {us}us outside watchdog class"
        );
    }

    #[test]
    fn recovery_with_traffic_is_exactly_once_and_transparent() {
        let (mut w, ft) = ft_world();
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(512, 16, stats.clone())),
        );
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(NodeId(1), 2, 256, 8, None, stats.clone())),
        );
        // Let traffic flow, then hang the RECEIVER mid-stream.
        w.run_for(SimDuration::from_ms(20));
        let before = stats.borrow().received_ok;
        assert!(before > 0, "traffic flowing before fault");
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_ms(2_500));
        assert_eq!(ft.recoveries(NodeId(1)), 1);
        // The recovery ran as typed steps: the probe, six phases, boot,
        // verification and the port's reopen. No closure: `Call` counts
        // only the two `spawn_app` starts.
        let census: Vec<_> = ftgm_gm::EVENT_KINDS.iter().zip(w.stats().events_by_kind).collect();
        assert_eq!(census[9..], [(&"Ftd", 11), (&"Call", 2)], "{census:?}");
        let after = stats.borrow().clone();
        assert!(
            after.received_ok > before + 50,
            "traffic resumed after recovery: {} -> {}",
            before,
            after.received_ok
        );
        assert!(after.clean(), "exactly-once violated: {after:?}");
    }

    #[test]
    fn sender_side_hang_recovers_and_replays_tokens() {
        let (mut w, ft) = ft_world();
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(512, 16, stats.clone())),
        );
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(NodeId(1), 2, 256, 8, None, stats.clone())),
        );
        w.run_for(SimDuration::from_ms(20));
        let before = stats.borrow().received_ok;
        assert!(before > 0);
        // Hang the SENDER: its unacknowledged tokens must replay with their
        // original sequence numbers; the receiver dedupes.
        ft.inject_forced_hang(&mut w, NodeId(0));
        w.run_for(SimDuration::from_ms(2_500));
        assert_eq!(ft.recoveries(NodeId(0)), 1);
        let after = stats.borrow().clone();
        assert!(
            after.received_ok > before + 50,
            "traffic resumed: {} -> {}",
            before,
            after.received_ok
        );
        assert!(after.clean(), "duplicates or corruption leaked: {after:?}");
        // Every completed send was delivered exactly once; the hang loses
        // nothing that was acknowledged to the application.
        assert!(after.received_ok >= after.completed.saturating_sub(1));
    }

    #[test]
    fn premature_watchdog_yields_false_alarms_not_resets() {
        let mut config = WorldConfig::ftgm();
        // Arm IT1 *below* the 800us L_timer interval: it must keep firing
        // spuriously; the magic-word probe must catch every one.
        config.mcp.watchdog_ticks = 1_400; // 700us
        config.trace = true;
        let mut w = World::two_node(config);
        let ft = FtSystem::install(&mut w);
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(512, 16, stats.clone())),
        );
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(NodeId(1), 2, 256, 4, None, stats.clone())),
        );
        w.run_for(SimDuration::from_ms(200));
        assert!(ft.false_alarms(NodeId(0)) > 5, "{}", ft.false_alarms(NodeId(0)));
        assert_eq!(ft.recoveries(NodeId(0)), 0, "no spurious resets");
        let s = stats.borrow();
        assert!(s.clean(), "traffic unharmed by probe churn: {s:?}");
        assert!(s.received_ok > 1_000);
    }

    #[test]
    fn recovery_with_large_multichunk_messages() {
        let (mut w, ft) = ft_world();
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(200_000, 8, stats.clone())),
        );
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(
                NodeId(1),
                2,
                150_000, // 37 chunks per message
                4,
                None,
                stats.clone(),
            )),
        );
        w.run_for(SimDuration::from_ms(30));
        let before = stats.borrow().received_ok;
        assert!(before > 0);
        // Hang the receiver mid-message (statistically certain at 4 in
        // flight), forcing partial-assembly rewind on recovery.
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_ms(2_500));
        assert_eq!(ft.recoveries(NodeId(1)), 1);
        let s = stats.borrow();
        assert!(s.clean(), "multi-chunk exactly-once: {s:?}");
        assert!(s.received_ok > before + 20, "resumed: {s:?}");
    }

    #[test]
    fn recovery_report_matches_paper_shape() {
        let (mut w, ft) = ft_world();
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(512, 16, stats.clone())),
        );
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(NodeId(1), 2, 256, 8, None, stats.clone())),
        );
        w.run_for(SimDuration::from_ms(10));
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_ms(2_500));
        let r = RecoveryReport::from_trace(&w.trace).expect("complete episode");
        let detect_us = r.detection().as_micros_f64();
        let ftd_us = r.ftd_time().as_micros_f64();
        let proc_us = r.per_process().as_micros_f64();
        assert!((100.0..1_200.0).contains(&detect_us), "detect {detect_us}");
        assert!((600_000.0..900_000.0).contains(&ftd_us), "ftd {ftd_us}");
        assert!((850_000.0..1_000_000.0).contains(&proc_us), "proc {proc_us}");
        assert!(r.total() < SimDuration::from_secs(2), "paper: under 2s");
    }
}
