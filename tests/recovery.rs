//! Recovery scenarios beyond the paper's single-fault experiments:
//! repeated faults, overlapping faults on both nodes, multi-port
//! processes, and recovery with injected (rather than forced) hangs.

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::{restore_port_state, FtSystem, RestoreSummary};
use ftgm_faults::{Outcome, RunConfig};
use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_host::CpuCost;
use ftgm_lanai::timers::TimerId;
use ftgm_net::NodeId;
use ftgm_sim::{RecoveryPhase, SimDuration, TraceKind};

fn ft_world() -> (World, FtSystem) {
    let mut config = WorldConfig::ftgm();
    config.trace = true;
    let mut w = World::two_node(config);
    let ft = FtSystem::install(&mut w);
    (w, ft)
}

fn traffic(w: &mut World, src: NodeId, src_port: u8, dst: NodeId, dst_port: u8) -> Rc<RefCell<TrafficStats>> {
    let stats = Rc::new(RefCell::new(TrafficStats::default()));
    w.spawn_app(
        dst,
        dst_port,
        Box::new(PatternReceiver::new(512, 16, stats.clone())),
    );
    w.spawn_app(
        src,
        src_port,
        Box::new(PatternSender::new(dst, dst_port, 256, 6, None, stats.clone())),
    );
    stats
}

#[test]
fn repeated_faults_on_one_node() {
    let (mut w, ft) = ft_world();
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    for _ in 0..2 {
        w.run_for(SimDuration::from_ms(100));
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_secs(2));
    }
    assert_eq!(ft.recoveries(NodeId(1)), 2);
    let s = stats.borrow();
    assert!(s.clean(), "{s:?}");
    assert!(s.received_ok > 1000);
}

#[test]
fn both_nodes_hang_staggered() {
    let (mut w, ft) = ft_world();
    let a = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    let b = traffic(&mut w, NodeId(1), 3, NodeId(0), 5);
    w.run_for(SimDuration::from_ms(50));
    ft.inject_forced_hang(&mut w, NodeId(0));
    w.run_for(SimDuration::from_ms(400));
    ft.inject_forced_hang(&mut w, NodeId(1));
    // Both flows are moving again 1.7 s after the second hang; every
    // further simulated second is full-rate traffic the assertions
    // below do not need.
    w.run_for(SimDuration::from_ms(2_500));
    assert_eq!(ft.recoveries(NodeId(0)), 1);
    assert_eq!(ft.recoveries(NodeId(1)), 1);
    let before = (a.borrow().received_ok, b.borrow().received_ok);
    w.run_for(SimDuration::from_ms(500));
    let sa = a.borrow();
    let sb = b.borrow();
    assert!(sa.clean(), "{sa:?}");
    assert!(sb.clean(), "{sb:?}");
    assert!(sa.received_ok > before.0, "flow a resumed");
    assert!(sb.received_ok > before.1, "flow b resumed");
}

#[test]
fn multi_port_process_recovery() {
    let (mut w, ft) = ft_world();
    // Two independent flows into two ports of node 1; both must recover.
    let a = traffic(&mut w, NodeId(0), 0, NodeId(1), 1);
    let b = traffic(&mut w, NodeId(0), 3, NodeId(1), 4);
    w.run_for(SimDuration::from_ms(50));
    ft.inject_forced_hang(&mut w, NodeId(1));
    w.run_for(SimDuration::from_ms(2_500));
    let sa = a.borrow();
    let sb = b.borrow();
    assert!(sa.clean() && sb.clean(), "{sa:?} {sb:?}");
    assert!(sa.received_ok > 1000 && sb.received_ok > 1000);
    // Both ports went through FAULT_DETECTED.
    let posts = w
        .trace
        .count_where(|k| matches!(k, TraceKind::FaultDetectedPosted { .. }));
    assert_eq!(posts, 2, "one per open port");
}

#[test]
fn hang_while_previous_recovery_in_progress_is_absorbed() {
    let (mut w, ft) = ft_world();
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    w.run_for(SimDuration::from_ms(50));
    ft.inject_forced_hang(&mut w, NodeId(1));
    // Hit the same node again mid-recovery (after reload, before reopen).
    w.run_for(SimDuration::from_ms(1_000));
    ft.inject_forced_hang(&mut w, NodeId(1));
    // The second recovery ends 1.65 s after its hang; the rest of the
    // run is full-rate traffic.
    w.run_for(SimDuration::from_ms(2_500));
    // Both hangs end up healed (the second needs its own detection cycle).
    assert!(ft.recoveries(NodeId(1)) >= 1);
    assert!(!w.nodes[1].mcp.chip.is_hung());
    let before = stats.borrow().received_ok;
    w.run_for(SimDuration::from_ms(500));
    let s = stats.borrow();
    assert!(s.received_ok > before, "traffic flowing at the end");
    assert!(s.clean(), "{s:?}");
}

#[test]
fn injected_bit_flip_hang_recovers_transparently() {
    // Drive the real campaign path (bit flip, not forced hang) with seeds
    // until one hangs, and require a clean recovery.
    let config = RunConfig {
        window: SimDuration::from_ms(2_500),
        ..RunConfig::effectiveness()
    };
    let mut seen_hang = false;
    for seed in 0..25u64 {
        let r = ftgm_faults::run_one(&config, seed);
        if r.outcome == Outcome::LocalInterfaceHung {
            seen_hang = true;
            assert!(r.recoveries >= 1, "seed {seed}: hang undetected");
            assert!(r.recovered_clean, "seed {seed}: recovery not clean: {r:?}");
            break;
        }
    }
    assert!(seen_hang, "no hang among the probed seeds");
}

#[test]
fn busy_clears_and_watchdog_rearms_after_each_recovery() {
    // Two hangs in sequence: each recovery must leave the FTD idle and the
    // IT1 watchdog armed, or the *next* hang goes undetected.
    let (mut w, ft) = ft_world();
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    for round in 1..=2u64 {
        w.run_for(SimDuration::from_ms(100));
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(ft.recoveries(NodeId(1)), round);
        assert!(!ft.busy(NodeId(1)), "round {round}: FTD still busy");
        let now = w.now();
        assert!(
            w.nodes[1].mcp.chip.timer_count(TimerId::It1, now) > 0,
            "round {round}: IT1 watchdog not re-armed"
        );
    }
    let s = stats.borrow();
    assert!(s.clean(), "{s:?}");
}

#[test]
fn reload_wipes_the_route_table_and_restore_routes_brings_it_back() {
    let (mut w, ft) = ft_world();
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    w.run_for(SimDuration::from_ms(20));
    ft.inject_forced_hang(&mut w, NodeId(1));
    // (phase, MCP table == host backup, MCP table empty) per phase.
    let mut seen = Vec::new();
    let end = w.now() + SimDuration::from_secs(2);
    while let Some((node, phase)) = w.run_until_ftd_phase(end) {
        let n = &w.nodes[node.0 as usize];
        seen.push((phase, n.mcp.routes() == &n.route_backup, n.mcp.routes().is_empty()));
    }
    assert_eq!(ft.recoveries(NodeId(1)), 1);
    let at = |phase| seen.iter().find(|(p, ..)| *p == phase).copied();
    assert_eq!(
        at(RecoveryPhase::RestartEngines),
        Some((RecoveryPhase::RestartEngines, false, true)),
        "the reload lost the table with the rest of SRAM"
    );
    assert_eq!(
        at(RecoveryPhase::RestoreRoutes),
        Some((RecoveryPhase::RestoreRoutes, true, false)),
        "RestoreRoutes installs the host's copy"
    );
    assert!(stats.borrow().clean());
}

#[test]
fn false_alarm_leaves_ftd_ready_for_real_hang() {
    // A real FATAL with no hang behind it (IT1 armed for two ticks expires
    // before L_timer() re-arms it; the live MCP clears the magic word) must
    // end as a false alarm that leaves busy clear and the watchdog armed —
    // a real hang right after is still healed.
    let (mut w, ft) = ft_world();
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    w.run_for(SimDuration::from_ms(50));
    let now = w.now();
    w.nodes[1].mcp.chip.arm_timer(TimerId::It1, now, 2);
    w.sync_node(1);
    w.run_for(SimDuration::from_ms(50));
    assert_eq!(
        w.trace.count_where(|k| matches!(k, TraceKind::WatchdogFired { node: 1 })),
        1
    );
    assert_eq!(ft.false_alarms(NodeId(1)), 1);
    assert_eq!(ft.recoveries(NodeId(1)), 0, "no spurious reset");
    assert!(!ft.busy(NodeId(1)), "false alarm left the FTD busy");
    let now = w.now();
    assert!(
        w.nodes[1].mcp.chip.timer_count(TimerId::It1, now) > 0,
        "IT1 watchdog not armed after false alarm"
    );
    ft.inject_forced_hang(&mut w, NodeId(1));
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(ft.recoveries(NodeId(1)), 1, "real hang after false alarm healed");
    assert!(!ft.busy(NodeId(1)));
    let s = stats.borrow();
    assert!(s.clean(), "{s:?}");
}

#[test]
fn restore_port_state_reentry_is_idempotent() {
    // The retry path can re-run the FAULT_DETECTED handler for a port that
    // already restored once. The second pass must not double-queue sends
    // or re-advance receiver stream state.
    let (mut w, _ft) = ft_world();
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    w.run_for(SimDuration::from_ms(50));

    // Sender side: replaying the backup twice queues each send once.
    let outstanding = w.nodes[0].ports[0]
        .as_ref()
        .map(|hp| hp.backup.outstanding_sends().len())
        .unwrap_or(0);
    let s1 = restore_port_state(&mut w, NodeId(0), 0);
    let q1 = w.nodes[0].mcp.queued_sends();
    let s2 = restore_port_state(&mut w, NodeId(0), 0);
    let q2 = w.nodes[0].mcp.queued_sends();
    assert_eq!(s1, s2, "second pass replays the same backup");
    assert_eq!(q1, q2, "sends double-queued on re-entry");
    assert!(q2 <= outstanding, "{q2} queued from {outstanding} outstanding");

    // Receiver side too: double restore, then traffic must stay
    // exactly-once (restored stream seqnums reject the replayed dupes).
    restore_port_state(&mut w, NodeId(1), 2);
    restore_port_state(&mut w, NodeId(1), 2);
    let before = stats.borrow().received_ok;
    w.run_for(SimDuration::from_ms(300));
    let s = stats.borrow();
    assert!(s.received_ok > before, "traffic resumed after double restore");
    assert!(s.clean(), "double restore broke exactly-once: {s:?}");
}

#[test]
fn restore_is_total_over_its_arguments() {
    // The handler IS the recovery path: a port that was never opened, a
    // port past the table and a node that does not exist restore nothing
    // and touch nothing, instead of panicking on an index.
    let (mut w, _ft) = ft_world();
    let _stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    w.run_for(SimDuration::from_ms(50));
    let queued = w.nodes[0].mcp.queued_sends();
    let charged = w.nodes[0].host.cpu.count_for(CpuCost::Recovery);
    for (node, port) in [(NodeId(0), 7), (NodeId(0), 8), (NodeId(99), 0)] {
        let summary = restore_port_state(&mut w, node, port);
        assert_eq!(summary, RestoreSummary::default(), "{node:?} port {port}");
        assert_eq!(
            w.nodes[0].mcp.queued_sends(),
            queued,
            "{node:?} port {port}"
        );
        assert_eq!(
            w.nodes[0].host.cpu.count_for(CpuCost::Recovery),
            charged,
            "{node:?} port {port}"
        );
    }
}

#[test]
fn gm_baseline_does_not_recover() {
    // Sanity for the comparison: without FTGM, a hang is permanent and the
    // sender eventually reports errors.
    let mut config = WorldConfig::gm();
    config.mcp.retry_limit = 10;
    let mut w = World::two_node(config);
    let stats = traffic(&mut w, NodeId(0), 0, NodeId(1), 2);
    w.run_for(SimDuration::from_ms(50));
    w.nodes[1].mcp.force_hang();
    w.run_for(SimDuration::from_secs(3));
    assert!(w.nodes[1].mcp.chip.is_hung(), "no one heals GM");
    let s = stats.borrow();
    assert!(s.send_errors > 0, "GM surfaces fatal send errors: {s:?}");
}
