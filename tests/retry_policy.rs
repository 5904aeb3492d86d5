//! Boundary tests for the FTD's [`RetryPolicy`], asserted through the
//! typed retry/escalation events: the attempt budget exhausts at exactly
//! `max_attempts`, backoff doubles per failed attempt, and a re-hang
//! inside the re-hang window continues the previous episode's budget
//! rather than resetting it.

use ftgm_core::FtSystem;
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{RecoveryPhase, SimDuration, TraceKind};

fn ft_world() -> (World, FtSystem) {
    let mut config = WorldConfig::ftgm();
    config.trace = true;
    let mut w = World::two_node(config);
    let ft = FtSystem::install(&mut w);
    (w, ft)
}

/// Runs `w` for `d`, re-hanging the MCP in the last phase (RestoreRoutes)
/// of the next `rehangs` recovery attempts, so the freshly reloaded MCP is
/// dead at verification time exactly that many times.
fn run_sabotaging_reloads(w: &mut World, d: SimDuration, mut rehangs: u32) {
    let end = w.now() + d;
    while let Some((node, phase)) = w.run_until_ftd_phase(end) {
        if phase == RecoveryPhase::RestoreRoutes && rehangs > 0 {
            rehangs -= 1;
            w.nodes[node.0 as usize].mcp.force_hang();
        }
    }
}

#[test]
fn backoff_doubles_per_attempt_and_caps_the_shift() {
    let policy = ftgm_core::RetryPolicy::default();
    assert_eq!(policy.max_attempts, 3);
    assert_eq!(policy.backoff_after(1), SimDuration::from_ms(50));
    assert_eq!(policy.backoff_after(2), SimDuration::from_ms(100));
    assert_eq!(policy.backoff_after(3), SimDuration::from_ms(200));
    // The doubling shift saturates at 16 so huge attempt counts cannot
    // overflow the nanosecond arithmetic.
    assert_eq!(policy.backoff_after(17), policy.backoff_after(18));
    assert_eq!(
        policy.backoff_after(17),
        SimDuration::from_nanos(SimDuration::from_ms(50).as_nanos() << 16)
    );
}

#[test]
fn budget_exhausts_at_exactly_max_attempts_then_escalates() {
    let (mut w, ft) = ft_world();
    w.run_for(SimDuration::from_ms(5));
    ft.inject_forced_hang(&mut w, NodeId(0));
    run_sabotaging_reloads(&mut w, SimDuration::from_secs(6), 3);

    assert!(ft.interface_dead(NodeId(0)), "escalated to dead");
    assert_eq!(ft.escalations(NodeId(0)), 1);
    assert_eq!(ft.recoveries(NodeId(0)), 0, "no attempt succeeded");

    // Exactly three attempts ran — the budget is 3, not 2 or 4.
    let attempts: Vec<u32> = w
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RecoveryAttempt { node: 0, attempt, max_attempts } => {
                assert_eq!(max_attempts, 3);
                Some(attempt)
            }
            _ => None,
        })
        .collect();
    assert_eq!(attempts, vec![1, 2, 3]);

    // Backoff doubled between the failed attempts: 50ms after the first,
    // 100ms after the second; the third failure escalates, so no third
    // retry is ever scheduled.
    let backoffs: Vec<SimDuration> = w
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RetryScheduled { node: 0, backoff, .. } => Some(backoff),
            _ => None,
        })
        .collect();
    assert_eq!(
        backoffs,
        vec![SimDuration::from_ms(50), SimDuration::from_ms(100)]
    );

    // The escalation event carries the exhausted budget, and the dead
    // interface surfaced its outstanding sends loudly.
    let esc = w
        .trace
        .last_where(|k| matches!(k, TraceKind::Escalated { node: 0, .. }))
        .expect("escalation traced");
    assert!(matches!(esc.kind, TraceKind::Escalated { attempts: 3, .. }));
    assert!(w
        .trace
        .last_where(|k| matches!(k, TraceKind::OutstandingSendsFailed { node: 0, .. }))
        .is_some());
}

#[test]
fn one_fewer_failure_recovers_on_the_final_attempt() {
    let (mut w, ft) = ft_world();
    w.run_for(SimDuration::from_ms(5));
    ft.inject_forced_hang(&mut w, NodeId(0));
    run_sabotaging_reloads(&mut w, SimDuration::from_secs(6), 2);

    assert!(!ft.interface_dead(NodeId(0)), "third attempt succeeded");
    assert_eq!(ft.recoveries(NodeId(0)), 1);
    assert_eq!(ft.failed_attempts(NodeId(0)), 2);
    assert_eq!(
        w.trace
            .count_where(|k| matches!(k, TraceKind::RetryScheduled { node: 0, .. })),
        2
    );
    assert!(w
        .trace
        .last_where(|k| matches!(k, TraceKind::Escalated { .. }))
        .is_none());
}

#[test]
fn rehang_inside_window_continues_the_episode_budget() {
    let (mut w, ft) = ft_world();
    w.run_for(SimDuration::from_ms(5));
    ft.inject_forced_hang(&mut w, NodeId(0));
    // Run until the first recovery completes, then immediately hang again:
    // the second FATAL lands well inside the 500ms re-hang window.
    let mut guard = 0;
    while ft.recoveries(NodeId(0)) == 0 {
        w.run_for(SimDuration::from_ms(50));
        guard += 1;
        assert!(guard < 200, "first recovery never completed");
    }
    ft.inject_forced_hang(&mut w, NodeId(0));
    w.run_for(SimDuration::from_secs(3));

    assert_eq!(ft.recoveries(NodeId(0)), 2, "second hang also healed");
    // The re-hang continued the episode: its reload ran as attempt 2 —
    // the budget did NOT reset to 1.
    let last_attempt = w
        .trace
        .last_where(|k| matches!(k, TraceKind::RecoveryAttempt { node: 0, .. }))
        .expect("attempt traced");
    assert!(
        matches!(last_attempt.kind, TraceKind::RecoveryAttempt { attempt: 2, .. }),
        "{:?}",
        last_attempt.kind
    );
}

#[test]
fn rehang_outside_window_starts_a_fresh_episode() {
    let (mut w, ft) = ft_world();
    w.run_for(SimDuration::from_ms(5));
    ft.inject_forced_hang(&mut w, NodeId(0));
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(ft.recoveries(NodeId(0)), 1);
    // Well past the 500ms re-hang window: the budget resets.
    w.run_for(SimDuration::from_secs(2));
    ft.inject_forced_hang(&mut w, NodeId(0));
    w.run_for(SimDuration::from_secs(3));

    assert_eq!(ft.recoveries(NodeId(0)), 2);
    let last_attempt = w
        .trace
        .last_where(|k| matches!(k, TraceKind::RecoveryAttempt { node: 0, .. }))
        .expect("attempt traced");
    assert!(
        matches!(last_attempt.kind, TraceKind::RecoveryAttempt { attempt: 1, .. }),
        "{:?}",
        last_attempt.kind
    );
}
