//! Tier-1 chaos smoke: a deterministic scenario set (named files of the
//! `scenarios/` corpus, replayed from this suite's own seeds) that must
//! finish quickly and pass every oracle. This is the CI gate for the
//! composed multi-fault behaviours (fault-during-recovery, retry,
//! escalation) that the paper's single-fault campaign never reaches.

mod common;

use common::{pick, STANDARD};
use ftgm_faults::chaos::{
    run_scenario, ChaosAction, ChaosEvent, ChaosReport, ChaosScenario, PhaseTrigger,
};
use ftgm_faults::{InjectionTarget, Resolution};
use ftgm_sim::{RecoveryPhase, SimDuration};

const SEED: u64 = 42;

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn standard_set_passes_all_oracles() {
    let mut recovered = 0u64;
    let mut escalated = 0u64;
    for scenario in pick(&STANDARD) {
        let report = run_scenario(&scenario.chaos, SEED);
        assert!(
            report.ok(),
            "{}: oracle violations {:?}",
            scenario.name,
            report.violations
        );
        recovered += report.nodes.iter().map(|n| n.recoveries).sum::<u64>();
        escalated += report.nodes.iter().map(|n| n.escalations).sum::<u64>();
    }
    // The set exercises both terminal paths of the FTD state machine.
    assert!(recovered > 0, "no scenario completed a recovery");
    assert!(escalated > 0, "no scenario reached escalation");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn same_seed_replays_byte_identically() {
    let scenarios = pick(&STANDARD);
    let run = |seed| -> Vec<ChaosReport> {
        scenarios.iter().map(|s| run_scenario(&s.chaos, seed)).collect()
    };
    assert_eq!(run(7), run(7), "same-seed replay diverged");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn persistent_hang_escalates_loudly() {
    // The bounded-retry acceptance path: a hang that re-manifests at the
    // end of every reload exhausts the attempt budget, the interface is
    // declared dead, and the applications *see* it — no silent hang.
    let s = &pick(&["persistent-hang-escalates"])[0];
    let report = run_scenario(&s.chaos, SEED);
    assert!(report.ok(), "{:?}", report.violations);
    let n0 = report
        .nodes
        .iter()
        .find(|n| n.node == 0)
        .expect("node 0 reported");
    assert_eq!(n0.resolution, Resolution::Escalated, "{n0:?}");
    assert!(n0.failed_attempts >= 3, "{n0:?}");
    let surfaced: u64 = report
        .flows
        .iter()
        .map(|f| f.iface_dead + f.send_errors)
        .sum();
    assert!(surfaced > 0, "escalation was silent: {report:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn second_flip_during_reload_never_hangs_silently() {
    // The headline acceptance scenario, swept over seeds: a second
    // code-section flip lands during the ReloadMcp phase. Every run must
    // end fully recovered or explicitly dead — never stranded.
    let s = &pick(&["double-flip-during-reload"])[0];
    let mut saw_recovery = false;
    for seed in 0..5u64 {
        let report = run_scenario(&s.chaos, seed);
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        for n in &report.nodes {
            assert!(
                n.resolution.acceptable(),
                "seed {seed}: node {} ended {}",
                n.node,
                n.resolution
            );
        }
        saw_recovery |= report.nodes.iter().any(|n| n.recoveries > 0);
    }
    assert!(saw_recovery, "no seed ever hung and recovered");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn faults_inside_every_ftd_phase_converge() {
    // Parameterized over the FTD's phase order: a code flip timed inside
    // each recovery phase. Whatever the phase, the interface converges to
    // recovered-or-escalated within the horizon.
    for phase in RecoveryPhase::ORDER {
        let mut s = ChaosScenario::two_node(&format!("flip-inside-{phase:?}"));
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(0),
            action: ChaosAction::ForceHang { node: 0 },
        });
        s.phase_triggers.push(PhaseTrigger {
            node: 0,
            phase,
            action: ChaosAction::BitFlip {
                node: 0,
                target: InjectionTarget::SendChunkCode,
            },
            remaining: 1,
        });
        let report = run_scenario(&s, SEED);
        let n0 = report
            .nodes
            .iter()
            .find(|n| n.node == 0)
            .expect("node 0 reported");
        assert!(
            matches!(n0.resolution, Resolution::Recovered | Resolution::Escalated),
            "{phase:?}: node 0 ended {} — {:?}",
            n0.resolution,
            report.violations
        );
        assert!(report.ok(), "{phase:?}: {:?}", report.violations);
    }
}

/// A fault scheduled in the last nanosecond of the horizon still fires:
/// the runner ends on absolute instants, not on a clock the warm-up left
/// short of its bound.
#[test]
fn hang_on_the_horizon_edge_fires() {
    let mut s = ChaosScenario::two_node("hang-at-the-edge");
    s.horizon = SimDuration::from_ms(1);
    s.events.push(ChaosEvent {
        at: SimDuration::from_nanos(s.horizon.as_nanos() - 1),
        action: ChaosAction::ForceHang { node: 0 },
    });
    let report = run_scenario(&s, SEED);
    assert_eq!(report.metrics.counter("ForcedHang"), 1, "the hang never fired");
}
