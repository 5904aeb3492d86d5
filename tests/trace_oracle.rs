//! Trace oracle: the typed event stream of one recovery episode must obey
//! the §4.3 protocol order, reproduce Table 3's component bounds, and
//! agree with the metrics registry derived from the same events.
//!
//! This is the typed replacement for the old string-matching trace
//! assertions: every check here pattern-matches [`TraceKind`] variants and
//! their fields, never rendered text.

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::{FtSystem, RecoveryReport};
use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{HistId, RecoveryPhase, SimDuration, SimTime, TraceKind};

/// One recovered hang with traffic on the faulted node, full trace kept.
fn recovered_episode() -> World {
    let mut config = WorldConfig::ftgm();
    config.trace = true;
    let mut w = World::two_node(config);
    w.trace = ftgm_sim::Trace::full();
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
        Box::new(PatternSender::new(NodeId(1), 2, 256, 8, None, stats.clone())),
    );
    w.run_for(SimDuration::from_ms(10));
    ft.inject_forced_hang(&mut w, NodeId(1));
    // Recovery ends 1.7 s after the hang; the rest is full-rate traffic
    // under a full trace.
    w.run_for(SimDuration::from_ms(2_500));
    assert_eq!(ft.recoveries(NodeId(1)), 1, "episode must complete");
    w
}

fn at_of(w: &World, pred: impl Fn(&TraceKind) -> bool) -> SimTime {
    w.trace
        .first_where(pred)
        .expect("milestone present in trace")
        .at
}

#[test]
fn recovery_milestones_appear_in_protocol_order() {
    let w = recovered_episode();
    let node = 1u16;
    let chain = [
        at_of(&w, |k| matches!(k, TraceKind::ForcedHang { node: n } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::WatchdogFired { node: n } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::FtdWoken { node: n } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::FtdRunning { node: n } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::ProbeWritten { node: n, .. } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::ProbeConfirmedHang { node: n } if *n == node)),
        at_of(&w, |k| {
            matches!(k, TraceKind::RecoveryAttempt { node: n, attempt: 1, .. } if *n == node)
        }),
        at_of(&w, |k| {
            matches!(k, TraceKind::RecoveryPhaseDone { node: n, phase: RecoveryPhase::RestoreRoutes, .. } if *n == node)
        }),
        at_of(&w, |k| matches!(k, TraceKind::ReloadVerifying { node: n } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::ReloadVerified { node: n } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::FaultDetectedPosted { node: n, .. } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::GmUnknownEntered { node: n, .. } if *n == node)),
        at_of(&w, |k| matches!(k, TraceKind::PortReopened { node: n, .. } if *n == node)),
    ];
    for pair in chain.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "milestones out of order: {:?} then {:?} in {chain:?}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn all_six_phases_complete_once_in_order() {
    let w = recovered_episode();
    let phases: Vec<(SimTime, RecoveryPhase, SimDuration)> = w
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RecoveryPhaseDone { node: 1, phase, dur } => Some((e.at, phase, dur)),
            _ => None,
        })
        .collect();
    assert_eq!(phases.len(), 6, "exactly one pass over the phase sequence");
    for (i, (at, phase, dur)) in phases.iter().enumerate() {
        assert_eq!(*phase, RecoveryPhase::ORDER[i], "phase order");
        assert!(*dur > SimDuration::ZERO, "phase has a duration");
        // Spans are back-to-back and never overlap: this phase starts at
        // or after the previous one ended.
        if i > 0 {
            let prev_end = phases[i - 1].0;
            let start =
                SimTime::from_nanos(at.as_nanos().saturating_sub(dur.as_nanos()));
            assert!(start >= prev_end, "phase {phase:?} overlaps predecessor");
        }
    }
    // The reload dominates, as in Table 3 (the ~500ms EBUS write).
    let reload = phases
        .iter()
        .find(|(_, p, _)| *p == RecoveryPhase::ReloadMcp)
        .expect("reload phase present")
        .2;
    let longest = phases.iter().map(|(_, _, d)| *d).max().expect("non-empty");
    assert_eq!(reload, longest, "ReloadMcp is the dominant phase");
}

#[test]
fn table3_component_bounds_hold_from_typed_events() {
    let w = recovered_episode();
    let r = RecoveryReport::from_trace(&w.trace).expect("complete episode");
    let detect_us = r.detection().as_micros_f64();
    let ftd_us = r.ftd_time().as_micros_f64();
    let proc_us = r.per_process().as_micros_f64();
    assert!((100.0..1_200.0).contains(&detect_us), "detect {detect_us}us");
    assert!((600_000.0..900_000.0).contains(&ftd_us), "ftd {ftd_us}us");
    assert!((850_000.0..1_000_000.0).contains(&proc_us), "proc {proc_us}us");
    assert!(r.total() < SimDuration::from_secs(2), "paper: under 2s total");
    // The typed components must sum exactly — no event is double-counted.
    assert_eq!(
        r.detection() + r.ftd_time() + r.per_process(),
        r.total(),
        "components partition the episode"
    );
}

#[test]
fn metrics_agree_with_the_event_stream() {
    let w = recovered_episode();
    let m = w.trace.metrics();

    // Counters mirror typed-event counts, for every milestone asserted on.
    for (name, pred) in [
        ("FtdWoken", (|k: &TraceKind| matches!(k, TraceKind::FtdWoken { .. })) as fn(&TraceKind) -> bool),
        ("WatchdogFired", |k| matches!(k, TraceKind::WatchdogFired { .. })),
        ("RecoveryAttempt", |k| matches!(k, TraceKind::RecoveryAttempt { .. })),
        ("RecoveryPhaseDone", |k| matches!(k, TraceKind::RecoveryPhaseDone { .. })),
        ("FaultDetectedPosted", |k| matches!(k, TraceKind::FaultDetectedPosted { .. })),
        ("PortReopened", |k| matches!(k, TraceKind::PortReopened { .. })),
        ("SendPosted", |k| matches!(k, TraceKind::SendPosted { .. })),
        ("MessageReceived", |k| matches!(k, TraceKind::MessageReceived { .. })),
    ] {
        assert_eq!(
            m.counter(name),
            w.trace.count_where(pred) as u64,
            "counter {name} disagrees with the event stream"
        );
    }

    // The detection-latency histogram holds exactly this episode.
    let r = RecoveryReport::from_trace(&w.trace).expect("complete episode");
    let det = m.hist(HistId::DetectionLatency);
    assert_eq!(det.count, 1);
    assert_eq!(det.sum, r.detection().as_nanos());

    // Each phase histogram recorded exactly one sample whose sum matches
    // the phase's event-carried duration.
    for e in w.trace.events() {
        if let TraceKind::RecoveryPhaseDone { phase, dur, .. } = e.kind {
            let h = m.hist(HistId::for_phase(phase));
            assert_eq!(h.count, 1, "{phase:?}");
            assert_eq!(h.sum, dur.as_nanos(), "{phase:?}");
        }
    }

    // Every histogram's bucket row sums back to its count.
    for id in HistId::ALL {
        let h = m.hist(id);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "{id:?}");
    }
}

#[test]
fn exports_replay_the_same_episode() {
    let w = recovered_episode();
    let jsonl = ftgm_sim::export::to_jsonl(&w.trace);
    assert_eq!(
        jsonl.lines().count(),
        w.trace.events().len(),
        "one JSON line per stored event"
    );
    // Spot-check: the reopened-port milestone survives the round trip with
    // its fields intact.
    assert!(jsonl.contains("\"kind\":\"PortReopened\""));
    let chrome = ftgm_sim::export::to_chrome_trace(&w.trace);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":\"X\""), "phase spans exported");
}
