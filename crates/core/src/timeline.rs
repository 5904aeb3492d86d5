//! Recovery-timeline extraction (Figure 9 / Table 3).
//!
//! The world's [`ftgm_sim::Trace`] records every recovery milestone; this
//! module folds a trace into the paper's three components:
//!
//! * **fault detection time** — fault activation → FTD woken (bounded by
//!   the watchdog interval; the paper reports ~800 µs),
//! * **FTD recovery time** — FTD woken → `FAULT_DETECTED` posted (probe,
//!   reset, SRAM clear, MCP reload, table restores; ~765,000 µs),
//! * **per-process recovery time** — `FAULT_DETECTED` delivered → port
//!   reopened (~900,000 µs).

use ftgm_sim::{SimDuration, SimTime, Trace, TraceEvent, TraceKind};

/// The recovery-time breakdown of one fault-recovery episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// When the fault was injected/activated.
    pub fault_at: SimTime,
    /// When the driver woke the FTD (detection complete).
    pub ftd_woken_at: SimTime,
    /// When the FTD posted the last `FAULT_DETECTED` event.
    pub ftd_done_at: SimTime,
    /// When the last port finished its handler and reopened.
    pub ports_reopened_at: SimTime,
}

impl RecoveryReport {
    /// Extracts the most recent episode from a trace, if it is complete.
    ///
    /// The episode is anchored on the last fault activation; its other
    /// three milestones must follow on that fault's node, in order.
    /// Returns `None` if any milestone is missing (e.g. the fault was not
    /// detected).
    pub fn from_trace(trace: &Trace) -> Option<RecoveryReport> {
        let events = trace.events();
        let fault = events.iter().rposition(|e| {
            matches!(e.kind, TraceKind::FaultInjected { .. } | TraceKind::ForcedHang { .. })
        })?;
        let episode = events.get(fault..)?;
        let node = episode.first()?.kind.node();
        let woken = tail_from(episode, node, false, |k| matches!(k, TraceKind::FtdWoken { .. }))?;
        let done = tail_from(woken, node, true, |k| {
            matches!(k, TraceKind::FaultDetectedPosted { .. })
        })?;
        let reopened = tail_from(done, node, true, |k| matches!(k, TraceKind::PortReopened { .. }))?;
        Some(RecoveryReport {
            fault_at: episode.first()?.at,
            ftd_woken_at: woken.first()?.at,
            ftd_done_at: done.first()?.at,
            ports_reopened_at: reopened.first()?.at,
        })
    }

    /// Fault detection time (Table 3 row 1).
    pub fn detection(&self) -> SimDuration {
        self.ftd_woken_at.saturating_since(self.fault_at)
    }

    /// FTD recovery time (Table 3 row 2).
    pub fn ftd_time(&self) -> SimDuration {
        self.ftd_done_at.saturating_since(self.ftd_woken_at)
    }

    /// Per-process recovery time (Table 3 row 3).
    pub fn per_process(&self) -> SimDuration {
        self.ports_reopened_at.saturating_since(self.ftd_done_at)
    }

    /// Complete recovery time, fault to full service.
    pub fn total(&self) -> SimDuration {
        self.ports_reopened_at.saturating_since(self.fault_at)
    }
}

/// The tail of `events` from the first (or `last`) event on `node` whose
/// kind matches `pred`.
fn tail_from(
    events: &[TraceEvent],
    node: Option<u16>,
    last: bool,
    pred: fn(&TraceKind) -> bool,
) -> Option<&[TraceEvent]> {
    let hit = |e: &TraceEvent| e.kind.node() == node && pred(&e.kind);
    let at = if last {
        events.iter().rposition(hit)
    } else {
        events.iter().position(hit)
    }?;
    events.get(at..)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::enabled();
        tr.emit(t(0), TraceKind::FaultInjected { node: 1, bit: 100 });
        tr.emit(t(800), TraceKind::FtdWoken { node: 1 });
        tr.emit(t(765_800), TraceKind::FaultDetectedPosted { node: 1, port: 2 });
        tr.emit(
            t(1_665_800),
            TraceKind::PortReopened {
                node: 1,
                port: 2,
                sends_replayed: 0,
                recvs_replayed: 0,
                streams_restored: 0,
            },
        );
        tr
    }

    #[test]
    fn report_extracts_components() {
        let r = RecoveryReport::from_trace(&sample_trace()).expect("complete episode");
        assert_eq!(r.detection(), SimDuration::from_us(800));
        assert_eq!(r.ftd_time(), SimDuration::from_us(765_000));
        assert_eq!(r.per_process(), SimDuration::from_us(900_000));
        assert_eq!(r.total(), SimDuration::from_us(1_665_800));
    }

    #[test]
    fn incomplete_trace_yields_none() {
        let mut tr = Trace::enabled();
        tr.emit(t(0), TraceKind::FaultInjected { node: 1, bit: 5 });
        assert!(RecoveryReport::from_trace(&tr).is_none());
    }

    #[test]
    fn uses_most_recent_episode() {
        let mut tr = sample_trace();
        tr.emit(t(5_000_000), TraceKind::FaultInjected { node: 1, bit: 7 });
        tr.emit(t(5_000_800), TraceKind::FtdWoken { node: 1 });
        tr.emit(t(5_765_800), TraceKind::FaultDetectedPosted { node: 1, port: 2 });
        tr.emit(
            t(6_665_800),
            TraceKind::PortReopened {
                node: 1,
                port: 2,
                sends_replayed: 0,
                recvs_replayed: 0,
                streams_restored: 0,
            },
        );
        let r = RecoveryReport::from_trace(&tr).unwrap();
        assert_eq!(r.fault_at, t(5_000_000));
        assert_eq!(r.detection(), SimDuration::from_us(800));
    }

    #[test]
    fn a_later_undetected_fault_is_not_stitched_onto_an_earlier_episode() {
        let mut tr = sample_trace();
        tr.emit(t(5_000_000), TraceKind::ForcedHang { node: 3 });
        assert_eq!(RecoveryReport::from_trace(&tr), None);
    }

    #[test]
    fn another_nodes_milestones_do_not_complete_an_episode() {
        // Node 3 hangs first and is never detected; node 1's complete
        // episode then runs around it. The last fault is node 1's.
        let mut tr = Trace::enabled();
        tr.emit(t(0), TraceKind::ForcedHang { node: 3 });
        for ev in sample_trace().events() {
            tr.emit(ev.at + SimDuration::from_us(100), ev.kind);
        }
        let r = RecoveryReport::from_trace(&tr).expect("node 1's episode");
        assert_eq!((r.fault_at, r.total()), (t(100), SimDuration::from_us(1_665_800)));
        // A fault on node 3 after that finds none of node 1's milestones.
        tr.emit(t(1_700_000), TraceKind::FaultInjected { node: 3, bit: 9 });
        tr.emit(t(1_700_800), TraceKind::FtdWoken { node: 3 });
        assert_eq!(RecoveryReport::from_trace(&tr), None);
    }
}
