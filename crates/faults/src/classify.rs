//! Failure-outcome taxonomy and classification (Table 1).
//!
//! The paper buckets every injected fault into seven categories by its
//! externally observable effect. We classify from the same observables a
//! testbed operator has: whether each host is up, whether each interface
//! still responds, and what the *validated* application traffic saw.

// Adding a fault kind, recovery event or FTD step must force a handling
// decision at every match here, not fall into a default arm.
#![deny(clippy::wildcard_enum_match_arm)]

use std::fmt;

/// The paper's Table 1 failure categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// The injected interface stopped executing (trap or runaway loop).
    LocalInterfaceHung,
    /// Messages dropped or corrupted (the paper groups both): silently
    /// corrupted delivery, ordering violation, CRC-detected corruption on
    /// the wire, or messages persistently failing to get through.
    MessagesCorrupted,
    /// A *remote* interface hung as a consequence.
    RemoteInterfaceHung,
    /// The MCP spontaneously restarted (not modelled; always zero, as in
    /// the paper's own experiments).
    McpRestart,
    /// The fault propagated into a host crash (wild DMA).
    HostComputerCrash,
    /// Some other visible error: traffic degraded without any corruption
    /// or loss evidence.
    OtherErrors,
    /// Traffic continued correctly; the flipped bit never mattered.
    NoImpact,
}

impl Outcome {
    /// All categories, in Table 1's row order.
    pub const ALL: [Outcome; 7] = [
        Outcome::LocalInterfaceHung,
        Outcome::MessagesCorrupted,
        Outcome::RemoteInterfaceHung,
        Outcome::McpRestart,
        Outcome::HostComputerCrash,
        Outcome::OtherErrors,
        Outcome::NoImpact,
    ];

    /// Table 1's row label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::LocalInterfaceHung => "Local Interface Hung",
            Outcome::MessagesCorrupted => "Messages Corrupted",
            Outcome::RemoteInterfaceHung => "Remote Interface Hung",
            Outcome::McpRestart => "MCP Restart",
            Outcome::HostComputerCrash => "Host Computer Crash",
            Outcome::OtherErrors => "Other Errors",
            Outcome::NoImpact => "No Impact",
        }
    }

    /// The paper's measured percentage for this category ("our work"
    /// column of Table 1), for side-by-side reporting.
    pub fn paper_percent(self) -> f64 {
        match self {
            Outcome::LocalInterfaceHung => 28.6,
            Outcome::MessagesCorrupted => 18.3,
            Outcome::RemoteInterfaceHung => 0.0,
            Outcome::McpRestart => 0.0,
            Outcome::HostComputerCrash => 0.6,
            Outcome::OtherErrors => 1.2,
            Outcome::NoImpact => 51.3,
        }
    }

    /// The Stott/Iyer et al. (FTCS'97) column of Table 1.
    pub fn iyer_percent(self) -> f64 {
        match self {
            Outcome::LocalInterfaceHung => 23.4,
            Outcome::MessagesCorrupted => 12.7,
            Outcome::RemoteInterfaceHung => 1.2,
            Outcome::McpRestart => 3.1,
            Outcome::HostComputerCrash => 0.4,
            Outcome::OtherErrors => 1.1,
            Outcome::NoImpact => 58.1,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The observables a run collects for classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observables {
    /// Did the faulted node's host crash?
    pub local_host_crashed: bool,
    /// Did the remote host crash?
    pub remote_host_crashed: bool,
    /// Is the faulted node's network processor hung?
    pub local_hung: bool,
    /// Is the remote network processor hung?
    pub remote_hung: bool,
    /// Messages delivered with corrupt contents (pattern mismatch).
    pub delivered_corrupt: u64,
    /// Ordering/duplication violations observed by the application.
    pub misordered: u64,
    /// Receiver-side packets dropped by checksum/structure validation
    /// after the fault (wire-visible corruption).
    pub parse_drops_after: u64,
    /// Application-visible send errors.
    pub send_errors: u64,
    /// Messages delivered OK after the fault was injected.
    pub progress_after: u64,
    /// Rough number of messages a healthy run would have delivered in the
    /// observation window (for degradation detection).
    pub expected_progress: u64,
}

/// Classifies a run's observables, most severe first.
///
/// # Example
///
/// ```
/// use ftgm_faults::classify::{classify, Observables, Outcome};
///
/// let clean = Observables { progress_after: 100, ..Default::default() };
/// assert_eq!(classify(&clean), Outcome::NoImpact);
/// ```
pub fn classify(obs: &Observables) -> Outcome {
    if obs.local_host_crashed || obs.remote_host_crashed {
        return Outcome::HostComputerCrash;
    }
    if obs.remote_hung {
        return Outcome::RemoteInterfaceHung;
    }
    if obs.local_hung {
        return Outcome::LocalInterfaceHung;
    }
    if obs.delivered_corrupt > 0
        || obs.misordered > 0
        || obs.parse_drops_after > 0
        || obs.send_errors > 0
        || obs.progress_after == 0
    {
        // The paper's category covers dropped *and* corrupted messages:
        // a stream that silently stops (every packet eaten by the fault)
        // is message loss.
        return Outcome::MessagesCorrupted;
    }
    if obs.progress_after < obs.expected_progress / 2 {
        return Outcome::OtherErrors;
    }
    Outcome::NoImpact
}

/// How one interface's fault-handling story ended, for chaos-campaign
/// oracles. Unlike [`Outcome`] (the *external* damage taxonomy of Table 1)
/// this classifies the *fault-tolerance machinery's* terminal state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// No fault ever manifested on this interface.
    Healthy,
    /// At least one recovery completed and the interface is back up.
    Recovered,
    /// Bounded retries were exhausted; the FTD declared the interface dead
    /// and failed outstanding sends back to the applications.
    Escalated,
    /// The interface is hung and nothing is working on it — the silent
    /// failure mode FTGM exists to eliminate. Always an oracle violation.
    StrandedHung,
    /// A recovery was still in flight at observation time (the FTD never
    /// converged within the horizon). Also an oracle violation.
    StuckRecovering,
}

impl Resolution {
    /// `true` for the acceptable terminal states: the interface either
    /// works again or its death was loudly reported. Never silently hung.
    pub fn acceptable(self) -> bool {
        match self {
            Resolution::Healthy | Resolution::Recovered | Resolution::Escalated => true,
            Resolution::StrandedHung | Resolution::StuckRecovering => false,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::Healthy => "healthy",
            Resolution::Recovered => "recovered",
            Resolution::Escalated => "escalated",
            Resolution::StrandedHung => "stranded-hung",
            Resolution::StuckRecovering => "stuck-recovering",
        }
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies one interface's terminal fault-tolerance state from the FTD
/// accessors (`interface_dead`, `busy`, `recoveries`) plus whether the
/// chip is hung right now.
pub fn classify_resolution(dead: bool, busy: bool, hung: bool, recoveries: u64) -> Resolution {
    if dead {
        return Resolution::Escalated;
    }
    if busy {
        return Resolution::StuckRecovering;
    }
    if hung {
        return Resolution::StrandedHung;
    }
    if recoveries > 0 {
        return Resolution::Recovered;
    }
    Resolution::Healthy
}

/// How a whole chaos scenario ended, for the correlated-fault sweep's
/// per-scenario reporting ([`Resolution`] is per-interface; this rolls a
/// run's interfaces and oracles up into one word).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioVerdict {
    /// Every oracle held and no interface had to be written off: traffic
    /// kept (or regained) its guarantees on the original or rerouted
    /// fabric with nothing lost.
    Survived,
    /// Every oracle held and the zone coordinator had to install
    /// alternate routes to make that true.
    Rerouted,
    /// Every oracle held but one or more interfaces ended loudly dead
    /// (retry exhaustion or coordinator-declared isolation).
    Escalated,
    /// At least one oracle was violated — silent hang, delivery-guarantee
    /// breach, missing error surfacing, or a blown blackout bound.
    Violated,
}

impl ScenarioVerdict {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioVerdict::Survived => "survived",
            ScenarioVerdict::Rerouted => "rerouted",
            ScenarioVerdict::Escalated => "escalated",
            ScenarioVerdict::Violated => "violated",
        }
    }
}

impl fmt::Display for ScenarioVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Rolls a scenario run up into a [`ScenarioVerdict`] from its oracle
/// outcome (`ok`), total interface escalations, and coordinator-driven
/// zone reroutes.
pub fn classify_scenario(ok: bool, escalations: u64, zone_reroutes: u64) -> ScenarioVerdict {
    if !ok {
        return ScenarioVerdict::Violated;
    }
    if escalations > 0 {
        return ScenarioVerdict::Escalated;
    }
    if zone_reroutes > 0 {
        return ScenarioVerdict::Rerouted;
    }
    ScenarioVerdict::Survived
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Observables {
        Observables {
            progress_after: 10,
            expected_progress: 10,
            ..Default::default()
        }
    }

    #[test]
    fn clean_run_is_no_impact() {
        assert_eq!(classify(&base()), Outcome::NoImpact);
    }

    #[test]
    fn host_crash_outranks_everything() {
        let obs = Observables {
            local_host_crashed: true,
            local_hung: true,
            delivered_corrupt: 5,
            ..base()
        };
        assert_eq!(classify(&obs), Outcome::HostComputerCrash);
    }

    #[test]
    fn hang_outranks_corruption() {
        let obs = Observables {
            local_hung: true,
            delivered_corrupt: 3,
            ..base()
        };
        assert_eq!(classify(&obs), Outcome::LocalInterfaceHung);
    }

    #[test]
    fn remote_hang_recognized() {
        let obs = Observables {
            remote_hung: true,
            ..base()
        };
        assert_eq!(classify(&obs), Outcome::RemoteInterfaceHung);
    }

    #[test]
    fn silent_corruption_detected() {
        let obs = Observables {
            delivered_corrupt: 1,
            ..base()
        };
        assert_eq!(classify(&obs), Outcome::MessagesCorrupted);
    }

    #[test]
    fn wire_visible_corruption_detected() {
        let obs = Observables {
            parse_drops_after: 12,
            ..base()
        };
        assert_eq!(classify(&obs), Outcome::MessagesCorrupted);
    }

    #[test]
    fn stall_counts_as_message_loss() {
        let obs = Observables {
            progress_after: 0,
            ..Default::default()
        };
        assert_eq!(classify(&obs), Outcome::MessagesCorrupted);
        let obs = Observables {
            send_errors: 2,
            ..base()
        };
        assert_eq!(classify(&obs), Outcome::MessagesCorrupted);
    }

    #[test]
    fn degraded_progress_is_other_error() {
        let obs = Observables {
            progress_after: 3,
            expected_progress: 10,
            ..Default::default()
        };
        assert_eq!(classify(&obs), Outcome::OtherErrors);
    }

    #[test]
    fn resolution_severity_order() {
        // dead outranks busy outranks hung outranks recovered.
        assert_eq!(
            classify_resolution(true, true, true, 3),
            Resolution::Escalated
        );
        assert_eq!(
            classify_resolution(false, true, true, 1),
            Resolution::StuckRecovering
        );
        assert_eq!(
            classify_resolution(false, false, true, 0),
            Resolution::StrandedHung
        );
        assert_eq!(
            classify_resolution(false, false, false, 2),
            Resolution::Recovered
        );
        assert_eq!(
            classify_resolution(false, false, false, 0),
            Resolution::Healthy
        );
    }

    #[test]
    fn only_loud_terminal_states_are_acceptable() {
        assert!(Resolution::Healthy.acceptable());
        assert!(Resolution::Recovered.acceptable());
        assert!(Resolution::Escalated.acceptable());
        assert!(!Resolution::StrandedHung.acceptable());
        assert!(!Resolution::StuckRecovering.acceptable());
    }

    #[test]
    fn scenario_verdict_rollup_prefers_worst_news() {
        assert_eq!(classify_scenario(false, 0, 0), ScenarioVerdict::Violated);
        assert_eq!(classify_scenario(false, 2, 5), ScenarioVerdict::Violated);
        assert_eq!(classify_scenario(true, 1, 3), ScenarioVerdict::Escalated);
        assert_eq!(classify_scenario(true, 0, 3), ScenarioVerdict::Rerouted);
        assert_eq!(classify_scenario(true, 0, 0), ScenarioVerdict::Survived);
    }

    #[test]
    fn paper_columns_sum_to_about_100() {
        let ours: f64 = Outcome::ALL.iter().map(|o| o.paper_percent()).sum();
        let iyer: f64 = Outcome::ALL.iter().map(|o| o.iyer_percent()).sum();
        assert!((ours - 100.0).abs() < 0.5, "{ours}");
        assert!((iyer - 100.0).abs() < 0.5, "{iyer}");
    }
}
