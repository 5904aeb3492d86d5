//! Service-level measurement: per-flow probes, per-phase SLO reports,
//! and the typed SLO oracle.
//!
//! Generators record raw observations into a [`FlowProbe`]; after the
//! run the driver folds every probe into one [`SloReport`] with a
//! [`PhaseSlo`] per declared phase. All serialized values are integers
//! (nanoseconds, bytes, counts, permille ratios) so the JSON is
//! byte-stable across platforms.

use ftgm_sim::json;
use ftgm_sim::metrics::bytes_per_sec;
use ftgm_sim::{Samples, SimDuration, SimTime};

use crate::column::Column;

/// One completed message: when it landed, when it was offered, and how
/// big it was.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Completion time.
    pub at: SimTime,
    /// Intended arrival (offer) time; latency = `at - issued`, so
    /// open-loop latencies include token-queueing delay.
    pub issued: SimTime,
    /// Payload bytes.
    pub bytes: u32,
}

/// Raw per-flow observations, recorded by the generator apps. The three
/// per-message columns are varint-coded ([`Column`]) and hand their
/// records back by value.
#[derive(Clone, Debug, Default)]
pub struct FlowProbe {
    /// Offer times of every message the client issued (or intended to).
    pub arrivals: Column<SimTime>,
    /// Every completion, in completion order.
    pub completions: Column<Completion>,
    /// `(time, in-flight + queued depth)` marks taken on every state change.
    pub depth_marks: Column<(SimTime, u64)>,
    /// `GmEvent::SendError` count.
    pub send_errors: u64,
    /// Closed-loop responses that failed validation.
    pub bad_responses: u64,
    /// `GmEvent::InterfaceDead` escalations observed.
    pub iface_dead: u64,
}

impl FlowProbe {
    /// Records one offered message.
    pub fn record_arrival(&mut self, at: SimTime) {
        self.arrivals.push(at);
    }

    /// Records one completion.
    pub fn record_completion(&mut self, at: SimTime, issued: SimTime, bytes: u32) {
        self.completions.push(Completion { at, issued, bytes });
    }

    /// Records the current in-flight + queued depth.
    pub fn record_depth(&mut self, at: SimTime, depth: u64) {
        self.depth_marks.push((at, depth));
    }
}

/// Per-phase service levels, all integer-valued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSlo {
    /// Phase name (`warmup`/`steady`/`fault`/`drain`).
    pub name: &'static str,
    /// Phase start, ns from run start.
    pub start_ns: u64,
    /// Phase end, ns from run start.
    pub end_ns: u64,
    /// Messages offered during the phase.
    pub issued: u64,
    /// Messages completed during the phase.
    pub completed: u64,
    /// Payload bytes completed during the phase.
    pub bytes: u64,
    /// Completed payload bytes per second over the phase window.
    pub goodput_bytes_per_sec: u64,
    /// Median completion latency, ns (0 when nothing completed).
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, ns.
    pub p999_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: u64,
    /// Worst latency, ns.
    pub max_ns: u64,
    /// Deepest in-flight + queued backlog seen in the phase.
    pub max_in_flight: u64,
    /// Longest gap with no completions on any single flow, including
    /// the window edges; the blackout measure. Equals the whole phase
    /// length when a flow completes nothing in it.
    pub longest_gap_ns: u64,
    /// `completed * 1000 / issued` (1000 when nothing was issued; may
    /// exceed 1000 when a phase drains a previous phase's backlog).
    pub completed_permille: u64,
}

/// The full result of running one [`crate::WorkloadSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloReport {
    /// Spec name.
    pub name: String,
    /// Topology label (`two_node`, `star8`, `ring8`, ...).
    pub topology: String,
    /// GM variant label (`gm` / `ftgm`).
    pub variant: String,
    /// Master seed the run used.
    pub seed: u64,
    /// One entry per declared phase, in timeline order.
    pub phases: Vec<PhaseSlo>,
    /// Messages offered over the whole run.
    pub total_issued: u64,
    /// Messages completed over the whole run.
    pub total_completed: u64,
    /// Send errors over the whole run.
    pub send_errors: u64,
    /// Bad closed-loop responses over the whole run.
    pub bad_responses: u64,
    /// Deliveries the run's responders found damaged, duplicated or out
    /// of order (`received_corrupt + misordered` of their
    /// [`ftgm_gm::apps::TrafficStats`]). Set by the driver after
    /// [`fold_report`], which leaves it 0.
    pub corrupt: u64,
    /// `InterfaceDead` escalations over the whole run.
    pub iface_dead: u64,
    /// FTD recoveries summed over all nodes (0 for plain GM).
    pub recoveries: u64,
    /// Run length in ns.
    pub run_ns: u64,
}

impl SloReport {
    /// The first phase with the given name, if any.
    pub fn phase(&self, name: &str) -> Option<&PhaseSlo> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The steady-state phase, if declared.
    pub fn steady(&self) -> Option<&PhaseSlo> {
        self.phase("steady")
    }

    /// The fault-window phase, if declared.
    pub fn fault(&self) -> Option<&PhaseSlo> {
        self.phase("fault")
    }

    /// Writes the report's fields (integers and labels only) into `o`:
    /// the body of [`SloReport::to_json`], or of the object a scenario
    /// outcome nests.
    pub fn write_fields(&self, o: &mut json::Object<'_>) {
        o.field("name", &self.name).field("topology", &self.topology);
        o.field("variant", &self.variant).field("seed", self.seed);
        o.field("run_ns", self.run_ns);
        o.field("total_issued", self.total_issued);
        o.field("total_completed", self.total_completed);
        o.field("send_errors", self.send_errors);
        o.field("bad_responses", self.bad_responses);
        o.field("corrupt", self.corrupt).field("iface_dead", self.iface_dead);
        o.field("recoveries", self.recoveries);
        o.field("phases", json::rows(|a| {
            for p in &self.phases {
                a.item(json::object(|o| {
                    o.field("phase", p.name).field("start_ns", p.start_ns);
                    o.field("end_ns", p.end_ns).field("issued", p.issued);
                    o.field("completed", p.completed).field("bytes", p.bytes);
                    o.field("goodput_bytes_per_sec", p.goodput_bytes_per_sec);
                    o.field("p50_ns", p.p50_ns).field("p95_ns", p.p95_ns);
                    o.field("p99_ns", p.p99_ns).field("p999_ns", p.p999_ns);
                    o.field("mean_ns", p.mean_ns).field("max_ns", p.max_ns);
                    o.field("max_in_flight", p.max_in_flight);
                    o.field("longest_gap_ns", p.longest_gap_ns);
                    o.field("completed_permille", p.completed_permille);
                }));
            }
        }));
    }

    /// Serializes the report as deterministic, integer-valued JSON.
    pub fn to_json(&self) -> String {
        json::document(|o| self.write_fields(o))
    }
}

/// Phase windows the folder buckets into: `(name, start_ns, end_ns)`,
/// contiguous from 0.
pub type PhaseWindows = Vec<(&'static str, u64, u64)>;

fn bucket(windows: &PhaseWindows, t_ns: u64) -> usize {
    let mut idx = 0;
    for (i, &(_, start, _)) in windows.iter().enumerate() {
        if t_ns >= start {
            idx = i;
        }
    }
    idx
}

/// Folds raw per-flow probes into a phase-bucketed [`SloReport`].
///
/// `t0` is the world time the run started at; all probe timestamps are
/// normalized against it. Events past the last window clamp into it, so
/// per-phase `issued`/`completed` always sum to the run totals.
#[allow(clippy::too_many_arguments)]
pub fn fold_report(
    name: &str,
    topology: String,
    variant: &str,
    seed: u64,
    t0: SimTime,
    windows: &PhaseWindows,
    probes: &[FlowProbe],
    recoveries: u64,
) -> SloReport {
    let rel = |t: SimTime| t.as_nanos().saturating_sub(t0.as_nanos());
    let nphases = windows.len();
    let mut issued = vec![0u64; nphases];
    let mut completed = vec![0u64; nphases];
    let mut bytes = vec![0u64; nphases];
    let mut lat: Vec<Samples> = vec![Samples::new(); nphases];
    let mut max_depth = vec![0u64; nphases];
    let mut gaps = vec![0u64; nphases];

    let mut send_errors = 0;
    let mut bad_responses = 0;
    let mut iface_dead = 0;

    for probe in probes {
        send_errors += probe.send_errors;
        bad_responses += probe.bad_responses;
        iface_dead += probe.iface_dead;
        for at in &probe.arrivals {
            if let Some(slot) = issued.get_mut(bucket(windows, rel(at))) {
                *slot += 1;
            }
        }
        for c in &probe.completions {
            let i = bucket(windows, rel(c.at));
            if let Some(slot) = completed.get_mut(i) {
                *slot += 1;
            }
            if let Some(slot) = bytes.get_mut(i) {
                *slot += u64::from(c.bytes);
            }
            if let Some(s) = lat.get_mut(i) {
                s.record_ns(rel(c.at).saturating_sub(rel(c.issued)));
            }
        }
        for (at, depth) in &probe.depth_marks {
            if let Some(slot) = max_depth.get_mut(bucket(windows, rel(at))) {
                *slot = (*slot).max(depth);
            }
        }
        // Per-flow blackout per phase: longest stretch of the window
        // with no completion on this flow, edges included.
        for (i, &(_, start, end)) in windows.iter().enumerate() {
            let mut prev = start;
            let mut longest = 0u64;
            for c in &probe.completions {
                let t = rel(c.at);
                if t < start || t >= end {
                    continue;
                }
                longest = longest.max(t.saturating_sub(prev));
                prev = t;
            }
            longest = longest.max(end.saturating_sub(prev));
            if let Some(slot) = gaps.get_mut(i) {
                *slot = (*slot).max(longest);
            }
        }
    }

    let mut phases = Vec::with_capacity(nphases);
    for (i, &(pname, start, end)) in windows.iter().enumerate() {
        // Per-mille quantiles keep this whole fold integer-only: the
        // report is byte-stable JSON, so no float may touch it.
        let q = |p: u32| {
            lat.get(i)
                .and_then(|s| s.quantile_permille(p))
                .map_or(0, |d| d.as_nanos())
        };
        let done = completed.get(i).copied().unwrap_or(0);
        let offered = issued.get(i).copied().unwrap_or(0);
        let phase_bytes = bytes.get(i).copied().unwrap_or(0);
        phases.push(PhaseSlo {
            name: pname,
            start_ns: start,
            end_ns: end,
            issued: offered,
            completed: done,
            bytes: phase_bytes,
            goodput_bytes_per_sec: bytes_per_sec(
                phase_bytes,
                SimDuration::from_nanos(end.saturating_sub(start)),
            ),
            p50_ns: q(500),
            p95_ns: q(950),
            p99_ns: q(990),
            p999_ns: q(999),
            mean_ns: lat
                .get(i)
                .and_then(|s| s.mean())
                .map_or(0, |d| d.as_nanos()),
            max_ns: lat
                .get(i)
                .and_then(|s| s.max())
                .map_or(0, |d| d.as_nanos()),
            max_in_flight: max_depth.get(i).copied().unwrap_or(0),
            longest_gap_ns: gaps.get(i).copied().unwrap_or(0),
            completed_permille: done.saturating_mul(1000).checked_div(offered).unwrap_or(1000),
        });
    }

    SloReport {
        name: name.to_string(),
        topology,
        variant: variant.to_string(),
        seed,
        total_issued: issued.iter().sum(),
        total_completed: completed.iter().sum(),
        phases,
        send_errors,
        bad_responses,
        corrupt: 0,
        iface_dead,
        recoveries,
        run_ns: windows.iter().map(|&(_, _, end)| end).max().unwrap_or(0),
    }
}

/// Typed SLO bounds: the oracle asserting the paper's headline numbers.
#[derive(Clone, Copy, Debug)]
pub struct SloBounds {
    /// Max allowed FTGM-vs-GM steady-state p99 latency overhead. The
    /// paper measures ≈1.5 µs added latency; the default leaves sim
    /// headroom at 4 µs.
    pub max_steady_p99_overhead: SimDuration,
    /// Max allowed no-completion gap in the fault window — the paper's
    /// "recovered in under two seconds" bound.
    pub max_fault_blackout: SimDuration,
    /// Min steady-state completion ratio, in permille.
    pub min_steady_completed_permille: u64,
}

impl Default for SloBounds {
    fn default() -> SloBounds {
        SloBounds {
            max_steady_p99_overhead: SimDuration::from_us(4),
            max_fault_blackout: SimDuration::from_secs(2),
            min_steady_completed_permille: 900,
        }
    }
}

impl SloBounds {
    /// Checks FTGM steady-state service against a plain-GM baseline for
    /// the same spec shape. Returns human-readable violations.
    pub fn check_steady_overhead(&self, gm: &SloReport, ftgm: &SloReport) -> Vec<String> {
        let mut v = Vec::new();
        match (gm.steady(), ftgm.steady()) {
            (Some(g), Some(f)) => {
                let overhead = f.p99_ns.saturating_sub(g.p99_ns);
                if overhead > self.max_steady_p99_overhead.as_nanos() {
                    v.push(format!(
                        "{}: steady p99 overhead {} ns exceeds {} ns (gm {} ns, ftgm {} ns)",
                        ftgm.name,
                        overhead,
                        self.max_steady_p99_overhead.as_nanos(),
                        g.p99_ns,
                        f.p99_ns
                    ));
                }
                if f.completed_permille < self.min_steady_completed_permille {
                    v.push(format!(
                        "{}: steady completion ratio {}‰ below {}‰",
                        ftgm.name, f.completed_permille, self.min_steady_completed_permille
                    ));
                }
            }
            _ => v.push(format!(
                "{}: missing steady phase in gm or ftgm report",
                ftgm.name
            )),
        }
        v
    }

    /// Checks the fault window of an FTGM run: service must resume
    /// within the recovery bound, and the window must not be a total
    /// outage. Returns human-readable violations.
    pub fn check_recovery(&self, ftgm: &SloReport) -> Vec<String> {
        let mut v = Vec::new();
        match ftgm.fault() {
            Some(f) => {
                if f.longest_gap_ns > self.max_fault_blackout.as_nanos() {
                    v.push(format!(
                        "{}: fault-window blackout {} ns exceeds {} ns",
                        ftgm.name,
                        f.longest_gap_ns,
                        self.max_fault_blackout.as_nanos()
                    ));
                }
                if f.completed == 0 {
                    v.push(format!(
                        "{}: no completions at all inside the fault window",
                        ftgm.name
                    ));
                }
            }
            None => v.push(format!("{}: missing fault phase in report", ftgm.name)),
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(completions: &[(u64, u64, u32)], arrivals: &[u64]) -> FlowProbe {
        let mut p = FlowProbe::default();
        for &a in arrivals {
            p.record_arrival(SimTime::ZERO + SimDuration::from_nanos(a));
        }
        for &(at, issued, bytes) in completions {
            p.record_completion(
                SimTime::ZERO + SimDuration::from_nanos(at),
                SimTime::ZERO + SimDuration::from_nanos(issued),
                bytes,
            );
        }
        p
    }

    #[test]
    fn fold_buckets_and_sums_match_totals() {
        let windows: PhaseWindows =
            vec![("warmup", 0, 100), ("steady", 100, 300), ("drain", 300, 400)];
        // One completion per phase; the 450 ns event clamps into drain.
        let probe = probe_with(
            &[(50, 40, 10), (150, 120, 20), (250, 240, 30), (450, 440, 40)],
            &[40, 120, 240, 440],
        );
        let r = fold_report(
            "t",
            "two_node".to_string(),
            "ftgm",
            1,
            SimTime::ZERO,
            &windows,
            &[probe],
            0,
        );
        assert_eq!(r.total_issued, 4);
        assert_eq!(r.total_completed, 4);
        let by_phase: Vec<u64> = r.phases.iter().map(|p| p.completed).collect();
        assert_eq!(by_phase, vec![1, 2, 1]);
        let sum: u64 = r.phases.iter().map(|p| p.completed).sum();
        assert_eq!(sum, r.total_completed);
        assert_eq!(r.phases[1].bytes, 50);
        assert_eq!(r.phases[1].p50_ns, 10);
        assert_eq!(r.phases[1].completed_permille, 1000);
    }

    #[test]
    fn blackout_includes_window_edges() {
        let windows: PhaseWindows = vec![("steady", 0, 1000)];
        // Completions at 100 and 200: longest gap is 800 (200 → end).
        let probe = probe_with(&[(100, 90, 1), (200, 190, 1)], &[90, 190]);
        let r = fold_report(
            "t",
            "two_node".to_string(),
            "ftgm",
            1,
            SimTime::ZERO,
            &windows,
            &[probe],
            0,
        );
        assert_eq!(r.phases[0].longest_gap_ns, 800);

        // No completions: the whole window is a blackout.
        let empty = probe_with(&[], &[10]);
        let r2 = fold_report(
            "t",
            "two_node".to_string(),
            "ftgm",
            1,
            SimTime::ZERO,
            &windows,
            &[empty],
            0,
        );
        assert_eq!(r2.phases[0].longest_gap_ns, 1000);
        assert_eq!(r2.phases[0].p99_ns, 0);
        assert_eq!(r2.phases[0].completed_permille, 0);
    }

    #[test]
    fn oracle_flags_overhead_and_blackout() {
        // Steady phase 1 ms, fault window 2.5 s.
        let windows: PhaseWindows =
            vec![("steady", 0, 1_000_000), ("fault", 1_000_000, 2_501_000_000)];
        let gm = fold_report(
            "gm",
            "two_node".to_string(),
            "gm",
            1,
            SimTime::ZERO,
            &windows,
            &[probe_with(&[(500, 400, 1)], &[400])],
            0,
        );
        // FTGM: steady p99 is 8.9 µs worse than GM's 100 ns, and the
        // fault window's only completion lands early, leaving a 2.5 s hole.
        let ftgm = fold_report(
            "ftgm",
            "two_node".to_string(),
            "ftgm",
            1,
            SimTime::ZERO,
            &windows,
            &[probe_with(&[(9_900, 900, 1), (1_100_000, 1_050_000, 1)], &[900, 1_050_000])],
            1,
        );
        let bounds = SloBounds::default();
        assert_eq!(bounds.check_steady_overhead(&gm, &ftgm).len(), 1);
        assert_eq!(bounds.check_recovery(&ftgm).len(), 1);

        // A clean pair produces no violations: low steady latency and
        // fault-window completions never more than 2 s apart.
        let ok = fold_report(
            "ok",
            "two_node".to_string(),
            "ftgm",
            1,
            SimTime::ZERO,
            &windows,
            &[probe_with(
                &[(600, 550, 1), (1_100_000, 1_050_000, 1), (2_000_000_000, 1_999_000_000, 1)],
                &[550, 1_050_000, 1_999_000_000],
            )],
            1,
        );
        assert!(bounds.check_steady_overhead(&gm, &ok).is_empty());
        assert!(bounds.check_recovery(&ok).is_empty());
    }
}
