//! Scenario execution: compiled campaigns → verdicts and golden JSON.
//!
//! [`run_compiled`] executes the scenario as one FTGM world — the chaos
//! run, with the load flows spawned beside its validated flows — plus
//! the plain-GM twin when compiled in; [`judge`] folds every oracle, SLO
//! and payload-check violation into one [`ScenarioOutcome`] and
//! classifies the verdict with [`classify_scenario`].
//! [`ScenarioOutcome::check`] then compares that verdict against
//! the file's `expect` line — a disagreement is a typed
//! [`ExpectMismatch`] naming both sides, never a silent pass.
//!
//! Outcomes serialize to byte-stable, integer-valued JSON
//! ([`ScenarioOutcome::to_json`], schema `ftgm-scenario-v1`): the
//! golden corpus under `scenarios/golden/` pins these bytes. The chaos
//! run's trace and metrics exports ride along on the outcome, so a
//! replayer that wants them does not simulate the scenario twice.

use std::fmt;

use ftgm_faults::chaos::{run_scenario_artifacts, ScenarioArtifacts};
use ftgm_faults::{classify_scenario, ScenarioVerdict};
use ftgm_sim::{json, map_indexed};
use ftgm_workload::{run_spec, spawn_load, SloReport};

use crate::compile::CompiledScenario;

/// The scenario's pinned verdict disagreed with the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectMismatch {
    /// Scenario name.
    pub scenario: String,
    /// What the file's `expect` line pinned.
    pub expected: ScenarioVerdict,
    /// What the run actually produced.
    pub actual: ScenarioVerdict,
}

impl fmt::Display for ExpectMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected verdict '{}' but the run produced '{}'",
            self.scenario,
            self.expected.label(),
            self.actual.label()
        )
    }
}

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Seed every run replayed from.
    pub seed: u64,
    /// The verdict the file pinned.
    pub expected: ScenarioVerdict,
    /// The verdict the run produced.
    pub verdict: ScenarioVerdict,
    /// The chaos run: its oracle report plus the trace and metrics
    /// exports and the typed cascade count.
    pub chaos: ScenarioArtifacts,
    /// Total `InterfaceDead` escalations across nodes.
    pub escalations: u64,
    /// Coordinator-driven zone reroutes observed.
    pub zone_reroutes: u64,
    /// The load flows' report, folded from the chaos run's world, when
    /// the scenario declared load flows.
    pub load: Option<SloReport>,
    /// The plain-GM twin, when a `p99_overhead` bound demanded one.
    pub gm: Option<SloReport>,
    /// Violations from the load flows and the twin: SLO bounds, and
    /// deliveries that failed the payload check (empty = all held).
    pub slo_violations: Vec<String>,
}

impl ScenarioOutcome {
    /// Compares the produced verdict against the pinned one.
    pub fn check(&self) -> Result<(), ExpectMismatch> {
        if self.verdict == self.expected {
            Ok(())
        } else {
            Err(ExpectMismatch {
                scenario: self.name.clone(),
                expected: self.expected,
                actual: self.verdict,
            })
        }
    }

    /// Every violation, chaos oracles first, then SLO bounds.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.chaos.report.violations.clone();
        v.extend(self.slo_violations.iter().cloned());
        v
    }

    /// Serializes the outcome as byte-stable, integer-valued JSON (the
    /// golden format, schema `ftgm-scenario-v1`).
    pub fn to_json(&self) -> String {
        let report = &self.chaos.report;
        let violations = self.violations();
        json::document(|o| {
            o.field("schema", "ftgm-scenario-v1").field("name", &self.name);
            o.field("seed", self.seed);
            o.field("expected", self.expected.label());
            o.field("verdict", self.verdict.label());
            o.field("chaos_ok", report.ok());
            o.field("escalations", self.escalations);
            o.field("zone_reroutes", self.zone_reroutes);
            o.field("nodes", json::rows(|a| {
                for n in &report.nodes {
                    a.item(json::inline_object(|o| {
                        o.field("node", n.node).field("resolution", n.resolution.label());
                        o.field("recoveries", n.recoveries);
                        o.field("escalations", n.escalations);
                        o.field("false_alarms", n.false_alarms);
                    }));
                }
            }));
            o.field("flows", json::rows(|a| {
                for f in &report.flows {
                    a.item(json::inline_object(|o| {
                        o.field("src", f.src).field("dst", f.dst);
                        o.field("delivered", f.delivered).field("progress", f.progress);
                        o.field("corrupt", f.corrupt).field("misordered", f.misordered);
                        o.field("iface_dead", f.iface_dead);
                        o.field("blackout_ns", f.blackout_ns);
                    }));
                }
            }));
            // The goldens pin `[]` for a run that held every oracle.
            let each = |a: &mut json::Array<'_>| {
                for v in &violations {
                    a.item(v);
                }
            };
            if violations.is_empty() {
                o.field("violations", json::inline_array(each));
            } else {
                o.field("violations", json::rows(each));
            }
            for (key, slo) in [("load", &self.load), ("gm", &self.gm)] {
                o.field(key, slo.as_ref().map(|r| json::object(move |o| r.write_fields(o))));
            }
        })
    }
}

/// Runs one compiled scenario end to end and classifies the verdict.
pub fn run_compiled(c: &CompiledScenario) -> ScenarioOutcome {
    let (chaos, load) = run_scenario_artifacts(&c.chaos, c.seed, |w| {
        c.workload.as_ref().map(|spec| (spec, spawn_load(spec, w)))
    });
    let recoveries = chaos.report.nodes.iter().map(|n| n.recoveries).sum();
    let load = load.map(|(spec, run)| run.fold(spec, recoveries));
    let gm = c.gm_twin.as_ref().map(run_spec);
    judge(c, chaos, load, gm)
}

/// Folds the runs of scenario `c` into its outcome: the chaos oracles,
/// the enabled SLO checks, and the exactly-once check on the load flows
/// and the twin (any delivery a responder found corrupt, duplicated or
/// out of order is a violation).
pub fn judge(
    c: &CompiledScenario,
    chaos: ScenarioArtifacts,
    load: Option<SloReport>,
    gm: Option<SloReport>,
) -> ScenarioOutcome {
    let mut slo_violations = Vec::new();
    for r in load.iter().chain(&gm) {
        if r.corrupt > 0 {
            slo_violations.push(format!(
                "{} ({}): {} deliveries failed the payload check",
                r.name, r.variant, r.corrupt
            ));
        }
    }
    if let Some(ftgm) = &load {
        if c.checks.recovery {
            slo_violations.extend(c.bounds.check_recovery(ftgm));
        }
        match (&gm, c.checks.overhead) {
            (Some(gm), true) => {
                slo_violations.extend(c.bounds.check_steady_overhead(gm, ftgm));
            }
            _ => {
                // No GM twin: check the completion bound directly.
                if c.checks.completed {
                    match ftgm.steady() {
                        Some(s) if s.completed_permille < c.bounds.min_steady_completed_permille => {
                            slo_violations.push(format!(
                                "{}: steady completion ratio {}‰ below {}‰",
                                ftgm.name,
                                s.completed_permille,
                                c.bounds.min_steady_completed_permille
                            ));
                        }
                        Some(_) => {}
                        None => slo_violations
                            .push(format!("{}: missing steady phase in report", ftgm.name)),
                    }
                }
            }
        }
    }

    let escalations: u64 = chaos.report.nodes.iter().map(|n| n.escalations).sum();
    let zone_reroutes = chaos.report.metrics.counter("ZoneRerouteTriggered");
    let ok = chaos.report.ok() && slo_violations.is_empty();
    let verdict = classify_scenario(ok, escalations, zone_reroutes);

    ScenarioOutcome {
        name: c.name.clone(),
        seed: c.seed,
        expected: c.expect,
        verdict,
        chaos,
        escalations,
        zone_reroutes,
        load,
        gm,
        slo_violations,
    }
}

/// Runs a corpus on `threads` workers. Outcomes come back in corpus
/// order and each depends only on its own scenario, so every byte of
/// every outcome is independent of the thread count.
#[expect(
    clippy::indexing_slicing,
    reason = "map_indexed calls the closure only with i < corpus.len()"
)]
pub fn run_corpus_parallel(corpus: &[CompiledScenario], threads: usize) -> Vec<ScenarioOutcome> {
    map_indexed(corpus.len(), threads, |i| run_compiled(&corpus[i]))
}

/// Parses, compiles, and runs one scenario text.
pub fn run_text(src: &str) -> Result<ScenarioOutcome, Vec<crate::parse::Diag>> {
    let spec = crate::parse::parse(src)?;
    Ok(run_compiled(&crate::compile::compile(&spec)))
}
