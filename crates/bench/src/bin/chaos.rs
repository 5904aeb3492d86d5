//! `chaos` — replay the scenario corpus and gate on it.
//!
//! Loads every `scenarios/*.ftsc` file, runs the whole corpus once, and
//! gates it with `ftgm_scenario::gate`: each verdict equals its file's
//! `expect` line, no oracle or SLO bound is violated, and each outcome's
//! JSON is byte-identical to `scenarios/golden/<name>.json`. On top of
//! that the fat-tree spine-death scenario must be *survived by
//! reroute*: every one of its flows moves again.
//!
//! Usage: `chaos [--update]`, from the repository root. `--update`
//! rewrites drifted goldens, but only for scenarios that pass the first
//! two gates. Exit codes: 0 clean, 1 usage / load / write errors, 2 gate
//! failures.
//!
//! Writes the tracked rollup `BENCH_chaos.json` (schema `ftgm-chaos-v2`,
//! integer-only, one row per scenario in name order) and each
//! scenario's untracked trace and metrics exports,
//! `target/chaos/<name>.{jsonl,chrome.json,metrics.json}` (the Chrome
//! file loads in Perfetto / `about:tracing`). Every byte written is a
//! function of the corpus alone.

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use ftgm_faults::Resolution;
use ftgm_scenario::{
    gate, load_dir, run_corpus_parallel, CompiledScenario, GateReport, ScenarioOutcome,
};
use ftgm_sim::{json, DropKind};
use ftgm_workload::topology_label;

const ROLLUP: &str = "BENCH_chaos.json";
const EXPORT_DIR: &str = "target/chaos";

/// The whole replay as one integer-only JSON document (the
/// `BENCH_chaos.json` schema; keep keys in sync with `ci.sh`'s greps and
/// `tests/determinism.rs`'s schema and golden cross-checks).
fn rollup_json(
    corpus: &[CompiledScenario],
    outcomes: &[ScenarioOutcome],
    gate: &GateReport,
) -> String {
    json::document(|o| {
        o.field("schema", "ftgm-chaos-v2").field("corpus", outcomes.len());
        o.field("mismatches", gate.mismatches);
        o.field("violations", gate.violations);
        o.field("golden_diffs", gate.golden_diffs);
        o.field("scenarios", json::rows(|a| {
            for (c, outcome) in corpus.iter().zip(outcomes) {
                a.item(json::object(|row| scenario_row(row, c, outcome)));
            }
        }));
    })
}

/// One scenario's row of the rollup.
fn scenario_row(row: &mut json::Object<'_>, c: &CompiledScenario, o: &ScenarioOutcome) {
    // Most names are `<topology>-<fault>`; the rest are all fault.
    let topology = topology_label(c.chaos.topology);
    let fault = o
        .name
        .strip_prefix(topology.as_str())
        .and_then(|rest| rest.strip_prefix('-'))
        .unwrap_or(&o.name);
    let r = &o.chaos.report;
    // Load flows count too: their fault-window gap is the blackout
    // `SloBounds::check_recovery` bounds.
    let load = o.load.as_ref();
    let load_gap = load.and_then(|l| l.fault()).map_or(0, |p| p.longest_gap_ns);
    let load_completed = load.map_or(0, |l| l.total_completed);
    let ended = |res: Resolution| r.nodes.iter().filter(|n| n.resolution == res).count();
    row.field("name", &o.name).field("seed", o.seed);
    row.field("topology", &topology).field("fault", fault);
    row.field("expected", o.expected.label());
    row.field("verdict", o.verdict.label());
    row.field("resolutions", json::inline_object(|res| {
        res.field("healthy", ended(Resolution::Healthy));
        res.field("recovered", ended(Resolution::Recovered));
        res.field("escalated", ended(Resolution::Escalated));
        res.field("stranded_hung", ended(Resolution::StrandedHung));
        res.field("stuck_recovering", ended(Resolution::StuckRecovering));
    }));
    row.field("recoveries", r.nodes.iter().map(|n| n.recoveries).sum::<u64>());
    row.field("escalations", o.escalations);
    row.field("stalls", r.metrics.counter("PeerStallDetected"));
    row.field("cascades", o.chaos.cascades);
    row.field("isolations", r.metrics.counter("PeerIsolated"));
    row.field("zone_reroutes", o.zone_reroutes);
    row.field("fabric_drops", r.metrics.fabric_drops_total());
    row.field("bad_link_drops", r.metrics.fabric_drops(DropKind::BadLink));
    let blackout = r.flows.iter().map(|f| f.blackout_ns).fold(load_gap, u64::max);
    row.field("max_blackout_ns", blackout);
    let delivered = r.flows.iter().map(|f| f.delivered).sum::<u64>() + load_completed;
    row.field("delivered", delivered);
    row.field("violations", o.violations().len());
}

/// Writes the rollup, and each scenario's trace and metrics exports.
fn write_artifacts(rollup: &str, outcomes: &[ScenarioOutcome]) -> std::io::Result<()> {
    fs::write(ROLLUP, rollup)?;
    fs::create_dir_all(EXPORT_DIR)?;
    for o in outcomes {
        for (ext, body) in [
            ("jsonl", &o.chaos.trace_jsonl),
            ("chrome.json", &o.chaos.chrome_trace),
            ("metrics.json", &o.chaos.metrics_json),
        ] {
            fs::write(format!("{EXPORT_DIR}/{}.{ext}", o.name), body)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = match args.as_slice() {
        [] => false,
        [flag] if flag == "--update" => true,
        _ => {
            eprintln!("usage: chaos [--update]");
            return ExitCode::from(1);
        }
    };

    let root = Path::new("scenarios");
    let corpus = match load_dir(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!("chaos: replaying {} scenarios…", corpus.len());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcomes = run_corpus_parallel(&corpus, threads);
    let gate = gate(&outcomes, &root.join("golden"), update);

    let mut goodput_lost = false;
    for o in &outcomes {
        println!(
            "  {:34} expect {:9} -> {:9} {:2} recovered {:2} escalated {:2} reroutes",
            o.name,
            o.expected.label(),
            o.verdict.label(),
            o.chaos.report.nodes.iter().map(|n| n.recoveries).sum::<u64>(),
            o.escalations,
            o.zone_reroutes
        );
        // Acceptance: spine death on the fat tree must be *survived by
        // reroute* — every flow between surviving endpoints moves again.
        if o.name == "fat_tree64-switch-death" {
            for f in o.chaos.report.flows.iter().filter(|f| f.progress == 0) {
                println!(
                    "    GOODPUT LOST: flow {}->{} made no progress after reroute",
                    f.src, f.dst
                );
                goodput_lost = true;
            }
        }
    }
    for line in &gate.failures {
        eprintln!("  {line}");
    }
    println!(
        "chaos: {} scenarios, {} mismatches, {} violations, {} golden diffs",
        outcomes.len(),
        gate.mismatches,
        gate.violations,
        gate.golden_diffs
    );

    if let Err(e) = write_artifacts(&rollup_json(&corpus, &outcomes, &gate), &outcomes) {
        eprintln!("chaos: cannot write {ROLLUP} or {EXPORT_DIR}/: {e}");
        return ExitCode::from(1);
    }
    eprintln!("chaos: wrote {ROLLUP} and {EXPORT_DIR}/<scenario>.{{jsonl,chrome.json,metrics.json}}");

    if !gate.failures.is_empty() || goodput_lost {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
