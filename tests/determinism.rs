//! Determinism regression. The committed artifacts (`BENCH_chaos.json`,
//! `BENCH_mpi.json`) keep their integer-only schema and agree with the
//! corpus and its goldens; the MPI sweep renders the same bytes on any
//! worker thread count; and a replay away from the corpus's default seed
//! exports the same bytes twice. The corpus's own 1-vs-3-thread check is
//! `crates/scenario/tests/corpus.rs::release_corpus_is_thread_count_invariant`.
//!
//! The replays are release-gated (like `chaos_smoke`): they simulate
//! seconds of fabric time per scenario.

mod common;

use common::{pick, STANDARD};
use ftgm_bench::mpi::{
    check as mpi_check, mpi_cells, run_cells as run_mpi_cells, run_mpi_cell,
    summary_json as mpi_summary_json,
};
use ftgm_scenario::{load_specs, run_corpus_parallel, ScenarioOutcome};

/// Asserts a golden benchmark artifact is integer-only: after stripping
/// string literals, no `.`, `e`, or `E` may remain — floats (and their
/// platform-dependent formatting) are banned from committed JSON.
fn assert_integer_only_json(name: &str, json: &str) {
    // JSON booleans are determinism-safe; only float literals (and their
    // platform-dependent formatting) are banned. Normalize them away so
    // the bare `e` in `true`/`false` doesn't trip the scan.
    let json = json.replace("true", "1").replace("false", "0");
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '.' | 'e' | 'E' => panic!("{name}: non-integer numeric literal (saw {c:?})"),
            _ => assert!(
                c.is_ascii_digit() || c.is_ascii_whitespace() || "{}[],:-".contains(c),
                "{name}: unexpected character {c:?} outside a string"
            ),
        }
    }
    assert!(!in_string, "{name}: unterminated string");
}

/// Asserts every `keys` entry appears as a JSON object key in `json`.
fn assert_has_keys(name: &str, json: &str, keys: &[&str]) {
    for k in keys {
        assert!(
            json.contains(&format!("\"{k}\"")),
            "{name}: missing required key {k:?}"
        );
    }
}

/// Reads a benchmark artifact from the repository root.
fn read_artifact(file: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + file;
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file} must be committed at the repo root: {e}"))
}

/// Asserts two replays exported the same bytes in the same order.
fn assert_same_exports(first: &[ScenarioOutcome], second: &[ScenarioOutcome]) {
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(second) {
        let (name, a, b) = (&a.name, &a.chaos, &b.chaos);
        assert_eq!(a.report.scenario, b.report.scenario, "output order preserved");
        assert!(!a.trace_jsonl.is_empty(), "{name}: trace exported");
        assert_eq!(a.trace_jsonl, b.trace_jsonl, "{name}: event stream diverged");
        assert_eq!(a.chrome_trace, b.chrome_trace, "{name}: chrome trace diverged");
        assert_eq!(a.metrics_json, b.metrics_json, "{name}: metrics diverged");
        assert_eq!(a.report, b.report, "{name}: report diverged");
    }
}

/// Every value of `"key": …` in `json`, in order, quotes stripped.
fn values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": ");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
            rest[..end].trim_matches('"')
        })
        .collect()
}

/// Every integer value of `"key": …` in `json`, in order.
fn numbers(json: &str, key: &str) -> Vec<u64> {
    values(json, key)
        .iter()
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{key}: {v:?} is not an integer: {e}")))
        .collect()
}

/// Golden schema for `BENCH_chaos.json` (written by the `chaos` bin):
/// the corpus replay rollup — all required keys present, integers only,
/// and no committed mismatch, violation or golden diff.
#[test]
fn bench_chaos_json_matches_golden_schema() {
    let json = read_artifact("BENCH_chaos.json");
    assert_integer_only_json("BENCH_chaos.json", &json);
    assert_has_keys(
        "BENCH_chaos.json",
        &json,
        &[
            "schema", "corpus", "mismatches", "violations", "golden_diffs", "scenarios",
            "name", "seed", "topology", "fault", "expected", "verdict", "resolutions",
            "healthy", "recovered", "escalated", "stranded_hung", "stuck_recovering",
            "recoveries", "escalations", "stalls", "cascades", "isolations",
            "zone_reroutes", "fabric_drops", "bad_link_drops", "max_blackout_ns",
            "delivered",
        ],
    );
    assert!(json.contains("\"schema\": \"ftgm-chaos-v2\""));
    for clean in ["mismatches", "violations", "golden_diffs"] {
        assert!(
            json.contains(&format!("\"{clean}\": 0")),
            "a BENCH_chaos.json with {clean} must never be committed"
        );
    }
    // Every verdict in the sweep must be an acceptable outcome — a
    // committed artifact where some scenario hung silently is a bug.
    assert!(
        !json.contains("\"verdict\": \"violated\""),
        "BENCH_chaos.json contains a violated scenario"
    );
}

/// The rollup, the goldens and the corpus must tell one story, checked
/// without simulating anything: one `BENCH_chaos.json` row per
/// `scenarios/*.ftsc` file in name order, one golden per row, and each
/// row's headline numbers equal to what its golden pins — so a stale
/// rollup or a stale golden fails `cargo test` before any world runs.
#[test]
fn bench_chaos_rows_match_the_corpus_and_its_goldens() {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let specs = load_specs(scenarios.as_ref()).unwrap_or_else(|e| panic!("{e}"));
    let corpus: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();

    let rollup = read_artifact("BENCH_chaos.json");
    let mut rows = rollup.split("\n    {\n");
    let header = rows.next().unwrap_or_default();
    let rows: Vec<&str> = rows.collect();
    let names: Vec<&str> = rows.iter().map(|r| values(r, "name")[0]).collect();
    assert_eq!(names, corpus, "BENCH_chaos.json rows != scenarios/*.ftsc; re-run the chaos bin");
    assert_eq!(numbers(header, "corpus"), [corpus.len() as u64]);

    let goldens = std::fs::read_dir(format!("{scenarios}/golden"))
        .expect("scenarios/golden must exist")
        .count();
    assert_eq!(goldens, corpus.len(), "scenarios/golden/ holds an orphan or lacks a golden");

    for (row, name) in rows.iter().zip(&names) {
        let golden = read_artifact(&format!("scenarios/golden/{name}.json"));
        // Top level, per-node, per-flow and FTGM load sections; the
        // plain-GM twin after them reuses key names and is not the rollup's.
        let (top, rest) = golden.split_once("\"nodes\": [").expect("golden has nodes");
        let (nodes, rest) = rest.split_once("\"flows\": [").expect("golden has flows");
        let (flows, rest) = rest.split_once("\"violations\": [").expect("golden has violations");
        let (_, rest) = rest.split_once("\"load\": ").expect("golden has load");
        let (load, _) = rest.split_once("\"gm\": ").expect("golden has gm");
        // A `null` load holds no numbers; a load run's blackout is its
        // fault phase's longest completion gap.
        let load_completed = numbers(load, "total_completed").first().copied().unwrap_or(0);
        let load_gap = load
            .split_once("\"phase\": \"fault\"")
            .map_or(0, |(_, fault)| numbers(fault, "longest_gap_ns")[0]);
        for key in ["expected", "verdict"] {
            assert_eq!(values(row, key), values(top, key), "{name}: {key}");
        }
        let pinned = [
            ("seed", numbers(top, "seed")[0]),
            ("escalations", numbers(top, "escalations")[0]),
            ("recoveries", numbers(nodes, "recoveries").iter().sum()),
            ("delivered", numbers(flows, "delivered").iter().sum::<u64>() + load_completed),
            (
                "max_blackout_ns",
                numbers(flows, "blackout_ns").into_iter().fold(load_gap, u64::max),
            ),
        ];
        for (key, want) in pinned {
            assert_eq!(numbers(row, key), [want], "{name}: {key} disagrees with the golden");
        }
    }
}

/// Golden schema for `BENCH_mpi.json` (written by the `mpi` bin): the
/// MPI-tier sweep — collectives and one-sided ops at 256–1024 ranks
/// with mid-operation NIC failures — all required keys present,
/// integers only, and no committed violations.
#[test]
fn bench_mpi_json_matches_golden_schema() {
    let json = read_artifact("BENCH_mpi.json");
    assert_integer_only_json("BENCH_mpi.json", &json);
    assert_has_keys(
        "BENCH_mpi.json",
        &json,
        &[
            "schema", "seed", "violations", "cells", "label", "pattern", "ranks", "fault",
            "iters", "completed", "finishers", "checksum", "faults_delivered",
            "gm_send_errors", "fatal_errors", "respawns", "replayed_instances",
            "checkpoints_stored", "recoveries", "completion_ns", "blackout_ns",
        ],
    );
    assert!(json.contains("\"schema\": \"ftgm-mpi-v2\""));
    assert!(
        json.contains("\"violations\": 0"),
        "a BENCH_mpi.json with oracle violations must never be committed"
    );
    // The ISSUE matrix must be present in full: {ar-rd, bcast, halo} ×
    // {256, 1024} × {none, hang, spare}.
    for pattern in ["ar-rd", "bcast", "halo"] {
        for ranks in [256, 1024] {
            for fault in ["none", "hang", "spare"] {
                let label = format!("\"label\": \"{pattern}-{ranks}-{fault}\"");
                assert!(json.contains(&label), "BENCH_mpi.json missing cell {label}");
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-gated: fault cells simulate seconds of job time (ci.sh runs this with --release)"
)]
fn mpi_summaries_are_byte_identical_across_thread_counts_and_runs() {
    // The smoke sweep (collectives + RMA with hang, spare, and replica
    // injections) must render byte-identically whether the cells fan out
    // over one worker thread or three, and across repeated runs.
    let cells = mpi_cells(true);
    let single = run_mpi_cells(&cells, 2003, 1);
    let multi = run_mpi_cells(&cells, 2003, 3);
    let render = |results: &[_]| {
        let violations = mpi_check(results);
        assert!(violations.is_empty(), "smoke sweep violated oracles: {violations:?}");
        mpi_summary_json(2003, results, 0)
    };
    let a = render(&single);
    let b = render(&multi);
    assert_eq!(a, b, "worker thread count leaked into the MPI summary");
    assert_eq!(a, render(&run_mpi_cells(&cells, 2003, 1)), "MPI replay diverged");
    assert_integer_only_json("mpi summary", &a);

    // The committed artifact must match this very build: the whole
    // fault-free 256-rank allreduce cell — checksum, counts, simulated
    // completion time — cannot drift silently. Regenerate BENCH_mpi.json
    // when the MPI tier changes.
    let committed = read_artifact("BENCH_mpi.json");
    let twin = mpi_cells(false)
        .into_iter()
        .find(|c| c.label == "ar-rd-256-none")
        .expect("full sweep defines ar-rd-256-none");
    let r = run_mpi_cell(&twin, 2003, ftgm_sim::SimDuration::ZERO);
    assert!(r.completed, "ar-rd-256-none must complete");
    let alone = mpi_summary_json(2003, &[r], 0);
    let cell = alone
        .find("    {\n")
        .zip(alone.find("\n    }\n"))
        .map(|(open, close)| &alone[open..close])
        .expect("one rendered cell object");
    assert!(
        committed.contains(cell),
        "committed BENCH_mpi.json is stale: expected\n{cell}\nre-run the mpi bin"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-gated: full chaos scenarios are slow unoptimized (ci.sh runs this with --release)"
)]
fn exports_are_byte_identical_across_repeated_runs() {
    let mut scenarios = pick(&STANDARD);
    for c in &mut scenarios {
        c.seed = 7;
    }
    let replay = || run_corpus_parallel(&scenarios, 2);
    assert_same_exports(&replay(), &replay());
}
