//! Fixture-driven tests for the lint engine: each file under
//! `tests/fixtures/` is scanned *as if* it lived at a rule-governed path,
//! and the expected finding count is asserted. The `*_bad.rs` fixtures
//! exercise every construct a rule knows about; the `*_good.rs` fixtures
//! are the sanctioned alternatives plus the known near-miss lookalikes.

use ftgm_lint::{rules, scan_file_content, Finding};

fn scan_fixture(name: &str, pretend_path: &str) -> Vec<Finding> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    scan_file_content(pretend_path, &content)
}

fn assert_all_rule(findings: &[Finding], rule: &str) {
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "expected only {rule} findings, got {findings:#?}"
    );
}

#[test]
fn r1_bad_flags_every_panicking_construct() {
    let f = scan_fixture("r1_bad.rs", "crates/gm/src/recovery.rs");
    assert_eq!(f.len(), 7, "{f:#?}");
    assert_all_rule(&f, rules::RECOVERY_NO_PANIC);
    // Both literal-index forms are among them.
    assert!(f.iter().any(|x| x.snippet.contains("v[0]")));
    assert!(f.iter().any(|x| x.snippet.contains("v[1_0]")));
}

#[test]
fn r1_good_is_clean_including_test_module() {
    let f = scan_fixture("r1_good.rs", "crates/gm/src/recovery.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r2_bad_flags_every_nondeterminism_source() {
    let f = scan_fixture("r2_bad.rs", "crates/sim/src/sched_helper.rs");
    assert_eq!(f.len(), 6, "{f:#?}");
    assert_all_rule(&f, rules::DETERMINISM);
}

#[test]
fn r2_good_accepts_btree_and_type_mentions() {
    let f = scan_fixture("r2_good.rs", "crates/sim/src/sched_helper.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r3_bad_flags_direct_seqnum_writes() {
    let f = scan_fixture("r3_bad.rs", "crates/mcp/src/machine.rs");
    assert_eq!(f.len(), 4, "{f:#?}");
    assert_all_rule(&f, rules::SEQNUM_DISCIPLINE);
}

#[test]
fn r3_good_accepts_reads_locals_and_accessor_calls() {
    let f = scan_fixture("r3_good.rs", "crates/mcp/src/machine.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r3_bad_is_legal_inside_accessor_modules() {
    // The same writes are the accessor modules' whole job.
    let f = scan_fixture("r3_bad.rs", "crates/mcp/src/gobackn.rs");
    assert!(f.is_empty(), "{f:#?}");
    let f = scan_fixture("r3_bad.rs", "crates/gm/src/backup.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r4_bad_flags_plain_and_guarded_wildcards() {
    let f = scan_fixture("r4_bad.rs", "crates/faults/src/classify.rs");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::NO_WILDCARD_MATCH);
}

#[test]
fn r4_good_accepts_exhaustive_matches_and_underscore_bindings() {
    let f = scan_fixture("r4_good.rs", "crates/faults/src/classify.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r5_bad_flags_bare_truncating_casts() {
    let f = scan_fixture("r5_bad.rs", "crates/mcp/src/packet.rs");
    assert_eq!(f.len(), 3, "{f:#?}");
    assert_all_rule(&f, rules::NO_TRUNCATING_CAST);
}

#[test]
fn r5_good_accepts_widening_and_try_from() {
    let f = scan_fixture("r5_good.rs", "crates/mcp/src/packet.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r2_workload_bad_flags_entropy_outside_sim_rng() {
    // The workload crate's generators must draw all randomness through
    // sim::rng; OS entropy, hash ordering and wall clocks all fire.
    let f = scan_fixture("r2_workload_bad.rs", "crates/workload/src/gen.rs");
    assert_eq!(f.len(), 5, "{f:#?}");
    assert_all_rule(&f, rules::DETERMINISM);
    assert!(f.iter().any(|x| x.snippet.contains("thread_rng")));
    assert!(f.iter().any(|x| x.snippet.contains("Instant::now")));
}

#[test]
fn r2_workload_good_seeded_simrng_is_clean() {
    let f = scan_fixture("r2_workload_good.rs", "crates/workload/src/gen.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r1_governs_the_whole_workload_crate() {
    // R1 is directory-scoped for crates/workload: generators run through
    // recoveries, so panicking constructs fire in any of its modules.
    let f = scan_fixture("r1_bad.rs", "crates/workload/src/driver.rs");
    assert_eq!(f.len(), 7, "{f:#?}");
    assert_all_rule(&f, rules::RECOVERY_NO_PANIC);
}

#[test]
fn r1_governs_the_coordinator_and_reroute_modules() {
    // PR 7's zone coordinator and reroute planner run inside recovery
    // (the coordinator escalates peers; the planner rebuilds routes after
    // a switch death), so both joined R1's per-line no-panic scope.
    for path in [
        "crates/core/src/coordinator.rs",
        "crates/net/src/reroute.rs",
    ] {
        let f = scan_fixture("r1_bad.rs", path);
        assert_eq!(f.len(), 7, "{path}: {f:#?}");
        assert_all_rule(&f, rules::RECOVERY_NO_PANIC);
    }
}

#[test]
fn scenario_bad_flags_panics_and_nondeterminism_in_the_dsl_crate() {
    // PR 8's scenario DSL joined both per-line scopes: R1 because the
    // parser must be total over byte soup and the compiled campaigns run
    // through recoveries, R2 because its output feeds the simulator.
    let f = scan_fixture("scenario_bad.rs", "crates/scenario/src/parse.rs");
    // 2 recovery-no-panic (literal index, unwrap) + 4 determinism (the
    // HashMap use + both mentions on its declaration line, Instant::now).
    assert_eq!(f.len(), 6, "{f:#?}");
    let r1 = f.iter().filter(|x| x.rule == rules::RECOVERY_NO_PANIC).count();
    let r2 = f.iter().filter(|x| x.rule == rules::DETERMINISM).count();
    assert_eq!((r1, r2), (2, 4), "{f:#?}");
}

#[test]
fn scenario_good_total_parser_is_clean_including_test_module() {
    let f = scan_fixture("scenario_good.rs", "crates/scenario/src/parse.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn suppression_fixture_honors_rule_specific_allows() {
    let f = scan_fixture("suppression.rs", "crates/gm/src/recovery.rs");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, rules::RECOVERY_NO_PANIC);
    assert_eq!(f[0].line, 9, "only the wrong-rule allow leaks through");
}

#[test]
fn fixtures_are_invisible_to_a_workspace_scan() {
    // The fixtures deliberately violate every rule; the scanner must not
    // trip over them when walking the real tree (they live under
    // tests/fixtures/, which is out of scope).
    let f = scan_fixture("r1_bad.rs", "crates/lint/tests/fixtures/r1_bad.rs");
    assert!(f.is_empty(), "{f:#?}");
}

// ---- graph rules (R7–R9): fixture + entry stub pairs ------------------
//
// The graph rules need an entry point *calling into* the fixture, so
// each fixture is scanned as a two-file workspace: the fixture at a
// non-entry path plus a small entry stub. The chains asserted here are
// the diagnostics the CLI prints on a `via` line.

fn scan_fixture_with_entry(
    name: &str,
    pretend_path: &str,
    entry_path: &str,
    entry_src: &str,
) -> Vec<Finding> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let ws = ftgm_lint::graph::Workspace::from_sources(
        vec![
            (pretend_path.to_string(), content),
            (entry_path.to_string(), entry_src.to_string()),
        ],
        &[],
    );
    ftgm_lint::scan_ws(&ws)
}

fn chain_symbols(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|h| h.symbol.as_str()).collect()
}

const R7_ENTRY_STUB: &str = "pub fn ftd_check(state: &[u8]) -> u8 { verify(state) }\n";

#[test]
fn r7_bad_reports_full_chain_from_entry_to_panic() {
    let f = scan_fixture_with_entry(
        "r7_bad.rs",
        "crates/net/src/verify.rs",
        "crates/gm/src/ftd.rs",
        R7_ENTRY_STUB,
    );
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::TRANSITIVE_PANIC);
    for x in &f {
        assert_eq!(x.symbol, "helper_b");
        assert_eq!(
            chain_symbols(x),
            vec!["ftd_check", "verify", "helper_a", "helper_b"]
        );
        assert!(
            x.message.contains("3 calls below entry `ftd_check`"),
            "{}",
            x.message
        );
    }
    assert!(f.iter().any(|x| x.snippet.contains("unwrap")));
    assert!(f.iter().any(|x| x.snippet.contains("state[1]")));
}

#[test]
fn r7_good_is_clean_including_the_inline_allow() {
    let f = scan_fixture_with_entry(
        "r7_good.rs",
        "crates/net/src/verify.rs",
        "crates/gm/src/ftd.rs",
        R7_ENTRY_STUB,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn r7_seeds_reachability_from_coordinator_and_reroute_entries() {
    // The same panicking helpers are reachable when the caller lives in
    // one of PR 7's new entry files — the zone coordinator or the
    // reroute planner — so both must seed R7's transitive-panic pass.
    for entry in [
        "crates/core/src/coordinator.rs",
        "crates/net/src/reroute.rs",
    ] {
        let f = scan_fixture_with_entry(
            "r7_bad.rs",
            "crates/host/src/verify.rs",
            entry,
            R7_ENTRY_STUB,
        );
        assert_eq!(f.len(), 2, "{entry}: {f:#?}");
        assert_all_rule(&f, rules::TRANSITIVE_PANIC);
    }
}

#[test]
fn r7_bad_is_inert_without_an_entry_calling_it() {
    // The same panicking helpers, unreachable from any recovery entry:
    // the pass must stay silent (that is the whole point of reachability
    // over a file allowlist).
    let f = scan_fixture("r7_bad.rs", "crates/net/src/verify.rs");
    assert!(f.is_empty(), "{f:#?}");
}

const R8_ENTRY_STUB: &str = "pub fn ftd_tick(now: u64) -> u64 { probe(now) }\n";

#[test]
fn r8_bad_reports_taint_with_chains_across_the_r2_boundary() {
    let f = scan_fixture_with_entry(
        "r8_bad.rs",
        "crates/host/src/timing.rs",
        "crates/gm/src/ftd.rs",
        R8_ENTRY_STUB,
    );
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::DETERMINISM_TAINT);
    let clock = f.iter().find(|x| x.symbol == "wall_clock").expect("clock finding");
    assert_eq!(
        chain_symbols(clock),
        vec!["ftd_tick", "probe", "sample", "wall_clock"]
    );
    let map = f.iter().find(|x| x.symbol == "tally").expect("map finding");
    assert_eq!(
        chain_symbols(map),
        vec!["ftd_tick", "probe", "sample", "wall_clock", "tally"]
    );
}

#[test]
fn r8_good_is_clean() {
    let f = scan_fixture_with_entry(
        "r8_good.rs",
        "crates/host/src/timing.rs",
        "crates/gm/src/ftd.rs",
        R8_ENTRY_STUB,
    );
    assert!(f.is_empty(), "{f:#?}");
}

const R9_ENTRY_STUB: &str =
    "pub fn to_jsonl(rows: &[u64]) -> String { fmt_row(rows) }\n";

#[test]
fn r9_bad_reports_floats_below_the_serializer_surface() {
    let f = scan_fixture_with_entry(
        "r9_bad.rs",
        "crates/host/src/fmt.rs",
        "crates/sim/src/export.rs",
        R9_ENTRY_STUB,
    );
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::FLOAT_IN_DETERMINISTIC_PATH);
    for x in &f {
        assert_eq!(x.symbol, "scale");
        assert_eq!(chain_symbols(x), vec!["to_jsonl", "fmt_row", "scale"]);
        assert!(x.message.contains("to_jsonl"), "{}", x.message);
    }
}

#[test]
fn r9_good_is_clean() {
    let f = scan_fixture_with_entry(
        "r9_good.rs",
        "crates/host/src/fmt.rs",
        "crates/sim/src/export.rs",
        R9_ENTRY_STUB,
    );
    assert!(f.is_empty(), "{f:#?}");
}

const MPI_ENTRY_STUB: &str =
    "pub fn plan_rank_restart(spares: &[u32]) -> u32 { choose_spare(spares) }\n";

#[test]
fn mpi_bad_chains_from_the_restart_planner_entry() {
    // crates/mpi/src/recovery.rs seeds R7: a panicking helper reachable
    // from `plan_rank_restart` is reported with the full chain.
    let f = scan_fixture_with_entry(
        "mpi_bad.rs",
        "crates/host/src/respawn_util.rs",
        "crates/mpi/src/recovery.rs",
        MPI_ENTRY_STUB,
    );
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::TRANSITIVE_PANIC);
    for x in &f {
        assert_eq!(x.symbol, "slot_of");
        assert_eq!(
            chain_symbols(x),
            vec!["plan_rank_restart", "choose_spare", "slot_of"]
        );
    }
    assert!(f.iter().any(|x| x.snippet.contains("unwrap")));
    assert!(f.iter().any(|x| x.snippet.contains("spares[0]")));
}

#[test]
fn mpi_bad_is_r1_governed_inside_the_mpi_crate() {
    // The same two lines need no entry stub when the file lives in
    // crates/mpi/src/ — the whole crate is recovery-path code.
    let f = scan_fixture("mpi_bad.rs", "crates/mpi/src/respawn_util.rs");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::RECOVERY_NO_PANIC);
}

const INTERP_ENTRY: &str = "crates/lanai/src/cpu.rs";
const INTERP_ENTRY_STUB: &str = "pub fn run(ops: &[u32]) -> u64 { exec_window(ops) }\n";

#[test]
fn decode_bad_seeds_both_graph_passes_from_cpu_run() {
    // crates/lanai/src/cpu.rs is an entry for *both* graph rules: R7
    // because the interpreter executes (possibly corrupted) firmware
    // inside recoveries, R8 because the lanai crate is R2-scoped. One
    // scan, chains for both families rooted at the same entry fn.
    let f = scan_fixture_with_entry(
        "decode_bad.rs",
        "crates/host/src/decode_support.rs",
        INTERP_ENTRY,
        INTERP_ENTRY_STUB,
    );
    assert_eq!(f.len(), 3, "{f:#?}");
    let panics: Vec<_> = f
        .iter()
        .filter(|x| x.rule == rules::TRANSITIVE_PANIC)
        .collect();
    assert_eq!(panics.len(), 2, "{f:#?}");
    for x in &panics {
        assert_eq!(x.symbol, "fetch");
        assert_eq!(chain_symbols(x), vec!["run", "exec_window", "fetch"]);
    }
    assert!(panics.iter().any(|x| x.snippet.contains("unwrap")));
    assert!(panics.iter().any(|x| x.snippet.contains("ops[1]")));
    let taint = f
        .iter()
        .find(|x| x.rule == rules::DETERMINISM_TAINT)
        .expect("taint finding");
    assert_eq!(taint.symbol, "stamp");
    assert_eq!(chain_symbols(taint), vec!["run", "exec_window", "stamp"]);
    assert!(taint.snippet.contains("Instant::now"), "{}", taint.snippet);
}

#[test]
fn decode_bad_is_inert_without_the_decode_entry() {
    // Same helpers, nothing in cpu.rs calling them: both passes stay
    // silent (the helpers live outside every per-line scope too).
    let f = scan_fixture("decode_bad.rs", "crates/host/src/decode_support.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn decode_good_total_and_sim_clocked_is_clean() {
    let f = scan_fixture_with_entry(
        "decode_good.rs",
        "crates/host/src/decode_support.rs",
        INTERP_ENTRY,
        INTERP_ENTRY_STUB,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn mpi_good_is_clean_as_mpi_source_and_under_the_entry() {
    // R1 + R2 per-line over an mpi path: the lookalikes must not fire.
    let f = scan_fixture("mpi_good.rs", "crates/mpi/src/respawn_util.rs");
    assert!(f.is_empty(), "{f:#?}");
    // And nothing reachable from the restart planner panics.
    let f = scan_fixture_with_entry(
        "mpi_good.rs",
        "crates/host/src/respawn_util.rs",
        "crates/mpi/src/recovery.rs",
        MPI_ENTRY_STUB,
    );
    assert!(f.is_empty(), "{f:#?}");
}
