//! Fixture-driven tests for the lint engine: each file under
//! `tests/fixtures/` is scanned *as if* it lived at an R7 entry path, or
//! below an entry stub, and the expected finding count is asserted. The
//! `*_bad.rs` fixtures exercise every construct the rule knows about; the
//! `*_good.rs` fixtures are the sanctioned alternatives plus the known
//! near-miss lookalikes.

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
    assert_all_rule(&f, rules::TRANSITIVE_PANIC);
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
fn r1_governs_the_coordinator_and_reroute_modules() {
    // The zone coordinator and the reroute planner run inside recovery
    // (the coordinator escalates peers; the planner rebuilds routes after
    // a switch death), so every fn in them is an R7 entry.
    for path in [
        "crates/core/src/coordinator.rs",
        "crates/net/src/reroute.rs",
    ] {
        let f = scan_fixture("r1_bad.rs", path);
        assert_eq!(f.len(), 7, "{path}: {f:#?}");
        assert_all_rule(&f, rules::TRANSITIVE_PANIC);
    }
}

#[test]
fn suppression_fixture_honors_rule_specific_allows() {
    let f = scan_fixture("suppression.rs", "crates/gm/src/recovery.rs");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, rules::TRANSITIVE_PANIC);
    assert_eq!(f[0].line, 9, "only the wrong-rule allow leaks through");
}

#[test]
fn fixtures_are_invisible_to_a_workspace_scan() {
    // The fixtures deliberately violate the rule; the scanner must not
    // trip over them (they live under tests/fixtures/, which is neither
    // an entry file nor walked by a workspace scan).
    let f = scan_fixture("r1_bad.rs", "crates/lint/tests/fixtures/r1_bad.rs");
    assert!(f.is_empty(), "{f:#?}");
}

// ---- fixture + entry stub pairs ----------------------------------------
//
// R7 needs an entry point *calling into* the fixture, so
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
    // the zone coordinator or the reroute planner, so both must seed
    // R7's transitive-panic pass.
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

const COMPILE_ENTRY_STUB: &str = "pub fn compile(src: &str, toks: &[u64]) -> u64 {\n\
                                  \x20   first_token(toks) + parse_count(src)\n\
                                  }\n";

#[test]
fn scenario_bad_flags_panics_in_the_dsl_crate() {
    // `compile` seeds R7 by name: a campaign is lowered before any fault
    // fires, but a panic there kills a whole corpus replay.
    let f = scan_fixture_with_entry(
        "scenario_bad.rs",
        "crates/scenario/src/parse.rs",
        "crates/scenario/src/compile.rs",
        COMPILE_ENTRY_STUB,
    );
    assert_eq!(f.len(), 2, "literal index + unwrap: {f:#?}");
    assert_all_rule(&f, rules::TRANSITIVE_PANIC);
    for x in &f {
        assert_eq!(chain_symbols(x), vec!["compile", x.symbol.as_str()]);
    }
}

#[test]
fn scenario_good_total_parser_is_clean_including_test_module() {
    let f = scan_fixture_with_entry(
        "scenario_good.rs",
        "crates/scenario/src/parse.rs",
        "crates/scenario/src/compile.rs",
        COMPILE_ENTRY_STUB,
    );
    assert!(f.is_empty(), "{f:#?}");
}

const INTERP_ENTRY: &str = "crates/lanai/src/cpu.rs";
const INTERP_ENTRY_STUB: &str = "pub fn run(ops: &[u32]) -> u64 { exec_window(ops) }\n";

#[test]
fn decode_bad_chains_panics_from_cpu_run() {
    // crates/lanai/src/cpu.rs seeds R7: the interpreter executes
    // (possibly corrupted) firmware inside recoveries.
    let f = scan_fixture_with_entry(
        "decode_bad.rs",
        "crates/host/src/decode_support.rs",
        INTERP_ENTRY,
        INTERP_ENTRY_STUB,
    );
    assert_eq!(f.len(), 2, "{f:#?}");
    assert_all_rule(&f, rules::TRANSITIVE_PANIC);
    for x in &f {
        assert_eq!(x.symbol, "fetch");
        assert_eq!(chain_symbols(x), vec!["run", "exec_window", "fetch"]);
    }
    assert!(f.iter().any(|x| x.snippet.contains("unwrap")));
    assert!(f.iter().any(|x| x.snippet.contains("ops[1]")));
}

#[test]
fn decode_bad_is_inert_without_the_decode_entry() {
    // Same helpers, nothing in cpu.rs calling them: R7 stays silent.
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
    // As the restart planner's own file, every fn an entry: the
    // lookalikes must not fire.
    let f = scan_fixture("mpi_good.rs", "crates/mpi/src/recovery.rs");
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
