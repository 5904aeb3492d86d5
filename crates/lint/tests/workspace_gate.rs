//! The tier-1 lint gate plus a CLI self-test.
//!
//! `workspace_has_no_new_findings` is the actual gate: it scans the real
//! checkout and fails the build if anyone introduces an R7 violation.
//! `clippy_stated_invariants_stay_declared` pins the attributes and the
//! `clippy.toml` bans that state the rest of the invariants to clippy.
//! The `cli_*` tests drive the compiled binary against a throwaway fake
//! workspace to prove the end-to-end behavior: exit 1 on any finding,
//! exit 0 once it is fixed or carries an inline `lint:allow`, and a
//! byte-stable JSON report.

use std::path::PathBuf;
use std::process::Command;

use ftgm_lint::{default_root, load_workspace, rules, scan_workspace};

#[test]
fn workspace_has_no_new_findings() {
    let findings = scan_workspace(&default_root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "lint findings (fix them, or justify one in place with \
         `// lint:allow(<rule>)`):\n{}",
        findings
            .iter()
            .map(ftgm_lint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// R7 is seeded by path and by `(file, fn)` name; a rename or a deletion
/// would otherwise drop code out of the rule without a word.
#[test]
fn rule_tables_name_only_things_that_exist() {
    let root = default_root();
    let ws = load_workspace(&root).expect("workspace loads");
    let gone: Vec<&str> = rules::entry_files().filter(|p| !root.join(p).exists()).collect();
    assert!(gone.is_empty(), "entry files that do not exist: {gone:?}");
    let unresolved: Vec<_> = rules::entry_fns()
        .filter(|&(file, name)| ws.select(|rel, def| rel == file && def.name == name).is_empty())
        .collect();
    assert!(unresolved.is_empty(), "entry fns with no definition: {unresolved:?}");
}

/// The invariants clippy states (ci.sh's `clippy` step) live in source
/// attributes and one config file; deleting any of them would silently
/// drop a check, so this pins each one where it is stated.
#[test]
fn clippy_stated_invariants_stay_declared() {
    let root = default_root();
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    // The recovery path: no panicking call, and (but in the FTD, whose
    // `world.nodes[n]` would all fire) no unchecked index.
    const PANICS: &str = "clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                          clippy::todo, clippy::unimplemented";
    let recovery_path = [
        "crates/gm/src/recovery.rs",
        "crates/core/src/coordinator.rs",
        "crates/net/src/reroute.rs",
        "crates/gm/src/backup.rs",
        "crates/mcp/src/gobackn.rs",
        "crates/faults/src/chaos.rs",
        "crates/sim/src/trace.rs",
        "crates/sim/src/metrics.rs",
        "crates/sim/src/export.rs",
        "crates/workload/src/lib.rs",
        "crates/scenario/src/lib.rs",
        "crates/mpi/src/lib.rs",
    ];
    // Every crate or module an integer-only serializer reaches.
    let integer_only = [
        "faults", "host", "lanai", "lint", "mcp", "mpi", "net", "scenario", "sim", "workload",
    ]
    .map(|c| format!("crates/{c}/src/lib.rs"))
    .into_iter()
        .chain(["crates/bench/src/mpi.rs".into(), "crates/bench/src/bin/chaos.rs".into()]);
    let declared = [
        ("crates/faults/src/classify.rs", "clippy::wildcard_enum_match_arm"),
        ("crates/gm/src/recovery.rs", "clippy::wildcard_enum_match_arm"),
        ("crates/gm/src/ftd.rs", "clippy::wildcard_enum_match_arm"),
        ("crates/mcp/src/packet.rs", "clippy::cast_possible_truncation"),
        ("crates/workload/src/column.rs", "clippy::cast_possible_truncation"),
        ("crates/gm/src/ftd.rs", PANICS),
    ]
    .map(|(rel, lints)| (rel.to_string(), lints))
    .into_iter()
    .chain(recovery_path.iter().map(|rel| (rel.to_string(), PANICS)))
    .chain(recovery_path.iter().map(|rel| (rel.to_string(), "clippy::indexing_slicing")))
    .chain(integer_only.map(|rel| (rel, "clippy::float_arithmetic")));
    for (rel, lints) in declared {
        let attr = format!("#![deny({lints})]");
        assert!(read(&rel).lines().any(|l| l == attr), "{rel} lost `{attr}`");
    }
    let manifest = read("Cargo.toml");
    let table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|t| t.split("\n[").next())
        .expect("Cargo.toml has [workspace.lints.clippy]");
    for lint in ["disallowed_methods", "disallowed_types"] {
        let line = format!("{lint} = \"deny\"");
        assert!(table.lines().any(|l| l == line), "workspace clippy table lost `{line}`");
    }
    let config = read("clippy.toml");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::thread::current",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        let entry = format!("{{ path = \"{path}\", reason = ");
        assert!(config.contains(&entry), "clippy.toml no longer bans {path}");
    }
}

/// A throwaway fake workspace with one rule-governed file, torn down on
/// drop. Unique per test via the test name.
struct FakeTree {
    root: PathBuf,
}

impl FakeTree {
    fn new(tag: &str) -> FakeTree {
        let root = std::env::temp_dir().join(format!(
            "ftgm-lint-selftest-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/gm/src")).expect("mkdir");
        FakeTree { root }
    }

    fn write_recovery(&self, body: &str) {
        self.write("crates/gm/src/recovery.rs", body);
    }

    fn write(&self, rel: &str, body: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, body).expect("write fixture file");
    }

    fn run(&self, extra: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_ftgm-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("run ftgm-lint binary")
    }
}

impl Drop for FakeTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const VIOLATION: &str = "fn recover(x: Option<u8>) -> u8 { x.unwrap() }\n";
const CLEAN: &str = "fn recover(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";

#[test]
fn cli_fails_on_fresh_violation_and_passes_when_fixed() {
    let tree = FakeTree::new("fresh");
    tree.write_recovery(VIOLATION);
    let out = tree.run(&[]);
    assert_eq!(out.status.code(), Some(1), "violation must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/gm/src/recovery.rs:1:") && stdout.contains("transitive-panic"),
        "report names file:line and rule:\n{stdout}"
    );

    tree.write_recovery(CLEAN);
    let out = tree.run(&[]);
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
}

#[test]
fn cli_inline_allow_suppresses() {
    let tree = FakeTree::new("allow");
    tree.write_recovery(
        "fn recover(x: Option<u8>) -> u8 {\n\
         \x20   x.unwrap() // lint:allow(transitive-panic): startup only\n\
         }\n",
    );
    assert_eq!(tree.run(&[]).status.code(), Some(0));
}

#[test]
fn cli_rejects_unknown_flags_with_usage_error() {
    let tree = FakeTree::new("usage");
    tree.write_recovery(CLEAN);
    // The retired ledger flags are unknown arguments like any other.
    for flag in ["--frobnicate", "--deny-new", "--write-baseline"] {
        assert_eq!(tree.run(&[flag]).status.code(), Some(2), "{flag}");
    }
}

/// The tentpole acceptance criterion end-to-end: a panic seeded two
/// calls below a recovery entry point, across a crate boundary, is
/// reported by the CLI with the full call chain in both the human and
/// JSON forms.
#[test]
fn cli_reports_cross_crate_call_chain_for_seeded_panic() {
    let tree = FakeTree::new("chain");
    // Entry point: recovery.rs is an R7 entry file.
    tree.write_recovery("pub fn verify(state: &[u8]) -> u8 { helper_a(state) }\n");
    // The panic, two calls below, in a different crate.
    tree.write(
        "crates/net/src/util.rs",
        "pub fn helper_a(state: &[u8]) -> u8 { helper_b(state) }\n\
         pub fn helper_b(state: &[u8]) -> u8 { state.first().copied().unwrap() }\n",
    );
    // Realistic manifests: gm depends on net, so the cross-crate call
    // resolves through the dependency closure (not fixture allow-all).
    tree.write(
        "crates/gm/Cargo.toml",
        "[package]\nname = \"ftgm-gm\"\n[dependencies]\nftgm-net = { path = \"../net\" }\n",
    );
    tree.write("crates/net/Cargo.toml", "[package]\nname = \"ftgm-net\"\n");

    let out = tree.run(&["--json"]);
    assert_eq!(out.status.code(), Some(1), "seeded panic must fail the run");
    // One finding per report line, rendered in a fixed field order.
    let report = String::from_utf8_lossy(&out.stdout);
    let f = report
        .lines()
        .find(|l| l.contains("\"rule\": \"transitive-panic\""))
        .expect("a transitive-panic finding");
    for piece in [
        "\"file\": \"crates/net/src/util.rs\", \"line\": 2, ",
        "\"symbol\": \"helper_b\", ",
        // Chain hops carry their defining files.
        "\"chain\": [{\"file\": \"crates/gm/src/recovery.rs\", \"symbol\": \"verify\"}, \
         {\"file\": \"crates/net/src/util.rs\", \"symbol\": \"helper_a\"}, \
         {\"file\": \"crates/net/src/util.rs\", \"symbol\": \"helper_b\"}], ",
        "2 calls below entry `verify`",
    ] {
        assert!(f.contains(piece), "missing {piece} in {f}");
    }

    // Human form: the same chain on a `via` line.
    let human = tree.run(&[]);
    let stdout = String::from_utf8_lossy(&human.stdout);
    assert!(
        stdout.contains("via verify \u{2192} helper_a \u{2192} helper_b"),
        "human output shows the chain:\n{stdout}"
    );
}

#[test]
fn cli_report_file_is_deterministic_and_integer_only() {
    let tree = FakeTree::new("report");
    tree.write_recovery(VIOLATION);
    let report_path = tree.root.join("lint_report.json");
    let run = |p: &std::path::Path| {
        tree.run(&["--report", p.to_str().expect("utf8 path")]);
        std::fs::read_to_string(p).expect("report written")
    };
    let first = run(&report_path);
    assert!(first.starts_with("{\n  \"schema\": \"ftgm-lint-v2\",\n  \"rules\": ["), "{first}");
    assert!(first.contains("],\n  \"count\": 1,\n  \"findings\": [\n    {\"rule\": "), "{first}");
    // Integer-only: no `"key": 1.5`-style float values anywhere (the
    // same contract ci.sh greps for on the bench artifacts).
    for line in first.lines() {
        let after_colon = line.rsplit(':').next().unwrap_or("");
        assert!(
            !after_colon.trim_start().starts_with(|c: char| c.is_ascii_digit())
                || !after_colon.contains('.'),
            "float value leaked into the report: {line}"
        );
    }
    // Byte-identical across runs.
    let second = run(&tree.root.join("lint_report_2.json"));
    assert_eq!(first, second, "report must be deterministic");
}
