//! The per-line FTGM invariant rules (R1–R5) and their matchers.
//!
//! Each rule is a set of per-line token matchers applied to the blanked
//! "code view" ([`crate::strip::FileView`]) of the files it governs.
//! Matchers are deliberately token-based, not AST-based: the build
//! environment is offline, so the engine cannot depend on `syn`, and
//! every invariant here is expressible as "token X (in context Y) must
//! not appear in file set Z". The *call-graph* rules (R7–R9), which
//! extend these invariants transitively along the workspace call graph,
//! live in [`crate::passes`]; this module owns the rule-name registry
//! for both families.

use crate::parse::ParsedFile;
use crate::strip::FileView;
use crate::Finding;

/// Rule names — these are the ids used by `lint:allow(...)` and the
/// report.
pub const RECOVERY_NO_PANIC: &str = "recovery-no-panic";
pub const DETERMINISM: &str = "determinism";
pub const SEQNUM_DISCIPLINE: &str = "seqnum-discipline";
pub const NO_WILDCARD_MATCH: &str = "no-wildcard-match";
pub const NO_TRUNCATING_CAST: &str = "no-truncating-cast";
/// R7: panicking construct in a function *reachable from* a recovery
/// entry point (transitive closure of R1).
pub const TRANSITIVE_PANIC: &str = "transitive-panic";
/// R8: nondeterminism source reachable from sim-visible code
/// (transitive closure of R2).
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// R9: float arithmetic reachable from the integer-only serializers.
pub const FLOAT_IN_DETERMINISTIC_PATH: &str = "float-in-deterministic-path";

/// All rule names, in report order.
pub const ALL_RULES: [&str; 8] = [
    RECOVERY_NO_PANIC,
    DETERMINISM,
    SEQNUM_DISCIPLINE,
    NO_WILDCARD_MATCH,
    NO_TRUNCATING_CAST,
    TRANSITIVE_PANIC,
    DETERMINISM_TAINT,
    FLOAT_IN_DETERMINISTIC_PATH,
];

/// R1: modules on the recovery path must be total — no panicking calls.
/// `chaos.rs` qualifies because its actions and oracles execute inside
/// recovery (phase triggers fire mid-reset); a panic there would
/// masquerade as a recovery failure. The observability modules qualify
/// because `Trace::emit` runs inline with recovery (and everything else):
/// a panic while recording an event would abort the very recovery it was
/// observing.
const R1_FILES: [&str; 10] = [
    "crates/gm/src/recovery.rs",
    "crates/gm/src/ftd.rs",
    "crates/core/src/coordinator.rs",
    "crates/net/src/reroute.rs",
    "crates/gm/src/backup.rs",
    "crates/mcp/src/gobackn.rs",
    "crates/faults/src/chaos.rs",
    "crates/sim/src/trace.rs",
    "crates/sim/src/metrics.rs",
    "crates/sim/src/export.rs",
];

/// R1, directory form: whole crates on the recovery path. The workload
/// generators run *through* NIC hangs and recoveries by design (that is
/// the point of the recovery-under-load suite), so a panic anywhere in
/// the crate would abort the run it was measuring. The scenario DSL
/// qualifies end to end: its parser must be total over arbitrary bytes
/// (the fuzz suite feeds it byte soup), and its compiled campaigns run
/// through the same hangs and recoveries as the workload crate. The MPI
/// tier is middleware *above* the failures: its runtime keeps executing
/// through NIC deaths, shrinks and spare respawns, so a panic anywhere
/// in the crate turns a survivable fault into an abort.
const R1_DIRS: [&str; 3] = [
    "crates/workload/src/",
    "crates/scenario/src/",
    "crates/mpi/src/",
];

/// R2: crates whose code runs under (or feeds state into) the
/// deterministic simulation. `ftgm-bench` is one of them: the tracked
/// `BENCH_*.json` files and `results/` tables it writes must come out
/// byte-identical on a re-run, so it reads no wall clock (host time is
/// measured only by the repo benchmark under `benchmark/`).
const R2_DIRS: [&str; 10] = [
    "crates/sim/src/",
    "crates/net/src/",
    "crates/mcp/src/",
    "crates/lanai/src/",
    "crates/gm/src/",
    "crates/faults/src/",
    "crates/workload/src/",
    "crates/scenario/src/",
    "crates/mpi/src/",
    "crates/bench/src/",
];

/// R3: the only modules allowed to assign sequence-number fields
/// directly — `gobackn.rs` owns the MCP-side counters, `backup.rs` the
/// host-side ones (the paper's §sequence-numbering split).
const R3_ACCESSOR_MODULES: [&str; 2] = ["crates/mcp/src/gobackn.rs", "crates/gm/src/backup.rs"];

/// Sequence-number field names R3 guards. `stage_seq` and `syn_seq` are
/// the staging frontier and SYN sequence of `gobackn::TxStream`.
const R3_FIELDS: [&str; 7] =
    ["next_seq", "cum_acked", "expected", "first_seq", "seq", "stage_seq", "syn_seq"];

/// R4: matches over fault/event enums that must stay exhaustive (the
/// FTD's step and phase matches among them).
const R4_FILES: [&str; 3] =
    ["crates/faults/src/classify.rs", "crates/gm/src/recovery.rs", "crates/gm/src/ftd.rs"];

/// R5: wire-format modules where a silent truncation corrupts packets.
const R5_FILES: [&str; 2] = ["crates/mcp/src/packet.rs", "crates/net/src/crc.rs"];

/// One-line description per rule (for `--explain` style output and docs).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        RECOVERY_NO_PANIC => {
            "no unwrap/expect/panic!/todo!/unimplemented!/indexing-by-literal in recovery-critical modules"
        }
        DETERMINISM => {
            "no wall-clock time, OS randomness, or hash-ordered collections in sim-visible crates"
        }
        SEQNUM_DISCIPLINE => {
            "sequence-number fields are written only inside the designated accessor modules"
        }
        NO_WILDCARD_MATCH => "no `_ =>` arms in matches over fault/event enums",
        NO_TRUNCATING_CAST => "no bare `as u8`/`as u16` casts in wire-format modules",
        TRANSITIVE_PANIC => {
            "no panicking construct in any function reachable from a recovery entry point (call-graph closure of R1)"
        }
        DETERMINISM_TAINT => {
            "no wall-clock, OS-randomness, or hash-order source reachable from sim-visible code (call-graph closure of R2)"
        }
        FLOAT_IN_DETERMINISTIC_PATH => {
            "no float arithmetic reachable from the integer-only bench/metrics serializers"
        }
        _ => "unknown rule",
    }
}

/// Is `rel` inside R1's per-line scope? The graph pass (R7) skips these
/// files — every line in them is already guarded directly.
pub(crate) fn r1_covers(rel: &str) -> bool {
    R1_FILES.contains(&rel) || R1_DIRS.iter().any(|d| rel.starts_with(d))
}

/// Is `rel` inside R2's per-line scope? The taint pass (R8) skips these
/// files for the same reason.
pub(crate) fn r2_covers(rel: &str) -> bool {
    R2_DIRS.iter().any(|d| rel.starts_with(d))
}

/// Files whose non-test fns seed R7's reachability (in addition to the
/// named entry fns below): the recovery state machine, the FTD, the
/// replay/backup layers, and the observability modules that run inline
/// with recovery. `crates/core/src/lib.rs` is the `FtSystem` handle —
/// its `escalate_isolated` is the zone coordinator's way into the FTD's
/// escalation. The MPI
/// tier's `recovery.rs` holds the restart planner the harness controller
/// runs when a rank is declared dead (`plan_rank_restart` /
/// `apply_rank_restart`, plus the membership and suspicion machinery
/// they read) — a panic there strands the whole job mid-restart.
/// `crates/lanai/src/cpu.rs` is the LN32 interpreter: it executes every
/// firmware instruction of every node, including the `send_chunk`
/// replays the FTD drives mid-recovery, over images the fault campaign
/// has deliberately corrupted — a panic there (a fetch through a wild
/// program counter, say) takes down the whole simulated cluster, so its
/// closure (the SRAM accessors and the instruction decoder it calls)
/// must be total like the recovery paths proper.
pub(crate) const R7_ENTRY_FILES: [&str; 12] = [
    "crates/lanai/src/cpu.rs",
    "crates/mpi/src/recovery.rs",
    "crates/gm/src/recovery.rs",
    "crates/gm/src/ftd.rs",
    "crates/core/src/lib.rs",
    "crates/core/src/coordinator.rs",
    "crates/net/src/reroute.rs",
    "crates/gm/src/backup.rs",
    "crates/mcp/src/gobackn.rs",
    "crates/sim/src/trace.rs",
    "crates/sim/src/metrics.rs",
    "crates/sim/src/export.rs",
];

/// `(file, fn name)` pairs that seed R7 individually. `apply_action` is
/// the chaos engine's fault-execution switch (it runs inside recovery);
/// the scenario *runners* in the same file drive the whole simulator and
/// are deliberately not entries — the event loop is not a recovery path.
/// `compile` is the DSL-to-campaign lowering: it runs before any fault
/// fires, but a panic there kills a whole corpus replay, so its closure
/// must be total too. The DSL's `run_compiled` is not an entry for the
/// same reason the chaos runners are not.
pub(crate) const R7_ENTRY_FNS: [(&str, &str); 2] = [
    ("crates/faults/src/chaos.rs", "apply_action"),
    ("crates/scenario/src/compile.rs", "compile"),
];

/// `(file, fn name)` pairs that mark the integer-only serializer surface
/// for R9 (in addition to every fn in `crates/sim/src/export.rs`). These
/// are the byte-stable JSON emitters that ci.sh grep-gates as
/// integer-only; `CampaignResult::to_json` in `faults/src/campaign.rs`
/// is deliberately absent — its Table-1 percentages are floats by design.
pub(crate) const R9_ENTRY_FNS: [(&str, &str); 10] = [
    ("crates/bench/src/bin/chaos.rs", "rollup_json"),
    ("crates/bench/src/mpi.rs", "cell_json"),
    ("crates/bench/src/mpi.rs", "summary_json"),
    ("crates/scenario/src/run.rs", "to_json"),
    ("crates/faults/src/chaos.rs", "to_json"),
    ("crates/sim/src/metrics.rs", "to_json"),
    ("crates/sim/src/metrics.rs", "to_json_indented"),
    ("crates/sim/src/trace.rs", "write_json_fields"),
    ("crates/workload/src/slo.rs", "fold_report"),
    ("crates/workload/src/slo.rs", "to_json"),
];

/// Every file and directory a rule table scopes a rule by, for the
/// workspace gate's check that none of them has gone stale.
pub fn scoped_paths() -> impl Iterator<Item = &'static str> {
    R1_FILES
        .into_iter()
        .chain(R1_DIRS)
        .chain(R2_DIRS)
        .chain(R3_ACCESSOR_MODULES)
        .chain(R4_FILES)
        .chain(R5_FILES)
        .chain(R7_ENTRY_FILES)
}

/// Every `(file, fn name)` a graph rule is seeded from, for the same check.
pub fn entry_fns() -> impl Iterator<Item = (&'static str, &'static str)> {
    R7_ENTRY_FNS.into_iter().chain(R9_ENTRY_FNS)
}

/// Runs every applicable per-line rule over one file. `rel` is the
/// repo-relative path with forward slashes; `parsed` supplies the
/// enclosing-symbol attribution for each finding.
pub fn scan(rel: &str, view: &FileView, parsed: &ParsedFile) -> Vec<Finding> {
    // Test code, fixtures, benches and examples are out of scope: the
    // rules guard production invariants.
    if ["/tests/", "/benches/", "/examples/", "/fixtures/"]
        .iter()
        .any(|d| rel.contains(d))
    {
        return Vec::new();
    }

    let mut findings = Vec::new();
    let r1 = R1_FILES.contains(&rel) || R1_DIRS.iter().any(|d| rel.starts_with(d));
    let r2 = R2_DIRS.iter().any(|d| rel.starts_with(d));
    let r3 = rel.starts_with("crates/")
        && rel.contains("/src/")
        && !R3_ACCESSOR_MODULES.contains(&rel);
    let r4 = R4_FILES.contains(&rel);
    let r5 = R5_FILES.contains(&rel);
    if !(r1 || r2 || r3 || r4 || r5) {
        return findings;
    }

    let end = view.test_start.unwrap_or(view.code_lines.len());
    for (idx, code) in view.code_lines[..end].iter().enumerate() {
        let mut emit = |rule: &'static str, col: usize, message: String| {
            if view.allows[idx].iter().any(|a| a == rule) {
                return;
            }
            findings.push(Finding {
                rule,
                file: rel.to_string(),
                line: idx + 1,
                col: col + 1,
                snippet: view.raw_lines[idx].trim().to_string(),
                symbol: parsed.symbol_for_line(idx as u32).to_string(),
                chain: Vec::new(),
                message,
            });
        };
        if r1 {
            match_r1(code, &mut emit);
        }
        if r2 {
            match_r2(code, &mut emit);
        }
        if r3 {
            match_r3(code, &mut emit);
        }
        if r4 {
            match_r4(code, &mut emit);
        }
        if r5 {
            match_r5(code, &mut emit);
        }
    }
    findings
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets where `token` occurs with identifier boundaries.
fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let b = code.as_bytes();
    let t = token.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let i = start + pos;
        let pre_ok = i == 0 || !is_ident(b[i - 1]);
        let post = i + t.len();
        let post_ok = post >= b.len() || !is_ident(b[post]);
        if pre_ok && post_ok {
            out.push(i);
        }
        start = i + 1;
    }
    out
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] == b' ' || b[i] == b'\t') {
        i += 1;
    }
    i
}

/// R1: panicking constructs on the recovery path.
fn match_r1(code: &str, emit: &mut dyn FnMut(&'static str, usize, String)) {
    let b = code.as_bytes();
    for name in ["unwrap", "expect"] {
        for pos in token_positions(code, name) {
            let after = skip_ws(b, pos + name.len());
            if after < b.len() && b[after] == b'(' {
                emit(
                    RECOVERY_NO_PANIC,
                    pos,
                    format!("`.{name}()` can panic on the recovery path; handle the None/Err case"),
                );
            }
        }
    }
    for mac in ["panic", "todo", "unimplemented"] {
        for pos in token_positions(code, mac) {
            let after = skip_ws(b, pos + mac.len());
            if after < b.len() && b[after] == b'!' {
                emit(
                    RECOVERY_NO_PANIC,
                    pos,
                    format!("`{mac}!` aborts recovery; return an error instead"),
                );
            }
        }
    }
    // Indexing by integer literal: `xs[0]` panics if the shape assumption
    // breaks. `xs[i]`, attributes `#[...]` and types `[u8; 4]` don't match.
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1];
        if !(is_ident(prev) || prev == b')' || prev == b']') {
            continue;
        }
        if let Some(close) = code[i + 1..].find(']') {
            let inner = &code[i + 1..i + 1 + close];
            if !inner.is_empty() && inner.bytes().all(|x| x.is_ascii_digit() || x == b'_') {
                emit(
                    RECOVERY_NO_PANIC,
                    i,
                    format!("indexing by literal `[{inner}]` can panic; use .get({inner})"),
                );
            }
        }
    }
}

/// R2: nondeterminism sources in sim-visible crates.
fn match_r2(code: &str, emit: &mut dyn FnMut(&'static str, usize, String)) {
    let b = code.as_bytes();
    for (coll, alt) in [("HashMap", "BTreeMap"), ("HashSet", "BTreeSet")] {
        for pos in token_positions(code, coll) {
            emit(
                DETERMINISM,
                pos,
                format!("{coll} iteration order is hash-seeded; use {alt}"),
            );
        }
    }
    for pos in token_positions(code, "thread_rng") {
        emit(
            DETERMINISM,
            pos,
            "OS-seeded RNG breaks replay; use ftgm_sim::SimRng with an explicit seed".to_string(),
        );
    }
    for ty in ["SystemTime", "Instant"] {
        for pos in token_positions(code, ty) {
            // Only `<ty> :: now` — mentioning the type (e.g. in FFI glue
            // or conversions) is fine.
            let mut i = skip_ws(b, pos + ty.len());
            if i + 1 < b.len() && b[i] == b':' && b[i + 1] == b':' {
                i = skip_ws(b, i + 2);
                if code[i..].starts_with("now")
                    && (i + 3 >= b.len() || !is_ident(b[i + 3]))
                {
                    emit(
                        DETERMINISM,
                        pos,
                        format!("{ty}::now reads the wall clock; use the simulation clock"),
                    );
                }
            }
        }
    }
}

/// R3: direct writes to sequence-number fields outside accessor modules.
fn match_r3(code: &str, emit: &mut dyn FnMut(&'static str, usize, String)) {
    let b = code.as_bytes();
    for field in R3_FIELDS {
        for pos in token_positions(code, field) {
            if pos == 0 || b[pos - 1] != b'.' {
                continue; // not a field access
            }
            let i = skip_ws(b, pos + field.len());
            if i >= b.len() {
                continue;
            }
            // `.field = v` / `.field += v` etc. — but not `==`, `=>`.
            let assigned = match b[i] {
                b'=' => i + 1 >= b.len() || (b[i + 1] != b'=' && b[i + 1] != b'>'),
                b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^' => {
                    i + 1 < b.len() && b[i + 1] == b'='
                }
                _ => false,
            };
            if assigned {
                emit(
                    SEQNUM_DISCIPLINE,
                    pos,
                    format!(
                        "direct write to sequence field `{field}`; route it through \
                         gobackn.rs/backup.rs accessors so streams stay auditable"
                    ),
                );
            }
        }
    }
}

/// R4: wildcard arms in fault/event matches.
fn match_r4(code: &str, emit: &mut dyn FnMut(&'static str, usize, String)) {
    let trimmed = code.trim_start();
    let col = code.len() - trimmed.len();
    let after = trimmed.strip_prefix('_');
    if let Some(rest) = after {
        let rest = rest.trim_start();
        if rest.starts_with("=>") || rest.starts_with("if ") {
            emit(
                NO_WILDCARD_MATCH,
                col,
                "wildcard `_ =>` arm: adding a fault/event kind must force a handling decision"
                    .to_string(),
            );
        }
    }
}

/// R5: bare truncating casts in wire-format code.
fn match_r5(code: &str, emit: &mut dyn FnMut(&'static str, usize, String)) {
    let b = code.as_bytes();
    for pos in token_positions(code, "as") {
        let i = skip_ws(b, pos + 2);
        for ty in ["u8", "u16"] {
            if code[i..].starts_with(ty) {
                let end = i + ty.len();
                if end >= b.len() || !is_ident(b[end]) {
                    emit(
                        NO_TRUNCATING_CAST,
                        pos,
                        format!(
                            "bare `as {ty}` silently truncates; mask explicitly or use try_from"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, src: &str) -> Vec<Finding> {
        let view = FileView::new(src);
        let toks = crate::lexer::lex(&view);
        let parsed = crate::parse::parse(&toks, view.test_start);
        scan(rel, &view, &parsed)
    }

    #[test]
    fn r1_catches_all_constructs() {
        let src = "fn f(x: Option<u8>, v: &[u8]) {\n\
                   let _ = x.unwrap();\n\
                   let _ = x.expect(\"msg\");\n\
                   panic!(\"boom\");\n\
                   todo!();\n\
                   unimplemented!();\n\
                   let _ = v[0];\n\
                   }\n";
        let f = scan_str("crates/gm/src/recovery.rs", src);
        assert_eq!(f.len(), 6, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == RECOVERY_NO_PANIC));
    }

    #[test]
    fn r1_ignores_safe_lookalikes() {
        let src = "fn f(x: Option<u8>, v: &[u8]) {\n\
                   let _ = x.unwrap_or(0);\n\
                   let expected = 3;\n\
                   let _ = v.get(0);\n\
                   let _ = v[expected as usize];\n\
                   let t: [u8; 4] = [0; 4];\n\
                   #[derive(Debug)]\n\
                   struct S;\n\
                   }\n";
        let f = scan_str("crates/gm/src/recovery.rs", src);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn r1_only_in_listed_files() {
        let f = scan_str("crates/net/src/fabric.rs", "fn f(x: Option<u8>) { x.unwrap(); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn r1_and_r2_cover_the_workload_crate() {
        // Directory scope: any module of crates/workload/src is on the
        // recovery path (R1) and feeds the deterministic sim (R2).
        let f = scan_str(
            "crates/workload/src/gen.rs",
            "fn f(x: Option<u8>) { x.unwrap(); let _ = thread_rng(); }\n",
        );
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(f.iter().any(|x| x.rule == RECOVERY_NO_PANIC));
        assert!(f.iter().any(|x| x.rule == DETERMINISM));
        // A freshly added module is covered without editing any list.
        let f = scan_str(
            "crates/workload/src/future_module.rs",
            "fn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
    }

    #[test]
    fn r2_catches_all_sources() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let _ = std::time::Instant::now();\n\
                   let _ = std::time::SystemTime::now();\n\
                   let _r = thread_rng();\n\
                   let _s: HashSet<u8> = HashSet::new();\n\
                   }\n";
        let f = scan_str("crates/sim/src/anything.rs", src);
        assert_eq!(f.len(), 6, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == DETERMINISM));
        // The bench harness writes tracked, byte-reproducible files: a
        // stopwatch in one of its bins is the same finding.
        let f = scan_str(
            "crates/bench/src/bin/mpi.rs",
            "fn main() { let _t = std::time::Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, DETERMINISM);
    }

    #[test]
    fn r2_allows_type_mentions_without_now() {
        let src = "fn f(t: std::time::Instant) -> Instant { t }\n";
        let f = scan_str("crates/sim/src/x.rs", src);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn r3_catches_direct_writes_only() {
        let src = "fn f(s: &mut S) {\n\
                   s.next_seq = 4;\n\
                   s.cum_acked += 1;\n\
                   s.inner.expected = 7;\n\
                   tx.stage_seq = 9;\n\
                   tx.syn_seq = 9;\n\
                   let _ = s.next_seq == 4;\n\
                   let _ = s.next_seq;\n\
                   s.next_seq_hint = 1;\n\
                   match x { P { expected } => expected, }\n\
                   }\n";
        let f = scan_str("crates/mcp/src/machine.rs", src);
        assert_eq!(f.len(), 5, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == SEQNUM_DISCIPLINE));
    }

    #[test]
    fn r3_exempts_accessor_modules() {
        let src = "fn f(s: &mut S) { s.next_seq = 4; }\n";
        assert!(scan_str("crates/mcp/src/gobackn.rs", src).is_empty());
        assert!(scan_str("crates/gm/src/backup.rs", src).is_empty());
        assert_eq!(scan_str("crates/gm/src/world.rs", src).len(), 1);
    }

    #[test]
    fn r4_catches_wildcards() {
        let src = "fn f(o: Outcome) -> u8 {\n\
                   match o {\n\
                   Outcome::NoImpact => 0,\n\
                   _ => 1,\n\
                   }\n\
                   }\n";
        let f = scan_str("crates/faults/src/classify.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, NO_WILDCARD_MATCH);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn r4_ignores_bindings_and_other_files() {
        let src = "fn f() { let _ = 3; let _x = 4; }\n";
        assert!(scan_str("crates/faults/src/classify.rs", src).is_empty());
        let wild = "fn f(o: O) { match o { _ => 1 } }\n";
        assert!(scan_str("crates/faults/src/inject.rs", wild).is_empty());
    }

    #[test]
    fn r5_catches_bare_truncations() {
        let src = "fn f(x: u32) -> u8 { let _ = x as u16; x as u8 }\n";
        let f = scan_str("crates/mcp/src/packet.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == NO_TRUNCATING_CAST));
    }

    #[test]
    fn r5_ignores_widening_and_types() {
        let src = "fn f(x: u8) -> u32 { let v: Vec<u8> = vec![x]; v[0] as u32 }\n";
        assert!(scan_str("crates/net/src/crc.rs", src).is_empty());
    }

    #[test]
    fn allow_suppresses_and_is_rule_specific() {
        let src = "fn f(x: Option<u8>) {\n\
                   x.unwrap(); // lint:allow(recovery-no-panic)\n\
                   // lint:allow(determinism)\n\
                   x.unwrap();\n\
                   }\n";
        let f = scan_str("crates/gm/src/recovery.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 4, "wrong-rule allow does not suppress");
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn g(x: Option<u8>) { x.unwrap(); }\n\
                   }\n";
        assert!(scan_str("crates/gm/src/recovery.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() {\n\
                   // calls x.unwrap() and uses HashMap\n\
                   let s = \"x.unwrap() HashMap _ =>\";\n\
                   let _ = s;\n\
                   }\n";
        assert!(scan_str("crates/gm/src/recovery.rs", src).is_empty());
        assert!(scan_str("crates/sim/src/x.rs", src).is_empty());
    }
}
