//! The FTGM invariant rules: the per-file ones (R1, R3) and their
//! matchers, and the rule-name registry for the call-graph rules (R7,
//! R9), whose passes live in [`crate::passes`].
//!
//! Every invariant clippy can state exactly is a clippy lint instead
//! (the `clippy` step of ci.sh; see docs/STATIC_ANALYSIS.md). What stays
//! here is what no clippy lint says: a literal index on the recovery
//! path (R1; `clippy::indexing_slicing` also flags every `nodes[n]`),
//! writes to sequence fields outside their accessor modules (R3), and
//! the call-graph closures (R7, R9). Matchers are token-based, not
//! AST-based: every invariant here is expressible as "token X (in
//! context Y) must not appear in file set Z".

use crate::graph::WsFile;
use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Rule names — these are the ids used by `lint:allow(...)` and the
/// report.
pub const RECOVERY_NO_PANIC: &str = "recovery-no-panic";
pub const SEQNUM_DISCIPLINE: &str = "seqnum-discipline";
/// R7: panicking construct in a function *reachable from* a recovery
/// entry point (transitive closure of R1).
pub const TRANSITIVE_PANIC: &str = "transitive-panic";
/// R9: float arithmetic reachable from the integer-only serializers.
pub const FLOAT_IN_DETERMINISTIC_PATH: &str = "float-in-deterministic-path";

/// All rule names, in report order.
pub const ALL_RULES: [&str; 4] = [
    RECOVERY_NO_PANIC,
    SEQNUM_DISCIPLINE,
    TRANSITIVE_PANIC,
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

/// R3: the only modules allowed to assign sequence-number fields
/// directly — `gobackn.rs` owns the MCP-side counters, `backup.rs` the
/// host-side ones (the paper's §sequence-numbering split).
const R3_ACCESSOR_MODULES: [&str; 2] = ["crates/mcp/src/gobackn.rs", "crates/gm/src/backup.rs"];

/// Sequence-number field names R3 guards. `stage_seq` and `syn_seq` are
/// the staging frontier and SYN sequence of `gobackn::TxStream`.
const R3_FIELDS: [&str; 7] =
    ["next_seq", "cum_acked", "expected", "first_seq", "seq", "stage_seq", "syn_seq"];

/// One-line description per rule (for `--explain` style output and docs).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        RECOVERY_NO_PANIC => {
            "no unwrap/expect/panic!/todo!/unimplemented!/indexing-by-literal in recovery-critical modules"
        }
        SEQNUM_DISCIPLINE => {
            "sequence-number fields are written only inside the designated accessor modules"
        }
        TRANSITIVE_PANIC => {
            "no panicking construct in any function reachable from a recovery entry point (call-graph closure of R1)"
        }
        FLOAT_IN_DETERMINISTIC_PATH => {
            "no float arithmetic reachable from the integer-only bench/metrics serializers"
        }
        _ => "unknown rule",
    }
}

/// Is `rel` inside R1's scope? The graph pass (R7) skips these files —
/// every line in them is already guarded directly.
pub(crate) fn r1_covers(rel: &str) -> bool {
    R1_FILES.contains(&rel) || R1_DIRS.iter().any(|d| rel.starts_with(d))
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
        .chain(R3_ACCESSOR_MODULES)
        .chain(R7_ENTRY_FILES)
}

/// Every `(file, fn name)` a graph rule is seeded from, for the same check.
pub fn entry_fns() -> impl Iterator<Item = (&'static str, &'static str)> {
    R7_ENTRY_FNS.into_iter().chain(R9_ENTRY_FNS)
}

/// Runs the per-file rules over one file: R1's token matcher over the
/// pre-test tokens, R3's per-line matcher over the pre-test lines.
pub fn scan(file: &WsFile) -> Vec<Finding> {
    let rel = file.rel.as_str();
    // Test code, fixtures, benches and examples are out of scope: the
    // rules guard production invariants.
    if ["/tests/", "/benches/", "/examples/", "/fixtures/"]
        .iter()
        .any(|d| rel.contains(d))
    {
        return Vec::new();
    }
    let view = &file.view;
    let end = view.test_start.unwrap_or(view.code_lines.len());
    let mut findings = Vec::new();
    let mut emit = |rule: &'static str, idx: usize, col: usize, message: String| {
        if view.allows[idx].iter().any(|a| a == rule) {
            return;
        }
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line: idx + 1,
            col: col + 1,
            snippet: view.raw_lines[idx].trim().to_string(),
            symbol: file.parsed.symbol_for_line(idx as u32).to_string(),
            chain: Vec::new(),
            message,
        });
    };

    if r1_covers(rel) {
        let pre_test = file.toks.partition_point(|t| (t.line as usize) < end);
        for (line, col, what) in panic_sites(&file.toks[..pre_test]) {
            emit(
                RECOVERY_NO_PANIC,
                line as usize,
                col as usize,
                format!("{what} can panic on the recovery path; handle the failure case instead"),
            );
        }
    }
    let r3 = rel.starts_with("crates/")
        && rel.contains("/src/")
        && !R3_ACCESSOR_MODULES.contains(&rel);
    if r3 {
        for (idx, code) in view.code_lines[..end].iter().enumerate() {
            match_r3(code, &mut |rule, col, message| emit(rule, idx, col, message));
        }
    }
    findings
}

/// Panicking constructs in a token span, shared by R1 (a governed file's
/// pre-test tokens) and R7 (each reachable fn's tokens): `unwrap(` and
/// `expect(` in method or path form (`x.unwrap()`, `Option::unwrap(x)`),
/// `panic!`/`todo!`/`unimplemented!`, and indexing by integer literal.
pub(crate) fn panic_sites(toks: &[Tok]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        let next = toks.get(k + 1);
        match t.kind {
            TokKind::Ident => {
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && next.is_some_and(|x| x.is_punct(b'('))
                {
                    out.push((t.line, t.col, format!("`{}()`", t.text)));
                } else if matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
                    && next.is_some_and(|x| x.is_punct(b'!'))
                {
                    out.push((t.line, t.col, format!("`{}!`", t.text)));
                }
            }
            TokKind::Punct(b'[') if k > 0 => {
                let prev = &toks[k - 1];
                let indexable = prev.kind == TokKind::Ident
                    && !is_stmt_keyword(&prev.text)
                    || prev.is_punct(b')')
                    || prev.is_punct(b']');
                if indexable
                    && next.is_some_and(|x| x.kind == TokKind::Int)
                    && toks.get(k + 2).is_some_and(|x| x.is_punct(b']'))
                {
                    let lit = &toks[k + 1].text;
                    out.push((t.line, t.col, format!("indexing by literal `[{lit}]`")));
                }
            }
            _ => {}
        }
    }
    out
}

/// Keywords an index expression can't follow (`return [0]` is an array).
fn is_stmt_keyword(s: &str) -> bool {
    matches!(s, "return" | "break" | "in" | "else" | "match" | "if" | "while")
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, src: &str) -> Vec<Finding> {
        scan(&WsFile::new(rel.to_string(), src))
    }

    #[test]
    fn r1_catches_all_constructs() {
        let src = "fn f(x: Option<u8>, v: &[u8]) {\n\
                   let _ = x.unwrap();\n\
                   let _ = x.expect(\"msg\");\n\
                   let _ = Option::unwrap(x);\n\
                   panic!(\"boom\");\n\
                   todo!();\n\
                   unimplemented!();\n\
                   let _ = v[0];\n\
                   }\n";
        let f = scan_str("crates/gm/src/recovery.rs", src);
        assert_eq!(f.len(), 7, "{f:#?}");
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
    fn r1_covers_every_workload_module() {
        // Directory scope: any module of crates/workload/src is on the
        // recovery path, a freshly added one without editing any list.
        for rel in ["crates/workload/src/gen.rs", "crates/workload/src/future_module.rs"] {
            let f = scan_str(rel, "fn f(x: Option<u8>) { x.unwrap(); }\n");
            assert_eq!(f.len(), 1, "{rel}: {f:#?}");
            assert_eq!(f[0].rule, RECOVERY_NO_PANIC);
        }
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
    fn allow_suppresses_and_is_rule_specific() {
        let src = "fn f(x: Option<u8>) {\n\
                   x.unwrap(); // lint:allow(recovery-no-panic)\n\
                   // lint:allow(seqnum-discipline)\n\
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
                   // calls x.unwrap() and sets s.next_seq = 1\n\
                   let s = \"x.unwrap() s.next_seq = 1\";\n\
                   let _ = s;\n\
                   }\n";
        assert!(scan_str("crates/gm/src/recovery.rs", src).is_empty());
    }
}
