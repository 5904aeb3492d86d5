//! The one rule, R7 (`transitive-panic`): its name, its entry tables,
//! and the token matcher its pass ([`crate::passes`]) runs over every
//! function reachable from an entry.
//!
//! Every invariant clippy or the compiler can state is stated there
//! instead (see docs/STATIC_ANALYSIS.md): the panicking calls and the
//! indexing of the recovery-path modules are `#![deny(...)]` clippy lints
//! at their tops, float arithmetic is `clippy::float_arithmetic` in the
//! crates the serializers reach, and the sequence-number fields are
//! private to their accessor modules. What stays here is what no clippy
//! lint says: a panic any number of calls below a recovery entry point.
//! The matcher is token-based, not AST-based.

use crate::lexer::{Tok, TokKind};

/// R7's name: the id used by `lint:allow(...)` and the report.
pub const TRANSITIVE_PANIC: &str = "transitive-panic";

/// All rule names, in report order.
pub const ALL_RULES: [&str; 1] = [TRANSITIVE_PANIC];

/// One-line description per rule (for `--rules`).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        TRANSITIVE_PANIC => {
            "no panicking construct in any function reachable from a recovery entry point"
        }
        _ => "unknown rule",
    }
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

/// Every file the entry table names, for the workspace gate's check that
/// none of them has gone stale.
pub fn entry_files() -> impl Iterator<Item = &'static str> {
    R7_ENTRY_FILES.into_iter()
}

/// Every `(file, fn name)` R7 is seeded from, for the same check.
pub fn entry_fns() -> impl Iterator<Item = (&'static str, &'static str)> {
    R7_ENTRY_FNS.into_iter()
}

/// Panicking constructs in one function's tokens: `unwrap(` and
/// `expect(` in method or path form (`x.unwrap()`, `Option::unwrap(x)`),
/// `panic!`/`todo!`/`unimplemented!`, and indexing by integer literal.
/// An `expect(` that opens an attribute (`#[expect(..)]`,
/// `#![expect(..)]`) is a lint expectation, not a call.
pub(crate) fn panic_sites(toks: &[Tok]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        let next = toks.get(k + 1);
        match t.kind {
            TokKind::Ident => {
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && next.is_some_and(|x| x.is_punct(b'('))
                    && !opens_attribute(&toks[..k])
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

/// `true` if `before` ends in `#[` or `#![`.
fn opens_attribute(before: &[Tok]) -> bool {
    let back = |i: usize| before.len().checked_sub(i).map(|j| &before[j]);
    let is = |i: usize, b: u8| back(i).is_some_and(|t| t.is_punct(b));
    is(1, b'[') && (is(2, b'#') || is(2, b'!') && is(3, b'#'))
}

/// Keywords an index expression can't follow (`return [0]` is an array).
fn is_stmt_keyword(s: &str) -> bool {
    matches!(s, "return" | "break" | "in" | "else" | "match" | "if" | "while")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_file_content;

    // The `r1_*` tests keep the names of the retired per-file rule whose
    // constructs they pin: R7 runs the same matcher, and every fn of an
    // entry file such as `gm/src/recovery.rs` is an R7 entry.

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
        let f = scan_file_content("crates/gm/src/recovery.rs", src);
        assert_eq!(f.len(), 7, "{f:#?}");
        assert!(f.iter().all(|x| x.rule == TRANSITIVE_PANIC));
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
        let f = scan_file_content("crates/gm/src/recovery.rs", src);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn r1_reads_an_expect_attribute_as_no_call() {
        let src = "#![expect(clippy::y, reason = \"..\")]\n\
                   fn f(x: Option<u8>) {\n\
                   #[expect(clippy::x, reason = \"..\")]\n\
                   let _ = x.expect(\"m\");\n\
                   }\n";
        let f = scan_file_content("crates/gm/src/recovery.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!((f[0].line, f[0].col), (4, 11), "only the call fires");
    }

    #[test]
    fn r1_only_in_listed_files() {
        let f = scan_file_content("crates/net/src/fabric.rs", "fn f(x: Option<u8>) { x.unwrap(); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn allow_suppresses_and_is_rule_specific() {
        let src = "fn f(x: Option<u8>) {\n\
                   x.unwrap(); // lint:allow(transitive-panic)\n\
                   // lint:allow(recovery-no-panic)\n\
                   x.unwrap();\n\
                   }\n";
        let f = scan_file_content("crates/gm/src/recovery.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].line, 4, "a retired rule's allow does not suppress");
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn g(x: Option<u8>) { x.unwrap(); }\n\
                   }\n";
        assert!(scan_file_content("crates/gm/src/recovery.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() {\n\
                   // calls x.unwrap() and panic!(\"x\")\n\
                   let s = \"x.unwrap() v[0]\";\n\
                   let _ = s;\n\
                   }\n";
        assert!(scan_file_content("crates/gm/src/recovery.rs", src).is_empty());
    }
}
