//! Call-graph passes: R7 (transitive panic-reachability), R8
//! (determinism taint), R9 (float-in-deterministic-path).
//!
//! Each pass is the same shape: pick entry nodes (the functions where an
//! invariant *starts*), BFS the call graph ([`Workspace::reach_from`]),
//! then scan every reachable function's tokens for the sites the
//! invariant forbids. A finding names the site's enclosing symbol and
//! carries the shortest call chain from an entry to it — `ftd::verify →
//! helper_a → helper_b: panic!` — so the report answers "why is this
//! line recovery-critical?" instead of just "where is the panic?".
//!
//! Sites inside files already guarded line-by-line (R1's files for R7,
//! R2's directories for R8) are skipped: the per-line rule reports them
//! with no chain needed, and the graph pass only adds the *transitive*
//! surface the per-line scope misses.

use crate::graph::{Reach, Workspace};
use crate::lexer::{Tok, TokKind};
use crate::{rules, ChainHop, Finding};

/// Runs all graph passes over a parsed workspace.
pub fn scan_graph(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    transitive_panic(ws, &mut out);
    determinism_taint(ws, &mut out);
    float_in_deterministic_path(ws, &mut out);
    out
}

/// R7: panicking constructs reachable from recovery entry points.
fn transitive_panic(ws: &Workspace, out: &mut Vec<Finding>) {
    let entries = ws.select(|rel, def| {
        rules::R7_ENTRY_FILES.contains(&rel)
            || rules::R7_ENTRY_FNS
                .iter()
                .any(|(f, n)| *f == rel && *n == def.name)
    });
    let reach = ws.reach_from(&entries);
    for n in 0..ws.nodes.len() {
        if !reach.reachable(n) || rules::r1_covers(ws.rel(n)) {
            continue;
        }
        for (line, col, what) in panic_sites(ws.fn_toks(n)) {
            emit(
                ws,
                out,
                rules::TRANSITIVE_PANIC,
                n,
                &reach,
                line,
                col,
                format!(
                    "{what} can panic on the recovery path ({} call{} below entry `{}`)",
                    reach.dist[n],
                    if reach.dist[n] == 1 { "" } else { "s" },
                    entry_symbol(ws, &reach, n),
                ),
            );
        }
    }
}

/// R8: nondeterminism sources reachable from sim-visible code.
fn determinism_taint(ws: &Workspace, out: &mut Vec<Finding>) {
    let entries = ws.select(|rel, _| {
        rules::r2_covers(rel) || rel.starts_with("crates/core/src/")
    });
    let reach = ws.reach_from(&entries);
    for n in 0..ws.nodes.len() {
        if !reach.reachable(n) || rules::r2_covers(ws.rel(n)) {
            continue;
        }
        for (line, col, what) in taint_sites(ws.fn_toks(n)) {
            emit(
                ws,
                out,
                rules::DETERMINISM_TAINT,
                n,
                &reach,
                line,
                col,
                format!(
                    "{what} taints the deterministic simulation (reachable from `{}`)",
                    entry_symbol(ws, &reach, n),
                ),
            );
        }
    }
}

/// R9: float arithmetic reachable from the integer-only serializers.
fn float_in_deterministic_path(ws: &Workspace, out: &mut Vec<Finding>) {
    let entries = ws.select(|rel, def| {
        rel == "crates/sim/src/export.rs"
            || rules::R9_ENTRY_FNS.contains(&(rel, def.name.as_str()))
    });
    let reach = ws.reach_from(&entries);
    for n in 0..ws.nodes.len() {
        if !reach.reachable(n) {
            continue;
        }
        for (line, col, what) in float_sites(ws.fn_toks(n)) {
            emit(
                ws,
                out,
                rules::FLOAT_IN_DETERMINISTIC_PATH,
                n,
                &reach,
                line,
                col,
                format!(
                    "{what} feeds the byte-stable serializer `{}`; keep exports integer-only",
                    entry_symbol(ws, &reach, n),
                ),
            );
        }
    }
}

/// Symbol of the BFS entry that reaches node `n`.
fn entry_symbol(ws: &Workspace, reach: &Reach, n: usize) -> String {
    let chain = reach.chain(n);
    chain
        .first()
        .map(|&e| ws.fn_def(e).symbol.clone())
        .unwrap_or_default()
}

/// Pushes one graph-rule finding, honoring `lint:allow` on the site line.
#[allow(clippy::too_many_arguments)]
fn emit(
    ws: &Workspace,
    out: &mut Vec<Finding>,
    rule: &'static str,
    n: usize,
    reach: &Reach,
    line: u32,
    col: u32,
    message: String,
) {
    let file = &ws.files[ws.nodes[n].file];
    let idx = line as usize;
    if file
        .view
        .allows
        .get(idx)
        .is_some_and(|a| a.iter().any(|r| r == rule))
    {
        return;
    }
    let chain = reach
        .chain(n)
        .into_iter()
        .map(|h| ChainHop {
            file: ws.rel(h).to_string(),
            symbol: ws.fn_def(h).symbol.clone(),
        })
        .collect();
    out.push(Finding {
        rule,
        file: file.rel.clone(),
        line: idx + 1,
        col: col as usize + 1,
        snippet: file
            .view
            .raw_lines
            .get(idx)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
        symbol: ws.fn_def(n).symbol.clone(),
        chain,
        message,
    });
}

/// Panicking constructs in a token span — mirrors R1's per-line set:
/// `.unwrap()`, `.expect(`, `panic!`/`todo!`/`unimplemented!`, and
/// indexing by integer literal.
fn panic_sites(toks: &[Tok]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        match t.kind {
            TokKind::Ident => {
                let next = toks.get(k + 1);
                let prev = if k > 0 { toks.get(k - 1) } else { None };
                if matches!(t.text.as_str(), "unwrap" | "expect")
                    && prev.is_some_and(|p| p.is_punct(b'.'))
                    && next.is_some_and(|x| x.is_punct(b'('))
                {
                    out.push((t.line, t.col, format!("`.{}()`", t.text)));
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
                    && toks.get(k + 1).is_some_and(|x| x.kind == TokKind::Int)
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

/// Nondeterminism sources in a token span.
fn taint_sites(toks: &[Tok]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let path_next = |name: &str| {
            toks.get(k + 1).is_some_and(|x| x.kind == TokKind::PathSep)
                && toks.get(k + 2).is_some_and(|x| x.is_ident(name))
        };
        match t.text.as_str() {
            "Instant" | "SystemTime" if path_next("now") => {
                out.push((t.line, t.col, format!("`{}::now` (wall clock)", t.text)));
            }
            "thread_rng" if toks.get(k + 1).is_some_and(|x| x.is_punct(b'(')) => {
                out.push((t.line, t.col, "`thread_rng()` (OS-seeded RNG)".to_string()));
            }
            "HashMap" | "HashSet" => {
                out.push((
                    t.line,
                    t.col,
                    format!("`{}` (hash-seeded iteration order)", t.text),
                ));
            }
            "thread" if path_next("current") => {
                out.push((t.line, t.col, "`thread::current` (thread identity)".to_string()));
            }
            "env" => {
                let from_std = k > 1
                    && toks[k - 1].kind == TokKind::PathSep
                    && toks[k - 2].is_ident("std");
                let reads = ["var", "vars", "var_os"].iter().any(|m| path_next(m));
                if from_std || reads {
                    out.push((t.line, t.col, "`std::env` (environment read)".to_string()));
                }
            }
            _ => {}
        }
    }
    out
}

/// Float usage in a token span: literals and `f32`/`f64` types/casts.
fn float_sites(toks: &[Tok]) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    for t in toks {
        match t.kind {
            TokKind::Float => {
                out.push((t.line, t.col, format!("float literal `{}`", t.text)));
            }
            TokKind::Ident if t.text == "f32" || t.text == "f64" => {
                out.push((t.line, t.col, format!("`{}` type/cast", t.text)));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;

    fn scan(sources: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(
            sources
                .iter()
                .map(|(r, c)| (r.to_string(), c.to_string()))
                .collect(),
            &[],
        );
        scan_graph(&ws)
    }

    #[test]
    fn r7_reports_chain_two_calls_below_entry() {
        let f = scan(&[
            (
                "crates/gm/src/ftd.rs",
                "pub fn verify(x: Option<u8>) { helper_a(x); }\n",
            ),
            (
                "crates/core/src/util.rs",
                "pub fn helper_a(x: Option<u8>) { helper_b(x); }\n\
                 pub fn helper_b(x: Option<u8>) { x.unwrap(); }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, rules::TRANSITIVE_PANIC);
        assert_eq!(f[0].file, "crates/core/src/util.rs");
        assert_eq!(f[0].symbol, "helper_b");
        let syms: Vec<&str> = f[0].chain.iter().map(|h| h.symbol.as_str()).collect();
        assert_eq!(syms, vec!["verify", "helper_a", "helper_b"]);
        assert!(f[0].message.contains("2 calls below entry `verify`"));
    }

    #[test]
    fn r7_skips_r1_covered_files_and_unreachable_fns() {
        let f = scan(&[
            (
                "crates/gm/src/ftd.rs",
                // In R1 scope: the per-line rule owns this one.
                "pub fn verify(x: Option<u8>) { x.unwrap(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                // Not reachable from any entry: no finding.
                "pub fn island(x: Option<u8>) { x.unwrap(); }\n",
            ),
        ]);
        assert!(f.iter().all(|x| x.rule != rules::TRANSITIVE_PANIC), "{f:#?}");
    }

    #[test]
    fn r7_honors_inline_allow_on_the_site_line() {
        let f = scan(&[
            ("crates/gm/src/ftd.rs", "pub fn verify() { helper(); }\n"),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {\n\
                 \x20   // boot-time only, before any traffic: lint:allow(transitive-panic)\n\
                 \x20   panic!(\"boom\");\n\
                 }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn r7_chaos_entry_is_apply_action_only() {
        let f = scan(&[
            (
                "crates/faults/src/chaos.rs",
                "pub fn apply_action() { helper(); }\n\
                 pub fn run_scenario() { other(); }\n",
            ),
            (
                "crates/faults/src/util.rs",
                "pub fn helper(x: Option<u8>) { x.unwrap(); }\n\
                 pub fn other(x: Option<u8>) { x.unwrap(); }\n",
            ),
        ]);
        // chaos.rs is in R1 scope so only the transitive helper fires —
        // and only via apply_action, not via the scenario runner.
        let r7: Vec<&Finding> = f.iter().filter(|x| x.rule == rules::TRANSITIVE_PANIC).collect();
        assert_eq!(r7.len(), 1, "{f:#?}");
        assert_eq!(r7[0].symbol, "helper");
    }

    #[test]
    fn r8_taints_across_the_r2_boundary() {
        let f = scan(&[
            (
                "crates/gm/src/world.rs",
                "pub fn sync_node(d: &mut Driver) { d.map_page(0); }\n",
            ),
            (
                "crates/host/src/pages.rs",
                "pub struct Driver;\n\
                 impl Driver {\n\
                     pub fn map_page(&mut self, n: u64) {\n\
                         let mut m: HashMap<u64, u64> = HashMap::new();\n\
                         m.insert(n, n);\n\
                     }\n\
                 }\n",
            ),
        ]);
        let r8: Vec<&Finding> = f.iter().filter(|x| x.rule == rules::DETERMINISM_TAINT).collect();
        assert_eq!(r8.len(), 2, "two HashMap mentions: {f:#?}");
        assert_eq!(r8[0].file, "crates/host/src/pages.rs");
        assert_eq!(r8[0].symbol, "Driver::map_page");
        let syms: Vec<&str> = r8[0].chain.iter().map(|h| h.symbol.as_str()).collect();
        assert_eq!(syms, vec!["sync_node", "Driver::map_page"]);
    }

    #[test]
    fn r8_catches_wall_clock_and_env_but_not_type_mentions() {
        let f = scan(&[
            ("crates/sim/src/sched.rs", "pub fn run() { host_now(); }\n"),
            (
                "crates/host/src/clock.rs",
                "pub fn host_now(t: Instant) -> u64 {\n\
                 \x20   let _ = Instant::now();\n\
                 \x20   let _ = std::env::var(\"SEED\");\n\
                 \x20   0\n\
                 }\n",
            ),
        ]);
        let r8: Vec<&Finding> = f.iter().filter(|x| x.rule == rules::DETERMINISM_TAINT).collect();
        assert_eq!(r8.len(), 2, "{f:#?}");
        assert!(r8[0].message.contains("wall clock"));
        assert!(r8[1].message.contains("environment read"));
    }

    #[test]
    fn r9_flags_floats_reachable_from_serializers() {
        let f = scan(&[
            (
                "crates/bench/src/mpi.rs",
                "pub fn summary_json(m: &M) -> String { fold(m); String::new() }\n\
                 fn fold(m: &M) -> u64 { (m.total as f64 * 0.5) as u64 }\n\
                 fn unrelated() -> f64 { 1.5 }\n",
            ),
        ]);
        let r9: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == rules::FLOAT_IN_DETERMINISTIC_PATH)
            .collect();
        assert_eq!(r9.len(), 2, "f64 cast + 0.5 literal in fold only: {f:#?}");
        assert!(r9.iter().all(|x| x.symbol == "fold"));
        assert!(r9[0].message.contains("summary_json"));
    }
}
