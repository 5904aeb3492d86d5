//! Call-graph passes: R7 (transitive panic-reachability) and R9
//! (float-in-deterministic-path).
//!
//! Each pass is the same shape: pick entry nodes (the functions where an
//! invariant *starts*), BFS the call graph ([`Workspace::reach_from`]),
//! then scan every reachable function's tokens for the sites the
//! invariant forbids. A finding names the site's enclosing symbol and
//! carries the shortest call chain from an entry to it — `ftd::verify →
//! helper_a → helper_b: panic!` — so the report answers "why is this
//! line recovery-critical?" instead of just "where is the panic?".
//!
//! R7 skips sites inside R1's files: R1 reports them with no chain
//! needed, and the graph pass only adds the *transitive* surface the
//! per-file scope misses.

use crate::graph::{Reach, Workspace};
use crate::lexer::{Tok, TokKind};
use crate::{rules, ChainHop, Finding};

/// Runs all graph passes over a parsed workspace.
pub fn scan_graph(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    transitive_panic(ws, &mut out);
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
        for (line, col, what) in rules::panic_sites(ws.fn_toks(n)) {
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
