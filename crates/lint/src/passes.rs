//! The call-graph pass: R7 (transitive panic-reachability).
//!
//! It picks the entry nodes (every function of a recovery entry file,
//! plus the named entry fns), BFS-es the call graph
//! ([`Workspace::reach_from`]), then scans every reachable function's
//! tokens for panicking constructs, the entries' own tokens included. A
//! finding names the site's enclosing symbol and carries the shortest call
//! chain from an entry to it — `ftd::verify → helper_a → helper_b:
//! panic!` — so the report answers "why is this line recovery-critical?"
//! instead of just "where is the panic?".

use crate::graph::{Reach, Workspace};
use crate::{rules, ChainHop, Finding};

/// Runs R7 over a parsed workspace: panicking constructs reachable from
/// the recovery entry points.
pub fn scan_graph(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let entries = ws.select(|rel, def| {
        rules::R7_ENTRY_FILES.contains(&rel)
            || rules::R7_ENTRY_FNS
                .iter()
                .any(|(f, n)| *f == rel && *n == def.name)
    });
    let reach = ws.reach_from(&entries);
    for n in 0..ws.nodes.len() {
        if !reach.reachable(n) {
            continue;
        }
        for (line, col, what) in rules::panic_sites(ws.fn_toks(n)) {
            let message = match reach.dist[n] {
                0 => format!("{what} can panic in the recovery entry point"),
                d => format!(
                    "{what} can panic on the recovery path ({d} call{} below entry `{}`)",
                    if d == 1 { "" } else { "s" },
                    entry_symbol(ws, &reach, n),
                ),
            };
            emit(ws, &mut out, n, &reach, line, col, message);
        }
    }
    out
}

/// Symbol of the BFS entry that reaches node `n`.
fn entry_symbol(ws: &Workspace, reach: &Reach, n: usize) -> String {
    let chain = reach.chain(n);
    chain
        .first()
        .map(|&e| ws.fn_def(e).symbol.clone())
        .unwrap_or_default()
}

/// Pushes one finding, honoring `lint:allow` on the site line.
fn emit(
    ws: &Workspace,
    out: &mut Vec<Finding>,
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
        .is_some_and(|a| a.iter().any(|r| r == rules::TRANSITIVE_PANIC))
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
        rule: rules::TRANSITIVE_PANIC,
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
    fn r7_reports_a_panic_inside_an_entry_file_and_skips_unreachable_fns() {
        let f = scan(&[
            (
                "crates/gm/src/ftd.rs",
                "pub fn verify(x: Option<u8>) { x.unwrap(); }\n",
            ),
            (
                "crates/core/src/util.rs",
                // Not reachable from any entry: no finding.
                "pub fn island(x: Option<u8>) { x.unwrap(); }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!((f[0].file.as_str(), f[0].symbol.as_str()), ("crates/gm/src/ftd.rs", "verify"));
        let syms: Vec<&str> = f[0].chain.iter().map(|h| h.symbol.as_str()).collect();
        assert_eq!(syms, vec!["verify"], "the entry is its own one-hop chain");
        assert!(f[0].message.contains("in the recovery entry point"), "{}", f[0].message);
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
        // Only the helper apply_action reaches fires, not the one the
        // scenario runner calls.
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].symbol, "helper");
    }
}
