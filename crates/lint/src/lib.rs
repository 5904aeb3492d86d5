//! `ftgm-lint` — workspace-wide invariant checker for recovery-safety
//! and simulation determinism.
//!
//! The FTGM reproduction's value rests on two properties the type system
//! cannot express:
//!
//! 1. **the recovery path itself never fails** (DSN 2003's whole premise
//!    — a panic in the `FAULT_DETECTED` handler or the FTD turns a
//!    recoverable hang into a process crash), and
//! 2. **fault campaigns are deterministic** (identical seeds must replay
//!    identical runs, or Table 1 stops being reproducible).
//!
//! Clippy and the compiler state what they can: the nondeterminism
//! sources are banned in every crate by the root `clippy.toml`; the
//! panicking calls and indexing of the recovery path, float arithmetic
//! where a serializer can reach it, and the wire-format and
//! exhaustive-match invariants are `#![deny(...)]` lints at the top of
//! the modules and crates they govern (the `clippy` step of `ci.sh`);
//! the sequence-number fields are private to their accessor modules.
//! This crate keeps the one rule no clippy lint says, R7: a panicking
//! construct in any function reachable from a recovery entry point,
//! found by a hand-rolled token scanner and call graph (no external
//! dependencies, no `syn`) over the workspace sources.
//! See `docs/STATIC_ANALYSIS.md` for the rule, and the `ftgm-lint`
//! binary for the CLI. The one suppression is an inline
//! `// lint:allow(transitive-panic)` on (or immediately above) the
//! offending line.

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod passes;
pub mod rules;
pub mod strip;

use std::path::{Path, PathBuf};

use ftgm_sim::json;

/// One hop of a call-chain diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainHop {
    /// Repo-relative path of the hop's defining file.
    pub file: String,
    /// The hop's function symbol (`apply_phase`, `ftd_main`, …).
    pub symbol: String,
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::ALL_RULES`]).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte offset into the line).
    pub col: usize,
    /// The offending line, trimmed.
    pub snippet: String,
    /// Enclosing symbol: the `fn` owning the line.
    pub symbol: String,
    /// The shortest call chain from a recovery entry point to the
    /// function containing the violation (inclusive of both ends; one
    /// hop when the entry itself panics).
    pub chain: Vec<ChainHop>,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `file:line:col: rule: message` — the human-readable form, with
    /// the call chain (when present) on a `via` line.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}:{}: {}: [{}] {}\n    {}",
            self.file, self.line, self.col, self.rule, self.symbol, self.message, self.snippet
        );
        if self.chain.len() > 1 {
            let hops: Vec<&str> = self.chain.iter().map(|h| h.symbol.as_str()).collect();
            s.push_str(&format!("\n    via {}", hops.join(" \u{2192} ")));
        }
        s
    }
}

/// The machine-readable report (stdout `--json` and `--report FILE`),
/// written by [`ftgm_sim::json`]. Deterministic and integer-only:
/// findings arrive sorted from the scan, and every numeric field is a
/// count or a 1-based source position.
pub fn report_json(findings: &[Finding]) -> String {
    json::document(|o| {
        o.field("schema", "ftgm-lint-v2");
        o.field("rules", json::inline_array(|a| {
            for r in rules::ALL_RULES {
                a.item(r);
            }
        }));
        o.field("count", findings.len());
        o.field("findings", json::rows(|a| {
            for f in findings {
                a.item(json::inline_object(|row| {
                    row.field("rule", f.rule).field("file", &f.file);
                    row.field("line", f.line).field("col", f.col);
                    row.field("symbol", &f.symbol).field("snippet", &f.snippet);
                    row.field("chain", json::inline_array(|chain| {
                        for h in &f.chain {
                            chain.item(json::inline_object(|hop| {
                                hop.field("file", &h.file).field("symbol", &h.symbol);
                            }));
                        }
                    }));
                    row.field("message", &f.message);
                }));
            }
        }));
    })
}

/// Scans one file's content as if it lived at `rel` (forward-slash,
/// repo-relative): a one-file workspace, so R7 sees only the file's own
/// entries. The fixture tests drive this directly.
pub fn scan_file_content(rel: &str, content: &str) -> Vec<Finding> {
    let ws = graph::Workspace::from_sources(
        vec![(rel.to_string(), content.to_string())],
        &[],
    );
    scan_ws(&ws)
}

/// Runs R7 over a parsed workspace. Findings are sorted by (file, line,
/// col, rule) so output is stable.
pub fn scan_ws(ws: &graph::Workspace) -> Vec<Finding> {
    let mut findings = passes::scan_graph(ws);
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    findings
}

/// Walks `root/crates/*/src`, parses every `.rs` file plus the crate
/// manifests, and scans the resulting workspace.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(scan_ws(&load_workspace(root)?))
}

/// Builds the parsed [`graph::Workspace`] for a checkout.
pub fn load_workspace(root: &Path) -> Result<graph::Workspace, String> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    let crates_dir = root.join("crates");
    let crate_entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = crate_entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let manifest = dir.join("Cargo.toml");
        if let (Some(name), Ok(text)) = (
            dir.file_name().map(|n| n.to_string_lossy().into_owned()),
            std::fs::read_to_string(&manifest),
        ) {
            manifests.push((name, text));
        }
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut |path| {
                let rel = rel_path(root, path);
                let content = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                sources.push((rel, content));
                Ok(())
            })?;
        }
    }
    Ok(graph::Workspace::from_sources(sources, &manifests))
}

fn walk_rs(
    dir: &Path,
    visit: &mut dyn FnMut(&Path) -> Result<(), String>,
) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path)?;
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The workspace root: `$CARGO_MANIFEST_DIR/../..` when built in-tree,
/// else the current directory.
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_file_content_applies_rules_by_path() {
        let bad = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        assert_eq!(scan_file_content("crates/gm/src/recovery.rs", bad).len(), 1);
        assert!(scan_file_content("crates/host/src/driver.rs", bad).is_empty());
    }

    #[test]
    fn findings_render_stable_json() {
        let f = Finding {
            rule: "transitive-panic",
            file: "crates/sim/src/x.rs".to_string(),
            line: 3,
            col: 7,
            snippet: "x.unwrap();".to_string(),
            symbol: "Sched::push".to_string(),
            chain: vec![
                ChainHop {
                    file: "crates/sim/src/sched.rs".to_string(),
                    symbol: "run".to_string(),
                },
                ChainHop {
                    file: "crates/sim/src/x.rs".to_string(),
                    symbol: "Sched::push".to_string(),
                },
            ],
            message: "msg with \"quotes\"".to_string(),
        };
        let row = "{\"rule\": \"transitive-panic\", \"file\": \"crates/sim/src/x.rs\", \
                   \"line\": 3, \"col\": 7, \"symbol\": \"Sched::push\", \
                   \"snippet\": \"x.unwrap();\", \
                   \"chain\": [{\"file\": \"crates/sim/src/sched.rs\", \"symbol\": \"run\"}, \
                   {\"file\": \"crates/sim/src/x.rs\", \"symbol\": \"Sched::push\"}], \
                   \"message\": \"msg with \\\"quotes\\\"\"}";
        let rules = rules::ALL_RULES.map(|r| format!("\"{r}\"")).join(", ");
        let doc = |count: usize, rows: &str| {
            format!(
                "{{\n  \"schema\": \"ftgm-lint-v2\",\n  \"rules\": [{rules}],\n  \
                 \"count\": {count},\n  \"findings\": [\n{rows}  ]\n}}\n"
            )
        };
        assert_eq!(report_json(std::slice::from_ref(&f)), doc(1, &format!("    {row}\n")));
        assert_eq!(report_json(&[]), doc(0, ""));
        assert!(f.render().contains("via run \u{2192} Sched::push"));
    }

    #[test]
    fn default_root_is_the_workspace() {
        assert!(default_root().join("Cargo.toml").exists());
    }
}
