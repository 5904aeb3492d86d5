//! Workspace call graph and reachability.
//!
//! Built from the parsed files ([`crate::parse`]): one node per `fn`,
//! one edge per call site the resolver can attribute to a workspace
//! function. Resolution is name-based (no type inference), kept honest
//! by three filters:
//!
//! - **tiering** — a call resolves to same-file candidates if any exist,
//!   else same-crate, else dependency-closure crates. A helper shadowing
//!   a distant name never produces the distant edge.
//! - **dependency closure** — `crates/*/Cargo.toml` `[dependencies]`
//!   sections bound which crates a call can even reach; `ftgm-mcp` code
//!   cannot grow an edge into `ftgm-bench`. Trees without manifests
//!   (test fixtures) resolve across all files.
//! - **kind/qualifier matching** — `.m(...)` only resolves to `impl`
//!   methods, `free(...)` only to free functions, `Q::m(...)` only to
//!   candidates whose impl type, module file stem, or crate import name
//!   matches `Q`.
//!
//! Unresolvable calls (std/macro names, trait objects, fn pointers)
//! produce no edge. That under-approximation is the right direction for
//! every graph rule here: closures the world schedules (`Event::Call`)
//! form the inversion boundary, and calls *through* them are the
//! scheduler's, not the recovery path's. The FTD's steps are typed
//! events, so its recovery chain is direct calls the graph follows.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{lex, Tok};
use crate::parse::{parse, Call, CallKind, FnDef, ParsedFile};
use crate::strip::FileView;

/// One parsed source file.
pub struct WsFile {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    pub view: FileView,
    pub toks: Vec<Tok>,
    pub parsed: ParsedFile,
}

impl WsFile {
    /// Strips, lexes and parses `content` as the file at `rel`.
    pub fn new(rel: String, content: &str) -> WsFile {
        let view = FileView::new(content);
        let toks = lex(&view);
        let parsed = parse(&toks, view.test_start);
        WsFile { rel, view, toks, parsed }
    }
}

/// One graph node = one `fn` definition.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `parsed.fns`.
    pub fn_idx: usize,
}

/// The parsed workspace with its call graph.
pub struct Workspace {
    pub files: Vec<WsFile>,
    pub nodes: Vec<Node>,
    /// Sorted, deduplicated adjacency (caller → callees).
    pub out: Vec<Vec<usize>>,
}

/// BFS result over the graph from a set of entry nodes.
pub struct Reach {
    /// Hops from the nearest entry; `u32::MAX` = unreachable.
    pub dist: Vec<u32>,
    /// BFS tree parent; `usize::MAX` for entries and unreachable nodes.
    pub parent: Vec<usize>,
}

impl Reach {
    pub fn reachable(&self, n: usize) -> bool {
        self.dist.get(n).is_some_and(|&d| d != u32::MAX)
    }

    /// Nodes on the shortest chain entry → … → `n`, inclusive.
    pub fn chain(&self, n: usize) -> Vec<usize> {
        let mut out = Vec::new();
        if !self.reachable(n) {
            return out;
        }
        let mut cur = n;
        out.push(cur);
        while self.parent[cur] != usize::MAX && out.len() <= self.dist.len() {
            cur = self.parent[cur];
            out.push(cur);
        }
        out.reverse();
        out
    }
}

/// Crate dir for a repo-relative path: `crates/mcp/src/x.rs` → `mcp`.
pub fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// File stem: `crates/gm/src/ftd.rs` → `ftd`.
fn stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(rel)
}

impl Workspace {
    /// Builds the graph from `(rel_path, content)` pairs plus
    /// `(crate_dir, Cargo.toml content)` manifests. An empty manifest
    /// list disables dependency-closure filtering (fixture trees).
    pub fn from_sources(
        sources: Vec<(String, String)>,
        manifests: &[(String, String)],
    ) -> Workspace {
        let mut files: Vec<WsFile> = sources
            .into_iter()
            .map(|(rel, content)| WsFile::new(rel, &content))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));

        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for j in 0..f.parsed.fns.len() {
                nodes.push(Node { file: fi, fn_idx: j });
            }
        }

        let (deps, imports) = dep_closure(manifests);

        // Candidate index: fn name → node ids, non-test fns only.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (n, node) in nodes.iter().enumerate() {
            let def = &files[node.file].parsed.fns[node.fn_idx];
            if !def.in_test {
                by_name.entry(&def.name).or_default().push(n);
            }
        }

        let mut out: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (n, node) in nodes.iter().enumerate() {
            let def = &files[node.file].parsed.fns[node.fn_idx];
            if def.in_test {
                continue;
            }
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            for call in &def.calls {
                targets.extend(resolve(
                    &files, &nodes, &by_name, &deps, &imports, *node, def, call,
                ));
            }
            out[n] = targets.into_iter().collect();
        }

        Workspace { files, nodes, out }
    }

    pub fn fn_def(&self, n: usize) -> &FnDef {
        let node = &self.nodes[n];
        &self.files[node.file].parsed.fns[node.fn_idx]
    }

    /// Repo-relative path of the file defining node `n`.
    pub fn rel(&self, n: usize) -> &str {
        &self.files[self.nodes[n].file].rel
    }

    /// Tokens inside node `n`'s span (signature + body).
    pub fn fn_toks(&self, n: usize) -> &[Tok] {
        let node = &self.nodes[n];
        let def = &self.files[node.file].parsed.fns[node.fn_idx];
        let toks = &self.files[node.file].toks;
        let hi = def.tok_end.min(toks.len());
        let lo = def.tok_start.min(hi);
        &toks[lo..hi]
    }

    /// Node ids whose file/definition satisfy `pred`, in node order.
    pub fn select(&self, pred: impl Fn(&str, &FnDef) -> bool) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| {
                let def = self.fn_def(n);
                !def.in_test && pred(self.rel(n), def)
            })
            .collect()
    }

    /// BFS from `entries`. Deterministic: entries are sorted and the
    /// adjacency lists are sorted, so parents (and hence chains) are
    /// stable across runs.
    pub fn reach_from(&self, entries: &[usize]) -> Reach {
        let mut dist = vec![u32::MAX; self.nodes.len()];
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut q: VecDeque<usize> = VecDeque::new();
        let mut sorted: Vec<usize> = entries.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &e in &sorted {
            if e < dist.len() && dist[e] == u32::MAX {
                dist[e] = 0;
                q.push_back(e);
            }
        }
        while let Some(n) = q.pop_front() {
            for &m in &self.out[n] {
                if dist[m] == u32::MAX {
                    dist[m] = dist[n].saturating_add(1);
                    parent[m] = n;
                    q.push_back(m);
                }
            }
        }
        Reach { dist, parent }
    }
}

/// Parses the `[package] name` and `[dependencies]` keys out of a
/// Cargo.toml, TOML-lite (line-oriented; enough for this workspace's
/// manifests). `[dev-dependencies]` are deliberately excluded: test-only
/// shims (proptest) would otherwise donate call edges into
/// production reachability.
pub fn manifest_info(text: &str) -> (Option<String>, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line
            .split(['=', '.'])
            .next()
            .map(str::trim)
            .unwrap_or("")
            .trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if section == "package" && key == "name" {
            if let Some(v) = line.split('=').nth(1) {
                name = Some(v.trim().trim_matches('"').to_string());
            }
        } else if section == "dependencies" {
            deps.push(key.to_string());
        }
    }
    (name, deps)
}

/// Per-crate-dir transitive dependency closure plus the import-name map.
fn dep_closure(
    manifests: &[(String, String)],
) -> (
    Option<BTreeMap<String, BTreeSet<String>>>,
    BTreeMap<String, String>,
) {
    if manifests.is_empty() {
        return (None, BTreeMap::new());
    }
    // package name → dir, and per-dir direct dep package names.
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (dir, text) in manifests {
        let (name, deps) = manifest_info(text);
        if let Some(name) = name {
            pkg_to_dir.insert(name, dir.clone());
        }
        direct.insert(dir.clone(), deps);
    }
    let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for dir in direct.keys() {
        let mut set = BTreeSet::new();
        set.insert(dir.clone());
        closure.insert(dir.clone(), set);
    }
    // Fixpoint over the (tiny) crate graph.
    loop {
        let mut changed = false;
        for (dir, deps) in &direct {
            let mut add = BTreeSet::new();
            for dep in deps {
                if let Some(dep_dir) = pkg_to_dir.get(dep) {
                    if let Some(dep_closure) = closure.get(dep_dir) {
                        add.extend(dep_closure.iter().cloned());
                    }
                }
            }
            let set = closure.entry(dir.clone()).or_default();
            for d in add {
                changed |= set.insert(d);
            }
        }
        if !changed {
            break;
        }
    }
    let imports = pkg_to_dir
        .iter()
        .map(|(pkg, dir)| (pkg.replace('-', "_"), dir.clone()))
        .collect();
    (Some(closure), imports)
}

fn allowed(
    deps: &Option<BTreeMap<String, BTreeSet<String>>>,
    caller: Option<&str>,
    target: Option<&str>,
) -> bool {
    let Some(closure) = deps else { return true };
    match (caller, target) {
        (Some(c), Some(t)) => closure.get(c).is_some_and(|s| s.contains(t)),
        // Files outside crates/*/ only resolve within their own file
        // (tier 1 never consults this check).
        _ => false,
    }
}

/// Resolves one call site to candidate node ids. Returns an empty vec
/// for anything ambiguous at the naming level (no qualifier match, no
/// workspace fn of that name).
#[allow(clippy::too_many_arguments)]
fn resolve(
    files: &[WsFile],
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: &Option<BTreeMap<String, BTreeSet<String>>>,
    imports: &BTreeMap<String, String>,
    caller: Node,
    caller_def: &FnDef,
    call: &Call,
) -> Vec<usize> {
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let caller_rel = &files[caller.file].rel;
    let caller_crate = crate_of(caller_rel);

    // Kind/qualifier filter.
    let mut same_crate_only = false;
    let filtered: Vec<usize> = match call.kind {
        CallKind::Direct => cands
            .iter()
            .copied()
            .filter(|&n| def_of(files, nodes, n).impl_type.is_none())
            .collect(),
        CallKind::Method => cands
            .iter()
            .copied()
            .filter(|&n| def_of(files, nodes, n).impl_type.is_some())
            .collect(),
        CallKind::Qualified => {
            let Some(q) = call.qualifier.as_deref() else {
                return Vec::new();
            };
            match q {
                "crate" | "self" | "super" => {
                    same_crate_only = true;
                    cands
                        .iter()
                        .copied()
                        .filter(|&n| def_of(files, nodes, n).impl_type.is_none())
                        .collect()
                }
                "Self" => {
                    same_crate_only = true;
                    let Some(it) = caller_def.impl_type.as_deref() else {
                        return Vec::new();
                    };
                    cands
                        .iter()
                        .copied()
                        .filter(|&n| {
                            def_of(files, nodes, n).impl_type.as_deref() == Some(it)
                        })
                        .collect()
                }
                _ => cands
                    .iter()
                    .copied()
                    .filter(|&n| {
                        let def = def_of(files, nodes, n);
                        let rel = &files[nodes[n].file].rel;
                        def.impl_type.as_deref() == Some(q)
                            || stem(rel) == q
                            || imports.get(q).map(String::as_str) == crate_of(rel)
                    })
                    .collect(),
            }
        }
    };

    // Tiering: same file beats same crate beats dependency closure.
    let same_file: Vec<usize> = filtered
        .iter()
        .copied()
        .filter(|&n| nodes[n].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = filtered
        .iter()
        .copied()
        .filter(|&n| {
            caller_crate.is_some() && crate_of(&files[nodes[n].file].rel) == caller_crate
        })
        .collect();
    if !same_crate.is_empty() || same_crate_only {
        return same_crate;
    }
    filtered
        .into_iter()
        .filter(|&n| allowed(deps, caller_crate, crate_of(&files[nodes[n].file].rel)))
        .collect()
}

fn def_of<'a>(files: &'a [WsFile], nodes: &[Node], n: usize) -> &'a FnDef {
    let node = &nodes[n];
    &files[node.file].parsed.fns[node.fn_idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, &str)], manifests: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            sources
                .iter()
                .map(|(r, c)| (r.to_string(), c.to_string()))
                .collect(),
            &manifests
                .iter()
                .map(|(d, c)| (d.to_string(), c.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    fn node_by_symbol(w: &Workspace, sym: &str) -> usize {
        (0..w.nodes.len())
            .find(|&n| w.fn_def(n).symbol == sym)
            .unwrap_or_else(|| panic!("no node {sym}"))
    }

    const MANIFEST_A: &str = "[package]\nname = \"ftgm-a\"\n[dependencies]\nftgm-b = { path = \"../b\" }\n";
    const MANIFEST_B: &str = "[package]\nname = \"ftgm-b\"\n";

    #[test]
    fn manifest_info_extracts_name_and_deps() {
        let (name, deps) = manifest_info(
            "[package]\nname = \"ftgm-core\"\nversion = \"0.1.0\"\n\n\
             [dependencies]\nftgm-sim = { path = \"../sim\" }\nftgm-mcp.workspace = true\n\
             [dev-dependencies]\nproptest = { path = \"../proptest\" }\n",
        );
        assert_eq!(name.as_deref(), Some("ftgm-core"));
        // dev-dependencies are test-only; they must not appear.
        assert_eq!(deps, vec!["ftgm-sim", "ftgm-mcp"]);
    }

    #[test]
    fn direct_call_resolves_same_file_first() {
        let w = ws(
            &[
                ("crates/a/src/lib.rs", "fn entry() { helper(); }\nfn helper() {}\n"),
                ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
            ],
            &[("a", MANIFEST_A), ("b", MANIFEST_B)],
        );
        let entry = node_by_symbol(&w, "entry");
        let local = node_by_symbol(&w, "helper"); // first in node order = a's
        assert_eq!(w.out[entry], vec![local]);
        assert_eq!(w.rel(local), "crates/a/src/lib.rs");
    }

    #[test]
    fn cross_crate_resolution_respects_dependency_closure() {
        let sources = [
            ("crates/a/src/lib.rs", "fn entry() { helper(); }\n"),
            ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
        ];
        // a depends on b: edge exists.
        let w = ws(&sources, &[("a", MANIFEST_A), ("b", MANIFEST_B)]);
        let entry = node_by_symbol(&w, "entry");
        assert_eq!(w.out[entry].len(), 1);
        // b does not depend on a: reversed call grows no edge.
        let rev = [
            ("crates/a/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/b/src/lib.rs", "fn entry() { helper(); }\n"),
        ];
        let w = ws(&rev, &[("a", MANIFEST_A), ("b", MANIFEST_B)]);
        let entry = node_by_symbol(&w, "entry");
        assert!(w.out[entry].is_empty(), "b cannot call into a");
        // No manifests at all: fixture mode, resolution is open.
        let w = ws(&rev, &[]);
        let entry = node_by_symbol(&w, "entry");
        assert_eq!(w.out[entry].len(), 1);
    }

    #[test]
    fn method_calls_resolve_to_impl_methods_only() {
        let w = ws(
            &[(
                "crates/a/src/lib.rs",
                "struct S;\n\
                 impl S { fn go(&self) {} }\n\
                 fn go() {}\n\
                 fn caller(s: &S) { s.go(); }\n",
            )],
            &[],
        );
        let caller = node_by_symbol(&w, "caller");
        let method = node_by_symbol(&w, "S::go");
        assert_eq!(w.out[caller], vec![method]);
    }

    #[test]
    fn qualified_calls_match_impl_type_module_stem_or_import() {
        let w = ws(
            &[
                (
                    "crates/a/src/lib.rs",
                    "fn f1(s: S) { S::mk(); }\n\
                     fn f2() { ftd::probe(); }\n\
                     fn f3() { ftgm_b::helper(); }\n\
                     struct S;\n\
                     impl S { fn mk() {} }\n",
                ),
                ("crates/a/src/ftd.rs", "pub fn probe() {}\n"),
                ("crates/b/src/lib.rs", "pub fn helper() {}\n"),
            ],
            &[("a", MANIFEST_A), ("b", MANIFEST_B)],
        );
        assert_eq!(w.out[node_by_symbol(&w, "f1")], vec![node_by_symbol(&w, "S::mk")]);
        assert_eq!(w.out[node_by_symbol(&w, "f2")], vec![node_by_symbol(&w, "probe")]);
        assert_eq!(w.out[node_by_symbol(&w, "f3")], vec![node_by_symbol(&w, "helper")]);
    }

    #[test]
    fn self_calls_resolve_within_the_impl_type() {
        let w = ws(
            &[(
                "crates/a/src/lib.rs",
                "struct S;\n\
                 impl S { fn a(&self) { Self::b(); } fn b() {} }\n\
                 struct T;\n\
                 impl T { fn b() {} }\n",
            )],
            &[],
        );
        let a = node_by_symbol(&w, "S::a");
        assert_eq!(w.out[a], vec![node_by_symbol(&w, "S::b")]);
    }

    #[test]
    fn test_fns_neither_call_nor_get_called() {
        let w = ws(
            &[(
                "crates/a/src/lib.rs",
                "fn prod() {}\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                     fn t() { prod(); }\n\
                 }\n",
            )],
            &[],
        );
        let t = node_by_symbol(&w, "tests::t");
        assert!(w.out[t].is_empty(), "test fns grow no edges");
    }

    #[test]
    fn bfs_finds_shortest_chain() {
        let w = ws(
            &[(
                "crates/a/src/lib.rs",
                "fn entry() { mid(); deep(); }\n\
                 fn mid() { deep(); }\n\
                 fn deep() {}\n\
                 fn island() {}\n",
            )],
            &[],
        );
        let entry = node_by_symbol(&w, "entry");
        let deep = node_by_symbol(&w, "deep");
        let island = node_by_symbol(&w, "island");
        let r = w.reach_from(&[entry]);
        assert_eq!(r.dist[deep], 1, "direct edge beats the 2-hop path");
        assert_eq!(
            r.chain(deep)
                .iter()
                .map(|&n| w.fn_def(n).symbol.as_str())
                .collect::<Vec<_>>(),
            vec!["entry", "deep"]
        );
        assert!(!r.reachable(island));
        assert!(r.chain(island).is_empty());
    }

    #[test]
    fn fn_toks_cover_exactly_the_span() {
        let w = ws(
            &[(
                "crates/a/src/lib.rs",
                "fn a() {\n    let x = 1;\n}\nfn b() { let y = 2.5; }\n",
            )],
            &[],
        );
        let a = node_by_symbol(&w, "a");
        let texts: Vec<&str> = w.fn_toks(a).iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"x") && !texts.contains(&"y"));
    }
}
