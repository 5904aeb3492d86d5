//! Lightweight item parser: `fn` definitions, their module/impl context,
//! and the call sites inside each body.
//!
//! This is deliberately *not* a Rust parser. It recovers exactly the
//! structure the call-graph rules need — which function owns which
//! lines, and which names each function calls — from the token stream,
//! using brace matching and a small context stack. Everything it cannot
//! classify (trait objects, closures passed as values, turbofish calls)
//! degrades to "no edge", never to a parse failure: on arbitrary input
//! the parser produces *some* item list and never panics (pinned by
//! `tests/fuzz_parser.rs`).

use crate::lexer::{Tok, TokKind};

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(x)` — unqualified.
    Direct,
    /// `recv.helper(x)` — method syntax.
    Method,
    /// `Type::helper(x)` / `module::helper(x)` — path syntax. The
    /// qualifier is the path segment immediately before the callee.
    Qualified,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    pub name: String,
    pub kind: CallKind,
    /// For [`CallKind::Qualified`]: the segment before the name
    /// (`Instant` in `Instant::now`, `ftd` in `ftd::run_ftd_probe`).
    pub qualifier: Option<String>,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The bare function name.
    pub name: String,
    /// Display symbol: `Type::name` inside an `impl`/`trait` block,
    /// `mod::name` inside an inline module, plain `name` at top level.
    pub symbol: String,
    /// Type the enclosing `impl`/`trait` block names, if any.
    pub impl_type: Option<String>,
    /// Token index of the `fn` keyword in the file's token stream.
    pub tok_start: usize,
    /// One past the token index of the body's closing brace (or the
    /// terminating `;`).
    pub tok_end: usize,
    /// Calls made in the body (excluding nested `fn` bodies).
    pub calls: Vec<Call>,
    /// The item sits at or after the file's `#[cfg(test)]` boundary.
    pub in_test: bool,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
}

/// Words that look like calls but are control flow or bindings.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else" | "match" | "while" | "for" | "loop" | "return" | "break" | "continue"
            | "let" | "mut" | "ref" | "move" | "fn" | "impl" | "trait" | "struct" | "enum"
            | "union" | "mod" | "use" | "pub" | "crate" | "super" | "self" | "Self" | "where"
            | "as" | "in" | "dyn" | "static" | "const" | "type" | "unsafe" | "extern" | "async"
            | "await" | "box"
    )
}

#[derive(Clone, Copy, PartialEq)]
enum CtxKind {
    Mod,
    Impl,
    Fn,
}

struct Ctx {
    kind: CtxKind,
    name: String,
    /// Brace depth *before* this context's opening `{`.
    depth: usize,
    /// Index into `fns` for `CtxKind::Fn` (to set `tok_end` on close).
    fn_idx: usize,
}

/// Parses one file's token stream. `test_start` is the 0-based line of
/// the file's `#[cfg(test)]` boundary, if any.
pub fn parse(toks: &[Tok], test_start: Option<usize>) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut ctx: Vec<Ctx> = Vec::new();
    let mut depth = 0usize;
    let test_line = test_start.map(|l| l as u32);

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                while ctx.last().is_some_and(|c| c.depth >= depth) {
                    if let Some(c) = ctx.pop().filter(|c| c.kind == CtxKind::Fn) {
                        out.fns[c.fn_idx].tok_end = i + 1;
                    }
                }
                i += 1;
            }
            TokKind::Ident => {
                let in_test = test_line.is_some_and(|tl| t.line >= tl);
                match t.text.as_str() {
                    "mod" => i = open_named(toks, i, &mut ctx, depth, CtxKind::Mod),
                    "trait" if !in_fn(&ctx) => {
                        i = open_named(toks, i, &mut ctx, depth, CtxKind::Impl);
                    }
                    "impl" if !in_fn(&ctx) => i = open_impl(toks, i, &mut ctx, depth),
                    "fn" => i = open_fn(toks, i, &mut ctx, &mut out, depth, in_test),
                    _ => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    // A fn left open at EOF keeps its provisional `tok_end`: the end of
    // the tokens.
    extract_calls(toks, &mut out);
    out
}

fn in_fn(ctx: &[Ctx]) -> bool {
    ctx.iter().any(|c| c.kind == CtxKind::Fn)
}

/// Current symbol prefix from the context stack (mods and impl types).
fn prefix(ctx: &[Ctx]) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for c in ctx {
        if matches!(c.kind, CtxKind::Mod | CtxKind::Impl) && !c.name.is_empty() {
            parts.push(&c.name);
        }
    }
    parts.join("::")
}

fn impl_type(ctx: &[Ctx]) -> Option<String> {
    ctx.iter()
        .rev()
        .find(|c| c.kind == CtxKind::Impl)
        .map(|c| c.name.clone())
}

/// `mod name {` / `trait Name {` — pushes a context if a brace block
/// follows. Returns the next index.
fn open_named(toks: &[Tok], i: usize, ctx: &mut Vec<Ctx>, depth: usize, kind: CtxKind) -> usize {
    let Some(name_tok) = toks.get(i + 1) else { return i + 1 };
    if name_tok.kind != TokKind::Ident || is_keyword(&name_tok.text) {
        return i + 1;
    }
    // Find the block opener (skipping generics, bounds, tuple bodies).
    let mut j = i + 2;
    let mut paren = 0usize;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct(b'(') => paren += 1,
            TokKind::Punct(b')') => paren = paren.saturating_sub(1),
            TokKind::Punct(b'{') if paren == 0 => break,
            TokKind::Punct(b';') if paren == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return toks.len();
    }
    ctx.push(Ctx {
        kind,
        name: name_tok.text.clone(),
        depth,
        fn_idx: 0,
    });
    j // the main loop consumes the `{` and does the depth bookkeeping
}

/// `impl<G> Type {` / `impl Trait for Type {` — pushes an Impl context
/// named after the *implementing* type. Returns the index of the `{`.
fn open_impl(toks: &[Tok], i: usize, ctx: &mut Vec<Ctx>, depth: usize) -> usize {
    let mut j = i + 1;
    let mut last_ident: Option<&str> = None;
    let mut angle = 0usize;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => angle = angle.saturating_sub(1),
            TokKind::Punct(b'{') if angle == 0 => break,
            TokKind::Punct(b';') if angle == 0 => return j + 1,
            TokKind::Ident if angle == 0 => {
                if toks[j].text == "for" {
                    last_ident = None; // the implementing type follows
                } else if toks[j].text == "where" {
                    break_on_where(toks, &mut j);
                    continue;
                } else if !is_keyword(&toks[j].text) {
                    last_ident = Some(&toks[j].text);
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Re-scan forward to the actual `{` if the where-clause walk stopped us.
    while j < toks.len() && toks[j].kind != TokKind::Punct(b'{') {
        if toks[j].kind == TokKind::Punct(b';') {
            return j + 1;
        }
        j += 1;
    }
    if j >= toks.len() {
        return toks.len();
    }
    ctx.push(Ctx {
        kind: CtxKind::Impl,
        name: last_ident.unwrap_or("").to_string(),
        depth,
        fn_idx: 0,
    });
    j
}

fn break_on_where(toks: &[Tok], j: &mut usize) {
    // Skip the where clause: everything up to the block opener.
    while *j < toks.len() && toks[*j].kind != TokKind::Punct(b'{') {
        if toks[*j].kind == TokKind::Punct(b';') {
            return;
        }
        *j += 1;
    }
}

/// `fn name(...) ... {` — records the item, pushes a Fn context. Returns
/// the index of the body `{` (or past the `;` for bodyless signatures).
fn open_fn(
    toks: &[Tok],
    i: usize,
    ctx: &mut Vec<Ctx>,
    out: &mut ParsedFile,
    depth: usize,
    in_test: bool,
) -> usize {
    let Some(name_tok) = toks.get(i + 1) else { return i + 1 };
    if name_tok.kind != TokKind::Ident || is_keyword(&name_tok.text) {
        return i + 1;
    }
    // Scan the signature for the body `{` or a terminating `;`.
    let mut j = i + 2;
    let mut paren = 0usize;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => paren = paren.saturating_sub(1),
            TokKind::Punct(b'{') if paren == 0 => break,
            TokKind::Punct(b';') if paren == 0 => {
                record_fn(i, name_tok, ctx, out, in_test, j + 1);
                return j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    // tok_end is provisional here; the close-brace bookkeeping in
    // `parse` overwrites it when the body ends.
    record_fn(i, name_tok, ctx, out, in_test, toks.len());
    if j >= toks.len() {
        return toks.len();
    }
    ctx.push(Ctx {
        kind: CtxKind::Fn,
        name: name_tok.text.clone(),
        depth,
        fn_idx: out.fns.len() - 1,
    });
    j
}

fn record_fn(
    i: usize,
    name_tok: &Tok,
    ctx: &[Ctx],
    out: &mut ParsedFile,
    in_test: bool,
    tok_end: usize,
) {
    out.fns.push(FnDef {
        name: name_tok.text.clone(),
        symbol: join(&prefix(ctx), &name_tok.text),
        impl_type: impl_type(ctx),
        tok_start: i,
        tok_end,
        calls: Vec::new(),
        in_test,
    });
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}::{name}")
    }
}

/// Fills each `FnDef::calls` from the tokens in its token span. Owner of
/// a call site = the innermost (smallest-span) fn containing the token,
/// so calls in nested `fn` bodies belong to the nested fn.
fn extract_calls(toks: &[Tok], out: &mut ParsedFile) {
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        let Some(next) = toks.get(k + 1) else { continue };
        if !next.is_punct(b'(') {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if k > 0 && toks[k - 1].is_ident("fn") {
            continue;
        }
        let (kind, qualifier) = match toks.get(k.wrapping_sub(1)) {
            Some(p) if k > 0 && p.is_punct(b'.') => (CallKind::Method, None),
            Some(p) if k > 0 && p.kind == TokKind::PathSep => {
                let q = toks
                    .get(k.wrapping_sub(2))
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.text.clone());
                (CallKind::Qualified, q)
            }
            _ => (CallKind::Direct, None),
        };
        if let Some(fi) = innermost_fn(out, k) {
            out.fns[fi].calls.push(Call {
                name: t.text.clone(),
                kind,
                qualifier,
            });
        }
    }
}

/// Innermost fn whose token span contains token index `k`.
fn innermost_fn(out: &ParsedFile, k: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, f) in out.fns.iter().enumerate() {
        if f.tok_start <= k && k < f.tok_end {
            let span = f.tok_end - f.tok_start;
            if best.is_none_or(|(_, s)| span <= s) {
                best = Some((i, span));
            }
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::strip::FileView;

    fn parse_str(src: &str) -> ParsedFile {
        let view = FileView::new(src);
        parse(&lex(&view), view.test_start)
    }

    #[test]
    fn plain_fns_and_impl_methods() {
        let p = parse_str(
            "fn free() { helper(); }\n\
             struct S { x: u32 }\n\
             impl S {\n\
                 pub fn method(&self) -> u32 { self.helper_b(); other::c() }\n\
             }\n\
             impl Clone for S {\n\
                 fn clone(&self) -> S { S { x: self.x } }\n\
             }\n",
        );
        let syms: Vec<&str> = p.fns.iter().map(|f| f.symbol.as_str()).collect();
        assert_eq!(syms, vec!["free", "S::method", "S::clone"]);
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].kind, CallKind::Direct);
        let m = &p.fns[1].calls;
        assert_eq!(m.len(), 2, "{m:#?}");
        assert_eq!(m[0].kind, CallKind::Method);
        assert_eq!(m[0].name, "helper_b");
        assert_eq!(m[1].kind, CallKind::Qualified);
        assert_eq!(m[1].qualifier.as_deref(), Some("other"));
    }

    #[test]
    fn impl_for_names_the_implementing_type() {
        let p = parse_str("impl<T> Strategy for Map<S, F> {\n fn go(&self) {}\n}\n");
        assert_eq!(p.fns[0].symbol, "Map::go");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Map"));
    }

    #[test]
    fn inline_modules_prefix_symbols() {
        let p = parse_str("mod inner {\n pub fn f() {}\n mod deeper { fn g() {} }\n}\n");
        let syms: Vec<&str> = p.fns.iter().map(|f| f.symbol.as_str()).collect();
        assert_eq!(syms, vec!["inner::f", "inner::deeper::g"]);
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let p = parse_str(
            "fn outer() {\n\
                 before();\n\
                 fn inner() { deep(); }\n\
                 after();\n\
             }\n",
        );
        let outer = &p.fns[0];
        let inner = &p.fns[1];
        let names = |f: &FnDef| f.calls.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(outer), vec!["before", "after"]);
        assert_eq!(names(inner), vec!["deep"]);
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let p = parse_str(
            "fn f(w: &mut W) {\n\
                 w.schedule_call(d, move |w| { w.force_hang(n); helper(); });\n\
             }\n",
        );
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["schedule_call", "force_hang", "helper"]);
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let p = parse_str(
            "trait T {\n\
                 fn sig_only(&self) -> u32;\n\
                 fn with_default(&self) { self.sig_only(); }\n\
             }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].symbol, "T::sig_only");
        assert!(p.fns[0].calls.is_empty());
        assert_eq!(p.fns[1].calls.len(), 1);
    }

    #[test]
    fn test_boundary_marks_fns() {
        let p = parse_str(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { prod(); }\n\
             }\n",
        );
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }

    #[test]
    fn struct_literal_and_macros_are_not_calls() {
        let p = parse_str("fn f() { let s = S { a: 1 }; panic!(\"x\"); g(); }\n");
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["g"], "panic! is a macro, S a literal");
    }
}
