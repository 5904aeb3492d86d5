//! Fuzz properties for the lint front end: the strip → lex → parse
//! pipeline must never panic, whatever bytes it is fed, and the lexer
//! must agree with the stripping layer byte-for-byte. The lint runs in
//! tier-1 CI over every workspace file — a panic here would turn a
//! malformed source file into a broken build gate, so robustness is the
//! contract, not a nicety.
//!
//! Two input distributions:
//!
//! 1. **Structured soup** — random concatenations of Rust-ish fragments
//!    (keywords, half-open strings, stray quotes, comment openers,
//!    unbalanced braces). This is where tokenizer state machines
//!    actually break.
//! 2. **Raw bytes** — arbitrary (lossy-decoded) byte strings, for the
//!    cases nobody thinks to write down.

use proptest::prelude::*;

use ftgm_lint::lexer::{lex, TokKind};
use ftgm_lint::parse::parse;
use ftgm_lint::strip::FileView;

/// Fragments chosen to stress every lexer/parser state: literal and
/// comment delimiters (balanced and not), numeric edge forms, nesting,
/// and the item keywords the parser keys on.
const FRAGMENTS: &[&str] = &[
    "fn f", "fn ", "impl T for ", "impl ", "mod m", "trait T", "struct S",
    "{", "}", "{{", "}}", "(", ")", "[", "]", ";", ",", ".", "..", "::",
    ":", "->", "=>", "=", "==", "#[test]", "#[cfg(test)]", "&'a", "'a",
    "'x'", "'\\''", "\"", "\"str\"", "\"unterminated", "r#\"raw\"#",
    "r#\"open", "b\"bytes\"", "//", "// line comment", "/*", "*/",
    "/* nested /* deeper */", "1.5", "2.", "1e9", "0.5e-3", "0xFF",
    "1_000u64", "0..10", "t.0.1", "x.unwrap()", "panic!(\"boom\")",
    "v[0]", "Self::go()", "self.helper()", "crate::a::b()", "λ", "日本",
    "\u{0}", "\t", "\\", "\n", "  \n", "where Clause:",
];

fn soup_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64).prop_map(|picks| {
        let mut s = String::new();
        for (i, p) in picks.iter().enumerate() {
            s.push_str(FRAGMENTS[*p]);
            if i % 3 == 0 {
                s.push(' ');
            }
        }
        s
    })
}

fn raw_bytes_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// The whole front end on one input: build the view, lex, parse. Any
/// panic fails the property.
fn front_end(src: &str) -> (FileView, usize) {
    let view = FileView::new(src);
    let toks = lex(&view);
    let _ = parse(&toks, view.test_start);
    (view, toks.len())
}

/// Every non-blank byte of the stripped code view is covered by exactly
/// one token — the lexer and `strip.rs` agree on what is code.
fn assert_coverage(view: &FileView) {
    let toks = lex(view);
    let mut covered: Vec<Vec<u32>> = view
        .code_lines
        .iter()
        .map(|l| vec![0u32; l.len()])
        .collect();
    for tok in &toks {
        for i in 0..tok.text.len() {
            let (li, bi) = (tok.line as usize, tok.col as usize + i);
            assert!(
                li < covered.len() && bi < covered[li].len(),
                "token {tok:?} spills past the code view"
            );
            covered[li][bi] += 1;
        }
    }
    for (li, line) in view.code_lines.iter().enumerate() {
        for (bi, &b) in line.as_bytes().iter().enumerate() {
            let hits = covered[li][bi];
            if b.is_ascii_whitespace() {
                continue; // blanked or genuine whitespace — no token
            }
            assert_eq!(
                hits, 1,
                "code byte {b:#x} at {}:{} covered {hits} times in {line:?}",
                li + 1,
                bi + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structured Rust-ish soup: no panic anywhere in the pipeline, and
    /// full lexer/stripper agreement.
    #[test]
    fn soup_never_panics_and_coverage_holds(src in soup_strategy()) {
        let (view, _) = front_end(&src);
        assert_coverage(&view);
    }

    /// Arbitrary bytes: same contract.
    #[test]
    fn raw_bytes_never_panic_and_coverage_holds(src in raw_bytes_strategy()) {
        let (view, _) = front_end(&src);
        assert_coverage(&view);
    }

    /// The full scan (rules + graph passes) tolerates soup when the file
    /// pretends to live at a rule-governed path.
    #[test]
    fn full_scan_never_panics_on_soup(src in soup_strategy()) {
        let _ = ftgm_lint::scan_file_content("crates/gm/src/recovery.rs", &src);
        let _ = ftgm_lint::scan_file_content("crates/sim/src/export.rs", &src);
    }

    /// Lexing is a pure function of the view: token streams from two
    /// identical views are identical (guards against hidden state).
    #[test]
    fn lexing_is_deterministic(src in soup_strategy()) {
        let a = lex(&FileView::new(&src));
        let b = lex(&FileView::new(&src));
        prop_assert_eq!(a, b);
    }
}

#[test]
fn string_contents_never_leak_into_tokens() {
    // The blanking contract: text inside string literals must not form
    // tokens (a `panic!` inside a format string is not a finding).
    let view = FileView::new("let s = \"panic! unwrap HashMap\";\n");
    let toks = lex(&view);
    assert!(toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .all(|t| t.text != "panic" && t.text != "unwrap" && t.text != "HashMap"));
}
