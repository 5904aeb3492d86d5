//! Source preprocessing: producing a "code view" of each line with
//! comments and literal contents blanked out (byte positions preserved),
//! plus the `// lint:allow(rule, ...)` annotations and the boundary where
//! in-file test code starts.
//!
//! This is a hand-rolled lexer-lite, not a full Rust lexer: it tracks
//! line comments, nested block comments, string/char/byte literals and
//! raw strings. Lifetimes (`'a`) are distinguished from char literals by
//! lookahead. That is enough to keep rule matchers from firing on tokens
//! that only occur inside comments or literals.

/// Pre-processed view of one source file.
pub struct FileView {
    /// Original lines (for snippets and spans).
    pub raw_lines: Vec<String>,
    /// Lines with comments and literal *contents* replaced by spaces.
    /// Offsets match `raw_lines` byte-for-byte (ASCII blanking).
    pub code_lines: Vec<String>,
    /// Per line: rules suppressed on that line via `lint:allow`.
    pub allows: Vec<Vec<String>>,
    /// First line index (0-based) of `#[cfg(test)]` — everything from
    /// here on is treated as test code and skipped. Relies on the
    /// repo-wide convention that unit-test modules trail the file.
    pub test_start: Option<usize>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    Block(u32),       // block comment, nesting depth
    Str,              // "..." (also b"...")
    RawStr(u32),      // r##"..."## with N hashes
}

impl FileView {
    pub fn new(content: &str) -> FileView {
        let raw_lines: Vec<String> = content.lines().map(|l| l.to_string()).collect();
        let mut code_lines = Vec::with_capacity(raw_lines.len());
        let mut comment_texts: Vec<String> = Vec::with_capacity(raw_lines.len());
        let mut state = State::Normal;

        for raw in &raw_lines {
            let (code, comment, next) = strip_line(raw, state);
            code_lines.push(code);
            comment_texts.push(comment);
            state = next;
        }

        // lint:allow on a pure comment line also covers the next line.
        let own: Vec<Vec<String>> = comment_texts.iter().map(|c| parse_allows(c)).collect();
        let mut allows = own.clone();
        for i in 0..raw_lines.len() {
            let trimmed = raw_lines[i].trim_start();
            if (trimmed.starts_with("//") || trimmed.is_empty()) && i + 1 < raw_lines.len() {
                let carried = own[i].clone();
                for rule in carried {
                    if !allows[i + 1].contains(&rule) {
                        allows[i + 1].push(rule);
                    }
                }
            }
        }

        let test_start = code_lines
            .iter()
            .position(|l| l.contains("#[cfg(test)]"));

        FileView {
            raw_lines,
            code_lines,
            allows,
            test_start,
        }
    }
}

/// Strips one line given the lexer state at its start. Returns the code
/// view, the concatenated comment text seen on the line, and the state at
/// the line's end.
fn strip_line(raw: &str, mut state: State) -> (String, String, State) {
    let b = raw.as_bytes();
    let mut code: Vec<u8> = Vec::with_capacity(b.len());
    let mut comment: Vec<u8> = Vec::new();
    let mut i = 0;

    while i < b.len() {
        match state {
            State::Block(depth) => {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    state = State::Block(depth + 1);
                    comment.extend_from_slice(b"/*");
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    state = if depth > 1 { State::Block(depth - 1) } else { State::Normal };
                    comment.extend_from_slice(b"*/");
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    comment.push(b[i]);
                    code.push(blank(b[i]));
                    i += 1;
                }
            }
            State::Str => {
                if b[i] == b'\\' && i + 1 < b.len() {
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if b[i] == b'"' {
                    code.push(b'"');
                    state = State::Normal;
                    i += 1;
                } else {
                    code.push(blank(b[i]));
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b[i] == b'"' && closes_raw(b, i, hashes) {
                    code.push(b'"');
                    code.extend(std::iter::repeat_n(b' ', hashes as usize));
                    i += 1 + hashes as usize;
                    state = State::Normal;
                } else {
                    code.push(blank(b[i]));
                    i += 1;
                }
            }
            State::Normal => {
                let c = b[i];
                if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                    // Line comment: capture the rest for lint:allow parsing.
                    comment.extend_from_slice(&b[i..]);
                    code.extend(std::iter::repeat_n(b' ', b.len() - i));
                    i = b.len();
                } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    state = State::Block(1);
                    comment.extend_from_slice(b"/*");
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'r' && is_raw_string_start(b, i) && !prev_is_ident(b, i) {
                    let hashes = count_hashes(b, i + 1);
                    code.push(b'r');
                    code.extend(std::iter::repeat_n(b'#', hashes as usize));
                    code.push(b'"');
                    i += 1 + hashes as usize + 1;
                    state = State::RawStr(hashes);
                } else if c == b'"' {
                    code.push(b'"');
                    i += 1;
                    state = State::Str;
                } else if c == b'\'' {
                    // Char literal vs lifetime: 'x' / '\n' are literals.
                    if let Some(end) = char_literal_end(b, i) {
                        code.push(b'\'');
                        code.extend(std::iter::repeat_n(b' ', end - i - 1));
                        code.push(b'\'');
                        i = end + 1;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    (
        String::from_utf8_lossy(&code).into_owned(),
        String::from_utf8_lossy(&comment).into_owned(),
        match state {
            State::Str => State::Normal, // plain strings don't span lines here
            s => s,
        },
    )
}

/// Replaces non-ASCII-safe stripped bytes with spaces, preserving length
/// for single-byte characters (multi-byte UTF-8 collapses harmlessly).
fn blank(_b: u8) -> u8 {
    b' '
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn count_hashes(b: &[u8], mut i: usize) -> u32 {
    let mut n = 0;
    while i < b.len() && b[i] == b'#' {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw(b: &[u8], i: usize, hashes: u32) -> bool {
    b.get(i + 1..i + 1 + hashes as usize)
        .is_some_and(|h| h.iter().all(|&c| c == b'#'))
}

/// Returns the index of the closing quote if `b[i]` starts a char
/// literal (as opposed to a lifetime).
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    if i + 2 < b.len() && b[i + 1] == b'\\' {
        // Escaped char: find the closing quote.
        let mut j = i + 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return (j < b.len()).then_some(j);
    }
    if i + 2 < b.len() && b[i + 2] == b'\'' {
        return Some(i + 2);
    }
    None
}

/// Extracts rule names from `lint:allow(a, b)` occurrences in a comment.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        if let Some(close) = after.find(')') {
            for rule in after[..close].split(',') {
                let rule = rule.trim().to_string();
                if !rule.is_empty() && !out.contains(&rule) {
                    out.push(rule);
                }
            }
            rest = &after[close + 1..];
        } else {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let v = FileView::new("let x = 1; // HashMap here\n");
        assert!(!v.code_lines[0].contains("HashMap"));
        assert!(v.code_lines[0].contains("let x = 1;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let v = FileView::new("let s = \"unwrap() HashMap\";\n");
        assert!(!v.code_lines[0].contains("unwrap"));
        assert!(!v.code_lines[0].contains("HashMap"));
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let v = FileView::new("a /* x\n/* nested */ still\ncomment */ b\n");
        assert!(v.code_lines[0].starts_with('a'));
        assert!(!v.code_lines[1].contains("still"));
        assert!(v.code_lines[2].contains('b'));
        assert!(!v.code_lines[2].contains("comment"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let v = FileView::new("let s = r#\"panic!(\"x\")\"#; call();\n");
        assert!(!v.code_lines[0].contains("panic"));
        assert!(v.code_lines[0].contains("call();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let v = FileView::new("fn f<'a>(x: &'a str) { let c = 'y'; }\n");
        assert!(v.code_lines[0].contains("'a"), "lifetimes preserved");
        assert!(!v.code_lines[0].contains('y'), "char contents blanked");
    }

    #[test]
    fn escaped_quote_in_string() {
        let v = FileView::new("let s = \"a\\\"unwrap()\"; done();\n");
        assert!(!v.code_lines[0].contains("unwrap"));
        assert!(v.code_lines[0].contains("done();"));
    }

    #[test]
    fn allow_same_line_and_preceding_line() {
        let v = FileView::new(
            "// lint:allow(transitive-panic)\nx.unwrap();\nx.unwrap(); // lint:allow(rule-a, transitive-panic)\n",
        );
        assert_eq!(v.allows[0], vec!["transitive-panic"]);
        assert_eq!(v.allows[1], vec!["transitive-panic"], "carried to next line");
        assert!(v.allows[2].contains(&"rule-a".to_string()));
        assert!(v.allows[2].contains(&"transitive-panic".to_string()));
    }

    #[test]
    fn test_module_boundary_found() {
        let v = FileView::new("fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(v.test_start, Some(1));
    }

    #[test]
    fn cfg_test_in_string_is_ignored() {
        let v = FileView::new("let s = \"#[cfg(test)]\";\n");
        assert_eq!(v.test_start, None);
    }
}
