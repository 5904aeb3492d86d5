//! JSON string escaping for the report writer (zero dependencies).

use std::fmt::Write as _;

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            escape("say \"hi\",\ttab\nline \\ back\u{1}"),
            r#"say \"hi\",\ttab\nline \\ back\u0001"#
        );
        assert_eq!(escape("crates/gm/src/recovery.rs → fn"), "crates/gm/src/recovery.rs → fn");
    }
}
