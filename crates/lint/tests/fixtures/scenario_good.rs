// Fixture: the sanctioned total-parser shape — `get` instead of
// indexing, diagnostics instead of unwrap. Scanned as if at
// crates/scenario/src/parse.rs, below the same `compile` entry stub as
// scenario_bad.rs. Expected findings: 0.

fn first_token(toks: &[u64]) -> Option<u64> {
    toks.first().copied()
}

fn parse_count(text: &str, diags: &mut Vec<String>) -> Option<u64> {
    match text.parse::<u64>() {
        Ok(n) => Some(n),
        Err(_) => {
            diags.push(format!("not an integer: '{text}'"));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    // Test code is exempt: a test fn is never reached from an entry.
    #[test]
    fn head() {
        assert_eq!([7u64][0], 7);
        assert_eq!("9".parse::<u64>().unwrap(), 9);
    }
}
