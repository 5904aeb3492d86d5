// Fixture: the shortcuts a DSL parser must not take — panicking on
// malformed input. Scanned as if at crates/scenario/src/parse.rs.
// Expected findings: 2 recovery-no-panic (literal index, unwrap).

fn first_token(toks: &[u64]) -> u64 {
    // Literal indexing panics on an empty token stream (byte-soup input).
    let head = toks[0];
    head
}

fn parse_count(text: &str) -> u64 {
    // unwrap turns a malformed integer into a crash instead of a Diag.
    let n: u64 = text.parse().unwrap();
    n
}
