// Fixture: the shortcuts a DSL parser must not take — panicking on
// malformed input. Scanned as if at crates/scenario/src/parse.rs, below
// an entry stub at crates/scenario/src/compile.rs whose `compile` calls
// both helpers. Expected: 2 transitive-panic findings (literal index,
// unwrap), one hop below `compile`.

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
