// Fixture: every panicking construct R7's matcher knows (the ones the
// retired per-file rule R1 named). Scanned as if at
// crates/gm/src/recovery.rs, an R7 entry file, so `handler` is an entry.
// Expected transitive-panic findings: 7.

fn handler(x: Option<u8>, r: Result<u8, ()>, v: &[u8]) -> u8 {
    let a = x.unwrap();
    let b = r.expect("recovery state present");
    if a == 0 {
        panic!("impossible");
    }
    if b == 1 {
        todo!();
    }
    if b == 2 {
        unimplemented!();
    }
    let first = v[0];
    let second = v[1_0];
    first + second
}
