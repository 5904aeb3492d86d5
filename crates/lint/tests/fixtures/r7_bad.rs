// Fixture: R7 (transitive-panic). Scanned as if at
// crates/net/src/verify.rs — NOT an R7 entry file — paired with an
// entry stub at crates/gm/src/ftd.rs whose `ftd_check` calls `verify`.
// Expected:
// 2 findings in helper_b (unwrap + literal index), each carrying the
// full chain ftd_check → verify → helper_a → helper_b.

pub fn verify(state: &[u8]) -> u8 {
    helper_a(state)
}

fn helper_a(state: &[u8]) -> u8 {
    helper_b(state)
}

fn helper_b(state: &[u8]) -> u8 {
    let head = state.first().copied().unwrap();
    head + state[1]
}

#[cfg(test)]
mod tests {
    // Panics in test code are out of scope even when reachable.
    #[test]
    fn t() {
        super::verify(&[1, 2]);
        panic!("test-only panic is fine");
    }
}
