// Fixture: the MPI tier's restart path gone wrong. Scanned as if at
// crates/host/src/respawn_util.rs (not an entry file) paired with an
// entry stub at crates/mpi/src/recovery.rs whose `plan_rank_restart`
// calls `choose_spare`: expected 2 transitive-panic findings in
// `slot_of` (unwrap + literal index), each carrying the full chain
// plan_rank_restart → choose_spare → slot_of.

pub fn choose_spare(spares: &[u32]) -> u32 {
    slot_of(spares)
}

fn slot_of(spares: &[u32]) -> u32 {
    let first = spares.first().copied().unwrap();
    first.wrapping_add(spares[0])
}

#[cfg(test)]
mod tests {
    // Panics in test code are out of scope even when reachable.
    #[test]
    fn t() {
        assert_eq!(super::choose_spare(&[3]), 6);
        panic!("test-only panic is fine");
    }
}
