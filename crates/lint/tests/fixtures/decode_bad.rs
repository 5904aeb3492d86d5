// Fixture: the LN32 interpreter (cpu.rs) as an R7 entry. Scanned as if
// at crates/host/src/decode_support.rs — not an entry file — paired
// with an entry stub at crates/lanai/src/cpu.rs whose `run` calls
// `exec_window`. The interpreter module seeds R7 because it executes
// firmware, including mid-recovery replays over corrupted images.
// Expected: 2 transitive-panic findings in `fetch` (unwrap + literal
// index), every chain rooted at `run`.

pub fn exec_window(ops: &[u32]) -> u64 {
    u64::from(fetch(ops))
}

fn fetch(ops: &[u32]) -> u32 {
    let head = ops.first().copied().unwrap();
    head.wrapping_add(ops[1])
}
