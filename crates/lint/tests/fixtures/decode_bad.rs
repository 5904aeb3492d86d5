// Fixture: the LN32 interpreter (cpu.rs) as a graph-rule entry. Scanned
// as if at crates/host/src/decode_support.rs — outside both R1's and
// R2's per-line scopes — paired with an entry stub at
// crates/lanai/src/cpu.rs whose `run` calls `exec_window`. The
// interpreter module seeds *both* graph passes: R7 because it executes
// firmware (including mid-recovery replays over corrupted images), and
// R8 because it is sim-visible through R2's lanai directory. Expected:
// 2 transitive-panic findings in `fetch` (unwrap + literal index) and 1
// determinism-taint finding in `stamp` (wall clock), every chain rooted
// at `run`.

pub fn exec_window(ops: &[u32]) -> u64 {
    u64::from(fetch(ops)).wrapping_add(stamp())
}

fn fetch(ops: &[u32]) -> u32 {
    let head = ops.first().copied().unwrap();
    head.wrapping_add(ops[1])
}

fn stamp() -> u64 {
    let t = std::time::Instant::now();
    drop(t);
    0
}
