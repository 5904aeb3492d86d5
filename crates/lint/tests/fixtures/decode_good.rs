// Fixture: the sanctioned alternative to decode_bad.rs — same call
// shape below the same cpu.rs entry stub, but the window access
// degrades instead of panicking and the cycle stamp comes from the
// caller's simulated clock. Expected findings: 0.

pub fn exec_window(ops: &[u32], cycles: u64) -> u64 {
    u64::from(fetch(ops)).wrapping_add(stamp(cycles))
}

fn fetch(ops: &[u32]) -> u32 {
    let head = ops.first().copied().unwrap_or(0);
    let next = ops.get(1).copied().unwrap_or(0);
    head.wrapping_add(next)
}

fn stamp(cycles: u64) -> u64 {
    cycles.wrapping_mul(2)
}
