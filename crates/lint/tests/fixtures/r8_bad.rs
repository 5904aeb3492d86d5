// Fixture: R8 (determinism-taint). Scanned as if at
// crates/host/src/timing.rs: the host crate is outside R2's per-line
// determinism scope, so only the taint pass can catch a wall clock or
// hash-ordered map flowing into sim-visible state from here. Paired
// with an entry stub at crates/gm/src/ftd.rs calling `probe`.
// Expected: 2 findings (Instant::now in wall_clock, HashMap in tally),
// chains rooted at the stub's ftd_tick.

pub fn probe(now_ns: u64) -> u64 {
    now_ns.wrapping_add(sample(now_ns))
}

fn sample(now_ns: u64) -> u64 {
    now_ns ^ wall_clock()
}

fn wall_clock() -> u64 {
    let t = std::time::Instant::now();
    drop(t);
    tally()
}

fn tally() -> u64 {
    let mut m = std::collections::HashMap::new();
    m.insert(1u64, 2u64);
    m.len() as u64
}
