// Fixture: the sanctioned version of mpi_bad.rs — the same restart
// helper written total, plus the near-miss lookalike R1 must not flag
// when the file sits inside crates/mpi/src/: non-literal indexing.

pub fn choose_spare(spares: &[u32]) -> u32 {
    slot_of(spares)
}

fn slot_of(spares: &[u32]) -> u32 {
    let first = spares.first().copied().unwrap_or(0);
    let mut sum = 0u32;
    for i in 0..spares.len() {
        sum = sum.wrapping_add(spares[i]); // non-literal index: bounds come from the loop
    }
    first.wrapping_add(sum)
}
