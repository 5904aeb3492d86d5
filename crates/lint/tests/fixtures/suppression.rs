// Fixture: the lint:allow escape hatch. Scanned as if at
// crates/gm/src/recovery.rs. Expected findings: 1 (the last unwrap —
// its allow names a retired rule).

fn suppressed(x: Option<u8>) -> u8 {
    let a = x.unwrap(); // lint:allow(transitive-panic)
    // lint:allow(transitive-panic)
    let b = x.unwrap();
    let c = x.unwrap(); // lint:allow(recovery-no-panic)
    a + b + c
}
