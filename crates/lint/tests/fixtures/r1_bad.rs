// Fixture: every R1 (recovery-no-panic) construct. Scanned as if at
// crates/gm/src/recovery.rs. Expected findings: 7.

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
