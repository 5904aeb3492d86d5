// Fixture: recovery-path code written the sanctioned way. Scanned as if
// at crates/gm/src/recovery.rs. Expected findings: 0.

fn handler(x: Option<u8>, r: Result<u8, ()>, v: &[u8]) -> Option<u8> {
    let a = x?;
    let b = r.unwrap_or(0);
    let first = v.get(0).copied()?;
    let idx = a as usize;
    let second = v.get(idx).copied().unwrap_or_default();
    // Mentioning unwrap() in a comment is fine, as is "panic!" in a string.
    let _msg = "do not panic!";
    Some(first + second + b)
}

#[cfg(test)]
mod tests {
    // Test code may unwrap freely: a test fn is never an entry.
    fn in_tests(x: Option<u8>) -> u8 {
        x.unwrap()
    }
}
