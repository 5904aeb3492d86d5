//! CRC-32 (IEEE 802.3 polynomial), as the link-level packet check.
//!
//! Myrinet packets carry a hardware CRC that switches and interfaces check;
//! GM's Go-Back-N relies on corrupted packets being *detected and dropped*
//! at the link level. The fabric stamps every injected packet with this
//! CRC and re-checks it at delivery, so tests can corrupt packets in flight
//! and watch the protocol recover.

// Wire format: a silent truncation corrupts packets in a way the checksums
// may or may not catch; each deliberate narrowing carries an `expect`.
#![deny(clippy::cast_possible_truncation)]

/// Computes the IEEE CRC-32 of `data` (reflected, init/xorout `!0`).
///
/// # Example
///
/// ```
/// // The classic check value.
/// assert_eq!(ftgm_net::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 256];
        data[10] = 0x55;
        let before = crc32(&data);
        data[100] ^= 0x04;
        assert_ne!(crc32(&data), before);
    }

    #[test]
    fn detects_swap() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
