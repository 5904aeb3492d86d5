//! The LANai's local synchronous memory.
//!
//! LANai9 cards carried 512 KB – 8 MB of SRAM holding the MCP image, packet
//! staging buffers and protocol state. We model it as a flat little-endian
//! byte array with checked word/halfword accessors and a bit-flip primitive
//! for the fault campaign. Every store also marks its 4 KiB page in a
//! written-page map, so [`Sram::clear`] zeroes only the pages something
//! wrote: the MCP touches tens of kilobytes of an 8 MiB part, and a full
//! fill would fault in every untouched page of the host process.

use std::fmt;

/// Byte-addressable little-endian SRAM.
///
/// Accessors return [`MemResult`] so the CPU can turn bad firmware accesses
/// into traps rather than panics; infrastructure code (the MCP model, the
/// driver's load path) uses the panicking `*_checked`-free convenience
/// wrappers where an out-of-range access would be a simulator bug.
#[derive(Clone)]
pub struct Sram {
    bytes: Vec<u8>,
    /// One bit per [`PAGE`]-byte page: set once a store may have made the
    /// page nonzero. A clear bit means the page is all zero.
    written: Vec<u64>,
}

/// Page size of the written-page map.
const PAGE: usize = 4096;

/// Contents only: two memories holding the same bytes are equal whatever
/// pages each has written.
impl PartialEq for Sram {
    fn eq(&self, other: &Sram) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Sram {}

/// Result of a checked memory access.
pub type MemResult<T> = Result<T, MemFault>;

/// An out-of-range or misaligned access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u32,
    /// `true` when the address was in range but misaligned.
    pub misaligned: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.misaligned {
            write!(f, "misaligned access at {:#x}", self.addr)
        } else {
            write!(f, "out-of-range access at {:#x}", self.addr)
        }
    }
}

impl std::error::Error for MemFault {}

impl Sram {
    /// Allocates `len` bytes of zeroed SRAM.
    pub fn new(len: usize) -> Sram {
        Sram {
            bytes: vec![0; len],
            written: vec![0; len.div_ceil(PAGE).div_ceil(64)],
        }
    }

    /// Total size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for a zero-sized memory (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Zeroes the entire memory (the FTD's "clear the LANai SRAM" step).
    /// Only the written pages are filled; the rest are zero already.
    pub fn clear(&mut self) {
        for (i, word) in self.written.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let start = (i * 64 + bits.trailing_zeros() as usize) * PAGE;
                let end = (start + PAGE).min(self.bytes.len());
                self.bytes[start..end].fill(0);
                bits &= bits - 1;
            }
        }
    }

    /// Pages of the written-page map that are marked: each one a store
    /// may have made nonzero since creation or the last
    /// [`Sram::clear`].
    pub fn written_pages(&self) -> u32 {
        self.written.iter().map(|w| w.count_ones()).sum()
    }

    /// Marks a page of the written-page map.
    fn mark(&mut self, page: usize) {
        self.written[page / 64] |= 1 << (page % 64);
    }

    fn check(&self, addr: u32, size: u32) -> MemResult<usize> {
        let a = addr as usize;
        if a.checked_add(size as usize).is_none_or(|end| end > self.bytes.len()) {
            return Err(MemFault {
                addr,
                misaligned: false,
            });
        }
        if !addr.is_multiple_of(size) {
            return Err(MemFault {
                addr,
                misaligned: true,
            });
        }
        Ok(a)
    }

    /// Reads a byte.
    pub fn read_u8(&self, addr: u32) -> MemResult<u8> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes[a])
    }

    /// Reads a little-endian halfword; must be 2-byte aligned.
    pub fn read_u16(&self, addr: u32) -> MemResult<u16> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]]))
    }

    /// Reads a little-endian word; must be 4-byte aligned.
    pub fn read_u32(&self, addr: u32) -> MemResult<u32> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[a],
            self.bytes[a + 1],
            self.bytes[a + 2],
            self.bytes[a + 3],
        ]))
    }

    /// Writes a byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> MemResult<()> {
        let a = self.check(addr, 1)?;
        self.bytes[a] = v;
        self.mark(a / PAGE);
        Ok(())
    }

    /// Writes a little-endian halfword; must be 2-byte aligned.
    pub fn write_u16(&mut self, addr: u32, v: u16) -> MemResult<()> {
        let a = self.check(addr, 2)?;
        self.bytes[a..a + 2].copy_from_slice(&v.to_le_bytes());
        self.mark(a / PAGE);
        Ok(())
    }

    /// Writes a little-endian word; must be 4-byte aligned.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> MemResult<()> {
        let a = self.check(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&v.to_le_bytes());
        self.mark(a / PAGE);
        Ok(())
    }

    /// Copies a byte slice into memory.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds — callers are
    /// simulator infrastructure (firmware load, DMA engines) whose ranges
    /// are validated upstream.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        for page in (a / PAGE)..(a + data.len()).div_ceil(PAGE) {
            self.mark(page);
        }
    }

    /// Reads a byte range out of memory.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (see [`Sram::write_bytes`]).
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        let a = addr as usize;
        &self.bytes[a..a + len]
    }

    /// Flips a single bit: `bit` indexes bits across the whole memory,
    /// little-endian within each byte. This is the fault-injection
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if `bit / 8` is out of range.
    pub fn flip_bit(&mut self, bit: u64) {
        let byte = (bit / 8) as usize;
        let mask = 1u8 << (bit % 8);
        self.bytes[byte] ^= mask;
        self.mark(byte / PAGE);
    }

    /// The checksum unit: [`word_checksum`] over `[addr, addr + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn checksum(&self, addr: u32, len: u32) -> u32 {
        word_checksum(self.read_bytes(addr, len as usize))
    }
}

/// Additive 32-bit word checksum (the checksum unit's algorithm, and what
/// the firmware's header loop computes): sum of little-endian words with
/// the trailing bytes zero-padded, wrapping.
pub fn word_checksum(data: &[u8]) -> u32 {
    let (words, rem) = data.as_chunks::<4>();
    let mut sum = words
        .iter()
        .fold(0u32, |sum, w| sum.wrapping_add(u32::from_le_bytes(*w)));
    if !rem.is_empty() {
        let mut tail = [0u8; 4];
        tail[..rem.len()].copy_from_slice(rem);
        sum = sum.wrapping_add(u32::from_le_bytes(tail));
    }
    sum
}

impl fmt::Debug for Sram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sram({} bytes)", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut m = Sram::new(64);
        m.write_u32(8, 0xCAFEBABE).unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 0xCAFEBABE);
        // Little-endian layout.
        assert_eq!(m.read_u8(8).unwrap(), 0xBE);
        assert_eq!(m.read_u8(11).unwrap(), 0xCA);
    }

    #[test]
    fn halfword_roundtrip() {
        let mut m = Sram::new(16);
        m.write_u16(2, 0xBEEF).unwrap();
        assert_eq!(m.read_u16(2).unwrap(), 0xBEEF);
    }

    #[test]
    fn misaligned_word_faults() {
        let m = Sram::new(16);
        let e = m.read_u32(2).unwrap_err();
        assert!(e.misaligned);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = Sram::new(16);
        assert!(!m.read_u32(16).unwrap_err().misaligned);
        assert!(m.write_u8(16, 0).is_err());
        // Near-overflow address must not wrap.
        assert!(m.read_u32(u32::MAX - 2).is_err());
    }

    #[test]
    fn clear_zeroes() {
        let mut m = Sram::new(8);
        m.write_u32(0, 0xFFFFFFFF).unwrap();
        m.clear();
        assert_eq!(m.read_u32(0).unwrap(), 0);
    }

    #[test]
    fn flip_bit_toggles() {
        let mut m = Sram::new(4);
        m.flip_bit(9); // bit 1 of byte 1
        assert_eq!(m.read_u8(1).unwrap(), 0b10);
        m.flip_bit(9);
        assert_eq!(m.read_u8(1).unwrap(), 0);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Sram::new(32);
        m.write_bytes(4, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(4, 5), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn checksum_is_word_sum() {
        let mut m = Sram::new(16);
        m.write_u32(0, 1).unwrap();
        m.write_u32(4, 2).unwrap();
        assert_eq!(m.checksum(0, 8), 3);
        // Tail bytes are zero-padded.
        m.write_u8(8, 0xFF).unwrap();
        assert_eq!(m.checksum(0, 9), 3 + 0xFF);
    }

    /// The checksum unit as first written: one indexed byte load at a
    /// time. Kept as the oracle for the slice implementation.
    fn bytewise_checksum(m: &Sram, addr: u32, len: u32) -> u32 {
        let byte = |a: u32| u32::from(m.read_u8(a).unwrap());
        let mut sum: u32 = 0;
        let mut i = 0;
        while i < len {
            let mut word = 0;
            for k in 0..(len - i).min(4) {
                word |= byte(addr + i + k) << (8 * k);
            }
            sum = sum.wrapping_add(word);
            i += 4;
        }
        sum
    }

    #[test]
    fn checksum_equals_bytewise_oracle_at_every_alignment_and_length() {
        const REGION: usize = 4096;
        let mut rng = ftgm_sim::SimRng::new(0x5EED);
        let mut m = Sram::new(3 * REGION);
        let fill: Vec<u8> = (0..m.len()).map(|_| rng.next_u64().to_le_bytes()[0]).collect();
        m.write_bytes(0, &fill);
        for base in 0..4u32 {
            for len in 0..=67u32 {
                let addr = 0x100 + base;
                let want = bytewise_checksum(&m, addr, len);
                assert_eq!(m.checksum(addr, len), want, "addr {addr:#x} len {len}");
                assert_eq!(word_checksum(m.read_bytes(addr, len as usize)), want);
            }
        }
        // Random 4 KB regions at arbitrary byte offsets.
        for _ in 0..64 {
            let addr = rng.gen_range((m.len() - REGION) as u64 + 1) as u32;
            let want = bytewise_checksum(&m, addr, REGION as u32);
            assert_eq!(m.checksum(addr, REGION as u32), want, "addr {addr:#x}");
            assert_eq!(word_checksum(m.read_bytes(addr, REGION)), want);
        }
    }

    /// The model a store must match: `Ok` and the bytes written, or the
    /// fault [`Sram::check`] reports and nothing written.
    fn oracle_store(oracle: &mut [u8], addr: u32, v: &[u8]) -> MemResult<()> {
        let a = addr as usize;
        if a.checked_add(v.len()).is_none_or(|end| end > oracle.len()) {
            return Err(MemFault {
                addr,
                misaligned: false,
            });
        }
        if a % v.len() != 0 {
            return Err(MemFault {
                addr,
                misaligned: true,
            });
        }
        oracle[a..a + v.len()].copy_from_slice(v);
        Ok(())
    }

    #[test]
    fn stores_and_clears_match_a_flat_oracle() {
        // Five whole pages and a partial sixth.
        const LEN: usize = 5 * PAGE + 1000;
        let mut rng = ftgm_sim::SimRng::new(0x5A4D);
        let mut m = Sram::new(LEN);
        let mut oracle = vec![0u8; LEN];
        // Mostly in range, some past the end, some near the top of the
        // address space.
        let addr = |rng: &mut ftgm_sim::SimRng| match rng.gen_range(16) {
            0 => u32::MAX - rng.gen_range(8) as u32,
            _ => rng.gen_range(LEN as u64 + 8) as u32,
        };
        for step in 0..6000 {
            let v = rng.next_u64().to_le_bytes();
            match rng.gen_range(7) {
                0 => {
                    let a = addr(&mut rng);
                    assert_eq!(m.write_u8(a, v[0]), oracle_store(&mut oracle, a, &v[..1]));
                }
                1 => {
                    let a = addr(&mut rng);
                    let h = u16::from_le_bytes([v[0], v[1]]);
                    assert_eq!(m.write_u16(a, h), oracle_store(&mut oracle, a, &v[..2]));
                }
                2 => {
                    let a = addr(&mut rng);
                    let w = u32::from_le_bytes([v[0], v[1], v[2], v[3]]);
                    assert_eq!(m.write_u32(a, w), oracle_store(&mut oracle, a, &v[..4]));
                }
                3 | 4 => {
                    // Straddles a page boundary, the partial page's end
                    // included.
                    let boundary = (1 + rng.gen_range(5) as usize) * PAGE;
                    let a = boundary - rng.gen_range(64) as usize;
                    let n = (rng.gen_range(200) as usize).min(LEN - a);
                    let data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8 | 1).collect();
                    m.write_bytes(a as u32, &data);
                    oracle[a..a + n].copy_from_slice(&data);
                }
                5 => {
                    let bit = rng.gen_range(LEN as u64 * 8);
                    m.flip_bit(bit);
                    oracle[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                _ if rng.gen_range(8) == 0 => {
                    m.clear();
                    oracle.fill(0);
                    assert!(m.written.iter().all(|w| *w == 0), "step {step}: map not emptied");
                    assert!(m == Sram::new(LEN), "step {step}: cleared memory differs from fresh");
                }
                _ => {}
            }
            assert!(m.read_bytes(0, LEN) == oracle, "step {step}: memory differs from oracle");
            // What makes a partial clear enough: no nonzero byte lies on
            // an unmarked page.
            for (page, bytes) in oracle.chunks(PAGE).enumerate() {
                let marked = m.written[page / 64] & (1 << (page % 64)) != 0;
                assert!(marked || bytes.iter().all(|b| *b == 0), "step {step}: page {page}");
            }
        }
        m.clear();
        assert!(m == Sram::new(LEN));
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut m = Sram::new(64);
        m.write_bytes(0, &[7u8; 64]);
        let before = m.checksum(0, 64);
        m.flip_bit(100);
        assert_ne!(m.checksum(0, 64), before);
    }
}
