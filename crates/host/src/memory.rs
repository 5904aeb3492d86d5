//! Host RAM with pinned DMA regions.
//!
//! GM's zero-copy path DMAs directly between the NIC and user buffers, which
//! therefore must be pinned (unswappable). A device DMA that touches a range
//! outside every pinned region is a wild DMA — the model marks the host
//! **crashed**, reproducing the fault-propagation path the paper's Table 1
//! observed (0.4–0.6 % of injections).
//!
//! Storage is per region. The memory keeps the regions
//! [`HostMemory::alloc_dma`] handed out, sorted by base address, and each
//! stores only the prefix something has written; bytes past that prefix,
//! and every byte outside a region, read as zero. So a host holds the
//! bytes written, not its RAM size: a 4 KiB receive buffer that takes a
//! 64 B message stores 64 B.

use std::fmt;

/// Why the host went down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashReason {
    /// The NIC DMAed to/from an address outside every pinned region.
    WildDma {
        /// The offending physical address.
        addr: u64,
        /// Transfer length.
        len: u32,
    },
}

impl fmt::Display for CrashReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashReason::WildDma { addr, len } => {
                write!(f, "wild DMA at {addr:#x} (+{len})")
            }
        }
    }
}

/// A pinned, DMA-able region of host memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DmaRegion {
    /// Physical base address.
    pub pa: u64,
    /// Length in bytes.
    pub len: u32,
}

impl DmaRegion {
    /// `true` if `[addr, addr+len)` lies entirely inside this region.
    pub fn contains(&self, addr: u64, len: u32) -> bool {
        addr >= self.pa && addr + len as u64 <= self.end()
    }

    fn end(&self) -> u64 {
        self.pa + self.len as u64
    }
}

/// One region `alloc_dma` handed out, with the bytes written to it.
#[derive(Clone)]
struct Region {
    at: DmaRegion,
    /// Cleared by `free_dma`; the bytes stay readable.
    pinned: bool,
    /// The prefix written so far; the rest of the region reads as zero.
    data: Vec<u8>,
}

impl Region {
    /// Writes `bytes` at `addr`, which the region contains.
    fn store(&mut self, addr: u64, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let start = (addr - self.at.pa) as usize;
        let end = start + bytes.len();
        self.extend_to(start, end);
        self.data[start..end].copy_from_slice(bytes);
    }

    /// Lends `len` bytes at `addr`, which the region contains.
    fn lend(&mut self, addr: u64, len: u32) -> &[u8] {
        if len == 0 {
            return &[];
        }
        let start = (addr - self.at.pa) as usize;
        let end = start + len as usize;
        self.extend_to(start, end);
        &self.data[start..end]
    }

    /// Zero-extends the stored prefix to reach offset `end`, for an
    /// access that starts at offset `start`. An access that starts where
    /// a non-empty prefix ends is the DMA engine filling the buffer chunk
    /// by chunk, so the whole region is reserved at once. Any other grows
    /// the storage to the next power of two of `end`, capped at the
    /// region's length. (`Vec`'s own doubling would leave a 272 KiB
    /// buffer filled 4 KiB at a time with 512 KiB of capacity.)
    fn extend_to(&mut self, start: usize, end: usize) {
        let stored = self.data.len();
        if end <= stored {
            return;
        }
        let full = self.at.len as usize;
        let want = if start == stored && stored > 0 {
            full
        } else {
            end.next_power_of_two().min(full)
        };
        self.data.reserve_exact(want - stored);
        self.data.resize(end, 0);
    }
}

/// The allocated regions, their stored bytes, and the crash latch.
#[derive(Clone)]
pub struct HostMemory {
    /// Bytes of RAM: the ceiling of `alloc_dma`'s bump pointer.
    len: usize,
    next_alloc: u64,
    /// Bytes handed out by `alloc_dma`, alignment padding excluded.
    allocated: u64,
    /// Every region `alloc_dma` handed out, sorted by base address (bump
    /// allocation appends in order).
    regions: Vec<Region>,
    crashed: Option<CrashReason>,
    /// What a wild DMA read lends the device (empty until one happens).
    zeros: Vec<u8>,
}

impl fmt::Debug for HostMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostMemory")
            .field("len", &self.len)
            .field("regions", &self.regions.len())
            .field("stored_bytes", &self.stored_bytes())
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl HostMemory {
    /// Creates `len` bytes of zeroed RAM. Nothing is stored until a
    /// region is written.
    pub fn new(len: usize) -> HostMemory {
        HostMemory {
            len,
            // Page 0 stays unmapped (the null page): device writes there
            // are wild DMA, as on a real OS.
            next_alloc: 4096,
            allocated: 0,
            regions: Vec::new(),
            crashed: None,
            zeros: Vec::new(),
        }
    }

    /// Total bytes of RAM.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a memory of no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The crash latch, if the host has gone down.
    pub fn crash_reason(&self) -> Option<CrashReason> {
        self.crashed
    }

    /// Allocates and pins a DMA-able buffer (the model of
    /// `gm_dma_malloc`): bump allocation, 8-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if RAM is exhausted — a simulation sizing bug, not a runtime
    /// condition.
    pub fn alloc_dma(&mut self, len: u32) -> DmaRegion {
        let pa = (self.next_alloc + 7) & !7;
        assert!(
            pa + len as u64 <= self.len as u64,
            "host RAM exhausted: want {len} bytes at {pa:#x} of {}",
            self.len
        );
        self.next_alloc = pa + len as u64;
        self.allocated += len as u64;
        let at = DmaRegion { pa, len };
        self.regions.push(Region {
            at,
            pinned: true,
            data: Vec::new(),
        });
        at
    }

    /// Bytes [`HostMemory::alloc_dma`] has handed out since creation
    /// (freeing a region does not subtract it: the model never reuses
    /// storage).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Bytes of storage the regions hold: each written prefix with the
    /// room its growth rule reserved. At most
    /// [`HostMemory::allocated_bytes`].
    pub fn stored_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.data.capacity() as u64).sum()
    }

    /// Unpins a region (model of `gm_dma_free`). The bytes stay readable —
    /// freeing returns the *pinning*, not the storage.
    pub fn free_dma(&mut self, region: DmaRegion) {
        let from = self.regions.partition_point(|r| r.at.pa < region.pa);
        for r in self.regions[from..].iter_mut().take_while(|r| r.at.pa == region.pa) {
            if r.at == region {
                r.pinned = false;
            }
        }
    }

    /// The region holding all of `[addr, addr+len)`, pinned or not: the
    /// last one that starts at or below `addr`. (Of two regions that meet
    /// at `addr`, a zero-length range there belongs to the later one.)
    fn region_at(&self, addr: u64, len: u32) -> Option<usize> {
        let i = self.regions.partition_point(|r| r.at.pa <= addr).checked_sub(1)?;
        self.regions[i].at.contains(addr, len).then_some(i)
    }

    /// The pinned region holding all of `[addr, addr+len)`.
    fn pinned_at(&self, addr: u64, len: u32) -> Option<usize> {
        self.region_at(addr, len).filter(|&i| self.regions[i].pinned)
    }

    /// `true` if the whole range is inside one pinned region.
    pub fn is_pinned(&self, addr: u64, len: u32) -> bool {
        self.pinned_at(addr, len).is_some()
    }

    /// Performs a device-initiated write (NIC → host). An unpinned target
    /// crashes the host and the write is discarded.
    pub fn dma_write(&mut self, addr: u64, data: &[u8]) {
        let len = data.len() as u32;
        match self.pinned_at(addr, len) {
            Some(i) => self.regions[i].store(addr, data),
            None => {
                self.crashed.get_or_insert(CrashReason::WildDma { addr, len });
            }
        }
    }

    /// Performs a device-initiated read (host → NIC), lending the device
    /// the bytes in place. An unpinned source crashes the host and zeros
    /// are lent instead.
    pub fn dma_read(&mut self, addr: u64, len: u32) -> &[u8] {
        match self.pinned_at(addr, len) {
            Some(i) => self.regions[i].lend(addr, len),
            None => {
                self.crashed.get_or_insert(CrashReason::WildDma { addr, len });
                self.zeros.resize(len as usize, 0);
                &self.zeros
            }
        }
    }

    /// CPU-side write (the application filling its buffer). No pinning
    /// check: the CPU may write a freed region too.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside one region: outside them there
    /// is no storage.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let len = data.len() as u32;
        let Some(i) = self.region_at(addr, len) else {
            panic!("CPU write outside every region: {addr:#x} (+{len})");
        };
        self.regions[i].store(addr, data);
    }

    /// CPU-side read: a copy of any range of RAM, zeros wherever nothing
    /// was written.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: u64, len: u32) -> Vec<u8> {
        let end = addr + len as u64;
        assert!(end <= self.len as u64, "CPU read past RAM: {addr:#x} (+{len})");
        // Built by appending, so no byte is written twice.
        let mut out = Vec::with_capacity(len as usize);
        let first = self.regions.partition_point(|r| r.at.end() <= addr);
        for r in self.regions[first..].iter().take_while(|r| r.at.pa < end) {
            let lo = addr.max(r.at.pa);
            let hi = end.min(r.at.pa + r.data.len() as u64);
            if lo < hi {
                out.resize((lo - addr) as usize, 0);
                out.extend_from_slice(&r.data[(lo - r.at.pa) as usize..(hi - r.at.pa) as usize]);
            }
        }
        out.resize(len as usize, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgm_sim::SimRng;

    #[test]
    fn alloc_is_aligned_and_pinned() {
        let mut m = HostMemory::new(64 * 1024);
        let a = m.alloc_dma(100);
        let b = m.alloc_dma(8);
        assert_eq!(a.pa % 8, 0);
        assert_eq!(b.pa % 8, 0);
        assert!(b.pa >= a.pa + 100);
        assert!(m.is_pinned(a.pa, 100));
        assert!(m.is_pinned(a.pa + 10, 90));
        assert!(!m.is_pinned(a.pa + 10, 100));
    }

    #[test]
    fn dma_roundtrip_in_pinned_region() {
        let mut m = HostMemory::new(64 * 1024);
        let r = m.alloc_dma(64);
        m.dma_write(r.pa, &[1, 2, 3]);
        assert_eq!(m.dma_read(r.pa, 3), &[1, 2, 3]);
        assert!(m.crash_reason().is_none());
    }

    #[test]
    fn wild_dma_write_crashes() {
        let mut m = HostMemory::new(64 * 1024);
        m.alloc_dma(64);
        m.dma_write(3000, &[9; 8]);
        assert!(matches!(
            m.crash_reason(),
            Some(CrashReason::WildDma { addr: 3000, len: 8 })
        ));
        // Write was discarded.
        assert_eq!(m.read(3000, 8), &[0; 8]);
    }

    #[test]
    fn wild_dma_read_crashes_and_zeros() {
        let mut m = HostMemory::new(64 * 1024);
        assert_eq!(m.dma_read(100, 4), &[0; 4]);
        assert!(m.crash_reason().is_some());
        // A second, shorter wild read still sees only its own length.
        assert_eq!(m.dma_read(200, 2), &[0; 2]);
    }

    #[test]
    fn first_crash_reason_sticks() {
        let mut m = HostMemory::new(64 * 1024);
        m.dma_write(1, &[0]);
        m.dma_write(2, &[0]);
        assert!(matches!(
            m.crash_reason(),
            Some(CrashReason::WildDma { addr: 1, .. })
        ));
    }

    #[test]
    fn free_unpins() {
        let mut m = HostMemory::new(64 * 1024);
        let r = m.alloc_dma(32);
        m.free_dma(r);
        assert!(!m.is_pinned(r.pa, 32));
    }

    #[test]
    fn cpu_access_ignores_pinning() {
        let mut m = HostMemory::new(64 * 1024);
        let r = m.alloc_dma(32);
        m.free_dma(r);
        m.write(r.pa + 10, &[42]);
        assert_eq!(m.read(r.pa + 10, 1), &[42]);
        assert!(m.crash_reason().is_none());
    }

    #[test]
    #[should_panic(expected = "outside every region")]
    fn cpu_write_outside_every_region_panics() {
        let mut m = HostMemory::new(64 * 1024);
        let r = m.alloc_dma(30);
        // The two bytes of alignment padding after `r` have no storage.
        m.write(r.pa + 29, &[1, 2]);
    }

    #[test]
    fn storage_follows_the_growth_rule() {
        let mut m = HostMemory::new(1 << 20);
        let small = m.alloc_dma(4096);
        let big = m.alloc_dma(64 * 1024);
        assert_eq!(m.stored_bytes(), 0);
        // A first write grows to the next power of two of its end...
        m.dma_write(small.pa, &[7; 64]);
        assert_eq!(m.stored_bytes(), 64);
        m.dma_write(small.pa, &[7; 100]);
        assert_eq!(m.stored_bytes(), 128);
        // ...capped at the region.
        m.write(small.pa + 3000, &[1]);
        assert_eq!(m.stored_bytes(), 4096);
        // A write that starts where the prefix ends reserves it all.
        m.dma_write(big.pa, &[1; 4096]);
        assert_eq!(m.stored_bytes(), 4096 + 4096);
        m.dma_write(big.pa + 4096, &[2; 4096]);
        assert_eq!(m.stored_bytes(), 4096 + 64 * 1024);
        // Reading past the prefix lends zeros.
        let lent = m.dma_read(big.pa + 8000, 500);
        assert_eq!((&lent[..192], &lent[192..]), (&[2; 192][..], &[0; 308][..]));
        assert_eq!(m.stored_bytes(), 4096 + 64 * 1024);
        assert!(m.crash_reason().is_none());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oversubscription_panics() {
        let mut m = HostMemory::new(8192);
        m.alloc_dma(8000);
    }

    #[test]
    fn null_page_never_allocated() {
        let mut m = HostMemory::new(16384);
        let r = m.alloc_dma(64);
        assert!(r.pa >= 4096);
        assert!(!m.is_pinned(0, 8));
    }

    /// The flat-array memory this module's region storage replaced: one
    /// byte per address of RAM and a list of pinned ranges.
    struct Flat {
        bytes: Vec<u8>,
        next_alloc: u64,
        allocated: u64,
        pinned: Vec<DmaRegion>,
        crashed: Option<CrashReason>,
    }

    impl Flat {
        fn new(len: usize) -> Flat {
            Flat {
                bytes: vec![0; len],
                next_alloc: 4096,
                allocated: 0,
                pinned: Vec::new(),
                crashed: None,
            }
        }

        fn alloc_dma(&mut self, len: u32) -> DmaRegion {
            let pa = (self.next_alloc + 7) & !7;
            self.next_alloc = pa + len as u64;
            self.allocated += len as u64;
            self.pinned.push(DmaRegion { pa, len });
            DmaRegion { pa, len }
        }

        fn is_pinned(&self, addr: u64, len: u32) -> bool {
            self.pinned.iter().any(|r| r.contains(addr, len))
        }

        fn dma_write(&mut self, addr: u64, data: &[u8]) {
            if !self.is_pinned(addr, data.len() as u32) {
                let len = data.len() as u32;
                self.crashed.get_or_insert(CrashReason::WildDma { addr, len });
                return;
            }
            self.write(addr, data);
        }

        fn dma_read(&mut self, addr: u64, len: u32) -> Vec<u8> {
            if !self.is_pinned(addr, len) {
                self.crashed.get_or_insert(CrashReason::WildDma { addr, len });
                return vec![0; len as usize];
            }
            self.read(addr, len)
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            let a = addr as usize;
            self.bytes[a..a + data.len()].copy_from_slice(data);
        }

        fn read(&self, addr: u64, len: u32) -> Vec<u8> {
            let a = addr as usize;
            self.bytes[a..a + len as usize].to_vec()
        }
    }

    /// A range near the regions handed out: inside one (often past what
    /// was written), across the end of one into its neighbour or the
    /// alignment gap, in the gap itself, in the null page, or anywhere.
    /// Never empty, and never past RAM.
    fn pick_range(rng: &mut SimRng, regions: &[DmaRegion], ram: u64) -> (u64, u32) {
        let n = 1 + rng.gen_range(300);
        let (addr, len) = match (rng.gen_range(6), regions) {
            (_, []) | (0, _) => (rng.gen_range(ram), n),
            (1, _) => (rng.gen_range(4096), n),
            (2, _) => (rng.choose(regions).end(), 1 + rng.gen_range(8)),
            (3, _) => {
                let r = rng.choose(regions);
                (r.end() - rng.gen_range(n.min(r.len as u64) + 1), n)
            }
            _ => {
                let r = rng.choose(regions);
                let off = rng.gen_range(r.len as u64 + 1);
                (r.pa + off, 1 + rng.gen_range((r.len as u64 - off).max(1)))
            }
        };
        (addr, len.min(ram - addr).max(1) as u32)
    }

    #[test]
    fn regions_match_a_flat_oracle() {
        const RAM: u64 = 64 * 1024;
        for seed in 0..8 {
            let mut rng = SimRng::new(0x4E30 + seed);
            let mut m = HostMemory::new(RAM as usize);
            let mut flat = Flat::new(RAM as usize);
            let mut regions: Vec<DmaRegion> = Vec::new();
            for step in 0..3000 {
                let (addr, len) = pick_range(&mut rng, &regions, RAM);
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8 | 1).collect();
                // The crash latch keeps only the first wild access, so
                // every range's verdict is compared too.
                assert_eq!(m.is_pinned(addr, len), flat.is_pinned(addr, len), "step {step}");
                match rng.gen_range(8) {
                    0 => {
                        // Lengths of a multiple of 8 leave no gap before the
                        // next region; zero-length regions happen too.
                        let len = match rng.gen_range(3) {
                            0 => 8 * rng.gen_range(80) as u32,
                            _ => rng.gen_range(700) as u32,
                        };
                        if flat.next_alloc + 8 + len as u64 <= RAM {
                            let r = m.alloc_dma(len);
                            assert_eq!(r, flat.alloc_dma(len), "step {step}");
                            regions.push(r);
                        }
                    }
                    1 if !regions.is_empty() && rng.gen_range(4) == 0 => {
                        let r = *rng.choose(&regions);
                        m.free_dma(r);
                        flat.pinned.retain(|p| *p != r);
                    }
                    2 | 3 => {
                        m.dma_write(addr, &bytes);
                        flat.dma_write(addr, &bytes);
                    }
                    4 | 5 => {
                        let got = m.dma_read(addr, len).to_vec();
                        assert_eq!(got, flat.dma_read(addr, len), "step {step}: dma_read");
                    }
                    6 => {
                        // The CPU writes inside one region, pinned or not.
                        if regions.iter().any(|r| r.contains(addr, len)) {
                            m.write(addr, &bytes);
                            flat.write(addr, &bytes);
                        }
                    }
                    _ => {
                        assert_eq!(m.read(addr, len), flat.read(addr, len), "step {step}: read");
                    }
                }
                assert_eq!(m.crash_reason(), flat.crashed, "step {step}: crash latch");
                assert_eq!(m.allocated_bytes(), flat.allocated, "step {step}");
                assert!(m.stored_bytes() <= m.allocated_bytes(), "step {step}");
            }
            assert!(m.read(0, RAM as u32) == flat.bytes, "seed {seed}: memory differs");
        }
    }
}
