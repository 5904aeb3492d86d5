//! Host RAM with pinned DMA regions.
//!
//! GM's zero-copy path DMAs directly between the NIC and user buffers, which
//! therefore must be pinned (unswappable). We model host memory as a flat
//! physical byte arena with an explicit registry of pinned ranges. A device
//! DMA that touches an unregistered range is a wild DMA — the model marks
//! the host **crashed**, reproducing the fault-propagation path the paper's
//! Table 1 observed (0.4–0.6 % of injections).

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
        addr >= self.pa && addr + len as u64 <= self.pa + self.len as u64
    }
}

/// Flat physical memory plus the pinned-region registry and crash latch.
#[derive(Clone)]
pub struct HostMemory {
    bytes: Vec<u8>,
    next_alloc: u64,
    /// Bytes handed out by `alloc_dma`, alignment padding excluded.
    allocated: u64,
    pinned: Vec<DmaRegion>,
    crashed: Option<CrashReason>,
    /// What a wild DMA read lends the device (empty until one happens).
    zeros: Vec<u8>,
}

impl fmt::Debug for HostMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostMemory")
            .field("len", &self.bytes.len())
            .field("pinned_regions", &self.pinned.len())
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl HostMemory {
    /// Creates `len` bytes of zeroed RAM.
    pub fn new(len: usize) -> HostMemory {
        HostMemory {
            bytes: vec![0; len],
            // Page 0 stays unmapped (the null page): device writes there
            // are wild DMA, as on a real OS.
            next_alloc: 4096,
            allocated: 0,
            pinned: Vec::new(),
            crashed: None,
            zeros: Vec::new(),
        }
    }

    /// Total bytes of RAM.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for an empty arena.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
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
            pa + len as u64 <= self.bytes.len() as u64,
            "host RAM exhausted: want {len} bytes at {pa:#x} of {}",
            self.bytes.len()
        );
        self.next_alloc = pa + len as u64;
        self.allocated += len as u64;
        let region = DmaRegion { pa, len };
        self.pinned.push(region);
        region
    }

    /// Bytes [`HostMemory::alloc_dma`] has handed out since creation
    /// (freeing a region does not subtract it: the model never reuses
    /// storage).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Unpins a region (model of `gm_dma_free`). The bytes stay readable —
    /// freeing returns the *pinning*, not the storage.
    pub fn free_dma(&mut self, region: DmaRegion) {
        self.pinned.retain(|r| *r != region);
    }

    /// `true` if the whole range is inside one pinned region.
    pub fn is_pinned(&self, addr: u64, len: u32) -> bool {
        self.pinned.iter().any(|r| r.contains(addr, len))
    }

    /// Performs a device-initiated write (NIC → host). An unpinned target
    /// crashes the host and the write is discarded.
    pub fn dma_write(&mut self, addr: u64, data: &[u8]) {
        if !self.is_pinned(addr, data.len() as u32) {
            self.crashed.get_or_insert(CrashReason::WildDma {
                addr,
                len: data.len() as u32,
            });
            return;
        }
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Performs a device-initiated read (host → NIC), lending the device
    /// the bytes in place. An unpinned source crashes the host and zeros
    /// are lent instead.
    pub fn dma_read(&mut self, addr: u64, len: u32) -> &[u8] {
        if !self.is_pinned(addr, len) {
            self.crashed.get_or_insert(CrashReason::WildDma { addr, len });
            self.zeros.resize(len as usize, 0);
            return &self.zeros;
        }
        let a = addr as usize;
        &self.bytes[a..a + len as usize]
    }

    /// CPU-side write (the application filling its buffer). No pinning
    /// check: the CPU can touch all of RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// CPU-side read.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: u64, len: u32) -> &[u8] {
        let a = addr as usize;
        &self.bytes[a..a + len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut m = HostMemory::new(64);
        m.write(10, &[42]);
        assert_eq!(m.read(10, 1), &[42]);
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
}
