//! The page hash table.
//!
//! GM keeps a hash table mapping `(port, virtual page)` → DMA address in
//! *host* memory (it is too big for SRAM); the MCP caches entries on the
//! card. Because the authoritative copy lives on the host, the FTD can
//! simply re-register it with a freshly reloaded MCP — the paper calls this
//! out as the first restore step of recovery.

/// The table's one hash map, named once.
#[expect(
    clippy::disallowed_types,
    reason = "lookups, retain and len only: no iteration order is ever visible"
)]
type Entries = std::collections::HashMap<(u8, u64), u64>;

/// Page size used for the virtual↔DMA mapping.
pub const PAGE_SIZE: u64 = 4096;

/// The host-resident `(port, vpage)` → DMA address table.
///
/// # Example
///
/// ```
/// use ftgm_host::PageHashTable;
///
/// let mut t = PageHashTable::new();
/// t.map(0, 0x1000, 0x9000);
/// assert_eq!(t.lookup(0, 0x1234), Some(0x9234));
/// assert_eq!(t.lookup(1, 0x1234), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageHashTable {
    entries: Entries,
}

impl PageHashTable {
    /// Creates an empty table.
    pub fn new() -> PageHashTable {
        PageHashTable::default()
    }

    /// Maps the page containing virtual address `va` for `port` to the DMA
    /// page at `pa`. Addresses are truncated to page boundaries.
    pub fn map(&mut self, port: u8, va: u64, pa: u64) {
        self.entries
            .insert((port, va / PAGE_SIZE), pa & !(PAGE_SIZE - 1));
    }

    /// Maps a whole region page by page.
    pub fn map_region(&mut self, port: u8, va: u64, pa: u64, len: u64) {
        let first = va / PAGE_SIZE;
        let last = (va + len.max(1) - 1) / PAGE_SIZE;
        for (i, page) in (first..=last).enumerate() {
            self.entries
                .insert((port, page), (pa & !(PAGE_SIZE - 1)) + i as u64 * PAGE_SIZE);
        }
    }

    /// Translates a virtual address for `port`, or `None` if unmapped.
    pub fn lookup(&self, port: u8, va: u64) -> Option<u64> {
        self.entries
            .get(&(port, va / PAGE_SIZE))
            .map(|pa| pa + va % PAGE_SIZE)
    }

    /// Drops every mapping for a port (port close).
    pub fn unmap_port(&mut self, port: u8) {
        self.entries.retain(|(p, _), _| *p != port);
    }

    /// Number of mapped pages across all ports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_lookup_offsets() {
        let mut t = PageHashTable::new();
        t.map(2, 0x5000, 0xA000);
        assert_eq!(t.lookup(2, 0x5000), Some(0xA000));
        assert_eq!(t.lookup(2, 0x5FFF), Some(0xAFFF));
        assert_eq!(t.lookup(2, 0x6000), None);
    }

    #[test]
    fn ports_are_isolated() {
        let mut t = PageHashTable::new();
        t.map(0, 0x1000, 0x8000);
        assert_eq!(t.lookup(3, 0x1000), None);
    }

    #[test]
    fn map_region_spans_pages() {
        let mut t = PageHashTable::new();
        t.map_region(1, 0x1000, 0x20000, 3 * PAGE_SIZE);
        assert_eq!(t.lookup(1, 0x1000), Some(0x20000));
        assert_eq!(t.lookup(1, 0x2000), Some(0x21000));
        assert_eq!(t.lookup(1, 0x3ABC), Some(0x22ABC));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn map_region_partial_last_page() {
        let mut t = PageHashTable::new();
        t.map_region(1, 0, 0x9000, PAGE_SIZE + 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unmap_port_clears_only_that_port() {
        let mut t = PageHashTable::new();
        t.map(0, 0, 0x1000);
        t.map(1, 0, 0x2000);
        t.unmap_port(0);
        assert!(t.lookup(0, 0).is_none());
        assert!(t.lookup(1, 0).is_some());
    }
}
