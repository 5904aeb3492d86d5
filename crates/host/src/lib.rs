#![warn(missing_docs)]

//! The host system model: everything on the PC side of the PCI slot.
//!
//! The paper's testbed was a pair of Pentium-III machines with 33 MHz PCI
//! and RedHat 7.2. This crate models the pieces of that machine the
//! experiments exercise:
//!
//! * [`memory`] — host RAM with *pinned, DMA-able* regions. GM's zero-copy
//!   path requires user buffers to be pinned; a NIC DMA that hits an
//!   unpinned address is exactly how an interface fault propagates into a
//!   **host crash** (Table 1's rarest-but-worst category).
//! * [`pages`] — the page hash table mapping `(port, virtual page)` to DMA
//!   addresses. It lives in host memory, the MCP caches entries, and the
//!   FTD re-registers it with the card during recovery.
//! * [`pci`] — the shared 33 MHz/64-bit PCI bus: one resource per host that
//!   all DMA (send staging, receive delivery, event posting) contends for.
//!   The paper's ~92 MB/s bandwidth asymptote is a PCI artifact, so this is
//!   the component that reproduces Figure 7's ceiling.
//! * [`process`] — the minimal process table: user processes and the FTD
//!   daemon sleep and get woken by the driver.
//! * [`driver`] — the GM device driver's mechanical duties with their
//!   costs: loading the MCP over the EBUS (the dominant ~500 ms of the
//!   FTD's recovery budget), card reset, interrupt bookkeeping.
//! * [`accounting`] — host-CPU time accounting, the source of Table 2's
//!   "host utilization" rows.
//!
//! The aggregate per-node façade is [`HostSystem`].

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod accounting;
pub mod driver;
pub mod memory;
pub mod pages;
pub mod pci;
pub mod process;

pub use accounting::{CpuAccounting, CpuCost};
pub use driver::{Driver, DriverParams};
pub use memory::{CrashReason, DmaRegion, HostMemory};
pub use pages::PageHashTable;
pub use pci::{PciBus, PciParams};
pub use process::{Pid, ProcessState, ProcessTable};

/// One complete host: memory, bus, processes, driver and accounting.
///
/// The simulation world owns one `HostSystem` per node and wires its pieces
/// to the NIC model.
#[derive(Debug)]
pub struct HostSystem {
    /// Host RAM and pinned-region registry.
    pub mem: HostMemory,
    /// The page hash table (host copy; the MCP caches entries).
    pub pages: PageHashTable,
    /// The shared PCI bus.
    pub pci: PciBus,
    /// Processes (applications and the FTD).
    pub procs: ProcessTable,
    /// The GM device driver.
    pub driver: Driver,
    /// Host-CPU accounting for Table 2.
    pub cpu: CpuAccounting,
}

impl HostSystem {
    /// Creates a host with `mem_len` bytes of RAM and default parameters.
    pub fn new(mem_len: usize) -> HostSystem {
        HostSystem {
            mem: HostMemory::new(mem_len),
            pages: PageHashTable::new(),
            pci: PciBus::new(PciParams::default()),
            procs: ProcessTable::new(),
            driver: Driver::new(DriverParams::default()),
            cpu: CpuAccounting::new(),
        }
    }

    /// `true` once a fault has crashed this host.
    pub fn crashed(&self) -> bool {
        self.mem.crash_reason().is_some()
    }
}
