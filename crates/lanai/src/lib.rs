#![warn(missing_docs)]

//! A model of the Myrinet **LANai** network processor.
//!
//! The LANai is the heart of the Myrinet host interface card: a 32-bit RISC
//! core with fast local SRAM, three interval timers, DMA logic toward the
//! host (EBUS) and toward the network (packet interface), and interrupt
//! status/mask registers. The Myrinet Control Program (MCP) runs on it.
//!
//! The DSN 2003 FTGM paper injects transient faults by flipping bits in the
//! MCP's `send_chunk` code while it handles traffic. To reproduce those
//! experiments without hardware this crate implements:
//!
//! * [`isa`] — **LN32**, a small 32-bit RISC instruction set in the spirit
//!   of the LANai core (fixed 32-bit encodings, 16 registers),
//! * [`asm`] — a two-pass assembler so firmware routines are written as
//!   assembly text and assembled into SRAM bytes (the bytes that fault
//!   injection flips),
//! * [`cpu`] — the one LN32 interpreter: cycle-counting, fetching every
//!   instruction word from SRAM as it executes it (so a flipped or
//!   overwritten word is seen at the very next fetch), with a trap model
//!   (illegal instruction, misaligned or out-of-range access) and an
//!   instruction budget that turns runaway loops into detectable hangs,
//! * [`sram`] — the byte-addressable local memory,
//! * [`timers`] — the three interval timers (IT0..IT2) that the paper's
//!   software watchdog builds on,
//! * [`chip`] — the assembled [`chip::LanaiChip`]: CSR bus, ISR/IMR
//!   interrupt logic, host-DMA engine, packet-interface TX/RX and the
//!   checksum unit, all surfaced to the simulation through
//!   [`chip::ChipEffect`]s.
//!
//! Nothing in this crate knows about GM, the MCP's protocol logic, or the
//! fabric: it is strictly the "silicon".

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod asm;
pub mod chip;
pub mod cpu;
pub mod disasm;
pub mod isa;
pub mod sram;
pub mod timers;

pub use asm::{assemble, AsmError};
pub use disasm::{disassemble, locate_bit, BitLocus, FieldKind};
pub use chip::{ChipEffect, HostDmaDir, HostDmaReq, LanaiChip, WireFrame};
pub use cpu::{Cpu, RunOutcome, TrapKind};
pub use isa::{Instr, Opcode, Reg};
pub use sram::Sram;
pub use timers::{IntervalTimer, TimerId};
