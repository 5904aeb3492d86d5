//! The assembled LANai chip: CPU + SRAM + timers + CSR bus + DMA logic.
//!
//! [`LanaiChip`] is the "silicon" boundary between firmware (the MCP model
//! in `ftgm-mcp`) and the rest of the simulated machine. Interactions with
//! the outside world — host DMA, packet transmission, host interrupts — are
//! expressed as queued [`ChipEffect`]s that the simulation world drains and
//! turns into scheduled events, keeping this crate free of scheduler
//! dependencies.
//!
//! The CSR register map (accessible from LN32 firmware via `csrr`/`csrw`):
//!
//! | id   | register         | semantics |
//! |------|------------------|-----------|
//! | 0x00 | `ISR`            | read status; write-1-to-clear |
//! | 0x01 | `IMR`            | interrupt mask toward the host |
//! | 0x02 | `IT0_COUNT`      | write: arm (ticks); read: remaining |
//! | 0x03 | `IT1_COUNT`      | ditto |
//! | 0x04 | `IT2_COUNT`      | ditto |
//! | 0x10 | `TX_HDR_ADDR`    | packet-interface gather: header base |
//! | 0x11 | `TX_HDR_LEN`     | header length |
//! | 0x12 | `TX_PAY_ADDR`    | payload base |
//! | 0x13 | `TX_PAY_LEN`     | payload length |
//! | 0x14 | `TX_TRIGGER`     | write: emit the gathered frame |
//! | 0x20 | `HDMA_HOST_ADDR` | host DMA: host physical address |
//! | 0x21 | `HDMA_SRAM_ADDR` | SRAM address |
//! | 0x22 | `HDMA_LEN`       | length |
//! | 0x23 | `HDMA_CTRL`      | write 1: host→SRAM, 2: SRAM→host |
//! | 0x30 | `CKSUM_ADDR`     | checksum unit: region base |
//! | 0x31 | `CKSUM_LEN`      | write: compute over region |
//! | 0x32 | `CKSUM_RESULT`   | read result |

use std::collections::VecDeque;
use std::fmt;

use ftgm_sim::SimTime;

use crate::cpu::{Cpu, CsrBus};
use crate::sram::Sram;
use crate::timers::{IntervalTimer, TimerId};

/// CSR ids (see module docs).
pub mod csr {
    /// Interface status register.
    pub const ISR: u32 = 0x00;
    /// Interrupt mask register.
    pub const IMR: u32 = 0x01;
    /// Interval-timer count registers (IT0..IT2).
    pub const IT_COUNT: [u32; 3] = [0x02, 0x03, 0x04];
    /// TX gather: header base address.
    pub const TX_HDR_ADDR: u32 = 0x10;
    /// TX gather: header length.
    pub const TX_HDR_LEN: u32 = 0x11;
    /// TX gather: payload base address.
    pub const TX_PAY_ADDR: u32 = 0x12;
    /// TX gather: payload length.
    pub const TX_PAY_LEN: u32 = 0x13;
    /// TX trigger: any write emits the frame.
    pub const TX_TRIGGER: u32 = 0x14;
    /// Host-DMA host physical address.
    pub const HDMA_HOST_ADDR: u32 = 0x20;
    /// Host-DMA SRAM address.
    pub const HDMA_SRAM_ADDR: u32 = 0x21;
    /// Host-DMA length in bytes.
    pub const HDMA_LEN: u32 = 0x22;
    /// Host-DMA control/trigger.
    pub const HDMA_CTRL: u32 = 0x23;
    /// Checksum unit region base.
    pub const CKSUM_ADDR: u32 = 0x30;
    /// Checksum unit region length (write computes).
    pub const CKSUM_LEN: u32 = 0x31;
    /// Checksum unit result.
    pub const CKSUM_RESULT: u32 = 0x32;
}

/// ISR bit assignments.
pub mod isr {
    /// IT0 expired.
    pub const IT0: u32 = 1 << 0;
    /// IT1 expired (the watchdog bit).
    pub const IT1: u32 = 1 << 1;
    /// IT2 expired.
    pub const IT2: u32 = 1 << 2;
    /// Host DMA completed.
    pub const HDMA_DONE: u32 = 1 << 3;
    /// A frame is waiting in the receive queue.
    pub const RX_AVAIL: u32 = 1 << 4;
    /// The host rang the doorbell (posted work).
    pub const DOORBELL: u32 = 1 << 5;
}

/// Maximum bytes the packet interface will gather per trigger; larger
/// programmed lengths are clamped, as real hardware truncates at its
/// buffer size. (4 KB payload + generous header room.)
pub const MAX_TX_GATHER: u32 = 4096 + 256;

/// Direction of a host DMA transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostDmaDir {
    /// Host memory → SRAM (send staging).
    HostToSram,
    /// SRAM → host memory (receive delivery, event posting).
    SramToHost,
}

/// A host DMA request emitted by the chip for the world to execute with
/// EBUS/PCI timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostDmaReq {
    /// Direction of the transfer.
    pub dir: HostDmaDir,
    /// Host physical byte address.
    pub host_addr: u64,
    /// SRAM byte address.
    pub sram_addr: u32,
    /// Length in bytes.
    pub len: u32,
}

/// Bytes handed to the link by the packet interface.
#[derive(Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Raw frame bytes (header + payload as gathered from SRAM).
    pub bytes: Vec<u8>,
}

impl fmt::Debug for WireFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WireFrame({} bytes)", self.bytes.len())
    }
}

/// Side effects queued by the chip for the simulation world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChipEffect {
    /// `(ISR & IMR)` became non-zero: raise the host interrupt line.
    HostInterrupt,
    /// Firmware triggered a host DMA; the world models its timing and
    /// calls [`LanaiChip::host_dma_complete`] when done.
    StartHostDma(HostDmaReq),
    /// Firmware triggered a packet transmission.
    TxFrame(WireFrame),
}

/// Why the network processor is considered hung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HangCause {
    /// The CPU took a trap (illegal instruction, memory fault, wild jump).
    Trap,
    /// The CPU exceeded its instruction budget (runaway loop).
    RunawayLoop,
    /// A DMA/packet engine was programmed with an impossible descriptor
    /// and wedged; the processor stalls waiting on it forever.
    EngineWedged,
    /// A test or experiment forced the hang.
    Forced,
}

/// The LANai chip model.
///
/// The chip owns the CPU and SRAM; the firmware model calls
/// [`LanaiChip::run_routine`] to execute LN32 code against them. All
/// externally-visible activity lands in the effect queue.
#[derive(Debug)]
pub struct LanaiChip {
    /// Local memory.
    pub sram: Sram,
    /// The RISC core's register file.
    pub cpu: Cpu,
    timers: [IntervalTimer; 3],
    isr: u32,
    imr: u32,
    irq_line: bool,
    hung: Option<HangCause>,
    rx_queue: VecDeque<WireFrame>,
    hdma_busy: bool,
    hdma_pending: Option<HostDmaReq>,
    effects: Vec<ChipEffect>,
    // CSR latches.
    tx_hdr_addr: u32,
    tx_hdr_len: u32,
    tx_pay_addr: u32,
    tx_pay_len: u32,
    hdma_host_addr: u32,
    hdma_sram_addr: u32,
    hdma_len: u32,
    cksum_addr: u32,
    cksum_result: u32,
    // `now` latched for CSR handlers that need time (timer arm/read).
    csr_now: SimTime,
}

impl LanaiChip {
    /// Creates a chip with `sram_len` bytes of zeroed SRAM.
    pub fn new(sram_len: usize) -> LanaiChip {
        LanaiChip {
            sram: Sram::new(sram_len),
            cpu: Cpu::new(),
            timers: [IntervalTimer::new(); 3],
            isr: 0,
            imr: 0,
            irq_line: false,
            hung: None,
            rx_queue: VecDeque::new(),
            hdma_busy: false,
            hdma_pending: None,
            effects: Vec::new(),
            tx_hdr_addr: 0,
            tx_hdr_len: 0,
            tx_pay_addr: 0,
            tx_pay_len: 0,
            hdma_host_addr: 0,
            hdma_sram_addr: 0,
            hdma_len: 0,
            cksum_addr: 0,
            cksum_result: 0,
            csr_now: SimTime::ZERO,
        }
    }

    /// Drains queued effects into a fresh vector.
    pub fn take_effects(&mut self) -> Vec<ChipEffect> {
        std::mem::take(&mut self.effects)
    }

    /// Drains queued effects by trading queues with the caller: `buf`
    /// (which must be empty) comes back holding the effects, and its
    /// allocation becomes the chip's queue, so a caller that keeps one
    /// buffer around drains without allocating.
    pub fn swap_effects(&mut self, buf: &mut Vec<ChipEffect>) {
        debug_assert!(buf.is_empty(), "effects would be interleaved out of order");
        std::mem::swap(&mut self.effects, buf);
    }

    // ---- hang state ----------------------------------------------------

    /// Whether the network processor is hung and why.
    pub fn hang_cause(&self) -> Option<HangCause> {
        self.hung
    }

    /// `true` when the network processor is hung.
    pub fn is_hung(&self) -> bool {
        self.hung.is_some()
    }

    /// Marks the processor hung (trap, runaway loop, or forced by an
    /// experiment). Timers and interrupt logic keep operating.
    pub fn set_hung(&mut self, cause: HangCause) {
        self.hung = Some(cause);
    }

    // ---- firmware execution --------------------------------------------

    /// Runs the LN32 routine at `entry` with the current register file.
    ///
    /// On a trap or a blown instruction budget the chip transitions to the
    /// hung state, mirroring a crashed network processor. Returns the raw
    /// outcome so callers can account cycles.
    pub fn run_routine(
        &mut self,
        now: SimTime,
        entry: u32,
        max_steps: u64,
    ) -> crate::cpu::RunOutcome {
        use crate::cpu::RunOutcome;
        self.csr_now = now;
        // Split borrows: the CPU mutates SRAM while CSR accesses mutate the
        // chip's latches, so temporarily move both out of `self`. CSR
        // handlers that need memory (checksum, TX gather) receive the SRAM
        // by reference through the `CsrBus` trait.
        let mut cpu = self.cpu.clone();
        let mut sram = std::mem::replace(&mut self.sram, Sram::new(0));
        let outcome = cpu.run(&mut sram, self, entry, max_steps);
        self.sram = sram;
        self.cpu = cpu;
        match outcome {
            RunOutcome::Completed { .. } => {}
            RunOutcome::Trap { .. } => self.set_hung(HangCause::Trap),
            RunOutcome::OutOfGas { .. } => self.set_hung(HangCause::RunawayLoop),
        }
        outcome
    }

    // ---- interrupts ------------------------------------------------------

    /// Current ISR value.
    pub fn isr(&self) -> u32 {
        self.isr
    }

    /// Current IMR value.
    pub fn imr(&self) -> u32 {
        self.imr
    }

    /// Sets ISR bits (hardware events), re-evaluating the IRQ line.
    pub fn raise_isr(&mut self, bits: u32) {
        self.isr |= bits;
        self.update_irq();
    }

    /// Clears ISR bits (write-1-to-clear semantics).
    pub fn clear_isr(&mut self, bits: u32) {
        self.isr &= !bits;
        self.update_irq();
    }

    /// Sets the interrupt mask from the host/driver side.
    pub fn set_imr(&mut self, imr: u32) {
        self.imr = imr;
        self.update_irq();
    }

    fn update_irq(&mut self) {
        let level = (self.isr & self.imr) != 0;
        if level && !self.irq_line {
            self.effects.push(ChipEffect::HostInterrupt);
        }
        self.irq_line = level;
    }

    // ---- timers ----------------------------------------------------------

    /// Arms timer `id` to expire `ticks` hardware ticks from `now`.
    pub fn arm_timer(&mut self, id: TimerId, now: SimTime, ticks: u32) {
        self.timers[id.index()].arm_ticks(now, ticks);
    }

    /// The earliest pending timer deadline, if any — the world schedules a
    /// poll event at this instant.
    pub fn next_timer_deadline(&self) -> Option<SimTime> {
        self.timers.iter().filter_map(|t| t.deadline()).min()
    }

    /// Latches expired timers into the ISR. Returns the ISR bits of the
    /// timers that fired.
    pub fn poll_timers(&mut self, now: SimTime) -> u32 {
        let mut fired = 0;
        for id in TimerId::ALL {
            if self.timers[id.index()].take_expiry(now) {
                self.raise_isr(id.isr_bit());
                fired |= id.isr_bit();
            }
        }
        fired
    }

    /// Remaining tick count of a timer, as its CSR would read.
    pub fn timer_count(&self, id: TimerId, now: SimTime) -> u32 {
        self.timers[id.index()].count(now)
    }

    // ---- host-side (EBUS PIO) access -------------------------------------

    /// Host doorbell: the GM library rings this after posting work into
    /// SRAM queues.
    pub fn ring_doorbell(&mut self) {
        self.raise_isr(isr::DOORBELL);
    }

    // ---- packet interface -------------------------------------------------

    /// Delivers an incoming frame from the link into the RX queue.
    pub fn rx_deliver(&mut self, frame: WireFrame) {
        self.rx_queue.push_back(frame);
        self.raise_isr(isr::RX_AVAIL);
    }

    /// Pops the next received frame, clearing `RX_AVAIL` when the queue
    /// drains.
    pub fn rx_pop(&mut self) -> Option<WireFrame> {
        let frame = self.rx_queue.pop_front();
        if self.rx_queue.is_empty() {
            self.clear_isr(isr::RX_AVAIL);
        }
        frame
    }

    /// Number of frames waiting in the RX queue.
    pub fn rx_pending(&self) -> usize {
        self.rx_queue.len()
    }

    /// Gathers and emits a TX frame from the latched TX registers.
    ///
    /// An impossible descriptor — empty header, oversize gather, or a base
    /// address outside SRAM — **wedges the packet engine**: the interface
    /// hangs, exactly as real DMA engines do when firmware corruption
    /// feeds them garbage. (This is one of the paper's dominant hang
    /// mechanisms: most of `send_chunk`'s data flow ends up in these
    /// registers.)
    fn tx_trigger(&mut self, sram: &Sram) {
        let sram_len = sram.len() as u32;
        let bad = self.tx_hdr_len == 0
            || self.tx_hdr_len.saturating_add(self.tx_pay_len) > MAX_TX_GATHER
            || self.tx_hdr_addr.saturating_add(self.tx_hdr_len) > sram_len
            || (self.tx_pay_len > 0
                && self.tx_pay_addr.saturating_add(self.tx_pay_len) > sram_len);
        if bad {
            self.set_hung(HangCause::EngineWedged);
            return;
        }
        let mut bytes = Vec::with_capacity((self.tx_hdr_len + self.tx_pay_len) as usize);
        bytes.extend_from_slice(sram.read_bytes(self.tx_hdr_addr, self.tx_hdr_len as usize));
        if self.tx_pay_len > 0 {
            bytes.extend_from_slice(sram.read_bytes(self.tx_pay_addr, self.tx_pay_len as usize));
        }
        self.effects.push(ChipEffect::TxFrame(WireFrame { bytes }));
    }

    // ---- host DMA ----------------------------------------------------------

    /// `true` while a host DMA is outstanding.
    pub fn hdma_busy(&self) -> bool {
        self.hdma_busy
    }

    /// Starts a host DMA from explicit parameters (used by the Rust-level
    /// MCP model; firmware uses the CSR path).
    pub fn start_host_dma(&mut self, req: HostDmaReq) {
        assert!(!self.hdma_busy, "host DMA engine already busy");
        self.hdma_busy = true;
        self.effects.push(ChipEffect::StartHostDma(req));
    }

    /// Completion callback from the world once the EBUS transfer finishes.
    /// A queued (one-deep) descriptor auto-starts.
    pub fn host_dma_complete(&mut self) {
        assert!(self.hdma_busy, "spurious host DMA completion");
        self.hdma_busy = false;
        self.raise_isr(isr::HDMA_DONE);
        if let Some(req) = self.hdma_pending.take() {
            self.start_host_dma(req);
        }
    }

    // ---- reset ---------------------------------------------------------------

    /// Full card reset: clears hang state, ISR/IMR, queues, DMA engines and
    /// timers. SRAM contents are preserved (the FTD clears SRAM explicitly
    /// before reloading the MCP, as the paper describes).
    pub fn reset(&mut self) {
        self.hung = None;
        self.isr = 0;
        self.imr = 0;
        self.irq_line = false;
        self.rx_queue.clear();
        self.hdma_busy = false;
        self.hdma_pending = None;
        self.effects.clear();
        self.cpu = Cpu::new();
        for t in &mut self.timers {
            t.disarm();
        }
        self.tx_hdr_addr = 0;
        self.tx_hdr_len = 0;
        self.tx_pay_addr = 0;
        self.tx_pay_len = 0;
        self.hdma_host_addr = 0;
        self.hdma_sram_addr = 0;
        self.hdma_len = 0;
        self.cksum_addr = 0;
        self.cksum_result = 0;
    }
}

/// Maps an `IT_COUNT` CSR id to its timer, if `id` addresses one.
fn it_timer(id: u32) -> Option<TimerId> {
    TimerId::ALL
        .into_iter()
        .find(|t| csr::IT_COUNT[t.index()] == id)
}

impl CsrBus for LanaiChip {
    fn csr_read(&mut self, _sram: &Sram, id: u32) -> u32 {
        if let Some(t) = it_timer(id) {
            return self.timer_count(t, self.csr_now);
        }
        match id {
            csr::ISR => self.isr,
            csr::IMR => self.imr,
            csr::TX_HDR_ADDR => self.tx_hdr_addr,
            csr::TX_HDR_LEN => self.tx_hdr_len,
            csr::TX_PAY_ADDR => self.tx_pay_addr,
            csr::TX_PAY_LEN => self.tx_pay_len,
            csr::HDMA_HOST_ADDR => self.hdma_host_addr,
            csr::HDMA_SRAM_ADDR => self.hdma_sram_addr,
            csr::HDMA_LEN => self.hdma_len,
            csr::CKSUM_ADDR => self.cksum_addr,
            csr::CKSUM_RESULT => self.cksum_result,
            _ => 0,
        }
    }

    fn csr_write(&mut self, sram: &Sram, id: u32, value: u32) {
        if let Some(t) = it_timer(id) {
            self.arm_timer(t, self.csr_now, value);
            return;
        }
        match id {
            csr::ISR => self.clear_isr(value),
            csr::IMR => self.set_imr(value),
            csr::TX_HDR_ADDR => self.tx_hdr_addr = value,
            csr::TX_HDR_LEN => self.tx_hdr_len = value,
            csr::TX_PAY_ADDR => self.tx_pay_addr = value,
            csr::TX_PAY_LEN => self.tx_pay_len = value,
            csr::TX_TRIGGER => self.tx_trigger(sram),
            csr::HDMA_HOST_ADDR => self.hdma_host_addr = value,
            csr::HDMA_SRAM_ADDR => self.hdma_sram_addr = value,
            csr::HDMA_LEN => self.hdma_len = value,
            csr::HDMA_CTRL => {
                // A stray firmware write here is exactly the "fault
                // propagates to the host" path: the DMA fires at whatever
                // address the latches hold (an unpinned host address then
                // crashes the host). An SRAM address outside memory wedges
                // the engine instead. Busy-engine writes are dropped.
                if self.hdma_sram_addr.saturating_add(self.hdma_len) > sram.len() as u32 {
                    self.set_hung(HangCause::EngineWedged);
                } else {
                    let dir = if value & 2 != 0 {
                        HostDmaDir::SramToHost
                    } else {
                        HostDmaDir::HostToSram
                    };
                    let req = HostDmaReq {
                        dir,
                        host_addr: self.hdma_host_addr as u64,
                        sram_addr: self.hdma_sram_addr,
                        len: self.hdma_len,
                    };
                    if self.hdma_busy {
                        // One-deep descriptor queue, as on real engines.
                        self.hdma_pending = Some(req);
                    } else {
                        self.start_host_dma(req);
                    }
                }
            }
            csr::CKSUM_ADDR => self.cksum_addr = value,
            csr::CKSUM_LEN => {
                // An impossible descriptor (base outside SRAM, or a length
                // beyond any packet) wedges the unit, like the other
                // engines.
                let sram_len = sram.len() as u32;
                if self.cksum_addr >= sram_len
                    || value > MAX_TX_GATHER
                    || self.cksum_addr + value > sram_len
                {
                    self.set_hung(HangCause::EngineWedged);
                } else {
                    self.cksum_result = sram.checksum(self.cksum_addr, value);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::RETURN_ADDR;
    use crate::isa::Reg;

    fn chip_with(src: &str) -> (LanaiChip, u32) {
        let image = assemble(src).unwrap();
        let mut chip = LanaiChip::new(64 * 1024);
        chip.sram.write_bytes(0x1000, &image.bytes);
        chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
        (chip, 0x1000)
    }

    #[test]
    fn run_routine_completes() {
        let (mut chip, entry) = chip_with("addi r1, r0, 5\njr r15\n");
        let out = chip.run_routine(SimTime::ZERO, entry, 100);
        assert!(out.is_completed());
        assert!(!chip.is_hung());
        assert_eq!(chip.cpu.reg(Reg::new(1)), 5);
    }

    #[test]
    fn trap_marks_chip_hung() {
        let mut chip = LanaiChip::new(1024);
        // Address 0 holds zeros: illegal instruction.
        chip.run_routine(SimTime::ZERO, 0, 100);
        assert_eq!(chip.hang_cause(), Some(HangCause::Trap));
    }

    #[test]
    fn bit_flip_in_executed_code_is_seen_by_the_next_run() {
        use crate::cpu::{RunOutcome, TrapKind};
        const SRC: &str = "addi r2, r1, 5\naddi r2, r2, 1\njr r15\n";
        // The lowest opcode bit of the second instruction. LN32 opcodes
        // are pairwise at Hamming distance >= 2, so the flipped word has
        // an unassigned opcode.
        const BIT: u64 = (0x1000 + 4) * 8 + 26;
        // What the MCP does before every invocation: seed the argument
        // registers, run the routine.
        let run = |chip: &mut LanaiChip| {
            chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
            chip.cpu.set_reg(Reg::new(1), 7);
            chip.run_routine(SimTime::ZERO, 0x1000, 100)
        };
        let regs = |chip: &LanaiChip| -> Vec<u32> {
            (0..16).map(|i| chip.cpu.reg(Reg::new(i))).collect()
        };

        let (mut live, _) = chip_with(SRC);
        let clean = run(&mut live);
        assert_eq!(clean, RunOutcome::Completed { cycles: 4, steps: 3 });
        assert_eq!(live.cpu.reg(Reg::new(2)), 13);
        live.sram.flip_bit(BIT);
        let after_flip = run(&mut live);

        let (mut fresh, _) = chip_with(SRC);
        fresh.sram.flip_bit(BIT);
        let want = run(&mut fresh);
        assert_eq!(
            want,
            RunOutcome::Trap {
                kind: TrapKind::IllegalInstruction,
                pc: 0x1004,
                cycles: 1,
            }
        );
        assert_eq!(after_flip, want);
        assert_eq!(regs(&live), regs(&fresh));
        assert_eq!(live.sram, fresh.sram);
        assert_eq!(live.hang_cause(), Some(HangCause::Trap));
        assert_eq!(fresh.hang_cause(), Some(HangCause::Trap));

        // Flipping the same bit back restores the original behaviour.
        let (mut twice, _) = chip_with(SRC);
        assert_eq!(run(&mut twice), clean);
        twice.sram.flip_bit(BIT);
        twice.sram.flip_bit(BIT);
        assert_eq!(run(&mut twice), clean);
        assert_eq!(twice.hang_cause(), None);
    }

    #[test]
    fn runaway_loop_marks_chip_hung() {
        let (mut chip, entry) = chip_with("loop: beq r0, r0, loop\n");
        chip.run_routine(SimTime::ZERO, entry, 1000);
        assert_eq!(chip.hang_cause(), Some(HangCause::RunawayLoop));
    }

    #[test]
    fn irq_raised_when_unmasked_isr() {
        let mut chip = LanaiChip::new(1024);
        chip.set_imr(isr::IT1);
        chip.raise_isr(isr::IT1);
        assert_eq!(chip.take_effects(), vec![ChipEffect::HostInterrupt]);
        // Level-triggered: no second effect while the line stays high.
        chip.raise_isr(isr::IT1);
        assert!(chip.take_effects().is_empty());
    }

    #[test]
    fn swap_effects_keeps_the_callers_allocation_in_play() {
        let mut chip = LanaiChip::new(1024);
        chip.set_imr(isr::IT1);
        let mut buf = Vec::with_capacity(16);
        chip.raise_isr(isr::IT1);
        chip.swap_effects(&mut buf);
        assert_eq!(buf, vec![ChipEffect::HostInterrupt]);
        buf.clear();
        // The chip now queues into the 16-slot buffer it was handed.
        chip.clear_isr(isr::IT1);
        chip.raise_isr(isr::IT1);
        chip.swap_effects(&mut buf);
        assert_eq!(buf, vec![ChipEffect::HostInterrupt]);
        assert!(buf.capacity() >= 16);
    }

    #[test]
    fn masked_isr_raises_no_irq() {
        let mut chip = LanaiChip::new(1024);
        chip.raise_isr(isr::IT1);
        assert!(chip.take_effects().is_empty());
        // Unmasking later raises it.
        chip.set_imr(isr::IT1);
        assert_eq!(chip.take_effects(), vec![ChipEffect::HostInterrupt]);
    }

    #[test]
    fn timer_expiry_sets_isr() {
        let mut chip = LanaiChip::new(1024);
        chip.arm_timer(TimerId::It1, SimTime::ZERO, 4);
        assert_eq!(
            chip.next_timer_deadline(),
            Some(SimTime::from_nanos(2_000))
        );
        assert_eq!(chip.poll_timers(SimTime::from_nanos(1_999)), 0);
        let fired = chip.poll_timers(SimTime::from_nanos(2_000));
        assert_eq!(fired, isr::IT1);
        assert_ne!(chip.isr() & isr::IT1, 0);
    }

    #[test]
    fn timers_tick_while_hung() {
        let mut chip = LanaiChip::new(1024);
        chip.arm_timer(TimerId::It1, SimTime::ZERO, 2);
        chip.set_hung(HangCause::Forced);
        let fired = chip.poll_timers(SimTime::from_nanos(1_000));
        assert_eq!(fired, isr::IT1);
    }

    #[test]
    fn firmware_can_rearm_timer_via_csr() {
        let (mut chip, entry) = chip_with("addi r1, r0, 100\ncsrw 0x03, r1\njr r15\n");
        let out = chip.run_routine(SimTime::from_nanos(500), entry, 100);
        assert!(out.is_completed());
        assert_eq!(
            chip.next_timer_deadline(),
            Some(SimTime::from_nanos(500 + 100 * 500))
        );
    }

    #[test]
    fn rx_queue_roundtrip() {
        let mut chip = LanaiChip::new(1024);
        chip.rx_deliver(WireFrame { bytes: vec![1, 2] });
        chip.rx_deliver(WireFrame { bytes: vec![3] });
        assert_ne!(chip.isr() & isr::RX_AVAIL, 0);
        assert_eq!(chip.rx_pending(), 2);
        assert_eq!(chip.rx_pop().unwrap().bytes, vec![1, 2]);
        assert_ne!(chip.isr() & isr::RX_AVAIL, 0);
        assert_eq!(chip.rx_pop().unwrap().bytes, vec![3]);
        assert_eq!(chip.isr() & isr::RX_AVAIL, 0);
        assert!(chip.rx_pop().is_none());
    }

    #[test]
    fn doorbell_sets_isr() {
        let mut chip = LanaiChip::new(1024);
        chip.ring_doorbell();
        assert_ne!(chip.isr() & isr::DOORBELL, 0);
    }

    #[test]
    fn tx_gather_reads_sram_bytes() {
        let src = "li r1, 0x2000\ncsrw 0x10, r1\naddi r2, r0, 4\ncsrw 0x11, r2\nli r3, 0x3000\ncsrw 0x12, r3\naddi r4, r0, 2\ncsrw 0x13, r4\ncsrw 0x14, r0\njr r15\n";
        let (mut chip, entry) = chip_with(src);
        chip.sram.write_bytes(0x2000, &[0xAA, 0xBB, 0xCC, 0xDD]);
        chip.sram.write_bytes(0x3000, &[0x11, 0x22]);
        let out = chip.run_routine(SimTime::ZERO, entry, 1000);
        assert!(out.is_completed(), "{out:?}");
        let effects = chip.take_effects();
        assert_eq!(
            effects,
            vec![ChipEffect::TxFrame(WireFrame {
                bytes: vec![0xAA, 0xBB, 0xCC, 0xDD, 0x11, 0x22]
            })]
        );
    }

    #[test]
    fn tx_gather_out_of_range_wedges_engine() {
        let mut chip = LanaiChip::new(16);
        chip.sram.write_bytes(0, &[9; 16]);
        chip.tx_hdr_addr = 14;
        chip.tx_hdr_len = 4; // reaches past the end of SRAM
        let sram = chip.sram.clone();
        chip.tx_trigger(&sram);
        assert!(chip.take_effects().is_empty());
        assert_eq!(chip.hang_cause(), Some(HangCause::EngineWedged));
    }

    #[test]
    fn tx_zero_header_wedges_engine() {
        let mut chip = LanaiChip::new(1024);
        chip.tx_hdr_addr = 0;
        chip.tx_hdr_len = 0;
        let sram = chip.sram.clone();
        chip.tx_trigger(&sram);
        assert_eq!(chip.hang_cause(), Some(HangCause::EngineWedged));
    }

    #[test]
    fn host_dma_lifecycle() {
        let mut chip = LanaiChip::new(1024);
        chip.start_host_dma(HostDmaReq {
            dir: HostDmaDir::HostToSram,
            host_addr: 0x10000,
            sram_addr: 0x100,
            len: 64,
        });
        assert!(chip.hdma_busy());
        let effects = chip.take_effects();
        assert!(matches!(effects[0], ChipEffect::StartHostDma(_)));
        chip.host_dma_complete();
        assert!(!chip.hdma_busy());
        assert_ne!(chip.isr() & isr::HDMA_DONE, 0);
    }

    #[test]
    fn queued_descriptor_autostarts_after_completion() {
        let mut chip = LanaiChip::new(4096);
        chip.start_host_dma(HostDmaReq {
            dir: HostDmaDir::HostToSram,
            host_addr: 0x1000,
            sram_addr: 0,
            len: 8,
        });
        chip.take_effects();
        // Firmware queues a second descriptor while the engine is busy.
        let sram = chip.sram.clone();
        chip.csr_write(&sram, csr::HDMA_HOST_ADDR, 0x2000);
        chip.csr_write(&sram, csr::HDMA_SRAM_ADDR, 0x100);
        chip.csr_write(&sram, csr::HDMA_LEN, 16);
        chip.csr_write(&sram, csr::HDMA_CTRL, 2);
        assert!(chip.take_effects().is_empty(), "queued, not started");
        chip.host_dma_complete();
        let effects = chip.take_effects();
        assert!(effects.iter().any(|e| matches!(
            e,
            ChipEffect::StartHostDma(HostDmaReq { host_addr: 0x2000, .. })
        )));
        assert!(chip.hdma_busy());
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_dma_start_panics() {
        let mut chip = LanaiChip::new(1024);
        let req = HostDmaReq {
            dir: HostDmaDir::HostToSram,
            host_addr: 0,
            sram_addr: 0,
            len: 1,
        };
        chip.start_host_dma(req);
        chip.start_host_dma(req);
    }

    #[test]
    fn firmware_hdma_csr_path() {
        let src = "li r1, 0x4000\ncsrw 0x20, r1\nli r2, 0x200\ncsrw 0x21, r2\naddi r3, r0, 64\ncsrw 0x22, r3\naddi r4, r0, 2\ncsrw 0x23, r4\njr r15\n";
        let (mut chip, entry) = chip_with(src);
        let out = chip.run_routine(SimTime::ZERO, entry, 1000);
        assert!(out.is_completed());
        let effects = chip.take_effects();
        assert_eq!(
            effects,
            vec![ChipEffect::StartHostDma(HostDmaReq {
                dir: HostDmaDir::SramToHost,
                host_addr: 0x4000,
                sram_addr: 0x200,
                len: 64,
            })]
        );
    }

    #[test]
    fn checksum_unit_via_csr() {
        let src = "li r1, 0x2000\ncsrw 0x30, r1\naddi r2, r0, 8\ncsrw 0x31, r2\ncsrr r3, 0x32\njr r15\n";
        let (mut chip, entry) = chip_with(src);
        chip.sram.write_u32(0x2000, 5).unwrap();
        chip.sram.write_u32(0x2004, 7).unwrap();
        let out = chip.run_routine(SimTime::ZERO, entry, 1000);
        assert!(out.is_completed());
        assert_eq!(chip.cpu.reg(Reg::new(3)), 12);
    }

    #[test]
    fn write1_clears_isr_from_firmware() {
        let (mut chip, entry) = chip_with("addi r1, r0, 0x20\ncsrw 0x00, r1\njr r15\n");
        chip.ring_doorbell();
        assert_ne!(chip.isr() & isr::DOORBELL, 0);
        chip.run_routine(SimTime::ZERO, entry, 100);
        assert_eq!(chip.isr() & isr::DOORBELL, 0);
    }

    #[test]
    fn reset_clears_state_preserves_sram() {
        let mut chip = LanaiChip::new(1024);
        chip.sram.write_u32(0, 0x1234).unwrap();
        chip.set_hung(HangCause::Forced);
        chip.raise_isr(isr::RX_AVAIL);
        chip.rx_deliver(WireFrame { bytes: vec![1] });
        chip.arm_timer(TimerId::It0, SimTime::ZERO, 5);
        chip.reset();
        assert!(!chip.is_hung());
        assert_eq!(chip.isr(), 0);
        assert_eq!(chip.rx_pending(), 0);
        assert_eq!(chip.next_timer_deadline(), None);
        assert_eq!(chip.sram.read_u32(0).unwrap(), 0x1234);
    }
}
