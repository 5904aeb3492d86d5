//! The LN32 interpreter.
//!
//! [`Cpu::run`] executes a firmware routine to completion, to a trap, or to
//! exhaustion of an instruction budget. The budget matters: a bit flip that
//! corrupts a loop bound turns into [`RunOutcome::OutOfGas`], which the chip
//! treats exactly like a hung network processor — the dispatch loop stops
//! and only the interval timers keep ticking, which is what the paper's
//! watchdog detects.
//!
//! Control/status registers are accessed through the [`CsrBus`] trait so the
//! CPU core stays independent of the chip model (and trivially testable).

use crate::isa::{Instr, Opcode, Reg};
use crate::sram::Sram;

/// Jumping to this address signals clean routine completion.
///
/// The MCP model seeds `r15` with this sentinel before invoking a routine;
/// `jr r15` then "returns to the dispatch loop". The value is expressible by
/// the `li` pseudo-instruction and far outside any real SRAM.
pub const RETURN_ADDR: u32 = 0x07FF_FFFC;

/// Access to the chip's control/status registers from firmware.
///
/// Implemented by [`crate::chip::LanaiChip`]; tests use lightweight mocks.
pub trait CsrBus {
    /// Reads CSR `id`. Unknown ids read as zero on real hardware; models
    /// should do the same. `sram` is the memory the routine is executing
    /// against — units like the checksum engine read through it.
    fn csr_read(&mut self, sram: &Sram, id: u32) -> u32;
    /// Writes CSR `id`. Writes to trigger registers have side effects.
    fn csr_write(&mut self, sram: &Sram, id: u32, value: u32);
}

/// Why execution stopped abnormally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// The opcode field decoded to an unassigned encoding.
    IllegalInstruction,
    /// A data access was out of range or misaligned.
    MemFault {
        /// The faulting data address.
        addr: u32,
        /// Whether the fault was an alignment fault.
        misaligned: bool,
    },
    /// The program counter left SRAM (wild jump) or became misaligned.
    PcOutOfRange,
}

/// The result of running a routine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The routine returned through [`RETURN_ADDR`].
    Completed {
        /// Consumed clock cycles (instructions are 1–2 cycles each).
        cycles: u64,
        /// Retired instruction count.
        steps: u64,
    },
    /// The processor trapped; on the real chip this stops the MCP.
    Trap {
        /// The trap cause.
        kind: TrapKind,
        /// Address of the faulting instruction.
        pc: u32,
        /// Cycles consumed up to the trap.
        cycles: u64,
    },
    /// The instruction budget ran out — the processor is looping.
    OutOfGas {
        /// Where execution was when the budget expired.
        pc: u32,
        /// Cycles consumed (the full budget's worth).
        cycles: u64,
    },
}

impl RunOutcome {
    /// `true` when the routine completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// Cycles consumed regardless of outcome.
    pub fn cycles(&self) -> u64 {
        match *self {
            RunOutcome::Completed { cycles, .. }
            | RunOutcome::Trap { cycles, .. }
            | RunOutcome::OutOfGas { cycles, .. } => cycles,
        }
    }
}

/// The LN32 register file and execution engine.
///
/// # Example
///
/// ```
/// use ftgm_lanai::asm::assemble;
/// use ftgm_lanai::cpu::{Cpu, NullBus, RETURN_ADDR};
/// use ftgm_lanai::sram::Sram;
///
/// let image = assemble("addi r1, r0, 40\naddi r1, r1, 2\njr r15\n").unwrap();
/// let mut sram = Sram::new(1024);
/// sram.write_bytes(0, &image.bytes);
/// let mut cpu = Cpu::new();
/// cpu.set_reg(ftgm_lanai::isa::Reg::LINK, RETURN_ADDR);
/// let out = cpu.run(&mut sram, &mut NullBus, 0, 1_000);
/// assert!(out.is_completed());
/// assert_eq!(cpu.reg(ftgm_lanai::isa::Reg::new(1)), 42);
/// ```
#[derive(Clone, Debug)]
pub struct Cpu {
    regs: [u32; 16],
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers zero.
    pub fn new() -> Cpu {
        Cpu { regs: [0; 16] }
    }

    /// Reads a register (`r0` is always zero).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register; writes to `r0` are discarded.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Runs from `entry` until return, trap, or `max_steps` instructions.
    ///
    /// The register file persists across calls so the invoker can pass
    /// arguments in registers and read results back out.
    pub fn run(
        &mut self,
        sram: &mut Sram,
        bus: &mut dyn CsrBus,
        entry: u32,
        max_steps: u64,
    ) -> RunOutcome {
        let mut pc = entry;
        let mut cycles: u64 = 0;
        let mut steps: u64 = 0;

        loop {
            if steps >= max_steps {
                return RunOutcome::OutOfGas { pc, cycles };
            }
            if pc == RETURN_ADDR {
                return RunOutcome::Completed { cycles, steps };
            }
            // The fetch is a checked load like any other: a misaligned PC
            // or one outside SRAM (a wild jump) traps instead of panicking.
            let Ok(word) = sram.read_u32(pc) else {
                return RunOutcome::Trap {
                    kind: TrapKind::PcOutOfRange,
                    pc,
                    cycles,
                };
            };
            let Some(i) = Instr::decode(word) else {
                return RunOutcome::Trap {
                    kind: TrapKind::IllegalInstruction,
                    pc,
                    cycles,
                };
            };
            steps += 1;
            let mut next_pc = pc.wrapping_add(4);
            match self.step(&i, sram, bus, pc, &mut next_pc, &mut cycles) {
                Ok(()) => {}
                Err(kind) => {
                    return RunOutcome::Trap { kind, pc, cycles };
                }
            }
            pc = next_pc;
        }
    }

    fn step(
        &mut self,
        i: &Instr,
        sram: &mut Sram,
        bus: &mut dyn CsrBus,
        pc: u32,
        next_pc: &mut u32,
        cycles: &mut u64,
    ) -> Result<(), TrapKind> {
        use Opcode::*;
        let rs1 = self.reg(i.rs1);
        let rs2 = self.reg(i.rs2);
        let imm = i.imm;
        let branch_target = |pc: u32| pc.wrapping_add(4).wrapping_add((imm as u32) << 2);
        match i.op {
            Add => {
                self.set_reg(i.rd, rs1.wrapping_add(rs2));
                *cycles += 1;
            }
            Sub => {
                self.set_reg(i.rd, rs1.wrapping_sub(rs2));
                *cycles += 1;
            }
            And => {
                self.set_reg(i.rd, rs1 & rs2);
                *cycles += 1;
            }
            Or => {
                self.set_reg(i.rd, rs1 | rs2);
                *cycles += 1;
            }
            Xor => {
                self.set_reg(i.rd, rs1 ^ rs2);
                *cycles += 1;
            }
            Sll => {
                self.set_reg(i.rd, rs1.wrapping_shl(rs2 & 31));
                *cycles += 1;
            }
            Srl => {
                self.set_reg(i.rd, rs1.wrapping_shr(rs2 & 31));
                *cycles += 1;
            }
            Addi => {
                self.set_reg(i.rd, rs1.wrapping_add(imm as u32));
                *cycles += 1;
            }
            Andi => {
                self.set_reg(i.rd, rs1 & imm as u32);
                *cycles += 1;
            }
            Ori => {
                self.set_reg(i.rd, rs1 | imm as u32);
                *cycles += 1;
            }
            Xori => {
                self.set_reg(i.rd, rs1 ^ imm as u32);
                *cycles += 1;
            }
            Lui => {
                self.set_reg(i.rd, ((imm as u32) & 0x3FFF) << 13);
                *cycles += 1;
            }
            Lb => {
                let v = mem(sram.read_u8(rs1.wrapping_add(imm as u32)))?;
                self.set_reg(i.rd, v as u32);
                *cycles += 2;
            }
            Lh => {
                let v = mem(sram.read_u16(rs1.wrapping_add(imm as u32)))?;
                self.set_reg(i.rd, v as u32);
                *cycles += 2;
            }
            Lw => {
                let v = mem(sram.read_u32(rs1.wrapping_add(imm as u32)))?;
                self.set_reg(i.rd, v);
                *cycles += 2;
            }
            Sb => {
                mem(sram.write_u8(rs1.wrapping_add(imm as u32), rs2 as u8))?;
                *cycles += 2;
            }
            Sh => {
                mem(sram.write_u16(rs1.wrapping_add(imm as u32), rs2 as u16))?;
                *cycles += 2;
            }
            Sw => {
                mem(sram.write_u32(rs1.wrapping_add(imm as u32), rs2))?;
                *cycles += 2;
            }
            Beq => {
                *cycles += 1;
                if rs1 == rs2 {
                    *next_pc = branch_target(pc);
                    *cycles += 1;
                }
            }
            Bne => {
                *cycles += 1;
                if rs1 != rs2 {
                    *next_pc = branch_target(pc);
                    *cycles += 1;
                }
            }
            Bltu => {
                *cycles += 1;
                if rs1 < rs2 {
                    *next_pc = branch_target(pc);
                    *cycles += 1;
                }
            }
            Bgeu => {
                *cycles += 1;
                if rs1 >= rs2 {
                    *next_pc = branch_target(pc);
                    *cycles += 1;
                }
            }
            Jal => {
                self.set_reg(i.rd, pc.wrapping_add(4));
                *next_pc = branch_target(pc);
                *cycles += 2;
            }
            Jr => {
                *next_pc = rs1;
                *cycles += 2;
            }
            Csrr => {
                let v = bus.csr_read(sram, imm as u32 & 0x3FFF);
                self.set_reg(i.rd, v);
                *cycles += 2;
            }
            Csrw => {
                bus.csr_write(sram, imm as u32 & 0x3FFF, rs2);
                *cycles += 2;
            }
            Nop => {
                *cycles += 1;
            }
        }
        Ok(())
    }
}

fn mem<T>(r: crate::sram::MemResult<T>) -> Result<T, TrapKind> {
    r.map_err(|f| TrapKind::MemFault {
        addr: f.addr,
        misaligned: f.misaligned,
    })
}

/// A [`CsrBus`] that ignores writes and reads zero; for tests and examples.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullBus;

impl CsrBus for NullBus {
    fn csr_read(&mut self, _sram: &Sram, _id: u32) -> u32 {
        0
    }
    fn csr_write(&mut self, _sram: &Sram, _id: u32, _value: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_src(src: &str, setup: impl FnOnce(&mut Cpu, &mut Sram)) -> (Cpu, Sram, RunOutcome) {
        let image = assemble(src).expect("assembles");
        let mut sram = Sram::new(4096);
        sram.write_bytes(0, &image.bytes);
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::LINK, RETURN_ADDR);
        setup(&mut cpu, &mut sram);
        let out = cpu.run(&mut sram, &mut NullBus, 0, 100_000);
        (cpu, sram, out)
    }

    #[test]
    fn arithmetic_and_return() {
        let (cpu, _, out) = run_src("addi r1, r0, 40\naddi r2, r1, 2\nadd r3, r1, r2\njr r15\n", |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(3)), 82);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (cpu, _, out) = run_src("addi r0, r0, 7\nadd r1, r0, r0\njr r15\n", |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::ZERO), 0);
        assert_eq!(cpu.reg(Reg::new(1)), 0);
    }

    #[test]
    fn logic_ops() {
        let src = "addi r1, r0, 0xF0\naddi r2, r0, 0xFF\nand r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2\njr r15\n";
        let (cpu, _, out) = run_src(src, |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(3)), 0xF0);
        assert_eq!(cpu.reg(Reg::new(4)), 0xFF);
        assert_eq!(cpu.reg(Reg::new(5)), 0x0F);
    }

    #[test]
    fn shifts() {
        let src = "addi r1, r0, 1\naddi r2, r0, 4\nsll r3, r1, r2\nsrl r4, r3, r2\njr r15\n";
        let (cpu, _, out) = run_src(src, |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(3)), 16);
        assert_eq!(cpu.reg(Reg::new(4)), 1);
    }

    #[test]
    fn lui_shift_13() {
        let (cpu, _, out) = run_src("lui r1, 1\njr r15\n", |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(1)), 1 << 13);
    }

    #[test]
    fn li_pseudo_loads_constant() {
        let (cpu, _, out) = run_src("li r1, 0x123456\njr r15\n", |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(1)), 0x123456);
    }

    #[test]
    fn loads_and_stores() {
        let src = "li r1, 0x200\nli r2, 0x1234\nsw r2, (r1)\nlw r3, (r1)\nlh r4, (r1)\nlb r5, 1(r1)\nsb r5, 8(r1)\nlb r6, 8(r1)\njr r15\n";
        let (cpu, _, out) = run_src(src, |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(3)), 0x1234);
        assert_eq!(cpu.reg(Reg::new(4)), 0x1234);
        assert_eq!(cpu.reg(Reg::new(5)), 0x12);
        assert_eq!(cpu.reg(Reg::new(6)), 0x12);
    }

    #[test]
    fn loop_counts_down() {
        let src = "addi r1, r0, 10\naddi r2, r0, 0\nloop: addi r2, r2, 3\naddi r1, r1, -1\nbne r1, r0, loop\njr r15\n";
        let (cpu, _, out) = run_src(src, |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(2)), 30);
    }

    #[test]
    fn unsigned_branches() {
        // 0xFFFFFFFF as unsigned is large: bltu 1, -1 taken.
        let src = "addi r1, r0, 1\naddi r2, r0, -1\nbltu r1, r2, yes\naddi r3, r0, 0\njr r15\nyes: addi r3, r0, 1\njr r15\n";
        let (cpu, _, out) = run_src(src, |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(3)), 1);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let src = "jal r14, sub\naddi r2, r0, 5\njr r15\nsub: addi r1, r0, 9\njr r14\n";
        let (cpu, _, out) = run_src(src, |_, _| {});
        assert!(out.is_completed());
        assert_eq!(cpu.reg(Reg::new(1)), 9);
        assert_eq!(cpu.reg(Reg::new(2)), 5);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut sram = Sram::new(64);
        sram.write_u32(0, 0).unwrap(); // all-zero word: unassigned opcode
        let mut cpu = Cpu::new();
        let out = cpu.run(&mut sram, &mut NullBus, 0, 100);
        assert!(matches!(
            out,
            RunOutcome::Trap {
                kind: TrapKind::IllegalInstruction,
                pc: 0,
                ..
            }
        ));
    }

    /// `sw r1, 4(r0)` overwrites the word right behind itself with `r1`.
    fn store_over_next_instruction(new_word: u32) -> (Cpu, Sram, RunOutcome) {
        run_src("sw r1, 4(r0)\naddi r2, r0, 1\njr r15\n", |cpu, _| {
            cpu.set_reg(Reg::new(1), new_word)
        })
    }

    #[test]
    fn store_over_the_next_instruction_is_fetched_as_stored() {
        let new = Instr::new(Opcode::Addi, Reg::new(2), Reg::ZERO, Reg::ZERO, 77).encode();
        let (cpu, sram, out) = store_over_next_instruction(new);
        assert_eq!(sram.read_u32(4).unwrap(), new);
        assert_eq!(cpu.reg(Reg::new(2)), 77, "the overwritten addi must not run");
        assert_eq!(out, RunOutcome::Completed { cycles: 2 + 1 + 2, steps: 3 });
    }

    #[test]
    fn store_of_an_unassigned_opcode_traps_at_the_next_fetch() {
        let (cpu, _, out) = store_over_next_instruction(0);
        assert_eq!(
            out,
            RunOutcome::Trap {
                kind: TrapKind::IllegalInstruction,
                pc: 4,
                cycles: 2, // the store, and nothing after it
            }
        );
        assert_eq!(cpu.reg(Reg::new(2)), 0);
    }

    #[test]
    fn wild_jump_traps() {
        let (_, _, out) = run_src("li r1, 0x400000\njr r1\n", |_, _| {});
        assert!(matches!(
            out,
            RunOutcome::Trap {
                kind: TrapKind::PcOutOfRange,
                ..
            }
        ));
    }

    #[test]
    fn misaligned_pc_traps() {
        let (_, _, out) = run_src("addi r1, r0, 6\njr r1\n", |_, _| {});
        assert_eq!(
            out,
            RunOutcome::Trap {
                kind: TrapKind::PcOutOfRange,
                pc: 6,
                cycles: 1 + 2,
            }
        );
    }

    #[test]
    fn misaligned_load_traps() {
        let (_, _, out) = run_src("addi r1, r0, 2\nlw r2, (r1)\njr r15\n", |_, _| {});
        assert!(matches!(
            out,
            RunOutcome::Trap {
                kind: TrapKind::MemFault {
                    misaligned: true,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_store_traps() {
        let (_, _, out) = run_src("li r1, 0x100000\nsw r0, (r1)\njr r15\n", |_, _| {});
        assert!(matches!(
            out,
            RunOutcome::Trap {
                kind: TrapKind::MemFault {
                    misaligned: false,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn infinite_loop_runs_out_of_gas() {
        let (_, _, out) = run_src("loop: beq r0, r0, loop\n", |_, _| {});
        assert!(matches!(out, RunOutcome::OutOfGas { .. }));
    }

    #[test]
    fn cycle_accounting_charges_memory_ops_more() {
        let (_, _, out1) = run_src("nop\njr r15\n", |_, _| {});
        let (_, _, out2) = run_src("lw r1, 0(r0)\njr r15\n", |_, _| {});
        assert_eq!(out1.cycles(), 1 + 2);
        assert_eq!(out2.cycles(), 2 + 2);
    }

    #[test]
    fn csr_bus_interaction() {
        struct Recorder {
            writes: Vec<(u32, u32)>,
        }
        impl CsrBus for Recorder {
            fn csr_read(&mut self, _sram: &Sram, id: u32) -> u32 {
                id + 100
            }
            fn csr_write(&mut self, _sram: &Sram, id: u32, value: u32) {
                self.writes.push((id, value));
            }
        }
        let image = assemble("csrr r1, 0x10\ncsrw 0x12, r1\njr r15\n").unwrap();
        let mut sram = Sram::new(256);
        sram.write_bytes(0, &image.bytes);
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::LINK, RETURN_ADDR);
        let mut bus = Recorder { writes: vec![] };
        let out = cpu.run(&mut sram, &mut bus, 0, 100);
        assert!(out.is_completed());
        assert_eq!(bus.writes, vec![(0x12, 0x10 + 100)]);
    }

    #[test]
    fn registers_persist_across_runs() {
        let image = assemble("addi r1, r1, 1\njr r15\n").unwrap();
        let mut sram = Sram::new(256);
        sram.write_bytes(0, &image.bytes);
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::LINK, RETURN_ADDR);
        for _ in 0..3 {
            cpu.run(&mut sram, &mut NullBus, 0, 100);
        }
        assert_eq!(cpu.reg(Reg::new(1)), 3);
    }
}
