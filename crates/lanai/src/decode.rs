//! Decoded-op LN32 backend: predecoded SRAM pages with direct dispatch.
//!
//! [`Cpu::run`](crate::cpu::Cpu::run) re-decodes every instruction word on
//! every fetch. `send_chunk` runs on every chunk of every send, so that
//! decode cost is a first-order term in single-world throughput. This
//! module predecodes 4 KB SRAM pages into compact [`DOp`] arrays held in a
//! [`DecodeCache`] and dispatches on them directly.
//!
//! # Invalidation contract
//!
//! Correctness under fault injection hinges on one rule: **a decoded page
//! is valid only while its [`Sram::page_version`] is unchanged**. Every
//! SRAM mutation path (checked stores, bulk writes, `clear`, and the
//! chaos engine's `flip_bit`) bumps the touched page's version, and
//! [`run_decoded`] compares the version at every point where the page
//! can have changed: when execution enters a page, and immediately after
//! every store instruction. Those are the only such points — between
//! runs any mutation (an injected bit flip, a firmware reload) is caught
//! by the entry check, and *during* a run the interpreter's own stores
//! are the sole mutation path ([`CsrBus`] hands CSR handlers the SRAM
//! read-only). A store into the currently executing code page —
//! self-modifying firmware or an injected bit flip — is therefore
//! observed at exactly the fetch where the word-by-word reference
//! interpreter would first read the new bytes, which is what keeps
//! `BitFlip` campaigns bit-exact across backends.
//!
//! The reference interpreter is kept verbatim in [`crate::cpu`]; the
//! differential suites (`tests/cpu_equivalence.rs`) lock-step the two.

use crate::cpu::{mem, CsrBus, Cpu, RunOutcome, TrapKind, RETURN_ADDR};
use crate::isa::Opcode;
use crate::sram::{Sram, PAGE_SHIFT, PAGE_SIZE};

/// A predecoded instruction: opcode-specific fields extracted, immediates
/// sign-extended, branch displacements and the `lui` constant folded.
///
/// Unassigned encodings decode to [`DOp::Illegal`], which traps lazily at
/// execution — a page full of garbage costs nothing unless jumped into,
/// exactly like the reference interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DOp {
    /// `add rd, rs1, rs2`
    Add { rd: u8, rs1: u8, rs2: u8 },
    /// `sub rd, rs1, rs2`
    Sub { rd: u8, rs1: u8, rs2: u8 },
    /// `and rd, rs1, rs2`
    And { rd: u8, rs1: u8, rs2: u8 },
    /// `or rd, rs1, rs2`
    Or { rd: u8, rs1: u8, rs2: u8 },
    /// `xor rd, rs1, rs2`
    Xor { rd: u8, rs1: u8, rs2: u8 },
    /// `sll rd, rs1, rs2`
    Sll { rd: u8, rs1: u8, rs2: u8 },
    /// `srl rd, rs1, rs2`
    Srl { rd: u8, rs1: u8, rs2: u8 },
    /// `addi rd, rs1, imm` (imm pre-converted to wrapping u32)
    Addi { rd: u8, rs1: u8, imm: u32 },
    /// `andi rd, rs1, imm`
    Andi { rd: u8, rs1: u8, imm: u32 },
    /// `ori rd, rs1, imm`
    Ori { rd: u8, rs1: u8, imm: u32 },
    /// `xori rd, rs1, imm`
    Xori { rd: u8, rs1: u8, imm: u32 },
    /// `lui rd, imm` with the shifted constant folded at decode time.
    Lui { rd: u8, val: u32 },
    /// `lb rd, imm(rs1)`
    Lb { rd: u8, rs1: u8, imm: u32 },
    /// `lh rd, imm(rs1)`
    Lh { rd: u8, rs1: u8, imm: u32 },
    /// `lw rd, imm(rs1)`
    Lw { rd: u8, rs1: u8, imm: u32 },
    /// `sb rs2, imm(rs1)`
    Sb { rs1: u8, rs2: u8, imm: u32 },
    /// `sh rs2, imm(rs1)`
    Sh { rs1: u8, rs2: u8, imm: u32 },
    /// `sw rs2, imm(rs1)`
    Sw { rs1: u8, rs2: u8, imm: u32 },
    /// `beq rs1, rs2, imm`; `off` is the folded `1 + imm` *word* delta,
    /// applied to the in-page word index (exact in pc-space too: the
    /// u32-wrapped index, times four, wraps to the same 32-bit PC).
    Beq { rs1: u8, rs2: u8, off: u32 },
    /// `bne rs1, rs2, imm`
    Bne { rs1: u8, rs2: u8, off: u32 },
    /// `bltu rs1, rs2, imm`
    Bltu { rs1: u8, rs2: u8, off: u32 },
    /// `bgeu rs1, rs2, imm`
    Bgeu { rs1: u8, rs2: u8, off: u32 },
    /// `jal rd, imm`
    Jal { rd: u8, off: u32 },
    /// `jr rs1`
    Jr { rs1: u8 },
    /// `csrr rd, csr`
    Csrr { rd: u8, csr: u32 },
    /// `csrw csr, rs2`
    Csrw { rs2: u8, csr: u32 },
    /// `nop`
    Nop,
    /// Unassigned encoding: traps with `IllegalInstruction` if fetched.
    Illegal,
}

/// Decodes one instruction word into a [`DOp`].
///
/// Field extraction mirrors [`crate::isa::Instr::decode`] bit-for-bit
/// (same opcode table via [`Opcode::from_bits`], same 14-bit sign
/// extension) but avoids the panicking `Reg` constructor so the decode
/// path stays panic-free under the transitive-panic lint.
fn decode_word(word: u32) -> DOp {
    let Some(op) = Opcode::from_bits(((word >> 26) & 0x3F) as u8) else {
        return DOp::Illegal;
    };
    let rd = ((word >> 22) & 0xF) as u8;
    let rs1 = ((word >> 18) & 0xF) as u8;
    let rs2 = ((word >> 14) & 0xF) as u8;
    // Sign-extend the 14-bit immediate (as Instr::decode does), then fold
    // it into the form each opcode actually consumes.
    let simm = (((word & 0x3FFF) as i32) << 18) >> 18;
    let imm = simm as u32;
    // Branch/jal displacement in *words*: the reference's pc-space
    // `4 + (imm << 2)` byte delta, divided by four.
    let off = 1u32.wrapping_add(imm);
    let csr = imm & 0x3FFF;
    let d = match op {
        Opcode::Add => DOp::Add { rd, rs1, rs2 },
        Opcode::Sub => DOp::Sub { rd, rs1, rs2 },
        Opcode::And => DOp::And { rd, rs1, rs2 },
        Opcode::Or => DOp::Or { rd, rs1, rs2 },
        Opcode::Xor => DOp::Xor { rd, rs1, rs2 },
        Opcode::Sll => DOp::Sll { rd, rs1, rs2 },
        Opcode::Srl => DOp::Srl { rd, rs1, rs2 },
        Opcode::Addi => DOp::Addi { rd, rs1, imm },
        Opcode::Andi => DOp::Andi { rd, rs1, imm },
        Opcode::Ori => DOp::Ori { rd, rs1, imm },
        Opcode::Xori => DOp::Xori { rd, rs1, imm },
        Opcode::Lui => DOp::Lui { rd, val: (imm & 0x3FFF) << 13 },
        Opcode::Lb => DOp::Lb { rd, rs1, imm },
        Opcode::Lh => DOp::Lh { rd, rs1, imm },
        Opcode::Lw => DOp::Lw { rd, rs1, imm },
        Opcode::Sb => DOp::Sb { rs1, rs2, imm },
        Opcode::Sh => DOp::Sh { rs1, rs2, imm },
        Opcode::Sw => DOp::Sw { rs1, rs2, imm },
        Opcode::Beq => DOp::Beq { rs1, rs2, off },
        Opcode::Bne => DOp::Bne { rs1, rs2, off },
        Opcode::Bltu => DOp::Bltu { rs1, rs2, off },
        Opcode::Bgeu => DOp::Bgeu { rs1, rs2, off },
        Opcode::Jal => DOp::Jal { rd, off },
        Opcode::Jr => DOp::Jr { rs1 },
        Opcode::Csrr => DOp::Csrr { rd, csr },
        Opcode::Csrw => DOp::Csrw { rs2, csr },
        Opcode::Nop => DOp::Nop,
    };
    // A register-only op targeting `r0` retires exactly like `nop` (one
    // cycle, no architectural effect — the reference discards the
    // write), so decode it as one: every ALU/`lui` arm in the hot loop
    // can then write its destination unguarded. Loads, `jal` and `csrr`
    // keep their guarded writes — their side effects (memory access,
    // jump, CSR read) must still happen with `rd = 0`.
    match d {
        DOp::Add { rd: 0, .. }
        | DOp::Sub { rd: 0, .. }
        | DOp::And { rd: 0, .. }
        | DOp::Or { rd: 0, .. }
        | DOp::Xor { rd: 0, .. }
        | DOp::Sll { rd: 0, .. }
        | DOp::Srl { rd: 0, .. }
        | DOp::Addi { rd: 0, .. }
        | DOp::Andi { rd: 0, .. }
        | DOp::Ori { rd: 0, .. }
        | DOp::Xori { rd: 0, .. }
        | DOp::Lui { rd: 0, .. } => DOp::Nop,
        other => other,
    }
}

/// One predecoded 4 KB page: the SRAM page version it was decoded at
/// (`None` until first decode), one [`DOp`] per instruction slot, and
/// per-slot *plain-run lengths* — `runs[i]` counts the consecutive ops
/// from `i` that neither store, branch, jump, nor touch a CSR, so the
/// execution loop can burst through them with no per-instruction
/// budget/self-modification checks.
#[derive(Clone, Debug, Default)]
struct DecodedPage {
    stamp: Option<u64>,
    ops: Vec<DOp>,
    runs: Vec<u16>,
    fused: Vec<FOp>,
}

/// Whether an op can be executed inside a burst: it never redirects the
/// PC, never writes SRAM (so the page cannot invalidate mid-burst), and
/// never touches a CSR. Loads may trap, but a trap aborts the whole run
/// with exact state, so they stay burstable.
fn plain(op: DOp) -> bool {
    matches!(
        op,
        DOp::Add { .. }
            | DOp::Sub { .. }
            | DOp::And { .. }
            | DOp::Or { .. }
            | DOp::Xor { .. }
            | DOp::Sll { .. }
            | DOp::Srl { .. }
            | DOp::Addi { .. }
            | DOp::Andi { .. }
            | DOp::Ori { .. }
            | DOp::Xori { .. }
            | DOp::Lui { .. }
            | DOp::Lb { .. }
            | DOp::Lh { .. }
            | DOp::Lw { .. }
            | DOp::Nop
    )
}

/// Per-SRAM cache of predecoded pages.
///
/// Owned by the chip model next to its [`Sram`] (not inside it, so the
/// chip's split-borrow routine invocation can hand the CPU the memory and
/// the cache independently). Only pages that have been executed from are
/// held (the firmware occupies one or two of an SRAM's couple of thousand),
/// found by a linear scan. Stale pages are detected by comparing the
/// recorded [`Sram::page_version`] stamp on every fetch and re-decoded in
/// place; `Vec` capacity is retained so steady-state re-decodes allocate
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct DecodeCache {
    /// `(page index, decoded copy)`, in first-execution order.
    pages: Vec<(usize, DecodedPage)>,
}

impl DecodeCache {
    /// Creates an empty cache; a page enters it when first executed from.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Number of pages currently decoded and valid for `sram`.
    ///
    /// Diagnostic / test hook: lets the invalidation tests observe that a
    /// store to a code page actually dropped the decoded copy.
    pub fn valid_pages(&self, sram: &Sram) -> usize {
        self.pages
            .iter()
            .filter(|(i, p)| p.stamp == Some(sram.page_version(*i)))
            .count()
    }

    fn slot_mut(&mut self, page: usize) -> Option<&mut DecodedPage> {
        self.pages
            .iter_mut()
            .find(|(i, _)| *i == page)
            .map(|(_, p)| p)
    }

    /// Re-decodes `page` from `sram` if its stamp is stale.
    #[inline]
    fn ensure(&mut self, sram: &Sram, page: usize, version: u64) {
        if page >= sram.num_pages() {
            return;
        }
        let at = match self.pages.iter().position(|(i, _)| *i == page) {
            Some(at) => at,
            None => {
                self.pages.push((page, DecodedPage::default()));
                self.pages.len() - 1
            }
        };
        let Some((_, slot)) = self.pages.get_mut(at) else {
            return;
        };
        if slot.stamp == Some(version) {
            return;
        }
        slot.ops.clear();
        let base = page * PAGE_SIZE;
        let end = (base + PAGE_SIZE).min(sram.len());
        let mut a = base;
        while a + 4 <= end {
            let op = match sram.read_u32(a as u32) {
                Ok(word) => decode_word(word),
                Err(_) => DOp::Illegal,
            };
            slot.ops.push(op);
            a += 4;
        }
        // Plain-run lengths, filled backward in one pass (a page holds
        // at most 1024 ops, so u16 cannot overflow).
        slot.runs.clear();
        slot.runs.resize(slot.ops.len(), 0);
        let mut run: u16 = 0;
        for i in (0..slot.ops.len()).rev() {
            run = if slot.ops.get(i).copied().is_some_and(plain) {
                run.saturating_add(1)
            } else {
                0
            };
            if let Some(r) = slot.runs.get_mut(i) {
                *r = run;
            }
        }
        // Fused reg-reg ALU pairs on even word boundaries: `fused[p]`
        // covers words `2p` and `2p + 1`, so a burst entered at any
        // word index finds its pairs by parity alone.
        slot.fused.clear();
        for pair in slot.ops.chunks_exact(2) {
            if let [a, b] = *pair {
                slot.fused.push(fuse(a, b));
            }
        }
        slot.stamp = Some(version);
    }

    /// Moves `page`'s decoded ops and run lengths out of the cache
    /// (leaving empty vectors behind) so the execution loop can index
    /// them while handing the SRAM mutably to `exec`. Returns the ops,
    /// the run lengths, and the version stamp they were decoded at.
    /// Pair with [`DecodeCache::unlease`].
    #[inline]
    fn lease(&mut self, page: usize) -> (Vec<DOp>, Vec<u16>, Vec<FOp>, u64) {
        match self.slot_mut(page) {
            Some(slot) => (
                std::mem::take(&mut slot.ops),
                std::mem::take(&mut slot.runs),
                std::mem::take(&mut slot.fused),
                slot.stamp.unwrap_or(0),
            ),
            None => (Vec::new(), Vec::new(), Vec::new(), 0),
        }
    }

    /// Returns leased vectors to their page slot, preserving their
    /// capacity for the next re-decode.
    #[inline]
    fn unlease(&mut self, page: usize, ops: Vec<DOp>, runs: Vec<u16>, fused: Vec<FOp>) {
        if let Some(slot) = self.slot_mut(page) {
            slot.ops = ops;
            slot.runs = runs;
            slot.fused = fused;
        }
    }
}

/// Which interpreter executes firmware routines.
///
/// Both backends are bit-exact by contract (enforced by the differential
/// suites); `Decoded` is the default because it is ~2–3x faster on
/// interpreter-bound work. `Reference` remains selectable so harnesses
/// can lock-step the two and so any future divergence is debuggable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CpuBackend {
    /// The word-by-word interpreter, kept verbatim ([`Cpu::run`]).
    Reference,
    /// The decoded-op cache with direct dispatch ([`run_decoded`]).
    #[default]
    Decoded,
}

impl CpuBackend {
    /// Stable lower-case label (for bench cells and reports).
    pub fn label(self) -> &'static str {
        match self {
            CpuBackend::Reference => "reference",
            CpuBackend::Decoded => "decoded",
        }
    }
}

/// Runs a firmware routine on the decoded backend.
///
/// Drop-in replacement for [`Cpu::run`]: same entry contract (caller
/// seeds `r15` with [`RETURN_ADDR`]), same outcome taxonomy, same cycle
/// charges, same trap points — the loop replicates the reference
/// interpreter's check order exactly (budget, return sentinel, PC
/// alignment/bounds, decode, execute).
pub fn run_decoded(
    cpu: &mut Cpu,
    sram: &mut Sram,
    bus: &mut dyn CsrBus,
    entry: u32,
    max_steps: u64,
    cache: &mut DecodeCache,
) -> RunOutcome {
    let mut pc = entry;
    let mut steps: u64 = 0;
    // Every op charges at least one cycle, so only the *extra* cycles
    // (the second cycle of memory/CSR/jump ops, the taken-branch
    // penalty) are accumulated here; the reference's cycle count is
    // reconstructed as `steps + extra` wherever an outcome is built.
    // This keeps the hot loop free of a per-instruction counter bump.
    let mut extra: u64 = 0;

    // The page execution currently resides in. Its decoded ops are leased
    // out of the cache so the hot loop can index them while `exec` holds
    // the SRAM mutably; `NO_PAGE` means nothing is leased and the next
    // fetch must (re)validate. Stale-page checks happen on page entry and
    // after every store — the only points where the page can have
    // changed, because CSR handlers see the SRAM read-only.
    const NO_PAGE: usize = usize::MAX;
    let mut cur_page: usize = NO_PAGE;
    let mut cur_stamp: u64 = 0;
    let mut cur_ops: Vec<DOp> = Vec::new();
    let mut cur_runs: Vec<u16> = Vec::new();
    let mut cur_fused: Vec<FOp> = Vec::new();

    // The register file, leased out of the CPU into a 256-slot array so
    // a `u8` operand field indexes it mask- and bounds-check-free (see
    // [`rr`]). Slots 16.. are dead padding; the live 16 are copied back
    // before returning, on every path.
    let mut regs = [0u32; 256];
    regs.iter_mut()
        .zip(cpu.regs_raw_mut().iter())
        .for_each(|(d, s)| *d = *s);

    // Two-level loop: the outer (cold) level validates the PC, swaps the
    // resident page, and re-decodes after self-modification; the inner
    // (hot) level executes straight through the resident page with the
    // ops slice, PC, and counters all register-resident. Every inner
    // break lands back at the outer validation, whose checks replicate
    // the reference interpreter's order (budget, return sentinel, PC
    // alignment/bounds) exactly.
    let outcome = 'run: loop {
        if steps >= max_steps {
            break RunOutcome::OutOfGas {
                pc,
                cycles: steps + extra,
            };
        }
        if pc == RETURN_ADDR {
            break RunOutcome::Completed {
                cycles: steps + extra,
                steps,
            };
        }
        if !pc.is_multiple_of(4) || pc as usize + 4 > sram.len() {
            break RunOutcome::Trap {
                kind: TrapKind::PcOutOfRange,
                pc,
                cycles: steps + extra,
            };
        }
        let page = (pc >> PAGE_SHIFT) as usize;
        if page != cur_page {
            if cur_page != NO_PAGE {
                cache.unlease(
                    cur_page,
                    std::mem::take(&mut cur_ops),
                    std::mem::take(&mut cur_runs),
                    std::mem::take(&mut cur_fused),
                );
            }
            cache.ensure(sram, page, sram.page_version(page));
            let (ops, runs, fused, stamp) = cache.lease(page);
            cur_ops = ops;
            cur_runs = runs;
            cur_fused = fused;
            cur_stamp = stamp;
            cur_page = page;
        }
        let mut invalidate = false;
        {
            let ops: &[DOp] = &cur_ops;
            let runs: &[u16] = &cur_runs;
            let fused: &[FOp] = &cur_fused;
            // The page's valid PC window: `ops.len() * 4` bytes starting
            // at `base` (shorter than a full page only for a trailing
            // partial page), truncated so it never contains
            // `RETURN_ADDR` (only possible on an SRAM reaching past the
            // sentinel's 128 MiB address). While `pc - base < safe_len`
            // every fetch is aligned, in bounds, inside this page, and
            // not the return sentinel, so none of the outer checks need
            // repeating per instruction. Only `jr` can produce a
            // misaligned PC (branch and `jal` displacements are
            // multiples of four), so alignment is re-checked after
            // jumps alone, steered by the flags `exec` returns.
            let base = (cur_page << PAGE_SHIFT) as u32;
            let mut safe_len = (ops.len() * 4) as u32;
            if RETURN_ADDR.wrapping_sub(base) < safe_len {
                safe_len = RETURN_ADDR - base;
            }
            // The truncation must only ever drop the *tail* of a page:
            // a valid PC past the window would re-enter the outer loop
            // without making progress. `RETURN_ADDR` sits in the last
            // word slot of its page, so nothing lies beyond it.
            const _: () = assert!(RETURN_ADDR as usize % PAGE_SIZE == PAGE_SIZE - 4);
            // The fetch below indexes this subslice, so leaving the
            // window and fetching are the same bounds check: a `get`
            // miss (wrapped PC delta, window overrun) is the loop exit,
            // not an error.
            let win: &[DOp] = ops.get(..(safe_len as usize >> 2)).unwrap_or(ops);
            // The register file is borrowed once so the array pointer
            // can stay register-resident across op handlers.
            let regs = &mut regs;
            // The loop runs in word-index space: `widx` is the PC's
            // offset into the window in words, branch arms apply their
            // pre-folded word deltas to it, and the byte PC exists only
            // outside the loop. The u32-wrapped index times four wraps
            // to exactly the reference's 32-bit PC, so reconstruction
            // on exit is lossless; only a misaligned `jr` target has
            // low bits an index cannot carry, and those arrive through
            // the `EXEC_*` flags byte.
            let mut widx: u32 = pc.wrapping_sub(base) >> 2;
            let mut misalign: u8 = 0;
            // Budget ticks remaining (≥ 1 here: the outer loop already
            // rejected an exhausted budget). `steps` is reconstructed
            // from it once the loop exits; trap exits compute the
            // retired count directly.
            let mut fuel = max_steps - steps;
            loop {
                let Some(&op) = win.get(widx as usize) else {
                    break;
                };
                // Burst path: `runs[widx]` consecutive ops are plain
                // (no store, branch, jump, or CSR), so as many of them
                // as the window and budget allow execute back to back
                // with no per-instruction flag or fuel checks. A load
                // trap inside the burst still aborts with exact state:
                // `j` ops retired before it, none charged for it.
                let run = u64::from(runs.get(widx as usize).copied().unwrap_or(0));
                if run > 1 {
                    let start = widx as usize;
                    let k = run.min((win.len() - start) as u64).min(fuel) as usize;
                    if let Err((j, kind)) = run_burst(regs, win, fused, start, k, sram, &mut extra)
                    {
                        break 'run RunOutcome::Trap {
                            kind,
                            pc: base.wrapping_add(widx.wrapping_add(j as u32).wrapping_shl(2)),
                            cycles: (max_steps - fuel) + j as u64 + extra,
                        };
                    }
                    widx = widx.wrapping_add(k as u32);
                    fuel -= k as u64;
                    if fuel == 0 {
                        break;
                    }
                    continue;
                }
                let mut next_widx = widx.wrapping_add(1);
                let flags = match exec(regs, op, sram, bus, base, widx, &mut next_widx, &mut extra)
                {
                    Ok(flags) => flags,
                    Err(kind) => {
                        // The trapping op charges nothing and is not
                        // retired; `fuel` still excludes it, so the
                        // completed-step count is `max_steps - fuel`.
                        break 'run RunOutcome::Trap {
                            kind,
                            pc: base.wrapping_add(widx.wrapping_shl(2)),
                            cycles: (max_steps - fuel) + extra,
                        };
                    }
                };
                widx = next_widx;
                fuel -= 1;
                if flags != 0 {
                    // A store may have rewritten the executing page
                    // (self-modifying firmware): drop the lease and
                    // re-decode before the very next fetch. A `jr` may
                    // have produced a misaligned PC whose low bits the
                    // rounding fetch above must never swallow.
                    if flags & EXEC_STORE != 0 && sram.page_version(cur_page) != cur_stamp {
                        invalidate = true;
                        break;
                    }
                    let low = flags >> 2;
                    if low != 0 {
                        misalign = low;
                        break;
                    }
                }
                if fuel == 0 {
                    break;
                }
            }
            steps = max_steps - fuel;
            pc = base.wrapping_add(widx.wrapping_shl(2)) | u32::from(misalign);
        }
        if invalidate {
            cache.unlease(
                cur_page,
                std::mem::take(&mut cur_ops),
                std::mem::take(&mut cur_runs),
                std::mem::take(&mut cur_fused),
            );
            cur_page = NO_PAGE;
        }
    };
    if cur_page != NO_PAGE {
        cache.unlease(cur_page, cur_ops, cur_runs, cur_fused);
    }
    cpu.regs_raw_mut()
        .iter_mut()
        .zip(regs.iter())
        .for_each(|(d, s)| *d = *s);
    outcome
}

/// Exec-result flag: the op was a store, so the executing page may need
/// a re-decode before the next fetch.
const EXEC_STORE: u8 = 1;
/// Exec-result flag: the op was an indirect jump, the only way the PC
/// can become misaligned. A `jr` to a misaligned target additionally
/// carries the target's low two PC bits in flag bits 2–3 (a word index
/// cannot represent them).
const EXEC_JUMP: u8 = 2;

/// Raw register read. The file is padded to 256 slots (see
/// `run_decoded`) so the `u8` operand field indexes it with no mask:
/// the compiler proves `u8 < 256` and elides both mask and bounds
/// check. Operand fields are 4-bit by construction of [`decode_word`],
/// so slots 16.. are never actually reached.
#[inline(always)]
fn rr(regs: &[u32; 256], i: u8) -> u32 {
    regs.get(usize::from(i)).copied().unwrap_or(0)
}

/// Raw register write with the architectural `r0`-discard guard, for
/// ops whose side effects must happen even when `rd = 0` (loads,
/// `jal`, `csrr`).
#[inline(always)]
fn wr(regs: &mut [u32; 256], i: u8, v: u32) {
    if i != 0 {
        wr_nz(regs, i, v);
    }
}

/// Unguarded register write, for ALU/`lui` arms only: [`decode_word`]
/// rewrites every `r0`-targeted register-only op to [`DOp::Nop`], so
/// `i != 0` holds by construction and the discard test disappears from
/// the hot path.
#[inline(always)]
fn wr_nz(regs: &mut [u32; 256], i: u8, v: u32) {
    if let Some(r) = regs.get_mut(usize::from(i)) {
        *r = v;
    }
}

/// Computes one reg-reg ALU result, selected by kind ident — the shared
/// body generator for [`fop_table`]'s fused arms, matching the
/// corresponding [`exec`] arms exactly.
macro_rules! alu_val {
    (Add, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x).wrapping_add(rr($regs, $y))
    };
    (Sub, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x).wrapping_sub(rr($regs, $y))
    };
    (And, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x) & rr($regs, $y)
    };
    (Or, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x) | rr($regs, $y)
    };
    (Xor, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x) ^ rr($regs, $y)
    };
    (Sll, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x).wrapping_shl(rr($regs, $y) & 31)
    };
    (Srl, $regs:expr, $x:expr, $y:expr) => {
        rr($regs, $x).wrapping_shr(rr($regs, $y) & 31)
    };
}

/// Generates the fused-pair machinery from a list of
/// `(Variant, KindA, KindB)` triples: the [`FOp`] enum, the decode-time
/// [`fuse`] classifier, and the [`exec_pair`] executor whose every arm
/// is the two ALU bodies back to back under a *single* dispatch.
macro_rules! fop_table {
    ($( ($v:ident, $fa:ident, $fb:ident) ),+ $(,)?) => {
        /// A fused pair of reg-reg ALU ops occupying one even-aligned
        /// word pair (`2p`, `2p + 1`), built at decode time so the
        /// burst executor retires two instructions per dispatch.
        /// Reg-reg ALU ops are the only fusable kind: they cannot trap,
        /// store, jump, or touch a CSR, so a pair has no intermediate
        /// exit the word-indexed PC would need to name.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
        enum FOp {
            /// This word pair is not two fusable ops.
            #[default]
            None,
            $( $v { ar: u8, ax: u8, ay: u8, br: u8, bx: u8, by: u8 }, )+
        }

        /// Fuses two adjacent decoded ops, or returns [`FOp::None`].
        fn fuse(a: DOp, b: DOp) -> FOp {
            match (a, b) {
                $( (
                    DOp::$fa { rd: ar, rs1: ax, rs2: ay },
                    DOp::$fb { rd: br, rs1: bx, rs2: by },
                ) => FOp::$v { ar, ax, ay, br, bx, by }, )+
                _ => FOp::None,
            }
        }

        /// Executes one fused pair sequentially (the second op observes
        /// the first's write, exactly as two [`exec`] steps would).
        /// Returns `false` on [`FOp::None`] so the caller falls back to
        /// two single-op steps.
        #[inline(always)]
        fn exec_pair(regs: &mut [u32; 256], f: FOp) -> bool {
            match f {
                FOp::None => false,
                $( FOp::$v { ar, ax, ay, br, bx, by } => {
                    let va = alu_val!($fa, regs, ax, ay);
                    wr_nz(regs, ar, va);
                    let vb = alu_val!($fb, regs, bx, by);
                    wr_nz(regs, br, vb);
                    true
                } )+
            }
        }
    }
}

fop_table!(
    (AddAdd, Add, Add), (AddSub, Add, Sub), (AddAnd, Add, And),
    (AddOr, Add, Or), (AddXor, Add, Xor), (AddSll, Add, Sll),
    (AddSrl, Add, Srl), (SubAdd, Sub, Add), (SubSub, Sub, Sub),
    (SubAnd, Sub, And), (SubOr, Sub, Or), (SubXor, Sub, Xor),
    (SubSll, Sub, Sll), (SubSrl, Sub, Srl), (AndAdd, And, Add),
    (AndSub, And, Sub), (AndAnd, And, And), (AndOr, And, Or),
    (AndXor, And, Xor), (AndSll, And, Sll), (AndSrl, And, Srl),
    (OrAdd, Or, Add), (OrSub, Or, Sub), (OrAnd, Or, And),
    (OrOr, Or, Or), (OrXor, Or, Xor), (OrSll, Or, Sll),
    (OrSrl, Or, Srl), (XorAdd, Xor, Add), (XorSub, Xor, Sub),
    (XorAnd, Xor, And), (XorOr, Xor, Or), (XorXor, Xor, Xor),
    (XorSll, Xor, Sll), (XorSrl, Xor, Srl), (SllAdd, Sll, Add),
    (SllSub, Sll, Sub), (SllAnd, Sll, And), (SllOr, Sll, Or),
    (SllXor, Sll, Xor), (SllSll, Sll, Sll), (SllSrl, Sll, Srl),
    (SrlAdd, Srl, Add), (SrlSub, Srl, Sub), (SrlAnd, Srl, And),
    (SrlOr, Srl, Or), (SrlXor, Srl, Xor), (SrlSll, Srl, Sll),
    (SrlSrl, Srl, Srl),
);

/// Executes one burst of *plain* ops (see [`plain`]): the slim second
/// dispatch loop, covering only the arms that can appear inside a run
/// so its jump table stays small and free of the flag/PC plumbing the
/// full [`exec`] needs. Deliberately *not* inlined: giving the burst
/// loop its own register allocation keeps both it and the main fetch
/// loop spill-free, and the call is amortized over the whole run. Ops
/// outside the plain set are unreachable here by construction (`runs`
/// is built from the same ops vector by the same [`plain`] predicate);
/// the fallback arm traps rather than guessing, so even a broken
/// invariant could only fail loudly.
///
/// Executes `k` plain ops starting at word index `start` of `win`,
/// retiring fused even-aligned pairs from `fused` where available
/// (most of an ALU-dense run: two instructions per dispatch, no trap
/// or flag plumbing) and stepping singles at the run's ragged edges —
/// an odd entry word, unfusable pairs, an odd tail.
///
/// On a load trap, returns the burst-relative index of the trapping op
/// (which has charged nothing) alongside the trap kind.
#[inline(never)]
fn run_burst(
    regs: &mut [u32; 256],
    win: &[DOp],
    fused: &[FOp],
    start: usize,
    k: usize,
    sram: &Sram,
    extra: &mut u64,
) -> Result<(), (usize, TrapKind)> {
    let mut j = 0usize;
    // Entering mid-pair: one single step re-aligns to the pair grid.
    if start & 1 == 1 && j < k {
        let Some(&a) = win.get(start) else {
            return Ok(());
        };
        exec_plain(regs, a, sram, extra).map_err(|kind| (j, kind))?;
        j = 1;
    }
    while j.wrapping_add(2) <= k {
        let w = start.wrapping_add(j);
        let f = fused.get(w >> 1).copied().unwrap_or(FOp::None);
        if !exec_pair(regs, f) {
            let (Some(&a), Some(&b)) = (win.get(w), win.get(w.wrapping_add(1))) else {
                return Ok(());
            };
            exec_plain(regs, a, sram, extra).map_err(|kind| (j, kind))?;
            exec_plain(regs, b, sram, extra).map_err(|kind| (j.wrapping_add(1), kind))?;
        }
        j = j.wrapping_add(2);
    }
    if j < k {
        let Some(&a) = win.get(start.wrapping_add(j)) else {
            return Ok(());
        };
        exec_plain(regs, a, sram, extra).map_err(|kind| (j, kind))?;
    }
    Ok(())
}

/// Executes one plain op; the burst loop's dispatch body.
#[inline(always)]
fn exec_plain(
    regs: &mut [u32; 256],
    op: DOp,
    sram: &Sram,
    extra: &mut u64,
) -> Result<(), TrapKind> {
    match op {
        DOp::Add { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_add(rr(regs, rs2)));
        }
        DOp::Sub { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_sub(rr(regs, rs2)));
        }
        DOp::And { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1) & rr(regs, rs2));
        }
        DOp::Or { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1) | rr(regs, rs2));
        }
        DOp::Xor { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1) ^ rr(regs, rs2));
        }
        DOp::Sll { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_shl(rr(regs, rs2) & 31));
        }
        DOp::Srl { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_shr(rr(regs, rs2) & 31));
        }
        DOp::Addi { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_add(imm));
        }
        DOp::Andi { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1) & imm);
        }
        DOp::Ori { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1) | imm);
        }
        DOp::Xori { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1) ^ imm);
        }
        DOp::Lui { rd, val } => {
            wr_nz(regs, rd, val);
        }
        DOp::Lb { rd, rs1, imm } => {
            let v = mem(sram.read_u8(rr(regs, rs1).wrapping_add(imm)))?;
            wr(regs, rd, v as u32);
            *extra += 1;
        }
        DOp::Lh { rd, rs1, imm } => {
            let v = mem(sram.read_u16(rr(regs, rs1).wrapping_add(imm)))?;
            wr(regs, rd, v as u32);
            *extra += 1;
        }
        DOp::Lw { rd, rs1, imm } => {
            let v = mem(sram.read_u32(rr(regs, rs1).wrapping_add(imm)))?;
            wr(regs, rd, v);
            *extra += 1;
        }
        DOp::Nop => {}
        _ => return Err(TrapKind::IllegalInstruction),
    }
    Ok(())
}

/// Executes one decoded op; the dispatch twin of the reference `step`.
/// Force-inlined into the fetch loop so dispatch is a single computed
/// jump with no call/spill overhead per retired instruction. Returns
/// the `EXEC_*` flags of the op (constants per arm, so the hot loop's
/// rare-path test costs one register compare).
///
/// Cycle charges mirror the reference exactly, minus the one cycle
/// every op owes (accounted as a retired step by the caller): `extra`
/// is bumped only for two-cycle ops and taken branches.
#[inline(always)]
fn exec(
    regs: &mut [u32; 256],
    op: DOp,
    sram: &mut Sram,
    bus: &mut dyn CsrBus,
    base: u32,
    widx: u32,
    next_widx: &mut u32,
    extra: &mut u64,
) -> Result<u8, TrapKind> {
    match op {
        DOp::Add { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_add(rr(regs, rs2)));
        }
        DOp::Sub { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_sub(rr(regs, rs2)));
        }
        DOp::And { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1) & rr(regs, rs2));
        }
        DOp::Or { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1) | rr(regs, rs2));
        }
        DOp::Xor { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1) ^ rr(regs, rs2));
        }
        DOp::Sll { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_shl(rr(regs, rs2) & 31));
        }
        DOp::Srl { rd, rs1, rs2 } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_shr(rr(regs, rs2) & 31));
        }
        DOp::Addi { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1).wrapping_add(imm));
        }
        DOp::Andi { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1) & imm);
        }
        DOp::Ori { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1) | imm);
        }
        DOp::Xori { rd, rs1, imm } => {
            wr_nz(regs, rd, rr(regs, rs1) ^ imm);
        }
        DOp::Lui { rd, val } => {
            wr_nz(regs, rd, val);
        }
        DOp::Lb { rd, rs1, imm } => {
            let v = mem(sram.read_u8(rr(regs, rs1).wrapping_add(imm)))?;
            wr(regs, rd, v as u32);
            *extra += 1;
        }
        DOp::Lh { rd, rs1, imm } => {
            let v = mem(sram.read_u16(rr(regs, rs1).wrapping_add(imm)))?;
            wr(regs, rd, v as u32);
            *extra += 1;
        }
        DOp::Lw { rd, rs1, imm } => {
            let v = mem(sram.read_u32(rr(regs, rs1).wrapping_add(imm)))?;
            wr(regs, rd, v);
            *extra += 1;
        }
        DOp::Sb { rs1, rs2, imm } => {
            let v = rr(regs, rs2) as u8;
            mem(sram.write_u8(rr(regs, rs1).wrapping_add(imm), v))?;
            *extra += 1;
            return Ok(EXEC_STORE);
        }
        DOp::Sh { rs1, rs2, imm } => {
            let v = rr(regs, rs2) as u16;
            mem(sram.write_u16(rr(regs, rs1).wrapping_add(imm), v))?;
            *extra += 1;
            return Ok(EXEC_STORE);
        }
        DOp::Sw { rs1, rs2, imm } => {
            let v = rr(regs, rs2);
            mem(sram.write_u32(rr(regs, rs1).wrapping_add(imm), v))?;
            *extra += 1;
            return Ok(EXEC_STORE);
        }
        DOp::Beq { rs1, rs2, off } => {
            if rr(regs, rs1) == rr(regs, rs2) {
                *next_widx = widx.wrapping_add(off);
                *extra += 1;
            }
        }
        DOp::Bne { rs1, rs2, off } => {
            if rr(regs, rs1) != rr(regs, rs2) {
                *next_widx = widx.wrapping_add(off);
                *extra += 1;
            }
        }
        DOp::Bltu { rs1, rs2, off } => {
            if rr(regs, rs1) < rr(regs, rs2) {
                *next_widx = widx.wrapping_add(off);
                *extra += 1;
            }
        }
        DOp::Bgeu { rs1, rs2, off } => {
            if rr(regs, rs1) >= rr(regs, rs2) {
                *next_widx = widx.wrapping_add(off);
                *extra += 1;
            }
        }
        DOp::Jal { rd, off } => {
            wr(regs, rd, base.wrapping_add(widx.wrapping_shl(2)).wrapping_add(4));
            *next_widx = widx.wrapping_add(off);
            *extra += 1;
        }
        DOp::Jr { rs1 } => {
            let target = rr(regs, rs1);
            *next_widx = target.wrapping_sub(base) >> 2;
            *extra += 1;
            return Ok(EXEC_JUMP | (((target & 3) as u8) << 2));
        }
        DOp::Csrr { rd, csr } => {
            let v = bus.csr_read(sram, csr);
            wr(regs, rd, v);
            *extra += 1;
        }
        DOp::Csrw { rs2, csr } => {
            bus.csr_write(sram, csr, rr(regs, rs2));
            *extra += 1;
        }
        DOp::Nop => {}
        DOp::Illegal => return Err(TrapKind::IllegalInstruction),
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::NullBus;
    use crate::isa::{Instr, Reg};

    fn run_both(src: &str) -> (Cpu, Sram, RunOutcome, Cpu, Sram, RunOutcome) {
        let image = assemble(src).expect("assembles");
        let mut sram_ref = Sram::new(4 * PAGE_SIZE);
        sram_ref.write_bytes(0, &image.bytes);
        let sram_dec = sram_ref.clone();

        let mut cpu_ref = Cpu::new();
        cpu_ref.set_reg(Reg::LINK, RETURN_ADDR);
        let cpu_dec = cpu_ref.clone();

        let mut sram_ref = sram_ref;
        let out_ref = cpu_ref.run(&mut sram_ref, &mut NullBus, 0, 100_000);

        let mut cpu_dec = cpu_dec;
        let mut sram_dec = sram_dec;
        let mut cache = DecodeCache::new();
        let out_dec = run_decoded(&mut cpu_dec, &mut sram_dec, &mut NullBus, 0, 100_000, &mut cache);
        (cpu_ref, sram_ref, out_ref, cpu_dec, sram_dec, out_dec)
    }

    fn assert_states_equal(
        (cpu_ref, sram_ref, out_ref): (&Cpu, &Sram, RunOutcome),
        (cpu_dec, sram_dec, out_dec): (&Cpu, &Sram, RunOutcome),
    ) {
        assert_eq!(out_ref, out_dec, "outcome diverged");
        for r in 0..16 {
            assert_eq!(
                cpu_ref.reg(Reg::new(r)),
                cpu_dec.reg(Reg::new(r)),
                "r{r} diverged"
            );
        }
        assert_eq!(sram_ref, sram_dec, "memory diverged");
    }

    #[test]
    fn decoded_matches_reference_on_a_small_program() {
        let src = "addi r1, r0, 40\naddi r2, r1, 2\nadd r3, r1, r2\n\
                   li r4, 0x200\nsw r3, (r4)\nlw r5, (r4)\njr r15\n";
        let (cr, sr, or_, cd, sd, od) = run_both(src);
        assert_states_equal((&cr, &sr, or_), (&cd, &sd, od));
        assert!(od.is_completed());
    }

    #[test]
    fn decoded_matches_reference_on_loops_and_branches() {
        let src = "addi r1, r0, 100\naddi r2, r0, 0\n\
                   loop: addi r2, r2, 7\naddi r1, r1, -1\nbne r1, r0, loop\njr r15\n";
        let (cr, sr, or_, cd, sd, od) = run_both(src);
        assert_states_equal((&cr, &sr, or_), (&cd, &sd, od));
    }

    #[test]
    fn cache_holds_only_the_pages_executed_from() {
        // A full-size SRAM (2 048 pages) whose routine starts on page 1
        // and finishes on page 5: two decoded pages, not a dense table.
        let mut sram = Sram::new(2048 * PAGE_SIZE);
        let tail = assemble("addi r1, r2, 1\njr r15\n").expect("assembles");
        sram.write_bytes(5 * PAGE_SIZE as u32, &tail.bytes);
        let head = assemble("addi r2, r0, 9\nli r3, 0x5000\njr r3\n").expect("assembles");
        sram.write_bytes(PAGE_SIZE as u32, &head.bytes);
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::LINK, RETURN_ADDR);
        let mut cache = DecodeCache::new();
        let out = run_decoded(&mut cpu, &mut sram, &mut NullBus, PAGE_SIZE as u32, 100, &mut cache);
        assert!(out.is_completed(), "{out:?}");
        assert_eq!(cpu.reg(Reg::new(1)), 10);
        assert_eq!(cache.pages.len(), 2);
        assert_eq!(cache.valid_pages(&sram), 2);
        // A store to one code page stales exactly that page.
        sram.write_u8(5 * PAGE_SIZE as u32 + 64, 1).unwrap();
        assert_eq!(cache.valid_pages(&sram), 1);
    }

    #[test]
    fn decoded_traps_identically_on_illegal_words() {
        let mut sram = Sram::new(PAGE_SIZE);
        sram.write_u32(0, 0).unwrap(); // unassigned opcode
        let mut cpu_ref = Cpu::new();
        let out_ref = cpu_ref.run(&mut sram.clone(), &mut NullBus, 0, 100);
        let mut cpu_dec = Cpu::new();
        let mut cache = DecodeCache::new();
        let out_dec = run_decoded(&mut cpu_dec, &mut sram, &mut NullBus, 0, 100, &mut cache);
        assert_eq!(out_ref, out_dec);
        assert!(matches!(
            out_dec,
            RunOutcome::Trap {
                kind: TrapKind::IllegalInstruction,
                pc: 0,
                ..
            }
        ));
    }

    #[test]
    fn store_to_code_page_invalidates_the_decoded_copy() {
        // Self-modifying firmware: the routine overwrites the instruction
        // at `patch:` (an addi r1, r0, 1) with `addi r1, r0, 2` *before*
        // reaching it. A stale decode cache would execute the old word.
        let z = Reg::ZERO;
        let patched = Instr::new(Opcode::Addi, Reg::new(1), z, z, 2).encode();
        // The replacement word is staged at 0x200 (encoded instructions
        // exceed `li`'s 27-bit constant range); the routine copies it over
        // `patch:` before falling through to it.
        let src = "li r6, 0x200\nlw r5, (r6)\nli r4, 0x18\nsw r5, (r4)\n\
                   patch: addi r1, r0, 1\njr r15\n";
        // `li` expands to lui+ori, so `patch:` sits at word 6 = 0x18 —
        // verify the address assumption before relying on it.
        let image = assemble(src).expect("assembles");
        let mut sram = Sram::new(PAGE_SIZE);
        sram.write_bytes(0, &image.bytes);
        sram.write_u32(0x200, patched).unwrap();
        assert_eq!(
            Instr::decode(sram.read_u32(0x18).unwrap()).expect("valid").imm,
            1,
            "patch site must hold the original addi"
        );

        // Warm the cache with a first run, then re-run on the same cache:
        // both runs must agree with the reference interpreter.
        let mut cache = DecodeCache::new();
        for _ in 0..2 {
            let mut sram_ref = sram.clone();
            let mut cpu_ref = Cpu::new();
            cpu_ref.set_reg(Reg::LINK, RETURN_ADDR);
            let out_ref = cpu_ref.run(&mut sram_ref, &mut NullBus, 0, 1000);

            let mut sram_dec = sram.clone();
            let mut cpu_dec = Cpu::new();
            cpu_dec.set_reg(Reg::LINK, RETURN_ADDR);
            let out_dec =
                run_decoded(&mut cpu_dec, &mut sram_dec, &mut NullBus, 0, 1000, &mut cache);

            assert_states_equal((&cpu_ref, &sram_ref, out_ref), (&cpu_dec, &sram_dec, out_dec));
            assert_eq!(cpu_dec.reg(Reg::new(1)), 2, "patched instruction executed");
        }
    }

    #[test]
    fn bit_flip_invalidates_a_warmed_code_page() {
        // Warm the cache on a clean routine, flip one bit inside the
        // already-decoded code page (turning `addi r1, r0, 40` into a
        // different instruction or an illegal word), and re-run on the
        // same cache: the decoded backend must behave exactly like a
        // fresh reference run over the corrupted memory.
        let src = "addi r1, r0, 40\naddi r2, r1, 2\njr r15\n";
        let image = assemble(src).expect("assembles");
        let mut sram = Sram::new(PAGE_SIZE);
        sram.write_bytes(0, &image.bytes);

        let mut cache = DecodeCache::new();
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::LINK, RETURN_ADDR);
        let out = run_decoded(&mut cpu, &mut sram, &mut NullBus, 0, 1000, &mut cache);
        assert!(out.is_completed());
        assert_eq!(cache.valid_pages(&sram), 1, "code page decoded and warm");

        for bit in [0u64, 5, 17, 26 + 32, 31] {
            sram.flip_bit(bit);
            assert_eq!(cache.valid_pages(&sram), 0, "flip must stale the page");

            let mut sram_ref = sram.clone();
            let mut cpu_ref = Cpu::new();
            cpu_ref.set_reg(Reg::LINK, RETURN_ADDR);
            let out_ref = cpu_ref.run(&mut sram_ref, &mut NullBus, 0, 1000);

            let mut sram_dec = sram.clone();
            let mut cpu_dec = Cpu::new();
            cpu_dec.set_reg(Reg::LINK, RETURN_ADDR);
            let out_dec =
                run_decoded(&mut cpu_dec, &mut sram_dec, &mut NullBus, 0, 1000, &mut cache);
            assert_states_equal((&cpu_ref, &sram_ref, out_ref), (&cpu_dec, &sram_dec, out_dec));

            sram.flip_bit(bit); // restore for the next round
        }
    }

    #[test]
    fn decode_word_agrees_with_instr_decode_on_every_opcode() {
        for op in Opcode::ALL {
            let i = Instr::new(op, Reg::new(3), Reg::new(5), Reg::new(7), -9);
            let d = decode_word(i.encode());
            assert_ne!(d, DOp::Illegal, "{op:?} must decode");
        }
        // Every single-bit corruption of a valid opcode field that lands
        // on an unassigned encoding maps to Illegal, like Instr::decode.
        for word in [0u32, u32::MAX, 1 << 26, 0x3F << 26] {
            assert_eq!(
                Instr::decode(word).is_none(),
                decode_word(word) == DOp::Illegal,
                "acceptance diverged on {word:#010x}"
            );
        }
    }

    #[test]
    fn wild_jump_and_out_of_gas_match_reference() {
        for src in ["li r1, 0x400000\njr r1\n", "loop: beq r0, r0, loop\n"] {
            let (cr, sr, or_, cd, sd, od) = run_both(src);
            assert_states_equal((&cr, &sr, or_), (&cd, &sd, od));
        }
    }
}
