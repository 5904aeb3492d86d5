//! The `send_chunk` firmware and the MCP's SRAM layout.
//!
//! `send_chunk` is "a serial piece of code that is executed by the LANai
//! each time a message is sent out" — the paper chose it as the fault-
//! injection target precisely because every injected fault is guaranteed to
//! activate. We therefore implement it as *real interpreted LN32 code in
//! SRAM*: the campaign flips one bit inside [`FirmwareImage::code_range`]
//! and the consequences (illegal instruction, runaway loop, corrupted
//! header, stray CSR write, silently wrong payload) unfold exactly as they
//! would on the card.
//!
//! Like the real `send_chunk`, the routine has several paths of which a
//! given workload exercises only some — an inline-copy fast path for tiny
//! payloads, the gather path for everything else, a resend entry, and error
//! exits. Faults landing in a path the workload never runs are the model's
//! organic source of the paper's 51% "no impact" outcomes.

use std::sync::OnceLock;

use ftgm_lanai::asm::{assemble, Assembled};

/// SRAM byte addresses used by the MCP (8 MB SRAM, the top LANai9
/// configuration — the paper: "onboard SRAM ranging from 512K to 8M
/// bytes").
pub mod layout {
    /// Total SRAM size the MCP model expects.
    pub const SRAM_LEN: usize = 8 << 20;
    /// Base of the interpreted `send_chunk` code.
    pub const CODE_BASE: u32 = 0x1000;
    /// The send-record argument block (inputs to `send_chunk`).
    pub const SENDREC: u32 = 0x8000;
    /// Where `send_chunk` builds the packet header (and inline payloads).
    pub const PKT_BUF: u32 = 0xA000;
    /// The liveness scratch word: the FTD writes a magic value here and a
    /// healthy MCP clears it on its next `L_timer()` pass (§4.3's "magic
    /// word" probe).
    pub const MAGIC_WORD: u32 = 0xF000;
    /// Base of the chunk staging slabs.
    pub const STAGE_BASE: u32 = 0x20000;
    /// Size of one staging slab (4 KB payload + slack).
    pub const SLAB_SIZE: u32 = 0x1100;
    /// Number of staging slabs. Chunks are retained until their whole
    /// message is acknowledged, so this bounds the largest message:
    /// 512 slabs × 4 KB = 2 MB.
    pub const SLAB_COUNT: u32 = 512;

    /// Offsets within the send record.
    pub mod sendrec {
        /// Staging address of the payload.
        pub const STAGE_ADDR: u32 = 0;
        /// Payload length.
        pub const LEN: u32 = 4;
        /// Sequence number.
        pub const SEQ: u32 = 8;
        /// Pre-composed stream word (flags folded in by the dispatcher).
        pub const STREAM: u32 = 12;
        /// Total message length.
        pub const MSG_LEN: u32 = 16;
        /// Chunk offset within the message.
        pub const CHUNK_OFF: u32 = 20;
        /// Packet-header build buffer address.
        pub const HDR_BUF: u32 = 24;
        /// Completion status: 1 = ok, 0xFFFF_FFFF = parameter error.
        pub const STATUS: u32 = 32;
        /// Pinned host address for the completion-record DMA (0 = skip).
        pub const STATUS_HOST: u32 = 40;
    }
}

/// The `send_chunk` routine, in LN32 assembly.
///
/// Register convention: `r1` send-record base, `r2` staging address, `r3`
/// length, `r5` header buffer; `r15` is the return linkage seeded by the
/// dispatcher.
pub const SEND_CHUNK_ASM: &str = r#"
; ---- resend entry: OR the RESEND flag into the stream word, fall through
send_chunk_resend:
    li    r1, 0x8000          ; SENDREC
    lw    r6, 12(r1)          ; stream word
    li    r7, 0x4000000       ; RESEND flag (bit 26)
    or    r6, r6, r7
    sw    r6, 12(r1)

; ---- main entry ------------------------------------------------------
send_chunk:
    li    r1, 0x8000          ; SENDREC
    lw    r2, 0(r1)           ; staging address
    lw    r3, 4(r1)           ; payload length
    beq   r3, r0, err         ; zero-length send: parameter error
    li    r4, 4096
    bltu  r4, r3, err         ; oversized chunk: parameter error
    lw    r5, 24(r1)          ; header buffer

; ---- build the header ---------------------------------------------------
    li    r6, 0x04D59001      ; MAGIC | DATA
    sw    r6, 0(r5)
    lw    r6, 12(r1)          ; stream word
    sw    r6, 4(r5)
    lw    r6, 8(r1)           ; seq
    sw    r6, 8(r5)
    lw    r6, 16(r1)          ; msg_len
    sw    r6, 12(r5)
    lw    r6, 20(r1)          ; chunk_offset
    sw    r6, 16(r5)
    sw    r3, 20(r5)          ; payload_len

; ---- payload checksum via the checksum unit -----------------------------
    csrw  0x30, r2            ; CKSUM_ADDR
    csrw  0x31, r3            ; CKSUM_LEN (triggers)
    csrr  r6, 0x32            ; CKSUM_RESULT
    sw    r6, 24(r5)

; ---- header checksum over words +0..+24 ---------------------------------
    addi  r7, r0, 0           ; sum
    addi  r8, r0, 0           ; offset
    addi  r9, r0, 28          ; limit
hsum:
    add   r10, r5, r8
    lw    r11, 0(r10)
    add   r7, r7, r11
    addi  r8, r8, 4
    bltu  r8, r9, hsum
    sw    r7, 28(r5)

; ---- transmit ----------------------------------------------------------
    addi  r6, r0, 64
    bgeu  r6, r3, inline      ; tiny payloads take the inline-copy path
    csrw  0x10, r5            ; TX_HDR_ADDR
    addi  r6, r0, 32
    csrw  0x11, r6            ; TX_HDR_LEN
    csrw  0x12, r2            ; TX_PAY_ADDR
    csrw  0x13, r3            ; TX_PAY_LEN
    csrw  0x14, r0            ; TX_TRIGGER
    beq   r0, r0, done

; ---- inline-copy fast path (len <= 64): payload copied after the header
inline:
    addi  r8, r0, 0
copy:
    add   r10, r2, r8
    lb    r11, 0(r10)
    add   r12, r5, r8
    sb    r11, 32(r12)
    addi  r8, r8, 1
    bltu  r8, r3, copy
    csrw  0x10, r5            ; TX_HDR_ADDR
    addi  r6, r3, 32
    csrw  0x11, r6            ; TX_HDR_LEN = 32 + len
    csrw  0x13, r0            ; TX_PAY_LEN = 0
    csrw  0x14, r0            ; TX_TRIGGER

done:
    addi  r6, r0, 1
    sw    r6, 32(r1)          ; status = ok

; ---- DMA the completion record to the host ------------------------------
; The driver points SENDREC+40 at a pinned scratch page; firmware ships the
; 8-byte status record there so the host can observe send progress without
; PIO reads. (On real cards this descriptor is exactly how a corrupted
; send path scribbles over host memory.)
    lw    r12, 40(r1)         ; host record address
    beq   r12, r0, norep      ; zero: reporting disabled
    csrw  0x20, r12           ; HDMA_HOST_ADDR
    li    r13, 0x8020         ; SENDREC+32 (the record)
    csrw  0x21, r13           ; HDMA_SRAM_ADDR
    addi  r13, r0, 8
    csrw  0x22, r13           ; HDMA_LEN
    addi  r13, r0, 2
    csrw  0x23, r13           ; HDMA_CTRL = SRAM -> host
norep:
    jr    r15

err:
    addi  r6, r0, -1
    sw    r6, 32(r1)          ; status = parameter error
    jr    r15
"#;

/// The assembled firmware with its entry points.
#[derive(Clone, Debug)]
pub struct FirmwareImage {
    assembled: Assembled,
    entry_send: u32,
    entry_resend: u32,
}

impl FirmwareImage {
    /// Assembles the MCP firmware.
    ///
    /// # Panics
    ///
    /// Panics if the embedded assembly fails to assemble — a build-time
    /// invariant, covered by tests.
    pub fn build() -> FirmwareImage {
        let assembled = assemble(SEND_CHUNK_ASM).expect("send_chunk assembles");
        let entry_send = layout::CODE_BASE + assembled.label("send_chunk");
        let entry_resend = layout::CODE_BASE + assembled.label("send_chunk_resend");
        FirmwareImage {
            assembled,
            entry_send,
            entry_resend,
        }
    }

    /// The process-wide image every [`McpMachine`](crate::McpMachine)
    /// loads, assembled on first use.
    pub fn shared() -> &'static FirmwareImage {
        static IMAGE: OnceLock<FirmwareImage> = OnceLock::new();
        IMAGE.get_or_init(FirmwareImage::build)
    }

    /// The image bytes to load at [`layout::CODE_BASE`].
    pub fn bytes(&self) -> &[u8] {
        &self.assembled.bytes
    }

    /// Absolute SRAM entry address of `send_chunk`.
    pub fn entry_send(&self) -> u32 {
        self.entry_send
    }

    /// Absolute SRAM entry address of the resend path.
    pub fn entry_resend(&self) -> u32 {
        self.entry_resend
    }

    /// The absolute SRAM byte range holding `send_chunk` code — the fault
    /// campaign's injection section.
    pub fn code_range(&self) -> std::ops::Range<u32> {
        layout::CODE_BASE..layout::CODE_BASE + self.assembled.bytes.len() as u32
    }

    /// Staging slab base address for slab `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= SLAB_COUNT`.
    pub fn slab_addr(i: u32) -> u32 {
        assert!(i < layout::SLAB_COUNT, "slab index {i} out of range");
        layout::STAGE_BASE + i * layout::SLAB_SIZE
    }
}

impl Default for FirmwareImage {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::layout::sendrec;
    use super::*;
    use crate::packet::{build_data_frame, flags, Header, PacketType};
    use ftgm_lanai::chip::ChipEffect;
    use ftgm_lanai::cpu::RETURN_ADDR;
    use ftgm_lanai::isa::Reg;
    use ftgm_lanai::LanaiChip;
    use ftgm_net::NodeId;
    use ftgm_sim::SimTime;

    fn loaded_chip(fw: &FirmwareImage) -> LanaiChip {
        let mut chip = LanaiChip::new(layout::SRAM_LEN);
        chip.sram.write_bytes(layout::CODE_BASE, fw.bytes());
        chip
    }

    fn run_send_chunk(
        chip: &mut LanaiChip,
        entry: u32,
        payload: &[u8],
        seq: u32,
        stream: u32,
        msg_len: u32,
        chunk_off: u32,
    ) -> (i64, Vec<Vec<u8>>) {
        let stage = FirmwareImage::slab_addr(0);
        chip.sram.write_bytes(stage, payload);
        let r = layout::SENDREC;
        chip.sram.write_u32(r + sendrec::STAGE_ADDR, stage).unwrap();
        chip.sram.write_u32(r + sendrec::LEN, payload.len() as u32).unwrap();
        chip.sram.write_u32(r + sendrec::SEQ, seq).unwrap();
        chip.sram.write_u32(r + sendrec::STREAM, stream).unwrap();
        chip.sram.write_u32(r + sendrec::MSG_LEN, msg_len).unwrap();
        chip.sram.write_u32(r + sendrec::CHUNK_OFF, chunk_off).unwrap();
        chip.sram.write_u32(r + sendrec::HDR_BUF, layout::PKT_BUF).unwrap();
        chip.sram.write_u32(r + sendrec::STATUS, 0).unwrap();
        chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
        chip.run_routine(SimTime::ZERO, entry, 20_000);
        let status = chip.sram.read_u32(r + sendrec::STATUS).unwrap() as i32 as i64;
        let frames = chip
            .take_effects()
            .into_iter()
            .filter_map(|e| match e {
                ChipEffect::TxFrame(f) => Some(f.bytes),
                _ => None,
            })
            .collect();
        (status, frames)
    }

    #[test]
    fn firmware_assembles_with_entries() {
        let fw = FirmwareImage::build();
        assert!(fw.bytes().len() > 200, "firmware suspiciously small");
        assert!(fw.entry_send() > fw.entry_resend());
        assert!(fw.code_range().contains(&fw.entry_send()));
    }

    #[test]
    fn gather_path_produces_exact_reference_frame() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let stream = crate::packet::stream_word(NodeId(4), 2, 6, flags::LAST_CHUNK);
        let (status, frames) =
            run_send_chunk(&mut chip, fw.entry_send(), &payload, 9, stream, 300, 0);
        assert_eq!(status, 1);
        assert_eq!(frames.len(), 1);
        let expected = build_data_frame(NodeId(4), 2, 6, 9, 300, 0, flags::LAST_CHUNK, &payload);
        assert_eq!(frames[0], expected, "firmware bytes differ from reference");
    }

    #[test]
    fn inline_path_produces_exact_reference_frame() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let payload = vec![0xA5u8; 48];
        let stream = crate::packet::stream_word(NodeId(1), 0, 0, flags::LAST_CHUNK);
        let (status, frames) =
            run_send_chunk(&mut chip, fw.entry_send(), &payload, 0, stream, 48, 0);
        assert_eq!(status, 1);
        let expected = build_data_frame(NodeId(1), 0, 0, 0, 48, 0, flags::LAST_CHUNK, &payload);
        assert_eq!(frames[0], expected);
    }

    #[test]
    fn produced_frame_parses() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let payload = vec![0x11u8; 1000];
        let stream = crate::packet::stream_word(NodeId(2), 1, 3, 0);
        let (_, frames) =
            run_send_chunk(&mut chip, fw.entry_send(), &payload, 5, stream, 5000, 1000);
        let (h, p) = Header::parse(&frames[0]).expect("parses");
        assert_eq!(h.ptype, PacketType::Data);
        assert_eq!(h.seq(), 5);
        assert_eq!(h.msg_len, 5000);
        assert_eq!(h.chunk_offset, 1000);
        assert!(!h.last_chunk);
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn resend_entry_sets_resend_flag() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let payload = vec![3u8; 128];
        let stream = crate::packet::stream_word(NodeId(0), 0, 0, flags::LAST_CHUNK);
        let (status, frames) =
            run_send_chunk(&mut chip, fw.entry_resend(), &payload, 7, stream, 128, 0);
        assert_eq!(status, 1);
        let (h, _) = Header::parse(&frames[0]).unwrap();
        assert!(h.resend);
        assert!(h.last_chunk);
        assert_eq!(h.seq(), 7);
    }

    #[test]
    fn zero_length_takes_error_path() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let (status, frames) = run_send_chunk(
            &mut chip,
            fw.entry_send(),
            &[],
            0,
            0,
            0,
            0,
        );
        assert_eq!(status, -1);
        assert!(frames.is_empty());
        assert!(!chip.is_hung());
    }

    #[test]
    fn oversize_length_takes_error_path() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let payload = vec![0u8; 4097];
        let (status, frames) =
            run_send_chunk(&mut chip, fw.entry_send(), &payload, 0, 0, 4097, 0);
        assert_eq!(status, -1);
        assert!(frames.is_empty());
    }

    #[test]
    fn max_chunk_exactly_4096_is_ok() {
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let payload = vec![9u8; 4096];
        let stream = crate::packet::stream_word(NodeId(0), 0, 0, 0);
        let (status, frames) =
            run_send_chunk(&mut chip, fw.entry_send(), &payload, 1, stream, 8192, 0);
        assert_eq!(status, 1);
        assert_eq!(frames[0].len(), 32 + 4096);
    }

    #[test]
    fn corrupted_code_can_hang_the_chip() {
        // Smash the whole code region with zeros (illegal instructions):
        // running send_chunk must hang, not panic the simulator.
        let fw = FirmwareImage::build();
        let mut chip = loaded_chip(&fw);
        let zeros = vec![0u8; fw.bytes().len()];
        chip.sram.write_bytes(layout::CODE_BASE, &zeros);
        let payload = vec![1u8; 64];
        let (_, _) = run_send_chunk(&mut chip, fw.entry_send(), &payload, 0, 0, 64, 0);
        assert!(chip.is_hung());
    }

    #[test]
    fn slab_addresses_do_not_overlap_code_or_sendrec() {
        let fw = FirmwareImage::build();
        let first = FirmwareImage::slab_addr(0);
        let last = FirmwareImage::slab_addr(layout::SLAB_COUNT - 1);
        assert!(first >= fw.code_range().end);
        assert!(first > layout::PKT_BUF + 0x1100);
        assert!((last + layout::SLAB_SIZE) as usize <= layout::SRAM_LEN);
    }
}
