//! The wire packet format.
//!
//! Data packets are *built by firmware* (`send_chunk`) directly in SRAM —
//! that is the point of the fault-injection experiments — and parsed back
//! out of raw bytes by the receiving MCP. ACK/NACK packets are built by the
//! Rust-modelled part of the MCP (the paper injects faults only into
//! `send_chunk`).
//!
//! Layout (little-endian words):
//!
//! ```text
//! +0   magic|type      0x04D59000 | {1=DATA, 2=ACK, 3=NACK}
//! +4   stream word     src_node[15:0] | src_port[19:16] | dst_port[23:20]
//!                      | prio[24] | last-chunk[25] | resend[26]
//! +8   seq             per-stream packet sequence number
//! +12  msg_len         total message length (DATA)
//! +16  chunk_offset    byte offset of this chunk within the message (DATA)
//! +20  payload_len     bytes following the header (DATA; 0 for ACK/NACK)
//! +24  payload cksum   additive word checksum of the payload
//! +28  header cksum    additive word checksum of words +0..+24
//! +32  payload...
//! ```
//!
//! The two checksums are the NIC-level integrity check: a corrupted
//! `send_chunk` that writes wrong bytes *and* sums them consistently
//! produces a silently-corrupt packet (Table 1's "messages corrupted"
//! category); one that breaks the sums produces a receiver-side drop.

// Wire format: a silent truncation corrupts packets in a way the checksums
// may or may not catch; each deliberate narrowing carries an `expect`.
#![deny(clippy::cast_possible_truncation)]

use ftgm_net::NodeId;

/// Wire size of the packet header.
pub const HEADER_LEN: usize = 32;

/// Magic value in the type word.
pub const MAGIC: u32 = 0x04D5_9000;

/// Packet type codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketType {
    /// A data chunk.
    Data = 1,
    /// Cumulative acknowledgement: `seq` = next expected.
    Ack = 2,
    /// Negative acknowledgement: `seq` = next expected (rewind point).
    Nack = 3,
}

/// Stream-word flag bits.
pub mod flags {
    /// High-priority message.
    pub const PRIO_HIGH: u32 = 1 << 24;
    /// This chunk completes its message.
    pub const LAST_CHUNK: u32 = 1 << 25;
    /// This chunk is a retransmission.
    pub const RESEND: u32 = 1 << 26;
    /// This chunk establishes a fresh stream at the sender (its very
    /// first sequence number after stream creation or an MCP reload).
    /// Receivers may only synchronize a stream's expected sequence from a
    /// SYN chunk.
    pub const SYN: u32 = 1 << 27;
}

/// A parsed packet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Packet type.
    pub ptype: PacketType,
    /// Originating interface.
    pub src_node: NodeId,
    /// Originating GM port.
    pub src_port: u8,
    /// Destination GM port.
    pub dst_port: u8,
    /// High priority?
    pub prio_high: bool,
    /// Final chunk of its message?
    pub last_chunk: bool,
    /// Retransmission?
    pub resend: bool,
    /// Stream-establishing chunk?
    pub syn: bool,
    /// Stream sequence number (or ack/rewind point).
    pub seq: u32,
    /// Total message length.
    pub msg_len: u32,
    /// This chunk's offset within the message.
    pub chunk_offset: u32,
    /// Payload bytes following the header.
    pub payload_len: u32,
    /// Additive checksum of the payload as claimed by the sender.
    pub payload_cksum: u32,
}

/// Why a received frame failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParseError {
    /// Shorter than a header.
    Truncated,
    /// Bad magic in the type word.
    BadMagic,
    /// Unknown packet type code.
    BadType(u8),
    /// Header checksum mismatch.
    HeaderChecksum,
    /// Payload length disagrees with the frame length.
    LengthMismatch,
    /// Payload checksum mismatch.
    PayloadChecksum,
}

/// Additive word checksum — the chip's checksum unit itself, so the two
/// ends of the wire cannot drift apart.
pub use ftgm_lanai::sram::word_checksum;

/// Composes a stream word.
pub fn stream_word(src_node: NodeId, src_port: u8, dst_port: u8, flag_bits: u32) -> u32 {
    (src_node.0 as u32)
        | ((src_port as u32 & 0xF) << 16)
        | ((dst_port as u32 & 0xF) << 20)
        | flag_bits
}

impl Header {
    /// Serializes an ACK/NACK-style header (no payload) to wire bytes.
    /// Data packets are built by firmware, not by this function.
    pub fn control_frame(
        ptype: PacketType,
        src_node: NodeId,
        src_port: u8,
        dst_port: u8,
        seq: u32,
    ) -> Vec<u8> {
        Self::control_frame_prio(ptype, src_node, src_port, dst_port, seq, false)
    }

    /// [`Header::control_frame`] for a specific priority class (control
    /// frames identify their stream, and FTGM streams are per-priority).
    pub fn control_frame_prio(
        ptype: PacketType,
        src_node: NodeId,
        src_port: u8,
        dst_port: u8,
        seq: u32,
        prio_high: bool,
    ) -> Vec<u8> {
        assert!(ptype != PacketType::Data, "data frames are built by firmware");
        let fl = if prio_high { flags::PRIO_HIGH } else { 0 };
        let mut bytes = vec![0u8; HEADER_LEN];
        let words = [
            MAGIC | ptype as u32,
            stream_word(src_node, src_port, dst_port, fl),
            seq,
            0,
            0,
            0,
            0, // payload checksum of empty payload
        ];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        let hsum = word_checksum(&bytes[..28]);
        bytes[28..32].copy_from_slice(&hsum.to_le_bytes());
        bytes
    }

    /// Parses and fully validates a received frame, returning the header
    /// and the payload slice.
    ///
    /// # Errors
    ///
    /// Any structural or checksum failure yields a [`ParseError`]; the
    /// receiving MCP drops such frames (GM's transparent handling of
    /// corrupted packets).
    pub fn parse(frame: &[u8]) -> Result<(Header, &[u8]), ParseError> {
        if frame.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let word = |i: usize| {
            u32::from_le_bytes([frame[i * 4], frame[i * 4 + 1], frame[i * 4 + 2], frame[i * 4 + 3]])
        };
        let type_word = word(0);
        if type_word & 0xFFFF_FF00 != MAGIC {
            return Err(ParseError::BadMagic);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the low byte IS the type field; the magic check above \
                      already validated the upper 24 bits"
        )]
        let ptype = match type_word as u8 {
            1 => PacketType::Data,
            2 => PacketType::Ack,
            3 => PacketType::Nack,
            t => return Err(ParseError::BadType(t)),
        };
        let claimed_hsum = word(7);
        if word_checksum(&frame[..28]) != claimed_hsum {
            return Err(ParseError::HeaderChecksum);
        }
        let stream = word(1);
        let payload_len = word(5);
        if frame.len() != HEADER_LEN + payload_len as usize {
            return Err(ParseError::LengthMismatch);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the node id is the low 16 bits of the packed stream word"
        )]
        let src_node = NodeId(stream as u16);
        let payload = &frame[HEADER_LEN..];
        let payload_cksum = word(6);
        if word_checksum(payload) != payload_cksum {
            return Err(ParseError::PayloadChecksum);
        }
        Ok((
            Header {
                ptype,
                src_node,
                // The ports are 4-bit fields of the stream word, masked to range.
                src_port: ((stream >> 16) & 0xF) as u8,
                dst_port: ((stream >> 20) & 0xF) as u8,
                prio_high: stream & flags::PRIO_HIGH != 0,
                last_chunk: stream & flags::LAST_CHUNK != 0,
                resend: stream & flags::RESEND != 0,
                syn: stream & flags::SYN != 0,
                seq: word(2),
                msg_len: word(3),
                chunk_offset: word(4),
                payload_len,
                payload_cksum,
            },
            payload,
        ))
    }
}

/// Builds a valid data frame exactly as correct firmware would.
///
/// Used by tests and by reference checks; the production data path builds
/// these bytes in SRAM via `send_chunk` so that fault injection can corrupt
/// them.
#[allow(clippy::too_many_arguments)] // mirrors the wire header fields 1:1
pub fn build_data_frame(
    src_node: NodeId,
    src_port: u8,
    dst_port: u8,
    seq: u32,
    msg_len: u32,
    chunk_offset: u32,
    flag_bits: u32,
    payload: &[u8],
) -> Vec<u8> {
    let mut bytes = vec![0u8; HEADER_LEN + payload.len()];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the payload is one chunk, far below the 32-bit length word's range"
    )]
    let payload_len = payload.len() as u32;
    let words = [
        MAGIC | PacketType::Data as u32,
        stream_word(src_node, src_port, dst_port, flag_bits),
        seq,
        msg_len,
        chunk_offset,
        payload_len,
        word_checksum(payload),
    ];
    for (i, w) in words.iter().enumerate() {
        bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    let hsum = word_checksum(&bytes[..28]);
    bytes[28..32].copy_from_slice(&hsum.to_le_bytes());
    bytes[HEADER_LEN..].copy_from_slice(payload);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_data_frame_t(
        src_node: NodeId,
        src_port: u8,
        dst_port: u8,
        seq: u32,
        msg_len: u32,
        chunk_offset: u32,
        last: bool,
        payload: &[u8],
    ) -> Vec<u8> {
        let fl = if last { flags::LAST_CHUNK } else { 0 };
        build_data_frame(src_node, src_port, dst_port, seq, msg_len, chunk_offset, fl, payload)
    }

    #[test]
    fn data_frame_roundtrip() {
        let f = build_data_frame_t(NodeId(3), 2, 5, 77, 100, 0, true, &[9u8; 100]);
        let (h, p) = Header::parse(&f).unwrap();
        assert_eq!(h.ptype, PacketType::Data);
        assert_eq!(h.src_node, NodeId(3));
        assert_eq!(h.src_port, 2);
        assert_eq!(h.dst_port, 5);
        assert_eq!(h.seq, 77);
        assert_eq!(h.msg_len, 100);
        assert_eq!(h.chunk_offset, 0);
        assert!(h.last_chunk);
        assert!(!h.resend);
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn control_frame_roundtrip() {
        let f = Header::control_frame(PacketType::Ack, NodeId(1), 4, 0, 42);
        let (h, p) = Header::parse(&f).unwrap();
        assert_eq!(h.ptype, PacketType::Ack);
        assert_eq!(h.seq, 42);
        assert_eq!(h.src_port, 4);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "firmware")]
    fn control_frame_rejects_data() {
        Header::control_frame(PacketType::Data, NodeId(0), 0, 0, 0);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Header::parse(&[0; 10]), Err(ParseError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut f = build_data_frame_t(NodeId(0), 0, 0, 0, 4, 0, true, &[1, 2, 3, 4]);
        f[3] = 0xFF;
        assert_eq!(Header::parse(&f), Err(ParseError::BadMagic));
    }

    #[test]
    fn bad_type_rejected() {
        let mut f = Header::control_frame(PacketType::Ack, NodeId(0), 0, 0, 1);
        f[0] = 9; // type byte inside intact magic
        let hsum = word_checksum(&f[..28]);
        f[28..32].copy_from_slice(&hsum.to_le_bytes());
        assert_eq!(Header::parse(&f), Err(ParseError::BadType(9)));
    }

    #[test]
    fn header_corruption_detected() {
        let mut f = build_data_frame_t(NodeId(0), 0, 0, 5, 4, 0, true, &[1, 2, 3, 4]);
        f[8] ^= 0x01; // flip a bit in seq
        assert_eq!(Header::parse(&f), Err(ParseError::HeaderChecksum));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut f = build_data_frame_t(NodeId(0), 0, 0, 5, 4, 0, true, &[1, 2, 3, 4]);
        let n = f.len();
        f[n - 1] ^= 0x80;
        assert_eq!(Header::parse(&f), Err(ParseError::PayloadChecksum));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut f = build_data_frame_t(NodeId(0), 0, 0, 5, 4, 0, true, &[1, 2, 3, 4]);
        f.push(0);
        assert_eq!(Header::parse(&f), Err(ParseError::LengthMismatch));
    }

    #[test]
    fn word_checksum_matches_sram_unit() {
        // Same algorithm as Sram::checksum: word sum with zero-padded tail.
        assert_eq!(word_checksum(&[1, 0, 0, 0, 2, 0, 0, 0]), 3);
        assert_eq!(word_checksum(&[0xFF]), 0xFF);
        assert_eq!(word_checksum(&[]), 0);
    }

    #[test]
    fn stream_word_packs_fields() {
        let w = stream_word(NodeId(0x1234), 3, 7, flags::LAST_CHUNK);
        assert_eq!(w & 0xFFFF, 0x1234);
        assert_eq!((w >> 16) & 0xF, 3);
        assert_eq!((w >> 20) & 0xF, 7);
        assert_ne!(w & flags::LAST_CHUNK, 0);
    }
}
