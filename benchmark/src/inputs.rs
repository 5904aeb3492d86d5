//! Seed-derived inputs. Everything the program under test receives —
//! payload bytes, message sizes, arrival instants, hang offsets — is
//! generated here during set-up, before the measured window opens, so
//! the window pays only for the stack and the same seed always offers
//! the same load.

use std::rc::Rc;

use ftgm_sim::SimRng;

/// Length of the shared payload pad. Larger than the largest message
/// (264 KiB) so every message can start at its own offset.
const PAD_LEN: usize = 1 << 20;

/// A block of seed-random bytes that every payload is a window of.
///
/// Sender and receiver derive the same window from `(flow, index, len)`
/// without sharing any state, so a receiver validates a delivery with
/// one slice comparison: corruption, loss, duplication and reordering
/// all show up as a mismatch.
#[derive(Clone)]
pub struct Pad(Rc<[u8]>);

impl Pad {
    pub fn new(seed: u64) -> Pad {
        let mut rng = SimRng::new(seed ^ 0x5041_4421);
        let mut bytes = Vec::with_capacity(PAD_LEN);
        while bytes.len() < PAD_LEN {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Pad(bytes.into())
    }

    /// The payload of message `index` on `flow`.
    pub fn payload(&self, flow: u32, index: u64, len: u32) -> &[u8] {
        let len = len as usize;
        let span = (PAD_LEN - len + 1) as u64;
        let mixed = index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(flow).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        let off = ((mixed >> 16) % span) as usize;
        &self.0[off..off + len]
    }
}

/// Per-flow generator: each flow gets its own stream so adding a flow
/// never shifts another flow's inputs.
pub fn flow_rng(seed: u64, flow: u32) -> SimRng {
    SimRng::new(
        seed.wrapping_add(u64::from(flow).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(1),
    )
}

/// FNV-1a over `u64` words; the one checksum the benchmark uses.
pub fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
