//! One-sided RMA windows over GM, with in-memory replication.
//!
//! Besta/Hoefler-style fault-tolerant RMA: a rank *exposes* a window
//! (a growable byte region); any rank may `put`/`get`/`accumulate` into it
//! without the target's program participating, and `flush` waits until the
//! target (and its replica) have applied everything this origin issued.
//!
//! Fault tolerance is by replication at the origin: every `put` and
//! `accumulate` is sent twice — to the window's *primary* (the owner rank)
//! and to its *replica* (the owner's ring successor at window-creation
//! time). Both copies apply the same in-order stream from each origin, so
//! they stay byte-identical. When the primary's NIC dies mid-epoch, `get`
//! and `flush` fail over to the replica and the application never notices —
//! the paper's "recovers from the replica without application involvement".
//!
//! This module is the pure part: wire encode/decode for the RMA protocol
//! messages and the window/counter bookkeeping. The runtime in
//! [`crate::runner`] moves the bytes.

use std::collections::BTreeMap;

/// Tag bit marking an RMA protocol message (all RMA traffic shares one
/// tag; the payload header routes it).
pub const TAG_RMA: u64 = 1 << 62;

/// An RMA protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmaMsg {
    /// Write `data` at `offset` of `(owner, win)`.
    Put {
        /// Window owner rank.
        owner: u32,
        /// Window id within the owner.
        win: u32,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Element-wise wrapping-add `values` into the `u64`s at `offset`.
    Acc {
        /// Window owner rank.
        owner: u32,
        /// Window id within the owner.
        win: u32,
        /// Byte offset (interpreted as little-endian `u64` slots).
        offset: u64,
        /// Addends.
        values: Vec<u64>,
    },
    /// Read `len` bytes at `offset`; answered with a [`RmaMsg::GetRep`].
    GetReq {
        /// Window owner rank.
        owner: u32,
        /// Window id within the owner.
        win: u32,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Origin-chosen request id echoed in the reply.
        req: u64,
    },
    /// Reply to a [`RmaMsg::GetReq`].
    GetRep {
        /// Echoed request id.
        req: u64,
        /// The window bytes (zero-filled beyond the written extent).
        data: Vec<u8>,
    },
    /// Ask the holder to ack once it has applied `sent_count` ops from
    /// this origin to `(owner, win)`.
    FlushReq {
        /// Window owner rank.
        owner: u32,
        /// Window id within the owner.
        win: u32,
        /// Ops this origin has issued to the window so far.
        sent_count: u64,
        /// Origin-chosen request id echoed in the ack.
        req: u64,
    },
    /// Reply to a [`RmaMsg::FlushReq`].
    FlushAck {
        /// Echoed request id.
        req: u64,
    },
}

const MSG_PUT: u8 = 1;
const MSG_ACC: u8 = 2;
const MSG_GET_REQ: u8 = 3;
const MSG_GET_REP: u8 = 4;
const MSG_FLUSH_REQ: u8 = 5;
const MSG_FLUSH_ACK: u8 = 6;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(data: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(data.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(data: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(data.get(at..at + 8)?.try_into().ok()?))
}

impl RmaMsg {
    /// Serializes to an envelope payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            RmaMsg::Put {
                owner,
                win,
                offset,
                data,
            } => {
                out.push(MSG_PUT);
                push_u32(&mut out, *owner);
                push_u32(&mut out, *win);
                push_u64(&mut out, *offset);
                out.extend_from_slice(data);
            }
            RmaMsg::Acc {
                owner,
                win,
                offset,
                values,
            } => {
                out.push(MSG_ACC);
                push_u32(&mut out, *owner);
                push_u32(&mut out, *win);
                push_u64(&mut out, *offset);
                for v in values {
                    push_u64(&mut out, *v);
                }
            }
            RmaMsg::GetReq {
                owner,
                win,
                offset,
                len,
                req,
            } => {
                out.push(MSG_GET_REQ);
                push_u32(&mut out, *owner);
                push_u32(&mut out, *win);
                push_u64(&mut out, *offset);
                push_u64(&mut out, *len);
                push_u64(&mut out, *req);
            }
            RmaMsg::GetRep { req, data } => {
                out.push(MSG_GET_REP);
                push_u64(&mut out, *req);
                out.extend_from_slice(data);
            }
            RmaMsg::FlushReq {
                owner,
                win,
                sent_count,
                req,
            } => {
                out.push(MSG_FLUSH_REQ);
                push_u32(&mut out, *owner);
                push_u32(&mut out, *win);
                push_u64(&mut out, *sent_count);
                push_u64(&mut out, *req);
            }
            RmaMsg::FlushAck { req } => {
                out.push(MSG_FLUSH_ACK);
                push_u64(&mut out, *req);
            }
        }
        out
    }

    /// Parses an envelope payload; `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<RmaMsg> {
        match *data.first()? {
            MSG_PUT => Some(RmaMsg::Put {
                owner: read_u32(data, 1)?,
                win: read_u32(data, 5)?,
                offset: read_u64(data, 9)?,
                data: data.get(17..)?.to_vec(),
            }),
            MSG_ACC => {
                let body = data.get(17..)?;
                if body.len() % 8 != 0 {
                    return None;
                }
                Some(RmaMsg::Acc {
                    owner: read_u32(data, 1)?,
                    win: read_u32(data, 5)?,
                    offset: read_u64(data, 9)?,
                    values: body
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
                        .collect(),
                })
            }
            MSG_GET_REQ => Some(RmaMsg::GetReq {
                owner: read_u32(data, 1)?,
                win: read_u32(data, 5)?,
                offset: read_u64(data, 9)?,
                len: read_u64(data, 17)?,
                req: read_u64(data, 25)?,
            }),
            MSG_GET_REP => Some(RmaMsg::GetRep {
                req: read_u64(data, 1)?,
                data: data.get(9..)?.to_vec(),
            }),
            MSG_FLUSH_REQ => Some(RmaMsg::FlushReq {
                owner: read_u32(data, 1)?,
                win: read_u32(data, 5)?,
                sent_count: read_u64(data, 9)?,
                req: read_u64(data, 17)?,
            }),
            MSG_FLUSH_ACK => Some(RmaMsg::FlushAck {
                req: read_u64(data, 1)?,
            }),
            _ => None,
        }
    }
}

/// Windows a rank holds — its own (primary) plus replicas for peers.
///
/// Windows grow on write and reads beyond the written extent return
/// zeros, so primary and replica agree without negotiating sizes.
#[derive(Clone, Debug, Default)]
pub struct WindowStore {
    windows: BTreeMap<(u32, u32), Vec<u8>>,
    applied: BTreeMap<(u32, u32, u32), u64>,
}

impl WindowStore {
    /// Registers `(owner, win)` (idempotent).
    pub fn create(&mut self, owner: u32, win: u32) {
        self.windows.entry((owner, win)).or_default();
    }

    fn grow_to(&mut self, owner: u32, win: u32, end: usize) -> &mut Vec<u8> {
        let w = self.windows.entry((owner, win)).or_default();
        if w.len() < end {
            w.resize(end, 0);
        }
        w
    }

    fn bump_applied(&mut self, owner: u32, win: u32, origin: u32) -> u64 {
        let c = self.applied.entry((owner, win, origin)).or_insert(0);
        *c += 1;
        *c
    }

    /// Applies a put from `origin`; returns the applied-op count for that
    /// `(owner, win, origin)` stream.
    pub fn apply_put(&mut self, owner: u32, win: u32, origin: u32, offset: u64, data: &[u8]) -> u64 {
        let start = offset as usize;
        let w = self.grow_to(owner, win, start.saturating_add(data.len()));
        if let Some(dst) = w.get_mut(start..start + data.len()) {
            dst.copy_from_slice(data);
        }
        self.bump_applied(owner, win, origin)
    }

    /// Applies an accumulate (wrapping add of little-endian `u64` slots)
    /// from `origin`; returns the applied-op count.
    pub fn apply_acc(
        &mut self,
        owner: u32,
        win: u32,
        origin: u32,
        offset: u64,
        values: &[u64],
    ) -> u64 {
        let start = offset as usize;
        let end = start.saturating_add(values.len() * 8);
        let w = self.grow_to(owner, win, end);
        for (i, v) in values.iter().enumerate() {
            let at = start + i * 8;
            if let Some(slot) = w.get_mut(at..at + 8) {
                let cur = u64::from_le_bytes(slot.try_into().unwrap_or([0; 8]));
                slot.copy_from_slice(&cur.wrapping_add(*v).to_le_bytes());
            }
        }
        self.bump_applied(owner, win, origin)
    }

    /// Reads `len` bytes at `offset`, zero-filled past the written extent.
    pub fn read(&self, owner: u32, win: u32, offset: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        if let Some(w) = self.windows.get(&(owner, win)) {
            let start = (offset as usize).min(w.len());
            let end = (offset as usize).saturating_add(len as usize).min(w.len());
            let avail = w.get(start..end).unwrap_or_default();
            if let Some(dst) = out.get_mut(..avail.len()) {
                dst.copy_from_slice(avail);
            }
        }
        out
    }

    /// Ops applied so far on the `(owner, win, origin)` stream.
    pub fn applied_count(&self, owner: u32, win: u32, origin: u32) -> u64 {
        self.applied.get(&(owner, win, origin)).copied().unwrap_or(0)
    }

    /// Raw window contents (for checksums in tests/benches).
    pub fn snapshot(&self, owner: u32, win: u32) -> Option<&[u8]> {
        self.windows.get(&(owner, win)).map(|w| w.as_slice())
    }
}

/// Origin-side issue counters: ops sent per `(owner, win)` — the number a
/// flush must see applied at each live copy.
#[derive(Clone, Debug, Default)]
pub struct OriginCounters {
    sent: BTreeMap<(u32, u32), u64>,
}

impl OriginCounters {
    /// Records one issued op against `(owner, win)`; returns the total.
    pub fn record(&mut self, owner: u32, win: u32) -> u64 {
        let c = self.sent.entry((owner, win)).or_insert(0);
        *c += 1;
        *c
    }

    /// Ops issued to `(owner, win)` so far.
    pub fn issued(&self, owner: u32, win: u32) -> u64 {
        self.sent.get(&(owner, win)).copied().unwrap_or(0)
    }

    /// Every `(owner, win)` this origin has touched.
    pub fn touched(&self) -> Vec<(u32, u32, u64)> {
        self.sent.iter().map(|(&(o, w), &c)| (o, w, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgs_roundtrip() {
        let msgs = [
            RmaMsg::Put {
                owner: 3,
                win: 1,
                offset: 16,
                data: vec![1, 2, 3],
            },
            RmaMsg::Acc {
                owner: 3,
                win: 1,
                offset: 8,
                values: vec![10, u64::MAX],
            },
            RmaMsg::GetReq {
                owner: 0,
                win: 2,
                offset: 0,
                len: 32,
                req: 77,
            },
            RmaMsg::GetRep {
                req: 77,
                data: vec![0; 4],
            },
            RmaMsg::FlushReq {
                owner: 1,
                win: 0,
                sent_count: 5,
                req: 78,
            },
            RmaMsg::FlushAck { req: 78 },
        ];
        for m in msgs {
            assert_eq!(RmaMsg::decode(&m.encode()), Some(m));
        }
        assert_eq!(RmaMsg::decode(&[]), None);
        assert_eq!(RmaMsg::decode(&[99, 0, 0]), None);
    }

    #[test]
    fn windows_grow_and_replicate_deterministically() {
        let mut primary = WindowStore::default();
        let mut replica = WindowStore::default();
        for store in [&mut primary, &mut replica] {
            store.create(2, 0);
            store.apply_put(2, 0, 5, 8, &[0xAA; 4]);
            store.apply_acc(2, 0, 5, 0, &[7]);
            store.apply_acc(2, 0, 5, 0, &[u64::MAX]);
        }
        assert_eq!(primary.snapshot(2, 0), replica.snapshot(2, 0));
        assert_eq!(primary.applied_count(2, 0, 5), 3);
        // acc wrapped: 7 + MAX == 6 (mod 2^64)
        assert_eq!(primary.read(2, 0, 0, 8), 6u64.to_le_bytes().to_vec());
        // reads past the extent zero-fill
        assert_eq!(primary.read(2, 0, 100, 4), vec![0; 4]);
        assert_eq!(primary.read(9, 9, 0, 2), vec![0; 2]);
    }

    #[test]
    fn origin_counters_track_per_window() {
        let mut o = OriginCounters::default();
        assert_eq!(o.record(1, 0), 1);
        assert_eq!(o.record(1, 0), 2);
        assert_eq!(o.record(2, 0), 1);
        assert_eq!(o.issued(1, 0), 2);
        assert_eq!(o.issued(3, 3), 0);
        assert_eq!(o.touched(), vec![(1, 0, 2), (2, 0, 1)]);
    }
}
