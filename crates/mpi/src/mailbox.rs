//! Tag-matched messaging over GM.
//!
//! MPI matches receives by `(source, tag)`; GM delivers whatever arrives.
//! The mailbox bridges the two: every middleware message travels as a GM
//! message carrying an [`Envelope`] header (source rank, tag), and arrived
//! envelopes wait in per-`(tag, source)` queues until a matching receive
//! posts. GM's in-order delivery per stream makes each `(source, tag)`
//! queue FIFO.
//!
//! Matching is indexed: envelopes live in a `BTreeMap` keyed by
//! `(tag, source)`, so an exact-match take is one map lookup and an
//! any-source take is a range scan over the (few) sources that sent that
//! tag — arrivals carry a global sequence number so any-source still
//! returns the oldest match. At 1024 ranks a collective round parks up to
//! a thousand envelopes; the old linear scan made every receive O(total
//! buffered), which went quadratic exactly when the job was largest.

use std::collections::{BTreeMap, VecDeque};

/// Highest tag value available to applications; larger tags are reserved
/// for the collective, checkpoint, and RMA protocols.
pub const TAG_USER_MAX: u64 = 1 << 48;

/// Wire format of a middleware message: `[src_rank u32][tag u64][payload]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending rank.
    pub src_rank: u32,
    /// Match tag.
    pub tag: u64,
    /// Application bytes.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Serializes to GM message bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.payload.len());
        out.extend_from_slice(&self.src_rank.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses GM message bytes.
    ///
    /// Returns `None` for messages too short to carry a header (not
    /// produced by this middleware).
    pub fn decode(data: &[u8]) -> Option<Envelope> {
        if data.len() < 12 {
            return None;
        }
        let src_rank = u32::from_le_bytes(data.get(0..4)?.try_into().ok()?);
        let tag = u64::from_le_bytes(data.get(4..12)?.try_into().ok()?);
        Some(Envelope {
            src_rank,
            tag,
            payload: data.get(12..)?.to_vec(),
        })
    }
}

/// A pending receive's match pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Required source rank, or `None` for any source.
    pub from: Option<u32>,
    /// Required tag.
    pub tag: u64,
}

/// One `(tag, source)`'s FIFO of `(arrival seqno, payload)`.
type Queue = VecDeque<(u64, Vec<u8>)>;

/// Buffers unmatched arrivals, indexed by `(tag, source)`.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    /// `(tag, src) → FIFO of (arrival seqno, payload)`.
    queues: BTreeMap<(u64, u32), Queue>,
    arrivals: u64,
    depth: usize,
    max_depth: usize,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Stores an arrived envelope; returns the buffered depth after the
    /// store (the middleware feeds this to its depth histogram).
    pub fn deliver(&mut self, env: Envelope) -> usize {
        let at = self.arrivals;
        self.arrivals += 1;
        self.queues
            .entry((env.tag, env.src_rank))
            .or_default()
            .push_back((at, env.payload));
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.depth
    }

    /// Takes the oldest envelope matching `pattern`, if any.
    pub fn take(&mut self, pattern: Pattern) -> Option<Envelope> {
        let key = match pattern.from {
            Some(src) => {
                let key = (pattern.tag, src);
                self.queues.contains_key(&key).then_some(key)?
            }
            None => {
                // Any-source: the oldest head across this tag's queues.
                let range = (pattern.tag, u32::MIN)..=(pattern.tag, u32::MAX);
                self.queues
                    .range(range)
                    .filter_map(|(k, q)| q.front().map(|(at, _)| (*at, *k)))
                    .min()
                    .map(|(_, k)| k)?
            }
        };
        let q = self.queues.get_mut(&key)?;
        let (_, payload) = q.pop_front()?;
        if q.is_empty() {
            self.queues.remove(&key);
        }
        self.depth -= 1;
        Some(Envelope {
            src_rank: key.1,
            tag: key.0,
            payload,
        })
    }

    /// Drops every buffered envelope whose `(src, tag)` satisfies `pred`;
    /// returns the number dropped (stale-epoch cleanup after a
    /// communicator transition).
    pub fn purge_where(&mut self, pred: impl Fn(u32, u64) -> bool) -> usize {
        let mut dropped = 0;
        self.queues.retain(|&(tag, src), q| {
            if pred(src, tag) {
                dropped += q.len();
                false
            } else {
                true
            }
        });
        self.depth -= dropped;
        dropped
    }

    /// Number of buffered envelopes.
    pub fn len(&self) -> usize {
        self.depth
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// High-water mark of the buffered depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: u64, byte: u8) -> Envelope {
        Envelope {
            src_rank: src,
            tag,
            payload: vec![byte],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let e = Envelope {
            src_rank: 7,
            tag: 0xDEAD_BEEF,
            payload: vec![1, 2, 3],
        };
        assert_eq!(Envelope::decode(&e.encode()), Some(e));
    }

    #[test]
    fn short_messages_rejected() {
        assert_eq!(Envelope::decode(&[0; 11]), None);
        assert!(Envelope::decode(&[0; 12]).is_some());
    }

    #[test]
    fn take_matches_tag_and_source() {
        let mut m = Mailbox::new();
        m.deliver(env(1, 10, 0xA));
        m.deliver(env(2, 10, 0xB));
        m.deliver(env(1, 20, 0xC));
        // Any-source by tag: FIFO.
        let got = m.take(Pattern { from: None, tag: 10 }).unwrap();
        assert_eq!(got.payload, vec![0xA]);
        assert_eq!(got.src_rank, 1);
        // Specific source.
        let got = m.take(Pattern { from: Some(2), tag: 10 }).unwrap();
        assert_eq!(got.payload, vec![0xB]);
        // No match for wrong source.
        assert!(m.take(Pattern { from: Some(2), tag: 20 }).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let mut m = Mailbox::new();
        m.deliver(env(3, 5, 1));
        m.deliver(env(3, 5, 2));
        let p = Pattern { from: Some(3), tag: 5 };
        assert_eq!(m.take(p).unwrap().payload, vec![1]);
        assert_eq!(m.take(p).unwrap().payload, vec![2]);
        assert!(m.is_empty());
    }

    #[test]
    fn any_source_is_globally_fifo_across_sources() {
        let mut m = Mailbox::new();
        m.deliver(env(9, 7, 1));
        m.deliver(env(2, 7, 2));
        m.deliver(env(9, 7, 3));
        let p = Pattern { from: None, tag: 7 };
        // Oldest overall wins even though source 2 < source 9.
        assert_eq!(m.take(p).unwrap().src_rank, 9);
        assert_eq!(m.take(p).unwrap().src_rank, 2);
        assert_eq!(m.take(p).unwrap().payload, vec![3]);
        assert!(m.take(p).is_none());
    }

    #[test]
    fn depth_tracking_and_purge() {
        let mut m = Mailbox::new();
        assert_eq!(m.deliver(env(0, 1, 0)), 1);
        assert_eq!(m.deliver(env(0, 2, 0)), 2);
        assert_eq!(m.deliver(env(1, 1, 0)), 3);
        assert_eq!(m.max_depth(), 3);
        let dropped = m.purge_where(|_, tag| tag == 1);
        assert_eq!(dropped, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.max_depth(), 3);
        assert!(m.take(Pattern { from: None, tag: 2 }).is_some());
        assert!(m.is_empty());
    }
}
