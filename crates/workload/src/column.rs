//! Append-only observation columns that cost bytes, not words.
//!
//! A [`FlowProbe`](crate::FlowProbe) keeps every arrival, completion and
//! depth mark of a run until the report is folded, so its columns grow
//! with the run's length. A [`Column`] stores each record as LEB128
//! varints in one `Vec<u8>`: instants as zigzag-coded wrapping deltas
//! from the previous record's instant (the delta-of-timestamps idea of
//! Gorilla, Pelkonen et al., VLDB 2015), sizes and depths as plain
//! varints. Consecutive instants of one flow sit microseconds apart, so
//! on a two-node ping-pong an arrival takes 3 bytes instead of 8 and a
//! completion 7 instead of 24.
//!
//! The code is lossless for every input: deltas wrap in `u64`, so a
//! decreasing instant or [`SimTime::MAX`] round-trips exactly. Records
//! come back by value, in append order.

#![deny(clippy::cast_possible_truncation)]

use std::fmt;
use std::marker::PhantomData;

use ftgm_sim::SimTime;

use crate::slo::Completion;

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low
/// group first, the high bit set on every byte but the last.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeps the low seven bits; the loop shifts the rest down"
        )]
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the loop leaves v < 0x80, so the byte holds all of it"
    )]
    out.push(v as u8);
}

/// Reads one varint written by [`put`], advancing `cur` past it.
/// `None` at the end of the bytes or on a varint longer than ten bytes.
fn take(cur: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &b) in cur.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            *cur = cur.get(i + 1..)?;
            return Some(v);
        }
    }
    None
}

/// Appends the wrapping difference `d` zigzag-coded, so a small step
/// either way is a short varint.
fn put_zigzag(out: &mut Vec<u8>, d: u64) {
    put(out, (d << 1) ^ 0u64.wrapping_sub(d >> 63));
}

/// Reads a difference written by [`put_zigzag`].
fn take_zigzag(cur: &mut &[u8]) -> Option<u64> {
    let z = take(cur)?;
    Some((z >> 1) ^ 0u64.wrapping_sub(z & 1))
}

/// Appends `t` as a delta from `prev` and moves `prev` to `t`.
fn put_delta(out: &mut Vec<u8>, prev: &mut u64, t: u64) {
    put_zigzag(out, t.wrapping_sub(*prev));
    *prev = t;
}

/// Reads an instant written by [`put_delta`] and moves `prev` to it.
fn take_delta(cur: &mut &[u8], prev: &mut u64) -> Option<u64> {
    *prev = prev.wrapping_add(take_zigzag(cur)?);
    Some(*prev)
}

mod sealed {
    /// A record a [`Column`](super::Column) can hold. `prev` is the
    /// column's delta base: the instant of the record before.
    pub trait Record: Copy {
        /// Appends `self`'s varints to `out`.
        fn put(self, out: &mut Vec<u8>, prev: &mut u64);
        /// Reads one record back, advancing `cur` past it.
        fn take(cur: &mut &[u8], prev: &mut u64) -> Option<Self>;
    }
}
use sealed::Record;

/// An offer instant: one delta.
impl Record for SimTime {
    fn put(self, out: &mut Vec<u8>, prev: &mut u64) {
        put_delta(out, prev, self.as_nanos());
    }

    fn take(cur: &mut &[u8], prev: &mut u64) -> Option<SimTime> {
        take_delta(cur, prev).map(SimTime::from_nanos)
    }
}

/// A completion: the delta of `at`, then `at - issued` zigzag-coded
/// (an open-loop latency is never negative, but the code does not
/// care), then the size.
impl Record for Completion {
    fn put(self, out: &mut Vec<u8>, prev: &mut u64) {
        let at = self.at.as_nanos();
        put_delta(out, prev, at);
        put_zigzag(out, at.wrapping_sub(self.issued.as_nanos()));
        put(out, u64::from(self.bytes));
    }

    fn take(cur: &mut &[u8], prev: &mut u64) -> Option<Completion> {
        let at = take_delta(cur, prev)?;
        let issued = at.wrapping_sub(take_zigzag(cur)?);
        let bytes = u32::try_from(take(cur)?).ok()?;
        Some(Completion {
            at: SimTime::from_nanos(at),
            issued: SimTime::from_nanos(issued),
            bytes,
        })
    }
}

/// A depth mark: the delta of the instant, then the depth.
impl Record for (SimTime, u64) {
    fn put(self, out: &mut Vec<u8>, prev: &mut u64) {
        put_delta(out, prev, self.0.as_nanos());
        put(out, self.1);
    }

    fn take(cur: &mut &[u8], prev: &mut u64) -> Option<(SimTime, u64)> {
        let at = take_delta(cur, prev)?;
        Some((SimTime::from_nanos(at), take(cur)?))
    }
}

/// An append-only, varint-coded sequence of records of type `R`:
/// [`SimTime`] (offer instants), [`Completion`], or `(SimTime, u64)`
/// (depth marks). See the module docs for the code.
#[derive(Clone)]
pub struct Column<R> {
    bytes: Vec<u8>,
    len: usize,
    /// The instant of the last record, the base of the next delta.
    last: u64,
    _record: PhantomData<fn() -> R>,
}

impl<R: Record> Column<R> {
    /// Appends one record.
    pub(crate) fn push(&mut self, r: R) {
        r.put(&mut self.bytes, &mut self.last);
        self.len += 1;
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records in append order, by value.
    pub fn iter(&self) -> ColumnIter<'_, R> {
        ColumnIter {
            cur: &self.bytes,
            prev: 0,
            _record: PhantomData,
        }
    }

    /// Bytes the encoded records take (not counting spare capacity).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

impl<R> Default for Column<R> {
    fn default() -> Column<R> {
        Column {
            bytes: Vec::new(),
            len: 0,
            last: 0,
            _record: PhantomData,
        }
    }
}

impl<R: Record + fmt::Debug> fmt::Debug for Column<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, R: Record> IntoIterator for &'a Column<R> {
    type Item = R;
    type IntoIter = ColumnIter<'a, R>;

    fn into_iter(self) -> ColumnIter<'a, R> {
        self.iter()
    }
}

/// Decodes a [`Column`]'s records in append order.
pub struct ColumnIter<'a, R> {
    cur: &'a [u8],
    prev: u64,
    _record: PhantomData<fn() -> R>,
}

impl<R: Record> Iterator for ColumnIter<'_, R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        R::take(&mut self.cur, &mut self.prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut out = Vec::new();
        let values: Vec<u64> = (0..64)
            .map(|s| 1u64 << s)
            .chain([0, 127, 128, u64::MAX])
            .collect();
        for &v in &values {
            put(&mut out, v);
        }
        let mut cur = &out[..];
        for &v in &values {
            assert_eq!(take(&mut cur), Some(v));
        }
        assert!(cur.is_empty());
        assert_eq!(take(&mut cur), None);
    }

    #[test]
    fn small_steps_either_way_are_one_byte() {
        let mut out = Vec::new();
        let mut prev = 1_000;
        put_delta(&mut out, &mut prev, 1_063);
        put_delta(&mut out, &mut prev, 999);
        assert_eq!(out.len(), 2);
        let (mut cur, mut prev) = (&out[..], 1_000);
        assert_eq!(take_delta(&mut cur, &mut prev), Some(1_063));
        assert_eq!(take_delta(&mut cur, &mut prev), Some(999));
    }
}
