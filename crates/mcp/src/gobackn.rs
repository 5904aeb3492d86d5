//! Go-Back-N stream state.
//!
//! GM ensures reliable in-order delivery with "a version of the Go-Back-N
//! protocol" over each connection. FTGM keeps the protocol but changes the
//! *stream identity*: instead of one MCP-numbered stream per connection
//! (remote node), each **(port, remote node)** pair is an independent
//! stream whose sequence numbers the *host* generates — so the host's
//! backup copy can re-establish them after a card reset. The receiver
//! correspondingly keeps one expected-sequence counter per **(connection,
//! port)** pair (Figure 6 of the paper).
//!
//! Release discipline: a sender retains every chunk of a message until the
//! message's *final* chunk is cumulatively acknowledged, then releases the
//! whole message and reports it complete. (Stock GM recycles staging
//! per-chunk; retaining per-message costs only SRAM slack and lets a
//! recovered *receiver* rewind a partially-delivered message without
//! sender-host involvement. DESIGN.md discusses the substitution.)

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::collections::VecDeque;

use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimTime};

use crate::machine::SendDesc;

/// Identity of a sequence-number stream.
///
/// `port` is the *sending* GM port for FTGM streams, or
/// [`StreamKey::CONNECTION_PORT`] for GM's per-connection streams. FTGM
/// keys also carry the **priority level**: GM's two priority classes may
/// overtake one another in the send queues, and host-assigned sequence
/// numbers can only stay in transmission order if each class is its own
/// stream. (GM-mode connection streams don't need this — their MCP
/// assigns sequence numbers at staging time, in transmission order.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StreamKey {
    /// The remote interface (the connection).
    pub node: NodeId,
    /// The sending port, or `CONNECTION_PORT` in GM mode.
    pub port: u8,
    /// The priority class (always `false` for connection streams).
    pub prio_high: bool,
}

impl StreamKey {
    /// Sentinel port value for GM's connection-level streams.
    pub const CONNECTION_PORT: u8 = 0xFF;

    /// A GM-mode (per-connection) key.
    pub fn connection(node: NodeId) -> StreamKey {
        StreamKey {
            node,
            port: Self::CONNECTION_PORT,
            prio_high: false,
        }
    }

    /// An FTGM-mode (per-port, per-destination, per-priority) key.
    pub fn per_port(node: NodeId, port: u8, prio_high: bool) -> StreamKey {
        StreamKey {
            node,
            port,
            prio_high,
        }
    }
}

/// A chunk retained by the sender until its message completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Stream sequence number: set once, by [`ChunkRecord::new`].
    seq: u32,
    /// Host-side token id of the message this chunk belongs to.
    pub msg_id: u64,
    /// Staging slab index holding the payload copy.
    pub slab: u32,
    /// Payload length.
    pub len: u32,
    /// Total message length.
    pub msg_len: u32,
    /// Byte offset within the message.
    pub chunk_offset: u32,
    /// Final chunk of the message?
    pub last: bool,
    /// First chunk of a freshly-created stream (carries the SYN flag)?
    pub syn: bool,
    /// Destination interface.
    pub dst_node: NodeId,
    /// Destination GM port.
    pub dst_port: u8,
    /// Sending GM port.
    pub src_port: u8,
    /// High-priority message?
    pub prio_high: bool,
}

impl ChunkRecord {
    /// The chunk of `desc` that starts at byte `chunk_offset` and holds
    /// `len` bytes, staged in `slab` under stream sequence `seq` (`syn`
    /// on a stream's first chunk).
    pub fn new(desc: &SendDesc, seq: u32, syn: bool, slab: u32, chunk_offset: u32, len: u32) -> Self {
        ChunkRecord {
            seq,
            msg_id: desc.token_id,
            slab,
            len,
            msg_len: desc.len,
            chunk_offset,
            last: chunk_offset + len == desc.len,
            syn,
            dst_node: desc.dst_node,
            dst_port: desc.dst_port,
            src_port: desc.port,
            prio_high: desc.prio_high,
        }
    }

    /// Stream sequence number. Outside this module it is read-only:
    ///
    /// ```compile_fail,E0616
    /// fn renumber(rec: &mut ftgm_mcp::ChunkRecord) {
    ///     rec.seq = 7;
    /// }
    /// ```
    pub fn seq(&self) -> u32 {
        self.seq
    }
}

/// Result of processing a cumulative ACK. The caller owns it and hands
/// it back to [`SenderStream::on_ack`] for every ACK, so the two lists
/// keep their capacity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// `(token id, sending port)` of each message that became fully
    /// acknowledged, in order.
    pub completed: Vec<(u64, u8)>,
    /// Chunk slabs that may be recycled.
    pub freed_slabs: Vec<u32>,
    /// Whether the ACK advanced the window at all.
    pub progressed: bool,
}

/// Sender-side state for one stream.
#[derive(Clone, Debug)]
pub struct SenderStream {
    next_seq: u32,
    /// Receiver's next expected sequence (everything below is acked).
    cum_acked: u32,
    chunks: VecDeque<ChunkRecord>,
    last_progress: SimTime,
    retries: u32,
}

impl SenderStream {
    /// A fresh stream starting at sequence `first_seq` (0 for GM; the
    /// host's stream counter for FTGM).
    pub fn new(first_seq: u32, now: SimTime) -> SenderStream {
        SenderStream {
            next_seq: first_seq,
            cum_acked: first_seq,
            chunks: VecDeque::new(),
            last_progress: now,
        retries: 0,
        }
    }

    /// Next sequence number this stream will assign.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// The receiver's acknowledged frontier.
    pub fn cum_acked(&self) -> u32 {
        self.cum_acked
    }

    /// Unacknowledged chunks currently retained, oldest first.
    pub fn retained(&self) -> impl Iterator<Item = &ChunkRecord> {
        self.chunks.iter()
    }

    /// Number of retained chunks.
    pub fn outstanding(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// Consecutive retransmission rounds without progress.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// `true` if a new chunk may be admitted under window `w`.
    pub fn window_open(&self, w: u32) -> bool {
        self.next_seq.wrapping_sub(self.cum_acked) < w
    }

    /// Admits a chunk for transmission. In FTGM the host supplies `seq`
    /// inside `rec`; it must equal [`SenderStream::next_seq`] (host and MCP
    /// counters advance in lockstep).
    ///
    /// # Panics
    ///
    /// Panics on a non-contiguous sequence — that is a protocol-logic bug,
    /// not a runtime condition.
    pub fn admit(&mut self, rec: ChunkRecord) {
        assert_eq!(
            rec.seq, self.next_seq,
            "chunk admitted out of order: seq {} expected {}",
            rec.seq, self.next_seq
        );
        self.next_seq = self.next_seq.wrapping_add(1);
        self.chunks.push_back(rec);
    }

    /// Processes a cumulative ACK carrying the receiver's next expected
    /// sequence. Releases whole messages whose final chunk is acked,
    /// overwriting `out` with what this ACK achieved.
    pub fn on_ack(&mut self, next_expected: u32, now: SimTime, out: &mut AckOutcome) {
        out.completed.clear();
        out.freed_slabs.clear();
        out.progressed = false;
        // Ignore stale or future ACKs (future = beyond anything sent).
        let in_window = next_expected.wrapping_sub(self.cum_acked)
            <= self.next_seq.wrapping_sub(self.cum_acked);
        if next_expected == self.cum_acked || !in_window {
            return;
        }
        self.cum_acked = next_expected;
        self.last_progress = now;
        self.retries = 0;
        out.progressed = true;
        // Release fully-acked complete messages from the front.
        #[allow(clippy::while_let_loop)] // the loop body has two exits
        loop {
            // Find the extent of the first message.
            let Some(first) = self.chunks.front() else { break };
            let (msg_id, src_port) = (first.msg_id, first.src_port);
            let mut last_seq = None;
            for c in &self.chunks {
                if c.msg_id != msg_id {
                    break;
                }
                if c.last {
                    last_seq = Some(c.seq);
                }
            }
            let Some(last_seq) = last_seq else { break };
            // Message complete iff its final chunk is below the frontier.
            if last_seq.wrapping_sub(self.cum_acked) as i32 >= 0 {
                break;
            }
            while self.chunks.front().is_some_and(|c| c.msg_id == msg_id) {
                if let Some(c) = self.chunks.pop_front() {
                    out.freed_slabs.push(c.slab);
                }
            }
            out.completed.push((msg_id, src_port));
        }
    }

    /// Chunks to retransmit for a NACK naming the receiver's next expected
    /// sequence: everything retained from that point on (Go-Back-N).
    pub fn rewind_from(&self, next_expected: u32) -> Vec<ChunkRecord> {
        self.chunks
            .iter()
            .filter(|c| c.seq.wrapping_sub(next_expected) as i32 >= 0)
            .cloned()
            .collect()
    }

    /// GM-style resync after a reload: renumbers every retained chunk
    /// contiguously from `new_base`, resets the window to match, and
    /// returns the renumbered chunks for retransmission.
    pub fn renumber_from(&mut self, new_base: u32) -> Vec<ChunkRecord> {
        let mut seq = new_base;
        for c in &mut self.chunks {
            c.seq = seq;
            seq = seq.wrapping_add(1);
        }
        self.cum_acked = new_base;
        self.next_seq = seq;
        self.chunks.iter().cloned().collect()
    }

    /// If the stream has been stalled longer than `rto`, returns the full
    /// unacked window for retransmission and bumps the retry counter.
    pub fn check_timeout(&mut self, now: SimTime, rto: SimDuration) -> Option<Vec<ChunkRecord>> {
        if self.chunks.is_empty() || now.saturating_since(self.last_progress) < rto {
            return None;
        }
        self.retries += 1;
        self.last_progress = now; // back off one full RTO per round
        Some(self.rewind_from(self.cum_acked))
    }
}

/// Everything the MCP keeps per sending stream.
#[derive(Clone, Debug)]
pub struct TxStream {
    /// The Go-Back-N window. Renumber it only through
    /// [`TxStream::renumber_from`], which moves the staging frontier too.
    pub sender: SenderStream,
    /// Staging frontier: the sequence number of the next chunk to stage.
    /// Ahead of [`SenderStream::next_seq`] while staging DMAs are in flight.
    stage_seq: u32,
    /// The chunk with this sequence number carries the SYN flag.
    syn_seq: u32,
}

impl TxStream {
    /// A fresh stream whose first chunk takes sequence `first_seq` and
    /// establishes the stream at the receiver.
    pub fn new(first_seq: u32, now: SimTime) -> TxStream {
        TxStream {
            sender: SenderStream::new(first_seq, now),
            stage_seq: first_seq,
            syn_seq: first_seq,
        }
    }

    /// Hands the next staged chunk its sequence number and SYN flag.
    /// `host_seq` is the number an FTGM host dictates for a message's first
    /// chunk; it must continue the stream ([`SenderStream::admit`] panics
    /// otherwise).
    pub fn next_stage_seq(&mut self, host_seq: Option<u32>) -> (u32, bool) {
        let seq = host_seq.unwrap_or(self.stage_seq);
        self.stage_seq = seq.wrapping_add(1);
        (seq, seq == self.syn_seq)
    }

    /// [`SenderStream::renumber_from`], with the staging frontier moved
    /// behind the renumbered window.
    pub fn renumber_from(&mut self, new_base: u32) -> Vec<ChunkRecord> {
        let renumbered = self.sender.renumber_from(new_base);
        self.stage_seq = self.sender.next_seq();
        renumbered
    }
}

/// Receiver verdict for an incoming data chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxVerdict {
    /// In order: accept and (once delivered) advance.
    Accept,
    /// Already seen: drop, re-ACK the current frontier.
    Duplicate,
    /// A gap: drop, NACK the expected sequence.
    OutOfOrder,
}

/// Receiver-side state for one stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReceiverStream {
    expected: u32,
}

impl ReceiverStream {
    /// A fresh stream expecting `first_seq` next.
    pub fn new(first_seq: u32) -> ReceiverStream {
        ReceiverStream { expected: first_seq }
    }

    /// The next sequence this stream will accept (also the cumulative ACK
    /// value it advertises).
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// Classifies an incoming chunk without advancing.
    pub fn classify(&self, seq: u32) -> RxVerdict {
        if seq == self.expected {
            RxVerdict::Accept
        } else if seq.wrapping_sub(self.expected) as i32 > 0 {
            RxVerdict::OutOfOrder
        } else {
            RxVerdict::Duplicate
        }
    }

    /// Advances after a chunk was accepted and safely stored.
    pub fn advance(&mut self) {
        self.expected = self.expected.wrapping_add(1);
    }

    /// Forces the expected counter (FTGM recovery: the host restores the
    /// last acknowledged sequence per stream).
    pub fn restore(&mut self, expected: u32) {
        self.expected = expected;
    }
}

/// Everything the MCP keeps per receiving stream: the Go-Back-N receiver,
/// the message being reassembled (`A` is the machine's assembly record),
/// the FTGM commit point and the NACK-suppression latch.
#[derive(Clone, Debug)]
pub struct RxStream<A> {
    /// The expected-sequence counter. Advance it only through
    /// [`RxStream::accept`], restore it only through [`RxStream::restore`].
    pub receiver: ReceiverStream,
    /// The message whose chunks are arriving, if its first chunk matched
    /// a receive token.
    pub assembly: Option<A>,
    /// Accepted final chunks whose delivery DMA has not completed, oldest
    /// first: the ACK frontier may not pass the oldest (Figure 5).
    uncommitted: VecDeque<u32>,
    /// The stall point already NACKed; cleared when the stream advances.
    nack_sent: Option<u32>,
}

impl<A> RxStream<A> {
    /// A fresh stream expecting `first_seq` next.
    pub fn new(first_seq: u32) -> RxStream<A> {
        RxStream {
            receiver: ReceiverStream::new(first_seq),
            assembly: None,
            uncommitted: VecDeque::new(),
            nack_sent: None,
        }
    }

    /// FTGM recovery: restarts the stream at `expected`, discarding the
    /// half-assembled message, the held ACKs and the NACK latch — but only
    /// forward (wrap-aware): a restore at or behind the live frontier
    /// changes nothing.
    pub fn restore(&mut self, expected: u32) {
        if expected.wrapping_sub(self.receiver.expected()) as i32 > 0 {
            *self = RxStream::new(expected);
        }
    }

    /// Advances past the chunk just accepted and re-arms the NACK latch.
    /// `hold_ack` marks a final chunk whose ACK must wait until
    /// [`RxStream::commit`] reports its message in the user's buffer.
    pub fn accept(&mut self, hold_ack: bool) {
        if hold_ack {
            self.uncommitted.push_back(self.receiver.expected());
        }
        self.receiver.advance();
        self.nack_sent = None;
    }

    /// The sequence to NACK for an out-of-order arrival, or `None` if this
    /// stall point was NACKed already (one NACK per gap).
    pub fn nack_due(&mut self) -> Option<u32> {
        let expected = self.receiver.expected();
        (self.nack_sent.replace(expected) != Some(expected)).then_some(expected)
    }

    /// The delivery DMA of final chunk `seq` completed. Removal is by
    /// value: a DMA that outlived a [`RxStream::restore`] commits nothing.
    /// Returns the frontier to ACK.
    pub fn commit(&mut self, seq: u32) -> u32 {
        self.uncommitted.retain(|&s| s != seq);
        self.committed_frontier()
    }

    /// The highest ACK value the stream may advertise: its expected
    /// frontier, clamped below the oldest uncommitted final chunk.
    pub fn committed_frontier(&self) -> u32 {
        self.uncommitted.front().copied().unwrap_or(self.receiver.expected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u32, msg_id: u64, last: bool) -> ChunkRecord {
        ChunkRecord {
            seq,
            msg_id,
            slab: seq % 64,
            len: 100,
            msg_len: 100,
            chunk_offset: 0,
            last,
            syn: false,
            dst_node: NodeId(1),
            dst_port: 0,
            src_port: 0,
            prio_high: false,
        }
    }

    const T0: SimTime = SimTime::ZERO;

    /// `on_ack` into a fresh outcome.
    fn ack(s: &mut SenderStream, next_expected: u32, now: SimTime) -> AckOutcome {
        let mut out = AckOutcome::default();
        s.on_ack(next_expected, now, &mut out);
        out
    }

    #[test]
    fn admit_advances_next_seq() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(0, 1, true));
        s.admit(rec(1, 2, true));
        assert_eq!(s.next_seq(), 2);
        assert_eq!(s.outstanding(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn admit_rejects_gap() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(5, 1, true));
    }

    #[test]
    fn ack_releases_complete_messages() {
        let mut s = SenderStream::new(0, T0);
        // msg 10 = chunks 0,1; msg 11 = chunk 2.
        s.admit(ChunkRecord { last: false, ..rec(0, 10, false) });
        s.admit(ChunkRecord { seq: 1, ..rec(1, 10, true) });
        s.admit(rec(2, 11, true));
        // Ack only chunk 0: nothing completes.
        let o = ack(&mut s, 1, T0);
        assert!(o.progressed);
        assert!(o.completed.is_empty());
        assert_eq!(s.outstanding(), 3, "chunks retained until message completes");
        // Ack through chunk 1: msg 10 completes and frees two slabs.
        let o = ack(&mut s, 2, T0);
        assert_eq!(o.completed, vec![(10, 0)]);
        assert_eq!(o.freed_slabs.len(), 2);
        assert_eq!(s.outstanding(), 1);
        // Ack chunk 2: msg 11 completes.
        let o = ack(&mut s, 3, T0);
        assert_eq!(o.completed, vec![(11, 0)]);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn stale_and_wild_acks_ignored() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(0, 1, true));
        let o = ack(&mut s, 0, T0);
        assert!(!o.progressed, "stale ack");
        let o = ack(&mut s, 99, T0);
        assert!(!o.progressed, "ack beyond window");
        assert_eq!(s.cum_acked(), 0);
    }

    #[test]
    fn duplicate_ack_is_idempotent() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(0, 1, true));
        s.admit(rec(1, 2, true));
        assert_eq!(ack(&mut s, 1, T0).completed, vec![(1, 0)]);
        let o = ack(&mut s, 1, T0);
        assert!(!o.progressed);
        assert!(o.completed.is_empty());
    }

    #[test]
    fn on_ack_overwrites_a_reused_outcome() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(0, 1, true));
        s.admit(rec(1, 2, true));
        let mut out = AckOutcome::default();
        s.on_ack(1, T0, &mut out);
        assert_eq!((out.completed.as_slice(), out.freed_slabs.len()), (&[(1u64, 0u8)][..], 1));
        // A stale ACK leaves nothing of the previous outcome behind.
        s.on_ack(1, T0, &mut out);
        assert_eq!(out, AckOutcome::default());
        s.on_ack(2, T0, &mut out);
        assert_eq!(out.completed, vec![(2, 0)]);
    }

    #[test]
    fn window_accounting() {
        let mut s = SenderStream::new(0, T0);
        for i in 0..4 {
            assert!(s.window_open(4));
            s.admit(rec(i, i as u64, true));
        }
        assert!(!s.window_open(4));
        ack(&mut s, 1, T0);
        assert!(s.window_open(4));
    }

    #[test]
    fn rewind_returns_suffix() {
        let mut s = SenderStream::new(0, T0);
        for i in 0..5 {
            s.admit(rec(i, 100, i == 4));
        }
        let r = s.rewind_from(2);
        assert_eq!(r.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn rewind_covers_acked_but_unreleased_chunks() {
        // The receiver-recovery case: chunks of an incomplete message stay
        // retransmittable even after being individually acked.
        let mut s = SenderStream::new(0, T0);
        s.admit(ChunkRecord { last: false, ..rec(0, 7, false) });
        s.admit(ChunkRecord { seq: 1, last: false, ..rec(1, 7, false) });
        s.admit(ChunkRecord { seq: 2, ..rec(2, 7, true) });
        ack(&mut s, 2, T0); // chunks 0,1 acked; message incomplete
        let r = s.rewind_from(0);
        assert_eq!(r.len(), 3, "whole message still retransmittable");
    }

    #[test]
    fn timeout_fires_after_rto_and_backs_off() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(0, 1, true));
        let rto = SimDuration::from_ms(10);
        assert!(s.check_timeout(SimTime::from_nanos(5_000_000), rto).is_none());
        let r = s
            .check_timeout(SimTime::ZERO + SimDuration::from_ms(10), rto)
            .expect("fires");
        assert_eq!(r.len(), 1);
        assert_eq!(s.retries(), 1);
        // Immediately after, it must not fire again.
        assert!(s
            .check_timeout(SimTime::ZERO + SimDuration::from_ms(10), rto)
            .is_none());
        // Another RTO later it fires again.
        assert!(s
            .check_timeout(SimTime::ZERO + SimDuration::from_ms(20), rto)
            .is_some());
        assert_eq!(s.retries(), 2);
    }

    #[test]
    fn timeout_idle_stream_never_fires() {
        let mut s = SenderStream::new(0, T0);
        assert!(s
            .check_timeout(SimTime::ZERO + SimDuration::from_secs(10), SimDuration::from_ms(1))
            .is_none());
    }

    #[test]
    fn progress_resets_retries() {
        let mut s = SenderStream::new(0, T0);
        s.admit(rec(0, 1, true));
        s.admit(rec(1, 2, true));
        let rto = SimDuration::from_ms(10);
        s.check_timeout(SimTime::ZERO + SimDuration::from_ms(10), rto);
        assert_eq!(s.retries(), 1);
        ack(&mut s, 1, SimTime::ZERO + SimDuration::from_ms(11));
        assert_eq!(s.retries(), 0);
    }

    #[test]
    fn ftgm_streams_start_at_host_seq() {
        let mut s = SenderStream::new(42, T0);
        s.admit(ChunkRecord { seq: 42, ..rec(42, 1, true) });
        assert_eq!(s.next_seq(), 43);
        let o = ack(&mut s, 43, T0);
        assert_eq!(o.completed, vec![(1, 0)]);
    }

    #[test]
    fn receiver_classification() {
        let r = ReceiverStream::new(5);
        assert_eq!(r.classify(5), RxVerdict::Accept);
        assert_eq!(r.classify(4), RxVerdict::Duplicate);
        assert_eq!(r.classify(6), RxVerdict::OutOfOrder);
    }

    #[test]
    fn receiver_advance_and_restore() {
        let mut r = ReceiverStream::new(0);
        r.advance();
        r.advance();
        assert_eq!(r.expected(), 2);
        r.restore(7);
        assert_eq!(r.classify(7), RxVerdict::Accept);
    }

    #[test]
    fn sequence_wraparound_works() {
        let mut s = SenderStream::new(u32::MAX, T0);
        s.admit(ChunkRecord { seq: u32::MAX, ..rec(u32::MAX, 1, true) });
        s.admit(ChunkRecord { seq: 0, ..rec(0, 2, true) });
        let o = ack(&mut s, 1, T0);
        assert_eq!(o.completed, vec![(1, 0), (2, 0)]);
        let mut r = ReceiverStream::new(u32::MAX);
        assert_eq!(r.classify(u32::MAX), RxVerdict::Accept);
        r.advance();
        assert_eq!(r.expected(), 0);
        assert_eq!(r.classify(u32::MAX), RxVerdict::Duplicate);
    }

    #[test]
    fn commit_point_is_the_oldest_held_final_across_the_wrap() {
        let mut rx: RxStream<()> = RxStream::new(u32::MAX);
        rx.accept(true); // final u32::MAX, delivery DMA pending
        rx.accept(true); // final 0, delivery DMA pending
        assert_eq!(rx.receiver.expected(), 1);
        // The oldest held final is the numerically largest one.
        assert_eq!(rx.committed_frontier(), u32::MAX);
        assert_eq!(rx.commit(u32::MAX), 0);
        assert_eq!(rx.commit(0), 1);
        // A delivery that outlived a restore commits nothing.
        rx.accept(true);
        rx.restore(7);
        assert_eq!(rx.commit(1), 7);
    }

    #[test]
    fn one_nack_per_stall_point() {
        let mut rx: RxStream<()> = RxStream::new(4);
        assert_eq!(rx.nack_due(), Some(4));
        assert_eq!(rx.nack_due(), None);
        rx.accept(false);
        assert_eq!(rx.nack_due(), Some(5), "re-armed once the stream advances");
    }

    #[test]
    fn stream_keys_distinguish_modes_ports_and_priorities() {
        let a = StreamKey::connection(NodeId(1));
        let b = StreamKey::per_port(NodeId(1), 0, false);
        let c = StreamKey::per_port(NodeId(1), 1, false);
        let d = StreamKey::per_port(NodeId(1), 0, true);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(b, d);
    }
}
