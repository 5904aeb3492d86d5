//! Host-side backup state — the "just the right amount of information
//! required for complete recovery" (§4.1).
//!
//! FTGM's central idea: the application (via the modified GM library)
//! continuously keeps a copy of exactly the NIC state that is *not*
//! implicitly stored in host memory:
//!
//! * a copy of every **send token** handed to the LANai (so unacknowledged
//!   messages can be re-posted after a reset),
//! * a copy of every **receive token** handed to the LANai (so pinned,
//!   not-yet-filled buffers can be re-registered),
//! * the **sequence-number streams**, one per (port, remote node) — the
//!   host *generates* these and passes them through the send token, so the
//!   reloaded MCP continues exactly where the dead one stopped,
//! * the **ACK table**: per incoming (connection, port) stream, the last
//!   sequence number acknowledged — maintained from the sequence number
//!   the LANai includes in each receive event.
//!
//! The copies are updated on exactly the paper's schedule: added when the
//! token passes to the LANai, removed when the token implicitly returns
//! (callback / receive event). Everything here is plain host data — the
//! whole point is that it survives a card reset.

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;

use ftgm_mcp::machine::{RecvTokenDesc, SendDesc};
use ftgm_net::NodeId;

/// Per-port backup state (≈20 KB of extra process memory in the paper).
#[derive(Clone, Debug, Default)]
pub struct PortBackup {
    send_tokens: BTreeMap<u64, SendDesc>,
    recv_tokens: BTreeMap<u64, RecvTokenDesc>,
    /// Outgoing per-(remote node, priority) sequence counters for this
    /// port.
    next_seq: BTreeMap<(NodeId, bool), u32>,
    /// Incoming ACK table: last sequence acknowledged per
    /// (remote node, remote port, priority) stream.
    ack_table: BTreeMap<(NodeId, u8, bool), u32>,
}

impl PortBackup {
    /// Creates empty backup state.
    pub fn new() -> PortBackup {
        PortBackup::default()
    }

    // --- send tokens --------------------------------------------------------

    /// Records a send token as it passes to the LANai.
    pub fn add_send(&mut self, copy: SendDesc) {
        self.send_tokens.insert(copy.token_id, copy);
    }

    /// Removes a send token as its callback fires (send complete/failed).
    /// Returns the copy if it was present.
    pub fn remove_send(&mut self, token_id: u64) -> Option<SendDesc> {
        self.send_tokens.remove(&token_id)
    }

    /// Outstanding send-token copies, ordered by first sequence number so
    /// that recovery re-posts messages in their original stream order.
    pub fn outstanding_sends(&self) -> Vec<SendDesc> {
        let mut v: Vec<_> = self.send_tokens.values().cloned().collect();
        v.sort_by_key(|c| (c.dst_node, c.dst_port, c.first_seq()));
        v
    }

    /// Number of send tokens the LANai currently holds.
    pub fn sends_outstanding(&self) -> usize {
        self.send_tokens.len()
    }

    // --- receive tokens -----------------------------------------------------

    /// Records a receive token as it passes to the LANai.
    pub fn add_recv(&mut self, copy: RecvTokenDesc) {
        self.recv_tokens.insert(copy.token_id, copy);
    }

    /// Removes a receive token as its buffer is handed back with a
    /// received message.
    pub fn remove_recv(&mut self, token_id: u64) -> Option<RecvTokenDesc> {
        self.recv_tokens.remove(&token_id)
    }

    /// Outstanding receive-token copies (unfilled pinned buffers), in
    /// token-id order.
    pub fn outstanding_recvs(&self) -> Vec<RecvTokenDesc> {
        self.recv_tokens.values().copied().collect()
    }

    /// Number of receive tokens the LANai currently holds.
    pub fn recvs_outstanding(&self) -> usize {
        self.recv_tokens.len()
    }

    // --- sequence streams ----------------------------------------------------

    /// Reserves `chunks` sequence numbers toward `dst` at one priority
    /// level, returning the first (the host generates sequence numbers and
    /// passes them through the send token).
    pub fn reserve_seq(&mut self, dst: NodeId, prio_high: bool, chunks: u32) -> u32 {
        let ctr = self.next_seq.entry((dst, prio_high)).or_insert(0);
        let first = *ctr;
        *ctr = ctr.wrapping_add(chunks);
        first
    }

    /// The next sequence number that would be assigned toward `dst` at a
    /// priority level.
    pub fn peek_seq(&self, dst: NodeId, prio_high: bool) -> u32 {
        self.next_seq.get(&(dst, prio_high)).copied().unwrap_or(0)
    }

    // --- ACK table ------------------------------------------------------------

    /// Records the sequence number of the last message acknowledged on an
    /// incoming stream (from the receive event's `seq` field).
    pub fn record_ack(&mut self, src_node: NodeId, src_port: u8, prio_high: bool, seq: u32) {
        self.ack_table.insert((src_node, src_port, prio_high), seq);
    }

    /// Expected next sequence per incoming stream — what recovery tells the
    /// reloaded LANai ("the last sequence number received on each stream",
    /// plus one).
    pub fn expected_seqs(&self) -> Vec<(NodeId, u8, bool, u32)> {
        let mut v: Vec<_> = self
            .ack_table
            .iter()
            .map(|(&(n, p, hi), &s)| (n, p, hi, s.wrapping_add(1)))
            .collect();
        v.sort();
        v
    }

    /// Approximate backup footprint in bytes (for the paper's "~20 KB per
    /// process" memory claim).
    pub fn footprint_bytes(&self) -> usize {
        self.send_tokens.len() * std::mem::size_of::<SendDesc>()
            + self.recv_tokens.len() * std::mem::size_of::<RecvTokenDesc>()
            + self.next_seq.len() * 12
            + self.ack_table.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send_copy(id: u64, dst: NodeId, first_seq: u32) -> SendDesc {
        SendDesc::new(id, 0, dst, 0, 0x1000 * id, 256, false, Some(first_seq))
    }

    #[test]
    fn send_token_lifecycle() {
        let mut b = PortBackup::new();
        b.add_send(send_copy(1, NodeId(1), 0));
        b.add_send(send_copy(2, NodeId(1), 1));
        assert_eq!(b.sends_outstanding(), 2);
        assert!(b.remove_send(1).is_some());
        assert!(b.remove_send(1).is_none());
        assert_eq!(b.sends_outstanding(), 1);
    }

    #[test]
    fn outstanding_sends_sorted_by_stream_order() {
        let mut b = PortBackup::new();
        b.add_send(send_copy(5, NodeId(2), 7));
        b.add_send(send_copy(3, NodeId(1), 9));
        b.add_send(send_copy(4, NodeId(2), 3));
        let order: Vec<u64> = b.outstanding_sends().iter().map(|c| c.token_id).collect();
        assert_eq!(order, vec![3, 4, 5]);
    }

    #[test]
    fn recv_token_lifecycle() {
        let mut b = PortBackup::new();
        b.add_recv(RecvTokenDesc {
            token_id: 9,
            host_addr: 0x100,
            capacity: 4096,
            prio_high: false,
        });
        assert_eq!(b.recvs_outstanding(), 1);
        assert_eq!(b.outstanding_recvs()[0].token_id, 9);
        b.remove_recv(9);
        assert_eq!(b.recvs_outstanding(), 0);
    }

    #[test]
    fn sequence_reservation_is_contiguous() {
        let mut b = PortBackup::new();
        assert_eq!(b.reserve_seq(NodeId(1), false, 3), 0);
        assert_eq!(b.reserve_seq(NodeId(1), false, 2), 3);
        assert_eq!(b.reserve_seq(NodeId(2), false, 1), 0, "independent per destination");
        assert_eq!(b.reserve_seq(NodeId(1), true, 1), 0, "independent per priority");
        assert_eq!(b.peek_seq(NodeId(1), false), 5);
        assert_eq!(b.peek_seq(NodeId(1), true), 1);
    }

    #[test]
    fn ack_table_tracks_last_and_reports_next() {
        let mut b = PortBackup::new();
        b.record_ack(NodeId(1), 0, false, 41);
        b.record_ack(NodeId(1), 0, false, 42);
        b.record_ack(NodeId(1), 3, true, 7);
        let mut v = b.expected_seqs();
        v.sort();
        assert_eq!(
            v,
            vec![(NodeId(1), 0, false, 43), (NodeId(1), 3, true, 8)]
        );
    }

    #[test]
    fn footprint_is_modest() {
        let mut b = PortBackup::new();
        for i in 0..64 {
            b.add_send(send_copy(i, NodeId(1), i as u32));
            b.add_recv(RecvTokenDesc {
                token_id: 1000 + i,
                host_addr: 0,
                capacity: 4096,
                prio_high: false,
            });
        }
        // The paper reports ~20KB of extra process memory.
        assert!(b.footprint_bytes() < 20 * 1024);
    }
}
