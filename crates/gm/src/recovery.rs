//! Transparent per-process recovery — the `FAULT_DETECTED` handler (§4.4).
//!
//! GM applications occasionally poll their receive queue and pass unknown
//! events to `gm_unknown()`. FTGM modifies that one library function to
//! handle `FAULT_DETECTED`, which makes the whole recovery invisible to
//! application code:
//!
//! 1. cursory checks,
//! 2. restore the LANai's send and receive token queues from the process'
//!    backup copy (send tokens carry the sequence numbers of
//!    yet-unacknowledged messages; receive tokens name the pinned buffers
//!    that never got filled),
//! 3. update the LANai with the last sequence number received on each
//!    stream — one per (connection, port) pair — so it ACKs the right
//!    messages and NACKs out-of-order arrivals,
//! 4. clear the receive queue and tell the LANai to **reopen** the port.
//!
//! The paper measures this handler at ≈900 ms per process (Table 3's
//! "per-process recovery time"); we charge that wall time and perform the
//! state restoration at its end, so traffic resumes on the paper's
//! schedule.

// Adding a fault kind, recovery event or FTD step must force a handling
// decision at every match here, not fall into a default arm.
#![deny(clippy::wildcard_enum_match_arm)]

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use ftgm_host::CpuCost;
use ftgm_mcp::StreamKey;
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, TraceKind};

use crate::ftd::{Ftd, FtdStep};
use crate::World;

/// Wall-clock cost of the per-process `FAULT_DETECTED` handler (§5.2:
/// ~900,000 µs, dominated by re-registration and re-pinning work).
pub const PER_PROCESS_RECOVERY: SimDuration = SimDuration::from_ms(900);

/// Counts of what a recovery pass restored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Send tokens re-posted (unacknowledged messages to retransmit).
    pub sends_replayed: usize,
    /// Receive tokens re-provided (pinned buffers re-registered).
    pub recvs_replayed: usize,
    /// Receive streams whose expected sequence was restored.
    pub streams_restored: usize,
}

/// `gm_unknown()` meets `FAULT_DETECTED` on `(node, port)`: the handler
/// runs for [`PER_PROCESS_RECOVERY`], then reopens the port.
pub(crate) fn on_fault_detected(world: &mut World, node: NodeId, port: u8) {
    let Some(ftd) = &world.ftd else {
        return;
    };
    let epoch = ftd.state(node.0 as usize).epoch;
    let now = world.now();
    world
        .trace
        .emit(now, TraceKind::GmUnknownEntered { node: node.0, port });
    world.schedule_ftd(PER_PROCESS_RECOVERY, node, FtdStep::ReopenPort { port, epoch });
}

/// The handler's end: restore the port's state and trace what it replayed,
/// unless a recovery newer than `epoch` owns that state by now.
pub(crate) fn reopen_port(world: &mut World, ftd: &Ftd, node: NodeId, port: u8, epoch: u64) {
    let now = world.now();
    if ftd.state(node.0 as usize).epoch != epoch {
        world
            .trace
            .emit(now, TraceKind::StaleHandlerSuperseded { node: node.0, port });
        return;
    }
    let summary = restore_port_state(world, node, port);
    world.trace.emit(
        now,
        TraceKind::PortReopened {
            node: node.0,
            port,
            sends_replayed: summary.sends_replayed as u32,
            recvs_replayed: summary.recvs_replayed as u32,
            streams_restored: summary.streams_restored as u32,
        },
    );
}

/// Performs the actual state restoration (steps 2–4 above) immediately.
///
/// Exposed separately so tests can exercise the data path without the
/// 900 ms of modelled wall time.
///
/// Total over its arguments: this handler must never panic (it IS the
/// recovery path), and `World::post_fault_detected` forwards any `u8`
/// port to it (an unknown *node* panics earlier, in
/// `post_fault_detected` itself). A node or port that does not exist, or
/// a port that is not open host-side, restores nothing.
pub fn restore_port_state(world: &mut World, node: NodeId, port: u8) -> RestoreSummary {
    let n = node.0 as usize;
    let mut summary = RestoreSummary::default();
    // Cursory check: is the port even open host-side? The three backup
    // lists are taken in this one checked borrow; nothing below can
    // close the port.
    let Some(sim) = world.nodes.get_mut(n) else {
        return summary;
    };
    let Some(Some(hp)) = sim.ports.get(port as usize) else {
        return summary;
    };
    let expected = hp.backup.expected_seqs();
    let recvs = hp.backup.outstanding_recvs();
    let sends = hp.backup.outstanding_sends();
    // Charge the host CPU for the handler's work.
    sim.host
        .cpu
        .charge(CpuCost::Recovery, SimDuration::from_us(50));

    // 4-before-2: "the process clears its receive queue before notifying
    // the LANai to reopen the port" — close-then-open drops any token
    // state an interrupted earlier attempt may have left, making the
    // restore idempotent.
    sim.mcp.close_port(port);
    sim.mcp.open_port(port);

    // 3. Restore per-stream expected sequence numbers before any data can
    //    arrive, so the LANai ACKs/NACKs correctly from the first packet.
    for (src_node, src_port, prio_high, next) in expected {
        sim.mcp.restore_receiver_stream(
            StreamKey::per_port(src_node, src_port, prio_high),
            next,
        );
        summary.streams_restored += 1;
    }

    // 2a. Replay receive tokens (unfilled pinned buffers).
    for desc in recvs {
        sim.mcp.post_recv_token(port, desc);
        summary.recvs_replayed += 1;
    }

    // 2b. Replay send tokens: unacknowledged messages go out again with
    //     their original sequence numbers — the receiver's restored (or
    //     never-lost) expected counters ACK the right ones and drop
    //     duplicates.
    for desc in sends {
        sim.mcp.post_send(desc);
        summary.sends_replayed += 1;
    }

    world.sync_node(n);
    summary
}
