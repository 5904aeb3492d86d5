//! The MCP dispatch machine.
//!
//! "The MCP is basically an event-driven program. It executes a fixed (set
//! of) action(s) when a set of events occur and some conditions are
//! satisfied." (§4.2). [`McpMachine::dispatch`] is that loop: each call
//! runs at most *one* handler, charges its cost, and reports when it will
//! be free again — this serialization is what makes `L_timer()` invocation
//! gaps wander up toward 800 µs under load, which is what the watchdog
//! interval is calibrated against.
//!
//! Handlers in priority order: `L_timer()` (IT0), host-DMA completion and
//! start (the DMA engine is autonomous on real silicon, so its progress is
//! never queued behind protocol chatter), pending control frames, pending
//! retransmissions, receive, send staging. A hung chip (trap, runaway firmware, forced) never dispatches
//! again — but its interval timers keep counting, so under FTGM the IT1
//! watchdog eventually raises the FATAL interrupt.
//!
//! ## The FTGM commit point
//!
//! GM ACKs a packet at acceptance; FTGM must not ACK a *message* until it
//! has been DMAed into the user's buffer (Figure 5). With cumulative ACKs
//! this needs care: an intermediate chunk of a later message must not
//! smuggle the previous message's final chunk past the commit point. Each
//! receive stream ([`RxStream`]) therefore queues its accepted-but-
//! uncommitted final chunks in arrival order and only ever advertises an
//! ACK frontier below the oldest of them.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use ftgm_lanai::chip::{isr, ChipEffect, HangCause, HostDmaDir, HostDmaReq, LanaiChip, WireFrame};
use ftgm_lanai::cpu::RETURN_ADDR;
use ftgm_lanai::isa::Reg;
use ftgm_lanai::timers::TimerId;
use ftgm_net::{NodeId, RouteTable};
use ftgm_sim::{SimDuration, SimTime};

use crate::accounting::{Handler, HandlerTimes};
use crate::firmware::{layout, FirmwareImage};
use crate::gobackn::{AckOutcome, ChunkRecord, RxStream, RxVerdict, StreamKey, TxStream};
use crate::packet::{flags, stream_word, Header, PacketType};
use crate::params::{McpParams, Variant};

/// Number of GM ports per interface ("GM allows only 8 ports per node").
pub const PORTS_PER_NODE: u8 = 8;

/// SRAM address of receive staging slab `i`.
fn rx_slab_addr(i: u32) -> u32 {
    layout::STAGE_BASE + layout::SLAB_COUNT * layout::SLAB_SIZE + i * layout::SLAB_SIZE
}

/// The free staging slabs of one direction, handed out as a stack: the
/// newest returned slab first, then the lowest slab not used since the
/// last reset. That is the order of a `Vec` seeded with
/// `(0..SLAB_COUNT).rev()`, without holding the never-used slabs.
#[derive(Debug, Default)]
struct SlabPool {
    returned: Vec<u32>,
    /// Slabs `fresh..SLAB_COUNT` have not been handed out.
    fresh: u32,
}

impl SlabPool {
    fn pop(&mut self) -> Option<u32> {
        self.returned.pop().or_else(|| {
            let slab = self.fresh;
            (slab < layout::SLAB_COUNT).then(|| {
                self.fresh += 1;
                slab
            })
        })
    }

    fn push(&mut self, slab: u32) {
        self.returned.push(slab);
    }

    fn len(&self) -> usize {
        self.returned.len() + (layout::SLAB_COUNT - self.fresh) as usize
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every slab free again, in boot order.
    fn reset(&mut self) {
        self.returned.clear();
        self.fresh = 0;
    }
}

impl Extend<u32> for SlabPool {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, slabs: I) {
        self.returned.extend(slabs);
    }
}

/// A send posted by the host library (the LANai's view of a send token).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendDesc {
    /// Host-side token id; echoed back in completion events.
    pub token_id: u64,
    /// Sending port.
    pub port: u8,
    /// Destination interface.
    pub dst_node: NodeId,
    /// Destination port.
    pub dst_port: u8,
    /// Pinned host buffer address.
    pub host_addr: u64,
    /// Message length.
    pub len: u32,
    /// High priority?
    pub prio_high: bool,
    /// FTGM: host-generated first sequence number for this message,
    /// set once, by [`SendDesc::new`].
    first_seq: Option<u32>,
}

impl SendDesc {
    /// A send of `len` bytes at `host_addr` from `port` to
    /// `dst_port` on `dst_node`; `first_seq` is the host's first sequence
    /// number for it (FTGM), `None` where the MCP numbers it (GM).
    #[expect(clippy::too_many_arguments, reason = "one argument per field of the descriptor")]
    pub fn new(
        token_id: u64,
        port: u8,
        dst_node: NodeId,
        dst_port: u8,
        host_addr: u64,
        len: u32,
        prio_high: bool,
        first_seq: Option<u32>,
    ) -> Self {
        SendDesc { token_id, port, dst_node, dst_port, host_addr, len, prio_high, first_seq }
    }

    /// The host's first sequence number for this message (FTGM), or
    /// `None`. Outside this module it is read-only:
    ///
    /// ```compile_fail,E0616
    /// fn renumber(desc: &mut ftgm_mcp::SendDesc) {
    ///     desc.first_seq = Some(0);
    /// }
    /// ```
    pub fn first_seq(&self) -> Option<u32> {
        self.first_seq
    }
}

/// A receive buffer provided by the host library (a receive token).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvTokenDesc {
    /// Host-side token id.
    pub token_id: u64,
    /// Pinned host buffer address.
    pub host_addr: u64,
    /// Buffer capacity.
    pub capacity: u32,
    /// Priority level this buffer accepts.
    pub prio_high: bool,
}

/// An event record the MCP posts into a process's receive queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NicEvent {
    /// A message arrived into the buffer of `token_id`.
    Received {
        /// Origin interface.
        src_node: NodeId,
        /// Origin port.
        src_port: u8,
        /// The receive token whose buffer was filled.
        token_id: u64,
        /// Message length.
        len: u32,
        /// FTGM: sequence number of the final chunk — the host records it
        /// as the stream's acknowledged frontier for recovery.
        seq: u32,
        /// High-priority message?
        prio_high: bool,
    },
    /// A posted send was fully acknowledged; the token returns.
    SendCompleted {
        /// The send token.
        token_id: u64,
    },
    /// A posted send exhausted its retries.
    SendError {
        /// The send token.
        token_id: u64,
    },
    /// The FTD detected and recovered an interface failure; the library's
    /// `gm_unknown()` handler must restore this port's state (§4.4).
    FaultDetected,
}

/// Externally visible actions produced by the machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McpEffect {
    /// Transmit a frame into the fabric toward `dst`, along the route
    /// [`McpMachine::routes`] holds for it; with no route (mapper not
    /// run, table lost) the frame dies at the NIC.
    Transmit {
        /// Destination interface (never this one).
        dst: NodeId,
        /// Wire bytes.
        frame: Vec<u8>,
    },
    /// Start a host DMA; the world moves the bytes with PCI timing and
    /// then calls [`McpMachine::host_dma_done`].
    HostDma(HostDmaReq),
    /// Post an event record into `port`'s host receive queue (a small DMA
    /// the world also times on the PCI bus).
    PostEvent {
        /// Destination port.
        port: u8,
        /// The record.
        event: NicEvent,
    },
    /// The chip's IRQ line went high (`ISR & IMR != 0`).
    HostInterrupt,
}

/// A host DMA in flight and what to do when it completes.
#[derive(Clone, Debug, PartialEq, Eq)]
enum HdmaJob {
    /// Staging chunk payload host→SRAM before `send_chunk` runs.
    Stage {
        req: HostDmaReq,
        rec: ChunkRecord,
        stream: StreamKey,
        /// The source port's epoch when staged; a `close_port` in between
        /// (recovery re-entry) makes the job stale and it is dropped on
        /// completion instead of admitting a dead stream's chunk.
        epoch: u64,
    },
    /// Delivering an accepted chunk SRAM→host.
    Deliver {
        req: HostDmaReq,
        rx_slab: u32,
        stream: StreamKey,
        /// Final chunk seq if this delivery commits a message.
        commits_final: Option<u32>,
        /// Completion event to post once in host memory.
        completion: Option<(u8, NicEvent)>,
    },
}

impl HdmaJob {
    fn req(&self) -> HostDmaReq {
        match self {
            HdmaJob::Stage { req, .. } | HdmaJob::Deliver { req, .. } => *req,
        }
    }
}

/// An in-progress multi-chunk send.
#[derive(Clone, Debug)]
struct ActiveSend {
    desc: SendDesc,
    next_offset: u32,
    key: StreamKey,
}

/// Message reassembly state at the receiver.
#[derive(Clone, Debug)]
struct RxAssembly {
    token: RecvTokenDesc,
    /// Header of the message's first chunk (origin, port, class, length).
    first: Header,
}

#[derive(Clone, Debug, Default)]
struct PortState {
    open: bool,
    recv_tokens: Vec<RecvTokenDesc>,
    /// Bumped by `close_port`; invalidates in-flight staging jobs.
    epoch: u64,
}

impl PortState {
    /// Takes the smallest posted buffer of the right priority that holds
    /// `msg_len` bytes.
    fn match_recv_token(&mut self, msg_len: u32, prio_high: bool) -> Option<RecvTokenDesc> {
        self.recv_tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.prio_high == prio_high && t.capacity >= msg_len)
            .min_by_key(|(_, t)| t.capacity)
            .map(|(i, _)| i)
            .map(|i| self.recv_tokens.remove(i))
    }
}

/// Protocol/behaviour counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McpStats {
    /// Data chunks transmitted (including retransmissions).
    pub data_tx: u64,
    /// Retransmitted chunks.
    pub retransmits: u64,
    /// Data chunks accepted in order.
    pub data_rx_accepted: u64,
    /// Duplicates dropped.
    pub duplicates: u64,
    /// Out-of-order chunks NACKed.
    pub nacks_sent: u64,
    /// Frames dropped by parse/validation (corruption).
    pub parse_drops: u64,
    /// Chunks dropped for want of a receive token or RX slab.
    pub no_token_drops: u64,
    /// Messages delivered to host buffers.
    pub messages_delivered: u64,
    /// Sends completed.
    pub sends_completed: u64,
    /// Sends failed after retry exhaustion.
    pub send_errors: u64,
    /// `L_timer()` invocations.
    pub ltimer_runs: u64,
}

/// The Myrinet Control Program model for one interface.
pub struct McpMachine {
    /// The chip the MCP runs on.
    pub chip: LanaiChip,
    node: NodeId,
    params: McpParams,
    firmware: &'static FirmwareImage,
    routes: RouteTable,

    busy_until: SimTime,
    booted: bool,
    /// Times the MCP has been reloaded (connection re-setups pick fresh
    /// initial sequence numbers from this, GM-style).
    reload_count: u32,

    ports: [PortState; PORTS_PER_NODE as usize],
    /// Posted sends, one queue per priority level ("two non-preemptive
    /// priority levels"): high drains before low, but an in-progress
    /// low-priority message is not preempted.
    send_q_high: VecDeque<SendDesc>,
    send_q_low: VecDeque<SendDesc>,
    active_send: Option<ActiveSend>,
    /// All per-stream protocol state, one record per stream. Ordered
    /// maps: the retransmit scan and `close_port` walk them in key order.
    tx_streams: BTreeMap<StreamKey, TxStream>,
    rx_streams: BTreeMap<StreamKey, RxStream<RxAssembly>>,

    free_tx_slabs: SlabPool,
    free_rx_slabs: SlabPool,

    hdma_jobs: VecDeque<HdmaJob>,
    hdma_started: bool,
    /// Queued control transmissions: (stream, type, seq).
    pending_ctrl: VecDeque<(StreamKey, PacketType, u32)>,
    pending_resend: VecDeque<ChunkRecord>,

    /// Pinned host address for firmware's completion-record DMA (0 = off).
    status_report_addr: u64,
    effects: Vec<McpEffect>,
    /// The buffer traded with the chip's effect queue on every drain.
    chip_effects: Vec<ChipEffect>,
    /// The outcome lent to [`SenderStream::on_ack`] for every ACK.
    acked: AckOutcome,
    stats: McpStats,
    account: HandlerTimes,
    ltimer_gaps: LtimerGaps,
}

/// Running figures of the gaps between `L_timer()` passes (§4.2).
#[derive(Default)]
struct LtimerGaps {
    last: Option<SimTime>,
    max: SimDuration,
    sum: SimDuration,
    count: u64,
}

impl std::fmt::Debug for McpMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McpMachine")
            .field("node", &self.node)
            .field("variant", &self.params.variant)
            .field("hung", &self.chip.is_hung())
            .field("busy_until", &self.busy_until)
            .field(
                "sends_queued",
                &(self.send_q_high.len() + self.send_q_low.len()),
            )
            .finish()
    }
}

impl McpMachine {
    /// Creates a machine for `node` and loads the firmware (the model of
    /// the driver's initial MCP load). Call [`McpMachine::boot`] before
    /// use.
    pub fn new(node: NodeId, params: McpParams) -> McpMachine {
        let firmware = FirmwareImage::shared();
        let mut chip = LanaiChip::new(layout::SRAM_LEN);
        chip.sram.write_bytes(layout::CODE_BASE, firmware.bytes());
        McpMachine {
            chip,
            node,
            params,
            firmware,
            routes: RouteTable::default(),
            busy_until: SimTime::ZERO,
            booted: false,
            reload_count: 0,
            ports: Default::default(),
            send_q_high: VecDeque::new(),
            send_q_low: VecDeque::new(),
            active_send: None,
            tx_streams: BTreeMap::new(),
            rx_streams: BTreeMap::new(),
            free_tx_slabs: SlabPool::default(),
            free_rx_slabs: SlabPool::default(),
            hdma_jobs: VecDeque::new(),
            hdma_started: false,
            pending_ctrl: VecDeque::new(),
            pending_resend: VecDeque::new(),
            status_report_addr: 0,
            effects: Vec::new(),
            chip_effects: Vec::new(),
            acked: AckOutcome::default(),
            stats: McpStats::default(),
            account: HandlerTimes::default(),
            ltimer_gaps: LtimerGaps::default(),
        }
    }

    /// The interface this MCP serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The protocol parameters.
    pub fn params(&self) -> &McpParams {
        &self.params
    }

    /// The firmware image (exposes the fault-injection code range).
    pub fn firmware(&self) -> &'static FirmwareImage {
        self.firmware
    }

    /// Counters.
    pub fn stats(&self) -> McpStats {
        self.stats
    }

    /// LANai busy time per handler category (Table 2's LANai utilization).
    pub fn accounting(&self) -> &HandlerTimes {
        &self.account
    }

    /// Total LANai busy time.
    pub fn lanai_busy(&self) -> SimDuration {
        self.account.total()
    }

    /// The longest gap between two `L_timer()` passes (§4.2's gap
    /// measurement); zero before the second pass.
    pub fn ltimer_max_gap(&self) -> SimDuration {
        self.ltimer_gaps.max
    }

    /// The mean gap between `L_timer()` passes, or `None` before the
    /// second pass.
    pub fn ltimer_mean_gap(&self) -> Option<SimDuration> {
        let g = &self.ltimer_gaps;
        (g.count > 0).then(|| g.sum / g.count)
    }

    /// Boots (or re-boots after a reload): arms IT0, and under FTGM arms
    /// the IT1 watchdog and unmasks its host interrupt.
    pub fn boot(&mut self, now: SimTime) {
        self.booted = true;
        self.busy_until = now;
        self.chip.arm_timer(TimerId::It0, now, self.params.ltimer_ticks);
        if self.params.is_ftgm() && self.params.watchdog_ticks > 0 {
            self.chip
                .arm_timer(TimerId::It1, now, self.params.watchdog_ticks);
            self.chip.set_imr(isr::IT1);
        }
        self.drain_chip_effects();
    }

    /// Installs the route table (mapper output; also the FTD's restore).
    pub fn set_routes(&mut self, routes: RouteTable) {
        self.routes = routes;
    }

    /// The installed route table ([`McpEffect::Transmit`] names its
    /// destination; whoever injects the frame reads the route from here).
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Sets the pinned host address where `send_chunk` DMAs its per-chunk
    /// completion record (the driver allocates it at init). Zero disables
    /// the report.
    pub fn set_status_report_addr(&mut self, pa: u64) {
        self.status_report_addr = pa;
    }

    /// Host PIO: opens a port.
    pub fn open_port(&mut self, port: u8) {
        self.ports[port as usize].open = true;
    }

    /// Host PIO: closes a port, dropping its receive tokens and purging
    /// its queued (not yet active) send descriptors. The purge makes the
    /// recovery handler's close-then-open restore re-entrant: a retried
    /// `restore_port_state` replays the backup without doubling whatever
    /// an interrupted earlier attempt already queued.
    pub fn close_port(&mut self, port: u8) {
        let p = &mut self.ports[port as usize];
        p.open = false;
        p.recv_tokens.clear();
        p.epoch += 1;
        self.send_q_high.retain(|d| d.port != port);
        self.send_q_low.retain(|d| d.port != port);
        // Re-entry safety: the FAULT_DETECTED handler may run twice for
        // one port under the FTD retry path, with traffic already flowing
        // again. Drop the port's sender-side stream state so replayed
        // sends re-establish their streams at the backup's sequence
        // numbers instead of colliding with the advanced counters (the
        // peer's restored expected-seq counters drop the duplicates).
        self.active_send.take_if(|a| a.desc.port == port);
        self.tx_streams.retain(|key, tx| {
            if key.port == port {
                self.free_tx_slabs.extend(tx.sender.retained().map(|c| c.slab));
            }
            key.port != port
        });
        self.pending_resend.retain(|c| c.src_port != port);
    }

    /// Send descriptors queued on the interface but not yet active (tests
    /// and recovery-idempotency checks).
    pub fn queued_sends(&self) -> usize {
        self.send_q_high.len() + self.send_q_low.len()
    }

    /// `true` if `port` is open.
    pub fn port_open(&self, port: u8) -> bool {
        self.ports[port as usize].open
    }

    /// Host PIO: posts a send descriptor and rings the doorbell.
    pub fn post_send(&mut self, desc: SendDesc) {
        debug_assert!(self.ports[desc.port as usize].open, "send on closed port");
        if desc.prio_high {
            self.send_q_high.push_back(desc);
        } else {
            self.send_q_low.push_back(desc);
        }
        self.chip.ring_doorbell();
        self.drain_chip_effects();
    }

    /// Host PIO: provides a receive buffer on `port`.
    pub fn post_recv_token(&mut self, port: u8, desc: RecvTokenDesc) {
        self.ports[port as usize].recv_tokens.push(desc);
        self.chip.ring_doorbell();
        self.drain_chip_effects();
    }

    /// FTGM recovery: the host restores a receive stream's expected
    /// sequence number ("the last sequence number received on each
    /// stream"). Stale half-assembled messages are discarded; Go-Back-N
    /// brings them back in full.
    ///
    /// The restore is a **forward-only merge** (wrap-aware). A stream is
    /// keyed by the *sending* (node, port, priority) with no receiving
    /// port, so on a multi-process interface the per-process recovery
    /// handlers each restore their own ack-table view of a stream whose
    /// messages interleaved across their ports — and a process that
    /// received earlier messages on the stream holds a stale frontier.
    /// Adopting a stale value would rewind `expected` below the sender's
    /// cumulative ACK; the sender has already released those messages and
    /// can never satisfy the resulting NACK, wedging the stream forever.
    /// The same rule protects traffic accepted live between a re-entrant
    /// handler's two restore passes.
    pub fn restore_receiver_stream(&mut self, key: StreamKey, expected: u32) {
        self.rx_streams
            .entry(key)
            .and_modify(|rx| rx.restore(expected))
            .or_insert_with(|| RxStream::new(expected));
    }

    /// Receive-stream frontiers, for tests and state inspection.
    pub fn receiver_expected(&self, key: StreamKey) -> Option<u32> {
        self.rx_streams.get(&key).map(|rx| rx.receiver.expected())
    }

    /// Sender streams holding unacknowledged chunks, for stall diagnosis:
    /// `(key, outstanding, retries, cum_acked, next_seq)`.
    pub fn stalled_tx_streams(&self) -> Vec<(StreamKey, u32, u32, u32, u32)> {
        self.tx_streams
            .iter()
            .map(|(k, tx)| (*k, &tx.sender))
            .filter(|(_, s)| s.outstanding() > 0)
            .map(|(k, s)| (k, s.outstanding(), s.retries(), s.cum_acked(), s.next_seq()))
            .collect()
    }

    /// Test/experiment hook: forces the network processor to hang.
    pub fn force_hang(&mut self) {
        self.chip.set_hung(HangCause::Forced);
    }

    /// The FTD's reset path: resets the card, clears SRAM, reloads the
    /// pristine firmware image and wipes all protocol state and the route
    /// table (they lived in SRAM). Ports close; timers stay disarmed until
    /// [`McpMachine::boot`], and routes stay empty until the FTD restores
    /// them with [`McpMachine::set_routes`].
    pub fn reset_and_reload(&mut self, image: &[u8]) {
        self.chip.reset();
        self.chip.sram.clear();
        self.chip.sram.write_bytes(layout::CODE_BASE, image);
        self.booted = false;
        self.busy_until = SimTime::ZERO;
        self.reload_count += 1;
        self.routes = RouteTable::default();
        self.ports = Default::default();
        self.send_q_high.clear();
        self.send_q_low.clear();
        self.active_send = None;
        self.tx_streams.clear();
        self.rx_streams.clear();
        self.free_tx_slabs.reset();
        self.free_rx_slabs.reset();
        self.hdma_jobs.clear();
        self.hdma_started = false;
        self.pending_ctrl.clear();
        self.pending_resend.clear();
        self.effects.clear();
    }

    /// A frame arrived from the fabric. A hung chip loses frames (its
    /// packet interface no longer drains buffers).
    pub fn on_frame(&mut self, frame: WireFrame) {
        if self.chip.is_hung() {
            return;
        }
        self.chip.rx_deliver(frame);
        self.drain_chip_effects();
    }

    /// The world finished the outstanding host DMA.
    pub fn host_dma_done(&mut self) {
        self.chip.host_dma_complete();
        self.drain_chip_effects();
    }

    /// The world's timer poll fired; latches expired chip timers into the
    /// ISR (raising the FATAL interrupt if IT1 is unmasked).
    pub fn poll_timers(&mut self, now: SimTime) {
        self.chip.poll_timers(now);
        self.drain_chip_effects();
    }

    /// Earliest chip timer deadline, for the world's poll scheduling.
    pub fn next_timer_deadline(&self) -> Option<SimTime> {
        self.chip.next_timer_deadline()
    }

    /// Drains queued effects by trading queues with the caller: `buf`
    /// (which must be empty) comes back holding the effects, and its
    /// allocation becomes the machine's queue.
    pub fn swap_effects(&mut self, buf: &mut Vec<McpEffect>) {
        debug_assert!(buf.is_empty(), "effects would be interleaved out of order");
        std::mem::swap(&mut self.effects, buf);
    }

    /// When `dispatch` next needs to run: `Some(t)` means call at `t`.
    pub fn needs_dispatch(&self, now: SimTime) -> Option<SimTime> {
        if !self.booted || self.chip.is_hung() || !self.work_pending() {
            return None;
        }
        Some(self.busy_until.max(now))
    }

    fn work_pending(&self) -> bool {
        self.chip.isr() & (isr::IT0 | isr::RX_AVAIL | isr::HDMA_DONE) != 0
            || !self.pending_ctrl.is_empty()
            || !self.pending_resend.is_empty()
            || (!self.hdma_started && !self.hdma_jobs.is_empty())
            || self.staging_would_progress()
    }

    /// Whether the staging handler could actually start a DMA right now.
    fn staging_would_progress(&self) -> bool {
        if self.hdma_started || self.free_tx_slabs.is_empty() {
            return false;
        }
        let next = self.send_q_high.front().or(self.send_q_low.front());
        let key = match (&self.active_send, next) {
            (Some(a), _) => a.key,
            (None, Some(d)) => self.stream_key(d.dst_node, d.port, d.prio_high),
            (None, None) => return false,
        };
        self.tx_streams
            .get(&key)
            .map(|tx| tx.sender.window_open(self.params.window))
            .unwrap_or(true)
    }

    /// Runs at most one handler. Returns `true` if one ran.
    pub fn dispatch(&mut self, now: SimTime) -> bool {
        if !self.booted || self.chip.is_hung() || now < self.busy_until {
            return false;
        }
        let cost;
        if self.chip.isr() & isr::HDMA_DONE != 0 {
            // DMA-engine progress first: the engine is autonomous on real
            // silicon, so its completions/starts must not queue behind
            // protocol chatter.
            self.chip.clear_isr(isr::HDMA_DONE);
            cost = self.handle_hdma_done(now);
        } else if !self.hdma_started && !self.hdma_jobs.is_empty() {
            cost = self.start_next_hdma();
        } else if let Some(ctrl) = self.pending_ctrl.pop_front() {
            cost = self.handle_ctrl_tx(ctrl);
        } else if let Some(rec) = self.pending_resend.pop_front() {
            cost = self.handle_resend(now, rec);
        } else if self.chip.isr() & isr::IT0 != 0 {
            // L_timer() waits behind queued engine/protocol work — the MCP
            // serialization that stretches its invocation gap toward the
            // ~800us worst case of §4.2.
            self.chip.clear_isr(isr::IT0);
            cost = self.handle_ltimer(now);
        } else if self.chip.isr() & isr::RX_AVAIL != 0 {
            cost = self.handle_rx(now);
        } else if self.staging_would_progress() {
            self.chip.clear_isr(isr::DOORBELL);
            cost = self.handle_stage_next(now);
        } else {
            self.chip.clear_isr(isr::DOORBELL);
            return false;
        }
        self.busy_until = now + self.params.dispatch_overhead + cost;
        self.charge(Handler::Dispatch, self.params.dispatch_overhead);
        self.drain_chip_effects();
        true
    }

    fn charge(&mut self, cat: Handler, d: SimDuration) {
        self.account.charge(cat, d);
    }

    // --- handlers ---------------------------------------------------------

    /// `L_timer()`: housekeeping, retransmit scan, timer re-arm. Under
    /// FTGM the re-arm of IT1 here is the watchdog's liveness pulse.
    fn handle_ltimer(&mut self, now: SimTime) -> SimDuration {
        self.stats.ltimer_runs += 1;
        // Clear the FTD's liveness probe: only a running MCP gets here.
        // Storing zero over zero would still mark (and fault in) the page.
        let sram = &mut self.chip.sram;
        if sram.read_u32(layout::MAGIC_WORD).expect("magic word in range") != 0 {
            sram.write_u32(layout::MAGIC_WORD, 0).expect("magic word in range");
        }
        let g = &mut self.ltimer_gaps;
        if let Some(last) = g.last.replace(now) {
            let gap = now - last;
            g.max = g.max.max(gap);
            g.sum += gap;
            g.count += 1;
        }
        self.tx_streams.retain(|key, tx| {
            let Some(chunks) = tx.sender.check_timeout(now, self.params.rto) else {
                return true;
            };
            if tx.sender.retries() <= self.params.retry_limit {
                self.pending_resend.extend(chunks);
                return true;
            }
            // Retries exhausted: the stream is dropped and every message
            // on it fails (a message's chunks are contiguous), the one
            // still being staged included: its in-flight staging job
            // finds no stream and is discarded.
            self.free_tx_slabs.extend(tx.sender.retained().map(|c| c.slab));
            let staging = self.active_send.take_if(|a| a.key == *key);
            let ids = tx.sender.retained().map(|c| (c.msg_id, c.src_port));
            let mut last = None;
            for (token_id, port) in ids.chain(staging.map(|a| (a.desc.token_id, a.desc.port))) {
                if last.replace((token_id, port)) != Some((token_id, port)) {
                    self.stats.send_errors += 1;
                    let event = NicEvent::SendError { token_id };
                    self.effects.push(McpEffect::PostEvent { port, event });
                }
            }
            false
        });
        self.chip
            .arm_timer(TimerId::It0, now, self.params.ltimer_ticks);
        if self.params.is_ftgm() && self.params.watchdog_ticks > 0 {
            self.chip
                .arm_timer(TimerId::It1, now, self.params.watchdog_ticks);
        }
        self.charge(Handler::Ltimer, self.params.ltimer_body);
        self.params.ltimer_body
    }

    fn handle_ctrl_tx(&mut self, (key, ptype, seq): (StreamKey, PacketType, u32)) -> SimDuration {
        let port_field = if key.port == StreamKey::CONNECTION_PORT {
            0
        } else {
            key.port
        };
        let frame =
            Header::control_frame_prio(ptype, self.node, port_field, 0, seq, key.prio_high);
        self.transmit(key.node, frame);
        self.charge(Handler::AckBuild, self.params.ack_build);
        self.params.ack_build
    }

    fn handle_resend(&mut self, now: SimTime, rec: ChunkRecord) -> SimDuration {
        // Resend only chunks still retained (an ACK may have released
        // them between scheduling and execution).
        let key = self.stream_key(rec.dst_node, rec.src_port, rec.prio_high);
        let still = self
            .tx_streams
            .get(&key)
            .is_some_and(|tx| tx.sender.retained().any(|c| c.seq() == rec.seq()));
        if !still {
            return SimDuration::from_nanos(100);
        }
        self.stats.retransmits += 1;
        self.run_send_chunk(now, &rec, true)
    }

    fn handle_rx(&mut self, now: SimTime) -> SimDuration {
        let Some(frame) = self.chip.rx_pop() else {
            return SimDuration::from_nanos(100);
        };
        let mut cost = self.params.rx_process;
        if self.params.is_ftgm() {
            cost += self.params.ftgm_recv_extra;
            self.charge(Handler::FtgmRecvExtra, self.params.ftgm_recv_extra);
        }
        self.charge(Handler::Rx, self.params.rx_process);
        match Header::parse(&frame.bytes) {
            Err(_) => {
                self.stats.parse_drops += 1;
            }
            Ok((h, payload)) => match h.ptype {
                PacketType::Data => self.handle_data(h, payload),
                PacketType::Ack | PacketType::Nack => {
                    self.handle_ctrl_rx(now, h);
                    self.charge(Handler::AckProcess, self.params.ack_process);
                    cost += self.params.ack_process;
                }
            },
        }
        cost
    }

    fn handle_data(&mut self, h: Header, payload: &[u8]) {
        // Packets to a closed port are dropped without touching stream
        // state: between an MCP reload and the port's transparent
        // recovery, arriving retransmissions must not fabricate fresh
        // sequence state (that would unleash a NACK storm).
        if h.dst_port >= PORTS_PER_NODE || !self.ports[h.dst_port as usize].open {
            self.stats.no_token_drops += 1;
            return;
        }
        let key = self.stream_key(h.src_node, h.src_port, h.prio_high);
        let gm_resync = !self.host_owns_seqs();
        let delay_final_ack = self.params.is_ftgm() && self.params.knobs.delayed_commit_ack;
        let rx = match self.rx_streams.entry(key) {
            Entry::Vacant(e) => {
                // A brand-new stream may only synchronize from a SYN chunk —
                // the sender's stream-establishing sequence number. Anything
                // else is dropped stateless: adopting an arbitrary first-seen
                // sequence could silently skip a dropped earlier message.
                if !h.syn || h.chunk_offset != 0 {
                    self.stats.no_token_drops += 1;
                    return;
                }
                e.insert(RxStream::new(h.seq()))
            }
            Entry::Occupied(e) => {
                let rx = e.into_mut();
                if h.syn && h.chunk_offset == 0 && gm_resync && rx.receiver.expected() != h.seq() {
                    // GM semantics: a SYN on a known stream means the peer's
                    // MCP re-established the connection (e.g. after a naive
                    // reload). GM resynchronizes — and thereby accepts
                    // duplicates of anything delivered before the reset
                    // (Figure 4's flaw). FTGM's host-owned streams never do.
                    *rx = RxStream::new(h.seq());
                }
                rx
            }
        };
        match rx.receiver.classify(h.seq()) {
            RxVerdict::Duplicate => {
                self.stats.duplicates += 1;
                let ack = rx.committed_frontier();
                self.pending_ctrl.push_back((key, PacketType::Ack, ack));
                return;
            }
            RxVerdict::OutOfOrder => {
                if let Some(expected) = rx.nack_due() {
                    self.stats.nacks_sent += 1;
                    self.pending_ctrl.push_back((key, PacketType::Nack, expected));
                }
                return;
            }
            RxVerdict::Accept => {}
        }
        // First chunk of a message: discard any stale half-message and
        // match a receive token.
        if h.chunk_offset == 0 {
            let token = self.ports[h.dst_port as usize].match_recv_token(h.msg_len, h.prio_high);
            rx.assembly = token.map(|token| RxAssembly { token, first: h });
        }
        let Some(asm) = &rx.assembly else {
            // No receive token for the first chunk, or a mid-message chunk
            // with no assembly (we recovered): drop without advancing;
            // Go-Back-N restarts the message from its first chunk.
            self.stats.no_token_drops += 1;
            return;
        };
        if h.chunk_offset + h.payload_len > asm.first.msg_len
            || asm.first.msg_len > asm.token.capacity
        {
            self.stats.parse_drops += 1;
            rx.assembly = None;
            return;
        }
        let Some(rx_slab) = self.free_rx_slabs.pop() else {
            self.stats.no_token_drops += 1;
            return;
        };
        let dst_host_addr = asm.token.host_addr + h.chunk_offset as u64;

        // Accept. Under FTGM with the delayed commit point, a final
        // chunk's ACK waits for its delivery DMA; everything else ACKs at
        // acceptance, clamped to the committed frontier.
        let hold_ack = delay_final_ack && h.last_chunk;
        rx.accept(hold_ack);
        self.stats.data_rx_accepted += 1;
        self.chip.sram.write_bytes(rx_slab_addr(rx_slab), payload);

        let completion = rx.assembly.take_if(|_| h.last_chunk).map(|asm| {
            self.stats.messages_delivered += 1;
            (
                asm.first.dst_port,
                NicEvent::Received {
                    src_node: asm.first.src_node,
                    src_port: asm.first.src_port,
                    token_id: asm.token.token_id,
                    len: asm.first.msg_len,
                    seq: h.seq(),
                    prio_high: asm.first.prio_high,
                },
            )
        });

        if !hold_ack {
            let ack = rx.committed_frontier();
            self.pending_ctrl.push_back((key, PacketType::Ack, ack));
        }

        self.hdma_jobs.push_back(HdmaJob::Deliver {
            req: HostDmaReq {
                dir: HostDmaDir::SramToHost,
                host_addr: dst_host_addr,
                sram_addr: rx_slab_addr(rx_slab),
                len: h.payload_len,
            },
            rx_slab,
            stream: key,
            commits_final: hold_ack.then_some(h.seq()),
            completion,
        });
        self.charge(Handler::RdmaSetup, self.params.rdma_setup);
    }

    /// An ACK or NACK arrived; its `src_port`/priority fields carry the
    /// identity of *our* sending stream.
    fn handle_ctrl_rx(&mut self, now: SimTime, h: Header) {
        let key = self.stream_key(h.src_node, h.src_port, h.prio_high);
        let gm_resync = !self.host_owns_seqs();
        let Some(tx) = self.tx_streams.get_mut(&key) else {
            return;
        };
        if h.ptype == PacketType::Ack {
            tx.sender.on_ack(h.seq(), now, &mut self.acked);
            for &(token_id, port) in &self.acked.completed {
                self.stats.sends_completed += 1;
                let event = NicEvent::SendCompleted { token_id };
                self.effects.push(McpEffect::PostEvent { port, event });
            }
            self.free_tx_slabs.extend(self.acked.freed_slabs.iter().copied());
            return;
        }
        let s = &tx.sender;
        if gm_resync
            && h.seq().wrapping_sub(s.cum_acked()) > s.next_seq().wrapping_sub(s.cum_acked())
        {
            // GM-style resync: a NACK naming a sequence outside our window
            // means the two ends disagree about the stream (e.g. we
            // reloaded and renumbered). GM adopts the receiver's expected
            // number and renumbers its retained chunks — the exact move
            // that makes Figure 4's receiver accept duplicates.
            let renumbered = tx.renumber_from(h.seq());
            self.pending_resend.retain(|c| c.dst_node != key.node);
            self.pending_resend.extend(renumbered);
            return;
        }
        let rewind = s.rewind_from(h.seq());
        // A rewind supersedes whatever retransmissions of its chunks were
        // already queued — extending instead would amplify NACK bursts
        // exponentially. Whole records are compared: another stream to
        // the same node may have the same sequence numbers queued.
        self.pending_resend.retain(|c| !rewind.contains(c));
        self.pending_resend.extend(rewind);
    }

    fn handle_hdma_done(&mut self, now: SimTime) -> SimDuration {
        if !self.hdma_started {
            // A firmware-initiated DMA (the completion-record write)
            // finished; no dispatcher job is attached to it.
            return SimDuration::from_nanos(100);
        }
        self.hdma_started = false;
        let Some(job) = self.hdma_jobs.pop_front() else {
            return SimDuration::from_nanos(100);
        };
        // Chain the next DMA immediately: the engine is autonomous and
        // must not idle across a dispatch slot while work is queued.
        let chain = if let Some(next) = self.hdma_jobs.front() {
            if self.chip.hdma_busy() {
                SimDuration::ZERO // a firmware DMA holds the engine
            } else {
                self.hdma_started = true;
                self.chip.start_host_dma(next.req());
                SimDuration::from_nanos(100)
            }
        } else {
            SimDuration::ZERO
        };
        let cost = match job {
            HdmaJob::Stage { rec, stream, epoch, .. } => {
                let live = epoch == self.ports[rec.src_port as usize].epoch;
                if let Some(tx) = self.tx_streams.get_mut(&stream).filter(|_| live) {
                    tx.sender.admit(rec.clone());
                    self.run_send_chunk(now, &rec, false)
                } else {
                    // The port was closed (recovery re-entry) or the stream
                    // failed after this chunk was staged: the stream is
                    // gone, and so is anyone who could retransmit the
                    // chunk. Drop it on the floor.
                    self.free_tx_slabs.push(rec.slab);
                    SimDuration::from_nanos(100)
                }
            }
            HdmaJob::Deliver {
                rx_slab,
                stream,
                commits_final,
                completion,
                ..
            } => {
                self.free_rx_slabs.push(rx_slab);
                if let Some(final_seq) = commits_final {
                    // FTGM commit point: the message is in the user buffer;
                    // only now may its ACK leave (Figure 5's fix).
                    if let Some(rx) = self.rx_streams.get_mut(&stream) {
                        let ack = rx.commit(final_seq);
                        self.pending_ctrl.push_back((stream, PacketType::Ack, ack));
                    }
                }
                if let Some((port, event)) = completion {
                    self.effects.push(McpEffect::PostEvent { port, event });
                    self.charge(Handler::EventPost, self.params.event_post);
                    self.params.event_post
                } else {
                    SimDuration::from_nanos(200)
                }
            }
        };
        cost + chain
    }

    fn start_next_hdma(&mut self) -> SimDuration {
        if self.chip.hdma_busy() {
            // A firmware-initiated DMA holds the engine; retry after it
            // completes.
            return SimDuration::from_nanos(100);
        }
        if let Some(job) = self.hdma_jobs.front() {
            self.hdma_started = true;
            self.chip.start_host_dma(job.req());
        }
        SimDuration::from_nanos(200)
    }

    /// Stages the next chunk of the active (or next queued) send.
    fn handle_stage_next(&mut self, now: SimTime) -> SimDuration {
        if self.active_send.is_none() {
            let desc = self.send_q_high.pop_front().or_else(|| self.send_q_low.pop_front());
            let Some(desc) = desc else {
                return SimDuration::from_nanos(100);
            };
            let key = self.stream_key(desc.dst_node, desc.port, desc.prio_high);
            self.active_send = Some(ActiveSend { desc, next_offset: 0, key });
        }
        let host_owns = self.host_owns_seqs();
        let (Some(active), Some(slab)) = (&mut self.active_send, self.free_tx_slabs.pop()) else {
            return SimDuration::from_nanos(100);
        };
        // FTGM: the host numbers the message. GM: the stream's staging
        // frontier does, from a negotiated initial number.
        let host_first = active.desc.first_seq.filter(|_| host_owns);
        let tx = self.tx_streams.entry(active.key).or_insert_with(|| {
            let init = || Self::gm_initial_seq(self.node, self.reload_count, active.key);
            TxStream::new(host_first.unwrap_or_else(init), now)
        });
        let off = active.next_offset;
        let (seq, syn) = tx.next_stage_seq(host_first.filter(|_| off == 0));
        let len = (active.desc.len - off).min(self.params.max_chunk);
        let rec = ChunkRecord::new(&active.desc, seq, syn, slab, off, len);
        let last = rec.last;
        self.hdma_jobs.push_back(HdmaJob::Stage {
            req: HostDmaReq {
                dir: HostDmaDir::HostToSram,
                host_addr: active.desc.host_addr + off as u64,
                sram_addr: FirmwareImage::slab_addr(rec.slab),
                len,
            },
            epoch: self.ports[rec.src_port as usize].epoch,
            rec,
            stream: active.key,
        });
        active.next_offset += len;
        if last {
            self.active_send = None;
        }
        let mut cost = self.params.sdma_setup;
        self.charge(Handler::SdmaSetup, self.params.sdma_setup);
        if self.params.is_ftgm() {
            cost += self.params.ftgm_send_extra;
            self.charge(Handler::FtgmSendExtra, self.params.ftgm_send_extra);
        }
        cost
    }

    /// GM connections negotiate a fresh initial sequence number at (re-)
    /// setup; we derive it deterministically from the endpoints and the
    /// reload generation. This is what makes a naive MCP reload hand the
    /// receiver "invalid" sequence numbers (Figure 4). FTGM's host-owned
    /// streams always start at zero instead.
    fn gm_initial_seq(node: NodeId, reload_count: u32, key: StreamKey) -> u32 {
        let mut x = (node.0 as u64) << 48
            | (key.node.0 as u64) << 32
            | (key.port as u64) << 24
            | (key.prio_high as u64) << 23
            | reload_count as u64;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as u32 & 0x00FF_FFFF | 0x100 // keep well clear of 0
    }

    fn host_owns_seqs(&self) -> bool {
        self.params.variant == Variant::Ftgm && self.params.knobs.host_sequence_numbers
    }

    /// The key of the stream between this interface and `node` that
    /// `port` (the sending side's) and the priority class select: one per
    /// (port, node, priority) when the host numbers it, else one per node.
    fn stream_key(&self, node: NodeId, port: u8, prio_high: bool) -> StreamKey {
        if self.host_owns_seqs() {
            StreamKey::per_port(node, port, prio_high)
        } else {
            StreamKey::connection(node)
        }
    }

    // --- helpers -----------------------------------------------------------

    /// Runs the `send_chunk` firmware for `rec` in the handler dispatched
    /// at `now`, emitting transmit effects. Returns the handler cost
    /// (firmware cycles at the core clock).
    fn run_send_chunk(&mut self, now: SimTime, rec: &ChunkRecord, resend: bool) -> SimDuration {
        let sr = layout::SENDREC;
        use layout::sendrec as o;
        let mut flag_bits = 0;
        if rec.last {
            flag_bits |= flags::LAST_CHUNK;
        }
        if rec.prio_high {
            flag_bits |= flags::PRIO_HIGH;
        }
        if rec.syn {
            flag_bits |= flags::SYN;
        }
        let stream = stream_word(self.node, rec.src_port, rec.dst_port, flag_bits);
        let stage = FirmwareImage::slab_addr(rec.slab);
        let w = |chip: &mut LanaiChip, a: u32, v: u32| {
            chip.sram
                .write_u32(a, v)
                .expect("send record region is in range");
        };
        w(&mut self.chip, sr + o::STAGE_ADDR, stage);
        w(&mut self.chip, sr + o::LEN, rec.len);
        w(&mut self.chip, sr + o::SEQ, rec.seq());
        w(&mut self.chip, sr + o::STREAM, stream);
        w(&mut self.chip, sr + o::MSG_LEN, rec.msg_len);
        w(&mut self.chip, sr + o::CHUNK_OFF, rec.chunk_offset);
        w(&mut self.chip, sr + o::HDR_BUF, layout::PKT_BUF);
        w(&mut self.chip, sr + o::STATUS, 0);
        w(
            &mut self.chip,
            sr + o::STATUS_HOST,
            self.status_report_addr as u32,
        );
        self.chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
        let entry = if resend {
            self.firmware.entry_resend()
        } else {
            self.firmware.entry_send()
        };
        let outcome = self
            .chip
            .run_routine(now, entry, self.params.firmware_budget);
        let fw_time = self.params.cycle * outcome.cycles();
        self.charge(Handler::SendChunk, fw_time);
        let dst = rec.dst_node;
        let mut fired = self.take_chip_effects();
        for e in fired.drain(..) {
            match e {
                ChipEffect::TxFrame(f) => {
                    self.stats.data_tx += 1;
                    self.transmit(dst, f.bytes);
                }
                ChipEffect::HostInterrupt | ChipEffect::StartHostDma(_) => {
                    self.route_chip_effect(e)
                }
            }
        }
        self.chip_effects = fired;
        fw_time
    }

    fn transmit(&mut self, dst: NodeId, frame: Vec<u8>) {
        // Loopback shortcut: GM supports sending to oneself; the fabric
        // has no NIC→self route, so hand the frame straight back.
        if dst == self.node {
            self.chip.rx_deliver(WireFrame { bytes: frame });
            return;
        }
        self.effects.push(McpEffect::Transmit { dst, frame });
    }

    fn route_chip_effect(&mut self, e: ChipEffect) {
        match e {
            ChipEffect::HostInterrupt => self.effects.push(McpEffect::HostInterrupt),
            ChipEffect::StartHostDma(req) => self.effects.push(McpEffect::HostDma(req)),
            ChipEffect::TxFrame(_) => {
                // A TX trigger with no chunk context (stray firmware write
                // after corruption): nothing routable; the bytes die on the
                // wire.
            }
        }
    }

    /// The chip's queued effects, moved into the machine's spare buffer.
    /// Put the buffer back in `self.chip_effects` once drained.
    fn take_chip_effects(&mut self) -> Vec<ChipEffect> {
        let mut fired = std::mem::take(&mut self.chip_effects);
        self.chip.swap_effects(&mut fired);
        fired
    }

    fn drain_chip_effects(&mut self) {
        let mut fired = self.take_chip_effects();
        for e in fired.drain(..) {
            self.route_chip_effect(e);
        }
        self.chip_effects = fired;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::params::McpParams;

    /// A miniature world: two machines, an ideal zero-latency wire, an
    /// ideal host DMA engine. Drives dispatch rounds by hand so tests can
    /// observe each protocol step.
    pub(crate) struct Rig {
        pub(crate) a: McpMachine,
        pub(crate) b: McpMachine,
        pub(crate) now: SimTime,
        /// Events delivered to each side's host.
        pub(crate) events: Vec<(NodeId, u8, NicEvent)>,
        /// Simulated host memory contents per node (flat).
        pub(crate) host_mem: [Vec<u8>; 2],
        /// Every transmitted frame's bytes, in wire order.
        pub(crate) tx_frames: Vec<Vec<u8>>,
    }

    impl Rig {
        pub(crate) fn new(params: McpParams) -> Rig {
            let mut table0 = ftgm_net::RouteTable::default();
            table0.insert(NodeId(1), vec![1]);
            let mut table1 = ftgm_net::RouteTable::default();
            table1.insert(NodeId(0), vec![0]);
            let mut a = McpMachine::new(NodeId(0), params);
            let mut b = McpMachine::new(NodeId(1), params);
            a.set_routes(table0);
            b.set_routes(table1);
            a.boot(SimTime::ZERO);
            b.boot(SimTime::ZERO);
            Rig {
                a,
                b,
                now: SimTime::ZERO,
                events: Vec::new(),
                host_mem: [vec![0u8; 16 << 20], vec![0u8; 16 << 20]],
                tx_frames: Vec::new(),
            }
        }

        fn machine(&mut self, n: usize) -> &mut McpMachine {
            if n == 0 {
                &mut self.a
            } else {
                &mut self.b
            }
        }

        /// Runs dispatch + effect routing until quiescent (or 10k rounds).
        pub(crate) fn settle(&mut self) {
            for _ in 0..10_000 {
                let mut progressed = false;
                for n in 0..2usize {
                    self.now += SimDuration::from_us(2);
                    let now = self.now;
                    let m = self.machine(n);
                    m.poll_timers(now);
                    if m.needs_dispatch(now).is_some() {
                        m.dispatch(now);
                        progressed = true;
                    }
                    let mut effects = Vec::new();
                    self.machine(n).swap_effects(&mut effects);
                    for e in effects {
                        progressed = true;
                        self.route_effect(n, e);
                    }
                }
                if !progressed {
                    return;
                }
            }
            panic!("rig did not settle");
        }

        fn route_effect(&mut self, from: usize, e: McpEffect) {
            match e {
                McpEffect::Transmit { dst, frame } => {
                    // Ideal wire: straight into the destination's NIC.
                    self.tx_frames.push(frame.clone());
                    self.machine(dst.0 as usize).on_frame(WireFrame { bytes: frame });
                }
                McpEffect::HostDma(req) => {
                    // Ideal DMA: move bytes instantly.
                    match req.dir {
                        HostDmaDir::HostToSram => {
                            let data = self.host_mem[from]
                                [req.host_addr as usize..(req.host_addr + req.len as u64) as usize]
                                .to_vec();
                            self.machine(from).chip.sram.write_bytes(req.sram_addr, &data);
                        }
                        HostDmaDir::SramToHost => {
                            let data = self.machine(from)
                                .chip
                                .sram
                                .read_bytes(req.sram_addr, req.len as usize)
                                .to_vec();
                            self.host_mem[from]
                                [req.host_addr as usize..(req.host_addr + req.len as u64) as usize]
                                .copy_from_slice(&data);
                        }
                    }
                    self.machine(from).host_dma_done();
                }
                McpEffect::PostEvent { port, event } => {
                    self.events.push((NodeId(from as u16), port, event));
                }
                McpEffect::HostInterrupt => {}
            }
        }

        fn send(&mut self, from: usize, port: u8, dst: NodeId, dst_port: u8, data: &[u8], token: u64, first_seq: Option<u32>) {
            self.host_mem[from][0x10000..0x10000 + data.len()].copy_from_slice(data);
            let desc = SendDesc {
                token_id: token,
                port,
                dst_node: dst,
                dst_port,
                host_addr: 0x10000,
                len: data.len() as u32,
                prio_high: false,
                first_seq,
            };
            self.machine(from).post_send(desc);
        }

        pub(crate) fn provide(&mut self, on: usize, port: u8, token: u64, capacity: u32) {
            self.provide_prio(on, port, token, capacity, false);
        }

        pub(crate) fn provide_prio(&mut self, on: usize, port: u8, token: u64, capacity: u32, prio: bool) {
            let desc = RecvTokenDesc {
                token_id: token,
                host_addr: 0x40000 + (token % 64) * 0x20000,
                capacity,
                prio_high: prio,
            };
            self.machine(on).post_recv_token(port, desc);
        }

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn send_prio(
            &mut self,
            from: usize,
            port: u8,
            dst: NodeId,
            dst_port: u8,
            data: &[u8],
            token: u64,
            first_seq: Option<u32>,
            prio: bool,
        ) {
            let base = 0x10000 + (token % 32) as usize * 0x8000;
            self.host_mem[from][base..base + data.len()].copy_from_slice(data);
            let desc = SendDesc {
                token_id: token,
                port,
                dst_node: dst,
                dst_port,
                host_addr: base as u64,
                len: data.len() as u32,
                prio_high: prio,
                first_seq,
            };
            self.machine(from).post_send(desc);
        }
    }

    fn rigs() -> Vec<Rig> {
        vec![Rig::new(McpParams::gm()), Rig::new(McpParams::ftgm())]
    }

    #[test]
    fn single_message_send_receive_events() {
        for mut rig in rigs() {
            rig.a.open_port(0);
            rig.b.open_port(2);
            rig.provide(1, 2, 100, 4096);
            let payload: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
            rig.send(0, 0, NodeId(1), 2, &payload, 7, Some(0));
            rig.settle();
            // Receiver got the message event with the right token.
            let recv = rig
                .events
                .iter()
                .find(|(n, _, e)| *n == NodeId(1) && matches!(e, NicEvent::Received { .. }))
                .expect("received event");
            if let NicEvent::Received { token_id, len, .. } = recv.2 {
                assert_eq!(token_id, 100);
                assert_eq!(len, 500);
            }
            // Sender got its completion.
            assert!(rig.events.iter().any(|(n, _, e)| *n == NodeId(0)
                && matches!(e, NicEvent::SendCompleted { token_id: 7 })));
            // Payload landed in the receiver's host memory at the token's
            // buffer address.
            let base = 0x40000 + (100 % 64) * 0x20000;
            assert_eq!(&rig.host_mem[1][base..base + 500], &payload[..]);
        }
    }

    #[test]
    fn multi_chunk_fragmentation_and_reassembly() {
        for mut rig in rigs() {
            rig.a.open_port(0);
            rig.b.open_port(2);
            rig.provide(1, 2, 100, 20_000);
            let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
            rig.send(0, 0, NodeId(1), 2, &payload, 7, Some(0));
            rig.settle();
            assert_eq!(rig.a.stats().data_tx, 3, "3 chunks for 10000 bytes");
            assert_eq!(rig.b.stats().messages_delivered, 1);
            let base = 0x40000 + (100 % 64) * 0x20000;
            assert_eq!(&rig.host_mem[1][base..base + 10_000], &payload[..]);
        }
    }

    #[test]
    fn no_receive_token_stalls_until_provided() {
        for mut rig in rigs() {
            rig.a.open_port(0);
            rig.b.open_port(2);
            rig.send(0, 0, NodeId(1), 2, &[9u8; 100], 7, Some(0));
            rig.settle();
            assert_eq!(rig.b.stats().messages_delivered, 0);
            assert!(rig.b.stats().no_token_drops > 0);
            // Providing the buffer lets the retransmission complete.
            rig.provide(1, 2, 100, 4096);
            // Force a retransmission round: jump past the RTO.
            rig.now += SimDuration::from_ms(40);
            rig.settle();
            rig.now += SimDuration::from_ms(40);
            rig.settle();
            assert_eq!(rig.b.stats().messages_delivered, 1);
        }
    }

    #[test]
    fn duplicate_frames_are_dropped_and_reacked() {
        for mut rig in rigs() {
            rig.a.open_port(0);
            rig.b.open_port(2);
            rig.provide(1, 2, 100, 4096);
            rig.provide(1, 2, 101, 4096);
            rig.send(0, 0, NodeId(1), 2, &[1u8; 64], 7, Some(0));
            rig.settle();
            // Replay the exact same wire frame at the receiver (the
            // original sequence number is one below the stream frontier).
            let key = if rig.b.params().is_ftgm() {
                StreamKey::per_port(NodeId(0), 0, false)
            } else {
                StreamKey::connection(NodeId(0))
            };
            let seq = rig.b.receiver_expected(key).unwrap().wrapping_sub(1);
            let fw = crate::packet::build_data_frame(
                NodeId(0),
                0,
                2,
                seq,
                64,
                0,
                crate::packet::flags::LAST_CHUNK,
                &[1u8; 64],
            );
            rig.b.on_frame(WireFrame { bytes: fw });
            rig.settle();
            assert_eq!(rig.b.stats().messages_delivered, 1, "no duplicate delivery");
        }
    }

    #[test]
    fn corrupted_frame_counted_and_dropped() {
        for mut rig in rigs() {
            rig.b.open_port(2);
            let mut frame = crate::packet::build_data_frame(
                NodeId(0),
                0,
                2,
                0,
                64,
                0,
                crate::packet::flags::LAST_CHUNK,
                &[5u8; 64],
            );
            frame[40] ^= 0x10;
            rig.b.on_frame(WireFrame { bytes: frame });
            rig.settle();
            assert_eq!(rig.b.stats().parse_drops, 1);
            assert_eq!(rig.b.stats().messages_delivered, 0);
        }
    }

    #[test]
    fn closed_port_drops_without_stream_state() {
        for mut rig in rigs() {
            let frame = crate::packet::build_data_frame(
                NodeId(0),
                0,
                5, // port 5 is closed
                0,
                64,
                0,
                crate::packet::flags::LAST_CHUNK | crate::packet::flags::SYN,
                &[5u8; 64],
            );
            rig.b.on_frame(WireFrame { bytes: frame });
            rig.settle();
            assert_eq!(rig.b.stats().no_token_drops, 1);
            assert_eq!(rig.b.stats().nacks_sent, 0, "no NACK for closed ports");
        }
    }

    #[test]
    fn hung_machine_stops_dispatching_but_timers_run() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.a.open_port(0);
        rig.a.force_hang();
        rig.send(0, 0, NodeId(1), 2, &[1u8; 10], 1, Some(0));
        // needs_dispatch refuses work while hung.
        assert!(rig.a.needs_dispatch(rig.now + SimDuration::from_ms(1)).is_none());
        // Timers still latch: IT1 eventually raises the FATAL bit.
        let later = rig.now + SimDuration::from_ms(2);
        rig.a.poll_timers(later);
        assert_ne!(rig.a.chip.isr() & ftgm_lanai::chip::isr::IT1, 0);
    }

    #[test]
    fn reset_and_reload_wipes_protocol_state() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.a.open_port(0);
        rig.b.open_port(2);
        rig.provide(1, 2, 100, 4096);
        rig.send(0, 0, NodeId(1), 2, &[3u8; 256], 7, Some(0));
        rig.settle();
        let image = rig.a.firmware().bytes().to_vec();
        rig.a.force_hang();
        // A fault-injector flip in the last byte, a page the MCP never
        // writes: the clear must reach it too.
        let last_bit = rig.a.chip.sram.len() as u64 * 8 - 1;
        rig.a.chip.sram.flip_bit(last_bit);
        rig.a.reset_and_reload(&image);
        assert!(!rig.a.chip.is_hung());
        // DMA, send_chunk's stores, the receive slabs and the flip are all
        // gone: byte for byte the SRAM of a NIC never used.
        assert!(
            rig.a.chip.sram == McpMachine::new(NodeId(0), McpParams::ftgm()).chip.sram,
            "reloaded SRAM differs from a fresh NIC's"
        );
        assert!(!rig.a.port_open(0), "ports close on reload");
        assert_eq!(rig.a.receiver_expected(StreamKey::per_port(NodeId(1), 0, false)), None);
        // Boot re-arms timers.
        let now = rig.now;
        rig.a.boot(now);
        assert!(rig.a.next_timer_deadline().is_some());
    }

    #[test]
    fn ltimer_clears_magic_word() {
        let mut rig = Rig::new(McpParams::gm());
        rig.a
            .chip
            .sram
            .write_u32(layout::MAGIC_WORD, 0xDEAD)
            .unwrap();
        rig.now += SimDuration::from_ms(1);
        rig.settle();
        assert_eq!(rig.a.chip.sram.read_u32(layout::MAGIC_WORD).unwrap(), 0);
    }

    /// `L_timer` clears the FTD's probe without marking the magic word's
    /// SRAM page when nothing probed: an idle NIC keeps only the pages
    /// its boot wrote.
    #[test]
    fn idle_ltimer_passes_write_no_sram_page() {
        let mut m = McpMachine::new(NodeId(0), McpParams::ftgm());
        m.boot(SimTime::ZERO);
        let boot_pages = m.chip.sram.written_pages();
        let mut now = SimTime::ZERO;
        let mut effects = Vec::new();
        let mut pass = |m: &mut McpMachine, runs: u64| {
            while m.stats().ltimer_runs < runs {
                now += SimDuration::from_us(10);
                m.poll_timers(now);
                if m.needs_dispatch(now).is_some() {
                    m.dispatch(now);
                }
                m.swap_effects(&mut effects);
            }
        };
        pass(&mut m, 100);
        assert_eq!(m.chip.sram.written_pages(), boot_pages);
        // A probe is still cleared on the next pass.
        m.chip.sram.write_u32(layout::MAGIC_WORD, 0xDEAD).unwrap();
        pass(&mut m, 101);
        assert_eq!(m.chip.sram.read_u32(layout::MAGIC_WORD).unwrap(), 0);
        assert!(m.ltimer_max_gap() > SimDuration::ZERO);
        assert!(m.ltimer_mean_gap().is_some_and(|g| g <= m.ltimer_max_gap()));
    }

    /// `send_chunk` runs in the handler dispatched at `now`, so a timer
    /// its firmware arms counts from that instant, not from the end of
    /// whatever handler ran before an idle gap. The clean image arms no
    /// timer; one bit flip turns its `csrw 0x23` (`HDMA_CTRL`) into
    /// `csrw 0x03` (`IT1_COUNT`) with 2 in `r13`.
    #[test]
    fn send_chunk_arms_timers_from_its_dispatch_instant() {
        use ftgm_lanai::isa::{Instr, Opcode};
        use ftgm_lanai::timers::TICK;
        let mut rig = Rig::new(McpParams::gm());
        let code = rig.a.firmware().code_range();
        let sram = &rig.a.chip.sram;
        let is_csrw = |word: u32, id: i32| {
            Instr::decode(word).is_some_and(|i| i.op == Opcode::Csrw && i.imm == id)
        };
        let flip = code
            .step_by(4)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let word = sram.read_u32(a).unwrap();
                is_csrw(word, 0x23) && is_csrw(word ^ (1 << b), 0x03)
            })
            .expect("send_chunk writes HDMA_CTRL one flip away from IT1_COUNT");
        rig.a.chip.sram.flip_bit(u64::from(flip.0) * 8 + flip.1);
        // The completion-record block, where the write sits, runs only
        // when the driver has pinned a record page.
        rig.a.set_status_report_addr(0x8000);

        rig.a.open_port(0);
        rig.b.open_port(2);
        rig.provide(1, 2, 100, 4096);
        rig.settle();
        // Idle: the next handler, L_timer, starts 1 ms after the last.
        rig.now += SimDuration::from_ms(1);
        rig.send(0, 0, NodeId(1), 2, &[5u8; 32], 7, Some(0));
        for _ in 0..100 {
            rig.now += SimDuration::from_us(2);
            let now = rig.now;
            rig.a.poll_timers(now);
            if rig.a.needs_dispatch(now).is_some() {
                rig.a.dispatch(now);
            }
            let mut effects = Vec::new();
            rig.a.swap_effects(&mut effects);
            if effects.iter().any(|e| matches!(e, McpEffect::Transmit { .. })) {
                assert_eq!(rig.a.next_timer_deadline(), Some(now + TICK * 2));
                return;
            }
            for e in effects {
                rig.route_effect(0, e);
            }
        }
        panic!("send_chunk never transmitted");
    }

    #[test]
    fn ftgm_uses_host_sequence_numbers() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.a.open_port(0);
        rig.b.open_port(2);
        rig.provide(1, 2, 100, 4096);
        rig.provide(1, 2, 101, 4096);
        // Host dictates a starting sequence of 42.
        rig.send(0, 0, NodeId(1), 2, &[1u8; 64], 7, Some(42));
        rig.settle();
        assert_eq!(
            rig.b.receiver_expected(StreamKey::per_port(NodeId(0), 0, false)),
            Some(43)
        );
        // The next message continues the stream.
        rig.send(0, 0, NodeId(1), 2, &[2u8; 64], 8, Some(43));
        rig.settle();
        assert_eq!(
            rig.b.receiver_expected(StreamKey::per_port(NodeId(0), 0, false)),
            Some(44)
        );
        assert_eq!(rig.b.stats().messages_delivered, 2);
    }

    #[test]
    fn gm_streams_are_connection_level() {
        let mut rig = Rig::new(McpParams::gm());
        rig.a.open_port(0);
        rig.a.open_port(3);
        rig.b.open_port(2);
        rig.provide(1, 2, 100, 4096);
        rig.provide(1, 2, 101, 4096);
        // Two different source ports share the connection stream.
        rig.send(0, 0, NodeId(1), 2, &[1u8; 64], 7, None);
        rig.settle();
        rig.send(0, 3, NodeId(1), 2, &[2u8; 64], 8, None);
        rig.settle();
        assert_eq!(rig.b.stats().messages_delivered, 2);
        assert!(rig
            .b
            .receiver_expected(StreamKey::connection(NodeId(0)))
            .is_some());
        assert_eq!(
            rig.b.receiver_expected(StreamKey::per_port(NodeId(0), 0, false)),
            None
        );
    }

    #[test]
    fn restore_receiver_stream_drops_stale_assembly() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.b.open_port(2);
        rig.provide(1, 2, 100, 20_000);
        // Deliver only the first chunk of a two-chunk message.
        let payload = vec![7u8; 4096];
        let f = crate::packet::build_data_frame(
            NodeId(0),
            0,
            2,
            0,
            8192,
            0,
            crate::packet::flags::SYN,
            &payload,
        );
        rig.b.on_frame(WireFrame { bytes: f });
        rig.settle();
        assert_eq!(rig.b.stats().data_rx_accepted, 1);
        let key = StreamKey::per_port(NodeId(0), 0, false);
        // A restore carrying a stale frontier must NOT rewind the live
        // stream (that would wedge it below the sender's released ACKs) —
        // and must leave the in-progress assembly alone.
        rig.b.restore_receiver_stream(key, 0);
        assert_eq!(rig.b.receiver_expected(key), Some(1));
        // After a card reset the stream is gone; the restore re-creates it
        // fresh, and the half-assembled message died with the SRAM.
        let image = rig.b.firmware().bytes().to_vec();
        rig.b.reset_and_reload(&image);
        rig.b.boot(rig.now);
        rig.b.restore_receiver_stream(key, 1);
        assert_eq!(rig.b.receiver_expected(key), Some(1));
        assert_eq!(rig.b.stats().messages_delivered, 0);
    }

    #[test]
    fn restore_merges_multi_port_views_forward_only() {
        // One sending stream fans out to two receiving ports; each port's
        // recovery handler restores its own (stale or current) ack-table
        // view. The stream must end at the most advanced frontier no
        // matter which handler runs last.
        let mut m = McpMachine::new(NodeId(1), McpParams::ftgm());
        m.boot(SimTime::ZERO);
        let key = StreamKey::per_port(NodeId(0), 2, false);
        m.restore_receiver_stream(key, 3); // port 2's view: saw seq 2 last
        m.restore_receiver_stream(key, 2); // port 1's stale view: saw seq 1
        assert_eq!(m.receiver_expected(key), Some(3), "stale view must not rewind");
        m.restore_receiver_stream(key, 5);
        assert_eq!(m.receiver_expected(key), Some(5), "newer view advances");
        // Wrap-aware: a frontier just past u32::MAX is ahead of one just
        // below it.
        let wkey = StreamKey::per_port(NodeId(0), 3, false);
        m.restore_receiver_stream(wkey, u32::MAX);
        m.restore_receiver_stream(wkey, 1);
        assert_eq!(m.receiver_expected(wkey), Some(1));
        m.restore_receiver_stream(wkey, u32::MAX);
        assert_eq!(m.receiver_expected(wkey), Some(1), "wrapped stale view must not rewind");
    }

    #[test]
    fn reack_names_the_oldest_uncommitted_final_across_the_wrap() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.b.open_port(2);
        let key = StreamKey::per_port(NodeId(0), 0, false);
        rig.b.restore_receiver_stream(key, 0xFFFF_FFFE);
        let data = |seq: u32| WireFrame {
            bytes: crate::packet::build_data_frame(
                NodeId(0),
                0,
                2,
                seq,
                64,
                0,
                crate::packet::flags::LAST_CHUNK,
                &[seq as u8; 64],
            ),
        };
        // Three single-chunk messages are accepted, the last one past the
        // wrap, and a duplicate of the first follows. The world never
        // completes a host DMA, so no message reaches its buffer.
        for (token, seq) in [0xFFFF_FFFE, 0xFFFF_FFFF, 0, 0xFFFF_FFFE].into_iter().enumerate() {
            rig.provide(1, 2, 100 + token as u64, 4096);
            rig.b.on_frame(data(seq));
        }
        let mut effects = Vec::new();
        let mut acks = Vec::new();
        for _ in 0..64 {
            rig.now += SimDuration::from_us(2);
            rig.b.dispatch(rig.now);
            rig.b.swap_effects(&mut effects);
            acks.extend(effects.drain(..).filter_map(|e| match e {
                McpEffect::Transmit { frame, .. } => Some(Header::parse(&frame).unwrap().0),
                McpEffect::HostDma(_) | McpEffect::PostEvent { .. } | McpEffect::HostInterrupt => {
                    None
                }
            }));
        }
        assert_eq!(rig.b.stats().data_rx_accepted, 3);
        assert_eq!(rig.b.stats().duplicates, 1);
        assert_eq!(rig.b.receiver_expected(key), Some(1));
        // Only the duplicate draws an ACK, and it may not pass the oldest
        // message still on its way to the user's buffer.
        let acks: Vec<(PacketType, u32)> = acks.iter().map(|h| (h.ptype, h.seq())).collect();
        assert_eq!(acks, [(PacketType::Ack, 0xFFFF_FFFE)]);
    }

    #[test]
    fn staging_job_from_a_closed_ports_epoch_is_dropped() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.a.open_port(0);
        rig.a.post_send(SendDesc {
            token_id: 7,
            port: 0,
            dst_node: NodeId(1),
            dst_port: 2,
            host_addr: 0x10000,
            len: 64,
            prio_high: false,
            first_seq: Some(0),
        });
        // Dispatch by hand until the staging DMA is on the bus.
        let mut effects = Vec::new();
        let req = loop {
            rig.now += SimDuration::from_us(2);
            rig.a.dispatch(rig.now);
            rig.a.swap_effects(&mut effects);
            let dma = effects.drain(..).find_map(|e| match e {
                McpEffect::HostDma(req) => Some(req),
                McpEffect::Transmit { .. }
                | McpEffect::PostEvent { .. }
                | McpEffect::HostInterrupt => None,
            });
            if let Some(req) = dma {
                break req;
            }
        };
        assert_eq!(req.dir, HostDmaDir::HostToSram);
        assert_eq!(rig.a.free_tx_slabs.len() as u32, layout::SLAB_COUNT - 1);
        // Recovery re-entry closes and reopens the port while the DMA is
        // in flight: the job's epoch is now stale.
        rig.a.close_port(0);
        rig.a.open_port(0);
        rig.a.host_dma_done();
        for _ in 0..8 {
            rig.now += SimDuration::from_us(2);
            rig.a.dispatch(rig.now);
        }
        rig.a.swap_effects(&mut effects);
        assert!(
            !effects.iter().any(|e| matches!(e, McpEffect::Transmit { .. })),
            "a dead stream's chunk must not reach the wire: {effects:?}"
        );
        assert_eq!(rig.a.stats().data_tx, 0);
        assert_eq!(rig.a.free_tx_slabs.len() as u32, layout::SLAB_COUNT, "slab returned");
        assert!(rig.a.stalled_tx_streams().is_empty(), "no stream admitted the chunk");
    }

    #[test]
    fn nack_rewind_leaves_a_sibling_streams_retransmissions_queued() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.a.open_port(0);
        rig.a.open_port(1);
        // Node 1's port is closed: both chunks go out, neither is ACKed.
        rig.send_prio(0, 0, NodeId(1), 2, &[1u8; 64], 1, Some(0), false);
        rig.send_prio(0, 1, NodeId(1), 2, &[2u8; 64], 2, Some(0), false);
        rig.settle();
        // As after a timeout: each stream's sequence 0 waits to be resent.
        let streams = rig.a.tx_streams.values();
        let queued: Vec<ChunkRecord> =
            streams.flat_map(|tx| tx.sender.retained().cloned()).collect();
        let ids = |q: &VecDeque<ChunkRecord>| -> Vec<(u8, u32)> {
            q.iter().map(|c| (c.src_port, c.seq())).collect()
        };
        rig.a.pending_resend.extend(queued);
        assert_eq!(ids(&rig.a.pending_resend), [(0, 0), (1, 0)]);
        // Node 1 NACKs sequence 0 of the port-0 stream only.
        let nack = Header::control_frame_prio(PacketType::Nack, NodeId(1), 0, 0, 0, false);
        let (h, _) = Header::parse(&nack).unwrap();
        rig.a.handle_ctrl_rx(rig.now, h);
        assert_eq!(
            ids(&rig.a.pending_resend),
            [(1, 0), (0, 0)],
            "the rewind replaces port 0's queued chunk and leaves port 1's alone"
        );
    }

    #[test]
    fn lanai_accounting_accumulates_per_category() {
        let mut rig = Rig::new(McpParams::gm());
        rig.a.open_port(0);
        rig.b.open_port(2);
        rig.provide(1, 2, 100, 4096);
        rig.send(0, 0, NodeId(1), 2, &[1u8; 512], 7, None);
        rig.settle();
        let acct = rig.a.accounting();
        for cat in [Handler::Dispatch, Handler::SdmaSetup, Handler::SendChunk] {
            assert!(acct.get(cat) > SimDuration::ZERO, "missing {}: {acct:?}", cat.name());
        }
        assert_eq!(acct.get(Handler::FtgmSendExtra), SimDuration::ZERO, "GM run");
        assert_eq!(rig.a.lanai_busy(), acct.total());
        assert!(rig.a.lanai_busy() > SimDuration::ZERO);
    }
}

#[cfg(test)]
mod slab_pool_tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The pool hands out, takes back and counts slabs exactly as the
        /// `Vec` stack it replaces, whatever the order of operations.
        #[test]
        fn slab_pool_matches_the_vec_stack(
            ops in proptest::collection::vec((0u8..16, 0u32..layout::SLAB_COUNT), 0..3000),
        ) {
            let mut pool = SlabPool::default();
            let mut oracle: Vec<u32> = (0..layout::SLAB_COUNT).rev().collect();
            for (op, slab) in ops {
                // Pops outweigh returns, so long sequences run the pool dry.
                match op {
                    0..=11 => prop_assert_eq!(pool.pop(), oracle.pop()),
                    12 | 13 => {
                        pool.push(slab);
                        oracle.push(slab);
                    }
                    14 => {
                        let run = (slab..layout::SLAB_COUNT).take(3);
                        pool.extend(run.clone());
                        oracle.extend(run);
                    }
                    _ if slab % 32 == 0 => {
                        pool.reset();
                        oracle = (0..layout::SLAB_COUNT).rev().collect();
                    }
                    _ => {}
                }
                prop_assert_eq!(pool.len(), oracle.len());
                prop_assert_eq!(pool.is_empty(), oracle.is_empty());
            }
        }
    }
}

#[cfg(test)]
mod priority_tests {
    use super::tests::Rig;
    use super::*;
    use crate::packet::Header;
    use crate::params::McpParams;

    #[test]
    fn high_priority_sends_overtake_queued_low_priority() {
        for params in [McpParams::gm(), McpParams::ftgm()] {
            let mut rig = Rig::new(params);
            rig.a.open_port(0);
            rig.b.open_port(2);
            for t in 0..6 {
                rig.provide_prio(1, 2, 100 + t, 4096, false);
                rig.provide_prio(1, 2, 110 + t, 4096, true);
            }
            // Queue four low-priority messages, then one high-priority one,
            // all before any dispatch runs.
            for i in 0..4u64 {
                rig.send_prio(
                    0,
                    0,
                    NodeId(1),
                    2,
                    &[i as u8 + 1; 64],
                    i,
                    Some(i as u32),
                    false,
                );
            }
            rig.send_prio(0, 0, NodeId(1), 2, &[0xEE; 64], 99, Some(0), true);
            rig.settle();
            assert_eq!(rig.b.stats().messages_delivered, 5);
            // The high-priority frame must be the first data frame out.
            let first_payload_byte = rig
                .tx_frames
                .iter()
                .filter_map(|f| {
                    let (h, p) = Header::parse(f).ok()?;
                    (h.ptype == PacketType::Data).then(|| p[0])
                })
                .next()
                .expect("data frames were transmitted");
            assert_eq!(
                first_payload_byte, 0xEE,
                "high priority drained first ({:?})",
                rig.a.params().variant
            );
        }
    }

    #[test]
    fn priorities_are_independent_streams_under_ftgm() {
        let mut rig = Rig::new(McpParams::ftgm());
        rig.a.open_port(0);
        rig.b.open_port(2);
        rig.provide_prio(1, 2, 100, 4096, false);
        rig.provide_prio(1, 2, 101, 4096, true);
        // Both priorities start their own stream at sequence 0.
        rig.send_prio(0, 0, NodeId(1), 2, &[1u8; 64], 1, Some(0), false);
        rig.send_prio(0, 0, NodeId(1), 2, &[2u8; 64], 2, Some(0), true);
        rig.settle();
        assert_eq!(rig.b.stats().messages_delivered, 2);
        assert_eq!(
            rig.b
                .receiver_expected(StreamKey::per_port(NodeId(0), 0, false)),
            Some(1)
        );
        assert_eq!(
            rig.b
                .receiver_expected(StreamKey::per_port(NodeId(0), 0, true)),
            Some(1)
        );
    }
}
