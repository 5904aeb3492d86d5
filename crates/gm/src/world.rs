//! The simulation world: hosts, NICs, fabric, applications, and the event
//! loop that binds them.
//!
//! [`World`] owns one [`NodeSim`] per host (a [`ftgm_host::HostSystem`]
//! plus a [`ftgm_mcp::McpMachine`]) and the shared [`ftgm_net::Fabric`].
//! Everything advances through the deterministic scheduler: MCP dispatch
//! slots, chip timer polls, wire deliveries, PCI DMA completions, event
//! posts, and host-side callbacks.
//!
//! The host-side **GM library** lives here too: applications implement
//! [`App`] and talk GM through [`Ctx`] (`gm_send_with_callback`,
//! `gm_provide_receive_buffer`, …). Under the FTGM variant the library
//! transparently maintains the per-port [`PortBackup`] on the paper's
//! schedule — token copies added as tokens pass to the LANai, removed as
//! they return, sequence numbers generated host-side — at the paper's
//! measured extra host-CPU cost.
//!
//! Recovery (watchdog FATAL handling, the FTD, the `FAULT_DETECTED`
//! handler) runs as typed FTD steps once [`crate::ftd::install`] has
//! spawned the daemons (`ftgm-core`'s `FtSystem` does).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use ftgm_host::{CpuCost, DmaRegion, HostSystem, PciParams};
use ftgm_lanai::chip::{isr, HostDmaDir, HostDmaReq, WireFrame};
use ftgm_mcp::machine::{McpEffect, NicEvent, RecvTokenDesc, SendDesc};
use ftgm_mcp::{McpMachine, McpParams};
use ftgm_net::{reroute, DropReason, Fabric, FabricParams, Mapper, NodeId, RouteTable, Topology};
use ftgm_sim::{
    DmaDir, DropKind, RecoveryPhase, Scheduler, SimDuration, SimTime, Trace, TraceKind,
};

use crate::backup::PortBackup;
use crate::ftd::{self, Ftd, FtdStep};
use crate::recovery;

/// Host-CPU costs of GM library calls (Table 2's host-utilization rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostApiCosts {
    /// `gm_send_with_callback` (paper: 0.30 µs).
    pub send: SimDuration,
    /// Receive-event handling in `gm_receive` (part of the 0.75 µs).
    pub recv_event: SimDuration,
    /// `gm_provide_receive_buffer` (the rest of the 0.75 µs).
    pub provide: SimDuration,
    /// FTGM: send-token copy into the backup queue (+0.25 µs).
    pub send_backup: SimDuration,
    /// FTGM: receive-token copy at provide time.
    pub provide_backup: SimDuration,
    /// FTGM: receive-side hash-table updates at event time.
    pub recv_event_backup: SimDuration,
    /// Send-completion callback dispatch.
    pub callback: SimDuration,
}

impl Default for HostApiCosts {
    fn default() -> Self {
        HostApiCosts {
            send: SimDuration::from_nanos(300),
            recv_event: SimDuration::from_nanos(600),
            provide: SimDuration::from_nanos(150),
            send_backup: SimDuration::from_nanos(250),
            provide_backup: SimDuration::from_nanos(100),
            recv_event_backup: SimDuration::from_nanos(300),
            callback: SimDuration::from_nanos(100),
        }
    }
}

/// World-level configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// MCP protocol variant and tunables.
    pub mcp: McpParams,
    /// Fabric physical parameters.
    pub fabric: FabricParams,
    /// PCI bus parameters.
    pub pci: PciParams,
    /// Host RAM per node.
    pub host_mem: usize,
    /// GM library call costs.
    pub api: HostApiCosts,
    /// Send tokens per port.
    pub send_tokens: u32,
    /// Receive tokens per port.
    pub recv_tokens: u32,
    /// Record a recovery trace?
    pub trace: bool,
}

impl WorldConfig {
    /// Defaults for stock GM.
    pub fn gm() -> WorldConfig {
        WorldConfig {
            mcp: McpParams::gm(),
            fabric: FabricParams::default(),
            pci: PciParams::default(),
            host_mem: 64 << 20,
            api: HostApiCosts::default(),
            send_tokens: 32,
            recv_tokens: 32,
            trace: false,
        }
    }

    /// Defaults for FTGM.
    pub fn ftgm() -> WorldConfig {
        WorldConfig {
            mcp: McpParams::ftgm(),
            ..WorldConfig::gm()
        }
    }
}

/// A user-visible GM event, delivered to [`App::on_event`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmEvent {
    /// A message landed in one of this port's provided buffers.
    Received {
        /// Sender interface.
        src_node: NodeId,
        /// Sender port.
        src_port: u8,
        /// The receive token that was consumed.
        token_id: u64,
        /// Message length.
        len: u32,
        /// The message bytes (copied out of the receive buffer).
        data: Vec<u8>,
    },
    /// A send completed; its token has returned.
    SentOk {
        /// The send token.
        token_id: u64,
    },
    /// A send failed permanently (GM semantics: fatal to middleware).
    SendError {
        /// The send token.
        token_id: u64,
    },
    /// A user alarm set through [`Ctx::set_alarm`].
    Alarm {
        /// The tag passed to `set_alarm`.
        tag: u64,
    },
    /// The local interface was declared dead after repeated failed
    /// recoveries (the FTD's escalation). Outstanding sends arrive as
    /// [`GmEvent::SendError`] alongside this event; no further traffic is
    /// possible on the port.
    InterfaceDead,
}

/// Identifies a spawned application.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppId(u32);

impl AppId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A GM application: event-driven, like a spin-polling GM process.
pub trait App {
    /// Called once when the application starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);
    /// Called for every GM event on the application's port.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent);
}

/// Host-side per-port GM state.
pub struct HostPort {
    /// The application bound to this port.
    pub app: Option<AppId>,
    /// Send tokens currently available to the process.
    pub send_tokens: u32,
    /// Receive tokens currently available to the process.
    pub recv_tokens: u32,
    next_token: u64,
    /// FTGM backup state (maintained only under the FTGM variant).
    pub backup: PortBackup,
    send_bufs: BTreeMap<u64, DmaRegion>,
    recv_bufs: BTreeMap<u64, DmaRegion>,
    /// Free pinned buffers by length, the most recently freed first
    /// within a length: the second key is the `Reverse` of `gives`.
    free_bufs: BTreeMap<(u32, Reverse<u64>), DmaRegion>,
    /// Buffers returned to `free_bufs` so far.
    gives: u64,
}

impl HostPort {
    fn new(port: u8, send_tokens: u32, recv_tokens: u32) -> HostPort {
        HostPort {
            app: None,
            send_tokens,
            recv_tokens,
            // Token ids are node-global: namespace them by port, since a
            // GM connection stream carries every port's messages and the
            // MCP tells them apart by token id.
            next_token: ((port as u64 + 1) << 48) | 1,
            backup: PortBackup::new(),
            send_bufs: BTreeMap::new(),
            recv_bufs: BTreeMap::new(),
            free_bufs: BTreeMap::new(),
            gives: 0,
        }
    }

    /// Best fit: the free buffer of the smallest length that holds `len`
    /// bytes, the most recently freed of that length. `None` if no free
    /// buffer is long enough.
    fn take(&mut self, len: u32) -> Option<DmaRegion> {
        let (&fit, _) = self.free_bufs.range((len, Reverse(u64::MAX))..).next()?;
        self.free_bufs.remove(&fit)
    }

    /// Returns a buffer to the pool.
    fn give(&mut self, region: DmaRegion) {
        self.free_bufs.insert((region.len, Reverse(self.gives)), region);
        self.gives += 1;
    }
}

/// One simulated machine: host plus NIC.
pub struct NodeSim {
    /// The host system.
    pub host: HostSystem,
    /// The network processor and its firmware.
    pub mcp: McpMachine,
    /// Open GM ports.
    pub ports: [Option<HostPort>; 8],
    /// Host copy of the route table (the FTD restores it).
    pub route_backup: RouteTable,
    pub(crate) dma_in_flight: Option<HostDmaReq>,
    dispatch_at: Option<SimTime>,
    timer_poll_at: Option<SimTime>,
    // Observability cursors into the MCP's cumulative statistics, so
    // `sync_node` can emit typed delta events (re-arms, resends,
    // commits) without the firmware knowing about the trace.
    obs_ltimer_runs: u64,
    obs_last_ltimer: Option<SimTime>,
    obs_retransmits: u64,
    obs_delivered: u64,
}

impl NodeSim {
    /// `true` once this host has crashed (wild DMA); its applications stop.
    pub fn frozen(&self) -> bool {
        self.host.crashed()
    }
}

/// The trace layer's name for a fabric drop reason (the mirror exists so
/// `ftgm-sim` does not depend on `ftgm-net`).
fn drop_kind(reason: DropReason) -> DropKind {
    match reason {
        DropReason::SourceNotCabled => DropKind::SourceNotCabled,
        DropReason::DeadPort(_) => DropKind::DeadPort,
        DropReason::RouteExhausted => DropKind::RouteExhausted,
        DropReason::RouteNotConsumed => DropKind::RouteNotConsumed,
        DropReason::TooManyHops => DropKind::TooManyHops,
        DropReason::LinkDown => DropKind::LinkDown,
        DropReason::BadLink => DropKind::BadLink,
        DropReason::FaultDrop => DropKind::FaultDrop,
    }
}

/// The scheduler's event kinds, in the order of
/// [`WorldStats::events_by_kind`].
pub const EVENT_KINDS: [&str; 11] = [
    "McpDispatch",
    "TimerPoll",
    "FrameDelivery",
    "HostDmaDone",
    "NicEventArrived",
    "HostIrq",
    "PostSend",
    "PostRecvToken",
    "AppDelivery",
    "Ftd",
    "Call",
];

/// Aggregate world statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Frames that left a NIC but were dropped by the fabric.
    pub fabric_drops: u64,
    /// Frames delivered with a corrupted payload (link CRC would flag).
    pub corrupt_deliveries: u64,
    /// GM events delivered to applications.
    pub app_events: u64,
    /// Closure events scheduled through [`World::schedule_call`]. The
    /// message path (send, provide, receive event, alarm) schedules none;
    /// `tests/alloc_budget.rs` holds it to that.
    pub closure_calls: u64,
    /// Events handled, by kind (named by [`EVENT_KINDS`]); the counts sum
    /// to [`World::events_delivered`].
    pub events_by_kind: [u64; EVENT_KINDS.len()],
}

/// Everything the scheduler carries. Only the coordinator, chaos actions,
/// the MPI harness and `spawn_app` still schedule `Call`. The scheduler
/// stores 16 bytes beside each event, so the enum is kept to 48 to fill
/// exactly one cache line (a unit test holds it there): [`SendDesc`] and
/// [`GmEvent`] are 40 each and nest whole.
enum Event {
    McpDispatch(u16),
    TimerPoll(u16),
    FrameDelivery { dst: NodeId, bytes: Vec<u8>, crc_ok: bool },
    HostDmaDone(u16),
    NicEventArrived { node: u16, port: u8, event: NicEvent },
    /// The driver's interrupt handler runs, one IRQ latency after the
    /// chip raised its line.
    HostIrq(u16),
    /// A send descriptor's PIO write and doorbell reach the NIC.
    PostSend { node: u16, desc: SendDesc },
    /// A receive token's PIO write and doorbell reach the NIC.
    PostRecvToken { node: u16, port: u8, desc: RecvTokenDesc },
    /// The library hands a GM event (or an alarm) to an application.
    AppDelivery { app: AppId, ev: GmEvent },
    /// The next step of a node's FTD ([`crate::ftd`]).
    Ftd { node: u16, step: FtdStep },
    Call(Box<dyn FnOnce(&mut World)>),
}

impl Event {
    /// This event's index into [`EVENT_KINDS`].
    fn kind(&self) -> usize {
        match self {
            Event::McpDispatch(_) => 0,
            Event::TimerPoll(_) => 1,
            Event::FrameDelivery { .. } => 2,
            Event::HostDmaDone(_) => 3,
            Event::NicEventArrived { .. } => 4,
            Event::HostIrq(_) => 5,
            Event::PostSend { .. } => 6,
            Event::PostRecvToken { .. } => 7,
            Event::AppDelivery { .. } => 8,
            Event::Ftd { .. } => 9,
            Event::Call(_) => 10,
        }
    }
}

/// The simulation world.
pub struct World {
    sched: Scheduler<Event>,
    /// The switched fabric.
    pub fabric: Fabric,
    /// All simulated machines, indexed by `NodeId`.
    pub nodes: Vec<NodeSim>,
    /// Milestone trace (Figure 9 / Table 3).
    pub trace: Trace,
    /// The FTDs, once [`crate::ftd::install`] spawned them.
    pub(crate) ftd: Option<Ftd>,
    config: WorldConfig,
    apps: Vec<Option<Box<dyn App>>>,
    app_binding: Vec<(NodeId, u8)>,
    stats: WorldStats,
    /// The same-timestamp run being handled, reversed (next event last),
    /// kept across calls so steady state allocates nothing and so the rest
    /// of an instant [`World::run_until_ftd_phase`] returned from runs next.
    scratch: Vec<(SimTime, Event)>,
    /// The buffer [`World::sync_node`] trades with a node's MCP effect
    /// queue, for the same reason.
    mcp_effects: Vec<McpEffect>,
}

impl World {
    /// Builds a world over `topo`: creates hosts and NICs, runs the mapper,
    /// installs route tables (with host-side copies), loads and boots every
    /// MCP.
    pub fn new(topo: Topology, config: WorldConfig) -> World {
        let tables = Mapper::map(&topo);
        let fabric = Fabric::new(topo.clone(), config.fabric);
        let mut nodes = Vec::with_capacity(topo.node_count());
        for (i, table) in tables.into_iter().enumerate() {
            let mut host = HostSystem::new(config.host_mem);
            host.pci = ftgm_host::PciBus::new(config.pci);
            let mut mcp = McpMachine::new(NodeId(i as u16), config.mcp);
            // The driver stashes the pristine image for recovery reloads
            // and pins a scratch page for firmware's completion records.
            let image = mcp.firmware().bytes().to_vec();
            let entry = mcp.firmware().entry_send();
            host.driver.stash_mcp_image(image, entry);
            let scratch = host.mem.alloc_dma(64);
            mcp.set_status_report_addr(scratch.pa);
            mcp.set_routes(table.clone());
            mcp.boot(SimTime::ZERO);
            nodes.push(NodeSim {
                host,
                mcp,
                ports: Default::default(),
                route_backup: table,
                dma_in_flight: None,
                dispatch_at: None,
                timer_poll_at: None,
                obs_ltimer_runs: 0,
                obs_last_ltimer: None,
                obs_retransmits: 0,
                obs_delivered: 0,
            });
        }
        let trace = if config.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let mut w = World {
            sched: Scheduler::new(),
            fabric,
            nodes,
            trace,
            ftd: None,
            config,
            apps: Vec::new(),
            app_binding: Vec::new(),
            stats: WorldStats::default(),
            scratch: Vec::new(),
            mcp_effects: Vec::new(),
        };
        for n in 0..w.nodes.len() {
            w.sync_node(n);
        }
        w
    }

    /// Convenience: the paper's two-host, one-switch testbed.
    pub fn two_node(config: WorldConfig) -> World {
        World::new(Topology::two_nodes_one_switch(), config)
    }

    /// Convenience: `n` hosts on one switch (chaos campaigns over more
    /// than two nodes).
    pub fn star(n: usize, config: WorldConfig) -> World {
        World::new(Topology::star(n), config)
    }

    /// Convenience: `n` hosts on a ring of switches — multi-hop routes
    /// with redundant directions around the cycle.
    pub fn ring(n: usize, config: WorldConfig) -> World {
        World::new(Topology::ring(n), config)
    }

    /// Convenience: a two-level fat tree (leaf/spine Clos) of
    /// `leaves * hosts_per_leaf` hosts — the constant-diameter shape the
    /// scale bench uses for its 8/64/256-node cells.
    pub fn fat_tree(spines: usize, leaves: usize, hosts_per_leaf: usize, config: WorldConfig) -> World {
        World::new(Topology::fat_tree(spines, leaves, hosts_per_leaf), config)
    }

    /// Convenience: a 2-D torus of `cols × rows` switches, one host each —
    /// the high-diameter counterpoint to [`World::fat_tree`].
    pub fn torus(cols: usize, rows: usize, config: WorldConfig) -> World {
        World::new(Topology::torus(cols, rows), config)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total number of scheduler events delivered so far (the scale
    /// bench's denominator for events/sec).
    pub fn events_delivered(&self) -> u64 {
        self.sched.events_delivered()
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// `true` when the world runs the FTGM variant.
    pub fn is_ftgm(&self) -> bool {
        self.config.mcp.is_ftgm()
    }

    // --- running ----------------------------------------------------------

    /// Processes events until the queue is empty or the clock passes `t`.
    ///
    /// Each same-timestamp run due by `t` is drained by one
    /// [`Scheduler::pop_run_by`] (one bucket locate + resize check per run
    /// instead of per event), in the FIFO order repeated pops would
    /// produce (`tests/sched_equivalence.rs`); events scheduled *while* a run is
    /// being handled carry higher sequence numbers, so they sort after
    /// the scratch buffer's contents.
    pub fn run_until(&mut self, t: SimTime) {
        while self.run_until_ftd_phase(t).is_some() {}
    }

    /// [`World::run_until`], but returns right after an FTD completes a
    /// recovery phase, naming the node and the phase, so the caller can act
    /// inside that phase (chaos triggers) before anything else runs. The
    /// rest of that instant's events run first on the next call. `None`
    /// once the queue is empty or the clock passes `t`.
    pub fn run_until_ftd_phase(&mut self, t: SimTime) -> Option<(NodeId, RecoveryPhase)> {
        // The scratch buffer is moved out so `handle` can borrow the
        // world mutably; it is returned (with its capacity) on the way out.
        let mut run = std::mem::take(&mut self.scratch);
        let hit = loop {
            match run.pop() {
                Some((_, ev)) => {
                    if let Some(hit) = self.handle(ev) {
                        break Some(hit);
                    }
                }
                None if self.sched.pop_run_by(t, &mut run) > 0 => run.reverse(),
                None => break None,
            }
        };
        self.scratch = run;
        hit
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Schedules `f` to run after `delay` (the coordinator, chaos actions
    /// and `spawn_app`; the message path and the FTD have typed events).
    pub fn schedule_call(&mut self, delay: SimDuration, f: impl FnOnce(&mut World) + 'static) {
        self.stats.closure_calls += 1;
        self.sched.schedule_in(delay, Event::Call(Box::new(f)));
    }

    /// Schedules `step` of `node`'s FTD after `delay`.
    pub(crate) fn schedule_ftd(&mut self, delay: SimDuration, node: NodeId, step: FtdStep) {
        self.sched.schedule_in(delay, Event::Ftd { node: node.0, step });
    }

    /// Handles one event; returns the node and phase when it was an FTD
    /// completing a recovery phase.
    fn handle(&mut self, ev: Event) -> Option<(NodeId, RecoveryPhase)> {
        self.stats.events_by_kind[ev.kind()] += 1;
        match ev {
            Event::McpDispatch(n) => {
                let n = n as usize;
                self.nodes[n].dispatch_at = None;
                let now = self.now();
                self.nodes[n].mcp.dispatch(now);
                self.sync_node(n);
            }
            Event::TimerPoll(n) => {
                let n = n as usize;
                self.nodes[n].timer_poll_at = None;
                let now = self.now();
                self.nodes[n].mcp.poll_timers(now);
                self.sync_node(n);
            }
            Event::FrameDelivery { dst, bytes, crc_ok } => {
                let n = dst.0 as usize;
                if !crc_ok {
                    self.stats.corrupt_deliveries += 1;
                }
                // Corrupted frames are delivered; the MCP's checksums drop
                // them (GM's transparent handling of corrupted packets).
                self.nodes[n].mcp.on_frame(WireFrame { bytes });
                self.sync_node(n);
            }
            Event::HostDmaDone(n) => {
                let n = n as usize;
                self.complete_host_dma(n);
                self.sync_node(n);
            }
            Event::NicEventArrived { node, port, event } => {
                self.handle_nic_event(node as usize, port, event);
            }
            Event::HostIrq(n) => self.handle_irq(n as usize),
            Event::PostSend { node, desc } => {
                let n = node as usize;
                if !self.nodes[n].frozen() {
                    self.nodes[n].mcp.post_send(desc);
                    self.sync_node(n);
                }
            }
            Event::PostRecvToken { node, port, desc } => {
                let n = node as usize;
                if !self.nodes[n].frozen() {
                    self.nodes[n].mcp.post_recv_token(port, desc);
                    self.sync_node(n);
                }
            }
            Event::AppDelivery { app, ev } => {
                self.with_app(app, |app, ctx| app.on_event(ctx, ev));
            }
            Event::Ftd { node, step } => return ftd::step(self, NodeId(node), step),
            Event::Call(f) => f(self),
        }
        None
    }

    /// Executes the byte movement of the completed host DMA, then tells
    /// the MCP.
    fn complete_host_dma(&mut self, n: usize) {
        let Some(req) = self.nodes[n].dma_in_flight.take() else {
            return;
        };
        let node = &mut self.nodes[n];
        match req.dir {
            HostDmaDir::HostToSram => {
                let data = node.host.mem.dma_read(req.host_addr, req.len);
                node.mcp.chip.sram.write_bytes(req.sram_addr, data);
            }
            HostDmaDir::SramToHost => {
                let data = node.mcp.chip.sram.read_bytes(req.sram_addr, req.len as usize);
                node.host.mem.dma_write(req.host_addr, data);
            }
        }
        node.mcp.host_dma_done();
        if self.trace.is_enabled() {
            let dir = match req.dir {
                HostDmaDir::HostToSram => DmaDir::HostToSram,
                HostDmaDir::SramToHost => DmaDir::SramToHost,
            };
            let now = self.now();
            self.trace.emit(
                now,
                TraceKind::DmaDone { node: n as u16, dir, len: req.len },
            );
        }
    }

    /// Drains MCP effects and keeps the node's dispatch/timer events
    /// scheduled. Call after any interaction with a node's MCP.
    pub fn sync_node(&mut self, n: usize) {
        let now = self.now();
        let mut effects = std::mem::take(&mut self.mcp_effects);
        self.nodes[n].mcp.swap_effects(&mut effects);
        for effect in effects.drain(..) {
            match effect {
                McpEffect::Transmit { dst, frame } => {
                    let Some(route) = self.nodes[n].mcp.routes().route(dst) else {
                        continue; // no route (mapper not run / table lost): drop
                    };
                    match self.fabric.inject(now, NodeId(n as u16), route, frame) {
                        Ok(d) => {
                            self.sched.schedule_at(
                                d.at,
                                Event::FrameDelivery {
                                    dst: d.dst,
                                    bytes: d.bytes,
                                    crc_ok: d.crc_ok,
                                },
                            );
                        }
                        Err(reason) => {
                            self.stats.fabric_drops += 1;
                            self.trace.emit(
                                now,
                                TraceKind::FabricDrop {
                                    node: n as u16,
                                    reason: drop_kind(reason),
                                },
                            );
                        }
                    }
                }
                McpEffect::HostDma(req) => {
                    debug_assert!(self.nodes[n].dma_in_flight.is_none());
                    self.nodes[n].dma_in_flight = Some(req);
                    let tr = self.nodes[n].host.pci.transfer(now, req.len);
                    self.sched
                        .schedule_at(tr.end, Event::HostDmaDone(n as u16));
                    if self.trace.is_enabled() {
                        self.trace
                            .emit(now, TraceKind::DmaStaged { node: n as u16, len: req.len });
                    }
                }
                McpEffect::PostEvent { port, event } => {
                    // A 32-byte event record DMAed into the receive queue.
                    let tr = self.nodes[n].host.pci.transfer(now, 32);
                    self.sched.schedule_at(
                        tr.end,
                        Event::NicEventArrived {
                            node: n as u16,
                            port,
                            event,
                        },
                    );
                }
                McpEffect::HostInterrupt => {
                    let latency = self.nodes[n].host.driver.params().irq_latency;
                    self.sched.schedule_in(latency, Event::HostIrq(n as u16));
                }
            }
        }
        self.mcp_effects = effects;
        // Keep the dispatch loop scheduled.
        if let Some(t) = self.nodes[n].mcp.needs_dispatch(now) {
            let already = self.nodes[n].dispatch_at.is_some_and(|d| d <= t);
            if !already {
                self.nodes[n].dispatch_at = Some(t);
                self.sched.schedule_at(t, Event::McpDispatch(n as u16));
            }
        }
        // Keep the chip timer poll scheduled.
        if let Some(dl) = self.nodes[n].mcp.next_timer_deadline() {
            let already = self.nodes[n].timer_poll_at.is_some_and(|d| d <= dl);
            if !already {
                self.nodes[n].timer_poll_at = Some(dl);
                self.sched.schedule_at(dl, Event::TimerPoll(n as u16));
            }
        }
        // Typed observability deltas against the MCP's cumulative stats
        // (watchdog re-arms, Go-Back-N resends, delayed-ACK commits).
        if self.trace.is_enabled() {
            let stats = self.nodes[n].mcp.stats();
            if stats.ltimer_runs > self.nodes[n].obs_ltimer_runs {
                let gap = match self.nodes[n].obs_last_ltimer {
                    Some(prev) => now.saturating_since(prev),
                    None => SimDuration::ZERO,
                };
                self.nodes[n].obs_ltimer_runs = stats.ltimer_runs;
                self.nodes[n].obs_last_ltimer = Some(now);
                self.trace
                    .emit(now, TraceKind::WatchdogRearmed { node: n as u16, gap });
            }
            if stats.retransmits > self.nodes[n].obs_retransmits {
                let chunks = stats.retransmits - self.nodes[n].obs_retransmits;
                self.nodes[n].obs_retransmits = stats.retransmits;
                self.trace
                    .emit(now, TraceKind::Resent { node: n as u16, chunks });
            }
            if stats.messages_delivered > self.nodes[n].obs_delivered {
                let messages = stats.messages_delivered - self.nodes[n].obs_delivered;
                self.nodes[n].obs_delivered = stats.messages_delivered;
                self.trace
                    .emit(now, TraceKind::CommitAdvanced { node: n as u16, messages });
            }
        }
    }

    /// Driver interrupt handler: classify the cause.
    fn handle_irq(&mut self, n: usize) {
        if !self.nodes[n].host.driver.interrupts_enabled() {
            return;
        }
        let cause = self.nodes[n].mcp.chip.isr() & self.nodes[n].mcp.chip.imr();
        if cause & isr::IT1 != 0 {
            // The FATAL interrupt: the watchdog expired.
            let now = self.now();
            self.trace.emit(now, TraceKind::WatchdogFired { node: n as u16 });
            ftd::on_fatal(self, NodeId(n as u16));
        }
    }

    // --- GM library: port management ---------------------------------------

    /// Spawns an application on `(node, port)`, opening the port. The
    /// application's `on_start` runs immediately (at the current instant).
    ///
    /// # Panics
    ///
    /// Panics if the port is already open.
    pub fn spawn_app(&mut self, node: NodeId, port: u8, app: Box<dyn App>) -> AppId {
        let n = node.0 as usize;
        assert!(
            self.nodes[n].ports[port as usize].is_none(),
            "port {port} on {node} already open"
        );
        let mut hp = HostPort::new(port, self.config.send_tokens, self.config.recv_tokens);
        let id = AppId(u32::try_from(self.apps.len()).expect("fewer than 2^32 apps"));
        hp.app = Some(id);
        self.nodes[n].ports[port as usize] = Some(hp);
        self.nodes[n].mcp.open_port(port);
        self.sync_node(n);
        self.apps.push(Some(app));
        self.app_binding.push((node, port));
        self.schedule_call(SimDuration::ZERO, move |w| {
            w.with_app(id, |app, ctx| app.on_start(ctx));
        });
        id
    }

    /// Detaches the application on `(node, port)` and closes the port,
    /// freeing the slot for a respawn. Events already scheduled for the
    /// detached app are dropped at delivery (its slot is empty). Returns
    /// `true` if an app was attached there.
    ///
    /// On a frozen (crashed) host only the binding is cleared — the dead
    /// firmware is not asked to close anything.
    pub fn detach_app(&mut self, node: NodeId, port: u8) -> bool {
        let n = node.0 as usize;
        let Some(hp) = self.nodes[n].ports[port as usize].take() else {
            return false;
        };
        let had_app = hp.app.is_some();
        if let Some(id) = hp.app {
            self.apps[id.index()] = None;
        }
        if !self.nodes[n].frozen() {
            self.nodes[n].mcp.close_port(port);
            self.sync_node(n);
        }
        had_app
    }

    /// Runs `f` with the application and a context, unless its host froze.
    fn with_app(&mut self, id: AppId, f: impl FnOnce(&mut Box<dyn App>, &mut Ctx<'_>)) {
        let (node, port) = self.app_binding[id.index()];
        if self.nodes[node.0 as usize].frozen() {
            return;
        }
        let Some(mut app) = self.apps[id.index()].take() else {
            return;
        };
        {
            let mut ctx = Ctx {
                world: self,
                node,
                port,
                app_id: id,
            };
            f(&mut app, &mut ctx);
        }
        self.apps[id.index()] = Some(app);
    }

    /// Delivers a GM event to the app on `(node, port)` after `delay`.
    fn deliver_app_event(&mut self, node: NodeId, port: u8, delay: SimDuration, ev: GmEvent) {
        let n = node.0 as usize;
        let Some(hp) = &self.nodes[n].ports[port as usize] else {
            return;
        };
        let Some(id) = hp.app else { return };
        self.stats.app_events += 1;
        self.sched
            .schedule_in(delay, Event::AppDelivery { app: id, ev });
    }

    // --- GM library: NIC event processing (gm_receive / gm_unknown) --------

    fn handle_nic_event(&mut self, n: usize, port: u8, event: NicEvent) {
        if self.nodes[n].frozen() {
            return;
        }
        let is_ftgm = self.is_ftgm();
        let api = self.config.api;
        match event {
            NicEvent::Received {
                src_node,
                src_port,
                token_id,
                len,
                seq,
                prio_high,
            } => {
                let node = &mut self.nodes[n];
                let Some(hp) = node.ports[port as usize].as_mut() else {
                    return;
                };
                let Some(region) = hp.recv_bufs.remove(&token_id) else {
                    return; // stale event from before a recovery
                };
                let mut cost = api.recv_event;
                node.host.cpu.charge(CpuCost::RecvEvent, api.recv_event);
                if is_ftgm {
                    // The two hash-table updates the paper charges to the
                    // receive path: drop the token copy, bump the ACK table.
                    hp.backup.remove_recv(token_id);
                    hp.backup.record_ack(src_node, src_port, prio_high, seq);
                    node.host
                        .cpu
                        .charge(CpuCost::RecvTokenBackup, api.recv_event_backup);
                    cost += api.recv_event_backup;
                }
                hp.recv_tokens += 1;
                let data = node.host.mem.read(region.pa, len);
                hp.give(region);
                if self.trace.is_enabled() {
                    let now = self.now();
                    self.trace.emit(
                        now,
                        TraceKind::MessageReceived {
                            node: n as u16,
                            port,
                            src_node: src_node.0,
                            src_port,
                            len,
                        },
                    );
                }
                self.deliver_app_event(
                    NodeId(n as u16),
                    port,
                    cost,
                    GmEvent::Received {
                        src_node,
                        src_port,
                        token_id,
                        len,
                        data,
                    },
                );
            }
            NicEvent::SendCompleted { token_id } => {
                let node = &mut self.nodes[n];
                let Some(hp) = node.ports[port as usize].as_mut() else {
                    return;
                };
                if let Some(region) = hp.send_bufs.remove(&token_id) {
                    hp.give(region);
                }
                if is_ftgm {
                    hp.backup.remove_send(token_id);
                }
                hp.send_tokens += 1;
                node.host.cpu.charge(CpuCost::Callback, api.callback);
                if self.trace.is_enabled() {
                    let now = self.now();
                    self.trace.emit(
                        now,
                        TraceKind::SendCompleted { node: n as u16, port, token: token_id },
                    );
                }
                self.deliver_app_event(
                    NodeId(n as u16),
                    port,
                    api.callback,
                    GmEvent::SentOk { token_id },
                );
            }
            NicEvent::SendError { token_id } => {
                let node = &mut self.nodes[n];
                let Some(hp) = node.ports[port as usize].as_mut() else {
                    return;
                };
                if let Some(region) = hp.send_bufs.remove(&token_id) {
                    hp.give(region);
                }
                if is_ftgm {
                    hp.backup.remove_send(token_id);
                }
                hp.send_tokens += 1;
                if self.trace.is_enabled() {
                    let now = self.now();
                    self.trace.emit(
                        now,
                        TraceKind::SendFailed { node: n as u16, port, token: token_id },
                    );
                }
                self.deliver_app_event(
                    NodeId(n as u16),
                    port,
                    api.callback,
                    GmEvent::SendError { token_id },
                );
            }
            NicEvent::FaultDetected => {
                // gm_unknown(): the transparent recovery entry point.
                recovery::on_fault_detected(self, NodeId(n as u16), port);
            }
        }
    }

    // --- GM library: buffer management --------------------------------------

    /// A pinned buffer of at least `len` bytes: the port pool's best fit,
    /// or else a new region of exactly `len`.
    fn alloc_buf(&mut self, n: usize, port: u8, len: u32) -> DmaRegion {
        let node = &mut self.nodes[n];
        let hp = node.ports[port as usize]
            .as_mut()
            .expect("port open");
        if let Some(r) = hp.take(len) {
            return r;
        }
        let region = node.host.mem.alloc_dma(len);
        // Register the pages so the NIC may DMA there (va == pa model).
        node.host
            .pages
            .map_region(port, region.pa, region.pa, region.len as u64);
        region
    }

    // --- direct access for recovery code and experiments --------------------

    /// Posts a `FAULT_DETECTED` event into a port's receive queue (the
    /// FTD's final per-port step), with PCI timing like any event post.
    pub(crate) fn post_fault_detected(&mut self, node: NodeId, port: u8) {
        let n = node.0 as usize;
        let now = self.now();
        let tr = self.nodes[n].host.pci.transfer(now, 32);
        self.sched.schedule_at(
            tr.end,
            Event::NicEventArrived {
                node: node.0,
                port,
                event: NicEvent::FaultDetected,
            },
        );
    }

    /// The FTD's escalation path: the interface will not come back, so
    /// every backed-up (unacknowledged) send on every open port fails back
    /// to its application as [`GmEvent::SendError`], followed by one
    /// [`GmEvent::InterfaceDead`] per port. Returns the number of sends
    /// failed. Buffers and tokens return to the process so middleware can
    /// tear down cleanly instead of leaking.
    pub(crate) fn fail_outstanding_sends(&mut self, node: NodeId) -> usize {
        let n = node.0 as usize;
        let api = self.config.api;
        let mut failed = 0;
        for port in 0..8u8 {
            let tokens: Vec<u64> = {
                let Some(hp) = self.nodes[n].ports[port as usize].as_mut() else {
                    continue;
                };
                let tokens: Vec<u64> = hp
                    .backup
                    .outstanding_sends()
                    .iter()
                    .map(|c| c.token_id)
                    .collect();
                for &token_id in &tokens {
                    hp.backup.remove_send(token_id);
                    if let Some(region) = hp.send_bufs.remove(&token_id) {
                        hp.give(region);
                    }
                    hp.send_tokens += 1;
                }
                tokens
            };
            failed += tokens.len();
            for token_id in tokens {
                self.deliver_app_event(node, port, api.callback, GmEvent::SendError { token_id });
            }
            self.deliver_app_event(node, port, api.callback, GmEvent::InterfaceDead);
        }
        failed
    }

    /// Installs fresh per-interface route tables into the live fabric:
    /// each interface's MCP gets its new table and the host's recovery
    /// copy (`route_backup`) is updated so subsequent FTD
    /// `RestoreRoutes` phases restore the *rerouted* state, not the
    /// pre-fault one. Tables beyond the node count are ignored; nodes
    /// beyond the table count keep their current routes. Returns the
    /// number of interfaces whose table actually changed.
    pub fn install_routes(&mut self, tables: Vec<RouteTable>) -> u32 {
        let mut changed = 0u32;
        let installed = tables.len().min(self.nodes.len()) as u32;
        for (n, table) in tables.into_iter().enumerate() {
            if n >= self.nodes.len() {
                break;
            }
            if self.nodes[n].route_backup != table {
                changed += 1;
            }
            self.nodes[n].mcp.set_routes(table.clone());
            self.nodes[n].route_backup = table;
            self.sync_node(n);
        }
        let now = self.now();
        self.trace.emit(
            now,
            TraceKind::RoutesInstalled { nodes: installed, changed },
        );
        changed
    }

    /// Current per-link up/down state, indexed by link id (the snapshot
    /// [`ftgm_net::reroute::plan`] consumes).
    pub fn link_state(&self) -> Vec<bool> {
        (0..self.fabric.topology().links().len())
            .map(|l| self.fabric.link_is_up(l))
            .collect()
    }

    /// Re-runs the GM mapper over the current topology, skipping links that
    /// are administratively down, and installs the fresh route tables on
    /// every interface (updating the hosts' recovery copies too). This is
    /// the mapper's reconfiguration pass after a link disappears or comes
    /// back. Returns the number of interfaces whose table changed.
    pub fn remap(&mut self) -> u32 {
        let up = self.link_state();
        let down = up.iter().filter(|u| !**u).count() as u32;
        let now = self.now();
        self.trace
            .emit(now, TraceKind::RerouteStarted { down_links: down });
        let topo = self.fabric.topology().clone();
        let plan = reroute::plan(&topo, &up);
        self.install_routes(plan.into_tables())
    }
}

/// The GM API surface handed to applications.
///
/// Method names mirror the GM user library: sends consume a send token and
/// complete through a callback event; `gm_provide_receive_buffer` hands a
/// pinned buffer (and a receive token) to the LANai.
pub struct Ctx<'a> {
    world: &'a mut World,
    /// The node this application runs on.
    pub node: NodeId,
    /// The port it opened.
    pub port: u8,
    app_id: AppId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Send tokens currently available.
    pub fn send_tokens(&self) -> u32 {
        self.port_ref().send_tokens
    }

    /// Receive tokens currently available.
    pub fn recv_tokens(&self) -> u32 {
        self.port_ref().recv_tokens
    }

    fn port_ref(&self) -> &HostPort {
        self.world.nodes[self.node.0 as usize].ports[self.port as usize]
            .as_ref()
            .expect("own port open")
    }

    /// `gm_send_with_callback`: sends `data` to `(dst, dst_port)`.
    /// Completion arrives later as [`GmEvent::SentOk`] (or `SendError`).
    /// Returns the send token id.
    ///
    /// # Panics
    ///
    /// Panics if no send token is available (GM applications must respect
    /// their token budget) or if `data` is empty.
    pub fn gm_send(&mut self, data: &[u8], dst: NodeId, dst_port: u8) -> u64 {
        self.gm_send_prio(data, dst, dst_port, false)
    }

    /// [`Ctx::gm_send`] with an explicit priority level.
    pub fn gm_send_prio(&mut self, data: &[u8], dst: NodeId, dst_port: u8, prio_high: bool) -> u64 {
        assert!(!data.is_empty(), "GM does not send zero-length messages");
        assert!(
            data.len() as u32
                <= ftgm_mcp::layout::SLAB_COUNT * self.world.config.mcp.max_chunk,
            "message exceeds the interface's maximum ({} bytes)",
            ftgm_mcp::layout::SLAB_COUNT * self.world.config.mcp.max_chunk
        );
        let n = self.node.0 as usize;
        let port = self.port;
        let is_ftgm = self.world.is_ftgm();
        let api = self.world.config.api;
        let max_chunk = self.world.config.mcp.max_chunk;

        // Token accounting and host-CPU charge.
        {
            let hp = self.world.nodes[n].ports[port as usize]
                .as_mut()
                .expect("own port open");
            assert!(hp.send_tokens > 0, "out of send tokens");
            hp.send_tokens -= 1;
        }
        self.world.nodes[n]
            .host
            .cpu
            .charge(CpuCost::SendCall, api.send);

        // Fill a pinned buffer with the payload.
        let region = self.world.alloc_buf(n, port, data.len() as u32);
        self.world.nodes[n].host.mem.write(region.pa, data);

        let (token_id, first_seq) = {
            let hp = self.world.nodes[n].ports[port as usize]
                .as_mut()
                .expect("own port open");
            let token_id = hp.next_token;
            hp.next_token += 1;
            hp.send_bufs.insert(token_id, region);
            let first_seq = if is_ftgm {
                let chunks = (data.len() as u32).div_ceil(max_chunk);
                Some(hp.backup.reserve_seq(dst, prio_high, chunks))
            } else {
                None
            };
            (token_id, first_seq)
        };

        if self.world.trace.is_enabled() {
            let depth = {
                let hp = self.world.nodes[n].ports[port as usize]
                    .as_ref()
                    .expect("own port open");
                self.world.config.send_tokens - hp.send_tokens
            };
            let now = self.world.now();
            self.world.trace.emit(
                now,
                TraceKind::SendPosted {
                    node: n as u16,
                    port,
                    token: token_id,
                    len: data.len() as u32,
                    depth,
                },
            );
        }

        let desc = SendDesc::new(
            token_id,
            port,
            dst,
            dst_port,
            region.pa,
            data.len() as u32,
            prio_high,
            first_seq,
        );
        let mut cost = api.send;
        if is_ftgm {
            // The paper's send-side housekeeping: copy the token into the
            // backup queue before it passes to the LANai.
            let hp = self.world.nodes[n].ports[port as usize]
                .as_mut()
                .expect("own port open");
            hp.backup.add_send(desc.clone());
            self.world.nodes[n]
                .host
                .cpu
                .charge(CpuCost::SendTokenBackup, api.send_backup);
            cost += api.send_backup;
        }

        // The PIO write + doorbell reach the NIC after the host-side cost.
        self.world
            .sched
            .schedule_in(cost, Event::PostSend { node: self.node.0, desc });
        token_id
    }

    /// `gm_provide_receive_buffer`: hands the LANai a pinned buffer able to
    /// hold `capacity` bytes of (low-priority) messages.
    ///
    /// # Panics
    ///
    /// Panics if no receive token is available.
    pub fn gm_provide_receive_buffer(&mut self, capacity: u32) -> u64 {
        self.gm_provide_receive_buffer_prio(capacity, false)
    }

    /// [`Ctx::gm_provide_receive_buffer`] with an explicit priority.
    pub fn gm_provide_receive_buffer_prio(&mut self, capacity: u32, prio_high: bool) -> u64 {
        let n = self.node.0 as usize;
        let port = self.port;
        let is_ftgm = self.world.is_ftgm();
        let api = self.world.config.api;
        {
            let hp = self.world.nodes[n].ports[port as usize]
                .as_mut()
                .expect("own port open");
            assert!(hp.recv_tokens > 0, "out of receive tokens");
            hp.recv_tokens -= 1;
        }
        self.world.nodes[n]
            .host
            .cpu
            .charge(CpuCost::ProvideBuffer, api.provide);
        let region = self.world.alloc_buf(n, port, capacity);
        let (token_id, mut cost) = {
            let hp = self.world.nodes[n].ports[port as usize]
                .as_mut()
                .expect("own port open");
            let token_id = hp.next_token;
            hp.next_token += 1;
            hp.recv_bufs.insert(token_id, region);
            (token_id, api.provide)
        };
        if self.world.trace.is_enabled() {
            let depth = {
                let hp = self.world.nodes[n].ports[port as usize]
                    .as_ref()
                    .expect("own port open");
                self.world.config.recv_tokens - hp.recv_tokens
            };
            let now = self.world.now();
            self.world.trace.emit(
                now,
                TraceKind::RecvProvided { node: n as u16, port, token: token_id, depth },
            );
        }
        let desc = RecvTokenDesc {
            token_id,
            host_addr: region.pa,
            capacity,
            prio_high,
        };
        if is_ftgm {
            let hp = self.world.nodes[n].ports[port as usize]
                .as_mut()
                .expect("own port open");
            hp.backup.add_recv(desc);
            self.world.nodes[n]
                .host
                .cpu
                .charge(CpuCost::RecvTokenBackup, api.provide_backup);
            cost += api.provide_backup;
        }
        self.world
            .sched
            .schedule_in(cost, Event::PostRecvToken { node: self.node.0, port, desc });
        token_id
    }

    /// Sets a one-shot alarm delivered as [`GmEvent::Alarm`].
    pub fn set_alarm(&mut self, delay: SimDuration, tag: u64) {
        let ev = GmEvent::Alarm { tag };
        self.world
            .sched
            .schedule_in(delay, Event::AppDelivery { app: self.app_id, ev });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends one message and records what comes back.
    struct OneShotSender {
        dst: NodeId,
        payload: Vec<u8>,
        events: Rc<RefCell<Vec<GmEvent>>>,
    }

    impl App for OneShotSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let payload = self.payload.clone();
            ctx.gm_send(&payload, self.dst, 2);
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: GmEvent) {
            self.events.borrow_mut().push(ev);
        }
    }

    /// Provides buffers and records received messages.
    struct Sink {
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl App for Sink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..4 {
                ctx.gm_provide_receive_buffer(32 * 1024);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
            if let GmEvent::Received { data, .. } = ev {
                self.got.borrow_mut().push(data);
                ctx.gm_provide_receive_buffer(32 * 1024);
            }
        }
    }

    fn worlds() -> Vec<World> {
        vec![
            World::two_node(WorldConfig::gm()),
            World::two_node(WorldConfig::ftgm()),
        ]
    }

    fn wire(w: &mut World, payload: &[u8]) -> (Rc<RefCell<Vec<Vec<u8>>>>, Rc<RefCell<Vec<GmEvent>>>) {
        let got = Rc::new(RefCell::new(Vec::new()));
        let events = Rc::new(RefCell::new(Vec::new()));
        w.spawn_app(NodeId(1), 2, Box::new(Sink { got: got.clone() }));
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(OneShotSender {
                dst: NodeId(1),
                payload: payload.to_vec(),
                events: events.clone(),
            }),
        );
        (got, events)
    }

    #[test]
    fn one_message_end_to_end_both_variants() {
        for mut w in worlds() {
            let payload: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
            let (got, _) = wire(&mut w, &payload);
            w.run_for(SimDuration::from_ms(50));
            let got = got.borrow();
            assert_eq!(got.len(), 1, "exactly one message delivered");
            assert_eq!(got[0], payload);
        }
    }

    #[test]
    fn multi_chunk_message_reassembles() {
        for mut w in worlds() {
            let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 249) as u8).collect();
            let (got, _) = wire(&mut w, &payload);
            w.run_for(SimDuration::from_ms(100));
            let got = got.borrow();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0], payload);
        }
    }

    #[test]
    fn sender_gets_completion_and_token_back() {
        for mut w in worlds() {
            let (_, events) = wire(&mut w, &[7u8; 100]);
            w.run_for(SimDuration::from_ms(50));
            let events = events.borrow();
            assert_eq!(events.len(), 1);
            assert!(matches!(events[0], GmEvent::SentOk { .. }));
            let hp = w.nodes[0].ports[0].as_ref().unwrap();
            assert_eq!(hp.send_tokens, w.config.send_tokens);
            if w.is_ftgm() {
                assert_eq!(hp.backup.sends_outstanding(), 0, "backup drained");
            }
        }
    }

    #[test]
    fn ltimer_keeps_running() {
        let mut w = World::two_node(WorldConfig::gm());
        w.run_for(SimDuration::from_ms(10));
        let runs = w.nodes[0].mcp.stats().ltimer_runs;
        // 10ms / 750us ≈ 13 invocations.
        assert!((10..=15).contains(&runs), "ltimer runs: {runs}");
    }

    #[test]
    fn ftgm_backup_tracks_seq_reservation() {
        let mut w = World::two_node(WorldConfig::ftgm());
        let payload = vec![1u8; 10_000]; // 3 chunks
        wire(&mut w, &payload);
        w.run_for(SimDuration::from_ms(50));
        let hp = w.nodes[0].ports[0].as_ref().unwrap();
        assert_eq!(hp.backup.peek_seq(NodeId(1), false), 3, "3 chunks reserved");
    }

    #[test]
    fn hung_nic_stops_traffic_but_timers_fire() {
        let mut w = World::two_node(WorldConfig::ftgm());
        let got = Rc::new(RefCell::new(Vec::new()));
        w.spawn_app(NodeId(1), 2, Box::new(Sink { got }));
        w.run_for(SimDuration::from_ms(2));
        w.nodes[1].mcp.force_hang();
        w.run_for(SimDuration::from_ms(2));
        // IT1 must have expired and raised the FATAL bit.
        assert_ne!(w.nodes[1].mcp.chip.isr() & isr::IT1, 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct AlarmApp {
        fired: Rc<RefCell<Vec<(u64, SimTime)>>>,
    }
    impl App for AlarmApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_alarm(SimDuration::from_us(500), 1);
            ctx.set_alarm(SimDuration::from_us(100), 2);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
            if let GmEvent::Alarm { tag } = ev {
                self.fired.borrow_mut().push((tag, ctx.now()));
            }
        }
    }

    #[test]
    fn alarms_fire_in_order_at_requested_times() {
        let mut w = World::two_node(WorldConfig::gm());
        let fired = Rc::new(RefCell::new(Vec::new()));
        w.spawn_app(NodeId(0), 0, Box::new(AlarmApp { fired: fired.clone() }));
        w.run_for(SimDuration::from_ms(1));
        let fired = fired.borrow();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].0, 2);
        assert_eq!(fired[1].0, 1);
        assert_eq!(fired[0].1.as_nanos(), 100_000);
        assert_eq!(fired[1].1.as_nanos(), 500_000);
    }

    struct Greedy;
    impl App for Greedy {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let budget = ctx.send_tokens();
            for _ in 0..budget {
                ctx.gm_send(&[1u8; 8], NodeId(1), 2);
            }
            assert_eq!(ctx.send_tokens(), 0, "all tokens consumed");
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _ev: GmEvent) {}
    }

    #[test]
    fn send_token_budget_is_enforced() {
        let mut w = World::two_node(WorldConfig::gm());
        // No receiver: tokens stay with the LANai until retries exhaust.
        w.spawn_app(NodeId(0), 0, Box::new(Greedy));
        w.run_for(SimDuration::from_ms(1));
        let hp = w.nodes[0].ports[0].as_ref().unwrap();
        assert_eq!(hp.send_tokens, 0);
    }

    #[test]
    fn wild_dma_freezes_the_host_and_its_apps() {
        let mut w = World::two_node(WorldConfig::gm());
        let fired = Rc::new(RefCell::new(Vec::new()));
        w.spawn_app(NodeId(0), 0, Box::new(AlarmApp { fired: fired.clone() }));
        // Crash the host before the alarms land.
        w.nodes[0].host.mem.dma_write(64, &[0xFF; 8]);
        assert!(w.nodes[0].frozen());
        w.run_for(SimDuration::from_ms(1));
        assert!(fired.borrow().is_empty(), "frozen hosts run nothing");
    }

    #[test]
    fn wild_host_to_sram_dma_latches_the_crash_and_stages_zeros() {
        use ftgm_host::CrashReason;
        let mut w = World::two_node(WorldConfig::gm());
        let sram_addr = ftgm_mcp::FirmwareImage::slab_addr(0);
        w.nodes[0].mcp.chip.sram.write_bytes(sram_addr, &[0xFF; 16]);
        // Firmware points the DMA engine at the unpinned null page.
        let req = HostDmaReq {
            dir: HostDmaDir::HostToSram,
            host_addr: 64,
            sram_addr,
            len: 16,
        };
        w.nodes[0].mcp.chip.start_host_dma(req);
        let now = w.now();
        w.nodes[0].mcp.poll_timers(now); // any MCP call forwards the chip's effects
        w.sync_node(0);
        assert_eq!(w.nodes[0].dma_in_flight, Some(req));
        w.run_for(SimDuration::from_us(50));
        assert_eq!(w.nodes[0].dma_in_flight, None, "the transfer completed");
        assert_eq!(
            w.nodes[0].host.mem.crash_reason(),
            Some(CrashReason::WildDma { addr: 64, len: 16 })
        );
        assert!(w.nodes[0].frozen());
        assert_eq!(w.nodes[0].mcp.chip.sram.read_bytes(sram_addr, 16), &[0; 16]);
    }

    #[test]
    fn event_fills_exactly_one_scheduler_cache_line() {
        // The scheduler's entry is 16 bytes of (time, seq) plus the
        // event; a 49th byte would push every queued entry onto a second
        // cache line.
        assert!(std::mem::size_of::<Event>() <= 48, "{}", std::mem::size_of::<Event>());
    }

    /// The per-kind event census of ten 64-byte ping-pong round trips on
    /// the two-node testbed, pinned: a scheduler change must deliver the
    /// very same events.
    #[test]
    fn ping_pong_event_census_is_pinned() {
        use crate::apps::{Echoer, PingPongStats, Pinger};
        for (config, census) in [
            (WorldConfig::gm(), [182, 2, 40, 60, 40, 0, 20, 26, 40, 0, 2]),
            (WorldConfig::ftgm(), [182, 4, 40, 60, 40, 0, 20, 26, 40, 0, 2]),
        ] {
            let mut w = World::two_node(config);
            let stats = Rc::new(RefCell::new(PingPongStats::default()));
            w.spawn_app(NodeId(1), 2, Box::new(Echoer::new(64)));
            let pinger = Pinger::new(NodeId(1), 2, 64, 0, 10, stats.clone());
            w.spawn_app(NodeId(0), 0, Box::new(pinger));
            w.run_for(SimDuration::from_ms(1));
            assert!(stats.borrow().done);
            let got = w.stats().events_by_kind;
            assert_eq!(got.iter().sum::<u64>(), w.events_delivered());
            assert_eq!(got, census, "{:?}", EVENT_KINDS.iter().zip(got).collect::<Vec<_>>());
        }
    }

    #[test]
    fn buffers_are_recycled_not_leaked() {
        let mut w = World::two_node(WorldConfig::gm());
        // A loopback sender that reuses one buffer size heavily.
        struct Loop {
            left: u32,
        }
        impl App for Loop {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..4 {
                    ctx.gm_provide_receive_buffer(256);
                }
                ctx.gm_send(&[7u8; 256], NodeId(0), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
                if let GmEvent::Received { .. } = ev {
                    ctx.gm_provide_receive_buffer(256);
                    if self.left > 0 {
                        self.left -= 1;
                        ctx.gm_send(&[7u8; 256], NodeId(0), 0);
                    }
                }
            }
        }
        w.spawn_app(NodeId(0), 0, Box::new(Loop { left: 300 }));
        w.run_for(SimDuration::from_ms(50));
        // 301 sends + ~305 provides reused a small pool: allocation stays
        // far below one-region-per-call.
        let hp = w.nodes[0].ports[0].as_ref().unwrap();
        let pooled = hp.free_bufs.len();
        assert!(pooled < 20, "pool stayed small: {pooled}");
        assert!(
            w.nodes[0].host.mem.crash_reason().is_none(),
            "no runaway allocation"
        );
    }
}

#[cfg(test)]
mod pool_tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use ftgm_sim::SimRng;
    use proptest::prelude::*;

    use super::*;

    /// Six lengths, so requests often meet a longer free buffer.
    fn length(i: u32) -> u32 {
        (i % 6 + 1) * 64
    }

    proptest! {
        /// Best fit over random take/give sequences: a take gets the free
        /// buffer of the smallest length that fits, and no buffer is
        /// handed out twice while held.
        #[test]
        fn take_gives_the_smallest_free_buffer_that_fits(
            ops in proptest::collection::vec((any::<bool>(), 0u32..64), 0..400),
        ) {
            let mut hp = HostPort::new(0, 0, 0);
            let (mut held, mut free) = (Vec::<DmaRegion>::new(), Vec::<DmaRegion>::new());
            let mut next_pa = 4096;
            for (is_take, pick) in ops {
                if is_take || held.is_empty() {
                    let len = length(pick);
                    let fit = free.iter().map(|r| r.len).filter(|&l| l >= len).min();
                    let region = match hp.take(len) {
                        Some(r) => {
                            prop_assert_eq!(Some(r.len), fit, "best fit for {}", len);
                            let at = free.iter().position(|f| *f == r).expect("was free");
                            free.swap_remove(at);
                            r
                        }
                        None => {
                            prop_assert_eq!(fit, None, "a free buffer fits {}", len);
                            next_pa += 8192;
                            DmaRegion { pa: next_pa, len }
                        }
                    };
                    prop_assert!(!held.contains(&region), "{:?} handed out twice", region);
                    held.push(region);
                } else {
                    let region = held.swap_remove(pick as usize % held.len());
                    hp.give(region);
                    free.push(region);
                }
                prop_assert_eq!(hp.free_bufs.len(), free.len());
            }
        }

        /// With one length, the pool is the exact-length LIFO stack it
        /// replaced: every take returns the buffer that stack would.
        #[test]
        fn one_length_matches_the_exact_length_stack(
            ops in proptest::collection::vec((any::<bool>(), 0u32..64), 0..400),
        ) {
            let mut hp = HostPort::new(0, 0, 0);
            let mut stack: Vec<DmaRegion> = Vec::new();
            let mut held: Vec<DmaRegion> = Vec::new();
            for (i, (is_take, pick)) in (0u64..).zip(ops) {
                if is_take || held.is_empty() {
                    let region = hp.take(256);
                    prop_assert_eq!(region, stack.pop());
                    held.push(region.unwrap_or(DmaRegion { pa: 4096 * (i + 1), len: 256 }));
                } else {
                    let region = held.swap_remove(pick as usize % held.len());
                    hp.give(region);
                    stack.push(region);
                }
            }
        }
    }

    /// Each node streams to the other, window 8, message lengths drawn
    /// from `sizes`, into a 16-buffer ring of `buf`-byte receive buffers.
    struct Stream {
        rng: SimRng,
        left: u32,
        received: Rc<Cell<u32>>,
        sizes: &'static [u32],
        buf: u32,
    }

    const SIZES: [u32; 5] = [240 << 10, 248 << 10, 256 << 10, 264 << 10, 272 << 10];
    const WINDOW: u32 = 8;
    const RING: u32 = 16;

    impl Stream {
        fn send(&mut self, ctx: &mut Ctx<'_>) {
            if self.left > 0 {
                self.left -= 1;
                let len = self.sizes[self.rng.gen_range(self.sizes.len() as u64) as usize];
                let peer = NodeId(1 - ctx.node.0);
                ctx.gm_send(&vec![0x5a; len as usize], peer, 0);
            }
        }
    }

    impl App for Stream {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..RING {
                ctx.gm_provide_receive_buffer(self.buf);
            }
            for _ in 0..WINDOW {
                self.send(ctx);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
            match ev {
                GmEvent::Received { .. } => {
                    self.received.set(self.received.get() + 1);
                    ctx.gm_provide_receive_buffer(self.buf);
                }
                GmEvent::SentOk { .. } => self.send(ctx),
                other => panic!("{other:?}"),
            }
        }
    }

    /// A two-node world where each node sends the other 60 messages.
    fn stream(config: WorldConfig, sizes: &'static [u32], buf: u32) -> World {
        let mut w = World::two_node(config);
        let received = Rc::new(Cell::new(0));
        for n in 0..2u16 {
            let rng = SimRng::new(7 + n as u64);
            let app = Stream { rng, left: 60, received: received.clone(), sizes, buf };
            w.spawn_app(NodeId(n), 0, Box::new(app));
        }
        w.run_for(SimDuration::from_ms(200));
        assert_eq!(received.get(), 120);
        w
    }

    /// Pinned bytes per host, the same on GM and FTGM. The exact-length
    /// pool this one replaced pinned 9 986 112 and 9 216 064 B here (37
    /// and 34 buffers).
    const PINNED: [u64; 2] = [7_929_920, 7_700_544];

    #[test]
    fn a_mixed_size_stream_pins_a_fixed_budget() {
        for config in [WorldConfig::gm(), WorldConfig::ftgm()] {
            let w = stream(config, &SIZES, SIZES[4]);
            for (node, pinned) in w.nodes.iter().zip(PINNED) {
                let hp = node.ports[0].as_ref().expect("port open");
                assert_eq!((hp.send_bufs.len(), hp.recv_bufs.len()), (0, RING as usize), "drained");
                let buffers = hp.free_bufs.values().chain(hp.recv_bufs.values());
                let bytes: u64 = buffers.clone().map(|r| r.len as u64).sum();
                // The 64-byte completion-record scratch is the only other region.
                assert_eq!(node.host.mem.allocated_bytes(), bytes + 64);
                assert_eq!(node.host.mem.allocated_bytes(), pinned);
                assert!(node.host.mem.stored_bytes() <= pinned);
                let count = buffers.count();
                assert!(count <= (WINDOW + RING) as usize + SIZES.len(), "{count} buffers");
            }
        }
    }

    /// Host memory stores what was written, not what was pinned: 4 KiB
    /// receive buffers that take 64 B messages hold 64 B each.
    #[test]
    fn small_messages_store_only_their_bytes() {
        // Pinned: 16 receive buffers of 4 KiB, 8 send buffers of 64 B and
        // the 64-byte completion-record scratch.
        const PINNED: u64 = 16 * 4096 + 8 * 64 + 64;
        // Stored: 64 B in each buffer, and the 8-byte completion record.
        const STORED: u64 = 16 * 64 + 8 * 64 + 8;
        for config in [WorldConfig::gm(), WorldConfig::ftgm()] {
            let w = stream(config, &[64], 4096);
            for node in &w.nodes {
                let mem = &node.host.mem;
                assert_eq!((mem.stored_bytes(), mem.allocated_bytes()), (STORED, PINNED));
            }
        }
    }
}
