//! Typed simulation tracing.
//!
//! Recovery experiments (Figure 9, Table 3) and the chaos campaigns need a
//! queryable timeline of what the simulated cluster did: token lifecycle,
//! DMA traffic, watchdog activity, and every step of the FTD recovery
//! pipeline. [`Trace`] records [`TraceEvent`]s — a sim-time stamp plus a
//! structured [`TraceKind`] carrying node/port/seq/attempt fields — and
//! feeds every emission into an embedded [`Metrics`] registry, so counters
//! and histograms are consistent with the event stream by construction.
//!
//! Three recording modes keep the layer allocation-light:
//!
//! * **Disabled** — `emit` is a branch and a return; nothing is stored and
//!   no metric moves (the Table 2 overhead contract).
//! * **Milestones** (what [`Trace::enabled`] gives you) — recovery-class
//!   events are stored; high-frequency kinds (per-message token traffic,
//!   DMA, watchdog re-arms) update metrics only.
//! * **Full** — every event is stored.
//!
//! Exporters for JSON-lines and Chrome `trace_event` live in
//! [`crate::export`].

// The recovery path must not fail: a panic here turns a recoverable
// hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// The timed phases of the FTD's reset-and-restore sequence.
///
/// The one phase vocabulary of the workspace: `ftgm_gm::ftd` executes
/// these, `World::run_until_ftd_phase` reports them, the scenario DSL
/// parses them and the exporters print them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPhase {
    /// Disable interrupts, unmap I/O, reset the card.
    Reset,
    /// Clear all of SRAM.
    ClearSram,
    /// PIO-write the MCP image over the EBUS.
    ReloadMcp,
    /// Restart the DMA engine, re-enable interrupts.
    RestartEngines,
    /// Re-register the host page hash table.
    RestorePageTable,
    /// Restore mapping/route tables into SRAM.
    RestoreRoutes,
}

impl RecoveryPhase {
    /// All phases in FTD execution order.
    pub const ORDER: [RecoveryPhase; 6] = [
        RecoveryPhase::Reset,
        RecoveryPhase::ClearSram,
        RecoveryPhase::ReloadMcp,
        RecoveryPhase::RestartEngines,
        RecoveryPhase::RestorePageTable,
        RecoveryPhase::RestoreRoutes,
    ];

    /// Position within [`RecoveryPhase::ORDER`].
    pub fn index(self) -> usize {
        match self {
            RecoveryPhase::Reset => 0,
            RecoveryPhase::ClearSram => 1,
            RecoveryPhase::ReloadMcp => 2,
            RecoveryPhase::RestartEngines => 3,
            RecoveryPhase::RestorePageTable => 4,
            RecoveryPhase::RestoreRoutes => 5,
        }
    }

    /// Human-readable label (also the Chrome-trace span name).
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPhase::Reset => "card reset",
            RecoveryPhase::ClearSram => "clear SRAM",
            RecoveryPhase::ReloadMcp => "reload MCP",
            RecoveryPhase::RestartEngines => "restart DMA engines + IRQs",
            RecoveryPhase::RestorePageTable => "restore page hash table",
            RecoveryPhase::RestoreRoutes => "restore mapping/route tables",
        }
    }

    /// Stable snake-case name for JSON exports and the scenario DSL.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Reset => "reset",
            RecoveryPhase::ClearSram => "clear_sram",
            RecoveryPhase::ReloadMcp => "reload_mcp",
            RecoveryPhase::RestartEngines => "restart_engines",
            RecoveryPhase::RestorePageTable => "restore_page_table",
            RecoveryPhase::RestoreRoutes => "restore_routes",
        }
    }

    /// Parses a snake_case phase name back to the phase (the inverse of
    /// [`RecoveryPhase::name`]; the scenario DSL's `on node N phase <name>`).
    pub fn from_name(name: &str) -> Option<RecoveryPhase> {
        RecoveryPhase::ORDER.into_iter().find(|p| p.name() == name)
    }
}

/// Why the fabric dropped an injected packet, as the trace layer names it.
///
/// `ftgm-net` owns the drop logic (`DropReason`, whose `DeadPort` carries
/// the port number) and sits above this crate; this payload-free mirror
/// gives the metrics registry a dense index for its per-reason counters
/// and the exporters a stable name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropKind {
    /// The source node has no cabled NIC link.
    SourceNotCabled,
    /// The route addressed a switch port that does not exist.
    DeadPort,
    /// The route ran out of bytes before reaching a NIC.
    RouteExhausted,
    /// The route had bytes left when it reached a NIC.
    RouteNotConsumed,
    /// The packet exceeded the hop budget (routing loop guard).
    TooManyHops,
    /// A traversed link was administratively down.
    LinkDown,
    /// The cabling graph had no endpoint on the far side of a link.
    BadLink,
    /// A fault-injection window forced the drop.
    FaultDrop,
}

impl DropKind {
    /// Number of drop kinds (sizes the per-reason metrics array).
    pub const COUNT: usize = 8;

    /// All kinds, in [`DropKind::index`] order.
    pub const ALL: [DropKind; DropKind::COUNT] = [
        DropKind::SourceNotCabled,
        DropKind::DeadPort,
        DropKind::RouteExhausted,
        DropKind::RouteNotConsumed,
        DropKind::TooManyHops,
        DropKind::LinkDown,
        DropKind::BadLink,
        DropKind::FaultDrop,
    ];

    /// Position within [`DropKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            DropKind::SourceNotCabled => 0,
            DropKind::DeadPort => 1,
            DropKind::RouteExhausted => 2,
            DropKind::RouteNotConsumed => 3,
            DropKind::TooManyHops => 4,
            DropKind::LinkDown => 5,
            DropKind::BadLink => 6,
            DropKind::FaultDrop => 7,
        }
    }

    /// Stable snake-case name for JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            DropKind::SourceNotCabled => "source_not_cabled",
            DropKind::DeadPort => "dead_port",
            DropKind::RouteExhausted => "route_exhausted",
            DropKind::RouteNotConsumed => "route_not_consumed",
            DropKind::TooManyHops => "too_many_hops",
            DropKind::LinkDown => "link_down",
            DropKind::BadLink => "bad_link",
            DropKind::FaultDrop => "fault_drop",
        }
    }
}

/// What made the zone coordinator escalate to a fabric-wide reroute.
///
/// `ftgm_core::coordinator` decides with this type directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneTrigger {
    /// The set of down links changed since the last reroute.
    LinkChange,
    /// A peer's recovery ran longer than the stall bound.
    Stall,
    /// Concurrent recoveries crossed the cascade threshold.
    Cascade,
}

impl ZoneTrigger {
    /// Stable snake-case name for JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            ZoneTrigger::LinkChange => "link_change",
            ZoneTrigger::Stall => "stall",
            ZoneTrigger::Cascade => "cascade",
        }
    }
}

/// Direction of a host DMA, as the trace layer names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaDir {
    /// Host memory → NIC SRAM (send staging).
    HostToSram,
    /// NIC SRAM → host memory (delivery, completion records).
    SramToHost,
}

impl DmaDir {
    /// Stable name for JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            DmaDir::HostToSram => "host_to_sram",
            DmaDir::SramToHost => "sram_to_host",
        }
    }
}

/// How one typed payload field of a [`TraceKind`] prints in the JSON
/// exports: integers and `bool` bare, a [`SimDuration`] as `<field>_ns`,
/// the vocabulary enums quoted by their `name()`.
trait Field: Copy {
    /// Appends `,"<name>":<value>`.
    fn write_json(self, name: &str, out: &mut String);
}

macro_rules! bare_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write_json(self, name: &str, out: &mut String) {
                // Writing to a String never fails.
                let _ = write!(out, ",\"{name}\":{self}");
            }
        }
    )*};
}
bare_fields!(u8, u16, u32, u64, usize, bool);

macro_rules! named_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write_json(self, name: &str, out: &mut String) {
                let _ = write!(out, ",\"{name}\":\"{}\"", self.name());
            }
        }
    )*};
}
named_fields!(DmaDir, DropKind, RecoveryPhase, ZoneTrigger);

impl Field for SimDuration {
    fn write_json(self, name: &str, out: &mut String) {
        let _ = write!(out, ",\"{name}_ns\":{}", self.as_nanos());
    }
}

/// The one spelling of every trace event. A row reads
///
/// ```text
/// /// doc
/// Name("category", milestone | high_frequency, node | observer | -) {
///     /// doc
///     field: type, …
/// } => message-expression;
/// ```
///
/// and [`TraceKind`], [`KIND_COUNT`], [`KIND_NAMES`] and every per-kind
/// accessor are generated from it. The third slot names the field that is
/// the event's node (`-` if it concerns none); the message expression
/// sees the fields by name; the JSON payload is the fields in order, each
/// through [`Field`]. Rows stand in [`TraceKind::kind_index`] order, which
/// is the order of the `"counters"` object in every metrics export: a new
/// kind goes last.
macro_rules! trace_kinds {
    (@high_frequency milestone) => { false };
    (@high_frequency high_frequency) => { true };
    (@node -) => { None };
    (@node $field:ident) => { Some($field) };
    ($(
        $(#[$doc:meta])*
        $name:ident($category:literal, $frequency:ident, $node:tt) $({$(
            $(#[$field_doc:meta])*
            $field:ident: $ty:ty,
        )*})? => $message:expr;
    )*) => {
        /// What happened. Every variant carries the identifying fields the paper's
        /// measurements and the chaos oracles need; the sim-time stamp lives on
        /// the enclosing [`TraceEvent`].
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum TraceKind {$(
            $(#[$doc])*
            $name $({$(
                $(#[$field_doc])*
                $field: $ty,
            )*})?,
        )*}

        /// The table's rows by position: [`TraceKind`] carries payloads, so
        /// it has no `as usize` of its own.
        enum Row {$(
            $name,
        )*}

        /// Number of [`TraceKind`] variants (sizes the metrics counter array).
        pub const KIND_COUNT: usize = [$(Row::$name),*].len();

        /// Stable kind names, indexed by [`TraceKind::kind_index`].
        pub const KIND_NAMES: [&str; KIND_COUNT] = [$(stringify!($name)),*];

        impl TraceKind {
            /// Dense index into [`KIND_NAMES`] / the metrics counter array.
            pub fn kind_index(&self) -> usize {
                match self {$(
                    TraceKind::$name { .. } => Row::$name as usize,
                )*}
            }

            /// Stable kind name for JSON exports.
            pub fn name(&self) -> &'static str {
                match self {$(
                    TraceKind::$name { .. } => stringify!($name),
                )*}
            }

            /// Short category tag (`"wdog"`, `"ftd"`, `"fault"`, `"recov"`,
            /// `"gm"`, `"dma"`, `"mcp"`, `"net"`, `"coord"`, `"mpi"`), mirroring
            /// the render column.
            pub fn category(&self) -> &'static str {
                match self {$(
                    TraceKind::$name { .. } => $category,
                )*}
            }

            /// The node the event concerns, if any (Chrome-trace `pid`).
            #[allow(unused_variables)] // every field is bound, one is read
            pub fn node(&self) -> Option<u16> {
                match *self {$(
                    TraceKind::$name $({ $($field),* })? => trace_kinds!(@node $node),
                )*}
            }

            /// High-frequency kinds update metrics but are only *stored* in
            /// [`TraceMode::Full`] — per-message traffic would otherwise dominate
            /// both memory and the rendered timeline.
            pub fn is_high_frequency(&self) -> bool {
                match self {$(
                    TraceKind::$name { .. } => trace_kinds!(@high_frequency $frequency),
                )*}
            }

            /// Human-readable description (the render line's message column).
            #[allow(unused_variables)] // a message need not mention every field
            pub fn message(&self) -> String {
                match *self {$(
                    TraceKind::$name $({ $($field),* })? => $message,
                )*}
            }

            /// Appends this kind's payload as JSON key/value pairs (leading comma
            /// included per pair) — shared by the JSON-lines and Chrome exporters.
            pub fn write_json_fields(&self, out: &mut String) {
                match *self {$(
                    TraceKind::$name $({ $($field),* })? => {
                        $($($field.write_json(stringify!($field), out);)*)?
                    }
                )*}
            }
        }
    };
}

trace_kinds! {
    // --- send/recv token lifecycle (high-frequency) ---------------------
    /// `gm_send` consumed a send token and posted a descriptor.
    SendPosted("gm", high_frequency, node) {
        /// Sending node.
        node: u16,
        /// Sending port.
        port: u8,
        /// The send token id.
        token: u64,
        /// Message length in bytes.
        len: u32,
        /// Send tokens in flight after this post (queue depth).
        depth: u32,
    } => format!(
        "node{node} port {port}: send posted (token {token}, {len}B, depth {depth})"
    );
    /// A send completed; its token returned to the process.
    SendCompleted("gm", high_frequency, node) {
        /// Sending node.
        node: u16,
        /// Sending port.
        port: u8,
        /// The send token id.
        token: u64,
    } => format!("node{node} port {port}: send completed (token {token})");
    /// A send failed permanently (GM `SendError` semantics).
    SendFailed("gm", milestone, node) {
        /// Sending node.
        node: u16,
        /// Sending port.
        port: u8,
        /// The send token id.
        token: u64,
    } => format!("node{node} port {port}: send FAILED (token {token})");
    /// `gm_provide_receive_buffer` handed a buffer to the LANai.
    RecvProvided("gm", high_frequency, node) {
        /// Receiving node.
        node: u16,
        /// Receiving port.
        port: u8,
        /// The receive token id.
        token: u64,
        /// Receive tokens in flight after this provide (queue depth).
        depth: u32,
    } => format!(
        "node{node} port {port}: receive buffer provided (token {token}, depth {depth})"
    );
    /// A message landed in a provided buffer and reached `gm_receive`.
    MessageReceived("gm", high_frequency, node) {
        /// Receiving node.
        node: u16,
        /// Receiving port.
        port: u8,
        /// Sending node.
        src_node: u16,
        /// Sending port.
        src_port: u8,
        /// Message length in bytes.
        len: u32,
    } => format!(
        "node{node} port {port}: received {len}B from node{src_node} port {src_port}"
    );

    // --- DMA and firmware protocol (high-frequency) ---------------------
    /// The MCP queued a host DMA (send staging or delivery).
    DmaStaged("dma", high_frequency, node) {
        /// Node whose PCI bus carries the transfer.
        node: u16,
        /// Transfer length in bytes.
        len: u32,
    } => format!("node{node}: host DMA staged ({len}B)");
    /// A host DMA completed and its bytes moved.
    DmaDone("dma", high_frequency, node) {
        /// Node whose PCI bus carried the transfer.
        node: u16,
        /// Transfer direction.
        dir: DmaDir,
        /// Transfer length in bytes.
        len: u32,
    } => format!("node{node}: host DMA done ({}, {len}B)", dir.name());
    /// The delayed-ACK commit point advanced (messages became final).
    CommitAdvanced("mcp", high_frequency, node) {
        /// Receiving node.
        node: u16,
        /// Messages committed since the last advance.
        messages: u64,
    } => format!("node{node}: delayed-ACK commit advanced (+{messages} messages)");
    /// Go-Back-N retransmitted chunks.
    Resent("mcp", high_frequency, node) {
        /// Sending node.
        node: u16,
        /// Chunks resent since the last report.
        chunks: u64,
    } => format!("node{node}: retransmitted {chunks} chunks");

    // --- watchdog -------------------------------------------------------
    /// IT1 was (re)armed by recovery code (boot/false-alarm paths).
    WatchdogArmed("wdog", milestone, node) {
        /// Node whose IT1 was armed.
        node: u16,
        /// Interval in half-microsecond ticks.
        ticks: u32,
    } => format!("node{node}: IT1 watchdog armed ({ticks} ticks)");
    /// `L_timer()` ran and pushed IT1 forward (high-frequency).
    WatchdogRearmed("wdog", high_frequency, node) {
        /// Node whose IT1 was re-armed.
        node: u16,
        /// Gap since the previous re-arm.
        gap: SimDuration,
    } => format!("node{node}: IT1 re-armed by L_timer (gap {gap})");
    /// IT1 expired: the FATAL interrupt reached the driver.
    WatchdogFired("wdog", milestone, node) {
        /// Node whose watchdog expired.
        node: u16,
    } => format!("node{node}: IT1 expired — FATAL interrupt at driver");

    // --- fault activations ----------------------------------------------
    /// A campaign flipped one SRAM bit.
    FaultInjected("fault", milestone, node) {
        /// Faulted node.
        node: u16,
        /// Bit offset within the target region.
        bit: u64,
    } => format!("node{node}: fault injected (bit {bit})");
    /// An experiment force-hung the network processor.
    ForcedHang("fault", milestone, node) {
        /// Faulted node.
        node: u16,
    } => format!("node{node}: forced hang");
    /// A fabric link went administratively down.
    LinkDown("fault", milestone, -) {
        /// Link index in the topology.
        link: usize,
    } => format!("link {link} down");
    /// A fabric link came back up.
    LinkUp("fault", milestone, -) {
        /// Link index in the topology.
        link: usize,
    } => format!("link {link} back up");
    /// A fabric-wide loss/corruption window opened.
    NoiseOpened("fault", milestone, -) => "fabric noise window opens".to_string();
    /// The loss/corruption window closed.
    NoiseClosed("fault", milestone, -) => "fabric noise window closes".to_string();

    // --- FTD recovery pipeline ------------------------------------------
    /// A FATAL arrived on an escalated (dead) interface and was ignored.
    FtdFatalIgnoredDead("ftd", milestone, node) {
        /// The dead interface's node.
        node: u16,
    } => format!("node{node}: FATAL on dead interface ignored");
    /// A FATAL arrived mid-recovery; a re-verification was queued.
    FtdReverifyQueued("ftd", milestone, node) {
        /// Recovering node.
        node: u16,
    } => format!("node{node}: FATAL during recovery — re-verification queued");
    /// The driver woke the FTD (detection complete).
    FtdWoken("ftd", milestone, node) {
        /// Node whose FTD was woken.
        node: u16,
    } => format!("node{node}: driver wakes FTD");
    /// The FTD is running (post context-switch).
    FtdRunning("ftd", milestone, node) {
        /// Node whose FTD runs.
        node: u16,
    } => format!("node{node}: FTD running");
    /// The magic-word probe was written (or the write failed).
    ProbeWritten("ftd", milestone, node) {
        /// Probed node.
        node: u16,
        /// Whether the SRAM write succeeded.
        ok: bool,
    } => if ok {
        format!("node{node}: magic-word probe written")
    } else {
        format!("node{node}: magic-word probe write FAILED (treating as hung)")
    };
    /// The probe was cleared by a live MCP: false alarm.
    ProbeFalseAlarm("ftd", milestone, node) {
        /// Probed node.
        node: u16,
    } => format!("node{node}: probe cleared — false alarm");
    /// The magic word survived: hang confirmed.
    ProbeConfirmedHang("ftd", milestone, node) {
        /// Hung node.
        node: u16,
    } => format!("node{node}: magic word intact — hang confirmed");
    /// A queued FATAL re-entered the probe loop before sleeping.
    ProbeRequeued("ftd", milestone, node) {
        /// Probed node.
        node: u16,
    } => format!("node{node}: queued FATAL — probing again");
    /// A reset/reload attempt started.
    RecoveryAttempt("ftd", milestone, node) {
        /// Recovering node.
        node: u16,
        /// 1-based attempt number within the episode.
        attempt: u32,
        /// The policy's attempt budget.
        max_attempts: u32,
    } => format!("node{node}: reset/reload attempt {attempt}/{max_attempts}");
    /// One timed recovery phase completed. The span covers
    /// `[at - dur, at]`.
    RecoveryPhaseDone("ftd", milestone, node) {
        /// Recovering node.
        node: u16,
        /// Which phase.
        phase: RecoveryPhase,
        /// The phase's charged duration.
        dur: SimDuration,
    } => format!("node{node}: {} done", phase.label());
    /// Post-reload verification probe started.
    ReloadVerifying("ftd", milestone, node) {
        /// Recovering node.
        node: u16,
    } => format!("node{node}: verifying reloaded MCP");
    /// The reloaded MCP cleared the probe: verified alive.
    ReloadVerified("ftd", milestone, node) {
        /// Recovered node.
        node: u16,
    } => format!("node{node}: reloaded MCP verified alive");
    /// Verification failed; the next attempt was scheduled after backoff.
    RetryScheduled("ftd", milestone, node) {
        /// Recovering node.
        node: u16,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Backoff before the next attempt.
        backoff: SimDuration,
    } => format!(
        "node{node}: reload verification FAILED (attempt {attempt}) — retry in {backoff}"
    );
    /// `FAULT_DETECTED` was posted into a port's receive queue.
    FaultDetectedPosted("ftd", milestone, node) {
        /// Recovered node.
        node: u16,
        /// The open port.
        port: u8,
    } => format!("node{node}: FAULT_DETECTED posted port {port}");
    /// The attempt budget ran out: interface escalated to dead.
    Escalated("ftd", milestone, node) {
        /// The dead interface's node.
        node: u16,
        /// Reload attempts spent before giving up.
        attempts: u32,
    } => format!("node{node}: escalating — interface DEAD after {attempts} failed reloads");
    /// Escalation failed outstanding sends back to applications.
    OutstandingSendsFailed("ftd", milestone, node) {
        /// The dead interface's node.
        node: u16,
        /// Sends failed back.
        count: u64,
    } => format!("node{node}: {count} outstanding sends failed back to applications");
    /// The FTD went back to sleep.
    FtdSleeping("ftd", milestone, node) {
        /// Node whose FTD sleeps.
        node: u16,
    } => format!("node{node}: FTD sleeping again");

    // --- per-process recovery -------------------------------------------
    /// `FAULT_DETECTED` entered `gm_unknown()` on a port.
    GmUnknownEntered("recov", milestone, node) {
        /// Recovering node.
        node: u16,
        /// The port.
        port: u8,
    } => format!("node{node} port {port}: FAULT_DETECTED entered gm_unknown()");
    /// A stale per-port handler stepped aside for a newer recovery.
    StaleHandlerSuperseded("recov", milestone, node) {
        /// Recovering node.
        node: u16,
        /// The port.
        port: u8,
    } => format!("node{node} port {port}: stale handler superseded by newer recovery");
    /// A port finished its handler and reopened.
    PortReopened("recov", milestone, node) {
        /// Recovered node.
        node: u16,
        /// The reopened port.
        port: u8,
        /// Backed-up sends replayed.
        sends_replayed: u32,
        /// Backed-up receive buffers re-provided.
        recvs_replayed: u32,
        /// Per-destination sequence streams restored.
        streams_restored: u32,
    } => format!(
        "node{node} port {port}: port reopened ({sends_replayed} sends, \
         {recvs_replayed} recvs, {streams_restored} streams restored)"
    );

    // --- fault activations, continued (a new kind takes the next index) -
    /// Every cabled link of one switch went down at once.
    SwitchKilled("fault", milestone, -) {
        /// The dead switch's index in the topology.
        switch: u16,
        /// Links taken down (those that were still up).
        links: u32,
    } => format!("switch {switch} dead — {links} links down");

    // --- fabric drops (high-frequency) ----------------------------------
    /// The fabric dropped an injected packet.
    FabricDrop("net", high_frequency, node) {
        /// The injecting (sending) node.
        node: u16,
        /// Why the packet was dropped.
        reason: DropKind,
    } => format!("node{node}: fabric dropped packet ({})", reason.name());

    // --- mapper-driven reroute ------------------------------------------
    /// A BFS re-discovery over the residual fabric started.
    RerouteStarted("net", milestone, -) {
        /// Links currently down (avoided by the mapper).
        down_links: u32,
    } => format!("reroute: BFS re-discovery avoiding {down_links} down links");
    /// Fresh source-route tables were installed into the live fabric.
    RoutesInstalled("net", milestone, -) {
        /// Nodes whose tables were (re)written.
        nodes: u32,
        /// Nodes whose tables actually changed.
        changed: u32,
    } => format!("reroute: route tables installed on {nodes} nodes ({changed} changed)");

    // --- zone coordinator (DIR-net-style backup agent) ------------------
    /// A backup agent saw a peer's recovery exceed the stall bound.
    PeerStallDetected("coord", milestone, observer) {
        /// The observing (healthy) node.
        observer: u16,
        /// The stalled peer.
        peer: u16,
    } => format!("node{observer}: peer node{peer} recovery exceeds stall bound");
    /// The coordinator escalated to a fabric-wide zone reroute.
    ZoneRerouteTriggered("coord", milestone, observer) {
        /// The observing (healthy) node.
        observer: u16,
        /// What tripped the escalation.
        trigger: ZoneTrigger,
    } => format!("node{observer}: zone reroute escalated ({})", trigger.name());
    /// A reroute left a live peer with no routes; it was escalated dead.
    PeerIsolated("coord", milestone, observer) {
        /// The observing (healthy) node.
        observer: u16,
        /// The unreachable peer.
        peer: u16,
    } => format!("node{observer}: peer node{peer} unreachable after reroute — escalating dead");

    // --- middleware (MPI tier) ------------------------------------------
    /// The MPI middleware buffered an unmatched envelope in a rank's
    /// mailbox; `depth` is the buffered count after the store.
    MailboxQueued("mpi", high_frequency, node) {
        /// The rank's host interface.
        node: u16,
        /// The rank's GM port.
        port: u8,
        /// Mailbox depth after the delivery.
        depth: u32,
    } => format!("node{node}.{port}: mpi mailbox buffered an envelope (depth {depth})");
    /// A scheduled FTD step (a queued phase, retry, verification or port
    /// reopen) found its interface escalated and stood down.
    FtdStepDroppedDead("ftd", milestone, node) {
        /// The dead interface's node.
        node: u16,
    } => format!("node{node}: FTD step dropped — interface is dead");
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// What the trace stores (metrics always update unless `Disabled`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing, count nothing.
    #[default]
    Disabled,
    /// Store milestone events; kinds that are
    /// [high-frequency](TraceKind::is_high_frequency) feed metrics only.
    Milestones,
    /// Store every event.
    Full,
}

/// An append-only typed event log with an embedded metrics registry.
///
/// Disabled traces drop events without allocating, so production-path
/// code can emit unconditionally.
///
/// # Example
///
/// ```
/// use ftgm_sim::{SimTime, Trace, TraceKind};
///
/// let mut trace = Trace::enabled();
/// trace.emit(SimTime::from_nanos(800_000), TraceKind::WatchdogFired { node: 0 });
/// assert_eq!(trace.events().len(), 1);
/// assert!(trace.render().contains("IT1 expired"));
/// assert_eq!(trace.metrics().counter("WatchdogFired"), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Trace {
    mode: TraceMode,
    events: Vec<TraceEvent>,
    metrics: Metrics,
}

impl Trace {
    /// Creates a disabled trace (records nothing).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Creates a milestone-level trace (the usual experiment setting).
    pub fn enabled() -> Self {
        Trace {
            mode: TraceMode::Milestones,
            ..Trace::default()
        }
    }

    /// Creates a trace that stores every event, including high-frequency
    /// token/DMA traffic.
    pub fn full() -> Self {
        Trace {
            mode: TraceMode::Full,
            ..Trace::default()
        }
    }

    /// Whether events are being recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.mode != TraceMode::Disabled
    }

    /// The current recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Turns recording on (milestone level) or off without clearing
    /// history. A `Full` trace stays `Full` when re-enabled.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.mode = match (enabled, self.mode) {
            (false, _) => TraceMode::Disabled,
            (true, TraceMode::Full) => TraceMode::Full,
            (true, _) => TraceMode::Milestones,
        };
    }

    /// Records one typed event (and updates metrics) if enabled.
    pub fn emit(&mut self, at: SimTime, kind: TraceKind) {
        match self.mode {
            TraceMode::Disabled => {}
            TraceMode::Milestones => {
                self.metrics.observe(at, &kind);
                if !kind.is_high_frequency() {
                    self.events.push(TraceEvent { at, kind });
                }
            }
            TraceMode::Full => {
                self.metrics.observe(at, &kind);
                self.events.push(TraceEvent { at, kind });
            }
        }
    }

    /// All stored events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The metrics registry fed by every emission (including
    /// high-frequency kinds not stored at milestone level).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Stored events matching a category tag.
    pub fn by_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind.category() == category)
    }

    /// First stored event whose kind matches the predicate.
    pub fn first_where(&self, pred: impl Fn(&TraceKind) -> bool) -> Option<&TraceEvent> {
        self.events.iter().find(|e| pred(&e.kind))
    }

    /// Last stored event whose kind matches the predicate.
    pub fn last_where(&self, pred: impl Fn(&TraceKind) -> bool) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| pred(&e.kind))
    }

    /// Number of stored events whose kind matches the predicate.
    pub fn count_where(&self, pred: impl Fn(&TraceKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Clears the recorded history and resets the metrics.
    pub fn clear(&mut self) {
        self.events.clear();
        self.metrics = Metrics::default();
    }

    /// Renders the milestone timeline as aligned text, one event per
    /// line, with absolute time and delta since the previous milestone.
    /// High-frequency events are omitted even from `Full` traces so the
    /// Figure 9 timeline stays readable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut prev: Option<SimTime> = None;
        for ev in self.events.iter().filter(|e| !e.kind.is_high_frequency()) {
            let delta = prev.map(|p| ev.at.saturating_since(p));
            let delta_str = match delta {
                Some(d) => format!("+{:>12.3}us", d.as_micros_f64()),
                None => format!("{:>13}", ""),
            };
            out.push_str(&format!(
                "{:>14.3}us {} [{:<5}] {}\n",
                ev.at.as_micros_f64(),
                delta_str,
                ev.kind.category(),
                ev.kind.message()
            ));
            prev = Some(ev.at);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.emit(SimTime::ZERO, TraceKind::ForcedHang { node: 0 });
        assert!(tr.events().is_empty());
        assert_eq!(tr.metrics().total_events(), 0);
    }

    #[test]
    fn enabled_trace_records_and_counts() {
        let mut tr = Trace::enabled();
        tr.emit(t(5), TraceKind::ForcedHang { node: 1 });
        tr.emit(t(9), TraceKind::FtdWoken { node: 1 });
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.metrics().counter("ForcedHang"), 1);
        assert_eq!(tr.metrics().counter("FtdWoken"), 1);
        assert!(matches!(tr.events()[1].kind, TraceKind::FtdWoken { node: 1 }));
    }

    #[test]
    fn milestone_mode_counts_but_does_not_store_high_frequency() {
        let mut tr = Trace::enabled();
        tr.emit(
            t(1),
            TraceKind::SendPosted { node: 0, port: 0, token: 7, len: 256, depth: 1 },
        );
        tr.emit(t(2), TraceKind::WatchdogFired { node: 0 });
        assert_eq!(tr.events().len(), 1, "high-frequency kind not stored");
        assert_eq!(tr.metrics().counter("SendPosted"), 1, "but still counted");
    }

    #[test]
    fn full_mode_stores_everything() {
        let mut tr = Trace::full();
        tr.emit(
            t(1),
            TraceKind::SendPosted { node: 0, port: 0, token: 7, len: 256, depth: 1 },
        );
        assert_eq!(tr.events().len(), 1);
    }

    #[test]
    fn by_category_filters() {
        let mut tr = Trace::enabled();
        tr.emit(t(0), TraceKind::WatchdogFired { node: 0 });
        tr.emit(t(0), TraceKind::ForcedHang { node: 0 });
        tr.emit(t(0), TraceKind::WatchdogFired { node: 1 });
        assert_eq!(tr.by_category("wdog").count(), 2);
        assert_eq!(tr.by_category("fault").count(), 1);
    }

    #[test]
    fn typed_queries_locate_events() {
        let mut tr = Trace::enabled();
        tr.emit(t(1), TraceKind::ForcedHang { node: 0 });
        tr.emit(t(2), TraceKind::FtdWoken { node: 0 });
        tr.emit(t(3), TraceKind::ForcedHang { node: 0 });
        let first = tr
            .first_where(|k| matches!(k, TraceKind::ForcedHang { .. }))
            .expect("first");
        let last = tr
            .last_where(|k| matches!(k, TraceKind::ForcedHang { .. }))
            .expect("last");
        assert_eq!(first.at, t(1));
        assert_eq!(last.at, t(3));
        assert_eq!(tr.count_where(|k| matches!(k, TraceKind::ForcedHang { .. })), 2);
        assert!(tr.first_where(|k| matches!(k, TraceKind::Escalated { .. })).is_none());
    }

    #[test]
    fn render_contains_deltas_and_messages() {
        let mut tr = Trace::enabled();
        tr.emit(t(1), TraceKind::WatchdogFired { node: 1 });
        tr.emit(
            SimTime::from_nanos(3_500),
            TraceKind::FtdWoken { node: 1 },
        );
        let rendered = tr.render();
        assert!(rendered.contains("IT1 expired"));
        assert!(rendered.contains("driver wakes FTD"));
        assert!(rendered.contains("+"));
        assert!(rendered.contains("2.500us"), "rendered: {rendered}");
    }

    #[test]
    fn set_enabled_toggles_and_clear_resets_metrics() {
        let mut tr = Trace::disabled();
        tr.set_enabled(true);
        assert!(tr.is_enabled());
        tr.emit(SimTime::ZERO, TraceKind::ForcedHang { node: 0 });
        tr.set_enabled(false);
        tr.emit(SimTime::ZERO, TraceKind::ForcedHang { node: 0 });
        assert_eq!(tr.events().len(), 1);
        assert_eq!(tr.metrics().counter("ForcedHang"), 1);
        tr.clear();
        assert!(tr.events().is_empty());
        assert_eq!(tr.metrics().total_events(), 0);
    }

    #[test]
    fn kind_names_align_with_kind_index() {
        let samples: Vec<(TraceKind, &str)> = vec![
            (TraceKind::SendPosted { node: 0, port: 0, token: 0, len: 0, depth: 0 }, "SendPosted"),
            (TraceKind::Resent { node: 0, chunks: 1 }, "Resent"),
            (TraceKind::WatchdogFired { node: 0 }, "WatchdogFired"),
            (TraceKind::NoiseClosed, "NoiseClosed"),
            (TraceKind::RecoveryPhaseDone { node: 0, phase: RecoveryPhase::Reset, dur: SimDuration::ZERO }, "RecoveryPhaseDone"),
            (
                TraceKind::PortReopened { node: 0, port: 0, sends_replayed: 0, recvs_replayed: 0, streams_restored: 0 },
                "PortReopened",
            ),
            (TraceKind::SwitchKilled { switch: 0, links: 3 }, "SwitchKilled"),
            (TraceKind::FabricDrop { node: 0, reason: DropKind::BadLink }, "FabricDrop"),
            (TraceKind::RerouteStarted { down_links: 1 }, "RerouteStarted"),
            (TraceKind::RoutesInstalled { nodes: 8, changed: 2 }, "RoutesInstalled"),
            (TraceKind::PeerStallDetected { observer: 0, peer: 1 }, "PeerStallDetected"),
            (
                TraceKind::ZoneRerouteTriggered { observer: 0, trigger: ZoneTrigger::Stall },
                "ZoneRerouteTriggered",
            ),
            (TraceKind::PeerIsolated { observer: 0, peer: 1 }, "PeerIsolated"),
        ];
        for (kind, name) in samples {
            assert_eq!(kind.name(), name);
            assert_eq!(KIND_NAMES[kind.kind_index()], name);
        }
    }

    #[test]
    fn recovery_phase_order_is_dense() {
        for (i, p) in RecoveryPhase::ORDER.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn drop_kind_order_is_dense_and_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, k) in DropKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
        }
    }

    #[test]
    fn fabric_drops_are_high_frequency_but_counted() {
        let mut tr = Trace::enabled();
        tr.emit(t(1), TraceKind::FabricDrop { node: 3, reason: DropKind::LinkDown });
        assert!(tr.events().is_empty(), "drops are not stored at milestone level");
        assert_eq!(tr.metrics().counter("FabricDrop"), 1);
    }
}
