#![warn(missing_docs)]

//! The **GM** message-passing system model: host library + simulation world.
//!
//! GM is Myricom's user-space communication system for Myrinet: ports
//! (eight per interface), implicit send/receive tokens for flow control,
//! zero-copy DMA between pinned user buffers and the NIC, an event queue
//! per port, and reliable in-order delivery implemented in the MCP. This
//! crate models the host side and provides the [`world::World`] that wires
//! hosts, NICs and fabric into one deterministic simulation.
//!
//! * [`world`] — the event loop, the [`world::App`]/[`world::Ctx`] GM API
//!   (`gm_send`, `gm_provide_receive_buffer`, alarms), per-port token
//!   accounting, and event delivery.
//! * [`backup`] — FTGM's host-side backup state (token copies, host
//!   sequence streams, the ACK table), maintained by the library when the
//!   world runs the FTGM variant.
//! * [`ftd`] — the Fault Tolerance Daemon the driver wakes on FATAL; its
//!   fixed sequence runs as typed steps of the world's event loop.
//! * [`recovery`] — the per-process `FAULT_DETECTED` handler.
//! * [`apps`] — reusable workloads: the `gm_allsize`-style bidirectional
//!   streamer (Figure 7), the ping-pong latency probe (Figure 8), and a
//!   pattern-validating traffic pair used by the fault campaigns.

pub mod apps;
pub mod backup;
pub mod ftd;
pub mod recovery;
pub mod world;

pub use backup::PortBackup;
pub use world::{
    App, AppId, Ctx, GmEvent, HostApiCosts, NodeSim, World, WorldConfig,
    WorldStats, EVENT_KINDS,
};
