#![warn(missing_docs)]

//! The **Myrinet Control Program** (MCP) model.
//!
//! The MCP is the firmware GM loads onto the LANai: it owns the send and
//! receive data paths, fragments messages into ≤4 KB packets, runs a
//! Go-Back-N protocol per connection for reliable in-order delivery, posts
//! events into host receive queues, and services its housekeeping timer
//! (`L_timer()`). This crate models it as an event-driven dispatch machine
//! ([`machine::McpMachine`]) around a real [`ftgm_lanai::LanaiChip`], with
//! the paper's fault-injection target — the **`send_chunk`** routine — as
//! genuine interpreted LN32 code in SRAM ([`firmware`]).
//!
//! Both protocol variants live here behind [`params::Variant`]:
//!
//! * **GM** — baseline: MCP-generated per-connection sequence numbers,
//!   ACK at packet acceptance.
//! * **FTGM** — the paper's contribution at the firmware level:
//!   host-generated per-(port, destination) sequence streams, the
//!   delayed message-commit ACK, and `L_timer()` re-arming the IT1
//!   software watchdog.
//!
//! The host-side halves (token backup, the FTD, transparent recovery) live
//! in `ftgm-gm` and `ftgm-core`.

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod accounting;
pub mod firmware;
pub mod gobackn;
pub mod machine;
pub mod packet;
pub mod params;

pub use accounting::{Handler, HandlerTimes};
pub use firmware::{layout, FirmwareImage};
pub use gobackn::{ChunkRecord, ReceiverStream, SenderStream, StreamKey};
pub use machine::{
    McpEffect, McpMachine, McpStats, NicEvent, RecvTokenDesc, SendDesc, PORTS_PER_NODE,
};
pub use packet::{Header, PacketType, ParseError};
pub use params::{FtgmKnobs, McpParams, Variant};
