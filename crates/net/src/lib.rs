#![warn(missing_docs)]

//! The Myrinet fabric model.
//!
//! Myrinet is a switched, point-to-point, full-duplex gigabit network using
//! **wormhole switching**, **source routing** and **backpressure flow
//! control** (Boden et al., IEEE Micro 1995). This crate models the fabric
//! at packet granularity while preserving the wormhole timing shape:
//!
//! * a packet's head cuts through each switch after a fall-through latency,
//! * each channel (link direction) is occupied until the packet's *tail*
//!   has drained past it,
//! * a blocked head holds every upstream channel it occupies — that is
//!   backpressure, and it is what serializes contending traffic.
//!
//! [`fabric::Fabric::inject`] walks a source route hop by hop, resolves
//! contention against per-channel `free_at` reservations in injection
//! order (FCFS arbitration), and returns the delivery instant — or a
//! drop, if the route is bad or a link fault model eats the packet.
//!
//! The [`mapper`] module reproduces the *GM mapper*'s job: explore the
//! topology and compute a route from every interface to every other
//! interface, deterministically.

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod fabric;
pub mod mapper;
pub mod reroute;
pub mod topology;

pub use fabric::{Delivery, DropReason, Fabric, FabricParams};
pub use mapper::{Mapper, RouteTable};
pub use reroute::ReroutePlan;
pub use topology::{Endpoint, NodeId, SwitchId, Topology, TopologyBuilder};
