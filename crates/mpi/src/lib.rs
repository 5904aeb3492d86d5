#![warn(missing_docs)]

//! A fault-tolerant MPI-like application tier over the GM model.
//!
//! The paper's motivation names MPI explicitly: "Middleware, such as MPI,
//! built on top of GM, consider GM send errors to be fatal and exit when
//! they encounter such errors. This can cause a distributed application
//! using MPI to come to a grinding halt if proper fault tolerance is not
//! implemented." — and FTGM's promise is that such middleware keeps
//! working, unmodified, across an interface failure.
//!
//! This crate is that middleware, scaled to the simulation: ranks over GM
//! ports, tag-matched point-to-point messaging ([`mailbox`]), the classic
//! collectives ([`collectives`]) — dissemination **barrier**, binomial
//! **broadcast**, ring and recursive-doubling **all-reduce**, 2-D torus
//! **halo exchange** — and a one-sided **RMA** subsystem ([`rma`]) with
//! replicated backing windows. Rank programs are written as sequential
//! *operation streams* ([`Op`]); the middleware runs each operation's
//! protocol and feeds the result back.
//!
//! Beyond FTGM's transparent recovery, the [`recovery`] module adds
//! GASPI-style *application-visible* failure semantics: per-operation
//! timeouts that surface typed [`RankFault`]s instead of hanging, and
//! three restart policies — notify, **shrink** (re-plan collectives over
//! the survivors) and **spare-node** (remap the dead rank onto a hot
//! spare and replay from its last checkpoint).
//!
//! Nothing in this crate references `ftgm-core`: it runs identically on
//! plain GM and on FTGM — the integration tests demonstrate that a
//! collective rides out a network-processor hang when (and only when) the
//! fault-tolerance stack is installed.

// The whole crate runs through NIC hangs and recoveries: a panic
// anywhere in it turns a recoverable hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod collectives;
pub mod harness;
pub mod mailbox;
pub mod recovery;
pub mod rma;
pub mod runner;

pub use harness::MpiHarness;
pub use mailbox::{Envelope, TAG_USER_MAX};
pub use recovery::{FaultKind, RankFault, RankSpec, RestartPolicy};
pub use runner::{
    spawn_rank, HarnessState, MpiShared, Op, OpResult, RankProgram, RecoveryConfig,
};
