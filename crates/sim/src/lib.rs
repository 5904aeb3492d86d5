#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the FTGM Myrinet
//! reproduction.
//!
//! Every other crate in this workspace models *state*; this crate models
//! *time*. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`Scheduler`] — a deterministic event queue with stable FIFO
//!   tie-breaking,
//! * [`rng::SimRng`] — a seedable, reproducible pseudo-random generator
//!   (xoshiro256**), so that a campaign run with the same seed replays
//!   bit-for-bit,
//! * [`trace::Trace`] — a typed event trace used to regenerate the
//!   paper's Figure 9 recovery timeline and drive the chaos oracles,
//! * [`metrics::Metrics`] — deterministic counters and fixed-bucket
//!   histograms fed by every trace emission,
//! * [`export`] — JSON-lines and Chrome `trace_event` exporters,
//! * [`json`] — the one integer-only JSON writer every report shares,
//! * [`pool::map_indexed`] — the one slot-disciplined worker pool every
//!   parallel campaign, corpus replay, suite and sweep fans out through.
//!
//! # Example
//!
//! ```
//! use ftgm_sim::{Scheduler, SimDuration};
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule_in(SimDuration::from_us(5), "world");
//! sched.schedule_in(SimDuration::from_us(1), "hello");
//! let (t1, e1) = sched.pop().unwrap();
//! let (t2, e2) = sched.pop().unwrap();
//! assert_eq!((e1, e2), ("hello", "world"));
//! assert!(t1 < t2);
//! ```

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod rng;
pub mod sched;
pub mod time;
pub mod trace;

pub use metrics::{HistId, Histogram, Metrics, Samples};
pub use pool::map_indexed;
pub use rng::SimRng;
pub use sched::Scheduler;
pub use time::{SimDuration, SimTime};
pub use trace::{
    DmaDir, DropKind, RecoveryPhase, Trace, TraceEvent, TraceKind, TraceMode, ZoneTrigger,
};
