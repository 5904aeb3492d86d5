#![warn(missing_docs)]

//! Declarative traffic generation and SLO measurement for the FTGM
//! reproduction.
//!
//! The paper's headline claim is that FTGM's fault tolerance costs
//! almost nothing *under real traffic*: ≈1.5 µs added latency, ≈0
//! bandwidth loss, sub-2 s recovery. This crate turns that claim into
//! a measurable contract:
//!
//! * [`WorkloadSpec`] — a declarative, seed-deterministic description
//!   of offered load: open-loop generators with fixed / uniform-jitter
//!   / bounded-Pareto interarrivals, weighted message-size mixes,
//!   closed-loop request/response clients with think time, and a
//!   multi-phase timeline (warmup → steady → fault window → drain);
//! * [`spawn_load`] / [`LoadRun::fold`] — the driver's two halves: a
//!   scenario spawns its load flows into the chaos run's world, so the
//!   faults its `.ftsc` file states hit the traffic the report measures;
//! * [`run_spec`] — a spec on its own fault-free world, GM or FTGM (the
//!   plain-GM twin an overhead bound is measured against);
//! * [`SloReport`] — per-phase p50/p95/p99/p999 latency, goodput,
//!   in-flight depth, and availability (longest no-completion gap,
//!   completion ratio), serialized as byte-stable integer JSON;
//! * [`SloBounds`] — the typed SLO oracle asserting steady-state
//!   overhead against a plain-GM baseline and the recovery-window
//!   blackout bound.
//!
//! # Example
//!
//! ```
//! use ftgm_sim::SimDuration;
//! use ftgm_workload::{
//!     run_spec, Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, Variant, WorkloadSpec,
//! };
//! use ftgm_faults::chaos::ChaosTopology;
//!
//! let spec = WorkloadSpec::new("smoke", ChaosTopology::TwoNode, Variant::Ftgm, 7)
//!     .flow(FlowSpec {
//!         src: 0,
//!         src_port: 0,
//!         dst: 1,
//!         dst_port: 2,
//!         model: ClientModel::OpenLoop {
//!             arrival: Arrival::Fixed { gap: SimDuration::from_us(50) },
//!         },
//!         sizes: SizeMix::Fixed { bytes: 256 },
//!     })
//!     .phase(PhaseKind::Warmup, SimDuration::from_ms(2))
//!     .phase(PhaseKind::Steady, SimDuration::from_ms(10))
//!     .phase(PhaseKind::Drain, SimDuration::from_ms(5));
//! let report = run_spec(&spec);
//! assert!(report.total_completed > 0);
//! assert_eq!(
//!     report.phases.iter().map(|p| p.completed).sum::<u64>(),
//!     report.total_completed,
//! );
//! ```

// The whole crate runs through NIC hangs and recoveries: a panic
// anywhere in it turns a recoverable hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod column;
pub mod driver;
pub mod gen;
pub mod slo;
pub mod spec;

pub use column::{Column, ColumnIter};
pub use driver::{run_spec, spawn_load, topology_label, LoadRun};
pub use gen::{ClosedLoopClient, OpenLoopSender};
pub use slo::{fold_report, Completion, FlowProbe, PhaseSlo, PhaseWindows, SloBounds, SloReport};
pub use spec::{Arrival, ClientModel, FlowSpec, Phase, PhaseKind, SizeMix, Variant, WorkloadSpec};
