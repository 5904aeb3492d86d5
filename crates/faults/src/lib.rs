#![warn(missing_docs)]

//! Fault injection for the FTGM reproduction.
//!
//! Reproduces the paper's §2 experiments: single-bit flips at uniformly
//! random positions in the `send_chunk` section of the MCP code while the
//! interface handles validated traffic, classified into Table 1's seven
//! failure categories — and the §5.2 effectiveness experiment, where the
//! same campaign runs under FTGM with the watchdog + FTD installed and
//! every hang must be detected and recovered transparently.
//!
//! * [`classify`] — the outcome taxonomy and classification rules,
//! * [`inject`] — one reproducible run (`seed` → bit choice → world),
//! * [`campaign`] — parallel N-run campaigns with deterministic
//!   aggregation and Table 1 rendering,
//! * [`chaos`] — the engine for composed multi-fault scenarios (flips
//!   inside recovery phases, back-to-back hangs, link outages) over
//!   multi-node worlds, checked by exactly-once and
//!   recovery-or-escalation oracles. The named scenarios themselves are
//!   the `scenarios/*.ftsc` corpus (`ftgm-scenario`).

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod campaign;
pub mod chaos;
pub mod classify;
pub mod forensics;
pub mod inject;

/// Compiles the Rust example of `docs/FAULT_MODEL.md` ("Writing one")
/// as a doctest, so the guide cannot name API that no longer exists.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/FAULT_MODEL.md")]
pub struct FaultModelGuide;

pub use campaign::{run_campaign, CampaignResult};
pub use chaos::{
    run_scenario, ChaosAction, ChaosEvent, ChaosReport, ChaosScenario, ChaosTopology, Flow,
    PhaseTrigger,
};
pub use forensics::{analyze, FieldMatrix, InstrSensitivity};
pub use classify::{
    classify as classify_outcome, classify_resolution, classify_scenario, Observables, Outcome,
    Resolution, ScenarioVerdict,
};
pub use inject::{flip_random_bit, run_one, target_range, InjectionTarget, RunConfig, RunResult};
