//! `ftgm-scenario` — a declarative campaign language for the FTGM
//! simulator.
//!
//! A scenario file names, in one screen of text, everything a
//! fault-tolerance experiment needs: the world shape, the traffic
//! (validated probe flows and open/closed-loop load), a phase timeline,
//! the fault schedule (absolute and recovery-phase-triggered), the SLO
//! bounds to hold, and — crucially — the verdict the author *expects*
//! the run to produce:
//!
//! ```text
//! scenario "star8-two-nic-hang" {
//!   topology star 8
//!   coordinator on
//!   flow 0 -> 1 validated size 256 pipeline 2
//!   flow 2 -> 3 validated size 256 pipeline 2
//!   phases { warmup 10ms fault 2490ms }
//!   fault in fault at 5ms hang nodes 1 3 skew 500us
//!   slo { flow_blackout 2s }
//!   expect survived
//! }
//! ```
//!
//! The pipeline is [`scan`](scan::scan) → [`parse`](parse::parse) →
//! [`compile`](compile::compile) → [`run_compiled`]:
//! text to spanned tokens, tokens to a validated [`Spec`]
//! (every error a `line:col`-anchored [`Diag`]), spec to
//! the existing chaos + workload engines, and execution (one FTGM
//! world, plus a plain-GM twin for an overhead bound) to a
//! [`ScenarioOutcome`] whose verdict is checked
//! against the `expect` line. The language is fully round-trippable —
//! [`print`](print::print) emits the canonical spelling and
//! `parse(print(spec)) == spec` — and total: the scanner tokenizes any
//! byte soup without panicking, a property the fuzz suite pins.
//!
//! Scenario files live in `scenarios/` (goldens in `scenarios/golden/`,
//! rejection fixtures in `scenarios/bad/`); `docs/SCENARIOS.md` is the
//! grammar reference. That directory is the only place a named chaos
//! scenario is stated: [`corpus::load_dir`] loads it,
//! [`run_corpus_parallel`] replays it, and
//! [`corpus::gate`] holds the replay against the `expect` lines, the
//! oracles and the golden bytes — the `chaos` bench binary and the test
//! suites are thin callers of those three.

// The whole crate runs through NIC hangs and recoveries: a panic
// anywhere in it turns a recoverable hang into a crash.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

pub mod ast;
pub mod compile;
pub mod corpus;
pub mod gen;
pub mod parse;
pub mod print;
pub mod run;
pub mod scan;

pub use ast::Spec;
pub use compile::{compile, CompiledScenario, DEFAULT_SEED};
pub use corpus::{gate, load_dir, load_specs, CorpusError, CorpusFault, GateReport};
pub use gen::gen_spec;
pub use parse::{parse, render_diags, Diag};
pub use print::print;
pub use run::{judge, run_compiled, run_corpus_parallel, run_text, ExpectMismatch, ScenarioOutcome};
pub use scan::{scan, Tok, TokKind};
