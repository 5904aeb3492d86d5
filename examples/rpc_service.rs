//! An RPC service surviving a network-processor hang: availability from
//! the client's point of view, stated as a scenario file instead of a
//! bespoke loop.
//!
//! ```text
//! cargo run --release --example rpc_service
//! ```
//!
//! A closed-loop client hammers an echo server with 128-byte RPCs. Ten
//! milliseconds into the declared fault window the server's LANai takes
//! a transient upset. FTGM detects, reloads and replays; the client —
//! which knows nothing about any of it — sees exactly one slow RPC (the
//! one in flight across the ~1.7 s recovery) and a service that never
//! returns a wrong answer. The load report breaks the run down per
//! phase: warmup, pre-fault steady state, the fault window, drain.

use ftgm_scenario::{render_diags, run_text};

/// The whole experiment: one FTGM world, one client, one hang, and the
/// paper's 2 s recovery bound on the client's longest wait.
const SCENARIO: &str = r#"
scenario "rpc_service" {
  topology two_node
  seed 42
  flow 0 -> 1 closed think 20us sizes 128
  phases { warmup 10ms steady 90ms fault 2850ms drain 50ms }
  fault in fault at 10ms hang node 1
  slo { fault_blackout 2s }
  expect survived
}
"#;

fn main() {
    let outcome = run_text(SCENARIO).unwrap_or_else(|d| panic!("{}", render_diags(&d)));
    let report = outcome.load.as_ref().expect("the client's load report");

    println!("client-observed service quality, per phase:");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "phase", "RPCs", "p50 us", "p99 us", "worst us", "blackout ms"
    );
    for p in &report.phases {
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>14} {:>12}",
            p.name,
            p.completed,
            p.p50_ns / 1_000,
            p.p99_ns / 1_000,
            p.max_ns / 1_000,
            p.longest_gap_ns / 1_000_000
        );
    }
    println!("\ntotals: {} RPCs, {} wrong answers, {} recoveries",
        report.total_completed, report.bad_responses, report.recoveries);

    let steady = report.steady().expect("steady phase");
    let fault = report.fault().expect("fault phase");
    assert_eq!(report.bad_responses, 0, "service never answered wrong");
    assert_eq!(report.corrupt, 0, "no request reached the server damaged");
    assert_eq!(report.recoveries, 1, "exactly one recovery");
    assert!(
        fault.max_ns > 1_000_000_000,
        "one request rode the outage (worst {} ns)",
        fault.max_ns
    );
    assert!(
        steady.p99_ns < 100_000,
        "steady-state RPCs never noticed (p99 {} ns)",
        steady.p99_ns
    );
    // The file's `fault_blackout 2s`: service resumed in < 2 s.
    let violations = outcome.violations();
    assert!(violations.is_empty(), "{violations:?}");
    assert!(outcome.check().is_ok(), "{}", outcome.verdict.label());
    println!(
        "\nexactly one request stretched across the outage; every other RPC ran at\n\
         normal latency — the paper's availability story from a client's seat."
    );
}
