//! An RPC service surviving a network-processor hang: availability from
//! the client's point of view, driven through a declarative
//! [`WorkloadSpec`] instead of a bespoke loop.
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
//! returns a wrong answer. The [`SloReport`] breaks the run down per
//! phase: warmup, pre-fault steady state, the fault window, drain.

use ftgm_faults::chaos::{ChaosAction, ChaosTopology};
use ftgm_sim::SimDuration;
use ftgm_workload::{
    run_spec, ClientModel, FlowSpec, PhaseKind, SizeMix, SloBounds, Variant, WorkloadSpec,
};

fn main() {
    let spec = WorkloadSpec::new("rpc_service", ChaosTopology::TwoNode, Variant::Ftgm, 42)
        .flow(FlowSpec {
            src: 0,
            src_port: 0,
            dst: 1,
            dst_port: 2,
            model: ClientModel::ClosedLoop {
                think: SimDuration::from_us(20),
            },
            sizes: SizeMix::Fixed { bytes: 128 },
        })
        .phase(PhaseKind::Warmup, SimDuration::from_ms(10))
        .phase(PhaseKind::Steady, SimDuration::from_ms(90))
        .phase(PhaseKind::Fault, SimDuration::from_ms(2_850))
        .fault_at(SimDuration::from_ms(10), ChaosAction::ForceHang { node: 1 })
        .phase(PhaseKind::Drain, SimDuration::from_ms(50));

    let report = run_spec(&spec);

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
    // The same bound the slo bench enforces: service resumed in < 2 s.
    let violations = SloBounds::default().check_recovery(&report);
    assert!(violations.is_empty(), "{violations:?}");
    println!(
        "\nexactly one request stretched across the outage; every other RPC ran at\n\
         normal latency — the paper's availability story from a client's seat."
    );
}
