//! A spaceborne telemetry stream under repeated transient upsets,
//! declared as a multi-phase [`WorkloadSpec`].
//!
//! ```text
//! cargo run --release --example telemetry_stream
//! ```
//!
//! The paper motivates FTGM with space applications (the NASA REE
//! supercomputer): cosmic rays flip bits in the network processor and
//! the machine must keep its availability anyway. This example streams
//! 1 KB telemetry frames open-loop for ten simulated seconds while the
//! instrument's LANai is hit by an upset at the start of each of three
//! declared fault windows (every ~2.5 s — far harsher than reality).
//! The per-phase [`SloReport`] shows service blacking out for the
//! ~1.7 s recovery and then catching the backlog up, three times over.

use ftgm_faults::chaos::{ChaosAction, ChaosTopology};
use ftgm_sim::SimDuration;
use ftgm_workload::{
    run_spec, Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, Variant, WorkloadSpec,
};

fn main() {
    // Instrument (node 0) streams to the recorder (node 1). Frames are
    // offered every 100 µs no matter what the NIC is doing — queued
    // frames ride out each outage and drain after recovery.
    let mut spec = WorkloadSpec::new(
        "telemetry_stream",
        ChaosTopology::TwoNode,
        Variant::Ftgm,
        7,
    )
    .flow(FlowSpec {
        src: 0,
        src_port: 0,
        dst: 1,
        dst_port: 2,
        model: ClientModel::OpenLoop {
            arrival: Arrival::Fixed {
                gap: SimDuration::from_us(100),
            },
        },
        sizes: SizeMix::Fixed { bytes: 1024 },
    })
    .phase(PhaseKind::Warmup, SimDuration::from_ms(100))
    .phase(PhaseKind::Steady, SimDuration::from_ms(2_400));
    for _ in 0..3 {
        spec = spec
            .phase(PhaseKind::Fault, SimDuration::from_ms(2_400))
            .fault_at(SimDuration::from_ms(1), ChaosAction::ForceHang { node: 0 });
    }
    spec = spec.phase(PhaseKind::Drain, SimDuration::from_ms(300));

    let report = run_spec(&spec);

    println!("mission timeline ({} simulated ms):", report.run_ns / 1_000_000);
    println!(
        "{:<8} {:>9} {:>10} {:>13} {:>13} {:>10}",
        "phase", "offered", "delivered", "goodput MB/s", "blackout ms", "served ‰"
    );
    for p in &report.phases {
        println!(
            "{:<8} {:>9} {:>10} {:>13} {:>13} {:>10}",
            p.name,
            p.issued,
            p.completed,
            p.goodput_bytes_per_sec / 1_000_000,
            p.longest_gap_ns / 1_000_000,
            p.completed_permille
        );
    }

    // Availability: the share of mission time outside a service blackout.
    let blacked_out: u64 = report
        .phases
        .iter()
        .filter(|p| p.name == "fault")
        .map(|p| p.longest_gap_ns)
        .sum();
    let availability = 1.0 - blacked_out as f64 / report.run_ns as f64;

    println!("\nmission summary:");
    println!("  frames delivered : {}", report.total_completed);
    println!("  upsets/recoveries: 3 / {}", report.recoveries);
    println!("  send errors      : {}", report.send_errors);
    println!("  frames damaged   : {}", report.corrupt);
    println!("  feed availability: {:.1}% of mission time", availability * 100.0);

    assert_eq!(report.recoveries, 3, "every upset recovered");
    assert_eq!(report.send_errors, 0);
    assert_eq!(report.iface_dead, 0, "no escalations");
    assert_eq!(report.corrupt, 0, "every frame arrived intact, once, in order");
    for p in report.phases.iter().filter(|p| p.name == "fault") {
        assert!(p.completed > 0, "service resumed inside every fault window");
        assert!(
            p.longest_gap_ns < 2_000_000_000,
            "every recovery landed inside the paper's 2 s bound"
        );
    }
    assert_eq!(
        report.total_completed, report.total_issued,
        "open-loop backlog fully drained: no frame lost across 3 recoveries"
    );
    assert!(availability > 0.4, "feed mostly alive despite 3 upsets");
    println!("\nevery upset detected, every recovery transparent, no frame lost.");
}
