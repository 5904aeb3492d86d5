//! A spaceborne telemetry stream under repeated transient upsets,
//! stated as a scenario file.
//!
//! ```text
//! cargo run --release --example telemetry_stream
//! ```
//!
//! The paper motivates FTGM with space applications (the NASA REE
//! supercomputer): cosmic rays flip bits in the network processor and
//! the machine must keep its availability anyway. This example streams
//! 1 KB telemetry frames open-loop for ten simulated seconds while the
//! instrument's LANai is hit by an upset every 2.4 s of one 7.2 s fault
//! window, three in all (far harsher than reality). Service blacks out
//! for each ~1.7 s recovery and then catches the backlog up, three
//! times over.
//!
//! The load report has one fault phase for all three upsets, so it
//! carries the longest of the three outages, not each one. The
//! availability printed is the lower bound that supports: three
//! outages, none longer than that longest one.

use ftgm_scenario::{render_diags, run_text};

/// Instrument (node 0) streams to the recorder (node 1). Frames are
/// offered every 100 µs no matter what the NIC is doing — queued frames
/// ride out each outage and drain after recovery. `fault_blackout 2s`
/// bounds every no-delivery gap of the fault window, so service resumes
/// within 2 s of each upset.
const SCENARIO: &str = r#"
scenario "telemetry_stream" {
  topology two_node
  seed 7
  flow 0 -> 1 open every 100us sizes 1024
  phases { warmup 100ms steady 2400ms fault 7200ms drain 300ms }
  fault in fault at 1ms hang node 0
  fault in fault at 2401ms hang node 0
  fault in fault at 4801ms hang node 0
  slo { fault_blackout 2s }
  expect survived
}
"#;

fn main() {
    let outcome = run_text(SCENARIO).unwrap_or_else(|d| panic!("{}", render_diags(&d)));
    let report = outcome.load.as_ref().expect("the stream's load report");

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

    // Availability: the share of mission time outside a service
    // blackout, at worst three outages as long as the longest one.
    let fault = report.fault().expect("fault phase");
    let blacked_out = 3 * fault.longest_gap_ns;
    let availability = 1.0 - blacked_out as f64 / report.run_ns as f64;

    println!("\nmission summary:");
    println!("  frames delivered : {}", report.total_completed);
    println!("  upsets/recoveries: 3 / {}", report.recoveries);
    println!("  send errors      : {}", report.send_errors);
    println!("  frames damaged   : {}", report.corrupt);
    println!("  feed availability: >= {:.1}% of mission time", availability * 100.0);

    assert_eq!(report.recoveries, 3, "every upset recovered");
    assert_eq!(report.send_errors, 0);
    assert_eq!(report.iface_dead, 0, "no escalations");
    assert_eq!(report.corrupt, 0, "every frame arrived intact, once, in order");
    assert!(fault.completed > 0, "service resumed inside the fault window");
    let violations = outcome.violations();
    assert!(
        violations.is_empty(),
        "every recovery landed inside the paper's 2 s bound: {violations:?}"
    );
    assert_eq!(
        report.total_completed, report.total_issued,
        "open-loop backlog fully drained: no frame lost across 3 recoveries"
    );
    assert!(availability > 0.4, "feed mostly alive despite 3 upsets");
    println!("\nevery upset detected, every recovery transparent, no frame lost.");
}
