//! Scale sweep: node count {8, 64, 256} × {steady, hang}. Writes
//! `BENCH_scale.json` (full sweep) or only prints (smoke mode, the
//! ci.sh gate). Every value is on the simulated clock, so a re-run
//! rewrites the file with the same bytes.
//!
//! ```text
//! cargo run --release -p ftgm-bench --bin scale            # full sweep
//! cargo run --release -p ftgm-bench --bin scale -- --smoke # 8-node cells only
//! ```
//!
//! Exits 1 on an argument it does not know (before anything runs or is
//! written) and 2 on any oracle violation: recovery blackout at or over
//! 2 s, a hang that never recovered, or a cell with no traffic.

use ftgm_bench::scale::{check, run_world_cell, summary_json, world_cells};

fn main() {
    let mut smoke = false;
    let mut seed: u64 = 2003;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if let Ok(s) = arg.parse() {
            seed = s;
        } else {
            eprintln!("usage: scale [--smoke] [seed]");
            std::process::exit(1);
        }
    }

    eprintln!(
        "scale: {} sweep (seed {seed})…",
        if smoke { "smoke" } else { "full" }
    );

    let worlds: Vec<_> = world_cells(smoke)
        .iter()
        .map(|c| {
            eprintln!("  world cell {}…", c.label);
            run_world_cell(c, seed)
        })
        .collect();

    let violations = check(&worlds);

    println!("\nScale sweep (seed {seed})\n");
    println!(
        "{:<18} {:>7} {:>12} {:>13} {:>11}",
        "world cell", "nodes", "sim events", "blackout ms", "recoveries"
    );
    for w in &worlds {
        println!(
            "{:<18} {:>7} {:>12} {:>13} {:>11}",
            w.cell.label,
            w.cell.nodes,
            w.events_delivered,
            w.blackout_ns() / 1_000_000,
            w.report.recoveries
        );
    }
    for v in &violations {
        println!("violation: {v}");
    }
    println!("\n{} world cells, {} violations", worlds.len(), violations.len());

    if !smoke {
        let summary = summary_json(seed, &worlds, violations.len());
        if let Err(e) = std::fs::write("BENCH_scale.json", &summary) {
            eprintln!("cannot write BENCH_scale.json: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote BENCH_scale.json");
    }

    if !violations.is_empty() {
        std::process::exit(2);
    }
}
