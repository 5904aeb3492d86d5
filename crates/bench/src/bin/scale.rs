//! Scale sweep: node count {8, 64, 256} × {steady, hang}, plus the
//! dual-backend scheduler microbenchmark. Writes `BENCH_scale.json`
//! (full sweep) or only prints (smoke mode, the ci.sh gate).
//!
//! ```text
//! cargo run --release -p ftgm-bench --bin scale            # full sweep
//! cargo run --release -p ftgm-bench --bin scale -- --smoke # 8-node cells only
//! ```
//!
//! Exits 2 on any oracle violation: calendar/heap pop-order divergence,
//! calendar speedup under 2× at the 256-node cell, recovery blackout at
//! or over 2 s, a hang that never recovered, or a cell with no traffic.

use ftgm_bench::scale::{
    check, run_sched_cell, run_world_cell, sched_cells, summary_json, world_cells,
};

fn main() {
    let mut smoke = false;
    let mut seed: u64 = 2003;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if let Ok(s) = arg.parse() {
            seed = s;
        }
    }

    eprintln!(
        "scale: {} sweep (seed {seed})…",
        if smoke { "smoke" } else { "full" }
    );

    let sched: Vec<_> = sched_cells(smoke)
        .iter()
        .map(|c| {
            eprintln!("  sched cell {} (population {})…", c.label, c.population);
            run_sched_cell(c, seed)
        })
        .collect();
    let worlds: Vec<_> = world_cells(smoke)
        .iter()
        .map(|c| {
            eprintln!("  world cell {}…", c.label);
            run_world_cell(c, seed)
        })
        .collect();

    let violations = check(&sched, &worlds);

    println!("\nScale sweep (seed {seed})\n");
    println!(
        "{:<18} {:>12} {:>14} {:>14} {:>9}",
        "sched cell", "population", "heap ev/s", "calendar ev/s", "speedup"
    );
    for s in &sched {
        println!(
            "{:<18} {:>12} {:>14} {:>14} {:>6}.{:02}x",
            s.cell.label,
            s.cell.population,
            s.heap_events_per_sec(),
            s.cal_events_per_sec(),
            s.speedup_permille() / 1000,
            (s.speedup_permille() % 1000) / 10,
        );
    }
    println!();
    println!(
        "{:<18} {:>7} {:>12} {:>12} {:>13} {:>11}",
        "world cell", "nodes", "sim events", "ev/s", "blackout ms", "recoveries"
    );
    for w in &worlds {
        println!(
            "{:<18} {:>7} {:>12} {:>12} {:>13} {:>11}",
            w.cell.label,
            w.cell.nodes,
            w.events_delivered,
            w.events_per_sec(),
            w.blackout_ns() / 1_000_000,
            w.report.recoveries
        );
    }
    for v in &violations {
        println!("violation: {v}");
    }
    println!(
        "\n{} sched + {} world cells, {} violations",
        sched.len(),
        worlds.len(),
        violations.len()
    );

    if !smoke {
        let summary = summary_json(seed, &sched, &worlds, violations.len(), true);
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
