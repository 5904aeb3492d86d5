//! MPI-tier sweep: {allreduce, broadcast, halo, rma} × {256, 1024
//! ranks} × {no fault, transient NIC hang, permanent death + spare or
//! shrink restart}. Writes `BENCH_mpi.json` (full sweep) or only prints
//! (smoke mode, the ci.sh gate).
//!
//! ```text
//! cargo run --release -p ftgm-bench --bin mpi            # full sweep
//! cargo run --release -p ftgm-bench --bin mpi -- --smoke # small cells
//! ```
//!
//! Exits 1 on an argument it does not know (before anything runs or is
//! written) and 2 on any oracle violation: a fault cell whose results differ
//! from its fault-free twin, a blackout at or over 2 s, a transient
//! hang that leaked to the application, a spare restart that replayed
//! nothing, or a cell that never completed (a silent hang).

use ftgm_bench::mpi::{blackout_ns, check, mpi_cells, run_cells, summary_json};

fn usage() -> ! {
    eprintln!("usage: mpi [--smoke] [--threads N] [seed]");
    std::process::exit(1);
}

fn main() {
    let mut smoke = false;
    let mut seed: u64 = 2003;
    let mut threads: usize = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--threads" {
            threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
        } else if let Ok(s) = arg.parse() {
            seed = s;
        } else {
            usage();
        }
    }

    eprintln!(
        "mpi: {} sweep (seed {seed}, {threads} workers)…",
        if smoke { "smoke" } else { "full" }
    );
    let cells = mpi_cells(smoke);
    let results = run_cells(&cells, seed, threads);
    let violations = check(&results);

    println!("\nMPI-tier sweep (seed {seed})\n");
    println!(
        "{:<20} {:>6} {:>8} {:>18} {:>7} {:>7} {:>8} {:>8} {:>12}",
        "cell", "ranks", "done", "checksum", "faults", "respawn", "replay", "done_us", "blackout_ms"
    );
    for r in &results {
        println!(
            "{:<20} {:>6} {:>8} {:>18} {:>7} {:>7} {:>8} {:>8} {:>12}",
            r.cell.label,
            r.cell.ranks,
            format!("{}/{}", r.finishers, r.cell.ranks),
            format!("{:016x}", r.checksum),
            r.faults_delivered,
            r.respawns,
            r.replayed_instances,
            r.completion_ns / 1_000,
            blackout_ns(&results, r) / 1_000_000,
        );
    }

    if !smoke {
        let json = summary_json(seed, &results, violations.len());
        std::fs::write("BENCH_mpi.json", &json).expect("write BENCH_mpi.json");
        eprintln!("mpi: wrote BENCH_mpi.json");
    }

    if !violations.is_empty() {
        eprintln!("\nmpi: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(2);
    }
    eprintln!("\nmpi: all oracles hold");
}
