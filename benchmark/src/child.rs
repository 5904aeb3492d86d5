//! One workload, one repetition, one fresh process. A child sets up,
//! runs its measured window, checks its outputs and prints its metric
//! row on standard output in a line protocol only the parent reads:
//!
//! ```text
//! m <name> <value>        a metric (units live in the catalogue)
//! c <name> <hex>          a checksum, compared across repetitions
//! r <attempted> <failed>  the correctness gate's tally
//! n <text>                a note for the report
//! ```

use std::time::Instant;

use crate::metrics::Row;
use crate::trace::Tracer;
use crate::workloads;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PingpongSmall,
    StreamLarge,
    FatTree256Mix,
    HangRecovery,
    Mpi256,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PingpongSmall,
        Workload::StreamLarge,
        Workload::FatTree256Mix,
        Workload::HangRecovery,
        Workload::Mpi256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "pingpong_small",
            Workload::StreamLarge => "stream_large",
            Workload::FatTree256Mix => "fat_tree256_mix",
            Workload::HangRecovery => "hang_recovery",
            Workload::Mpi256 => "mpi256",
        }
    }

    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "smallest messages, closed loop on two hosts: per-message cost (firmware send_chunk, MCP dispatch, GM library) dominates; carries the 11.5 to 13.0 us latency claim",
            Workload::StreamLarge => "256 KiB messages, window of 8 each way: per-byte cost (64 chunks a message, PCI/DMA, payload copies, CRC); carries the bandwidth claim; bypasses per-message savings",
            Workload::FatTree256Mix => "256-host fat tree, 128 cross-pod open-loop flows: the fabric walk and the scheduler population are at their largest",
            Workload::HangRecovery => "8-host fat tree, NIC hang and recovery per episode: the only workload that runs the FTD, MCP reload and per-process restore; carries Table 3 and the 2 s claim",
            Workload::Mpi256 => "256-rank collectives, fault-free and with a spare-host restart: the MPI tier over the whole stack, replay cost next to its failure-free twin",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Window size: workloads are sized so `seconds` of host time pass
    /// in the measured window at the commit that defined the benchmark.
    pub seconds: u64,
    pub trace: bool,
    /// Stop once set-up is done (the parent wants more `setup_s` samples).
    pub setup_only: bool,
}

/// What a workload hands back once its window has closed.
#[derive(Default)]
pub struct Outcome {
    pub row: Row,
    pub checks: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one check of the correctness gate.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}

/// Set-up state a workload returns before its window opens, so the
/// runner can time set-up and window apart.
pub trait Prepared {
    fn run(self: Box<Self>, args: &ChildArgs, tracer: &mut Tracer) -> Outcome;
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the child and prints its lines. `started` is the process's first
/// instant, so `setup_s` covers everything before the window.
pub fn run(args: &ChildArgs, started: Instant) -> i32 {
    let prepared = workloads::prepare(args);
    let setup_s = started.elapsed().as_secs_f64();
    if args.setup_only {
        println!("m setup_s {setup_s:?}");
        return 0;
    }
    let mut tracer = Tracer::new(args.trace);
    let mut out = prepared.run(args, &mut tracer);
    out.row.put("setup_s", setup_s);
    out.row.put("peak_rss_mb", peak_rss_mb());
    out.row.put(
        "ops_failed_ppm",
        out.failed as f64 * 1e6 / out.attempted.max(1) as f64,
    );
    if args.trace {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let path = dir.join(format!("trace-{}.json", args.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed)));
        match written {
            Ok(()) => println!("n spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return 1;
            }
        }
    }
    for (name, value) in &out.row.0 {
        println!("m {name} {value:?}");
    }
    for (name, sum) in &out.checks {
        println!("c {name} {sum:016x}");
    }
    for note in &out.notes {
        println!("n {note}");
    }
    println!("r {} {}", out.attempted, out.failed);
    0
}
