//! Recovery-under-load SLO sweep: offered load × fault timing over
//! two-node, 8-node star, and 8-node ring worlds.
//!
//! For every topology × load level the sweep runs a plain-GM no-fault
//! baseline, an FTGM no-fault run, and an FTGM run with a NIC hang
//! forced inside a declared fault window (heavy load adds a late-hang
//! timing variant). The SLO oracle then asserts the paper's headline
//! claims: FTGM's steady-state p99 latency stays within a few µs of
//! plain GM, and the fault-window service blackout stays under the
//! recovered-in-<2 s bound.
//!
//! Usage: `slo [seed]` (default 2003); anything else prints the usage
//! line and exits 1 before a cell runs or a file is written. Writes
//! `BENCH_slo.json` (the perf-trajectory summary: integer-valued,
//! byte-stable) and `results/slo_summary.json` (full per-phase reports).

use ftgm_faults::chaos::{ChaosAction, ChaosTopology};
use ftgm_workload::{
    reports_to_json, run_suite_parallel, topology_label, Arrival, ClientModel, FlowSpec,
    PhaseKind, SizeMix, SloBounds, SloReport, Variant, WorkloadSpec,
};
use ftgm_sim::SimDuration;

/// One sweep cell: a spec plus the labels the summary keys on.
struct Cell {
    spec: WorkloadSpec,
    load: &'static str,
    fault: &'static str,
}

fn open_arrival(load: &str) -> Arrival {
    if load == "heavy" {
        Arrival::UniformJitter {
            min: SimDuration::from_us(25),
            max: SimDuration::from_us(45),
        }
    } else {
        Arrival::UniformJitter {
            min: SimDuration::from_us(60),
            max: SimDuration::from_us(100),
        }
    }
}

fn burst_arrival(load: &str) -> Arrival {
    if load == "heavy" {
        Arrival::ParetoBurst {
            scale: SimDuration::from_us(20),
            shape_permille: 1300,
            cap: SimDuration::from_ms(2),
        }
    } else {
        Arrival::ParetoBurst {
            scale: SimDuration::from_us(50),
            shape_permille: 1500,
            cap: SimDuration::from_ms(4),
        }
    }
}

fn open_sizes(load: &str) -> SizeMix {
    if load == "heavy" {
        SizeMix::Weighted {
            options: vec![(256, 3), (1024, 2), (2048, 1)],
        }
    } else {
        SizeMix::Weighted {
            options: vec![(64, 3), (512, 1)],
        }
    }
}

fn think(load: &str) -> SimDuration {
    if load == "heavy" {
        SimDuration::from_us(10)
    } else {
        SimDuration::from_us(50)
    }
}

fn req_bytes(load: &str) -> SizeMix {
    SizeMix::Fixed {
        bytes: if load == "heavy" { 256 } else { 128 },
    }
}

/// The traffic flows for one topology: a mix of open-loop one-way
/// traffic and closed-loop RPC, always with node 0 as an endpoint so
/// the scripted hang on node 0 actually disrupts service.
fn flows(topology: ChaosTopology, load: &str) -> Vec<FlowSpec> {
    match topology {
        ChaosTopology::TwoNode => vec![
            FlowSpec {
                src: 1,
                src_port: 0,
                dst: 0,
                dst_port: 2,
                model: ClientModel::OpenLoop {
                    arrival: open_arrival(load),
                },
                sizes: open_sizes(load),
            },
            FlowSpec {
                src: 1,
                src_port: 1,
                dst: 0,
                dst_port: 3,
                model: ClientModel::ClosedLoop { think: think(load) },
                sizes: req_bytes(load),
            },
        ],
        ChaosTopology::Star(_) => vec![
            FlowSpec {
                src: 1,
                src_port: 0,
                dst: 0,
                dst_port: 2,
                model: ClientModel::ClosedLoop { think: think(load) },
                sizes: req_bytes(load),
            },
            FlowSpec {
                src: 2,
                src_port: 0,
                dst: 0,
                dst_port: 2,
                model: ClientModel::ClosedLoop { think: think(load) },
                sizes: req_bytes(load),
            },
            FlowSpec {
                src: 3,
                src_port: 0,
                dst: 0,
                dst_port: 2,
                model: ClientModel::ClosedLoop { think: think(load) },
                sizes: req_bytes(load),
            },
            FlowSpec {
                src: 4,
                src_port: 0,
                dst: 0,
                dst_port: 3,
                model: ClientModel::OpenLoop {
                    arrival: open_arrival(load),
                },
                sizes: open_sizes(load),
            },
            FlowSpec {
                src: 5,
                src_port: 0,
                dst: 6,
                dst_port: 2,
                model: ClientModel::OpenLoop {
                    arrival: burst_arrival(load),
                },
                sizes: open_sizes(load),
            },
        ],
        // The SLO sweep only builds ring cells of these shapes; the scale
        // bench owns the fat-tree/torus flow sets, so those reuse the
        // multi-hop ring mix here (nodes 0..8 exist in every such cell).
        ChaosTopology::Ring(_)
        | ChaosTopology::FatTree { .. }
        | ChaosTopology::Torus { .. } => vec![
            FlowSpec {
                src: 7,
                src_port: 0,
                dst: 0,
                dst_port: 2,
                model: ClientModel::ClosedLoop { think: think(load) },
                sizes: req_bytes(load),
            },
            FlowSpec {
                src: 0,
                src_port: 0,
                dst: 1,
                dst_port: 2,
                model: ClientModel::OpenLoop {
                    arrival: open_arrival(load),
                },
                sizes: open_sizes(load),
            },
            FlowSpec {
                src: 2,
                src_port: 0,
                dst: 3,
                dst_port: 2,
                model: ClientModel::OpenLoop {
                    arrival: burst_arrival(load),
                },
                sizes: open_sizes(load),
            },
            FlowSpec {
                src: 4,
                src_port: 0,
                dst: 5,
                dst_port: 2,
                model: ClientModel::OpenLoop {
                    arrival: open_arrival(load),
                },
                sizes: open_sizes(load),
            },
        ],
    }
}

fn cell(
    topology: ChaosTopology,
    load: &'static str,
    fault: &'static str,
    variant: Variant,
    seed: u64,
) -> Cell {
    let name = format!(
        "{}_{}_{}_{}",
        topology_label(topology),
        load,
        fault,
        variant.name()
    );
    let mut spec = WorkloadSpec::new(name, topology, variant, seed);
    for f in flows(topology, load) {
        spec = spec.flow(f);
    }
    spec = match fault {
        "none" => spec
            .phase(PhaseKind::Warmup, SimDuration::from_ms(10))
            .phase(PhaseKind::Steady, SimDuration::from_ms(250))
            .phase(PhaseKind::Drain, SimDuration::from_ms(50)),
        "hang_late" => spec
            .phase(PhaseKind::Warmup, SimDuration::from_ms(10))
            .phase(PhaseKind::Steady, SimDuration::from_ms(150))
            .phase(PhaseKind::Fault, SimDuration::from_ms(2300))
            .fault_at(SimDuration::from_ms(120), ChaosAction::ForceHang { node: 0 })
            .phase(PhaseKind::Drain, SimDuration::from_ms(80)),
        _ => spec
            .phase(PhaseKind::Warmup, SimDuration::from_ms(10))
            .phase(PhaseKind::Steady, SimDuration::from_ms(150))
            .phase(PhaseKind::Fault, SimDuration::from_ms(2300))
            .fault_at(SimDuration::from_ms(10), ChaosAction::ForceHang { node: 0 })
            .phase(PhaseKind::Drain, SimDuration::from_ms(80)),
    };
    Cell { spec, load, fault }
}

fn build_cells(seed: u64) -> Vec<Cell> {
    let topologies = [
        ChaosTopology::TwoNode,
        ChaosTopology::Star(8),
        ChaosTopology::Ring(8),
    ];
    let mut cells = Vec::new();
    for &topology in &topologies {
        for load in ["light", "heavy"] {
            cells.push(cell(topology, load, "none", Variant::Gm, seed));
            cells.push(cell(topology, load, "none", Variant::Ftgm, seed));
            cells.push(cell(topology, load, "hang", Variant::Ftgm, seed));
            if load == "heavy" {
                cells.push(cell(topology, load, "hang_late", Variant::Ftgm, seed));
            }
        }
    }
    cells
}

fn summary_json(seed: u64, cells: &[Cell], reports: &[SloReport], violations: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"ftgm-slo-v1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"violations\": {violations},");
    let _ = writeln!(out, "  \"cells\": [");
    let n = cells.len().min(reports.len());
    for i in 0..n {
        let (Some(c), Some(r)) = (cells.get(i), reports.get(i)) else {
            break;
        };
        let steady = r.steady();
        let fault = r.fault();
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"topology\": \"{}\",", r.topology);
        let _ = writeln!(out, "      \"load\": \"{}\",", c.load);
        let _ = writeln!(out, "      \"fault\": \"{}\",", c.fault);
        let _ = writeln!(out, "      \"variant\": \"{}\",", r.variant);
        let _ = writeln!(
            out,
            "      \"steady_p50_ns\": {},",
            steady.map_or(0, |p| p.p50_ns)
        );
        let _ = writeln!(
            out,
            "      \"steady_p99_ns\": {},",
            steady.map_or(0, |p| p.p99_ns)
        );
        let _ = writeln!(
            out,
            "      \"steady_p999_ns\": {},",
            steady.map_or(0, |p| p.p999_ns)
        );
        let _ = writeln!(
            out,
            "      \"steady_goodput_bytes_per_sec\": {},",
            steady.map_or(0, |p| p.goodput_bytes_per_sec)
        );
        let _ = writeln!(
            out,
            "      \"steady_completed_permille\": {},",
            steady.map_or(0, |p| p.completed_permille)
        );
        let _ = writeln!(
            out,
            "      \"fault_blackout_ns\": {},",
            fault.map_or(0, |p| p.longest_gap_ns)
        );
        let _ = writeln!(
            out,
            "      \"fault_completed\": {},",
            fault.map_or(0, |p| p.completed)
        );
        let _ = writeln!(out, "      \"recoveries\": {},", r.recoveries);
        let _ = writeln!(out, "      \"total_issued\": {},", r.total_issued);
        let _ = writeln!(out, "      \"total_completed\": {}", r.total_completed);
        let _ = writeln!(out, "    }}{}", if i + 1 < n { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = match args.as_slice() {
        [] => Some(2003),
        [seed] => seed.parse().ok(),
        _ => None,
    }
    .unwrap_or_else(|| {
        eprintln!("usage: slo [seed]");
        std::process::exit(1);
    });

    let cells = build_cells(seed);
    let specs: Vec<WorkloadSpec> = cells.iter().map(|c| c.spec.clone()).collect();
    eprintln!("slo: {} cells (seed {seed})…", cells.len());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let reports = run_suite_parallel(&specs, threads);

    // Oracle: steady-state overhead vs the matching GM baseline, and
    // recovery bounds on every faulted cell. The per-message (p50)
    // overhead sits at 3–4 µs — the paper's ≈1.5 µs claim scaled by the
    // simulator's modeled host-API costs — but at p99 under sustained
    // multi-flow load the extra backup work also amplifies queueing, so
    // the p99 bound leaves room for that (worst observed ≈10 µs on the
    // heavy 8-node ring).
    let bounds = SloBounds {
        max_steady_p99_overhead: SimDuration::from_us(12),
        ..SloBounds::default()
    };
    let mut violations: Vec<String> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let Some(r) = reports.get(i) else { continue };
        if c.fault == "none" && r.variant == "ftgm" {
            let baseline = cells.iter().position(|b| {
                b.spec.topology == c.spec.topology
                    && b.load == c.load
                    && b.fault == "none"
                    && matches!(b.spec.variant, Variant::Gm)
            });
            if let Some(b) = baseline.and_then(|j| reports.get(j)) {
                violations.extend(bounds.check_steady_overhead(b, r));
            }
        }
        if c.fault != "none" {
            violations.extend(bounds.check_recovery(r));
        }
    }

    println!("\nRecovery-under-load SLO sweep (seed {seed})\n");
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>13} {:>11}",
        "cell", "p50 µs", "p99 µs", "goodput MB/s", "blackout ms", "recoveries"
    );
    for r in &reports {
        let steady = r.steady();
        let fault = r.fault();
        println!(
            "{:<28} {:>10} {:>10} {:>12} {:>13} {:>11}",
            r.name,
            steady.map_or(0, |p| p.p50_ns / 1_000),
            steady.map_or(0, |p| p.p99_ns / 1_000),
            steady.map_or(0, |p| p.goodput_bytes_per_sec / 1_000_000),
            fault.map_or(0, |p| p.longest_gap_ns / 1_000_000),
            r.recoveries
        );
    }
    for v in &violations {
        println!("violation: {v}");
    }
    println!(
        "\n{} cells, {} SLO violations",
        reports.len(),
        violations.len()
    );

    let summary = summary_json(seed, &cells, &reports, violations.len());
    if let Err(e) = std::fs::write("BENCH_slo.json", &summary) {
        eprintln!("cannot write BENCH_slo.json: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote BENCH_slo.json");

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("cannot create results/: {e}");
        std::process::exit(1);
    }
    let full = reports_to_json(&reports);
    if let Err(e) = std::fs::write("results/slo_summary.json", &full) {
        eprintln!("cannot write results/slo_summary.json: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote results/slo_summary.json");

    if !violations.is_empty() {
        std::process::exit(2);
    }
}
