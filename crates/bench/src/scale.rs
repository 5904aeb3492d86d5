//! The scale sweep: recovery blackout and event volume on 8/64/256-node
//! fabrics.
//!
//! World cells ([`world_cells`] / [`run_world_cell`]) run an FTGM
//! workload over fat-tree fabrics of 8, 64 and 256 hosts, steady and
//! with a scripted mid-run hang, recording the event count and the
//! recovery blackout (which must stay under the paper's 2 s bound even
//! at 32× the testbed's size).
//!
//! Every value here is on the simulated clock, so `BENCH_scale.json` is
//! byte-stable across runs and machines (`tests/determinism.rs` renders
//! the sweep and compares it with the committed file). Host time is
//! measured only by the repo benchmark under `benchmark/`.

use std::fmt::Write as _;

use ftgm_core::FtSystem;
use ftgm_faults::chaos::{ChaosAction, ChaosTopology};
use ftgm_gm::WorldConfig;
use ftgm_sim::SimDuration;
use ftgm_workload::{
    run_spec_on, topology_label, Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, SloReport,
    Variant, WorkloadSpec,
};

/// One world cell of the sweep: a fat-tree fabric size × fault mode.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Stable cell label (`fat_tree8_steady`, `fat_tree256_hang`, ...).
    pub label: String,
    /// Fabric shape.
    pub topology: ChaosTopology,
    /// Host count (derived from the topology).
    pub nodes: usize,
    /// Whether a hang is scripted mid-run.
    pub fault: bool,
}

/// Fat-tree shape for `nodes` hosts (8, 64 or 256).
fn fat_tree_for(nodes: usize) -> ChaosTopology {
    match nodes {
        8 => ChaosTopology::FatTree {
            spines: 2,
            leaves: 2,
            hosts_per_leaf: 4,
        },
        64 => ChaosTopology::FatTree {
            spines: 4,
            leaves: 8,
            hosts_per_leaf: 8,
        },
        _ => ChaosTopology::FatTree {
            spines: 8,
            leaves: 16,
            hosts_per_leaf: 16,
        },
    }
}

/// The world cells. `smoke` keeps only the 8-node pair (the ci.sh gate);
/// the full sweep covers {8, 64, 256} × {steady, hang}.
pub fn world_cells(smoke: bool) -> Vec<ScaleCell> {
    let sizes: &[usize] = if smoke { &[8] } else { &[8, 64, 256] };
    let mut cells = Vec::new();
    for &nodes in sizes {
        for fault in [false, true] {
            cells.push(ScaleCell {
                label: format!(
                    "fat_tree{nodes}_{}",
                    if fault { "hang" } else { "steady" }
                ),
                topology: fat_tree_for(nodes),
                nodes,
                fault,
            });
        }
    }
    cells
}

/// The workload spec one cell runs: four flows crossing leaves (two of
/// them terminating on node 0, the hang victim), a warmup → steady
/// timeline, and for fault cells a hang window long enough to cover the
/// full detection → reload → resync episode.
pub fn scale_spec(cell: &ScaleCell, seed: u64) -> WorkloadSpec {
    let n = cell.nodes as u16;
    let spec = WorkloadSpec::new(cell.label.clone(), cell.topology, Variant::Ftgm, seed)
        .flow(FlowSpec {
            src: 1,
            src_port: 0,
            dst: 0,
            dst_port: 2,
            model: ClientModel::ClosedLoop {
                think: SimDuration::from_us(20),
            },
            sizes: SizeMix::Fixed { bytes: 256 },
        })
        .flow(FlowSpec {
            src: n / 2,
            src_port: 0,
            dst: 0,
            dst_port: 3,
            model: ClientModel::OpenLoop {
                arrival: Arrival::Fixed {
                    gap: SimDuration::from_us(50),
                },
            },
            sizes: SizeMix::Fixed { bytes: 512 },
        })
        .flow(FlowSpec {
            src: n - 1,
            src_port: 0,
            dst: n / 2,
            dst_port: 2,
            model: ClientModel::OpenLoop {
                arrival: Arrival::UniformJitter {
                    min: SimDuration::from_us(20),
                    max: SimDuration::from_us(80),
                },
            },
            sizes: SizeMix::Weighted {
                options: vec![(128, 3), (1024, 1)],
            },
        })
        .flow(FlowSpec {
            src: 2,
            src_port: 0,
            dst: n - 1,
            dst_port: 3,
            model: ClientModel::OpenLoop {
                arrival: Arrival::Fixed {
                    gap: SimDuration::from_us(40),
                },
            },
            sizes: SizeMix::Fixed { bytes: 256 },
        });
    if cell.fault {
        spec.phase(PhaseKind::Warmup, SimDuration::from_ms(2))
            .phase(PhaseKind::Steady, SimDuration::from_ms(20))
            .phase(PhaseKind::Fault, SimDuration::from_ms(2300))
            .fault_at(SimDuration::from_ms(10), ChaosAction::ForceHang { node: 0 })
            .phase(PhaseKind::Drain, SimDuration::from_ms(20))
    } else {
        spec.phase(PhaseKind::Warmup, SimDuration::from_ms(2))
            .phase(PhaseKind::Steady, SimDuration::from_ms(60))
            .phase(PhaseKind::Drain, SimDuration::from_ms(10))
    }
}

/// Result of one world cell: the SLO report and the event count.
#[derive(Clone, Debug)]
pub struct WorldCellResult {
    /// The cell that ran.
    pub cell: ScaleCell,
    /// Full SLO report.
    pub report: SloReport,
    /// Scheduler events delivered over the run.
    pub events_delivered: u64,
}

impl WorldCellResult {
    /// Longest completion gap in the fault window (the recovery
    /// blackout), zero for steady cells.
    pub fn blackout_ns(&self) -> u64 {
        self.report.fault().map_or(0, |p| p.longest_gap_ns)
    }
}

/// Runs one world cell end to end.
pub fn run_world_cell(cell: &ScaleCell, seed: u64) -> WorldCellResult {
    let spec = scale_spec(cell, seed);
    let mut world = spec.topology.build(WorldConfig::ftgm());
    let ft = FtSystem::install(&mut world);
    let report = run_spec_on(&spec, &mut world, Some(&ft));
    WorldCellResult {
        cell: cell.clone(),
        report,
        events_delivered: world.events_delivered(),
    }
}

/// The paper's recovery bound, applied to every hang cell.
pub const MAX_BLACKOUT: SimDuration = SimDuration::from_secs(2);

/// Checks every cell against the sweep's oracles. Returns human-readable
/// violations (empty = green).
pub fn check(worlds: &[WorldCellResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for w in worlds {
        if w.cell.fault {
            if w.blackout_ns() >= MAX_BLACKOUT.as_nanos() {
                violations.push(format!(
                    "{}: recovery blackout {} ms breaches the 2 s bound",
                    w.cell.label,
                    w.blackout_ns() / 1_000_000
                ));
            }
            if w.report.recoveries == 0 {
                violations.push(format!("{}: scripted hang never recovered", w.cell.label));
            }
        }
        if w.report.total_completed == 0 {
            violations.push(format!("{}: no traffic completed", w.cell.label));
        }
    }
    violations
}

fn world_cell_json(out: &mut String, w: &WorldCellResult, last: bool) {
    let steady = w.report.steady();
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"label\": \"{}\",", w.cell.label);
    let _ = writeln!(out, "      \"topology\": \"{}\",", topology_label(w.cell.topology));
    let _ = writeln!(out, "      \"nodes\": {},", w.cell.nodes);
    let _ = writeln!(out, "      \"fault\": {},", u64::from(w.cell.fault));
    let _ = writeln!(out, "      \"events_delivered\": {},", w.events_delivered);
    let _ = writeln!(out, "      \"total_issued\": {},", w.report.total_issued);
    let _ = writeln!(out, "      \"total_completed\": {},", w.report.total_completed);
    let _ = writeln!(
        out,
        "      \"steady_p99_ns\": {},",
        steady.map_or(0, |p| p.p99_ns)
    );
    let _ = writeln!(out, "      \"recovery_blackout_ns\": {},", w.blackout_ns());
    let _ = writeln!(out, "      \"recoveries\": {}", w.report.recoveries);
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

/// Serializes the sweep: integers on the simulated clock only, so the
/// bytes depend on nothing but `seed` and the simulator.
pub fn summary_json(seed: u64, worlds: &[WorldCellResult], violations: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"ftgm-scale-v3\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"violations\": {violations},");
    let _ = writeln!(out, "  \"world_cells\": [");
    for (i, w) in worlds.iter().enumerate() {
        world_cell_json(&mut out, w, i + 1 == worlds.len());
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
