//! The scale sweep: simulator throughput and recovery blackout on
//! 8/64/256-node fabrics, plus the dual-backend scheduler microbenchmark.
//!
//! Two kinds of cells feed `BENCH_scale.json`:
//!
//! * **Scheduler cells** ([`sched_cells`] / [`run_sched_cell`]) replay one
//!   seed-deterministic push/pop/cancel script — sized like the event
//!   population of an N-node world — through both the calendar-queue
//!   [`Scheduler`] and the legacy [`HeapScheduler`] oracle. Each run folds
//!   every pop and cancel outcome into a checksum; the checksums must
//!   match (a large-scale differential check on top of the
//!   `sched_equivalence` suite) and the calendar queue must hit ≥ 2×
//!   the oracle's events/sec at the 256-node cell.
//! * **World cells** ([`world_cells`] / [`run_world_cell`]) run an FTGM
//!   workload over fat-tree fabrics of 8, 64 and 256 hosts, steady and
//!   with a scripted mid-run hang, recording events/sec, wall time, and
//!   the recovery blackout (which must stay under the paper's 2 s bound
//!   even at 32× the testbed's size).
//!
//! Results split into a *deterministic* part (checksums, event counts,
//! SLO reports — byte-stable across runs and thread counts, see
//! `tests/determinism.rs`) and a *measured* part (wall clock, events/sec)
//! that is machine-dependent by nature.

use std::fmt::Write as _;
use std::time::Instant;

use ftgm_core::FtSystem;
use ftgm_faults::chaos::{ChaosAction, ChaosTopology};
use ftgm_gm::WorldConfig;
use ftgm_sim::{
    EventId, HeapScheduler, Scheduler, SimDuration, SimRng, SimTime,
};
use ftgm_workload::{
    run_spec_on, topology_label, Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, SloReport,
    Variant, WorkloadSpec,
};

// ---------------------------------------------------------------------------
// Scheduler microbenchmark
// ---------------------------------------------------------------------------

/// One scheduler-microbench cell: a hold-model workload with a steady
/// population sized like an N-node world's in-flight event set.
#[derive(Clone, Copy, Debug)]
pub struct SchedCell {
    /// Stable cell label (`sched8`, `sched64`, `sched256`).
    pub label: &'static str,
    /// Node count the population models.
    pub nodes: usize,
    /// Steady event population (32 in-flight events per node).
    pub population: usize,
    /// Hold-model rounds (each pops once and pushes once).
    pub ops: usize,
}

/// The microbench cells. `smoke` keeps only the 8-node cell (the ci.sh
/// gate); the full sweep adds 64 and 256 nodes.
pub fn sched_cells(smoke: bool) -> Vec<SchedCell> {
    let mut cells = vec![SchedCell {
        label: "sched8",
        nodes: 8,
        population: 8 * 32,
        ops: 200_000,
    }];
    if !smoke {
        cells.push(SchedCell {
            label: "sched64",
            nodes: 64,
            population: 64 * 32,
            ops: 600_000,
        });
        cells.push(SchedCell {
            label: "sched256",
            nodes: 256,
            population: 256 * 32,
            ops: 1_200_000,
        });
    }
    cells
}

/// One step of a scheduler script. Gaps are relative to the backend's
/// clock at execution time; because both backends must pop identically,
/// their clocks agree at every step and the script is backend-neutral.
#[derive(Clone, Copy, Debug)]
pub enum SchedOp {
    /// Schedule a new event `gap_ns` after the current clock.
    Push {
        /// Delay from the backend's current `now`.
        gap_ns: u64,
    },
    /// Pop the earliest event, then schedule a replacement (hold model).
    PopPush {
        /// Delay of the replacement from the post-pop clock.
        gap_ns: u64,
    },
    /// Cancel the id returned by the `push_idx`-th push so far. The push
    /// may already have fired or been cancelled — the boolean outcome is
    /// part of the checksum either way.
    Cancel {
        /// Index into the ids issued by preceding pushes.
        push_idx: usize,
    },
}

/// Generates the seed-deterministic op script for a cell.
///
/// Gaps are quantized to 512 ns so duplicate timestamps (FIFO-tie
/// territory) occur constantly, and roughly one round in eight also
/// pushes an extra event and cancels one of the last `population / 2`
/// pushes. A recent push is usually — but not always — still pending,
/// so cancels exercise both the pending and the already-fired paths
/// while keeping the live population steady (each extra push is paid
/// for by a successful cancel) instead of growing without bound.
pub fn sched_script(cell: &SchedCell, seed: u64) -> Vec<SchedOp> {
    let mut rng = SimRng::new(seed ^ 0x5CA1_E000);
    let gap = |rng: &mut SimRng| rng.gen_range(256) * 512;
    let recent = (cell.population / 2).max(1) as u64;
    let mut script = Vec::with_capacity(cell.population + cell.ops + cell.ops / 4);
    let mut pushes = 0usize;
    for _ in 0..cell.population {
        script.push(SchedOp::Push { gap_ns: gap(&mut rng) });
        pushes += 1;
    }
    for round in 0..cell.ops {
        if round % 8 == 7 {
            script.push(SchedOp::Push { gap_ns: gap(&mut rng) });
            pushes += 1;
            script.push(SchedOp::Cancel {
                push_idx: pushes - 1 - rng.gen_range(recent.min(pushes as u64)) as usize,
            });
        }
        script.push(SchedOp::PopPush { gap_ns: gap(&mut rng) });
        pushes += 1;
    }
    script
}

fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for byte in value.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The common surface of both scheduler backends, so one runner drives
/// the calendar queue and the heap oracle identically.
trait ScriptSched {
    fn schedule_in_ns(&mut self, gap_ns: u64, payload: u64) -> EventId;
    fn pop_event(&mut self) -> Option<(SimTime, u64)>;
    fn cancel_id(&mut self, id: EventId) -> bool;
}

impl ScriptSched for Scheduler<u64> {
    fn schedule_in_ns(&mut self, gap_ns: u64, payload: u64) -> EventId {
        self.schedule_in(SimDuration::from_nanos(gap_ns), payload)
    }
    fn pop_event(&mut self) -> Option<(SimTime, u64)> {
        self.pop()
    }
    fn cancel_id(&mut self, id: EventId) -> bool {
        self.cancel(id)
    }
}

impl ScriptSched for HeapScheduler<u64> {
    fn schedule_in_ns(&mut self, gap_ns: u64, payload: u64) -> EventId {
        self.schedule_in(SimDuration::from_nanos(gap_ns), payload)
    }
    fn pop_event(&mut self) -> Option<(SimTime, u64)> {
        self.pop()
    }
    fn cancel_id(&mut self, id: EventId) -> bool {
        self.cancel(id)
    }
}

/// Replays `script` on one backend, folding every pop `(time, payload)`
/// pair and every cancel outcome into an FNV-1a checksum.
fn run_script<S: ScriptSched>(sched: &mut S, script: &[SchedOp]) -> (u64, u64) {
    let mut ids: Vec<EventId> = Vec::with_capacity(script.len());
    let mut payload = 0u64;
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut pops = 0u64;
    for op in script {
        match *op {
            SchedOp::Push { gap_ns } => {
                ids.push(sched.schedule_in_ns(gap_ns, payload));
                payload += 1;
            }
            SchedOp::PopPush { gap_ns } => {
                if let Some((at, ev)) = sched.pop_event() {
                    checksum = fnv1a(checksum, at.as_nanos());
                    checksum = fnv1a(checksum, ev);
                    pops += 1;
                }
                ids.push(sched.schedule_in_ns(gap_ns, payload));
                payload += 1;
            }
            SchedOp::Cancel { push_idx } => {
                let cancelled = sched.cancel_id(ids[push_idx]);
                checksum = fnv1a(checksum, u64::from(cancelled));
            }
        }
    }
    // Drain what's left so the checksum covers total order, not a prefix.
    while let Some((at, ev)) = sched.pop_event() {
        checksum = fnv1a(checksum, at.as_nanos());
        checksum = fnv1a(checksum, ev);
        pops += 1;
    }
    (checksum, pops)
}

/// Result of one scheduler cell: deterministic checksums plus measured
/// wall times for both backends.
#[derive(Clone, Debug)]
pub struct SchedCellResult {
    /// The cell that ran.
    pub cell: SchedCell,
    /// Calendar-queue checksum over pops and cancel outcomes.
    pub cal_checksum: u64,
    /// Heap-oracle checksum; must equal `cal_checksum`.
    pub heap_checksum: u64,
    /// Events actually popped (same for both backends).
    pub pops: u64,
    /// Calendar-queue wall time (measured, machine-dependent).
    pub cal_wall_ns: u64,
    /// Heap-oracle wall time (measured, machine-dependent).
    pub heap_wall_ns: u64,
}

fn events_per_sec(pops: u64, wall_ns: u64) -> u64 {
    if wall_ns == 0 {
        return 0;
    }
    ((u128::from(pops) * 1_000_000_000) / u128::from(wall_ns)) as u64
}

impl SchedCellResult {
    /// Whether both backends produced the identical pop/cancel stream.
    pub fn checksums_match(&self) -> bool {
        self.cal_checksum == self.heap_checksum
    }

    /// Calendar-queue throughput in delivered events per wall second.
    pub fn cal_events_per_sec(&self) -> u64 {
        events_per_sec(self.pops, self.cal_wall_ns)
    }

    /// Heap-oracle throughput in delivered events per wall second.
    pub fn heap_events_per_sec(&self) -> u64 {
        events_per_sec(self.pops, self.heap_wall_ns)
    }

    /// Calendar speedup over the oracle, in permille (2000 = 2×).
    pub fn speedup_permille(&self) -> u64 {
        if self.cal_wall_ns == 0 {
            return 0;
        }
        ((u128::from(self.heap_wall_ns) * 1000) / u128::from(self.cal_wall_ns)) as u64
    }
}

/// Runs one scheduler cell through both backends.
pub fn run_sched_cell(cell: &SchedCell, seed: u64) -> SchedCellResult {
    let script = sched_script(cell, seed);

    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let t = Instant::now();
    let (heap_checksum, heap_pops) = run_script(&mut heap, &script);
    let heap_wall_ns = t.elapsed().as_nanos() as u64;

    let mut cal: Scheduler<u64> = Scheduler::new();
    let t = Instant::now();
    let (cal_checksum, cal_pops) = run_script(&mut cal, &script);
    let cal_wall_ns = t.elapsed().as_nanos() as u64;

    debug_assert_eq!(heap_pops, cal_pops);
    SchedCellResult {
        cell: *cell,
        cal_checksum,
        heap_checksum,
        pops: cal_pops,
        cal_wall_ns,
        heap_wall_ns,
    }
}

// ---------------------------------------------------------------------------
// World cells
// ---------------------------------------------------------------------------

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

/// Result of one world cell: the deterministic SLO report and event
/// count, plus the measured wall time.
#[derive(Clone, Debug)]
pub struct WorldCellResult {
    /// The cell that ran.
    pub cell: ScaleCell,
    /// Full SLO report (deterministic).
    pub report: SloReport,
    /// Scheduler events delivered over the run (deterministic).
    pub events_delivered: u64,
    /// Wall time of the run (measured, machine-dependent).
    pub wall_ns: u64,
}

impl WorldCellResult {
    /// Simulator throughput in delivered events per wall second.
    pub fn events_per_sec(&self) -> u64 {
        events_per_sec(self.events_delivered, self.wall_ns)
    }

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
    let t = Instant::now();
    let report = run_spec_on(&spec, &mut world, Some(&ft));
    let wall_ns = t.elapsed().as_nanos() as u64;
    WorldCellResult {
        cell: cell.clone(),
        report,
        events_delivered: world.events_delivered(),
        wall_ns,
    }
}

// ---------------------------------------------------------------------------
// Oracles and serialization
// ---------------------------------------------------------------------------

/// The paper's recovery bound, applied to every hang cell.
pub const MAX_BLACKOUT: SimDuration = SimDuration::from_secs(2);

/// Required calendar-over-heap speedup at the largest cell, in permille.
pub const MIN_SPEEDUP_PERMILLE: u64 = 2000;

/// Checks every cell against the sweep's oracles. Returns human-readable
/// violations (empty = green).
pub fn check(sched: &[SchedCellResult], worlds: &[WorldCellResult]) -> Vec<String> {
    let mut violations = Vec::new();
    for s in sched {
        if !s.checksums_match() {
            violations.push(format!(
                "{}: calendar/heap pop order diverged (cal {:#x} vs heap {:#x})",
                s.cell.label, s.cal_checksum, s.heap_checksum
            ));
        }
        if s.cell.nodes >= 256 && s.speedup_permille() < MIN_SPEEDUP_PERMILLE {
            violations.push(format!(
                "{}: calendar speedup {}.{:03}x below required 2x",
                s.cell.label,
                s.speedup_permille() / 1000,
                s.speedup_permille() % 1000
            ));
        }
    }
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

fn sched_cell_json(out: &mut String, s: &SchedCellResult, measured: bool, last: bool) {
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"label\": \"{}\",", s.cell.label);
    let _ = writeln!(out, "      \"nodes\": {},", s.cell.nodes);
    let _ = writeln!(out, "      \"population\": {},", s.cell.population);
    let _ = writeln!(out, "      \"ops\": {},", s.cell.ops);
    let _ = writeln!(out, "      \"pops\": {},", s.pops);
    let _ = writeln!(out, "      \"cal_checksum\": {},", s.cal_checksum);
    let _ = writeln!(out, "      \"heap_checksum\": {},", s.heap_checksum);
    let _ = write!(
        out,
        "      \"checksums_match\": {}",
        u64::from(s.checksums_match())
    );
    if measured {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "      \"heap_wall_ns\": {},", s.heap_wall_ns);
        let _ = writeln!(out, "      \"cal_wall_ns\": {},", s.cal_wall_ns);
        let _ = writeln!(
            out,
            "      \"heap_events_per_sec\": {},",
            s.heap_events_per_sec()
        );
        let _ = writeln!(
            out,
            "      \"cal_events_per_sec\": {},",
            s.cal_events_per_sec()
        );
        let _ = writeln!(out, "      \"speedup_permille\": {}", s.speedup_permille());
    } else {
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

fn world_cell_json(out: &mut String, w: &WorldCellResult, measured: bool, last: bool) {
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
    let _ = write!(out, "      \"recoveries\": {}", w.report.recoveries);
    if measured {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "      \"wall_ns\": {},", w.wall_ns);
        let _ = writeln!(out, "      \"events_per_sec\": {}", w.events_per_sec());
    } else {
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

/// Serializes the sweep. With `measured` false the output contains only
/// seed-deterministic values (what `tests/determinism.rs` byte-compares);
/// with `measured` true it adds the wall-clock section `BENCH_scale.json`
/// carries. All values are integers either way.
pub fn summary_json(
    seed: u64,
    sched: &[SchedCellResult],
    worlds: &[WorldCellResult],
    violations: usize,
    measured: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"ftgm-scale-v2\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"violations\": {violations},");
    let _ = writeln!(out, "  \"sched_cells\": [");
    for (i, s) in sched.iter().enumerate() {
        sched_cell_json(&mut out, s, measured, i + 1 == sched.len());
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"world_cells\": [");
    for (i, w) in worlds.iter().enumerate() {
        world_cell_json(&mut out, w, measured, i + 1 == worlds.len());
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_script_is_deterministic() {
        let cell = SchedCell {
            label: "t",
            nodes: 8,
            population: 64,
            ops: 500,
        };
        let a = sched_script(&cell, 42);
        let b = sched_script(&cell, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn small_cell_checksums_match() {
        let cell = SchedCell {
            label: "t",
            nodes: 8,
            population: 128,
            ops: 2_000,
        };
        let r = run_sched_cell(&cell, 7);
        assert!(r.checksums_match(), "cal {:#x} heap {:#x}", r.cal_checksum, r.heap_checksum);
        assert!(r.pops > 0);
    }

    #[test]
    fn deterministic_json_has_no_measured_fields() {
        let cell = SchedCell {
            label: "t",
            nodes: 8,
            population: 32,
            ops: 200,
        };
        let r = run_sched_cell(&cell, 7);
        let json = summary_json(7, &[r], &[], 0, false);
        assert!(!json.contains("wall_ns"), "deterministic JSON leaked wall clock");
        assert!(json.contains("\"cal_checksum\""));
    }
}
