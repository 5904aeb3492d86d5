//! MPI-tier sweep: collectives and one-sided ops at 256–1024 ranks,
//! with and without mid-operation interface failures. Writes
//! `BENCH_mpi.json` via the `mpi` binary.
//!
//! Every fault cell is paired with a fault-free *twin* (same pattern,
//! same rank count, same op stream, no injection). The oracles are the
//! paper's promise restated at application scale:
//!
//! - **Bit-identical results.** A transient NIC hang (FTGM transparent
//!   recovery) and a permanent NIC death repaired by a spare-node
//!   restart must both produce exactly the twin's checksum. Shrink
//!   cells re-plan over the survivors, so their results legitimately
//!   differ — their oracle is typed faults plus completion, not
//!   equality.
//! - **Bounded blackout.** The faulted run finishes less than 2 s of
//!   simulated time after its twin.
//! - **No silent hangs.** Every cell completes within the horizon and
//!   no rank exits through the pre-fault-tolerant fatal path.
//!
//! Checksums fold only simulation-determined values (reduce results,
//! broadcast payloads, halo faces, window bytes) and every other field
//! is a count or a simulated-clock instant, so the output is byte-stable
//! across runs, hosts and thread counts.

// What is computed here can reach a byte-stable report (the goldens,
// BENCH_*.json); float arithmetic needs a reasoned `#[expect]`.
#![deny(clippy::float_arithmetic)]

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::FtSystem;
use ftgm_gm::WorldConfig;
use ftgm_mpi::{
    MpiHarness, Op, OpResult, RankProgram, RecoveryConfig, RestartPolicy,
};
use ftgm_sim::{json, map_indexed, SimDuration};

/// Which communication pattern the cell's ranks run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiPattern {
    /// Ring all-reduce (bandwidth-optimal, 2(n−1) steps).
    ArRing,
    /// Recursive-doubling all-reduce (⌈log₂ n⌉ rounds).
    ArRd,
    /// Binomial broadcast, rotating root.
    Bcast,
    /// 2-D torus halo exchange.
    Halo,
    /// One-sided put/flush/get against a replicated window.
    Rma,
}

impl MpiPattern {
    fn name(self) -> &'static str {
        match self {
            MpiPattern::ArRing => "ar-ring",
            MpiPattern::ArRd => "ar-rd",
            MpiPattern::Bcast => "bcast",
            MpiPattern::Halo => "halo",
            MpiPattern::Rma => "rma",
        }
    }
}

/// What gets injected mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiFault {
    /// Fault-free twin.
    None,
    /// Transient network-processor hang; FTGM recovers transparently.
    Hang,
    /// Permanent interface death; a hot spare takes over the dead
    /// rank(s) and replays from the last checkpoint.
    Spare,
    /// Permanent interface death; collectives re-plan over survivors.
    Shrink,
    /// Permanent death of the RMA window owner; gets are served by the
    /// replica copy.
    Replica,
}

impl MpiFault {
    fn name(self) -> &'static str {
        match self {
            MpiFault::None => "none",
            MpiFault::Hang => "hang",
            MpiFault::Spare => "spare",
            MpiFault::Shrink => "shrink",
            MpiFault::Replica => "replica",
        }
    }
}

/// One sweep cell.
#[derive(Clone, Copy, Debug)]
pub struct MpiCell {
    /// Display / JSON label, `pattern-ranks-fault`.
    pub label: &'static str,
    /// Communication pattern.
    pub pattern: MpiPattern,
    /// Job size in ranks (epoch 0).
    pub ranks: u32,
    /// Injection mode.
    pub fault: MpiFault,
    /// Collective iterations per rank (a checkpoint every second one).
    pub iters: u32,
}

/// What one cell produced.
#[derive(Clone, Debug)]
pub struct MpiCellResult {
    /// The cell that ran.
    pub cell: MpiCell,
    /// Every live rank's program ran to completion within the horizon.
    pub completed: bool,
    /// Ranks that reported a final value.
    pub finishers: u32,
    /// FNV-1a fold of every finisher's `(rank, final)` pair, sorted.
    pub checksum: u64,
    /// Typed `OpResult::Fault`s delivered to programs.
    pub faults_delivered: u64,
    /// GM send errors absorbed by the recovery layer.
    pub gm_send_errors: u64,
    /// Errors surfaced with no recovery path (MPI would abort).
    pub fatal_errors: u64,
    /// Spare respawns performed.
    pub respawns: u64,
    /// Logged collectives re-executed for a spare restart.
    pub replayed_instances: u64,
    /// Checkpoints stored on buddy ranks.
    pub checkpoints_stored: u64,
    /// FTGM transparent recoveries on the injected node.
    pub recoveries: u64,
    /// Simulated completion time, ns (0 when the job never finished).
    pub completion_ns: u64,
}

/// Ranks that live on the injected node (the failure unit is the NIC,
/// so every rank sharing it dies together).
fn ranks_per_host(ranks: u32, pattern: MpiPattern) -> u32 {
    match (ranks, pattern) {
        (1024, MpiPattern::Halo) => 4,
        (1024, _) => 2,
        _ => 1,
    }
}

/// The sweep. Smoke mode keeps only the small cells ci.sh can afford.
pub fn mpi_cells(smoke: bool) -> Vec<MpiCell> {
    use MpiFault::*;
    use MpiPattern::*;
    let cell = |label, pattern, ranks, fault, iters| MpiCell {
        label,
        pattern,
        ranks,
        fault,
        iters,
    };
    if smoke {
        return vec![
            cell("ar-rd-16-none", ArRd, 16, None, 6),
            cell("ar-rd-16-spare", ArRd, 16, Spare, 6),
            cell("bcast-16-none", Bcast, 16, None, 6),
            cell("bcast-16-hang", Bcast, 16, Hang, 6),
            cell("rma-8-none", Rma, 8, None, 6),
            cell("rma-8-replica", Rma, 8, Replica, 6),
        ];
    }
    vec![
        // The ISSUE matrix: {allreduce, broadcast, halo} × {256, 1024}
        // × {none, hang, spare}.
        cell("ar-rd-256-none", ArRd, 256, None, 6),
        cell("ar-rd-256-hang", ArRd, 256, Hang, 6),
        cell("ar-rd-256-spare", ArRd, 256, Spare, 6),
        cell("ar-rd-1024-none", ArRd, 1024, None, 6),
        cell("ar-rd-1024-hang", ArRd, 1024, Hang, 6),
        cell("ar-rd-1024-spare", ArRd, 1024, Spare, 6),
        cell("bcast-256-none", Bcast, 256, None, 6),
        cell("bcast-256-hang", Bcast, 256, Hang, 6),
        cell("bcast-256-spare", Bcast, 256, Spare, 6),
        cell("bcast-1024-none", Bcast, 1024, None, 6),
        cell("bcast-1024-hang", Bcast, 1024, Hang, 6),
        cell("bcast-1024-spare", Bcast, 1024, Spare, 6),
        cell("halo-256-none", Halo, 256, None, 6),
        cell("halo-256-hang", Halo, 256, Hang, 6),
        cell("halo-256-spare", Halo, 256, Spare, 6),
        cell("halo-1024-none", Halo, 1024, None, 6),
        cell("halo-1024-hang", Halo, 1024, Hang, 6),
        cell("halo-1024-spare", Halo, 1024, Spare, 6),
        // Cross-checks and the one-sided tier.
        cell("ar-ring-256-none", ArRing, 256, None, 6),
        cell("ar-rd-256-shrink", ArRd, 256, Shrink, 6),
        cell("rma-256-none", Rma, 256, None, 6),
        cell("rma-256-replica", Rma, 256, Replica, 6),
    ]
}

fn fnv1a(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Deterministic per-(seed, rank, iter, lane) contribution.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for v in [seed, a, b, c] {
        h = fnv1a(h, v);
    }
    h
}

// ---------------------------------------------------------------------------
// Rank programs.
// ---------------------------------------------------------------------------

/// Shared tally of `(rank, final value)` pairs.
type Finals = Rc<RefCell<Vec<(u32, u64)>>>;

/// `iters` collective iterations with a checkpoint every second one.
/// Under the shrink policy a fault is a phase boundary: progress resets
/// and the survivors redo the whole loop on the shrunk communicator.
struct CollectiveProgram {
    pattern: MpiPattern,
    seed: u64,
    iters: u32,
    iter: u32,
    acc: u64,
    ckpt_pending: bool,
    finals: Finals,
}

impl CollectiveProgram {
    fn encode(&self) -> Vec<u8> {
        let mut s = self.iter.to_le_bytes().to_vec();
        s.extend_from_slice(&self.acc.to_le_bytes());
        s
    }

    fn values(&self, rank: u32) -> Vec<u64> {
        (0..4)
            .map(|lane| mix(self.seed, u64::from(rank), u64::from(self.iter), lane))
            .collect()
    }
}

impl RankProgram for CollectiveProgram {
    fn next_op(&mut self, rank: u32, nranks: u32, last: Option<OpResult>) -> Option<Op> {
        match last {
            Some(OpResult::AllReduceSum { values }) => {
                for v in values {
                    self.acc = fnv1a(self.acc, v);
                }
                self.iter += 1;
                self.ckpt_pending = self.iter.is_multiple_of(2);
            }
            Some(OpResult::Broadcast { data }) => {
                self.acc = fnv_bytes(self.acc, &data);
                self.iter += 1;
                self.ckpt_pending = self.iter.is_multiple_of(2);
            }
            Some(OpResult::HaloDone { recv }) => {
                for face in &recv {
                    self.acc = fnv_bytes(self.acc, face);
                }
                self.iter += 1;
                self.ckpt_pending = self.iter.is_multiple_of(2);
            }
            Some(OpResult::CheckpointDone { .. }) => self.ckpt_pending = false,
            Some(OpResult::Fault(_)) => {
                // Shrink semantics: restart the phase on the survivors.
                self.iter = 0;
                self.acc = 0;
                self.ckpt_pending = false;
            }
            _ => {}
        }
        if self.ckpt_pending {
            return Some(Op::Checkpoint { state: self.encode() });
        }
        if self.iter < self.iters {
            return Some(match self.pattern {
                MpiPattern::ArRing => Op::AllReduceSum { values: self.values(rank) },
                MpiPattern::ArRd => Op::AllReduceSumRd { values: self.values(rank) },
                MpiPattern::Bcast => {
                    let root = self.iter % nranks;
                    let data = (rank == root).then(|| {
                        (0..32)
                            .map(|j| mix(self.seed, u64::from(self.iter), j, 7) as u8)
                            .collect()
                    });
                    Op::Broadcast { root, data }
                }
                MpiPattern::Halo => {
                    let face = |dir: u64| -> Vec<u8> {
                        (0..16)
                            .map(|j| {
                                mix(self.seed, u64::from(rank), u64::from(self.iter), dir * 16 + j)
                                    as u8
                            })
                            .collect()
                    };
                    Op::HaloExchange { sends: [face(0), face(1), face(2), face(3)] }
                }
                MpiPattern::Rma => unreachable!("RMA cells use RmaProgram"),
            });
        }
        self.finals.borrow_mut().push((rank, self.acc));
        None
    }

    fn on_restore(&mut self, state: &[u8]) {
        if state.len() >= 12 {
            self.iter = u32::from_le_bytes(state[..4].try_into().unwrap());
            self.acc = u64::from_le_bytes(state[4..12].try_into().unwrap());
        }
        // Re-issue the checkpoint we restored from (the replay contract).
        self.ckpt_pending = true;
    }
}

/// Rank 1 owns the window; every other rank puts an 8-byte slot, then —
/// `iters` barriers later, so the job is still alive when the injection
/// lands — reads the whole window back. The put is idempotent, so the
/// shrink fault handler can simply restart the sequence.
struct RmaProgram {
    seed: u64,
    iters: u32,
    /// Epoch-0 job size: the window extent must not track a shrunk
    /// communicator or the faulted cell's gets read a shorter span
    /// than the twin's.
    job_ranks: u32,
    step: u32,
    acc: u64,
    finals: Finals,
}

const RMA_OWNER: u32 = 1;
const RMA_WIN: u32 = 0;

impl RankProgram for RmaProgram {
    fn next_op(&mut self, rank: u32, _nranks: u32, last: Option<OpResult>) -> Option<Op> {
        if let Some(OpResult::Fault(_)) = last {
            // Restart the (idempotent) sequence on the shrunk world.
            self.step = 0;
            self.acc = 0;
        } else if let Some(OpResult::GetDone { data }) = last {
            self.acc = fnv_bytes(self.acc, &data);
            self.step += 1;
        } else if last.is_some() {
            self.step += 1;
        }
        // Steps: 0 create (owner) / put (others), 1 flush, 2.. barriers,
        // last: get (others).
        let barriers = 2 + self.iters;
        let op = match self.step {
            0 if rank == RMA_OWNER => Some(Op::WinCreate { win: RMA_WIN }),
            0 => Some(Op::Put {
                owner: RMA_OWNER,
                win: RMA_WIN,
                offset: u64::from(rank) * 8,
                data: mix(self.seed, u64::from(rank), 0, 0).to_le_bytes().to_vec(),
            }),
            1 => Some(Op::Flush),
            s if s < barriers => Some(Op::Barrier),
            s if s == barriers && rank != RMA_OWNER => Some(Op::Get {
                owner: RMA_OWNER,
                win: RMA_WIN,
                offset: 0,
                len: u64::from(self.job_ranks) * 8,
            }),
            _ => None,
        };
        if op.is_none() && rank != RMA_OWNER {
            self.finals.borrow_mut().push((rank, self.acc));
        }
        op
    }
}

// ---------------------------------------------------------------------------
// Running a cell.
// ---------------------------------------------------------------------------

fn build_harness(cell: &MpiCell) -> MpiHarness {
    let config = WorldConfig::ftgm();
    let rph = ranks_per_host(cell.ranks, cell.pattern) as usize;
    match (cell.pattern, cell.ranks) {
        (MpiPattern::Rma, 256) => MpiHarness::fat_tree(4, 16, 16, 1, 0, config),
        (MpiPattern::Rma, n) => MpiHarness::star(n as usize, config),
        (MpiPattern::Halo, 256) => MpiHarness::torus(16, 17, 1, 16, config),
        (MpiPattern::Halo, 1024) => MpiHarness::torus(16, 17, 4, 16, config),
        (_, 16) => MpiHarness::fat_tree(2, 5, 4, 1, 4, config),
        (_, 256) => MpiHarness::fat_tree(4, 17, 16, 1, 16, config),
        (_, 1024) => MpiHarness::fat_tree(8, 33, 16, rph, 16, config),
        (p, n) => panic!("no topology for {p:?} at {n} ranks"),
    }
}

/// The rank whose node gets the injection: deep in the job for
/// collectives (so a third of the ranks sit "behind" it in every ring
/// and tree), the window owner for RMA replica cells.
fn injected_rank(cell: &MpiCell) -> u32 {
    match cell.fault {
        MpiFault::Replica => RMA_OWNER,
        _ => cell.ranks / 3,
    }
}

/// Runs one cell to completion and collects its metrics. `inject_at`
/// sets the injection instant for fault cells — [`run_cells`] uses half
/// the fault-free twin's completion time, so the failure always lands
/// mid-operation regardless of how fast the cell runs.
pub fn run_mpi_cell(cell: &MpiCell, seed: u64, inject_at: SimDuration) -> MpiCellResult {
    let mut h = build_harness(cell);
    assert_eq!(h.nranks(), cell.ranks, "{}: topology sizing", cell.label);
    let ft = FtSystem::install(&mut h.world);
    match cell.fault {
        MpiFault::Spare => {
            h.enable_recovery(RecoveryConfig::with_policy(RestartPolicy::Spare))
        }
        MpiFault::Shrink | MpiFault::Replica => {
            h.enable_recovery(RecoveryConfig::with_policy(RestartPolicy::Shrink))
        }
        MpiFault::None | MpiFault::Hang => {}
    }

    let finals: Finals = Rc::new(RefCell::new(Vec::new()));
    let (pattern, cseed, iters, job_ranks) = (cell.pattern, seed, cell.iters, cell.ranks);
    let f2 = Rc::clone(&finals);
    h.spawn_all(4096, move |_rank| -> Box<dyn RankProgram> {
        if pattern == MpiPattern::Rma {
            Box::new(RmaProgram {
                seed: cseed,
                iters,
                job_ranks,
                step: 0,
                acc: 0,
                finals: Rc::clone(&f2),
            })
        } else {
            Box::new(CollectiveProgram {
                pattern,
                seed: cseed,
                iters,
                iter: 0,
                acc: 0,
                ckpt_pending: false,
                finals: Rc::clone(&f2),
            })
        }
    });

    let target = injected_rank(cell);
    let node = h.shared.membership.borrow().specs[target as usize].node;
    match cell.fault {
        MpiFault::None => {}
        MpiFault::Hang => {
            h.world.run_for(inject_at);
            ft.inject_forced_hang(&mut h.world, node);
        }
        MpiFault::Spare | MpiFault::Shrink | MpiFault::Replica => {
            h.world.run_for(inject_at);
            ft.escalate_isolated(&mut h.world, node);
        }
    }

    let done = h.run_until_done(SimDuration::from_secs(60));
    let state = h.state.borrow();
    let mut tally = finals.borrow().clone();
    tally.sort_unstable();
    let mut checksum = 0xCBF2_9CE4_8422_2325;
    for &(rank, v) in &tally {
        checksum = fnv1a(checksum, u64::from(rank));
        checksum = fnv1a(checksum, v);
    }
    MpiCellResult {
        cell: *cell,
        completed: done.is_some(),
        finishers: tally.len() as u32,
        checksum,
        faults_delivered: state.faults_delivered,
        gm_send_errors: state.gm_send_errors,
        fatal_errors: state.fatal_errors,
        respawns: state.respawns,
        replayed_instances: state.replayed_instances,
        checkpoints_stored: state.checkpoints_stored,
        recoveries: ft.recoveries(node),
        completion_ns: done.map_or(0, |t| t.saturating_since(ftgm_sim::SimTime::ZERO).as_nanos()),
    }
}

/// Runs every cell across `threads` workers, returning results in cell
/// order. Fault-free twins run first; each fault cell's injection then
/// lands at half its twin's completion time, guaranteed mid-run. Every
/// cell is one self-contained simulated world and the pass split is by
/// cell kind, so the result vector is identical for any worker count —
/// the determinism tests compare 1 vs 3.
pub fn run_cells(cells: &[MpiCell], seed: u64, threads: usize) -> Vec<MpiCellResult> {
    let is_twin = |i: usize| cells[i].fault == MpiFault::None;
    let run = |i: usize, inject_at: SimDuration| {
        eprintln!("  cell {}…", cells[i].label);
        run_mpi_cell(&cells[i], seed, inject_at)
    };
    // One pass per cell kind, each filling only its own kind's slots.
    let twins = map_indexed(cells.len(), threads, |i| is_twin(i).then(|| run(i, SimDuration::ZERO)));
    let done: Vec<MpiCellResult> = twins.iter().flatten().cloned().collect();
    let faulted = map_indexed(cells.len(), threads, |i| {
        (!is_twin(i)).then(|| {
            let twin_ns = twin_of(&done, &cells[i]).map_or(0, |t| t.completion_ns);
            run(i, SimDuration::from_nanos(twin_ns / 2))
        })
    });
    twins.into_iter().zip(faulted).filter_map(|(t, f)| t.or(f)).collect()
}

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

/// The fault-free twin of a fault cell: same pattern, same rank count.
fn twin_of<'a>(results: &'a [MpiCellResult], cell: &MpiCell) -> Option<&'a MpiCellResult> {
    results.iter().find(|r| {
        r.cell.pattern == cell.pattern
            && r.cell.ranks == cell.ranks
            && r.cell.fault == MpiFault::None
    })
}

/// Recovery blackout: how much later than its twin a faulted cell
/// finished, in simulated ns (0 when either never finished).
pub fn blackout_ns(results: &[MpiCellResult], r: &MpiCellResult) -> u64 {
    match twin_of(results, &r.cell) {
        Some(t) if r.completed && t.completed => {
            r.completion_ns.saturating_sub(t.completion_ns)
        }
        _ => 0,
    }
}

const BLACKOUT_BUDGET_NS: u64 = 2_000_000_000;

/// Checks every oracle; returns human-readable violations (empty = pass).
pub fn check(results: &[MpiCellResult]) -> Vec<String> {
    let mut v = Vec::new();
    let mut fail = |msg: String| v.push(msg);
    for r in results {
        let label = r.cell.label;
        if !r.completed {
            fail(format!("{label}: silent hang — job missed the 60 s horizon"));
            continue;
        }
        if r.fatal_errors != 0 {
            fail(format!("{label}: {} fatal (unrecovered) errors", r.fatal_errors));
        }
        let rph = ranks_per_host(r.cell.ranks, r.cell.pattern) as u64;
        let twin = twin_of(results, &r.cell);
        match r.cell.fault {
            MpiFault::None => {
                if r.faults_delivered != 0 || r.respawns != 0 || r.recoveries != 0 {
                    fail(format!("{label}: fault-free cell saw recovery activity"));
                }
            }
            MpiFault::Hang => {
                if r.recoveries == 0 {
                    fail(format!("{label}: transparent recovery never ran"));
                }
                if r.faults_delivered != 0 || r.respawns != 0 {
                    fail(format!("{label}: a transient hang leaked to the app"));
                }
            }
            MpiFault::Spare => {
                if r.respawns != rph {
                    fail(format!("{label}: {} respawns, expected {rph}", r.respawns));
                }
                if r.replayed_instances == 0 {
                    fail(format!("{label}: spare restart replayed nothing"));
                }
            }
            MpiFault::Shrink => {
                if r.faults_delivered == 0 {
                    fail(format!("{label}: shrink delivered no typed faults"));
                }
                if u64::from(r.cell.ranks - r.finishers) != rph {
                    fail(format!(
                        "{label}: {} finishers of {} ranks (lost host held {rph})",
                        r.finishers, r.cell.ranks
                    ));
                }
            }
            MpiFault::Replica => {
                if r.finishers != r.cell.ranks - 1 {
                    fail(format!(
                        "{label}: {} finishers, expected every non-owner rank",
                        r.finishers
                    ));
                }
            }
        }
        // Result equality and blackout, against the twin.
        if let Some(t) = twin {
            let identical = matches!(
                r.cell.fault,
                MpiFault::Hang | MpiFault::Spare | MpiFault::Replica
            );
            if identical && r.checksum != t.checksum {
                fail(format!(
                    "{label}: checksum {:016x} != fault-free twin {:016x}",
                    r.checksum, t.checksum
                ));
            }
            if r.cell.fault != MpiFault::None {
                let b = blackout_ns(results, r);
                if b >= BLACKOUT_BUDGET_NS {
                    fail(format!("{label}: blackout {b} ns >= 2 s budget"));
                }
                if b == 0 && r.cell.fault == MpiFault::Hang {
                    fail(format!("{label}: hang had no effect (injected too late?)"));
                }
            }
        } else if r.cell.fault != MpiFault::None {
            fail(format!("{label}: no fault-free twin in the sweep"));
        }
    }
    // Cross-algorithm agreement: ring and recursive doubling reduce to
    // the same totals, so their fault-free checksums must match.
    let ring = results.iter().find(|r| r.cell.label == "ar-ring-256-none");
    let rd = results.iter().find(|r| r.cell.label == "ar-rd-256-none");
    if let (Some(a), Some(b)) = (ring, rd) {
        if a.checksum != b.checksum {
            fail(format!(
                "ring/rd divergence: {:016x} != {:016x}",
                a.checksum, b.checksum
            ));
        }
    }
    v
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

fn cell_json(o: &mut json::Object<'_>, results: &[MpiCellResult], r: &MpiCellResult) {
    let c = &r.cell;
    o.field("label", c.label).field("pattern", c.pattern.name());
    o.field("ranks", c.ranks).field("fault", c.fault.name());
    o.field("iters", c.iters).field("completed", r.completed);
    o.field("finishers", r.finishers);
    o.field("checksum", format!("{:016x}", r.checksum));
    o.field("faults_delivered", r.faults_delivered);
    o.field("gm_send_errors", r.gm_send_errors);
    o.field("fatal_errors", r.fatal_errors).field("respawns", r.respawns);
    o.field("replayed_instances", r.replayed_instances);
    o.field("checkpoints_stored", r.checkpoints_stored);
    o.field("recoveries", r.recoveries);
    o.field("completion_ns", r.completion_ns);
    o.field("blackout_ns", blackout_ns(results, r));
}

/// Renders the sweep as JSON: simulation-determined integers only, so it
/// is byte-identical across runs, hosts, and worker thread counts — the
/// determinism tests compare it with the committed `BENCH_mpi.json`.
pub fn summary_json(seed: u64, results: &[MpiCellResult], violations: usize) -> String {
    json::document(|o| {
        o.field("schema", "ftgm-mpi-v2").field("seed", seed);
        o.field("violations", violations);
        o.field("cells", json::rows(|a| {
            for r in results {
                a.item(json::object(|o| cell_json(o, results, r)));
            }
        }));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_cell_has_a_twin() {
        for smoke in [true, false] {
            let cells = mpi_cells(smoke);
            for c in &cells {
                if c.fault != MpiFault::None {
                    assert!(
                        cells.iter().any(|t| t.pattern == c.pattern
                            && t.ranks == c.ranks
                            && t.fault == MpiFault::None),
                        "{} lacks a fault-free twin",
                        c.label
                    );
                }
            }
        }
    }

    #[test]
    fn labels_follow_pattern_ranks_fault() {
        for c in mpi_cells(false) {
            assert_eq!(
                c.label,
                format!("{}-{}-{}", c.pattern.name(), c.ranks, c.fault.name()),
                "label/field mismatch"
            );
        }
    }

    #[test]
    fn smoke_cell_runs_and_checks_clean() {
        let cells = mpi_cells(true);
        let results = run_cells(&cells[..2], 7, 1);
        assert!(results.iter().all(|r| r.completed));
        // The pair is (none, spare): identical results, one respawn.
        assert_eq!(results[0].checksum, results[1].checksum);
        assert_eq!(results[1].respawns, 1);
        let json = summary_json(7, &results, 0);
        assert!(json.contains("\"schema\": \"ftgm-mpi-v2\""));
    }
}
