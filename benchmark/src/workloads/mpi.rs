//! `mpi256`: the MPI tier at 256 ranks. Three fault-free cells —
//! recursive-doubling all-reduce, broadcast, halo exchange — and the
//! all-reduce again with a NIC killed for good half way through, repaired
//! by a spare-host restart. The cost of that recovery only means
//! something next to the failure-free run of the same job, so the
//! faulted cell runs exactly its twin's iterations: checksums and
//! completion times compare one to one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ftgm_core::FtSystem;
use ftgm_gm::WorldConfig;
use ftgm_mpi::{MpiHarness, Op, OpResult, RankProgram, RecoveryConfig, RestartPolicy};
use ftgm_sim::{SimDuration, SimTime};

use crate::child::{ChildArgs, Outcome, Prepared};
use crate::flows::{put_hops, put_layer_counts, put_layer_host, Measured};
use crate::inputs::{fnv1a, fnv_bytes, FNV_OFFSET};
use crate::layers::{run_kernels, CallMix, Counters};
use crate::trace::Tracer;

const RANKS: u32 = 256;
/// Collective iterations per requested second, per cell.
const ITERS_PER_SECOND: u64 = 4;
/// The rank whose NIC dies is drawn from the middle half of the job, so
/// a good share of the ranks sit behind it in every tree.
fn doomed_rank(seed: u64) -> u32 {
    RANKS / 4 + (mix(seed, 0xD00D, 0, 0) % u64::from(RANKS / 2)) as u32
}
const HORIZON: SimDuration = SimDuration::from_secs(60);
/// All-reduce, broadcast, halo, all-reduce with the spare restart.
const CELLS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pattern {
    ArRd,
    Bcast,
    Halo,
}

impl Pattern {
    /// Payload bytes the ranks hand one collective.
    fn bytes_per_op(self) -> u64 {
        u64::from(RANKS)
            * match self {
                Pattern::ArRd | Pattern::Bcast => 32,
                Pattern::Halo => 64,
            }
    }
}

/// Seed-derived payload word for `(a, b, c)`.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    [seed, a, b, c].into_iter().fold(FNV_OFFSET, fnv1a)
}

fn ar_values(seed: u64, rank: u32, iter: u32) -> Vec<u64> {
    (0..4)
        .map(|lane| mix(seed, u64::from(rank), u64::from(iter), lane))
        .collect()
}

fn bcast_data(seed: u64, iter: u32) -> Vec<u8> {
    (0..32)
        .map(|j| mix(seed, u64::from(iter), j, 7) as u8)
        .collect()
}

/// What every rank of a fault-free cell must end with, worked out without
/// the MPI tier; `None` for the halo, whose result depends on placement.
fn expected_final(pattern: Pattern, seed: u64, iters: u32) -> Option<u64> {
    let mut acc = 0u64;
    for iter in 0..iters {
        match pattern {
            Pattern::ArRd => {
                for lane in 0..4 {
                    let sum = (0..RANKS).fold(0u64, |s, rank| {
                        s.wrapping_add(mix(seed, u64::from(rank), u64::from(iter), lane))
                    });
                    acc = fnv1a(acc, sum);
                }
            }
            Pattern::Bcast => acc = fnv_bytes(acc, &bcast_data(seed, iter)),
            Pattern::Halo => return None,
        }
    }
    Some(acc)
}

type Finals = Rc<RefCell<Vec<(u32, u64)>>>;

/// `iters` collectives, folding every result into `acc`, with a
/// checkpoint after every second one.
struct Collectives {
    pattern: Pattern,
    seed: u64,
    iters: u32,
    iter: u32,
    acc: u64,
    checkpoint_due: bool,
    finals: Finals,
    faults: Rc<RefCell<u64>>,
}

impl RankProgram for Collectives {
    fn next_op(&mut self, rank: u32, nranks: u32, last: Option<OpResult>) -> Option<Op> {
        let mut advanced = true;
        match last {
            Some(OpResult::AllReduceSum { values }) => {
                self.acc = values.into_iter().fold(self.acc, fnv1a);
            }
            Some(OpResult::Broadcast { data }) => self.acc = fnv_bytes(self.acc, &data),
            Some(OpResult::HaloDone { recv }) => {
                self.acc = recv.iter().fold(self.acc, |acc, face| fnv_bytes(acc, face));
            }
            Some(OpResult::CheckpointDone { .. }) => {
                self.checkpoint_due = false;
                advanced = false;
            }
            // The spare policy never shows a program a fault.
            Some(OpResult::Fault(_)) => {
                *self.faults.borrow_mut() += 1;
                advanced = false;
            }
            _ => advanced = false,
        }
        if advanced {
            self.iter += 1;
            self.checkpoint_due = self.iter.is_multiple_of(2);
        }
        if self.checkpoint_due {
            let mut state = self.iter.to_le_bytes().to_vec();
            state.extend_from_slice(&self.acc.to_le_bytes());
            return Some(Op::Checkpoint { state });
        }
        if self.iter >= self.iters {
            self.finals.borrow_mut().push((rank, self.acc));
            return None;
        }
        Some(match self.pattern {
            Pattern::ArRd => Op::AllReduceSumRd {
                values: ar_values(self.seed, rank, self.iter),
            },
            Pattern::Bcast => {
                let root = self.iter % nranks;
                Op::Broadcast {
                    root,
                    data: (rank == root).then(|| bcast_data(self.seed, self.iter)),
                }
            }
            Pattern::Halo => {
                let face = |dir: u64| -> Vec<u8> {
                    (0..16)
                        .map(|j| {
                            mix(
                                self.seed,
                                u64::from(rank),
                                u64::from(self.iter),
                                dir * 16 + j,
                            ) as u8
                        })
                        .collect()
                };
                Op::HaloExchange {
                    sends: [face(0), face(1), face(2), face(3)],
                }
            }
        })
    }

    fn on_restore(&mut self, state: &[u8]) {
        if let (Some(iter), Some(acc)) = (state.get(..4), state.get(4..12)) {
            self.iter = u32::from_le_bytes(iter.try_into().expect("four bytes"));
            self.acc = u64::from_le_bytes(acc.try_into().expect("eight bytes"));
        }
        // The replay contract: re-issue the checkpoint restored from.
        self.checkpoint_due = true;
    }
}

struct Cell {
    label: &'static str,
    pattern: Pattern,
    spare: bool,
    harness: MpiHarness,
    ft: FtSystem,
    finals: Finals,
    faults: Rc<RefCell<u64>>,
}

pub struct Mpi {
    cells: Vec<Cell>,
    iters: u32,
    build_s: f64,
}

fn build_harness(pattern: Pattern) -> (MpiHarness, FtSystem) {
    // 256 job hosts and 16 hot spares either way.
    let mut harness = match pattern {
        Pattern::Halo => MpiHarness::torus(16, 17, 1, 16, WorldConfig::ftgm()),
        _ => MpiHarness::fat_tree(4, 17, 16, 1, 16, WorldConfig::ftgm()),
    };
    let ft = FtSystem::install(&mut harness.world);
    (harness, ft)
}

pub fn prepare(args: &ChildArgs) -> Mpi {
    let iters = (ITERS_PER_SECOND * args.seconds) as u32;
    let mut build_s = 0.0;
    let cells = [
        ("ar-rd", Pattern::ArRd, false),
        ("bcast", Pattern::Bcast, false),
        ("halo", Pattern::Halo, false),
        ("ar-rd-spare", Pattern::ArRd, true),
    ]
    .into_iter()
    // Twice over: see `Mpi::run`.
    .cycle()
    .take(2 * CELLS)
    .map(|(label, pattern, spare)| {
        let t = Instant::now();
        let (mut harness, ft) = build_harness(pattern);
        build_s += t.elapsed().as_secs_f64();
        assert_eq!(harness.nranks(), RANKS, "{label}: topology sizing");
        if spare {
            harness.enable_recovery(RecoveryConfig::with_policy(RestartPolicy::Spare));
        }
        let finals: Finals = Rc::default();
        let faults = Rc::new(RefCell::new(0u64));
        let (seed, f, fl) = (args.seed, finals.clone(), faults.clone());
        harness.spawn_all(4096, move |_rank| -> Box<dyn RankProgram> {
            Box::new(Collectives {
                pattern,
                seed,
                iters,
                iter: 0,
                acc: 0,
                checkpoint_due: false,
                finals: f.clone(),
                faults: fl.clone(),
            })
        });
        Cell {
            label,
            pattern,
            spare,
            harness,
            ft,
            finals,
            faults,
        }
    })
    .collect();
    Mpi {
        cells,
        iters,
        build_s,
    }
}

struct CellResult {
    wall_s: f64,
    completion_ns: u64,
    checksum: u64,
    c: Counters,
}

impl Prepared for Mpi {
    fn run(self: Box<Self>, args: &ChildArgs, tracer: &mut Tracer) -> Outcome {
        let Mpi {
            mut cells,
            iters,
            build_s,
        } = *self;
        let mut out = Outcome::default();
        let root = tracer.open(args.workload.name(), None);
        // Collectives plus the checkpoint after every second one.
        let ops_per_cell = u64::from(iters + iters / 2);
        let mut results: Vec<CellResult> = Vec::new();
        for cell in &mut cells {
            let span = tracer.open(format!("cell:{}", cell.label), Some(root));
            let h = &mut cell.harness;
            let t = Instant::now();
            if cell.spare {
                // Kill the NIC about half way through the twin's run,
                // a seed-drawn eighth of it later at most.
                let twin_ns = results[0].completion_ns;
                let at = twin_ns / 2 + mix(args.seed, 0xD00D, 1, 0) % (twin_ns / 8).max(1);
                h.world.run_for(SimDuration::from_nanos(at));
                let node = h.shared.membership.borrow().specs[doomed_rank(args.seed) as usize].node;
                cell.ft.escalate_isolated(&mut h.world, node);
            }
            let done = h.run_until_done(HORIZON);
            let wall_s = t.elapsed().as_secs_f64();
            let c = Counters::read(&h.world);
            tracer.close(span, c.span_counters());

            let mut tally = cell.finals.borrow().clone();
            tally.sort_unstable();
            let checksum = tally.iter().fold(FNV_OFFSET, |sum, &(rank, v)| {
                fnv1a(fnv1a(sum, u64::from(rank)), v)
            });
            let state = h.state.borrow();
            let label = cell.label;
            out.attempted += ops_per_cell;
            out.expect(
                done.is_some()
                    && tally.len() == RANKS as usize
                    && state.fatal_errors == 0
                    && *cell.faults.borrow() == 0,
                || {
                    format!(
                        "{label}: done {}, {} of {RANKS} ranks finished, {} fatal errors, {} faults shown",
                        done.is_some(),
                        tally.len(),
                        state.fatal_errors,
                        cell.faults.borrow()
                    )
                },
            );
            if let Some(want) = expected_final(cell.pattern, args.seed, iters) {
                let wrong = tally.iter().filter(|&&(_, v)| v != want).count();
                out.expect(wrong == 0, || {
                    format!("{label}: {wrong} ranks hold a wrong result")
                });
            }
            if cell.spare {
                let twin = &results[0];
                let respawns = state.respawns;
                out.expect(checksum == twin.checksum && respawns >= 1, || {
                    format!(
                        "{label}: checksum {checksum:016x} against twin {:016x}, {respawns} respawns",
                        twin.checksum
                    )
                });
            }
            results.push(CellResult {
                wall_s,
                completion_ns: done.map_or(0, |at| at.saturating_since(SimTime::ZERO).as_nanos()),
                checksum,
                c,
            });
        }
        tracer.close(root, Vec::new());

        // The four cells share no work, so no median across them can
        // shed another tenant's burst. Each ran twice instead, the same
        // to the bit; the quieter pass is the cell's time.
        let repeats = results.split_off(CELLS);
        cells.truncate(CELLS);
        for ((cell, first), again) in cells.iter().zip(&mut results).zip(&repeats) {
            let same =
                first.checksum == again.checksum && first.completion_ns == again.completion_ns;
            out.expect(same, || {
                format!("{}: two runs of one seed differ", cell.label)
            });
            first.wall_s = first.wall_s.min(again.wall_s);
        }

        let (twin, spare) = (&results[0], &results[3]);
        let blackout_ns = spare.completion_ns.saturating_sub(twin.completion_ns);
        out.expect(blackout_ns < 2_000_000_000, || {
            format!("spare restart finished {blackout_ns} ns after its twin")
        });
        let ops = ops_per_cell * results.len() as u64;
        let job_ns: u64 = results.iter().map(|r| r.completion_ns).sum();
        let bytes: u64 = cells
            .iter()
            .map(|c| c.pattern.bytes_per_op() * u64::from(iters))
            .sum();
        let c = results
            .iter()
            .fold(Counters::default(), |sum, r| sum.plus(&r.c));
        // End to end the unit of work is a collective; the layers below
        // the MPI tier see GM messages, so their rows count those.
        let all = Measured {
            wall_s: results.iter().map(|r| r.wall_s).sum(),
            msgs: c.messages_delivered,
            bytes,
            util_permille: results
                .iter()
                .map(|r| r.c.channel_util_permille())
                .fold(0.0, f64::max),
            c,
        };
        for (cell, r) in cells.iter().zip(&results) {
            out.checks.push((cell.label, r.checksum));
        }

        let row = &mut out.row;
        row.put("wall_s", all.wall_s);
        row.put("msgs_per_s", ops as f64 / all.wall_s);
        row.put(
            "sim_goodput_bytes_per_s",
            bytes as f64 * 1e9 / job_ns as f64,
        );
        row.put("recovery_blackout_ns", blackout_ns as f64);
        row.put("sim_job_ns", job_ns as f64);
        put_layer_counts(row, &all);
        let state = |f: fn(&ftgm_mpi::HarnessState) -> u64| {
            cells
                .iter()
                .map(|c| f(&c.harness.state.borrow()))
                .sum::<u64>() as f64
        };
        row.put("mpi.ops", ops as f64);
        row.put(
            "mpi.gm_msgs_per_op",
            all.c.messages_delivered as f64 / ops as f64,
        );
        row.put("mpi.checkpoints_stored", state(|s| s.checkpoints_stored));
        row.put("mpi.replayed_instances", state(|s| s.replayed_instances));
        row.put("mpi.respawns", state(|s| s.respawns));
        let per_op = |r: &CellResult| r.completion_ns as f64 / ops_per_cell as f64;
        row.put("mpi.ar_rd_sim_ns_per_op", per_op(&results[0]));
        row.put("mpi.bcast_sim_ns_per_op", per_op(&results[1]));
        row.put("mpi.halo_sim_ns_per_op", per_op(&results[2]));
        row.put("core.recoveries", 0.0);
        row.put("faults.injections", 1.0);
        // Recursive-doubling and tree partners sit at power-of-two rank
        // distances (one rank per host, so ranks are hosts).
        let world = &cells[0].harness.world;
        let partners: Vec<(u16, u16)> = (0..RANKS as u16)
            .flat_map(|r| (0..8).map(move |k| (r, r ^ (1 << k))))
            .collect();
        put_hops(row, world, partners.iter().map(|&(a, b)| (a, b, 1)));

        if args.trace {
            let host_us = |r: &CellResult| r.wall_s * 1e6 / ops_per_cell as f64;
            row.put("mpi.ar_rd_host_us_per_op", host_us(&results[0]));
            row.put("mpi.bcast_host_us_per_op", host_us(&results[1]));
            row.put("mpi.halo_host_us_per_op", host_us(&results[2]));
            let replayed = cells[3].harness.state.borrow().replayed_instances.max(1);
            row.put(
                "mpi.spare_host_us_per_replayed",
                (spare.wall_s - twin.wall_s) * 1e6 / replayed as f64,
            );
            // The collectives' payloads are one small chunk each.
            let mix = CallMix {
                hosts: world.nodes.len(),
                chunk_sizes: vec![48, 64, 32, 96],
                pairs: partners,
            };
            let span = tracer.open("kernels", None);
            let k = run_kernels(world, &mix, args.seed);
            tracer.close(span, Vec::new());
            put_layer_host(row, &all, &k);
            row.put("host.world_build_s", build_s);
            drop(cells);
            let t = Instant::now();
            let rebuilt =
                [Pattern::ArRd, Pattern::Bcast, Pattern::Halo, Pattern::ArRd].map(build_harness);
            row.put("host.world_rebuild_s", t.elapsed().as_secs_f64());
            drop(rebuilt);
        }
        out
    }
}
