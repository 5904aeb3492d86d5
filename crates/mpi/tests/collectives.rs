//! The middleware in action: point-to-point, collectives, and — the
//! paper's motivating scenario — an MPI job riding out a network-processor
//! hang without aborting.

use ftgm_core::FtSystem;
use ftgm_gm::WorldConfig;
use ftgm_mpi::{MpiHarness, Op, OpResult, RankProgram};
use ftgm_net::NodeId;
use ftgm_sim::SimDuration;

/// A program from a plain list of ops (SPMD-style).
struct Script {
    ops: Vec<Op>,
    at: usize,
    results: Vec<OpResult>,
}

impl Script {
    fn new(ops: Vec<Op>) -> Script {
        Script {
            ops,
            at: 0,
            results: Vec::new(),
        }
    }
}

impl RankProgram for Script {
    fn next_op(&mut self, _rank: u32, _n: u32, last: Option<OpResult>) -> Option<Op> {
        if let Some(r) = last {
            self.results.push(r);
        }
        let op = self.ops.get(self.at).cloned();
        self.at += 1;
        op
    }
}

#[test]
fn point_to_point_ring_passes_a_token() {
    let mut h = MpiHarness::star(4, WorldConfig::gm());
    h.spawn_all(4096, |rank| {
        let n = 4u32;
        let ops = if rank == 0 {
            vec![
                Op::Send { to: 1, tag: 9, data: vec![1] },
                Op::Recv { from: Some(n - 1), tag: 9 },
            ]
        } else {
            vec![
                Op::Recv { from: Some(rank - 1), tag: 9 },
                Op::Send { to: (rank + 1) % n, tag: 9, data: vec![(rank + 1) as u8] },
            ]
        };
        Box::new(Script::new(ops))
    });
    h.world.run_for(SimDuration::from_ms(50));
    assert!(h.all_done(), "{:?}", h.state.borrow());
    assert_eq!(h.state.borrow().fatal_errors, 0);
}

#[test]
fn barrier_holds_everyone_until_the_last_arrives() {
    // Rank 3 enters the barrier late (it first waits for a message that
    // rank 0 sends late); nobody may leave before it entered.
    let mut h = MpiHarness::star(4, WorldConfig::ftgm());
    h.spawn_all(80_000, |rank| {
        let ops = match rank {
            0 => vec![
                // A large transfer delays rank 3's barrier entry.
                Op::Send { to: 3, tag: 1, data: vec![0; 60_000] },
                Op::Barrier,
            ],
            3 => vec![Op::Recv { from: Some(0), tag: 1 }, Op::Barrier],
            _ => vec![Op::Barrier],
        };
        Box::new(Script::new(ops))
    });
    h.world.run_for(SimDuration::from_ms(100));
    assert!(h.all_done());
    let state = h.state.borrow();
    // All ranks finish after rank 3 could have entered (the 60 KB message
    // takes ~650us to move), proving the barrier actually synchronized.
    let min_finish = state.finished.iter().map(|(_, t)| *t).min().unwrap();
    assert!(
        min_finish.as_micros_f64() > 400.0,
        "a rank left the barrier early: {state:?}"
    );
}

#[test]
fn broadcast_from_every_root() {
    for root in 0..5u32 {
        let mut h = MpiHarness::star(5, WorldConfig::gm());
        let payload = vec![root as u8; 300];
        let expect = payload.clone();
        h.spawn_all(4096, move |rank| {
            let data = (rank == root).then(|| payload.clone());
            Box::new(Script::new(vec![Op::Broadcast { root, data }]))
        });
        h.world.run_for(SimDuration::from_ms(50));
        assert!(h.all_done(), "root {root}");
        let _ = expect;
    }
}

#[test]
fn allreduce_sums_across_ranks() {
    /// Checks its reduced vector and reports through panics.
    struct Reduce {
        issued: bool,
    }
    impl RankProgram for Reduce {
        fn next_op(&mut self, rank: u32, n: u32, last: Option<OpResult>) -> Option<Op> {
            if !self.issued {
                self.issued = true;
                let values: Vec<u64> = (0..16).map(|i| (rank as u64 + 1) * (i + 1)).collect();
                return Some(Op::AllReduceSum { values });
            }
            let Some(OpResult::AllReduceSum { values }) = last else {
                panic!("rank {rank}: expected allreduce result, got {last:?}");
            };
            let total_ranks: u64 = (1..=n as u64).sum();
            for (i, v) in values.iter().enumerate() {
                assert_eq!(*v, total_ranks * (i as u64 + 1), "rank {rank} elem {i}");
            }
            None
        }
    }
    for n in [2u32, 3, 5, 8] {
        let mut h = MpiHarness::star(n as usize, WorldConfig::ftgm());
        h.spawn_all(4096, |_rank| Box::new(Reduce { issued: false }));
        h.world.run_for(SimDuration::from_ms(100));
        assert!(h.all_done(), "n={n}: {:?}", h.state.borrow());
    }
}

#[test]
fn repeated_collectives_do_not_cross_talk() {
    // Three barriers + two broadcasts back-to-back: sequence numbers keep
    // the instances apart.
    let mut h = MpiHarness::star(4, WorldConfig::ftgm());
    h.spawn_all(4096, |rank| {
        let d0 = (rank == 0).then(|| vec![0xAA; 64]);
        let d2 = (rank == 2).then(|| vec![0xBB; 64]);
        Box::new(Script::new(vec![
            Op::Barrier,
            Op::Broadcast { root: 0, data: d0 },
            Op::Barrier,
            Op::Broadcast { root: 2, data: d2 },
            Op::Barrier,
        ]))
    });
    h.world.run_for(SimDuration::from_ms(100));
    assert!(h.all_done(), "{:?}", h.state.borrow());
    assert_eq!(h.state.borrow().fatal_errors, 0);
}

#[test]
fn mpi_job_survives_interface_hang_under_ftgm() {
    // The paper's motivation, end to end: an MPI job whose rank-2
    // interface hangs mid-collective. Under FTGM the job completes with
    // zero fatal errors.
    let mut config = WorldConfig::ftgm();
    config.trace = true;
    let mut h = MpiHarness::star(6, config);
    let ft = FtSystem::install(&mut h.world);
    h.spawn_all(8192, |rank| {
        let d = (rank == 1).then(|| vec![7; 2048]);
        Box::new(Script::new(vec![
            Op::Barrier,
            Op::AllReduceSum { values: vec![rank as u64; 64] },
            Op::Broadcast { root: 1, data: d },
            Op::Barrier,
            Op::AllReduceSum { values: vec![1; 64] },
        ]))
    });
    // Let the job get going, then hang rank 2's NIC.
    h.world.run_for(SimDuration::from_us(80));
    ft.inject_forced_hang(&mut h.world, NodeId(2));
    h.world.run_for(SimDuration::from_secs(4));
    assert_eq!(ft.recoveries(NodeId(2)), 1, "recovery ran");
    assert!(h.all_done(), "job completed: {:?}", h.state.borrow());
    assert_eq!(h.state.borrow().fatal_errors, 0, "MPI saw no fatal errors");
}

#[test]
fn mpi_job_dies_without_ftgm() {
    // The counterfactual: plain GM, same hang — the job never completes
    // and the middleware sees fatal send errors (MPI would abort).
    let mut config = WorldConfig::gm();
    config.mcp.retry_limit = 20;
    let mut h = MpiHarness::star(6, config);
    h.spawn_all(8192, |rank| {
        let d = (rank == 1).then(|| vec![7; 2048]);
        Box::new(Script::new(vec![
            Op::Barrier,
            Op::AllReduceSum { values: vec![rank as u64; 64] },
            Op::Broadcast { root: 1, data: d },
            Op::Barrier,
        ]))
    });
    h.world.run_for(SimDuration::from_us(80));
    h.world.nodes[2].mcp.force_hang();
    h.world.run_for(SimDuration::from_secs(4));
    assert!(!h.all_done(), "the job must hang without recovery");
    assert!(
        h.state.borrow().fatal_errors > 0,
        "GM surfaces fatal errors: {:?}",
        h.state.borrow()
    );
}
