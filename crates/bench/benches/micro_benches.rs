//! Microbenchmarks for the simulator's hot paths.
//!
//! Three hot paths, each with its oracle twin where one exists:
//!
//! * `send_chunk` through [`LanaiChip::run_routine`] — the one firmware
//!   routine every data chunk of every node executes.
//! * Calendar-queue drain via [`Scheduler::pop_run`] (one bucket locate
//!   per same-timestamp run) vs the equivalent repeated-[`Scheduler::pop`]
//!   loop.
//! * [`Fabric::inject`] — the wormhole walk over a fat-tree route, the
//!   per-packet cost every simulated frame pays.
//!
//! Numbers come from the in-tree criterion shim (median ns/iter, no
//! statistics); ci.sh runs this as a smoke step and greps for each
//! bench line, so a bench that stops compiling or panics fails the
//! gate even though the timings themselves are not asserted.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ftgm_lanai::cpu::RETURN_ADDR;
use ftgm_lanai::isa::Reg;
use ftgm_lanai::LanaiChip;
use ftgm_mcp::firmware::{layout, FirmwareImage};
use ftgm_net::{Fabric, FabricParams, Mapper, NodeId, Topology};
use ftgm_sim::{Scheduler, SimDuration, SimTime};

/// A chip loaded with the real firmware and a staged 1 KB send record,
/// ready for back-to-back `send_chunk` invocations.
fn staged_chip() -> (LanaiChip, u32) {
    let fw = FirmwareImage::build();
    let mut chip = LanaiChip::new(layout::SRAM_LEN);
    chip.sram.write_bytes(layout::CODE_BASE, fw.bytes());
    let stage = FirmwareImage::slab_addr(0);
    chip.sram.write_bytes(stage, &vec![0xAB; 1024]);
    use layout::sendrec as o;
    let sr = layout::SENDREC;
    for (off, v) in [
        (o::STAGE_ADDR, stage),
        (o::LEN, 1024),
        (o::SEQ, 1),
        (o::STREAM, 0x1234),
        (o::MSG_LEN, 1024),
        (o::CHUNK_OFF, 0),
        (o::HDR_BUF, layout::PKT_BUF),
        (o::STATUS_HOST, 0),
    ] {
        chip.sram.write_u32(sr + off, v).unwrap();
    }
    (chip, fw.entry_send())
}

fn bench_send_chunk(c: &mut Criterion) {
    let (mut chip, entry) = staged_chip();
    c.bench_function("interp/send_chunk", |b| {
        b.iter(|| {
            chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
            let out = chip.run_routine(SimTime::ZERO, entry, 20_000);
            assert!(out.is_completed(), "send_chunk must complete: {out:?}");
            // Drain the emitted frame so the effect queue stays flat.
            chip.take_effects();
            out.cycles()
        })
    });
}

/// A scheduler populated with heavy same-timestamp runs: 8 192 events on
/// a coarse 512 ns lattice of 64 distinct instants — the shape world
/// steps produce (every NIC polling on the same tick boundary).
fn tie_heavy_scheduler() -> Scheduler<u64> {
    let mut s: Scheduler<u64> = Scheduler::new();
    for i in 0..8_192u64 {
        s.schedule_in(SimDuration::from_nanos((i * 7919 % 64) * 512), i);
    }
    s
}

fn bench_calendar_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched");
    g.bench_function("drain_batched", |b| {
        b.iter_batched(
            tie_heavy_scheduler,
            |mut s| {
                let mut run = Vec::new();
                let mut acc = 0u64;
                while s.pop_run(&mut run) > 0 {
                    for &(_, e) in &run {
                        acc = acc.wrapping_add(e);
                    }
                }
                acc
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("drain_single_pop", |b| {
        b.iter_batched(
            tie_heavy_scheduler,
            |mut s| {
                let mut acc = 0u64;
                while let Some((_, e)) = s.pop() {
                    acc = acc.wrapping_add(e);
                }
                acc
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_fabric_walk(c: &mut Criterion) {
    // A 64-host fat tree: the longest routes cross leaf → spine → leaf.
    let topo = Topology::fat_tree(4, 8, 8);
    let tables = Mapper::map(&topo);
    let src = NodeId(0);
    let dst = NodeId(63);
    let route = tables[src.0 as usize]
        .route(dst)
        .expect("fat tree is connected")
        .clone();
    let mut fabric = Fabric::new(topo, FabricParams::default());
    let frame = vec![0x5Au8; 4096 + 32];
    let mut now = SimTime::ZERO;
    c.bench_function("net/fabric_walk_fat_tree64", |b| {
        b.iter(|| {
            // Advance the clock so each worm sees free channels rather
            // than queueing behind its predecessor forever.
            now = now + SimDuration::from_us(10);
            let d = fabric
                .inject(now, src, &route, frame.clone())
                .expect("route delivers");
            assert_eq!(d.dst, dst);
            d.at
        })
    });
}

criterion_group!(
    benches,
    bench_send_chunk,
    bench_calendar_drain,
    bench_fabric_walk
);
criterion_main!(benches);
