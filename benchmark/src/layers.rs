//! Per-layer attribution from outside the program: counter snapshots
//! read through public accessors, and each layer's public function
//! driven alone ("kernel") with the call mix a run recorded.

use std::hint::black_box;
use std::time::Instant;

use ftgm_gm::World;
use ftgm_host::{CpuCost, PciBus};
use ftgm_lanai::cpu::RETURN_ADDR;
use ftgm_lanai::{ChipEffect, LanaiChip, Reg, RunOutcome};
use ftgm_mcp::packet::{flags, stream_word};
use ftgm_mcp::{layout, FirmwareImage};
use ftgm_net::{Fabric, NodeId};
use ftgm_sim::{Scheduler, SimDuration, SimRng, SimTime};

/// The deterministic counters the layers expose, summed over nodes. Every
/// window starts on a fresh world, so a snapshot at its end is the
/// window's own work.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub sim_ns: u64,
    pub events: u64,
    pub app_events: u64,
    pub lanai_busy_ns: u64,
    pub data_tx: u64,
    pub retransmits: u64,
    pub duplicates: u64,
    pub nacks_sent: u64,
    pub no_token_drops: u64,
    pub ltimer_runs: u64,
    pub messages_delivered: u64,
    pub sends_completed: u64,
    pub injected: u64,
    pub dropped: u64,
    pub frame_bytes: u64,
    pub max_channel_busy_ns: u64,
    pub pci_transfers: u64,
    pub pci_bytes: u64,
    pub pci_busy_ns: u64,
    pub cpu_send_ns: u64,
    pub cpu_send_calls: u64,
    pub cpu_recv_ns: u64,
    pub cpu_recv_events: u64,
    pub cpu_backup_ns: u64,
}

impl Counters {
    pub fn read(world: &World) -> Counters {
        let mut c = Counters {
            sim_ns: world.now().as_nanos(),
            events: world.events_delivered(),
            app_events: world.stats().app_events,
            ..Counters::default()
        };
        for node in &world.nodes {
            let m = node.mcp.stats();
            c.lanai_busy_ns += node.mcp.lanai_busy().as_nanos();
            c.data_tx += m.data_tx;
            c.retransmits += m.retransmits;
            c.duplicates += m.duplicates;
            c.nacks_sent += m.nacks_sent;
            c.no_token_drops += m.no_token_drops;
            c.ltimer_runs += m.ltimer_runs;
            c.messages_delivered += m.messages_delivered;
            c.sends_completed += m.sends_completed;
            let (transfers, bytes) = node.host.pci.totals();
            c.pci_transfers += transfers;
            c.pci_bytes += bytes;
            c.pci_busy_ns += node.host.pci.busy_time().as_nanos();
            let cpu = &node.host.cpu;
            let ns = |cost| cpu.total_for(cost).as_nanos();
            c.cpu_send_ns += ns(CpuCost::SendCall) + ns(CpuCost::SendTokenBackup);
            c.cpu_send_calls += cpu.count_for(CpuCost::SendCall);
            c.cpu_recv_ns +=
                ns(CpuCost::RecvEvent) + ns(CpuCost::ProvideBuffer) + ns(CpuCost::RecvTokenBackup);
            c.cpu_recv_events += cpu.count_for(CpuCost::RecvEvent);
            c.cpu_backup_ns += ns(CpuCost::SendTokenBackup) + ns(CpuCost::RecvTokenBackup);
        }
        let f = world.fabric.stats();
        c.injected = f.injected;
        c.dropped = f.dropped;
        c.frame_bytes = f.bytes_delivered;
        for link in 0..world.fabric.topology().links().len() {
            for dir in 0..2 {
                let busy = world.fabric.channel_busy(link, dir).as_nanos();
                c.max_channel_busy_ns = c.max_channel_busy_ns.max(busy);
            }
        }
        c
    }

    /// Field-wise sum, for workloads made of several worlds.
    pub fn plus(&self, other: &Counters) -> Counters {
        macro_rules! add {
            ($($f:ident),*) => { Counters { $($f: self.$f + other.$f,)* max_channel_busy_ns: self.max_channel_busy_ns.max(other.max_channel_busy_ns) } };
        }
        add!(
            sim_ns,
            events,
            app_events,
            lanai_busy_ns,
            data_tx,
            retransmits,
            duplicates,
            nacks_sent,
            no_token_drops,
            ltimer_runs,
            messages_delivered,
            sends_completed,
            injected,
            dropped,
            frame_bytes,
            pci_transfers,
            pci_bytes,
            pci_busy_ns,
            cpu_send_ns,
            cpu_send_calls,
            cpu_recv_ns,
            cpu_recv_events,
            cpu_backup_ns
        )
    }

    /// Busiest channel's occupancy over the elapsed simulated time. Only
    /// meaningful on a snapshot of one world read from its start.
    pub fn channel_util_permille(&self) -> f64 {
        self.max_channel_busy_ns as f64 * 1000.0 / self.sim_ns.max(1) as f64
    }

    /// The handful of counters written into trace spans.
    pub fn span_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sim_ns", self.sim_ns),
            ("sim.events", self.events),
            ("mcp.data_tx", self.data_tx),
            ("net.injected", self.injected),
            ("host.pci_transfers", self.pci_transfers),
            ("gm.app_events", self.app_events),
        ]
    }
}

/// What a run asks the kernels to replay: how many hosts its scheduler
/// served, the sizes of the chunks it sent, and the routes its frames took.
pub struct CallMix {
    pub hosts: usize,
    /// Chunk payload sizes, in the run's proportions.
    pub chunk_sizes: Vec<u32>,
    /// `(src, dst)` pairs that exchanged frames, in the run's proportions.
    pub pairs: Vec<(u16, u16)>,
}

/// Splits message sizes into the chunk sizes the MCP would send.
pub fn chunks_of(sizes: impl IntoIterator<Item = u32>, max_chunk: u32, cap: usize) -> Vec<u32> {
    let mut out = Vec::new();
    for size in sizes {
        let mut left = size;
        while left > 0 && out.len() < cap {
            let c = left.min(max_chunk);
            out.push(c);
            left -= c;
        }
        if out.len() >= cap {
            break;
        }
    }
    out
}

/// Host ns of one layer function called alone, per call.
pub struct KernelCosts {
    pub sched_ns_per_event: f64,
    pub send_chunk_ns: f64,
    pub insns_per_s: f64,
    pub inject_ns: f64,
    pub pci_ns: f64,
}

/// `Scheduler::schedule_at` + `pop_run` under the hold model: a steady
/// population, every popped event replaced by one a random gap ahead.
/// Gaps are multiples of 512 ns, so same-instant runs occur as they do
/// in a world.
fn sched_kernel(population: usize, seed: u64) -> f64 {
    const EVENTS: u64 = 1_000_000;
    let mut rng = SimRng::new(seed ^ 0x5CED);
    let gaps: Vec<u64> = (0..4096).map(|_| (rng.gen_range(256) + 1) * 512).collect();
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..population {
        sched.schedule_at(SimTime::from_nanos(gaps[i % gaps.len()]), i as u64);
    }
    let mut run = Vec::new();
    let mut popped = 0u64;
    let t = Instant::now();
    while popped < EVENTS {
        sched.pop_run(&mut run);
        let now = sched.now();
        for (_, ev) in run.drain(..) {
            let gap = gaps[(popped as usize) % gaps.len()];
            sched.schedule_at(now + SimDuration::from_nanos(gap), black_box(ev));
            popped += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / popped as f64
}

/// `LanaiChip::run_routine` on the `send_chunk` firmware, staged the way
/// the MCP stages it, over the run's chunk sizes. Returns host ns per
/// call and interpreted instructions per host second.
fn send_chunk_kernel(chunk_sizes: &[u32], budget: u64) -> (f64, f64) {
    const CALLS: usize = 20_000;
    if chunk_sizes.is_empty() {
        return (0.0, 0.0);
    }
    let fw = FirmwareImage::build();
    let mut chip = LanaiChip::new(layout::SRAM_LEN);
    chip.sram.write_bytes(layout::CODE_BASE, fw.bytes());
    let stage = FirmwareImage::slab_addr(0);
    let filler: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
    chip.sram.write_bytes(stage, &filler);
    let rec = layout::SENDREC;
    let stream = stream_word(NodeId(1), 0, 2, flags::LAST_CHUNK);
    let mut steps_total = 0u64;
    let t = Instant::now();
    for call in 0..CALLS {
        let len = chunk_sizes[call % chunk_sizes.len()];
        use layout::sendrec as o;
        for (off, value) in [
            (o::STAGE_ADDR, stage),
            (o::LEN, len),
            (o::SEQ, call as u32),
            (o::STREAM, stream),
            (o::MSG_LEN, len),
            (o::CHUNK_OFF, 0),
            (o::HDR_BUF, layout::PKT_BUF),
            (o::STATUS, 0),
        ] {
            chip.sram
                .write_u32(rec + off, value)
                .expect("send record is inside SRAM");
        }
        chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
        if let RunOutcome::Completed { steps, .. } =
            chip.run_routine(SimTime::ZERO, fw.entry_send(), budget)
        {
            steps_total += steps;
        }
        for effect in chip.take_effects() {
            if let ChipEffect::TxFrame(frame) = effect {
                black_box(frame.bytes.len());
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    (ns / CALLS as f64, steps_total as f64 * 1e9 / ns)
}

/// `Fabric::inject` on a copy of the run's fabric, over its routes and
/// frame sizes. Frame buffers are recycled so only the walk is timed;
/// the clock advances so channels drain as they do in a run.
fn inject_kernel(world: &World, mix: &CallMix) -> f64 {
    const CALLS: usize = 200_000;
    if mix.pairs.is_empty() || mix.chunk_sizes.is_empty() {
        return 0.0;
    }
    let mut fabric = Fabric::new(world.fabric.topology().clone(), *world.fabric.params());
    let routes: Vec<(NodeId, Vec<u8>)> = mix
        .pairs
        .iter()
        .filter_map(|&(src, dst)| {
            let route = world.nodes[src as usize].route_backup.route(NodeId(dst))?;
            Some((NodeId(src), route.clone()))
        })
        .collect();
    if routes.is_empty() {
        return 0.0;
    }
    let mut frames: Vec<Vec<u8>> = mix
        .chunk_sizes
        .iter()
        .take(64)
        .map(|&len| vec![0u8; len as usize + 24])
        .collect();
    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for call in 0..CALLS {
        let (src, route) = &routes[call % routes.len()];
        let slot = call % frames.len();
        let frame = std::mem::take(&mut frames[slot]);
        let len = frame.len();
        now += fabric.serialization_time(len);
        match fabric.inject(now, *src, route, frame) {
            Ok(delivery) => frames[slot] = delivery.bytes,
            Err(_) => frames[slot] = vec![0u8; len],
        }
    }
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

/// `PciBus::transfer` alone.
fn pci_kernel(world: &World, chunk_sizes: &[u32]) -> f64 {
    const CALLS: usize = 2_000_000;
    if chunk_sizes.is_empty() {
        return 0.0;
    }
    let mut bus = PciBus::new(*world.nodes[0].host.pci.params());
    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for call in 0..CALLS {
        let tr = bus.transfer(now, black_box(chunk_sizes[call % chunk_sizes.len()]));
        now = tr.end;
    }
    black_box(now);
    t.elapsed().as_nanos() as f64 / CALLS as f64
}

pub fn run_kernels(world: &World, mix: &CallMix, seed: u64) -> KernelCosts {
    // Four pending events per host is what the worlds hold in steady
    // state (dispatch, timer poll, a DMA and a frame in flight).
    let sched_ns_per_event = sched_kernel(mix.hosts * 4, seed);
    let (send_chunk_ns, insns_per_s) =
        send_chunk_kernel(&mix.chunk_sizes, world.config().mcp.firmware_budget);
    KernelCosts {
        sched_ns_per_event,
        send_chunk_ns,
        insns_per_s,
        inject_ns: inject_kernel(world, mix),
        pci_ns: pci_kernel(world, &mix.chunk_sizes),
    }
}
