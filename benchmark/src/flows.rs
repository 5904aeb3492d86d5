//! What the four world-based workloads share: placing flows on a world,
//! running the measured window in slices, and turning flow outputs and
//! counter deltas into metric rows.

use std::cell::RefCell;
use std::ops::RangeInclusive;
use std::rc::Rc;
use std::time::Instant;

use ftgm_gm::World;
use ftgm_net::NodeId;
use ftgm_sim::{Samples, SimDuration, SimTime};

use crate::inputs::{fnv1a, FNV_OFFSET};
use crate::layers::{CallMix, Counters, KernelCosts};
use crate::metrics::Row;
use crate::trace::{SpanId, Tracer};
use crate::traffic::{
    EchoClient, EchoServer, FlowOut, OpenSender, Out, Reply, Script, Sink, WindowSender,
};

pub enum Model {
    /// Closed loop, one request outstanding.
    Echo { reply: Reply, think: SimDuration },
    /// Open loop on the script's due instants.
    Open,
    /// Closed loop, `depth` one-way sends outstanding.
    Window { depth: usize },
}

pub struct Flow {
    pub src: u16,
    pub src_port: u8,
    pub dst: u16,
    pub dst_port: u8,
    pub model: Model,
    pub script: Script,
}

/// Spawns both ends of every flow. Senders stop offering at `stop_at`;
/// open-loop scripts simply end there.
pub fn spawn(world: &mut World, flows: &[Flow], stop_at: SimTime) -> Vec<Out> {
    let t0 = world.now();
    flows
        .iter()
        .map(|f| {
            let out: Out = Rc::new(RefCell::new(FlowOut::default()));
            let (src, dst) = (NodeId(f.src), NodeId(f.dst));
            let script = f.script.clone();
            match f.model {
                Model::Echo { reply, think } => {
                    world.spawn_app(
                        dst,
                        f.dst_port,
                        Box::new(EchoServer::new(script.clone(), reply, out.clone())),
                    );
                    world.spawn_app(
                        src,
                        f.src_port,
                        Box::new(EchoClient::new(
                            dst,
                            f.dst_port,
                            script,
                            reply,
                            think,
                            stop_at,
                            out.clone(),
                        )),
                    );
                }
                Model::Open => {
                    world.spawn_app(
                        dst,
                        f.dst_port,
                        Box::new(Sink::new(script.clone(), 16, out.clone())),
                    );
                    world.spawn_app(
                        src,
                        f.src_port,
                        Box::new(OpenSender::new(dst, f.dst_port, script, t0, out.clone())),
                    );
                }
                Model::Window { depth } => {
                    world.spawn_app(
                        dst,
                        f.dst_port,
                        Box::new(Sink::new(script.clone(), 2 * depth as u32, out.clone())),
                    );
                    world.spawn_app(
                        src,
                        f.src_port,
                        Box::new(WindowSender::new(
                            dst,
                            f.dst_port,
                            script,
                            depth,
                            stop_at,
                            out.clone(),
                        )),
                    );
                }
            }
            out
        })
        .collect()
}

/// Runs `world` from `from` in `run_until` slices of `step`, at least
/// `slices.start()` and at most `slices.end()` of them, stopping once
/// `done` says so, and returns the host seconds each slice took. (`from` is
/// passed in because `World::now` is the last event's instant, not the
/// previous bound.) With tracing on, each slice is a span carrying a
/// counter snapshot.
pub fn run_sliced(
    world: &mut World,
    tracer: &mut Tracer,
    parent: SpanId,
    from: SimTime,
    step: SimDuration,
    slices: RangeInclusive<u64>,
    mut done: impl FnMut() -> bool,
) -> Vec<f64> {
    let mut times = Vec::new();
    for i in 1..=*slices.end() {
        let span = tracer.open("run_until", Some(parent));
        let t = Instant::now();
        world.run_until(from + step * i);
        times.push(t.elapsed().as_secs_f64());
        if tracer.enabled() {
            tracer.close(span, Counters::read(world).span_counters());
        }
        if i >= *slices.start() && done() {
            break;
        }
    }
    times
}

/// Host seconds of a window whose first `full` slices did equal work:
/// `full` times their median, plus whatever the remaining slices took.
/// Another tenant's burst slows a few slices, not the median one, so
/// this repeats far better on a shared machine than the plain sum does,
/// and agrees with it on a quiet one.
pub fn steady_wall(times: &[f64], full: usize) -> f64 {
    let (steady, rest) = times.split_at(full.min(times.len()));
    steady.len() as f64 * crate::runner::median(steady) + rest.iter().sum::<f64>()
}

/// Flow outputs summed, plus what the correctness gate needs.
#[derive(Default)]
pub struct Totals {
    pub issued: u64,
    pub completed: u64,
    /// Messages a receiver validated (requests, one-way messages) plus
    /// replies a client validated.
    pub validated: u64,
    pub validated_bytes: u64,
    pub failed: u64,
    pub max_in_flight: u64,
    /// Completion latency from the due instant; halved for echo flows
    /// (half round trip).
    pub latency: Samples,
    pub late: Samples,
}

pub fn totals(flows: &[Flow], outs: &[Out]) -> Totals {
    let mut t = Totals::default();
    for (flow, out) in flows.iter().zip(outs) {
        let o = out.borrow();
        let echo = matches!(flow.model, Model::Echo { .. });
        t.issued += o.issued();
        t.completed += o.completed();
        t.validated += o.delivered + if echo { o.completed() } else { 0 };
        t.validated_bytes += o.delivered_bytes;
        // Issued, delivered and completed exactly once each, nothing else.
        t.failed += o.issued().abs_diff(o.completed())
            + o.issued().abs_diff(o.delivered)
            + o.bad_payloads
            + o.probe.send_errors
            + o.probe.iface_dead;
        t.max_in_flight = t.max_in_flight.max(o.max_in_flight);
        for c in &o.probe.completions {
            let ns = c.at.saturating_since(c.issued).as_nanos();
            t.latency.record_ns(if echo { ns / 2 } else { ns });
        }
        t.late.merge(&o.late);
    }
    t
}

/// Folds what a window produced — every latency, the validated totals,
/// the event count and the simulated clock — into one word that must
/// repeat exactly across repetitions of a seed.
pub fn checksum(t: &Totals, c: &Counters) -> u64 {
    let head = [t.validated, t.validated_bytes, c.events, c.sim_ns];
    head.iter()
        .chain(t.latency.raw_ns())
        .fold(FNV_OFFSET, |sum, &v| fnv1a(sum, v))
}

pub fn quantile(s: &Samples, permille: u32) -> f64 {
    s.quantile_permille(permille)
        .map_or(0.0, |d| d.as_nanos() as f64)
}

/// One measured window (or several summed): host seconds, validated
/// messages and bytes, and the counters it moved.
pub struct Measured {
    pub wall_s: f64,
    pub msgs: u64,
    pub bytes: u64,
    /// Busiest channel's share of its world's window (the maximum over
    /// worlds when several are summed).
    pub util_permille: f64,
    pub c: Counters,
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The per-layer metrics that are counts or simulated time.
pub fn put_layer_counts(row: &mut Row, m: &Measured) {
    let c = &m.c;
    row.put("sim.events", c.events as f64);
    row.put("sim.events_per_msg", per(c.events, m.msgs));
    row.put("lanai.send_chunk_calls", c.data_tx as f64);
    row.put("lanai.busy_sim_ns_per_msg", per(c.lanai_busy_ns, m.msgs));
    row.put("mcp.data_tx", c.data_tx as f64);
    row.put("mcp.retransmits", c.retransmits as f64);
    row.put(
        "mcp.retransmit_ppm",
        per(c.retransmits * 1_000_000, c.data_tx),
    );
    row.put("mcp.duplicates", c.duplicates as f64);
    row.put("mcp.nacks_sent", c.nacks_sent as f64);
    row.put("mcp.no_token_drops", c.no_token_drops as f64);
    row.put("mcp.ltimer_runs", c.ltimer_runs as f64);
    row.put("mcp.chunks_per_msg", per(c.data_tx, c.sends_completed));
    row.put("net.injected", c.injected as f64);
    row.put("net.dropped", c.dropped as f64);
    row.put("net.bytes_delivered", c.frame_bytes as f64);
    row.put("net.max_channel_util_permille", m.util_permille);
    row.put("host.pci_transfers", c.pci_transfers as f64);
    row.put("host.pci_bytes", c.pci_bytes as f64);
    row.put("host.pci_busy_sim_ns", c.pci_busy_ns as f64);
    row.put(
        "host.cpu_send_sim_ns_per_msg",
        per(c.cpu_send_ns, c.cpu_send_calls),
    );
    row.put(
        "host.cpu_recv_sim_ns_per_msg",
        per(c.cpu_recv_ns, c.cpu_recv_events),
    );
    row.put(
        "host.backup_sim_ns_per_msg",
        per(c.cpu_backup_ns, c.cpu_send_calls),
    );
    row.put("gm.app_events", c.app_events as f64);
}

/// Mean route length in channels (switches crossed plus one) over the
/// `(src, dst)` pairs that exchanged frames, weighted by how many.
/// Acknowledgements retrace the data frames' route, so one direction
/// of each pair is enough.
pub fn put_hops(row: &mut Row, world: &World, pairs: impl IntoIterator<Item = (u16, u16, u64)>) {
    let (mut hops, mut frames) = (0u64, 0u64);
    for (src, dst, weight) in pairs {
        if let Some(route) = world.nodes[src as usize].route_backup.route(NodeId(dst)) {
            hops += (route.len() as u64 + 1) * weight;
            frames += weight;
        }
    }
    row.put("net.hops_per_frame", per(hops, frames));
}

/// Each flow's endpoints and how many data chunks its script sends.
pub fn flow_pairs(flows: &[Flow], max_chunk: u32) -> Vec<(u16, u16, u64)> {
    flows
        .iter()
        .map(|f| {
            let chunks = f
                .script
                .sizes
                .iter()
                .map(|&s| u64::from(s.div_ceil(max_chunk)))
                .sum();
            (f.src, f.dst, chunks)
        })
        .collect()
}

/// The host-clock per-layer metrics of a traced run: the stack's cost per
/// message, each kernel's cost per call, and what is left once the
/// kernels' shares (cost × recorded calls per message) are taken out.
pub fn put_layer_host(row: &mut Row, m: &Measured, k: &KernelCosts) {
    let c = &m.c;
    let stack = m.wall_s * 1e9 / m.msgs.max(1) as f64;
    let shares = k.sched_ns_per_event * per(c.events, m.msgs)
        + k.send_chunk_ns * per(c.data_tx, m.msgs)
        + k.inject_ns * per(c.injected, m.msgs)
        + k.pci_ns * per(c.pci_transfers, m.msgs);
    row.put("sim.events_per_s", c.events as f64 / m.wall_s);
    row.put(
        "sim.host_s_per_sim_s",
        m.wall_s * 1e9 / c.sim_ns.max(1) as f64,
    );
    row.put("sim.sched_ns_per_event", k.sched_ns_per_event);
    row.put("lanai.send_chunk_host_ns", k.send_chunk_ns);
    row.put("lanai.insns_per_s", k.insns_per_s);
    row.put("net.inject_host_ns", k.inject_ns);
    row.put("host.pci_host_ns_per_transfer", k.pci_ns);
    row.put("gm.stack_host_ns_per_msg", stack);
    row.put("gm.residual_host_ns_per_msg", stack - shares);
    row.put("gm.host_bytes_per_s", m.bytes as f64 / m.wall_s);
}

/// The call mix of a set of flows, for the kernels.
pub fn call_mix(hosts: usize, flows: &[Flow], max_chunk: u32) -> CallMix {
    let per_flow = (4096 / flows.len().max(1)).max(8);
    let mut chunk_sizes = Vec::new();
    let mut pairs = Vec::new();
    for f in flows {
        let sizes = f.script.sizes.iter().copied().take(per_flow);
        chunk_sizes.extend(crate::layers::chunks_of(sizes, max_chunk, per_flow));
        pairs.push((f.src, f.dst));
        // Acknowledgements, and echo replies, travel the other way.
        pairs.push((f.dst, f.src));
    }
    CallMix {
        hosts,
        chunk_sizes,
        pairs,
    }
}
