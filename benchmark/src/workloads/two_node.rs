//! `pingpong_small` and `stream_large`: the paper's two-host testbed,
//! run on GM and then on FTGM with the same inputs. Together they are
//! the exercise/bypass pair for per-message against per-byte cost.

use std::time::Instant;

use ftgm_core::FtSystem;
use ftgm_gm::{World, WorldConfig};
use ftgm_sim::{SimDuration, SimTime};

use crate::child::{ChildArgs, Outcome, Prepared};
use crate::flows::{
    call_mix, checksum, flow_pairs, put_hops, put_layer_counts, put_layer_host, quantile,
    run_sliced, spawn, steady_wall, totals, Flow, Measured, Model, Totals,
};
use crate::inputs::{flow_rng, fnv1a, Pad, FNV_OFFSET};
use crate::layers::{run_kernels, Counters};
use crate::trace::Tracer;
use crate::traffic::{Out, Reply, Script};

/// Table 2's message sizes.
const PING_SIZES: [u32; 5] = [1, 16, 33, 64, 100];
/// Round trips per requested second, per variant: about half a second of
/// host time each at the commit that defined the benchmark.
const PINGS_PER_SECOND: u64 = 45_000;
/// Simulated ns one round trip is expected to take; only sizes the slices.
const NOMINAL_RTT_NS: u64 = 26_000;

/// Simulated seconds of streaming per requested second, per variant.
const STREAM_SIM_MS_PER_SECOND: u64 = 2_000;
/// 256 KiB on average. A handful of sizes, not a range: the GM library
/// pools pinned buffers by exact length and never returns them.
const STREAM_SIZES: [u32; 5] = [240 << 10, 248 << 10, 256 << 10, 264 << 10, 272 << 10];
const STREAM_DEPTH: usize = 8;
const STREAM_DRAIN: SimDuration = SimDuration::from_ms(200);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Pingpong,
    Stream,
}

struct Variant {
    name: &'static str,
    world: World,
    outs: Vec<Out>,
}

pub struct TwoNode {
    kind: Kind,
    flows: Vec<Flow>,
    variants: Vec<Variant>,
    /// Simulated length of the offered window.
    offered: SimDuration,
    build_s: f64,
}

fn build(config: WorldConfig) -> World {
    let ftgm = config.mcp.is_ftgm();
    let mut world = World::two_node(config);
    if ftgm {
        FtSystem::install(&mut world);
    }
    world
}

fn prepare(kind: Kind, flows: Vec<Flow>, offered: SimDuration, stop_at: SimTime) -> TwoNode {
    let mut build_s = 0.0;
    let variants = [("gm", WorldConfig::gm()), ("ftgm", WorldConfig::ftgm())]
        .into_iter()
        .map(|(name, config)| {
            let t = Instant::now();
            let mut world = build(config);
            build_s += t.elapsed().as_secs_f64();
            let outs = spawn(&mut world, &flows, stop_at);
            Variant { name, world, outs }
        })
        .collect();
    TwoNode {
        kind,
        flows,
        variants,
        offered,
        build_s,
    }
}

pub fn prepare_pingpong(args: &ChildArgs) -> TwoNode {
    let pings = PINGS_PER_SECOND * args.seconds;
    let mut rng = flow_rng(args.seed, 0);
    let sizes = (0..pings)
        .map(|_| PING_SIZES[rng.gen_range(PING_SIZES.len() as u64) as usize])
        .collect();
    let flows = vec![Flow {
        src: 0,
        src_port: 0,
        dst: 1,
        dst_port: 2,
        model: Model::Echo {
            reply: Reply::Same,
            think: SimDuration::ZERO,
        },
        script: Script::new(0, sizes, Vec::new(), Pad::new(args.seed)),
    }];
    let offered = SimDuration::from_nanos(pings * NOMINAL_RTT_NS);
    prepare(Kind::Pingpong, flows, offered, SimTime::MAX)
}

pub fn prepare_stream(args: &ChildArgs) -> TwoNode {
    let offered = SimDuration::from_ms(STREAM_SIM_MS_PER_SECOND * args.seconds);
    // 400 messages per simulated second outrun the link.
    let count = offered.as_nanos() * 400 / 1_000_000_000 + 64;
    let pad = Pad::new(args.seed);
    let flows = [(0u16, 1u16), (1, 0)]
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            let mut rng = flow_rng(args.seed, i as u32);
            let sizes = (0..count)
                .map(|_| STREAM_SIZES[rng.gen_range(STREAM_SIZES.len() as u64) as usize])
                .collect();
            Flow {
                src,
                src_port: 0,
                dst,
                dst_port: 2,
                model: Model::Window {
                    depth: STREAM_DEPTH,
                },
                script: Script::new(i as u32, sizes, Vec::new(), pad.clone()),
            }
        })
        .collect();
    prepare(Kind::Stream, flows, offered, SimTime::ZERO + offered)
}

struct VariantResult {
    m: Measured,
    t: Totals,
}

impl Prepared for TwoNode {
    fn run(self: Box<Self>, args: &ChildArgs, tracer: &mut Tracer) -> Outcome {
        let TwoNode {
            kind,
            flows,
            variants,
            offered,
            build_s,
        } = *self;
        let mut out = Outcome::default();
        let root = tracer.open(args.workload.name(), None);
        let mut results = Vec::new();
        let mut last_world = None;
        for mut v in variants {
            let span = tracer.open(format!("variant:{}", v.name), Some(root));
            // Twenty slices span the offered window; every slice of it
            // does the same work.
            let step = SimDuration::from_nanos(offered.as_nanos() / 20);
            let wall_s = match kind {
                Kind::Pingpong => {
                    // Stops in the slice the last reply lands in, which
                    // is the only one not full.
                    let client = v.outs[0].clone();
                    let want = flows[0].script.sizes.len() as u64;
                    let times = run_sliced(
                        &mut v.world,
                        tracer,
                        span,
                        SimTime::ZERO,
                        step,
                        1..=60,
                        || client.borrow().completed() >= want,
                    );
                    steady_wall(&times, times.len() - 1)
                }
                Kind::Stream => {
                    let until = SimTime::ZERO + offered;
                    let mut times = run_sliced(
                        &mut v.world,
                        tracer,
                        span,
                        SimTime::ZERO,
                        step,
                        20..=20,
                        || true,
                    );
                    times.extend(run_sliced(
                        &mut v.world,
                        tracer,
                        span,
                        until,
                        STREAM_DRAIN,
                        1..=1,
                        || true,
                    ));
                    steady_wall(&times, 20)
                }
            };
            let c = Counters::read(&v.world);
            tracer.close(span, c.span_counters());
            let t = totals(&flows, &v.outs);
            results.push(VariantResult {
                m: Measured {
                    wall_s,
                    msgs: t.validated,
                    bytes: t.validated_bytes,
                    util_permille: c.channel_util_permille(),
                    c,
                },
                t,
            });
            last_world = Some(v.world);
        }
        tracer.close(root, Vec::new());

        let (gm, ftgm) = (&results[0], &results[1]);
        let all = Measured {
            wall_s: gm.m.wall_s + ftgm.m.wall_s,
            msgs: gm.m.msgs + ftgm.m.msgs,
            bytes: gm.m.bytes + ftgm.m.bytes,
            util_permille: gm.m.util_permille.max(ftgm.m.util_permille),
            c: gm.m.c.plus(&ftgm.m.c),
        };
        out.attempted = gm.t.issued + ftgm.t.issued;
        out.failed = gm.t.failed + ftgm.t.failed;
        if kind == Kind::Pingpong {
            let want = flows[0].script.sizes.len() as u64;
            out.expect(gm.t.completed == want && ftgm.t.completed == want, || {
                format!(
                    "{} / {} of {want} round trips completed",
                    gm.t.completed, ftgm.t.completed
                )
            });
        }

        let row = &mut out.row;
        row.put("wall_s", all.wall_s);
        row.put("msgs_per_s", all.msgs as f64 / all.wall_s);
        let p50 = |r: &VariantResult| quantile(&r.t.latency, 500);
        row.put("sim_latency_p50_ns", p50(ftgm));
        row.put("sim_latency_p999_ns", quantile(&ftgm.t.latency, 999));
        row.put(
            "sim_goodput_bytes_per_s",
            all.bytes as f64 * 1e9 / all.c.sim_ns as f64,
        );
        row.put("ftgm_overhead_ns", p50(ftgm) - p50(gm));
        let err = |sim: f64, paper: f64| (sim - paper).abs() * 1000.0 / paper;
        let paper_err = match kind {
            // Half round trip of 64-byte messages against 11.5 / 13.0 us.
            Kind::Pingpong => {
                let at64 = |r: &VariantResult| {
                    let mut s = ftgm_sim::Samples::new();
                    let sizes = &flows[0].script.sizes;
                    for (ns, &size) in r.t.latency.raw_ns().iter().zip(sizes.iter()) {
                        if size == 64 {
                            s.record_ns(*ns);
                        }
                    }
                    quantile(&s, 500)
                };
                err(at64(gm), 11_500.0).max(err(at64(ftgm), 13_000.0))
            }
            // Per-direction bandwidth against 92.4 / 92.0 MB/s.
            Kind::Stream => {
                let mb_s = |r: &VariantResult| r.m.bytes as f64 * 1e3 / 2.0 / r.m.c.sim_ns as f64;
                out.notes.push(format!(
                    "bandwidth per direction: gm {:.2} MB/s, ftgm {:.2} MB/s",
                    mb_s(gm),
                    mb_s(ftgm)
                ));
                err(mb_s(gm), 92.4).max(err(mb_s(ftgm), 92.0))
            }
        };
        let row = &mut out.row;
        row.put("paper_err_permille", paper_err);

        put_layer_counts(row, &all);
        let world = last_world.expect("two variants ran");
        put_hops(
            row,
            &world,
            flow_pairs(&flows, world.config().mcp.max_chunk),
        );
        row.put("workload.issued", (gm.t.issued + ftgm.t.issued) as f64);
        row.put(
            "workload.completed",
            (gm.t.completed + ftgm.t.completed) as f64,
        );
        row.put(
            "workload.max_in_flight",
            gm.t.max_in_flight.max(ftgm.t.max_in_flight) as f64,
        );
        out.notes.push(format!(
            "latency quantiles over n = {} completions (ftgm variant)",
            ftgm.t.latency.len()
        ));

        let sum = results
            .iter()
            .fold(FNV_OFFSET, |sum, r| fnv1a(sum, checksum(&r.t, &r.m.c)));
        out.checks.push(("latencies", sum));

        if args.trace {
            let mix = call_mix(2, &flows, world.config().mcp.max_chunk);
            let span = tracer.open("kernels", None);
            let k = run_kernels(&world, &mix, args.seed);
            tracer.close(span, Vec::new());
            let row = &mut out.row;
            put_layer_host(row, &all, &k);
            row.put(
                "gm.ftgm_host_ns_per_msg",
                ftgm.m.wall_s * 1e9 / ftgm.m.msgs as f64 - gm.m.wall_s * 1e9 / gm.m.msgs as f64,
            );
            row.put("host.world_build_s", build_s);
            drop(world);
            let t = Instant::now();
            let rebuilt = [build(WorldConfig::gm()), build(WorldConfig::ftgm())];
            row.put("host.world_rebuild_s", t.elapsed().as_secs_f64());
            drop(rebuilt);
        }
        out
    }
}
