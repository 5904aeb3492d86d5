//! `fat_tree256_mix` and `hang_recovery`: FTGM fat trees under
//! open-loop load. The first is where the fabric walk and the scheduler
//! population are largest; the second is the only workload that runs the
//! fault-tolerance daemon, the MCP reload and the per-process restore.

use std::time::Instant;

use ftgm_core::{FtSystem, RecoveryReport};
use ftgm_faults::chaos::{apply_action, ChaosAction};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimRng, SimTime};
use ftgm_workload::{fold_report, Arrival, FlowProbe, SizeMix, SloReport};

use crate::child::{ChildArgs, Outcome, Prepared};
use crate::flows::{
    call_mix, checksum, flow_pairs, put_hops, put_layer_counts, put_layer_host, quantile,
    run_sliced, spawn, steady_wall, totals, Flow, Measured, Model, Totals,
};
use crate::inputs::{flow_rng, fnv1a, Pad, FNV_OFFSET};
use crate::layers::{run_kernels, Counters};
use crate::trace::{SpanId, Tracer};
use crate::traffic::{Out, Reply, Script};

fn ft_world(spines: usize, leaves: usize, hosts_per_leaf: usize, trace: bool) -> (World, FtSystem) {
    let mut config = WorldConfig::ftgm();
    config.trace = trace;
    let mut world = World::fat_tree(spines, leaves, hosts_per_leaf, config);
    let ft = FtSystem::install(&mut world);
    (world, ft)
}

/// An open-loop script: arrivals on `arrival`'s clock until `offered`.
fn open_script(
    flow: u32,
    seed: u64,
    arrival: Arrival,
    sizes: &SizeMix,
    offered: SimDuration,
    pad: &Pad,
) -> Script {
    let mut rng = flow_rng(seed, flow);
    let (mut due, mut dues, mut lens) = (0u64, Vec::new(), Vec::new());
    loop {
        due += arrival.next_gap(&mut rng).as_nanos();
        if due >= offered.as_nanos() {
            break;
        }
        dues.push(due);
        lens.push(sizes.sample(&mut rng));
    }
    Script::new(flow, lens, dues, pad.clone())
}

fn slo(
    name: &str,
    seed: u64,
    phases: &[(&'static str, SimDuration)],
    outs: &[Out],
    recoveries: u64,
) -> SloReport {
    let mut windows = Vec::new();
    let mut cursor = 0u64;
    for &(phase, len) in phases {
        windows.push((phase, cursor, cursor + len.as_nanos()));
        cursor += len.as_nanos();
    }
    let probes: Vec<FlowProbe> = outs.iter().map(|o| o.borrow().probe.clone()).collect();
    fold_report(
        name,
        String::new(),
        "ftgm",
        seed,
        SimTime::ZERO,
        &windows,
        &probes,
        recoveries,
    )
}

/// Runs on in `step` slices until every flow has completed what it
/// issued, at most `max` times.
fn drain(
    world: &mut World,
    tracer: &mut Tracer,
    parent: SpanId,
    outs: &[Out],
    from: SimTime,
    step: SimDuration,
    max: u64,
) -> Vec<f64> {
    run_sliced(world, tracer, parent, from, step, 1..=max, || {
        outs.iter().all(|o| {
            let o = o.borrow();
            o.completed() == o.issued() && o.delivered == o.issued()
        })
    })
}

// ---------------------------------------------------------------------------
// fat_tree256_mix
// ---------------------------------------------------------------------------

const MIX_WARMUP: SimDuration = SimDuration::from_ms(2);
/// Simulated steady state per requested second.
const MIX_STEADY_MS_PER_SECOND: u64 = 150;
const MIX_DRAIN: SimDuration = SimDuration::from_ms(10);

pub struct Mix {
    world: World,
    ft: FtSystem,
    flows: Vec<Flow>,
    outs: Vec<Out>,
    steady: SimDuration,
    build_s: f64,
}

pub fn prepare_mix(args: &ChildArgs) -> Mix {
    let t = Instant::now();
    let (mut world, ft) = ft_world(8, 16, 16, false);
    let build_s = t.elapsed().as_secs_f64();
    let steady = SimDuration::from_ms(MIX_STEADY_MS_PER_SECOND * args.seconds);
    let offered = MIX_WARMUP + steady;
    let pad = Pad::new(args.seed);
    let arrival = Arrival::UniformJitter {
        min: SimDuration::from_us(100),
        max: SimDuration::from_us(300),
    };
    let sizes = SizeMix::Weighted {
        options: vec![(128, 3), (1024, 1), (4096, 1)],
    };
    // Every flow crosses the spine: host i in pods 0-7 to host i + 128.
    let flows: Vec<Flow> = (0..128u16)
        .map(|i| Flow {
            src: i,
            src_port: 0,
            dst: i + 128,
            dst_port: 2,
            model: Model::Open,
            script: open_script(u32::from(i), args.seed, arrival, &sizes, offered, &pad),
        })
        .collect();
    let outs = spawn(&mut world, &flows, SimTime::ZERO + offered);
    Mix {
        world,
        ft,
        flows,
        outs,
        steady,
        build_s,
    }
}

impl Prepared for Mix {
    fn run(self: Box<Self>, args: &ChildArgs, tracer: &mut Tracer) -> Outcome {
        let Mix {
            mut world,
            ft,
            flows,
            outs,
            steady,
            build_s,
        } = *self;
        let mut out = Outcome::default();
        let root = tracer.open(args.workload.name(), None);
        let offered_end = SimTime::ZERO + MIX_WARMUP + steady;
        // Twenty slices of equal offered load, then the drain.
        let step = SimDuration::from_nanos((MIX_WARMUP + steady).as_nanos() / 20);
        let mut times = run_sliced(
            &mut world,
            tracer,
            root,
            SimTime::ZERO,
            step,
            20..=20,
            || true,
        );
        times.extend(drain(
            &mut world,
            tracer,
            root,
            &outs,
            offered_end,
            MIX_DRAIN,
            10,
        ));
        let wall_s = steady_wall(&times, 20);
        let c = Counters::read(&world);
        tracer.close(root, c.span_counters());

        let t = totals(&flows, &outs);
        let recoveries: u64 = (0..world.nodes.len())
            .map(|n| ft.recoveries(NodeId(n as u16)))
            .sum();
        let report = slo(
            args.workload.name(),
            args.seed,
            &[
                ("warmup", MIX_WARMUP),
                ("steady", steady),
                ("drain", MIX_DRAIN * 10),
            ],
            &outs,
            recoveries,
        );
        let steady_slo = report.steady().expect("a steady phase was declared");
        out.attempted = t.issued;
        out.failed = t.failed;
        out.expect(recoveries == 0 && c.dropped == 0, || {
            format!(
                "fault-free run saw {recoveries} recoveries, {} fabric drops",
                c.dropped
            )
        });
        out.notes.push(format!(
            "latency quantiles over n = {} steady-state completions",
            steady_slo.completed
        ));

        let m = Measured {
            wall_s,
            msgs: t.validated,
            bytes: t.validated_bytes,
            util_permille: c.channel_util_permille(),
            c,
        };
        let row = &mut out.row;
        row.put("wall_s", wall_s);
        row.put("msgs_per_s", m.msgs as f64 / wall_s);
        row.put("sim_latency_p50_ns", steady_slo.p50_ns as f64);
        row.put("sim_latency_p999_ns", steady_slo.p999_ns as f64);
        row.put(
            "sim_goodput_bytes_per_s",
            steady_slo.goodput_bytes_per_sec as f64,
        );
        put_layer_counts(row, &m);
        put_hops(
            row,
            &world,
            flow_pairs(&flows, world.config().mcp.max_chunk),
        );
        row.put("core.recoveries", recoveries as f64);
        row.put("workload.issued", t.issued as f64);
        row.put("workload.completed", t.completed as f64);
        row.put("workload.max_in_flight", t.max_in_flight as f64);
        row.put("workload.gen_late_p99_ns", quantile(&t.late, 990));
        out.checks.push(("latencies", checksum(&t, &c)));

        if args.trace {
            let mix = call_mix(world.nodes.len(), &flows, world.config().mcp.max_chunk);
            let span = tracer.open("kernels", None);
            let k = run_kernels(&world, &mix, args.seed);
            tracer.close(span, Vec::new());
            let row = &mut out.row;
            put_layer_host(row, &m, &k);
            row.put("host.world_build_s", build_s);
            drop(world);
            let t = Instant::now();
            let rebuilt = ft_world(8, 16, 16, false);
            row.put("host.world_rebuild_s", t.elapsed().as_secs_f64());
            drop(rebuilt);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// hang_recovery
// ---------------------------------------------------------------------------

const HANG_WARMUP: SimDuration = SimDuration::from_ms(2);
const HANG_STEADY: SimDuration = SimDuration::from_ms(20);
const HANG_FAULT: SimDuration = SimDuration::from_ms(2300);
const HANG_DRAIN: SimDuration = SimDuration::from_ms(20);
/// The victim: both flows into node 0 stall while its NIC is down.
const VICTIM: NodeId = NodeId(0);
/// PAPER.md's Table 3, in simulated ns.
const PAPER_DETECT_NS: f64 = 800e3;
const PAPER_FTD_NS: f64 = 765_000e3;
const PAPER_PER_PROCESS_NS: f64 = 900_000e3;
const PAPER_TOTAL_NS: f64 = 1_665_800e3;

struct Episode {
    world: World,
    ft: FtSystem,
    flows: Vec<Flow>,
    outs: Vec<Out>,
    /// When the hang is forced, from the run's start.
    hang_at: SimTime,
}

pub struct Hang {
    episodes: Vec<Episode>,
    build_s: f64,
}

/// The four-flow mix of the scale bench's hang cells, on eight hosts: a
/// closed-loop and an open-loop flow into the victim, two open-loop
/// flows that never touch it.
fn hang_flows(seed: u64, episode: u32, offered: SimDuration, pad: &Pad) -> Vec<Flow> {
    let open = |flow: u32, src, dst, dst_port, arrival, sizes: SizeMix| Flow {
        src,
        src_port: 0,
        dst,
        dst_port,
        model: Model::Open,
        script: open_script(episode * 4 + flow, seed, arrival, &sizes, offered, pad),
    };
    let fixed = |us| Arrival::Fixed {
        gap: SimDuration::from_us(us),
    };
    // More requests than a 20 us think time lets through in the window.
    let requests = offered.as_nanos() / 20_000;
    vec![
        Flow {
            src: 1,
            src_port: 0,
            dst: 0,
            dst_port: 2,
            model: Model::Echo {
                reply: Reply::Head16,
                think: SimDuration::from_us(20),
            },
            script: Script::new(
                episode * 4,
                vec![256; requests as usize],
                Vec::new(),
                pad.clone(),
            ),
        },
        open(1, 4, 0, 3, fixed(50), SizeMix::Fixed { bytes: 512 }),
        open(
            2,
            7,
            4,
            2,
            Arrival::UniformJitter {
                min: SimDuration::from_us(20),
                max: SimDuration::from_us(80),
            },
            SizeMix::Weighted {
                options: vec![(128, 3), (1024, 1)],
            },
        ),
        open(3, 2, 7, 3, fixed(40), SizeMix::Fixed { bytes: 256 }),
    ]
}

pub fn prepare_hang(args: &ChildArgs) -> Hang {
    let episodes = ((8 * args.seconds + 5) / 10).max(1) as u32;
    let offered = HANG_WARMUP + HANG_STEADY + HANG_FAULT;
    let pad = Pad::new(args.seed);
    let mut phase_rng = SimRng::new(args.seed ^ 0x4A46);
    let mut build_s = 0.0;
    let episodes = (0..episodes)
        .map(|k| {
            let t = Instant::now();
            // The traced run turns the world's milestone trace on to read
            // the recovery phase boundaries; the untraced run does not.
            let (mut world, ft) = ft_world(2, 2, 4, args.trace);
            build_s += t.elapsed().as_secs_f64();
            let flows = hang_flows(args.seed, k, offered, &pad);
            let outs = spawn(&mut world, &flows, SimTime::ZERO + offered);
            // Each episode hangs the NIC at another phase of its timers.
            let offset = 10_000_000 + u64::from(k) * 173_000 + phase_rng.gen_range(173_000);
            Episode {
                world,
                ft,
                flows,
                outs,
                hang_at: SimTime::ZERO
                    + HANG_WARMUP
                    + HANG_STEADY
                    + SimDuration::from_nanos(offset),
            }
        })
        .collect();
    Hang { episodes, build_s }
}

/// The fault window's `run_until` slices: the simulated instant each
/// ended at and the host interval (tracer ns) it took.
struct Slices(Vec<(SimTime, u64, u64)>);

impl Slices {
    fn host_s(&self) -> f64 {
        self.0.iter().map(|&(_, a, b)| (b - a) as f64 / 1e9).sum()
    }

    /// The slices that ended in `(from, to]`: their host seconds and the
    /// host interval they span.
    fn phase(&self, from: SimTime, to: SimTime) -> (f64, u64, u64) {
        let inside = || {
            self.0
                .iter()
                .filter(move |&&(end, _, _)| end > from && end <= to)
        };
        (
            inside().map(|&(_, a, b)| (b - a) as f64 / 1e9).sum(),
            inside().map(|&(_, a, _)| a).min().unwrap_or(0),
            inside().map(|&(_, _, b)| b).max().unwrap_or(0),
        )
    }
}

struct EpisodeResult {
    wall_s: f64,
    c: Counters,
    t: Totals,
    blackout_ns: u64,
    detect_ns: u64,
    /// FTD done, seen from outside as `FtSystem::busy` turning false
    /// (to the slice, 1 ms).
    ftd_ns: u64,
    /// From there to the first completion on a flow into the victim.
    per_process_ns: u64,
    report: Option<RecoveryReport>,
    host_by_phase: [f64; 4],
}

fn run_episode(ep: &mut Episode, seed: u64, tracer: &mut Tracer, parent: SpanId) -> EpisodeResult {
    let Episode {
        world,
        ft,
        flows,
        outs,
        hang_at,
    } = ep;
    let hang_at = *hang_at;
    let fault_end = SimTime::ZERO + HANG_WARMUP + HANG_STEADY + HANG_FAULT;
    let before_hang = hang_at.saturating_since(SimTime::ZERO);
    let mut wall_s: f64 = run_sliced(
        world,
        tracer,
        parent,
        SimTime::ZERO,
        before_hang,
        1..=1,
        || true,
    )
    .iter()
    .sum();
    let mut rng = SimRng::new(seed ^ 0xFA57_C0DE);
    apply_action(world, &ChaosAction::ForceHang { node: VICTIM.0 }, &mut rng);

    // 20 us slices while the watchdog has yet to fire, 1 ms after.
    let mut slices = Slices(Vec::new());
    let (mut detected_at, mut ftd_done_at) = (None, None);
    let fault_span = tracer.open("fault_window", Some(parent));
    // `World::now` is the last event's instant, not the `run_until`
    // bound, so the slices advance a cursor of their own.
    let mut to = hang_at;
    while to < fault_end {
        let step = if detected_at.is_none() {
            20_000
        } else {
            1_000_000
        };
        to = (to + SimDuration::from_nanos(step)).min(fault_end);
        let started = tracer.now_ns();
        world.run_until(to);
        slices.0.push((to, started, tracer.now_ns()));
        if detected_at.is_none() {
            detected_at = ft.detected_at(VICTIM);
        } else if ftd_done_at.is_none() && !ft.busy(VICTIM) {
            ftd_done_at = Some(to);
        }
    }
    tracer.close(fault_span, Counters::read(world).span_counters());
    wall_s += slices.host_s();
    wall_s += drain(world, tracer, parent, outs, fault_end, HANG_DRAIN, 50)
        .iter()
        .sum::<f64>();

    let c = Counters::read(world);
    let t = totals(flows, outs);
    let report = slo(
        "hang_recovery",
        seed,
        &[
            ("warmup", HANG_WARMUP),
            ("steady", HANG_STEADY),
            ("fault", HANG_FAULT),
            ("drain", HANG_DRAIN * 50),
        ],
        outs,
        ft.recoveries(VICTIM),
    );
    let detected_at = detected_at.unwrap_or(fault_end);
    let ftd_done_at = ftd_done_at.unwrap_or(fault_end);
    let first_back = outs[..2]
        .iter()
        .filter_map(|o| {
            o.borrow()
                .probe
                .completions
                .iter()
                .map(|c| c.at)
                .find(|&at| at > ftd_done_at)
        })
        .min()
        .unwrap_or(fault_end);

    let recovery = RecoveryReport::from_trace(&world.trace);
    let mut host_by_phase = [0.0; 4];
    if let Some(r) = &recovery {
        let marks = [
            r.fault_at,
            r.ftd_woken_at,
            r.ftd_done_at,
            r.ports_reopened_at,
            fault_end,
        ];
        let names = [
            "phase:detect",
            "phase:ftd",
            "phase:per_process",
            "phase:post",
        ];
        for (i, pair) in marks.windows(2).enumerate() {
            let (host_s, start_ns, end_ns) = slices.phase(pair[0], pair[1]);
            host_by_phase[i] = host_s;
            tracer.push(names[i], fault_span, start_ns, end_ns);
        }
    }
    EpisodeResult {
        wall_s,
        c,
        t,
        blackout_ns: report.fault().map_or(0, |p| p.longest_gap_ns),
        detect_ns: detected_at.saturating_since(hang_at).as_nanos(),
        ftd_ns: ftd_done_at.saturating_since(detected_at).as_nanos(),
        per_process_ns: first_back.saturating_since(ftd_done_at).as_nanos(),
        report: recovery,
        host_by_phase,
    }
}

impl Prepared for Hang {
    fn run(self: Box<Self>, args: &ChildArgs, tracer: &mut Tracer) -> Outcome {
        let Hang {
            mut episodes,
            build_s,
        } = *self;
        let mut out = Outcome::default();
        let root = tracer.open(args.workload.name(), None);
        let results: Vec<EpisodeResult> = episodes
            .iter_mut()
            .enumerate()
            .map(|(k, ep)| {
                let span = tracer.open(format!("episode:{k}"), Some(root));
                let r = run_episode(ep, args.seed, tracer, span);
                tracer.close(span, r.c.span_counters());
                r
            })
            .collect();
        tracer.close(root, Vec::new());

        let n = results.len() as f64;
        let mut all = Measured {
            wall_s: 0.0,
            msgs: 0,
            bytes: 0,
            util_permille: 0.0,
            c: Counters::default(),
        };
        let mut t = Totals::default();
        // Every episode does the same work but for the hang's phase.
        let walls: Vec<f64> = results.iter().map(|r| r.wall_s).collect();
        all.wall_s = steady_wall(&walls, walls.len());
        let mut sum = FNV_OFFSET;
        let (mut recoveries, mut false_alarms, mut failed_attempts, mut escalations) = (0, 0, 0, 0);
        for (ep, r) in episodes.iter().zip(&results) {
            all.msgs += r.t.validated;
            all.bytes += r.t.validated_bytes;
            all.util_permille = all.util_permille.max(r.c.channel_util_permille());
            all.c = all.c.plus(&r.c);
            t.issued += r.t.issued;
            t.completed += r.t.completed;
            t.failed += r.t.failed;
            t.max_in_flight = t.max_in_flight.max(r.t.max_in_flight);
            t.latency.merge(&r.t.latency);
            t.late.merge(&r.t.late);
            sum = fnv1a(sum, checksum(&r.t, &r.c));
            for node in 0..ep.world.nodes.len() {
                let node = NodeId(node as u16);
                recoveries += ep.ft.recoveries(node);
                false_alarms += ep.ft.false_alarms(node);
                failed_attempts += ep.ft.failed_attempts(node);
                escalations += ep.ft.escalations(node);
            }
            let once = ep.ft.recoveries(VICTIM) == 1;
            out.expect(once && r.blackout_ns < 2_000_000_000, || {
                format!(
                    "episode: {} recoveries on the victim, blackout {} ns",
                    ep.ft.recoveries(VICTIM),
                    r.blackout_ns
                )
            });
        }
        out.attempted += t.issued;
        out.failed += t.failed;
        out.checks.push(("latencies", sum));
        out.notes.push(format!(
            "latency quantiles over n = {} completions in {} episodes",
            t.latency.len(),
            results.len()
        ));

        let mean =
            |f: fn(&EpisodeResult) -> u64| results.iter().map(|r| f(r) as f64).sum::<f64>() / n;
        let blackout = results.iter().map(|r| r.blackout_ns).max().unwrap_or(0);
        let detect_mean = mean(|r| r.detect_ns);
        let err = |sim: f64, paper: f64| (sim - paper).abs() * 1000.0 / paper;
        let paper_err = err(detect_mean, PAPER_DETECT_NS)
            .max(err(mean(|r| r.ftd_ns), PAPER_FTD_NS))
            .max(err(mean(|r| r.per_process_ns), PAPER_PER_PROCESS_NS))
            .max(err(mean(|r| r.blackout_ns), PAPER_TOTAL_NS));

        let row = &mut out.row;
        row.put("wall_s", all.wall_s);
        row.put("msgs_per_s", all.msgs as f64 / all.wall_s);
        row.put("sim_latency_p50_ns", quantile(&t.latency, 500));
        row.put("sim_latency_p999_ns", quantile(&t.latency, 999));
        row.put(
            "sim_goodput_bytes_per_s",
            all.bytes as f64 * 1e9 / all.c.sim_ns as f64,
        );
        row.put("recovery_blackout_ns", blackout as f64);
        row.put("paper_err_permille", paper_err);
        put_layer_counts(row, &all);
        let world = &episodes[0].world;
        put_hops(
            row,
            world,
            flow_pairs(&episodes[0].flows, world.config().mcp.max_chunk),
        );
        row.put("core.detect_ns_mean", detect_mean);
        row.put(
            "core.detect_ns_max",
            results.iter().map(|r| r.detect_ns).max().unwrap_or(0) as f64,
        );
        row.put("core.recoveries", recoveries as f64);
        row.put("core.false_alarms", false_alarms as f64);
        row.put("core.failed_attempts", failed_attempts as f64);
        row.put("core.escalations", escalations as f64);
        row.put("faults.injections", n);
        row.put("workload.issued", t.issued as f64);
        row.put("workload.completed", t.completed as f64);
        row.put("workload.max_in_flight", t.max_in_flight as f64);
        row.put("workload.gen_late_p99_ns", quantile(&t.late, 990));

        if args.trace {
            // Table 3's phases, read from the worlds' milestone traces.
            let reports: Vec<&RecoveryReport> =
                results.iter().filter_map(|r| r.report.as_ref()).collect();
            let found = reports.len() == results.len();
            out.expect(found, || {
                "an episode's trace holds no complete recovery".to_string()
            });
            let phase_mean = |f: fn(&RecoveryReport) -> SimDuration| {
                reports.iter().map(|r| f(r).as_nanos() as f64).sum::<f64>()
                    / reports.len().max(1) as f64
            };
            let row = &mut out.row;
            row.put("core.ftd_ns", phase_mean(RecoveryReport::ftd_time));
            row.put(
                "core.per_process_ns",
                phase_mean(RecoveryReport::per_process),
            );
            row.put("core.total_ns", phase_mean(RecoveryReport::total));
            let host = |i: usize| results.iter().map(|r| r.host_by_phase[i]).sum::<f64>();
            row.put("core.host_s_detect", host(0));
            row.put("core.host_s_ftd", host(1));
            row.put("core.host_s_per_process", host(2));
            row.put("core.host_s_post", host(3));

            let world = &episodes[0].world;
            let mix = call_mix(
                world.nodes.len(),
                &episodes[0].flows,
                world.config().mcp.max_chunk,
            );
            let span = tracer.open("kernels", None);
            let k = run_kernels(world, &mix, args.seed);
            tracer.close(span, Vec::new());
            put_layer_host(row, &all, &k);
            row.put("host.world_build_s", build_s);
            let count = episodes.len();
            drop(episodes);
            let t = Instant::now();
            let rebuilt: Vec<_> = (0..count).map(|_| ft_world(2, 2, 4, true)).collect();
            row.put("host.world_rebuild_s", t.elapsed().as_secs_f64());
            drop(rebuilt);
        }
        out
    }
}
