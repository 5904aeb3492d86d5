//! Composable chaos campaigns: seed-replayable schedules of *composed*
//! fault events over multi-node worlds, checked by invariant oracles.
//!
//! The single-fault runs in [`crate::inject`] reproduce the paper's §2
//! campaign: one bit flip, one two-node world, one observation window. A
//! [`ChaosScenario`] generalizes that to the multi-fault regimes the
//! paper's testbed could not exercise systematically:
//!
//! * bit flips on several nodes of a star or ring,
//! * faults *timed to land inside a specific FTD recovery phase* (the
//!   runner fires them from [`World::run_until_ftd_phase`]),
//! * back-to-back hangs that re-enter the daemon while it is busy,
//! * transient link outages and lossy-link windows on the fabric.
//!
//! Every scenario runs under the retry/escalation FTD and ends with oracle
//! checks: validated traffic stayed exactly-once (no corruption, no
//! duplicates or misordering), and every faulted interface converged to
//! *recovered* or loudly *escalated* within the horizon — never a silent
//! hang. Identical `(scenario, seed)` pairs replay identically, down to
//! the serialized report.
//!
//! This module is the *engine*: the compiled scenario form, the fault
//! primitives, the runner and the oracles. It names no scenario. Every
//! named scenario is a `scenarios/<name>.ftsc` file, lowered onto
//! [`ChaosScenario`] by `ftgm-scenario` and replayed by the `chaos`
//! bench binary; tests that need a one-off build a [`ChaosScenario`]
//! from the [`ChaosScenario::two_node`] skeleton directly.

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::{Coordinator, CoordinatorConfig, FtSystem, RetryPolicy};
use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::fabric::LinkFaults;
use ftgm_net::{reroute, NodeId, SwitchId};
use ftgm_sim::{export, Metrics, RecoveryPhase, SimDuration, SimRng, TraceKind, ZoneTrigger};

use crate::classify::{classify_resolution, Resolution};
use crate::inject::{flip_random_bit, InjectionTarget};

/// The world a scenario runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosTopology {
    /// The paper's testbed: two hosts, one switch.
    TwoNode,
    /// `n` hosts on one switch.
    Star(usize),
    /// `n` switches in a cycle, one host each.
    Ring(usize),
    /// A two-level leaf/spine fat tree of `leaves * hosts_per_leaf` hosts.
    FatTree {
        /// Spine (top-level) switch count.
        spines: usize,
        /// Leaf switch count.
        leaves: usize,
        /// Hosts hanging off each leaf.
        hosts_per_leaf: usize,
    },
    /// A 2-D torus of `cols × rows` switches, one host each.
    Torus {
        /// Columns (east-west extent).
        cols: usize,
        /// Rows (north-south extent).
        rows: usize,
    },
}

impl ChaosTopology {
    /// Builds the world this topology describes (shared with the workload
    /// driver, which builds the plain-GM twin of a scenario's load flows
    /// over the same shape).
    pub fn build(self, config: WorldConfig) -> World {
        match self {
            ChaosTopology::TwoNode => World::two_node(config),
            ChaosTopology::Star(n) => World::star(n, config),
            ChaosTopology::Ring(n) => World::ring(n, config),
            ChaosTopology::FatTree {
                spines,
                leaves,
                hosts_per_leaf,
            } => World::fat_tree(spines, leaves, hosts_per_leaf, config),
            ChaosTopology::Torus { cols, rows } => World::torus(cols, rows, config),
        }
    }

    /// Number of hosts in the topology.
    pub fn node_count(self) -> usize {
        match self {
            ChaosTopology::TwoNode => 2,
            ChaosTopology::Star(n) => n,
            ChaosTopology::Ring(n) => n,
            ChaosTopology::FatTree {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            ChaosTopology::Torus { cols, rows } => cols * rows,
        }
    }
}

/// One validated traffic flow (a [`PatternSender`] → [`PatternReceiver`]
/// pair sharing a stats block).
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    /// Sending node.
    pub src: u16,
    /// Sender's GM port.
    pub src_port: u8,
    /// Receiving node.
    pub dst: u16,
    /// Receiver's GM port.
    pub dst_port: u8,
    /// Message size in bytes.
    pub msg_size: u32,
    /// Sender pipeline depth.
    pub pipeline: u32,
}

impl Flow {
    /// A 256-byte, depth-2 flow between default ports.
    pub fn simple(src: u16, dst: u16) -> Flow {
        Flow {
            src,
            src_port: 0,
            dst,
            dst_port: 2,
            msg_size: 256,
            pipeline: 2,
        }
    }
}

/// One fault primitive. Actions compose: a scenario may fire any number,
/// timed absolutely or triggered by FTD recovery phases.
#[derive(Clone, Debug)]
pub enum ChaosAction {
    /// Flip one uniformly random bit of `target` on `node`.
    BitFlip {
        /// Faulted node.
        node: u16,
        /// SRAM region the flip lands in.
        target: InjectionTarget,
    },
    /// Force the node's network processor into a hang immediately.
    ForceHang {
        /// Faulted node.
        node: u16,
    },
    /// Take the node's host–switch cable down for `duration`, then back up.
    NicLinkDown {
        /// Node whose NIC cable is pulled.
        node: u16,
        /// Outage length.
        duration: SimDuration,
    },
    /// A window of fabric-wide packet loss and wire corruption.
    LinkNoise {
        /// Per-packet drop probability.
        drop_prob: f64,
        /// Per-packet CRC-visible corruption probability.
        corrupt_prob: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// Kill a whole switch: every link cabled to it goes down and stays
    /// down. Only mapper-driven reroute (and, where the residual fabric
    /// cannot reach a host at all, coordinator escalation) can respond.
    SwitchDeath {
        /// Switch to kill.
        switch: u16,
    },
    /// Oscillate a node's NIC cable: down for `period`, up for `period`,
    /// `count` times — the flap pattern that punishes any reroute logic
    /// lacking a debounce.
    LinkFlap {
        /// Node whose NIC cable flaps.
        node: u16,
        /// Half-cycle length (time spent down, then time spent up).
        period: SimDuration,
        /// Number of down/up cycles.
        count: u32,
    },
    /// Hang several network processors nearly at once (`skew` apart, in
    /// listed order) — the correlated multi-NIC failure mode a
    /// single-node FTD cannot see coming.
    CorrelatedHang {
        /// Nodes to hang, in firing order.
        nodes: Vec<u16>,
        /// Delay between consecutive hangs.
        skew: SimDuration,
    },
}

/// An action fired at an absolute offset after the traffic warm-up.
#[derive(Clone, Debug)]
pub struct ChaosEvent {
    /// Offset after warm-up.
    pub at: SimDuration,
    /// What happens.
    pub action: ChaosAction,
}

/// An action fired the moment the FTD on `node` completes a specific
/// recovery phase — the instrument for faults *inside* a recovery.
#[derive(Clone, Debug)]
pub struct PhaseTrigger {
    /// Node whose FTD is watched.
    pub node: u16,
    /// Phase whose completion pulls the trigger.
    pub phase: RecoveryPhase,
    /// What happens.
    pub action: ChaosAction,
    /// How many times the trigger may fire before disarming.
    pub remaining: u32,
}

/// A full scenario: world shape, traffic, and fault schedule.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// Name, used in reports and JSON.
    pub name: String,
    /// World shape.
    pub topology: ChaosTopology,
    /// Validated traffic flows.
    pub flows: Vec<Flow>,
    /// Absolutely-timed fault events.
    pub events: Vec<ChaosEvent>,
    /// Recovery-phase-triggered fault events.
    pub phase_triggers: Vec<PhaseTrigger>,
    /// Fault-free traffic ramp before the schedule starts.
    pub warmup: SimDuration,
    /// Observation window after warm-up; oracles run at its end.
    pub horizon: SimDuration,
    /// FTD retry/escalation policy for this scenario.
    pub policy: RetryPolicy,
    /// Install a DIR-net-style zone coordinator (backup agent) with this
    /// config. `None` = the legacy single-node-FTD-only regime.
    pub coordinator: Option<CoordinatorConfig>,
    /// Opt-in blackout oracle: every flow whose endpoints both end
    /// healthy/recovered must keep its longest delivery gap under this
    /// bound (the paper's &lt;2 s recovery promise, observed end to end).
    pub blackout_bound: Option<SimDuration>,
}

impl ChaosScenario {
    /// A two-node scenario skeleton with one flow and no faults yet.
    pub fn two_node(name: &str) -> ChaosScenario {
        ChaosScenario {
            name: name.to_string(),
            topology: ChaosTopology::TwoNode,
            flows: vec![Flow::simple(0, 1)],
            events: Vec::new(),
            phase_triggers: Vec::new(),
            warmup: SimDuration::from_ms(10),
            horizon: SimDuration::from_ms(2_500),
            policy: RetryPolicy::default(),
            coordinator: None,
            blackout_bound: None,
        }
    }
}

/// One interface's terminal state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeReport {
    /// Node id.
    pub node: u16,
    /// Terminal fault-tolerance state.
    pub resolution: Resolution,
    /// Completed recoveries.
    pub recoveries: u64,
    /// Reload attempts within the last fault burst.
    pub attempts: u32,
    /// Reload attempts whose post-reload verification failed.
    pub failed_attempts: u64,
    /// Escalations to `InterfaceDead`.
    pub escalations: u64,
    /// FTD wake-ups that found the magic word cleared.
    pub false_alarms: u64,
}

/// One flow's delivery story.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowReport {
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Messages delivered valid over the whole run.
    pub delivered: u64,
    /// Messages delivered valid after warm-up (the progress oracle input).
    pub progress: u64,
    /// Corrupt deliveries (exactly-once violation).
    pub corrupt: u64,
    /// Duplicate/out-of-order deliveries (exactly-once violation).
    pub misordered: u64,
    /// Application-visible send errors.
    pub send_errors: u64,
    /// `InterfaceDead` events seen by either endpoint.
    pub iface_dead: u64,
    /// Longest delivery gap the receiver observed (including the tail
    /// from the last delivery to the end of the run; the whole run if
    /// nothing was ever delivered). The blackout oracle's input.
    pub blackout_ns: u64,
}

/// A completed scenario run: per-node and per-flow results plus every
/// oracle violation (empty = the scenario passed).
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run replayed from.
    pub seed: u64,
    /// Per-interface terminal states.
    pub nodes: Vec<NodeReport>,
    /// Per-flow delivery results.
    pub flows: Vec<FlowReport>,
    /// Oracle violations, human-readable.
    pub violations: Vec<String>,
    /// The run's metrics snapshot (counters + histograms), taken from the
    /// world trace at the end of the horizon.
    pub metrics: Metrics,
}

impl ChaosReport {
    /// Did every oracle hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report as a JSON object (hand-rolled, no deps).
    /// Byte-identical across replays of the same `(scenario, seed)` — the
    /// replay-identity tests compare these strings directly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scenario\": \"{}\",\n", self.scenario));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"ok\": {},\n", self.ok()));
        out.push_str("  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"node\": {}, \"resolution\": \"{}\", \"recoveries\": {}, \
                 \"attempts\": {}, \"failed_attempts\": {}, \"escalations\": {}, \
                 \"false_alarms\": {}}}",
                n.node,
                n.resolution,
                n.recoveries,
                n.attempts,
                n.failed_attempts,
                n.escalations,
                n.false_alarms
            ));
        }
        out.push_str("\n  ],\n  \"flows\": [");
        for (i, f) in self.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"src\": {}, \"dst\": {}, \"delivered\": {}, \"progress\": {}, \
                 \"corrupt\": {}, \"misordered\": {}, \"send_errors\": {}, \"iface_dead\": {}, \
                 \"blackout_ns\": {}}}",
                f.src, f.dst, f.delivered, f.progress, f.corrupt, f.misordered, f.send_errors,
                f.iface_dead, f.blackout_ns
            ));
        }
        out.push_str("\n  ],\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\"", v.replace('"', "'")));
        }
        out.push_str("\n  ],\n  \"metrics\": ");
        out.push_str(&self.metrics.to_json_indented(2));
        out.push_str("\n}\n");
        out
    }
}

/// Applies one fault primitive right now. Public so a driver outside the
/// scenario runner (the repo benchmark's hang episodes) fires the same
/// primitives the chaos scenarios use; `rng` supplies every random draw,
/// keeping callers seed-replayable.
pub fn apply_action(world: &mut World, action: &ChaosAction, rng: &mut SimRng) {
    match action {
        ChaosAction::BitFlip { node, target } => {
            flip_random_bit(world, NodeId(*node), *target, rng);
        }
        ChaosAction::ForceHang { node } => {
            force_hang_now(world, *node);
        }
        ChaosAction::NicLinkDown { node, duration } => {
            if let Some(link) = world.fabric.topology().nic_link(NodeId(*node)) {
                let now = world.now();
                world.trace.emit(now, TraceKind::LinkDown { link });
                world.fabric.set_link_up(link, false);
                world.schedule_call(*duration, move |w| {
                    let t = w.now();
                    w.trace.emit(t, TraceKind::LinkUp { link });
                    w.fabric.set_link_up(link, true);
                });
            }
        }
        ChaosAction::LinkNoise {
            drop_prob,
            corrupt_prob,
            duration,
        } => {
            let now = world.now();
            world.trace.emit(now, TraceKind::NoiseOpened);
            world.fabric.set_faults(Some(LinkFaults {
                drop_prob: *drop_prob,
                corrupt_prob: *corrupt_prob,
                rng: SimRng::new(rng.next_u64()),
            }));
            world.schedule_call(*duration, |w| {
                let t = w.now();
                w.trace.emit(t, TraceKind::NoiseClosed);
                w.fabric.set_faults(None);
            });
        }
        ChaosAction::SwitchDeath { switch } => {
            let sw = SwitchId(*switch);
            let links = reroute::switch_links(world.fabric.topology(), sw);
            let now = world.now();
            let mut killed = 0u32;
            for link in links {
                if world.fabric.link_is_up(link) {
                    world.trace.emit(now, TraceKind::LinkDown { link });
                    world.fabric.set_link_up(link, false);
                    killed += 1;
                }
            }
            world.trace.emit(
                now,
                TraceKind::SwitchKilled { switch: *switch, links: killed },
            );
        }
        ChaosAction::LinkFlap { node, period, count } => {
            if let Some(link) = world.fabric.topology().nic_link(NodeId(*node)) {
                flap_step(world, link, *period, *count);
            }
        }
        ChaosAction::CorrelatedHang { nodes, skew } => {
            for (i, node) in nodes.iter().enumerate() {
                let node = *node;
                if i == 0 {
                    force_hang_now(world, node);
                } else {
                    let delay =
                        SimDuration::from_nanos(skew.as_nanos().saturating_mul(i as u64));
                    world.schedule_call(delay, move |w| force_hang_now(w, node));
                }
            }
        }
    }
}

/// Hangs `node`'s network processor right now, tracing the activation.
fn force_hang_now(world: &mut World, node: u16) {
    let now = world.now();
    world.trace.emit(now, TraceKind::ForcedHang { node });
    if let Some(n) = world.nodes.get_mut(node as usize) {
        n.mcp.force_hang();
    }
}

/// One down/up flap cycle on `link`, rescheduling itself `remaining - 1`
/// more times.
fn flap_step(world: &mut World, link: usize, period: SimDuration, remaining: u32) {
    if remaining == 0 {
        return;
    }
    let now = world.now();
    world.trace.emit(now, TraceKind::LinkDown { link });
    world.fabric.set_link_up(link, false);
    world.schedule_call(period, move |w| {
        let t = w.now();
        w.trace.emit(t, TraceKind::LinkUp { link });
        w.fabric.set_link_up(link, true);
        w.schedule_call(period, move |w| flap_step(w, link, period, remaining - 1));
    });
}

/// Executes one scenario. `seed` drives every random draw (bit positions,
/// noise); identical `(scenario, seed)` pairs produce byte-identical
/// reports.
pub fn run_scenario(scenario: &ChaosScenario, seed: u64) -> ChaosReport {
    run_scenario_core(scenario, seed, |_| ()).0
}

/// One scenario's full observability output: the oracle report plus the
/// exported trace/metrics artifacts (JSON-lines events, a Chrome
/// `trace_event` file, and the metrics snapshot). Byte-identical across
/// replays of the same `(scenario, seed)`.
#[derive(Clone, Debug)]
pub struct ScenarioArtifacts {
    /// The oracle-checked report (same as [`run_scenario`] returns).
    pub report: ChaosReport,
    /// Every stored trace event, one JSON object per line.
    pub trace_jsonl: String,
    /// The trace in Chrome `trace_event` format (load in `about:tracing`
    /// or Perfetto).
    pub chrome_trace: String,
    /// The metrics registry as standalone indented JSON.
    pub metrics_json: String,
    /// Zone reroutes the coordinator triggered because concurrent
    /// recoveries crossed its cascade threshold, counted from the typed
    /// trace (not from its serialized form).
    pub cascades: u64,
}

fn is_cascade_reroute(kind: &TraceKind) -> bool {
    matches!(kind, TraceKind::ZoneRerouteTriggered { trigger: ZoneTrigger::Cascade, .. })
}

/// Runs a scenario and exports its trace and metrics alongside the report.
///
/// `spawn` adds further traffic to the scenario's world right after its
/// validated flows and before any fault is scheduled (the DSL runner's
/// load flows); whatever it returns comes back beside the artifacts, for
/// the caller to read once the horizon has run out.
pub fn run_scenario_artifacts<T>(
    scenario: &ChaosScenario,
    seed: u64,
    spawn: impl FnOnce(&mut World) -> T,
) -> (ScenarioArtifacts, T) {
    let (report, world, spawned) = run_scenario_core(scenario, seed, spawn);
    let artifacts = ScenarioArtifacts {
        trace_jsonl: export::to_jsonl(&world.trace),
        chrome_trace: export::to_chrome_trace(&world.trace),
        metrics_json: world.trace.metrics().to_json_indented(0),
        cascades: world.trace.count_where(is_cascade_reroute) as u64,
        report,
    };
    (artifacts, spawned)
}

fn run_scenario_core<T>(
    scenario: &ChaosScenario,
    seed: u64,
    spawn: impl FnOnce(&mut World) -> T,
) -> (ChaosReport, World, T) {
    let mut config = WorldConfig::ftgm();
    config.trace = true;
    let mut world = scenario.topology.build(config);
    let ft = FtSystem::install_with_policy(&mut world, scenario.policy);
    if let Some(coord_config) = scenario.coordinator {
        let _coordinator = Coordinator::install(&mut world, &ft, coord_config);
    }

    // One shared randomness source for all actions; draws happen in
    // deterministic simulation-event order.
    let rng = Rc::new(RefCell::new(SimRng::new(seed)));

    // Traffic: one validated sender/receiver pair per flow.
    let mut flow_stats: Vec<Rc<RefCell<TrafficStats>>> = Vec::new();
    for f in &scenario.flows {
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        world.spawn_app(
            NodeId(f.dst),
            f.dst_port,
            Box::new(PatternReceiver::new(f.msg_size.max(64), 16, stats.clone())),
        );
        world.spawn_app(
            NodeId(f.src),
            f.src_port,
            Box::new(PatternSender::new(
                NodeId(f.dst),
                f.dst_port,
                f.msg_size,
                f.pipeline,
                None,
                stats.clone(),
            )),
        );
        flow_stats.push(stats);
    }
    let spawned = spawn(&mut world);

    // Absolutely-timed faults.
    for ev in &scenario.events {
        let action = ev.action.clone();
        let ev_rng = rng.clone();
        world.schedule_call(scenario.warmup + ev.at, move |w| {
            let mut r = ev_rng.borrow_mut();
            apply_action(w, &action, &mut r);
        });
    }

    // Phase-triggered faults fire the moment the FTD on their node
    // completes their phase, before the rest of that instant runs.
    let mut triggers = scenario.phase_triggers.clone();
    let mut run_until = |world: &mut World, t: ftgm_sim::SimTime| {
        while let Some((node, phase)) = world.run_until_ftd_phase(t) {
            for tr in triggers.iter_mut() {
                if tr.remaining > 0 && tr.node == node.0 && tr.phase == phase {
                    tr.remaining -= 1;
                    apply_action(world, &tr.action, &mut rng.borrow_mut());
                }
            }
        }
    };

    // Absolute instants: running to a bound leaves the clock on the last
    // event at or before it, so a second relative run would end the run
    // early and drop whatever was scheduled in the slack.
    let t0 = world.now();
    run_until(&mut world, t0 + scenario.warmup);
    let baseline: Vec<u64> = flow_stats.iter().map(|s| s.borrow().received_ok).collect();
    run_until(&mut world, t0 + scenario.warmup + scenario.horizon);

    // Collect per-node terminal states.
    let mut nodes = Vec::new();
    for n in 0..scenario.topology.node_count() {
        let id = NodeId(n as u16);
        let hung = world
            .nodes
            .get(n)
            .map(|node| node.mcp.chip.is_hung())
            .unwrap_or(false);
        nodes.push(NodeReport {
            node: n as u16,
            resolution: classify_resolution(
                ft.interface_dead(id),
                ft.busy(id),
                hung,
                ft.recoveries(id),
            ),
            recoveries: ft.recoveries(id),
            attempts: ft.attempts(id),
            failed_attempts: ft.failed_attempts(id),
            escalations: ft.escalations(id),
            false_alarms: ft.false_alarms(id),
        });
    }

    // Collect per-flow delivery results.
    let end_ns = world.now().as_nanos();
    let mut flows = Vec::new();
    for (i, f) in scenario.flows.iter().enumerate() {
        let stats = flow_stats
            .get(i)
            .map(|s| s.borrow().clone())
            .unwrap_or_default();
        let before = baseline.get(i).copied().unwrap_or(0);
        let blackout_ns = if stats.received_ok == 0 {
            end_ns
        } else {
            stats
                .max_gap_ns
                .max(end_ns.saturating_sub(stats.last_ok_at_ns))
        };
        flows.push(FlowReport {
            src: f.src,
            dst: f.dst,
            delivered: stats.received_ok,
            progress: stats.received_ok.saturating_sub(before),
            corrupt: stats.received_corrupt,
            misordered: stats.misordered,
            send_errors: stats.send_errors,
            iface_dead: stats.iface_dead,
            blackout_ns,
        });
    }

    // Oracles.
    let mut violations = Vec::new();
    // 1. No silent hangs: every interface converged to an acceptable
    //    terminal state within the horizon.
    for n in &nodes {
        if !n.resolution.acceptable() {
            violations.push(format!(
                "node {} ended {} (recoveries={}, attempts={})",
                n.node, n.resolution, n.recoveries, n.attempts
            ));
        }
    }
    // 2. Exactly-once delivery: nothing corrupt, duplicated, or reordered
    //    ever reaches an application, fault or no fault.
    for f in &flows {
        if f.corrupt > 0 || f.misordered > 0 {
            violations.push(format!(
                "flow {}->{}: {} corrupt, {} misordered deliveries",
                f.src, f.dst, f.corrupt, f.misordered
            ));
        }
    }
    // 3. Progress: a flow between two non-escalated endpoints must have
    //    delivered something after warm-up — recovery brought it back.
    for f in &flows {
        let endpoint_down = |id: u16| {
            nodes
                .iter()
                .any(|n| n.node == id && n.resolution != Resolution::Healthy && n.resolution != Resolution::Recovered)
        };
        if !endpoint_down(f.src) && !endpoint_down(f.dst) && f.progress == 0 {
            violations.push(format!(
                "flow {}->{}: no progress despite both endpoints up",
                f.src, f.dst
            ));
        }
    }
    // 4. Loud escalation: a dead interface must have surfaced
    //    `InterfaceDead` (or a send error) to every flow touching it —
    //    applications are never left waiting on a corpse.
    for n in &nodes {
        if n.resolution == Resolution::Escalated {
            let surfaced: u64 = flows
                .iter()
                .filter(|f| f.src == n.node || f.dst == n.node)
                .map(|f| f.iface_dead + f.send_errors)
                .sum();
            if surfaced == 0 {
                violations.push(format!(
                    "node {} escalated but no application saw an error",
                    n.node
                ));
            }
        }
    }
    // 5. Blackout bound (opt-in): a flow between two surviving endpoints
    //    must never starve longer than the configured bound — recovery
    //    plus reroute stayed inside the paper's promise. Flows with an
    //    escalated/stranded endpoint are judged by oracle 4 instead.
    if let Some(bound) = scenario.blackout_bound {
        let bound_ns = bound.as_nanos();
        for f in &flows {
            let survived = |id: u16| {
                nodes.iter().any(|n| {
                    n.node == id
                        && (n.resolution == Resolution::Healthy
                            || n.resolution == Resolution::Recovered)
                })
            };
            if survived(f.src) && survived(f.dst) && f.blackout_ns >= bound_ns {
                violations.push(format!(
                    "flow {}->{}: blackout {}ns breaches the {}ns bound",
                    f.src, f.dst, f.blackout_ns, bound_ns
                ));
            }
        }
    }

    let report = ChaosReport {
        scenario: scenario.name.clone(),
        seed,
        nodes,
        flows,
        violations,
        metrics: world.trace.metrics().clone(),
    };
    (report, world, spawned)
}
