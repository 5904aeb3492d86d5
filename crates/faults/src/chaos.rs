//! Composable chaos campaigns: seed-replayable schedules of *composed*
//! fault events over multi-node worlds, checked by invariant oracles.
//!
//! The single-fault runs in [`crate::inject`] reproduce the paper's §2
//! campaign: one bit flip, one two-node world, one observation window. A
//! [`ChaosScenario`] generalizes that to the multi-fault regimes the
//! paper's testbed could not exercise systematically:
//!
//! * bit flips on several nodes of a star or ring,
//! * faults *timed to land inside a specific FTD recovery phase* (via the
//!   world's `ftd_phase` hook),
//! * back-to-back hangs that re-enter the daemon while it is busy,
//! * transient link outages and lossy-link windows on the fabric.
//!
//! Every scenario runs under the retry/escalation FTD and ends with oracle
//! checks: validated traffic stayed exactly-once (no corruption, no
//! duplicates or misordering), and every faulted interface converged to
//! *recovered* or loudly *escalated* within the horizon — never a silent
//! hang. Identical `(scenario, seed)` pairs replay identically, down to
//! the serialized report.

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::ftd::FtdPhase;
use ftgm_core::{Coordinator, CoordinatorConfig, FtSystem, RetryPolicy};
use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::fabric::LinkFaults;
use ftgm_net::{reroute, NodeId, SwitchId};
use ftgm_sim::{export, Metrics, SimDuration, SimRng, TraceKind};

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
    /// driver, which runs traffic specs over the same shapes).
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
    pub phase: FtdPhase,
    /// What happens.
    pub action: ChaosAction,
    /// How many times the trigger may fire before disarming.
    pub remaining: u32,
}

impl PhaseTrigger {
    /// A trigger that fires `times` times when `node`'s FTD completes
    /// `phase`, then disarms.
    pub fn times(node: u16, phase: FtdPhase, action: ChaosAction, times: u32) -> PhaseTrigger {
        PhaseTrigger {
            node,
            phase,
            action,
            remaining: times,
        }
    }

    /// A one-shot trigger on `node` completing `phase`.
    pub fn once(node: u16, phase: FtdPhase, action: ChaosAction) -> PhaseTrigger {
        PhaseTrigger::times(node, phase, action, 1)
    }
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

    /// A coordinated scenario skeleton: the given shape and flows, a
    /// default zone coordinator, and the 2 s blackout oracle armed.
    pub fn coordinated(name: &str, topology: ChaosTopology, flows: Vec<Flow>) -> ChaosScenario {
        ChaosScenario {
            name: name.to_string(),
            topology,
            flows,
            events: Vec::new(),
            phase_triggers: Vec::new(),
            warmup: SimDuration::from_ms(10),
            horizon: SimDuration::from_ms(2_500),
            policy: RetryPolicy::default(),
            coordinator: Some(CoordinatorConfig::default()),
            blackout_bound: Some(SimDuration::from_ms(2_000)),
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

/// Serializes several reports as a JSON array (the campaign summary the
/// `chaos` bench binary writes to `results/chaos_summary.json`).
pub fn reports_to_json(reports: &[ChaosReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(r.to_json().trim_end());
    }
    out.push_str("\n]\n");
    out
}

/// Applies one fault primitive right now. Public so other drivers (the
/// workload subsystem's phase-timed fault points) compose with the same
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
    run_scenario_core(scenario, seed).0
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
}

/// Runs a scenario and exports its trace and metrics alongside the report.
pub fn run_scenario_artifacts(scenario: &ChaosScenario, seed: u64) -> ScenarioArtifacts {
    let (report, world) = run_scenario_core(scenario, seed);
    ScenarioArtifacts {
        trace_jsonl: export::to_jsonl(&world.trace),
        chrome_trace: export::to_chrome_trace(&world.trace),
        metrics_json: world.trace.metrics().to_json_indented(0),
        report,
    }
}

fn run_scenario_core(scenario: &ChaosScenario, seed: u64) -> (ChaosReport, World) {
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

    // Phase-triggered faults: armed via the world's ftd_phase hook, which
    // the FTD fires after each completed recovery phase.
    if !scenario.phase_triggers.is_empty() {
        let triggers = Rc::new(RefCell::new(scenario.phase_triggers.clone()));
        let hook_rng = rng.clone();
        world.hooks.ftd_phase = Some(Rc::new(move |w, node, phase_idx| {
            let mut due: Vec<ChaosAction> = Vec::new();
            {
                let mut ts = triggers.borrow_mut();
                for t in ts.iter_mut() {
                    if t.remaining > 0 && t.node == node.0 && t.phase.index() == phase_idx {
                        t.remaining -= 1;
                        due.push(t.action.clone());
                    }
                }
            }
            for action in &due {
                let mut r = hook_rng.borrow_mut();
                apply_action(w, action, &mut r);
            }
        }));
    }

    // Absolutely-timed faults.
    for ev in &scenario.events {
        let action = ev.action.clone();
        let ev_rng = rng.clone();
        world.schedule_call(scenario.warmup + ev.at, move |w| {
            let mut r = ev_rng.borrow_mut();
            apply_action(w, &action, &mut r);
        });
    }

    world.run_for(scenario.warmup);
    let baseline: Vec<u64> = flow_stats.iter().map(|s| s.borrow().received_ok).collect();
    world.run_for(scenario.horizon);

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
    (report, world)
}

/// The standard scenario set: the acceptance scenarios CI's `chaos_smoke`
/// tier runs and the `chaos` bench binary reports on.
pub fn standard_scenarios() -> Vec<ChaosScenario> {
    let mut set = Vec::new();

    // The headline acceptance scenario: a code-section flip hangs the
    // interface, and a *second* flip lands in the freshly reloaded image
    // during the FTD's ReloadMcp phase. Must end recovered or loudly dead.
    let mut s = ChaosScenario::two_node("double-flip-during-reload");
    s.events.push(ChaosEvent {
        at: SimDuration::from_ms(0),
        action: ChaosAction::BitFlip {
            node: 0,
            target: InjectionTarget::SendChunkCode,
        },
    });
    s.phase_triggers.push(PhaseTrigger {
        node: 0,
        phase: FtdPhase::ReloadMcp,
        action: ChaosAction::BitFlip {
            node: 0,
            target: InjectionTarget::SendChunkCode,
        },
        remaining: 1,
    });
    set.push(s);

    // Two hangs in sequence: the second arrives after the first recovery
    // completes (outside the re-hang window), forcing a full second pass.
    let mut s = ChaosScenario::two_node("back-to-back-hangs");
    s.horizon = SimDuration::from_ms(3_000);
    for at in [0u64, 1_200] {
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(at),
            action: ChaosAction::ForceHang { node: 0 },
        });
    }
    set.push(s);

    // A hang that re-manifests at the end of every reload: verification
    // keeps failing until the attempt budget runs out and the FTD
    // escalates to InterfaceDead, failing sends back to the apps.
    let mut s = ChaosScenario::two_node("persistent-hang-escalates");
    s.events.push(ChaosEvent {
        at: SimDuration::from_ms(0),
        action: ChaosAction::ForceHang { node: 0 },
    });
    s.phase_triggers.push(PhaseTrigger {
        node: 0,
        phase: FtdPhase::RestoreRoutes,
        action: ChaosAction::ForceHang { node: 0 },
        remaining: 3,
    });
    set.push(s);

    // Multi-node: two independent code flips on a four-node ring, two
    // disjoint flows. Each faulted interface recovers on its own.
    let mut s = ChaosScenario::two_node("ring-two-nodes-flipped");
    s.topology = ChaosTopology::Ring(4);
    s.flows = vec![Flow::simple(0, 1), Flow::simple(2, 3)];
    for (node, at) in [(0u16, 0u64), (2, 5)] {
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(at),
            action: ChaosAction::BitFlip {
                node,
                target: InjectionTarget::SendChunkCode,
            },
        });
    }
    set.push(s);

    // A transient cable pull on a star's middle node: Go-Back-N absorbs
    // the outage, both flows finish clean with no recovery at all.
    let mut s = ChaosScenario::two_node("star-link-flap");
    s.topology = ChaosTopology::Star(3);
    s.flows = vec![Flow::simple(0, 1), Flow::simple(1, 2)];
    s.horizon = SimDuration::from_ms(1_500);
    s.events.push(ChaosEvent {
        at: SimDuration::from_ms(5),
        action: ChaosAction::NicLinkDown {
            node: 1,
            duration: SimDuration::from_ms(20),
        },
    });
    set.push(s);

    // A lossy, corrupting fabric window: CRC drops plus retransmission
    // must still deliver exactly-once.
    let mut s = ChaosScenario::two_node("lossy-link-exactly-once");
    s.horizon = SimDuration::from_ms(1_200);
    s.events.push(ChaosEvent {
        at: SimDuration::from_ms(0),
        action: ChaosAction::LinkNoise {
            drop_prob: 0.05,
            corrupt_prob: 0.02,
            duration: SimDuration::from_ms(100),
        },
    });
    set.push(s);

    set
}

/// The correlated-fault matrix: {star8, ring8, fat_tree64} crossed with
/// {two-NIC hang, switch death, flap-during-recovery, cascade}, plus a
/// stall-escalation scenario. Every scenario runs with the zone
/// coordinator installed and (where both endpoints can survive) the 2 s
/// blackout oracle armed — this is the set the `chaosx` bench sweeps
/// into `BENCH_chaos.json`.
pub fn correlated_scenarios() -> Vec<ChaosScenario> {
    let star8 = ChaosTopology::Star(8);
    let ring8 = ChaosTopology::Ring(8);
    let ft64 = ChaosTopology::FatTree {
        spines: 2,
        leaves: 8,
        hosts_per_leaf: 8,
    };
    let half_ms = SimDuration::from_us(500);
    let mut set = Vec::new();

    // -- two correlated NIC hangs (skewed half a millisecond apart) -----
    let two_nic = |name: &str, topology, flows, nodes: [u16; 2]| {
        let mut s = ChaosScenario::coordinated(name, topology, flows);
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(5),
            action: ChaosAction::CorrelatedHang {
                nodes: nodes.to_vec(),
                skew: half_ms,
            },
        });
        s
    };
    set.push(two_nic(
        "star8-two-nic-hang",
        star8,
        vec![Flow::simple(0, 1), Flow::simple(2, 3), Flow::simple(4, 5)],
        [1, 3],
    ));
    set.push(two_nic(
        "ring8-two-nic-hang",
        ring8,
        vec![Flow::simple(0, 2), Flow::simple(5, 6), Flow::simple(3, 4)],
        [2, 6],
    ));
    set.push(two_nic(
        "fat_tree64-two-nic-hang",
        ft64,
        vec![Flow::simple(8, 0), Flow::simple(9, 17), Flow::simple(32, 40)],
        [0, 9],
    ));

    // -- switch death ---------------------------------------------------
    let switch_death = |name: &str, topology, flows, switch: u16| {
        let mut s = ChaosScenario::coordinated(name, topology, flows);
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(5),
            action: ChaosAction::SwitchDeath { switch },
        });
        s
    };
    // The star's only switch dies: the residual fabric is empty, so the
    // coordinator must escalate every host (flows cover all eight so the
    // loud-escalation oracle can see each one fail).
    set.push(switch_death(
        "star8-switch-death",
        star8,
        vec![
            Flow::simple(0, 1),
            Flow::simple(2, 3),
            Flow::simple(4, 5),
            Flow::simple(6, 7),
        ],
        0,
    ));
    // Ring switch 3 dies: node 3 is unreachable (escalated); 2->4 must
    // reroute the long way around the cycle.
    set.push(switch_death(
        "ring8-switch-death",
        ring8,
        vec![Flow::simple(2, 4), Flow::simple(7, 3), Flow::simple(0, 1)],
        3,
    ));
    // Spine 0 (switch id 8 = after the 8 leaves) dies: every cross-leaf
    // route must move to spine 1; nobody escalates.
    set.push(switch_death(
        "fat_tree64-switch-death",
        ft64,
        vec![
            Flow::simple(0, 8),
            Flow::simple(17, 25),
            Flow::simple(33, 41),
            Flow::simple(48, 49),
        ],
        8,
    ));

    // -- a NIC link flapping while a recovery is in flight --------------
    let flap_in_recovery = |name: &str, topology, flows, flapped: u16| {
        let mut s = ChaosScenario::coordinated(name, topology, flows);
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(2),
            action: ChaosAction::ForceHang { node: 0 },
        });
        s.phase_triggers.push(PhaseTrigger {
            node: 0,
            phase: FtdPhase::ReloadMcp,
            action: ChaosAction::LinkFlap {
                node: flapped,
                period: SimDuration::from_ms(20),
                count: 3,
            },
            remaining: 1,
        });
        s
    };
    set.push(flap_in_recovery(
        "star8-flap-in-recovery",
        star8,
        vec![Flow::simple(1, 0), Flow::simple(2, 3), Flow::simple(4, 5)],
        2,
    ));
    set.push(flap_in_recovery(
        "ring8-flap-in-recovery",
        ring8,
        vec![Flow::simple(7, 0), Flow::simple(3, 4), Flow::simple(1, 2)],
        4,
    ));
    set.push(flap_in_recovery(
        "fat_tree64-flap-in-recovery",
        ft64,
        vec![Flow::simple(8, 0), Flow::simple(12, 20), Flow::simple(40, 33)],
        12,
    ));

    // -- cascade: three skewed hangs plus a fourth triggered from inside
    //    the first one's recovery ---------------------------------------
    let cascade = |name: &str, topology, flows, first: [u16; 3], fourth: u16| {
        let [lead, _, _] = first;
        let mut s = ChaosScenario::coordinated(name, topology, flows);
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(5),
            action: ChaosAction::CorrelatedHang {
                nodes: first.to_vec(),
                skew: half_ms,
            },
        });
        s.phase_triggers.push(PhaseTrigger {
            node: lead,
            phase: FtdPhase::Reset,
            action: ChaosAction::ForceHang { node: fourth },
            remaining: 1,
        });
        s
    };
    set.push(cascade(
        "star8-cascade",
        star8,
        vec![
            Flow::simple(0, 1),
            Flow::simple(2, 3),
            Flow::simple(4, 5),
            Flow::simple(6, 7),
        ],
        [1, 3, 5],
        6,
    ));
    set.push(cascade(
        "ring8-cascade",
        ring8,
        vec![
            Flow::simple(0, 1),
            Flow::simple(2, 3),
            Flow::simple(4, 5),
            Flow::simple(6, 7),
        ],
        [1, 3, 5],
        7,
    ));
    set.push(cascade(
        "fat_tree64-cascade",
        ft64,
        vec![
            Flow::simple(1, 0),
            Flow::simple(8, 17),
            Flow::simple(16, 25),
            Flow::simple(24, 33),
            Flow::simple(40, 48),
        ],
        [0, 8, 16],
        24,
    ));

    // -- a recovery that stalls (keeps failing verification) until the
    //    peer observer flags it and the FTD finally escalates -----------
    let mut s = ChaosScenario::coordinated(
        "ring8-stall-escalates",
        ring8,
        vec![Flow::simple(1, 2), Flow::simple(5, 6)],
    );
    s.horizon = SimDuration::from_ms(3_500);
    s.events.push(ChaosEvent {
        at: SimDuration::from_ms(0),
        action: ChaosAction::ForceHang { node: 2 },
    });
    s.phase_triggers.push(PhaseTrigger {
        node: 2,
        phase: FtdPhase::RestoreRoutes,
        action: ChaosAction::ForceHang { node: 2 },
        remaining: 3,
    });
    set.push(s);

    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_link_stays_exactly_once() {
        let scenarios = standard_scenarios();
        let lossy = scenarios
            .iter()
            .find(|s| s.name == "lossy-link-exactly-once")
            .expect("standard set has the lossy scenario");
        let report = run_scenario(lossy, 11);
        assert!(report.ok(), "{:?}", report.violations);
        let f = &report.flows[0];
        assert_eq!(f.corrupt, 0);
        assert_eq!(f.misordered, 0);
        assert!(f.progress > 0);
    }

    #[test]
    fn link_flap_recovers_without_ftd_involvement() {
        let scenarios = standard_scenarios();
        let flap = scenarios
            .iter()
            .find(|s| s.name == "star-link-flap")
            .expect("standard set has the link-flap scenario");
        let report = run_scenario(flap, 3);
        assert!(report.ok(), "{:?}", report.violations);
        for n in &report.nodes {
            assert_eq!(n.resolution, Resolution::Healthy, "{n:?}");
        }
        for f in &report.flows {
            assert!(f.progress > 0, "{f:?}");
        }
    }

    #[test]
    fn report_json_is_replay_identical() {
        let scenarios = standard_scenarios();
        let s = &scenarios[0];
        let a = run_scenario(s, 17).to_json();
        let b = run_scenario(s, 17).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let scenarios = standard_scenarios();
        let s = scenarios
            .iter()
            .find(|sc| sc.name == "double-flip-during-reload")
            .expect("standard set has the double-flip scenario");
        let jsons: Vec<String> = (0..4).map(|seed| run_scenario(s, seed).to_json()).collect();
        let mut unique = jsons.clone();
        unique.sort();
        unique.dedup();
        assert!(unique.len() >= 2, "all four seeds produced identical runs");
    }
}
