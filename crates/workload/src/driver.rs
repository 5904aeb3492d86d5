//! The workload driver: spawns a [`WorkloadSpec`]'s flows into a world
//! and folds their probes into an [`SloReport`].
//!
//! The driver states no fault: a scenario's faults live in its `.ftsc`
//! file, and the chaos engine fires them in the one world that also
//! carries the load (`ftgm-scenario` runs [`spawn_load`] as the chaos
//! runner's spawn step and [`LoadRun::fold`] after its horizon).
//! [`run_spec`] builds the spec's own fault-free world, the plain-GM
//! twin a `p99_overhead` bound is measured against.
//!
//! A report depends only on its spec, so a suite fanned out over
//! [`ftgm_sim::map_indexed`] serializes to the same bytes for any
//! thread count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ftgm_core::FtSystem;
use ftgm_faults::chaos::ChaosTopology;
use ftgm_gm::apps::{PatternReceiver, RpcServer, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{SimRng, SimTime};

use crate::gen::{ClosedLoopClient, OpenLoopSender};
use crate::slo::{fold_report, FlowProbe, PhaseWindows, SloReport};
use crate::spec::{ClientModel, Variant, WorkloadSpec};

/// Stable label for a topology (`two_node`, `star8`, `ring8`, ...).
pub fn topology_label(t: ChaosTopology) -> String {
    match t {
        ChaosTopology::TwoNode => "two_node".to_string(),
        ChaosTopology::Star(n) => format!("star{n}"),
        ChaosTopology::Ring(n) => format!("ring{n}"),
        ChaosTopology::FatTree {
            leaves,
            hosts_per_leaf,
            ..
        } => format!("fat_tree{}", leaves * hosts_per_leaf),
        ChaosTopology::Torus { cols, rows } => format!("torus{cols}x{rows}"),
    }
}

fn flow_rng(seed: u64, flow_idx: usize) -> SimRng {
    SimRng::new(
        seed.wrapping_add((flow_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(1),
    )
}

/// Builds the spec's world (installing the FTD for the FTGM variant)
/// and runs it end to end, fault-free.
pub fn run_spec(spec: &WorkloadSpec) -> SloReport {
    let config = match spec.variant {
        Variant::Gm => WorldConfig::gm(),
        Variant::Ftgm => WorldConfig::ftgm(),
    };
    let mut world = spec.topology.build(config);
    if spec.variant == Variant::Ftgm {
        FtSystem::install(&mut world);
    }
    let load = spawn_load(spec, &mut world);
    world.run_for(spec.total_duration());
    // Nothing faults here, so nothing recovers.
    load.fold(spec, 0)
}

/// A spec's flows as spawned into a world: the probes and responder
/// stats [`LoadRun::fold`] reads once the world has run the spec's
/// whole timeline.
pub struct LoadRun {
    t0: SimTime,
    probes: Vec<Rc<RefCell<FlowProbe>>>,
    checked: Vec<Rc<RefCell<TrafficStats>>>,
}

/// Spawns `spec`'s responders and generators into `world`; the spec's
/// timeline starts at the world's current instant.
///
/// Responder apps are deduplicated per `(dst, dst_port)` endpoint —
/// flows sharing a responder port must agree on the client model (the
/// first flow's model decides what gets spawned there).
pub fn spawn_load(spec: &WorkloadSpec, world: &mut World) -> LoadRun {
    let t0 = world.now();
    let stop_at = t0 + spec.offered_window();

    // Pass 1: one responder per (dst, dst_port), sized for the largest
    // message any flow pushes at it. Every responder checks the pattern
    // of what it receives; the report's `corrupt` sums their findings.
    let mut responders: BTreeMap<(u16, u8), (bool, u32)> = BTreeMap::new();
    for flow in &spec.flows {
        let closed = matches!(flow.model, ClientModel::ClosedLoop { .. });
        let size = flow.sizes.max_bytes().max(64);
        let entry = responders
            .entry((flow.dst, flow.dst_port))
            .or_insert((closed, 0));
        entry.1 = entry.1.max(size);
    }
    let mut checked: Vec<Rc<RefCell<TrafficStats>>> = Vec::new();
    for (&(node, port), &(closed, size)) in &responders {
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        let app: Box<dyn ftgm_gm::App> = if closed {
            Box::new(RpcServer::new(size, stats.clone()))
        } else {
            Box::new(PatternReceiver::new(size, 16, stats.clone()))
        };
        world.spawn_app(NodeId(node), port, app);
        checked.push(stats);
    }

    // Pass 2: generators, each with its own derived RNG and probe.
    let mut probes: Vec<Rc<RefCell<FlowProbe>>> = Vec::new();
    for (i, flow) in spec.flows.iter().enumerate() {
        let probe = Rc::new(RefCell::new(FlowProbe::default()));
        let rng = flow_rng(spec.seed, i);
        let app: Box<dyn ftgm_gm::App> = match &flow.model {
            ClientModel::OpenLoop { arrival } => Box::new(OpenLoopSender::new(
                NodeId(flow.dst),
                flow.dst_port,
                flow.sizes.clone(),
                *arrival,
                rng,
                stop_at,
                probe.clone(),
            )),
            ClientModel::ClosedLoop { think } => Box::new(ClosedLoopClient::new(
                NodeId(flow.dst),
                flow.dst_port,
                flow.sizes.clone(),
                *think,
                rng,
                stop_at,
                probe.clone(),
            )),
        };
        world.spawn_app(NodeId(flow.src), flow.src_port, app);
        probes.push(probe);
    }

    LoadRun { t0, probes, checked }
}

impl LoadRun {
    /// Folds the probes into `spec`'s report; `recoveries` is what the
    /// world's FTD completed over the run.
    pub fn fold(self, spec: &WorkloadSpec, recoveries: u64) -> SloReport {
        let mut windows: PhaseWindows = Vec::with_capacity(spec.phases.len());
        let mut cursor = 0u64;
        for p in &spec.phases {
            let end = cursor.saturating_add(p.duration.as_nanos());
            windows.push((p.kind.name(), cursor, end));
            cursor = end;
        }

        let taken: Vec<FlowProbe> = self.probes.iter().map(|p| p.borrow().clone()).collect();
        let mut report = fold_report(
            &spec.name,
            topology_label(spec.topology),
            spec.variant.name(),
            spec.seed,
            self.t0,
            &windows,
            &taken,
            recoveries,
        );
        report.corrupt = self
            .checked
            .iter()
            .map(|s| {
                let s = s.borrow();
                s.received_corrupt + s.misordered
            })
            .sum();
        report
    }
}
