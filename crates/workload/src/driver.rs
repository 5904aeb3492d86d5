//! The workload driver: runs a [`WorkloadSpec`] over a built world,
//! composes scripted faults with the chaos engine, and folds probes
//! into an [`SloReport`].
//!
//! Two entry points:
//!
//! * [`run_spec`] — builds the spec's own topology (GM or FTGM world,
//!   FTD installed for the latter) and runs it end to end;
//! * [`run_spec_on`] — attach mode: runs the spec over a world the
//!   caller already built (e.g. the world inside an `ftgm-mpi`
//!   harness), leaving variant and daemon wiring to the caller.
//!
//! A report depends only on its spec, so a suite fanned out over
//! [`ftgm_sim::map_indexed`] serializes to the same bytes for any
//! thread count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ftgm_core::FtSystem;
use ftgm_faults::chaos::{apply_action, ChaosTopology};
use ftgm_gm::apps::{PatternReceiver, RpcServer, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::SimRng;

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
/// and runs it end to end.
pub fn run_spec(spec: &WorkloadSpec) -> SloReport {
    let config = match spec.variant {
        Variant::Gm => WorldConfig::gm(),
        Variant::Ftgm => WorldConfig::ftgm(),
    };
    let mut world = spec.topology.build(config);
    let ft = match spec.variant {
        Variant::Ftgm => Some(FtSystem::install(&mut world)),
        Variant::Gm => None,
    };
    run_spec_on(spec, &mut world, ft.as_ref())
}

/// Attach mode: runs `spec` over a world the caller already built.
///
/// Pass the installed [`FtSystem`] so recoveries are counted; pass
/// `None` for a plain-GM world. Responder apps are deduplicated per
/// `(dst, dst_port)` endpoint — flows sharing a responder port must
/// agree on the client model (the first flow's model decides what gets
/// spawned there).
pub fn run_spec_on(spec: &WorkloadSpec, world: &mut World, ft: Option<&FtSystem>) -> SloReport {
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

    // Scripted faults, each at its phase-relative offset. One shared
    // RNG keeps multi-fault scripts seed-replayable.
    let fault_rng = Rc::new(RefCell::new(SimRng::new(spec.seed ^ 0xFA57_C0DE)));
    for fp in &spec.faults {
        let delay = spec.phase_start(fp.phase) + fp.at;
        let action = fp.action.clone();
        let rng = fault_rng.clone();
        world.schedule_call(delay, move |w| {
            apply_action(w, &action, &mut rng.borrow_mut());
        });
    }

    world.run_for(spec.total_duration());

    let recoveries = ft.map_or(0u64, |f| {
        (0..spec.topology.node_count())
            .map(|n| f.recoveries(NodeId(n as u16)))
            .sum()
    });

    let mut windows: PhaseWindows = Vec::with_capacity(spec.phases.len());
    let mut cursor = 0u64;
    for p in &spec.phases {
        let end = cursor.saturating_add(p.duration.as_nanos());
        windows.push((p.kind.name(), cursor, end));
        cursor = end;
    }

    let taken: Vec<FlowProbe> = probes.iter().map(|p| p.borrow().clone()).collect();
    let mut report = fold_report(
        &spec.name,
        topology_label(spec.topology),
        spec.variant.name(),
        spec.seed,
        t0,
        &windows,
        &taken,
        recoveries,
    );
    report.corrupt = checked
        .iter()
        .map(|s| {
            let s = s.borrow();
            s.received_corrupt + s.misordered
        })
        .sum();
    report
}
