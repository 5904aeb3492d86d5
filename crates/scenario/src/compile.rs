//! Spec → executable campaign: lowers a parsed [`Spec`] onto the
//! existing chaos and workload engines.
//!
//! One scenario file compiles into one FTGM world, plus at most one
//! fault-free twin, sharing one seed:
//!
//! * a **chaos run** ([`ChaosScenario`]) carrying the validated flows,
//!   the fault schedule and the exactly-once/convergence/blackout
//!   oracles — always present, and the source of the verdict;
//! * its **load flows** ([`WorkloadSpec`], FTGM variant), the open and
//!   closed-loop flows the runner spawns into that same world, present
//!   when the scenario declares load flows — the faults that hit the
//!   validated flows hit them too;
//! * a **plain-GM twin** of the load flows on a world of their own,
//!   present only when the scenario pins a `p99_overhead` bound, as the
//!   baseline that bound is measured against.
//!
//! The chaos timeline is phase-relative in the DSL but offset-after-
//! warmup in the engine; [`compile`] does that arithmetic once, here.

use ftgm_core::CoordinatorConfig;
use ftgm_faults::chaos::{ChaosAction, ChaosEvent, ChaosScenario, ChaosTopology, Flow, PhaseTrigger};
use ftgm_faults::{InjectionTarget, ScenarioVerdict};
use ftgm_sim::SimDuration;
use ftgm_workload::{
    Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, SloBounds, Variant, WorkloadSpec,
};

use crate::ast::{Action, ArrivalDecl, Expect, FlowKind, MixDecl, Spec, Target};

/// Default master seed (the paper's publication year) when a scenario
/// does not pin one.
pub const DEFAULT_SEED: u64 = 2003;

/// GM ports of the load flows. Validated flows bind ports 0 and 2
/// ([`Flow`]'s defaults); load flows share their world, so they bind
/// the next two and a node may carry both kinds.
const LOAD_SRC_PORT: u8 = 1;
const LOAD_DST_PORT: u8 = 3;

/// Which SLO checks the runner must apply to the load flows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Apply [`SloBounds::check_recovery`] to the FTGM load report.
    pub recovery: bool,
    /// Run the plain-GM twin and apply [`SloBounds::check_steady_overhead`].
    pub overhead: bool,
    /// Check the steady completion ratio directly (no GM twin needed).
    pub completed: bool,
}

/// A scenario lowered onto the execution engines.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// Scenario name (golden files key on this).
    pub name: String,
    /// Master seed shared by every run.
    pub seed: u64,
    /// The chaos run: validated flows, faults, oracles.
    pub chaos: ChaosScenario,
    /// The load flows the chaos run's world also carries, when the
    /// scenario declares any.
    pub workload: Option<WorkloadSpec>,
    /// Fault-free plain-GM twin of the load flows (overhead baseline).
    pub gm_twin: Option<WorkloadSpec>,
    /// Bounds the enabled checks test against.
    pub bounds: SloBounds,
    /// Which SLO checks to apply.
    pub checks: Checks,
    /// The verdict the scenario pins.
    pub expect: ScenarioVerdict,
}

fn lower_topology(t: crate::ast::Topo) -> ChaosTopology {
    match t {
        crate::ast::Topo::TwoNode => ChaosTopology::TwoNode,
        crate::ast::Topo::Star(n) => ChaosTopology::Star(usize::from(n)),
        crate::ast::Topo::Ring(n) => ChaosTopology::Ring(usize::from(n)),
        crate::ast::Topo::FatTree {
            spines,
            leaves,
            hosts_per_leaf,
        } => ChaosTopology::FatTree {
            spines: usize::from(spines),
            leaves: usize::from(leaves),
            hosts_per_leaf: usize::from(hosts_per_leaf),
        },
        crate::ast::Topo::Torus { cols, rows } => ChaosTopology::Torus {
            cols: usize::from(cols),
            rows: usize::from(rows),
        },
    }
}

fn lower_target(t: Target) -> InjectionTarget {
    match t {
        Target::SendChunkCode => InjectionTarget::SendChunkCode,
        Target::PacketBuffer => InjectionTarget::PacketBuffer,
        Target::SendRecord => InjectionTarget::SendRecord,
    }
}

fn lower_action(a: &Action) -> ChaosAction {
    match a {
        Action::BitFlip { node, target } => ChaosAction::BitFlip {
            node: *node,
            target: lower_target(*target),
        },
        Action::Hang { node } => ChaosAction::ForceHang { node: *node },
        Action::CorrelatedHang { nodes, skew } => ChaosAction::CorrelatedHang {
            nodes: nodes.clone(),
            skew: skew.to_sim(),
        },
        Action::LinkDown { node, duration } => ChaosAction::NicLinkDown {
            node: *node,
            duration: duration.to_sim(),
        },
        Action::Noise {
            drop_permille,
            corrupt_permille,
            duration,
        } => {
            #[expect(
                clippy::float_arithmetic,
                reason = "IEEE-754 division rounds exactly: the same probability bits on every host"
            )]
            let drop_prob = f64::from(*drop_permille) / 1000.0;
            #[expect(
                clippy::float_arithmetic,
                reason = "IEEE-754 division rounds exactly: the same probability bits on every host"
            )]
            let corrupt_prob = f64::from(*corrupt_permille) / 1000.0;
            ChaosAction::LinkNoise {
                drop_prob,
                corrupt_prob,
                duration: duration.to_sim(),
            }
        }
        Action::SwitchDeath { switch } => ChaosAction::SwitchDeath { switch: *switch },
        Action::LinkFlap {
            node,
            period,
            count,
        } => ChaosAction::LinkFlap {
            node: *node,
            period: period.to_sim(),
            count: *count,
        },
    }
}

fn lower_mix(m: &MixDecl) -> SizeMix {
    match m {
        MixDecl::Fixed(bytes) => SizeMix::Fixed { bytes: *bytes },
        MixDecl::Weighted(options) => SizeMix::Weighted {
            options: options.clone(),
        },
    }
}

fn lower_arrival(a: &ArrivalDecl) -> Arrival {
    match a {
        ArrivalDecl::Every(gap) => Arrival::Fixed { gap: gap.to_sim() },
        ArrivalDecl::Jitter { min, max } => Arrival::UniformJitter {
            min: min.to_sim(),
            max: max.to_sim(),
        },
        ArrivalDecl::Burst {
            scale,
            shape_permille,
            cap,
        } => Arrival::ParetoBurst {
            scale: scale.to_sim(),
            shape_permille: *shape_permille,
            cap: cap.to_sim(),
        },
    }
}

fn lower_expect(e: Expect) -> ScenarioVerdict {
    match e {
        Expect::Survived => ScenarioVerdict::Survived,
        Expect::Rerouted => ScenarioVerdict::Rerouted,
        Expect::Escalated => ScenarioVerdict::Escalated,
    }
}

/// Nanosecond offset of the start of the first phase of kind `kind`.
fn phase_offset_ns(spec: &Spec, kind: PhaseKind) -> u64 {
    let mut ns = 0u64;
    for p in &spec.phases {
        if p.kind == kind {
            return ns;
        }
        ns = ns.saturating_add(p.duration.as_nanos());
    }
    ns
}

/// Lowers a validated [`Spec`] onto the chaos and workload engines.
///
/// Callers get a spec only from [`crate::parse::parse`] (or the
/// generator), so every id and phase reference is already checked; the
/// compiler is pure arithmetic and cannot fail.
pub fn compile(spec: &Spec) -> CompiledScenario {
    let seed = spec.seed.unwrap_or(DEFAULT_SEED);
    let topology = lower_topology(spec.topology);
    let warmup_ns = spec
        .phase_duration(PhaseKind::Warmup)
        .map_or(0, |d| d.as_nanos());
    let total_ns: u64 = spec
        .phases
        .iter()
        .fold(0u64, |acc, p| acc.saturating_add(p.duration.as_nanos()));

    // Chaos run: validated flows, faults offset after warmup.
    let flows: Vec<Flow> = spec
        .flows
        .iter()
        .filter_map(|f| match f.kind {
            FlowKind::Validated { size, pipeline } => Some(Flow {
                src: f.src,
                src_port: 0,
                dst: f.dst,
                dst_port: 2,
                msg_size: size,
                pipeline,
            }),
            _ => None,
        })
        .collect();
    let events: Vec<ChaosEvent> = spec
        .faults
        .iter()
        .map(|f| {
            let abs = phase_offset_ns(spec, f.phase).saturating_add(f.at.as_nanos());
            ChaosEvent {
                at: SimDuration::from_nanos(abs.saturating_sub(warmup_ns)),
                action: lower_action(&f.action),
            }
        })
        .collect();
    let phase_triggers: Vec<PhaseTrigger> = spec
        .triggers
        .iter()
        .map(|t| PhaseTrigger {
            node: t.node,
            phase: t.phase,
            action: lower_action(&t.action),
            remaining: t.limit,
        })
        .collect();
    let chaos = ChaosScenario {
        name: spec.name.clone(),
        topology,
        flows,
        events,
        phase_triggers,
        warmup: SimDuration::from_nanos(warmup_ns),
        horizon: SimDuration::from_nanos(total_ns.saturating_sub(warmup_ns)),
        policy: Default::default(),
        coordinator: spec.coordinator.then(CoordinatorConfig::default),
        blackout_bound: spec.slo.flow_blackout.map(|d| d.to_sim()),
    };

    // Load flows: open/closed flows, spawned into the chaos run's world.
    let workload = spec.has_load().then(|| {
        let mut w = WorkloadSpec::new(spec.name.clone(), topology, Variant::Ftgm, seed);
        for p in &spec.phases {
            w = w.phase(p.kind, p.duration.to_sim());
        }
        for f in &spec.flows {
            let model = match &f.kind {
                FlowKind::Validated { .. } => continue,
                FlowKind::Open { arrival, .. } => ClientModel::OpenLoop {
                    arrival: lower_arrival(arrival),
                },
                FlowKind::Closed { think, .. } => ClientModel::ClosedLoop {
                    think: think.to_sim(),
                },
            };
            let sizes = match &f.kind {
                FlowKind::Open { sizes, .. } | FlowKind::Closed { sizes, .. } => lower_mix(sizes),
                FlowKind::Validated { .. } => continue,
            };
            w = w.flow(FlowSpec {
                src: f.src,
                src_port: LOAD_SRC_PORT,
                dst: f.dst,
                dst_port: LOAD_DST_PORT,
                model,
                sizes,
            });
        }
        w
    });

    let gm_twin = match (&workload, spec.slo.p99_overhead) {
        (Some(w), Some(_)) => Some(WorkloadSpec {
            variant: Variant::Gm,
            ..w.clone()
        }),
        _ => None,
    };

    let defaults = SloBounds::default();
    let bounds = SloBounds {
        max_steady_p99_overhead: spec
            .slo
            .p99_overhead
            .map_or(defaults.max_steady_p99_overhead, |d| d.to_sim()),
        max_fault_blackout: spec
            .slo
            .fault_blackout
            .map_or(defaults.max_fault_blackout, |d| d.to_sim()),
        min_steady_completed_permille: spec
            .slo
            .steady_completed
            .map_or(defaults.min_steady_completed_permille, u64::from),
    };
    let checks = Checks {
        recovery: spec.slo.fault_blackout.is_some(),
        overhead: spec.slo.p99_overhead.is_some(),
        completed: spec.slo.steady_completed.is_some(),
    };

    CompiledScenario {
        name: spec.name.clone(),
        seed,
        chaos,
        workload,
        gm_twin,
        bounds,
        checks,
        expect: lower_expect(spec.expect),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Dur, FaultDecl, FlowDecl, PhaseDecl, SloDecl, Topo};

    fn base_spec() -> Spec {
        Spec {
            name: "t".to_string(),
            topology: Topo::Star(4),
            seed: None,
            coordinator: true,
            flows: vec![
                FlowDecl {
                    src: 0,
                    dst: 1,
                    kind: FlowKind::Validated {
                        size: 256,
                        pipeline: 2,
                    },
                },
                FlowDecl {
                    src: 2,
                    dst: 3,
                    kind: FlowKind::Closed {
                        think: Dur::us(20),
                        sizes: MixDecl::Fixed(128),
                    },
                },
            ],
            phases: vec![
                PhaseDecl {
                    kind: PhaseKind::Warmup,
                    duration: Dur::ms(10),
                },
                PhaseDecl {
                    kind: PhaseKind::Fault,
                    duration: Dur::ms(100),
                },
            ],
            faults: vec![FaultDecl {
                phase: PhaseKind::Fault,
                at: Dur::ms(5),
                action: Action::Hang { node: 1 },
            }],
            triggers: Vec::new(),
            slo: SloDecl {
                fault_blackout: Some(Dur::secs(2)),
                ..SloDecl::default()
            },
            expect: Expect::Escalated,
        }
    }

    #[test]
    fn fault_offsets_are_phase_relative() {
        let c = compile(&base_spec());
        // Chaos events are offsets after warmup: the fault phase starts
        // right at warmup end, so "at 5ms" lands 5 ms after warmup.
        assert_eq!(c.chaos.events.len(), 1);
        assert_eq!(c.chaos.events[0].at, SimDuration::from_ms(5));
        assert_eq!(c.chaos.warmup, SimDuration::from_ms(10));
        assert_eq!(c.chaos.horizon, SimDuration::from_ms(100));
    }

    #[test]
    fn flows_split_between_chaos_and_load_runs() {
        let c = compile(&base_spec());
        assert_eq!(c.chaos.flows.len(), 1);
        assert_eq!((c.chaos.flows[0].src, c.chaos.flows[0].dst), (0, 1));
        let w = c.workload.as_ref();
        assert_eq!(w.map_or(0, |w| w.flows.len()), 1);
        assert!(c.gm_twin.is_none());
        assert!(c.checks.recovery && !c.checks.overhead);
        assert_eq!(c.seed, DEFAULT_SEED);
        assert!(c.chaos.coordinator.is_some());
        assert_eq!(c.expect, ScenarioVerdict::Escalated);
    }

    #[test]
    fn overhead_bound_spawns_a_faultless_gm_twin() {
        let mut spec = base_spec();
        spec.phases.insert(
            1,
            PhaseDecl {
                kind: PhaseKind::Steady,
                duration: Dur::ms(50),
            },
        );
        spec.slo.p99_overhead = Some(Dur::us(4));
        let c = compile(&spec);
        let twin = c.gm_twin.as_ref();
        assert!(twin.is_some_and(|t| t.variant == Variant::Gm));
        // The chaos event still fires 5 ms into the fault phase, which
        // now starts 50 ms later.
        assert_eq!(c.chaos.events[0].at, SimDuration::from_ms(55));
    }
}
