//! Deterministic generator of semantically valid [`Spec`]s.
//!
//! [`gen_spec`] maps a seed to a spec that passes every parser-side
//! validation rule by construction. The fuzz suite feeds these through
//! `parse(print(spec))` to pin the exact round trip; determinism (a
//! seed always yields the same spec) keeps failures replayable.

use ftgm_sim::RecoveryPhase;
use ftgm_workload::PhaseKind;

use crate::ast::{
    Action, ArrivalDecl, Dur, Expect, FaultDecl, FlowDecl, FlowKind, MixDecl, PhaseDecl, SloDecl,
    Spec, Target, Topo, TriggerDecl, Unit,
};

/// SplitMix64 — tiny, deterministic, and plenty for fuzzing.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Value in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo) + 1)
    }

    fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }

    /// Uniform pick from `items`; `None` only when it is empty.
    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        items.get(self.below(items.len() as u64) as usize).copied()
    }
}

fn gen_unit(r: &mut Rng) -> Unit {
    match r.below(4) {
        0 => Unit::Ns,
        1 => Unit::Us,
        2 => Unit::Ms,
        _ => Unit::S,
    }
}

fn gen_dur(r: &mut Rng) -> Dur {
    Dur {
        value: r.range(1, 500),
        unit: gen_unit(r),
    }
}

fn gen_mix(r: &mut Rng) -> MixDecl {
    if r.chance(500) {
        MixDecl::Fixed(r.range(16, 4096) as u32)
    } else {
        let n = r.range(1, 4);
        let options = (0..n)
            .map(|_| (r.range(16, 4096) as u32, r.range(1, 9) as u32))
            .collect();
        MixDecl::Weighted(options)
    }
}

fn gen_arrival(r: &mut Rng) -> ArrivalDecl {
    match r.below(3) {
        0 => ArrivalDecl::Every(gen_dur(r)),
        1 => {
            let unit = gen_unit(r);
            let lo = r.range(1, 400);
            ArrivalDecl::Jitter {
                min: Dur { value: lo, unit },
                max: Dur {
                    value: lo + r.below(200),
                    unit,
                },
            }
        }
        _ => {
            let unit = gen_unit(r);
            let scale = r.range(1, 100);
            ArrivalDecl::Burst {
                scale: Dur { value: scale, unit },
                shape_permille: r.range(1, 10_000) as u32,
                cap: Dur {
                    value: scale + r.range(1, 400),
                    unit,
                },
            }
        }
    }
}

/// Picks `count` distinct node ids below `nodes`.
fn pick_distinct(r: &mut Rng, nodes: u16, count: usize) -> Vec<u16> {
    let mut pool: Vec<u16> = (0..nodes).collect();
    let mut out = Vec::new();
    for _ in 0..count.min(pool.len()) {
        let i = r.below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(i));
    }
    out
}

fn gen_action(r: &mut Rng, nodes: u16, switches: u16) -> Action {
    loop {
        match r.below(7) {
            0 => {
                return Action::BitFlip {
                    node: r.below(u64::from(nodes)) as u16,
                    target: match r.below(3) {
                        0 => Target::SendChunkCode,
                        1 => Target::PacketBuffer,
                        _ => Target::SendRecord,
                    },
                }
            }
            1 => {
                return Action::Hang {
                    node: r.below(u64::from(nodes)) as u16,
                }
            }
            2 if nodes >= 2 => {
                let count = r.range(2, u64::from(nodes).min(4)) as usize;
                return Action::CorrelatedHang {
                    nodes: pick_distinct(r, nodes, count),
                    skew: gen_dur(r),
                };
            }
            3 => {
                return Action::LinkDown {
                    node: r.below(u64::from(nodes)) as u16,
                    duration: gen_dur(r),
                }
            }
            4 => {
                return Action::Noise {
                    drop_permille: r.below(1001) as u32,
                    corrupt_permille: r.below(1001) as u32,
                    duration: gen_dur(r),
                }
            }
            5 if switches > 0 => {
                return Action::SwitchDeath {
                    switch: r.below(u64::from(switches)) as u16,
                }
            }
            6 => {
                return Action::LinkFlap {
                    node: r.below(u64::from(nodes)) as u16,
                    period: gen_dur(r),
                    count: r.range(1, 5) as u32,
                }
            }
            _ => {}
        }
    }
}

/// Generates a semantically valid spec from `seed`, deterministically.
pub fn gen_spec(seed: u64) -> Spec {
    let mut r = Rng::new(seed);

    let topology = match r.below(5) {
        0 => Topo::TwoNode,
        1 => Topo::Star(r.range(2, 12) as u16),
        2 => Topo::Ring(r.range(3, 12) as u16),
        3 => Topo::FatTree {
            spines: r.range(1, 3) as u16,
            leaves: r.range(1, 4) as u16,
            // >= 2 hosts per leaf so the world always has two endpoints.
            hosts_per_leaf: r.range(2, 4) as u16,
        },
        _ => Topo::Torus {
            cols: r.range(2, 4) as u16,
            rows: r.range(2, 4) as u16,
        },
    };
    let nodes = topology.node_count();
    let switches = topology.switch_count();
    let coordinator = r.chance(400);

    // Phases: warmup always, then a random in-order suffix.
    let mut phases = vec![PhaseDecl {
        kind: PhaseKind::Warmup,
        duration: gen_dur(&mut r),
    }];
    for kind in [PhaseKind::Steady, PhaseKind::Fault, PhaseKind::Drain] {
        if r.chance(600) {
            phases.push(PhaseDecl {
                kind,
                duration: gen_dur(&mut r),
            });
        }
    }

    // Flows: at least one, respecting the port-uniqueness rules.
    let mut flows: Vec<FlowDecl> = Vec::new();
    let mut validated_srcs: Vec<u16> = Vec::new();
    let mut validated_dsts: Vec<u16> = Vec::new();
    let mut load_srcs: Vec<u16> = Vec::new();
    let mut load_dst_model: Vec<(u16, bool)> = Vec::new(); // (dst, closed)
    let want = r.range(1, 4);
    for attempt in 0..want * 3 {
        if flows.len() as u64 >= want {
            break;
        }
        let src = r.below(u64::from(nodes)) as u16;
        let dst = r.below(u64::from(nodes)) as u16;
        if src == dst || nodes < 2 {
            continue;
        }
        let validated = attempt == 0 || r.chance(400);
        if validated {
            if validated_srcs.contains(&src) || validated_dsts.contains(&dst) {
                continue;
            }
            validated_srcs.push(src);
            validated_dsts.push(dst);
            flows.push(FlowDecl {
                src,
                dst,
                kind: FlowKind::Validated {
                    size: r.range(16, 4096) as u32,
                    pipeline: r.range(1, 8) as u32,
                },
            });
        } else {
            let closed = r.chance(500);
            if load_srcs.contains(&src) {
                continue;
            }
            if load_dst_model
                .iter()
                .any(|&(d, c)| d == dst && c != closed)
            {
                continue;
            }
            load_srcs.push(src);
            load_dst_model.push((dst, closed));
            let sizes = gen_mix(&mut r);
            let kind = if closed {
                FlowKind::Closed {
                    think: gen_dur(&mut r),
                    sizes,
                }
            } else {
                FlowKind::Open {
                    arrival: gen_arrival(&mut r),
                    sizes,
                }
            };
            flows.push(FlowDecl { src, dst, kind });
        }
    }
    if flows.is_empty() {
        flows.push(FlowDecl {
            src: 0,
            dst: 1,
            kind: FlowKind::Validated {
                size: 256,
                pipeline: 2,
            },
        });
        validated_srcs.push(0);
        validated_dsts.push(1);
    }

    // Faults only in declared non-warmup phases, offsets inside them.
    let injectable: Vec<PhaseDecl> = phases
        .iter()
        .filter(|p| p.kind != PhaseKind::Warmup)
        .copied()
        .collect();
    let mut faults = Vec::new();
    if !injectable.is_empty() {
        for _ in 0..r.below(4) {
            let Some(ph) = r.pick(&injectable) else { break };
            faults.push(FaultDecl {
                phase: ph.kind,
                at: Dur {
                    value: r.below(ph.duration.value + 1),
                    unit: ph.duration.unit,
                },
                action: gen_action(&mut r, nodes, switches),
            });
        }
    }
    let mut triggers = Vec::new();
    for _ in 0..r.below(3) {
        let node = r.below(u64::from(nodes)) as u16;
        let Some(phase) = r.pick(&RecoveryPhase::ORDER) else { break };
        triggers.push(TriggerDecl {
            node,
            phase,
            action: gen_action(&mut r, nodes, switches),
            limit: r.range(1, 3) as u32,
        });
    }

    // SLO bounds only where observable.
    let has_load = !load_srcs.is_empty();
    let has_steady = phases.iter().any(|p| p.kind == PhaseKind::Steady);
    let has_fault_phase = phases.iter().any(|p| p.kind == PhaseKind::Fault);
    let mut slo = SloDecl::default();
    if !validated_srcs.is_empty() && r.chance(500) {
        slo.flow_blackout = Some(gen_dur(&mut r));
    }
    if has_load && has_fault_phase && r.chance(400) {
        slo.fault_blackout = Some(gen_dur(&mut r));
    }
    if has_load && has_steady && r.chance(400) {
        slo.steady_completed = Some(r.below(1001) as u32);
    }
    if has_load && has_steady && r.chance(300) {
        slo.p99_overhead = Some(gen_dur(&mut r));
    }

    // Only reachable expectations.
    let has_faults = !faults.is_empty() || !triggers.is_empty();
    let mut reachable = vec![Expect::Survived];
    if has_faults {
        reachable.push(Expect::Escalated);
        if coordinator {
            reachable.push(Expect::Rerouted);
        }
    }
    let expect = r.pick(&reachable).unwrap_or(Expect::Survived);

    Spec {
        name: format!("gen-{seed:x}"),
        topology,
        seed: if r.chance(700) {
            Some(r.below(100_000))
        } else {
            None
        },
        coordinator,
        flows,
        phases,
        faults,
        triggers,
        slo,
        expect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(gen_spec(42), gen_spec(42));
        assert_eq!(gen_spec(7), gen_spec(7));
    }

    #[test]
    fn generated_specs_differ_across_seeds() {
        // Not a hard guarantee for any pair, but these must not all match.
        let a = gen_spec(1);
        let b = gen_spec(2);
        let c = gen_spec(3);
        assert!(a != b || b != c);
    }
}
