//! Canonical pretty-printer: [`Spec`] → scenario text.
//!
//! The printer emits the one canonical spelling of a spec — two-space
//! indent, one statement per line, every optional value written out
//! explicitly (defaults included) — so the fuzz suite can assert the
//! exact round trip `parse(print(spec)) == spec` with derived equality.

use std::fmt::Write as _;

use crate::ast::{
    Action, ArrivalDecl, Dur, FlowKind, MixDecl, SloDecl, Spec,
};

fn dur(d: Dur) -> String {
    format!("{}{}", d.value, d.unit.name())
}

fn mix(m: &MixDecl, out: &mut String) {
    match m {
        MixDecl::Fixed(bytes) => {
            let _ = write!(out, "sizes {bytes}");
        }
        MixDecl::Weighted(options) => {
            out.push_str("sizes mix { ");
            for (i, (bytes, weight)) in options.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{bytes}: {weight}");
            }
            out.push_str(" }");
        }
    }
}

fn action(a: &Action, out: &mut String) {
    match a {
        Action::BitFlip { node, target } => {
            let _ = write!(out, "bitflip node {node} target {}", target.name());
        }
        Action::Hang { node } => {
            let _ = write!(out, "hang node {node}");
        }
        Action::CorrelatedHang { nodes, skew } => {
            out.push_str("hang nodes");
            for n in nodes {
                let _ = write!(out, " {n}");
            }
            let _ = write!(out, " skew {}", dur(*skew));
        }
        Action::LinkDown { node, duration } => {
            let _ = write!(out, "link_down node {node} for {}", dur(*duration));
        }
        Action::Noise {
            drop_permille,
            corrupt_permille,
            duration,
        } => {
            let _ = write!(
                out,
                "noise drop {drop_permille} corrupt {corrupt_permille} for {}",
                dur(*duration)
            );
        }
        Action::SwitchDeath { switch } => {
            let _ = write!(out, "switch_death {switch}");
        }
        Action::LinkFlap {
            node,
            period,
            count,
        } => {
            let _ = write!(
                out,
                "link_flap node {node} period {} count {count}",
                dur(*period)
            );
        }
    }
}

/// Prints `spec` in canonical form. `parse(print(spec))` returns a spec
/// equal to the input whenever `spec` is semantically valid.
pub fn print(spec: &Spec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario \"{}\" {{", spec.name);

    out.push_str("  topology ");
    match spec.topology {
        crate::ast::Topo::TwoNode => out.push_str("two_node"),
        crate::ast::Topo::Star(n) => {
            let _ = write!(out, "star {n}");
        }
        crate::ast::Topo::Ring(n) => {
            let _ = write!(out, "ring {n}");
        }
        crate::ast::Topo::FatTree {
            spines,
            leaves,
            hosts_per_leaf,
        } => {
            let _ = write!(out, "fat_tree {spines} {leaves} {hosts_per_leaf}");
        }
        crate::ast::Topo::Torus { cols, rows } => {
            let _ = write!(out, "torus {cols} {rows}");
        }
    }
    out.push('\n');

    if let Some(seed) = spec.seed {
        let _ = writeln!(out, "  seed {seed}");
    }
    let _ = writeln!(
        out,
        "  coordinator {}",
        if spec.coordinator { "on" } else { "off" }
    );

    for f in &spec.flows {
        let _ = write!(out, "  flow {} -> {} ", f.src, f.dst);
        match &f.kind {
            FlowKind::Validated { size, pipeline } => {
                let _ = write!(out, "validated size {size} pipeline {pipeline}");
            }
            FlowKind::Open { arrival, sizes } => {
                out.push_str("open ");
                match arrival {
                    ArrivalDecl::Every(gap) => {
                        let _ = write!(out, "every {}", dur(*gap));
                    }
                    ArrivalDecl::Jitter { min, max } => {
                        let _ = write!(out, "jitter {}..{}", dur(*min), dur(*max));
                    }
                    ArrivalDecl::Burst {
                        scale,
                        shape_permille,
                        cap,
                    } => {
                        let _ = write!(
                            out,
                            "burst scale {} shape {shape_permille} cap {}",
                            dur(*scale),
                            dur(*cap)
                        );
                    }
                }
                out.push(' ');
                mix(sizes, &mut out);
            }
            FlowKind::Closed { think, sizes } => {
                let _ = write!(out, "closed think {} ", dur(*think));
                mix(sizes, &mut out);
            }
        }
        out.push('\n');
    }

    out.push_str("  phases {");
    for p in &spec.phases {
        let _ = write!(out, " {} {}", p.kind.name(), dur(p.duration));
    }
    out.push_str(" }\n");

    for f in &spec.faults {
        let _ = write!(
            out,
            "  fault in {} at {} ",
            f.phase.name(),
            dur(f.at)
        );
        action(&f.action, &mut out);
        out.push('\n');
    }
    for t in &spec.triggers {
        let _ = write!(out, "  on node {} phase {} ", t.node, t.phase.name());
        action(&t.action, &mut out);
        let _ = writeln!(out, " limit {}", t.limit);
    }

    if spec.slo != SloDecl::default() {
        out.push_str("  slo {");
        if let Some(b) = spec.slo.flow_blackout {
            let _ = write!(out, " flow_blackout {}", dur(b));
        }
        if let Some(b) = spec.slo.fault_blackout {
            let _ = write!(out, " fault_blackout {}", dur(b));
        }
        if let Some(b) = spec.slo.steady_completed {
            let _ = write!(out, " steady_completed {b}");
        }
        if let Some(b) = spec.slo.p99_overhead {
            let _ = write!(out, " p99_overhead {}", dur(b));
        }
        out.push_str(" }\n");
    }

    let _ = writeln!(out, "  expect {}", spec.expect.name());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expect, PhaseDecl, Topo};
    use ftgm_workload::PhaseKind;
    use crate::parse::parse;

    #[test]
    fn minimal_spec_round_trips() {
        let spec = Spec {
            name: "mini".to_string(),
            topology: Topo::TwoNode,
            seed: Some(7),
            coordinator: false,
            flows: vec![crate::ast::FlowDecl {
                src: 0,
                dst: 1,
                kind: FlowKind::Validated {
                    size: 256,
                    pipeline: 2,
                },
            }],
            phases: vec![PhaseDecl {
                kind: PhaseKind::Warmup,
                duration: Dur::ms(10),
            }],
            faults: Vec::new(),
            triggers: Vec::new(),
            slo: SloDecl::default(),
            expect: Expect::Survived,
        };
        let text = print(&spec);
        let reparsed = parse(&text).unwrap_or_else(|d| {
            let lines: Vec<String> = d.iter().map(|d| d.render()).collect();
            panic!("canonical text failed to parse:\n{text}\n{}", lines.join("\n"))
        });
        assert_eq!(reparsed, spec);
    }
}
