//! The typed scenario specification the parser produces.
//!
//! A [`Spec`] is deliberately span-free: it is the *meaning* of a
//! scenario file, with source positions carried separately in
//! [`crate::parse::Diag`]s. That keeps the pretty-printer round trip
//! exact — `parse(print(spec)) == spec` compares these types directly
//! with derived `PartialEq` — and keeps the compiler
//! ([`mod@crate::compile`]) free of source-location bookkeeping.
//!
//! Every quantity is an integer: durations are a value plus an explicit
//! unit (never normalized, so the printer reproduces the author's
//! spelling), and probabilities are permille. No float ever appears in
//! a scenario file.

use ftgm_sim::{RecoveryPhase, SimDuration};
use ftgm_workload::PhaseKind;

/// A duration literal: integer value plus the unit it was written in.
///
/// The unit is preserved (not normalized to nanoseconds) so printing a
/// parsed spec reproduces the original token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dur {
    /// Value in `unit`s.
    pub value: u64,
    /// Unit the value was written in.
    pub unit: Unit,
}

/// Time units the DSL accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds (`ns`).
    Ns,
    /// Microseconds (`us`).
    Us,
    /// Milliseconds (`ms`).
    Ms,
    /// Seconds (`s`).
    S,
}

impl Unit {
    /// The unit's source spelling.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
            Unit::S => "s",
        }
    }

    /// Parses a source spelling back to the unit.
    pub fn from_name(name: &str) -> Option<Unit> {
        match name {
            "ns" => Some(Unit::Ns),
            "us" => Some(Unit::Us),
            "ms" => Some(Unit::Ms),
            "s" => Some(Unit::S),
            _ => None,
        }
    }

    /// Nanoseconds per unit.
    pub fn nanos(self) -> u64 {
        match self {
            Unit::Ns => 1,
            Unit::Us => 1_000,
            Unit::Ms => 1_000_000,
            Unit::S => 1_000_000_000,
        }
    }
}

impl Dur {
    /// A duration of `value` nanoseconds.
    pub fn ns(value: u64) -> Dur {
        Dur {
            value,
            unit: Unit::Ns,
        }
    }

    /// A duration of `value` microseconds.
    pub fn us(value: u64) -> Dur {
        Dur {
            value,
            unit: Unit::Us,
        }
    }

    /// A duration of `value` milliseconds.
    pub fn ms(value: u64) -> Dur {
        Dur {
            value,
            unit: Unit::Ms,
        }
    }

    /// A duration of `value` seconds.
    pub fn secs(value: u64) -> Dur {
        Dur {
            value,
            unit: Unit::S,
        }
    }

    /// The duration in nanoseconds (saturating).
    pub fn as_nanos(self) -> u64 {
        self.value.saturating_mul(self.unit.nanos())
    }

    /// The simulator's duration type.
    pub fn to_sim(self) -> SimDuration {
        SimDuration::from_nanos(self.as_nanos())
    }
}

/// World shape. Mirrors `ftgm_faults::chaos::ChaosTopology` one-to-one;
/// the DSL keeps its own copy so the AST stays a pure syntax type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topo {
    /// Two directly cabled hosts.
    TwoNode,
    /// `n` hosts on one central switch.
    Star(u16),
    /// `n` hosts on a cycle of switches.
    Ring(u16),
    /// Two-level fat tree.
    FatTree {
        /// Spine switches.
        spines: u16,
        /// Leaf switches.
        leaves: u16,
        /// Hosts per leaf.
        hosts_per_leaf: u16,
    },
    /// 2-D torus of switches, one host each.
    Torus {
        /// Columns.
        cols: u16,
        /// Rows.
        rows: u16,
    },
}

impl Topo {
    /// Number of hosts, mirroring `ChaosTopology::node_count`.
    pub fn node_count(self) -> u16 {
        match self {
            Topo::TwoNode => 2,
            Topo::Star(n) | Topo::Ring(n) => n,
            Topo::FatTree {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves.saturating_mul(hosts_per_leaf),
            Topo::Torus { cols, rows } => cols.saturating_mul(rows),
        }
    }

    /// Number of switches (`switch_death` targets range over these ids).
    pub fn switch_count(self) -> u16 {
        match self {
            Topo::TwoNode => 0,
            Topo::Star(_) => 1,
            Topo::Ring(n) => n,
            Topo::FatTree { spines, leaves, .. } => leaves.saturating_add(spines),
            Topo::Torus { cols, rows } => cols.saturating_mul(rows),
        }
    }
}

/// One timeline phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseDecl {
    /// Which phase.
    pub kind: PhaseKind,
    /// How long it lasts.
    pub duration: Dur,
}

/// Interarrival model for open-loop load flows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalDecl {
    /// Constant gap: `every 50us`.
    Every(Dur),
    /// Uniform jitter: `jitter 40us..80us`.
    Jitter {
        /// Lower edge.
        min: Dur,
        /// Upper edge.
        max: Dur,
    },
    /// Bounded-Pareto bursts: `burst scale 30us shape 1500 cap 2ms`.
    Burst {
        /// Pareto scale (minimum gap).
        scale: Dur,
        /// Tail index alpha in permille.
        shape_permille: u32,
        /// Truncation cap.
        cap: Dur,
    },
}

/// Message-size mix for load flows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MixDecl {
    /// Every message the same size: `sizes 256`.
    Fixed(u32),
    /// Weighted options: `sizes mix { 64: 3, 1024: 1 }`.
    Weighted(Vec<(u32, u32)>),
}

/// What a flow carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Sequence-validated pattern traffic (the chaos oracles' probes).
    Validated {
        /// Message size in bytes.
        size: u32,
        /// Go-Back-N pipeline depth.
        pipeline: u32,
    },
    /// Open-loop offered load.
    Open {
        /// Interarrival model.
        arrival: ArrivalDecl,
        /// Size mix.
        sizes: MixDecl,
    },
    /// Closed-loop request/response load.
    Closed {
        /// Think time between response and next request.
        think: Dur,
        /// Size mix.
        sizes: MixDecl,
    },
}

/// One declared traffic flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowDecl {
    /// Sending node.
    pub src: u16,
    /// Receiving node.
    pub dst: u16,
    /// Payload discipline.
    pub kind: FlowKind,
}

/// Bit-flip injection targets (mirrors `ftgm_faults::InjectionTarget`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The `send_chunk` code section.
    SendChunkCode,
    /// A packet buffer.
    PacketBuffer,
    /// A send record.
    SendRecord,
}

impl Target {
    /// Source spelling.
    pub fn name(self) -> &'static str {
        match self {
            Target::SendChunkCode => "send_chunk_code",
            Target::PacketBuffer => "packet_buffer",
            Target::SendRecord => "send_record",
        }
    }

    /// Parses a source spelling back to the target.
    pub fn from_name(name: &str) -> Option<Target> {
        match name {
            "send_chunk_code" => Some(Target::SendChunkCode),
            "packet_buffer" => Some(Target::PacketBuffer),
            "send_record" => Some(Target::SendRecord),
            _ => None,
        }
    }
}

/// A fault primitive (mirrors `ftgm_faults::chaos::ChaosAction`, with
/// probabilities in integer permille so scenario files stay float-free).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// `bitflip node 0 target send_chunk_code`
    BitFlip {
        /// Node whose SRAM is hit.
        node: u16,
        /// What to flip.
        target: Target,
    },
    /// `hang node 3`
    Hang {
        /// Node forced into a hang.
        node: u16,
    },
    /// `hang nodes 1 3 skew 500us`
    CorrelatedHang {
        /// Nodes hung in order.
        nodes: Vec<u16>,
        /// Gap between consecutive hangs.
        skew: Dur,
    },
    /// `link_down node 1 for 20ms`
    LinkDown {
        /// Node whose NIC link drops.
        node: u16,
        /// Outage length.
        duration: Dur,
    },
    /// `noise drop 50 corrupt 20 for 100ms` (both permille)
    Noise {
        /// Per-frame drop probability, permille.
        drop_permille: u32,
        /// Per-frame corruption probability, permille.
        corrupt_permille: u32,
        /// Window length.
        duration: Dur,
    },
    /// `switch_death 8`
    SwitchDeath {
        /// Switch id (topology-specific numbering).
        switch: u16,
    },
    /// `link_flap node 2 period 20ms count 3`
    LinkFlap {
        /// Node whose link flaps.
        node: u16,
        /// Down/up period.
        period: Dur,
        /// Number of flaps.
        count: u32,
    },
}

/// A scheduled fault: `fault in <phase> at <offset> <action>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultDecl {
    /// Declared phase the fault fires in.
    pub phase: PhaseKind,
    /// Offset after that phase starts.
    pub at: Dur,
    /// The fault primitive.
    pub action: Action,
}

/// A recovery-phase trigger:
/// `on node <n> phase <ftd-phase> <action> limit <k>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriggerDecl {
    /// Node whose FTD is watched.
    pub node: u16,
    /// FTD phase whose completion pulls the trigger.
    pub phase: RecoveryPhase,
    /// The fault primitive.
    pub action: Action,
    /// Fire budget before the trigger disarms.
    pub limit: u32,
}

/// Declared SLO bounds; every field optional.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloDecl {
    /// Max end-to-end delivery gap on validated flows (the chaos
    /// blackout oracle; exempts loudly-escalated endpoints).
    pub flow_blackout: Option<Dur>,
    /// Max no-completion gap in the fault window of the load flows.
    pub fault_blackout: Option<Dur>,
    /// Min steady-state completion ratio of the load flows, permille.
    pub steady_completed: Option<u32>,
    /// Max FTGM-vs-GM steady p99 latency overhead (runs a fault-free
    /// plain-GM twin of the load spec as the baseline).
    pub p99_overhead: Option<Dur>,
}

/// The verdict a scenario pins: `expect survived|rerouted|escalated`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// All oracles hold, nothing written off, no reroute needed.
    Survived,
    /// All oracles hold because the coordinator rerouted.
    Rerouted,
    /// All oracles hold; one or more interfaces loudly declared dead.
    Escalated,
}

impl Expect {
    /// Source spelling.
    pub fn name(self) -> &'static str {
        match self {
            Expect::Survived => "survived",
            Expect::Rerouted => "rerouted",
            Expect::Escalated => "escalated",
        }
    }

    /// Parses a source spelling back to the expectation.
    pub fn from_name(name: &str) -> Option<Expect> {
        match name {
            "survived" => Some(Expect::Survived),
            "rerouted" => Some(Expect::Rerouted),
            "escalated" => Some(Expect::Escalated),
            _ => None,
        }
    }
}

/// A complete parsed scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Scenario name (the quoted string after `scenario`).
    pub name: String,
    /// World shape.
    pub topology: Topo,
    /// Master seed (`seed N`); the runner defaults it when absent.
    pub seed: Option<u64>,
    /// Whether the zone coordinator is installed (`coordinator on|off`).
    pub coordinator: bool,
    /// Declared flows, in order.
    pub flows: Vec<FlowDecl>,
    /// Timeline phases, in order.
    pub phases: Vec<PhaseDecl>,
    /// Scheduled faults, in order.
    pub faults: Vec<FaultDecl>,
    /// Recovery-phase triggers, in order.
    pub triggers: Vec<TriggerDecl>,
    /// SLO bounds.
    pub slo: SloDecl,
    /// The pinned verdict.
    pub expect: Expect,
}

impl Spec {
    /// The duration of the first phase of kind `kind`, if declared.
    pub fn phase_duration(&self, kind: PhaseKind) -> Option<Dur> {
        self.phases
            .iter()
            .find(|p| p.kind == kind)
            .map(|p| p.duration)
    }

    /// Whether the spec declares any load (open/closed-loop) flow.
    pub fn has_load(&self) -> bool {
        self.flows
            .iter()
            .any(|f| !matches!(f.kind, FlowKind::Validated { .. }))
    }

    /// Whether the spec declares any fault (scheduled or triggered).
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty() || !self.triggers.is_empty()
    }
}
