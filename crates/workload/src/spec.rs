//! Declarative workload specifications.
//!
//! A [`WorkloadSpec`] names everything a run needs to be reproducible:
//! the topology, the GM variant, a set of traffic flows with their
//! client models and message-size mixes, a multi-phase timeline
//! (warmup → steady → fault window → drain), and a seed. It states no
//! fault: a scenario file does, and the chaos engine fires it in the
//! world that carries the spec's flows. Two runs of the same spec
//! with the same seed replay identically, down to the serialized
//! [`crate::SloReport`].

use ftgm_faults::chaos::ChaosTopology;
use ftgm_sim::{SimDuration, SimRng};

/// Interarrival-time distribution for open-loop generators.
///
/// All sampling is seed-deterministic through [`SimRng`]; gaps are
/// clamped to at least 1 ns so a generator always makes progress.
#[derive(Clone, Copy, Debug)]
pub enum Arrival {
    /// A constant gap between offered messages.
    Fixed {
        /// Gap between consecutive arrivals.
        gap: SimDuration,
    },
    /// Uniform jitter on `[min, max]` (inclusive; bounds may be equal
    /// or given in either order).
    UniformJitter {
        /// One edge of the jitter window.
        min: SimDuration,
        /// The other edge of the jitter window.
        max: SimDuration,
    },
    /// Bounded-Pareto bursts: heavy-tailed gaps with scale `scale`,
    /// tail index `shape_permille / 1000`, truncated at `cap`.
    ParetoBurst {
        /// Minimum gap (the Pareto scale parameter x_m).
        scale: SimDuration,
        /// Tail index alpha in permille (e.g. 1500 ⇒ alpha = 1.5).
        shape_permille: u32,
        /// Upper truncation bound on the sampled gap.
        cap: SimDuration,
    },
}

impl Arrival {
    /// Samples the next interarrival gap.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        let ns = match *self {
            Arrival::Fixed { gap } => gap.as_nanos(),
            Arrival::UniformJitter { min, max } => {
                let (lo, hi) = if min.as_nanos() <= max.as_nanos() {
                    (min.as_nanos(), max.as_nanos())
                } else {
                    (max.as_nanos(), min.as_nanos())
                };
                if lo == hi {
                    lo
                } else {
                    // Inclusive upper bound: gen_range_between is half-open.
                    rng.gen_range_between(lo, hi.saturating_add(1))
                }
            }
            Arrival::ParetoBurst {
                scale,
                shape_permille,
                cap,
            } => {
                #[expect(
                    clippy::float_arithmetic,
                    reason = "the Pareto shape; the drawn gap is cut to whole nanoseconds below"
                )]
                let alpha = f64::from(shape_permille.max(1)) / 1000.0;
                let u = rng.gen_f64(); // [0, 1)
                let xm = scale.as_nanos().max(1) as f64;
                #[expect(
                    clippy::float_arithmetic,
                    reason = "inverse-CDF Pareto draw, cut to whole nanoseconds before it schedules anything"
                )]
                let raw = xm / (1.0 - u).powf(1.0 / alpha);
                let capped = raw.min(cap.as_nanos() as f64);
                capped as u64
            }
        };
        SimDuration::from_nanos(ns.max(1))
    }
}

/// Message-size distribution for a flow.
#[derive(Clone, Debug)]
pub enum SizeMix {
    /// Every message has the same payload size.
    Fixed {
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Weighted mix of payload sizes, sampled per message.
    Weighted {
        /// `(bytes, weight)` options; weights need not sum to anything.
        options: Vec<(u32, u32)>,
    },
}

impl SizeMix {
    /// Samples one message size. Sizes are clamped to at least 16 bytes
    /// so closed-loop request ids always fit.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let bytes = match self {
            SizeMix::Fixed { bytes } => *bytes,
            SizeMix::Weighted { options } => {
                let total: u64 = options.iter().map(|&(_, w)| u64::from(w)).sum();
                if total == 0 {
                    256
                } else {
                    let mut pick = rng.gen_range(total);
                    let mut chosen = 256;
                    for &(bytes, w) in options {
                        if pick < u64::from(w) {
                            chosen = bytes;
                            break;
                        }
                        pick -= u64::from(w);
                    }
                    chosen
                }
            }
        };
        bytes.max(16)
    }

    /// Largest size this mix can produce (used to size receive buffers).
    pub fn max_bytes(&self) -> u32 {
        let m = match self {
            SizeMix::Fixed { bytes } => *bytes,
            SizeMix::Weighted { options } => {
                options.iter().map(|&(bytes, _)| bytes).max().unwrap_or(256)
            }
        };
        m.max(16)
    }
}

/// How a flow's client offers load.
#[derive(Clone, Debug)]
pub enum ClientModel {
    /// Open loop: messages arrive on the [`Arrival`] clock regardless of
    /// completions; excess arrivals queue behind send tokens.
    OpenLoop {
        /// Interarrival distribution.
        arrival: Arrival,
    },
    /// Closed loop: one outstanding request/response at a time, with a
    /// fixed think time between a response and the next request.
    ClosedLoop {
        /// Think time between a response and the next request.
        think: SimDuration,
    },
}

/// One traffic flow: a generator endpoint, a responder endpoint, a
/// client model, and a size mix.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Generating node.
    pub src: u16,
    /// Generator's GM port.
    pub src_port: u8,
    /// Responder node.
    pub dst: u16,
    /// Responder's GM port.
    pub dst_port: u8,
    /// Open- or closed-loop client model.
    pub model: ClientModel,
    /// Message-size mix.
    pub sizes: SizeMix,
}

/// Role of a phase in the run timeline, in timeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Ramp-up; measured but expected to be noisy.
    Warmup,
    /// Steady state; the phase SLO bounds apply here.
    Steady,
    /// Declared fault window; a scenario's faults fire inside it.
    Fault,
    /// Drain: generators stop offering load, in-flight traffic lands.
    Drain,
}

impl PhaseKind {
    /// Stable lower-case name used in reports, JSON and scenario files.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Warmup => "warmup",
            PhaseKind::Steady => "steady",
            PhaseKind::Fault => "fault",
            PhaseKind::Drain => "drain",
        }
    }

    /// Parses a [`PhaseKind::name`] back to the phase.
    pub fn from_name(name: &str) -> Option<PhaseKind> {
        match name {
            "warmup" => Some(PhaseKind::Warmup),
            "steady" => Some(PhaseKind::Steady),
            "fault" => Some(PhaseKind::Fault),
            "drain" => Some(PhaseKind::Drain),
            _ => None,
        }
    }

    /// Whether generators keep offering load during this phase.
    pub fn offers_load(self) -> bool {
        !matches!(self, PhaseKind::Drain)
    }
}

/// One phase of the run timeline.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// What the phase is for.
    pub kind: PhaseKind,
    /// How long it lasts.
    pub duration: SimDuration,
}

/// Which GM variant the world runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Baseline GM firmware, no fault-tolerance machinery.
    Gm,
    /// FTGM firmware with the fault-tolerant daemon installed.
    Ftgm,
}

impl Variant {
    /// Stable lower-case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Gm => "gm",
            Variant::Ftgm => "ftgm",
        }
    }
}

/// A complete, reproducible workload description.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Human-readable spec name (appears in reports).
    pub name: String,
    /// World shape to run over.
    pub topology: ChaosTopology,
    /// GM variant.
    pub variant: Variant,
    /// Traffic flows.
    pub flows: Vec<FlowSpec>,
    /// Phase timeline, in order.
    pub phases: Vec<Phase>,
    /// Master seed; every per-flow RNG derives from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// An empty spec over `topology` with the given name, variant and seed.
    pub fn new(
        name: impl Into<String>,
        topology: ChaosTopology,
        variant: Variant,
        seed: u64,
    ) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            topology,
            variant,
            flows: Vec::new(),
            phases: Vec::new(),
            seed,
        }
    }

    /// Adds a flow (builder style).
    pub fn flow(mut self, flow: FlowSpec) -> WorkloadSpec {
        self.flows.push(flow);
        self
    }

    /// Appends a phase (builder style).
    pub fn phase(mut self, kind: PhaseKind, duration: SimDuration) -> WorkloadSpec {
        self.phases.push(Phase { kind, duration });
        self
    }

    /// Total run length: the sum of all phase durations.
    pub fn total_duration(&self) -> SimDuration {
        let ns = self
            .phases
            .iter()
            .fold(0u64, |acc, p| acc.saturating_add(p.duration.as_nanos()));
        SimDuration::from_nanos(ns)
    }

    /// Window during which generators offer load: everything up to the
    /// first [`PhaseKind::Drain`] phase (or the whole run if none).
    pub fn offered_window(&self) -> SimDuration {
        let mut ns = 0u64;
        for p in &self.phases {
            if !p.kind.offers_load() {
                break;
            }
            ns = ns.saturating_add(p.duration.as_nanos());
        }
        SimDuration::from_nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_sampling_is_bounded_and_deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let dists = [
            Arrival::Fixed {
                gap: SimDuration::from_us(10),
            },
            Arrival::UniformJitter {
                min: SimDuration::from_us(5),
                max: SimDuration::from_us(15),
            },
            Arrival::UniformJitter {
                min: SimDuration::from_us(9),
                max: SimDuration::from_us(9),
            },
            Arrival::ParetoBurst {
                scale: SimDuration::from_us(4),
                shape_permille: 1200,
                cap: SimDuration::from_ms(1),
            },
        ];
        for d in &dists {
            for _ in 0..200 {
                let ga = d.next_gap(&mut a);
                let gb = d.next_gap(&mut b);
                assert_eq!(ga, gb);
                assert!(ga.as_nanos() >= 1);
                if let Arrival::UniformJitter { min, max } = d {
                    assert!(ga >= *min && ga <= *max);
                }
                if let Arrival::ParetoBurst { scale, cap, .. } = d {
                    assert!(ga >= *scale && ga <= *cap);
                }
            }
        }
    }

    #[test]
    fn size_mix_respects_floor_and_weights() {
        let mut rng = SimRng::new(3);
        let mix = SizeMix::Weighted {
            options: vec![(4, 1), (1024, 1)],
        };
        let mut small = 0u32;
        let mut big = 0u32;
        for _ in 0..400 {
            match mix.sample(&mut rng) {
                16 => small += 1, // 4 is clamped up to the 16-byte floor
                1024 => big += 1,
                other => unreachable!("unexpected size {other}"),
            }
        }
        assert!(small > 100 && big > 100);
        assert_eq!(mix.max_bytes(), 1024);
        assert_eq!(
            SizeMix::Weighted { options: vec![] }.sample(&mut rng),
            256
        );
    }

    #[test]
    fn phase_bookkeeping() {
        let spec = WorkloadSpec::new("t", ChaosTopology::TwoNode, Variant::Gm, 1)
            .phase(PhaseKind::Warmup, SimDuration::from_ms(5))
            .phase(PhaseKind::Steady, SimDuration::from_ms(20))
            .phase(PhaseKind::Drain, SimDuration::from_ms(10));
        assert_eq!(spec.total_duration(), SimDuration::from_ms(35));
        assert_eq!(spec.offered_window(), SimDuration::from_ms(25));
    }
}
