//! The metric catalogue: every name the benchmark prints, with its unit,
//! which way is better, which clock it reads, and — for end-to-end
//! metrics — how far it may move before it counts as a regression.
//!
//! A child process emits only the metrics its workload defines; a metric
//! a workload does not define is absent from that workload's row.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// How far an end-to-end metric may worsen, against the other set's median.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// A share of the median.
    Rel(f64),
    /// A share of the median or an absolute amount, whichever is larger.
    RelOrAbs(f64, f64),
    /// An absolute amount.
    Abs(f64),
    /// Must stay exactly zero.
    Zero,
}

impl Bound {
    pub fn allowance(self, median: f64) -> f64 {
        match self {
            Bound::Rel(r) => r * median.abs(),
            Bound::RelOrAbs(r, a) => (r * median.abs()).max(a),
            Bound::Abs(a) => a,
            Bound::Zero => 0.0,
        }
    }

    pub fn describe(self) -> String {
        match self {
            Bound::Rel(r) => format!("{:.0} %", r * 100.0),
            Bound::RelOrAbs(r, a) => format!("{:.0} % or {a}", r * 100.0),
            Bound::Abs(a) => format!("+{a}"),
            Bound::Zero => "must stay 0".to_string(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `true`: a count or a simulated-clock value, identical in every
    /// repetition of one seed. `false`: host clock, reported as a median.
    pub det: bool,
    /// `Some` for end-to-end metrics.
    pub bound: Option<Bound>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    det: bool,
    bound: Bound,
) -> Def {
    Def {
        name,
        unit,
        better,
        det,
        bound: Some(bound),
    }
}

const fn det(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        det: true,
        bound: None,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        det: false,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The twelve end-to-end metrics. Units name the clock: `sim_ns` is
/// simulated time, `s` is host time.
pub const END_TO_END: &[Def] = &[
    e2e("wall_s", "s", Lower, false, Bound::Rel(0.10)),
    e2e("msgs_per_s", "1/s", Higher, false, Bound::Rel(0.10)),
    e2e("setup_s", "s", Lower, false, Bound::RelOrAbs(0.25, 0.05)),
    e2e("peak_rss_mb", "MB", Lower, false, Bound::Rel(0.10)),
    e2e(
        "sim_latency_p50_ns",
        "sim_ns",
        Lower,
        true,
        Bound::Rel(0.01),
    ),
    e2e(
        "sim_latency_p999_ns",
        "sim_ns",
        Lower,
        true,
        Bound::Rel(0.01),
    ),
    e2e(
        "sim_goodput_bytes_per_s",
        "B/sim_s",
        Higher,
        true,
        Bound::Rel(0.01),
    ),
    e2e("ftgm_overhead_ns", "sim_ns", Lower, true, Bound::Rel(0.01)),
    e2e(
        "recovery_blackout_ns",
        "sim_ns",
        Lower,
        true,
        Bound::Rel(0.01),
    ),
    e2e("sim_job_ns", "sim_ns", Lower, true, Bound::Rel(0.01)),
    e2e(
        "paper_err_permille",
        "permille",
        Lower,
        true,
        Bound::Abs(5.0),
    ),
    e2e("ops_failed_ppm", "ppm", Lower, true, Bound::Zero),
];

/// Per-layer metrics, grouped by crate. `*_host_*`, `*_per_s` on the
/// host clock and the `kernel` costs are measured; the rest are counts
/// or simulated time read from public accessors after the run.
pub const PER_LAYER: &[Def] = &[
    det("sim.events", "count", Lower),
    det("sim.events_per_msg", "count", Lower),
    host("sim.events_per_s", "1/s", Higher),
    host("sim.host_s_per_sim_s", "s/sim_s", Lower),
    host("sim.sched_ns_per_event", "ns", Lower),
    det("lanai.send_chunk_calls", "count", Lower),
    det("lanai.busy_sim_ns_per_msg", "sim_ns", Lower),
    host("lanai.send_chunk_host_ns", "ns", Lower),
    host("lanai.insns_per_s", "1/s", Higher),
    det("mcp.data_tx", "count", Lower),
    det("mcp.retransmits", "count", Lower),
    det("mcp.retransmit_ppm", "ppm", Lower),
    det("mcp.duplicates", "count", Lower),
    det("mcp.nacks_sent", "count", Lower),
    det("mcp.no_token_drops", "count", Lower),
    det("mcp.ltimer_runs", "count", Lower),
    det("mcp.chunks_per_msg", "count", Lower),
    det("net.injected", "count", Lower),
    det("net.dropped", "count", Lower),
    det("net.bytes_delivered", "B", Lower),
    det("net.hops_per_frame", "count", Lower),
    det("net.max_channel_util_permille", "permille", Lower),
    host("net.inject_host_ns", "ns", Lower),
    det("host.pci_transfers", "count", Lower),
    det("host.pci_bytes", "B", Lower),
    det("host.pci_busy_sim_ns", "sim_ns", Lower),
    det("host.cpu_send_sim_ns_per_msg", "sim_ns", Lower),
    det("host.cpu_recv_sim_ns_per_msg", "sim_ns", Lower),
    det("host.backup_sim_ns_per_msg", "sim_ns", Lower),
    host("host.pci_host_ns_per_transfer", "ns", Lower),
    host("host.world_build_s", "s", Lower),
    host("host.world_rebuild_s", "s", Lower),
    det("gm.app_events", "count", Lower),
    host("gm.stack_host_ns_per_msg", "ns", Lower),
    host("gm.residual_host_ns_per_msg", "ns", Lower),
    host("gm.ftgm_host_ns_per_msg", "ns", Lower),
    host("gm.host_bytes_per_s", "B/s", Higher),
    det("core.detect_ns_mean", "sim_ns", Lower),
    det("core.detect_ns_max", "sim_ns", Lower),
    det("core.ftd_ns", "sim_ns", Lower),
    det("core.per_process_ns", "sim_ns", Lower),
    det("core.total_ns", "sim_ns", Lower),
    det("core.recoveries", "count", Lower),
    det("core.false_alarms", "count", Lower),
    det("core.failed_attempts", "count", Lower),
    det("core.escalations", "count", Lower),
    host("core.host_s_detect", "s", Lower),
    host("core.host_s_ftd", "s", Lower),
    host("core.host_s_per_process", "s", Lower),
    host("core.host_s_post", "s", Lower),
    det("faults.injections", "count", Lower),
    det("workload.issued", "count", Higher),
    det("workload.completed", "count", Higher),
    det("workload.max_in_flight", "count", Lower),
    det("workload.gen_late_p99_ns", "sim_ns", Lower),
    det("mpi.ops", "count", Higher),
    det("mpi.gm_msgs_per_op", "count", Lower),
    det("mpi.checkpoints_stored", "count", Lower),
    det("mpi.replayed_instances", "count", Lower),
    det("mpi.respawns", "count", Lower),
    det("mpi.ar_rd_sim_ns_per_op", "sim_ns", Lower),
    det("mpi.bcast_sim_ns_per_op", "sim_ns", Lower),
    det("mpi.halo_sim_ns_per_op", "sim_ns", Lower),
    host("mpi.ar_rd_host_us_per_op", "us", Lower),
    host("mpi.bcast_host_us_per_op", "us", Lower),
    host("mpi.halo_host_us_per_op", "us", Lower),
    host("mpi.spare_host_us_per_replayed", "us", Lower),
    host("mpi.tier_residual_host_ns_per_msg", "ns", Lower),
    host("trace_overhead_permille", "permille", Lower),
];

pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The end-to-end metrics every workload defines, with the bound
/// `BENCHMARK.json` gives each. Only these can go in its `end_to_end`
/// list, which wants each metric on each workload and takes a bound as a
/// share of the median only; the workload-specific ones ride in its
/// `per_layer` list. Bounds are wider than the report's: the driver's
/// runs differ in seed, so in offered bytes (goodput), and on the shared
/// two-core machine the benchmark was defined on, host time drifts by
/// 3-5 % between runs minutes apart whatever a run does about bursts.
pub const CONTRACT_END_TO_END: &[(&str, f64)] = &[
    ("wall_s", 0.25),
    ("msgs_per_s", 0.25),
    ("setup_s", 0.25),
    ("peak_rss_mb", 0.10),
    ("sim_goodput_bytes_per_s", 0.05),
];

fn in_contract_end_to_end(name: &str) -> bool {
    CONTRACT_END_TO_END.iter().any(|&(n, _)| n == name)
}

/// Names of `BENCHMARK.json`'s `per_layer` list: every per-layer metric,
/// then the end-to-end metrics that only some workloads define.
pub fn contract_per_layer() -> Vec<&'static Def> {
    PER_LAYER
        .iter()
        .chain(
            END_TO_END
                .iter()
                .filter(|d| !in_contract_end_to_end(d.name)),
        )
        .collect()
}

/// A child's metric row: `(name, value)` in emission order.
#[derive(Default)]
pub struct Row(pub Vec<(&'static str, f64)>);

impl Row {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            lookup(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.0.push((name, value));
    }
}
