#![warn(missing_docs)]

//! Shared measurement harness for the paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one table or figure; this library
//! holds the measurement routines they share. Everything it measures is
//! on the simulated clock: host time is the repo benchmark's business
//! (`benchmark/`), and the lint's determinism rule keeps wall clocks out
//! of this crate.
//!
//! | artifact | binary | routine |
//! |---|---|---|
//! | Table 1  | `table1` | `ftgm_faults::run_campaign` |
//! | Table 2  | `table2` | [`measure_table2`] |
//! | Table 3  | `table3` | [`recovery_episode`] |
//! | Figure 7 | `fig7` | [`measure_bandwidth`] sweep |
//! | Figure 8 | `fig8` | [`measure_latency`] sweep |
//! | Figure 9 | `fig9` | [`recovery_episode`] trace |
//! | §5.2     | `effectiveness` | `ftgm_faults` with FTGM |
//! | §4.2     | `watchdog_gap` | [`measure_ltimer_gaps`] |

pub mod mpi;

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::{FtSystem, RecoveryReport};
use ftgm_gm::apps::{
    Echoer, PatternReceiver, PatternSender, Pinger, PingPongStats, Streamer, StreamerStats,
    TrafficStats,
};
use ftgm_gm::{World, WorldConfig};
use ftgm_host::CpuCost;
use ftgm_net::NodeId;
use ftgm_sim::SimDuration;

/// Message lengths used for the Figure 7/8 sweeps: powers of two plus
/// extra points around the 4 KB fragmentation boundary (the source of the
/// paper's "jagged pattern in the middle of the curve").
pub fn sweep_lengths() -> Vec<u32> {
    let mut v: Vec<u32> = (0..=20).map(|i| 1u32 << i).collect(); // 1 B .. 1 MB
    v.extend_from_slice(&[3072, 5120, 6144, 12288, 20480, 40960]);
    v.sort_unstable();
    v.dedup();
    v
}

/// Measures mean half round-trip latency for `size`-byte messages.
pub fn measure_latency(config: &WorldConfig, size: u32, warmup: u32, iters: u32) -> SimDuration {
    let mut w = World::two_node(config.clone());
    let stats = Rc::new(RefCell::new(PingPongStats::default()));
    w.spawn_app(NodeId(1), 2, Box::new(Echoer::new(size.max(64) * 2)));
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(Pinger::new(NodeId(1), 2, size.max(1), warmup, iters, stats.clone())),
    );
    // Generous horizon: large messages need time.
    let horizon = SimDuration::from_ms(200)
        + SimDuration::from_us(((warmup + iters) as u64) * (60 + size as u64 / 20));
    w.run_for(horizon);
    let s = stats.borrow();
    assert!(s.done, "ping-pong did not finish for size {size}");
    s.mean_half_rtt().expect("iterations recorded")
}

/// Measures sustained bidirectional data rate for `size`-byte messages.
/// Returns the mean of the two directions in MB/s.
pub fn measure_bandwidth(config: &WorldConfig, size: u32) -> f64 {
    let mut w = World::two_node(config.clone());
    let s0 = Rc::new(RefCell::new(StreamerStats::default()));
    let s1 = Rc::new(RefCell::new(StreamerStats::default()));
    let warm = SimDuration::from_ms(30);
    // Window long enough for ≥50 messages of the largest sizes.
    let window = SimDuration::from_ms(100) + SimDuration::from_us(size as u64);
    let pipeline = 8;
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(Streamer::new(NodeId(1), 1, size, pipeline, warm, s0.clone())),
    );
    w.spawn_app(
        NodeId(1),
        1,
        Box::new(Streamer::new(NodeId(0), 0, size, pipeline, warm, s1.clone())),
    );
    w.run_for(warm + window);
    let now = w.now();
    let rate = (s0.borrow().rate_mb_s(now) + s1.borrow().rate_mb_s(now)) / 2.0;
    drop(w); // the world holds clones of the stats handles
    rate
}

/// One row of Table 2.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Sustained bidirectional bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
    /// Small-message half round-trip latency, µs (mean over 1–100 B).
    pub latency_us: f64,
    /// Host CPU per send, µs.
    pub host_send_us: f64,
    /// Host CPU per receive, µs.
    pub host_recv_us: f64,
    /// LANai time per message (both interfaces), µs.
    pub lanai_us: f64,
}

/// Measures every Table 2 metric for one protocol variant.
pub fn measure_table2(config: &WorldConfig) -> Table2Row {
    // Latency: the paper averages message lengths 1..100 B.
    let lat_sizes = [1u32, 16, 33, 64, 100];
    let latency_us = lat_sizes
        .iter()
        .map(|&s| measure_latency(config, s, 10, 60).as_micros_f64())
        .sum::<f64>()
        / lat_sizes.len() as f64;

    // Bandwidth: large messages.
    let bandwidth_mb_s = measure_bandwidth(config, 262_144);

    // Host + LANai utilization: a unidirectional validated stream, counted
    // per message.
    let mut w = World::two_node(config.clone());
    let stats = Rc::new(RefCell::new(TrafficStats::default()));
    w.spawn_app(
        NodeId(1),
        2,
        Box::new(PatternReceiver::new(4096, 16, stats.clone())),
    );
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(PatternSender::new(NodeId(1), 2, 1024, 8, Some(3_000), stats.clone())),
    );
    w.run_for(SimDuration::from_ms(400));
    let s = stats.borrow();
    assert_eq!(s.received_ok, 3_000, "stream completed");
    let n = s.received_ok as f64;
    let cpu0 = &w.nodes[0].host.cpu;
    let host_send_us = (cpu0.total_for(CpuCost::SendCall).as_micros_f64()
        + cpu0.total_for(CpuCost::SendTokenBackup).as_micros_f64())
        / n;
    let cpu1 = &w.nodes[1].host.cpu;
    let host_recv_us = (cpu1.total_for(CpuCost::RecvEvent).as_micros_f64()
        + cpu1.total_for(CpuCost::ProvideBuffer).as_micros_f64()
        + cpu1.total_for(CpuCost::RecvTokenBackup).as_micros_f64())
        / n;
    let lanai_total = |i: usize| {
        let m = &w.nodes[i].mcp;
        let lt = m.accounting().get(ftgm_mcp::Handler::Ltimer);
        m.lanai_busy().as_micros_f64() - lt.as_micros_f64()
    };
    let lanai_us = (lanai_total(0) + lanai_total(1)) / n;
    Table2Row {
        bandwidth_mb_s,
        latency_us,
        host_send_us,
        host_recv_us,
        lanai_us,
    }
}

/// Runs one full recovery episode under traffic and returns the report,
/// the trace rendering, and the traffic ground truth. `hang_at` sets the
/// injection instant (its phase relative to the watchdog period determines
/// the detection latency, so Table 3 samples several phases).
pub fn recovery_episode(hang_node: NodeId, hang_at: SimDuration) -> (RecoveryReport, String, TrafficStats) {
    let mut config = WorldConfig::ftgm();
    config.trace = true;
    let mut w = World::two_node(config);
    let ft = FtSystem::install(&mut w);
    let stats = Rc::new(RefCell::new(TrafficStats::default()));
    w.spawn_app(
        NodeId(1),
        2,
        Box::new(PatternReceiver::new(512, 16, stats.clone())),
    );
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(PatternSender::new(NodeId(1), 2, 256, 8, None, stats.clone())),
    );
    w.run_for(hang_at);
    ft.inject_forced_hang(&mut w, hang_node);
    w.run_for(SimDuration::from_secs(4));
    assert_eq!(ft.recoveries(hang_node), 1, "recovery completed");
    let report = RecoveryReport::from_trace(&w.trace).expect("complete episode");
    let rendered = w.trace.render();
    let s = stats.borrow().clone();
    (report, rendered, s)
}

/// Measures `L_timer()` inter-invocation gaps on a loaded FTGM interface
/// (§4.2). Returns `(max, mean)` gap.
pub fn measure_ltimer_gaps(load: bool) -> (SimDuration, SimDuration) {
    let config = WorldConfig::ftgm();
    let mut w = World::two_node(config);
    if load {
        let s0 = Rc::new(RefCell::new(StreamerStats::default()));
        let s1 = Rc::new(RefCell::new(StreamerStats::default()));
        let warm = SimDuration::from_ms(1);
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(Streamer::new(NodeId(1), 1, 4096, 16, warm, s0)),
        );
        w.spawn_app(
            NodeId(1),
            1,
            Box::new(Streamer::new(NodeId(0), 0, 4096, 16, warm, s1)),
        );
    }
    w.run_for(SimDuration::from_ms(500));
    let mcp = &w.nodes[0].mcp;
    assert!(mcp.stats().ltimer_runs > 10, "not enough L_timer samples");
    let mean = mcp.ltimer_mean_gap().expect("two passes at least");
    (mcp.ltimer_max_gap(), mean)
}

/// Formats a measurement row with a paper-reference column.
pub fn row(label: &str, ours: f64, unit: &str, paper: f64) -> String {
    format!("{label:<28} {ours:>10.2} {unit:<5} (paper: {paper})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_includes_fragmentation_neighborhood() {
        let v = sweep_lengths();
        assert!(v.contains(&4096));
        assert!(v.contains(&5120));
        assert!(v.contains(&1));
        assert!(v.contains(&(1 << 20)));
        assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    }

    #[test]
    fn latency_monotone_in_size_class() {
        let config = WorldConfig::gm();
        let small = measure_latency(&config, 8, 3, 10);
        let large = measure_latency(&config, 65_536, 3, 10);
        assert!(large > small * 4, "{small} vs {large}");
    }

    #[test]
    fn ltimer_gap_is_in_watchdog_class() {
        let (max, mean) = measure_ltimer_gaps(true);
        let max_us = max.as_micros_f64();
        // §4.2: "maximum time between these timer routine invocations
        // during normal operation is around 800us".
        assert!(
            (740.0..860.0).contains(&max_us),
            "max L_timer gap {max_us}us"
        );
        assert!(mean <= max);
    }
}
