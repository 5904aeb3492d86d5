//! Single fault-injection runs.
//!
//! The paper's method (§2): "Transient faults in the network processor
//! were simulated by flipping bits randomly in the code segment of the
//! MCP. … one section of the MCP code, namely `send_chunk`, was selected
//! and for each experiment, a fault was injected at a random bit location
//! in this section while it was handling some network communication."
//!
//! A [`RunConfig`] describes one experiment: build a fresh two-node world,
//! run validated traffic for a warm-up, flip one uniformly random bit of
//! the faulted node's `send_chunk` image, keep running for the observation
//! window, then collect [`Observables`] and classify.

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::FtSystem;
use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimRng, TraceKind};

use crate::classify::{classify, Observables, Outcome};

/// Where the bit flip lands.
///
/// The paper's campaign targets the `send_chunk` code section; the extra
/// targets extend the study to data regions of the same SRAM (faults there
/// are *overwritten* by normal operation, so most are transient no-ops —
/// a contrast the tests assert).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionTarget {
    /// The `send_chunk` code image (the paper's section).
    SendChunkCode,
    /// The packet-header build buffer (overwritten every send).
    PacketBuffer,
    /// The send-record argument block (rewritten every send).
    SendRecord,
    /// An explicit SRAM byte range.
    SramRegion {
        /// First byte.
        start: u32,
        /// Length in bytes.
        len: u32,
    },
}

/// Configuration of one injection run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// World configuration (GM for Table 1, FTGM for §5.2).
    pub world: WorldConfig,
    /// Install the fault-tolerance system (FTGM effectiveness runs)?
    pub with_ft: bool,
    /// Traffic warm-up before injection.
    pub warmup: SimDuration,
    /// Observation window after injection.
    pub window: SimDuration,
    /// Message size of the validated traffic.
    pub msg_size: u32,
    /// Sender pipeline depth.
    pub pipeline: u32,
    /// Where bits get flipped.
    pub target: InjectionTarget,
    /// Number of faults injected, spaced by `fault_spacing` (the paper
    /// uses exactly one).
    pub faults_per_run: u32,
    /// Gap between repeated faults.
    pub fault_spacing: SimDuration,
}

impl RunConfig {
    /// The Table 1 baseline: stock GM, 256-byte validated traffic, 10 ms
    /// warm-up, 2.5 s observation (long enough for retry exhaustion to
    /// surface as a send error).
    pub fn table1() -> RunConfig {
        let mut world = WorldConfig::gm();
        // Surface retry exhaustion within the window.
        world.mcp.retry_limit = 25;
        RunConfig {
            world,
            with_ft: false,
            warmup: SimDuration::from_ms(10),
            window: SimDuration::from_ms(1_500),
            msg_size: 256,
            pipeline: 2,
            target: InjectionTarget::SendChunkCode,
            faults_per_run: 1,
            fault_spacing: SimDuration::from_ms(100),
        }
    }

    /// The §5.2 effectiveness setup: FTGM with the FTD installed, a window
    /// long enough to complete a full recovery (< 2 s) plus margin.
    pub fn effectiveness() -> RunConfig {
        RunConfig {
            world: WorldConfig::ftgm(),
            with_ft: true,
            warmup: SimDuration::from_ms(10),
            window: SimDuration::from_ms(4_000),
            msg_size: 256,
            pipeline: 4,
            target: InjectionTarget::SendChunkCode,
            faults_per_run: 1,
            fault_spacing: SimDuration::from_ms(100),
        }
    }
}

/// Everything a completed run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The first flipped bit's offset within the target region.
    pub bit: u64,
    /// Raw observables.
    pub observables: Observables,
    /// The classified outcome.
    pub outcome: Outcome,
    /// FTGM runs: number of completed recoveries.
    pub recoveries: u64,
    /// FTGM runs: whether traffic was fully clean *and* progressing at the
    /// end (the recovery-success criterion).
    pub recovered_clean: bool,
}

/// The sender runs on node 0 (whose `send_chunk` is faulted); the
/// validating receiver on node 1.
const FAULT_NODE: NodeId = NodeId(0);
const PEER_NODE: NodeId = NodeId(1);

/// The SRAM byte range a target names on `node` (the `send_chunk` code
/// range depends on the loaded firmware image, so the world is needed).
pub fn target_range(world: &World, node: NodeId, target: InjectionTarget) -> std::ops::Range<u32> {
    match target {
        InjectionTarget::SendChunkCode => world.nodes[node.0 as usize]
            .mcp
            .firmware()
            .code_range(),
        InjectionTarget::PacketBuffer => {
            ftgm_mcp::layout::PKT_BUF..ftgm_mcp::layout::PKT_BUF + 0x1100
        }
        InjectionTarget::SendRecord => {
            ftgm_mcp::layout::SENDREC..ftgm_mcp::layout::SENDREC + 44
        }
        InjectionTarget::SramRegion { start, len } => start..start + len,
    }
}

/// Flips one uniformly random bit of `target` on `node`, records it in the
/// world trace, and returns the bit's offset within the target region.
pub fn flip_random_bit(
    world: &mut World,
    node: NodeId,
    target: InjectionTarget,
    rng: &mut SimRng,
) -> u64 {
    let range = target_range(world, node, target);
    let bits = (range.end - range.start) as u64 * 8;
    let bit = rng.gen_range(bits.max(1));
    world.nodes[node.0 as usize]
        .mcp
        .chip
        .sram
        .flip_bit(range.start as u64 * 8 + bit);
    let now = world.now();
    world
        .trace
        .emit(now, TraceKind::FaultInjected { node: node.0, bit });
    bit
}

/// Executes one injection run. `seed` selects the bit (and any other
/// randomness); identical seeds replay identical runs.
pub fn run_one(config: &RunConfig, seed: u64) -> RunResult {
    let mut rng = SimRng::new(seed);
    let mut world = World::two_node(config.world.clone());
    let ft = if config.with_ft {
        Some(FtSystem::install(&mut world))
    } else {
        None
    };

    let stats = Rc::new(RefCell::new(TrafficStats::default()));
    world.spawn_app(
        PEER_NODE,
        2,
        Box::new(PatternReceiver::new(
            config.msg_size.max(64),
            16,
            stats.clone(),
        )),
    );
    world.spawn_app(
        FAULT_NODE,
        0,
        Box::new(PatternSender::new(
            PEER_NODE,
            2,
            config.msg_size,
            config.pipeline,
            None,
            stats.clone(),
        )),
    );
    world.run_for(config.warmup);

    // Snapshot pre-fault counters.
    let before = stats.borrow().clone();
    let parse_before = world.nodes[PEER_NODE.0 as usize].mcp.stats().parse_drops;

    // Flip one uniformly random bit of the target region per fault.
    let mut first_bit = 0;
    for f in 0..config.faults_per_run.max(1) {
        let bit = flip_random_bit(&mut world, FAULT_NODE, config.target, &mut rng);
        if f == 0 {
            first_bit = bit;
        }
        if f + 1 < config.faults_per_run {
            world.run_for(config.fault_spacing);
        }
    }
    let bit = first_bit;

    world.run_for(config.window);

    // Collect observables. A healthy run's expected progress is scaled
    // from the warm-up rate.
    let after = stats.borrow().clone();
    let expected_progress = before.received_ok
        * (config.window.as_nanos() / config.warmup.as_nanos().max(1));
    let local = &world.nodes[FAULT_NODE.0 as usize];
    let remote = &world.nodes[PEER_NODE.0 as usize];
    let recoveries = ft.as_ref().map(|f| f.recoveries(FAULT_NODE)).unwrap_or(0);
    let observables = Observables {
        local_host_crashed: local.host.crashed(),
        remote_host_crashed: remote.host.crashed(),
        // Under FTGM a hang may already be healed by observation time; a
        // completed recovery is the evidence it happened.
        local_hung: local.mcp.chip.is_hung() || recoveries > 0,
        remote_hung: remote.mcp.chip.is_hung(),
        delivered_corrupt: after.received_corrupt,
        misordered: after.misordered,
        parse_drops_after: remote.mcp.stats().parse_drops - parse_before,
        send_errors: after.send_errors,
        progress_after: after.received_ok.saturating_sub(before.received_ok),
        expected_progress,
    };
    let outcome = classify(&observables);
    // Recovery success: a recovery ran, the interface is back, traffic
    // resumed and stayed exactly-once.
    let recovered_clean = recoveries > 0
        && !local.mcp.chip.is_hung()
        && observables.progress_after > before.received_ok.max(1) / 10
        && after.clean();
    RunResult {
        bit,
        observables,
        outcome,
        recoveries,
        recovered_clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_result() {
        let config = RunConfig {
            window: SimDuration::from_ms(300),
            ..RunConfig::table1()
        };
        let a = run_one(&config, 7);
        let b = run_one(&config, 7);
        assert_eq!(a.bit, b.bit);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.observables, b.observables);
    }

    #[test]
    fn different_seeds_hit_different_bits() {
        let config = RunConfig {
            window: SimDuration::from_ms(200),
            ..RunConfig::table1()
        };
        let bits: Vec<u64> = (0..4).map(|s| run_one(&config, s).bit).collect();
        let mut unique = bits.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() >= 3, "bits {bits:?}");
    }

    #[test]
    fn outcomes_cover_multiple_categories_quickly() {
        // A handful of seeds should already show both impact and no-impact.
        let config = RunConfig {
            window: SimDuration::from_ms(100),
            ..RunConfig::table1()
        };
        let outcomes: Vec<Outcome> = (0..12).map(|s| run_one(&config, s).outcome).collect();
        let hangs = outcomes
            .iter()
            .filter(|o| **o == Outcome::LocalInterfaceHung)
            .count();
        let nones = outcomes.iter().filter(|o| **o == Outcome::NoImpact).count();
        assert!(hangs > 0, "no hangs in {outcomes:?}");
        assert!(nones > 0, "no clean runs in {outcomes:?}");
    }
}

#[cfg(test)]
mod target_tests {
    use super::*;
    use crate::classify::Outcome;

    #[test]
    fn data_region_faults_are_mostly_transient() {
        // Flips in the send record / packet buffer are overwritten by the
        // next send, so the overwhelming majority are no-impact — in sharp
        // contrast to code-section flips. The overwrite happens within
        // microseconds, so 100 ms (thousands of sends) observes it as
        // well as a longer window does.
        let base = RunConfig {
            window: SimDuration::from_ms(100),
            ..RunConfig::table1()
        };
        for target in [InjectionTarget::SendRecord, InjectionTarget::PacketBuffer] {
            let config = RunConfig { target, ..base.clone() };
            let benign = (0..8)
                .filter(|&s| run_one(&config, s).outcome == Outcome::NoImpact)
                .count();
            assert!(benign >= 7, "{target:?}: only {benign}/8 benign");
        }
    }

    #[test]
    fn repeated_faults_accumulate_damage() {
        // Ten flips in the code section leave almost no run unscathed.
        let config = RunConfig {
            window: SimDuration::from_ms(300),
            faults_per_run: 10,
            fault_spacing: SimDuration::from_ms(5),
            ..RunConfig::table1()
        };
        let impacted = (0..6)
            .filter(|&s| run_one(&config, s).outcome != Outcome::NoImpact)
            .count();
        assert!(impacted >= 5, "only {impacted}/6 impacted");
    }

    #[test]
    fn explicit_region_targets_work() {
        // A region of zeroed scratch SRAM: flips there can never matter.
        let config = RunConfig {
            window: SimDuration::from_ms(200),
            target: InjectionTarget::SramRegion {
                start: 0x6000,
                len: 256,
            },
            ..RunConfig::table1()
        };
        for s in 0..4 {
            assert_eq!(run_one(&config, s).outcome, Outcome::NoImpact);
        }
    }
}
