//! The **Fault Tolerance Daemon** (FTD) and the driver-side FATAL path.
//!
//! §4.3: the IT1 watchdog expiry raises a FATAL interrupt. Recovery needs
//! `sleep()`/`malloc()`-class work an interrupt handler cannot do, so the
//! handler merely *wakes a daemon*. The FTD then:
//!
//! 1. verifies the hang with the **magic-word probe** (writes a magic value
//!    the live MCP's `L_timer()` would clear; if it survives the wait, the
//!    interface is hung — a false alarm re-arms the watchdog and goes back
//!    to sleep),
//! 2. disables interrupts, unmaps I/O, **resets** the card,
//! 3. clears SRAM and **reloads the MCP** (the nominal-image EBUS write —
//!    the ~500 ms that dominates Table 3's FTD row),
//! 4. restarts the DMA engine and re-enables interrupts,
//! 5. re-registers the host-resident **page hash table**,
//! 6. restores the **mapping and routing tables**,
//! 7. posts a **`FAULT_DETECTED`** event into every open port's receive
//!    queue, then rewinds and stands guard for the next fault.
//!
//! Every step is traced, so Table 3 and Figure 9 fall out of the trace.

use ftgm_gm::World;
use ftgm_host::Pid;
use ftgm_mcp::layout;
use ftgm_net::NodeId;
use ftgm_sim::{RecoveryPhase, SimDuration, SimTime, TraceKind};

/// The magic value the FTD writes for its liveness probe.
pub const MAGIC_VALUE: u32 = 0x0F7D_600D;

/// Retry/escalation policy of the hardened FTD.
///
/// A recovery whose post-reload verification fails — or an interface that
/// hangs again within [`RetryPolicy::rehang_window`] of the previous
/// recovery — counts as another attempt of the *same* episode. Attempts
/// back off exponentially; when [`RetryPolicy::max_attempts`] reloads all
/// fail to produce a live MCP, the FTD gives up and escalates the
/// interface to dead (outstanding sends fail back to applications instead
/// of hanging them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reload attempts per episode before escalating to `InterfaceDead`.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff: SimDuration,
    /// A hang this soon after a completed recovery continues the previous
    /// episode (the reloaded MCP was not actually healthy).
    pub rehang_window: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_ms(50),
            rehang_window: SimDuration::from_ms(500),
        }
    }
}

impl RetryPolicy {
    /// Backoff to wait after `attempt` (1-based) failed: `base * 2^(a-1)`,
    /// capped so the shift cannot overflow.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(16);
        SimDuration::from_nanos(self.base_backoff.as_nanos().saturating_mul(1u64 << shift))
    }
}

/// Per-node FTD bookkeeping (lives alongside the world).
#[derive(Clone, Debug)]
pub struct FtdState {
    /// The daemon's process id on its host.
    pub pid: Pid,
    /// `true` while a recovery is in progress (repeat FATALs queue a
    /// re-verification instead of starting a second daemon pass).
    pub busy: bool,
    /// Completed recoveries.
    pub recoveries: u64,
    /// FATALs that turned out to be false alarms.
    pub false_alarms: u64,
    /// When the current fault was detected (FTD woken).
    pub detected_at: Option<SimTime>,
    /// Recovery generation: bumped at every confirmed hang. A per-port
    /// handler from an older generation must not touch state a newer
    /// recovery owns.
    pub epoch: u64,
    /// A FATAL arrived while `busy`: re-probe before going back to sleep.
    pub pending_reverify: bool,
    /// Reload attempts in the current episode (reset when a hang arrives
    /// outside the re-hang window of the last completed recovery).
    pub attempts: u32,
    /// Reloads whose post-reload verification failed (lifetime total).
    pub failed_attempts: u64,
    /// Episodes that ended in escalation (lifetime total).
    pub escalations: u64,
    /// The interface was declared dead after `max_attempts` failed reloads.
    pub dead: bool,
    /// When the last successful recovery completed.
    pub last_recovery_end: Option<SimTime>,
}

impl FtdState {
    /// Creates the state for a daemon running as `pid`.
    pub fn new(pid: Pid) -> FtdState {
        FtdState {
            pid,
            busy: false,
            recoveries: 0,
            false_alarms: 0,
            detected_at: None,
            epoch: 0,
            pending_reverify: false,
            attempts: 0,
            failed_attempts: 0,
            escalations: 0,
            dead: false,
            last_recovery_end: None,
        }
    }
}

/// Scheduling latency between the driver's `wake_up` and the daemon
/// actually running (a context switch).
pub const FTD_WAKE_LATENCY: SimDuration = SimDuration::from_us(30);

/// The FTD main routine, resumed after the wake latency. Returns the
/// sequence of timed steps as `(delay-so-far, action)` closures scheduled
/// onto the world.
///
/// The caller (the `install` glue in `lib.rs`) owns the [`FtdState`]
/// because hooks cannot borrow it mutably across steps; state transitions
/// are applied through the returned events.
pub fn run_ftd_probe(world: &mut World, node: NodeId) -> SimDuration {
    let n = node.0 as usize;
    let now = world.now();
    // Magic-word probe: write the magic; a live MCP clears it in L_timer().
    // The probe address is a layout constant, but the recovery path must
    // not panic: a failed write leaves SRAM untouched and the follow-up
    // read treats the unreadable card as hung.
    let wrote = world.nodes[n]
        .mcp
        .chip
        .sram
        .write_u32(layout::MAGIC_WORD, MAGIC_VALUE)
        .is_ok();
    world
        .trace
        .emit(now, TraceKind::ProbeWritten { node: node.0, ok: wrote });
    world.nodes[n].host.driver.params().magic_probe_wait
}

/// Checks the probe outcome: `true` if the interface is really hung.
///
/// An unreadable probe word counts as a confirmed hang: if the FTD cannot
/// even read SRAM, resetting the card is the safe direction.
pub fn probe_confirms_hang(world: &World, node: NodeId) -> bool {
    let n = node.0 as usize;
    world.nodes[n]
        .mcp
        .chip
        .sram
        .read_u32(layout::MAGIC_WORD)
        .map(|v| v == MAGIC_VALUE)
        .unwrap_or(true)
}

/// The duration of `phase` on `world`/`node`.
pub fn phase_duration(world: &World, node: NodeId, phase: RecoveryPhase) -> SimDuration {
    let d = &world.nodes[node.0 as usize].host.driver;
    let p = *d.params();
    match phase {
        RecoveryPhase::Reset => p.reset_settle,
        RecoveryPhase::ClearSram => p.sram_clear,
        RecoveryPhase::ReloadMcp => d.mcp_load_time(),
        RecoveryPhase::RestartEngines => SimDuration::from_us(200),
        RecoveryPhase::RestorePageTable => p.page_table_restore,
        RecoveryPhase::RestoreRoutes => p.route_table_restore,
    }
}

/// Executes the state change of `phase` (timing handled by the caller).
pub fn apply_phase(world: &mut World, node: NodeId, phase: RecoveryPhase) {
    let n = node.0 as usize;
    match phase {
        RecoveryPhase::Reset => {
            world.nodes[n].host.driver.set_interrupts_enabled(false);
            world.abort_host_dma(node);
            // The chip reset itself happens with the reload below; the
            // settle time is what this phase charges.
        }
        RecoveryPhase::ClearSram => {
            // Folded into reset_and_reload (clear + reload must be
            // atomic against the simulation's view).
        }
        RecoveryPhase::ReloadMcp => {
            let image = world.nodes[n].host.driver.mcp_image().to_vec();
            world.nodes[n].mcp.reset_and_reload(&image);
        }
        RecoveryPhase::RestartEngines => {
            world.nodes[n].host.driver.set_interrupts_enabled(true);
        }
        RecoveryPhase::RestorePageTable => {
            // The table lives in host memory ([`ftgm_host::PageHashTable`]);
            // the MCP caches entries on demand, so re-registering is a
            // notification, not a data copy.
        }
        RecoveryPhase::RestoreRoutes => {
            let routes = world.nodes[n].route_backup.clone();
            world.nodes[n].mcp.set_routes(routes);
        }
    }
}
