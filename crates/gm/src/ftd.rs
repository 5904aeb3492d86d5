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
//! Each timed stretch of that sequence ends in one typed step, carried by
//! the world's `Ftd` event kind, so the steps are counted in
//! [`crate::WorldStats::events_by_kind`] and every step is traced: Table 3
//! and Figure 9 fall out of the trace.

// Adding a fault kind, recovery event or FTD step must force a handling
// decision at every match here, not fall into a default arm.
#![deny(clippy::wildcard_enum_match_arm)]

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use ftgm_host::Pid;
use ftgm_lanai::chip::isr;
use ftgm_lanai::timers::TimerId;
use ftgm_mcp::layout;
use ftgm_net::NodeId;
use ftgm_sim::{RecoveryPhase, SimDuration, SimTime, TraceKind};

use crate::{recovery, World};

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

/// Per-node FTD bookkeeping.
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
    /// The interface was declared dead (attempts exhausted, or isolated).
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

/// One step of the daemon's fixed sequence (or of a port's
/// `FAULT_DETECTED` handler), scheduled where the step before it ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FtdStep {
    /// The woken daemon runs and writes the magic-word probe.
    Run,
    /// The probe wait is over: false alarm, or a confirmed hang.
    ProbeDone,
    /// One timed reset/restore phase completes, having charged `dur`.
    Phase { phase: RecoveryPhase, dur: SimDuration },
    /// The phases are done: boot the reloaded MCP and probe it.
    Boot,
    /// The post-reload probe wait is over: finish, or the attempt failed.
    VerifyDone,
    /// A failed attempt's backoff is over: reload again.
    Retry,
    /// A port's per-process recovery ([`recovery`]), started under
    /// recovery generation `epoch`, ends in its reopen.
    ReopenPort { port: u8, epoch: u64 },
}

/// The installed daemons: per-node state, shared with the handle that
/// reads it, and their policy.
#[derive(Clone)]
pub(crate) struct Ftd {
    states: Rc<RefCell<Vec<FtdState>>>,
    policy: RetryPolicy,
}

impl Ftd {
    pub(crate) fn state(&self, n: usize) -> RefMut<'_, FtdState> {
        RefMut::map(self.states.borrow_mut(), |s| &mut s[n])
    }
}

/// Spawns one sleeping daemon per node of `world`, which the driver's FATAL
/// path then wakes; returns the per-node state for a handle to read.
pub fn install(world: &mut World, policy: RetryPolicy) -> Rc<RefCell<Vec<FtdState>>> {
    let states: Vec<FtdState> = world
        .nodes
        .iter_mut()
        .map(|node| {
            let pid = node.host.procs.spawn("ftd");
            node.host.procs.sleep(pid);
            FtdState::new(pid)
        })
        .collect();
    let states = Rc::new(RefCell::new(states));
    world.ftd = Some(Ftd { states: states.clone(), policy });
    states
}

/// The driver's FATAL path: wake the daemon. A FATAL while a recovery is
/// already running is not dropped: it queues a re-verification the daemon
/// performs before going back to sleep.
pub(crate) fn on_fatal(world: &mut World, node: NodeId) {
    let Some(ftd) = world.ftd.clone() else {
        return;
    };
    let n = node.0 as usize;
    let now = world.now();
    let mut st = ftd.state(n);
    if st.dead {
        world.trace.emit(now, TraceKind::FtdFatalIgnoredDead { node: node.0 });
        return;
    }
    if st.busy {
        st.pending_reverify = true;
        world.trace.emit(now, TraceKind::FtdReverifyQueued { node: node.0 });
        return;
    }
    st.busy = true;
    st.detected_at = Some(now);
    // A hang long after the previous recovery is a fresh episode; one
    // inside the re-hang window continues the previous one (its attempt
    // budget carries over).
    let window = ftd.policy.rehang_window;
    if st.last_recovery_end.is_none_or(|end| now.saturating_since(end) > window) {
        st.attempts = 0;
    }
    world.nodes[n].host.procs.wake(st.pid);
    world.trace.emit(now, TraceKind::FtdWoken { node: node.0 });
    world.schedule_ftd(FTD_WAKE_LATENCY, node, FtdStep::Run);
}

/// Runs one scheduled step on `node`; returns the node and the phase when
/// a recovery phase completed. Every step stands down once the node is
/// dead: its escalation (maybe the zone coordinator's, while this chain
/// was queued) ended the episode, and nothing may re-enable or reload it.
pub(crate) fn step(
    world: &mut World,
    node: NodeId,
    step: FtdStep,
) -> Option<(NodeId, RecoveryPhase)> {
    let ftd = world.ftd.clone()?;
    if ftd.state(node.0 as usize).dead {
        return None;
    }
    match step {
        FtdStep::Run => run(world, node),
        FtdStep::ProbeDone => probe_done(world, &ftd, node),
        FtdStep::Phase { phase, dur } => {
            apply_phase(world, node, phase);
            let now = world.now();
            world.trace.emit(
                now,
                TraceKind::RecoveryPhaseDone { node: node.0, phase, dur },
            );
            return Some((node, phase));
        }
        FtdStep::Boot => boot(world, node),
        FtdStep::VerifyDone => {
            if probe_confirms_hang(world, node) {
                attempt_failed(world, &ftd, node);
            } else {
                finish(world, &ftd, node);
            }
        }
        FtdStep::Retry => attempt(world, &ftd, node),
        FtdStep::ReopenPort { port, epoch } => {
            recovery::reopen_port(world, &ftd, node, port, epoch);
        }
    }
    None
}

/// The daemon body: write the probe and check it after the wait.
fn run(world: &mut World, node: NodeId) {
    let now = world.now();
    world.trace.emit(now, TraceKind::FtdRunning { node: node.0 });
    let wait = run_ftd_probe(world, node);
    world.schedule_ftd(wait, node, FtdStep::ProbeDone);
}

/// A surviving probe confirms the hang and starts an attempt. A cleared
/// one is a false alarm: acknowledge the interrupt, re-arm the watchdog,
/// and re-probe if another FATAL queued meanwhile.
fn probe_done(world: &mut World, ftd: &Ftd, node: NodeId) {
    let n = node.0 as usize;
    let now = world.now();
    if probe_confirms_hang(world, node) {
        world
            .trace
            .emit(now, TraceKind::ProbeConfirmedHang { node: node.0 });
        attempt(world, ftd, node);
        return;
    }
    world.trace.emit(now, TraceKind::ProbeFalseAlarm { node: node.0 });
    let ticks = world.config().mcp.watchdog_ticks;
    world.nodes[n].mcp.chip.clear_isr(isr::IT1);
    world.nodes[n].mcp.chip.arm_timer(TimerId::It1, now, ticks);
    world
        .trace
        .emit(now, TraceKind::WatchdogArmed { node: node.0, ticks });
    world.sync_node(n);
    ftd.state(n).false_alarms += 1;
    requeue_or_sleep(world, ftd, node);
}

/// One reset/reload attempt: the six timed phases, then boot. The
/// post-reload verification probe decides success or retry.
fn attempt(world: &mut World, ftd: &Ftd, node: NodeId) {
    let attempt = {
        let mut st = ftd.state(node.0 as usize);
        st.epoch += 1;
        st.attempts += 1;
        // The reload about to run supersedes any queued re-verification.
        st.pending_reverify = false;
        st.attempts
    };
    let now = world.now();
    world.trace.emit(
        now,
        TraceKind::RecoveryAttempt {
            node: node.0,
            attempt,
            max_attempts: ftd.policy.max_attempts,
        },
    );
    let mut cumulative = SimDuration::ZERO;
    for phase in RecoveryPhase::ORDER {
        let dur = phase_duration(world, node, phase);
        cumulative += dur;
        world.schedule_ftd(cumulative, node, FtdStep::Phase { phase, dur });
    }
    world.schedule_ftd(cumulative, node, FtdStep::Boot);
}

/// Boots the reloaded MCP (timers armed, watchdog re-armed), then writes
/// the magic word again: success requires `L_timer()` to clear it.
fn boot(world: &mut World, node: NodeId) {
    let n = node.0 as usize;
    let now = world.now();
    world.nodes[n].mcp.boot(now);
    let ticks = world.config().mcp.watchdog_ticks;
    world
        .trace
        .emit(now, TraceKind::WatchdogArmed { node: node.0, ticks });
    world.sync_node(n);
    world.trace.emit(now, TraceKind::ReloadVerifying { node: node.0 });
    let wait = run_ftd_probe(world, node);
    world.schedule_ftd(wait, node, FtdStep::VerifyDone);
}

/// Post-reload verification passed: post `FAULT_DETECTED` into every
/// open port, then either honor a queued re-verification or sleep.
fn finish(world: &mut World, ftd: &Ftd, node: NodeId) {
    let n = node.0 as usize;
    let now = world.now();
    world.trace.emit(now, TraceKind::ReloadVerified { node: node.0 });
    for port in 0..8u8 {
        if world.nodes[n].ports[port as usize].is_some() {
            world.post_fault_detected(node, port);
            world
                .trace
                .emit(now, TraceKind::FaultDetectedPosted { node: node.0, port });
        }
    }
    {
        let mut st = ftd.state(n);
        st.recoveries += 1;
        st.last_recovery_end = Some(now);
    }
    if requeue_or_sleep(world, ftd, node) {
        world.trace.emit(now, TraceKind::FtdSleeping { node: node.0 });
    }
}

/// The end of a daemon pass: a FATAL that arrived meanwhile is probed
/// once more (false alarm vs. a fresh confirmed hang); otherwise the
/// daemon sleeps. Returns `true` if it slept.
fn requeue_or_sleep(world: &mut World, ftd: &Ftd, node: NodeId) -> bool {
    let n = node.0 as usize;
    let mut st = ftd.state(n);
    if st.pending_reverify {
        st.pending_reverify = false;
        drop(st);
        let now = world.now();
        world.trace.emit(now, TraceKind::ProbeRequeued { node: node.0 });
        run(world, node);
        return false;
    }
    st.busy = false;
    world.nodes[n].host.procs.sleep(st.pid);
    true
}

/// Post-reload verification failed: retry with exponential backoff, or
/// escalate once the attempt budget is exhausted.
fn attempt_failed(world: &mut World, ftd: &Ftd, node: NodeId) {
    let attempts = {
        let mut st = ftd.state(node.0 as usize);
        st.failed_attempts += 1;
        st.attempts
    };
    if attempts >= ftd.policy.max_attempts {
        escalate(world, node);
        return;
    }
    let backoff = ftd.policy.backoff_after(attempts);
    let now = world.now();
    world.trace.emit(
        now,
        TraceKind::RetryScheduled { node: node.0, attempt: attempts, backoff },
    );
    world.schedule_ftd(backoff, node, FtdStep::Retry);
}

/// The terminal transition, on retry exhaustion or the zone coordinator's
/// reachability verdict: mask interrupts, fail every outstanding send back
/// to its application instead of leaving it hung, mark the interface dead
/// and put the daemon to sleep. Idempotent: a dead node is left alone.
pub fn escalate(world: &mut World, node: NodeId) {
    let Some(ftd) = world.ftd.clone() else {
        return;
    };
    let n = node.0 as usize;
    let mut st = ftd.state(n);
    if st.dead {
        return;
    }
    let now = world.now();
    world
        .trace
        .emit(now, TraceKind::Escalated { node: node.0, attempts: st.attempts });
    world.nodes[n].host.driver.set_interrupts_enabled(false);
    let failed = world.fail_outstanding_sends(node);
    world.trace.emit(
        now,
        TraceKind::OutstandingSendsFailed { node: node.0, count: failed as u64 },
    );
    st.dead = true;
    st.busy = false;
    st.pending_reverify = false;
    st.escalations += 1;
    world.nodes[n].host.procs.sleep(st.pid);
}

/// Writes the magic-word probe into `node`'s SRAM and returns how long the
/// daemon waits before reading it back ([`probe_confirms_hang`]).
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
            world.nodes[n].dma_in_flight = None;
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
