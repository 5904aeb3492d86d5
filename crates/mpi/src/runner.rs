//! Rank programs, operations, and the execution runtime.
//!
//! An MPI process is modelled as a *sequential stream of operations*: the
//! middleware asks the [`RankProgram`] for its next [`Op`], runs that
//! operation's protocol over GM (point-to-point tag matching, collective
//! schedules, or one-sided RMA), and hands the [`OpResult`] back. SPMD
//! programs therefore look like a straight-line list of sends, receives,
//! barriers and reductions — and, as on the paper's testbed, they have no
//! idea whether the interface below them failed and recovered.
//!
//! On top of that baseline this runtime implements the GASPI-style
//! failure contract when a [`RecoveryConfig`] is installed:
//!
//! * every blocking operation carries a **timeout**: a rank blocked past
//!   the deadline posts a suspicion against the peer it waits on, and a
//!   declared death surfaces as a typed [`OpResult::Fault`] instead of a
//!   hang or an abort,
//! * [`Op::Checkpoint`] captures opaque program state onto a buddy rank's
//!   in-memory [`ReplicaStore`],
//! * after a death the job restarts under the configured
//!   [`RestartPolicy`]: **notify** (programs decide), **shrink**
//!   (collectives re-plan over the dense survivor index in a new epoch),
//!   or **spare** (the dead rank respawns on a hot-spare port from its
//!   last checkpoint while survivors *replay* their logged collectives so
//!   the restored rank re-receives everything it needs).
//!
//! ### Instance numbering
//!
//! Every collective or checkpoint a program issues gets a monotonically
//! increasing *instance number*; collective wire tags embed it, so
//! message streams from different operations can never cross-match.
//! Point-to-point and RMA ops ride outside the sequence (they match by
//! user tag or request id, not instance). Tag matching and replay rely
//! on the MPI ordering contract: every rank issues its collectives and
//! checkpoints in the same order, so instance *i* is the same logical
//! operation everywhere — even when ranks interleave different numbers
//! of point-to-point ops between them. Shrink/notify transitions re-align
//! the job by starting each new epoch's instances at `epoch << 32` and
//! purging buffered protocol traffic from older prefixes. Spare
//! transitions deliberately do *not* re-number: survivors replay the
//! original instances and duplicate envelopes are inert (same tag, same
//! deterministic contents, consumed at most once).
//!
//! Replay is exactly-once for collectives and checkpoints (they are
//! logged); point-to-point sends and RMA data ops are not replayed, so
//! under a spare restart they keep at-most-once semantics — the same
//! contract real GASPI gives unmanaged point-to-point traffic.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use ftgm_gm::{App, Ctx, GmEvent, World};
use ftgm_sim::{Metrics, SimDuration, SimTime, TraceKind};

use crate::collectives::{
    barrier_schedule, broadcast_plan, grid_dims, halo_neighbor, halo_opposite, rd_plan, ring_plan,
};
use crate::mailbox::{Envelope, Mailbox, Pattern, TAG_USER_MAX};
use crate::recovery::{
    FaultKind, Membership, RankFault, RankSpec, ReplicaStore, RestartPolicy, SuspectBoard,
};
use crate::rma::{OriginCounters, RmaMsg, WindowStore, TAG_RMA};

/// A rank's sequential program.
pub trait RankProgram: 'static {
    /// Returns the next operation, given the result of the previous one
    /// (`None` on the first call). Returning `None` finishes the rank.
    fn next_op(&mut self, rank: u32, nranks: u32, last: Option<OpResult>) -> Option<Op>;

    /// Called once, before the first `next_op`, when this program is a
    /// spare-restart reincarnation: `state` is the bytes the dead rank
    /// captured with its last [`Op::Checkpoint`] (empty if it never
    /// checkpointed). The program must rewind itself to that position
    /// and **re-issue that same `Checkpoint` as its first operation** —
    /// replay restarts at the checkpoint instance, with survivors
    /// re-running it so the barrier re-forms around the restored rank.
    fn on_restore(&mut self, _state: &[u8]) {}
}

/// The operations a rank program can issue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Eager point-to-point send.
    Send {
        /// Destination rank.
        to: u32,
        /// Match tag (must be below [`TAG_USER_MAX`]).
        tag: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Blocking receive by `(source, tag)`.
    Recv {
        /// Required source, or any.
        from: Option<u32>,
        /// Match tag.
        tag: u64,
    },
    /// Dissemination barrier across the communicator.
    Barrier,
    /// Binomial-tree broadcast; the root supplies `data`.
    Broadcast {
        /// The broadcasting rank.
        root: u32,
        /// Payload (root only; ignored elsewhere).
        data: Option<Vec<u8>>,
    },
    /// Ring all-reduce: element-wise wrapping sum of `u64` vectors.
    AllReduceSum {
        /// This rank's contribution.
        values: Vec<u64>,
    },
    /// Recursive-doubling all-reduce; same reduction, ⌈log₂ n⌉ depth.
    AllReduceSumRd {
        /// This rank's contribution.
        values: Vec<u64>,
    },
    /// 2-D halo exchange with the four torus grid neighbors.
    HaloExchange {
        /// Boundary payloads, indexed by direction
        /// ([`crate::collectives::HALO_UP`] …).
        sends: [Vec<u8>; 4],
    },
    /// Capture `state` onto the buddy rank's in-memory replica store;
    /// completes when the buddy acknowledges.
    Checkpoint {
        /// Opaque program state (what [`RankProgram::on_restore`] gets).
        state: Vec<u8>,
    },
    /// Expose one-sided window `win` on this rank.
    WinCreate {
        /// Window id (scoped to the owner rank).
        win: u32,
    },
    /// One-sided write into `(owner, win)`.
    Put {
        /// Window owner rank.
        owner: u32,
        /// Window id.
        win: u32,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// One-sided read from `(owner, win)`.
    Get {
        /// Window owner rank.
        owner: u32,
        /// Window id.
        win: u32,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
    },
    /// One-sided element-wise wrapping add of `u64` slots.
    Accumulate {
        /// Window owner rank.
        owner: u32,
        /// Window id.
        win: u32,
        /// Byte offset (little-endian `u64` slots).
        offset: u64,
        /// Addends.
        values: Vec<u64>,
    },
    /// Wait until every window this origin wrote has applied all its ops
    /// (at the primary and the replica, whichever copies are alive).
    Flush,
}

/// What an operation produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The send was posted.
    Sent,
    /// A message arrived.
    Received {
        /// Sender rank.
        from: u32,
        /// Payload.
        data: Vec<u8>,
    },
    /// All ranks passed the barrier.
    BarrierDone,
    /// The broadcast payload.
    Broadcast {
        /// The (root's) data.
        data: Vec<u8>,
    },
    /// The reduced vector (ring or recursive doubling).
    AllReduceSum {
        /// Element-wise totals.
        values: Vec<u64>,
    },
    /// The halo payloads that arrived, indexed by the direction they
    /// came from.
    HaloDone {
        /// `recv[d]` is the payload from the neighbor in direction `d`.
        recv: [Vec<u8>; 4],
    },
    /// The checkpoint is replicated; `seqno` names it for restart.
    CheckpointDone {
        /// The checkpoint's instance number.
        seqno: u64,
    },
    /// The window exists.
    WinCreated {
        /// Window id.
        win: u32,
    },
    /// The put was issued to every live copy.
    PutDone,
    /// The window bytes (zero-filled past the written extent).
    GetDone {
        /// Bytes read.
        data: Vec<u8>,
    },
    /// The accumulate was issued to every live copy.
    AccumulateDone,
    /// Every live copy acknowledged this origin's writes.
    FlushDone,
    /// A rank died; this op was aborted (GASPI: a typed notification
    /// instead of a hang).
    Fault(RankFault),
}

// ---------------------------------------------------------------------------
// Reserved tag space.
// ---------------------------------------------------------------------------

/// Tag bit marking collective protocol traffic.
pub const TAG_COLL: u64 = 1 << 63;
/// Tag bit marking checkpoint store/ack traffic.
pub const TAG_CKPT: u64 = 1 << 61;
/// Width of the instance field embedded in protocol tags.
pub const INSTANCE_MASK: u64 = (1 << 42) - 1;

const KIND_BARRIER: u64 = 1;
const KIND_BCAST: u64 = 2;
const KIND_AR_RING: u64 = 3;
const KIND_AR_RD: u64 = 4;
const KIND_HALO: u64 = 5;
const KIND_CKPT_BAR: u64 = 6;

/// Recursive doubling: a folder's pre-round contribution to its host.
const ROUND_FOLD_IN: u64 = 0xFFFE;
/// Recursive doubling: the host's post-round result to its folder.
const ROUND_FOLD_OUT: u64 = 0xFFFF;

/// Alarm tag reserved for the runtime's poll tick.
const ALARM_POLL: u64 = 0x4654_504C; // "FTPL"

/// Instance sentinel for ops outside the collective sequence (p2p, RMA):
/// they are never logged, replayed, or muted.
const NO_INSTANCE: u64 = u64::MAX;

fn coll_tag(kind: u64, instance: u64, round: u64) -> u64 {
    TAG_COLL | (kind << 58) | ((instance & INSTANCE_MASK) << 16) | (round & 0xFFFF)
}

fn ckpt_tag(instance: u64, ack: bool) -> u64 {
    TAG_CKPT | ((instance & INSTANCE_MASK) << 16) | u64::from(ack)
}

/// The epoch prefix of a protocol tag's embedded instance.
fn tag_epoch_prefix(tag: u64) -> u64 {
    ((tag >> 16) & INSTANCE_MASK) >> 32
}

/// `true` for collective or checkpoint tags (the epoch-prefixed space).
fn is_protocol_tag(tag: u64) -> bool {
    tag & (TAG_COLL | TAG_CKPT) != 0
}

// ---------------------------------------------------------------------------
// Shared state and configuration.
// ---------------------------------------------------------------------------

/// Failure-semantics knobs. Installed on the harness before spawning;
/// absent means the pre-fault-tolerant behavior (hangs hang, escalations
/// count as fatal errors).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// What to do when a rank is declared dead.
    pub policy: RestartPolicy,
    /// How long an operation may block before its runtime suspects the
    /// peer it waits on. Must exceed FTGM's transparent recovery time
    /// (~1.7 s) or recoveries get reported as deaths.
    pub op_timeout: SimDuration,
    /// How long a suspicion must persist (without progress) to ripen
    /// into an `OpTimeout` death. `InterfaceDead` confirmations ripen
    /// immediately.
    pub grace: SimDuration,
    /// Runtime poll-tick period (timeout checks, epoch rebinds).
    pub poll: SimDuration,
    /// Harness controller tick period (death declaration, respawn).
    pub controller: SimDuration,
}

impl RecoveryConfig {
    /// Defaults tuned to FTGM's measured ~1.7 s transparent recovery.
    pub fn with_policy(policy: RestartPolicy) -> RecoveryConfig {
        RecoveryConfig {
            policy,
            op_timeout: SimDuration::from_ms(2500),
            grace: SimDuration::from_ms(400),
            poll: SimDuration::from_ms(50),
            controller: SimDuration::from_ms(100),
        }
    }
}

/// State shared by every rank runtime and the harness controller: the
/// membership view, the failure-detection board, the checkpoint replica
/// store, and the middleware metrics registry.
pub struct MpiShared {
    /// Communicator membership (epoch, liveness, placement, spares).
    pub membership: RefCell<Membership>,
    /// Suspicions posted by runtimes, read by the controller.
    pub board: RefCell<SuspectBoard>,
    /// Checkpoint replicas (management plane: survives NIC death).
    pub replicas: RefCell<ReplicaStore>,
    /// Middleware metrics (mailbox depth histogram etc.).
    pub metrics: RefCell<Metrics>,
    /// Failure semantics; `None` = pre-fault-tolerant baseline.
    pub recovery: RefCell<Option<RecoveryConfig>>,
    /// Set by the harness when the job is finished; stops poll alarms.
    pub halt: Cell<bool>,
}

impl MpiShared {
    /// Fresh shared state over an epoch-0 membership.
    pub fn new(specs: Vec<RankSpec>, spares: Vec<RankSpec>) -> Rc<MpiShared> {
        Rc::new(MpiShared {
            membership: RefCell::new(Membership::fresh(specs, spares)),
            board: RefCell::new(SuspectBoard::default()),
            replicas: RefCell::new(ReplicaStore::default()),
            metrics: RefCell::new(Metrics::default()),
            recovery: RefCell::new(None),
            halt: Cell::new(false),
        })
    }

    fn config(&self) -> Option<RecoveryConfig> {
        *self.recovery.borrow()
    }
}

/// Shared observation point for a harness's ranks.
#[derive(Debug, Default)]
pub struct HarnessState {
    /// `(rank, finish time)` of every completed program.
    pub finished: Vec<(u32, SimTime)>,
    /// GM send errors / escalations surfaced with no recovery configured
    /// (MPI would abort).
    pub fatal_errors: u64,
    /// GM send errors absorbed by the recovery layer.
    pub gm_send_errors: u64,
    /// Typed `OpResult::Fault`s delivered to programs.
    pub faults_delivered: u64,
    /// Spare respawns performed by the controller.
    pub respawns: u64,
    /// Logged operations re-executed by survivors for a spare restart.
    pub replayed_instances: u64,
    /// Checkpoints stored on buddy ranks.
    pub checkpoints_stored: u64,
}

// ---------------------------------------------------------------------------
// Execution state.
// ---------------------------------------------------------------------------

/// A collective's communicator snapshot: `members[dense] = actual rank`.
/// Under the shrink policy past epoch 0 this is the dense survivor index;
/// otherwise it is the identity over the full job.
#[derive(Clone, Debug)]
struct Comm {
    me: u32,
    members: Vec<u32>,
}

impl Comm {
    fn n(&self) -> u32 {
        self.members.len() as u32
    }

    /// Dense index → actual rank (`u32::MAX`, which no spec resolves,
    /// when out of range — the post path drops it).
    fn actual(&self, dense: u32) -> u32 {
        self.members.get(dense as usize).copied().unwrap_or(u32::MAX)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ArStage {
    Lap1,
    Lap2,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RdPhase {
    /// Host: waiting for its folder's pre-round contribution.
    FoldIn,
    /// Core: waiting for the current round's partner.
    Round,
    /// Folder: waiting for the host's finished result.
    FoldOut,
}

enum CollState {
    Barrier {
        schedule: Vec<(u32, u32)>,
        round: usize,
    },
    Bcast {
        recv_from: u32,
        send_to: Vec<u32>,
    },
    ArRing {
        values: Vec<u64>,
        stage: ArStage,
    },
    ArRd {
        acc: Vec<u64>,
        k: usize,
        phase: RdPhase,
    },
    Halo {
        cols: u32,
        rows: u32,
        got: [Option<Vec<u8>>; 4],
    },
    Ckpt {
        state: Vec<u8>,
        stage: CkptStage,
    },
}

/// Checkpoint protocol stage. The barrier runs FIRST: a stored replica
/// at seqno `c` therefore proves every rank entered checkpoint `c`
/// (completed all instances below it and consumed their inputs), which
/// is what makes `c` a consistent spare-restart cut.
enum CkptStage {
    Barrier { schedule: Vec<(u32, u32)>, round: usize },
    Store { buddy: u32 },
}

enum RmaPending {
    Get {
        owner: u32,
        win: u32,
        offset: u64,
        len: u64,
        req: u64,
        target: u32,
    },
    Flush {
        /// req → holder rank still owing an ack.
        awaiting: BTreeMap<u64, u32>,
    },
}

enum Executing {
    Idle,
    Recv {
        instance: u64,
        pattern: Pattern,
    },
    Coll {
        instance: u64,
        comm: Comm,
        st: CollState,
    },
    Rma {
        instance: u64,
        pending: RmaPending,
    },
}

fn loggable(op: &Op) -> bool {
    matches!(
        op,
        Op::Barrier
            | Op::Broadcast { .. }
            | Op::AllReduceSum { .. }
            | Op::AllReduceSumRd { .. }
            | Op::HaloExchange { .. }
            | Op::Checkpoint { .. }
    )
}

fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_u64s(data: &[u8]) -> Vec<u64> {
    data.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
        .collect()
}

fn add_into(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other.iter()) {
        *a = a.wrapping_add(*b);
    }
}

/// The GM application that runs one rank.
pub struct MpiRankApp {
    rank: u32,
    me: RankSpec,
    shared: Rc<MpiShared>,
    program: Box<dyn RankProgram>,
    restore: Option<Vec<u8>>,
    mailbox: Mailbox,
    executing: Executing,
    pending_results: VecDeque<OpResult>,
    /// Sends waiting for a token: `(dst rank, tag, payload)`. Destination
    /// specs resolve at drain time so queued traffic follows a spare
    /// remap.
    outbox: VecDeque<(u32, u64, Vec<u8>)>,
    next_instance: u64,
    /// Instance → op, for spare-restart replay (collectives and
    /// checkpoints only; pruned at each completed checkpoint).
    log: BTreeMap<u64, Op>,
    /// Instances still to re-execute after a spare restart.
    replaying: VecDeque<u64>,
    /// Results of instances below this are replay catch-up and are not
    /// re-delivered to the program.
    mute_below: u64,
    /// Most recently completed checkpoint instance. A peer's replica can
    /// lag at most one checkpoint behind the newest completed one, so
    /// the log is pruned only up to the *previous* completed checkpoint.
    last_ckpt: Option<u64>,
    cached_epoch: u32,
    faults_seen: usize,
    blocked_since: SimTime,
    suspected: Vec<u32>,
    req_counter: u64,
    windows: WindowStore,
    counters: OriginCounters,
    /// Flush requests from origins whose ops have not all applied yet:
    /// `(origin, owner, win, sent_count, req)`.
    flush_backlog: Vec<(u32, u32, u32, u64, u64)>,
    buf_size: u32,
    done: bool,
    halted: bool,
    state: Rc<RefCell<HarnessState>>,
}

impl MpiRankApp {
    fn recovery(&self) -> Option<RecoveryConfig> {
        self.shared.config()
    }

    fn nranks_full(&self) -> u32 {
        self.shared.membership.borrow().specs.len() as u32
    }

    /// What the program sees as the communicator size: the dense survivor
    /// count once a shrink epoch is in force, the full job otherwise.
    fn program_nranks(&self) -> u32 {
        let m = self.shared.membership.borrow();
        if self.recovery().map(|c| c.policy) == Some(RestartPolicy::Shrink) && m.epoch > 0 {
            m.live_count()
        } else {
            m.specs.len() as u32
        }
    }

    /// The static replica holder for windows owned by `owner`: its ring
    /// successor in the *initial* job (fixed at window creation).
    fn replica_holder(&self, owner: u32) -> u32 {
        let n = self.nranks_full();
        if n <= 1 { owner } else { (owner + 1) % n }
    }

    fn build_comm(&self) -> Comm {
        let m = self.shared.membership.borrow();
        let shrink =
            self.recovery().map(|c| c.policy) == Some(RestartPolicy::Shrink) && m.epoch > 0;
        if shrink {
            let members: Vec<u32> =
                (0..m.alive.len() as u32).filter(|&r| m.is_alive(r)).collect();
            let me = m.dense_index(self.rank).unwrap_or(0);
            Comm { me, members }
        } else {
            Comm {
                me: self.rank,
                members: (0..m.specs.len() as u32).collect(),
            }
        }
    }

    /// Queues a protocol message to `to` (an actual rank id). Messages to
    /// ranks currently marked dead are dropped at drain — they are going
    /// nowhere, and sends into a dead interface leak tokens.
    fn post(&mut self, ctx: &mut Ctx<'_>, to: u32, tag: u64, payload: Vec<u8>) {
        if to == self.rank {
            // Loopback without touching GM (GM has no self-send).
            let env = Envelope { src_rank: self.rank, tag, payload };
            self.deliver_to_mailbox(ctx, env);
            return;
        }
        self.outbox.push_back((to, tag, payload));
        self.drain_outbox(ctx);
    }

    fn drain_outbox(&mut self, ctx: &mut Ctx<'_>) {
        if self.halted {
            self.outbox.clear();
            return;
        }
        while let Some(&(to, _, _)) = self.outbox.front() {
            if ctx.send_tokens() == 0 {
                return;
            }
            let (spec, alive) = {
                let m = self.shared.membership.borrow();
                (m.specs.get(to as usize).copied(), m.is_alive(to))
            };
            let Some((_, tag, payload)) = self.outbox.pop_front() else {
                return;
            };
            let Some(spec) = spec else { continue };
            if self.recovery().is_some() && !alive {
                continue;
            }
            let env = Envelope { src_rank: self.rank, tag, payload };
            ctx.gm_send(&env.encode(), spec.node, spec.port);
        }
    }

    fn deliver_to_mailbox(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let depth = self.mailbox.deliver(env) as u32;
        self.shared.metrics.borrow_mut().observe(
            ctx.now(),
            &TraceKind::MailboxQueued {
                node: self.me.node.0,
                port: self.me.port,
                depth,
            },
        );
    }

    /// Marks forward progress: resets the block timer and withdraws any
    /// suspicions this runtime had posted.
    fn progressed(&mut self, now: SimTime) {
        self.blocked_since = now;
        if self.suspected.is_empty() {
            return;
        }
        let mut board = self.shared.board.borrow_mut();
        for s in self.suspected.drain(..) {
            board.absolve(s);
        }
    }

    /// Prunes the replay log after completing checkpoint `instance`:
    /// only entries back to the *previous* completed checkpoint can
    /// still be needed (a dead peer's replica lags at most one
    /// checkpoint behind the newest globally completed one).
    ///
    /// A *replayed* checkpoint (one at or below `last_ckpt`) must not
    /// prune: its pruning already happened on first completion, and
    /// running it again here with the newer `last_ckpt` as the floor
    /// would drop the very instances the replay queue is about to
    /// re-execute — the restored rank would then wait forever for
    /// messages nobody re-sends.
    fn prune_log_at(&mut self, instance: u64) {
        if self.last_ckpt.is_some_and(|c| instance <= c) {
            return;
        }
        let keep_from = self.last_ckpt.unwrap_or(0);
        self.log.retain(|&i, _| i >= keep_from);
        self.last_ckpt = Some(instance);
    }

    /// Delivers a completed operation's result unless it is replay
    /// catch-up.
    fn finish(&mut self, instance: u64, result: OpResult) {
        if instance < self.mute_below {
            return;
        }
        if matches!(result, OpResult::Fault(_)) {
            self.state.borrow_mut().faults_delivered += 1;
        }
        self.pending_results.push_back(result);
    }

    fn next_req(&mut self) -> u64 {
        let r = self.req_counter;
        self.req_counter += 1;
        (u64::from(self.rank) << 32) | (r & 0xFFFF_FFFF)
    }
}

// ---------------------------------------------------------------------------
// Operation start.
// ---------------------------------------------------------------------------

impl MpiRankApp {
    /// Starts executing `op` as `instance`; may complete it synchronously.
    fn begin(&mut self, ctx: &mut Ctx<'_>, instance: u64, op: Op) {
        self.blocked_since = ctx.now();
        match op {
            Op::Send { to, tag, data } => {
                assert!(tag < TAG_USER_MAX, "tag {tag:#x} is reserved");
                self.post(ctx, to, tag, data);
                self.finish(instance, OpResult::Sent);
                self.executing = Executing::Idle;
            }
            Op::Recv { from, tag } => {
                assert!(tag < TAG_USER_MAX, "tag {tag:#x} is reserved");
                self.executing = Executing::Recv {
                    instance,
                    pattern: Pattern { from, tag },
                };
            }
            Op::Barrier => {
                let comm = self.build_comm();
                let schedule = barrier_schedule(comm.me, comm.n());
                if schedule.is_empty() {
                    self.finish(instance, OpResult::BarrierDone);
                    self.executing = Executing::Idle;
                    return;
                }
                if let Some(&(to, _)) = schedule.first() {
                    let to = comm.actual(to);
                    self.post(ctx, to, coll_tag(KIND_BARRIER, instance, 0), Vec::new());
                }
                self.executing = Executing::Coll {
                    instance,
                    comm,
                    st: CollState::Barrier { schedule, round: 0 },
                };
            }
            Op::Broadcast { root, data } => {
                let comm = self.build_comm();
                // `root` is an original rank id; map it into the dense
                // communicator (fall back to dense 0 if it died).
                let root_dense = comm
                    .members
                    .iter()
                    .position(|&r| r == root)
                    .map(|p| p as u32)
                    .unwrap_or(0);
                let plan = broadcast_plan(comm.me, root_dense, comm.n());
                if comm.me == root_dense {
                    let data = data.unwrap_or_default();
                    for &to in &plan.send_to {
                        let to = comm.actual(to);
                        self.post(ctx, to, coll_tag(KIND_BCAST, instance, 0), data.clone());
                    }
                    self.finish(instance, OpResult::Broadcast { data });
                    self.executing = Executing::Idle;
                } else {
                    let recv_from = plan.recv_from.unwrap_or(root_dense);
                    self.executing = Executing::Coll {
                        instance,
                        comm,
                        st: CollState::Bcast {
                            recv_from,
                            send_to: plan.send_to,
                        },
                    };
                }
            }
            Op::AllReduceSum { values } => {
                let comm = self.build_comm();
                if comm.n() <= 1 {
                    self.finish(instance, OpResult::AllReduceSum { values });
                    self.executing = Executing::Idle;
                    return;
                }
                let plan = ring_plan(comm.me, comm.n());
                if plan.l1_recv_from.is_none() {
                    // Dense rank 0 seeds lap 1.
                    if let Some(to) = plan.l1_send_to {
                        let to = comm.actual(to);
                        let payload = encode_u64s(&values);
                        self.post(ctx, to, coll_tag(KIND_AR_RING, instance, 0), payload);
                    }
                }
                self.executing = Executing::Coll {
                    instance,
                    comm,
                    st: CollState::ArRing {
                        values,
                        stage: ArStage::Lap1,
                    },
                };
            }
            Op::AllReduceSumRd { values } => {
                let comm = self.build_comm();
                if comm.n() <= 1 {
                    self.finish(instance, OpResult::AllReduceSum { values });
                    self.executing = Executing::Idle;
                    return;
                }
                let plan = rd_plan(comm.me, comm.n());
                if let Some(host) = plan.fold_to {
                    // Folder: contribute, then wait for the result.
                    let to = comm.actual(host);
                    self.post(
                        ctx,
                        to,
                        coll_tag(KIND_AR_RD, instance, ROUND_FOLD_IN),
                        encode_u64s(&values),
                    );
                    self.executing = Executing::Coll {
                        instance,
                        comm,
                        st: CollState::ArRd {
                            acc: values,
                            k: 0,
                            phase: RdPhase::FoldOut,
                        },
                    };
                } else if plan.fold_from.is_some() {
                    // Host: absorb the folder's vector first.
                    self.executing = Executing::Coll {
                        instance,
                        comm,
                        st: CollState::ArRd {
                            acc: values,
                            k: 0,
                            phase: RdPhase::FoldIn,
                        },
                    };
                } else {
                    // Core rank: open round 0 immediately.
                    if let Some(&p) = plan.partners.first() {
                        let to = comm.actual(p);
                        self.post(ctx, to, coll_tag(KIND_AR_RD, instance, 0), encode_u64s(&values));
                    }
                    self.executing = Executing::Coll {
                        instance,
                        comm,
                        st: CollState::ArRd {
                            acc: values,
                            k: 0,
                            phase: RdPhase::Round,
                        },
                    };
                }
            }
            Op::HaloExchange { sends } => {
                let comm = self.build_comm();
                let (cols, rows) = grid_dims(comm.n());
                let mut got: [Option<Vec<u8>>; 4] = [None, None, None, None];
                for dir in 0..4u32 {
                    let nb = halo_neighbor(comm.me, cols, rows, dir);
                    if nb == comm.me {
                        // Size-1 dimension: my own opposite-direction
                        // payload wraps straight back to me.
                        if let (Some(slot), Some(send)) = (
                            got.get_mut(dir as usize),
                            sends.get(halo_opposite(dir) as usize),
                        ) {
                            *slot = Some(send.clone());
                        }
                    } else if let Some(payload) = sends.get(dir as usize) {
                        let to = comm.actual(nb);
                        self.post(
                            ctx,
                            to,
                            coll_tag(KIND_HALO, instance, u64::from(dir)),
                            payload.clone(),
                        );
                    }
                }
                self.executing = Executing::Coll {
                    instance,
                    comm,
                    st: CollState::Halo { cols, rows, got },
                };
            }
            Op::Checkpoint { state } => {
                let comm = self.build_comm();
                let schedule = barrier_schedule(comm.me, comm.n());
                if schedule.is_empty() {
                    // Sole survivor: no barrier, and the management
                    // plane is local.
                    self.shared
                        .replicas
                        .borrow_mut()
                        .store(self.rank, instance, state);
                    self.state.borrow_mut().checkpoints_stored += 1;
                    self.prune_log_at(instance);
                    self.finish(instance, OpResult::CheckpointDone { seqno: instance });
                    self.executing = Executing::Idle;
                    return;
                }
                if let Some(&(to, _)) = schedule.first() {
                    let to = comm.actual(to);
                    self.post(ctx, to, coll_tag(KIND_CKPT_BAR, instance, 0), Vec::new());
                }
                self.executing = Executing::Coll {
                    instance,
                    comm,
                    st: CollState::Ckpt {
                        state,
                        stage: CkptStage::Barrier { schedule, round: 0 },
                    },
                };
            }
            Op::WinCreate { win } => {
                self.windows.create(self.rank, win);
                self.finish(instance, OpResult::WinCreated { win });
                self.executing = Executing::Idle;
            }
            Op::Put { owner, win, offset, data } => {
                self.counters.record(owner, win);
                self.rma_fan_out(ctx, owner, RmaMsg::Put { owner, win, offset, data });
                self.finish(instance, OpResult::PutDone);
                self.executing = Executing::Idle;
            }
            Op::Accumulate { owner, win, offset, values } => {
                self.counters.record(owner, win);
                self.rma_fan_out(ctx, owner, RmaMsg::Acc { owner, win, offset, values });
                self.finish(instance, OpResult::AccumulateDone);
                self.executing = Executing::Idle;
            }
            Op::Get { owner, win, offset, len } => {
                self.begin_get(ctx, instance, owner, win, offset, len);
            }
            Op::Flush => {
                let mut awaiting: BTreeMap<u64, u32> = BTreeMap::new();
                for (owner, win, sent) in self.counters.touched() {
                    let replica = self.replica_holder(owner);
                    for target in [owner, replica] {
                        if target == self.rank || (target == replica && replica == owner) {
                            continue; // local copies apply synchronously
                        }
                        if self.recovery().is_some()
                            && !self.shared.membership.borrow().is_alive(target)
                        {
                            continue;
                        }
                        let req = self.next_req();
                        self.post(
                            ctx,
                            target,
                            TAG_RMA,
                            RmaMsg::FlushReq { owner, win, sent_count: sent, req }.encode(),
                        );
                        awaiting.insert(req, target);
                    }
                }
                if awaiting.is_empty() {
                    self.finish(instance, OpResult::FlushDone);
                    self.executing = Executing::Idle;
                } else {
                    self.executing = Executing::Rma {
                        instance,
                        pending: RmaPending::Flush { awaiting },
                    };
                }
            }
        }
    }

    /// Sends an RMA data op to the owner and its replica holder, applying
    /// any local copy directly.
    fn rma_fan_out(&mut self, ctx: &mut Ctx<'_>, owner: u32, msg: RmaMsg) {
        let replica = self.replica_holder(owner);
        let mut targets = vec![owner];
        if replica != owner {
            targets.push(replica);
        }
        for target in targets {
            if target == self.rank {
                self.rma_apply_local(&msg);
                continue;
            }
            if self.recovery().is_some() && !self.shared.membership.borrow().is_alive(target) {
                continue;
            }
            self.post(ctx, target, TAG_RMA, msg.encode());
        }
    }

    fn rma_apply_local(&mut self, msg: &RmaMsg) {
        match msg {
            RmaMsg::Put { owner, win, offset, data } => {
                self.windows.apply_put(*owner, *win, self.rank, *offset, data);
            }
            RmaMsg::Acc { owner, win, offset, values } => {
                self.windows.apply_acc(*owner, *win, self.rank, *offset, values);
            }
            _ => {}
        }
    }

    fn begin_get(
        &mut self,
        ctx: &mut Ctx<'_>,
        instance: u64,
        owner: u32,
        win: u32,
        offset: u64,
        len: u64,
    ) {
        let replica = self.replica_holder(owner);
        let target = {
            let m = self.shared.membership.borrow();
            if self.recovery().is_none() || m.is_alive(owner) {
                Some(owner)
            } else if m.is_alive(replica) {
                Some(replica)
            } else {
                None
            }
        };
        match target {
            Some(t) if t == self.rank => {
                let data = self.windows.read(owner, win, offset, len);
                self.finish(instance, OpResult::GetDone { data });
                self.executing = Executing::Idle;
            }
            Some(t) => {
                let req = self.next_req();
                self.post(
                    ctx,
                    t,
                    TAG_RMA,
                    RmaMsg::GetReq { owner, win, offset, len, req }.encode(),
                );
                self.executing = Executing::Rma {
                    instance,
                    pending: RmaPending::Get { owner, win, offset, len, req, target: t },
                };
            }
            None => {
                let fault = self.last_fault_or(owner, ctx.now());
                self.finish(instance, OpResult::Fault(fault));
                self.executing = Executing::Idle;
            }
        }
    }

    /// The most recent declared fault, or a synthesized one naming
    /// `rank` (both window copies dead before any declaration reached
    /// this runtime).
    fn last_fault_or(&self, rank: u32, now: SimTime) -> RankFault {
        let m = self.shared.membership.borrow();
        m.faults.last().copied().unwrap_or(RankFault {
            rank,
            kind: FaultKind::InterfaceDead,
            epoch: m.epoch,
            declared_at: now,
        })
    }
}

// ---------------------------------------------------------------------------
// Operation progress.
// ---------------------------------------------------------------------------

impl MpiRankApp {
    /// Tries to advance the current operation with mailbox contents.
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        // Take ownership of the execution state so protocol steps can
        // freely post messages; write it back when still blocked.
        let ex = std::mem::replace(&mut self.executing, Executing::Idle);
        match ex {
            Executing::Idle => {}
            Executing::Rma { instance, pending } => {
                // RMA completions arrive through the passive handler,
                // not the mailbox; nothing to poll here.
                self.executing = Executing::Rma { instance, pending };
            }
            Executing::Recv { instance, pattern } => match self.mailbox.take(pattern) {
                Some(env) => {
                    self.progressed(ctx.now());
                    self.finish(
                        instance,
                        OpResult::Received { from: env.src_rank, data: env.payload },
                    );
                }
                None => self.executing = Executing::Recv { instance, pattern },
            },
            Executing::Coll { instance, comm, st } => {
                // `None`: completed, its result already queued; the state
                // stays `Idle` until the next op begins.
                if let Some(st) = self.advance_coll(ctx, instance, &comm, st) {
                    self.executing = Executing::Coll { instance, comm, st };
                }
            }
        }
    }

    /// One collective's progress step. Returns the still-blocked state,
    /// or `None` when the operation completed (result queued).
    fn advance_coll(
        &mut self,
        ctx: &mut Ctx<'_>,
        instance: u64,
        comm: &Comm,
        st: CollState,
    ) -> Option<CollState> {
        match st {
            CollState::Barrier { schedule, mut round } => loop {
                let Some(&(to_next, from)) = schedule.get(round) else {
                    self.finish(instance, OpResult::BarrierDone);
                    return None;
                };
                let _ = to_next;
                let from = comm.actual(from);
                let tag = coll_tag(KIND_BARRIER, instance, round as u64);
                if self.mailbox.take(Pattern { from: Some(from), tag }).is_none() {
                    return Some(CollState::Barrier { schedule, round });
                }
                self.progressed(ctx.now());
                round += 1;
                if let Some(&(to, _)) = schedule.get(round) {
                    let to = comm.actual(to);
                    self.post(ctx, to, coll_tag(KIND_BARRIER, instance, round as u64), Vec::new());
                } else {
                    self.finish(instance, OpResult::BarrierDone);
                    return None;
                }
            },
            CollState::Bcast { recv_from, send_to } => {
                let from = comm.actual(recv_from);
                let tag = coll_tag(KIND_BCAST, instance, 0);
                match self.mailbox.take(Pattern { from: Some(from), tag }) {
                    Some(env) => {
                        self.progressed(ctx.now());
                        for &to in &send_to {
                            let to = comm.actual(to);
                            self.post(ctx, to, tag, env.payload.clone());
                        }
                        self.finish(instance, OpResult::Broadcast { data: env.payload });
                        None
                    }
                    None => Some(CollState::Bcast { recv_from, send_to }),
                }
            }
            CollState::ArRing { values, stage } => {
                self.advance_ar_ring(ctx, instance, comm, values, stage)
            }
            CollState::ArRd { acc, k, phase } => {
                self.advance_ar_rd(ctx, instance, comm, acc, k, phase)
            }
            CollState::Halo { cols, rows, mut got } => {
                for dir in 0..4u32 {
                    if got.get(dir as usize).is_some_and(|g| g.is_some()) {
                        continue;
                    }
                    let nb = halo_neighbor(comm.me, cols, rows, dir);
                    if nb == comm.me {
                        continue; // filled at begin
                    }
                    let from = comm.actual(nb);
                    let tag = coll_tag(KIND_HALO, instance, u64::from(halo_opposite(dir)));
                    if let Some(env) = self.mailbox.take(Pattern { from: Some(from), tag }) {
                        self.progressed(ctx.now());
                        if let Some(slot) = got.get_mut(dir as usize) {
                            *slot = Some(env.payload);
                        }
                    }
                }
                if got.iter().all(|g| g.is_some()) {
                    let [a, b, c, d] = got;
                    let recv = [
                        a.unwrap_or_default(),
                        b.unwrap_or_default(),
                        c.unwrap_or_default(),
                        d.unwrap_or_default(),
                    ];
                    self.finish(instance, OpResult::HaloDone { recv });
                    None
                } else {
                    Some(CollState::Halo { cols, rows, got })
                }
            }
            CollState::Ckpt { state, stage } => match stage {
                CkptStage::Barrier { schedule, mut round } => {
                    loop {
                        let Some(&(_, from)) = schedule.get(round) else {
                            break;
                        };
                        let from = comm.actual(from);
                        let tag = coll_tag(KIND_CKPT_BAR, instance, round as u64);
                        if self.mailbox.take(Pattern { from: Some(from), tag }).is_none() {
                            return Some(CollState::Ckpt {
                                state,
                                stage: CkptStage::Barrier { schedule, round },
                            });
                        }
                        self.progressed(ctx.now());
                        round += 1;
                        if let Some(&(to, _)) = schedule.get(round) {
                            let to = comm.actual(to);
                            self.post(
                                ctx,
                                to,
                                coll_tag(KIND_CKPT_BAR, instance, round as u64),
                                Vec::new(),
                            );
                        }
                    }
                    // Barrier passed: every rank entered this checkpoint.
                    // Now persist the state onto the buddy.
                    let buddy = self.shared.membership.borrow().next_live(self.rank);
                    let Some(buddy) = buddy else {
                        self.shared
                            .replicas
                            .borrow_mut()
                            .store(self.rank, instance, state);
                        self.state.borrow_mut().checkpoints_stored += 1;
                        self.prune_log_at(instance);
                        self.finish(instance, OpResult::CheckpointDone { seqno: instance });
                        return None;
                    };
                    self.post(ctx, buddy, ckpt_tag(instance, false), state.clone());
                    Some(CollState::Ckpt {
                        state,
                        stage: CkptStage::Store { buddy },
                    })
                }
                CkptStage::Store { buddy } => {
                    let tag = ckpt_tag(instance, true);
                    match self.mailbox.take(Pattern { from: Some(buddy), tag }) {
                        Some(_) => {
                            self.progressed(ctx.now());
                            self.prune_log_at(instance);
                            self.finish(instance, OpResult::CheckpointDone { seqno: instance });
                            None
                        }
                        None => Some(CollState::Ckpt {
                            state,
                            stage: CkptStage::Store { buddy },
                        }),
                    }
                }
            },
        }
    }

    fn advance_ar_ring(
        &mut self,
        ctx: &mut Ctx<'_>,
        instance: u64,
        comm: &Comm,
        values: Vec<u64>,
        stage: ArStage,
    ) -> Option<CollState> {
        let n = comm.n();
        let plan = ring_plan(comm.me, n);
        let last = n - 1;
        match stage {
            ArStage::Lap1 => {
                let Some(from) = plan.l1_recv_from else {
                    // Dense rank 0 already seeded lap 1; wait in lap 2.
                    return self.advance_ar_ring(ctx, instance, comm, values, ArStage::Lap2);
                };
                let from = comm.actual(from);
                let tag = coll_tag(KIND_AR_RING, instance, 0);
                let Some(env) = self.mailbox.take(Pattern { from: Some(from), tag }) else {
                    return Some(CollState::ArRing { values, stage: ArStage::Lap1 });
                };
                self.progressed(ctx.now());
                let mut acc = decode_u64s(&env.payload);
                add_into(&mut acc, &values);
                if comm.me == last {
                    // Total computed here: start lap 2, done.
                    if let Some(to) = plan.l2_send_to {
                        let to = comm.actual(to);
                        self.post(ctx, to, coll_tag(KIND_AR_RING, instance, 1), encode_u64s(&acc));
                    }
                    self.finish(instance, OpResult::AllReduceSum { values: acc });
                    return None;
                }
                if let Some(to) = plan.l1_send_to {
                    let to = comm.actual(to);
                    self.post(ctx, to, coll_tag(KIND_AR_RING, instance, 0), encode_u64s(&acc));
                }
                self.advance_ar_ring(ctx, instance, comm, values, ArStage::Lap2)
            }
            ArStage::Lap2 => {
                let Some(from) = plan.l2_recv_from else {
                    // Only dense rank n-1 lacks a lap-2 source, and it
                    // finished in lap 1.
                    return Some(CollState::ArRing { values, stage: ArStage::Lap2 });
                };
                let from = comm.actual(from);
                let tag = coll_tag(KIND_AR_RING, instance, 1);
                let Some(env) = self.mailbox.take(Pattern { from: Some(from), tag }) else {
                    return Some(CollState::ArRing { values, stage: ArStage::Lap2 });
                };
                self.progressed(ctx.now());
                let totals = decode_u64s(&env.payload);
                if let Some(to) = plan.l2_send_to {
                    let to = comm.actual(to);
                    self.post(ctx, to, tag, env.payload.clone());
                }
                self.finish(instance, OpResult::AllReduceSum { values: totals });
                None
            }
        }
    }

    fn advance_ar_rd(
        &mut self,
        ctx: &mut Ctx<'_>,
        instance: u64,
        comm: &Comm,
        mut acc: Vec<u64>,
        mut k: usize,
        phase: RdPhase,
    ) -> Option<CollState> {
        let plan = rd_plan(comm.me, comm.n());
        match phase {
            RdPhase::FoldOut => {
                // Folder: the host sends the finished result.
                let Some(host) = plan.fold_to else {
                    return Some(CollState::ArRd { acc, k, phase });
                };
                let from = comm.actual(host);
                let tag = coll_tag(KIND_AR_RD, instance, ROUND_FOLD_OUT);
                let Some(env) = self.mailbox.take(Pattern { from: Some(from), tag }) else {
                    return Some(CollState::ArRd { acc, k, phase });
                };
                self.progressed(ctx.now());
                self.finish(instance, OpResult::AllReduceSum { values: decode_u64s(&env.payload) });
                None
            }
            RdPhase::FoldIn => {
                let Some(folder) = plan.fold_from else {
                    return Some(CollState::ArRd { acc, k, phase });
                };
                let from = comm.actual(folder);
                let tag = coll_tag(KIND_AR_RD, instance, ROUND_FOLD_IN);
                let Some(env) = self.mailbox.take(Pattern { from: Some(from), tag }) else {
                    return Some(CollState::ArRd { acc, k, phase });
                };
                self.progressed(ctx.now());
                add_into(&mut acc, &decode_u64s(&env.payload));
                // Open round 0.
                if let Some(&p) = plan.partners.first() {
                    let to = comm.actual(p);
                    self.post(ctx, to, coll_tag(KIND_AR_RD, instance, 0), encode_u64s(&acc));
                    self.advance_ar_rd(ctx, instance, comm, acc, 0, RdPhase::Round)
                } else {
                    self.finish_rd(ctx, instance, comm, &plan, acc)
                }
            }
            RdPhase::Round => loop {
                let Some(&partner) = plan.partners.get(k) else {
                    return self.finish_rd(ctx, instance, comm, &plan, acc);
                };
                let from = comm.actual(partner);
                let tag = coll_tag(KIND_AR_RD, instance, k as u64);
                let Some(env) = self.mailbox.take(Pattern { from: Some(from), tag }) else {
                    return Some(CollState::ArRd { acc, k, phase: RdPhase::Round });
                };
                self.progressed(ctx.now());
                add_into(&mut acc, &decode_u64s(&env.payload));
                k += 1;
                if let Some(&p) = plan.partners.get(k) {
                    let to = comm.actual(p);
                    self.post(ctx, to, coll_tag(KIND_AR_RD, instance, k as u64), encode_u64s(&acc));
                } else {
                    return self.finish_rd(ctx, instance, comm, &plan, acc);
                }
            },
        }
    }

    /// Core rounds done: return the result to a folder if hosting one,
    /// then complete.
    fn finish_rd(
        &mut self,
        ctx: &mut Ctx<'_>,
        instance: u64,
        comm: &Comm,
        plan: &crate::collectives::RdPlan,
        acc: Vec<u64>,
    ) -> Option<CollState> {
        if let Some(folder) = plan.fold_from {
            let to = comm.actual(folder);
            self.post(
                ctx,
                to,
                coll_tag(KIND_AR_RD, instance, ROUND_FOLD_OUT),
                encode_u64s(&acc),
            );
        }
        self.finish(instance, OpResult::AllReduceSum { values: acc });
        None
    }
}

// ---------------------------------------------------------------------------
// The drive loop and passive protocol handlers.
// ---------------------------------------------------------------------------

impl MpiRankApp {
    /// Drives the program: deliver completed results, re-execute replayed
    /// instances, fetch next ops.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            self.advance(ctx);
            self.drain_outbox(ctx);
            if self.halted || !matches!(self.executing, Executing::Idle) {
                return;
            }
            if let Some(inst) = self.replaying.pop_front() {
                if let Some(op) = self.log.get(&inst).cloned() {
                    self.state.borrow_mut().replayed_instances += 1;
                    self.begin(ctx, inst, op);
                }
                continue;
            }
            if self.done {
                return;
            }
            let last = self.pending_results.pop_front();
            let rank = self.rank;
            let nranks = self.program_nranks();
            match self.program.next_op(rank, nranks, last) {
                Some(op) => {
                    // Only collectives and checkpoints consume an
                    // instance: programs must issue them in the same
                    // order on every rank (the MPI contract), so the
                    // counters agree across ranks and the instance can
                    // serve as the wire tag's matching key. Point-to-
                    // point and RMA ops ride outside the sequence.
                    let inst = if loggable(&op) {
                        let i = self.next_instance;
                        self.next_instance += 1;
                        if self.recovery().is_some() {
                            self.log.insert(i, op.clone());
                        }
                        i
                    } else {
                        NO_INSTANCE
                    };
                    self.begin(ctx, inst, op);
                }
                None => {
                    self.done = true;
                    self.state.borrow_mut().finished.push((rank, ctx.now()));
                    return;
                }
            }
        }
    }

    /// Routes an arrived GM message: RMA and checkpoint-store traffic is
    /// handled immediately (the passive side needs no posted receive);
    /// everything else waits in the mailbox for a matching take.
    fn handle_received(&mut self, ctx: &mut Ctx<'_>, data: Vec<u8>) {
        let Some(env) = Envelope::decode(&data) else {
            return;
        };
        if env.tag & TAG_RMA != 0 {
            self.handle_rma(ctx, env);
        } else if env.tag & TAG_CKPT != 0 && env.tag & TAG_COLL == 0 && env.tag & 1 == 0 {
            // Checkpoint store request: this rank is the buddy.
            let seqno = (env.tag >> 16) & INSTANCE_MASK;
            self.shared
                .replicas
                .borrow_mut()
                .store(env.src_rank, seqno, env.payload);
            self.state.borrow_mut().checkpoints_stored += 1;
            self.post(ctx, env.src_rank, env.tag | 1, Vec::new());
        } else {
            self.deliver_to_mailbox(ctx, env);
        }
    }

    fn handle_rma(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let origin = env.src_rank;
        let Some(msg) = RmaMsg::decode(&env.payload) else {
            return;
        };
        match msg {
            RmaMsg::Put { owner, win, offset, data } => {
                self.windows.apply_put(owner, win, origin, offset, &data);
                self.service_flush_backlog(ctx);
            }
            RmaMsg::Acc { owner, win, offset, values } => {
                self.windows.apply_acc(owner, win, origin, offset, &values);
                self.service_flush_backlog(ctx);
            }
            RmaMsg::GetReq { owner, win, offset, len, req } => {
                let data = self.windows.read(owner, win, offset, len);
                self.post(ctx, origin, TAG_RMA, RmaMsg::GetRep { req, data }.encode());
            }
            RmaMsg::GetRep { req, data } => {
                if let Executing::Rma {
                    instance,
                    pending: RmaPending::Get { req: want, .. },
                } = &self.executing
                {
                    if *want == req {
                        let instance = *instance;
                        self.executing = Executing::Idle;
                        self.progressed(ctx.now());
                        self.finish(instance, OpResult::GetDone { data });
                    }
                }
            }
            RmaMsg::FlushReq { owner, win, sent_count, req } => {
                if self.windows.applied_count(owner, win, origin) >= sent_count {
                    self.post(ctx, origin, TAG_RMA, RmaMsg::FlushAck { req }.encode());
                } else {
                    self.flush_backlog.push((origin, owner, win, sent_count, req));
                }
            }
            RmaMsg::FlushAck { req } => {
                if let Executing::Rma {
                    instance,
                    pending: RmaPending::Flush { awaiting },
                } = &mut self.executing
                {
                    awaiting.remove(&req);
                    if awaiting.is_empty() {
                        let instance = *instance;
                        self.executing = Executing::Idle;
                        self.progressed(ctx.now());
                        self.finish(instance, OpResult::FlushDone);
                    }
                }
            }
        }
    }

    /// Acks queued flushes whose origin streams have caught up.
    fn service_flush_backlog(&mut self, ctx: &mut Ctx<'_>) {
        let mut ready = Vec::new();
        self.flush_backlog.retain(|&(origin, owner, win, sent, req)| {
            if self.windows.applied_count(owner, win, origin) >= sent {
                ready.push((origin, req));
                false
            } else {
                true
            }
        });
        for (origin, req) in ready {
            self.post(ctx, origin, TAG_RMA, RmaMsg::FlushAck { req }.encode());
        }
    }
}

// ---------------------------------------------------------------------------
// Failure detection, epoch rebinding, and replay.
// ---------------------------------------------------------------------------

impl MpiRankApp {
    /// The actual ranks the current operation is blocked on (suspicion
    /// targets for the timeout path).
    fn awaited(&self) -> Vec<u32> {
        match &self.executing {
            Executing::Idle => Vec::new(),
            Executing::Recv { pattern, .. } => pattern.from.into_iter().collect(),
            Executing::Rma { pending, .. } => match pending {
                RmaPending::Get { target, .. } => vec![*target],
                RmaPending::Flush { awaiting } => {
                    let mut holders: Vec<u32> = awaiting.values().copied().collect();
                    holders.sort_unstable();
                    holders.dedup();
                    holders
                }
            },
            Executing::Coll { comm, st, .. } => match st {
                CollState::Barrier { schedule, round } => schedule
                    .get(*round)
                    .map(|&(_, from)| vec![comm.actual(from)])
                    .unwrap_or_default(),
                CollState::Bcast { recv_from, .. } => vec![comm.actual(*recv_from)],
                CollState::ArRing { stage, .. } => {
                    let plan = ring_plan(comm.me, comm.n());
                    let from = match stage {
                        ArStage::Lap1 => plan.l1_recv_from.or(plan.l2_recv_from),
                        ArStage::Lap2 => plan.l2_recv_from,
                    };
                    from.map(|f| vec![comm.actual(f)]).unwrap_or_default()
                }
                CollState::ArRd { k, phase, .. } => {
                    let plan = rd_plan(comm.me, comm.n());
                    let from = match phase {
                        RdPhase::FoldIn => plan.fold_from,
                        RdPhase::FoldOut => plan.fold_to,
                        RdPhase::Round => plan.partners.get(*k).copied(),
                    };
                    from.map(|f| vec![comm.actual(f)]).unwrap_or_default()
                }
                CollState::Halo { cols, rows, got } => (0..4u32)
                    .filter(|&d| got.get(d as usize).is_some_and(|g| g.is_none()))
                    .map(|d| comm.actual(halo_neighbor(comm.me, *cols, *rows, d)))
                    .filter(|&r| r != self.rank)
                    .collect(),
                CollState::Ckpt { stage, .. } => match stage {
                    CkptStage::Barrier { schedule, round } => schedule
                        .get(*round)
                        .map(|&(_, from)| vec![comm.actual(from)])
                        .unwrap_or_default(),
                    CkptStage::Store { buddy } => vec![*buddy],
                },
            },
        }
    }

    /// The runtime's periodic tick: epoch rebinds, RMA failover, and
    /// operation-timeout suspicion.
    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cfg) = self.recovery() else {
            return;
        };
        if self.shared.halt.get() {
            return; // job finished: let the world quiesce
        }
        let now = ctx.now();
        let epoch = self.shared.membership.borrow().epoch;
        if epoch != self.cached_epoch {
            self.rebind(cfg, epoch, now);
        }
        self.rma_retarget(ctx, now);
        if !self.halted
            && !matches!(self.executing, Executing::Idle)
            && now.saturating_since(self.blocked_since) >= cfg.op_timeout
        {
            let awaited = self.awaited();
            let mut board = self.shared.board.borrow_mut();
            let m = self.shared.membership.borrow();
            for s in awaited {
                if m.is_alive(s) && s != self.rank {
                    board.suspect(s, now);
                    if !self.suspected.contains(&s) {
                        self.suspected.push(s);
                    }
                }
            }
        }
        if !self.halted {
            ctx.set_alarm(cfg.poll, ALARM_POLL);
        }
        self.pump(ctx);
    }

    /// Applies a membership epoch change to this runtime.
    fn rebind(&mut self, cfg: RecoveryConfig, new_epoch: u32, now: SimTime) {
        let _ = now;
        self.cached_epoch = new_epoch;
        let (alive_me, replay_from, new_faults) = {
            let m = self.shared.membership.borrow();
            let fresh: Vec<RankFault> =
                m.faults.get(self.faults_seen..).map(<[_]>::to_vec).unwrap_or_default();
            (m.is_alive(self.rank), m.replay_from, fresh)
        };
        self.faults_seen += new_faults.len();
        if !alive_me {
            // Declared dead and not respawned here: the controller will
            // detach this app; stop doing anything.
            self.halted = true;
            self.outbox.clear();
            self.executing = Executing::Idle;
            return;
        }
        match cfg.policy {
            RestartPolicy::Spare => {
                // Survivors at or past the replay window abort their
                // in-flight collective and re-execute the logged ops so
                // the restored rank re-receives everything; only the
                // aborted instance's result reaches the program again.
                if self.done {
                    self.mute_below = u64::MAX;
                    self.replaying = self.log.range(replay_from..).map(|(&i, _)| i).collect();
                    return;
                }
                if let Executing::Coll { instance, .. } = self.executing {
                    if instance >= replay_from {
                        self.executing = Executing::Idle;
                        self.replaying =
                            self.log.range(replay_from..=instance).map(|(&i, _)| i).collect();
                        self.mute_below = instance;
                    }
                }
                // Slow ranks (still below the replay window) and p2p/RMA
                // waiters continue untouched.
            }
            RestartPolicy::Shrink | RestartPolicy::Notify => {
                let abort = match &self.executing {
                    Executing::Coll { .. } => true,
                    Executing::Recv { pattern, .. } => pattern
                        .from
                        .is_some_and(|f| !self.shared.membership.borrow().is_alive(f)),
                    _ => false,
                };
                // Re-align: new epoch, new instance prefix, stale
                // protocol traffic purged.
                let e = u64::from(new_epoch);
                self.mailbox
                    .purge_where(|_, tag| is_protocol_tag(tag) && tag_epoch_prefix(tag) != e);
                {
                    let m = self.shared.membership.borrow();
                    self.outbox.retain(|&(to, tag, _)| {
                        m.is_alive(to) && !(is_protocol_tag(tag) && tag_epoch_prefix(tag) != e)
                    });
                }
                self.log.clear();
                self.replaying.clear();
                self.next_instance = self.next_instance.max(e << 32);
                if abort && !self.done {
                    self.executing = Executing::Idle;
                    if let Some(&fault) = new_faults.last() {
                        self.state.borrow_mut().faults_delivered += 1;
                        self.pending_results.push_back(OpResult::Fault(fault));
                    }
                }
            }
        }
        self.suspected.clear();
    }

    /// Fails over in-flight one-sided operations whose target died.
    fn rma_retarget(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        if self.recovery().is_none() {
            return;
        }
        let ex = std::mem::replace(&mut self.executing, Executing::Idle);
        match ex {
            Executing::Rma {
                instance,
                pending: RmaPending::Get { owner, win, offset, len, req, target },
            } => {
                let target_alive = self.shared.membership.borrow().is_alive(target);
                if target_alive {
                    self.executing = Executing::Rma {
                        instance,
                        pending: RmaPending::Get { owner, win, offset, len, req, target },
                    };
                    return;
                }
                // The copy we asked died: ask the other one.
                self.begin_get(ctx, instance, owner, win, offset, len);
            }
            Executing::Rma {
                instance,
                pending: RmaPending::Flush { mut awaiting },
            } => {
                {
                    let m = self.shared.membership.borrow();
                    awaiting.retain(|_, holder| m.is_alive(*holder));
                }
                if awaiting.is_empty() {
                    self.progressed(now);
                    self.finish(instance, OpResult::FlushDone);
                } else {
                    self.executing = Executing::Rma {
                        instance,
                        pending: RmaPending::Flush { awaiting },
                    };
                }
            }
            other => self.executing = other,
        }
    }
}

// ---------------------------------------------------------------------------
// GM integration.
// ---------------------------------------------------------------------------

impl App for MpiRankApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..8 {
            ctx.gm_provide_receive_buffer(self.buf_size);
        }
        if let Some(state) = self.restore.take() {
            self.program.on_restore(&state);
        }
        if let Some(cfg) = self.recovery() {
            ctx.set_alarm(cfg.poll, ALARM_POLL);
        }
        self.blocked_since = ctx.now();
        self.pump(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received { data, .. } => {
                ctx.gm_provide_receive_buffer(self.buf_size);
                self.handle_received(ctx, data);
                self.pump(ctx);
            }
            GmEvent::SentOk { .. } => {
                self.drain_outbox(ctx);
            }
            GmEvent::SendError { .. } => {
                // Without a recovery layer, MPI over GM treats send
                // errors as fatal (count them so tests can assert they
                // never happen under FTGM). With recovery, they are the
                // expected debris of a dying interface.
                if self.recovery().is_some() {
                    self.state.borrow_mut().gm_send_errors += 1;
                    self.drain_outbox(ctx);
                } else {
                    self.state.borrow_mut().fatal_errors += 1;
                }
            }
            GmEvent::InterfaceDead => {
                if self.recovery().is_some() {
                    self.shared
                        .board
                        .borrow_mut()
                        .confirm_interface_dead(self.rank, ctx.now());
                    self.halted = true;
                    self.outbox.clear();
                } else {
                    self.state.borrow_mut().fatal_errors += 1;
                }
            }
            GmEvent::Alarm { tag } => {
                if tag == ALARM_POLL {
                    self.poll(ctx);
                }
            }
        }
    }
}

/// Spawns one rank into the world at its current spec in `shared`'s
/// membership. `restore` carries checkpoint bytes for a spare respawn.
pub fn spawn_rank(
    world: &mut World,
    rank: u32,
    buf_size: u32,
    program: Box<dyn RankProgram>,
    shared: Rc<MpiShared>,
    state: Rc<RefCell<HarnessState>>,
    restore: Option<Vec<u8>>,
) {
    let (spec, epoch, replay_from) = {
        let m = shared.membership.borrow();
        (m.specs.get(rank as usize).copied(), m.epoch, m.replay_from)
    };
    let Some(spec) = spec else { return };
    // A respawned rank starts its instance counter at the replay window
    // so its re-issued ops line up with the survivors' replayed ones.
    let next_instance = if restore.is_some() { replay_from } else { 0 };
    world.spawn_app(
        spec.node,
        spec.port,
        Box::new(MpiRankApp {
            rank,
            me: spec,
            shared,
            program,
            restore,
            mailbox: Mailbox::new(),
            executing: Executing::Idle,
            pending_results: VecDeque::new(),
            outbox: VecDeque::new(),
            next_instance,
            log: BTreeMap::new(),
            replaying: VecDeque::new(),
            mute_below: 0,
            last_ckpt: None,
            cached_epoch: epoch,
            faults_seen: 0,
            blocked_since: SimTime::ZERO,
            suspected: Vec::new(),
            req_counter: 0,
            windows: WindowStore::default(),
            counters: OriginCounters::default(),
            flush_backlog: Vec::new(),
            buf_size,
            done: false,
            halted: false,
            state,
        }),
    );
}
