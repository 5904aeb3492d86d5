//! The benchmark's own GM applications.
//!
//! They replace `ftgm_workload::gen` (whose sink discards payloads and
//! whose senders fill messages with a constant) because the correctness
//! gate needs every delivery validated against a seed-derived payload.
//! Each flow's sender and receiver share one [`FlowOut`]; timing goes
//! into the workload crate's [`FlowProbe`] so its SLO fold still applies.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ftgm_gm::{App, Ctx, GmEvent};
use ftgm_net::NodeId;
use ftgm_sim::{Samples, SimDuration, SimTime};
use ftgm_workload::FlowProbe;

use crate::inputs::Pad;

const ARRIVAL_TAG: u64 = 0xA11A;
const THINK_TAG: u64 = 0x7417;

/// What one flow observed, sender and receiver side together.
#[derive(Default)]
pub struct FlowOut {
    /// Offer instants, completions (with the due instant they are timed
    /// from), send errors and interface deaths.
    pub probe: FlowProbe,
    /// Open loop only: how long after its due instant each message was
    /// posted (it waited for a send token).
    pub late: Samples,
    /// Deliveries the receiver validated.
    pub delivered: u64,
    /// Payload bytes of those deliveries.
    pub delivered_bytes: u64,
    /// Deliveries or echoes whose bytes or length were not the expected ones.
    pub bad_payloads: u64,
    /// Deepest posted + queued backlog at the sender.
    pub max_in_flight: u64,
}

pub type Out = Rc<RefCell<FlowOut>>;

impl FlowOut {
    fn depth(&mut self, at: SimTime, depth: u64) {
        if depth > self.max_in_flight {
            self.max_in_flight = depth;
            self.probe.record_depth(at, depth);
        }
    }

    pub fn issued(&self) -> u64 {
        self.probe.arrivals.len() as u64
    }

    pub fn completed(&self) -> u64 {
        self.probe.completions.len() as u64
    }
}

/// The messages of one flow: sizes, and for open-loop flows the instant
/// each one is due.
#[derive(Clone)]
pub struct Script {
    flow: u32,
    pub sizes: Rc<[u32]>,
    /// Due instants, ns after the run's start; empty for closed loops.
    due_ns: Rc<[u64]>,
    pad: Pad,
    /// Receive-buffer capacity that fits every message.
    max_size: u32,
}

impl Script {
    pub fn new(flow: u32, sizes: Vec<u32>, due_ns: Vec<u64>, pad: Pad) -> Script {
        let max_size = sizes.iter().copied().max().unwrap_or(0).max(64);
        Script {
            flow,
            sizes: sizes.into(),
            due_ns: due_ns.into(),
            pad,
            max_size,
        }
    }

    fn payload(&self, k: usize) -> &[u8] {
        self.pad.payload(self.flow, k as u64, self.sizes[k])
    }

    pub fn max_size(&self) -> u32 {
        self.max_size
    }
}

/// What the echo server sends back.
#[derive(Clone, Copy)]
pub enum Reply {
    /// The whole request (ping-pong).
    Same,
    /// Its first 16 bytes (request/response).
    Head16,
}

impl Reply {
    fn of(self, request: &[u8]) -> &[u8] {
        match self {
            Reply::Same => request,
            Reply::Head16 => &request[..request.len().min(16)],
        }
    }
}

/// Closed loop: one request outstanding; the next follows the validated
/// reply after `think`. Ends with the script or at `stop_at`.
pub struct EchoClient {
    dst: NodeId,
    dst_port: u8,
    script: Script,
    reply: Reply,
    think: SimDuration,
    stop_at: SimTime,
    next: usize,
    waiting: bool,
    issued_at: SimTime,
    dead: bool,
    out: Out,
}

impl EchoClient {
    pub fn new(
        dst: NodeId,
        dst_port: u8,
        script: Script,
        reply: Reply,
        think: SimDuration,
        stop_at: SimTime,
        out: Out,
    ) -> EchoClient {
        EchoClient {
            dst,
            dst_port,
            script,
            reply,
            think,
            stop_at,
            next: 0,
            waiting: false,
            issued_at: SimTime::ZERO,
            dead: false,
            out,
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if self.dead || self.waiting || now >= self.stop_at || self.next >= self.script.sizes.len()
        {
            return;
        }
        if ctx.send_tokens() == 0 {
            // Every token is held by the NIC (mid-recovery); look again shortly.
            ctx.set_alarm(SimDuration::from_us(10), THINK_TAG);
            return;
        }
        let mut out = self.out.borrow_mut();
        out.probe.record_arrival(now);
        out.depth(now, 1);
        drop(out);
        self.waiting = true;
        self.issued_at = now;
        ctx.gm_send(self.script.payload(self.next), self.dst, self.dst_port);
    }

    fn reply_capacity(&self) -> u32 {
        match self.reply {
            Reply::Same => self.script.max_size(),
            Reply::Head16 => 64,
        }
    }
}

impl App for EchoClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4 {
            ctx.gm_provide_receive_buffer(self.reply_capacity());
        }
        self.issue(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received { data, .. } => {
                ctx.gm_provide_receive_buffer(self.reply_capacity());
                let now = ctx.now();
                let mut out = self.out.borrow_mut();
                if self.waiting && data == self.reply.of(self.script.payload(self.next)) {
                    out.probe
                        .record_completion(now, self.issued_at, self.script.sizes[self.next]);
                    drop(out);
                    self.waiting = false;
                    self.next += 1;
                    if self.think == SimDuration::ZERO {
                        self.issue(ctx);
                    } else {
                        ctx.set_alarm(self.think, THINK_TAG);
                    }
                } else {
                    out.bad_payloads += 1;
                }
            }
            GmEvent::Alarm { tag: THINK_TAG } => self.issue(ctx),
            GmEvent::SendError { .. } => self.out.borrow_mut().probe.send_errors += 1,
            GmEvent::InterfaceDead => {
                self.dead = true;
                self.out.borrow_mut().probe.iface_dead += 1;
            }
            _ => {}
        }
    }
}

/// The far side of [`EchoClient`]: validates each request against the
/// flow's script and answers it.
pub struct EchoServer {
    script: Script,
    reply: Reply,
    next: usize,
    out: Out,
}

impl EchoServer {
    pub fn new(script: Script, reply: Reply, out: Out) -> EchoServer {
        EchoServer {
            script,
            reply,
            next: 0,
            out,
        }
    }
}

impl App for EchoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4 {
            ctx.gm_provide_receive_buffer(self.script.max_size());
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received {
                src_node,
                src_port,
                data,
                ..
            } => {
                ctx.gm_provide_receive_buffer(self.script.max_size());
                let mut out = self.out.borrow_mut();
                let expected =
                    self.next < self.script.sizes.len() && data == self.script.payload(self.next);
                if expected && ctx.send_tokens() > 0 {
                    out.delivered += 1;
                    out.delivered_bytes += data.len() as u64;
                    drop(out);
                    self.next += 1;
                    ctx.gm_send(self.reply.of(&data), src_node, src_port);
                } else {
                    out.bad_payloads += 1;
                }
            }
            GmEvent::SendError { .. } => self.out.borrow_mut().probe.send_errors += 1,
            _ => {}
        }
    }
}

/// One-way receiver: validates every delivery against the flow's script,
/// in order, and keeps the receive ring fed.
pub struct Sink {
    script: Script,
    buffers: u32,
    next: usize,
    out: Out,
}

impl Sink {
    pub fn new(script: Script, buffers: u32, out: Out) -> Sink {
        Sink {
            script,
            buffers,
            next: 0,
            out,
        }
    }
}

impl App for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.buffers.min(ctx.recv_tokens()) {
            ctx.gm_provide_receive_buffer(self.script.max_size());
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Received { data, .. } = ev {
            ctx.gm_provide_receive_buffer(self.script.max_size());
            let mut out = self.out.borrow_mut();
            if self.next < self.script.sizes.len() && data == self.script.payload(self.next) {
                out.delivered += 1;
                out.delivered_bytes += data.len() as u64;
                self.next += 1;
            } else {
                out.bad_payloads += 1;
            }
        }
    }
}

/// Shared by the two one-way senders: posts script messages in order
/// and times each completion from the instant it was due.
struct Poster {
    dst: NodeId,
    dst_port: u8,
    script: Script,
    /// Next script index to post.
    next: usize,
    /// Token → (script index, due instant) of posted, uncompleted sends.
    posted: BTreeMap<u64, (usize, SimTime)>,
    dead: bool,
    out: Out,
}

impl Poster {
    fn post(&mut self, ctx: &mut Ctx<'_>, due: SimTime) {
        let k = self.next;
        self.next += 1;
        let token = ctx.gm_send(self.script.payload(k), self.dst, self.dst_port);
        self.posted.insert(token, (k, due));
    }

    /// Handles the events both senders treat alike; returns `true` when a
    /// send token came back.
    fn on_event(&mut self, ctx: &Ctx<'_>, ev: &GmEvent) -> bool {
        match *ev {
            GmEvent::SentOk { token_id } => {
                if let Some((k, due)) = self.posted.remove(&token_id) {
                    self.out.borrow_mut().probe.record_completion(
                        ctx.now(),
                        due,
                        self.script.sizes[k],
                    );
                }
                true
            }
            GmEvent::SendError { token_id } => {
                self.posted.remove(&token_id);
                self.out.borrow_mut().probe.send_errors += 1;
                true
            }
            GmEvent::InterfaceDead => {
                self.dead = true;
                self.out.borrow_mut().probe.iface_dead += 1;
                false
            }
            _ => false,
        }
    }
}

/// Open loop: messages become due on the script's clock whatever the
/// completions do; one that finds no send token waits in a backlog, and
/// its latency still counts from the due instant.
pub struct OpenSender {
    poster: Poster,
    t0: SimTime,
    /// Script messages whose due instant has passed.
    arrived: usize,
}

impl OpenSender {
    pub fn new(dst: NodeId, dst_port: u8, script: Script, t0: SimTime, out: Out) -> OpenSender {
        OpenSender {
            poster: Poster {
                dst,
                dst_port,
                script,
                next: 0,
                posted: BTreeMap::new(),
                dead: false,
                out,
            },
            t0,
            arrived: 0,
        }
    }

    fn due(&self, k: usize) -> SimTime {
        self.t0 + SimDuration::from_nanos(self.poster.script.due_ns[k])
    }

    fn arm(&self, ctx: &mut Ctx<'_>) {
        if self.arrived < self.poster.script.due_ns.len() {
            let gap = self.due(self.arrived).saturating_since(ctx.now());
            ctx.set_alarm(gap, ARRIVAL_TAG);
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while self.poster.next < self.arrived && ctx.send_tokens() > 0 {
            let due = self.due(self.poster.next);
            self.poster
                .out
                .borrow_mut()
                .late
                .record(now.saturating_since(due));
            self.poster.post(ctx, due);
        }
        let depth = (self.poster.posted.len() + self.arrived - self.poster.next) as u64;
        self.poster.out.borrow_mut().depth(now, depth);
    }
}

impl App for OpenSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Alarm { tag: ARRIVAL_TAG } = ev {
            if self.poster.dead {
                return;
            }
            self.poster.out.borrow_mut().probe.record_arrival(ctx.now());
            self.arrived += 1;
            self.pump(ctx);
            self.arm(ctx);
        } else if self.poster.on_event(ctx, &ev) {
            self.pump(ctx);
        }
    }
}

/// Closed loop with a window: keeps `depth` sends outstanding until
/// `stop_at` (or the script's end), the way `gm_allsize` streams.
pub struct WindowSender {
    poster: Poster,
    depth: usize,
    stop_at: SimTime,
}

impl WindowSender {
    pub fn new(
        dst: NodeId,
        dst_port: u8,
        script: Script,
        depth: usize,
        stop_at: SimTime,
        out: Out,
    ) -> WindowSender {
        WindowSender {
            poster: Poster {
                dst,
                dst_port,
                script,
                next: 0,
                posted: BTreeMap::new(),
                dead: false,
                out,
            },
            depth,
            stop_at,
        }
    }

    fn fill(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while !self.poster.dead
            && now < self.stop_at
            && self.poster.posted.len() < self.depth
            && self.poster.next < self.poster.script.sizes.len()
            && ctx.send_tokens() > 0
        {
            self.poster.out.borrow_mut().probe.record_arrival(now);
            self.poster.post(ctx, now);
        }
        let depth = self.poster.posted.len() as u64;
        self.poster.out.borrow_mut().depth(now, depth);
    }
}

impl App for WindowSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.fill(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if self.poster.on_event(ctx, &ev) {
            self.fill(ctx);
        }
    }
}
