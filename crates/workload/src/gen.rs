//! Generator apps: the open-loop sender and the closed-loop client.
//!
//! Every payload is a [`pattern_message`], so the responders the driver
//! spawns ([`ftgm_gm::apps::PatternReceiver`] and
//! [`ftgm_gm::apps::RpcServer`]) check every delivery.
//!
//! All randomness flows through a per-flow [`SimRng`] seeded from the
//! spec's master seed, so a `(spec, seed)` pair replays bit-for-bit.
//! The apps never panic on the recovery path: sends are gated on
//! available tokens (excess arrivals queue in a backlog), and malformed
//! responses are counted rather than asserted on.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use ftgm_gm::apps::{pattern_index, pattern_message};
use ftgm_gm::{App, Ctx, GmEvent};
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimRng, SimTime};

use crate::slo::FlowProbe;
use crate::spec::{Arrival, SizeMix};

/// Alarm tag used for open-loop arrival ticks.
pub const ARRIVAL_TAG: u64 = 0xA11A;
/// Alarm tag used for closed-loop think-time expiry.
pub const THINK_TAG: u64 = 0x7417;

/// Open-loop generator: offers messages on an [`Arrival`] clock
/// regardless of completions. Arrivals that find no free send token
/// queue in a backlog and drain as tokens return, so offered load keeps
/// accumulating straight through a NIC hang — exactly the pressure the
/// recovery-under-load benchmark needs.
pub struct OpenLoopSender {
    dst: NodeId,
    dst_port: u8,
    sizes: SizeMix,
    arrival: Arrival,
    rng: SimRng,
    stop_at: SimTime,
    probe: Rc<RefCell<FlowProbe>>,
    backlog: VecDeque<(SimTime, u32)>,
    posted: BTreeMap<u64, (SimTime, u32)>,
    next_idx: u64,
    dead: bool,
}

impl OpenLoopSender {
    /// A sender towards `dst:dst_port` that offers load until `stop_at`.
    pub fn new(
        dst: NodeId,
        dst_port: u8,
        sizes: SizeMix,
        arrival: Arrival,
        rng: SimRng,
        stop_at: SimTime,
        probe: Rc<RefCell<FlowProbe>>,
    ) -> OpenLoopSender {
        OpenLoopSender {
            dst,
            dst_port,
            sizes,
            arrival,
            rng,
            stop_at,
            probe,
            backlog: VecDeque::new(),
            posted: BTreeMap::new(),
            next_idx: 0,
            dead: false,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while ctx.send_tokens() > 0 {
            let Some((offered, size)) = self.backlog.pop_front() else {
                break;
            };
            let payload = pattern_message(self.next_idx, size);
            self.next_idx += 1;
            let token = ctx.gm_send(&payload, self.dst, self.dst_port);
            self.posted.insert(token, (offered, size));
        }
        let depth = (self.posted.len() + self.backlog.len()) as u64;
        self.probe.borrow_mut().record_depth(ctx.now(), depth);
    }
}

impl App for OpenLoopSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_alarm(self.arrival.next_gap(&mut self.rng), ARRIVAL_TAG);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Alarm { tag: ARRIVAL_TAG } => {
                let now = ctx.now();
                if self.dead || now >= self.stop_at {
                    return;
                }
                let size = self.sizes.sample(&mut self.rng);
                self.probe.borrow_mut().record_arrival(now);
                self.backlog.push_back((now, size));
                self.pump(ctx);
                ctx.set_alarm(self.arrival.next_gap(&mut self.rng), ARRIVAL_TAG);
            }
            GmEvent::SentOk { token_id } => {
                if let Some((offered, size)) = self.posted.remove(&token_id) {
                    self.probe
                        .borrow_mut()
                        .record_completion(ctx.now(), offered, size);
                }
                self.pump(ctx);
            }
            GmEvent::SendError { token_id } => {
                self.posted.remove(&token_id);
                self.probe.borrow_mut().send_errors += 1;
                self.pump(ctx);
            }
            GmEvent::InterfaceDead => {
                self.dead = true;
                self.probe.borrow_mut().iface_dead += 1;
            }
            _ => {}
        }
    }
}

/// Closed-loop request/response client: one outstanding request, a
/// think-time pause between a response and the next request. Pairs with
/// [`ftgm_gm::apps::RpcServer`], which answers request `id` with the
/// 16-byte pattern message `id * 2`. A response that fails that check
/// counts in `bad_responses` and ends the request like a good one.
pub struct ClosedLoopClient {
    dst: NodeId,
    dst_port: u8,
    sizes: SizeMix,
    think: SimDuration,
    rng: SimRng,
    stop_at: SimTime,
    probe: Rc<RefCell<FlowProbe>>,
    next_id: u64,
    want_id: Option<u64>,
    issued_at: SimTime,
    req_bytes: u32,
    dead: bool,
}

impl ClosedLoopClient {
    /// A client of the RPC server at `dst:dst_port`, issuing until
    /// `stop_at`.
    pub fn new(
        dst: NodeId,
        dst_port: u8,
        sizes: SizeMix,
        think: SimDuration,
        rng: SimRng,
        stop_at: SimTime,
        probe: Rc<RefCell<FlowProbe>>,
    ) -> ClosedLoopClient {
        ClosedLoopClient {
            dst,
            dst_port,
            sizes,
            think,
            rng,
            stop_at,
            probe,
            next_id: 1,
            want_id: None,
            issued_at: SimTime::ZERO,
            req_bytes: 0,
            dead: false,
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if self.dead || now >= self.stop_at {
            return;
        }
        if ctx.send_tokens() == 0 {
            // All tokens tied up (e.g. mid-recovery); retry shortly.
            ctx.set_alarm(SimDuration::from_us(10), THINK_TAG);
            return;
        }
        let size = self.sizes.sample(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        let req = pattern_message(id, size);
        self.probe.borrow_mut().record_arrival(now);
        self.want_id = Some(id.wrapping_mul(2));
        self.issued_at = now;
        self.req_bytes = size;
        ctx.gm_send(&req, self.dst, self.dst_port);
        self.probe.borrow_mut().record_depth(now, 1);
    }
}

impl App for ClosedLoopClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4u32.min(ctx.recv_tokens()) {
            ctx.gm_provide_receive_buffer(64);
        }
        self.issue(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received { data, .. } => {
                ctx.gm_provide_receive_buffer(64);
                let mut probe = self.probe.borrow_mut();
                let Some(want) = self.want_id.take() else {
                    probe.bad_responses += 1;
                    return;
                };
                let now = ctx.now();
                if pattern_index(&data) == Some(want) {
                    probe.record_completion(now, self.issued_at, self.req_bytes);
                } else {
                    probe.bad_responses += 1;
                }
                probe.record_depth(now, 0);
                drop(probe);
                if self.think == SimDuration::ZERO {
                    self.issue(ctx);
                } else {
                    ctx.set_alarm(self.think, THINK_TAG);
                }
            }
            GmEvent::Alarm { tag: THINK_TAG } if self.want_id.is_none() => self.issue(ctx),
            GmEvent::SendError { .. } => {
                self.probe.borrow_mut().send_errors += 1;
                // The request is gone; give the interface a beat and retry.
                self.want_id = None;
                ctx.set_alarm(self.think.max(SimDuration::from_us(1)), THINK_TAG);
            }
            GmEvent::InterfaceDead => {
                self.dead = true;
                self.probe.borrow_mut().iface_dead += 1;
            }
            _ => {}
        }
    }
}
