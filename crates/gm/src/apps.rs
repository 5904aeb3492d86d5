//! Reusable GM workloads.
//!
//! These are models of the measurement programs the paper used:
//!
//! * [`Pinger`]/[`Echoer`] — the repetitive "ping-pong" exchange behind
//!   Figure 8's half-round-trip latency curves,
//! * [`Streamer`] — the `gm_allsize`-style bidirectional maximum-rate
//!   workload behind Figure 7's bandwidth curves,
//! * [`PatternSender`]/[`PatternReceiver`] — continuously validated
//!   traffic used by the fault-injection campaigns (Table 1, §5.2): every
//!   message carries a deterministic pattern, so silent corruption,
//!   duplication, loss and reordering are all observable,
//! * [`RpcServer`] — the responder of closed-loop request/response
//!   clients; requests and replies are pattern messages too, checked by
//!   the same [`pattern_index`].
//!
//! All workloads expose their measurements through shared
//! `Rc<RefCell<…>>` stats handles, readable after the simulation runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ftgm_net::NodeId;
use ftgm_sim::metrics::bytes_per_sec;
use ftgm_sim::{Samples, SimDuration, SimTime};

use crate::world::{App, Ctx, GmEvent};

// ---------------------------------------------------------------------------
// Ping-pong (Figure 8)
// ---------------------------------------------------------------------------

/// Results of a ping-pong run. Latency statistics come from the shared
/// [`Samples`] series, so quantiles behave identically across every
/// workload in the workspace.
#[derive(Clone, Debug, Default)]
pub struct PingPongStats {
    /// Round-trip time of every measured iteration.
    pub rtts: Samples,
    /// Whether the configured iteration count completed.
    pub done: bool,
}

impl PingPongStats {
    /// Mean half round-trip (the paper's one-way latency metric).
    pub fn mean_half_rtt(&self) -> Option<SimDuration> {
        self.rtts
            .mean()
            .map(|m| SimDuration::from_nanos(m.as_nanos() / 2))
    }
}

/// The active side of the ping-pong pair.
pub struct Pinger {
    peer: NodeId,
    peer_port: u8,
    size: u32,
    warmup: u32,
    iters: u32,
    sent_at: SimTime,
    completed: u32,
    stats: Rc<RefCell<PingPongStats>>,
}

impl Pinger {
    /// Pings `peer:peer_port` with `size`-byte messages: `warmup` unmeasured
    /// iterations, then `iters` measured ones.
    pub fn new(
        peer: NodeId,
        peer_port: u8,
        size: u32,
        warmup: u32,
        iters: u32,
        stats: Rc<RefCell<PingPongStats>>,
    ) -> Pinger {
        Pinger {
            peer,
            peer_port,
            size,
            warmup,
            iters,
            sent_at: SimTime::ZERO,
            completed: 0,
            stats,
        }
    }

    fn ping(&mut self, ctx: &mut Ctx<'_>) {
        self.sent_at = ctx.now();
        let data = vec![0x5A; self.size as usize];
        ctx.gm_send(&data, self.peer, self.peer_port);
    }
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..2 {
            ctx.gm_provide_receive_buffer(self.size.max(64));
        }
        self.ping(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Received { .. } = ev {
            ctx.gm_provide_receive_buffer(self.size.max(64));
            let rtt = ctx.now() - self.sent_at;
            if self.completed >= self.warmup {
                self.stats.borrow_mut().rtts.record(rtt);
            }
            self.completed += 1;
            if self.completed < self.warmup + self.iters {
                self.ping(ctx);
            } else {
                self.stats.borrow_mut().done = true;
            }
        }
    }
}

/// The passive side of the ping-pong pair: echoes everything back.
pub struct Echoer {
    buffer_size: u32,
}

impl Echoer {
    /// An echoer with receive buffers of `buffer_size` bytes.
    pub fn new(buffer_size: u32) -> Echoer {
        Echoer { buffer_size }
    }
}

impl App for Echoer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4 {
            ctx.gm_provide_receive_buffer(self.buffer_size);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Received {
            src_node,
            src_port,
            data,
            ..
        } = ev
        {
            ctx.gm_provide_receive_buffer(self.buffer_size);
            ctx.gm_send(&data, src_node, src_port);
        }
    }
}

// ---------------------------------------------------------------------------
// Allsize streamer (Figure 7)
// ---------------------------------------------------------------------------

/// Results of a streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamerStats {
    /// Messages received inside the measurement window.
    pub received_msgs: u64,
    /// Bytes received inside the measurement window.
    pub received_bytes: u64,
    /// When measurement started (after the warmup alarm).
    pub window_start: Option<SimTime>,
    /// Messages sent (total, including warmup).
    pub sent_msgs: u64,
    /// Send errors observed.
    pub send_errors: u64,
}

impl StreamerStats {
    /// Received data rate in MB/s over the window ending at `now`
    /// (computed from the shared integer goodput helper so every report
    /// rounds identically).
    pub fn rate_mb_s(&self, now: SimTime) -> f64 {
        match self.window_start {
            Some(t0) if now > t0 => bytes_per_sec(self.received_bytes, now - t0) as f64 / 1e6,
            _ => 0.0,
        }
    }
}

const WARMUP_ALARM: u64 = 0xA11;

/// One side of the `gm_allsize` workload: keeps `pipeline` sends of `size`
/// bytes outstanding toward the peer while receiving at maximum rate.
pub struct Streamer {
    peer: NodeId,
    peer_port: u8,
    size: u32,
    pipeline: u32,
    warmup: SimDuration,
    stats: Rc<RefCell<StreamerStats>>,
    measuring: bool,
}

impl Streamer {
    /// Creates a streamer; measurement starts after `warmup`.
    pub fn new(
        peer: NodeId,
        peer_port: u8,
        size: u32,
        pipeline: u32,
        warmup: SimDuration,
        stats: Rc<RefCell<StreamerStats>>,
    ) -> Streamer {
        Streamer {
            peer,
            peer_port,
            size,
            pipeline,
            warmup,
            stats,
            measuring: false,
        }
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_>) {
        let data = vec![0xC3; self.size as usize];
        ctx.gm_send(&data, self.peer, self.peer_port);
        self.stats.borrow_mut().sent_msgs += 1;
    }
}

impl App for Streamer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let bufs = (self.pipeline + 4).min(ctx.recv_tokens());
        for _ in 0..bufs {
            ctx.gm_provide_receive_buffer(self.size.max(64));
        }
        for _ in 0..self.pipeline.min(ctx.send_tokens()) {
            self.send_one(ctx);
        }
        ctx.set_alarm(self.warmup, WARMUP_ALARM);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received { len, .. } => {
                ctx.gm_provide_receive_buffer(self.size.max(64));
                if self.measuring {
                    let mut s = self.stats.borrow_mut();
                    s.received_msgs += 1;
                    s.received_bytes += len as u64;
                }
            }
            GmEvent::SentOk { .. } => {
                self.send_one(ctx);
            }
            GmEvent::SendError { .. } => {
                self.stats.borrow_mut().send_errors += 1;
            }
            GmEvent::Alarm { tag } if tag == WARMUP_ALARM => {
                self.measuring = true;
                self.stats.borrow_mut().window_start = Some(ctx.now());
            }
            GmEvent::Alarm { .. } => {}
            GmEvent::InterfaceDead => {
                // Escalation: the interface will not come back; stop
                // pushing (the outstanding sends already arrived as
                // SendError and were counted above).
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Validated pattern traffic (fault campaigns)
// ---------------------------------------------------------------------------

/// Deterministic message pattern: byte `i` of message `idx`.
fn pattern_byte(idx: u64, i: usize) -> u8 {
    (idx.wrapping_mul(131).wrapping_add(i as u64 * 7).wrapping_add(13) % 251) as u8
}

/// Builds the payload of message `idx` (first 8 bytes carry `idx`).
pub fn pattern_message(idx: u64, size: u32) -> Vec<u8> {
    assert!(size >= 8, "pattern messages need at least 8 bytes");
    let mut data = vec![0u8; size as usize];
    data[..8].copy_from_slice(&idx.to_le_bytes());
    for (i, b) in data.iter_mut().enumerate().skip(8) {
        *b = pattern_byte(idx, i);
    }
    data
}

/// The index a payload claims in its first 8 bytes; `None` when it is
/// shorter.
fn claimed_index(data: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(data.get(..8)?.try_into().ok()?))
}

/// The index of a [`pattern_message`]: `Some(idx)` when every byte of
/// `data` matches message `idx`'s pattern, `None` for a payload that is
/// short or damaged anywhere.
pub fn pattern_index(data: &[u8]) -> Option<u64> {
    let idx = claimed_index(data)?;
    data.iter()
        .enumerate()
        .skip(8)
        .all(|(i, &b)| b == pattern_byte(idx, i))
        .then_some(idx)
}

/// Ground-truth observations of the validated traffic pair.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    /// Messages posted by the sender.
    pub sent: u64,
    /// Send completions.
    pub completed: u64,
    /// Send errors (retry exhaustion — how GM surfaces a dead peer).
    pub send_errors: u64,
    /// Messages received with a fully valid pattern.
    pub received_ok: u64,
    /// Messages received with corrupted contents.
    pub received_corrupt: u64,
    /// Messages received out of order or duplicated (index not strictly
    /// increasing per source).
    pub misordered: u64,
    /// Highest valid message index received, if any.
    pub last_idx: Option<u64>,
    /// `InterfaceDead` escalation events observed (either side).
    pub iface_dead: u64,
    /// When the most recent valid message arrived (ns since start; 0 =
    /// none yet — real deliveries always land after t=0).
    pub last_ok_at_ns: u64,
    /// Longest gap between consecutive valid deliveries (ns). This is
    /// the receiver-observed *blackout*: the window during which a fault
    /// plus its recovery starved the flow.
    pub max_gap_ns: u64,
}

impl TrafficStats {
    /// `true` if every expected delivery guarantee held: nothing corrupt,
    /// nothing misordered, no send errors, no escalation.
    pub fn clean(&self) -> bool {
        self.received_corrupt == 0
            && self.misordered == 0
            && self.send_errors == 0
            && self.iface_dead == 0
    }
}

/// Sends an endless stream of validated pattern messages.
pub struct PatternSender {
    peer: NodeId,
    peer_port: u8,
    size: u32,
    pipeline: u32,
    next_idx: u64,
    limit: Option<u64>,
    stats: Rc<RefCell<TrafficStats>>,
}

impl PatternSender {
    /// Streams `size`-byte validated messages to `peer:peer_port`,
    /// `pipeline` at a time; stops after `limit` messages if given.
    pub fn new(
        peer: NodeId,
        peer_port: u8,
        size: u32,
        pipeline: u32,
        limit: Option<u64>,
        stats: Rc<RefCell<TrafficStats>>,
    ) -> PatternSender {
        PatternSender {
            peer,
            peer_port,
            size,
            pipeline,
            next_idx: 0,
            limit,
            stats,
        }
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(limit) = self.limit {
            if self.next_idx >= limit {
                return;
            }
        }
        let data = pattern_message(self.next_idx, self.size);
        self.next_idx += 1;
        ctx.gm_send(&data, self.peer, self.peer_port);
        self.stats.borrow_mut().sent += 1;
    }
}

impl App for PatternSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.pipeline.min(ctx.send_tokens()) {
            self.send_next(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::SentOk { .. } => {
                self.stats.borrow_mut().completed += 1;
                self.send_next(ctx);
            }
            GmEvent::SendError { .. } => {
                self.stats.borrow_mut().send_errors += 1;
                // GM middleware treats this as fatal; we keep counting but
                // stop pushing new traffic on this token.
            }
            GmEvent::InterfaceDead => {
                self.stats.borrow_mut().iface_dead += 1;
            }
            _ => {}
        }
    }
}

/// Receives and validates pattern messages. Ordering is tracked per
/// `(src_node, src_port)`, so several senders can share one receiver.
pub struct PatternReceiver {
    buffer_size: u32,
    buffers: u32,
    stats: Rc<RefCell<TrafficStats>>,
    last_idx: BTreeMap<(NodeId, u8), u64>,
}

impl PatternReceiver {
    /// Provides `buffers` receive buffers of `buffer_size` bytes.
    pub fn new(buffer_size: u32, buffers: u32, stats: Rc<RefCell<TrafficStats>>) -> PatternReceiver {
        PatternReceiver {
            buffer_size,
            buffers,
            stats,
            last_idx: BTreeMap::new(),
        }
    }
}

impl App for PatternReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.buffers.min(ctx.recv_tokens()) {
            ctx.gm_provide_receive_buffer(self.buffer_size);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::InterfaceDead = ev {
            self.stats.borrow_mut().iface_dead += 1;
            return;
        }
        if let GmEvent::Received {
            src_node,
            src_port,
            data,
            ..
        } = ev
        {
            ctx.gm_provide_receive_buffer(self.buffer_size);
            let mut s = self.stats.borrow_mut();
            // A corrupted index field also shows up as a wildly wrong
            // pattern, so ordering is checked only for valid data.
            let Some(idx) = pattern_index(&data) else {
                s.received_corrupt += 1;
                return;
            };
            match self.last_idx.get(&(src_node, src_port)) {
                Some(&last) if idx <= last => s.misordered += 1,
                _ => {
                    self.last_idx.insert((src_node, src_port), idx);
                    s.last_idx = Some(s.last_idx.map_or(idx, |l| l.max(idx)));
                    s.received_ok += 1;
                    let now = ctx.now().as_nanos();
                    if s.last_ok_at_ns != 0 {
                        let gap = now.saturating_sub(s.last_ok_at_ns);
                        s.max_gap_ns = s.max_gap_ns.max(gap);
                    }
                    s.last_ok_at_ns = now;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    #[test]
    fn pattern_roundtrip_validates() {
        let mut m = pattern_message(42, 256);
        assert_eq!(pattern_index(&m), Some(42));
        assert_eq!(pattern_index(&m[..7]), None);
        m[200] ^= 1;
        assert_eq!(pattern_index(&m), None);
    }

    #[test]
    fn pingpong_measures_latency() {
        for config in [WorldConfig::gm(), WorldConfig::ftgm()] {
            let mut w = World::two_node(config);
            let stats = Rc::new(RefCell::new(PingPongStats::default()));
            w.spawn_app(NodeId(1), 2, Box::new(Echoer::new(4096)));
            w.spawn_app(
                NodeId(0),
                0,
                Box::new(Pinger::new(NodeId(1), 2, 64, 5, 20, stats.clone())),
            );
            w.run_for(SimDuration::from_ms(100));
            let s = stats.borrow();
            assert!(s.done, "pingpong finished");
            assert_eq!(s.rtts.len(), 20);
            let half = s.mean_half_rtt().unwrap().as_micros_f64();
            assert!(
                (3.0..40.0).contains(&half),
                "half-RTT out of plausible range: {half}us"
            );
        }
    }

    #[test]
    fn ftgm_pingpong_slower_than_gm() {
        let mut halves = Vec::new();
        for config in [WorldConfig::gm(), WorldConfig::ftgm()] {
            let mut w = World::two_node(config);
            let stats = Rc::new(RefCell::new(PingPongStats::default()));
            w.spawn_app(NodeId(1), 2, Box::new(Echoer::new(4096)));
            w.spawn_app(
                NodeId(0),
                0,
                Box::new(Pinger::new(NodeId(1), 2, 64, 5, 50, stats.clone())),
            );
            w.run_for(SimDuration::from_ms(100));
            halves.push(stats.borrow().mean_half_rtt().unwrap());
        }
        assert!(halves[1] > halves[0], "FTGM must cost a little: {halves:?}");
        let delta = (halves[1] - halves[0]).as_micros_f64();
        assert!(delta < 4.0, "FTGM delta too large: {delta}us");
    }

    #[test]
    fn streamer_moves_data_bidirectionally() {
        let mut w = World::two_node(WorldConfig::gm());
        let s0 = Rc::new(RefCell::new(StreamerStats::default()));
        let s1 = Rc::new(RefCell::new(StreamerStats::default()));
        let warm = SimDuration::from_ms(2);
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(Streamer::new(NodeId(1), 1, 4096, 8, warm, s0.clone())),
        );
        w.spawn_app(
            NodeId(1),
            1,
            Box::new(Streamer::new(NodeId(0), 0, 4096, 8, warm, s1.clone())),
        );
        w.run_for(SimDuration::from_ms(30));
        let now = w.now();
        for s in [&s0, &s1] {
            let s = s.borrow();
            assert!(s.received_msgs > 100, "msgs: {}", s.received_msgs);
            let rate = s.rate_mb_s(now);
            assert!((20.0..260.0).contains(&rate), "rate {rate} MB/s");
            assert_eq!(s.send_errors, 0);
        }
    }

    #[test]
    fn validated_traffic_is_clean_without_faults() {
        for config in [WorldConfig::gm(), WorldConfig::ftgm()] {
            let mut w = World::two_node(config);
            let stats = Rc::new(RefCell::new(TrafficStats::default()));
            w.spawn_app(
                NodeId(1),
                2,
                Box::new(PatternReceiver::new(512, 16, stats.clone())),
            );
            w.spawn_app(
                NodeId(0),
                0,
                Box::new(PatternSender::new(NodeId(1), 2, 256, 8, Some(200), stats.clone())),
            );
            w.run_for(SimDuration::from_ms(200));
            let s = stats.borrow();
            assert_eq!(s.sent, 200);
            assert_eq!(s.completed, 200);
            assert_eq!(s.received_ok, 200);
            assert!(s.clean(), "{s:?}");
        }
    }

    #[test]
    fn two_senders_share_one_receiver_in_order() {
        let mut w = World::two_node(WorldConfig::ftgm());
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(512, 16, stats.clone())),
        );
        for port in [0, 1] {
            w.spawn_app(
                NodeId(0),
                port,
                Box::new(PatternSender::new(NodeId(1), 2, 256, 8, Some(100), stats.clone())),
            );
        }
        w.run_for(SimDuration::from_ms(100));
        let s = stats.borrow();
        assert_eq!((s.sent, s.received_ok), (200, 200), "{s:?}");
        assert_eq!(s.last_idx, Some(99));
        assert!(s.clean(), "{s:?}");
    }
}

// ---------------------------------------------------------------------------
// Request/response RPC (service availability workloads)
// ---------------------------------------------------------------------------

/// The server of closed-loop request/response clients: answers each
/// request `id` with the 16-byte `pattern_message(id * 2, 16)`.
/// Requests that fail the pattern check count in the stats'
/// `received_corrupt`; one whose id is still readable is answered
/// anyway, so a damaged body never stalls its client.
pub struct RpcServer {
    buffer_size: u32,
    stats: Rc<RefCell<TrafficStats>>,
}

impl RpcServer {
    /// A server accepting requests up to `buffer_size` bytes.
    pub fn new(buffer_size: u32, stats: Rc<RefCell<TrafficStats>>) -> RpcServer {
        RpcServer { buffer_size, stats }
    }
}

impl App for RpcServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..8 {
            ctx.gm_provide_receive_buffer(self.buffer_size);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Received {
            src_node,
            src_port,
            data,
            ..
        } = ev
        {
            ctx.gm_provide_receive_buffer(self.buffer_size);
            let checked = pattern_index(&data);
            if checked.is_none() {
                self.stats.borrow_mut().received_corrupt += 1;
            }
            // A request too short to carry an id gets no reply.
            let Some(id) = checked.or_else(|| claimed_index(&data)) else {
                return;
            };
            ctx.gm_send(&pattern_message(id.wrapping_mul(2), 16), src_node, src_port);
        }
    }
}

#[cfg(test)]
mod rpc_tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    /// Sends `payloads` to node 1 port 2 at start and keeps every reply.
    struct RawRequests {
        payloads: Vec<Vec<u8>>,
        replies: Rc<RefCell<Vec<Vec<u8>>>>,
    }

    impl App for RawRequests {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for p in &self.payloads {
                ctx.gm_provide_receive_buffer(64);
                ctx.gm_send(p, NodeId(1), 2);
            }
        }

        fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: GmEvent) {
            if let GmEvent::Received { data, .. } = ev {
                self.replies.borrow_mut().push(data);
            }
        }
    }

    #[test]
    fn malformed_payloads_are_dropped_or_counted_not_panics() {
        // A 4-byte request carries no id and gets no reply; a damaged
        // body with a readable id is counted and still answered, and
        // the largest id doubles with wrap-around.
        let mut w = World::two_node(WorldConfig::ftgm());
        let replies = Rc::new(RefCell::new(Vec::new()));
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(NodeId(1), 2, Box::new(RpcServer::new(64, stats.clone())));
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(RawRequests {
                payloads: vec![
                    vec![1, 2, 3, 4],
                    u64::MAX.to_le_bytes().repeat(2),
                    pattern_message(7, 32),
                ],
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_ms(5));
        let got = replies.borrow();
        let ids: Vec<Option<u64>> = got.iter().map(|r| pattern_index(r)).collect();
        assert_eq!(ids, [Some(u64::MAX.wrapping_mul(2)), Some(14)]);
        assert_eq!(stats.borrow().received_corrupt, 2);
    }
}
