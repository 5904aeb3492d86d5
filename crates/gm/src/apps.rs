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
//!   duplication, loss and reordering are all observable.
//!
//! All workloads expose their measurements through shared
//! `Rc<RefCell<…>>` stats handles, readable after the simulation runs.

use std::cell::RefCell;
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
    /// increasing).
    pub misordered: u64,
    /// Highest message index received, if any.
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

/// Receives and validates pattern messages.
pub struct PatternReceiver {
    buffer_size: u32,
    buffers: u32,
    stats: Rc<RefCell<TrafficStats>>,
}

impl PatternReceiver {
    /// Provides `buffers` receive buffers of `buffer_size` bytes.
    pub fn new(buffer_size: u32, buffers: u32, stats: Rc<RefCell<TrafficStats>>) -> PatternReceiver {
        PatternReceiver {
            buffer_size,
            buffers,
            stats,
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
        if let GmEvent::Received { data, .. } = ev {
            ctx.gm_provide_receive_buffer(self.buffer_size);
            let mut s = self.stats.borrow_mut();
            if data.len() < 8 {
                s.received_corrupt += 1;
                return;
            }
            let idx = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
            let expected_ok = data
                .iter()
                .enumerate()
                .skip(8)
                .all(|(i, &b)| b == pattern_byte(idx, i));
            // Plausibility: a corrupted index field also shows up as a
            // wildly wrong pattern, so check ordering only for valid data.
            if !expected_ok {
                s.received_corrupt += 1;
                return;
            }
            match s.last_idx {
                Some(last) if idx <= last => s.misordered += 1,
                _ => {
                    s.last_idx = Some(idx);
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
        let m = pattern_message(42, 256);
        assert_eq!(u64::from_le_bytes(m[..8].try_into().unwrap()), 42);
        assert!(m.iter().enumerate().skip(8).all(|(i, &b)| b == pattern_byte(42, i)));
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
}

// ---------------------------------------------------------------------------
// Request/response RPC (service availability workloads)
// ---------------------------------------------------------------------------

/// Latency observations of the RPC client. Quantiles delegate to the
/// shared [`Samples`] implementation (nearest-rank, `None` when empty).
#[derive(Clone, Debug, Default)]
pub struct RpcStats {
    /// Completed request→response round trips, in issue order.
    pub latencies: Samples,
    /// Requests issued.
    pub issued: u64,
    /// Responses whose payload failed validation.
    pub bad_responses: u64,
}

impl RpcStats {
    /// The `q`-quantile (0.0–1.0) of completed latencies.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        self.latencies.quantile(q)
    }

    /// Longest observed round trip.
    pub fn max(&self) -> Option<SimDuration> {
        self.latencies.max()
    }
}

/// A closed-loop RPC client: issues the next request when the previous
/// response arrives (requests carry an id; responses echo it doubled).
pub struct RpcClient {
    server: NodeId,
    server_port: u8,
    request_size: u32,
    next_id: u64,
    sent_at: SimTime,
    stats: Rc<RefCell<RpcStats>>,
}

impl RpcClient {
    /// A client of `server:server_port` sending `request_size`-byte
    /// requests.
    pub fn new(
        server: NodeId,
        server_port: u8,
        request_size: u32,
        stats: Rc<RefCell<RpcStats>>,
    ) -> RpcClient {
        RpcClient {
            server,
            server_port,
            request_size: request_size.max(16),
            next_id: 1,
            sent_at: SimTime::ZERO,
            stats,
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let mut req = vec![0u8; self.request_size as usize];
        req[..8].copy_from_slice(&self.next_id.to_le_bytes());
        self.sent_at = ctx.now();
        self.stats.borrow_mut().issued += 1;
        ctx.gm_send(&req, self.server, self.server_port);
        self.next_id += 1;
    }
}

impl App for RpcClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4 {
            ctx.gm_provide_receive_buffer(self.request_size.max(64));
        }
        self.issue(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        if let GmEvent::Received { data, .. } = ev {
            ctx.gm_provide_receive_buffer(self.request_size.max(64));
            let rtt = ctx.now() - self.sent_at;
            let want = (self.next_id - 1).wrapping_mul(2);
            let mut s = self.stats.borrow_mut();
            if read_id(&data) == Some(want) {
                s.latencies.record(rtt);
            } else {
                s.bad_responses += 1;
            }
            drop(s);
            self.issue(ctx);
        }
    }
}

/// The RPC server: echoes each request with its id doubled.
pub struct RpcServer {
    buffer_size: u32,
}

impl RpcServer {
    /// A server accepting requests up to `buffer_size` bytes.
    pub fn new(buffer_size: u32) -> RpcServer {
        RpcServer { buffer_size }
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
            // A request too short to carry an id gets no reply.
            let Some(id) = read_id(&data) else { return };
            let mut resp = vec![0u8; 16];
            resp[..8].copy_from_slice(&id.wrapping_mul(2).to_le_bytes());
            ctx.gm_send(&resp, src_node, src_port);
        }
    }
}

/// The little-endian request id in a payload's first 8 bytes; `None`
/// when the payload is shorter.
fn read_id(data: &[u8]) -> Option<u64> {
    data.get(..8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
}

#[cfg(test)]
mod rpc_tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    #[test]
    fn closed_loop_rpc_measures_latency() {
        let mut w = World::two_node(WorldConfig::ftgm());
        let stats = Rc::new(RefCell::new(RpcStats::default()));
        w.spawn_app(NodeId(1), 2, Box::new(RpcServer::new(4096)));
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(RpcClient::new(NodeId(1), 2, 128, stats.clone())),
        );
        w.run_for(SimDuration::from_ms(20));
        let s = stats.borrow();
        assert!(s.latencies.len() > 100, "{}", s.latencies.len());
        assert_eq!(s.bad_responses, 0);
        let p50 = s.quantile(0.5).unwrap().as_micros_f64();
        // An RPC is a full round trip: ~2x the one-way latency.
        assert!((20.0..40.0).contains(&p50), "p50 {p50}us");
        assert!(s.quantile(0.99).unwrap() >= s.quantile(0.5).unwrap());
    }

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

    /// Answers every request with 4 bytes, too short to echo an id.
    struct ShortReplies;

    impl App for ShortReplies {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..8 {
                ctx.gm_provide_receive_buffer(256);
            }
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
            if let GmEvent::Received {
                src_node,
                src_port,
                ..
            } = ev
            {
                ctx.gm_provide_receive_buffer(256);
                ctx.gm_send(&[0; 4], src_node, src_port);
            }
        }
    }

    #[test]
    fn malformed_payloads_are_dropped_or_counted_not_panics() {
        // Server: a 4-byte request carries no id and gets no reply; the
        // largest id doubles with wrap-around.
        let mut w = World::two_node(WorldConfig::ftgm());
        let replies = Rc::new(RefCell::new(Vec::new()));
        w.spawn_app(NodeId(1), 2, Box::new(RpcServer::new(64)));
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(RawRequests {
                payloads: vec![vec![1, 2, 3, 4], u64::MAX.to_le_bytes().repeat(2)],
                replies: replies.clone(),
            }),
        );
        w.run_for(SimDuration::from_ms(5));
        let got = replies.borrow();
        assert_eq!(got.len(), 1, "only the well-formed request is answered");
        assert_eq!(read_id(&got[0]), Some(u64::MAX.wrapping_mul(2)));

        // Client: a response too short to echo an id is a bad response.
        let mut w = World::two_node(WorldConfig::ftgm());
        let stats = Rc::new(RefCell::new(RpcStats::default()));
        w.spawn_app(NodeId(1), 2, Box::new(ShortReplies));
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(RpcClient::new(NodeId(1), 2, 128, stats.clone())),
        );
        w.run_for(SimDuration::from_ms(5));
        let s = stats.borrow();
        assert!(s.bad_responses > 0, "{s:?}");
        assert_eq!(s.latencies.len(), 0);
    }
}
