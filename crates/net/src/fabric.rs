//! Wormhole-timed packet transport over a [`Topology`].
//!
//! # Timing model
//!
//! Wormhole switching is modelled at packet granularity. For a packet of
//! serialization time `ser` crossing channels `c0..cn` (a channel is one
//! direction of a link):
//!
//! ```text
//! start[0] = max(inject_time + tx_setup, free_at[c0])
//! start[i] = max(start[i-1] + prop + fall_through, free_at[ci])
//! free_at[ci]   = start[i+1] + ser      (tail has drained downstream)
//! free_at[cn]   = start[n] + ser
//! delivered_at  = start[n] + prop + ser
//! ```
//!
//! `start[i]` is when the packet's head starts down channel `i`; if the
//! next channel is busy the head waits and — because `free_at` of the
//! upstream channel is pinned to the *downstream* start — every channel it
//! occupies stays reserved. That is backpressure: blocked packets hold
//! their path, exactly like flit-level wormhole at the granularity the
//! paper's measurements resolve.
//!
//! Injections are resolved in simulation-time order, giving FCFS
//! arbitration per channel.
//!
//! # Link CRC
//!
//! No CRC is computed. Myrinet's link CRC catches every single-bit
//! error, so the model states its verdict directly: a frame the link
//! fault model corrupts arrives with [`Delivery::crc_ok`] `false`, and
//! receivers drop it.

use ftgm_sim::{SimDuration, SimRng, SimTime};

use crate::topology::{Endpoint, NodeId, Topology};

/// Physical-layer parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FabricParams {
    /// Link bandwidth in bytes per second (Myrinet 2000: 2 Gb/s).
    pub bandwidth: u64,
    /// Per-hop propagation delay.
    pub prop_delay: SimDuration,
    /// Switch fall-through latency (head arrival → head eligible to exit).
    pub fall_through: SimDuration,
    /// NIC packet-interface start-up cost per packet.
    pub tx_setup: SimDuration,
    /// Fixed per-packet wire overhead in bytes (framing, CRC, gap).
    pub wire_overhead: u32,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            bandwidth: 250_000_000, // 2 Gb/s
            prop_delay: SimDuration::from_nanos(300),
            fall_through: SimDuration::from_nanos(550),
            tx_setup: SimDuration::from_nanos(500),
            wire_overhead: 8,
        }
    }
}

/// Why a packet did not arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The source NIC has no cable.
    SourceNotCabled,
    /// The route named a switch port with no cable.
    DeadPort(u8),
    /// The route ran out of bytes while still at a switch.
    RouteExhausted,
    /// The packet reached a NIC with route bytes left over (misroute).
    RouteNotConsumed,
    /// The route looped past the hop limit.
    TooManyHops,
    /// A link on the path is administratively down.
    LinkDown,
    /// The walk landed on a link that does not include the current
    /// endpoint (corrupt topology or route table).
    BadLink,
    /// The link fault model dropped the packet.
    FaultDrop,
}

/// A successfully transported packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the tail arrives at the destination NIC.
    pub at: SimTime,
    /// The destination interface.
    pub dst: NodeId,
    /// The frame bytes as received (possibly corrupted in flight).
    pub bytes: Vec<u8>,
    /// Whether the link CRC checked out; receivers drop `false` frames.
    pub crc_ok: bool,
}

/// Optional per-packet fault model for protocol testing.
#[derive(Clone, Debug)]
pub struct LinkFaults {
    /// Probability a packet vanishes in flight.
    pub drop_prob: f64,
    /// Probability a packet arrives with a flipped bit (CRC catches it).
    pub corrupt_prob: f64,
    /// Deterministic randomness source.
    pub rng: SimRng,
}

/// Transport statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets accepted by `inject`.
    pub injected: u64,
    /// Packets that produced a [`Delivery`].
    pub delivered: u64,
    /// Packets dropped for any reason.
    pub dropped: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

/// The packet transport engine.
///
/// # Example
///
/// ```
/// use ftgm_net::{Fabric, FabricParams, NodeId, Topology};
/// use ftgm_sim::SimTime;
///
/// let topo = Topology::two_nodes_one_switch();
/// let mut fabric = Fabric::new(topo, FabricParams::default());
/// // node0 → switch port 1 → node1; source route is one byte: exit port 1.
/// let d = fabric
///     .inject(SimTime::ZERO, NodeId(0), &[1], vec![0xAB; 64])
///     .expect("delivers");
/// assert_eq!(d.dst, NodeId(1));
/// assert!(d.crc_ok);
/// ```
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
    params: FabricParams,
    /// `free_at[link][dir]`, dir 0 = a→b, 1 = b→a.
    free_at: Vec<[SimTime; 2]>,
    /// Accumulated occupancy per channel (for utilization reporting).
    busy: Vec<[SimDuration; 2]>,
    link_up: Vec<bool>,
    faults: Option<LinkFaults>,
    stats: FabricStats,
    /// Pooled per-packet scratch: the `(link, dir)` channel path of the
    /// worm being walked. Taken and returned by `walk` so the hot path
    /// allocates nothing once capacities warm up.
    scratch_channels: Vec<(usize, usize)>,
    /// Pooled per-packet scratch: head-start times per channel.
    scratch_start: Vec<SimTime>,
}

/// Safety bound on route length (Myrinet routes are tiny; a loop is a bug).
const MAX_HOPS: usize = 64;

impl Fabric {
    /// Creates a fabric over `topo`.
    pub fn new(topo: Topology, params: FabricParams) -> Fabric {
        let links = topo.links().len();
        Fabric {
            topo,
            params,
            free_at: vec![[SimTime::ZERO; 2]; links],
            busy: vec![[SimDuration::ZERO; 2]; links],
            link_up: vec![true; links],
            faults: None,
            stats: FabricStats::default(),
            scratch_channels: Vec::new(),
            scratch_start: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The physical parameters.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Installs (or clears) the link fault model.
    pub fn set_faults(&mut self, faults: Option<LinkFaults>) {
        self.faults = faults;
    }

    /// Administratively raises or lowers a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_link_up(&mut self, link: usize, up: bool) {
        self.link_up[link] = up;
    }

    /// Whether a link is administratively up.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_is_up(&self, link: usize) -> bool {
        self.link_up[link]
    }

    /// Occupied time of one channel (`dir` 0 = a→b) since simulation
    /// start — utilization is this over elapsed time.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn channel_busy(&self, link: usize, dir: usize) -> SimDuration {
        self.busy[link][dir]
    }

    /// Serialization time of a frame of `len` payload bytes.
    pub fn serialization_time(&self, len: usize) -> SimDuration {
        SimDuration::for_bytes(len as u64 + self.params.wire_overhead as u64, self.params.bandwidth)
    }

    /// Injects a frame at `src`'s packet interface, following `route`
    /// (one output-port byte per switch), and computes its delivery.
    ///
    /// # Errors
    ///
    /// Returns the [`DropReason`] if the packet cannot be delivered. Channel
    /// reservations made before the failure point stay in place (the doomed
    /// worm still occupied them).
    pub fn inject(
        &mut self,
        now: SimTime,
        src: NodeId,
        route: &[u8],
        bytes: Vec<u8>,
    ) -> Result<Delivery, DropReason> {
        self.stats.injected += 1;
        let result = self.walk(now, src, route, bytes);
        match &result {
            Ok(d) => {
                self.stats.delivered += 1;
                self.stats.bytes_delivered += d.bytes.len() as u64;
            }
            Err(_) => self.stats.dropped += 1,
        }
        result
    }

    /// Resolves the `(link, dir)` channel path for a worm from `src`
    /// following `route`, appending into the caller-supplied (pooled)
    /// `channels` buffer.
    fn resolve_path(
        &self,
        src: NodeId,
        route: &[u8],
        channels: &mut Vec<(usize, usize)>,
    ) -> Result<NodeId, DropReason> {
        let mut at = Endpoint::Nic(src);
        let mut link = self.topo.nic_link(src).ok_or(DropReason::SourceNotCabled)?;
        let mut route_pos = 0;
        loop {
            if channels.len() >= MAX_HOPS {
                return Err(DropReason::TooManyHops);
            }
            if !self.link_up[link] {
                return Err(DropReason::LinkDown);
            }
            let dir = if self.topo.links()[link].a == at { 0 } else { 1 };
            channels.push((link, dir));
            let far = self.topo.peer(link, at).ok_or(DropReason::BadLink)?;
            match far {
                Endpoint::Nic(n) => {
                    if route_pos != route.len() {
                        return Err(DropReason::RouteNotConsumed);
                    }
                    return Ok(n);
                }
                Endpoint::SwitchPort { switch, .. } => {
                    let Some(&out_port) = route.get(route_pos) else {
                        return Err(DropReason::RouteExhausted);
                    };
                    route_pos += 1;
                    let Some(next) = self.topo.switch_port_link(switch, out_port) else {
                        return Err(DropReason::DeadPort(out_port));
                    };
                    at = Endpoint::SwitchPort {
                        switch,
                        port: out_port,
                    };
                    link = next;
                }
            }
        }
    }

    fn walk(
        &mut self,
        now: SimTime,
        src: NodeId,
        route: &[u8],
        mut bytes: Vec<u8>,
    ) -> Result<Delivery, DropReason> {
        // --- resolve the channel path -----------------------------------
        // Borrow the pooled path buffers; they go back before any return
        // so their capacity survives for the next packet.
        let mut channels = std::mem::take(&mut self.scratch_channels);
        channels.clear();
        let resolved = self.resolve_path(src, route, &mut channels);
        let dst = match resolved {
            Ok(dst) => dst,
            Err(e) => {
                self.scratch_channels = channels;
                return Err(e);
            }
        };

        // --- wormhole timing ---------------------------------------------
        let ser = self.serialization_time(bytes.len());
        let prop = self.params.prop_delay;
        let n = channels.len();
        let mut start = std::mem::take(&mut self.scratch_start);
        start.clear();
        start.resize(n, SimTime::ZERO);
        for i in 0..n {
            let (l, d) = channels[i];
            let earliest = if i == 0 {
                now + self.params.tx_setup
            } else {
                start[i - 1] + prop + self.params.fall_through
            };
            start[i] = earliest.max(self.free_at[l][d]);
        }
        for i in 0..n {
            let (l, d) = channels[i];
            let new_free = if i + 1 < n {
                start[i + 1] + ser
            } else {
                start[i] + ser
            };
            self.busy[l][d] += new_free.saturating_since(start[i]);
            self.free_at[l][d] = new_free;
        }
        let delivered_at = start[n - 1] + prop + ser;
        self.scratch_channels = channels;
        self.scratch_start = start;

        // --- fault model ----------------------------------------------------
        let mut crc_ok = true;
        if let Some(f) = &mut self.faults {
            if f.rng.gen_bool(f.drop_prob) {
                return Err(DropReason::FaultDrop);
            }
            if !bytes.is_empty() && f.rng.gen_bool(f.corrupt_prob) {
                let bit = f.rng.gen_range(bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                crc_ok = false;
            }
        }
        Ok(Delivery {
            at: delivered_at,
            dst,
            bytes,
            crc_ok,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric2() -> Fabric {
        Fabric::new(Topology::two_nodes_one_switch(), FabricParams::default())
    }

    #[test]
    fn basic_delivery() {
        let mut f = fabric2();
        let d = f.inject(SimTime::ZERO, NodeId(0), &[1], vec![1, 2, 3]).unwrap();
        assert_eq!(d.dst, NodeId(1));
        assert_eq!(d.bytes, vec![1, 2, 3]);
        assert!(d.crc_ok);
        assert_eq!(f.stats().delivered, 1);
    }

    #[test]
    fn latency_matches_model() {
        let mut f = fabric2();
        let p = *f.params();
        let d = f.inject(SimTime::ZERO, NodeId(0), &[1], vec![0; 56]).unwrap();
        // 64 wire bytes at 250 MB/s = 256ns serialization.
        let ser = SimDuration::from_nanos(256);
        let expect = SimTime::ZERO
            + p.tx_setup          // start[0]
            + p.prop_delay        // head at switch
            + p.fall_through      // head exits switch (start[1])
            + p.prop_delay        // head at NIC
            + ser; // tail arrives
        assert_eq!(d.at, expect);
    }

    #[test]
    fn contention_serializes_on_shared_channel() {
        // Three senders all target node0 through the same switch output.
        let topo = Topology::star(4);
        let mut f = Fabric::new(topo, FabricParams::default());
        let payload = vec![0u8; 1016]; // 1024 wire bytes → 4.096us ser
        let d1 = f.inject(SimTime::ZERO, NodeId(1), &[0], payload.clone()).unwrap();
        let d2 = f.inject(SimTime::ZERO, NodeId(2), &[0], payload.clone()).unwrap();
        let d3 = f.inject(SimTime::ZERO, NodeId(3), &[0], payload).unwrap();
        let ser = SimDuration::from_nanos(4096);
        assert!(d2.at >= d1.at + ser, "{d1:?} {d2:?}");
        assert!(d3.at >= d2.at + ser);
    }

    #[test]
    fn backpressure_holds_upstream_channel() {
        // Two switches in a chain; node0,node1 on switch0; node2 on switch1.
        // node0 → node2 and node1 → node2 contend on the inter-switch link;
        // the loser's NIC link must stay reserved until it drains.
        let topo = Topology::switch_chain(2, 2);
        let mut f = Fabric::new(topo, FabricParams::default());
        let ports = 8u8; // hosts_per_switch+2 max(8)
        let inter = ports - 1; // switch0's uplink port
        let payload = vec![0u8; 2040];
        let a = f
            .inject(SimTime::ZERO, NodeId(0), &[inter, 0], payload.clone())
            .unwrap();
        let b = f
            .inject(SimTime::ZERO, NodeId(1), &[inter, 0], payload.clone())
            .unwrap();
        assert_eq!(a.dst, NodeId(2));
        assert_eq!(b.dst, NodeId(2));
        assert!(b.at > a.at);
        // node1's own NIC channel stayed reserved while blocked: a third
        // packet from node1 cannot start before the first drained.
        let c = f
            .inject(SimTime::from_nanos(1), NodeId(1), &[inter, 1], payload)
            .unwrap();
        assert!(c.at > b.at - SimDuration::from_nanos(2048 * 4));
    }

    #[test]
    fn route_exhausted_drops() {
        let mut f = fabric2();
        assert_eq!(
            f.inject(SimTime::ZERO, NodeId(0), &[], vec![0; 8]),
            Err(DropReason::RouteExhausted)
        );
        assert_eq!(f.stats().dropped, 1);
    }

    #[test]
    fn leftover_route_drops() {
        let mut f = fabric2();
        assert_eq!(
            f.inject(SimTime::ZERO, NodeId(0), &[1, 3], vec![0; 8]),
            Err(DropReason::RouteNotConsumed)
        );
    }

    #[test]
    fn dead_port_drops() {
        let mut f = fabric2();
        assert_eq!(
            f.inject(SimTime::ZERO, NodeId(0), &[7], vec![0; 8]),
            Err(DropReason::DeadPort(7))
        );
    }

    #[test]
    fn link_down_drops() {
        let mut f = fabric2();
        let l = f.topology().nic_link(NodeId(1)).unwrap();
        f.set_link_up(l, false);
        assert_eq!(
            f.inject(SimTime::ZERO, NodeId(0), &[1], vec![0; 8]),
            Err(DropReason::LinkDown)
        );
        f.set_link_up(l, true);
        assert!(f.inject(SimTime::ZERO, NodeId(0), &[1], vec![0; 8]).is_ok());
    }

    #[test]
    fn routing_loop_detected() {
        // Cable two ports of a switch together and route through them
        // forever.
        let mut b = Topology::builder();
        b.add_nodes(1);
        let sw = b.add_switch(8);
        b.connect(Endpoint::Nic(NodeId(0)), Endpoint::SwitchPort { switch: sw, port: 0 });
        b.connect(
            Endpoint::SwitchPort { switch: sw, port: 1 },
            Endpoint::SwitchPort { switch: sw, port: 2 },
        );
        let mut f = Fabric::new(b.build(), FabricParams::default());
        let route: Vec<u8> = std::iter::repeat([1u8, 2u8]).flatten().take(100).collect();
        assert_eq!(
            f.inject(SimTime::ZERO, NodeId(0), &route, vec![0; 8]),
            Err(DropReason::TooManyHops)
        );
    }

    #[test]
    fn fault_model_drops_and_corrupts() {
        let mut f = fabric2();
        f.set_faults(Some(LinkFaults {
            drop_prob: 1.0,
            corrupt_prob: 0.0,
            rng: SimRng::new(1),
        }));
        assert_eq!(
            f.inject(SimTime::ZERO, NodeId(0), &[1], vec![0; 16]),
            Err(DropReason::FaultDrop)
        );
        f.set_faults(Some(LinkFaults {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
            rng: SimRng::new(2),
        }));
        let d = f.inject(SimTime::ZERO, NodeId(0), &[1], vec![0; 16]).unwrap();
        assert!(!d.crc_ok);
        assert_ne!(d.bytes, vec![0; 16]);
    }

    #[test]
    fn bandwidth_is_respected_over_many_packets() {
        let mut f = fabric2();
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        let n = 100u64;
        let payload_len = 4088usize; // 4096 wire bytes
        for _ in 0..n {
            let d = f.inject(t, NodeId(0), &[1], vec![0; payload_len]).unwrap();
            last = d.at;
            t = t + SimDuration::from_nanos(1); // saturate
        }
        // 100 * 4096B at 250MB/s = 1.6384ms minimum.
        let min = SimDuration::for_bytes(n * 4096, 250_000_000);
        assert!(last.saturating_since(SimTime::ZERO) >= min);
    }

    #[test]
    fn channel_utilization_accumulates_under_load() {
        let mut f = fabric2();
        let ser = f.serialization_time(4088);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let d = f.inject(t, NodeId(0), &[1], vec![0; 4088]).unwrap();
            t = d.at;
        }
        let l0 = f.topology().nic_link(NodeId(0)).unwrap();
        // The NIC's outbound channel carried 10 packets' worth of bytes
        // (within blocking slack).
        let busy = f.channel_busy(l0, 0);
        assert!(busy >= ser * 10, "{busy} vs {}", ser * 10);
        // The reverse direction carried nothing.
        assert_eq!(f.channel_busy(l0, 1), SimDuration::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric2();
        f.inject(SimTime::ZERO, NodeId(0), &[1], vec![0; 8]).unwrap();
        let _ = f.inject(SimTime::ZERO, NodeId(0), &[], vec![0; 8]);
        let s = f.stats();
        assert_eq!(s.injected, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.bytes_delivered, 8);
    }
}
