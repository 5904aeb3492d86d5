//! What a [`FlowProbe`] keeps resident: the encoded bytes per round trip
//! of a two-node closed-loop ping-pong, pinned exactly, and the columns'
//! lossless round trip against a plain `Vec` of the same records.

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_gm::apps::{RpcServer, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimRng, SimTime};
use ftgm_workload::{ClosedLoopClient, Completion, FlowProbe, SizeMix};

/// Runs the library's closed-loop client against an RPC server on the
/// paper's two-node testbed for 20 simulated ms, 64-byte requests, no
/// think time.
fn ping_pong() -> FlowProbe {
    let mut w = World::two_node(WorldConfig::ftgm());
    let probe = Rc::new(RefCell::new(FlowProbe::default()));
    let stats = Rc::new(RefCell::new(TrafficStats::default()));
    w.spawn_app(NodeId(1), 2, Box::new(RpcServer::new(64, stats)));
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(ClosedLoopClient::new(
            NodeId(1),
            2,
            SizeMix::Fixed { bytes: 64 },
            SimDuration::ZERO,
            SimRng::new(1),
            SimTime::ZERO + SimDuration::from_ms(20),
            probe.clone(),
        )),
    );
    w.run_for(SimDuration::from_ms(21));
    probe.take()
}

#[test]
fn ping_pong_round_trip_costs_ten_bytes() {
    let p = ping_pong();
    let trips = p.completions.len();
    let arrival_bytes = p.arrivals.encoded_len();
    let completion_bytes = p.completions.encoded_len();
    let depth_bytes = p.depth_marks.encoded_len();
    println!(
        "{trips} round trips: arrivals {arrival_bytes} B, completions {completion_bytes} B, \
         depth marks {depth_bytes} B"
    );
    // The workload is deterministic, so every figure is exact: 3 B an
    // arrival (a ~26 us step), 7 B a completion (step, latency, size)
    // and 3 B a depth mark. As `Vec`s of structs the same records took
    // 8 + 24 B a round trip, plus 2 x 16 B of depth marks.
    assert_eq!(trips, 763);
    assert_eq!(p.arrivals.len(), trips);
    assert_eq!(p.depth_marks.len(), 2 * trips);
    assert_eq!(arrival_bytes, 2_287);
    assert_eq!(completion_bytes, 7 * trips);
    assert_eq!(depth_bytes, 6 * trips);
    assert!(arrival_bytes + completion_bytes <= 10 * trips);
}

#[test]
fn columns_round_trip_every_instant_and_size() {
    let mut rng = SimRng::new(44);
    for case in 0..64 {
        // Random instants, a decreasing run, the ends of the clock, and
        // the largest size.
        let n = rng.gen_range(200) as usize;
        let instant = |rng: &mut SimRng, i: usize| match case % 4 {
            0 => SimTime::from_nanos(rng.next_u64()),
            1 => {
                SimTime::from_nanos(u64::MAX - (i as u64 + 1) * (1 << 40) + rng.gen_range(1 << 40))
            }
            2 => *rng.choose(&[SimTime::ZERO, SimTime::MAX, SimTime::from_nanos(1)]),
            _ => SimTime::from_nanos(1_000 * i as u64 + rng.gen_range(3_000)),
        };
        let mut probe = FlowProbe::default();
        let (mut arrivals, mut completions, mut depths) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            let at = instant(&mut rng, i);
            let issued = instant(&mut rng, i);
            let bytes = *rng.choose(&[0, 1, 64, 4096, u32::MAX]);
            let depth = *rng.choose(&[0, 1, 127, 128, u64::MAX]);
            probe.record_arrival(issued);
            probe.record_completion(at, issued, bytes);
            probe.record_depth(at, depth);
            arrivals.push(issued);
            completions.push((at, issued, bytes));
            depths.push((at, depth));
        }
        assert_eq!(probe.arrivals.len(), n);
        assert_eq!(probe.arrivals.iter().collect::<Vec<_>>(), arrivals);
        let got: Vec<_> = probe
            .completions
            .iter()
            .map(|c: Completion| (c.at, c.issued, c.bytes))
            .collect();
        assert_eq!(got, completions);
        assert_eq!((&probe.depth_marks).into_iter().collect::<Vec<_>>(), depths);
        assert_eq!(probe.clone().depth_marks.iter().count(), n);
    }
}
