//! End-to-end smoke tests for the workload driver: the demo suite
//! runs and replays byte-for-byte; the closed-loop client survives
//! replies it cannot check. Recovery under load is a corpus file's job
//! (`scenarios/two_node-hang-closed-load.ftsc`).

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_gm::{App, Ctx, GmEvent, World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{map_indexed, SimDuration, SimRng, SimTime};
use ftgm_workload::{demo_suite, run_spec, ClosedLoopClient, FlowProbe, SizeMix};

#[test]
fn suite_replays_byte_identically() {
    let specs = demo_suite();
    let run = |threads| map_indexed(specs.len(), threads, |i| run_spec(&specs[i]).to_json());
    let a = run(1);
    let b = run(3);
    assert_eq!(a, b, "thread count must not leak into reports");
    assert_eq!(b, run(3), "repeated runs must serialize identically");
}

#[test]
fn open_loop_queues_through_token_exhaustion() {
    let specs = demo_suite();
    let open = specs.into_iter().next().expect("demo suite has 2 specs");
    let report = run_spec(&open);
    assert!(report.total_issued > 500, "got {}", report.total_issued);
    // Everything offered before the drain phase must eventually land.
    assert_eq!(report.total_completed, report.total_issued);
    let steady = report.steady().expect("steady phase present");
    assert!(steady.goodput_bytes_per_sec > 0);
}

/// Answers every request with 4 bytes, too short to carry an id.
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
fn closed_loop_client_moves_on_after_a_bad_response() {
    let mut w = World::two_node(WorldConfig::ftgm());
    let probe = Rc::new(RefCell::new(FlowProbe::default()));
    w.spawn_app(NodeId(1), 2, Box::new(ShortReplies));
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(ClosedLoopClient::new(
            NodeId(1),
            2,
            SizeMix::Fixed { bytes: 128 },
            SimDuration::from_us(10),
            SimRng::new(1),
            SimTime::ZERO + SimDuration::from_ms(20),
            probe.clone(),
        )),
    );
    w.run_for(SimDuration::from_ms(20));
    let p = probe.borrow();
    let issued = p.arrivals.len() as u64;
    assert!(issued > 1, "the client stalled after its first bad response");
    assert!(p.completions.is_empty());
    assert!(p.bad_responses + 1 >= issued, "{} bad of {issued}", p.bad_responses);
}
