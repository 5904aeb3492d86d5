//! End-to-end smoke tests for the workload driver: the demo suite
//! runs and replays byte-for-byte; the closed-loop client survives
//! replies it cannot check. Recovery under load is a corpus file's job
//! (`scenarios/two_node-hang-closed-load.ftsc`).

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_faults::chaos::ChaosTopology;
use ftgm_gm::{App, Ctx, GmEvent, World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::{map_indexed, SimDuration, SimRng, SimTime};
use ftgm_workload::{
    run_spec, Arrival, ClientModel, ClosedLoopClient, FlowProbe, FlowSpec, PhaseKind, SizeMix,
    Variant, WorkloadSpec,
};

/// A small suite of fast, deterministic demo specs used by the
/// tests below: a two-node open-loop run and a 4-node star mix.
/// Each finishes in well under a simulated second.
fn demo_suite() -> Vec<WorkloadSpec> {
    let open = WorkloadSpec::new("demo_open", ChaosTopology::TwoNode, Variant::Ftgm, 11)
        .flow(FlowSpec {
            src: 0,
            src_port: 0,
            dst: 1,
            dst_port: 2,
            model: ClientModel::OpenLoop {
                arrival: Arrival::UniformJitter {
                    min: SimDuration::from_us(40),
                    max: SimDuration::from_us(80),
                },
            },
            sizes: SizeMix::Weighted {
                options: vec![(64, 3), (1024, 1)],
            },
        })
        .phase(PhaseKind::Warmup, SimDuration::from_ms(5))
        .phase(PhaseKind::Steady, SimDuration::from_ms(40))
        .phase(PhaseKind::Drain, SimDuration::from_ms(10));

    let star = WorkloadSpec::new("demo_star4", ChaosTopology::Star(4), Variant::Ftgm, 37)
        .flow(FlowSpec {
            src: 1,
            src_port: 0,
            dst: 0,
            dst_port: 2,
            model: ClientModel::ClosedLoop {
                think: SimDuration::from_us(50),
            },
            sizes: SizeMix::Fixed { bytes: 256 },
        })
        .flow(FlowSpec {
            src: 2,
            src_port: 0,
            dst: 0,
            dst_port: 2,
            model: ClientModel::ClosedLoop {
                think: SimDuration::from_us(50),
            },
            sizes: SizeMix::Fixed { bytes: 256 },
        })
        .flow(FlowSpec {
            src: 3,
            src_port: 0,
            dst: 0,
            dst_port: 3,
            model: ClientModel::OpenLoop {
                arrival: Arrival::ParetoBurst {
                    scale: SimDuration::from_us(30),
                    shape_permille: 1500,
                    cap: SimDuration::from_ms(2),
                },
            },
            sizes: SizeMix::Fixed { bytes: 512 },
        })
        .phase(PhaseKind::Warmup, SimDuration::from_ms(5))
        .phase(PhaseKind::Steady, SimDuration::from_ms(30))
        .phase(PhaseKind::Drain, SimDuration::from_ms(10));

    vec![open, star]
}

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
