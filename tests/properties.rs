//! Property-based tests over the core data structures and protocol
//! invariants.

use proptest::prelude::*;

use std::cell::RefCell;
use std::rc::Rc;

use ftgm_core::{FtSystem, RecoveryReport};
use ftgm_gm::apps::{PatternReceiver, PatternSender, TrafficStats};
use ftgm_gm::{World, WorldConfig};
use ftgm_lanai::isa::{Instr, Opcode};
use ftgm_mcp::packet::{build_data_frame, flags, Header};
use ftgm_net::fabric::LinkFaults;
use ftgm_net::{Endpoint, Fabric, FabricParams, Mapper, NodeId, Topology};
use ftgm_sim::{HistId, RecoveryPhase, SimDuration, SimRng, SimTime, Trace, TraceKind};

proptest! {
    /// Any 32-bit word that decodes re-encodes to exactly itself: the
    /// decoder loses no bits, so fault injection works on a faithful
    /// representation.
    #[test]
    fn isa_decode_encode_roundtrip(word in any::<u32>()) {
        if let Some(instr) = Instr::decode(word) {
            prop_assert_eq!(instr.encode(), word);
        }
    }

    /// Single-bit corruption of any opcode field always decodes to an
    /// undefined instruction (the even-parity opcode layout).
    #[test]
    fn opcode_neighbors_invalid(op_idx in 0usize..27, bit in 0u8..6) {
        let op = Opcode::ALL[op_idx];
        prop_assert_eq!(Opcode::from_bits(op.bits() ^ (1 << bit)), None);
    }

    /// Any single-bit flip anywhere in a data frame is caught by the
    /// packet's validation (header checksum, payload checksum, or
    /// structure check).
    #[test]
    fn any_single_bitflip_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..300),
        seq in any::<u32>(),
        bit_sel in any::<u64>(),
    ) {
        let frame = build_data_frame(
            NodeId(3), 1, 2, seq, payload.len() as u32, 0,
            flags::LAST_CHUNK, &payload,
        );
        prop_assert!(Header::parse(&frame).is_ok());
        let mut corrupt = frame.clone();
        let bit = (bit_sel % (frame.len() as u64 * 8)) as usize;
        corrupt[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Header::parse(&corrupt).is_err());
    }

    /// The mapper's routes always deliver to their destination, on every
    /// randomly-shaped star/chain topology.
    #[test]
    fn mapper_routes_always_deliver(
        hosts_per_switch in 1usize..4,
        switches in 1usize..4,
        payload_len in 1usize..256,
    ) {
        let topo = Topology::switch_chain(switches, hosts_per_switch);
        let tables = Mapper::map(&topo);
        let mut fabric = Fabric::new(topo.clone(), FabricParams::default());
        for s in 0..topo.node_count() {
            for (dst, route) in tables[s].iter() {
                let d = fabric
                    .inject(SimTime::ZERO, NodeId(s as u16), route, vec![0x5A; payload_len])
                    .expect("mapper route must deliver");
                prop_assert_eq!(d.dst, dst);
            }
        }
    }

    /// A randomly-cabled single switch: routes exist exactly for cabled
    /// hosts, never for uncabled ones.
    #[test]
    fn mapper_reachability_matches_cabling(cabled in proptest::collection::vec(any::<bool>(), 2..8)) {
        let n = cabled.len();
        let mut b = Topology::builder();
        b.add_nodes(n);
        let sw = b.add_switch(8);
        for (i, &c) in cabled.iter().enumerate() {
            if c {
                b.connect(
                    Endpoint::Nic(NodeId(i as u16)),
                    Endpoint::SwitchPort { switch: sw, port: i as u8 },
                );
            }
        }
        let topo = b.build();
        let tables = Mapper::map(&topo);
        for i in 0..n {
            for j in 0..n {
                if i == j { continue; }
                let reachable = tables[i].route(NodeId(j as u16)).is_some();
                prop_assert_eq!(reachable, cabled[i] && cabled[j]);
            }
        }
    }
}

/// Shared body of the world-level Go-Back-N exactly-once property, so
/// the random property and the pinned regression cases below exercise
/// the very same assertions.
fn assert_gobackn_exactly_once(drop: f64, corrupt: f64, seed: u64, ftgm: bool) {
    let config = if ftgm { WorldConfig::ftgm() } else { WorldConfig::gm() };
    let mut w = World::two_node(config);
    w.fabric.set_faults(Some(LinkFaults {
        drop_prob: drop,
        corrupt_prob: corrupt,
        rng: SimRng::new(seed),
    }));
    let stats = Rc::new(RefCell::new(TrafficStats::default()));
    w.spawn_app(
        NodeId(1),
        2,
        Box::new(PatternReceiver::new(512, 16, stats.clone())),
    );
    w.spawn_app(
        NodeId(0),
        0,
        Box::new(PatternSender::new(NodeId(1), 2, 256, 4, Some(60), stats.clone())),
    );
    w.run_for(SimDuration::from_secs(8));
    let s = stats.borrow();
    assert_eq!(s.received_ok, 60, "delivered: {s:?}");
    assert_eq!(s.completed, 60, "completed: {s:?}");
    assert!(s.clean(), "violations: {s:?}");
}

/// Promoted from `properties.proptest-regressions` (case
/// `964d2696c2ed8c…`): a plain-GM run with ~15 % drop once tripped the
/// exactly-once assertions. Keeping it as a named test means it runs on
/// every `cargo test`, not only when the regression file is honored.
#[test]
fn gobackn_regression_gm_heavy_drop_case_964d2696() {
    assert_gobackn_exactly_once(0.1511047623685776, 0.0, 1839267741648814390, false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Go-Back-N delivers exactly-once, in order, under arbitrary
    /// drop/corrupt schedules — GM's transparent handling of transient
    /// network errors.
    #[test]
    fn gobackn_exactly_once_under_random_loss(
        drop in 0.0f64..0.25,
        corrupt in 0.0f64..0.15,
        seed in any::<u64>(),
        ftgm in any::<bool>(),
    ) {
        assert_gobackn_exactly_once(drop, corrupt, seed, ftgm);
    }

    /// FTGM's host backup always mirrors the tokens the LANai holds: at
    /// any quiescent point, outstanding backup copies = messages posted
    /// but not yet completed.
    #[test]
    fn backup_mirrors_outstanding_tokens(
        count in 1u64..60,
        size in 64u32..4000,
        run_ms in 1u64..30,
    ) {
        let mut w = World::two_node(WorldConfig::ftgm());
        let stats = Rc::new(RefCell::new(TrafficStats::default()));
        w.spawn_app(
            NodeId(1),
            2,
            Box::new(PatternReceiver::new(8192, 16, stats.clone())),
        );
        w.spawn_app(
            NodeId(0),
            0,
            Box::new(PatternSender::new(NodeId(1), 2, size, 4, Some(count), stats.clone())),
        );
        // Cut the run at an arbitrary (possibly mid-flight) instant.
        w.run_for(SimDuration::from_ms(run_ms));
        {
            let s = stats.borrow();
            let hp = w.nodes[0].ports[0].as_ref().unwrap();
            let outstanding = s.sent - s.completed - s.send_errors;
            prop_assert_eq!(
                hp.backup.sends_outstanding() as u64,
                outstanding,
                "mid-flight mismatch: {:?}", s
            );
        }
        // And after quiescence everything returns.
        w.run_for(SimDuration::from_secs(2));
        let s = stats.borrow();
        let hp = w.nodes[0].ports[0].as_ref().unwrap();
        prop_assert_eq!(s.completed, count);
        prop_assert_eq!(hp.backup.sends_outstanding(), 0);
        // The receiver's ACK table knows the final message's sequence.
        let hp1 = w.nodes[1].ports[2].as_ref().unwrap();
        prop_assert_eq!(hp1.backup.expected_seqs().len(), 1);
    }
}

/// A frame in flight on the model channel of
/// [`drive_gobackn_over_adversarial_channel`].
#[derive(Clone, Debug)]
enum ModelFrame {
    Data(ftgm_mcp::ChunkRecord),
    Ack(u32),
    Nack(u32),
}

/// Drives one [`SenderStream`]/[`ReceiverStream`] pair over an
/// adversarial channel that drops, duplicates, and reorders frames in
/// both directions, with an optional FTGM-style receiver recovery
/// mid-stream (in-flight frames lost, half-assembled message discarded,
/// `restore()` to the last commit frontier, Go-Back-N replay).
///
/// Panics on any violation of exactly-once in-order delivery; returns
/// `(committed, completed)` message-id lists for the final assertions.
#[allow(clippy::too_many_arguments)] // a test harness, not API surface
fn drive_gobackn_over_adversarial_channel(
    seed: u64,
    drop_pct: u64,
    dup_pct: u64,
    reorder_pct: u64,
    msgs: u64,
    chunks_per_msg: u32,
    recover_after_commits: u64,
) -> (Vec<u64>, Vec<u64>) {
    use ftgm_mcp::{ChunkRecord, ReceiverStream, SendDesc, SenderStream};
    use ftgm_mcp::gobackn::RxVerdict;
    use std::collections::VecDeque;

    const WINDOW: u32 = 8;
    let rto = SimDuration::from_us(40);
    let at = |step: u64| SimTime::ZERO + SimDuration::from_us(step);
    let mut rng = SimRng::new(seed ^ 0x60BA_C4A0);

    // Pops the next frame off a queue under channel adversity: possibly
    // swapping the front pair (reorder), dropping it, or re-enqueueing a
    // copy at the back (duplication, which also reorders).
    let perturb = |q: &mut VecDeque<ModelFrame>, rng: &mut SimRng| -> Option<ModelFrame> {
        if q.len() >= 2 && rng.gen_range(100) < reorder_pct {
            q.swap(0, 1);
        }
        let f = q.pop_front()?;
        if rng.gen_range(100) < drop_pct {
            return None;
        }
        if rng.gen_range(100) < dup_pct {
            q.push_back(f.clone());
        }
        Some(f)
    };

    let mut tx = SenderStream::new(0, SimTime::ZERO);
    let mut rx = ReceiverStream::new(0);
    let mut to_data: VecDeque<ModelFrame> = VecDeque::new();
    let mut to_ack: VecDeque<ModelFrame> = VecDeque::new();
    let mut pending_resend: Vec<ChunkRecord> = Vec::new();
    // Admission source: msgs × chunks_per_msg chunks, strictly sequential.
    let mut next_chunk = 0u64;
    let total_chunks = msgs * chunks_per_msg as u64;
    let rec_for = |global: u64, seq: u32| {
        let offset = (global % chunks_per_msg as u64) as u32;
        let msg_id = global / chunks_per_msg as u64;
        let msg = SendDesc::new(msg_id, 0, NodeId(1), 2, 0, 64 * chunks_per_msg, false, None);
        ChunkRecord::new(&msg, seq, false, seq % 256, offset * 64, 64)
    };

    let mut assembly: Vec<(u64, u32)> = Vec::new();
    let mut committed: Vec<u64> = Vec::new();
    let mut completed: Vec<u64> = Vec::new();
    let mut acked = ftgm_mcp::gobackn::AckOutcome::default();
    let mut recovered = false;

    for step in 0.. {
        assert!(step < 400_000, "no convergence: {committed:?} / {completed:?}");
        let now = at(step);

        // Sender: admit new chunks under the window, then trickle any
        // pending Go-Back-N retransmissions into the channel.
        while next_chunk < total_chunks && tx.window_open(WINDOW) {
            let rec = rec_for(next_chunk, tx.next_seq());
            tx.admit(rec.clone());
            to_data.push_back(ModelFrame::Data(rec));
            next_chunk += 1;
        }
        for rec in pending_resend.drain(..) {
            to_data.push_back(ModelFrame::Data(rec));
        }

        // Receiver side: up to two data frames arrive per step.
        for _ in 0..2 {
            match perturb(&mut to_data, &mut rng) {
                Some(ModelFrame::Data(rec)) => match rx.classify(rec.seq()) {
                    RxVerdict::Accept => {
                        rx.advance();
                        if let Some(&(m, o)) = assembly.last() {
                            assert_eq!(m, rec.msg_id, "interleaved assembly");
                            assert_eq!(o + 64, rec.chunk_offset, "offset gap");
                        } else {
                            assert_eq!(rec.chunk_offset, 0, "message starts mid-way");
                        }
                        assembly.push((rec.msg_id, rec.chunk_offset));
                        if rec.last {
                            // Exactly-once, in-order commit.
                            assert_eq!(assembly.len(), chunks_per_msg as usize);
                            assert_eq!(committed.len() as u64, rec.msg_id, "commit order");
                            committed.push(rec.msg_id);
                            assembly.clear();
                        }
                        to_ack.push_back(ModelFrame::Ack(rx.expected()));
                    }
                    RxVerdict::Duplicate => to_ack.push_back(ModelFrame::Ack(rx.expected())),
                    RxVerdict::OutOfOrder => to_ack.push_back(ModelFrame::Nack(rx.expected())),
                },
                Some(_) => unreachable!("acks never ride the data queue"),
                None => {}
            }
        }

        // Sender side: up to two control frames arrive per step.
        for _ in 0..2 {
            match perturb(&mut to_ack, &mut rng) {
                Some(ModelFrame::Ack(v)) => {
                    tx.on_ack(v, now, &mut acked);
                    completed.extend(acked.completed.iter().map(|&(id, _port)| id));
                }
                Some(ModelFrame::Nack(v)) => {
                    // A rewind supersedes queued retransmissions (as the
                    // MCP does), else NACK bursts amplify.
                    pending_resend = tx.rewind_from(v);
                }
                Some(ModelFrame::Data(_)) => unreachable!("data never rides the ack queue"),
                None => {}
            }
        }

        if let Some(rw) = tx.check_timeout(now, rto) {
            pending_resend = rw;
        }

        // Mid-stream receiver recovery: everything in flight dies with
        // the interface, the half-assembled message is discarded, and
        // the restored expected counter is the last *commit* frontier —
        // uncommitted chunks are re-fetched in full by Go-Back-N.
        if !recovered && committed.len() as u64 >= recover_after_commits {
            recovered = true;
            to_data.clear();
            to_ack.clear();
            pending_resend.clear();
            let frontier = rx.expected().wrapping_sub(assembly.len() as u32);
            assembly.clear();
            rx.restore(frontier);
        }

        if committed.len() as u64 == msgs && completed.len() as u64 == msgs {
            break;
        }
    }
    (committed, completed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Protocol-level exactly-once: for ANY rates of loss, duplication,
    /// and reordering — in both directions — and an FTGM receiver
    /// recovery in the middle of the stream, Go-Back-N commits every
    /// message exactly once, in order, with contiguous chunks, and the
    /// sender observes every completion exactly once, in order.
    #[test]
    fn gobackn_stream_exactly_once_across_recovery_replay(
        drop_pct in 0u64..35,
        dup_pct in 0u64..25,
        reorder_pct in 0u64..50,
        seed in any::<u64>(),
        chunks_per_msg in 1u32..5,
        recover_after in 1u64..12,
    ) {
        let msgs = 12u64;
        let (committed, completed) = drive_gobackn_over_adversarial_channel(
            seed, drop_pct, dup_pct, reorder_pct, msgs, chunks_per_msg, recover_after,
        );
        let want: Vec<u64> = (0..msgs).collect();
        prop_assert_eq!(&committed, &want, "receiver commits");
        prop_assert_eq!(&completed, &want, "sender completions");
    }
}

/// A strategy over the observability event kinds the metrics registry
/// derives histograms from, with arbitrary field values.
fn arb_obs_kind() -> impl Strategy<Value = TraceKind> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), any::<u64>(), 1u32..100_000, any::<u32>())
            .prop_map(|(node, port, token, len, depth)| TraceKind::SendPosted {
                node, port, token, len, depth
            }),
        (any::<u16>(), any::<u8>(), any::<u64>(), any::<u32>()).prop_map(
            |(node, port, token, depth)| TraceKind::RecvProvided { node, port, token, depth }
        ),
        (any::<u16>(), 0u64..10_000_000_000).prop_map(|(node, gap)| TraceKind::WatchdogRearmed {
            node,
            gap: SimDuration::from_nanos(gap),
        }),
        (any::<u16>(), 1u32..10, 0u64..10_000_000_000).prop_map(|(node, attempt, backoff)| {
            TraceKind::RetryScheduled {
                node,
                attempt,
                backoff: SimDuration::from_nanos(backoff),
            }
        }),
        (any::<u16>(), 0usize..6, 0u64..10_000_000_000).prop_map(|(node, p, dur)| {
            TraceKind::RecoveryPhaseDone {
                node,
                phase: RecoveryPhase::ORDER[p],
                dur: SimDuration::from_nanos(dur),
            }
        }),
        (any::<u16>(), any::<u64>())
            .prop_map(|(node, bit)| TraceKind::FaultInjected { node, bit }),
        any::<u16>().prop_map(|node| TraceKind::ForcedHang { node }),
        any::<u16>().prop_map(|node| TraceKind::FtdWoken { node }),
        (any::<u16>(), any::<u64>()).prop_map(|(node, chunks)| TraceKind::Resent { node, chunks }),
        (any::<u16>(), any::<u64>())
            .prop_map(|(node, messages)| TraceKind::CommitAdvanced { node, messages }),
        any::<u16>().prop_map(|node| TraceKind::WatchdogFired { node }),
    ]
}

proptest! {
    /// For ANY interleaving of observability events, the metrics registry
    /// stays consistent with the event stream: every counter equals the
    /// number of emissions of its kind, every histogram's sample count
    /// equals the number of events that feed it, and the registry is
    /// identical whether the trace stores all events (`Full`) or only
    /// milestones (`Milestones`) — storage filtering never changes
    /// accounting.
    #[test]
    fn histogram_totals_equal_event_counts_for_any_interleaving(
        kinds in proptest::collection::vec(arb_obs_kind(), 0..200),
        offsets in proptest::collection::vec(0u64..5_000_000_000, 0..200),
    ) {
        let mut offsets = offsets;
        offsets.sort_unstable();
        let mut full = Trace::full();
        let mut milestones = Trace::enabled();
        // Replicate the detection-latency pairing rule (fault activation →
        // next FTD wake on the same node) to predict that histogram.
        let mut pending: std::collections::BTreeSet<u16> = Default::default();
        let mut expected_detections = 0u64;
        let mut per_kind: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut per_phase = [0u64; 6];
        for (i, kind) in kinds.iter().enumerate() {
            let at = SimTime::ZERO
                + SimDuration::from_nanos(offsets.get(i).copied().unwrap_or(i as u64));
            *per_kind.entry(kind.name()).or_insert(0) += 1;
            match kind {
                TraceKind::FaultInjected { node, .. } | TraceKind::ForcedHang { node } => {
                    pending.insert(*node);
                }
                TraceKind::FtdWoken { node } => {
                    if pending.remove(node) {
                        expected_detections += 1;
                    }
                }
                TraceKind::RecoveryPhaseDone { phase, .. } => {
                    per_phase[phase.index()] += 1;
                }
                _ => {}
            }
            full.emit(at, *kind);
            milestones.emit(at, *kind);
        }

        let m = full.metrics();
        prop_assert_eq!(m.total_events(), kinds.len() as u64);
        for (name, count) in &per_kind {
            prop_assert_eq!(m.counter(name), *count, "counter {}", name);
        }
        prop_assert_eq!(
            m.hist(HistId::SendQueueDepth).count,
            per_kind.get("SendPosted").copied().unwrap_or(0)
        );
        prop_assert_eq!(
            m.hist(HistId::RecvQueueDepth).count,
            per_kind.get("RecvProvided").copied().unwrap_or(0)
        );
        prop_assert_eq!(
            m.hist(HistId::WatchdogGap).count,
            per_kind.get("WatchdogRearmed").copied().unwrap_or(0)
        );
        prop_assert_eq!(
            m.hist(HistId::RetryBackoff).count,
            per_kind.get("RetryScheduled").copied().unwrap_or(0)
        );
        prop_assert_eq!(m.hist(HistId::DetectionLatency).count, expected_detections);
        for phase in RecoveryPhase::ORDER {
            prop_assert_eq!(
                m.hist(HistId::for_phase(phase)).count,
                per_phase[phase.index()],
                "phase {:?}", phase
            );
        }
        // Bucket rows always re-sum to their count.
        for id in HistId::ALL {
            let h = m.hist(id);
            prop_assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "{:?}", id);
        }
        // Storage mode never changes accounting, only what is kept.
        prop_assert_eq!(m.to_json(), milestones.metrics().to_json());
        prop_assert_eq!(full.events().len(), kinds.len());
        prop_assert_eq!(
            milestones.events().len(),
            kinds.iter().filter(|k| !k.is_high_frequency()).count()
        );
    }

    /// `RecoveryReport`'s three Table 3 components always partition the
    /// episode exactly: detection + FTD + per-process == total, for any
    /// milestone spacing.
    #[test]
    fn recovery_report_components_sum_to_total(
        start in 0u64..1_000_000_000,
        d1 in 0u64..2_000_000,
        d2 in 0u64..2_000_000_000,
        d3 in 0u64..2_000_000_000,
    ) {
        let t = |ns: u64| SimTime::ZERO + SimDuration::from_nanos(ns);
        let mut tr = Trace::enabled();
        tr.emit(t(start), TraceKind::ForcedHang { node: 0 });
        tr.emit(t(start + d1), TraceKind::FtdWoken { node: 0 });
        tr.emit(t(start + d1 + d2), TraceKind::FaultDetectedPosted { node: 0, port: 2 });
        tr.emit(
            t(start + d1 + d2 + d3),
            TraceKind::PortReopened {
                node: 0,
                port: 2,
                sends_replayed: 0,
                recvs_replayed: 0,
                streams_restored: 0,
            },
        );
        let r = RecoveryReport::from_trace(&tr).expect("complete");
        prop_assert_eq!(r.detection() + r.ftd_time() + r.per_process(), r.total());
        prop_assert_eq!(r.detection(), SimDuration::from_nanos(d1));
        prop_assert_eq!(r.ftd_time(), SimDuration::from_nanos(d2));
        prop_assert_eq!(r.per_process(), SimDuration::from_nanos(d3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Recovery-phase spans never overlap on a node, wherever the fault
    /// lands: each `RecoveryPhaseDone` span `(at - dur, at]` starts at or
    /// after the previous phase's completion, per node, across the whole
    /// run — including back-to-back episodes on both nodes.
    #[test]
    fn phase_spans_never_overlap_per_node(
        hang0_ms in 1u64..30,
        hang1_ms in 1u64..30,
    ) {
        let mut config = WorldConfig::ftgm();
        config.trace = true;
        let mut w = World::two_node(config);
        let ft = FtSystem::install(&mut w);
        w.run_for(SimDuration::from_ms(hang0_ms));
        ft.inject_forced_hang(&mut w, NodeId(0));
        w.run_for(SimDuration::from_ms(hang1_ms));
        ft.inject_forced_hang(&mut w, NodeId(1));
        w.run_for(SimDuration::from_secs(4));
        prop_assert_eq!(ft.recoveries(NodeId(0)), 1);
        prop_assert_eq!(ft.recoveries(NodeId(1)), 1);
        for node in [0u16, 1] {
            let mut prev_end: Option<SimTime> = None;
            for e in w.trace.events() {
                if let TraceKind::RecoveryPhaseDone { node: n, dur, .. } = e.kind {
                    if n != node {
                        continue;
                    }
                    let start_ns = e.at.as_nanos().saturating_sub(dur.as_nanos());
                    if let Some(end) = prev_end {
                        prop_assert!(
                            SimTime::from_nanos(start_ns) >= end,
                            "node {} phase span overlaps predecessor", node
                        );
                    }
                    prev_end = Some(e.at);
                }
            }
            prop_assert!(prev_end.is_some(), "node {} recovered through phases", node);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Phase bucketing is a partition: whatever the offered load, seed,
    /// and phase layout, the per-phase issued/completed counts of an
    /// [`ftgm_workload::SloReport`] sum exactly to the run totals —
    /// no event is dropped or double-counted at a phase boundary.
    #[test]
    fn workload_phase_counts_sum_to_run_totals(
        gap_us in 20u64..120,
        steady_ms in 5u64..40,
        drain_ms in 5u64..20,
        seed in any::<u64>(),
    ) {
        use ftgm_faults::chaos::ChaosTopology;
        use ftgm_workload::{
            run_spec, Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, Variant, WorkloadSpec,
        };
        let spec = WorkloadSpec::new("prop", ChaosTopology::TwoNode, Variant::Ftgm, seed)
            .flow(FlowSpec {
                src: 0,
                src_port: 0,
                dst: 1,
                dst_port: 2,
                model: ClientModel::OpenLoop {
                    arrival: Arrival::Fixed { gap: SimDuration::from_us(gap_us) },
                },
                sizes: SizeMix::Fixed { bytes: 256 },
            })
            .phase(PhaseKind::Warmup, SimDuration::from_ms(2))
            .phase(PhaseKind::Steady, SimDuration::from_ms(steady_ms))
            .phase(PhaseKind::Drain, SimDuration::from_ms(drain_ms));
        let report = run_spec(&spec);
        prop_assert!(report.total_issued > 0, "spec must offer load");
        let issued: u64 = report.phases.iter().map(|p| p.issued).sum();
        let completed: u64 = report.phases.iter().map(|p| p.completed).sum();
        prop_assert_eq!(issued, report.total_issued);
        prop_assert_eq!(completed, report.total_completed);
        let bytes: u64 = report.phases.iter().map(|p| p.bytes).sum();
        prop_assert_eq!(bytes, report.total_completed * 256);
    }
}

/// Walks a source route through `topo` from `src`'s NIC: returns the
/// delivered node and every link traversed, or `None` if the route runs
/// off the cabling (a byte with no link, or bytes left over at a NIC).
fn walk_route(topo: &Topology, src: NodeId, route: &[u8]) -> Option<(NodeId, Vec<usize>)> {
    let l0 = topo.nic_link(src)?;
    let mut used = vec![l0];
    let mut at = topo.peer(l0, Endpoint::Nic(src))?;
    for &port in route {
        match at {
            Endpoint::SwitchPort { switch, .. } => {
                let l = topo.switch_port_link(switch, port)?;
                used.push(l);
                at = topo.peer(l, Endpoint::SwitchPort { switch, port })?;
            }
            Endpoint::Nic(_) => return None,
        }
    }
    match at {
        Endpoint::Nic(n) => Some((n, used)),
        Endpoint::SwitchPort { .. } => None,
    }
}

/// Which vertices (NICs `0..n`, switches `n..n+s`) are connected to
/// `from` in the residual graph made of the up links only.
fn residual_reach(topo: &Topology, link_up: &[bool], from: usize) -> Vec<bool> {
    let n = topo.node_count();
    let vertex = |ep: Endpoint| match ep {
        Endpoint::Nic(id) => id.0 as usize,
        Endpoint::SwitchPort { switch, .. } => n + switch.0 as usize,
    };
    let total = n + topo.switch_count();
    let mut adj = vec![Vec::new(); total];
    for (l, link) in topo.links().iter().enumerate() {
        if link_up.get(l).copied().unwrap_or(false) {
            let (a, b) = (vertex(link.a), vertex(link.b));
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    let mut seen = vec![false; total];
    let mut queue = std::collections::VecDeque::from([from]);
    seen[from] = true;
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                queue.push_back(w);
            }
        }
    }
    seen
}

proptest! {
    /// Mapper-driven reroute, for ANY chain topology and ANY set of dead
    /// links: (a) no planned route ever traverses an avoided link, (b)
    /// every planned route delivers to exactly the node its table entry
    /// names, and (c) a route exists *iff* the residual fabric still
    /// connects the pair — reachability is never under- or over-promised.
    #[test]
    fn reroute_avoids_dead_links_and_matches_residual_connectivity(
        switches in 1usize..5,
        hosts_per_switch in 1usize..4,
        down_mask in any::<u32>(),
    ) {
        let topo = Topology::switch_chain(switches, hosts_per_switch);
        prop_assert!(topo.links().len() < 32, "mask covers every link");
        let link_up: Vec<bool> = (0..topo.links().len())
            .map(|l| down_mask & (1 << l) == 0)
            .collect();
        let plan = ftgm_net::reroute::plan(&topo, &link_up);
        let n = topo.node_count();
        for src in 0..n {
            let reach = residual_reach(&topo, &link_up, src);
            let table = &plan.tables()[src];
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                match table.route(NodeId(dst as u16)) {
                    Some(route) => {
                        let (delivered, used) = walk_route(&topo, NodeId(src as u16), route)
                            .expect("planned route walks the cabling");
                        prop_assert_eq!(delivered, NodeId(dst as u16));
                        for l in used {
                            prop_assert!(
                                link_up[l],
                                "route {}->{} traverses dead link {}", src, dst, l
                            );
                        }
                    }
                    None => {
                        prop_assert!(
                            !reach[dst],
                            "{}->{} residually connected but unrouted", src, dst
                        );
                    }
                }
                prop_assert_eq!(
                    table.route(NodeId(dst as u16)).is_some(),
                    reach[dst],
                    "reachability mismatch {}->{}", src, dst
                );
            }
        }
    }

    /// On a ring, losing any ONE link never parts the survivors: cutting
    /// an inter-switch link keeps full reachability (the cycle offers the
    /// other direction); cutting a NIC cable isolates exactly that node.
    #[test]
    fn ring_single_link_loss_localizes_damage(
        n in 3usize..10,
        cut_sel in any::<u64>(),
    ) {
        let topo = Topology::ring(n);
        let cut = (cut_sel % topo.links().len() as u64) as usize;
        let mut link_up = vec![true; topo.links().len()];
        link_up[cut] = false;
        let plan = ftgm_net::reroute::plan(&topo, &link_up);
        let nic_of = (0..n).find(|&i| topo.nic_link(NodeId(i as u16)) == Some(cut));
        match nic_of {
            Some(node) => {
                prop_assert_eq!(plan.isolated(), vec![NodeId(node as u16)]);
                prop_assert_eq!(plan.reachable_pairs(), ((n - 1) * (n - 2)) as u64);
            }
            None => {
                prop_assert!(plan.isolated().is_empty());
                prop_assert_eq!(plan.reachable_pairs(), (n * (n - 1)) as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Ring and recursive-doubling all-reduce are the same reduction:
    /// for any communicator size and contribution pattern, both
    /// algorithms deliver the element-wise wrapping sum — identical on
    /// every rank, and identical to each other. (The MPI tier leans on
    /// this: the bench sweep cross-checks the two algorithms' checksums,
    /// and a spare restart replays whichever one the program used.)
    #[test]
    fn ring_and_rd_allreduce_agree(
        n in 1u32..28,
        lanes in 1usize..5,
        salt in any::<u64>(),
    ) {
        use ftgm_mpi::{MpiHarness, Op, OpResult, RankProgram};

        type Outs = Rc<RefCell<Vec<(u32, Vec<u64>)>>>;
        struct OneShot {
            rd: bool,
            lanes: usize,
            salt: u64,
            outs: Outs,
        }
        impl RankProgram for OneShot {
            fn next_op(&mut self, rank: u32, _n: u32, last: Option<OpResult>) -> Option<Op> {
                match last {
                    None => {
                        let values: Vec<u64> = (0..self.lanes as u64)
                            .map(|l| {
                                self.salt
                                    .wrapping_mul(u64::from(rank) + 1)
                                    .wrapping_add(l.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                            })
                            .collect();
                        Some(if self.rd {
                            Op::AllReduceSumRd { values }
                        } else {
                            Op::AllReduceSum { values }
                        })
                    }
                    Some(OpResult::AllReduceSum { values }) => {
                        self.outs.borrow_mut().push((rank, values));
                        None
                    }
                    _ => None,
                }
            }
        }

        let run = |rd: bool| -> Vec<(u32, Vec<u64>)> {
            let outs: Outs = Rc::new(RefCell::new(Vec::new()));
            let mut h = MpiHarness::star(n as usize, WorldConfig::ftgm());
            let o2 = Rc::clone(&outs);
            h.spawn_all(4096, move |_| {
                Box::new(OneShot { rd, lanes, salt, outs: Rc::clone(&o2) })
            });
            let done = h.run_until_done(SimDuration::from_secs(30));
            assert!(done.is_some(), "allreduce (rd={rd}, n={n}) never completed");
            let mut got = outs.borrow().clone();
            got.sort_unstable();
            got
        };

        let expected: Vec<u64> = (0..lanes as u64)
            .map(|l| {
                (0..n).fold(0u64, |acc, rank| {
                    acc.wrapping_add(
                        salt.wrapping_mul(u64::from(rank) + 1)
                            .wrapping_add(l.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                })
            })
            .collect();

        let ring = run(false);
        let rd = run(true);
        prop_assert_eq!(ring.len() as u32, n, "every rank reports");
        prop_assert_eq!(&ring, &rd, "ring and recursive doubling diverged");
        for (rank, values) in &ring {
            prop_assert_eq!(values, &expected, "rank {} sum wrong", rank);
        }
    }
}
