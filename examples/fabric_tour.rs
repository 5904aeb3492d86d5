//! A tour of the Myrinet substrate itself: topology, mapper, wormhole
//! timing, firmware.
//!
//! ```text
//! cargo run --release --example fabric_tour
//! ```
//!
//! Everything the higher layers stand on, exercised directly: build a
//! two-switch topology, run the GM mapper, watch routes deliver, measure
//! wormhole contention, and single-step the `send_chunk` firmware on a
//! bare LANai chip.

use ftgm_lanai::chip::ChipEffect;
use ftgm_lanai::cpu::RETURN_ADDR;
use ftgm_lanai::isa::Reg;
use ftgm_lanai::LanaiChip;
use ftgm_mcp::firmware::{layout, FirmwareImage};
use ftgm_mcp::packet::{stream_word, Header};
use ftgm_net::{Endpoint, Fabric, FabricParams, Mapper, NodeId, Topology};
use ftgm_sim::SimTime;

fn main() {
    // --- 1. cable a network ------------------------------------------------
    let mut b = Topology::builder();
    b.add_nodes(4);
    let s0 = b.add_switch(8);
    let s1 = b.add_switch(8);
    b.connect(Endpoint::Nic(NodeId(0)), Endpoint::SwitchPort { switch: s0, port: 0 });
    b.connect(Endpoint::Nic(NodeId(1)), Endpoint::SwitchPort { switch: s0, port: 1 });
    b.connect(Endpoint::Nic(NodeId(2)), Endpoint::SwitchPort { switch: s1, port: 0 });
    b.connect(Endpoint::Nic(NodeId(3)), Endpoint::SwitchPort { switch: s1, port: 1 });
    b.connect(
        Endpoint::SwitchPort { switch: s0, port: 7 },
        Endpoint::SwitchPort { switch: s1, port: 7 },
    );
    let topo = b.build();
    println!("topology: {} hosts, {} switches, {} links", topo.node_count(), topo.switch_count(), topo.links().len());

    // --- 2. run the mapper ---------------------------------------------------
    let tables = Mapper::map(&topo);
    for dst in 1..4u16 {
        println!(
            "route node0 -> node{dst}: {:?}",
            tables[0].route(NodeId(dst)).expect("reachable")
        );
    }

    // --- 3. wormhole timing & contention ------------------------------------
    let mut fabric = Fabric::new(topo, FabricParams::default());
    let route03 = tables[0].route(NodeId(3)).unwrap().clone();
    let route12 = tables[1].route(NodeId(2)).unwrap().clone();
    let a = fabric
        .inject(SimTime::ZERO, NodeId(0), &route03, vec![0xAA; 2048])
        .expect("delivers");
    // Same instant, crossing the same inter-switch link: backpressure.
    let c = fabric
        .inject(SimTime::ZERO, NodeId(1), &route12, vec![0xBB; 2048])
        .expect("delivers");
    println!(
        "\nwormhole: node0->node3 arrives t={}, contending node1->node2 t={} (blocked behind it)",
        a.at, c.at
    );
    assert!(c.at > a.at, "second worm waited for the shared channel");

    // --- 4. the firmware, on bare silicon -----------------------------------
    let fw = FirmwareImage::build();
    let mut chip = LanaiChip::new(layout::SRAM_LEN);
    chip.sram.write_bytes(layout::CODE_BASE, fw.bytes());
    let payload = b"hello, LANai".to_vec();
    let stage = FirmwareImage::slab_addr(0);
    chip.sram.write_bytes(stage, &payload);
    use layout::sendrec as o;
    let sr = layout::SENDREC;
    for (off, v) in [
        (o::STAGE_ADDR, stage),
        (o::LEN, payload.len() as u32),
        (o::SEQ, 7),
        (o::STREAM, stream_word(NodeId(0), 0, 2, ftgm_mcp::packet::flags::LAST_CHUNK)),
        (o::MSG_LEN, payload.len() as u32),
        (o::CHUNK_OFF, 0),
        (o::HDR_BUF, layout::PKT_BUF),
        (o::STATUS_HOST, 0),
    ] {
        chip.sram.write_u32(sr + off, v).unwrap();
    }
    chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
    let outcome = chip.run_routine(SimTime::ZERO, fw.entry_send(), 20_000);
    println!("\nsend_chunk: {outcome:?}");
    for e in chip.take_effects() {
        if let ChipEffect::TxFrame(f) = e {
            let (h, p) = Header::parse(&f.bytes).expect("valid frame");
            println!(
                "frame built by firmware: seq={} len={} last={} payload={:?}",
                h.seq(),
                h.payload_len,
                h.last_chunk,
                String::from_utf8_lossy(p)
            );
        }
    }
}
