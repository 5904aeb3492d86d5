//! Heap-allocation budgets: the steady-state message path and world
//! construction.
//!
//! Its own test binary, because it installs a counting global allocator:
//! a two-node closed-loop ping-pong must cost at most
//! [`BUDGET_PER_MESSAGE`] allocations per one-way message once warm, and
//! must schedule no boxed-closure event at all. What remains is the wire
//! frame, the ACK frame and the `GmEvent::Received` payload copy
//! (DESIGN.md §5b), the same three on GM and on FTGM. Building a world
//! must stay within a per-host budget: the mapper searches once per
//! switch and every host on a switch shares its routes, so the count
//! grows with switches × hosts, not hosts². The counts do not depend on
//! the build profile; `ci.sh` runs the release build as its own step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use ftgm_gm::{App, Ctx, GmEvent, World, WorldConfig};
use ftgm_net::NodeId;
use ftgm_sim::SimDuration;

/// Allocations (and reallocations) allowed per one-way message.
const BUDGET_PER_MESSAGE: f64 = 4.0;
/// Allocations allowed per host to build the 256-host fat tree: 16 leaf
/// switches, so 16 shared routes per host plus the host and NIC models.
const BUDGET_PER_HOST_FAT_TREE: u64 = 64;
/// Allocations allowed per host to build the 272-host torus: one switch
/// per host, so every host's search allocates a route to every host.
const BUDGET_PER_HOST_TORUS: u64 = 400;

struct Counting;

thread_local! {
    /// Per thread, so the harness's other threads do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // Thread teardown may allocate after the slot is gone; not ours.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the only addition is
// a bump of a destructor-less thread-local integer, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const PAYLOAD: [u8; 64] = [0x5A; 64];
const SERVER_PORT: u8 = 2;

/// Sends a ping, waits for the pong, repeats; every tenth round trip it
/// also takes a detour through a zero-delay alarm, so the alarm path is
/// inside the measured window too.
struct Client {
    round_trips: Rc<Cell<u64>>,
}

impl App for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4 {
            ctx.gm_provide_receive_buffer(256);
        }
        ctx.gm_send(&PAYLOAD, NodeId(1), SERVER_PORT);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received { data, .. } => {
                assert_eq!(data, PAYLOAD);
                ctx.gm_provide_receive_buffer(256);
                self.round_trips.set(self.round_trips.get() + 1);
                if self.round_trips.get() % 10 == 0 {
                    ctx.set_alarm(SimDuration::ZERO, 0);
                } else {
                    ctx.gm_send(&PAYLOAD, NodeId(1), SERVER_PORT);
                }
            }
            GmEvent::Alarm { .. } => {
                ctx.gm_send(&PAYLOAD, NodeId(1), SERVER_PORT);
            }
            GmEvent::SentOk { .. } => {}
            GmEvent::SendError { .. } | GmEvent::InterfaceDead => panic!("{ev:?}"),
        }
    }
}

/// Echoes every message back to its sender.
struct Server;

impl App for Server {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..4 {
            ctx.gm_provide_receive_buffer(256);
        }
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: GmEvent) {
        match ev {
            GmEvent::Received { src_node, src_port, data, .. } => {
                ctx.gm_provide_receive_buffer(256);
                ctx.gm_send(&data, src_node, src_port);
            }
            GmEvent::SentOk { .. } | GmEvent::Alarm { .. } => {}
            GmEvent::SendError { .. } | GmEvent::InterfaceDead => panic!("{ev:?}"),
        }
    }
}

fn run_until_round_trips(w: &mut World, done: &Cell<u64>, target: u64) {
    while done.get() < target {
        w.run_for(SimDuration::from_us(200));
    }
}

/// Allocations per one-way message over 2 000 warm round trips.
fn steady_state_allocs_per_message(config: WorldConfig) -> f64 {
    let mut w = World::two_node(config);
    let done = Rc::new(Cell::new(0));
    w.spawn_app(NodeId(1), SERVER_PORT, Box::new(Server));
    w.spawn_app(NodeId(0), 0, Box::new(Client { round_trips: done.clone() }));
    run_until_round_trips(&mut w, &done, 1_000);

    let (a0, n0, calls0) = (allocs(), done.get(), w.stats().closure_calls);
    run_until_round_trips(&mut w, &done, n0 + 2_000);
    let (a1, n1, calls1) = (allocs(), done.get(), w.stats().closure_calls);

    assert_eq!(
        calls1, calls0,
        "the send, provide-buffer, receive-event and alarm paths must not box a closure"
    );
    (a1 - a0) as f64 / (2 * (n1 - n0)) as f64
}

#[test]
fn steady_state_ping_pong_stays_within_the_allocation_budget() {
    let [gm, ftgm] = [("gm", WorldConfig::gm()), ("ftgm", WorldConfig::ftgm())].map(|(name, config)| {
        let per_message = steady_state_allocs_per_message(config);
        println!("{name}: {per_message:.2} allocations per one-way message");
        assert!(
            per_message <= BUDGET_PER_MESSAGE,
            "{name}: {per_message:.2} allocations per one-way message, budget {BUDGET_PER_MESSAGE}"
        );
        per_message
    });
    // Whole allocations: the fraction is amortised growth of run-long logs.
    assert_eq!(gm.round(), ftgm.round(), "FTGM's bookkeeping allocates nothing GM's does not");
}

/// Allocations per host to build a world.
fn world_allocs_per_host(build: impl FnOnce() -> World) -> u64 {
    let a0 = allocs();
    let w = build();
    let a1 = allocs();
    (a1 - a0) / w.nodes.len() as u64
}

#[test]
fn world_construction_stays_within_the_allocation_budget() {
    // Warm the process-wide firmware image: it is assembled once, not
    // once per world.
    drop(World::two_node(WorldConfig::ftgm()));
    let fat_tree = world_allocs_per_host(|| World::fat_tree(4, 16, 16, WorldConfig::ftgm()));
    let torus = world_allocs_per_host(|| World::torus(16, 17, WorldConfig::ftgm()));
    for (name, per_host, budget) in [
        ("fat_tree(4,16,16)", fat_tree, BUDGET_PER_HOST_FAT_TREE),
        ("torus(16,17)", torus, BUDGET_PER_HOST_TORUS),
    ] {
        println!("{name}: {per_host} allocations per host to build the world");
        assert!(
            per_host <= budget,
            "{name}: {per_host} allocations per host, budget {budget}"
        );
    }
}
