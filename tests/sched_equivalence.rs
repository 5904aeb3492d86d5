//! Differential tests: the calendar-queue [`Scheduler`] against a
//! binary-heap oracle.
//!
//! The two backends must be observationally identical: same pop order
//! (including FIFO order among equal timestamps), same tie runs out of
//! `pop_run`, same clock, same length — for *any* interleaving of push,
//! pop, and pop-run. The proptest below samples random interleavings;
//! together with the deterministic long-script test it executes well
//! over the 10 000 randomized operations the scale work is gated on. The
//! lock-step script replays the queue shape of 256 MPI ranks: bursts of
//! one instant per rank, sub-microsecond spacing, and timers 10^5 times
//! farther out.
//!
//! The oracle lives here and nowhere else: it is a plain
//! [`BinaryHeap`] ordered by `(time, sequence)`, with the calendar's
//! contract tests run against it too.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ftgm_sim::{Scheduler, SimDuration, SimTime};
use proptest::prelude::*;

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest entry.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The oracle: [`Scheduler`]'s interface and semantics — `(time,
/// sequence)` order, past-scheduling panics — on a binary heap.
struct HeapScheduler<E> {
    now: SimTime,
    next_event_seq: u64,
    heap: BinaryHeap<HeapEntry<E>>,
    popped: u64,
}

impl<E> HeapScheduler<E> {
    fn new() -> Self {
        HeapScheduler {
            now: SimTime::ZERO,
            next_event_seq: 0,
            heap: BinaryHeap::new(),
            popped: 0,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn events_delivered(&self) -> u64 {
        self.popped
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.heap.push(HeapEntry { at, seq, event });
    }

    fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    fn pop_run(&mut self, out: &mut Vec<(SimTime, E)>) -> usize {
        self.pop_run_by(SimTime::MAX, out)
    }

    fn pop_run_by(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        out.clear();
        let Some(t) = self.peek_time().filter(|&t| t <= deadline) else {
            return 0;
        };
        while self.peek_time() == Some(t) {
            let Some(run) = self.pop() else {
                break;
            };
            out.push(run);
        }
        out.len()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The calendar's contract (`sched.rs`'s unit tests), held on the
/// oracle too, so the two cannot drift apart.
mod heap_oracle {
    use super::HeapScheduler;
    use ftgm_sim::{SimDuration, SimTime};

    #[test]
    fn pops_in_time_order() {
        let mut s: HeapScheduler<&str> = HeapScheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut s: HeapScheduler<u32> = HeapScheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut s: HeapScheduler<()> = HeapScheduler::new();
        s.schedule_at(SimTime::from_nanos(42), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut s: HeapScheduler<()> = HeapScheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s: HeapScheduler<u32> = HeapScheduler::new();
        s.schedule_at(SimTime::from_nanos(100), 1);
        s.pop();
        s.schedule_in(SimDuration::from_nanos(50), 2);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(150), 2)));
    }

    #[test]
    fn empty_and_counters() {
        let mut s: HeapScheduler<u32> = HeapScheduler::new();
        assert!(s.is_empty());
        s.schedule_in(SimDuration::ZERO, 9);
        assert!(!s.is_empty());
        s.pop();
        assert!(s.is_empty());
        assert_eq!(s.events_delivered(), 1);
    }

    #[test]
    fn pop_run_drains_exactly_the_tie_run_in_fifo_order() {
        let mut s: HeapScheduler<u32> = HeapScheduler::new();
        for i in 0..5 {
            s.schedule_at(SimTime::from_nanos(10), i);
        }
        s.schedule_at(SimTime::from_nanos(11), 99);
        let mut out = Vec::new();
        assert_eq!(s.pop_run(&mut out), 5);
        for (k, &(at, e)) in out.iter().enumerate() {
            assert_eq!(at, SimTime::from_nanos(10));
            assert_eq!(e, k as u32);
        }
        assert_eq!(s.now(), SimTime::from_nanos(10));
        // The later timestamp is untouched by the first run.
        assert_eq!(s.pop_run(&mut out), 1);
        assert_eq!(out, vec![(SimTime::from_nanos(11), 99)]);
        assert_eq!(s.now(), SimTime::from_nanos(11));
        // Exhausted: returns 0 and leaves out empty.
        assert_eq!(s.pop_run(&mut out), 0);
        assert!(out.is_empty());
        assert_eq!(s.events_delivered(), 6);
    }

    #[test]
    fn pop_run_matches_sequential_pops() {
        // Same mixed workload through both drain styles must yield the
        // identical (time, payload) stream.
        let build = || {
            let mut s: HeapScheduler<u32> = HeapScheduler::new();
            for i in 0..200u32 {
                let at = SimTime::from_nanos(u64::from(i * 13 % 29));
                s.schedule_at(at, i);
            }
            s
        };
        let mut a = build();
        let singles: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let mut b = build();
        let mut runs = Vec::new();
        let mut out = Vec::new();
        while b.pop_run(&mut out) > 0 {
            runs.extend(out.drain(..));
        }
        assert_eq!(singles, runs);
        assert_eq!(a.events_delivered(), b.events_delivered());
    }
}

/// One encoded operation: `kind` selects push/pop/pop-run, `gap` feeds
/// the push delay (and the delays of a drained run's successors).
type EncodedOp = (u8, u64);

/// Replays one encoded op sequence on both backends, asserting
/// lock-step equivalence after every operation, then drains both.
/// Returns the number of operations executed (including the drain).
fn assert_backends_equivalent(ops: &[EncodedOp]) -> usize {
    let mut cal: Scheduler<u64> = Scheduler::new();
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let (mut cal_run, mut heap_run) = (Vec::new(), Vec::new());
    let mut payload = 0u64;
    let mut executed = 0usize;
    for &(kind, gap) in ops {
        match kind % 8 {
            // Pushes dominate, with gaps on a coarse 512 ns lattice so
            // equal timestamps (the FIFO tie-break territory) are common.
            0..=3 => {
                let d = SimDuration::from_nanos((gap % 48) * 512);
                cal.schedule_in(d, payload);
                heap.schedule_in(d, payload);
                payload += 1;
            }
            // An occasional far-future event exercises the calendar's
            // out-of-window fallback path.
            4 => {
                let d = SimDuration::from_ms(1 + gap % 40);
                cal.schedule_in(d, payload);
                heap.schedule_in(d, payload);
                payload += 1;
            }
            5..=6 => {
                assert_eq!(cal.peek_time(), heap.peek_time());
                assert_eq!(cal.pop(), heap.pop(), "pop order diverged");
            }
            // The drain `World::run_until` uses: the whole tie run at
            // the earliest timestamp, then one successor per drained
            // event, as handling it would schedule.
            _ => {
                assert_eq!(cal.peek_time(), heap.peek_time());
                assert_eq!(
                    cal.pop_run(&mut cal_run),
                    heap.pop_run(&mut heap_run),
                    "pop_run count diverged"
                );
                assert_eq!(cal_run, heap_run, "pop_run order diverged");
                for i in 0..cal_run.len() as u64 {
                    let d = SimDuration::from_nanos((gap.wrapping_add(i) % 48) * 512);
                    cal.schedule_in(d, payload);
                    heap.schedule_in(d, payload);
                    payload += 1;
                }
            }
        }
        executed += 1;
        assert_eq!(cal.len(), heap.len());
        assert_eq!(cal.is_empty(), heap.is_empty());
        assert_eq!(cal.now(), heap.now());
    }
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h, "drain order diverged");
        executed += 1;
        if c.is_none() {
            break;
        }
    }
    assert_eq!(cal.events_delivered(), heap.events_delivered());
    executed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random interleaving of pushes (duplicate-timestamp heavy),
    /// pops, and pop-runs behaves identically on both backends.
    #[test]
    fn calendar_matches_heap_on_random_interleavings(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 64..320),
    ) {
        assert_backends_equivalent(&ops);
    }
}

/// Deterministic long scripts guarantee the ≥ 10 000-operation floor
/// regardless of how the property test above is configured (e.g. a
/// reduced `PROPTEST_CASES` environment).
#[test]
fn calendar_matches_heap_over_ten_thousand_ops() {
    use ftgm_sim::SimRng;
    let mut total = 0usize;
    for seed in 0..3u64 {
        let mut rng = SimRng::new(0xD1FF ^ seed);
        let ops: Vec<EncodedOp> = (0..4000)
            .map(|_| (rng.gen_range(256) as u8, rng.gen_range(u64::MAX)))
            .collect();
        total += assert_backends_equivalent(&ops);
    }
    assert!(total >= 10_000, "only {total} randomized ops executed");
}

/// FIFO among equal timestamps, pinned explicitly: N events at the very
/// same instant pop in insertion order.
#[test]
fn equal_timestamps_pop_in_insertion_order_on_both_backends() {
    let mut cal: Scheduler<u32> = Scheduler::new();
    let mut heap: HeapScheduler<u32> = HeapScheduler::new();
    let at = SimDuration::from_us(7);
    for i in 0..100 {
        cal.schedule_in(at, i);
        heap.schedule_in(at, i);
    }
    let mut expect = 0..100u32;
    loop {
        let (c, h) = (cal.pop(), heap.pop());
        assert_eq!(c, h);
        match c {
            Some((t, payload)) => {
                assert_eq!(t.as_nanos(), 7_000);
                assert_eq!(Some(payload), expect.next(), "FIFO order broken");
            }
            None => break,
        }
    }
    assert_eq!(expect.next(), None, "events missing");
}

/// The 256-node population: 8 192 pre-pushed events (enough to make the
/// calendar resize), then hold-model rounds — pop one, push one — with a
/// whole tie run drained and rescheduled every eighth round, so the
/// population stays exactly steady.
#[test]
fn calendar_matches_heap_on_the_256_node_hold_model() {
    use ftgm_sim::SimRng;
    const POPULATION: usize = 256 * 32;
    const ROUNDS: usize = 40_000;
    let mut rng = SimRng::new(0x5CA1_E256);
    let mut ops: Vec<EncodedOp> = (0..POPULATION).map(|_| (0, rng.gen_range(48))).collect();
    for round in 0..ROUNDS {
        if round % 8 == 7 {
            ops.push((7, rng.gen_range(48)));
        }
        ops.push((5, 0));
        ops.push((0, rng.gen_range(48)));
    }
    let executed = assert_backends_equivalent(&ops);
    // Every op, then POPULATION pops and the one that finds the queues empty.
    assert_eq!(
        executed,
        ops.len() + POPULATION + 1,
        "drain covered the population"
    );
}

/// `mpi256`'s queue in miniature. Each of 256 ranks holds one step
/// event and, from the 500th drain on, one poll 800 µs out and one timer
/// 100 ms out; every drained event schedules exactly one successor of
/// its own kind. The steps cycle through the shapes lock-step
/// collectives give the queue: a successor at the very same instant, a
/// barrier that puts all 256 ranks on one instant, per-rank jitter (~3 ns
/// between ranks for the first 20 ms, 97 ns after, so the head's
/// spacing changes under a steady population), and every 32nd round a
/// quiet stretch in which the ranks meet on an instant milliseconds past
/// their polls. Every 97th drain is a single `pop` out of a run and
/// every 89th asks `pop_run_by` only for what is due at `now`.
#[test]
fn calendar_matches_heap_on_a_lock_step_collective() {
    const RANKS: u64 = 256;
    const DRAINS: usize = 7_000;
    const STEP: u64 = 0;
    const POLL: u64 = 1;
    const TIMER: u64 = 2;
    let event = |kind: u64, round: u64, rank: u64| (round << 10) | (kind << 8) | rank;
    let successor = |at: SimTime, e: u64| {
        let (round, kind, rank) = (e >> 10, (e >> 8) & 3, e & 0xff);
        let t = at.as_nanos();
        let next = match (kind, round % 32, round % 8) {
            (POLL, _, _) => t + 800_000,
            (TIMER, _, _) => t + 100_000_000,
            (_, 31, _) => (t / 20_000_000 + 1) * 20_000_000,
            (_, _, 0 | 5) => t,
            (_, _, 2 | 6) => t + 1_000,
            (_, _, 3) if t < 20_000_000 => t + 300 + rank * 37 % 700,
            (_, _, 3) => t + 300 + rank * 97 % 25_000,
            _ => (t / 2_000 + 1) * 2_000,
        };
        (SimTime::from_nanos(next), event(kind, round + 1, rank))
    };

    let mut cal: Scheduler<u64> = Scheduler::new();
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    for rank in 0..RANKS {
        cal.schedule_at(SimTime::ZERO, event(STEP, 0, rank));
        heap.schedule_at(SimTime::ZERO, event(STEP, 0, rank));
    }
    let (mut cal_run, mut heap_run) = (Vec::new(), Vec::new());
    let mut longest = 0;
    for drain in 0..DRAINS {
        // The ranks arm their polls and timers once the steps are under
        // way, so the calendar grows with a clock history behind it.
        if drain == 500 {
            let t = cal.now().as_nanos();
            for rank in 0..RANKS {
                for (at, e) in [
                    (t + 800_000 + 3 * (rank % 4), event(POLL, 0, rank)),
                    (t + 100_000_000 + rank, event(TIMER, 0, rank)),
                ] {
                    cal.schedule_at(SimTime::from_nanos(at), e);
                    heap.schedule_at(SimTime::from_nanos(at), e);
                }
            }
        }
        if drain % 97 == 0 {
            let popped = cal.pop();
            assert_eq!(popped, heap.pop(), "pop diverged");
            cal_run.clear();
            cal_run.extend(popped);
        } else if drain % 89 == 0 {
            let now = cal.now();
            assert_eq!(
                cal.pop_run_by(now, &mut cal_run),
                heap.pop_run_by(now, &mut heap_run)
            );
            assert_eq!(cal_run, heap_run, "pop_run_by diverged");
        } else {
            assert_eq!(cal.pop_run(&mut cal_run), heap.pop_run(&mut heap_run));
            assert_eq!(cal_run, heap_run, "pop_run diverged at drain {drain}");
        }
        longest = longest.max(cal_run.len());
        for &(at, e) in &cal_run {
            let (next, e) = successor(at, e);
            cal.schedule_at(next, e);
            heap.schedule_at(next, e);
        }
        assert_eq!((cal.len(), cal.now()), (heap.len(), heap.now()));
    }
    assert!(cal.now() > SimTime::from_nanos(100_000_000), "stopped at {:?}", cal.now());
    assert!(longest >= RANKS as usize, "bursts of {longest}, wanted all ranks");
    while cal.pop_run(&mut cal_run) > 0 {
        assert_eq!(heap.pop_run(&mut heap_run), cal_run.len());
        assert_eq!(cal_run, heap_run, "final drain diverged");
    }
    assert!(heap.is_empty());
    assert_eq!(cal.events_delivered(), heap.events_delivered());
}
