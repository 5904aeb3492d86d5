//! Differential tests: the calendar-queue [`Scheduler`] against the
//! binary-heap [`HeapScheduler`] oracle.
//!
//! The two backends must be observationally identical: same pop order
//! (including FIFO order among equal timestamps), same tie runs out of
//! `pop_run`, same clock, same length — for *any* interleaving of push,
//! pop, and pop-run. The proptest below samples random interleavings;
//! together with the deterministic long-script test it executes well
//! over the 10 000 randomized operations the scale work is gated on.

use ftgm_sim::{HeapScheduler, Scheduler, SimDuration};
use proptest::prelude::*;

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
