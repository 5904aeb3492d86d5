//! Differential tests: the calendar-queue [`Scheduler`] against the
//! legacy binary-heap [`HeapScheduler`] oracle.
//!
//! The two backends must be observationally identical: same pop order
//! (including FIFO order among equal timestamps), same cancel outcomes,
//! same clock, same length — for *any* interleaving of push, pop, and
//! cancel. The proptest below samples random interleavings; together
//! with the deterministic long-script test it executes well over the
//! 10 000 randomized operations the scale work is gated on.

use ftgm_sim::{EventId, HeapScheduler, Scheduler, SimDuration};
use proptest::prelude::*;

/// One encoded operation: `kind` selects push/pop/cancel, `gap` feeds
/// the push delay, `pick` selects the cancel target.
type EncodedOp = (u8, u64, u64);

/// Replays one encoded op sequence on both backends, asserting
/// lock-step equivalence after every operation, then drains both.
/// Returns the number of operations executed (including the drain).
fn assert_backends_equivalent(ops: &[EncodedOp]) -> usize {
    let mut cal: Scheduler<u64> = Scheduler::new();
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    // Ids are backend-specific; the i-th push on one side corresponds to
    // the i-th push on the other.
    let mut cal_ids: Vec<EventId> = Vec::new();
    let mut heap_ids: Vec<EventId> = Vec::new();
    let mut payload = 0u64;
    let mut executed = 0usize;
    for &(kind, gap, pick) in ops {
        match kind % 8 {
            // Pushes dominate, with gaps on a coarse 512 ns lattice so
            // equal timestamps (the FIFO tie-break territory) are common.
            0..=3 => {
                let d = SimDuration::from_nanos((gap % 48) * 512);
                cal_ids.push(cal.schedule_in(d, payload));
                heap_ids.push(heap.schedule_in(d, payload));
                payload += 1;
            }
            // An occasional far-future event exercises the calendar's
            // out-of-window fallback path.
            4 => {
                let d = SimDuration::from_ms(1 + gap % 40);
                cal_ids.push(cal.schedule_in(d, payload));
                heap_ids.push(heap.schedule_in(d, payload));
                payload += 1;
            }
            5..=6 => {
                assert_eq!(cal.peek_time(), heap.peek_time());
                assert_eq!(cal.pop(), heap.pop(), "pop order diverged");
            }
            // Cancel an arbitrary id — pending, fired, or already
            // cancelled; the outcome must agree in every case.
            _ => {
                if !cal_ids.is_empty() {
                    let i = pick as usize % cal_ids.len();
                    assert_eq!(
                        cal.cancel(cal_ids[i]),
                        heap.cancel(heap_ids[i]),
                        "cancel outcome diverged for push #{i}"
                    );
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
    /// pops, and cancels behaves identically on both backends.
    #[test]
    fn calendar_matches_heap_on_random_interleavings(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 64..320),
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
            .map(|_| {
                (
                    rng.gen_range(256) as u8,
                    rng.gen_range(u64::MAX),
                    rng.gen_range(u64::MAX),
                )
            })
            .collect();
        total += assert_backends_equivalent(&ops);
    }
    assert!(total >= 10_000, "only {total} randomized ops executed");
}

/// FIFO among equal timestamps, pinned explicitly: N events at the very
/// same instant pop in insertion order, even when cancellations punch
/// holes in the middle of the tie group.
#[test]
fn equal_timestamps_pop_in_insertion_order_on_both_backends() {
    let mut cal: Scheduler<u32> = Scheduler::new();
    let mut heap: HeapScheduler<u32> = HeapScheduler::new();
    let at = SimDuration::from_us(7);
    let cal_ids: Vec<EventId> = (0..100).map(|i| cal.schedule_in(at, i)).collect();
    let heap_ids: Vec<EventId> = (0..100).map(|i| heap.schedule_in(at, i)).collect();
    for i in (0..100).step_by(7) {
        assert!(cal.cancel(cal_ids[i]));
        assert!(heap.cancel(heap_ids[i]));
    }
    let mut expect = (0..100u32).filter(|i| i % 7 != 0);
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
/// calendar resize), then hold-model rounds — pop one, push one — with an
/// extra push and one cancel of a recent push every eighth round, so the
/// live population stays steady while cancels hit both pending and
/// already-fired ids.
#[test]
fn calendar_matches_heap_on_the_256_node_hold_model() {
    use ftgm_sim::SimRng;
    const POPULATION: usize = 256 * 32;
    const ROUNDS: usize = 40_000;
    let mut rng = SimRng::new(0x5CA1_E256);
    let mut ops: Vec<EncodedOp> = (0..POPULATION).map(|_| (0, rng.gen_range(48), 0)).collect();
    let mut pushes = POPULATION as u64;
    for round in 0..ROUNDS {
        if round % 8 == 7 {
            ops.push((0, rng.gen_range(48), 0));
            pushes += 1;
            // `pick` is an index into the pushes so far: one of the
            // last POPULATION / 2, usually but not always still pending.
            ops.push((7, 0, pushes - 1 - rng.gen_range(POPULATION as u64 / 2)));
        }
        ops.push((5, 0, 0));
        ops.push((0, rng.gen_range(48), 0));
        pushes += 1;
    }
    let executed = assert_backends_equivalent(&ops);
    assert!(executed > ops.len() + POPULATION / 2, "drain covered the live population");
}
